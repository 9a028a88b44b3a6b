from types import SimpleNamespace

import pytest

from canxlnet.frames import (
    CanXlFrame,
    ClassicCanFrame,
    EthernetFrame,
    SDT_ETHERNET,
    ZERO_MAC,
    decode,
)
from canxlnet.media import CanBus
from canxlnet.timing import CanXlTimingParams


def xl(priority):
    return CanXlFrame(priority, SDT_ETHERNET, 0, 0, bytes(60))


def carried(name, frame):
    """What station `name`'s `frame` must reach the simulation with: its
    decoded value, queued along with it."""
    return (name, frame, decode(frame))


class Recorder:
    """The simulation side of a bus: records starts and clashes, and
    leaves the kicks to the test."""

    now = 0

    def __init__(self):
        self.started = []
        self.clashed = []

    def schedule(self, t_ns, handler, *args):
        pass

    def on_tx_start(self, station, frame, duration_ns, rx):
        self.started.append((station.name, frame, rx))

    def on_clash(self, bus, dropped):
        self.clashed.append([(station.name, frame, rx) for station, frame, rx in dropped])


def contend(*frames):
    """Queue one frame on each of stations a, b, c, ... of an idle bus and
    kick it once; returns the bus and what the kick did.  Each frame is
    queued with its decoded value."""
    sim = Recorder()
    bus = CanBus("bus", CanXlTimingParams(500e3, 16e6))
    for name, frame in zip("abcdefgh", frames):
        station = SimpleNamespace(name=name)
        bus.attach(station)
        bus.enqueue(sim, station, frame, decode(frame))
    bus.kick(sim)
    return bus, sim


def test_minimum_priority_wins():
    bus, sim = contend(xl(0x100), xl(0x0FF), xl(0x200))
    assert sim.started == [carried("b", xl(0x0FF))]
    assert sim.clashed == [] and bus.clashes == 0


def test_single_contender():
    _, sim = contend(xl(7))
    assert sim.started == [carried("a", xl(7))]


def test_equal_priority_clashes():
    # the tied frames are both dropped; the rest re-arbitrate at once
    bus, sim = contend(xl(0x100), xl(0x100), xl(0x200))
    assert sim.clashed == [[carried("a", xl(0x100)), carried("b", xl(0x100))]]
    assert bus.clashes == 1
    assert sim.started == [carried("c", xl(0x200))]
    assert not any(st.queue for st in bus.stations)


def test_classic_frames_contend_on_identifier():
    _, sim = contend(xl(0x150), ClassicCanFrame(0x100, b""))
    assert sim.started == [carried("b", ClassicCanFrame(0x100, b""))]


def test_no_contenders_start_nothing():
    bus, sim = contend()
    assert sim.started == [] and sim.clashed == []
    assert bus.busy_until == 0


def test_ethernet_frames_cannot_contend():
    bus = CanBus("bus", CanXlTimingParams(500e3, 16e6))
    station = SimpleNamespace(name="a")
    bus.attach(station)
    eth = EthernetFrame(ZERO_MAC, ZERO_MAC, 0, b"")
    with pytest.raises(TypeError):
        bus.enqueue(Recorder(), station, eth, decode(eth))
    assert not station.queue
