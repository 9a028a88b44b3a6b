import pytest

from canxlnet.frames import CanXlFrame, ClassicCanFrame, EthernetFrame, SDT_ETHERNET, ZERO_MAC
from canxlnet.media import CanBus, Station
from canxlnet.timing import CanXlTimingParams


def xl(priority):
    return CanXlFrame(priority, SDT_ETHERNET, 0, 0, bytes(60))


class Recorder:
    """The simulation side of a bus: records starts and clashes, and
    leaves the kicks to the test."""

    def __init__(self):
        self.started = []
        self.clashed = []

    def schedule(self, t_ns, handler, *args):
        pass

    def on_tx_start(self, medium, station, frame, now, duration_ns, rx=None):
        self.started.append((station.name, frame))

    def on_clash(self, bus, dropped):
        self.clashed.append([(station.name, frame) for station, frame in dropped])


def contend(*frames):
    """Queue one frame on each of stations a, b, c, ... of an idle bus and
    kick it once; returns the bus and what the kick did."""
    sim = Recorder()
    bus = CanBus("bus", CanXlTimingParams(500e3, 16e6))
    for name, frame in zip("abcdefgh", frames):
        station = Station(name, None, bus)
        bus.stations.append(station)
        bus.enqueue(sim, station, frame, 0)
    bus.kick(sim, 0)
    return bus, sim


def test_minimum_priority_wins():
    bus, sim = contend(xl(0x100), xl(0x0FF), xl(0x200))
    assert sim.started == [("b", xl(0x0FF))]
    assert sim.clashed == [] and bus.clashes == 0


def test_single_contender():
    _, sim = contend(xl(7))
    assert sim.started == [("a", xl(7))]


def test_equal_priority_clashes():
    # the tied frames are both dropped; the rest re-arbitrate at once
    bus, sim = contend(xl(0x100), xl(0x100), xl(0x200))
    assert sim.clashed == [[("a", xl(0x100)), ("b", xl(0x100))]]
    assert bus.clashes == 1
    assert sim.started == [("c", xl(0x200))]
    assert not any(st.queue for st in bus.stations)


def test_classic_frames_contend_on_identifier():
    _, sim = contend(xl(0x150), ClassicCanFrame(0x100, b""))
    assert sim.started == [("b", ClassicCanFrame(0x100, b""))]


def test_no_contenders_start_nothing():
    bus, sim = contend()
    assert sim.started == [] and sim.clashed == []
    assert bus.busy_until == 0


def test_ethernet_frames_cannot_contend():
    bus = CanBus("bus", CanXlTimingParams(500e3, 16e6))
    station = Station("a", None, bus)
    bus.stations.append(station)
    with pytest.raises(TypeError):
        bus.enqueue(Recorder(), station, EthernetFrame(ZERO_MAC, ZERO_MAC, 0, b""), 0)
    assert not station.queue
