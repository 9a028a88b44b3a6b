import heapq
import itertools
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from canxlnet import timing
from canxlnet.frames import (
    CANXL_MAX_DATA,
    ETH_MTU,
    CanXlFrame,
    ClassicCanFrame,
    EthernetFrame,
    SDT_ETHERNET,
    ZERO_MAC,
)
from canxlnet.media import CanBus, EthernetLink
from canxlnet.timing import CanXlTimingParams, EthernetTimingParams, InvalidPayload, to_ns


def xl(priority):
    return CanXlFrame(priority, SDT_ETHERNET, 0, 0, bytes(60))


class Recorder:
    """The simulation side of a bus: records starts and clashes, and
    leaves the kicks to the test."""

    now = 0

    def __init__(self):
        self.started = []
        self.clashed = []

    def schedule(self, t_ns, handler, *args):
        pass

    def on_tx_start(self, station, frame, duration_ns):
        self.started.append((station.name, frame))

    def on_clash(self, bus, dropped):
        self.clashed.append([(station.name, frame) for station, frame in dropped])


def contend(*frames):
    """Queue one frame on each of stations a, b, c, ... of an idle bus and
    kick it once; returns the bus and what the kick did."""
    sim = Recorder()
    bus = CanBus("bus", CanXlTimingParams(500e3, 16e6))
    for name, frame in zip("abcdefgh", frames):
        station = SimpleNamespace(name=name)
        bus.attach(station)
        bus.enqueue(sim, station, frame)
    bus.kick(sim, None)  # the kick serves every station
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
    station = SimpleNamespace(name="a")
    bus.attach(station)
    eth = EthernetFrame(ZERO_MAC, ZERO_MAC, 0, b"")
    with pytest.raises(TypeError):
        bus.enqueue(Recorder(), station, eth)
    assert not station.queue


# -- arbitration over the waiting stations -------------------------------------

KICK = None  # a program step that kicks the bus; any other step queues a frame


def reference_arbitration(names: str, program) -> tuple[list, list]:
    """The starts and clash lists of `program` on a bus of stations `names`,
    each kick scanning every station in bus order: the lowest head priority
    wins, and equal head priorities at two or more stations clash, in bus
    order, and the rest re-arbitrate at once."""
    queues = {name: [] for name in names}
    order = itertools.count()
    started, clashed = [], []
    for step in program:
        if step is not KICK:
            name, frame = step
            heapq.heappush(queues[name], (frame.priority, next(order), frame))
            continue
        while True:
            heads = [name for name in names if queues[name]]
            if not heads:
                break
            best = min(queues[name][0][0] for name in heads)
            tied = [name for name in heads if queues[name][0][0] == best]
            if len(tied) == 1:
                started.append((tied[0], heapq.heappop(queues[tied[0]])[2]))
                break
            clashed.append([(name, heapq.heappop(queues[name])[2]) for name in tied])
    return started, clashed


@st.composite
def bus_programs(draw):
    """Station names a.. (up to 8) and a program of kicks and enqueues; the
    few priorities make repeats at one station and 2- and 3-way clashes
    common.  Every frame is told apart by its AF."""
    names = "abcdefgh"[:draw(st.integers(1, 8))]
    steps = draw(st.lists(st.one_of(st.just(KICK), st.tuples(
        st.sampled_from(names), st.sampled_from((0x100, 0x101, 0x102)))), max_size=40))
    af = itertools.count()
    program = [step if step is KICK else (step[0], CanXlFrame(step[1], SDT_ETHERNET, 0,
                                                              next(af), b"x"))
               for step in steps]
    return names, program + [KICK]


# Queued against bus order: one kick sees a 3-way clash, then a 2-way one,
# then f wins; a's second frame waits for the next kick.
_CLASHING = [(name, CanXlFrame(priority, SDT_ETHERNET, 0, n, b"x"))
             for n, (name, priority) in enumerate(
                 [("c", 1), ("e", 2), ("b", 1), ("f", 3), ("d", 2), ("a", 1), ("a", 4)])]


# b's second frame beats its head while a stays filed under that priority.
_OVERTAKING = [(name, CanXlFrame(priority, SDT_ETHERNET, 0, n, b"x"))
               for n, (name, priority) in enumerate([("a", 2), ("b", 2), ("b", 1)])]


@example(case=("abcdef", _CLASHING + [KICK, KICK]))
@example(case=("ab", _OVERTAKING + [KICK, KICK]))
@given(case=bus_programs())
def test_arbitration_is_that_of_scanning_every_station(case):
    names, program = case
    sim = Recorder()
    bus = CanBus("bus", CanXlTimingParams(500e3, 16e6))
    stations = {}
    for name in names:
        stations[name] = SimpleNamespace(name=name)
        bus.attach(stations[name])
    for step in program:
        if step is KICK:
            bus.kick(sim, None)
        else:
            bus.enqueue(sim, stations[step[0]], step[1])
        # each station with a queue is filed once, under its head priority
        assert sorted((priority, at) for priority, filed in bus.heads.items() for at in filed) == \
            sorted((st.queue[0][0], at) for at, st in enumerate(bus.stations) if st.queue)
        assert all(bus.heads.values())  # and no priority without a station
    assert (sim.started, sim.clashed) == reference_arbitration(names, program)
    assert bus.clashes == len(sim.clashed)


# -- frame durations, kept per medium ------------------------------------------

BIT_RATES = st.floats(1e3, 1e6)


@settings(max_examples=10, deadline=None)
@given(arb=BIT_RATES, data_factor=st.floats(1, 20), eth=st.floats(1e6, 1e9))
def test_kept_durations_are_those_of_the_closed_form(arb, data_factor, eth):
    params = CanXlTimingParams(arb, arb * data_factor)
    bus, link = CanBus("bus", params), EthernetLink("link", EthernetTimingParams(eth))
    for _ in range(2):  # the first pass computes, the second reads what was kept
        for n in range(1, CANXL_MAX_DATA + 1):
            frame = CanXlFrame(0x100, SDT_ETHERNET, 0, 0, bytes(n))
            assert bus.durations[type(frame), frame.length] == \
                to_ns(timing.canxl_duration(n, params))
        for n in range(9):
            frame = ClassicCanFrame(0x100, bytes(n))
            assert bus.durations[type(frame), frame.length] == \
                to_ns(timing.classic_can_duration(n, params.arb_bitrate))
        for n in range(ETH_MTU + 1):
            frame = EthernetFrame(ZERO_MAC, ZERO_MAC, 0, bytes(n))
            assert link.durations[frame.length] == \
                to_ns(timing.ethernet_duration(len(frame.payload), link.params))
    assert len(bus.durations) == CANXL_MAX_DATA + 9
    assert len(link.durations) == ETH_MTU + 1 - 46  # payloads pad to 46 bytes


@pytest.mark.parametrize("length", [0, CANXL_MAX_DATA + 1])
def test_a_data_field_out_of_range_raises_each_time_and_is_not_kept(length):
    bus = CanBus("bus", CanXlTimingParams(500e3, 16e6))
    frame = SimpleNamespace(length=length)  # no CanXlFrame has such a length
    for _ in range(2):
        with pytest.raises(InvalidPayload):
            bus.durations[type(frame), frame.length]
    assert bus.durations == {}
