"""Shared-medium models: CAN buses and point-to-point Ethernet links.

A CAN bus is broadcast with bitwise priority arbitration: at every idle
instant the queued frame with the lowest numeric priority wins.  The
contest itself is resolved instantaneously (the comparison outcome is
identical to bit-level arbitration for 11-bit fields).  Two distinct
stations contending with the same priority at the same instant cannot be
resolved by CAN at all; the model records a clash and discards both
frames, surfacing what is a configuration fault.  Only the stations with
a frame queued contend: the bus keeps them in `waiting`, keyed by their
position on the bus (`attach` gives each station its `bus_position`), so
a kick costs the number of waiting stations, not of attached ones.  A
clash lists its stations in bus order, whatever order they queued in.

Ethernet links are full duplex: one independent FIFO and occupancy per
direction, that is per sending station.  Multidrop Ethernet is not modeled.

A station is a node or a switch port: `attach` gives it its `medium` and
its `queue`, and a bus also its `bus_position`.  A medium only decides
when a frame starts and hands it to `Simulation.on_tx_start`, which
traces it and schedules its completion, or, for the frames a bus clash
discards, to `Simulation.on_clash`.  A queue holds frames only.
`arm(station)` is the one arming call: it marks a kick pending and says
whether none was.  An enqueue arms while the bus (or the station's link
direction) is idle and schedules the kick if it armed; a completion
always arms, and the engine runs the kick at the end of the delivery if
it armed.  Only a kick starts a transmission and one kick at most is
pending, so a kick always runs on an idle medium.
A frame's duration depends only on its medium, its kind and its length,
so each medium keeps the nanoseconds of each length it has carried
(`durations`): `timing` runs once per distinct length.  A medium reads
`frame.length`, never the frame's bytes, so a frame built on demand is
never serialized to be timed.
Utilization counts busy time up to `t_end`, not past it.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque

from . import timing
from .frames import CanXlFrame, ClassicCanFrame, EthernetFrame
from .timing import CanXlTimingParams, EthernetTimingParams, to_ns


def frame_priority(frame) -> int:
    if isinstance(frame, CanXlFrame):
        return frame.priority
    if isinstance(frame, ClassicCanFrame):
        return frame.id
    raise TypeError(f"{type(frame).__name__} cannot contend on a CAN bus")


class CanBus:
    def __init__(self, name: str, params: CanXlTimingParams):
        self.name = name
        self.kind = "can-bus"
        self.params = params
        self.stations: list = []  # nodes and switch ports
        self.waiting: dict = {}  # bus position -> station, for the stations with a queue
        self.busy_until = 0
        self.kick_pending = False
        self.clashes = 0
        self.busy_ns = 0
        self.enqueued = itertools.count()  # FIFO among a station's equal priorities
        self.durations: dict = {}  # (frame type, data length) -> ns

    def frame_duration_ns(self, frame) -> int:
        key = (type(frame), frame.length)
        ns = self.durations.get(key)
        if ns is None:  # a length out of range raises in `timing` and is not kept
            if isinstance(frame, ClassicCanFrame):
                ns = to_ns(timing.classic_can_duration(frame, self.params.arb_bitrate))
            else:
                ns = to_ns(timing.canxl_duration(frame.length, self.params))
            self.durations[key] = ns
        return ns

    def attach(self, station) -> None:
        station.medium = self
        station.queue = []  # a heap of (priority, enqueue order, frame)
        station.bus_position = len(self.stations)
        self.stations.append(station)

    def enqueue(self, sim, station, frame) -> None:
        heapq.heappush(station.queue, (frame_priority(frame), next(self.enqueued), frame))
        self.waiting[station.bus_position] = station
        # a busy bus re-arms when it completes
        if self.busy_until <= sim.now and self.arm(station):
            sim.schedule(sim.now, self.kick, sim)

    def arm(self, station) -> bool:  # the kick serves every station
        """Mark a kick pending; False if one already was."""
        if self.kick_pending:
            return False
        self.kick_pending = True
        return True

    def _pop(self, at: int):
        """(station, frame) of the head of the queue at bus position `at`."""
        station = self.waiting[at]
        frame = heapq.heappop(station.queue)[2]
        if not station.queue:
            del self.waiting[at]
        return station, frame

    def kick(self, sim, station=None) -> None:
        """Start the queue head with the lowest priority value (dominant-bit
        semantics) on the idle bus; only the stations with a queue contend,
        whichever `station` armed the kick."""
        self.kick_pending = False
        waiting = self.waiting
        while True:
            if not waiting:
                return
            tied = None
            for at, station in waiting.items():
                priority = station.queue[0][0]
                if tied is None or priority < best:
                    best, tied = priority, [at]
                elif priority == best:
                    tied.append(at)
            if len(tied) == 1:
                break
            # Unresolvable: drop the tied frames, in bus order, and
            # re-arbitrate the remaining contenders at this same instant.
            self.clashes += 1
            tied.sort()
            sim.on_clash(self, [self._pop(at) for at in tied])
        station, frame = self._pop(tied[0])
        duration = self.frame_duration_ns(frame)
        self.busy_until = sim.now + duration
        self.busy_ns += duration
        sim.on_tx_start(station, frame, duration)

    def report(self, t_end_ns: int) -> dict:
        # Only the last transmission can run past t_end; clip it there.
        busy = self.busy_ns - max(0, self.busy_until - t_end_ns)
        return {
            "kind": self.kind,
            "utilization": busy / t_end_ns if t_end_ns else 0.0,
            "clashes": self.clashes,
        }


class EthernetLink:
    def __init__(self, name: str, params: EthernetTimingParams):
        self.name = name
        self.kind = "ethernet-link"
        self.params = params
        self.stations: list = []  # its two ends
        # per sending station, that is per direction
        self.busy_until, self.kick_pending, self.busy_ns = {}, {}, {}
        self.durations: dict[int, int] = {}  # payload length -> ns

    def frame_duration_ns(self, frame: EthernetFrame) -> int:
        length = frame.length
        ns = self.durations.get(length)
        if ns is None:
            ns = self.durations[length] = to_ns(timing.ethernet_duration(length, self.params))
        return ns

    def attach(self, station) -> None:
        station.medium = self
        station.queue = deque()  # of frames
        self.stations.append(station)
        self.busy_until[station], self.kick_pending[station], self.busy_ns[station] = 0, False, 0

    def enqueue(self, sim, station, frame) -> None:
        station.queue.append(frame)
        # a busy direction re-arms when it completes
        if self.busy_until[station] <= sim.now and self.arm(station):
            sim.schedule(sim.now, self.kick, sim, station)

    def arm(self, station) -> bool:
        """Mark a kick pending for `station`'s direction; False if one already was."""
        if self.kick_pending[station]:
            return False
        self.kick_pending[station] = True
        return True

    def kick(self, sim, station) -> None:
        self.kick_pending[station] = False
        if not station.queue:
            return
        frame = station.queue.popleft()
        duration = self.frame_duration_ns(frame)
        self.busy_until[station] = sim.now + duration
        self.busy_ns[station] += duration
        sim.on_tx_start(station, frame, duration)

    def report(self, t_end_ns: int) -> dict:
        util = {}
        for st, peer in zip(self.stations, self.stations[::-1]):
            # Per direction, only the last transmission can run past t_end.
            busy = self.busy_ns[st] - max(0, self.busy_until[st] - t_end_ns)
            util[f"{st.name}->{peer.name}"] = busy / t_end_ns if t_end_ns else 0.0
        return {"kind": self.kind, "utilization": util, "clashes": 0}
