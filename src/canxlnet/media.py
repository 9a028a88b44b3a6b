"""Shared-medium models: CAN buses and point-to-point Ethernet links.

A CAN bus is broadcast with bitwise priority arbitration: at every idle
instant the queued frame with the lowest numeric priority wins.  The
contest itself is resolved instantaneously (the comparison outcome is
identical to bit-level arbitration for 11-bit fields).  Two distinct
stations contending with the same priority at the same instant cannot be
resolved by CAN at all; the model records a clash and discards both
frames, surfacing what is a configuration fault.  Only the stations with
a frame queued contend: `heads` maps each queue head's priority to the
positions on the bus of the stations whose head has it (`attach` gives
each station its `bus_position`).  `enqueue` files a station when its
queue was empty or the new frame beats its head.  A kick takes the
lowest priority filed, so it costs a `min` over the distinct head
priorities, not the number of waiting stations or of attached ones.  A
priority filed for one station wins; one filed for more is a clash,
which lists its stations in bus order, whatever order they queued in,
files their next heads and arbitrates again.

Ethernet links are full duplex: one independent FIFO and occupancy per
direction, that is per sending station.  Multidrop Ethernet is not modeled.

A station is a node or a switch port: `attach` gives it its `medium` and
its `queue`, a bus also its `bus_position`, and a link the state of its
direction, `busy_until`, `busy_ns` and `kick_pending`, which a bus keeps
for itself.  A medium only decides when a frame starts and hands it to
`Simulation.on_tx_start`, which traces it and schedules its completion,
or, for the frames a bus clash discards, to `Simulation.on_clash`.  A
queue holds frames only.  `kick_pending` says a kick is due.  An enqueue
sets it while the bus (or the station's link direction) is idle and no
kick is pending, and then schedules the kick.  A completion sets it with
`arm(station)`, which says whether none was pending, and the engine runs
the kick at the end of the delivery if it armed, where the kick's own
event would have run next.  A link completion whose delivery runs in
place with nothing queued in its direction neither arms nor kicks: only
the peer reacts to that delivery, and it queues in its own direction.
A deferred delivery and every bus completion still arm, as events due
before the delivery, or the bus's other stations, may queue behind the
sender.  Only a kick starts a transmission and one kick at most is
pending, so a kick always runs on an idle medium.
A frame's duration depends only on its medium, its kind and its length,
so each medium keeps the nanoseconds of each length it has carried in
`durations`, which computes a length on its first read: `timing` runs
once per distinct length, and a length out of range raises each time
and is not kept.  A medium reads `frame.length`, never the frame's
bytes, so a frame built on demand is never serialized to be timed.
Utilization counts busy time up to `t_end`, not past it.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque

from . import timing
from .frames import CanXlFrame, ClassicCanFrame
from .timing import CanXlTimingParams, EthernetTimingParams, to_ns


def frame_priority(frame) -> int:
    if isinstance(frame, CanXlFrame):
        return frame.priority
    if isinstance(frame, ClassicCanFrame):
        return frame.id
    raise TypeError(f"{type(frame).__name__} cannot contend on a CAN bus")


class Durations(dict):
    """Nanoseconds per key, `seconds(key)` computed and kept on a key's
    first read; a key whose `seconds` raises is not kept."""

    def __init__(self, seconds):  # empty, as `dict.__init__` would leave it
        self.seconds = seconds

    def __missing__(self, key) -> int:
        ns = self[key] = to_ns(self.seconds(key))
        return ns


class CanBus:
    def __init__(self, name: str, params: CanXlTimingParams):
        self.name = name
        self.kind = "can-bus"
        self.params = params
        self.stations: list = []  # nodes and switch ports
        self.heads: dict = {}  # head priority -> the bus positions whose queue head has it
        self.busy_until = 0
        self.kick_pending = False
        self.clashes = 0
        self.busy_ns = 0
        self.enqueued = itertools.count()  # FIFO among a station's equal priorities
        # (frame type, data length) -> ns
        self.durations = Durations(lambda key: (
            timing.classic_can_duration(key[1], params.arb_bitrate) if key[0] is ClassicCanFrame
            else timing.canxl_duration(key[1], params)))

    def attach(self, station) -> None:
        station.medium = self
        station.queue = []  # a heap of (priority, enqueue order, frame)
        station.bus_position = len(self.stations)
        self.stations.append(station)

    def enqueue(self, sim, station, frame) -> None:
        priority = frame_priority(frame)
        queue = station.queue
        if not queue:
            self.heads.setdefault(priority, []).append(station.bus_position)
        elif priority < queue[0][0]:  # a new head: file the station under it instead
            heads = self.heads
            filed = heads[queue[0][0]]
            if len(filed) == 1:
                del heads[queue[0][0]]
            else:
                filed.remove(station.bus_position)
            heads.setdefault(priority, []).append(station.bus_position)
        heapq.heappush(queue, (priority, next(self.enqueued), frame))
        # `arm`, inline; a busy bus re-arms when it completes
        if self.busy_until <= sim.now and not self.kick_pending:
            self.kick_pending = True
            sim.schedule(sim.now, self.kick, sim, station)

    def arm(self, station) -> bool:  # the kick serves every station
        """Mark a kick pending; False if one already was."""
        if self.kick_pending:
            return False
        self.kick_pending = True
        return True

    def _pop(self, at: int):
        """(station, frame) of the head of the queue at bus position `at`,
        its next head filed."""
        station = self.stations[at]
        queue = station.queue
        frame = heapq.heappop(queue)[2]
        if queue:
            self.heads.setdefault(queue[0][0], []).append(at)
        return station, frame

    def kick(self, sim, station) -> None:
        """Start the queue head with the lowest priority value (dominant-bit
        semantics) on the idle bus; only the stations with a queue contend,
        whichever `station` armed the kick."""
        self.kick_pending = False
        heads = self.heads
        while True:
            if not heads:
                return
            tied = heads.pop(min(heads))
            if len(tied) == 1:
                break
            # Unresolvable: drop the tied frames, in bus order, and
            # re-arbitrate the remaining contenders at this same instant.
            self.clashes += 1
            tied.sort()
            sim.on_clash(self, [self._pop(at) for at in tied])
        at = tied[0]  # `_pop(at)`, inline
        station = self.stations[at]
        queue = station.queue
        frame = heapq.heappop(queue)[2]
        if queue:
            heads.setdefault(queue[0][0], []).append(at)
        duration = self.durations[type(frame), frame.length]
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
        # payload length -> ns
        self.durations = Durations(lambda length: timing.ethernet_duration(length, params))

    def attach(self, station) -> None:
        station.medium = self
        station.queue = deque()  # of frames
        # the state of its direction
        station.busy_until, station.busy_ns, station.kick_pending = 0, 0, False
        self.stations.append(station)

    def enqueue(self, sim, station, frame) -> None:
        station.queue.append(frame)
        # `arm`, inline; a busy direction re-arms when it completes
        if station.busy_until <= sim.now and not station.kick_pending:
            station.kick_pending = True
            sim.schedule(sim.now, self.kick, sim, station)

    def arm(self, station) -> bool:
        """Mark a kick pending for `station`'s direction; False if one already was."""
        if station.kick_pending:
            return False
        station.kick_pending = True
        return True

    def kick(self, sim, station) -> None:
        station.kick_pending = False
        if not station.queue:
            return
        frame = station.queue.popleft()
        duration = self.durations[frame.length]
        station.busy_until = sim.now + duration
        station.busy_ns += duration
        sim.on_tx_start(station, frame, duration)

    def report(self, t_end_ns: int) -> dict:
        util = {}
        for st, peer in zip(self.stations, self.stations[::-1]):
            # Per direction, only the last transmission can run past t_end.
            busy = st.busy_ns - max(0, st.busy_until - t_end_ns)
            util[f"{st.name}->{peer.name}"] = busy / t_end_ns if t_end_ns else 0.0
        return {"kind": self.kind, "utilization": util, "clashes": 0}
