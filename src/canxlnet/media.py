"""Shared-medium models: CAN buses and point-to-point Ethernet links.

A CAN bus is broadcast with bitwise priority arbitration: at every idle
instant the queued frame with the lowest numeric priority wins.  The
contest itself is resolved instantaneously (the comparison outcome is
identical to bit-level arbitration for 11-bit fields).  Two distinct
stations contending with the same priority at the same instant cannot be
resolved by CAN at all; the model records a clash and discards both
frames, surfacing what is a configuration fault.

Ethernet links are full duplex: one independent FIFO and occupancy per
direction.  Multidrop Ethernet is not modeled.

A medium only decides when a frame starts and hands the transmission to
`Simulation.on_tx_start`, which traces it and schedules its completion.
A queued frame keeps the `frames.Decoded` value its sender built with
it, and the medium hands that over with it, to `on_tx_start` or, for the
frames a bus clash discards, to `Simulation.on_clash`.
An enqueue asks for an arbitration kick only while the medium (for a
link, that direction) is idle; a busy one is kicked again when its
transmission completes.  Only a kick starts a transmission and one kick
at most is pending, so a kick always runs on an idle medium.
Utilization counts busy time up to `t_end`, not past it.

All state is owned by the simulation engine and mutated in event order.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque

from . import timing
from .frames import CanXlFrame, ClassicCanFrame, Decoded, EthernetFrame
from .timing import CanXlTimingParams, EthernetTimingParams, to_ns


class Station:
    """Attachment point of a node or switch port to one medium."""

    def __init__(self, name: str, owner, medium):
        self.name = name
        self.owner = owner
        self.medium = medium
        # a link's FIFO of (frame, rx); on a bus, a heap of (priority,
        # enqueue order, frame, rx); rx is the frame's decoded value
        self.queue = deque() if isinstance(medium, EthernetLink) else []

    def __repr__(self):
        return f"<Station {self.name}>"


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
        self.stations: list[Station] = []
        self.busy_until = 0
        self.kick_pending = False
        self.clashes = 0
        self.busy_ns = 0
        self.enqueued = itertools.count()  # FIFO among a station's equal priorities

    def frame_duration_ns(self, frame) -> int:
        if isinstance(frame, ClassicCanFrame):
            return to_ns(timing.classic_can_duration(frame, self.params.arb_bitrate))
        return to_ns(timing.canxl_duration(len(frame.data), self.params))

    def enqueue(self, sim, station: Station, frame, now: int, rx: Decoded) -> None:
        heapq.heappush(station.queue, (frame_priority(frame), next(self.enqueued), frame, rx))
        if self.busy_until <= now:  # a busy bus re-arms in on_complete
            self.request_kick(sim, now)

    def request_kick(self, sim, now: int) -> None:
        if not self.kick_pending:
            self.kick_pending = True
            sim.schedule(now, self.kick, sim, now)

    def kick(self, sim, now: int) -> None:
        """Start the queue head with the lowest priority value (dominant-bit
        semantics) on the idle bus."""
        self.kick_pending = False
        while True:
            heads = [st for st in self.stations if st.queue]
            if not heads:
                return
            best = min(st.queue[0][0] for st in heads)
            tied = [st for st in heads if st.queue[0][0] == best]
            if len(tied) == 1:
                break
            # Unresolvable: drop the tied frames and re-arbitrate the
            # remaining contenders at this same instant.
            self.clashes += 1
            sim.on_clash(self, [(st, *heapq.heappop(st.queue)[2:]) for st in tied])
        station = tied[0]
        _, _, frame, rx = heapq.heappop(station.queue)
        duration = self.frame_duration_ns(frame)
        self.busy_until = now + duration
        self.busy_ns += duration
        sim.on_tx_start(self, station, frame, now, duration, rx)

    def on_complete(self, sim, now: int, sender: Station) -> None:
        self.request_kick(sim, now)

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
        self.stations: list[Station] = []  # station i sends in direction i
        self.busy_until = [0, 0]
        self.kick_pending = [False, False]
        self.busy_ns = [0, 0]

    def frame_duration_ns(self, frame: EthernetFrame) -> int:
        return to_ns(timing.ethernet_duration(len(frame.payload), self.params))

    def enqueue(self, sim, station: Station, frame, now: int, rx: Decoded) -> None:
        station.queue.append((frame, rx))
        direction = self.stations.index(station)
        if self.busy_until[direction] <= now:  # a busy direction re-arms in on_complete
            self.request_kick(sim, now, direction)

    def request_kick(self, sim, now: int, direction: int) -> None:
        if not self.kick_pending[direction]:
            self.kick_pending[direction] = True
            sim.schedule(now, self.kick, sim, now, direction)

    def kick(self, sim, now: int, direction: int) -> None:
        self.kick_pending[direction] = False
        station = self.stations[direction]
        if not station.queue:
            return
        frame, rx = station.queue.popleft()
        duration = self.frame_duration_ns(frame)
        self.busy_until[direction] = now + duration
        self.busy_ns[direction] += duration
        sim.on_tx_start(self, station, frame, now, duration, rx)

    def on_complete(self, sim, now: int, sender: Station) -> None:
        self.request_kick(sim, now, self.stations.index(sender))

    def report(self, t_end_ns: int) -> dict:
        names = [st.name for st in self.stations]
        # Per direction, only the last transmission can run past t_end.
        busy = [b - max(0, until - t_end_ns) for b, until in zip(self.busy_ns, self.busy_until)]
        util = {
            f"{names[i]}->{names[1 - i]}": busy[i] / t_end_ns if t_end_ns else 0.0
            for i in range(len(self.stations))
        }
        return {"kind": self.kind, "utilization": util, "clashes": 0}
