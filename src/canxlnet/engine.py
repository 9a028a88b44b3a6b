"""Deterministic discrete-event engine.

Time is integer nanoseconds.  Events run in (time, scheduling) order and
are called as `handler(*args)`; the order is drawn deterministically at
insertion, so two runs over the same inputs produce byte-identical
traces.  The queue has two parts.  An event for a later instant goes to a
heap of `(t_ns, seq, handler, args)` entries, `seq` growing with every
push; one for the current instant, most of them (arbitration kicks,
deliveries), goes to a FIFO of `(handler, args)` instead.  When the clock
reaches an instant, the heap's entries at it were all pushed before any
event for that instant went to the FIFO, so `run` calls them first, in
sequence order, and then drains the FIFO: the order a single heap of
`(t_ns, seq)` would give.  Handlers are the engine's own (application
sends, transmission completions, deliveries, STP hellos), node startup
and ARP retries, and the media's arbitration kicks.  Each reads the time
as `Simulation.now`, the one clock; no event carries a copy.  `CSwitch`
and `Efdb` take `now` instead: they run without a simulator, so tests
drive them with explicit times, and `SwitchPortRef` passes `sim.now`.

Media hand each transmission they start to `Simulation.on_tx_start`,
which describes the frame once, traces it and schedules its completion.
A packet is decoded where it is built, never parsed on the way: every
frame, a node's or a switch's, travels to its medium's queue together
with its `frames.Decoded` value, which its sender built from what it
held.  That one value goes to flow attribution, to the summary and to
every receiver's `on_receive`, a node's or a switch port's
(`SwitchPortRef` calls `CSwitch.on_ingress` and queues its
`(port, frame, rx)` emissions with `emit`).
`frame_summary` writes the summary as JSON text, and every per-packet
record (`app_send`, `tx_start`, `tx_complete`, `deliver`, `app_deliver`
and the drop of a frame no flow owns) is written as text around it and
the medium, station, node and flow names encoded once at set-up.
`trace` encodes the rarer records (timers, clashes, flow drops,
untracked deliveries) whole.  The completion schedules one delivery
event, `_deliver`, on links and buses alike, which walks the stations in
order.  Every station but the sender gets its `deliver` record, but only
the receivers that can accept the frame are called: on a bus, an
`AcceptanceIndex` built once at set-up from the attributes `on_receive`
tests names them, and counts the AF false positives of the nodes it
skips.  Each called receiver reacts right after its own record; the
records of each run of stations between two called ones are written in
one join.  A link, a sender whose receivers are all switch ports (neither
is given the index) and a tunnel frame with a group AF or DA call every
receiver.  Bus clashes and switch drops both go through
`Simulation.drop`.

Frames are never tagged with bookkeeping objects: each payload starts
with an 8-byte tag, flow index and sequence number, which `flow_of`, its
one reader, takes from the decoded payload at any transmission, drop or
delivery, across any chain of re-encodings; a datagram with a bad IPv4
header belongs to no flow.  No per-send table is kept: a packet's send
time is its flow's `schedule[seq]`, and `make_payload` of its tag,
regenerated on delivery, is the end-to-end byte-identity check.

The trace is one JSON record per line; the report is a JSON document of
per-flow, per-medium, per-switch, and per-node aggregates.
"""

from __future__ import annotations

import heapq
import json
import struct
from collections import deque
from dataclasses import dataclass

from . import frames
from .frames import (
    AF_GROUP,
    SDT_ETHERNET,
    CanXlFrame,
    ClassicCanFrame,
    EthernetFrame,
    Ipv4Address,
    IocDatagram,
    MacAddress,
)
from .media import CanBus, EthernetLink, Station
from .switch import CAN_XL, ETH, CSwitch, HELLO_INTERVAL_NS
from .timing import CanXlTimingParams, EthernetTimingParams, to_ns

FLOW_TAG = struct.Struct(">II")  # a payload's first bytes: flow index, sequence number
MAX_IPV4_PAYLOAD = 1480  # what fits an Ethernet frame with a 20-byte header

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class ConfigError(Exception):
    def __init__(self, location: str, message: str):
        self.location = location
        self.reason = message
        super().__init__(f"{location}: {message}")


def located(loc: str, fn, *args, **kwargs):
    """`fn(*args, **kwargs)`, a ValueError, TypeError or OverflowError it
    raises made a ConfigError at `loc`."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(loc, str(exc)) from exc


@dataclass
class Flow:
    name: str
    source: str
    transport: str  # raw-ethernet | ipv4 | classic-can
    payload_size: int
    schedule: list[int]  # send times, ns
    dst_ip: Ipv4Address | None = None
    dst_mac: MacAddress | None = None
    can_id: int | None = None


@dataclass
class RunOptions:
    t_end: float = 1.0
    seed: int = 0
    startup_gratuitous_arp: bool = True
    trace: str | None = None  # output paths
    report: str | None = None


@dataclass
class SwitchPortRef:
    switch: CSwitch
    port: int
    kind = "switch-port"

    def on_receive(self, sim: Simulation, frame, rx: frames.Decoded) -> None:
        """Hand the frame to the switch and queue what it emits."""
        sim.emit(self.switch, self.switch.on_ingress(self.port, frame, sim.now, rx))


class AcceptanceIndex:
    """Which stations of one bus can act on a transmission, read from the
    attributes that `on_receive` tests.

    A switch port takes every frame.  A classic-CAN node takes only
    frames that are not CAN XL.  A tunnel or streamlined node takes a
    compact frame whose AF is its `ip_af` and whose header is good, and a
    tunnel frame that its AF filter passes and whose DA is its MAC or a
    group address.  `frames.af_filter_match` passes a group AF at every
    filter and any other AF at the filters whose `af_image` equals it, so
    a tunnel frame with a group AF or a group DA goes to every station.
    A node whose filter passes a frame that its DA check drops counts an
    `af_false_positive` here, without a call."""

    def __init__(self, owners: list):
        self.owners = owners  # of the bus's stations, in order
        self.ports, self.classic = [], []  # switch ports; those and classic nodes
        nodes = []  # tunnel and streamlined nodes
        for i, owner in enumerate(owners):
            if owner.kind == "switch-port":
                self.ports.append(i)
                self.classic.append(i)
            elif owner.kind == "classic-can":
                self.classic.append(i)
            else:
                nodes.append(i)
        # af_image -> {MAC octets: (position, the ports and that node)} of the
        # nodes with that image; ip_af -> the ports and the node with it
        self.tunnel: dict[int, dict[bytes, tuple[int, list[int]]]] = {}
        self.compact: dict[int, list[int]] = {}
        for i in nodes:
            owner = owners[i]
            callees = sorted(self.ports + [i])
            self.tunnel.setdefault(owner.af_image, {})[owner.mac.octets] = (i, callees)
            if owner.ip_af is not None:
                self.compact[owner.ip_af] = callees

    def callees(self, sender: int, frame, rx: frames.Decoded) -> list[int] | None:
        """The positions of the receivers that can act on `frame`, decoded
        as `rx`, in station order (the sender's may be among them); None
        for every station."""
        if not isinstance(frame, CanXlFrame):
            return self.classic
        af = frame.af
        if frame.sdt != SDT_ETHERNET:  # compact
            return self.compact.get(af, self.ports) if rx.net is not None else self.ports
        if af & AF_GROUP:
            return None
        passed = self.tunnel.get(af)
        if passed is None:
            return self.ports
        da = rx.eth.da
        if da.is_group():
            return None
        node, callees = passed.get(da.octets, (None, self.ports))
        owners = self.owners
        for i, _ in passed.values():
            if i != node and i != sender:
                owners[i].counters["af_false_positive"] += 1
        return callees


class Topology:
    """Nodes, media, and switches wired together, plus the flow set."""

    def __init__(self, options: RunOptions | None = None):
        self.nodes: dict[str, object] = {}
        self.media: dict[str, object] = {}
        self.switches: dict[str, CSwitch] = {}
        self.flows: list[Flow] = []
        self.options = options or RunOptions()
        self.port_station: dict[tuple[str, int], Station] = {}

    def add_node(self, node) -> object:
        if node.name in self.nodes or node.name in self.switches:
            raise ConfigError(f"nodes.{node.name}", "duplicate name")
        self.nodes[node.name] = node
        return node

    def add_switch(self, sw: CSwitch) -> CSwitch:
        if sw.name in self.switches or sw.name in self.nodes:
            raise ConfigError(f"switches.{sw.name}", "duplicate name")
        self.switches[sw.name] = sw
        return sw

    def add_bus(self, name: str, params: CanXlTimingParams) -> CanBus:
        return self._add_medium("buses", CanBus(name, params))

    def add_link(self, name: str, params: EthernetTimingParams) -> EthernetLink:
        return self._add_medium("links", EthernetLink(name, params))

    def _add_medium(self, section: str, medium):
        if medium.name in self.media:
            raise ConfigError(f"{section}.{medium.name}", "duplicate name")
        self.media[medium.name] = medium
        return medium

    def attach_node(self, node_name: str, medium_name: str) -> Station:
        node = self.nodes[node_name]
        medium = self.media[medium_name]
        if node.station is not None:
            raise ConfigError(f"nodes.{node_name}", "attached to more than one medium")
        station = Station(node_name, node, medium)
        medium.stations.append(station)
        node.station = station
        return station

    def attach_switch_port(self, switch_name: str, port: int, medium_name: str) -> Station:
        sw = self.switches[switch_name]
        medium = self.media[medium_name]
        if port not in sw.ports:
            raise ConfigError(f"switches.{switch_name}", f"no port {port}")
        key = (switch_name, port)
        if key in self.port_station:
            raise ConfigError(f"switches.{switch_name}.ports.{port}",
                              "attached to more than one medium")
        station = Station(f"{switch_name}.p{port}", SwitchPortRef(sw, port), medium)
        medium.stations.append(station)
        self.port_station[key] = station
        return station

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        self._validate_addresses()
        self._validate_wiring()
        self._validate_flows()
        located("run.t_end", to_ns, self.options.t_end, "t_end")

    def _validate_addresses(self) -> None:
        macs: dict[MacAddress, str] = {}
        ips: dict[Ipv4Address, str] = {}
        for name, node in self.nodes.items():
            if node.mac is not None:
                if node.mac in macs:
                    raise ConfigError(f"nodes.{name}",
                                      f"MAC {node.mac} already used by {macs[node.mac]}")
                macs[node.mac] = name
            if node.ip is not None:
                if node.ip in ips:
                    raise ConfigError(f"nodes.{name}",
                                      f"IP {node.ip} already used by {ips[node.ip]}")
                ips[node.ip] = name
        for name, sw in self.switches.items():
            if sw.mac in macs:
                raise ConfigError(f"switches.{name}",
                                  f"bridge MAC {sw.mac} already used by {macs[sw.mac]}")
            macs[sw.mac] = name

    def _validate_wiring(self) -> None:
        # First, so that a link short of an endpoint is named as such, not
        # through the station that is left unattached.
        for name, medium in self.media.items():
            if isinstance(medium, EthernetLink) and len(medium.stations) != 2:
                raise ConfigError(f"links.{name}", "a link needs exactly two endpoints")
        for name, node in self.nodes.items():
            if node.station is None:
                raise ConfigError(f"nodes.{name}", "not attached to any medium")
            on_bus = isinstance(node.station.medium, CanBus)
            if node.kind == "ethernet-host" and on_bus:
                raise ConfigError(f"nodes.{name}", "Ethernet hosts attach to links")
            if node.kind != "ethernet-host" and not on_bus:
                raise ConfigError(f"nodes.{name}", "CAN nodes attach to buses")
        for name, sw in self.switches.items():
            for idx, cfg in sw.ports.items():
                station = self.port_station.get((name, idx))
                if station is None:
                    raise ConfigError(f"switches.{name}.ports.{idx}", "not attached")
                on_bus = isinstance(station.medium, CanBus)
                if cfg.kind == CAN_XL and not on_bus:
                    raise ConfigError(f"switches.{name}.ports.{idx}",
                                      "CAN port wired to an Ethernet link")
                if cfg.kind == ETH and on_bus:
                    raise ConfigError(f"switches.{name}.ports.{idx}",
                                      "Ethernet port wired to a CAN bus")
            for rn, rule in enumerate(sw.legacy_rules):
                for port, _ in ((rule.ingress_port, None),) + tuple(rule.egress):
                    if port not in sw.ports:
                        raise ConfigError(f"switches.{name}.legacy_rules.{rn}",
                                          f"no port {port}")
                for port, _ in rule.egress:
                    if sw.ports[port].kind != CAN_XL:
                        raise ConfigError(f"switches.{name}.legacy_rules.{rn}",
                                          "legacy relay egress must be a CAN port")

    def _validate_flows(self) -> None:
        for flow in self.flows:
            loc = f"flows.{flow.name}"
            node = self.nodes.get(flow.source)
            if node is None:
                raise ConfigError(loc, f"unknown source node {flow.source!r}")
            if flow.payload_size < FLOW_TAG.size:
                raise ConfigError(loc, f"payload_size below the {FLOW_TAG.size}-byte flow tag")
            if flow.transport == "classic-can":
                if node.kind != "classic-can":
                    raise ConfigError(loc, "classic-can flows need a classic-can source")
                if flow.can_id is None:
                    raise ConfigError(loc, "classic-can flows need can_id")
                located(loc, frames.fits, "can_id", flow.can_id, 11)
                if flow.payload_size != 8:
                    raise ConfigError(loc, "classic-can flow payload is the 8-byte tag")
            elif flow.transport == "ipv4":
                if node.kind == "classic-can" or node.ip is None:
                    raise ConfigError(loc, "ipv4 flows need a source with an IP address")
                if flow.dst_ip is None:
                    raise ConfigError(loc, "ipv4 flows need dst_ip")
                if flow.payload_size > MAX_IPV4_PAYLOAD:
                    raise ConfigError(loc, f"payload_size above {MAX_IPV4_PAYLOAD}")
            elif flow.transport == "raw-ethernet":
                if node.kind == "classic-can":
                    raise ConfigError(loc, "raw-ethernet flows need a MAC-capable source")
                if flow.dst_mac is None:
                    raise ConfigError(loc, "raw-ethernet flows need dst_mac")
                if flow.payload_size > frames.ETH_MTU:
                    raise ConfigError(loc, f"payload_size above {frames.ETH_MTU}")
            else:
                raise ConfigError(loc, f"unknown transport {flow.transport!r}")


# Filler byte i is (37*i + 11*flow + 7*seq) mod 256.  37 is odd, hence
# invertible mod 256, so every filler is a slice of one ramp of 37*i that
# starts where 37*k matches the flow/seq offset; 8 turns cover the MTU.
_RAMP = bytes(37 * i & 0xFF for i in range(256)) * 8
_INV37 = pow(37, -1, 256)


def make_payload(flow_index: int, seq: int, size: int) -> bytes:
    k = (11 * flow_index + 7 * seq) * _INV37 & 0xFF
    return FLOW_TAG.pack(flow_index, seq) + _RAMP[k:k + size - FLOW_TAG.size]


def frame_summary(frame, inner: EthernetFrame | None) -> str:
    """The frame's trace description as canonical JSON text, keys sorted;
    `inner`, `frames.decode(frame).eth`, is written for CAN XL frames only.
    Addresses and SDT names are plain ASCII, so they need no escaping."""
    if isinstance(frame, CanXlFrame):
        tunnel = "" if inner is None else (
            f'"inner":{{"da":"{inner.da}","ethertype":"0x{inner.ethertype:04x}",'
            f'"sa":"{inner.sa}"}},')
        sdt = frames.SDT_NAMES.get(frame.sdt) or f"0x{frame.sdt:02x}"
        return (f'{{"af":"0x{frame.af:08x}",{tunnel}"kind":"canxl","len":{len(frame.data)},'
                f'"priority":{frame.priority},"sdt":"{sdt}"}}')
    if isinstance(frame, EthernetFrame):
        return (f'{{"da":"{frame.da}","ethertype":"0x{frame.ethertype:04x}","kind":"eth",'
                f'"len":{len(frame.payload)},"sa":"{frame.sa}"}}')
    if isinstance(frame, ClassicCanFrame):
        return f'{{"id":"0x{frame.id:03x}","kind":"classic","len":{len(frame.data)}}}'
    if isinstance(frame, IocDatagram):
        return (f'{{"dst":"{frame.dst_ip}","kind":"ioc","len":{len(frame.payload)},'
                f'"src":"{frame.src_ip}"}}')
    return _encode({"kind": type(frame).__name__})


class Simulation:
    def __init__(self, topo: Topology):
        topo.validate()
        self.topo = topo
        self.options = topo.options
        self.t_end_ns = to_ns(topo.options.t_end)
        self.now = 0
        self._seq = 0
        self.heap: list = []
        self.fifo: deque = deque()
        self.trace_lines: list[str] = []
        self.flows = topo.flows
        self.flow_index = {flow.name: i for i, flow in enumerate(topo.flows)}
        # Flow and node names, JSON-encoded for the per-packet records.
        self.flow_text = {flow.name: _encode(flow.name) for flow in topo.flows}
        self.node_text = {name: _encode(name) for name in topo.nodes}
        self.flow_stats = {
            flow.name: {
                "sent": 0,
                "delivered": 0,
                "delivered_seqs": set(),
                "payload_mismatches": 0,
                "latencies": [],
                "drops": {},
            }
            for flow in topo.flows
        }
        for sw in topo.switches.values():
            sw.drop_hook = self.drop
        # sender -> (JSON-encoded medium name, JSON-encoded sender name,
        # (the owners and the JSON-encoded names of every other station, in
        # order, the bus's AcceptanceIndex or None, the sender's position)).
        # A link and a sender whose receivers are all switch ports get no
        # index: they call every receiver, and asking would only cost time.
        self.fanout = {}
        for medium in topo.media.values():
            text = _encode(medium.name)
            owners = [st.owner for st in medium.stations]
            names = [_encode(st.name) for st in medium.stations]
            index = AcceptanceIndex(owners) if isinstance(medium, CanBus) else None
            for at, sender in enumerate(medium.stations):
                to_nodes = index is not None and len(owners) - len(index.ports) > (
                    owners[at].kind != "switch-port")  # a receiver is a node
                self.fanout[sender] = (text, names[at], (
                    owners[:at] + owners[at + 1:], names[:at] + names[at + 1:],
                    index if to_nodes else None, at))

    # -- plumbing -----------------------------------------------------------

    def schedule(self, t_ns: int, handler, *args) -> None:
        """Call `handler(*args)` at `t_ns`, after whatever is already due then."""
        if t_ns == self.now:
            self.fifo.append((handler, args))
        else:
            self._seq += 1
            heapq.heappush(self.heap, (t_ns, self._seq, handler, args))

    def trace(self, event: str, location: str, **fields) -> None:
        rec = {"t_ns": self.now, "event": event, "location": location, **fields}
        self.trace_lines.append(_encode(rec))

    # -- flow attribution ----------------------------------------------------

    def flow_of(self, payload: bytes | None) -> tuple[Flow, int] | None:
        """The flow and sequence number that the tag of `payload` names, if
        that flow has sent that packet: if its send time has come."""
        if payload is None:
            return None
        try:
            index, seq = FLOW_TAG.unpack_from(payload)
            flow = self.flows[index]
            if flow.schedule[seq] <= self.now:
                return flow, seq
        except (struct.error, IndexError):  # no tag, no such flow or packet
            pass
        return None

    # -- engine callbacks ------------------------------------------------------

    def on_tx_start(self, station: Station, frame, duration_ns: int,
                    rx: frames.Decoded) -> None:
        """Describe a started transmission once, trace it and schedule its
        end.  `rx` is `frames.decode(frame)` as its sender built it."""
        summary = frame_summary(frame, rx.eth)
        location, source, _ = self.fanout[station]
        fl = self.flow_of(rx.payload)
        # The keys tx_start and tx_complete share, in sorted order; written
        # byte for byte as trace() would.
        if fl is None:
            shared = f'"frame":{summary},"location":{location},"source":{source},'
        else:
            shared = (f'"flow":{self.flow_text[fl[0].name]},"frame":{summary},'
                      f'"location":{location},"seq":{fl[1]},"source":{source},')
        self.trace_lines.append(
            f'{{"duration_ns":{duration_ns},"event":"tx_start",{shared}"t_ns":{self.now}}}')
        self.schedule(self.now + duration_ns, self.on_tx_complete,
                      station, frame, rx, summary, shared)

    def on_clash(self, bus, dropped: list[tuple[Station, object, frames.Decoded]]) -> None:
        self.trace("clash", bus.name, stations=[st.name for st, _, _ in dropped])
        for _station, frame, rx in dropped:
            self.drop(frame, "priority_clash", bus.name, rx)

    def drop(self, frame, reason: str, location: str, rx: frames.Decoded) -> None:
        """Account a dropped frame, decoded as `rx`, to its flow, or trace it
        as anonymous."""
        fl = self.flow_of(rx.payload)
        if fl is not None:
            self.flow_drop(fl[0], fl[1], reason, location)
        else:
            # Byte for byte what trace("drop", location, frame=..., reason=reason) writes.
            self.trace_lines.append(
                f'{{"event":"drop","frame":{frame_summary(frame, rx.eth)},'
                f'"location":{_encode(location)},"reason":{_encode(reason)},"t_ns":{self.now}}}')

    def flow_drop(self, flow: Flow, seq: int, reason: str, location: str) -> None:
        drops = self.flow_stats[flow.name]["drops"]
        drops[reason] = drops.get(reason, 0) + 1
        self.trace("drop", location, flow=flow.name, seq=seq, reason=reason)

    def on_app_delivery(self, node, payload: bytes) -> None:
        fl = self.flow_of(payload)
        if fl is None:
            self.trace("app_deliver", node.name, reason="untracked")
            return
        flow, seq = fl
        stats = self.flow_stats[flow.name]
        stats["delivered"] += 1
        stats["delivered_seqs"].add(seq)
        # the packet as sent, zero-padded to what arrived (raw Ethernet pads)
        sent = make_payload(self.flow_index[flow.name], seq, flow.payload_size)
        if payload != sent.ljust(len(payload), b"\0"):
            stats["payload_mismatches"] += 1
        latency = self.now - flow.schedule[seq]
        stats["latencies"].append(latency)
        self.trace_lines.append(
            f'{{"event":"app_deliver","flow":{self.flow_text[flow.name]},'
            f'"latency_ns":{latency},"location":{self.node_text[node.name]},'
            f'"seq":{seq},"t_ns":{self.now}}}')

    # -- event handlers ---------------------------------------------------------

    def run(self) -> tuple[str, dict]:
        for sw in self.topo.switches.values():
            self.schedule(0, self._stp_hello, sw)
        for node in self.topo.nodes.values():
            # Not traced: an announcement shows up as tx_start anyway.
            self.schedule(node.start_ns, node.startup, self)
        for flow in self.topo.flows:
            for seq, t in enumerate(flow.schedule):
                self.schedule(t, self._app_send, flow, seq)

        # The heap's entries at an instant were all scheduled before the
        # clock reached it, so they run first, in sequence order; then the
        # FIFO, in the order `schedule` filled it.
        heap, fifo, pop, popleft = self.heap, self.fifo, heapq.heappop, self.fifo.popleft
        while True:
            while fifo:
                handler, args = popleft()
                handler(*args)
            if not heap or heap[0][0] > self.t_end_ns:
                break
            self.now = t = heap[0][0]
            while heap and heap[0][0] == t:
                _t, _seq, handler, args = pop(heap)
                handler(*args)

        return "\n".join(self.trace_lines) + ("\n" if self.trace_lines else ""), self.report()

    def _app_send(self, flow: Flow, seq: int) -> None:
        payload = make_payload(self.flow_index[flow.name], seq, flow.payload_size)
        self.flow_stats[flow.name]["sent"] += 1
        self.trace_lines.append(
            f'{{"event":"app_send","flow":{self.flow_text[flow.name]},'
            f'"location":{self.node_text[flow.source]},"seq":{seq},"t_ns":{self.now}}}')
        self.topo.nodes[flow.source].app_send(self, flow, seq, payload)

    def on_tx_complete(self, sender: Station, frame, rx: frames.Decoded,
                       summary: str, shared: str) -> None:
        now = self.now
        self.trace_lines.append(f'{{"event":"tx_complete",{shared}"t_ns":{now}}}')
        self.schedule(now, self._deliver, sender, frame, rx, summary)
        sender.medium.on_complete(self, sender)

    def _deliver(self, sender: Station, frame, rx: frames.Decoded, summary: str) -> None:
        """Hand one transmission to the receivers that can act on it, in
        station order: each one's `deliver` record, then its reaction.
        Every other station gets its record; those of each run of stations
        that cannot act on the frame are written in one join."""
        owners, locations, index, at = self.fanout[sender][2]
        # Byte for byte what trace("deliver", <receiver name>, frame=...) writes.
        head = '{"event":"deliver","frame":' + summary + ',"location":'
        tail = f',"t_ns":{self.now}}}'
        lines = self.trace_lines
        callees = None if index is None else index.callees(at, frame, rx)
        if callees is None:  # every receiver
            for owner, location in zip(owners, locations):
                lines.append(head + location + tail)
                owner.on_receive(self, frame, rx)
            return
        sep = tail + "\n" + head
        start = 0  # the first receiver whose record is not written yet
        for i in callees:
            if i != at:
                end = i if i < at else i - 1  # its place among the receivers
                lines.append(head + sep.join(locations[start:end + 1]) + tail)
                owners[end].on_receive(self, frame, rx)
                start = end + 1
        if start < len(locations):
            lines.append(head + sep.join(locations[start:]) + tail)

    def _stp_hello(self, sw: CSwitch) -> None:
        self.trace("timer", sw.name, reason="stp-hello")
        self.emit(sw, sw.hello())
        self.schedule(self.now + HELLO_INTERVAL_NS, self._stp_hello, sw)

    def emit(self, sw: CSwitch, emissions) -> None:
        """Queue a switch's (port, frame, decoded value) emissions on the
        ports' media."""
        for port, out_frame, rx in emissions:
            station = self.topo.port_station[(sw.name, port)]
            station.medium.enqueue(self, station, out_frame, rx)

    # -- report ---------------------------------------------------------------

    def report(self) -> dict:
        flows = {}
        for flow in self.topo.flows:
            st = self.flow_stats[flow.name]
            lat = st["latencies"]
            flows[flow.name] = {
                "sent": st["sent"],
                "delivered": st["delivered"],
                "delivered_unique": len(st["delivered_seqs"]),
                "payload_mismatches": st["payload_mismatches"],
                "drops": dict(sorted(st["drops"].items())),
                "latency_ns": {
                    "min": min(lat), "mean": sum(lat) / len(lat), "max": max(lat),
                } if lat else None,
            }
        return {
            "t_end_ns": self.t_end_ns,
            "seed": self.options.seed,
            "flows": flows,
            "media": {name: m.report(self.t_end_ns) for name, m in self.topo.media.items()},
            "switches": {name: sw.report() for name, sw in self.topo.switches.items()},
            "nodes": {name: dict(n.counters) for name, n in self.topo.nodes.items()},
        }
