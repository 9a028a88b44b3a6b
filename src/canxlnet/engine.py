"""Deterministic discrete-event engine.

Time is integer nanoseconds.  `due` maps each instant to its events,
`(handler, args)` in scheduling order, and a heap holds the instants
that have events.  `run` takes the earliest instant and calls its events
as `handler(*args)` in list order, those scheduled for that instant while
it runs too, so events run in (time, scheduling) order and two runs over
the same inputs produce byte-identical traces.  Handlers are the
engine's own (application sends, transmission completions, deliveries,
STP hellos), node startup and ARP retries, and the media's arbitration
kicks.  Each reads the time as `Simulation.now`, the one clock; no event
carries a copy.  `CSwitch` and `Efdb` take `now` instead: they run
without a simulator, so tests drive them with explicit times, and
`SwitchPortRef` passes `sim.now`.

A node or a switch port (`SwitchPortRef`) is the station its medium's
`attach` wires, and what the engine reads about a station is kept on
it: `attach` gives it its medium's state, `Simulation.__init__` its
JSON-encoded `trace_names` and its `fanout`, and `Topology.add_switch`
gives each switch its `stations`, port to `SwitchPortRef`, which
`Topology.attach_switch_port` fills in.  A flow's `FlowRecord` holds its
sending `node`.  So a `Topology` runs once: its nodes, media and
stations carry the state of one run.  Media hand each transmission they
start to `Simulation.on_tx_start`, which describes the frame once,
traces it and schedules its completion, appending it to `due` by
`schedule`'s rule.  The completion arms the medium by the rule the
`media` docstring gives, and a delivery whose completion armed it ends
with the medium's kick.
A packet is never parsed on the way: each frame, a node's or a switch's,
a BPDU too, is built by a `frames` function that attaches its decoded
value, and is queued alone.  `on_tx_start` reads `frame.decoded` once per
transmission and hands it to flow attribution, the summary and every
receiver's `on_receive`, a node's or a switch port's (`SwitchPortRef`
calls `CSwitch.on_ingress` and queues its `(port, frame)` emissions).
`frame_summary` writes the summary as JSON text, once per run for each
distinct key of `Simulation.summaries`: the frame's kind and the fields
the summary reads, never the frame, whose bytes may be built on demand.
Every per-packet record (`app_send`, `tx_start`, `tx_complete`,
`deliver`, `app_deliver` and the drop of a frame no flow owns) is
written as text around it and the medium, station, node and flow names
encoded once at set-up.  `trace` encodes the rarer records (timers,
clashes, flow drops, untracked deliveries) whole.  The completion
delivers the frame through `_deliver`, on links and buses alike: at once
if its own event is the last due at its instant, as the delivery's event
would have run next, and otherwise as an event after those due then.
`_deliver` writes the one record of a transmission with one receiver
and no index (a link's, say) in one step and calls that receiver.
Otherwise it walks the stations in order.  Every station but the sender
gets its `deliver` record, but only the receivers that can accept the
frame are called: on a bus, an `AcceptanceIndex` built once at set-up
from the attributes `on_receive` tests names them.  It also counts the
AF false positives of the nodes it skips, in O(1) per frame: per AF
image, the unicast tunnel frames that image's filters passed, and per
node, those it was spared (its own, and those it sent).  When the event
loop of `run` ends, `settle` adds the difference to each node's
`af_false_positive`, visiting only the images that were passed.  Each
called receiver reacts right after its own record; the records of each
run of stations up to a called one go in as one join.  A
broadcast ARP frame calls only the switch ports and the nodes that
`Node._handle_arp` can act for: the target IP's and those that hold the
sender IP.  The index finds them in C: it keeps each node's own
`arp_table` dict and a map from IP to node, both from set-up, and
`itertools.compress` picks the nodes whose table holds the sender IP,
so a table a node learns into during the run is read as it is then.
A link, a sender whose receivers are all switch ports
(neither is given the index) and every other tunnel frame with a group
AF or DA call every receiver.  Bus clashes and switch drops both go
through `Simulation.drop`.

Frames are never tagged with bookkeeping objects: each payload starts
with an 8-byte tag, flow index and sequence number, which `flow_of`, its
one reader, takes from the decoded payload at any transmission, drop,
delivery or ARP give-up, across any chain of re-encodings (a datagram
with a bad IPv4 header belongs to no flow), and turns into the flow's
`FlowRecord` at that index.  No per-send table is kept: a packet's send
time is its flow's `schedule[seq]`, and `make_payload` of its tag,
regenerated on delivery, is the end-to-end byte-identity check.

The trace is one JSON record per line; the report is a JSON document of
per-flow, per-medium, per-switch, and per-node aggregates.  The trace is
kept as entries in `Simulation.trace_lines`, each ending in a newline:
a record, or one of the three pieces of a run of `deliver` records,
which `_deliver` appends as the records' common head, their locations
joined by `tail + head`, and the tail, so each record is copied once
before the final join.  `extra_lines` counts the lines held beyond one
per entry, so the lines held are known without reading the entries.
Given a text file, `run` streams the trace to it: after any instant that
leaves more than `TRACE_CHUNK` lines held it writes them in one join and
clears the list, so memory holds a chunk of the trace and the lines of
one instant, however many stations a bus has.  Entries are written only
between instants, so every write ends on a whole line.  Without a file
`run` returns the whole trace as text.
"""

from __future__ import annotations

import heapq
import json
import struct
import sys
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import contains

from . import frames
from .frames import (
    AF_GROUP,
    SDT_ETHERNET,
    ArpMessage,
    CanXlFrame,
    ClassicCanFrame,
    EthernetFrame,
    Ipv4Address,
    MacAddress,
)
from .media import CanBus, EthernetLink
from .switch import CAN_XL, ETH, CSwitch, HELLO_INTERVAL_NS
from .timing import CanXlTimingParams, EthernetTimingParams, to_ns

FLOW_TAG = struct.Struct(">II")  # a payload's first bytes: flow index, sequence number
MAX_IPV4_PAYLOAD = frames.ETH_MTU - frames.IPV4_HEADER_LEN
# Trace lines held before `run` writes them to its file, checked after
# each instant.
TRACE_CHUNK = 256

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
class FlowRecord:
    """A flow, its JSON-encoded name, its sending node and the counts
    `report` reads."""
    flow: Flow
    index: int
    text: str
    node: object
    sent: int = 0
    payload_mismatches: int = 0
    seqs: set = field(default_factory=set)  # delivered
    latencies: list = field(default_factory=list)  # one per delivery
    drops: dict = field(default_factory=dict)


@dataclass
class RunOptions:
    t_end: float = 1.0
    seed: int = 0
    startup_gratuitous_arp: bool = True
    trace: str | None = None  # output paths
    report: str | None = None


@dataclass(eq=False)
class SwitchPortRef:
    """A switch port as its medium's station."""
    switch: CSwitch
    port: int
    name: str  # <switch>.p<port>
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
    a tunnel frame with a group AF reaches every node's software stage.
    There a group DA goes to `_dispatch_eth`, which acts on an ARP
    message only through `Node._handle_arp`, and that acts only if the
    node's `ip` is the target IP or its `arp_table` holds the sender IP.
    So an ARP frame with a group AF and DA goes to the ports and to those
    nodes.  The tables are read once, before any of them is called; that
    is exact because a reaction only queues frames, so it changes no other
    node's table during one delivery.  Every other tunnel frame with a
    group AF (a BPDU, a group IPv4 or raw frame, a malformed ARP message,
    a unicast DA under a group AF), and a group DA under an AF some node
    has, go to every station.
    A node whose filter passes a frame that its DA check drops counts an
    `af_false_positive` here, without a call: `callees` counts one hit
    for the frame's AF image, and one spared frame for the destination
    node and for a sender with that image that is not the destination.
    `settle`, which `Simulation.run` calls when its event loop ends, adds
    hits less spared frames to the counter of each node of each image hit.
    A group AF over a unicast DA calls every node, and `EocNode.on_receive`
    counts for itself."""

    def __init__(self, stations: list):
        self.stations = stations  # the bus's, in order
        self.ports, self.classic = [], []  # switch ports; those and classic nodes
        self.nodes = []  # the positions of the tunnel and streamlined nodes
        for i, station in enumerate(stations):
            if station.kind == "switch-port":
                self.ports.append(i)
                self.classic.append(i)
            elif station.kind == "classic-can":
                self.classic.append(i)
            else:
                self.nodes.append(i)
        nodes = self.nodes
        # What `Node._handle_arp` tests: each node's ARP table, the dict
        # itself (a node never rebinds it), and IP -> the position of its node
        self.tables = [stations[i].arp_table for i in nodes]
        self.owners = {stations[i].ip: i for i in nodes if stations[i].ip is not None}
        # af_image -> {MAC: (position, the ports and that node)} of the nodes
        # with that image; ip_af -> the ports and the node with it
        self.tunnel: dict[int, dict[MacAddress, tuple[int, list[int]]]] = {}
        self.compact: dict[int, list[int]] = {}
        self.images = [None] * len(stations)  # each node's af_image, by position
        for i in nodes:
            node = stations[i]
            callees = sorted(self.ports + [i])
            self.tunnel.setdefault(node.af_image, {})[node.mac] = (i, callees)
            self.images[i] = node.af_image
            if node.ip_af is not None:
                self.compact[node.ip_af] = callees
        # The AF false positives, until `settle`: the unicast tunnel frames
        # each image's filters passed, and per position those of them that
        # were the node's own or that it sent.
        self.hits: dict[int, int] = {}
        self.spared = [0] * len(stations)

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
            net = rx.net
            if isinstance(net, ArpMessage) and rx.eth.da.is_group():
                # the ports, the nodes whose table holds the sender IP and
                # the target IP's: what `Node._handle_arp` tests
                callees = {*self.ports,
                           *compress(self.nodes, map(contains, self.tables, repeat(net.spa)))}
                owner = self.owners.get(net.tpa)
                if owner is not None:
                    callees.add(owner)
                return sorted(callees)
            return None
        passed = self.tunnel.get(af)
        if passed is None:
            return self.ports
        da = rx.eth.da
        if da.is_group():
            return None
        hits = self.hits
        hits[af] = hits.get(af, 0) + 1
        node, callees = passed.get(da, (None, self.ports))
        if node is not None:
            self.spared[node] += 1
        if self.images[sender] == af and sender != node:
            self.spared[sender] += 1
        return callees

    def settle(self) -> None:
        """Add each node's AF false positives to its counters: the frames
        its image passed, less those it was spared."""
        stations, spared = self.stations, self.spared
        for af, hits in self.hits.items():
            for i, _ in self.tunnel[af].values():
                stations[i].counters["af_false_positive"] += hits - spared[i]


class Topology:
    """Nodes, media, and switches wired together, plus the flow set."""

    def __init__(self, options: RunOptions | None = None):
        self.nodes: dict[str, object] = {}
        self.media: dict[str, object] = {}
        self.switches: dict[str, CSwitch] = {}
        self.flows: list[Flow] = []
        self.options = options or RunOptions()

    def add_node(self, node) -> object:
        if node.name in self.nodes or node.name in self.switches:
            raise ConfigError(f"nodes.{node.name}", "duplicate name")
        self.nodes[node.name] = node
        return node

    def add_switch(self, sw: CSwitch) -> CSwitch:
        if sw.name in self.switches or sw.name in self.nodes:
            raise ConfigError(f"switches.{sw.name}", "duplicate name")
        self.switches[sw.name] = sw
        sw.stations = {}  # port -> its SwitchPortRef, once attached
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

    def attach_node(self, node_name: str, medium_name: str) -> object:
        node = self.nodes[node_name]
        if node.medium is not None:
            raise ConfigError(f"nodes.{node_name}", "attached to more than one medium")
        self.media[medium_name].attach(node)
        return node

    def attach_switch_port(self, switch_name: str, port: int, medium_name: str) -> SwitchPortRef:
        sw = self.switches[switch_name]
        medium = self.media[medium_name]
        if port not in sw.ports:
            raise ConfigError(f"switches.{switch_name}", f"no port {port}")
        if port in sw.stations:
            raise ConfigError(f"switches.{switch_name}.ports.{port}",
                              "attached to more than one medium")
        station = sw.stations[port] = SwitchPortRef(sw, port, f"{switch_name}.p{port}")
        medium.attach(station)
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
            if node.medium is None:
                raise ConfigError(f"nodes.{name}", "not attached to any medium")
            on_bus = isinstance(node.medium, CanBus)
            if node.kind == "ethernet-host" and on_bus:
                raise ConfigError(f"nodes.{name}", "Ethernet hosts attach to links")
            if node.kind != "ethernet-host" and not on_bus:
                raise ConfigError(f"nodes.{name}", "CAN nodes attach to buses")
        for name, sw in self.switches.items():
            first_port_on = {}  # medium name -> the switch's first port on it
            for idx, cfg in sw.ports.items():
                station = sw.stations.get(idx)
                if station is None:
                    raise ConfigError(f"switches.{name}.ports.{idx}", "not attached")
                on_bus = isinstance(station.medium, CanBus)
                if cfg.kind == CAN_XL and not on_bus:
                    raise ConfigError(f"switches.{name}.ports.{idx}",
                                      "CAN port wired to an Ethernet link")
                if cfg.kind == ETH and on_bus:
                    raise ConfigError(f"switches.{name}.ports.{idx}",
                                      "Ethernet port wired to a CAN bus")
                # the reduced STP has no port-id tie-break, so two ports on one medium loop
                medium = station.medium.name
                if first_port_on.setdefault(medium, idx) != idx:
                    raise ConfigError(f"switches.{name}", "attaches ports "
                                      f"{first_port_on[medium]} and {idx} to medium {medium}")
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
        names = set()
        for flow in self.flows:
            loc = f"flows.{flow.name}"
            if flow.name in names:
                raise ConfigError(loc, "duplicate name")
            names.add(flow.name)
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


def make_payload(index: int, seq: int, size: int) -> bytes:
    k = (11 * index + 7 * seq) * _INV37 & 0xFF
    return FLOW_TAG.pack(index, seq) + _RAMP[k:k + size - FLOW_TAG.size]


def frame_summary(frame, inner: EthernetFrame | None) -> str:
    """The trace description of `frame`, a CAN XL, Ethernet or classic CAN
    frame or the `Ipv4Datagram` of a compact frame a switch drops, as
    canonical JSON text, keys sorted; `inner`, `frames.decode(frame).eth`,
    is written for CAN XL frames only.  A frame's "len" is its `length`,
    read without serializing it; a datagram's is its payload's.  Addresses
    and SDT names are plain ASCII, so they need no escaping; a MAC is
    written as `MacAddress.__str__` writes it, without the call."""
    if isinstance(frame, CanXlFrame):
        tunnel = "" if inner is None else (
            f'"inner":{{"da":"{inner.da.hex(":")}","ethertype":"0x{inner.ethertype:04x}",'
            f'"sa":"{inner.sa.hex(":")}"}},')
        sdt = frames.SDT_NAMES.get(frame.sdt) or f"0x{frame.sdt:02x}"
        return (f'{{"af":"0x{frame.af:08x}",{tunnel}"kind":"canxl","len":{frame.length},'
                f'"priority":{frame.priority},"sdt":"{sdt}"}}')
    if isinstance(frame, EthernetFrame):
        return (f'{{"da":"{frame.da.hex(":")}","ethertype":"0x{frame.ethertype:04x}",'
                f'"kind":"eth","len":{frame.length},"sa":"{frame.sa.hex(":")}"}}')
    if isinstance(frame, ClassicCanFrame):
        return f'{{"id":"0x{frame.id:03x}","kind":"classic","len":{frame.length}}}'
    return (f'{{"dst":"{frame.dst_ip}","kind":"ioc","len":{len(frame.payload)},'
            f'"src":"{frame.src_ip}"}}')


class Simulation:
    def __init__(self, topo: Topology):
        topo.validate()
        self.topo = topo
        self.options = topo.options
        self.t_end_ns = to_ns(topo.options.t_end)
        self.now = 0
        self.due: dict[int, list] = {}  # instant -> its (handler, args), in order
        self.instants: list[int] = []  # a heap of due's keys
        self.trace_lines: list[str] = []  # entries, each ending in "\n"
        self.extra_lines = 0  # the lines held in trace_lines beyond one per entry
        # (frame kind, every field frame_summary reads) -> the summary text.
        # Keys hold strings, ints and addresses only: a frame is never one,
        # since its payload may be built on demand.
        self.summaries: dict[tuple, str] = {}
        self.flows: list[FlowRecord] = [
            FlowRecord(flow, i, _encode(flow.name), topo.nodes[flow.source])
            for i, flow in enumerate(topo.flows)]
        for sw in topo.switches.values():
            sw.drop_hook = self.drop
        # Each station gets its `trace_names`, its medium's and its own name
        # JSON-encoded, and its `fanout`: every other station and its
        # JSON-encoded name, in order, the bus's AcceptanceIndex or None, and
        # its own position.  A link and a sender whose receivers are all
        # switch ports get no index: they call every receiver, and asking
        # would only cost time.
        self.indexes: list[AcceptanceIndex] = []  # one per bus, settled when the run ends
        for medium in topo.media.values():
            text = _encode(medium.name)
            stations = medium.stations
            names = [_encode(st.name) for st in stations]
            index = None
            if isinstance(medium, CanBus):
                index = AcceptanceIndex(stations)
                self.indexes.append(index)
            for at, sender in enumerate(stations):
                to_nodes = index is not None and len(stations) - len(index.ports) > (
                    sender.kind != "switch-port")  # a receiver is a node
                sender.trace_names = text, names[at]
                sender.fanout = (stations[:at] + stations[at + 1:], names[:at] + names[at + 1:],
                                 index if to_nodes else None, at)

    # -- plumbing -----------------------------------------------------------

    def schedule(self, t_ns: int, handler, *args) -> None:
        """Call `handler(*args)` at `t_ns`, after whatever is already due then.
        `on_tx_start` applies the same rule inline to schedule a completion."""
        events = self.due.get(t_ns)
        if events is None:
            events = self.due[t_ns] = []
            heapq.heappush(self.instants, t_ns)
        events.append((handler, args))

    def trace(self, event: str, location: str, **fields) -> None:
        rec = {"t_ns": self.now, "event": event, "location": location, **fields}
        self.trace_lines.append(_encode(rec) + "\n")

    # -- flow attribution ----------------------------------------------------

    def flow_of(self, payload: bytes | None) -> tuple[FlowRecord, int] | None:
        """The flow record and sequence number that the tag of `payload`
        names, if that flow has sent that packet: if its send time has come."""
        if payload is None:
            return None
        try:
            index, seq = FLOW_TAG.unpack_from(payload)
            record = self.flows[index]
            if record.flow.schedule[seq] <= self.now:
                return record, seq
        except (struct.error, IndexError):  # no tag, no such flow or packet
            pass
        return None

    # -- engine callbacks ------------------------------------------------------

    def on_tx_start(self, station, frame, duration_ns: int) -> None:
        """Read a started frame's decoded value, describe the transmission
        once, trace it and schedule its end."""
        rx = frame.decoded
        eth = rx.eth
        kind = frame.__class__
        if kind is CanXlFrame:
            key = ("canxl", frame.af, frame.priority, frame.sdt, frame.length) if eth is None \
                else ("canxl", frame.af, frame.priority, frame.sdt, frame.length,
                      eth.da, eth.ethertype, eth.sa)
        elif kind is EthernetFrame:
            key = ("eth", frame.da, frame.sa, frame.ethertype, frame.length)
        else:
            key = ("classic", frame.id, frame.length)
        summary = self.summaries.get(key)
        if summary is None:
            summary = self.summaries[key] = frame_summary(frame, eth)
        location, source = station.trace_names
        fl = self.flow_of(rx.payload)
        # The keys tx_start and tx_complete share, in sorted order; written
        # byte for byte as trace() would.
        if fl is None:
            shared = f'"frame":{summary},"location":{location},"source":{source},'
        else:
            shared = (f'"flow":{fl[0].text},"frame":{summary},'
                      f'"location":{location},"seq":{fl[1]},"source":{source},')
        self.trace_lines.append(
            f'{{"duration_ns":{duration_ns},"event":"tx_start",{shared}"t_ns":{self.now}}}\n')
        # `schedule`'s rule, inlined for the one event every transmission has
        t = self.now + duration_ns
        events = self.due.get(t)
        if events is None:
            events = self.due[t] = []
            heapq.heappush(self.instants, t)
        events.append((self.on_tx_complete, (station, frame, rx, summary, shared)))

    def on_clash(self, bus, dropped: list[tuple[object, object]]) -> None:
        self.trace("clash", bus.name, stations=[st.name for st, _ in dropped])
        for _station, frame in dropped:
            self.drop(frame, "priority_clash", bus.name, frame.decoded)

    def drop(self, frame, reason: str, location: str, rx: frames.Decoded) -> None:
        """Account a dropped frame, decoded as `rx`, to its flow, or trace it
        as anonymous."""
        fl = self.flow_of(rx.payload)
        if fl is not None:
            self.flow_drop(*fl, reason, location)
        else:
            # Byte for byte what trace("drop", location, frame=..., reason=reason) writes.
            self.trace_lines.append(
                f'{{"event":"drop","frame":{frame_summary(frame, rx.eth)},'
                f'"location":{_encode(location)},"reason":{_encode(reason)},"t_ns":{self.now}}}\n')

    def flow_drop(self, record: FlowRecord, seq: int, reason: str, location: str) -> None:
        record.drops[reason] = record.drops.get(reason, 0) + 1
        self.trace("drop", location, flow=record.flow.name, seq=seq, reason=reason)

    def on_app_delivery(self, node, payload: bytes) -> None:
        fl = self.flow_of(payload)
        if fl is None:
            self.trace("app_deliver", node.name, reason="untracked")
            return
        record, seq = fl
        record.seqs.add(seq)
        # the packet as sent, zero-padded to what arrived (raw Ethernet pads)
        sent = make_payload(record.index, seq, record.flow.payload_size)
        if payload != sent.ljust(len(payload), b"\0"):
            record.payload_mismatches += 1
        latency = self.now - record.flow.schedule[seq]
        record.latencies.append(latency)
        self.trace_lines.append(
            f'{{"event":"app_deliver","flow":{record.text},'
            f'"latency_ns":{latency},"location":{node.trace_names[1]},'
            f'"seq":{seq},"t_ns":{self.now}}}\n')

    # -- event handlers ---------------------------------------------------------

    def run(self, trace_file=None) -> tuple[str, dict]:
        """Run to t_end; (the trace, the report).  Given a text file, the
        trace is written to it as the run goes and the text returned is "".
        If the run raises, the file still gets every record traced before
        the fault."""
        # In bridge-id order, so that the switches' listing order cannot
        # change which of two simultaneous BPDUs a switch takes first.
        for sw in sorted(self.topo.switches.values(), key=lambda sw: sw.bridge_id):
            self.schedule(0, self._stp_hello, sw)
        for node in self.topo.nodes.values():
            # Not traced: an announcement shows up as tx_start anyway.
            self.schedule(node.start_ns, node.startup, self)
        for record in self.flows:
            for seq, t in enumerate(record.flow.schedule):
                self.schedule(t, self._app_send, record, seq)

        due, instants, pop, t_end = self.due, self.instants, heapq.heappop, self.t_end_ns
        lines = self.trace_lines
        chunk = TRACE_CHUNK if trace_file is not None else sys.maxsize
        try:
            while instants and instants[0] <= t_end:
                self.now = t = pop(instants)
                for handler, args in due[t]:  # the iterator sees events appended on the way
                    handler(*args)
                del due[t]
                if len(lines) + self.extra_lines > chunk:
                    self._write_trace(trace_file)
        finally:
            if trace_file is not None:
                self._write_trace(trace_file)
        # Only the event loop reads the memo; freed, its memory serves the
        # report and its encoding, so the two do not add up to a new peak.
        self.summaries.clear()
        for index in self.indexes:
            index.settle()
        return "" if trace_file is not None else "".join(lines), self.report()

    def _write_trace(self, trace_file) -> None:
        """Write the entries held to `trace_file` and drop them."""
        lines = self.trace_lines
        if lines:
            trace_file.write("".join(lines))
            lines.clear()
            self.extra_lines = 0

    def _app_send(self, record: FlowRecord, seq: int) -> None:
        flow, node = record.flow, record.node
        record.sent += 1
        self.trace_lines.append(
            f'{{"event":"app_send","flow":{record.text},'
            f'"location":{node.trace_names[1]},"seq":{seq},"t_ns":{self.now}}}\n')
        node.app_send(self, flow, make_payload(record.index, seq, flow.payload_size))

    def on_tx_complete(self, sender, frame, rx: frames.Decoded,
                       summary: str, shared: str) -> None:
        now = self.now
        self.trace_lines.append(f'{{"event":"tx_complete",{shared}"t_ns":{now}}}\n')
        medium = sender.medium
        # If the last entry due now is this completion's own, the delivery's
        # event would run next: run it here.  `on_tx_start` builds `shared`
        # anew for each transmission, so that object names the entry.
        args = self.due[now][-1][1]
        if args and args[-1] is shared:
            # A link direction with nothing queued stays unarmed: only the
            # peer reacts to the delivery, and it queues in its own direction.
            self._deliver(sender, frame, rx, summary, (
                sender.queue or medium.kind == "can-bus") and medium.arm(sender))
        else:  # events due before the delivery may queue in this direction
            self.schedule(now, self._deliver, sender, frame, rx, summary, medium.arm(sender))

    def _deliver(self, sender, frame, rx: frames.Decoded, summary: str, armed: bool) -> None:
        """Hand one transmission to the receivers that can act on it, in
        station order: each one's `deliver` record, then its reaction.
        Every other station gets its record; those of each run of stations
        up to one that can act on the frame go in as three entries: the
        head, the locations joined, the tail.  Then, if the completion
        `armed` the medium, kick it."""
        receivers, locations, index, at = sender.fanout
        lines = self.trace_lines
        # Each record byte for byte what trace("deliver", <receiver name>, frame=...) writes.
        if index is None and len(receivers) == 1:  # a link's peer, say: one record, one call
            lines.append(f'{{"event":"deliver","frame":{summary},'
                         f'"location":{locations[0]},"t_ns":{self.now}}}\n')
            receivers[0].on_receive(self, frame, rx)
        else:
            head = '{"event":"deliver","frame":' + summary + ',"location":'
            tail = f',"t_ns":{self.now}}}\n'
            callees = None if index is None else index.callees(at, frame, rx)
            if callees is None:  # every receiver
                for receiver, location in zip(receivers, locations):
                    lines.append(head + location + tail)
                    receiver.on_receive(self, frame, rx)
            else:
                # Every receiver's record is one line, and each run of them
                # three entries: `extra_lines` gains the difference.
                extra = len(locations)
                sep = tail + head
                start = 0  # the first receiver whose record is not written yet
                for i in callees:
                    if i != at:
                        end = i if i < at else i - 1  # its place among the receivers
                        lines += (head, sep.join(locations[start:end + 1]), tail)
                        extra -= 3
                        receivers[end].on_receive(self, frame, rx)
                        start = end + 1
                if start < len(locations):
                    lines += (head, sep.join(locations[start:]), tail)
                    extra -= 3
                self.extra_lines += extra
        if armed:  # where the kick's own event would have run
            sender.medium.kick(self, sender)

    def _stp_hello(self, sw: CSwitch) -> None:
        self.trace("timer", sw.name, reason="stp-hello")
        self.emit(sw, sw.hello())
        self.schedule(self.now + HELLO_INTERVAL_NS, self._stp_hello, sw)

    def emit(self, sw: CSwitch, emissions) -> None:
        """Queue a switch's (port, frame) emissions on the ports' media."""
        for port, out_frame in emissions:
            station = sw.stations[port]
            station.medium.enqueue(self, station, out_frame)

    # -- report ---------------------------------------------------------------

    def report(self) -> dict:
        flows = {}
        for r in self.flows:
            lat = r.latencies
            flows[r.flow.name] = {
                "sent": r.sent,
                "delivered": len(lat),
                "delivered_unique": len(r.seqs),
                "payload_mismatches": r.payload_mismatches,
                "drops": dict(sorted(r.drops.items())),
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
