"""End-device models.

Three IP-capable kinds exist.  An Ethernet host is a conventional
station.  A tunnel node has a CAN XL interface and a thin layer that
emulates Ethernet in software, so the regular ARP/IPv4 stack runs on top
unchanged; receive filtering is two-staged (hardware acceptance field
match, then the full embedded DA).  On a bus the engine applies both
stages before it calls `on_receive` (`engine.AcceptanceIndex`, built from
`af_image`, `mac` and `ip_af`): a node whose filter passes a frame that
its DA check drops has its `af_false_positive` counted there, without a
call, and added to its counters when the run's event loop ends.  A
broadcast ARP frame on a bus calls only the nodes `_handle_arp` can act
for: the target IP's and those whose `arp_table` holds the sender IP.
`on_receive` still applies both stages itself.  A streamlined
node is a tunnel node that sends plain IPv4 as compact-header CAN XL
frames (every datagram a flow may send fits one), falling back to the
tunnel only periodically, to refresh the switches' address knowledge.
ARP itself always travels as (tunneled) Ethernet.  A node's `arp_table`
maps an IP to its MAC; ARP never changes the `static_ips` configured.

Classic CAN nodes exist only to drive the static relay path: no MAC, no
IP, identifier-based reception.  No node parses a header: a node builds
each frame with a `frames` function that attaches its decoded value from
what the node holds (the ARP message, the datagram, the payload), and
every `on_receive` gets the frame with that value.
A datagram waits for ARP as its payload alone; its tag names it on a
give-up.  The time is read as `sim.now`; no event carries it.
"""

from __future__ import annotations

from . import frames
from .frames import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_RAW_DATA,
    STP_GROUP_MAC,
    ZERO_MAC,
    ArpMessage,
    ArpOp,
    CanXlFrame,
    ClassicCanFrame,
    EthernetFrame,
    Ipv4Address,
    Ipv4Datagram,
    MacAddress,
)
from .timing import to_ns

ARP_RETRY_NS = 1_000_000_000  # one retry after 1 s, then give up
DEFAULT_EOC_REFRESH_S = 60.0
FLOW_PROTOCOL = 253  # RFC 3692 experimental protocol number


class Node:
    kind = "ethernet-host"

    def __init__(self, name: str, mac: MacAddress, ip: Ipv4Address | None = None,
                 start_time: float = 0.0,
                 static_arp: dict[Ipv4Address, MacAddress] | None = None):
        self.name = name
        self.mac = mac
        self.ip = ip
        self.start_ns = to_ns(start_time, "start_time")
        self.arp_table = dict(static_arp or {})  # IP -> MAC
        self.static_ips = frozenset(self.arp_table)  # never relearned
        self.pending_arp: dict[Ipv4Address, list[bytes]] = {}  # IP -> payloads
        self.medium = None  # attach sets it and the queue
        self.counters = {
            "delivered": 0,
            "af_false_positive": 0,
            "arp_unresolved": 0,
            "ipv4_errors": 0,
        }

    # -- transmit ----------------------------------------------------------

    def _emit_eth(self, sim, eth: EthernetFrame) -> None:
        self.medium.enqueue(sim, self, eth)

    def startup(self, sim) -> None:
        """Announce the node's own binding so switches can snoop it.

        Nodes with static ARP entries never trigger request/reply
        exchanges, so without this announcement no switch would ever
        learn their addresses."""
        if not sim.options.startup_gratuitous_arp:
            return
        if self.ip is None or not (self.static_ips or self.kind == "ioc"):
            return
        msg = ArpMessage(ArpOp.GRATUITOUS_REPLY, self.mac, self.ip, ZERO_MAC, self.ip)
        self._emit_eth(sim, frames.arp_serialize(msg))

    def app_send(self, sim, flow, payload: bytes) -> None:
        if flow.transport == "raw-ethernet":
            self._emit_eth(sim, EthernetFrame(flow.dst_mac, self.mac, ETHERTYPE_RAW_DATA, payload))
        else:  # ipv4: Topology validation admits no other transport here
            self.send_ip(sim, flow.dst_ip, payload)

    def send_ip(self, sim, dst_ip: Ipv4Address, payload: bytes) -> None:
        dst_mac = self.arp_table.get(dst_ip)
        if dst_mac is not None:
            self._send_datagram(sim, dst_mac, dst_ip, payload)
            return
        pending = self.pending_arp.setdefault(dst_ip, [])
        pending.append(payload)
        if len(pending) == 1:  # a new list starts a resolution
            self._send_arp_request(sim, dst_ip, 1)

    def _send_arp_request(self, sim, dst_ip: Ipv4Address, attempt: int) -> None:
        msg = ArpMessage(ArpOp.REQUEST, self.mac, self.ip, ZERO_MAC, dst_ip)
        self._emit_eth(sim, frames.arp_serialize(msg))
        sim.schedule(sim.now + ARP_RETRY_NS, self.arp_retry, sim, dst_ip, attempt)

    def _send_datagram(self, sim, dst_mac: MacAddress, dst_ip: Ipv4Address,
                       payload: bytes) -> None:
        dgram = Ipv4Datagram(self.ip, dst_ip, payload, protocol=FLOW_PROTOCOL)
        self._emit_eth(sim, frames.ioc_to_ethernet(dgram, dst_mac, self.mac))

    def arp_retry(self, sim, dst_ip: Ipv4Address, attempt: int) -> None:
        sim.trace("timer", self.name, reason="arp-retry")
        if dst_ip not in self.pending_arp:
            return  # resolved in the meantime; a resolved IP never pends again
        if attempt >= 2:  # the second request went unanswered too
            for payload in self.pending_arp.pop(dst_ip):  # each names its packet
                self.counters["arp_unresolved"] += 1
                sim.flow_drop(*sim.flow_of(payload), "arp_unresolved", self.name)
            return
        self._send_arp_request(sim, dst_ip, attempt + 1)

    # -- receive -----------------------------------------------------------

    def on_receive(self, sim, frame, rx: frames.Decoded) -> None:
        """Receive `frame`; `rx` is its `decoded` value, which equals
        `frames.decode(frame)`."""
        if isinstance(frame, EthernetFrame) and \
                (frame.da == self.mac or frame.da.is_group()):
            self._dispatch_eth(sim, rx)

    def _dispatch_eth(self, sim, rx: frames.Decoded) -> None:
        eth, net = rx.eth, rx.net
        if eth.da == STP_GROUP_MAC:  # a BPDU's ethertype matches no branch below
            return
        if eth.ethertype == ETHERTYPE_ARP:
            if net is not None:
                self._handle_arp(sim, net)
        elif eth.ethertype == ETHERTYPE_IPV4:
            if net is None:
                self.counters["ipv4_errors"] += 1
            elif self.ip is not None and net.dst_ip == self.ip:
                self._deliver(sim, rx.payload)
        elif eth.ethertype == ETHERTYPE_RAW_DATA:
            self._deliver(sim, rx.payload)

    def _deliver(self, sim, payload: bytes) -> None:
        self.counters["delivered"] += 1
        sim.on_app_delivery(self, payload)

    def _handle_arp(self, sim, msg: ArpMessage) -> None:
        # Refresh a known IP unless it is static, or learn one sent to this
        # node, but never the node's own IP (RFC 5227: another station
        # announcing or claiming it is a conflict, not a binding); only a
        # learned IP can have datagrams waiting.  Nothing happens unless
        # `tpa` is this node's IP or `spa` is in its table, and
        # `engine.AcceptanceIndex.callees` calls a bus node for a broadcast
        # ARP frame only then (the owner of `tpa` in `owners`, and the nodes
        # whose table, kept in `tables`, holds `spa`), a superset of the
        # nodes that act: keep the two tests in step.
        if (msg.spa in self.arp_table or msg.tpa == self.ip) and \
                msg.spa not in self.static_ips and msg.spa != self.ip:
            self.arp_table[msg.spa] = msg.sha
            for payload in self.pending_arp.pop(msg.spa, ()):
                self._send_datagram(sim, msg.sha, msg.spa, payload)

        # An announcement (RFC 5227: spa == tpa) asks nothing: no reply.
        if msg.op == ArpOp.REQUEST and msg.tpa == self.ip and msg.spa != msg.tpa:
            reply = ArpMessage(ArpOp.REPLY, self.mac, self.ip, msg.sha, msg.spa)
            self._emit_eth(sim, frames.arp_serialize(reply))


class EthernetHost(Node):
    kind = "ethernet-host"


class EocNode(Node):
    kind = "eoc"

    def __init__(self, name, mac, *args, can_priority: int = 0x100, **kwargs):
        super().__init__(name, mac, *args, **kwargs)
        frames.fits("can_priority", can_priority, 11)
        self.can_priority = can_priority
        self.af_image = frames.make_af_from_da(mac)  # what the hardware filter compares
        # the acceptance field of compact frames addressed to this node; a
        # tunnel node takes none
        self.ip_af = None

    def _emit_eth(self, sim, eth: EthernetFrame) -> None:
        self.medium.enqueue(sim, self, frames.eoc_encapsulate(eth, self.can_priority))

    def on_receive(self, sim, frame, rx: frames.Decoded) -> None:
        if not isinstance(frame, CanXlFrame):
            return
        if frame.sdt == frames.SDT_ETHERNET:
            # Hardware stage: acceptance-field match.
            if not frames.af_filter_match(frame.af, self.af_image):
                return
            # Software stage: the full DA breaks acceptance-field ties.
            if not (rx.eth.da == self.mac or rx.eth.da.is_group()):
                self.counters["af_false_positive"] += 1
                return
            self._dispatch_eth(sim, rx)
        elif frame.af == self.ip_af and rx.net is not None:  # compact, header checked
            self._deliver(sim, rx.payload)


class IocNode(EocNode):
    kind = "ioc"

    def __init__(self, *args, eoc_refresh_interval: float | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.eoc_refresh_interval_ns = None if eoc_refresh_interval is None else to_ns(
            eoc_refresh_interval, "eoc_refresh_interval")
        self.next_refresh_ns: int | None = None
        self.ip_af = None if self.ip is None else self.ip.to_u32()

    def startup(self, sim) -> None:
        if self.eoc_refresh_interval_ns is not None:
            self.next_refresh_ns = sim.now + self.eoc_refresh_interval_ns
        super().startup(sim)

    def _send_datagram(self, sim, dst_mac, dst_ip, payload) -> None:
        if self.next_refresh_ns is not None and sim.now >= self.next_refresh_ns:
            # Time to refresh the switches' joint MAC+IP knowledge: this
            # one datagram travels tunneled.
            self.next_refresh_ns = sim.now + self.eoc_refresh_interval_ns
            super()._send_datagram(sim, dst_mac, dst_ip, payload)
            return
        dgram = Ipv4Datagram(self.ip, dst_ip, payload, flags=frames.IPV4_DF,
                             protocol=FLOW_PROTOCOL)
        self.medium.enqueue(sim, self, frames.ioc_encode(dgram, self.can_priority))


class ClassicCanNode:
    kind = "classic-can"

    def __init__(self, name: str, rx_ids: list[int] | None = None, start_time: float = 0.0):
        self.name = name
        self.mac = None
        self.ip = None
        self.rx_ids = set(rx_ids or [])
        for i in self.rx_ids:
            frames.fits("rx_ids", i, 11)
        self.start_ns = to_ns(start_time, "start_time")
        self.medium = None
        self.counters = {"delivered": 0}

    def startup(self, sim) -> None:
        pass

    def app_send(self, sim, flow, payload: bytes) -> None:
        self.medium.enqueue(sim, self, ClassicCanFrame(flow.can_id, payload))

    def on_receive(self, sim, frame, rx: frames.Decoded) -> None:
        if isinstance(frame, ClassicCanFrame) and frame.id in self.rx_ids:
            self.counters["delivered"] += 1
            sim.on_app_delivery(self, frame.data)
