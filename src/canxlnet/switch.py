"""Composite switch: an Ethernet forwarding core with CAN XL tunneller ports.

A C-switch is a multiport learning bridge.  Its ports take `on_receive`
as nodes do (the engine's `SwitchPortRef`) and queue what `on_ingress`
returns for the frame and its decoded value.  The core works on
the value's Ethernet frame, whether it came from an Ethernet port or
tunneled over a CAN port, or else on the `Ipv4Datagram` a compact frame
decodes to; CAN ports re-encapsulate on egress.  Streamlined IPv4 frames
carry no MAC addresses, so the filtering database is extended with an IP
index (the TARP cache) populated by snooping the decoded ARP messages and
checked IPv4 headers; with it the switch can rebuild full Ethernet frames,
carrying that datagram as it is, for streamlined datagrams that must
leave on an Ethernet port.

A packet is never parsed on its way through the switches: every
emission is a `(port, frame)` pair, the frame built by a `frames`
function from what the switch already holds (the ingress value's
Ethernet frame, the `Bpdu` it serialized, the checked datagram it
compacts or rebuilds).  The helpers take the ingress value alone, whose
`eth` is None for a compact frame's datagram `net`.

Loop prevention uses a reduced spanning tree: 64-bit bridge ids, hello
BPDUs every 2 s, lowest root id wins, per-port roles root/designated/
blocked, and no topology-change machinery (topologies are static after
t=0).  BPDUs travel tunneled on CAN ports, addressed to the standard STP
group MAC, each with its `frames.Bpdu` value, which `stp_step` reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import frames
from .frames import (
    STP_GROUP_MAC,
    ArpMessage,
    Bpdu,
    ClassicCanFrame,
    EthernetFrame,
    Ipv4Address,
    Ipv4Datagram,
    MacAddress,
    NotPlainIpv4,
    fits,
)
from .timing import to_ns

ETH = "ethernet"
CAN_XL = "can"
PORT_KINDS = (ETH, CAN_XL)

EGRESS_EOC = "eoc"
EGRESS_IOC_PREFERRED = "ioc-preferred"
EGRESS_MODES = (EGRESS_EOC, EGRESS_IOC_PREFERRED)

ROLE_ROOT = "root"
ROLE_DESIGNATED = "designated"
ROLE_BLOCKED = "blocked"

HELLO_INTERVAL_NS = to_ns(2.0)
DEFAULT_AGEING_S = 300.0


@dataclass(frozen=True)
class PortConfig:
    index: int
    kind: str
    egress_mode: str = EGRESS_EOC
    egress_priority_base: int = 0x700

    def __post_init__(self):
        if self.kind not in PORT_KINDS:
            raise ValueError(f"unknown port kind {self.kind!r}")
        if self.egress_mode not in EGRESS_MODES:
            raise ValueError(f"unknown egress mode {self.egress_mode!r}")
        fits("egress_priority_base", self.egress_priority_base, 11)


@dataclass(frozen=True)
class LegacyRelayRule:
    """Static classic-CAN relay: match an identifier on one port, emit it
    (possibly remapped) on others.  No learning, no flooding."""
    ingress_port: int
    match_id: int
    egress: tuple[tuple[int, int], ...]  # (port, remapped id)

    def __post_init__(self):
        fits("match_id", self.match_id, 11)
        for port, remapped in self.egress:
            fits("remapped id", remapped, 11)
            if port == self.ingress_port:
                raise ValueError("relay egress must differ from ingress")


@dataclass
class EfdbEntry:
    mac: MacAddress | None
    ip: Ipv4Address | None
    port: int
    last_seen: int  # ns


class Efdb:
    """Filtering database plus TARP cache (the IP index).

    Both indices may share one entry when MAC and IP of a node are known
    jointly; an entry's IP, when it has one, indexes that entry in
    `by_ip`.  Entries older than the ageing time behave as misses.
    """

    def __init__(self, ageing_s: float = DEFAULT_AGEING_S):
        self.ageing_ns = to_ns(ageing_s, "ageing time")
        self.by_mac: dict[MacAddress, EfdbEntry] = {}
        self.by_ip: dict[Ipv4Address, EfdbEntry] = {}

    def lookup_mac(self, mac: MacAddress, now: int) -> EfdbEntry | None:
        entry = self.by_mac.get(mac)
        if entry is None or now - entry.last_seen > self.ageing_ns:
            return None
        return entry

    def lookup_ip(self, ip: Ipv4Address, now: int) -> EfdbEntry | None:
        entry = self.by_ip.get(ip)
        if entry is None or now - entry.last_seen > self.ageing_ns:
            return None
        return entry

    def learn_mac(self, mac: MacAddress, port: int, now: int) -> None:
        entry = self.by_mac.get(mac)
        if entry is None:
            self.by_mac[mac] = EfdbEntry(mac, None, port, now)
        else:
            entry.port, entry.last_seen = port, now

    def learn_joint(self, mac: MacAddress, ip: Ipv4Address, port: int, now: int) -> None:
        entry = self.by_mac.get(mac)
        if entry is not None and entry.ip == ip:  # then `by_ip[ip]` is that entry too
            entry.port, entry.last_seen = port, now
            return
        if entry is None:
            entry = EfdbEntry(mac, ip, port, now)
            self.by_mac[mac] = entry
        else:
            if entry.ip is not None:  # the MAC's old IP is forgotten
                del self.by_ip[entry.ip]
            entry.ip, entry.port, entry.last_seen = ip, port, now
        old = self.by_ip.get(ip)
        if old is not None:
            # Later learning overwrites: the address moved to another entry.
            old.ip = None
        self.by_ip[ip] = entry

    def learn_ip(self, ip: Ipv4Address, port: int, now: int) -> None:
        # Streamlined frames carry no MAC; refresh the IP index without
        # ever erasing a MAC learned earlier for this address.
        entry = self.by_ip.get(ip)
        if entry is None:
            self.by_ip[ip] = EfdbEntry(None, ip, port, now)
        else:
            entry.port, entry.last_seen = port, now

    def entries(self) -> list[EfdbEntry]:
        """Each entry once, shared ones included."""
        return list({id(e): e for index in (self.by_mac, self.by_ip)
                     for e in index.values()}.values())


@dataclass
class _PortState:
    role: str = ROLE_DESIGNATED
    last_bpdu: Bpdu | None = None


class CSwitch:
    """Forwarding state machine.  The owner (simulation engine) feeds it
    one ingress frame at a time and transmits whatever it returns."""

    def __init__(self, name: str, bridge_id: int,
                 ports: list[PortConfig],
                 legacy_rules: list[LegacyRelayRule] | None = None,
                 ageing_time: float = DEFAULT_AGEING_S):
        if len({p.index for p in ports}) != len(ports):
            raise ValueError(f"switch {name}: duplicate port indices")
        fits("bridge_id", bridge_id, 64)
        self.name = name
        self.bridge_id = bridge_id
        self.ports = {p.index: p for p in sorted(ports, key=lambda p: p.index)}
        self.legacy_rules = list(legacy_rules or [])
        self.efdb = Efdb(ageing_time)
        # Bridge MAC, synthesized from the bridge id (locally administered).
        self.mac = MacAddress(b"\x0a\xb1" + (bridge_id & 0xFFFFFFFF).to_bytes(4, "big"))
        self.port_state = {i: _PortState() for i in self.ports}  # index order, as floods
        self.root_id = bridge_id
        self.root_cost = 0
        self.root_port: int | None = None
        self.counters = {
            "forwarded": 0,
            "flooded": 0,
            "no_route_self": 0,
            "reconstruction_failure": 0,
            "stp_blocked": 0,
            "bpdu_malformed": 0,
        }
        # Called with (normalized frame, reason, switch name, decoded value)
        # on every drop; the simulation sets it for per-flow accounting.
        self.drop_hook = lambda frame, reason, location, rx: None

    def _drop(self, reason: str, rx: frames.Decoded) -> None:
        self.counters[reason] += 1
        self.drop_hook(rx.eth or rx.net, reason, self.name, rx)

    # -- ingress ----------------------------------------------------------

    def on_ingress(self, port: int, frame, now: int,
                   rx: frames.Decoded) -> list[tuple[int, object]]:
        """Process one received frame; returns (egress port, frame) pairs.
        `rx` is the frame's `decoded` value, `frames.decode(frame)`."""
        if isinstance(frame, ClassicCanFrame):
            return self.relay_legacy(port, frame, rx)

        # The core sees the Ethernet frame, tunneled or not, or else a
        # compact frame's datagram.  The tunneller does no AF filtering of
        # its own: selective forwarding belongs to the core.
        if rx.eth is None:
            if rx.net is None:  # a compact frame whose header is bad
                return []
        elif rx.eth.da == STP_GROUP_MAC:
            return self.stp_step(port, rx)
        if self.port_state[port].role == ROLE_BLOCKED:
            self._drop("stp_blocked", rx)
            return []
        self.learn(port, rx, now)
        return self._encode_all(self._forward(port, rx, now), rx, now)

    # -- learning ---------------------------------------------------------

    def learn(self, port: int, rx: frames.Decoded, now: int) -> None:
        """Backward learning plus ARP/IPv4 snooping into the TARP cache.
        A malformed ARP or IPv4 header (`rx.net` None) teaches only the MAC.
        An IPv4 frame's source is learned jointly in one step, which leaves
        the entry that learning its MAC first would."""
        eth, net = rx.eth, rx.net
        if eth is None:  # a compact frame: its datagram carries no MAC
            self.efdb.learn_ip(net.src_ip, port, now)
        elif isinstance(net, Ipv4Datagram):
            self.efdb.learn_joint(eth.sa, net.src_ip, port, now)
        else:
            self.efdb.learn_mac(eth.sa, port, now)
            if isinstance(net, ArpMessage):
                self.efdb.learn_joint(net.sha, net.spa, port, now)

    # -- forwarding -------------------------------------------------------

    def _forwarding_ports(self, exclude: int) -> list[int]:
        return [i for i, p in self.ports.items()
                if i != exclude and self.port_state[i].role != ROLE_BLOCKED]

    def _forward(self, ingress: int, rx: frames.Decoded, now: int) -> list[int]:
        """The egress ports of the frame decoded as `rx`; none if it is dropped."""
        if rx.eth is None:
            entry = self.efdb.lookup_ip(rx.net.dst_ip, now)
        elif rx.eth.da.is_group():
            self.counters["flooded"] += 1
            return self._forwarding_ports(ingress)
        else:
            entry = self.efdb.lookup_mac(rx.eth.da, now)

        if entry is not None:
            if entry.port == ingress:
                # Destination lives on the ingress segment: confine it.
                self._drop("no_route_self", rx)
                return []
            if self.port_state[entry.port].role != ROLE_BLOCKED:
                self.counters["forwarded"] += 1
                return [entry.port]
            self._drop("stp_blocked", rx)
            return []
        self.counters["flooded"] += 1
        return self._forwarding_ports(ingress)

    def _encode_all(self, ports: list[int], rx: frames.Decoded,
                    now: int) -> list[tuple[int, object]]:
        """Encode the frame decoded as `rx` for each egress port."""
        out = []
        for port in ports:
            frame = self._encode_for_port(rx, self.ports[port], now)
            if frame is not None:
                out.append((port, frame))
        return out

    def _encode_for_port(self, rx: frames.Decoded, cfg: PortConfig, now: int):
        """Re-encode the frame decoded as `rx` for one egress port; returns
        the wire frame, or None if it is dropped.

        A CAN port that prefers IoC compacts plain IPv4; the rest tunnels.
        Streamlined datagrams leaving on Ethernet (or on a CAN port in
        tunnel mode) need both MAC addresses from the EFDB; without them
        the frame is dropped and counted, never fabricated.
        """
        eth = rx.eth
        if eth is None:  # a compact frame's datagram
            if cfg.kind == CAN_XL and cfg.egress_mode == EGRESS_IOC_PREFERRED:
                return frames.ioc_encode(rx.net, cfg.egress_priority_base)
            eth = self._reconstruct_ethernet(rx.net, now)
            if eth is None:
                self._drop("reconstruction_failure", rx)
                return None
        if cfg.kind == ETH:
            return eth
        if cfg.egress_mode == EGRESS_IOC_PREFERRED and isinstance(rx.net, Ipv4Datagram):
            try:
                return frames.ioc_encode(rx.net, cfg.egress_priority_base)
            except NotPlainIpv4:  # options or fragment fields
                pass
        return frames.eoc_encapsulate(eth, cfg.egress_priority_base)

    def _reconstruct_ethernet(self, dgram: Ipv4Datagram, now: int) -> EthernetFrame | None:
        """The Ethernet/IPv4 frame that carries a compact frame's datagram,
        or None if the EFDB lacks either MAC."""
        dst = self.efdb.lookup_ip(dgram.dst_ip, now)
        src = self.efdb.lookup_ip(dgram.src_ip, now)
        if dst is None or dst.mac is None or src is None or src.mac is None:
            return None
        return frames.ioc_to_ethernet(dgram, dst.mac, src.mac)

    # -- legacy classic-CAN relay ------------------------------------------

    def relay_legacy(self, ingress: int, frame: ClassicCanFrame,
                     rx: frames.Decoded) -> list[tuple[int, ClassicCanFrame]]:
        """Relay one classic frame, decoded as `rx`, by the static rules."""
        out = []
        for rule in self.legacy_rules:
            if rule.ingress_port == ingress and rule.match_id == frame.id:
                for port, remapped in rule.egress:
                    out.append((port, ClassicCanFrame(remapped, frame.data)))
        if not out:
            # Silent by design (strict confinement): no counter, but the
            # simulation still accounts the frame to its flow.
            self.drop_hook(frame, "legacy_unmatched", self.name, rx)
        return out

    # -- spanning tree ------------------------------------------------------

    def stp_step(self, port: int, rx: frames.Decoded) -> list[tuple[int, object]]:
        """Consume one frame to the STP group address, decoded as `rx`, and
        return the wire-ready BPDUs to transmit, as (port, frame) pairs; a
        frame that is not a BPDU counts as malformed."""
        if not isinstance(rx.net, Bpdu):
            self.counters["bpdu_malformed"] += 1
            return []
        self.port_state[port].last_bpdu = rx.net
        if self._recompute_roles() or port == self.root_port:  # the new root port
            return self._emit_bpdus()
        return []

    def hello(self) -> list[tuple[int, object]]:
        """Hello tick: the root (or a bridge still believing it is the root)
        refreshes the tree.  Returns wire-ready BPDUs as `stp_step` does."""
        if self.root_id != self.bridge_id:
            return []
        return self._emit_bpdus()

    def _recompute_roles(self) -> bool:
        candidates = [(self.bridge_id, 0, self.bridge_id, -1)]
        for i, st in self.port_state.items():
            if st.last_bpdu is not None:
                root, cost, sender = st.last_bpdu
                candidates.append((root, cost + 1, sender, i))
        root_id, cost, _sender, root_port = min(candidates)
        changed = (root_id, cost) != (self.root_id, self.root_cost) or \
            (root_port if root_port >= 0 else None) != self.root_port
        self.root_id, self.root_cost = root_id, cost
        self.root_port = root_port if root_port >= 0 else None

        my_claim = (self.root_id, self.root_cost, self.bridge_id)
        for i, st in self.port_state.items():
            if i == self.root_port:
                role = ROLE_ROOT
            elif st.last_bpdu is not None and st.last_bpdu < my_claim:
                # The neighbor advertises a better claim on this segment:
                # it is the designated bridge there, we stand aside.
                role = ROLE_BLOCKED
            else:
                role = ROLE_DESIGNATED
            if st.role != role:
                changed = True
                st.role = role
        return changed

    def _emit_bpdus(self) -> list[tuple[int, object]]:
        bpdu = Bpdu(self.root_id, self.root_cost, self.bridge_id)
        rx = frames.bpdu_serialize(bpdu, self.mac).decoded
        ports = [i for i, st in self.port_state.items() if st.role == ROLE_DESIGNATED]
        return self._encode_all(ports, rx, 0)  # no EFDB lookup, so any time will do

    # -- reporting -----------------------------------------------------------

    def report(self) -> dict:
        return {
            "counters": dict(self.counters),
            "stp": {
                "root_id": self.root_id,
                "root_cost": self.root_cost,
                "ports": {str(i): st.role for i, st in self.port_state.items()},
            },
            "efdb": sorted(
                (
                    {
                        "mac": str(e.mac) if e.mac else None,
                        "ip": str(e.ip) if e.ip else None,
                        "port": e.port,
                        "last_seen_ns": e.last_seen,
                    }
                    for e in self.efdb.entries()
                ),
                key=lambda d: (d["mac"] or "", d["ip"] or ""),
            ),
        }
