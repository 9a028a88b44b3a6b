"""Frame formats and pure encode/decode operations.

Everything on a wire in this library is one of three frame kinds:

  EthernetFrame   DA(6) SA(6) EtherType(2) payload(46..1500, zero padded)
  CanXlFrame      priority(11b) SEC SDT(1) VCID(1) AF(4) data(1..2048)
  ClassicCanFrame id(11b) data(0..8)

CAN XL frames multiplex their content through the SDU type (SDT) octet.
Two encapsulations are implemented:

  Ethernet tunnel ("EoC"): data = the serialized Ethernet frame, without
  preamble and FCS (the CAN XL CRC-32 protects the embedding); AF carries
  the leading four octets of the embedded DA so receivers can filter in
  hardware (the I/G bit lives in octet 0 and is therefore included).

  Streamlined IPv4 ("IoC"): AF carries the destination IPv4 address and
  data starts with an 8-byte compact header:

      0               1               2               3
      +-------+-------+---------------+---------------+--------------+
      |ver=4  | pad=0 |   DSCP/ECN    |      TTL      |   protocol   |
      +-------+-------+---------------+---------------+--------------+
      |                      source IPv4 address                     |
      +--------------------------------------------------------------+

  Total length, header checksum, identification and all fragmentation
  fields of the standard IPv4 header are omitted (length comes from the
  MAC, integrity from the CAN XL CRCs, and fragmented traffic falls back
  to the Ethernet tunnel).  The encoding is 26 bytes smaller than the
  tunneled Ethernet/IPv4 form of the same datagram.

  A compact frame is a second wire form of one plain `Ipv4Datagram`, not
  a type of its own: it decodes to the datagram `streamlined` makes of
  what was sent (identification 0, DF set, no options), and a datagram
  with options or fragment fields raises `NotPlainIpv4` on encoding.

An address is its octets: `MacAddress` and `Ipv4Address` are `bytes`
subclasses that check their length, so serializers, the acceptance field
and address tables use an address as it is.  An address equals and
hashes as its plain octets, and a MAC never equals an IPv4 address.

All types are immutable values and all operations are pure functions.
`decode` parses every layer of a frame from its bytes, a BPDU's `Bpdu`
included, and `frame.decoded` equals it: the functions that build a
frame attach that value from what they were given, and a frame built
from bytes or by a constructor gets it on first read.  An Ethernet frame
keeps only what follows its header, so that no frame refers to itself.

Wire bytes are built on demand.  The frames those builders return keep
`length`; `CanXlFrame.data` and `EthernetFrame.payload` are serialized
from the attached value on first read and then kept.  So a simulation,
which reads only header fields, lengths and decoded values, never parses
a frame and never serializes a tunnel, a compact frame or an IPv4
header.  Every frame has `length`, the length of its data field
(`CanXlFrame`, `ClassicCanFrame`) or of its padded payload
(`EthernetFrame`).  Such a frame equals, hashes as and prints as the same
frame built from its bytes.  A datagram that builds always serializes,
as `Ipv4Datagram` checks every header field, and every other input the
eager build rejects raises at the same call with the same error, except
a field of the wrong type (a `str` address), which raises when the bytes
are read.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
# Local-experimental EtherTypes used for simulator control/data traffic.
ETHERTYPE_BPDU = 0x88B5
ETHERTYPE_RAW_DATA = 0x88B6

ETH_MIN_PAYLOAD = 46
ETH_MTU = 1500
ETH_HEADER_LEN = 14

IPV4_HEADER_LEN = 20  # without options
CANXL_MAX_DATA = 2048
IOC_HEADER_LEN = 8

# SDU type assignments.  The values are configuration constants of this
# library (one octet each, all distinct); deployments following other
# assignments can remap them here.
SDT_CLASSIC_CAN = 0x01
SDT_CAN_FD = 0x02
SDT_ETHERNET = 0x03
SDT_IPV4 = 0x05

SDT_NAMES = {
    SDT_CLASSIC_CAN: "classic-can",
    SDT_CAN_FD: "can-fd",
    SDT_ETHERNET: "ethernet",
    SDT_IPV4: "ipv4",
}

IPV4_DF = 0b010
IPV4_MF = 0b001


class FrameError(Exception):
    """Base class for codec failures."""


class Malformed(FrameError):
    pass


class WrongSdt(FrameError):
    pass


class TooLarge(FrameError):
    pass


class NotPlainIpv4(FrameError):
    """Datagram cannot use the streamlined encoding (options, fragments,
    or not IPv4 at all); callers fall back to the Ethernet tunnel."""


def fits(what: str, value: int, bits: int) -> None:
    """The one field-width check: `value` is an unsigned `bits`-bit integer."""
    if value >> bits:  # a TypeError for what is no int; a negative int shifts to -1
        raise ValueError(f"{what} must fit in {bits} bits")


def _address_fields(text, sep: str, count: int, what: str) -> list[str]:
    """Split address text into its `count` fields; config values that YAML
    read as numbers (an unquoted MAC, say) are a TypeError, not text."""
    if not isinstance(text, str):
        raise TypeError(f"expected {what} text in quotes, got {text!r}")
    fields = text.split(sep)
    if len(fields) != count:
        raise ValueError(f"bad {what} {text!r}")
    return fields


class MacAddress(bytes):
    """Six octets, a `bytes` value that equals and hashes as its plain octets;
    never equal to an `Ipv4Address`, it takes no attributes and no int or str."""
    __slots__ = ()
    def __new__(cls, octets: bytes) -> "MacAddress":
        if len(octets) != 6:
            raise ValueError("MAC address needs exactly 6 octets")
        return bytes.__new__(cls, octets)

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        return cls(bytes(int(p, 16) for p in _address_fields(text, ":", 6, "MAC address")))

    def is_group(self) -> bool:
        return bool(self[0] & 0x01)  # I/G bit: least-significant bit of octet 0

    def __str__(self) -> str:
        return self.hex(":")


BROADCAST_MAC = MacAddress(b"\xff" * 6)
ZERO_MAC = MacAddress(b"\x00" * 6)
STP_GROUP_MAC = MacAddress(bytes.fromhex("0180c2000000"))


class Ipv4Address(bytes):
    """Four octets, a `bytes` value that equals and hashes as its plain octets;
    never equal to a `MacAddress`, it takes no attributes and no int or str."""
    __slots__ = ()
    def __new__(cls, octets: bytes) -> "Ipv4Address":
        if len(octets) != 4:
            raise ValueError("IPv4 address needs exactly 4 octets")
        return bytes.__new__(cls, octets)

    @classmethod
    def parse(cls, text: str) -> "Ipv4Address":
        return cls(bytes(int(p, 10) for p in _address_fields(text, ".", 4, "IPv4 address")))

    @classmethod
    def from_u32(cls, value: int) -> "Ipv4Address":
        return cls(value.to_bytes(4, "big"))

    def to_u32(self) -> int:
        return int.from_bytes(self, "big")

    def __str__(self) -> str:
        return ".".join(str(b) for b in self)


@dataclass(frozen=True)
class EthernetFrame:
    """IEEE 802.3 MAC frame, modeled without preamble and FCS.

    Construction zero-pads the payload up to the 46-byte minimum.
    """

    da: MacAddress
    sa: MacAddress
    ethertype: int
    payload: bytes

    def __post_init__(self):
        fits("ethertype", self.ethertype, 16)
        length = len(self.payload)
        if length < ETH_MIN_PAYLOAD:
            object.__setattr__(self, "payload", self.payload + bytes(ETH_MIN_PAYLOAD - length))
            length = ETH_MIN_PAYLOAD
        if length > ETH_MTU:
            raise ValueError(f"payload {length} exceeds MTU {ETH_MTU}")
        self.__dict__["length"] = length

    def to_bytes(self) -> bytes:
        return self.da + self.sa + struct.pack(">H", self.ethertype) + self.payload

    @classmethod
    def from_bytes(cls, buf: bytes) -> "EthernetFrame":
        if len(buf) < ETH_HEADER_LEN + ETH_MIN_PAYLOAD:
            raise Malformed(f"Ethernet frame too short ({len(buf)} bytes)")
        da = MacAddress(buf[0:6])
        sa = MacAddress(buf[6:12])
        (ethertype,) = struct.unpack(">H", buf[12:14])
        return cls(da, sa, ethertype, buf[14:])


@dataclass(frozen=True)
class CanXlFrame:
    """CAN XL MAC frame, modeled above the bit-stuffing layer.

    Only 11-bit priorities exist (no 29-bit form) and SEC=1 side paths
    (extended LLC) are out of scope: the codecs here never set SEC and
    refuse to decode it.
    """

    priority: int
    sdt: int
    vcid: int
    af: int
    data: bytes
    sec: bool = False

    def __post_init__(self):
        fits("priority", self.priority, 11)
        fits("sdt", self.sdt, 8)
        fits("vcid", self.vcid, 8)
        fits("af", self.af, 32)
        length = len(self.data)
        if not 1 <= length <= CANXL_MAX_DATA:
            raise ValueError(f"data length {length} outside [1, {CANXL_MAX_DATA}]")
        self.__dict__["length"] = length

    def to_bytes(self) -> bytes:
        # Canonical byte serialization for traces and the codec CLI; the
        # real on-bus bit layout (stuffing, CRCs) is below this model.
        flags = 0x01 if self.sec else 0x00
        return struct.pack(">HBBBI", self.priority, flags, self.sdt, self.vcid, self.af) + self.data

    @classmethod
    def from_bytes(cls, buf: bytes) -> "CanXlFrame":
        if len(buf) < 10:
            raise Malformed(f"CAN XL frame too short ({len(buf)} bytes)")
        priority, flags, sdt, vcid, af = struct.unpack(">HBBBI", buf[:9])
        return cls(priority, sdt, vcid, af, buf[9:], sec=bool(flags & 0x01))


@dataclass(frozen=True)
class ClassicCanFrame:
    id: int
    data: bytes

    def __post_init__(self):
        fits("identifier", self.id, 11)
        length = len(self.data)
        if length > 8:
            raise ValueError("classic CAN carries at most 8 data bytes")
        self.__dict__["length"] = length


@dataclass(frozen=True)
class Ipv4Datagram:
    """Full RFC 791 datagram (header fields plus payload).

    `options` holds the raw option bytes when IHL > 5; the streamlined
    codecs reject such datagrams (`streamlined`).  Every header field is
    checked here, when the datagram is built.
    """

    src_ip: Ipv4Address
    dst_ip: Ipv4Address
    payload: bytes
    dscp_ecn: int = 0
    identification: int = 0
    flags: int = 0
    fragment_offset: int = 0
    ttl: int = 64
    protocol: int = 253
    options: bytes = b""

    def __post_init__(self):
        # `|` and `>>` refuse what is no int; an int out of range is not 0 shifted past it
        options = len(self.options)
        if options % 4:
            raise ValueError("options must be a whole number of 32-bit words")
        if options > 40:  # IHL, 4 bits, counts words
            raise ValueError(f"options of {options} bytes exceed the 40 an IHL of 15 holds")
        if self.fragment_offset >> 13 or self.flags >> 3:
            raise ValueError("flags/fragment offset out of range")
        if (self.dscp_ecn | self.ttl | self.protocol) >> 8 or self.identification >> 16:
            raise ValueError("DSCP/ECN, TTL and protocol must fit in 8 bits, identification in 16")
        if (total := IPV4_HEADER_LEN + options + len(self.payload)) > 0xFFFF:
            raise ValueError(f"total length {total} exceeds 65535")

    @property
    def ihl(self) -> int:
        return 5 + len(self.options) // 4

    @property
    def total_length(self) -> int:
        return self.ihl * 4 + len(self.payload)

    def to_bytes(self) -> bytes:
        header = bytearray(struct.pack(
            ">BBHHHBBH4s4s",
            (4 << 4) | self.ihl,
            self.dscp_ecn,
            self.total_length,
            self.identification,
            (self.flags << 13) | self.fragment_offset,
            self.ttl,
            self.protocol,
            0,
            self.src_ip,
            self.dst_ip,
        )) + self.options
        struct.pack_into(">H", header, 10, ipv4_checksum(bytes(header)))
        return bytes(header) + self.payload

    @classmethod
    def from_bytes(cls, buf: bytes) -> "Ipv4Datagram":
        if len(buf) < IPV4_HEADER_LEN:
            raise Malformed("IPv4 header truncated")
        ver_ihl, dscp_ecn, total, ident, frag, ttl, proto, _cksum, src, dst = \
            struct.unpack(">BBHHHBBH4s4s", buf[:IPV4_HEADER_LEN])
        if ver_ihl >> 4 != 4:
            raise Malformed(f"IP version {ver_ihl >> 4} is not 4")
        ihl = ver_ihl & 0x0F
        if ihl < 5 or len(buf) < ihl * 4:
            raise Malformed("bad IHL")
        if total < ihl * 4 or total > len(buf):
            raise Malformed("bad total length")
        if ipv4_checksum(buf[:ihl * 4]) != 0:
            raise Malformed("bad IPv4 header checksum")
        return cls(
            src_ip=Ipv4Address(src),
            dst_ip=Ipv4Address(dst),
            payload=buf[ihl * 4:total],
            dscp_ecn=dscp_ecn,
            identification=ident,
            flags=frag >> 13,
            fragment_offset=frag & 0x1FFF,
            ttl=ttl,
            protocol=proto,
            options=buf[IPV4_HEADER_LEN:ihl * 4],
        )


def streamlined(dgram: Ipv4Datagram) -> Ipv4Datagram:
    """The datagram a compact frame of `dgram` decodes to: identification
    0 and DF set, as IoC carries no fragments; options or fragment fields
    raise `NotPlainIpv4`."""
    if dgram.options:
        raise NotPlainIpv4("IP options cannot be carried")
    if dgram.fragment_offset or dgram.flags & IPV4_MF:
        raise NotPlainIpv4("fragmented datagrams must travel as EoC")
    if dgram.identification or dgram.flags != IPV4_DF:
        return Ipv4Datagram(dgram.src_ip, dgram.dst_ip, dgram.payload, dgram.dscp_ecn,
                            flags=IPV4_DF, ttl=dgram.ttl, protocol=dgram.protocol)
    return dgram


class _OnDemand:
    """A frame attribute computed from the frame on first read and then
    kept.  It defines only `__get__`, so a value in the instance's
    `__dict__`, where a builder or the constructor put it, shadows it."""

    def __init__(self, name: str, compute):
        self.name = name
        self.compute = compute

    def __get__(self, frame, owner=None):
        if frame is None:  # read on the class
            return self
        value = frame.__dict__[self.name] = self.compute(frame)
        return value


def _canxl_data(frame: CanXlFrame) -> bytes:
    eth, net, _ = frame.decoded
    if eth is None:  # compact header + payload
        return struct.pack(">BBBB4s", 4 << 4, net.dscp_ecn, net.ttl, net.protocol,
                           net.src_ip) + net.payload
    return eth.to_bytes()


def _ipv4_payload(frame: EthernetFrame) -> bytes:
    return frame._follows[0].to_bytes().ljust(ETH_MIN_PAYLOAD, b"\x00")


CanXlFrame.data = _OnDemand("data", _canxl_data)
EthernetFrame.payload = _OnDemand("payload", _ipv4_payload)
_new = object.__new__


def _canxl(priority: int, sdt: int, af: int, decoded: Decoded, length: int) -> CanXlFrame:
    """A VCID-0 CAN XL frame that decodes as `decoded`, whose `length`-byte
    data field is serialized from that value on demand.  It checks the
    length (`TooLarge`) and the priority, the caller every other field.
    `sec` keeps its class default, False."""
    if length > CANXL_MAX_DATA:
        raise TooLarge(f"{length} bytes exceed the {CANXL_MAX_DATA} B data field")
    fits("priority", priority, 11)
    frame = _new(CanXlFrame)
    fields = frame.__dict__
    fields["priority"] = priority
    fields["sdt"] = sdt
    fields["vcid"] = 0
    fields["af"] = af
    fields["decoded"] = decoded
    fields["length"] = length
    return frame


class ArpOp:
    REQUEST = "request"
    REPLY = "reply"
    GRATUITOUS_REPLY = "gratuitous-reply"


@dataclass(frozen=True)
class ArpMessage:
    op: str
    sha: MacAddress
    spa: Ipv4Address
    tha: MacAddress
    tpa: Ipv4Address

    def __post_init__(self):
        if self.op == ArpOp.GRATUITOUS_REPLY and self.spa != self.tpa:
            raise ValueError("gratuitous reply announces its own binding (spa == tpa)")
        if self.op == ArpOp.REPLY and self.spa == self.tpa:
            raise ValueError("a reply with spa == tpa is gratuitous")


def ipv4_checksum(header: bytes) -> int:
    """RFC 791 header checksum (ones' complement of the 16-bit sum) of an
    IHL x 4-byte header, so of whole 16-bit words."""
    total = sum(struct.unpack(f">{len(header) // 2}H", header))
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


AF_GROUP = 0x01 << 24  # the DA's I/G bit (octet 0, bit 0) in the acceptance field


def make_af_from_da(da: MacAddress) -> int:
    """Pack DA octets 0..3 big-endian into the acceptance field.

    Copying the leading four octets keeps the I/G bit (octet 0, bit 0)
    inside the AF, so group frames remain recognizable to the hardware
    filter."""
    return int.from_bytes(da[:4], "big")


def af_filter_match(af: int, own_af: int) -> bool:
    """Hardware acceptance filter of an EoC node whose AF image is
    `own_af` (`make_af_from_da` of its MAC).

    Passes frames whose AF equals that image and every group-addressed
    frame.  Octets 4..5 of the DA are not represented, so false positives
    are possible; `nodes.EocNode.on_receive` adds the software tie-break
    on the full embedded DA."""
    if af & AF_GROUP:
        return True
    return af == own_af


def eoc_encapsulate(eth: EthernetFrame, priority: int) -> CanXlFrame:
    """Embed an Ethernet frame in a CAN XL frame on VCID 0 (preamble/FCS
    excluded), serialized on demand."""
    return _canxl(priority, SDT_ETHERNET, make_af_from_da(eth.da), eth.decoded,
                  ETH_HEADER_LEN + eth.length)


def eoc_decapsulate(frame: CanXlFrame) -> EthernetFrame:
    """Extract the embedded Ethernet frame."""
    if frame.sdt != SDT_ETHERNET:
        raise WrongSdt(f"sdt 0x{frame.sdt:02x} does not carry Ethernet")
    if frame.sec:
        raise Malformed("extended LLC content not supported")
    if len(frame.data) < ETH_HEADER_LEN + ETH_MIN_PAYLOAD:
        raise Malformed(f"embedded frame too short ({len(frame.data)} bytes)")
    return EthernetFrame.from_bytes(frame.data)


def ioc_encode(dgram: Ipv4Datagram, priority: int) -> CanXlFrame:
    """Pack the compact header + payload on VCID 0; destination address
    goes to AF; the data field is serialized on demand.  Identification and
    DF are left out; options or fragment fields raise `NotPlainIpv4`, as
    `streamlined` does.  The frame decodes to that `streamlined` datagram."""
    net = streamlined(dgram)
    return _canxl(priority, SDT_IPV4, dgram.dst_ip.to_u32(),
                  _tuple_new(Decoded, (None, net, net.payload)), IOC_HEADER_LEN + len(net.payload))


def ioc_decapsulate(frame: CanXlFrame) -> Ipv4Datagram:
    """The datagram a compact frame stands for, `streamlined`; dst comes
    from AF, length from the MAC."""
    if frame.sdt != SDT_IPV4:
        raise WrongSdt(f"sdt 0x{frame.sdt:02x} does not carry streamlined IPv4")
    if frame.sec:
        raise Malformed("extended LLC content not supported")
    if len(frame.data) < IOC_HEADER_LEN:
        raise Malformed(f"compact header truncated ({len(frame.data)} bytes)")
    ver_pad, dscp_ecn, ttl, protocol, src = struct.unpack(">BBBB4s", frame.data[:8])
    if ver_pad >> 4 != 4:
        raise Malformed(f"compact header version {ver_pad >> 4} is not 4")
    return Ipv4Datagram(Ipv4Address(src), Ipv4Address.from_u32(frame.af), frame.data[8:],
                        dscp_ecn, flags=IPV4_DF, ttl=ttl, protocol=protocol)


def ioc_to_ethernet(dgram: Ipv4Datagram, da: MacAddress, sa: MacAddress) -> EthernetFrame:
    """The Ethernet/IPv4 frame that carries `dgram` as it is: a compact
    frame's datagram at a C-switch, or a node's own datagram.

    Both MAC addresses must be supplied by the caller (a C-switch takes
    them from its extended filtering database).  The payload, options
    included, is serialized on demand; a datagram above the MTU is
    serialized now, so that `EthernetFrame` raises its MTU error."""
    length = IPV4_HEADER_LEN + len(dgram.options) + len(dgram.payload)
    if length > ETH_MTU:
        return EthernetFrame(da, sa, ETHERTYPE_IPV4, dgram.to_bytes())
    frame = _new(EthernetFrame)
    fields = frame.__dict__
    fields["da"] = da
    fields["sa"] = sa
    fields["ethertype"] = ETHERTYPE_IPV4
    fields["_follows"] = (dgram, dgram.payload)
    fields["length"] = max(length, ETH_MIN_PAYLOAD)
    return frame


def ethernet_to_ioc(eth: EthernetFrame) -> Ipv4Datagram:
    """Strip the Ethernet header: the `streamlined` form of the datagram.

    The IP total length drops any Ethernet minimum-frame padding."""
    if eth.ethertype != ETHERTYPE_IPV4:
        raise NotPlainIpv4(f"ethertype 0x{eth.ethertype:04x} is not IPv4")
    try:
        dgram = Ipv4Datagram.from_bytes(eth.payload)
    except Malformed as exc:
        raise NotPlainIpv4(str(exc)) from exc
    return streamlined(dgram)


def arp_serialize(msg: ArpMessage) -> EthernetFrame:
    """Map an ARP message onto an Ethernet frame (RFC 826 layout)."""
    body = struct.pack(
        ">HHBBH6s4s6s4s",
        1,              # hardware type: Ethernet
        ETHERTYPE_IPV4,
        6, 4,
        1 if msg.op == ArpOp.REQUEST else 2,
        msg.sha, msg.spa, msg.tha, msg.tpa,
    )
    da = msg.tha if msg.op == ArpOp.REPLY else BROADCAST_MAC
    frame = EthernetFrame(da, msg.sha, ETHERTYPE_ARP, body)
    frame.__dict__["_follows"] = (msg, None)
    return frame


def arp_parse(eth: EthernetFrame) -> ArpMessage:
    if eth.ethertype != ETHERTYPE_ARP:
        raise Malformed(f"ethertype 0x{eth.ethertype:04x} is not ARP")
    # EthernetFrame pads its payload to 46 bytes, so the 28-byte body is there
    htype, ptype, hlen, plen, oper, sha, spa, tha, tpa = \
        struct.unpack(">HHBBH6s4s6s4s", eth.payload[:28])
    if (htype, ptype, hlen, plen) != (1, ETHERTYPE_IPV4, 6, 4):
        raise Malformed("not an IPv4-over-Ethernet ARP message")
    if oper == 1:
        op = ArpOp.REQUEST
    elif oper == 2:
        op = ArpOp.GRATUITOUS_REPLY if spa == tpa else ArpOp.REPLY
    else:
        raise Malformed(f"unknown ARP operation {oper}")
    return ArpMessage(op, MacAddress(sha), Ipv4Address(spa), MacAddress(tha), Ipv4Address(tpa))


BPDU_MAGIC = b"XBPD"
BPDU_LEN = 24  # magic + root id (8) + cost (4) + sender id (8)


class Bpdu(NamedTuple):
    """A spanning-tree claim; as tuples, the lowest claim is the best."""

    root_id: int
    cost: int
    sender_id: int


def bpdu_serialize(bpdu: Bpdu, sender_mac: MacAddress) -> EthernetFrame:
    """`bpdu` to the STP group MAC, in this library's reduced layout."""
    body = BPDU_MAGIC + struct.pack(">QIQ", *bpdu)
    frame = EthernetFrame(STP_GROUP_MAC, sender_mac, ETHERTYPE_BPDU, body)
    frame.__dict__["_follows"] = (bpdu, None)
    return frame


def bpdu_parse(eth: EthernetFrame) -> Bpdu:
    if eth.ethertype != ETHERTYPE_BPDU:
        raise Malformed(f"ethertype 0x{eth.ethertype:04x} is not a BPDU")
    if eth.payload[:4] != BPDU_MAGIC:
        raise Malformed("bad BPDU magic")
    return Bpdu(*struct.unpack(">QIQ", eth.payload[4:BPDU_LEN]))


class Decoded(NamedTuple):
    """A frame read once through every layer: `eth` is the Ethernet frame
    itself or the one a tunnel carries; `net` its ARP message, BPDU or
    checked IPv4 datagram, or the datagram a compact frame stands for
    (`eth` None), None if malformed or absent; `payload` the application
    payload, if any."""

    eth: EthernetFrame | None
    net: ArpMessage | Bpdu | Ipv4Datagram | None
    payload: bytes | None


_tuple_new = tuple.__new__  # a `Decoded` without the NamedTuple's Python-level `__new__`
_NOTHING = Decoded(None, None, None)


def _parse_follows(eth: EthernetFrame) -> tuple:
    """The `net` and `payload` of `decode(eth)`; only an IPv4, ARP or BPDU
    payload is parsed."""
    try:
        if eth.ethertype == ETHERTYPE_IPV4:
            dgram = Ipv4Datagram.from_bytes(eth.payload)
            return dgram, dgram.payload
        if eth.ethertype == ETHERTYPE_ARP:
            return arp_parse(eth), None
        if eth.ethertype == ETHERTYPE_BPDU:
            return bpdu_parse(eth), None
    except Malformed:
        return None, None
    return None, eth.payload if eth.ethertype == ETHERTYPE_RAW_DATA else None


def _ethernet_decoded(eth: EthernetFrame) -> Decoded:
    net, payload = eth._follows
    return _tuple_new(Decoded, (eth, net, payload))


def decode(frame) -> Decoded:
    """Decode `frame`, any CAN XL, classic CAN or Ethernet frame, from its
    bytes.  A malformed tunnel raises; an `Ipv4Datagram`, a switch's view
    of a compact frame, decodes as that frame does."""
    if isinstance(frame, CanXlFrame):
        if frame.sdt == SDT_IPV4:
            try:
                frame = ioc_decapsulate(frame)
            except Malformed:
                return _NOTHING
        elif frame.sdt == SDT_ETHERNET:
            frame = eoc_decapsulate(frame)
        else:
            return _NOTHING
    if isinstance(frame, Ipv4Datagram):
        return Decoded(None, frame, frame.payload)
    if isinstance(frame, ClassicCanFrame):
        return Decoded(None, None, frame.data)
    return Decoded(frame, *_parse_follows(frame))


# `frame.decoded`, where no builder attached it; an Ethernet frame builds
# its `Decoded` on each read from what follows its header.
EthernetFrame._follows = _OnDemand("_follows", _parse_follows)
EthernetFrame.decoded = property(_ethernet_decoded)
CanXlFrame.decoded = _OnDemand("decoded", decode)
ClassicCanFrame.decoded = _OnDemand("decoded", lambda frame: Decoded(None, None, frame.data))
