import dataclasses
import pickle
import struct

import pytest
from hypothesis import example, given, strategies as st

from canxlnet import frames
from canxlnet.frames import (
    ArpMessage,
    ArpOp,
    BROADCAST_MAC,
    Bpdu,
    CanXlFrame,
    EthernetFrame,
    Ipv4Address,
    Ipv4Datagram,
    MacAddress,
    ZERO_MAC,
    af_filter_match,
    arp_parse,
    arp_serialize,
    bpdu_parse,
    bpdu_serialize,
    eoc_decapsulate,
    eoc_encapsulate,
    ethernet_to_ioc,
    ioc_decapsulate,
    ioc_encode,
    ioc_to_ethernet,
    ipv4_checksum,
    make_af_from_da,
)
from canxlnet.nodes import EocNode, IocNode
from conftest import compact_dgram


def reference_checksum(header: bytes) -> int:
    # Independent ones'-complement reference: byte-pair loop with end-around
    # carry after every addition.
    total = 0
    padded = header + b"\x00" if len(header) % 2 else header
    for i in range(0, len(padded), 2):
        total += (padded[i] << 8) | padded[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


macs = st.binary(min_size=6, max_size=6).map(MacAddress)
unicast_macs = macs.map(lambda m: MacAddress(bytes([m[0] & 0xFE]) + m[1:]))
ips = st.binary(min_size=4, max_size=4).map(Ipv4Address)

M1 = MacAddress.parse("aa:bb:cc:dd:ee:0f")
M2 = MacAddress.parse("02:00:00:00:00:01")
IP1 = Ipv4Address.parse("10.0.0.1")
IP2 = Ipv4Address.parse("10.0.0.2")


@given(st.binary(min_size=6, max_size=6), st.binary(min_size=4, max_size=4))
def test_an_address_is_its_octets(mac_octets, ip_octets):
    for cls, octets in ((MacAddress, mac_octets), (Ipv4Address, ip_octets)):
        address = cls(octets)
        assert address == octets and hash(address) == hash(octets)
        assert cls.parse(str(address)) == address
        with pytest.raises(AttributeError):
            address.name = "n1"
    # not even a MAC that starts with the IPv4 address's octets
    ip_address = Ipv4Address(ip_octets)
    assert MacAddress(mac_octets) != ip_address != MacAddress(ip_octets + mac_octets[4:])


class TestAcceptanceField:
    def test_copies_leading_octets(self):
        assert make_af_from_da(M1) == 0xAABBCCDD

    def test_zero(self):
        assert make_af_from_da(ZERO_MAC) == 0x00000000

    def test_group_bit_lands_in_bit_24(self):
        af = make_af_from_da(MacAddress.parse("01:00:5e:00:00:01"))
        assert af == 0x01005E00
        assert af & (1 << 24)

    def test_exact_match_passes(self):
        assert af_filter_match(make_af_from_da(M1), make_af_from_da(M1))

    def test_group_always_passes(self):
        assert af_filter_match(make_af_from_da(BROADCAST_MAC), make_af_from_da(M2))
        assert af_filter_match(0x01000000, make_af_from_da(M2))

    def test_false_positive_by_construction(self):
        victim = MacAddress.parse("aa:bb:cc:dd:00:00")
        assert victim != M1
        assert af_filter_match(make_af_from_da(M1), make_af_from_da(victim))

    def test_false_positives_exist_by_search(self):
        # Brute force: every address sharing the leading four octets clashes.
        base = MacAddress.parse("aa:bb:cc:dd:00:00")
        clashes = 0
        for last in range(8):
            other = MacAddress(base[:5] + bytes([last]))
            if other != base and af_filter_match(make_af_from_da(base), make_af_from_da(other)):
                clashes += 1
        assert clashes == 7

    @given(macs)
    def test_no_false_negatives(self, mac):
        assert af_filter_match(make_af_from_da(mac), make_af_from_da(mac))


class TestEoc:
    def test_minimal_frame(self):
        eth = EthernetFrame(M1, M2, 0x0800, bytes(46))
        frame = eoc_encapsulate(eth, 0x100)
        assert frame.sdt == frames.SDT_ETHERNET
        assert frame.af == 0xAABBCCDD
        assert len(frame.data) == 60
        assert frame.sec is False

    def test_64_byte_datagram(self):
        eth = EthernetFrame(M1, M2, 0x0800, bytes(64))
        assert len(eoc_encapsulate(eth, 0).data) == 78

    def test_broadcast_af(self):
        eth = EthernetFrame(BROADCAST_MAC, M2, 0x0806, bytes(46))
        frame = eoc_encapsulate(eth, 0)
        assert frame.af == 0xFFFFFFFF
        assert frame.af & (1 << 24)

    def test_round_trip(self):
        eth = EthernetFrame(M1, M2, 0x0800, bytes(range(46)))
        assert eoc_decapsulate(eoc_encapsulate(eth, 5)) == eth

    def test_wrong_sdt(self):
        frame = CanXlFrame(1, frames.SDT_IPV4, 0, 0, bytes(60))
        with pytest.raises(frames.WrongSdt):
            eoc_decapsulate(frame)

    def test_short_data(self):
        frame = CanXlFrame(1, frames.SDT_ETHERNET, 0, 0, bytes(10))
        with pytest.raises(frames.Malformed):
            eoc_decapsulate(frame)

    @given(unicast_macs, unicast_macs, st.integers(0, 0xFFFF),
           st.binary(max_size=1500), st.integers(0, 2047))
    def test_round_trip_property(self, da, sa, ethertype, payload, prio):
        eth = EthernetFrame(da, sa, ethertype, payload)
        frame = eoc_encapsulate(eth, prio)
        assert eoc_decapsulate(frame) == eth
        assert frame.af == make_af_from_da(eth.da)
        assert 1 <= len(frame.data) <= 2048


class Deliveries:
    """The simulation side of a receiving node: records app deliveries and
    drops."""

    def __init__(self):
        self.payloads, self.drops = [], []

    def on_app_delivery(self, node, payload):
        self.payloads.append(payload)

    def drop(self, frame, reason, location, rx):
        self.drops.append((frame, reason, location, rx))


class TestEocAccept:
    """The two-stage receive filter of `EocNode.on_receive`: the hardware
    stage matches the acceptance field, the software stage the embedded
    DA."""

    def receive(self, da):
        node = EocNode("n1", M1)
        frame = eoc_encapsulate(EthernetFrame(da, M2, frames.ETHERTYPE_RAW_DATA, bytes(46)), 0)
        sim = Deliveries()
        node.on_receive(sim, frame, frames.decode(frame))
        return node.counters["af_false_positive"], sim.payloads

    def test_own_frame(self):
        assert self.receive(M1) == (0, [bytes(46)])

    def test_af_tie_broken_in_software(self):
        near_miss = MacAddress.parse("aa:bb:cc:dd:ee:00")
        frame = eoc_encapsulate(EthernetFrame(near_miss, M2, 0x0800, bytes(46)), 0)
        assert af_filter_match(frame.af, make_af_from_da(M1))  # hardware stage clashes
        assert self.receive(near_miss) == (1, [])  # software stage rejects

    def test_broadcast(self):
        assert self.receive(BROADCAST_MAC) == (0, [bytes(46)])

    def test_hardware_stage_mismatch(self):
        # rejected before the embedded DA is read
        assert self.receive(M2) == (0, [])


class TestCompactAccept:
    """`EocNode.on_receive` takes a compact frame whose header checks out
    and whose AF is the node's IPv4 address; a tunnel node takes none."""

    def receive(self, cls, frame):
        node = cls("n1", M1, IP1)
        sim = Deliveries()
        node.on_receive(sim, frame, frames.decode(frame))
        return sim.payloads

    def test_own_address(self):
        assert self.receive(IocNode, ioc_encode(compact_dgram(IP2, IP1, b"data"), 0)) == [b"data"]

    def test_other_address(self):
        assert self.receive(IocNode, ioc_encode(compact_dgram(IP1, IP2, b"data"), 0)) == []

    def test_tunnel_node_takes_none(self):
        assert self.receive(EocNode, ioc_encode(compact_dgram(IP2, IP1, b"data"), 0)) == []

    def test_bad_header(self):
        frame = CanXlFrame(0, frames.SDT_IPV4, 0, IP1.to_u32(), b"\x60" + bytes(11))
        assert self.receive(IocNode, frame) == []


def make_dgram(payload: bytes, src=IP1, dst=IP2, **kw) -> Ipv4Datagram:
    return Ipv4Datagram(src, dst, payload, **kw)


class TestIoc:
    def test_64_byte_datagram(self):
        frame = ioc_encode(make_dgram(bytes(44)), 0x100)
        assert len(frame.data) == 52
        assert frame.af == IP2.to_u32()
        assert frame.sdt == frames.SDT_IPV4

    def test_af_is_destination(self):
        dgram = make_dgram(bytes(44), dst=Ipv4Address.parse("10.0.0.2"))
        frame = ioc_encode(dgram, 0)
        assert frame.af == 0x0A000002

    def test_fragment_rejected(self):
        with pytest.raises(frames.NotPlainIpv4, match="fragmented datagrams must travel as EoC"):
            frames.streamlined(make_dgram(bytes(44), fragment_offset=7))
        with pytest.raises(frames.NotPlainIpv4, match="fragmented datagrams must travel as EoC"):
            frames.streamlined(make_dgram(bytes(44), flags=frames.IPV4_MF))

    def test_options_rejected(self):
        with pytest.raises(frames.NotPlainIpv4, match="IP options cannot be carried"):
            frames.streamlined(make_dgram(bytes(44), options=bytes(4)))

    @pytest.mark.parametrize("fields, message", [
        ({"options": bytes(4)}, "IP options cannot be carried"),
        ({"flags": frames.IPV4_MF}, "fragmented datagrams must travel as EoC"),
        ({"fragment_offset": 3}, "fragmented datagrams must travel as EoC"),
        ({"options": bytes(4), "flags": frames.IPV4_MF, "fragment_offset": 3},
         "IP options cannot be carried"),
    ], ids=["options", "more_fragments", "fragment_offset", "all"])
    def test_encode_loses_no_field(self, fields, message):
        # Options and fragment fields have no place in the compact header.
        with pytest.raises(frames.NotPlainIpv4, match=message):
            ioc_encode(make_dgram(bytes(44), **fields), 0x100)

    def test_identification_and_df_are_omitted(self):
        # The compact header has no place for them either, but losing
        # them loses nothing: the frame decodes as if they were 0 and DF.
        for fields in ({"identification": 77}, {"flags": 0}, {"flags": frames.IPV4_DF}):
            frame = ioc_encode(make_dgram(bytes(44), **fields), 0)
            assert ioc_decapsulate(frame) == compact_dgram(IP1, IP2, bytes(44))

    def test_too_large(self):
        with pytest.raises(frames.TooLarge):
            ioc_encode(make_dgram(bytes(2041)), 0)

    def test_round_trip_and_total_length(self):
        dgram = make_dgram(bytes(44), identification=9)
        back = ioc_decapsulate(ioc_encode(dgram, 9))
        assert back == frames.streamlined(dgram) == compact_dgram(IP1, IP2, bytes(44))
        assert back.total_length == 64

    def test_wrong_sdt(self):
        frame = CanXlFrame(1, frames.SDT_ETHERNET, 0, 0, bytes(60))
        with pytest.raises(frames.WrongSdt):
            ioc_decapsulate(frame)

    def test_empty_payload_boundary(self):
        frame = ioc_encode(compact_dgram(IP1, IP2, b""), 0)
        assert len(frame.data) == 8
        assert ioc_decapsulate(frame).payload == b""

    def test_eoc_minus_ioc_is_26(self):
        dgram = make_dgram(bytes(44))
        eoc = eoc_encapsulate(EthernetFrame(M1, M2, 0x0800, dgram.to_bytes()), 0)
        ioc = ioc_encode(dgram, 0)
        assert len(eoc.data) - len(ioc.data) == 26

    @given(ips, ips, st.binary(min_size=26, max_size=1480),
           st.integers(0, 255), st.integers(1, 255), st.integers(0, 255))
    def test_size_delta_property(self, src, dst, payload, dscp, ttl, proto):
        # Below 26 B of payload the Ethernet minimum-frame padding inflates
        # the tunneled form and the fixed 26-byte delta no longer applies.
        dgram = Ipv4Datagram(src, dst, payload, dscp_ecn=dscp, ttl=ttl, protocol=proto)
        eoc = eoc_encapsulate(EthernetFrame(M1, M2, 0x0800, dgram.to_bytes()), 0)
        ioc = ioc_encode(dgram, 0)
        assert len(eoc.data) - len(ioc.data) == 26

    @given(ips, ips, st.binary(max_size=2040), st.integers(0, 255),
           st.integers(1, 255), st.integers(0, 255))
    def test_round_trip_property(self, src, dst, payload, dscp, ttl, proto):
        dgram = compact_dgram(src, dst, payload, dscp_ecn=dscp, ttl=ttl, protocol=proto)
        assert ioc_decapsulate(ioc_encode(dgram, 11)) == dgram


class TestIpv4Rebuild:
    def test_checksum_against_reference(self):
        dgram = compact_dgram(IP1, IP2, bytes(44))
        eth = ioc_to_ethernet(dgram, M1, M2)
        header = eth.payload[:20]
        assert reference_checksum(header) == 0  # checksum over full header sums to zero
        assert ipv4_checksum(header) == 0
        # and the stored value equals the reference computed over the rest
        zeroed = header[:10] + b"\x00\x00" + header[12:]
        stored = int.from_bytes(header[10:12], "big")
        assert stored == reference_checksum(zeroed)

    def test_rebuilt_header_fields(self):
        eth = ioc_to_ethernet(compact_dgram(IP1, IP2, bytes(44)), M1, M2)
        assert eth.ethertype == 0x0800
        assert len(eth.payload) == 64
        dgram = Ipv4Datagram.from_bytes(eth.payload)
        assert dgram.identification == 0
        assert dgram.flags == frames.IPV4_DF
        assert dgram.fragment_offset == 0
        assert dgram.total_length == 64

    def test_small_payload_padding(self):
        eth = ioc_to_ethernet(compact_dgram(IP1, IP2, bytes(10)), M1, M2)
        assert len(eth.payload) == 46  # padded to the Ethernet minimum
        dgram = Ipv4Datagram.from_bytes(eth.payload)
        assert dgram.total_length == 30
        assert len(dgram.payload) == 10  # total length drops the padding

    def test_round_trip(self):
        d = compact_dgram(IP1, IP2, bytes(range(44)), dscp_ecn=7, ttl=12, protocol=17)
        assert ethernet_to_ioc(ioc_to_ethernet(d, M1, M2)) == d

    def test_arp_is_not_plain_ipv4(self):
        eth = arp_serialize(ArpMessage(ArpOp.REQUEST, M2, IP1, ZERO_MAC, IP2))
        with pytest.raises(frames.NotPlainIpv4):
            ethernet_to_ioc(eth)

    def test_fragmented_falls_back(self):
        dgram = make_dgram(bytes(44), fragment_offset=2)
        eth = EthernetFrame(M1, M2, 0x0800, dgram.to_bytes())
        with pytest.raises(frames.NotPlainIpv4):
            ethernet_to_ioc(eth)

    @given(ips, ips, st.binary(max_size=1400), st.integers(0, 255),
           st.integers(1, 255), st.integers(0, 255), unicast_macs, unicast_macs)
    def test_round_trip_property(self, src, dst, payload, dscp, ttl, proto, da, sa):
        d = compact_dgram(src, dst, payload, dscp_ecn=dscp, ttl=ttl, protocol=proto)
        assert ethernet_to_ioc(ioc_to_ethernet(d, da, sa)) == d
        # A compact frame and the tunnel frame a switch rebuilds from it
        # decode to this one datagram.
        assert frames.decode(ioc_encode(d, 11)).net == d
        assert frames.decode(eoc_encapsulate(ioc_to_ethernet(d, da, sa), 11)).net == d


class TestArp:
    def test_request_is_broadcast(self):
        eth = arp_serialize(ArpMessage(ArpOp.REQUEST, M2, IP1, ZERO_MAC, IP2))
        assert eth.da == BROADCAST_MAC
        assert eth.ethertype == 0x0806

    def test_reply_is_unicast(self):
        eth = arp_serialize(ArpMessage(ArpOp.REPLY, M1, IP2, M2, IP1))
        assert eth.da == M2

    def test_gratuitous(self):
        msg = ArpMessage(ArpOp.GRATUITOUS_REPLY, M1, IP1, ZERO_MAC, IP1)
        eth = arp_serialize(msg)
        assert eth.da == BROADCAST_MAC
        parsed = arp_parse(eth)
        assert parsed.op == ArpOp.GRATUITOUS_REPLY
        assert parsed.spa == parsed.tpa

    def test_gratuitous_requires_matching_addresses(self):
        with pytest.raises(ValueError):
            ArpMessage(ArpOp.GRATUITOUS_REPLY, M1, IP1, ZERO_MAC, IP2)

    def test_round_trip_all_kinds(self):
        for msg in (
            ArpMessage(ArpOp.REQUEST, M2, IP1, ZERO_MAC, IP2),
            ArpMessage(ArpOp.REPLY, M1, IP2, M2, IP1),
            ArpMessage(ArpOp.GRATUITOUS_REPLY, M1, IP1, ZERO_MAC, IP1),
        ):
            assert arp_parse(arp_serialize(msg)) == msg

    def test_malformed(self):
        eth = EthernetFrame(BROADCAST_MAC, M2, 0x0806, b"\x00\x07" + bytes(44))
        with pytest.raises(frames.Malformed):
            arp_parse(eth)

    @given(unicast_macs, ips, unicast_macs, ips)
    def test_round_trip_property(self, sha, spa, tha, tpa):
        for msg in (
            ArpMessage(ArpOp.REQUEST, sha, spa, ZERO_MAC, tpa),
            ArpMessage(ArpOp.GRATUITOUS_REPLY, sha, spa, tha, spa),
        ):
            assert arp_parse(arp_serialize(msg)) == msg
        if spa != tpa:
            msg = ArpMessage(ArpOp.REPLY, sha, spa, tha, tpa)
            assert arp_parse(arp_serialize(msg)) == msg


_REQUEST = ArpMessage(ArpOp.REQUEST, M2, IP1, ZERO_MAC, IP2)
_DGRAM = compact_dgram(IP1, IP2, b"tagged payload")
_IPV4 = Ipv4Datagram(IP1, IP2, b"tagged payload")
_RAW = EthernetFrame(M1, M2, frames.ETHERTYPE_RAW_DATA, bytes(46))
_HELLO = Bpdu(1, 0, 2**64 - 1)


@pytest.mark.parametrize("frame, expected", [
    (eoc_encapsulate(arp_serialize(_REQUEST), 0), (arp_serialize(_REQUEST), _REQUEST, None)),
    (EthernetFrame(M1, M2, 0x0800, _IPV4.to_bytes()),
     (EthernetFrame(M1, M2, 0x0800, _IPV4.to_bytes()), _IPV4, b"tagged payload")),
    (_RAW, (_RAW, None, bytes(46))),
    (EthernetFrame(M1, M2, frames.ETHERTYPE_BPDU, bytes(46)),  # no BPDU magic
     (EthernetFrame(M1, M2, frames.ETHERTYPE_BPDU, bytes(46)), None, None)),
    (eoc_encapsulate(bpdu_serialize(_HELLO, M2), 0), (bpdu_serialize(_HELLO, M2), _HELLO, None)),
    (ioc_encode(_DGRAM, 0), (None, _DGRAM, b"tagged payload")),
    (_DGRAM, (None, _DGRAM, b"tagged payload")),
    (frames.ClassicCanFrame(0x123, b"12345678"), (None, None, b"12345678")),
    (CanXlFrame(0, frames.SDT_CAN_FD, 0, 0, bytes(8)), (None, None, None)),
], ids=["tunneled_arp", "ipv4", "raw", "bpdu", "tunneled_bpdu", "compact", "ioc_view", "classic",
        "can_fd"])
def test_decode_reads_every_layer(frame, expected):
    assert frames.decode(frame) == expected


@pytest.mark.parametrize("frame", [
    EthernetFrame(BROADCAST_MAC, M2, frames.ETHERTYPE_ARP, b"\x00\x07" + bytes(44)),
    EthernetFrame(M1, M2, frames.ETHERTYPE_IPV4, bytes(46)),
    CanXlFrame(0, frames.SDT_IPV4, 0, IP2.to_u32(), bytes(4)),
    CanXlFrame(0, frames.SDT_IPV4, 0, IP2.to_u32(), b"\x60" + bytes(7)),  # version 6
], ids=["arp", "ipv4", "compact", "compact_version"])
def test_decode_gives_no_network_layer_for_a_malformed_header(frame):
    rx = frames.decode(frame)
    assert rx.net is None and rx.payload is None
    assert rx.eth == (frame if isinstance(frame, EthernetFrame) else None)


@given(unicast_macs, ips, macs, ips)
def test_decode_reads_a_request_with_any_target_mac(sha, spa, tha, tpa):
    # RFC 826 leaves a request's target hardware address to the sender.
    msg = ArpMessage(ArpOp.REQUEST, sha, spa, tha, tpa)
    eth = arp_serialize(msg)
    assert frames.decode(eth).net == msg
    assert frames.decode(eoc_encapsulate(eth, 0)).net == msg


class TestWireTypes:
    def test_mac_group_bit(self):
        assert BROADCAST_MAC.is_group()
        assert not M2.is_group()
        assert MacAddress.parse("01:80:c2:00:00:00").is_group()

    def test_priority_range(self):
        with pytest.raises(ValueError):
            CanXlFrame(2048, frames.SDT_ETHERNET, 0, 0, b"\x00")

    def test_data_bounds(self):
        with pytest.raises(ValueError):
            CanXlFrame(0, frames.SDT_ETHERNET, 0, 0, b"")
        with pytest.raises(ValueError):
            CanXlFrame(0, frames.SDT_ETHERNET, 0, 0, bytes(2049))

    def test_canxl_byte_round_trip(self):
        frame = CanXlFrame(0x123, frames.SDT_IPV4, 9, 0xDEADBEEF, bytes(16))
        assert CanXlFrame.from_bytes(frame.to_bytes()) == frame

    def test_sdt_values_distinct(self):
        values = list(frames.SDT_NAMES)
        assert len(values) == len(set(values))
        assert all(0 <= v <= 0xFF for v in values)

    def test_ethernet_payload_is_padded_to_minimum(self):
        eth = EthernetFrame(M1, M2, 0x88B6, bytes(10))
        assert len(eth.payload) == 46

    def test_classic_bounds(self):
        with pytest.raises(ValueError):
            frames.ClassicCanFrame(0x800, b"")
        with pytest.raises(ValueError):
            frames.ClassicCanFrame(0x100, bytes(9))

    @given(st.binary(max_size=60))
    def test_ipv4_serialize_parse(self, payload):
        dgram = make_dgram(payload)
        assert Ipv4Datagram.from_bytes(dgram.to_bytes()) == dgram

    def test_ipv4_bad_checksum_rejected(self):
        raw = bytearray(make_dgram(bytes(26)).to_bytes())
        raw[10] ^= 0xFF
        with pytest.raises(frames.Malformed):
            Ipv4Datagram.from_bytes(bytes(raw))


def ipv4_header(ihl: int = 5, total: int = 28) -> bytes:
    """A 28-byte datagram whose IHL and total length fields are set as given."""
    raw = bytearray(make_dgram(bytes(8)).to_bytes())
    raw[0] = 0x40 | ihl
    raw[2:4] = total.to_bytes(2, "big")
    return bytes(raw)


ARP_BODY = arp_serialize(_REQUEST).payload

# (id, the call, the exception type it raises, its message)
FRAME_ERRORS = [
    ("mac_length", lambda: MacAddress(bytes(5)), ValueError,
     "MAC address needs exactly 6 octets"),
    ("ipv4_address_length", lambda: Ipv4Address(bytes(3)), ValueError,
     "IPv4 address needs exactly 4 octets"),
    # an address is built from its octets, never from a number or text
    ("mac_from_an_int", lambda: MacAddress(6), TypeError, "object of type 'int' has no len()"),
    ("mac_from_text", lambda: MacAddress("abcdef"), TypeError,
     "string argument without an encoding"),
    ("ipv4_address_from_text", lambda: Ipv4Address("10.0"), TypeError,
     "string argument without an encoding"),
    ("ethernet_payload_above_mtu", lambda: EthernetFrame(M1, M2, 0x88B6, bytes(1501)),
     ValueError, "payload 1501 exceeds MTU 1500"),
    ("ipv4_options_not_words", lambda: make_dgram(bytes(8), options=bytes(3)), ValueError,
     "options must be a whole number of 32-bit words"),
    # IHL is a 4-bit count of words: 16 would overflow into the version
    ("ipv4_options_above_40_bytes", lambda: make_dgram(bytes(8), options=bytes(44)), ValueError,
     "options of 44 bytes exceed the 40 an IHL of 15 holds"),
    ("ipv4_ttl_range", lambda: make_dgram(bytes(8), ttl=256), ValueError,
     "DSCP/ECN, TTL and protocol must fit in 8 bits, identification in 16"),
    ("ipv4_identification_range", lambda: make_dgram(bytes(8), identification=1 << 16),
     ValueError, "DSCP/ECN, TTL and protocol must fit in 8 bits, identification in 16"),
    ("ipv4_total_length_range", lambda: make_dgram(bytes(65516)), ValueError,
     "total length 65536 exceeds 65535"),
    ("ipv4_flags_range", lambda: make_dgram(bytes(8), flags=8), ValueError,
     "flags/fragment offset out of range"),
    ("ipv4_fragment_offset_range", lambda: make_dgram(bytes(8), fragment_offset=1 << 13),
     ValueError, "flags/fragment offset out of range"),
    # a frame field is an int that fits it, so a frame that builds has bytes
    ("canxl_priority_float", lambda: CanXlFrame(1.5, frames.SDT_ETHERNET, 0, 0, bytes(60)),
     TypeError, "unsupported operand type(s) for >>: 'float' and 'int'"),
    ("canxl_priority_negative", lambda: CanXlFrame(-1, frames.SDT_ETHERNET, 0, 0, bytes(60)),
     ValueError, "priority must fit in 11 bits"),
    ("canxl_priority_2048", lambda: CanXlFrame(2048, frames.SDT_ETHERNET, 0, 0, bytes(60)),
     ValueError, "priority must fit in 11 bits"),
    ("classic_identifier_float", lambda: frames.ClassicCanFrame(1.5, bytes(8)), TypeError,
     "unsupported operand type(s) for >>: 'float' and 'int'"),
    ("classic_identifier_negative", lambda: frames.ClassicCanFrame(-1, bytes(8)), ValueError,
     "identifier must fit in 11 bits"),
    ("eoc_priority_float", lambda: eoc_encapsulate(_RAW, 2.5), TypeError,
     "unsupported operand type(s) for >>: 'float' and 'int'"),
    ("ioc_priority_float", lambda: ioc_encode(_DGRAM, 2.5), TypeError,
     "unsupported operand type(s) for >>: 'float' and 'int'"),
    ("ipv4_ihl_below_5", lambda: Ipv4Datagram.from_bytes(ipv4_header(ihl=4)),
     frames.Malformed, "bad IHL"),
    ("ipv4_ihl_past_the_buffer", lambda: Ipv4Datagram.from_bytes(ipv4_header(ihl=6)[:20]),
     frames.Malformed, "bad IHL"),
    ("ipv4_total_below_the_header", lambda: Ipv4Datagram.from_bytes(ipv4_header(total=19)),
     frames.Malformed, "bad total length"),
    ("ipv4_total_past_the_buffer", lambda: Ipv4Datagram.from_bytes(ipv4_header(total=29)),
     frames.Malformed, "bad total length"),
    ("arp_reply_to_itself", lambda: ArpMessage(ArpOp.REPLY, M1, IP1, M2, IP1), ValueError,
     "a reply with spa == tpa is gratuitous"),
    ("eoc_sec", lambda: eoc_decapsulate(
        CanXlFrame(0, frames.SDT_ETHERNET, 0, 0, _RAW.to_bytes(), sec=True)),
     frames.Malformed, "extended LLC content not supported"),
    ("ioc_sec", lambda: ioc_decapsulate(
        CanXlFrame(0, frames.SDT_IPV4, 0, 0, ioc_encode(_DGRAM, 0).data, sec=True)),
     frames.Malformed, "extended LLC content not supported"),
    ("arp_wrong_ethertype", lambda: arp_parse(EthernetFrame(BROADCAST_MAC, M2, 0x0800, ARP_BODY)),
     frames.Malformed, "ethertype 0x0800 is not ARP"),
    # EthernetFrame pads every payload to 46 bytes, so no ARP body is
    # shorter than the 28 it holds: an empty one reads as zeros
    ("arp_empty_body", lambda: arp_parse(EthernetFrame(BROADCAST_MAC, M2, 0x0806, b"")),
     frames.Malformed, "not an IPv4-over-Ethernet ARP message"),
    ("arp_unknown_operation", lambda: arp_parse(EthernetFrame(
        BROADCAST_MAC, M2, 0x0806, ARP_BODY[:7] + b"\x03" + ARP_BODY[8:])),
     frames.Malformed, "unknown ARP operation 3"),
    ("bpdu_wrong_ethertype", lambda: bpdu_parse(EthernetFrame(
        frames.STP_GROUP_MAC, M2, 0x88B6, bpdu_serialize(_HELLO, M2).payload)),
     frames.Malformed, "ethertype 0x88b6 is not a BPDU"),
    ("bpdu_magic", lambda: bpdu_parse(EthernetFrame(
        frames.STP_GROUP_MAC, M2, frames.ETHERTYPE_BPDU, b"JUNK" + bytes(20))),
     frames.Malformed, "bad BPDU magic"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in FRAME_ERRORS],
                         ids=[case[0] for case in FRAME_ERRORS])
def test_frame_error_names_its_cause(call, error, message):
    with pytest.raises(Exception) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)


# -- wire bytes on demand ------------------------------------------------------------

def eager_eoc(eth: EthernetFrame, priority: int) -> CanXlFrame:
    """`eoc_encapsulate` serializing at once, as the reference."""
    return CanXlFrame(priority, frames.SDT_ETHERNET, 0, make_af_from_da(eth.da), eth.to_bytes())


def eager_ioc(dgram: Ipv4Datagram, priority: int) -> CanXlFrame:
    """`ioc_encode` serializing at once, as the reference."""
    frames.streamlined(dgram)
    data = struct.pack(">BBBB4s", 4 << 4, dgram.dscp_ecn, dgram.ttl, dgram.protocol,
                       dgram.src_ip) + dgram.payload
    if len(data) > frames.CANXL_MAX_DATA:
        raise frames.TooLarge(f"{len(data)} bytes exceed the {frames.CANXL_MAX_DATA} B data field")
    return CanXlFrame(priority, frames.SDT_IPV4, 0, dgram.dst_ip.to_u32(), data)


def eager_ipv4_ethernet(dgram: Ipv4Datagram, da: MacAddress, sa: MacAddress) -> EthernetFrame:
    """`ioc_to_ethernet` serializing at once, as the reference."""
    return EthernetFrame(da, sa, frames.ETHERTYPE_IPV4, dgram.to_bytes())


def assert_on_demand(build, eager):
    """`build()` makes a new on-demand frame each call.  Before its bytes
    are read, it has its `length`, and it equals, hashes as and prints as
    the frame built from its bytes, which is `eager`; it survives
    `dataclasses.replace` and pickling."""
    field = "data" if isinstance(eager, CanXlFrame) else "payload"
    fresh = build()
    assert field not in vars(fresh)  # on demand indeed
    assert fresh.length == len(getattr(eager, field)) == len(getattr(fresh, field))
    parsed = type(eager).from_bytes(build().to_bytes())
    assert parsed == eager
    assert build() == parsed and parsed == build()
    assert hash(build()) == hash(parsed)
    assert repr(build()) == repr(parsed)
    assert dataclasses.replace(build()) == parsed
    assert pickle.loads(pickle.dumps(build())) == parsed


tunneled = st.one_of(
    st.builds(arp_serialize, st.builds(ArpMessage, st.just(ArpOp.REQUEST), macs, ips,
                                       st.just(ZERO_MAC), ips)),
    st.builds(bpdu_serialize, st.builds(Bpdu, st.integers(0, 2**64 - 1),
                                        st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1)),
              macs),
    st.builds(EthernetFrame, macs, macs, st.just(frames.ETHERTYPE_RAW_DATA),
              st.binary(max_size=frames.ETH_MTU)))
octets = st.integers(0, 255)


# 20 + 26 = 46: IPv4 payloads of 25, 26 and 27 bytes straddle the pad boundary
@example(d=compact_dgram(IP1, IP2, b""), priority=0, eth=_RAW, options=b"")
@example(d=compact_dgram(IP1, IP2, bytes(25)), priority=0, eth=_RAW, options=b"")
@example(d=compact_dgram(IP1, IP2, bytes(26)), priority=0, eth=_RAW, options=b"")
@example(d=compact_dgram(IP1, IP2, bytes(27)), priority=0, eth=_RAW, options=b"")
@example(d=compact_dgram(IP1, IP2, bytes(1480)), priority=2047, eth=_RAW, options=bytes(40))
@given(d=st.builds(compact_dgram, ips, ips, st.binary(max_size=1480), dscp_ecn=octets,
                   ttl=octets, protocol=octets),
       priority=st.integers(0, 2047), eth=tunneled,
       options=st.integers(0, 10).map(lambda words: bytes(range(4 * words))))
def test_an_on_demand_frame_is_the_frame_of_its_bytes(d, priority, eth, options):
    da, sa = eth.da, eth.sa
    assert_on_demand(lambda: ioc_encode(d, priority), eager_ioc(d, priority))
    assert_on_demand(lambda: ioc_to_ethernet(d, da, sa), eager_ipv4_ethernet(d, da, sa))
    # options travel only in the Ethernet form; the payload is cut to the MTU
    o = dataclasses.replace(d, payload=d.payload[:1480 - len(options)], options=options)
    assert_on_demand(lambda: ioc_to_ethernet(o, da, sa), eager_ipv4_ethernet(o, da, sa))
    assert_on_demand(lambda: eoc_encapsulate(ioc_to_ethernet(d, da, sa), priority),
                     eager_eoc(eager_ipv4_ethernet(d, da, sa), priority))
    assert_on_demand(lambda: eoc_encapsulate(eth, priority), eager_eoc(eth, priority))  # ARP, BPDU


def outcome(call, *args, **kwargs):
    """What `call(*args, **kwargs)` returns, or the type and message of what
    it raises."""
    try:
        return call(*args, **kwargs)
    except Exception as exc:  # every error counts, the eager codec's own included
        return type(exc), str(exc)


IPV4_FIELD_BITS = {"dscp_ecn": 8, "ttl": 8, "protocol": 8, "identification": 16, "flags": 3,
                   "fragment_offset": 13}


def header_fits(payload: bytes, fields: dict) -> bool:
    """RFC 791 as the reference: each field an int of its width, options in
    whole 32-bit words up to IHL 15, and a total length of 16 bits."""
    options = fields.get("options", b"")
    return (all(type(value) is int and 0 <= value < 1 << IPV4_FIELD_BITS[name]
                for name, value in fields.items() if name != "options")
            and len(options) % 4 == 0 and len(options) <= 40
            and frames.IPV4_HEADER_LEN + len(options) + len(payload) <= 0xFFFF)


def refused(built) -> bool:
    """Whether `outcome` of a constructor is a ValueError or TypeError."""
    return isinstance(built, tuple) and built[0] in (ValueError, TypeError)


@example(fields={"options": bytes(44)}, total=64)  # IHL 16 would overflow into the version
@example(fields={"ttl": 256}, total=64)  # struct.error, and only when serialized
@example(fields={"options": bytes(40)}, total=0xFFFF)
@example(fields={}, total=0xFFFF + 1)
@given(fields=st.fixed_dictionaries({}, optional={
           **{name: st.sampled_from([0, (1 << bits) - 1, -1, 1 << bits, 1.0])
              for name, bits in IPV4_FIELD_BITS.items()},
           "options": st.binary(max_size=44)}),
       total=st.one_of(st.integers(20, 100), st.integers(0xFFFF - 2, 0xFFFF + 2)))
def test_a_datagram_builds_exactly_when_its_header_fits(fields, total):
    payload = bytes(max(0, total - frames.IPV4_HEADER_LEN - len(fields.get("options", b""))))
    built = outcome(make_dgram, payload, **fields)
    if header_fits(payload, fields):
        assert Ipv4Datagram.from_bytes(built.to_bytes()) == built
    else:
        assert refused(built), built


FIELD_VALUES = [0, 255, 256, -1, 1.5]  # an octet's range, just past it, and no int


@example(payload=bytes(26), priority=2048, fields={})
@example(payload=bytes(2041), priority=0, fields={})  # TooLarge, and above the MTU
@example(payload=bytes(1481), priority=0, fields={})  # above the MTU only
@example(payload=bytes(65516), priority=0, fields={})  # total length past 16 bits
@example(payload=bytes(8), priority=0, fields={"options": bytes(4)})  # NotPlainIpv4
@example(payload=bytes(1440), priority=0, fields={"options": bytes(range(40))})  # at the MTU
@example(payload=bytes(1441), priority=0, fields={"options": bytes(range(40))})  # past it
@example(payload=bytes(8), priority=0, fields={"options": bytes(44)})
@example(payload=bytes(8), priority=0, fields={"flags": frames.IPV4_MF})
@example(payload=bytes(8), priority=0, fields={"ttl": 256})
@example(payload=bytes(8), priority=0, fields={"dscp_ecn": -1})
@example(payload=bytes(8), priority=0, fields={"protocol": 1.5})
@example(payload=bytes(8), priority=0, fields={"identification": 1 << 16})
@given(payload=st.sampled_from([0, 25, 26, 1440, 1441, 1460, 1461, 1480, 1481, 2040, 2041])
       .map(bytes),
       priority=st.sampled_from([0, 2047, 2048, -1]),
       fields=st.fixed_dictionaries({}, optional={
           "dscp_ecn": st.sampled_from(FIELD_VALUES), "ttl": st.sampled_from(FIELD_VALUES),
           "protocol": st.sampled_from(FIELD_VALUES),
           "identification": st.sampled_from([0, 0xFFFF, 1 << 16, -1, 1.5]),
           "flags": st.sampled_from([0, frames.IPV4_DF, frames.IPV4_MF]),
           "options": st.sampled_from([b"", bytes(4), bytes(range(20)), bytes(range(40)),
                                       bytes(44)])}))
def test_an_on_demand_encapsulation_raises_where_the_eager_one_does(payload, priority, fields):
    built = outcome(make_dgram, payload, **fields)
    if not header_fits(payload, fields):  # refused when built, so never encapsulated
        assert refused(built), built
        return
    d = built
    assert outcome(ioc_encode, d, priority) == outcome(eager_ioc, d, priority)
    assert outcome(ioc_to_ethernet, d, M1, M2) == outcome(eager_ipv4_ethernet, d, M1, M2)
    eth = outcome(ioc_to_ethernet, d, M1, M2)
    if isinstance(eth, EthernetFrame):
        assert outcome(eoc_encapsulate, eth, priority) == outcome(eager_eoc, eth, priority)


def test_an_on_demand_field_read_on_its_class_is_its_descriptor():
    for cls, field in ((CanXlFrame, "data"), (EthernetFrame, "payload")):
        assert getattr(cls, field) is vars(cls)[field]
