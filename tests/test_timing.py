from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from canxlnet.timing import (
    ARB_OVERHEAD_BITS,
    DATA_OVERHEAD_BITS,
    STUFF_RATIO,
    CanXlTimingParams,
    EthernetTimingParams,
    InvalidPayload,
    canxl_duration,
    classic_can_duration,
    comparison_table,
    ethernet_duration,
    throughput_gain,
    worst_case_blocking,
)

P_500K = CanXlTimingParams(500e3, 16e6)
P_1M = CanXlTimingParams(1e6, 16e6)
US = 1e-6


class TestCanXlDuration:
    def test_eoc_64_byte_datagram_at_500k(self):
        # 78-byte data field: 68 us arbitration + 54.45 us data phase
        assert canxl_duration(78, P_500K) == pytest.approx(122.45 * US)
        assert abs(canxl_duration(78, P_500K) / (118 * US) - 1) < 0.06

    def test_eoc_at_1m(self):
        assert canxl_duration(78, P_1M) == pytest.approx(88.45 * US)
        assert abs(canxl_duration(78, P_1M) / (84 * US) - 1) < 0.06

    def test_ioc_at_500k(self):
        assert canxl_duration(52, P_500K) == pytest.approx(108.15 * US)
        assert abs(canxl_duration(52, P_500K) / (104 * US) - 1) < 0.06

    def test_ioc_at_1m(self):
        assert canxl_duration(52, P_1M) == pytest.approx(74.15 * US)
        assert abs(canxl_duration(52, P_1M) / (70 * US) - 1) < 0.06

    def test_full_frame(self):
        assert abs(canxl_duration(2048, P_500K) / 1.20e-3 - 1) < 0.06

    def test_payload_bounds(self):
        with pytest.raises(InvalidPayload):
            canxl_duration(0, P_500K)
        with pytest.raises(InvalidPayload):
            canxl_duration(2049, P_500K)

    @given(st.integers(1, 2047))
    def test_strictly_increasing(self, n):
        assert canxl_duration(n + 1, P_500K) > canxl_duration(n, P_500K)

    def test_affine_in_payload(self):
        # equal increments yield equal duration steps
        d = [canxl_duration(n, P_500K) for n in (10, 20, 30)]
        assert d[2] - d[1] == pytest.approx(d[1] - d[0])

    @given(st.floats(1e3, 1e6), st.floats(1e6, 20e6), st.integers(1, 2048))
    def test_rate_monotonicity(self, arb, data, payload):
        p = CanXlTimingParams(arb, max(data, arb))
        slower_arb = CanXlTimingParams(arb / 2, max(data, arb))
        assert canxl_duration(payload, slower_arb) > canxl_duration(payload, p)
        faster_data = CanXlTimingParams(arb, max(data, arb) * 2)
        assert canxl_duration(payload, faster_data) < canxl_duration(payload, p)

    @given(st.integers(1, 2048))
    def test_exact_rational_without_stuffing(self, payload):
        # the calibration constants, and the model as exact rationals with them
        assert (ARB_OVERHEAD_BITS, DATA_OVERHEAD_BITS, STUFF_RATIO) == (34, 168, 0.1)
        exact = Fraction(34, 500_000) + Fraction(11, 10) * Fraction(168 + 8 * payload, 16_000_000)
        assert canxl_duration(payload, P_500K) == pytest.approx(float(exact), rel=1e-12)

    def test_arbitration_rate_cap(self):
        with pytest.raises(ValueError):
            CanXlTimingParams(2e6, 16e6)

    def test_data_rate_floor(self):
        with pytest.raises(ValueError):
            CanXlTimingParams(1e6, 500e3)


class TestEthernetDuration:
    def test_64_byte_exact(self):
        assert ethernet_duration(64, EthernetTimingParams(10e6)) == 72 * US

    def test_minimum_frame(self):
        assert ethernet_duration(46, EthernetTimingParams(10e6)) == pytest.approx(57.6 * US)

    def test_padding_floor(self):
        p = EthernetTimingParams(10e6)
        assert ethernet_duration(10, p) == ethernet_duration(46, p)


class TestClassicCan:
    def test_published_blocking_value(self):
        d = classic_can_duration(8, 500e3)
        assert d == pytest.approx(222 * US)
        assert abs(d / 0.22e-3 - 1) < 0.02

    def test_empty_frame(self):
        assert classic_can_duration(0, 500e3) == pytest.approx(94 * US)

    def test_linear_in_bitrate(self):
        assert classic_can_duration(8, 1e6) == pytest.approx(111 * US)


class TestWorstCaseBlocking:
    def test_classic(self):
        assert worst_case_blocking(500e3) == pytest.approx(222 * US)
        assert worst_case_blocking(1e6) == pytest.approx(111 * US)

    def test_canxl_vs_classic_ratio(self):
        # "about six times higher", checked at +-15%
        ratio = worst_case_blocking(P_500K) / worst_case_blocking(500e3)
        assert 6 * 0.85 <= ratio <= 6 * 1.15


class TestThroughputGain:
    def test_published_gains(self):
        assert abs(throughput_gain(78, 52, P_500K) - 0.14) < 0.015
        assert abs(throughput_gain(78, 52, P_1M) - 0.20) < 0.015

    def test_equal_payloads(self):
        assert throughput_gain(60, 60, P_500K) == 0.0

    @given(st.integers(1, 2048), st.integers(1, 2048))
    def test_non_negative_when_larger(self, a, b):
        hi, lo = max(a, b), min(a, b)
        assert throughput_gain(hi, lo, P_500K) >= 0.0


def test_comparison_table_covers_all_figures():
    rows = comparison_table()
    assert len(rows) == 7
    by_label = {r["label"]: r for r in rows}
    eth = by_label["Ethernet 64 B @ 10 Mb/s"]
    assert eth["model_s"] == eth["published_s"] == 72 * US
    classic = by_label["classic CAN blocking @ 500 kb/s"]
    assert abs(classic["deviation"]) < 0.02
    for row in rows:
        assert abs(row["deviation"]) < 0.06
