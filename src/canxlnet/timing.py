"""Closed-form frame durations and throughput arithmetic.

CAN XL frames are split into an arbitration part sent at the nominal bit
rate (capped at 1 Mb/s) and a data part sent at the high rate.  The model
works above bit stuffing: the data-phase bit count is inflated by a flat
`STUFF_RATIO` instead of simulating stuff bits.

The calibration (34 arbitration bits, 168 data-phase overhead bits, 10%
stuffing) is the single parameter set that reproduces the published
duration figures for tunneled-Ethernet and streamlined-IPv4 transfers of a
64-byte datagram at 500 kb/s and 1 Mb/s nominal rates, and for a full
2048-byte frame, all within a few percent; so a bus sets only its two bit
rates.

Every time the simulator keeps is an integer number of nanoseconds, and
`to_ns` is the one conversion from seconds and the one check of a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .frames import CANXL_MAX_DATA, ETH_HEADER_LEN, ETH_MIN_PAYLOAD

# Nominal 11-bit-identifier classic CAN frame: 47 overhead bits plus the
# data bytes, ignoring stuff bits.
CLASSIC_OVERHEAD_BITS = 47

# Ethernet preamble with its start delimiter (8 octets) plus FCS (4).
ETH_PREAMBLE_FCS_BYTES = 12

# CAN XL calibration (see above).
ARB_OVERHEAD_BITS = 34
DATA_OVERHEAD_BITS = 168
STUFF_RATIO = 0.1


class InvalidPayload(ValueError):
    pass


@dataclass(frozen=True)
class CanXlTimingParams:
    arb_bitrate: float
    data_bitrate: float

    def __post_init__(self):
        # written so that NaN fails each check
        if not (0 < self.arb_bitrate < math.inf and 0 < self.data_bitrate < math.inf):
            raise ValueError("bit rates must be positive and finite")
        if self.arb_bitrate > 1_000_000:
            raise ValueError("arbitration phase may not exceed 1 Mb/s")
        if not self.data_bitrate >= self.arb_bitrate:
            raise ValueError("data bit rate may not be below the nominal rate")


@dataclass(frozen=True)
class EthernetTimingParams:
    bitrate: float

    def __post_init__(self):
        if not 0 < self.bitrate < math.inf:  # NaN too
            raise ValueError("bit rate must be positive and finite")


def canxl_duration(payload_bytes: int, p: CanXlTimingParams) -> float:
    """Duration in seconds of a CAN XL frame with the given data field."""
    if not 1 <= payload_bytes <= CANXL_MAX_DATA:
        raise InvalidPayload(f"data field {payload_bytes} outside [1, {CANXL_MAX_DATA}]")
    arb = ARB_OVERHEAD_BITS / p.arb_bitrate
    data = (1.0 + STUFF_RATIO) * (DATA_OVERHEAD_BITS + 8 * payload_bytes) / p.data_bitrate
    return arb + data


def ethernet_duration(payload_bytes: int, p: EthernetTimingParams) -> float:
    """Duration in seconds of one Ethernet frame including preamble and FCS.
    Header and minimum payload are the `frames` constants; `EthernetFrame`
    bounds the payload by the MTU."""
    octets = ETH_HEADER_LEN + max(payload_bytes, ETH_MIN_PAYLOAD) + ETH_PREAMBLE_FCS_BYTES
    return octets * 8 / p.bitrate


def classic_can_duration(data_bytes: int, bitrate: float) -> float:
    """Nominal 11-bit-identifier frame duration with `data_bytes` data
    bytes, stuff bits ignored."""
    return (CLASSIC_OVERHEAD_BITS + 8 * data_bytes) / bitrate


def worst_case_blocking(params: CanXlTimingParams | float) -> float:
    """Longest time a ready frame can wait behind one in-flight frame.

    Pass CAN XL timing parameters for a CAN XL bus (a full 2048-byte
    frame) or a plain bit rate for a classic bus (an 8-byte frame).
    """
    if isinstance(params, CanXlTimingParams):
        return canxl_duration(CANXL_MAX_DATA, params)
    return classic_can_duration(8, params)


def throughput_gain(payload_eoc: int, payload_ioc: int, p: CanXlTimingParams) -> float:
    """Net throughput gain of the streamlined encoding over the tunnel.

    Same application data in fewer wire bytes: the gain is the ratio of
    the two frame durations minus one.
    """
    return canxl_duration(payload_eoc, p) / canxl_duration(payload_ioc, p) - 1.0


def to_ns(seconds: float, what: str = "duration") -> int:
    """`seconds` rounded to the simulator's integer-nanosecond grid, whose
    clock starts at 0.  The one comparison rejects a negative time, NaN,
    infinity and a time too large to scale."""
    ns = seconds * 1e9
    if not 0 <= ns < math.inf:
        raise ValueError(f"{what} must be at least 0 and below about 1.8e299 seconds")
    return round(ns)


# Published comparison points: (label, kind, args, published seconds).
# kind "canxl" args = (data bytes, nominal rate); "ethernet" args =
# (payload bytes, rate); "classic" args = (data bytes, rate).
PUBLISHED_FIGURES = (
    ("Ethernet 64 B @ 10 Mb/s", "ethernet", (64, 10e6), 72e-6),
    ("EoC 64 B datagram @ 500 kb/s", "canxl", (78, 500e3), 118e-6),
    ("EoC 64 B datagram @ 1 Mb/s", "canxl", (78, 1e6), 84e-6),
    ("IoC 64 B datagram @ 500 kb/s", "canxl", (52, 500e3), 104e-6),
    ("IoC 64 B datagram @ 1 Mb/s", "canxl", (52, 1e6), 70e-6),
    ("CAN XL 2048 B @ 500 kb/s", "canxl", (2048, 500e3), 1.20e-3),
    ("classic CAN blocking @ 500 kb/s", "classic", (8, 500e3), 0.22e-3),
)


def comparison_table(data_bitrate: float = 16e6) -> list[dict]:
    """Model durations next to the published ones, with the deviation."""
    rows = []
    for label, kind, (nbytes, rate), published in PUBLISHED_FIGURES:
        if kind == "canxl":
            model = canxl_duration(nbytes, CanXlTimingParams(rate, data_bitrate))
        elif kind == "ethernet":
            model = ethernet_duration(nbytes, EthernetTimingParams(rate))
        else:
            model = classic_can_duration(nbytes, rate)
        rows.append({
            "label": label,
            "model_s": model,
            "published_s": published,
            "deviation": model / published - 1.0,
        })
    return rows
