#!/usr/bin/env python3
"""Sweep IPv4 datagram sizes and compare tunneled vs streamlined frame
durations (CSV on stdout)."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from canxlnet.frames import ETH_HEADER_LEN, ETH_MIN_PAYLOAD, IOC_HEADER_LEN, IPV4_HEADER_LEN
from canxlnet.timing import CanXlTimingParams, canxl_duration, throughput_gain


def main() -> int:
    rates = [(500e3, 16e6), (1e6, 16e6)]
    print("datagram_bytes,arb_rate,eoc_us,ioc_us,gain_percent")
    for size in (28, 46, 64, 128, 256, 512, 1024, 1500):
        payload = size - IPV4_HEADER_LEN
        for arb, data in rates:
            p = CanXlTimingParams(arb, data)
            eoc_bytes = ETH_HEADER_LEN + max(size, ETH_MIN_PAYLOAD)
            ioc_bytes = IOC_HEADER_LEN + payload
            eoc = canxl_duration(eoc_bytes, p)
            ioc = canxl_duration(ioc_bytes, p)
            gain = throughput_gain(eoc_bytes, ioc_bytes, p)
            print(f"{size},{arb:g},{eoc * 1e6:.2f},{ioc * 1e6:.2f},{gain * 100:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
