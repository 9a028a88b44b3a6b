#!/usr/bin/env python3
"""Sweep IPv4 datagram sizes and compare tunneled vs streamlined frame
durations (CSV on stdout)."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from canxlnet.frames import (IPV4_HEADER_LEN, ZERO_MAC, Ipv4Address, Ipv4Datagram,
                             eoc_encapsulate, ioc_encode, ioc_to_ethernet)
from canxlnet.timing import CanXlTimingParams, canxl_duration, throughput_gain

IP = Ipv4Address(bytes(4))


def main() -> int:
    rates = [(500e3, 16e6), (1e6, 16e6)]
    print("datagram_bytes,arb_rate,eoc_us,ioc_us,gain_percent")
    for size in (28, 46, 64, 128, 256, 512, 1024, 1500):
        # the data field lengths of the two CAN XL frames that carry it
        dgram = Ipv4Datagram(IP, IP, bytes(size - IPV4_HEADER_LEN))
        eoc_bytes = eoc_encapsulate(ioc_to_ethernet(dgram, ZERO_MAC, ZERO_MAC), 0).length
        ioc_bytes = ioc_encode(dgram, 0).length
        for arb, data in rates:
            p = CanXlTimingParams(arb, data)
            eoc = canxl_duration(eoc_bytes, p)
            ioc = canxl_duration(ioc_bytes, p)
            gain = throughput_gain(eoc_bytes, ioc_bytes, p)
            print(f"{size},{arb:g},{eoc * 1e6:.2f},{ioc * 1e6:.2f},{gain * 100:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
