"""Command-line entry point.

    canxlnet simulate CONFIG [--trace PATH] [--report PATH] [--t-end SECONDS]
    canxlnet timing --table
    canxlnet timing --payload N [--arb-rate R] [--data-rate R]
    canxlnet codec --encode {eoc,ioc} HEXFILE
    canxlnet codec --decode HEXFILE

Exit codes: 0 success, 2 usage/config/parse error, 1 internal invariant
violation.

`simulate` checks the configuration before it opens any output file, so
a rejected one leaves none.  It streams the trace to its file as the run
goes; a run that fails part-way leaves there every record traced before
the fault, and no report.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import frames, timing
from .config import load_config
from .engine import ConfigError, Simulation


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built once: in-process callers such as a benchmark call `main` many times."""
    parser = argparse.ArgumentParser(prog="canxlnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario configuration")
    p_sim.add_argument("config")
    p_sim.add_argument("--trace", help="trace output path (JSON lines)")
    p_sim.add_argument("--report", help="report output path (JSON)")
    p_sim.add_argument("--t-end", type=float, help="override the configured end time")

    p_tim = sub.add_parser("timing", help="frame duration arithmetic")
    p_tim.add_argument("--table", action="store_true",
                       help="print the comparison against the published figures")
    p_tim.add_argument("--payload", type=int, help="CAN XL data field size in bytes")
    p_tim.add_argument("--arb-rate", type=float, default=500e3)
    p_tim.add_argument("--data-rate", type=float, default=16e6)

    p_cod = sub.add_parser("codec", help="encode/decode frames from hex files")
    group = p_cod.add_mutually_exclusive_group(required=True)
    group.add_argument("--encode", choices=["eoc", "ioc"])
    group.add_argument("--decode", action="store_true")
    p_cod.add_argument("hexfile")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "timing":
            return _cmd_timing(args)
        return _cmd_codec(args)
    except (ConfigError, frames.FrameError, timing.InvalidPayload, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_simulate(args) -> int:
    topo = load_config(args.config)
    if args.t_end is not None:
        topo.options.t_end = args.t_end
    trace_path = args.trace or topo.options.trace or "trace.jsonl"
    report_path = args.report or topo.options.report or "report.json"
    sim = Simulation(topo)  # validates first: a rejected configuration opens no file
    with open(trace_path, "w") as fh:
        _, report = sim.run(fh)
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    delivered = sum(f["delivered"] for f in report["flows"].values())
    sent = sum(f["sent"] for f in report["flows"].values())
    print(f"simulated {topo.options.t_end:g} s: {sent} sent, {delivered} delivered; "
          f"trace -> {trace_path}, report -> {report_path}")
    return 0


def _fmt_us(seconds: float) -> str:
    return f"{seconds * 1e6:9.2f} us"


def _cmd_timing(args) -> int:
    if args.table:
        print(f"{'case':34} {'model':>12} {'published':>12} {'deviation':>10}")
        for row in timing.comparison_table():
            print(f"{row['label']:34} {_fmt_us(row['model_s'])} "
                  f"{_fmt_us(row['published_s'])} {row['deviation']:+9.1%}")
        params = timing.CanXlTimingParams(500e3, 16e6)
        gain_500k = timing.throughput_gain(78, 52, params)
        gain_1m = timing.throughput_gain(78, 52, timing.CanXlTimingParams(1e6, 16e6))
        print(f"{'IoC gain over EoC @ 500 kb/s':34} {gain_500k:+12.1%} {'+14.0%':>12}")
        print(f"{'IoC gain over EoC @ 1 Mb/s':34} {gain_1m:+12.1%} {'+20.0%':>12}")
        return 0
    if args.payload is None:
        raise ValueError("need --table or --payload")
    params = timing.CanXlTimingParams(args.arb_rate, args.data_rate)
    duration = timing.canxl_duration(args.payload, params)
    print(f"{args.payload} B data field at {args.arb_rate:g}/{args.data_rate:g} b/s: "
          f"{duration * 1e6:.2f} us")
    return 0


def _read_hex(path: str) -> bytes:
    with open(path, "rb") as fh:
        data = b"".join(fh.read().split())
    try:
        return bytes.fromhex(data.decode("ascii"))
    except ValueError as exc:  # UnicodeDecodeError included
        raise frames.Malformed(f"{path}: not valid hex") from exc


def _canxl_lines(frame: frames.CanXlFrame) -> list[str]:
    return [f"priority   0x{frame.priority:03x}",
            f"sdt        {frames.SDT_NAMES.get(frame.sdt, hex(frame.sdt))}",
            f"sec        {int(frame.sec)}",
            f"vcid       {frame.vcid}",
            f"af         0x{frame.af:08x}",
            f"data[{len(frame.data)}]"]


def _eth_lines(eth: frames.EthernetFrame) -> list[str]:
    return [f"da         {eth.da}", f"sa         {eth.sa}", f"ethertype  0x{eth.ethertype:04x}"]


def _ip_lines(dgram) -> list[str]:
    """An `Ipv4Datagram`'s addresses and protocol, a compact frame's too."""
    return [f"src        {dgram.src_ip}", f"dst        {dgram.dst_ip}",
            f"protocol   {dgram.protocol}"]


def _cmd_codec(args) -> int:
    """Decode every layer, then print: a malformed layer leaves no output."""
    raw = _read_hex(args.hexfile)
    if args.encode == "eoc":
        eth = frames.EthernetFrame.from_bytes(raw)
        frame = frames.eoc_encapsulate(eth, priority=0x100)
        lines = [*_eth_lines(eth), *_canxl_lines(frame), frame.to_bytes().hex()]
    elif args.encode == "ioc":
        dgram = frames.Ipv4Datagram.from_bytes(raw)
        frame = frames.ioc_encode(dgram, priority=0x100)
        lines = [*_ip_lines(dgram), *_canxl_lines(frame), frame.to_bytes().hex()]
    else:
        frame = frames.CanXlFrame.from_bytes(raw)
        lines = _canxl_lines(frame)
        if frame.sdt == frames.SDT_ETHERNET:
            eth = frames.eoc_decapsulate(frame)
            lines += [*_eth_lines(eth), eth.to_bytes().hex()]
        elif frame.sdt == frames.SDT_IPV4:
            dgram = frames.ioc_decapsulate(frame)
            lines += [*_ip_lines(dgram), f"total_len  {dgram.total_length}",
                      dgram.to_bytes().hex()]
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
