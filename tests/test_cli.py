import argparse
import json
import os
import re
import runpy
import subprocess
import sys
import tracemalloc

import pytest
import yaml
from hypothesis import given, strategies as st

from canxlnet.cli import main
from canxlnet.config import MAX_DEPTH, load_config
from canxlnet.engine import Simulation
from canxlnet.frames import (
    IPV4_DF,
    SDT_ETHERNET,
    SDT_IPV4,
    CanXlFrame,
    EthernetFrame,
    Ipv4Address,
    Ipv4Datagram,
    MacAddress,
)

from conftest import REPO_ROOT, recorder, workload_yaml


def test_simulate_eoc_baseline(tmp_path, scenario_path, capsys):
    trace = tmp_path / "t.jsonl"
    report = tmp_path / "r.json"
    rc = main(["simulate", scenario_path("eoc_baseline"),
               "--trace", str(trace), "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["flows"]["f1"]["delivered"] == 1
    assert trace.read_text().splitlines()
    assert "1 delivered" in capsys.readouterr().out


def test_simulate_duplicate_ip_exits_2(tmp_path, scenario_path, capsys, monkeypatch):
    doc = yaml.safe_load(open(scenario_path("eoc_baseline")))
    doc["nodes"][1]["ip"] = doc["nodes"][0]["ip"]
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    monkeypatch.chdir(tmp_path)  # where the default trace.jsonl and report.json would go
    rc = main(["simulate", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "n1" in err and "h1" in err
    assert list(tmp_path.iterdir()) == [bad]  # a rejected configuration writes no file


def test_simulate_that_fails_part_way_keeps_the_records_before_the_fault(tmp_path, monkeypatch):
    config = tmp_path / "bus_crowd.yaml"
    config.write_text(workload_yaml("bus_crowd"))
    lines = Simulation(load_config(str(config))).run()[0].splitlines(keepends=True)
    delivered = [i for i, line in enumerate(lines) if line.startswith('{"event":"app_deliver"')]
    fault = len(delivered) // 2  # the app delivery that raises, before its record

    def fail_at_the_fault(sim, node, payload):
        if len(seen) == fault:
            raise RuntimeError("fault")

    seen = recorder(monkeypatch, [Simulation], "on_app_delivery", fail_at_the_fault)
    trace, report = tmp_path / "t.jsonl", tmp_path / "r.json"
    with pytest.raises(RuntimeError, match="fault"):
        main(["simulate", str(config), "--trace", str(trace), "--report", str(report)])
    assert delivered[fault] > 1000  # past several chunks of the trace
    assert trace.read_text() == "".join(lines[:delivered[fault]])
    assert not report.exists()


def test_simulate_holds_a_chunk_of_the_trace_not_all_of_it(tmp_path):
    # The run's peak of new allocations, counted from after set-up: the
    # trace written as the run goes needs a fraction of the trace's size;
    # building the whole text first needed about three times it.
    config = tmp_path / "bus_crowd.yaml"
    config.write_text(workload_yaml("bus_crowd"))
    sim = Simulation(load_config(str(config)))
    trace = tmp_path / "t.jsonl"
    with open(trace, "w") as fh:
        tracemalloc.start()
        try:
            sim.run(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = trace.stat().st_size
    assert size > 3_000_000
    assert peak < size / 2, (peak, size)


def test_simulate_yaml_syntax_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("nodes: [a, b\nflows: {\n")
    assert main(["simulate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: <root>:") and "at 2:6" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("data, character, position", [
    (b"nodes: \x07\n", "#x07", 7),  # a control character
    (b"nodes: [a\xff]\n", "#xff", 9),  # not UTF-8
], ids=["control_character", "undecodable_byte"])
def test_simulate_unreadable_input_exits_2(tmp_path, capsys, data, character, position):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(data)
    assert main(["simulate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: <root>:") and f"({character}) at position {position}" in err
    assert "Traceback" not in err


# `canxlnet simulate` on the loader named by argv[1]
SIMULATE_ON = ("import sys; from canxlnet import cli, config; "
               "config.LOADER = getattr(config, sys.argv[1]); sys.exit(cli.main(sys.argv[2:]))")


def test_simulate_nesting_bomb_exits_2(tmp_path, parser_base):
    bomb = tmp_path / "bomb.yaml"
    bomb.write_text("nodes: " + "[" * 100_000 + "]" * 100_000)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    # in a child, so that a crash of the parser is a return code
    child = subprocess.run([sys.executable, "-c", SIMULATE_ON, parser_base, "simulate",
                            str(bomb), "--trace", str(tmp_path / "t.jsonl"),
                            "--report", str(tmp_path / "r.json")],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 2, child.stderr
    assert re.fullmatch(rf"error: <root>: .* {MAX_DEPTH} levels at 1:\d+\n", child.stderr)


@pytest.mark.parametrize("path, value, location", [
    (("flows", 0, "payload_size"), 44.9, "flows.f1.payload_size"),
    (("run", "startup_gratuitous_arp"), "false", "run.startup_gratuitous_arp"),
    (("flows", 0, "schedule"), {"at": 0.001, "period": 0.001, "count": 5}, "flows.f1.schedule"),
], ids=["payload_size", "startup_gratuitous_arp", "schedule_at_and_period"])
def test_simulate_mistyped_value_exits_2(tmp_path, scenario_path, capsys, path, value, location):
    with open(scenario_path("eoc_baseline")) as fh:
        doc = yaml.safe_load(fh)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    assert main(["simulate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {location}:")
    assert "Traceback" not in err


def test_simulate_huge_t_end_exits_2(scenario_path, capsys):
    # finite, but too large for the nanosecond clock
    assert main(["simulate", scenario_path("eoc_baseline"), "--t-end", "1e300"]) == 2
    assert capsys.readouterr().err == (
        "error: run.t_end: t_end must be at least 0 and below about 1.8e299 seconds\n")


def test_simulate_missing_file_exits_2(capsys):
    assert main(["simulate", "no-such-file.yaml"]) == 2


def test_simulate_t_end_zero(tmp_path, scenario_path):
    trace = tmp_path / "t.jsonl"
    report = tmp_path / "r.json"
    rc = main(["simulate", scenario_path("eoc_baseline"), "--t-end", "0",
               "--trace", str(trace), "--report", str(report)])
    assert rc == 0
    for line in trace.read_text().splitlines():
        assert json.loads(line)["t_ns"] == 0


def test_timing_table(capsys):
    assert main(["timing", "--table"]) == 0
    out = capsys.readouterr().out
    assert "EoC 64 B datagram @ 500 kb/s" in out
    assert "122.45" in out
    assert "+14.0%" in out and "+20.0%" in out
    assert out.count("\n") == 10  # header + 7 rows + 2 gain lines


def test_timing_single_payload(capsys):
    rc = main(["timing", "--payload", "2048",
               "--arb-rate", "500000", "--data-rate", "16000000"])
    assert rc == 0
    assert "1205.95 us" in capsys.readouterr().out


def test_timing_invalid_payload_exits_2(capsys):
    assert main(["timing", "--payload", "0"]) == 2


def test_timing_without_arguments_exits_2(capsys):
    assert main(["timing"]) == 2


def test_module_runs_as_a_program(monkeypatch, capsys):
    # `python -m canxlnet.cli` reaches main through the module's __main__ guard
    monkeypatch.setattr(sys, "argv", ["canxlnet", "timing", "--payload", "2048",
                                      "--arb-rate", "500000", "--data-rate", "16000000"])
    monkeypatch.delitem(sys.modules, "canxlnet.cli")  # runpy warns about a loaded module
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("canxlnet.cli", run_name="__main__")
    assert exc.value.code == 0
    assert "1205.95 us" in capsys.readouterr().out


def test_main_builds_its_parser_once(monkeypatch, capsys):
    # building the parser takes about ten times what parsing takes, and
    # in-process callers such as perfbench's scenarios call `main` often
    made, init = [], argparse.ArgumentParser.__init__

    def counted(parser, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(2):
        assert main(["timing", "--payload", "64"]) == 0
    assert made.count("canxlnet") <= 1


def test_codec_eoc_round_trip(tmp_path, capsys):
    eth = EthernetFrame(
        MacAddress.parse("aa:bb:cc:dd:ee:0f"),
        MacAddress.parse("02:00:00:00:00:01"),
        0x0800, bytes(46))
    src = tmp_path / "eth.hex"
    src.write_text(eth.to_bytes().hex())
    assert main(["codec", "--encode", "eoc", str(src)]) == 0
    out = capsys.readouterr().out
    assert "af         0xaabbccdd" in out
    assert "sdt        ethernet" in out
    encoded_hex = out.strip().splitlines()[-1]

    back = tmp_path / "frame.hex"
    back.write_text(encoded_hex)
    assert main(["codec", "--decode", str(back)]) == 0
    out2 = capsys.readouterr().out
    assert "da         aa:bb:cc:dd:ee:0f" in out2
    assert out2.strip().splitlines()[-1] == eth.to_bytes().hex()


def test_codec_ioc_round_trip(tmp_path, capsys):
    # DF set, as the decoder rebuilds the header, so the datagram comes back
    # byte for byte
    dgram = Ipv4Datagram(Ipv4Address.parse("10.0.0.1"),
                         Ipv4Address.parse("10.0.0.2"), bytes(44), flags=IPV4_DF)
    src = tmp_path / "ip.hex"
    src.write_text(dgram.to_bytes().hex())
    assert main(["codec", "--encode", "ioc", str(src)]) == 0
    out = capsys.readouterr().out
    assert "af         0x0a000002" in out
    encoded_hex = out.strip().splitlines()[-1]

    back = tmp_path / "frame.hex"
    back.write_text(encoded_hex)
    assert main(["codec", "--decode", str(back)]) == 0
    out2 = capsys.readouterr().out
    assert "dst        10.0.0.2" in out2
    assert "total_len  64" in out2
    assert out2.strip().splitlines()[-1] == dgram.to_bytes().hex()


def _datagram_hex(**fields) -> bytes:
    dgram = Ipv4Datagram(Ipv4Address.parse("10.0.0.1"),
                         Ipv4Address.parse("10.0.0.2"), bytes(44), **fields)
    return dgram.to_bytes().hex().encode()


@pytest.mark.parametrize("command, content, error", [
    (["--decode"], b"0102", "CAN XL frame too short (2 bytes)"),
    (["--decode"], b"zz", "{src}: not valid hex"),
    (["--decode"], b"01\xff02", "{src}: not valid hex"),
    (["--encode", "ioc"], _datagram_hex(fragment_offset=7),
     "fragmented datagrams must travel as EoC"),
    (["--encode", "ioc"], _datagram_hex(options=bytes(4)), "IP options cannot be carried"),
    (["--decode"], CanXlFrame(0x100, SDT_IPV4, 0, 0x0A000002, b"\x60" + bytes(51)).to_bytes().hex()
     .encode(), "compact header version 6 is not 4"),
], ids=["truncated", "bad_hex", "non_utf8_hex", "ioc_fragmented", "ioc_options", "ioc_version"])
def test_codec_exits_2(tmp_path, capsys, command, content, error):
    src = tmp_path / "in.hex"
    src.write_bytes(content)
    assert main(["codec", *command, str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: " + error.format(src=src) + "\n"
    assert captured.out == ""  # every layer is decoded before the first line is printed


# Any bytes, and bytes whose CAN XL header names an SDT the decoder
# unpacks or whose first octet is an IPv4 version and header length.
CODEC_INPUT = st.one_of(
    st.binary(max_size=2100),
    st.builds(lambda head, sdt, rest: head + bytes([sdt]) + rest,
              st.binary(min_size=3, max_size=3), st.sampled_from([SDT_ETHERNET, SDT_IPV4]),
              st.binary(max_size=2060)),
    st.binary(max_size=1500).map(lambda rest: b"\x45" + rest),
)


def test_codec_exits_0_or_2_on_any_bytes(tmp_path_factory):
    src = tmp_path_factory.mktemp("codec") / "in.hex"

    @given(command=st.sampled_from([["--decode"], ["--encode", "eoc"], ["--encode", "ioc"]]),
           data=CODEC_INPUT)
    def run(command, data):
        src.write_text(data.hex())
        assert main(["codec", *command, str(src)]) in (0, 2)

    run()
