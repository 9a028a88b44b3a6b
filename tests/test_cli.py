import json
import os
import re
import subprocess
import sys

import pytest
import yaml

from canxlnet.cli import main
from canxlnet.config import MAX_DEPTH
from canxlnet.frames import (
    SDT_IPV4,
    CanXlFrame,
    EthernetFrame,
    Ipv4Address,
    Ipv4Datagram,
    MacAddress,
)

from conftest import REPO_ROOT


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


def test_simulate_duplicate_ip_exits_2(tmp_path, scenario_path, capsys):
    doc = yaml.safe_load(open(scenario_path("eoc_baseline")))
    doc["nodes"][1]["ip"] = doc["nodes"][0]["ip"]
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    rc = main(["simulate", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "n1" in err and "h1" in err


def test_simulate_malformed_shape_exits_2(tmp_path, scenario_path, capsys):
    with open(scenario_path("eoc_baseline")) as fh:
        doc = yaml.safe_load(fh)
    doc["switches"][0]["ports"] = [1]
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    assert main(["simulate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: switches.sw1.ports:")
    assert "Traceback" not in err


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


def test_simulate_non_text_port_kind_exits_2(tmp_path, scenario_path, capsys):
    with open(scenario_path("eoc_baseline")) as fh:
        doc = yaml.safe_load(fh)
    doc["switches"][0]["ports"][0]["kind"] = [1]
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    assert main(["simulate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: switches.sw1.ports.0.kind:")
    assert "Traceback" not in err


def test_simulate_unquoted_mac_exits_2(tmp_path, scenario_path, capsys):
    # YAML reads an unquoted 10:00:00:00:00:01 as the integer 7776000001
    text = open(scenario_path("eoc_baseline")).read()
    bad = tmp_path / "bad.yaml"
    bad.write_text(text.replace('mac: "02:00:00:00:00:01"', "mac: 10:00:00:00:00:01", 1))
    assert main(["simulate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: nodes.n1.mac:")
    assert "Traceback" not in err


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


def test_simulate_infinite_t_end_exits_2(tmp_path, scenario_path, capsys):
    with open(scenario_path("eoc_baseline")) as fh:
        doc = yaml.safe_load(fh)
    doc["run"]["t_end"] = float("inf")
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    assert ".inf" in bad.read_text()
    assert main(["simulate", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: run.t_end:")


def test_simulate_huge_t_end_exits_2(scenario_path, capsys):
    # finite, but too large for the nanosecond clock
    assert main(["simulate", scenario_path("eoc_baseline"), "--t-end", "1e300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: run.t_end:") and "Traceback" not in err


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
    dgram = Ipv4Datagram(Ipv4Address.parse("10.0.0.1"),
                         Ipv4Address.parse("10.0.0.2"), bytes(44))
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
    assert capsys.readouterr().err == "error: " + error.format(src=src) + "\n"
