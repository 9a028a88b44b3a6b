import contextlib
import copy
import math
import re
import string

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings, strategies as st
from yaml.composer import Composer, ComposerError

from canxlnet import config
from canxlnet.cli import main
from canxlnet.config import MAX_DEPTH, MAX_SENDS, build_topology, load_config
from canxlnet.engine import ConfigError, Simulation
from canxlnet.frames import FrameError
from canxlnet.timing import to_ns

from conftest import SCENARIOS, all_scenarios, recorder, workload_yaml, workloads

MINIMAL = yaml.safe_load("""
nodes:
  - {name: n1, kind: eoc, mac: "02:00:00:00:00:01", ip: "10.0.0.1"}
  - {name: h1, kind: ethernet-host, mac: "02:00:00:00:00:02", ip: "10.0.0.2"}
buses:
  - {name: bus1, arb_bitrate: 500000, data_bitrate: 16000000, stations: [n1, sw1.p0]}
links:
  - {name: link1, bitrate: 10000000, endpoints: [sw1.p1, h1]}
switches:
  - name: sw1
    bridge_id: 1
    ports:
      - {index: 0, kind: can}
      - {index: 1, kind: ethernet}
flows:
  - name: f1
    source: n1
    transport: ipv4
    dst_ip: "10.0.0.2"
    payload_size: 44
    schedule: {at: 0.001}
run: {t_end: 0.01}
""")


def variant(**edits):
    doc = copy.deepcopy(MINIMAL)
    doc.update(edits)
    return doc


# MINIMAL plus a classic-CAN node on the bus and a classic flow from it
WITH_CLASSIC = variant()
WITH_CLASSIC["nodes"].append({"name": "c1", "kind": "classic-can", "rx_ids": [0x200]})
WITH_CLASSIC["buses"][0]["stations"].append("c1")
WITH_CLASSIC["flows"].append({"name": "f2", "source": "c1", "transport": "classic-can",
                              "can_id": 0x100, "payload_size": 8, "schedule": {"at": 0.002}})


def checked(doc):
    """`build_topology` and the checks `Simulation` makes before a run."""
    topo = build_topology(doc)
    topo.validate()
    return topo


def test_minimal_config_loads():
    topo = checked(MINIMAL)
    assert set(topo.nodes) == {"n1", "h1"}
    assert set(topo.media) == {"bus1", "link1"}
    assert len(topo.flows) == 1


def test_scenario_files_load(scenario_path):
    for name in ("eoc_baseline", "ioc_reconstruction", "flooding", "clash", "stp_triangle",
                 "legacy_relay", "static_arp_gratuitous", "static_arp_no_gratuitous"):
        topo = load_config(scenario_path(name))
        topo.validate()


def simulated_error(tmp_path, capsys, doc) -> str:
    """What `canxlnet simulate` writes to stderr for `doc`, on which it
    exits 2."""
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    assert main(["simulate", str(bad)]) == 2
    return capsys.readouterr().err


def test_duplicate_ip_names_both_nodes(tmp_path, capsys):
    doc = variant()
    doc["nodes"][1]["ip"] = "10.0.0.1"
    with pytest.raises(ConfigError) as exc:
        checked(doc)
    message = str(exc.value)
    assert "h1" in message and "n1" in message
    assert simulated_error(tmp_path, capsys, doc) == f"error: {message}\n"


def test_duplicate_mac_rejected():
    doc = variant()
    doc["nodes"][1]["mac"] = "02:00:00:00:00:01"
    with pytest.raises(ConfigError, match="already used"):
        checked(doc)


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown keys"):
        checked(variant(bogus=[]))


def test_unknown_node_key():
    doc = variant()
    doc["nodes"][0]["color"] = "red"
    with pytest.raises(ConfigError, match="color"):
        checked(doc)


def test_unknown_station_reference():
    doc = variant()
    doc["buses"][0]["stations"] = ["ghost", "sw1.p0"]
    with pytest.raises(ConfigError, match="ghost"):
        checked(doc)


def test_link_needs_two_endpoints():
    doc = variant()
    doc["links"][0]["endpoints"] = ["h1"]
    with pytest.raises(ConfigError, match="two endpoints") as exc:
        checked(doc)
    assert exc.value.location == "links.link1"


def test_link_takes_no_third_endpoint():
    doc = variant()
    doc["nodes"].append({"name": "h2", "kind": "ethernet-host", "mac": "02:00:00:00:00:03"})
    doc["links"][0]["endpoints"].append("h2")
    with pytest.raises(ConfigError, match="two endpoints") as exc:
        checked(doc)
    assert exc.value.location == "links.link1"


@pytest.mark.parametrize("section, medium", [
    ("buses", {"name": "bus1", "arb_bitrate": 500000, "data_bitrate": 16000000,
               "stations": []}),
    ("links", {"name": "bus1", "bitrate": 10000000, "endpoints": []}),
])
def test_duplicate_medium_name_is_located(section, medium):
    doc = variant()
    doc[section].append(medium)
    with pytest.raises(ConfigError, match="duplicate name") as exc:
        checked(doc)
    assert exc.value.location == f"{section}.bus1"


def test_port_kind_must_match_medium():
    doc = variant()
    doc["buses"][0]["stations"] = ["n1", "sw1.p1"]
    doc["links"][0]["endpoints"] = ["sw1.p0", "h1"]
    with pytest.raises(ConfigError):
        checked(doc)


def test_host_cannot_sit_on_a_bus():
    doc = variant()
    doc["nodes"][1]["kind"] = "eoc"
    doc["nodes"][0]["kind"] = "ethernet-host"
    with pytest.raises(ConfigError):
        checked(doc)


def test_unattached_node_rejected():
    doc = variant()
    doc["buses"][0]["stations"] = ["sw1.p0"]
    with pytest.raises(ConfigError, match="not attached"):
        checked(doc)


def test_flow_needs_destination():
    doc = variant()
    del doc["flows"][0]["dst_ip"]
    with pytest.raises(ConfigError, match="dst_ip"):
        checked(doc)


def test_flow_payload_floor():
    doc = variant()
    doc["flows"][0]["payload_size"] = 4
    with pytest.raises(ConfigError, match="payload_size"):
        checked(doc)


def test_classic_flow_payload_is_exactly_eight():
    doc = variant()
    doc["nodes"][0] = {"name": "n1", "kind": "classic-can"}
    doc["flows"][0] = {
        "name": "f1", "source": "n1", "transport": "classic-can",
        "can_id": 0x100, "payload_size": 9, "schedule": {"at": 0.001},
    }
    with pytest.raises(ConfigError, match="8-byte"):
        checked(doc)


def test_unknown_transport():
    doc = variant()
    doc["flows"][0]["transport"] = "tcp"
    with pytest.raises(ConfigError, match="transport"):
        checked(doc)


def test_schedule_requires_at_or_periodic():
    doc = variant()
    doc["flows"][0]["schedule"] = {"start": 0.0}
    with pytest.raises(ConfigError, match="schedule"):
        checked(doc)


# `at` is one send; a periodic key beside it would be ignored
@pytest.mark.parametrize("schedule", [
    {"at": 0.001, "period": 0.001, "count": 5},
    {"at": 0.001, "period": 0.001},
    {"at": 0.001, "count": 5},
    {"at": 0.001, "start": 0.002},
], ids=["period_and_count", "period", "count", "start"])
def test_schedule_at_excludes_periodic_keys(tmp_path, capsys, schedule):
    doc = variant()
    doc["flows"][0]["schedule"] = schedule
    with pytest.raises(ConfigError) as exc:
        checked(doc)
    assert exc.value.location == "flows.f1.schedule"
    assert "'at' excludes" in exc.value.reason
    assert simulated_error(tmp_path, capsys, doc) == f"error: {exc.value}\n"


@settings(deadline=None)
@given(st.floats(), st.floats(min_value=0, exclude_min=True), st.integers(0, 2_000))
@example(start=-0.001, period=0.001, count=3)
@example(start=0.0, period=math.inf, count=3)  # NaN at the first send
@example(start=0.0, period=1e299, count=3)  # too large at the last send only
@example(start=-1.0, period=math.inf, count=0)  # no send, so no error
def test_a_periodic_schedule_is_its_send_times_or_a_located_error(start, period, count):
    doc = variant()
    doc["flows"][0]["schedule"] = {"start": start, "period": period, "count": count}
    try:
        expected = [to_ns(start + k * period, "send time") for k in range(count)]
    except ValueError as exc:
        with pytest.raises(ConfigError) as err:
            build_topology(doc)
        assert (err.value.location, err.value.reason) == ("flows.f1.schedule", str(exc))
    else:
        assert build_topology(doc).flows[0].schedule == expected


def test_periodic_schedule_expands():
    doc = variant()
    doc["flows"][0]["schedule"] = {"start": 0.001, "period": 0.002, "count": 3}
    topo = build_topology(doc)
    assert topo.flows[0].schedule == [1_000_000, 3_000_000, 5_000_000]


def test_a_schedule_longer_than_max_sends_is_refused_before_it_is_built(
        tmp_path, capsys, monkeypatch):
    doc = variant()
    doc["flows"][0]["schedule"] = {"period": 0.001, "count": MAX_SENDS + 1}
    converted = []
    monkeypatch.setattr(config, "to_ns", lambda seconds, what: converted.append(what))
    with pytest.raises(ConfigError) as exc:
        checked(doc)
    assert exc.value.location == "flows.f1.schedule.count"
    assert "send time" not in converted  # no send time was computed
    assert simulated_error(tmp_path, capsys, doc) == f"error: {exc.value}\n"


MALFORMED = [
    (("nodes",), [1], "nodes"),
    (("nodes",), 5, "nodes"),
    (("flows",), [1], "flows"),
    (("switches", 0, "ports"), [1], "switches.sw1.ports"),
    (("switches", 0, "legacy_rules"),
     [{"ingress_port": 0, "match_id": 0x100, "egress": 5}],
     "switches.sw1.legacy_rules.0.egress"),
    (("nodes", 0, "static_arp"), [1], "nodes.n1.static_arp"),
    (("nodes", 0), {"name": "n1", "kind": "classic-can", "rx_ids": 5}, "nodes.n1.rx_ids"),
    (("buses", 0, "stations"), 5, "buses.bus1.stations"),
    (("links", 0, "endpoints"), 5, "links.link1.endpoints"),
    (("flows", 0, "schedule"), {"at": "abc"}, "flows.f1.schedule.at"),
    (("flows", 0, "schedule"), {"at": float("inf")}, "flows.f1.schedule.at"),
    (("flows", 0, "schedule"), {"start": float("nan"), "period": 0.001, "count": 2},
     "flows.f1.schedule"),
    (("flows", 0, "schedule"), {"start": "soon", "period": 0.001, "count": 2},
     "flows.f1.schedule.start"),
    (("flows", 0, "schedule"), {"period": "x", "count": 2}, "flows.f1.schedule.period"),
    (("flows", 0, "schedule"), {"period": 0, "count": 2}, "flows.f1.schedule.period"),
    (("flows", 0, "schedule"), {"period": -0.001, "count": 2}, "flows.f1.schedule.period"),
    (("flows", 0, "schedule"), {"period": 0.001, "count": -3}, "flows.f1.schedule.count"),
    (("flows", 0, "schedule"), {"period": 0.001, "count": 2.5}, "flows.f1.schedule.count"),
    (("flows", 0, "schedule"), {"period": 0.001, "count": "abc"}, "flows.f1.schedule.count"),
    # names must be strings: they key the topology's tables
    (("nodes", 0, "name"), [1], "nodes.0.name"),
    (("buses", 0, "name"), [1], "buses.0.name"),
    (("links", 0, "name"), {"a": 1}, "links.0.name"),
    (("switches", 0, "name"), [1], "switches.0.name"),
    (("flows", 0, "name"), [1], "flows.0.name"),
    (("flows", 0, "source"), [1], "flows.f1.source"),
    # booleans are not numbers
    (("flows", 0, "schedule"), {"period": 0.001, "count": True}, "flows.f1.schedule.count"),
    (("flows", 0, "schedule"), {"period": True, "count": 2}, "flows.f1.schedule.period"),
    (("flows", 0, "schedule"), {"at": True}, "flows.f1.schedule.at"),
    (("flows", 0, "payload_size"), True, "flows.f1.payload_size"),
    (("flows", 0, "can_id"), False, "flows.f1.can_id"),
    (("nodes", 0, "can_priority"), True, "nodes.n1.can_priority"),
    (("run", "t_end"), True, "run.t_end"),
    (("nodes", 0, "start_time"), True, "nodes.n1.start_time"),
    (("switches", 0, "bridge_id"), True, "switches.sw1.bridge_id"),
    (("switches", 0, "ageing_time"), True, "switches.sw1.ageing_time"),
    (("switches", 0, "ports", 0, "index"), True, "switches.sw1.ports.0.index"),
    (("switches", 0, "ports", 0, "egress_priority_base"), True,
     "switches.sw1.ports.0.egress_priority_base"),
    (("switches", 0, "legacy_rules"),
     [{"ingress_port": True, "match_id": 0x100, "egress": [{"port": 1, "id": 0x200}]}],
     "switches.sw1.legacy_rules.0.ingress_port"),
    (("switches", 0, "legacy_rules"),
     [{"ingress_port": 0, "match_id": True, "egress": [{"port": 1, "id": 0x200}]}],
     "switches.sw1.legacy_rules.0.match_id"),
    (("switches", 0, "legacy_rules"),
     [{"ingress_port": 0, "match_id": 0x100, "egress": [{"port": 1, "id": True}]}],
     "switches.sw1.legacy_rules.0.egress.0.id"),
    (("switches", 0, "legacy_rules"),
     [{"ingress_port": 0, "match_id": 0x100, "egress": [{"port": "abc", "id": 0x200}]}],
     "switches.sw1.legacy_rules.0.egress.0.port"),
    (("buses", 0, "arb_bitrate"), True, "buses.bus1.arb_bitrate"),
    (("buses", 0, "data_bitrate"), True, "buses.bus1.data_bitrate"),
    (("links", 0, "bitrate"), True, "links.link1.bitrate"),
    # port kind and egress mode are names
    (("switches", 0, "ports", 0, "kind"), [1], "switches.sw1.ports.0.kind"),
    (("switches", 0, "ports", 0, "egress_mode"), [1], "switches.sw1.ports.0.egress_mode"),
    # switches are YAML booleans, not text
    (("run", "startup_gratuitous_arp"), "false", "run.startup_gratuitous_arp"),
    (("run", "seed"), 1.5, "run.seed"),
    # output paths are text
    (("run", "trace"), [1], "run.trace"),
    (("run", "report"), 5, "run.report"),
    # a YAML key need not be text
    (("nodes", 0, 1), 2, "nodes.n1"),
]


# integer fields take YAML integers only: no truncated floats, no whole
# floats, no numbers as text (kept apart so MALFORMED's ids stay unique)
NON_INTEGERS = [
    ("payload_size", ("flows", 0, "payload_size"), 44.9, "flows.f1.payload_size"),
    ("payload_size_whole", ("flows", 0, "payload_size"), 44.0, "flows.f1.payload_size"),
    ("payload_size_text", ("flows", 0, "payload_size"), "44", "flows.f1.payload_size"),
    ("bridge_id", ("switches", 0, "bridge_id"), 1.7, "switches.sw1.bridge_id"),
    ("port_index", ("switches", 0, "ports", 0, "index"), 0.5, "switches.sw1.ports.0.index"),
    ("egress_priority_base", ("switches", 0, "ports", 0, "egress_priority_base"), 1792.5,
     "switches.sw1.ports.0.egress_priority_base"),
    ("can_priority", ("nodes", 0, "can_priority"), 256.5, "nodes.n1.can_priority"),
    ("can_id", ("flows", 0, "can_id"), 256.5, "flows.f1.can_id"),
    ("schedule_count", ("flows", 0, "schedule"), {"period": 0.001, "count": 2.0},
     "flows.f1.schedule.count"),
    ("rx_ids", ("nodes", 0), {"name": "n1", "kind": "classic-can", "rx_ids": [512.5]},
     "nodes.n1.rx_ids"),
    ("legacy_match_id", ("switches", 0, "legacy_rules"),
     [{"ingress_port": 0, "match_id": 256.5, "egress": [{"port": 1, "id": 0x200}]}],
     "switches.sw1.legacy_rules.0.match_id"),
    ("legacy_egress_port", ("switches", 0, "legacy_rules"),
     [{"ingress_port": 0, "match_id": 0x100, "egress": [{"port": 1.5, "id": 0x200}]}],
     "switches.sw1.legacy_rules.0.egress.0.port"),
]


# addresses must be text; an unquoted MAC reads as an integer
UNQUOTED_ADDRESSES = [
    ("mac", ("nodes", 0, "mac"), 7776000001, "nodes.n1.mac"),
    ("ip", ("nodes", 0, "ip"), 167772161, "nodes.n1.ip"),
    ("dst_ip", ("flows", 0, "dst_ip"), 167772162, "flows.f1.dst_ip"),
    ("static_arp_ip", ("nodes", 0, "static_arp"), {167772162: "02:00:00:00:00:02"},
     "nodes.n1.static_arp"),
    ("static_arp_mac", ("nodes", 0, "static_arp"), {"10.0.0.2": 7776000002},
     "nodes.n1.static_arp"),
]


# times and rates are finite, times not negative and small enough to scale:
# `timing.to_ns` rounds times to nanoseconds on a clock that starts at 0, and
# NaN passes any check written as `x < 0`
BAD_TIMES_AND_RATES = [
    ("t_end", ("run", "t_end"), math.inf, "run.t_end"),
    ("t_end_nan", ("run", "t_end"), math.nan, "run.t_end"),
    ("t_end_huge", ("run", "t_end"), 1e300, "run.t_end"),
    ("start_time", ("nodes", 0, "start_time"), math.inf, "nodes.n1"),
    ("start_time_negative", ("nodes", 0, "start_time"), -0.5, "nodes.n1"),
    ("start_time_huge", ("nodes", 0, "start_time"), 1e300, "nodes.n1"),
    ("at_negative", ("flows", 0, "schedule"), {"at": -0.5}, "flows.f1.schedule.at"),
    ("at_huge", ("flows", 0, "schedule"), {"at": 1e300}, "flows.f1.schedule.at"),
    ("start_negative", ("flows", 0, "schedule"), {"start": -0.5, "period": 0.001, "count": 2},
     "flows.f1.schedule"),
    ("eoc_refresh_interval", ("nodes", 0),
     {"name": "n1", "kind": "ioc", "mac": "02:00:00:00:00:01", "ip": "10.0.0.1",
      "eoc_refresh_interval": math.inf}, "nodes.n1"),
    ("arb_bitrate", ("buses", 0, "arb_bitrate"), math.nan, "buses.bus1"),
    ("data_bitrate", ("buses", 0, "data_bitrate"), math.nan, "buses.bus1"),
    ("link_bitrate", ("links", 0, "bitrate"), math.nan, "links.link1"),
    ("data_bitrate_inf", ("buses", 0, "data_bitrate"), math.inf, "buses.bus1"),
    ("link_bitrate_inf", ("links", 0, "bitrate"), math.inf, "links.link1"),
    ("ageing_time", ("switches", 0, "ageing_time"), math.inf, "switches.sw1"),
    ("ageing_time_nan", ("switches", 0, "ageing_time"), math.nan, "switches.sw1"),
    ("ageing_time_negative", ("switches", 0, "ageing_time"), -1, "switches.sw1"),
]


# integers fit the field they go into on the wire (checked on WITH_CLASSIC)
OUT_OF_RANGE = [
    ("bridge_id", ("switches", 0, "bridge_id"), 2**64, "switches.sw1"),
    ("bridge_id_negative", ("switches", 0, "bridge_id"), -1, "switches.sw1"),
    ("can_priority", ("nodes", 0, "can_priority"), 2048, "nodes.n1"),
    ("can_id", ("flows", 1, "can_id"), 2048, "flows.f2"),
    ("rx_ids", ("nodes", 2, "rx_ids"), [2048], "nodes.c1"),
    ("legacy_match_id", ("switches", 0, "legacy_rules"),
     [{"ingress_port": 1, "match_id": 2048, "egress": [{"port": 0, "id": 0x200}]}],
     "switches.sw1.legacy_rules.0"),
]


def edited(path, value, base=MINIMAL):
    """A copy of `base` with the item at `path` set to `value`."""
    doc = copy.deepcopy(base)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def assert_located(path, value, location, base=MINIMAL):
    with pytest.raises(ConfigError) as exc:
        checked(edited(path, value, base))
    assert exc.value.location == location


@pytest.mark.parametrize("path, value, location", MALFORMED,
                         ids=[location for *_, location in MALFORMED])
def test_malformed_input_is_located(path, value, location):
    assert_located(path, value, location)


@pytest.mark.parametrize("path, value, location", [case[1:] for case in UNQUOTED_ADDRESSES],
                         ids=[case[0] for case in UNQUOTED_ADDRESSES])
def test_unquoted_address_is_located(path, value, location):
    assert_located(path, value, location)


@pytest.mark.parametrize("path, value, location", [case[1:] for case in NON_INTEGERS],
                         ids=[case[0] for case in NON_INTEGERS])
def test_non_integer_is_located(path, value, location):
    assert_located(path, value, location)


@pytest.mark.parametrize("path, value, location", [case[1:] for case in BAD_TIMES_AND_RATES],
                         ids=[case[0] for case in BAD_TIMES_AND_RATES])
def test_bad_time_or_rate_is_located(path, value, location):
    assert_located(path, value, location)


# the rows of the tables above that also run through `canxlnet simulate`
SIMULATED_EDITS = [
    *[(location, path, value, location) for path, value, location in MALFORMED
      if location in ("switches.sw1.ports", "switches.sw1.ports.0.kind",
                      "run.startup_gratuitous_arp")],
    *[case for case in UNQUOTED_ADDRESSES + NON_INTEGERS + BAD_TIMES_AND_RATES
      if case[0] in ("mac", "payload_size", "t_end")],
]


@pytest.mark.parametrize("path, value, location", [case[1:] for case in SIMULATED_EDITS],
                         ids=[case[0] for case in SIMULATED_EDITS])
def test_simulate_exits_2_on_a_located_error(tmp_path, capsys, path, value, location):
    err = simulated_error(tmp_path, capsys, edited(path, value))
    assert err.startswith(f"error: {location}: ") and err.count("\n") == 1


# where each time key goes in MINIMAL, and where its error is located
TIME_KEYS = {
    "t_end": (("run", "t_end"), "run.t_end"),
    "start_time": (("nodes", 0, "start_time"), "nodes.n1"),
    "ageing_time": (("switches", 0, "ageing_time"), "switches.sw1"),
    "at": (("flows", 0, "schedule", "at"), "flows.f1.schedule.at"),
    "start": (("flows", 0, "schedule"), "flows.f1.schedule"),
}


@given(st.sampled_from(sorted(TIME_KEYS)), st.floats())
def test_any_time_runs_forward_or_is_located(key, seconds):
    path, location = TIME_KEYS[key]
    value = {"start": seconds, "period": 0.001, "count": 2} if key == "start" else seconds
    try:
        topo = checked(edited(path, value))
    except ConfigError as exc:
        assert exc.location == location
    else:
        assert all(t >= 0 for t in topo.flows[0].schedule)


@pytest.mark.parametrize("key", ["arb_overhead_bits", "data_overhead_bits", "stuff_ratio"])
def test_calibration_is_not_a_bus_key(key):
    # the CAN XL calibration is a set of timing constants
    doc = variant()
    doc["buses"][0][key] = 1
    with pytest.raises(ConfigError, match="unknown keys") as exc:
        checked(doc)
    assert exc.value.location == "buses.bus1"


@pytest.mark.parametrize("path, location", [
    (("nodes", 0, "vcid"), "nodes.n1"),
    (("switches", 0, "ports", 0, "vcid"), "switches.sw1.ports.0"),
], ids=["node", "port"])
def test_vcid_is_not_a_key(path, location):
    # nothing reads a virtual CAN network ID; every CAN XL frame is sent on VCID 0
    with pytest.raises(ConfigError, match="unknown keys: vcid") as exc:
        checked(edited(path, 0))
    assert exc.value.location == location


def test_classic_variant_is_valid():
    topo = checked(WITH_CLASSIC)
    assert topo.nodes["c1"].rx_ids == {0x200} and topo.flows[1].can_id == 0x100


@pytest.mark.parametrize("path, value, location", [case[1:] for case in OUT_OF_RANGE],
                         ids=[case[0] for case in OUT_OF_RANGE])
def test_out_of_range_integer_is_located(path, value, location):
    assert_located(path, value, location, WITH_CLASSIC)


def flow(**fields) -> dict:
    """MINIMAL's flow f1 with `fields` in place of its transport and addresses."""
    return {"name": "f1", "source": "n1", "payload_size": 44, "schedule": {"at": 0.001},
            **fields}


PORT0, PORT1 = MINIMAL["switches"][0]["ports"]
SW1 = MINIMAL["switches"][0]

# What `Topology` refuses once every value parses: (id, base document,
# (path, value) edits, location, reason), one row per refusal.
TOPOLOGY_ERRORS = [
    ("duplicate_node", MINIMAL, [(("nodes",), [*MINIMAL["nodes"], MINIMAL["nodes"][0]])],
     "nodes.n1", "duplicate name"),
    ("duplicate_switch", MINIMAL, [(("switches",), [SW1, SW1])], "switches.sw1",
     "duplicate name"),
    ("switch_named_as_a_node", MINIMAL, [(("switches", 0, "name"), "n1")], "switches.n1",
     "duplicate name"),
    ("node_attached_twice", MINIMAL, [(("buses", 0, "stations"), ["n1", "sw1.p0", "n1"])],
     "nodes.n1", "attached to more than one medium"),
    ("no_such_port", MINIMAL, [(("buses", 0, "stations"), ["n1", "sw1.p0", "sw1.p9"])],
     "switches.sw1", "no port 9"),
    ("port_attached_twice", MINIMAL,
     [(("buses", 0, "stations"), ["n1", "sw1.p0", "sw1.p0"])],
     "switches.sw1.ports.0", "attached to more than one medium"),
    # a bridge MAC holds the low 32 bits of the bridge id
    ("bridge_mac_collision", MINIMAL,
     [(("switches",), [SW1, {"name": "sw2", "bridge_id": 2**32 + 1, "ports": []}])],
     "switches.sw2", "bridge MAC 0a:b1:00:00:00:01 already used by sw1"),
    ("ethernet_host_on_a_bus", MINIMAL,
     [(("links",), []), (("switches", 0, "ports"), [PORT0]),
      (("buses", 0, "stations"), ["n1", "sw1.p0", "h1"])],
     "nodes.h1", "Ethernet hosts attach to links"),
    ("can_node_on_a_link", MINIMAL,
     [(("buses", 0, "stations"), ["sw1.p0"]), (("links", 0, "endpoints"), ["sw1.p1", "n1"])],
     "nodes.n1", "CAN nodes attach to buses"),
    ("unattached_port", MINIMAL,
     [(("switches", 0, "ports"), [PORT0, PORT1, {"index": 2, "kind": "can"}])],
     "switches.sw1.ports.2", "not attached"),
    ("can_port_on_a_link", MINIMAL, [(("switches", 0, "ports", 1, "kind"), "can")],
     "switches.sw1.ports.1", "CAN port wired to an Ethernet link"),
    ("ethernet_port_on_a_bus", MINIMAL,
     [(("switches", 0, "ports"), [PORT0, PORT1, {"index": 2, "kind": "ethernet"}]),
      (("buses", 0, "stations"), ["n1", "sw1.p0", "sw1.p2"])],
     "switches.sw1.ports.2", "Ethernet port wired to a CAN bus"),
    # a switch's ports on one medium would loop its floods: the reduced
    # spanning tree has no port-id tie-break to block one of them
    ("switch_twice_on_a_bus", MINIMAL,
     [(("switches", 0, "ports"), [PORT0, PORT1, {"index": 2, "kind": "can"}]),
      (("buses", 0, "stations"), ["n1", "sw1.p0", "sw1.p2"])],
     "switches.sw1", "attaches ports 0 and 2 to medium bus1"),
    ("switch_on_both_ends_of_a_link", MINIMAL,
     [(("nodes",), MINIMAL["nodes"][:1]),
      (("switches", 0, "ports"), [PORT0, PORT1, {"index": 2, "kind": "ethernet"}]),
      (("links", 0, "endpoints"), ["sw1.p1", "sw1.p2"])],
     "switches.sw1", "attaches ports 1 and 2 to medium link1"),
    ("legacy_rule_unknown_port", MINIMAL,
     [(("switches", 0, "legacy_rules"),
       [{"ingress_port": 9, "match_id": 0x100, "egress": [{"port": 0, "id": 0x200}]}])],
     "switches.sw1.legacy_rules.0", "no port 9"),
    ("legacy_egress_on_an_ethernet_port", MINIMAL,
     [(("switches", 0, "legacy_rules"),
       [{"ingress_port": 0, "match_id": 0x100, "egress": [{"port": 1, "id": 0x200}]}])],
     "switches.sw1.legacy_rules.0", "legacy relay egress must be a CAN port"),
    ("duplicate_flow", MINIMAL, [(("flows",), [*MINIMAL["flows"], MINIMAL["flows"][0]])],
     "flows.f1", "duplicate name"),
    ("unknown_transport", MINIMAL, [(("flows", 0, "transport"), "carrier-pigeon")],
     "flows.f1", "unknown transport 'carrier-pigeon'"),
    ("unknown_source", MINIMAL, [(("flows", 0, "source"), "ghost")], "flows.f1",
     "unknown source node 'ghost'"),
    ("classic_flow_from_a_can_xl_node", MINIMAL,
     [(("flows", 0), flow(transport="classic-can", can_id=0x100, payload_size=8))],
     "flows.f1", "classic-can flows need a classic-can source"),
    ("classic_flow_without_can_id", WITH_CLASSIC,
     [(("flows", 1), flow(name="f2", source="c1", transport="classic-can", payload_size=8))],
     "flows.f2", "classic-can flows need can_id"),
    ("ipv4_flow_without_an_ip", WITH_CLASSIC,
     [(("flows", 1), flow(name="f2", source="c1", transport="ipv4", dst_ip="10.0.0.2"))],
     "flows.f2", "ipv4 flows need a source with an IP address"),
    ("ipv4_payload_above_1480", MINIMAL, [(("flows", 0, "payload_size"), 1481)], "flows.f1",
     "payload_size above 1480"),
    ("raw_flow_from_a_classic_node", WITH_CLASSIC,
     [(("flows", 1), flow(name="f2", source="c1", transport="raw-ethernet",
                          dst_mac="02:00:00:00:00:02"))],
     "flows.f2", "raw-ethernet flows need a MAC-capable source"),
    ("raw_flow_without_dst_mac", MINIMAL, [(("flows", 0), flow(transport="raw-ethernet"))],
     "flows.f1", "raw-ethernet flows need dst_mac"),
    ("raw_payload_above_1500", MINIMAL,
     [(("flows", 0), flow(transport="raw-ethernet", dst_mac="02:00:00:00:00:02",
                          payload_size=1501))],
     "flows.f1", "payload_size above 1500"),
]


def edited_all(base, edits) -> dict:
    """A copy of `base` with each (path, value) of `edits` applied in turn."""
    doc = base
    for path, value in edits:
        doc = edited(path, copy.deepcopy(value), doc)
    return doc


@pytest.mark.parametrize("base, edits, location, reason",
                         [pytest.param(*case[1:], id=case[0]) for case in TOPOLOGY_ERRORS])
def test_topology_error_is_located(base, edits, location, reason):
    with pytest.raises(ConfigError) as exc:
        Simulation(build_topology(edited_all(base, edits)))
    assert (exc.value.location, exc.value.reason) == (location, reason)


# the rows also run through `canxlnet simulate`
SIMULATED = ("duplicate_node", "port_attached_twice", "bridge_mac_collision", "unattached_port",
             "switch_twice_on_a_bus", "duplicate_flow", "raw_payload_above_1500")


@pytest.mark.parametrize("base, edits, location, reason",
                         [pytest.param(*case[1:], id=case[0]) for case in TOPOLOGY_ERRORS
                          if case[0] in SIMULATED])
def test_simulate_exits_2_on_a_topology_error(tmp_path, capsys, base, edits, location, reason):
    assert simulated_error(tmp_path, capsys, edited_all(base, edits)) == \
        f"error: {location}: {reason}\n"


# (id, document, location, reason) of shape and key errors
KEY_ERRORS = [
    ("root_not_a_mapping", [MINIMAL], "<root>", "expected a mapping"),
    ("run_not_a_mapping", edited(("run",), 5), "run", "expected a mapping"),
    ("schedule_not_a_mapping", edited(("flows", 0, "schedule"), 5), "flows.f1.schedule",
     "expected a mapping"),
    ("node_missing_mac", edited(("nodes", 0), {"name": "n1", "kind": "eoc"}), "nodes.n1",
     "missing keys: mac"),
    ("flow_missing_keys", edited(("flows", 0), {"name": "f1", "source": "n1"}), "flows.f1",
     "missing keys: payload_size, schedule, transport"),
    ("unknown_node_kind", edited(("nodes", 0, "kind"), "can-fd"), "nodes.n1",
     "unknown node kind 'can-fd'"),
    ("node_without_kind", edited(("nodes", 0), {"name": "n1", "mac": "02:00:00:00:00:01"}),
     "nodes.n1", "unknown node kind None"),
]


@pytest.mark.parametrize("doc, location, reason", [case[1:] for case in KEY_ERRORS],
                         ids=[case[0] for case in KEY_ERRORS])
def test_key_error_is_located(doc, location, reason):
    with pytest.raises(ConfigError) as exc:
        checked(doc)
    assert (exc.value.location, exc.value.reason) == (location, reason)


def test_simulate_exits_2_on_a_document_that_is_no_mapping(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump([MINIMAL]))
    assert main(["simulate", str(bad)]) == 2
    assert capsys.readouterr().err == "error: <root>: expected a mapping\n"


def test_static_arp_other_than_a_mapping_is_located():
    # `false` or `[]` is not an empty table
    assert_located(("nodes", 0, "static_arp"), False, "nodes.n1.static_arp")


def test_non_decimal_port_digit_is_located():
    # "²" passes str.isdigit() but not int()
    assert_located(("buses", 0, "stations"), ["n1", "sw1.p\u00b2"], "buses.bus1.stations")


def load_root_error(tmp_path, data: bytes) -> str:
    """The reason of the `<root>` error `load_config` gives for a file of `data`."""
    path = tmp_path / "bad.yaml"
    path.write_bytes(data)
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    assert exc.value.location == "<root>"
    return exc.value.reason


def test_yaml_syntax_error_is_located(tmp_path, parser_base):
    # the two parsers word the problem differently; both locate it
    assert load_root_error(tmp_path, b"nodes: [a, b\nflows: {\n").endswith(" at 2:6")


@pytest.mark.parametrize("data, character, position", [
    (b"nodes: \x07\n", "#x07", 7),  # a control character
    (b"nodes: [a\xff]\n", "#xff", 9),  # not UTF-8
    (b"nodes: \xe2\x82", "", 7),  # UTF-8 cut short
], ids=["control_character", "undecodable_byte", "truncated_sequence"])
def test_unreadable_input_is_located(tmp_path, parser_base, data, character, position):
    reason = load_root_error(tmp_path, data)
    assert reason.endswith(f" at position {position}") and character in reason


def test_utf16_file_loads(tmp_path, parser_base):
    path = tmp_path / "utf16.yaml"
    path.write_bytes("run: {t_end: 0.25}\n".encode("utf-16"))
    assert load_config(str(path)).options.t_end == 0.25


def nested(depth: int) -> bytes:
    """`nodes` as a sequence nested so that the document has `depth` levels."""
    return b"nodes: " + b"[" * (depth - 1) + b"]" * (depth - 1) + b"\nrun: {t_end: 1}\n"


def test_nesting_up_to_the_bound_composes(tmp_path, parser_base):
    path = tmp_path / "deep.yaml"
    path.write_bytes(nested(MAX_DEPTH))
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    assert exc.value.location == "nodes"  # past YAML, refused by the schema


def test_nesting_beyond_the_bound_is_located(tmp_path, parser_base):
    for depth in (MAX_DEPTH + 1, MAX_DEPTH + 2):  # at the first collection past the bound
        reason = load_root_error(tmp_path, nested(depth))
        assert reason == f"collections nested deeper than {MAX_DEPTH} levels at 1:{7 + MAX_DEPTH}"


def test_alias_nesting_counts_against_the_bound(tmp_path, parser_base):
    # each alias wraps the previous anchor once more: the text stays 4
    # levels deep, the document does not; the first alias that nests too
    # deep, `*a60` (61 levels) inside `&a61` (4 levels), is located
    chain = "".join(f", &a{i} [*a{i - 1}]" for i in range(1, 2 * MAX_DEPTH))
    data = f"run: {{t_end: 1, trace: [&a0 []{chain}]}}\nnodes: [{{kind: *a{2 * MAX_DEPTH - 1}}}]\n"
    assert data.index(f"&a{MAX_DEPTH - 3} [*a{MAX_DEPTH - 4}]") + 6 == 799
    reason = load_root_error(tmp_path, data.encode())
    assert reason == f"collections nested deeper than {MAX_DEPTH} levels at 1:800"


@pytest.mark.parametrize("data, column", [(b"run: &r [*r]\n", 10),
                                          (b"run: &r {t_end: 1, seed: [*r]}\n", 27),
                                          (b"run: &r {*r : 1}\n", 10)],
                         ids=["sequence", "mapping", "key"])
def test_recursive_alias_is_located(tmp_path, parser_base, data, column):
    # at the alias to a collection still open
    reason = load_root_error(tmp_path, data)
    assert reason == f"collections nested deeper than {MAX_DEPTH} levels at 1:{column}"


def test_shared_anchor_loads(tmp_path, parser_base, built_documents):
    path = tmp_path / "shared.yaml"
    path.write_bytes(b"flows: &none []\nlinks: *none\nrun: {t_end: 0.25}\n")
    assert load_config(str(path)).options.t_end == 0.25
    [doc] = built_documents
    assert doc["links"] is doc["flows"]  # an alias gives its anchor's object, as `yaml.load` does


def test_merge_key_builds_what_its_expansion_builds(tmp_path, parser_base):
    # a `<<: *defaults` key as hand-written configurations use it
    flow = yaml.safe_dump(MINIMAL["flows"][0], default_flow_style=True, sort_keys=False).strip()
    path = tmp_path / "merged.yaml"
    path.write_text(yaml.safe_dump(variant(flows=None), sort_keys=False).replace(
        "flows: null", f"flows:\n- &f1 {flow}\n- {{<<: *f1, name: f2, payload_size: 64}}"))
    expanded = copy.deepcopy(MINIMAL)
    expanded["flows"].append({**MINIMAL["flows"][0], "name": "f2", "payload_size": 64})
    topo = load_config(str(path))
    assert [(f.name, f.payload_size) for f in topo.flows] == [("f1", 44), ("f2", 64)]
    assert topo.flows == checked(expanded).flows


# a document of each error the YAML layer raises besides a syntax error,
# with its reason and where
YAML_ERRORS = {
    "duplicate_anchor": (b"run: &a {t_end: 1}\nx: &a 2\n", "second occurrence at 2:4"),
    "undefined_alias": (b"run: *nope\n", "found undefined alias 'nope' at 1:6"),
    "second_document": (b"run: {t_end: 1}\n---\nrun: {t_end: 2}\n",
                        "but found another document at 2:1"),
    "merge_scalar": (b"run: {<<: 3}\n",
                     "expected a mapping or list of mappings for merging, but found scalar at 1:11"),
    "merge_list_of_scalar": (b"run: {<<: [{t_end: 1}, 2]}\n",
                             "expected a mapping for merging, but found scalar at 1:11"),
    "merge_list_of_list": (b"run: {<<: [{t_end: 1}, [2]]}\n",
                           "expected a mapping for merging, but found sequence at 1:11"),
    "collection_key": (b"run: {{t_end: 1}: 2}\n", "found unhashable key at 1:7"),
    "aliased_collection_key": (b"x: &l [1]\nrun: {*l : 2}\n", "found unhashable key at 2:7"),
    "collection_tag": (b"run: !foo {t_end: 1}\n",
                       "could not determine a constructor for the tag '!foo' at 1:6"),
    "omap_of_items": (b"run: {t_end: 1}\nflows: !!omap [{a: 1}]\n", "could not determine a "
                      "constructor for the tag 'tag:yaml.org,2002:omap' at 2:8"),
    "scalar_tag": (b"run: {t_end: 1, seed: !foo 3}\n",
                   "could not determine a constructor for the tag '!foo' at 1:23"),
    "sequence_tag_on_scalar": (b"run: {t_end: 1, seed: !!seq 3}\n",
                               "expected a sequence node, but found scalar at 1:23"),
    "merge_tag_on_value": (b"run: {t_end: 1, seed: <<}\n",
                           "could not determine a constructor for the tag "
                           "'tag:yaml.org,2002:merge' at 1:23"),
    "unknown_float": (b"run: {t_end: 1, seed: !!float x}\n",
                      "could not convert string to float: 'x' at 1:23"),
}


@pytest.mark.parametrize("data, reason", YAML_ERRORS.values(), ids=YAML_ERRORS)
def test_yaml_error_is_located(tmp_path, parser_base, data, reason):
    assert load_root_error(tmp_path, data) == reason


@pytest.mark.parametrize("data, reason", [
    (b"run: {t_end: 1, seed: !!bool x}\n", "cannot build tag:yaml.org,2002:bool from 'x' at 1:23"),
    (b"run: {t_end: 1, seed: !!int ''}\n", "cannot build tag:yaml.org,2002:int from '' at 1:23"),
    (b"run: {t_end: 1, seed: !!timestamp x}\n",
     "cannot build tag:yaml.org,2002:timestamp from 'x' at 1:23"),
], ids=["bool", "empty_int", "timestamp"])
def test_an_error_outside_pyyaml_s_own_is_located(tmp_path, parser_base, data, reason):
    # PyYAML's constructor raises KeyError, IndexError and AttributeError
    # here, whose texts ('x', "string index out of range") say nothing
    assert load_root_error(tmp_path, data) == reason


def test_unrepresentable_scalar_is_located(tmp_path, parser_base):
    assert load_root_error(tmp_path, b"run: {t_end: 1, seed: 2001-13-45}\n") \
        == "month must be in 1..12 at 1:23"


BAD_DATE = "run: {t_end: 1, seed: 2001-13-45}\n"  # fails at 1:23
LONG_INT = "nodes: " + "1" * 5000 + "\n"  # fails at 2:8 below the date, 1:8 above it


@pytest.mark.parametrize("text, reason", [
    (BAD_DATE + LONG_INT, "month must be in 1..12 at 1:23"),
    (LONG_INT + BAD_DATE, "Exceeds the limit (4300 digits) for integer string conversion: "
                          "value has 5000 digits; use sys.set_int_max_str_digits() to increase "
                          "the limit at 1:8"),
    ("run: {<<: 2001-13-45}\n",
     "expected a mapping or list of mappings for merging, but found scalar at 1:11"),
], ids=["date_first", "integer_first", "merge_beats_its_value"])
def test_the_construction_error_marked_first_is_raised(tmp_path, parser_base, text, reason):
    # however deep each stands; a merge error wins over an error at its mark
    assert load_root_error(tmp_path, text.encode()) == reason


def test_a_syntax_error_is_located_before_a_scalar_error_above_it(tmp_path, parser_base):
    # the date fails to build at 1:23, but the composer meets the syntax
    # error first: the file is parsed whole before any scalar is built
    data = b"run: {t_end: 1, seed: 2001-13-45}\nnodes: [a, b\nflows: {\n"
    reason = load_root_error(tmp_path, data)
    assert reason == {"LOADER": "did not find expected ',' or ']' at 3:6",
                      "PURE_PYTHON_LOADER": "expected ',' or ']', but got ':' at 3:6"}[parser_base]


@pytest.fixture
def built_documents(monkeypatch) -> list:
    """Each document `load_config` hands to `build_topology`, in order."""
    return recorder(monkeypatch, [config], "build_topology", lambda doc: doc)


def typed(value):
    """`value` with each scalar's type beside it and each mapping as its list
    of items, so that `True` differs from `1` and key order counts."""
    if isinstance(value, dict):
        return dict, [(typed(k), typed(v)) for k, v in value.items()]
    if isinstance(value, list):
        return list, [typed(v) for v in value]
    if value != value:  # NaN, which equals no value, itself included
        return type(value), "NaN"
    return type(value), value


def reference_load(data, loader: type | None = None):
    """What `yaml.load` gives for `data` with PyYAML's pure-Python composer
    over `loader` (`config.LOADER` by default): the node graph that
    `load_config` does without, built as PyYAML builds it.  libyaml's own
    composer (`yaml.CSafeLoader`) words its errors otherwise.  The composer
    refuses a collection nested deeper than `MAX_DEPTH` levels in the text,
    at its start; levels an alias brings along are not counted, and no
    document compared here nests that deep through an alias."""
    base = loader or config.LOADER
    # `yaml.SafeLoader` is pure Python throughout
    bases = (base,) if issubclass(base, Composer) else (Composer, base)

    class Reference(*bases):
        def __init__(self, stream):
            base.__init__(self, stream)
            Composer.__init__(self)
            self.depth = 0

        def compose_sequence_node(self, anchor):
            return self.bounded(Composer.compose_sequence_node, anchor)

        def compose_mapping_node(self, anchor):
            return self.bounded(Composer.compose_mapping_node, anchor)

        def bounded(self, compose, anchor):
            self.depth += 1
            try:
                if self.depth > MAX_DEPTH:
                    raise ComposerError(None, None, f"collections nested deeper than {MAX_DEPTH}"
                                        " levels", self.peek_event().start_mark)
                return compose(self, anchor)
            finally:
                self.depth -= 1
    return yaml.load(data, Loader=Reference)


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                    st.text(max_size=6), st.dates())
KEYS = st.one_of(st.sampled_from([1, "1", "yes", "~", "", "<<", "="]), SCALARS)

def collections(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4)


TREES = st.recursive(SCALARS, collections, max_leaves=16)
# trees in which one collection stands at several places, so that
# `safe_dump` writes it once with an `&id001` anchor and then as `*id001`
SHARED = collections(TREES).flatmap(lambda shared: st.recursive(
    st.booleans().flatmap(lambda alias: st.just(shared) if alias else SCALARS), collections,
    max_leaves=8).map(lambda tree: [tree, shared]))

# a document of each form beyond plain scalars and collections
FORMS = {
    "anchor": b"flows: &none []\nrun: {t_end: 1}\n",
    "scalar_anchor": b"run: {t_end: &t 1, seed: *t}\n",
    "alias": b"run: *undefined\n",
    "tag": b"run: {t_end: 1, seed: !!str 7}\n",
    "non_specific_tag": b"run: {t_end: 1, seed: ! 7}\n",
    "collection_tag": b"run: !!map {t_end: 1}\nflows: !!seq []\n",
    "empty_omap": b"run: {t_end: 1}\nflows: !!omap []\nlinks: !!pairs []\n",
    "tagged_merge_source": b"run: {<<: !foo {t_end: 1}}\n",
    "tagged_merge_source_held": b"x: &b !foo {t_end: 1}\nrun: {<<: *b}\n",
    "merge_key": b"run: {<<: {t_end: 1}, seed: 2}\n",
    "merge_keys": b"run: {<<: {t_end: 1}, seed: 2, <<: [{t_end: 3, trace: q}, {report: r}]}\n",
    "merge_tag": b"run: {!!merge <<: {t_end: 1}, !!str <<: 2}\n",
    "aliased_merge_key": b"run: {t_end: 1, &m <<: {seed: 2}}\nflows: [{*m : {a: 1}}, *m]\n",
    "value_key": b"run: {t_end: 1, =: 2}\n",
    "aliased_value_key": b"x: &v =\nrun: {t_end: 1, *v : 2}\n",
    "value_scalar": b"run: {t_end: 1, seed: =}\n",
    "collection_key": b"run: {{t_end: 1}: 2}\n",
    "anchored_key": b"run: {&k [1]: 2, t_end: 1}\nx: *k\n",
    "second_document": b"run: {t_end: 1}\n---\nrun: {t_end: 2}\n",
    "syntax_error_after_a_bad_merge": b"run: {<<: 3}\nnodes: [a, b\nflows: {\n",
}
# the two deepest documents that build and the two shallowest that nest too deep
DEPTHS = {f"depth_{depth}": nested(depth) for depth in range(MAX_DEPTH - 1, MAX_DEPTH + 3)}
# merge keys as https://yaml.org/type/merge.html has them
MERGES = {
    "mapping": b"base: &b {t_end: 1, seed: 2}\nrun: {<<: *b, trace: t}\n",
    "list_of_mappings": b"a: &a {t_end: 1, seed: 2}\nb: &b {seed: 3, trace: t}\n"
                        b"run: {<<: [*a, *b], report: r}\n",
    "own_key_overrides": b"base: &b {t_end: 1, seed: 2}\nrun: {seed: 5, <<: *b, t_end: 3}\n",
    "alias_of_a_merging_mapping": b"a: &a {t_end: 1, seed: 2}\nb: &b {<<: *a, seed: 3}\n"
                                  b"run: {<<: *b, trace: t}\n",
}


def dumped(tree, flow: bool) -> bytes:
    return yaml.safe_dump(tree, default_flow_style=flow, sort_keys=False).encode()


def assert_builds_the_composers_document(tmp_path, docs: list, data: bytes) -> None:
    """`load_config` hands `build_topology` (recorded in `docs`) what
    `reference_load` gives for `data`, scalar types and key order included,
    or, if that fails, gives the same `<root>` error."""
    docs.clear()
    try:
        expected = reference_load(data)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        assert load_root_error(tmp_path, data) \
            == f"{exc.problem} at {mark.line + 1}:{mark.column + 1}"
        return
    path = tmp_path / "doc.yaml"
    path.write_bytes(data)
    with contextlib.suppress(ConfigError):  # most generated documents are no topology
        load_config(str(path))
    assert [typed(doc) for doc in docs] == [typed(expected if expected is not None else {})]


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.builds(dumped, TREES | SHARED, st.booleans()))
@example(data=b"")
@example(data=b"--- 1\n...\n")
@example(data=b"%YAML 1.1\n--- {run: {t_end: 1}}\n")
def test_load_config_builds_the_composers_document(tmp_path, parser_base, built_documents, data):
    assert_builds_the_composers_document(tmp_path, built_documents, data)


@pytest.mark.parametrize("data", [*FORMS.values(), *DEPTHS.values(), *MERGES.values()],
                         ids=[*FORMS, *DEPTHS, *(f"merge_{name}" for name in MERGES)])
def test_a_document_at_an_edge_loads_as_the_composer_gives_it(
        tmp_path, parser_base, built_documents, data):
    assert_builds_the_composers_document(tmp_path, built_documents, data)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
@pytest.mark.parametrize("name", [path.stem for path in all_scenarios()]
                         + sorted(workloads.GENERATORS))
def test_parser_bases_give_equal_documents(name, tmp_path, monkeypatch, built_documents):
    path = SCENARIOS / f"{name}.yaml"
    if name in workloads.GENERATORS:
        path = tmp_path / f"{name}.yaml"
        path.write_text(workload_yaml(name))
    text = path.read_text()
    libyaml, python = (reference_load(text, loader)
                       for loader in (config.LOADER, config.PURE_PYTHON_LOADER))
    for loader in (config.LOADER, config.PURE_PYTHON_LOADER):
        monkeypatch.setattr(config, "LOADER", loader)
        load_config(str(path))
    assert libyaml == python == yaml.safe_load(text)
    assert [typed(doc) for doc in built_documents] == [typed(libyaml)] * 2
    assert libyaml


def built(doc) -> dict:
    """What `doc` builds, as values that compare equal when built alike."""
    topo = checked(doc)
    return {
        "run": topo.options,
        "nodes": {name: {k: v for k, v in vars(node).items() if k not in ("medium", "queue")}
                  for name, node in topo.nodes.items()},
        "switches": {name: (sw.ports, sw.legacy_rules, sw.efdb.ageing_ns)
                     for name, sw in topo.switches.items()},
        "media": {name: medium.params for name, medium in topo.media.items()},
    }


def test_omitted_keys_keep_their_defaults():
    omitted = copy.deepcopy(WITH_CLASSIC)
    omitted["nodes"][0]["kind"] = "ioc"
    spelled = copy.deepcopy(omitted)
    spelled["nodes"][0].update(start_time=0.0, static_arp={}, can_priority=0x100)
    spelled["nodes"][2]["start_time"] = 0.0
    spelled["switches"][0].update(ageing_time=300, legacy_rules=[])
    spelled["switches"][0]["ports"][0].update(egress_mode="eoc", egress_priority_base=0x700)
    spelled["run"].update(seed=0, startup_gratuitous_arp=True, trace=None, report=None)
    assert built(omitted) == built(spelled)


def test_integer_fields_take_yaml_integers():
    doc = variant()
    doc["flows"][0]["payload_size"] = 44
    doc["switches"][0]["bridge_id"] = 0x10
    topo = build_topology(doc)
    assert topo.flows[0].payload_size == 44
    assert topo.switches["sw1"].bridge_id == 16


def test_startup_gratuitous_arp_takes_a_yaml_boolean():
    topo = build_topology(variant(run={"t_end": 0.01, "startup_gratuitous_arp": False}))
    assert topo.options.startup_gratuitous_arp is False


def test_negative_t_end_rejected():
    doc = variant(run={"t_end": -1})
    with pytest.raises(ConfigError, match="t_end"):
        checked(doc)


def test_legacy_rule_egress_must_be_can_port():
    doc = variant()
    doc["switches"][0]["legacy_rules"] = [
        {"ingress_port": 0, "match_id": 0x100, "egress": [{"port": 1, "id": 0x200}]},
    ]
    with pytest.raises(ConfigError, match="CAN port"):
        checked(doc)


def test_bad_mac_text():
    doc = variant()
    doc["nodes"][0]["mac"] = "02:00"
    with pytest.raises(ConfigError, match="bad MAC"):
        checked(doc)


def test_null_refresh_interval_enables_stock_default():
    doc = variant()
    doc["nodes"][0]["kind"] = "ioc"
    doc["nodes"][0]["eoc_refresh_interval"] = None
    topo = build_topology(doc)
    assert topo.nodes["n1"].eoc_refresh_interval_ns == 60 * 10**9


def test_refresh_interval_value_kept():
    doc = variant()
    doc["nodes"][0]["kind"] = "ioc"
    doc["nodes"][0]["eoc_refresh_interval"] = 2.5
    topo = build_topology(doc)
    assert topo.nodes["n1"].eoc_refresh_interval_ns == 2_500_000_000


# YAML 1.1's implicit forms (https://yaml.org/type/) and the schema's names
YAML11_FORMS = ["~", "null", "Null", "NULL", "", "yes", "No", "ON", "off", "True", "0x1F", "0o17",
                "017", "0b101", "1_000", "+1", "-0", "1:30", "190:20:30.15", ".inf", "-.Inf",
                ".NaN", "1e3", "6.8523015e+5", "2001-12-14", "2001-12-14t21:59:43.10-05:00",
                "<<", "=", "n1", "sw1.p0", "10.0.0.1"]
TOKENS = st.sampled_from(YAML11_FORMS) \
    | st.text(string.ascii_letters + string.digits + ".:-_", max_size=8)


def written(token: str, plain: bool, key: bool) -> str:
    """`token` as a key or a value of a block mapping: plain if `plain` and
    YAML reads it back as that plain scalar, else single-quoted."""
    line = f"{token}: v\n" if key else f"k: {token}\n"
    read = [(token, True), ("v", True)] if key else [("k", True), (token, True)]
    with contextlib.suppress(yaml.YAMLError):
        if plain and read == [(event.value, event.implicit[0]) for event in yaml.parse(line)
                              if isinstance(event, yaml.ScalarEvent)]:
            return token
    return f"'{token}'"


def with_wildcard(loader: type) -> type:
    """`loader` with one more implicit type, tried after those of a
    scalar's first character: a plain lower-case word is a `("word", text)`."""
    class Wildcard(loader):
        pass

    Wildcard.add_implicit_resolver("!word", re.compile(r"^[a-z]+$"), None)
    Wildcard.add_constructor("!word", lambda loader, node: ("word", node.value))
    return Wildcard


@pytest.fixture(params=[False, True], ids=["safe", "wildcard"])
def implicit_types(request, parser_base, monkeypatch):
    """The installed loader, with a wildcard implicit type or without."""
    if request.param:
        monkeypatch.setattr(config, "LOADER", with_wildcard(config.LOADER))


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(TOKENS, st.booleans(), TOKENS, st.booleans()), min_size=1,
                max_size=8))
def test_a_plain_scalar_builds_what_the_composer_builds(
        tmp_path, implicit_types, built_documents, pairs):
    data = "".join(f"{written(key, plain_key, True)}: {written(value, plain_value, False)}\n"
                   for key, plain_key, value, plain_value in pairs)
    assert_builds_the_composers_document(tmp_path, built_documents, data.encode())


KEY_VALUE = re.compile(r"^ *(?:- )?\w+: (\S.*)$", re.MULTILINE)  # a block mapping's line
HOSTILE = st.sampled_from(["[]", "{}", "[1, 2]", "{a: 1}"]) | TOKENS


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(all_scenarios()), st.integers(min_value=0), HOSTILE)
def test_a_hostile_value_in_a_scenario_is_located_or_runs(tmp_path, path, n, value):
    text = path.read_text()
    lines = list(KEY_VALUE.finditer(text))
    line = lines[n % len(lines)]
    hostile = tmp_path / "hostile.yaml"
    hostile.write_text(text[:line.start(1)] + value + text[line.end(1):])
    with contextlib.suppress(ConfigError, FrameError):
        topo = load_config(str(hostile))
        # read when the simulation is built; a large t_end would run STP hellos that long
        topo.options.t_end = min(topo.options.t_end, 0.05)
        Simulation(topo).run()
