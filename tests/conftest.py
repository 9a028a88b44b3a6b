import importlib.util
import json
import pathlib

import pytest
import yaml

from canxlnet import config, nodes
from canxlnet.engine import Simulation, SwitchPortRef
from canxlnet.frames import IPV4_DF, Ipv4Address, Ipv4Datagram, MacAddress

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = REPO_ROOT / "scenarios"
PERFBENCH = REPO_ROOT / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())

_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# parser base -> the `canxlnet.config` loader built on it
PARSER_BASES = {"libyaml": "LOADER", "python": "PURE_PYTHON_LOADER"}


@pytest.fixture
def scenario_path():
    def get(name: str) -> str:
        return str(SCENARIOS / f"{name}.yaml")
    return get


@pytest.fixture(params=sorted(PARSER_BASES))
def parser_base(request, monkeypatch) -> str:
    """Runs a test once per parser `config.load_config` can be built on and
    returns the name of the loader it installed as `config.LOADER`."""
    if request.param == "libyaml" and not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without libyaml")
    name = PARSER_BASES[request.param]
    monkeypatch.setattr(config, "LOADER", getattr(config, name))
    return name


def all_scenarios() -> list[pathlib.Path]:
    return sorted(SCENARIOS.glob("*.yaml"))


def workload_yaml(name: str) -> str:
    """Synthetic workload `name` at its recorded seed, written as perfbench writes it."""
    return yaml.safe_dump(workloads.GENERATORS[name](DIGESTS[name]["seed"]), sort_keys=False)


def mac(n: int) -> MacAddress:
    return MacAddress(b"\x02\x00\x00\x00\x00" + bytes([n]))


def ip(n: int) -> Ipv4Address:
    return Ipv4Address.parse(f"10.0.0.{n}")


def compact_dgram(src: Ipv4Address, dst: Ipv4Address, payload: bytes, **fields) -> Ipv4Datagram:
    """The datagram a compact frame decodes to: DF set, identification 0, no options."""
    return Ipv4Datagram(src, dst, payload, flags=IPV4_DF, **fields)


def events(trace: str, kind: str) -> list[dict]:
    """The records of `trace` whose event is `kind`, in order."""
    return [r for r in map(json.loads, trace.splitlines()) if r["event"] == kind]


# The classes that define `on_receive`: every station's is one of theirs.
RECEIVERS = (nodes.Node, nodes.EocNode, nodes.ClassicCanNode, SwitchPortRef)


def recorder(monkeypatch, classes, name: str, note) -> list:
    """Patch method `name` of each of `classes` to append `note(self,
    *args)` to the returned list, then run as before."""
    seen = []
    for cls in classes:
        def recording(owner, *args, original=cls.__dict__[name]):
            seen.append(note(owner, *args))
            return original(owner, *args)

        monkeypatch.setattr(cls, name, recording)
    return seen


def receptions(monkeypatch, note=lambda station, sim, frame, rx: (station, frame, rx)) -> list:
    """What `note` makes of each station's `on_receive` call, in call
    order: by default (station, frame, the decoded value it gets)."""
    return recorder(monkeypatch, RECEIVERS, "on_receive", note)


def transmissions(monkeypatch) -> list:
    """(station, frame) of each transmission `Simulation.on_tx_start`
    starts, in order."""
    return recorder(monkeypatch, [Simulation], "on_tx_start",
                    lambda sim, station, frame, *_: (station, frame))
