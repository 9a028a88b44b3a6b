"""Declarative topology configuration (YAML).

Schema (unknown keys are rejected; every error names its location):

    nodes:
      - name: n1
        kind: eoc                 # ethernet-host | eoc | ioc | classic-can
        mac: "02:00:00:00:00:01"
        ip: "10.0.0.1"            # optional
        start_time: 0.0           # seconds, optional
        static_arp: {"10.0.0.2": "02:00:00:00:00:02"}   # optional
        can_priority: 0x100       # CAN node kinds, optional
        vcid: 0                   # CAN node kinds, optional
        eoc_refresh_interval: 60  # ioc kind, optional (seconds)
        rx_ids: [0x200]           # classic-can kind
    buses:
      - name: bus1
        arb_bitrate: 500000
        data_bitrate: 16000000
        arb_overhead_bits: 34     # optional calibration overrides
        data_overhead_bits: 168
        stuff_ratio: 0.1
        stations: [n1, sw1.p0]    # node names or <switch>.p<index>
    links:
      - name: link1
        bitrate: 10000000
        endpoints: [h1, sw1.p1]
    switches:
      - name: sw1
        bridge_id: 1
        ageing_time: 300          # optional (seconds)
        ports:
          - {index: 0, kind: can, egress_mode: eoc, egress_priority_base: 0x700, vcid: 0}
          - {index: 1, kind: ethernet}
        legacy_rules:             # optional
          - {ingress_port: 0, match_id: 0x100, egress: [{port: 1, id: 0x200}]}
    flows:
      - name: f1
        source: n1
        transport: ipv4           # raw-ethernet | ipv4 | classic-can
        payload_size: 44
        dst_ip: "10.0.0.2"        # / dst_mac / can_id per transport
        schedule: {at: 0.001}     # or {start: 0, period: 0.01, count: 5}
    run:
      t_end: 0.1                  # seconds
      seed: 0                     # optional, recorded in the report
      startup_gratuitous_arp: true
      trace: out/trace.jsonl      # optional default output paths
      report: out/report.json

Loading: `load_config` parses with libyaml's C parser where PyYAML was
built with it (`yaml.__with_libyaml__`), else with PyYAML's pure-Python
parser, and composes and constructs in Python with PyYAML's safe
constructor.  The composer refuses collections nested more than
`MAX_DEPTH` levels deep (the schema needs 7), counting the levels an alias
brings along, so no document can exhaust the stack.  Every error of the
YAML layer, an unreadable character or byte included, is a `ConfigError`
at `<root>` with its position.
"""

from __future__ import annotations

import itertools
import operator

import yaml
from yaml.composer import Composer, ComposerError
from yaml.constructor import ConstructorError, SafeConstructor
from yaml.parser import Parser
from yaml.reader import Reader, ReaderError
from yaml.resolver import Resolver
from yaml.scanner import Scanner

from .engine import ConfigError, Flow, RunOptions, Topology
from .frames import Ipv4Address, MacAddress
from .nodes import (
    DEFAULT_EOC_REFRESH_S,
    ClassicCanNode,
    EocNode,
    EthernetHost,
    IocNode,
)
from .switch import (
    CAN_XL,
    EGRESS_EOC,
    EGRESS_IOC_PREFERRED,
    ETH,
    CSwitch,
    DEFAULT_AGEING_S,
    LegacyRelayRule,
    PortConfig,
)
from .timing import CanXlTimingParams, EthernetTimingParams

_PORT_KINDS = {"can": CAN_XL, "ethernet": ETH}
_EGRESS_MODES = {"eoc": EGRESS_EOC, "ioc-preferred": EGRESS_IOC_PREFERRED}
_ITEM_NAMES = {dict: " of mappings", str: " of names", object: ""}


def _list(value, loc: str, item: type = dict) -> list:
    if value is None:
        return []
    if not isinstance(value, list) or not all(isinstance(v, item) for v in value):
        raise ConfigError(loc, f"expected a list{_ITEM_NAMES[item]}")
    return value


def _check_keys(mapping: dict, loc: str, required: set, optional: set) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(loc, "expected a mapping")
    unknown = set(mapping) - required - optional
    if unknown:
        raise ConfigError(loc, f"unknown keys: {', '.join(sorted(unknown))}")
    missing = required - set(mapping)
    if missing:
        raise ConfigError(loc, f"missing keys: {', '.join(sorted(missing))}")


def _parse(loc: str, parser, value):
    if isinstance(value, bool):  # YAML booleans are ints to Python
        raise ConfigError(loc, f"unexpected boolean {str(value).lower()}")
    try:
        return parser(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(loc, str(exc)) from exc


def _int(loc: str, value) -> int:
    """An integer field: a YAML integer, not 44.9, 44.0 or the text "44"."""
    return _parse(loc, operator.index, value)


def _make(loc: str, cls, **fields):
    """Construct `cls`, locating the checks its constructor makes."""
    return _parse(loc, lambda kw: cls(**kw), fields)


def _choice(loc: str, what: str, table: dict, value):
    """`table[value]` for a text key of `table`."""
    if not isinstance(value, str) or value not in table:
        raise ConfigError(loc, f"unknown {what} {value!r}")
    return table[value]


def _name(loc: str, value) -> str:
    """Names key the topology's tables and appear in locations."""
    if not isinstance(value, str):
        raise ConfigError(loc, f"expected a name, got {value!r}")
    return value


def _path(loc: str, value) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ConfigError(loc, f"expected a file path, got {value!r}")
    return value


def _loc(section: str, spec: dict, index: int) -> str:
    """Where an item's errors are reported: its name, else its index."""
    if "name" not in spec:
        return f"{section}.{index}"
    return f"{section}.{_name(f'{section}.{index}.name', spec['name'])}"


MAX_DEPTH = 64  # collection nesting levels a document may have


class _DepthBound(Composer):
    """PyYAML's composer, refusing collections nested deeper than MAX_DEPTH.

    Composing recurses once per level, so each level is counted before it is
    entered.  An alias nests its anchor's whole height where it stands, and
    an alias to a collection that encloses it nests without end: once a
    document has anchors, each collection records its height and the bound
    is checked against it.
    """

    depth = 0

    def compose_sequence_node(self, anchor):
        self._enter()
        node = super().compose_sequence_node(anchor)
        return self._leave(node, node.value)

    def compose_mapping_node(self, anchor):
        self._enter()
        node = super().compose_mapping_node(anchor)
        return self._leave(node, itertools.chain.from_iterable(node.value))

    def _enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            _too_deep(self.peek_event().start_mark)

    def _leave(self, node, children):
        self.depth -= 1
        if self.anchors:
            height = 0
            for child in children:
                if child is node or child.end_mark is None:  # an alias to itself or
                    _too_deep(node.start_mark)                # to a node still open
                height = max(height, getattr(child, "height", 0))
            node.height = height + 1
            if self.depth + node.height > MAX_DEPTH:
                _too_deep(node.start_mark)
        return node


def _too_deep(mark):
    raise ComposerError(None, None, f"collections nested deeper than {MAX_DEPTH} levels", mark)


def _located(construct):
    """`construct`, with a ValueError located at the scalar's mark."""
    def located(constructor, node):
        try:
            return construct(constructor, node)
        except ValueError as exc:
            raise ConstructorError(None, None, str(exc), node.start_mark) from None
    return located


class _Constructor(SafeConstructor):
    """PyYAML's safe constructor; an integer too long to convert or a date
    out of range is a located error."""


for _tag in ("tag:yaml.org,2002:int", "tag:yaml.org,2002:timestamp"):
    _Constructor.add_constructor(_tag, _located(SafeConstructor.yaml_constructors[_tag]))


class _PurePythonParser(Reader, Scanner, Parser):
    def __init__(self, stream):
        Reader.__init__(self, stream)
        Scanner.__init__(self)
        Parser.__init__(self)


def _loader(parser: type) -> type:
    class Loader(_DepthBound, parser, _Constructor, Resolver):
        def __init__(self, stream):
            parser.__init__(self, stream)
            Composer.__init__(self)
            _Constructor.__init__(self)
            Resolver.__init__(self)
    return Loader


PURE_PYTHON_LOADER = _loader(_PurePythonParser)
# libyaml's parser makes set-up about five times faster
LOADER = _loader(yaml.cyaml.CParser) if yaml.__with_libyaml__ else PURE_PYTHON_LOADER


def load_config(path: str) -> Topology:
    with open(path, "rb") as fh:  # bytes, so that PyYAML decodes and locates them
        try:
            doc = yaml.load(fh, Loader=LOADER)
        except yaml.MarkedYAMLError as exc:
            mark = exc.problem_mark
            raise ConfigError("<root>", f"{exc.problem} at {mark.line + 1}:{mark.column + 1}") \
                from None
        except ReaderError as exc:  # libyaml gives -1 for a sequence cut short
            what = f" (#x{exc.character:02x})" if exc.character >= 0 else ""
            raise ConfigError("<root>", f"{exc.reason}{what} at position {exc.position}") \
                from None
    return build_topology(doc if doc is not None else {})


def build_topology(doc: dict) -> Topology:
    """The topology `doc` describes; `Simulation` validates it before a run."""
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "expected a mapping")
    _check_keys(doc, "<root>", set(),
                {"nodes", "buses", "links", "switches", "flows", "run"})

    topo = Topology(options=_build_run(doc.get("run", {})))
    for i, spec in enumerate(_list(doc.get("nodes"), "nodes")):
        topo.add_node(_build_node(spec, _loc("nodes", spec, i)))
    for i, spec in enumerate(_list(doc.get("switches"), "switches")):
        topo.add_switch(_build_switch(spec, _loc("switches", spec, i)))
    for i, spec in enumerate(_list(doc.get("buses"), "buses")):
        _build_bus(topo, spec, _loc("buses", spec, i))
    for i, spec in enumerate(_list(doc.get("links"), "links")):
        _build_link(topo, spec, _loc("links", spec, i))
    for i, spec in enumerate(_list(doc.get("flows"), "flows")):
        topo.flows.append(_build_flow(spec, _loc("flows", spec, i)))
    return topo


def _build_run(spec: dict) -> RunOptions:
    _check_keys(spec, "run", {"t_end"},
                {"seed", "startup_gratuitous_arp", "trace", "report"})
    announce = spec.get("startup_gratuitous_arp", True)
    if not isinstance(announce, bool):  # the text "false" would read as true
        raise ConfigError("run.startup_gratuitous_arp",
                          f"expected true or false, got {announce!r}")
    return RunOptions(
        t_end=_parse("run.t_end", float, spec["t_end"]),
        seed=_int("run.seed", spec.get("seed", 0)),
        startup_gratuitous_arp=announce,
        trace_path=_path("run.trace", spec.get("trace")),
        report_path=_path("run.report", spec.get("report")),
    )


def _build_node(spec: dict, loc: str):
    kind = spec.get("kind")
    common = {"name", "kind", "start_time"}
    if kind == "classic-can":
        _check_keys(spec, loc, {"name", "kind"}, {"rx_ids", "start_time"})
        return _make(
            loc, ClassicCanNode,
            name=spec["name"],
            rx_ids=[_int(f"{loc}.rx_ids", v)
                    for v in _list(spec.get("rx_ids"), f"{loc}.rx_ids", object)],
            start_time=_parse(f"{loc}.start_time", float, spec.get("start_time", 0.0)),
        )
    addressed = common | {"mac", "ip", "static_arp"}
    can_extra = {"can_priority", "vcid"}
    if kind == "ethernet-host":
        _check_keys(spec, loc, {"name", "kind", "mac"}, addressed)
        cls, extra = EthernetHost, {}
    elif kind == "eoc":
        _check_keys(spec, loc, {"name", "kind", "mac"}, addressed | can_extra)
        cls, extra = EocNode, _can_args(spec, loc)
    elif kind == "ioc":
        _check_keys(spec, loc, {"name", "kind", "mac"},
                    addressed | can_extra | {"eoc_refresh_interval"})
        cls, extra = IocNode, _can_args(spec, loc)
        if "eoc_refresh_interval" in spec:
            # present-but-null enables the refresh at the stock interval
            value = spec["eoc_refresh_interval"]
            extra["eoc_refresh_interval"] = (
                DEFAULT_EOC_REFRESH_S if value is None
                else _parse(f"{loc}.eoc_refresh_interval", float, value))
    else:
        raise ConfigError(loc, f"unknown node kind {kind!r}")
    static_arp = {}
    arp_spec = spec.get("static_arp") or {}
    if not isinstance(arp_spec, dict):
        raise ConfigError(f"{loc}.static_arp", "expected a mapping")
    for ip_text, mac_text in arp_spec.items():
        static_arp[_parse(f"{loc}.static_arp", Ipv4Address.parse, ip_text)] = \
            _parse(f"{loc}.static_arp", MacAddress.parse, mac_text)
    return _make(
        loc, cls,
        name=spec["name"],
        mac=_parse(f"{loc}.mac", MacAddress.parse, spec["mac"]),
        ip=_parse(f"{loc}.ip", Ipv4Address.parse, spec["ip"]) if "ip" in spec else None,
        start_time=_parse(f"{loc}.start_time", float, spec.get("start_time", 0.0)),
        static_arp=static_arp,
        **extra,
    )


def _can_args(spec: dict, loc: str) -> dict:
    return {
        "can_priority": _int(f"{loc}.can_priority", spec.get("can_priority", 0x100)),
        "vcid": _int(f"{loc}.vcid", spec.get("vcid", 0)),
    }


def _build_switch(spec: dict, loc: str) -> CSwitch:
    _check_keys(spec, loc, {"name", "bridge_id", "ports"}, {"legacy_rules", "ageing_time"})
    ports = []
    for pn, pspec in enumerate(_list(spec["ports"], f"{loc}.ports")):
        _check_keys(pspec, f"{loc}.ports.{pn}", {"index", "kind"},
                    {"egress_mode", "egress_priority_base", "vcid"})
        index = _int(f"{loc}.ports.{pn}.index", pspec["index"])
        ploc = f"{loc}.ports.{index}"
        ports.append(_make(
            ploc, PortConfig,
            index=index,
            kind=_choice(f"{ploc}.kind", "port kind", _PORT_KINDS, pspec["kind"]),
            egress_mode=_choice(f"{ploc}.egress_mode", "egress mode", _EGRESS_MODES,
                                pspec.get("egress_mode", "eoc")),
            egress_priority_base=_int(f"{ploc}.egress_priority_base",
                                      pspec.get("egress_priority_base", 0x700)),
            vcid=_int(f"{ploc}.vcid", pspec.get("vcid", 0)),
        ))
    rules = []
    for rn, rspec in enumerate(_list(spec.get("legacy_rules"), f"{loc}.legacy_rules")):
        rloc = f"{loc}.legacy_rules.{rn}"
        _check_keys(rspec, rloc, {"ingress_port", "match_id", "egress"}, set())
        egress = []
        for en, espec in enumerate(_list(rspec["egress"], f"{rloc}.egress")):
            eloc = f"{rloc}.egress.{en}"
            _check_keys(espec, eloc, {"port", "id"}, set())
            egress.append((_int(f"{eloc}.port", espec["port"]),
                           _int(f"{eloc}.id", espec["id"])))
        rules.append(_make(
            rloc, LegacyRelayRule,
            ingress_port=_int(f"{rloc}.ingress_port", rspec["ingress_port"]),
            match_id=_int(f"{rloc}.match_id", rspec["match_id"]),
            egress=tuple(egress),
        ))
    return _make(
        loc, CSwitch,
        name=spec["name"],
        bridge_id=_int(f"{loc}.bridge_id", spec["bridge_id"]),
        ports=ports,
        legacy_rules=rules,
        ageing_s=_parse(f"{loc}.ageing_time", float,
                        spec.get("ageing_time", DEFAULT_AGEING_S)),
    )


def _attach(topo: Topology, medium_name: str, ref: str, loc: str) -> None:
    if "." in ref and ref.split(".", 1)[0] in topo.switches:
        sw_name, port_ref = ref.split(".", 1)
        if not port_ref.startswith("p") or not port_ref[1:].isdecimal():
            raise ConfigError(loc, f"bad switch port reference {ref!r}")
        topo.attach_switch_port(sw_name, int(port_ref[1:]), medium_name)
    elif ref in topo.nodes:
        topo.attach_node(ref, medium_name)
    else:
        raise ConfigError(loc, f"unknown station {ref!r}")


def _build_bus(topo: Topology, spec: dict, loc: str) -> None:
    _check_keys(spec, loc, {"name", "arb_bitrate", "data_bitrate", "stations"},
                {"arb_overhead_bits", "data_overhead_bits", "stuff_ratio"})
    params = _make(
        loc, CanXlTimingParams,
        arb_bitrate=_parse(f"{loc}.arb_bitrate", float, spec["arb_bitrate"]),
        data_bitrate=_parse(f"{loc}.data_bitrate", float, spec["data_bitrate"]),
        arb_overhead_bits=_int(f"{loc}.arb_overhead_bits",
                               spec.get("arb_overhead_bits", 34)),
        data_overhead_bits=_int(f"{loc}.data_overhead_bits",
                                spec.get("data_overhead_bits", 168)),
        stuff_ratio=_parse(f"{loc}.stuff_ratio", float, spec.get("stuff_ratio", 0.1)),
    )
    topo.add_bus(spec["name"], params)
    for ref in _list(spec["stations"], f"{loc}.stations", str):
        _attach(topo, spec["name"], ref, f"{loc}.stations")


def _build_link(topo: Topology, spec: dict, loc: str) -> None:
    _check_keys(spec, loc, {"name", "bitrate", "endpoints"}, set())
    params = _make(loc, EthernetTimingParams,
                   bitrate=_parse(f"{loc}.bitrate", float, spec["bitrate"]))
    topo.add_link(spec["name"], params)
    for ref in _list(spec["endpoints"], f"{loc}.endpoints", str):
        _attach(topo, spec["name"], ref, f"{loc}.endpoints")


def _build_flow(spec: dict, loc: str) -> Flow:
    _check_keys(spec, loc, {"name", "source", "transport", "payload_size", "schedule"},
                {"dst_ip", "dst_mac", "can_id"})
    sched, sloc = spec["schedule"], f"{loc}.schedule"
    _check_keys(sched, sloc, set(), {"at", "start", "period", "count"})
    if "at" in sched:
        times = [_parse(f"{sloc}.at", lambda at: round(float(at) * 1e9), sched["at"])]
    elif "period" in sched and "count" in sched:
        start = _parse(f"{sloc}.start", float, sched.get("start", 0.0))
        period = _parse(f"{sloc}.period", float, sched["period"])
        count = _int(f"{sloc}.count", sched["count"])
        if not period > 0:
            raise ConfigError(f"{sloc}.period", "must be positive")
        if count < 0:
            raise ConfigError(f"{sloc}.count", "must not be negative")
        times = _parse(sloc, lambda _: [round((start + k * period) * 1e9)
                                        for k in range(count)], None)
    else:
        raise ConfigError(sloc, "need either 'at' or 'period'+'count'")
    return Flow(
        name=spec["name"],
        source=_name(f"{loc}.source", spec["source"]),
        transport=spec["transport"],
        payload_size=_int(f"{loc}.payload_size", spec["payload_size"]),
        send_times_ns=times,
        dst_ip=_parse(f"{loc}.dst_ip", Ipv4Address.parse, spec["dst_ip"])
        if "dst_ip" in spec else None,
        dst_mac=_parse(f"{loc}.dst_mac", MacAddress.parse, spec["dst_mac"])
        if "dst_mac" in spec else None,
        can_id=_int(f"{loc}.can_id", spec["can_id"]) if "can_id" in spec else None,
    )
