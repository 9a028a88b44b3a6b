"""Declarative topology configuration (YAML).

Schema (unknown keys are rejected; every error names its location; a key
marked optional that is left out takes the default of the constructor its
section builds, such as `CSwitch`'s 300 s ageing time; every time is in
seconds, at least 0 and below about 1.8e299, as `timing.to_ns` checks; a
bus sets only its bit rates, the CAN XL calibration being `timing`
constants):

    nodes:
      - name: n1
        kind: eoc                 # ethernet-host | eoc | ioc | classic-can
        mac: "02:00:00:00:00:01"
        ip: "10.0.0.1"            # optional
        start_time: 0.0           # seconds, optional
        static_arp: {"10.0.0.2": "02:00:00:00:00:02"}   # optional
        can_priority: 0x100       # CAN node kinds, optional
        eoc_refresh_interval: 60  # ioc kind, optional (seconds)
        rx_ids: [0x200]           # classic-can kind
    buses:
      - name: bus1
        arb_bitrate: 500000
        data_bitrate: 16000000
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
          - {index: 0, kind: can, egress_mode: eoc, egress_priority_base: 0x700}
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

from .engine import ConfigError, Flow, RunOptions, Topology, located
from .frames import Ipv4Address, MacAddress
from .nodes import DEFAULT_EOC_REFRESH_S, ClassicCanNode, EocNode, EthernetHost, IocNode
from .switch import EGRESS_MODES, PORT_KINDS, CSwitch, LegacyRelayRule, PortConfig
from .timing import CanXlTimingParams, EthernetTimingParams, to_ns

_ITEM_NAMES = {dict: " of mappings", str: " of names", object: ""}


def _list(value, loc: str, item: type = dict) -> list:
    if value is None:
        return []
    if not isinstance(value, list) or not all(isinstance(v, item) for v in value):
        raise ConfigError(loc, f"expected a list{_ITEM_NAMES[item]}")
    return value


def _check_keys(mapping, loc: str, keys: frozenset, required: frozenset) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(loc, "expected a mapping")
    if not keys.issuperset(mapping):
        unknown = sorted(map(str, mapping.keys() - keys))  # YAML keys need not be text
        raise ConfigError(loc, f"unknown keys: {', '.join(unknown)}")
    if not mapping.keys() >= required:
        raise ConfigError(loc, f"missing keys: {', '.join(sorted(required - mapping.keys()))}")


class _Table:
    """The keys of one kind of item, each mapped to the parser of its value.

    A parser raises ValueError, TypeError or OverflowError for a bad value,
    which is located at `<loc>.<key>`, or, for a value that holds items of
    its own, a ConfigError whose location continues the key's (`.0.port`).
    Only the keys an item holds are passed on, so a key left out takes the
    constructor's default.
    """

    def __init__(self, required: dict, optional: dict | None = None):
        self.parsers = {**required, **(optional or {})}
        self.keys = frozenset(self.parsers)
        self.required = frozenset(required)

    def __call__(self, spec, loc: str) -> dict:
        _check_keys(spec, loc, self.keys, self.required)
        fields = {}
        for key, value in spec.items():
            try:
                fields[key] = self.parsers[key](value)
            except (ValueError, TypeError, OverflowError) as exc:
                raise ConfigError(f"{loc}.{key}", str(exc)) from exc
            except ConfigError as exc:
                raise ConfigError(f"{loc}.{key}{exc.location}", exc.reason) from None
        return fields

    def make(self, cls, spec, loc: str):
        return located(loc, cls, **self(spec, loc))


def _number(convert):
    def parse(value):
        if isinstance(value, bool):  # YAML booleans are ints to Python
            raise ValueError(f"unexpected boolean {str(value).lower()}")
        return convert(value)
    return parse


_float = _number(float)
_int = _number(operator.index)  # a YAML integer, not 44.9, 44.0 or the text "44"


def _name(value) -> str:
    """Names key the topology's tables and appear in locations."""
    if not isinstance(value, str):
        raise ValueError(f"expected a name, got {value!r}")
    return value


def _one_of(what: str, names: tuple):
    def parse(value) -> str:
        if value not in names:
            raise ValueError(f"unknown {what} {value!r}")
        return value
    return parse


def _bool(value) -> bool:
    if not isinstance(value, bool):  # the text "false" would read as true
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _path(value) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ValueError(f"expected a file path, got {value!r}")
    return value


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


def _marked(construct):
    """`construct`, with a ValueError located at the scalar's mark."""
    def marked(constructor, node):
        try:
            return construct(constructor, node)
        except ValueError as exc:
            raise ConstructorError(None, None, str(exc), node.start_mark) from None
    return marked


class _Constructor(SafeConstructor):
    """PyYAML's safe constructor; an integer too long to convert or a date
    out of range is a located error."""


for _tag in ("tag:yaml.org,2002:int", "tag:yaml.org,2002:timestamp"):
    _Constructor.add_constructor(_tag, _marked(SafeConstructor.yaml_constructors[_tag]))


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
    _check_keys(doc, "<root>", _SECTIONS, frozenset())
    topo = Topology(options=_RUN.make(RunOptions, doc.get("run", {}), "run"))
    for spec, loc in _items(doc, "nodes"):
        topo.add_node(_node(spec, loc))
    for spec, loc in _items(doc, "switches"):
        topo.add_switch(_SWITCH.make(CSwitch, spec, loc))
    for section, table, params, add, stations in _MEDIA:
        for spec, loc in _items(doc, section):
            fields = table(spec, loc)
            name, refs = fields.pop("name"), fields.pop(stations)
            add(topo, name, located(loc, params, **fields))
            for ref in refs:
                _attach(topo, name, ref, f"{loc}.{stations}")
    for spec, loc in _items(doc, "flows"):
        topo.flows.append(_FLOW.make(Flow, spec, loc))
    return topo


def _items(doc: dict, section: str):
    """Each item of `section` with where its errors are reported: its name,
    else its position."""
    for i, spec in enumerate(_list(doc.get(section), section)):
        loc = f"{section}.{i}"
        if "name" in spec:
            loc = f"{section}.{located(f'{loc}.name', _name, spec['name'])}"
        yield spec, loc


def _node(spec: dict, loc: str):
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _NODE_KINDS:
        raise ConfigError(loc, f"unknown node kind {kind!r}")
    cls, table = _NODE_KINDS[kind]
    fields = table(spec, loc)
    del fields["kind"]  # the class stands for it
    return located(loc, cls, **fields)


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


# -- parsers of single keys ------------------------------------------------

def _names(value) -> list[str]:
    return _list(value, "", str)


def _ids(value) -> list[int]:
    return [_int(v) for v in _list(value, "", object)]


def _static_arp(value) -> dict:
    arp = {} if value is None else value
    if not isinstance(arp, dict):
        raise ValueError("expected a mapping")
    return {Ipv4Address.parse(ip): MacAddress.parse(mac) for ip, mac in arp.items()}


def _refresh(value) -> float:
    # present-but-null enables the refresh at the stock interval
    return DEFAULT_EOC_REFRESH_S if value is None else _float(value)


def _ports(value) -> list[PortConfig]:
    ports = []
    for n, spec in enumerate(_list(value, "")):
        index = spec.get("index")
        # a port is known by its index, once that is an integer
        ports.append(_PORT.make(PortConfig, spec, f".{index if type(index) is int else n}"))
    return ports


def _rules(value) -> list[LegacyRelayRule]:
    return [_RULE.make(LegacyRelayRule, spec, f".{n}") for n, spec in enumerate(_list(value, ""))]


def _egress(value) -> tuple[tuple[int, int], ...]:
    items = (_EGRESS(spec, f".{n}") for n, spec in enumerate(_list(value, "")))
    return tuple((e["port"], e["id"]) for e in items)


def _schedule(value) -> list[int]:
    """Send times in ns: one `at`, or `count` sends `period` apart from `start`."""
    sched = _SCHEDULE(value, "")
    if "at" in sched:
        if len(sched) > 1:
            raise ValueError("'at' excludes 'start', 'period' and 'count'")
        return [sched["at"]]
    if "period" not in sched or "count" not in sched:
        raise ValueError("need either 'at' or 'period'+'count'")
    start, period, count = sched.get("start", 0.0), sched["period"], sched["count"]
    if not period > 0:
        raise ConfigError(".period", "must be positive")
    if count < 0:
        raise ConfigError(".count", "must not be negative")
    return [to_ns(start + k * period, "send time") for k in range(count)]


# -- one table per section ------------------------------------------------

_SECTIONS = frozenset(("nodes", "buses", "links", "switches", "flows", "run"))

_RUN = _Table({"t_end": _float},
              {"seed": _int, "startup_gratuitous_arp": _bool, "trace": _path, "report": _path})

_NODE = {"name": _name, "kind": _name}
_ADDRESSED = {**_NODE, "mac": MacAddress.parse}
_HOST = {"start_time": _float, "ip": Ipv4Address.parse, "static_arp": _static_arp}
_CAN = {**_HOST, "can_priority": _int}
_NODE_KINDS = {cls.kind: (cls, _Table(required, optional)) for cls, required, optional in (
    (ClassicCanNode, _NODE, {"start_time": _float, "rx_ids": _ids}),
    (EthernetHost, _ADDRESSED, _HOST),
    (EocNode, _ADDRESSED, _CAN),
    (IocNode, _ADDRESSED, {**_CAN, "eoc_refresh_interval": _refresh}),
)}

_PORT = _Table({"index": _int, "kind": _one_of("port kind", PORT_KINDS)},
               {"egress_mode": _one_of("egress mode", EGRESS_MODES),
                "egress_priority_base": _int})
_EGRESS = _Table({"port": _int, "id": _int})
_RULE = _Table({"ingress_port": _int, "match_id": _int, "egress": _egress})
_SWITCH = _Table({"name": _name, "bridge_id": _int, "ports": _ports},
                 {"legacy_rules": _rules, "ageing_time": _float})

# (section, table, timing parameters, Topology method, key of the stations)
_MEDIA = (
    ("buses",
     _Table({"name": _name, "arb_bitrate": _float, "data_bitrate": _float,
             "stations": _names}),
     CanXlTimingParams, Topology.add_bus, "stations"),
    ("links",
     _Table({"name": _name, "bitrate": _float, "endpoints": _names}),
     EthernetTimingParams, Topology.add_link, "endpoints"),
)

_SCHEDULE = _Table({}, {"at": lambda v: to_ns(_float(v), "at"), "start": _float,
                        "period": _float, "count": _int})
_FLOW = _Table({"name": _name, "source": _name, "transport": _name, "payload_size": _int,
                "schedule": _schedule},
               {"dst_ip": Ipv4Address.parse, "dst_mac": MacAddress.parse, "can_id": _int})
