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
        schedule: {at: 0.001}     # or {start: 0, period: 0.01, count: 5},
                                  # count at most MAX_SENDS (1,000,000)
    run:
      t_end: 0.1                  # seconds
      seed: 0                     # optional, recorded in the report
      startup_gratuitous_arp: true
      trace: out/trace.jsonl      # optional default output paths
      report: out/report.json

Loading: `load_config` builds the document in one loop over the events of
libyaml's parser where PyYAML has it, else of PyYAML's own, as
`yaml.safe_load` builds it, anchors, aliases, tags and merge (`<<`) keys
included.  A quoted scalar, and a plain one that no implicit type
matches, is a `str`: the event's text.  A plain scalar's type is looked
up in the loader's own implicit-resolver table, in `resolve`'s order, and
only a scalar of a type other than `str` goes through the loader's safe
constructor.  Nesting deeper than `MAX_DEPTH` levels (the schema
needs 7), counting those an alias brings along, is refused.  Each error of
the YAML layer, an unreadable character or byte included, is a
`ConfigError` at `<root>` with its position.
"""

from __future__ import annotations

import operator

import yaml
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError
from yaml.events import (AliasEvent, DocumentStartEvent, Event, MappingEndEvent, MappingStartEvent,
                         ScalarEvent, SequenceEndEvent, SequenceStartEvent, StreamEndEvent)
from yaml.nodes import ScalarNode
from yaml.reader import ReaderError

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


MAX_DEPTH = 64  # collection nesting levels a document may have, aliases expanded
_TOO_DEEP = f"collections nested deeper than {MAX_DEPTH} levels"

PURE_PYTHON_LOADER = yaml.SafeLoader
# libyaml's parser: `_built` takes about 2.5 ms on perfbench's switched_fabric
# file with it, 35 on pure Python (2 vCPUs, Python 3.11.7); either way a
# `str` scalar is the event's text, and a plain scalar's type comes from
# the loader's own implicit-resolver table
LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else PURE_PYTHON_LOADER


def load_config(path: str) -> Topology:
    with open(path, "rb") as fh:  # bytes, so that PyYAML decodes and locates them
        data = fh.read()
    try:
        doc = _built(data)
    except yaml.MarkedYAMLError as exc:
        line, column = exc.problem_mark.line + 1, exc.problem_mark.column + 1
        raise ConfigError("<root>", f"{exc.problem} at {line}:{column}") from None
    except ReaderError as exc:  # libyaml gives -1 for a sequence cut short
        what = f" (#x{exc.character:02x})" if exc.character >= 0 else ""
        raise ConfigError("<root>", f"{exc.reason}{what} at position {exc.position}") from None
    return build_topology(doc if doc is not None else {})


_TAG = "tag:yaml.org,2002:"
_MERGE_ERROR = "expected a mapping%s for merging, but found %s"
# what the innermost collection takes next; an unhashable key's value goes under _JUNK
_KEY, _ITEM, _JUNK = object(), object(), object()


def _built(data: bytes):
    """The document of `data` as PyYAML's composer and `LOADER`'s safe
    constructor build it, from `LOADER`'s events in one loop with no node
    graph.  A composer error is raised at its event; construction errors
    wait until the stream ends, behind any syntax error, and the one marked
    first of them is raised."""
    loader = LOADER(data)
    try:
        get_event, resolve, constructors = \
            loader.get_event, loader.resolve, loader.yaml_constructors
        # a plain scalar's (tag, regexp) candidates by its first character, in
        # `resolve`'s order: those of the character, then the wildcard ones
        table = loader.yaml_implicit_resolvers
        wildcard = table.get(None, [])
        implicit = {first: pairs + wildcard for first, pairs in table.items()} \
            if wildcard else table
        scalars = {}  # plain scalar text -> what it builds, for this document only
        anchors, heights, errors, merging, tagged = {}, {}, [], {}, []

        def anchor(event, value):
            if event.anchor in anchors:
                raise ComposerError(f"found duplicate anchor {event.anchor!r}; first occurrence",
                                    None, "second occurrence", event.start_mark)
            anchors[event.anchor] = value

        def unhashable(event):
            errors.append(ConstructorError(None, None, "found unhashable key", event.start_mark))
            return _JUNK

        def rare(event, top, at_key: bool, stack: list):
            """What an alias, or a scalar the memo does not build, gives."""
            if event.__class__ is AliasEvent:
                if event.anchor not in anchors:
                    raise ComposerError(None, None, f"found undefined alias {event.anchor!r}",
                                        event.start_mark)
                value = anchors[event.anchor]
                if value.__class__ is not ScalarEvent:  # a collection; one still open
                    if value is top or any(value is t for t, _ in stack) \
                            or len(stack) + _height(value, heights) > MAX_DEPTH:  # nests forever
                        raise ComposerError(None, None, _TOO_DEEP, event.start_mark)
                    return unhashable(event) if at_key else value
                event = value  # a scalar is built again where its alias stands
            elif event.anchor is not None:
                anchor(event, event)
            tag = event.tag
            if tag is None or tag == "!":
                tag = resolve(ScalarNode, event.value, event.implicit)
            if at_key and tag == _TAG + "merge":
                merging[id(top)] = top
                return loader.peek_event()  # that of the value
            try:  # None stands in for a scalar that fails, its error held
                return loader.construct_object(ScalarNode(  # a `=` key is its text
                    _TAG + "str" if at_key and tag == _TAG + "value" else tag,
                    event.value, event.start_mark, event.end_mark), deep=True)
            except (ConstructorError, ValueError) as exc:
                errors.append(exc if isinstance(exc, ConstructorError)
                              else ConstructorError(None, None, str(exc), event.start_mark))
            except (LookupError, AttributeError):  # whose text does not say what failed
                errors.append(ConstructorError(None, None, f"cannot build {tag} from "
                                               f"{event.value!r}", event.start_mark))

        root = []
        top, key, stack = root, _ITEM, []  # the open collections, innermost in `top`
        while True:
            event = get_event()
            kind = event.__class__
            if kind is ScalarEvent:
                if event.anchor is None and event.tag is None:
                    text = event.value
                    if not event.implicit[0]:  # quoted: a `str`, as `resolve` has it
                        value = text
                    elif text in scalars:
                        value = scalars[text]
                    else:
                        for tag, regexp in implicit.get(text[:1], wildcard):
                            if regexp.match(text):
                                try:
                                    value = scalars[text] = constructors[tag](loader, ScalarNode(
                                        tag, text, event.start_mark, event.end_mark))
                                except (KeyError, ValueError):  # a `<<` or `=` key, or an error
                                    value = rare(event, top, key is _KEY, stack)
                                break
                        else:  # no implicit type: a `str`, its text
                            value = scalars[text] = text
                else:
                    value = rare(event, top, key is _KEY, stack)
            elif kind is MappingStartEvent or kind is SequenceStartEvent:
                value = {} if kind is MappingStartEvent else []
                if event.anchor is not None:
                    anchor(event, value)
                if len(stack) == MAX_DEPTH:
                    raise ComposerError(None, None, _TOO_DEEP, event.start_mark)
                if event.tag is not None and event.tag not in (
                        "!", _TAG + ("map" if kind is MappingStartEvent else "seq")):
                    tagged.append((value, event))
                if key is _ITEM:
                    top.append(value)
                elif key is _KEY:
                    key = unhashable(event)
                else:
                    top[key] = value
                    key = _KEY
                stack.append((top, key))
                top, key = value, _KEY if kind is MappingStartEvent else _ITEM
                continue
            elif kind is MappingEndEvent or kind is SequenceEndEvent:
                top, key = stack.pop()
                continue
            elif kind is AliasEvent:
                value = rare(event, top, key is _KEY, stack)
            elif kind is DocumentStartEvent and root:
                raise ComposerError("expected a single document in the stream", None,
                                    "but found another document", event.start_mark)
            elif kind is StreamEndEvent:
                break
            else:
                continue
            if key is _ITEM:
                top.append(value)
            elif key is _KEY:
                key = value
            else:
                top[key] = value
                key = _KEY
    finally:
        loader.dispose()
    doc, held = root[0] if root else None, []
    for mapping in list(merging.values()):
        _merge(mapping, merging, held)
    if tagged:  # another tag is an error where `doc` holds its collection, which
        _height(doc, reached := {})  # would build no topology, but an empty `!!omap`
        held += [ConstructorError(  # or `!!pairs` builds the empty list it is
            None, None, f"could not determine a constructor for the tag {event.tag!r}",
            event.start_mark) for value, event in tagged if id(value) in reached
            and (value != [] or event.tag not in (_TAG + "omap", _TAG + "pairs"))]
    held += errors  # after the merge errors, which win at a scalar error's mark
    if held:
        raise min(held, key=lambda exc: exc.problem_mark.index)
    return doc


def _height(value, heights: dict) -> int:
    """The collection levels `value` nests, aliases expanded, kept by id."""
    if value.__class__ is not dict and value.__class__ is not list:
        return 0
    if id(value) not in heights:
        children = value.values() if value.__class__ is dict else value
        heights[id(value)] = 1 + max((_height(child, heights) for child in children), default=0)
    return heights[id(value)]


def _merge(mapping: dict, pending: dict, errors: list) -> None:
    """Replaces the `<<` keys of a `pending` mapping as PyYAML's `flatten_mapping`
    does: by what they hold, a list last to first, before its own keys, which win."""
    if pending.pop(id(mapping), None) is None:
        return
    merged, own = {}, {}
    for key, value in mapping.items():
        if not isinstance(key, Event):  # a `<<` key is the event its value starts with
            own[key] = value
        elif value.__class__ is dict or value.__class__ is list \
                and all(source.__class__ is dict for source in value):
            for source in [value] if value.__class__ is dict else reversed(value):
                _merge(source, pending, errors)
                merged.update(source)
        else:  # in PyYAML's words, at the value's mark
            listed = value.__class__ is list
            found = next(v for v in value if v.__class__ is not dict) if listed else value
            errors.append(ConstructorError(None, None, _MERGE_ERROR % (
                "" if listed else " or list of mappings",
                "sequence" if found.__class__ is list else "scalar"), key.start_mark))
    merged.update(own)
    mapping.clear()
    mapping.update(merged)


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


MAX_SENDS = 1_000_000  # the largest periodic schedule's `count`, checked before it is built
_SEND_COUNTS = range(MAX_SENDS + 1)


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
    if count not in _SEND_COUNTS:
        raise ConfigError(".count", f"must be from 0 to {MAX_SENDS:,}")
    for k in (0, count - 1) if count else ():  # the times between lie between these
        to_ns(start + k * period, "send time")
    return [round((start + k * period) * 1e9) for k in range(count)]  # as `to_ns` has them


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
