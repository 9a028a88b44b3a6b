"""Span recording around functions of the program, installed from outside.

`Tracer.install` replaces a function (module attribute or class
attribute, including `classmethod` and `staticmethod` objects) by a
wrapper that records one span per call; `Tracer.remove` puts every
original object back.  Spans are (name, start, end, parent) rows kept in
flat integer arrays while the program runs and aggregated only after it
has finished, so recording costs two clock reads and four appends.

A span's self time is its duration minus the durations of its direct
children; children nest inside their parent because calls do.
"""

from __future__ import annotations

import functools
import time
from array import array
from dataclasses import dataclass


@dataclass
class SpanTotals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.counters: dict[str, int] = {}
        self._current = -1
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add_span(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Append one finished span; returns its index (for use as a parent)."""
        self.name_ids.append(self._name_id(name))
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)
        return len(self.starts) - 1

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, on_result=None):
        """Return `fn` wrapped to record a span named `name` per call.
        `on_result(tracer, result)` runs after the span is closed."""
        nid = self._name_id(name)
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._current
            idx = len(starts)
            name_ids.append(nid)
            parents.append(parent)
            ends.append(0)
            tracer._current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer._current = parent
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, owner, attr: str, name: str, on_result=None) -> None:
        """Wrap `owner.attr` (a module or class attribute defined on `owner`
        itself, not inherited).  A missing attribute raises LookupError, so
        a renamed function cannot silently read as zero calls."""
        try:
            original = vars(owner)[attr]
        except KeyError:
            owner_name = getattr(owner, "__qualname__", getattr(owner, "__name__", owner))
            raise LookupError(f"cannot trace {name}: {owner_name} defines no {attr!r}") from None
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(self.wrap(name, original.__func__, on_result))
        elif callable(original):
            replacement = self.wrap(name, original, on_result)
        else:
            raise LookupError(f"cannot trace {name}: {attr!r} is not callable")
        setattr(owner, attr, replacement)
        self._installed.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every wrapped attribute to its original object."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------------

    def totals(self) -> dict[str, SpanTotals]:
        """Calls, inclusive time and self time per span name."""
        n = len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child_ns = [0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += durations[i]
        out = {name: SpanTotals() for name in self.names}
        for i, nid in enumerate(self.name_ids):
            t = out[self.names[nid]]
            t.calls += 1
            t.total_ns += durations[i]
            t.self_ns += durations[i] - child_ns[i]
        return out
