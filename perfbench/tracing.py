"""Outside-in layer tracing: spans recorded around the library's public calls.

The tracer patches each wrapped function at every module attribute that
refers to it, because callers inside the library resolve names through
their own module (``finitetop.census.canonical_form``,
``finitetop._refine.refine_colors`` ...).  Methods are patched on their
class.  Spans (name, start, end, parent) are kept in flat arrays and only
turned into per-layer metrics, or written out, when the run ends.

A wrapped name that cannot be found is reported as absent, never as zero,
so a rename in the library shows up instead of reading as "no time spent".
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter

#: (metric prefix, module, attribute path) of every wrapped name.  The
#: ``_refine`` layer is reported as ``refine`` because metric names must
#: start with a letter.
LAYERS = [
    ("core.canonical_form", "finitetop.core", "canonical_form"),
    ("core.relabel", "finitetop.core", "relabel"),
    ("core.Space.validate", "finitetop.core", "Space.__post_init__"),
    ("core.from_neighborhoods", "finitetop.core", "from_neighborhoods"),
    ("refine.canonical_order", "finitetop._refine", "canonical_order"),
    ("refine.refine_colors", "finitetop._refine", "refine_colors"),
    ("census.census", "finitetop.census", "census"),
    ("census.enumerate_spaces", "finitetop.census", "enumerate_spaces"),
    ("maps.find_homeomorphism", "finitetop.maps", "find_homeomorphism"),
    ("maps.glue", "finitetop.maps", "glue"),
    ("maps.is_continuous", "finitetop.maps", "is_continuous"),
    ("constructions.product", "finitetop.constructions", "product"),
    ("constructions.product_n", "finitetop.constructions", "product_n"),
    ("constructions.disjoint_sum", "finitetop.constructions", "disjoint_sum"),
    ("constructions.subspace", "finitetop.constructions", "subspace"),
    ("constructions.quotient", "finitetop.constructions", "quotient"),
    ("constructions.t0_quotient", "finitetop.constructions", "t0_quotient"),
    ("invariants.report", "finitetop.invariants", "report"),
    ("invariants.min_of", "finitetop.invariants", "min_of"),
    ("invariants.index_of", "finitetop.invariants", "index_of"),
    ("invariants.is_basic", "finitetop.invariants", "is_basic"),
    ("generators.chain", "finitetop.generators", "chain"),
    ("generators.blocks", "finitetop.generators", "blocks"),
    ("generators.divisor", "finitetop.generators", "divisor"),
    ("generators.discrete", "finitetop.generators", "discrete"),
    ("generators.indiscrete", "finitetop.generators", "indiscrete"),
    ("generators.random_space", "finitetop.generators", "random_space"),
    ("cli.parse", "finitetop.cli", "parse"),
    ("cli.serialize", "finitetop.cli", "serialize"),
    ("cli.SpaceDocument.to_space", "finitetop.cli", "SpaceDocument.to_space"),
    ("cli.to_dot", "finitetop.cli", "to_dot"),
]

#: Counters kept beside the spans.
FOUND = "maps.find_homeomorphism.found"
YIELDED = "census.spaces_yielded"
#: The span the benchmark opens around each operation it times.
ROOT = "bench.op"


class Tracer:
    """Span store plus call counters; one per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        #: Calls made while inactive (the benchmark's own checks) are not traced.
        self.active = True
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def span(self, name: str):
        """Context manager for a span the benchmark opens itself."""
        return _Span(self, self.name_id(name))

    # -- patching ---------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        if inspect.isgeneratorfunction(fn):
            # Time is spent inside next(), not at the call: one span per step.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if not self.active:
                    yield from fn(*args, **kwargs)
                    return
                self.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    i = self.open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(i)
                    self.counts[YIELDED] += 1
                    yield item

            return traced_gen

        found = name == "maps.find_homeomorphism"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if found and result is not None:
                self.counts[FOUND] += 1
            return result

        return traced

    def install(self, layers=LAYERS) -> None:
        """Patch every listed name that exists; record the others as absent."""
        for name, modname, path in layers:
            module = sys.modules.get(modname)
            owner, attr = _resolve_owner(module, path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, original)
            if owner is module:
                for mod in _library_modules(modname):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)
            else:
                self._patch(owner, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def layer_times(self) -> dict[str, tuple[float, float]]:
        """(total, self) seconds per span name.

        Self time is a span's duration minus the part of its interval
        that its child spans cover.
        """
        n = len(self.start)
        covered = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                lo = max(start[i], start[p])
                hi = min(end[i], end[p])
                if hi > lo:
                    covered[p] += hi - lo
        total: Counter = Counter()
        own: Counter = Counter()
        for i in range(n):
            name = self.names[self.name_of[i]]
            d = end[i] - start[i]
            total[name] += d
            own[name] += d - covered[i]
        return {name: (total[name], own[name]) for name in total}

    def count_under(self, child: str, ancestor: str) -> int:
        """Number of ``child`` spans that have an ``ancestor`` span above them."""
        cid = self._ids.get(child)
        aid = self._ids.get(ancestor)
        if cid is None or aid is None:
            return 0
        hits = 0
        for i in range(len(self.start)):
            if self.name_of[i] != cid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != aid:
                p = self.parent[p]
            hits += p >= 0
        return hits

    def metrics(self, layers=LAYERS) -> dict[str, dict]:
        """Per-layer metrics for every name that was found."""
        times = self.layer_times()
        out: dict[str, dict] = {}
        for name, _, _ in layers:
            if name in self.absent:
                continue
            tot, own = times.get(name, (0.0, 0.0))
            out[f"{name}.calls"] = _m(self.calls[name], "count")
            out[f"{name}.total_s"] = _m(tot, "s")
            out[f"{name}.self_s"] = _m(own, "s")
        present = {name for name, _, _ in layers} - set(self.absent)
        if "census.enumerate_spaces" in present:
            out[YIELDED] = _m(self.counts[YIELDED], "count")
        if "maps.find_homeomorphism" in present:
            out["maps.find_homeomorphism.found_ratio"] = _m(
                _ratio(self.counts[FOUND], self.calls["maps.find_homeomorphism"]), "ratio"
            )
        if {"refine.refine_colors", "refine.canonical_order"} <= present:
            per = self.count_under("refine.refine_colors", "refine.canonical_order")
            out["refine.refine_colors_per_canonical_order"] = _m(
                _ratio(per, self.calls["refine.canonical_order"]), "ratio"
            )
        return out

    def write(self, path) -> None:
        """Write every span as 'name start end parent' lines, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_of[i]]} {self.start[i]:.9f} "
                    f"{self.end[i]:.9f} {self.parent[i]}\n"
                )


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.i = self.tracer.open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.i)
        return False


def _resolve_owner(module, path: str):
    """(object holding the last attribute, attribute name) or (None, '')."""
    if module is None:
        return None, ""
    *outer, attr = path.split(".")
    owner = module
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, ""
    return owner, attr


def _library_modules(modname: str):
    package = modname.split(".")[0]
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == package or key.startswith(package + "."))
    ]


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _m(value, unit: str) -> dict:
    return {"value": value, "unit": unit}
