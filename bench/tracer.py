"""Span tracing of the sumlabel library from outside, by rebinding names.

``Tracer.install`` wraps every public callable of every loaded
``sumlabel`` module at each place a module namespace binds it, including
names imported with ``from .x import``: functions are rebound, classes
get their ``__init__`` and their cached properties wrapped in place (so
``isinstance`` keeps working).  ``Tracer.uninstall`` restores every
original object.  Each call records one span
``(name, start, end, parent, op, self_s, is_call)`` in memory; a
generator function records one span per resumption.  A span's self time
is its duration minus the time covered by its direct child spans.

Counters are read from arguments and results at the same boundaries (see
``OBSERVERS``), so ratios are measured where the work happens.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import types
from collections import Counter, defaultdict
from functools import cached_property, wraps
from math import comb
from pathlib import Path
from typing import Any, Callable

PACKAGE = "sumlabel"
_DONE = object()


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1]


def _ours(obj: Any) -> bool:
    return getattr(obj, "__module__", "").split(".")[0] == PACKAGE


def _pmf_cells(pmf) -> int:
    return pmf.summands * len(pmf.counts)


def _classified(args, res, c: Counter) -> None:
    c["randomized.pairs_classified"] += len(res.pairs)
    c["randomized.popular_vertices"] += len(res.popular)
    c["randomized.free_vertices"] += args[0].vertex_count - len(res.popular)


def _two_step(args, res, c: Counter) -> None:
    c["randomized.step1_attempts"] += res.step1_attempts
    c["randomized.step2_attempts"] += res.step2_attempts
    c["randomized.labelings_accepted"] += 1


def _quadratic(args, res, c: Counter) -> None:
    c["randomized.quadratic_attempts"] += res.attempts
    c["randomized.labelings_accepted"] += 1


def _solved(args, res, c: Counter) -> None:
    c["exact.nodes"] += res.nodes_expanded
    c["exact.solves"] += 1


# span name -> observer(args, result, counters), run after a successful call
OBSERVERS: dict[str, Callable[[tuple, Any, Counter], None]] = {
    "formats.parse_hypergraph": lambda a, r, c: c.update({"formats.bytes_parsed": len(a[0])}),
    "formats.parse_graph": lambda a, r, c: c.update({"formats.bytes_parsed": len(a[0])}),
    "hypergraph.Hypergraph": lambda a, r, c: c.update({"hypergraph.edges_built": len(a[0].edges)}),
    "generators.gen_runiform": lambda a, r, c: c.update(
        {"generators.candidates_drawn": comb(a[0], a[1])}),
    "generators.lower_bound_instance": lambda a, r, c: c.update(
        {"generators.candidates_drawn": comb(r.core_vertex_count, r.uniformity)}),
    "exact.exact_s": _solved,
    "randomized.classify_pairs": _classified,
    "randomized.two_step_labeling": _two_step,
    "randomized.quadratic_random_labeling": _quadratic,
    "constructive.repair_labeler": lambda a, r, c: c.update(
        {"constructive.repair_steps": len(r.steps)}),
    "uniform_sums.sum_pmf": lambda a, r, c: c.update(
        {"uniform_sums.convolution_cells": _pmf_cells(r)}),
}
# generator functions: observer(args, last yielded item, counters), run at exhaustion
GENERATOR_OBSERVERS = {
    "uniform_sums.iter_sum_pmfs": lambda a, last, c: c.update(
        {"uniform_sums.convolution_cells": _pmf_cells(last)}),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[list] = []
        self.counters: Counter = Counter()
        self.op = 0
        self._patches: list[tuple[Any, str, Any]] = []
        self._wrapped: dict[int, Any] = {}

    # ------------------------------------------------------------ wrapping

    def _enter(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append([idx, 0.0])
        return idx

    def _leave(self, idx: int, name: str, start: float, is_call: bool) -> None:
        end = time.perf_counter()
        _, child = self.stack.pop()
        dur = end - start
        parent = -1
        if self.stack:
            parent = self.stack[-1][0]
            self.stack[-1][1] += dur
        self.spans[idx] = (name, start, end, parent, self.op, dur - child, is_call)

    def _wrap_function(self, fn: Callable, name: str) -> Callable:
        observe = OBSERVERS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            at_end = GENERATOR_OBSERVERS.get(name)

            @wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                first, last = True, _DONE
                while True:
                    idx = tracer._enter()
                    start = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        item = _DONE
                    finally:
                        tracer._leave(idx, name, start, first)
                    first = False
                    if item is _DONE:
                        if at_end is not None and last is not _DONE:
                            at_end(args, last, tracer.counters)
                        return
                    last = item
                    yield item
            return gen_wrapper

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(idx, name, start, True)
            if observe is not None:
                observe(args, result, tracer.counters)
            return result
        return wrapper

    def _set(self, namespace: Any, attr: str, value: Any) -> None:
        self._patches.append((namespace, attr, namespace.__dict__[attr]))
        setattr(namespace, attr, value)

    def _wrap_class(self, cls: type) -> None:
        short = _short(cls.__module__)
        if "__init__" in cls.__dict__:
            self._set(cls, "__init__",
                      self._wrap_function(cls.__dict__["__init__"], f"{short}.{cls.__name__}"))
        for attr, desc in list(cls.__dict__.items()):
            if isinstance(desc, cached_property):
                prop = cached_property(self._wrap_function(desc.func, f"{short}.{attr}"))
                prop.__set_name__(cls, attr)
                self._set(cls, attr, prop)

    def install(self) -> None:
        """Wrap every public sumlabel callable at every module binding."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == PACKAGE or name.startswith(PACKAGE + ".")) and m is not None]
        classes_done: set[int] = set()
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _ours(obj):
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException) and id(obj) not in classes_done:
                        classes_done.add(id(obj))
                        self._wrap_class(obj)
                elif isinstance(obj, types.FunctionType):
                    wrapped = self._wrapped.get(id(obj))
                    if wrapped is None:
                        name = f"{_short(obj.__module__)}.{obj.__qualname__}"
                        wrapped = self._wrapped[id(obj)] = self._wrap_function(obj, name)
                    self._set(module, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every binding changed by :meth:`install`, newest first."""
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)
        self._wrapped.clear()

    # ------------------------------------------------------------ results

    def mark(self) -> tuple[int, Counter]:
        return len(self.spans), Counter(self.counters)

    def table(self, since: tuple[int, Counter]) -> dict[str, float]:
        """Per-function calls, busy_s and self_s plus counters, over the spans
        and counts recorded after ``since`` (a value of :meth:`mark`)."""
        first, counters_before = since
        stats: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _op, self_s, is_call in self.spans[first:]:
            stats[f"{name}.calls"] += is_call
            stats[f"{name}.busy_s"] += end - start
            stats[f"{name}.self_s"] += self_s
        counts = Counter(self.counters)
        counts.subtract(counters_before)
        stats.update(counts)
        return dict(stats)

    def write_spans(self, path: Path) -> None:
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")

