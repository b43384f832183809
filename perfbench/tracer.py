"""In-memory spans around lidbag's public functions, installed from outside.

lidbag's modules call each other through names bound at import time
(``from .geometry import dist_block``), so a layer boundary is a module
attribute.  :class:`Tracer` replaces every binding of a traced function, in
every lidbag module that holds it, with a wrapper that records a span, and
puts the originals back on exit.  Nothing under ``src/`` changes.

A span is (id, name, start, end, parent, thread, op, work).  ``parent`` is the
innermost open span on the same thread; work on a pool thread descends from
the span open on the thread that runs the operation.  ``op`` names the
benchmark operation the span belongs to, and ``work`` holds the counts
measured at that boundary.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: str | None
    work: dict | None


def _shape_cells(a) -> int:
    return int(a.shape[0]) * int(a.shape[1])


# (defining module, attribute, span name, work counter(arguments by name, result)).
# The span name is the layer (module) and the function, as the metrics use it.
TRACED = (
    ("lidbag.datasets", "generate", "datasets.generate", None),
    ("lidbag.geometry", "dist_block", "geometry.dist_block",
     lambda a, out: {"bytes_out": 8 * _shape_cells(out)}),
    ("lidbag.geometry", "neighbor_tables", "geometry.neighbor_tables",
     lambda a, out: {"cells_scanned": _shape_cells(a["dcols"])}),
    ("lidbag.estimators", "batch_values", "estimators.batch_values",
     lambda a, out: {"estimates": int(out[0].size),
                         "divergent": int(out[1].sum())}),
    ("lidbag.bagging", "draw_bags", "bagging.draw_bags",
     lambda a, out: {"bags": int(out.shape[0])}),
    ("lidbag.bagging", "bag_tables", "bagging.bag_tables", None),
    ("lidbag.bagging", "estimates_from_tables", "bagging.estimates_from_tables", None),
    ("lidbag.smoothing", "gather_mean", "smoothing.gather_mean",
     lambda a, out: {"elements": int(a["idx"].size)}),
    ("lidbag.smoothing", "smooth", "smoothing.smooth", None),
    ("lidbag.smoothing", "variant_estimates", "smoothing.variant_estimates", None),
    ("lidbag.evaluation", "decompose", "evaluation.decompose", None),
    ("lidbag.sweep", "run_sweep", "sweep.run_sweep",
     lambda a, out: {"rows": len(out.rows), "skips": len(out.skips)}),
    ("lidbag.theory", "run_overlap", "theory.run_overlap",
     lambda a, out: {"trials": int(out.trials)}),
    ("lidbag.theory", "run_variance", "theory.run_variance",
     lambda a, out: {"trials": int(out.trials)}),
    ("lidbag.theory", "run_conditional_covariance", "theory.run_conditional_covariance",
     lambda a, out: {"trials": int(out.trials)}),
)

# Methods of a class are wrapped on the class itself, which every module shares.
TRACED_METHODS = (
    ("lidbag.bagging", "AnchoredMean", "add", "bagging.AnchoredMean.add"),
    ("lidbag.bagging", "AnchoredMean", "result", "bagging.AnchoredMean.result"),
)

LIDBAG_MODULES = (
    "lidbag", "lidbag.geometry", "lidbag.estimators", "lidbag.datasets",
    "lidbag.bagging", "lidbag.smoothing", "lidbag.evaluation", "lidbag.theory",
    "lidbag.sweep",
)


class Tracer:
    """Records spans while installed (``with tracer: ...``)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self._root: int | None = None
        self._main: list[int] | None = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    @contextlib.contextmanager
    def operation(self, op: str):
        """Spans inside belong to ``op`` and descend from a root span named "op"."""
        self.op, self._root = op, self._next_id()
        self._main = self._stack()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span(self._root, "op", start, time.perf_counter(), None,
                                   threading.get_ident(), op, None))
            self.op = self._root = self._main = None

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # A pool thread: its work was caused by the span open on the thread
        # that runs the operation.
        try:
            return self._main[-1]
        except (IndexError, TypeError):
            return self._root

    def wrap(self, name: str, fn, count=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = self._next_id()
            parent = self._parent(stack)
            stack.append(sid)
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                work = None
                if count is not None and out is not None:
                    work = count(signature.bind(*args, **kwargs).arguments, out)
                self.spans.append(Span(sid, name, t0, t1, parent,
                                       threading.get_ident(), self.op, work))

        return traced

    def __enter__(self):
        modules = [importlib.import_module(m) for m in LIDBAG_MODULES]
        for home, attr, name, count in TRACED:
            original = getattr(importlib.import_module(home), attr)
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for home, cls_name, meth, name in TRACED_METHODS:
            cls = getattr(importlib.import_module(home), cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self.wrap(name, original))
        return self

    def __exit__(self, *exc):
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)
        return False


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (inclusive), self_s, and summed work counts.

    Self time is a span's duration minus the part of it that its child
    spans cover; children on several threads are merged as one union.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        rec = out[s.name]
        dur = s.end - s.start
        rec["calls"] += 1
        rec["busy_s"] += dur
        rec["self_s"] += dur - _covered(children.get(s.id, []), s.start, s.end)
        for key, value in (s.work or {}).items():
            rec[key] += value
    return {name: dict(rec) for name, rec in out.items()}
