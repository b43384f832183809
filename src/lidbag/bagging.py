"""Bag drawing, the anchored aggregator, and the per-bag building blocks.

Bags are index sets of size m = ceil(n * r) drawn without replacement, and
bag i is a pure function of (seed, i).  For a query inside bag i the
per-bag estimate uses the bag minus the query as reference (m - 1 points);
for a query outside, the full bag (m points): :func:`bag_tables` builds
both kinds of neighborhood in one pass over the distances, for one bag or
for a stack of bags read from one distance tile, and
:func:`estimates_from_tables` turns them into clamped estimates.  The
bagged aggregate is the per-query mean over bags, kept by
:class:`AnchoredMean`, which (a) is exact when all per-bag values coincide
— so sampling at rate r = 1 reproduces the baseline estimator bit-for-bit —
and (b) consumes bags in ordinal order, making results independent of
worker scheduling.  The pipelines that combine these live in
:mod:`lidbag.smoothing`, which runs the unbagged baseline as that identity
states it: an ensemble of one bag holding the whole cloud, aggregated by
the same :class:`AnchoredMean`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .geometry import NeighborTables, neighbor_tables
from .estimators import EstimatorConfig, batch_values, clamp_values

DIVERGENCE_POLICIES = ("clamp", "skip")


class BaggingError(ValueError):
    """Invalid bagging configuration."""


class LocalityCapacityError(BaggingError):
    """k too large for the reference size; raise r or lower k."""

    def __init__(self, k: int, m: int, message: str | None = None):
        super().__init__(message or (
            f"k={k} needs at least k+1={k + 1} in-bag points but"
            f" m=ceil(n*r)={m}; raise r or lower k"
        ))
        self.k = k
        self.m = m


@dataclass(frozen=True)
class BaggingConfig:
    """Number of bags B, sampling rate r, and the bag-drawing seed."""

    bags: int
    rate: float
    seed: int = 0

    def __post_init__(self):
        for name in ("bags", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise BaggingError(f"{name} must be an integer, got {value!r}")
        if self.bags < 1:
            raise BaggingError(f"need B >= 1 bags, got {self.bags}")
        if not 0.0 < self.rate <= 1.0:
            raise BaggingError(f"sampling rate must be in (0, 1], got {self.rate}")
        if self.seed < 0:
            raise BaggingError("seed must be a nonnegative integer")

    def bag_size(self, n: int) -> int:
        """m = ceil(n * r), capped at n."""
        m = min(n, math.ceil(n * self.rate))
        if m < 1:
            raise BaggingError(f"bag size m={m} out of range for n={n}")
        return m


def draw_bags(n: int, config: BaggingConfig, count: int | None = None) -> np.ndarray:
    """B index sets of size m, uniform without replacement, sorted ascending.

    Bag i is a pure function of (seed, i) via a splittable counter-based
    stream, so bags may be drawn in any order or in parallel and an
    ensemble prefix is stable when the bag count grows.
    """
    count = config.bags if count is None else count
    m = config.bag_size(n)
    out = np.empty((count, m), dtype=np.int64)
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(i,)))
        out[i] = np.sort(rng.choice(n, size=m, replace=False))
    return out


class AnchoredMean:
    """Sequential mean accumulator, exact on constant inputs.

    Maintains sum(v_i - anchor) with the first column as anchor; the mean
    is anchor + sum/B, which returns the anchor exactly whenever every
    column equals it.  A non-finite first value (+inf, a divergent estimate
    left unclamped) is anchored at 0.0 instead, so it cannot turn the
    differences into NaN.  Divergence-aware: tracks both the all-column sum
    (clamp policy) and the unflagged-column sum (skip policy).

    :meth:`add` takes one column of n values or a (b, n) stack of b columns
    in order; the sums run over the stack sequentially, so adding a stack is
    bitwise the same as adding its columns one by one.  Every query is
    independent, so an accumulator over a slice of queries gives those
    queries' bits of an accumulator over all of them.
    """

    def __init__(self, n: int):
        self._anchor = None
        self._sum_all = np.zeros(n)
        self._sum_ok = np.zeros(n)
        self._cnt_ok = np.zeros(n, dtype=np.int64)
        self._any_flag = np.zeros(n, dtype=bool)
        self._count = 0

    def add(self, values: np.ndarray, flags: np.ndarray) -> None:
        values = np.atleast_2d(values)
        flags = np.atleast_2d(flags)
        if self._anchor is None:
            first = values[0]
            self._anchor = np.where(np.isfinite(first), first, 0.0)
        diff = values - self._anchor
        ok = ~flags
        self._sum_all = _running_sum(self._sum_all, diff)
        self._sum_ok = _running_sum(self._sum_ok, np.where(ok, diff, 0.0))
        self._cnt_ok += ok.sum(axis=0)
        self._any_flag |= flags.any(axis=0)
        self._count += values.shape[0]

    def result(self, policy: str = "clamp"):
        """Aggregate over everything added so far: (values, flags)."""
        if self._count == 0:
            raise BaggingError("no bags accumulated")
        if policy not in DIVERGENCE_POLICIES:
            raise BaggingError(f"unknown divergence policy {policy!r}")
        mean_all = self._anchor + self._sum_all / self._count
        if policy == "clamp":
            return mean_all, self._any_flag.copy()
        usable = self._cnt_ok > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            mean_ok = self._anchor + self._sum_ok / self._cnt_ok
        return np.where(usable, mean_ok, mean_all), ~usable


def _running_sum(total: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``total`` plus the rows of ``stack``, added one row at a time in order
    (``np.add.accumulate`` is sequential, unlike a pairwise reduction)."""
    return np.add.accumulate(np.concatenate([total[None], stack]), axis=0)[-1]


def estimates_from_tables(config: EstimatorConfig, tables: NeighborTables, points: np.ndarray,
                          query_ids: np.ndarray | None = None):
    """Clamped estimates for every query from prebuilt neighbor tables.

    Slices the first k columns of the self-excluded tables (sorted neighbor
    prefixes nest, so one deep table serves every smaller k).  Row i of the
    tables belongs to point ``query_ids[i]`` (default: point i); only TLE
    reads the query's coordinates, and MLE reads the logs of the deepest
    prefix, which the tables compute once for every k.

    A query whose nearest other point is at distance 0 (a duplicate point)
    has no defined estimate: it is flagged divergent with the +inf
    sentinel, so ``clamp`` caps it and ``skip`` drops it from a bagged
    mean, and the kernel runs on the other queries only.
    """
    k = config.k
    if k > tables.depth:
        raise BaggingError(f"tables of depth {tables.depth} cannot serve k={k}")
    clamp_max = config.resolve_clamp(points.shape[1])
    dup = tables.excl_dist[:, 0] == 0.0
    # A slice keeps clean data on views of the tables instead of copies.
    ok = np.nonzero(~dup)[0] if dup.any() else slice(None)
    values = np.full(dup.shape[0], np.inf)
    flags = dup.copy()
    d, idx = tables.excl_dist[ok, :k], tables.excl_idx[ok, :k]
    if config.method == "tle":
        queries = points[ok] if query_ids is None else points[np.asarray(query_ids)[ok]]
        # The kernel gathers each chunk's neighbor coordinates by id.
        raw = batch_values("tle", d, points=points, neighbor_ids=idx,
                           query_points=queries)
    elif config.method == "mle":
        raw = batch_values("mle", d, normalization=config.mle_normalization,
                           logs=tables.excl_logs[ok, :k])
    else:
        raw = batch_values(config.method, d)
    values[ok], flags[ok] = raw
    return clamp_values(values, flags, clamp_max)


def bag_tables(
    dfull_cols: np.ndarray,
    bag: np.ndarray,
    query_ids: np.ndarray,
    depth_excl: int,
    depth_incl: int | None = None,
) -> NeighborTables:
    """Neighbor tables of all queries against one bag, or a stack of bags.

    ``bag`` holds one bag's m ids, or (g, m) ids of g bags.
    ``dfull_cols`` holds the distances from every query to the bag's points:
    an (nq, m) array, or a geometry ``_RowGroups`` that reads each bag's rows
    of a distance tile from the ensemble's union to a range of queries (the
    tables then stack the bags, query range within bag, and ``query_ids``
    repeats the range once per bag), and that may carry the tile's ranked
    prefix for the bags to read their rows from.  The self-excluded tables
    keep ``depth_excl`` neighbors, at most m - 1; the inclusive (smoothing)
    tables keep ``depth_incl`` (default ``depth_excl``), at most the bag
    size m, and both come from one :func:`~lidbag.geometry.neighbor_tables`
    pass over the distances.
    """
    m = bag.shape[-1]
    if depth_excl > m - 1:
        raise LocalityCapacityError(depth_excl, m)
    return neighbor_tables(dfull_cols, bag, query_ids, depth_excl, depth_incl)
