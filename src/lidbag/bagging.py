"""Bag drawing, the anchored aggregator, and the per-bag building blocks.

Bags are index sets of size m = ceil(n * r) drawn without replacement, and
bag i is a pure function of (seed, i).  For a query inside bag i the
per-bag estimate uses the bag minus the query as reference (m - 1 points);
for a query outside, the full bag (m points): :func:`bag_tables` builds
both kinds of neighborhood from one distance block and
:func:`estimates_from_tables` turns them into clamped estimates.  The
bagged aggregate is the per-query mean over bags, kept by
:class:`AnchoredMean`, which (a) is exact when all per-bag values coincide
— so sampling at rate r = 1 reproduces the baseline estimator bit-for-bit —
and (b) consumes bags in ordinal order, making results independent of
worker scheduling.  The pipelines that combine these live in
:mod:`lidbag.smoothing`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    column equals it.  Divergence-aware: tracks both the all-column sum
    (clamp policy) and the unflagged-column sum (skip policy).
    """

    def __init__(self, n: int):
        self._anchor = None
        self._sum_all = np.zeros(n)
        self._sum_ok = np.zeros(n)
        self._cnt_ok = np.zeros(n, dtype=np.int64)
        self._any_flag = np.zeros(n, dtype=bool)
        self._count = 0

    def add(self, values: np.ndarray, flags: np.ndarray) -> None:
        if self._anchor is None:
            self._anchor = values.copy()
        diff = values - self._anchor
        self._sum_all += diff
        ok = ~flags
        self._sum_ok += np.where(ok, diff, 0.0)
        self._cnt_ok += ok
        self._any_flag |= flags
        self._count += 1

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


def estimates_from_tables(
    config: EstimatorConfig,
    tables: NeighborTables,
    points: np.ndarray,
    *,
    k: int | None = None,
):
    """Clamped estimates for every query from prebuilt neighbor tables.

    Slices the first k columns of the self-excluded tables (sorted neighbor
    prefixes nest, so one deep table serves every smaller k).
    """
    k = config.k if k is None else k
    if k > tables.depth:
        raise BaggingError(f"tables of depth {tables.depth} cannot serve k={k}")
    d = tables.excl_dist[:, :k]
    if config.method == "tle":
        values, flags = batch_values(
            "tle",
            d,
            neighbor_points=points[tables.excl_idx[:, :k]],
            query_points=points,
        )
    else:
        values, flags = batch_values(
            config.method, d, normalization=config.mle_normalization
        )
    return clamp_values(values, flags, config.resolve_clamp(points.shape[1]))


def bag_tables(
    dfull_cols: np.ndarray,
    bag: np.ndarray,
    query_ids: np.ndarray,
    depth_excl: int,
    depth_incl: int | None = None,
) -> NeighborTables:
    """Neighbor tables of all queries against one bag.

    ``dfull_cols`` holds the distances from every query to the bag's points
    (typically a column gather of the full distance matrix, which is exactly
    equal to recomputing them).  ``depth_incl`` may exceed ``depth_excl`` up
    to the bag size for smoothing neighborhoods.
    """
    m = bag.shape[0]
    combined = depth_excl if depth_incl is None else max(depth_excl, depth_incl)
    if combined <= m - 1:
        return neighbor_tables(dfull_cols, bag, query_ids, combined)
    if depth_excl > m - 1:
        raise LocalityCapacityError(depth_excl, m)
    est = neighbor_tables(dfull_cols, bag, query_ids, depth_excl)
    incl = neighbor_tables(dfull_cols, bag, None, min(depth_incl, m))
    return NeighborTables(incl.incl_idx, incl.incl_dist, est.excl_idx, est.excl_dist)
