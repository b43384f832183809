"""Neighborhood smoothing and the one engine that runs all six pipelines.

A smoothed estimate is the arithmetic mean of raw estimates over the
query's k_s nearest neighbors within a reference set; the query joins its
own neighborhood only when it is itself a reference member (its
zero-distance entry wins the tie-break).  Combined with bagging this gives
three variants: post-smoothing (smooth the bagged aggregates over the full
cloud), pre-smoothing (smooth inside each bag, using only in-bag points and
their in-bag estimates, before aggregating), and both together.

:func:`run_plan` executes any set of (variant, estimator, k_s, bags) cells
over one cloud and shares every piece of work the cells have in common;
:func:`variant_estimates` is a one-cell plan and the sweep runner a
many-cell one.  :func:`cell_error` is the single feasibility rule both
apply.

Divergent-flagged inputs participate at their clamped values and taint
every smoothed value they touch, keeping the pipeline total.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import PointCloud, dist_block, neighbor_tables
from .estimators import EstimatorConfig
from .bagging import (
    AnchoredMean,
    BaggingConfig,
    LocalityCapacityError,
    bag_tables,
    draw_bags,
    estimates_from_tables,
)

#: Pipeline names accepted by :func:`variant_estimates` and the sweep grid.
VARIANTS = (
    "baseline",
    "smoothed",
    "bagged",
    "bagged_post",
    "bagged_pre",
    "bagged_pre_post",
)

_UNBAGGED = ("baseline", "smoothed")
_BAGGED = ("bagged", "bagged_post", "bagged_pre", "bagged_pre_post")
_PRE = ("bagged_pre", "bagged_pre_post")
_POST = ("bagged_post", "bagged_pre_post")


class SmoothingError(ValueError):
    """Invalid smoothing configuration or inputs."""


class SmoothingCapacityError(SmoothingError):
    """k_s exceeds the number of available reference points."""

    def __init__(self, k_s: int, available: int, message: str | None = None):
        super().__init__(message or (
            f"smoothing neighborhood k_s={k_s} exceeds the {available} "
            f"available reference points"
        ))
        self.k_s = k_s
        self.available = available


@dataclass(frozen=True)
class SmoothingConfig:
    """Smoothing neighborhood size k_s; the variant decides where it applies."""

    k_s: int

    def __post_init__(self):
        if self.k_s < 1:
            raise SmoothingError(f"need k_s >= 1, got {self.k_s}")


def gather_mean(values: np.ndarray, idx: np.ndarray, flags: np.ndarray | None = None):
    """Row means of ``values`` gathered at ``idx``; flags spread by any().

    ``idx`` holds (q, k_s) indices into ``values``.  Returns (means, flags).
    """
    sm = values[idx].mean(axis=1)
    if flags is None:
        return sm, np.zeros(idx.shape[0], dtype=bool)
    return sm, flags[idx].any(axis=1)


def smooth(estimates, reference, queries, cfg: SmoothingConfig, *, flags=None):
    """Mean of ``estimates`` over each query's k_s-NN within ``reference``.

    ``reference`` is a PointCloud or an (m, dim) array whose rows align with
    ``estimates``; ``queries`` is a (q, dim) array, e.g. new points to carry
    finished estimates onto.  A query contributes its own estimate only when
    it is literally a reference member (distance zero; equal distances break
    toward the lower reference index).

    Returns smoothed values, or (values, flags) when ``flags`` is given.
    """
    estimates = np.asarray(estimates, dtype=np.float64).reshape(-1)
    ref_points = reference.points if isinstance(reference, PointCloud) else np.asarray(reference, dtype=np.float64)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    m = ref_points.shape[0]
    if estimates.shape[0] != m:
        raise SmoothingError(
            f"got {estimates.shape[0]} estimates for {m} reference points"
        )
    if cfg.k_s > m:
        raise SmoothingCapacityError(cfg.k_s, m)
    tables = neighbor_tables(
        dist_block(queries, ref_points), np.arange(m, dtype=np.int64), None, cfg.k_s
    )
    out, out_flags = gather_mean(
        estimates, tables.incl_idx, None if flags is None else np.asarray(flags, dtype=bool)
    )
    return out if flags is None else (out, out_flags)


def cell_error(variant: str, k: int, k_s: int, n: int, m: int):
    """Why ``variant`` cannot run at (k, k_s) on n points with bags of m, or None.

    Returns the error :func:`variant_estimates` raises; its message is the
    reason the sweep records for a skipped cell.  Unbagged variants ignore
    ``m``, and variants that do not smooth ignore ``k_s``.
    """
    if variant in _UNBAGGED:
        if k > n - 1:
            return LocalityCapacityError(k, n, f"k={k} exceeds the n-1={n - 1} neighbors available")
        if variant == "smoothed" and k_s > n:
            return SmoothingCapacityError(k_s, n, f"k_s={k_s} exceeds the n={n} reference points")
        return None
    if k > m - 1:
        return LocalityCapacityError(k, m)
    if variant in _PRE and k_s > m:
        return SmoothingCapacityError(k_s, m, f"k_s={k_s} exceeds the m={m} in-bag reference points")
    if variant in _POST and k_s > n:
        return SmoothingCapacityError(
            k_s, n, f"k_s={k_s} exceeds the n={n} full-cloud reference points"
        )
    return None


@dataclass(frozen=True)
class PlanCell:
    """One pipeline run: ``variant`` of ``est``, smoothing over ``k_s`` points.

    ``bags`` is the bagging configuration of a bagged variant and None for
    ``baseline`` and ``smoothed``.
    """

    variant: str
    est: EstimatorConfig
    k_s: int
    bags: BaggingConfig | None = None


def run_plan(cloud: PointCloud, cells, emit, *, policy: str = "clamp", threads: int = 1,
             progress=None) -> None:
    """Run feasible plan cells over one cloud, sharing all the work they allow.

    * One n x n distance block is built only when a cell needs full-cloud
      neighborhoods (``baseline``, ``smoothed``, the post-smoothed variants)
      or when some ensemble's bags would cost as much distance work as the
      block (r * B >= 1).  One deep table on it serves every full-cloud
      estimate and post-smoothing neighborhood (sorted neighbor prefixes
      nest, so any smaller k is a column slice).
    * Bagged cells with the same rate and seed share one ensemble: its bags
      are drawn once, their distance columns are gathered from the shared
      block when there is one and computed per bag otherwise (the two are
      bit-identical), and one table per bag serves every cell.  Each cell is
      emitted when the growing ensemble reaches its B, so a B grid costs
      max(B) bags, not sum(B).

    ``emit(cell, values, flags, ms)`` receives each result; ``ms`` is the
    cell's attributable kernel, smoothing and aggregation time (the shared
    distance and table work is excluded).  All parallelism is a map over
    bags whose results merge in bag order, so the output does not depend on
    ``threads``.  ``progress`` receives one line per ensemble.
    """
    points, n = cloud.points, cloud.n
    ids = np.arange(n, dtype=np.int64)
    ensembles: dict[tuple, list[PlanCell]] = {}
    for cell in cells:
        if cell.bags is not None:
            ensembles.setdefault((cell.bags.rate, cell.bags.seed), []).append(cell)
    unbagged = [c for c in cells if c.bags is None]
    full_ks = [c.k_s for c in cells if c.variant == "smoothed" or c.variant in _POST]

    dfull = None
    if unbagged or full_ks or any(
        rate * max(c.bags.bags for c in group) >= 1.0
        for (rate, _), group in ensembles.items()
    ):
        dfull = dist_block(points, points)
    full = None
    if unbagged:
        depth_incl = max(full_ks) if full_ks else None
        full = bag_tables(dfull, ids, ids, max(c.est.k for c in unbagged), depth_incl)
    elif full_ks:
        full = neighbor_tables(dfull, ids, None, max(full_ks))

    for cell in unbagged:
        t0 = time.perf_counter()
        values, flags = estimates_from_tables(cell.est, full, points)
        if cell.variant == "smoothed":
            values, flags = gather_mean(values, full.incl_idx[:, : cell.k_s], flags)
        emit(cell, values, flags, (time.perf_counter() - t0) * 1e3)

    for group in ensembles.values():
        _run_ensemble(cloud, group, dfull, full, emit, policy, threads, progress)


def _run_ensemble(cloud, group, dfull, full, emit, policy, threads, progress):
    """Bagged cells sharing one (rate, seed) ensemble; see :func:`run_plan`."""
    points, n = cloud.points, cloud.n
    ids = np.arange(n, dtype=np.int64)
    checkpoints = sorted({c.bags.bags for c in group})
    bags = draw_bags(n, group[0].bags, count=checkpoints[-1])
    if progress:
        progress(f"r={group[0].bags.rate:.4g} (m={bags.shape[1]}), {checkpoints[-1]} bags")
    # One running mean per (estimator, in-bag k_s), k_s None for raw estimates.
    keys = list(dict.fromkeys((c.est, c.k_s if c.variant in _PRE else None) for c in group))
    depth_excl = max(c.est.k for c in group)
    pre_ks = [ks for _, ks in keys if ks is not None]
    depth_incl = max(pre_ks) if pre_ks else None

    def one_bag(i: int):
        bag = bags[i]
        dcols = dist_block(points, points[bag]) if dfull is None else dfull[:, bag]
        tables = bag_tables(dcols, bag, ids, depth_excl, depth_incl)
        raw, out = {}, {}
        for est, ks in keys:
            if est not in raw:
                t0 = time.perf_counter()
                v, f = estimates_from_tables(est, tables, points)
                raw[est] = (v, f, time.perf_counter() - t0)
            v, f, t = raw[est]
            if ks is not None:
                t0 = time.perf_counter()
                v, f = gather_mean(v, tables.incl_idx[:, :ks], f)
                t += time.perf_counter() - t0
            out[est, ks] = (v, f, t)
        return out

    means = {key: AnchoredMean(n) for key in keys}
    spent = dict.fromkeys(keys, 0.0)
    done = 0
    for B in checkpoints:
        for out in _ordered_map(one_bag, range(done, B), threads):
            for key, (v, f, t) in out.items():
                means[key].add(v, f)
                spent[key] += t
        done = B
        aggregates = {}
        for cell in group:
            if cell.bags.bags != B:
                continue
            key = (cell.est, cell.k_s if cell.variant in _PRE else None)
            if key not in aggregates:
                t0 = time.perf_counter()
                values, flags = means[key].result(policy)
                aggregates[key] = (values, flags, spent[key] + time.perf_counter() - t0)
            values, flags, t = aggregates[key]
            if cell.variant in _POST:
                t0 = time.perf_counter()
                values, flags = gather_mean(values, full.incl_idx[:, : cell.k_s], flags)
                t += time.perf_counter() - t0
            emit(cell, values, flags, t * 1e3)


def _ordered_map(fn, items, threads: int):
    """Map preserving input order, optionally on a thread pool."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def variant_estimates(
    cloud: PointCloud,
    variant: str,
    est: EstimatorConfig,
    bag_cfg: BaggingConfig | None = None,
    s_cfg: SmoothingConfig | None = None,
    *,
    policy: str = "clamp",
    threads: int = 1,
):
    """Run one named estimation pipeline: (values, divergence flags).

    Smoothing defaults to the estimator's own k when no config is given, and
    a config given to a variant that does not smooth is ignored; bagged
    variants require a bagging config.
    """
    if variant not in VARIANTS:
        raise SmoothingError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant in _BAGGED and bag_cfg is None:
        raise SmoothingError(f"variant {variant!r} requires a bagging config")
    if variant not in _BAGGED and bag_cfg is not None:
        raise SmoothingError(f"variant {variant!r} does not take a bagging config")
    k_s = est.k if s_cfg is None else s_cfg.k_s
    m = cloud.n if bag_cfg is None else bag_cfg.bag_size(cloud.n)
    error = cell_error(variant, est.k, k_s, cloud.n, m)
    if error is not None:
        raise error
    out = []
    run_plan(
        cloud, [PlanCell(variant, est, k_s, bag_cfg)],
        lambda cell, values, flags, ms: out.append((values, flags)),
        policy=policy, threads=threads,
    )
    return out[0]
