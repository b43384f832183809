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

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import (
    GeometryError,
    PointCloud,
    _query_tiles,
    _RowGroups,
    dist_block,
    neighbor_tables,
)
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
    if flags is None or not flags.any():
        return sm, np.zeros(idx.shape[0], dtype=bool)
    return sm, flags[idx].any(axis=1)


def smooth(estimates, reference, queries, cfg: SmoothingConfig, *, flags=None):
    """Mean of ``estimates`` over each query's k_s-NN within ``reference``.

    ``reference`` is a PointCloud or an (m, dim) array whose rows align with
    ``estimates``; ``queries`` is a (q, dim) array, e.g. new points to carry
    finished estimates onto.  A query contributes its own estimate only when
    it is literally a reference member (distance zero; equal distances break
    toward the lower reference index).  Non-finite coordinates raise
    :class:`~lidbag.geometry.GeometryError`, and ``flags`` must hold one
    flag per reference point.

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
    if flags is not None:
        flags = np.asarray(flags, dtype=bool).reshape(-1)
        if flags.shape[0] != m:
            raise SmoothingError(f"got {flags.shape[0]} flags for {m} reference points")
    for name, arr in (("reference", ref_points), ("queries", queries)):
        if not np.all(np.isfinite(arr)):
            raise GeometryError(f"{name} coordinates must be finite")
    if cfg.k_s > m:
        raise SmoothingCapacityError(cfg.k_s, m)
    ids = np.arange(m, dtype=np.int64)
    hood = np.empty((queries.shape[0], cfg.k_s), dtype=np.int64)
    for lo, hi in _query_tiles(queries.shape[0], m):
        block = dist_block(ref_points, queries[lo:hi])
        hood[lo:hi] = neighbor_tables(_RowGroups(block, ids), ids, None, cfg.k_s).incl_idx
    out, out_flags = gather_mean(estimates, hood, flags)
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

    * The work is a map over query tiles.  Each tile computes, in one
      :func:`~lidbag.geometry.dist_block` call of at most a tile budget of
      entries, the distances from its queries to the union U of every
      reference set the plan ranks against (the whole cloud when a
      full-cloud table is needed, else the union of the ensembles' bags),
      and ranks every table's rows of the tile from it.  Distance work is
      n * |U|, at most n^2 and at most the sum of the bags' n * m, and
      memory is one tile plus O(n) per result and O(B * (n + m)) per
      ensemble: no n x n or n x m block is ever built.
    * One deep full-cloud table serves every ``baseline`` and ``smoothed``
      estimate and every post-smoothing neighborhood (sorted neighbor
      prefixes nest, so any smaller k is a column slice).
    * Each tile is ranked at most once: every query of the tile over all
      of U by (distance, id) (:class:`~lidbag.geometry._RankedTile`), to a
      depth D that serves the full-cloud table (its prefix) and the
      ensembles whose bags read their tables from the ranking, when
      :func:`_thin_depth` finds that their saving pays for it: wide bags
      thin it (each keeps its members of a query's ranking, in order), and
      many narrow bags select from it (each sorts its members' ranks in
      it); neither sorts a distance again, and a row that meets too few
      members is partitioned.  The other ensembles partition their m
      columns.  A plan without a full-cloud table ranks its tiles only for
      narrow bags that select, at the cost of a ranking of all u columns
      per query.
    * Every table serves all its MLE k values from one ``np.log`` of its
      self-excluded prefix.
    * Bagged cells with the same rate and seed share one ensemble: its bags
      are drawn once, and in each tile their tables are built as one stack,
      each estimator runs once over the stack, and one table per bag serves
      every cell.  The stack is folded into running means in bag order, and
      each cell takes the mean at its B, so a B grid costs max(B) bags, not
      sum(B).
    * Pre-smoothing reads every member's in-bag estimate, which later tiles
      may compute.  Ensembles keep every query's in-bag neighborhood
      (B * n * k_s positions of one or two bytes) while those fit
      ``_HOOD_BYTES``, widest bags first and up to the first that does
      not fit: they take their members' estimates from the main map and
      gather in a second map.  Any other pre-smoothed ensemble first
      computes its members' estimates in a map over tiles of the union M
      of those ensembles' bags (|U| * |M| more distances, and each bag
      ranks the rows of its own B * m members once more), keeps those
      B * m values, and the main map gathers from them as soon as a tile
      is ranked.

    ``emit(cell, values, flags, ms)`` receives each result; ``ms`` is the
    cell's attributable kernel, smoothing and aggregation time (the shared
    distance and table work is excluded).  All parallelism is a map over
    query tiles, and every per-query result depends on that query's rows
    alone (:class:`~lidbag.bagging.AnchoredMean` adds bags query by query),
    so the output does not depend on ``threads``, which must be at least 1.
    ``progress`` receives one line per ensemble.
    """
    if threads < 1:
        raise SmoothingError(f"threads must be >= 1, got {threads}")
    points, n = cloud.points, cloud.n
    ids = np.arange(n, dtype=np.int64)
    groups: dict[tuple, list[PlanCell]] = {}
    for cell in cells:
        if cell.bags is not None:
            groups.setdefault((cell.bags.rate, cell.bags.seed), []).append(cell)
    ensembles = [_Ensemble(n, group) for group in groups.values()]
    if progress:
        for e in ensembles:
            progress(f"r={e.cells[0].bags.rate:.4g} (m={e.bags.shape[1]}), {e.bags.shape[0]} bags")
    unbagged = [c for c in cells if c.bags is None]
    ests = list(dict.fromkeys(c.est for c in unbagged))
    full_ks = [c.k_s for c in cells if c.variant == "smoothed" or c.variant in _POST]
    hood = np.empty((n, max(full_ks)), dtype=np.int64) if full_ks else None
    raw = {est: (np.empty(n), np.empty(n, dtype=bool)) for est in ests}

    full = bool(ests or full_ks)
    if full:
        union = ids
    elif ensembles:
        union = np.unique(np.concatenate([e.bags.ravel() for e in ensembles]))
    else:
        return
    refs = points if full else points[union]
    u = union.shape[0]
    for e in ensembles:
        e.rows = e.bags if full else np.searchsorted(union, e.bags)

    full_incl = hood.shape[1] if full_ks else 0
    full_depth = max((est.k for est in ests), default=full_incl)

    def full_tile(block, prefix, lo, hi):
        source, qids = _RowGroups(block, ids, prefix=prefix), ids[lo:hi]
        if ests:
            tables = bag_tables(source, ids, qids, full_depth, full_incl or None)
        else:
            tables = neighbor_tables(source, ids, None, full_incl)
        if full_ks:
            hood[lo:hi] = tables.incl_idx
        spent = {}
        for est in ests:
            t0 = time.perf_counter()
            values, flags = raw[est]
            values[lo:hi], flags[lo:hi] = estimates_from_tables(est, tables, points, qids)
            spent[est] = time.perf_counter() - t0
        return spent

    # Pre-smoothed ensembles keep their neighborhoods, widest bags first
    # (their member pass would cost the most), until one does not fit.
    budget = _HOOD_BYTES
    for e in sorted((e for e in ensembles if e.pre_keys), key=lambda e: -e.bags.shape[1]):
        B, m = e.bags.shape
        size = B * n * e.depth_incl * np.min_scalar_type(m - 1).itemsize
        if size > budget:
            break
        e.hoods = np.empty((B, n, e.depth_incl), dtype=np.min_scalar_type(m - 1))
        budget -= size

    # A tile is ranked once, as deep as the plan's full-cloud table (if any)
    # and the ensembles that the cost rule lets read their tables from the
    # ranking need; the other ensembles partition.
    ranked = geometry._prefix_need(full_depth, full_incl, n) if full else 0
    prefix_depth = ranked
    for e in ensembles:
        e.thin = _thin_depth(u, e.bags.shape[1], e.need, e.bags.shape[0], ranked)
        prefix_depth = max(prefix_depth, e.thin)

    spent = {}
    pre = [e for e in ensembles if e.pre_keys and e.hoods is None]
    if pre:
        members = np.unique(np.concatenate([e.bags.ravel() for e in pre]))

        def member_tile(span):
            tile_ids = members[span[0] : span[1]]
            # Members are the queries here: they read whole rows of the
            # tile, so it is laid out query-major (the transpose of an
            # exactly symmetric block).
            block = dist_block(points[tile_ids], refs).T
            return _sum_times([e.members(block, tile_ids, points) for e in pre])

        spent = _sum_times(_ordered_map(member_tile, _query_tiles(members.shape[0], u), threads))

    def one_tile(span):
        lo, hi = span
        block = dist_block(refs, points[lo:hi])
        prefix = geometry._RankedTile(block, prefix_depth) if prefix_depth else None
        spent = full_tile(block, prefix, lo, hi) if full else {}
        for e in ensembles:
            spent.update(e.tile(block, prefix if e.thin else None, lo, hi, points, policy))
        return spent

    tiles = _query_tiles(n, u)
    spent = _sum_times([spent] + _ordered_map(one_tile, tiles, threads))
    kept = [e for e in ensembles if e.hoods is not None]
    if kept:
        spent = _sum_times([spent] + _ordered_map(
            lambda span: _sum_times([e.pre_tile(*span, policy) for e in kept]), tiles, threads))

    for cell in unbagged:
        values, flags = raw[cell.est]
        t = spent[cell.est]
        if cell.variant == "smoothed":
            t0 = time.perf_counter()
            values, flags = gather_mean(values, hood[:, : cell.k_s], flags)
            t += time.perf_counter() - t0
        emit(cell, values, flags, t * 1e3)
    for e in ensembles:
        e.emit(emit, hood, spent)


#: Bytes of in-bag neighborhoods a plan may keep for pre-smoothing (16 MiB);
#: an ensemble beyond it ranks its members' rows twice instead.  Keeping
#: them spares the default M12_Norm sweep a member pass of about a fifth
#: of its run time (0.95 of 4.5 s under a profiler), and that sweep keeps
#: 14 MB of them; a B grid's ensembles of 400 bags do not fit.
_HOOD_BYTES = 2**24


def _thin_depth(u: int, m: int, need: int, bags: int, ranked: int) -> int:
    """Depth D of a tile's ranked prefix from which ``bags`` bags of m of
    its u reference points take their ``need`` nearest members, or 0 when
    partitioning each bag's m columns is faster.  ``ranked`` is the depth
    to which the plan ranks its tiles anyway (its full-cloud table's), 0
    when it ranks none.

    A bag's members among a query's first D ranks are Hypergeometric(u, m,
    D) (the query's own rank is one more member), with mean D * p, p = m /
    u.  D is the smallest depth whose mean lies ``_THIN_Z`` standard
    deviations (without the finite-population factor, so wider) above
    ``need``: about need / p + z * sqrt(need * (1 - p)) / p, at most u.  A
    row that falls short anyway is partitioned.

    Per query, and in units of one prefix cell (the time a ranking takes
    per rank it goes deeper, about 0.08 us on a 2-vCPU VM at one thread):

    * a partitioned row costs m / 12.5 + 0.75 * need;
    * a row read from the prefix costs D / 20 when D <= m (it is thinned
      from the prefix's D cells), else m / 25 + need / 12 (it is selected
      by a sort of its m members' ranks), plus D / 11 per query for the
      inverse ranks;
    * the prefix costs D - ranked more than the plan ranks anyway, or,
      when it ranks none, u / 14 + D for a ranking of all u columns.

    D is chosen when the bags' saving exceeds the prefix's cost, except
    that a plan without a full-cloud table ranks only for bags that select
    (D > m).  Thinning wide bags from a ranking of their union does pay:
    ``bagged`` at n = 2500, r = 0.5, B = 10 (D = 51) took 164 ms against
    394 ms partitioned.  But it costs little more than the baseline, whose
    ranking of the whole cloud it repeats: over 25 runs of the runtime
    crossover (``sweep.benchmark_runtime`` at r * B = 5, acceptance
    criterion C9) the bagged variant took 0.83 to 1.52 times the
    baseline's time, so the criterion, which must find it slower, would
    fail about one run in ten.  Such plans partition, as before.  The
    partition and thinning constants are least-squares fits to per-row
    times on M12_Norm, u = 2500, ten bags of one (u, q) tile (best of
    five) at need = 11, 31 and 73 and m = 125 to 2000: at need = 73, m =
    554, D = 497, a row took 5.0 us partitioned and 1.6 us thinned and the
    deeper prefix 18 us per query, so thinning pays from 5.3 bags (the rule
    says 5.7); m = 772 from 2.5 (2.8), m = 1500 from 0.4 (0.55).  The
    fits put the crossover too high at need = 11 (m = 554, D = 138: from
    1.8 bags, the rule says 2.8), so the rule errs towards partitioning.
    A ``baseline`` plus ``bagged_post`` plan (mle, k = k_s = 72, n = 2500,
    median of five) took 116 ms thinned against 76 ms partitioned at m =
    550, B = 1, and 186 against 196 ms at B = 10.  The selection, ranking
    and inverse constants are fits to per-row and per-query times of the
    same kind at u = 2500, 3221 and 8000, m = 105 to 2000 and D = 11 to
    1500 (the measured saving of a selected row over a partitioned one,
    taken from the partition formula): at m = 125, need = 11 a row took
    2.1 us partitioned and 0.8 us selected, and a u = 2500 ranking to D =
    672 about 60 us per query, so selection pays from about 50 bags (the
    rule says 74).  Whole ``bagged`` plans agree (M12_Norm, n = 2500, mle
    k = 10, median of five): 60 bags of 125 took 459 ms partitioned against
    528 ms selected, 100 bags 702 against 661 ms; and ten 5% bags at n =
    8000 took 0.79-0.83 s partitioned against 0.90-1.00 s thinned from a
    ranking of their union.  The prefix is shared by the plan's ensembles
    and its full-cloud table, but each ensemble is weighed alone.  The
    default k x r sweep (B = 10) thins its four widest bags (m = 554 to
    1500) and partitions the others (m = 397, D = 704 would select at a
    saving of 646 against a cost of 695); the B-sweep's 400 bags of m =
    125 (u = 2500, D = 672) select; ten 5% bags at n = 8000 partition,
    over their union (u ≈ 3200, D ≈ 260 <= m, where the costs agree: a
    saving of 273 against 488) and next to a full-cloud table (u = 8000,
    D = 672: 233 against 722).
    """
    p = m / u
    spread = _THIN_Z * math.sqrt(1.0 - p)
    depth = min(u, math.ceil(((spread + math.sqrt(spread * spread + 4 * need)) / 2) ** 2 / p))
    if depth <= m and not ranked:
        return 0
    row, inverse = (depth / 20, 0.0) if depth <= m else (m / 25 + need / 12, depth / 11)
    saving = bags * (m / 12.5 + 0.75 * need - row)
    cost = inverse + (depth - ranked if ranked else u / 14 + depth)
    return depth if saving > cost else 0


#: Standard deviations by which the mean member count of a thinned prefix
#: exceeds ``need``: in the normal approximation about 3e-5 of the rows
#: fall back to a partition.
_THIN_Z = 4.0


def _sum_times(parts):
    """Sum dicts of seconds key by key."""
    total = {}
    for part in parts:
        for key, t in part.items():
            total[key] = total.get(key, 0.0) + t
    return total


def _segments(count: int, rows_each: int, width: int):
    """Consecutive ranges of ``count`` items, ``rows_each`` table rows of
    ``width`` columns per item, that hold at most one tile budget of cells
    (at least one item per range, ranges of equal size).  A row counts as
    at least 64 cells, for the estimator's and the fold's temporaries of
    each row: without that floor a stack of shallow tables (k = 10) took
    2.4 times the memory (a traced peak of 24.2 against 10.1 MB for
    ``bagged`` at n = 1000, B = 400, r = 0.25)."""
    per = max(1, geometry._UNION_CELLS // max(1, rows_each * max(64, width)))
    per = -(-count // -(-count // per))
    return [(lo, min(count, lo + per)) for lo in range(0, count, per)]


class _Ensemble:
    """The bagged cells of one (rate, seed) ensemble and the state they share.

    Results are kept per key, one key per (estimator, in-bag k_s) with k_s
    None for raw estimates, and per checkpoint B.  ``rows`` holds the bags'
    positions among the rows of each distance tile.
    """

    def __init__(self, n: int, cells):
        self.cells = cells
        self.checkpoints = sorted({c.bags.bags for c in cells})
        self.bags = draw_bags(n, cells[0].bags, count=self.checkpoints[-1])
        self.rows = None
        keys = list(dict.fromkeys((c.est, c.k_s if c.variant in _PRE else None) for c in cells))
        self.raw_keys = [key for key in keys if key[1] is None]
        self.pre_keys = [key for key in keys if key[1] is not None]
        self.depth_incl = max((ks for _, ks in self.pre_keys), default=None)
        shape = (len(self.checkpoints), n)
        self.means = {key: (np.empty(shape), np.empty(shape, dtype=bool)) for key in keys}
        # Pre-smoothing gathers each bag's in-bag estimates of its members,
        # kept by position in the bag.
        B, m = self.bags.shape
        self.kept = {est: (np.empty((B, m)), np.empty((B, m), dtype=bool))
                     for est, _ in self.pre_keys}
        # Positions in the bag of every query's in-bag neighborhood, when
        # the plan's budget lets this ensemble keep them.
        self.hoods = None
        # Depth of the tile prefix this ensemble's tables read from, 0 when
        # they partition (:func:`_thin_depth`).
        self.thin = 0

    def members(self, block, tile_ids, points):
        """Keep the in-bag estimates of the bags' members among
        ``tile_ids``, the ascending ids of ``block``'s columns; returns
        seconds spent per pre-smoothed key."""
        # Bags ascend, so each bag's members among the columns are a run.
        j0 = (self.bags < tile_ids[0]).sum(axis=1)
        counts, count = (self.bags <= tile_ids[-1]).sum(axis=1) - j0, self.bags.shape[0]
        depth = max(est.k for est in self.kept)
        spent = dict.fromkeys(self.kept, 0.0)
        for b0, b1 in _segments(count, -(-int(counts.sum()) // count), depth):
            c = counts[b0:b1]
            bi = np.repeat(np.arange(b1 - b0), c)
            bj = np.arange(c.sum()) + np.repeat(j0[b0:b1] - (np.cumsum(c) - c), c)
            qids = self.bags[b0 + bi, bj]
            source = _RowGroups(block, self.rows[b0:b1], (bi, np.searchsorted(tile_ids, qids)))
            tables = bag_tables(source, self.bags[b0:b1], qids, depth, 0)
            for est, (kept_values, kept_flags) in self.kept.items():
                t0 = time.perf_counter()
                kept_values[b0 + bi, bj], kept_flags[b0 + bi, bj] = estimates_from_tables(
                    est, tables, points, qids)
                spent[est] += time.perf_counter() - t0
        return {(self, key): spent[key[0]] for key in self.pre_keys}

    @property
    def tile_ests(self):
        """The estimators run on every bag's rows of a tile: the raw ones,
        and the kept members' ones when the neighborhoods are kept."""
        stored = self.hoods is not None
        return list(dict.fromkeys(
            [est for est, _ in self.raw_keys] + (list(self.kept) if stored else [])))

    @property
    def need(self):
        """Ranked entries per row of the bag tables of a tile."""
        depth = max((est.k for est in self.tile_ests), default=0)
        return geometry._prefix_need(depth, self.depth_incl or 0, self.bags.shape[1])

    def tile(self, block, prefix, lo, hi, points, policy):
        """Rank and estimate every bag's rows of queries lo..hi, pre-smooth
        them or keep their neighborhoods, and fold them; returns seconds
        spent per key.  With the tile's ranked ``prefix`` the bags' tables
        are read from it, else partitioned."""
        q, (count, m) = hi - lo, self.bags.shape
        qids = np.arange(lo, hi, dtype=np.int64)
        stored = self.hoods is not None
        keys = self.raw_keys + ([] if stored else self.pre_keys)
        # Raw estimates and kept member estimates need the self-excluded
        # tables, pre-smoothing the inclusive ones.
        ests = self.tile_ests
        depth = max((est.k for est in ests), default=0)
        depth_incl = self.depth_incl or 0
        acc = AnchoredMean(len(keys) * q)
        spent = dict.fromkeys(self.raw_keys + self.pre_keys, 0.0)
        for b0, b1 in _segments(count, q, depth + depth_incl):
            bag_q = np.tile(qids, b1 - b0)
            tables = bag_tables(_RowGroups(block, self.rows[b0:b1], prefix=prefix),
                                self.bags[b0:b1], bag_q, depth, depth_incl)
            if stored:
                # The bags' members among the queries, as (bag, position).
                bi, bj = np.nonzero((self.bags[b0:b1] >= lo) & (self.bags[b0:b1] < hi))
                bq = self.bags[b0 + bi, bj] - lo
            raw = {}
            for est in ests:
                t0 = time.perf_counter()
                values, flags = estimates_from_tables(est, tables, points, bag_q)
                raw[est] = values.reshape(b1 - b0, q), flags.reshape(b1 - b0, q)
                if stored and est in self.kept:
                    kept_values, kept_flags = self.kept[est]
                    kept_values[b0 + bi, bj] = raw[est][0][bi, bq]
                    kept_flags[b0 + bi, bj] = raw[est][1][bi, bq]
                t = time.perf_counter() - t0
                for key in spent:
                    spent[key] += t * (key[0] == est)
            parts = [raw[est] for est, _ in self.raw_keys]
            if self.pre_keys:
                # Each query's in-bag neighborhood, as positions in its bag:
                # ``where`` maps a member's id to its position in each bag
                # of the segment, in the narrowest type that holds m - 1.
                t0 = time.perf_counter()
                n, bag = points.shape[0], np.arange(b1 - b0)[:, None]
                where = np.empty((b1 - b0) * n, dtype=np.min_scalar_type(m - 1))
                where[self.bags[b0:b1] + bag * n] = np.arange(m)
                hood = where[tables.incl_idx.reshape(b1 - b0, -1) + bag * n]
                if stored:
                    self.hoods[b0:b1, lo:hi] = hood.reshape(b1 - b0, q, -1)
                else:
                    # Positions in the segment's flattened kept estimates.
                    hood = (hood + bag * m).reshape(b1 - b0, q, -1)
                    for est, ks in self.pre_keys:
                        values, flags = (a[b0:b1].reshape(-1) for a in self.kept[est])
                        v, f = gather_mean(values, hood[:, :, :ks].reshape(-1, ks), flags)
                        parts.append((v.reshape(b1 - b0, q), f.reshape(b1 - b0, q)))
                t = (time.perf_counter() - t0) / len(self.pre_keys)
                for key in self.pre_keys:
                    spent[key] += t
            if keys:
                t0 = time.perf_counter()
                self._fold(acc, keys, parts, b0, lo, hi, policy)
                t = (time.perf_counter() - t0) / len(keys)
                for key in keys:
                    spent[key] += t
        return {(self, key): t for key, t in spent.items()}

    def pre_tile(self, lo, hi, policy):
        """Pre-smooth every bag's rows of queries lo..hi from the kept
        neighborhoods and fold them."""
        q, (count, m) = hi - lo, self.bags.shape
        acc = AnchoredMean(len(self.pre_keys) * q)
        t0 = time.perf_counter()
        for b0, b1 in _segments(count, q, self.depth_incl):
            offsets = (np.arange(b0, b1) * m)[:, None, None]
            parts = []
            for est, ks in self.pre_keys:
                values, flags = self.kept[est]
                idx = (self.hoods[b0:b1, lo:hi, :ks] + offsets).reshape(-1, ks)
                v, f = gather_mean(values.reshape(-1), idx, flags.reshape(-1))
                parts.append((v.reshape(b1 - b0, q), f.reshape(b1 - b0, q)))
            self._fold(acc, self.pre_keys, parts, b0, lo, hi, policy)
        t = (time.perf_counter() - t0) / len(self.pre_keys)
        return {(self, key): t for key in self.pre_keys}

    def _fold(self, acc, keys, parts, b0, lo, hi, policy):
        """Add bags b0.. to ``acc``, one (bags, q) ``parts`` entry per key
        side by side, and store each key's mean at every checkpoint reached."""
        q = hi - lo
        values = np.concatenate([v for v, _ in parts], axis=1)
        flags = np.concatenate([f for _, f in parts], axis=1)
        start, end = b0, b0 + values.shape[0]
        for i, B in enumerate(self.checkpoints):
            if start < B <= end:
                acc.add(values[start - b0 : B - b0], flags[start - b0 : B - b0])
                mean, mean_flags = acc.result(policy)
                for j, key in enumerate(keys):
                    self.means[key][0][i, lo:hi] = mean[j * q : (j + 1) * q]
                    self.means[key][1][i, lo:hi] = mean_flags[j * q : (j + 1) * q]
                start = B
        if start < end:
            acc.add(values[start - b0 :], flags[start - b0 :])

    def emit(self, emit, hood, spent):
        """Emit every cell at its checkpoint, post-smoothing over ``hood``."""
        for i, B in enumerate(self.checkpoints):
            for cell in self.cells:
                if cell.bags.bags != B:
                    continue
                key = (cell.est, cell.k_s if cell.variant in _PRE else None)
                values, flags = self.means[key][0][i], self.means[key][1][i]
                t = spent[self, key]
                if cell.variant in _POST:
                    t0 = time.perf_counter()
                    values, flags = gather_mean(values, hood[:, : cell.k_s], flags)
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
