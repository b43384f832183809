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
apply.  There is no separate full-cloud path: ``baseline`` is the
ensemble of one bag holding the whole cloud (B = 1, r = 1, which the
rate-1 identity makes bit-identical to the unbagged estimator), and
``smoothed`` is that ensemble pre-smoothed.

Divergent-flagged inputs participate at their clamped values and taint
every smoothed value they touch, keeping the pipeline total.
"""

from __future__ import annotations

import contextlib
import math
import threading
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
    _TileBuffers,
    dist_block,
    neighbor_tables,
)
from .estimators import EstimatorConfig
from .bagging import (
    DIVERGENCE_POLICIES,
    AnchoredMean,
    BaggingConfig,
    BaggingError,
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
    tiles = _query_tiles(queries.shape[0], m)
    buffers = _TileBuffers(tiles, m)
    for lo, hi in tiles:
        block = dist_block(ref_points, queries[lo:hi], out=buffers.out(lo, hi))
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

    * Every cell belongs to an ensemble of bags.  Bagged cells with the
      same rate and seed share one.  The unbagged cells share the whole
      cloud's ensemble: one bag of all n points at checkpoint B = 1, whose
      raw means are ``baseline`` and whose in-bag (here: full-cloud)
      pre-smoothed means are ``smoothed``.  It exists whenever the plan
      has an unbagged cell or post-smooths, and it keeps its
      neighborhoods, which serve every post-smoothing gather (sorted
      neighbor prefixes nest, so any smaller k_s is a column slice).
    * The work is a map over query tiles.  Each tile computes, in one
      :func:`~lidbag.geometry.dist_block` call of at most a tile budget of
      entries, the distances from its queries to the union U of the
      ensembles' bags (every point when the whole cloud is one of them),
      and ranks every table's rows of the tile from it.  Distance work is
      n * |U| per round, at most n^2 and at most the sum of the bags'
      n * m, and memory is one tile per worker (one buffer, reused for
      every tile of the map and freed when it ends) plus O(n) per result,
      the B * m ids of each ensemble's bags and one round's kept
      neighborhoods: no n x n or n x m block is ever built.
    * Each tile is ranked at most once a round: every query of the tile
      over all of U by (distance, id) (:class:`~lidbag.geometry._RankedTile`),
      to a depth D that serves the whole cloud's tables (their prefix) and
      the round's ensembles whose bags read their tables from the ranking,
      when :func:`_thin_depth` finds that their saving pays for it: wide
      bags thin it (each keeps its members of a query's ranking, in order),
      and many narrow bags select from it (each sorts its members' ranks in
      it); neither sorts a distance again, and a row that meets too few
      members is partitioned.  The other ensembles partition their m
      columns.  A plan without the whole cloud ranks its tiles only for
      narrow bags that select, at the cost of a ranking of all u columns
      per query.
    * Every table serves all its MLE k values from one ``np.log`` of its
      self-excluded prefix.
    * An ensemble's bags are drawn once, and in each tile their tables are
      built as one stack, each estimator runs once over the stack, and one
      table per bag serves every cell.  The stack is folded into running
      means in bag order, and each cell takes the mean at its B, so a B
      grid costs max(B) bags, not sum(B).
    * Pre-smoothing reads every member's in-bag estimate, which later tiles
      may compute, so an ensemble keeps its members' estimates (B * m
      values) and every query's in-bag neighborhood (B * n * k_s positions
      of one or two bytes) from the map over tiles, and a second map
      gathers and folds.  The plan runs in rounds that keep at most
      ``_HOOD_BYTES`` of them (:func:`_rounds`): round 1 also holds every
      ensemble that does not pre-smooth, and each further round runs parts
      of the pre-smoothed ensembles, widest bags first, at the cost of one
      more map of n * |U| distances.  The whole cloud, listed first and as
      wide as any bag, always runs in round 1, and its cells are emitted
      first.  Each tile's running means carry over from one round to the
      next, so the rounds change no bit.

    ``emit(cell, values, flags, ms)`` receives each result; ``ms`` is the
    time the plan's clock charged to the cell: the kernels whose estimates
    it reads, its gathers and its share of aggregation (for the unbagged
    cells too: the fold of their one bag), not the shared distance and
    table work.  All parallelism is a map over query tiles,
    and every per-query result depends on that query's rows alone
    (:class:`~lidbag.bagging.AnchoredMean` adds bags query by query), so
    the output does not depend on ``threads``, which must be at least 1.
    ``progress`` receives one line per bagged ensemble.
    """
    if threads < 1:
        raise SmoothingError(f"threads must be >= 1, got {threads}")
    if policy not in DIVERGENCE_POLICIES:
        raise BaggingError(f"unknown divergence policy {policy!r}")
    points, n = cloud.points, cloud.n
    seconds, lock = {}, threading.Lock()

    @contextlib.contextmanager
    def clock(keys, share=False):
        # Adds the block's time to every key, or an equal share to each.
        t0 = time.perf_counter()
        yield
        t = (time.perf_counter() - t0) / (max(1, len(keys)) if share else 1)
        with lock:
            for key in keys:
                seconds[key] = seconds.get(key, 0.0) + t

    groups: dict[tuple | None, list[PlanCell]] = {}
    for cell in cells:
        groups.setdefault(None if cell.bags is None else (cell.bags.rate, cell.bags.seed),
                          []).append(cell)
    unbagged, post = groups.pop(None, []), [c.k_s for c in cells if c.variant in _POST]
    ensembles = [_Ensemble(n, draw_bags(n, group[0].bags, count=max(c.bags.bags for c in group)),
                           group, clock, name) for name, group in groups.items()]
    if progress:
        for e in ensembles:
            progress(f"r={e.name[0]:.4g} (m={e.bags.shape[1]}), {e.bags.shape[0]} bags")
    # The whole cloud is one more ensemble, of one bag: its raw means are
    # the baseline, its pre-smoothed ones the smoothed variant, and its
    # kept neighborhoods post-smooth.  It comes first, so it runs in round
    # 1 and its cells are emitted first.
    cloud_bag = None
    if unbagged or post:
        cloud_bag = _Ensemble(n, np.arange(n)[None], unbagged, clock, None, max(post, default=0))
        ensembles.insert(0, cloud_bag)
    if not ensembles:
        return
    union = np.unique(np.concatenate([e.bags.ravel() for e in ensembles]))
    u = union.shape[0]
    # A sorted union of all n ids is arange(n): read the cloud, not a copy.
    refs = points if u == n else points[union]
    # A tile is ranked once per round, as deep as the round's ensembles
    # that read their tables from the ranking need: the whole cloud's
    # always, the others' when the cost rule says so; the rest partition.
    ranked = cloud_bag.need if cloud_bag else 0
    for e in ensembles:
        e.rows = np.searchsorted(union, e.bags)
        e.thin = ranked if e is cloud_bag else _thin_depth(
            u, e.bags.shape[1], e.need, e.bags.shape[0], ranked)

    tiles = _query_tiles(n, u)
    for parts in _rounds(ensembles, n):
        depth = max(e.thin for e, _, _ in parts)
        for e, b0, b1 in parts:
            e.hold(b1 - b0, n)

        buffers = _TileBuffers(tiles, u)

        def one_tile(span):
            lo, hi = span
            block = dist_block(refs, points[lo:hi], out=buffers.out(lo, hi))
            prefix = geometry._RankedTile(block, depth) if depth else None
            for e, b0, b1 in parts:
                e.tile(block, prefix if e.thin else None, lo, hi, b0, b1, points, policy)

        _ordered_map(one_tile, tiles, threads)
        # The tiles are not read again: pre-smoothing gathers kept values.
        del buffers
        pre = [part for part in parts if part[0].pre_keys]
        if pre:
            _ordered_map(lambda span: [e.pre_tile(*span, b0, b1, policy) for e, b0, b1 in pre],
                         tiles, threads)
        for e, _, _ in parts:
            e.kept = None
            if e is not cloud_bag:
                e.hoods = None

    def finish(cell, key, values, flags):
        # Every cell's emit step: its post-smoothing, then its clock time.
        if cell.variant in _POST:
            with clock([cell]):
                values, flags = gather_mean(values, cloud_bag.hoods[0, :, : cell.k_s], flags)
        emit(cell, values, flags, (seconds.get(key, 0.0) + seconds.pop(cell, 0.0)) * 1e3)

    for e in ensembles:
        e.emit(finish)


#: Bytes of in-bag neighborhoods one round of a plan keeps for
#: pre-smoothing (16 MiB); the members' estimates of the same bags add 9
#: bytes per member and estimator.  The default M12_Norm sweep keeps 14.8 MB
#: of neighborhoods in its first round (0.36 MB of them the whole cloud's)
#: and 12.6 MB in its second; each further round costs one more pass of
#: distance tiles over the cloud.
_HOOD_BYTES = 2**24


def _rounds(ensembles, n: int):
    """The plan's rounds: lists of ensemble parts (ensemble, b0, b1), bags
    b0..b1 of a pre-smoothed ensemble or all of any other.

    A pre-smoothed ensemble is cut into parts of consecutive bags whose
    kept neighborhoods fit ``_HOOD_BYTES`` (one bag at least, the whole
    ensemble when it fits).  Parts fill rounds, widest bags first (the
    sort is stable, so the whole cloud, listed first, leads), and a new
    round starts when the next part does not fit.  Round 1 also holds
    every ensemble that does not pre-smooth, among them the whole cloud
    when it keeps neighborhoods only for post-smoothing.  Every part but
    an ensemble's last holds as many bags as fit, so two parts of one
    ensemble never share a round.
    """
    rounds = [[(e, 0, e.bags.shape[0]) for e in ensembles if not e.pre_keys]]
    used = 0
    for e in sorted((e for e in ensembles if e.pre_keys), key=lambda e: -e.bags.shape[1]):
        count, m = e.bags.shape
        size = n * e.depth_incl * np.min_scalar_type(m - 1).itemsize
        per = max(1, _HOOD_BYTES // size)
        for b0 in range(0, count, per):
            b1 = min(count, b0 + per)
            if used and used + (b1 - b0) * size > _HOOD_BYTES:
                rounds.append([])
                used = 0
            rounds[-1].append((e, b0, b1))
            used += (b1 - b0) * size
    return rounds


def _thin_depth(u: int, m: int, need: int, bags: int, ranked: int) -> int:
    """Depth D of a tile's ranked prefix from which ``bags`` bags of m of
    its u reference points take their ``need`` nearest members, or 0 when
    partitioning each bag's m columns is faster.  ``ranked`` is the depth
    to which the plan ranks its tiles anyway (for the whole cloud's
    tables), 0 when it ranks none.

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
    that a plan without the whole cloud ranks only for bags that select
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
    ranking of their union.  The prefix is shared by the plan's ensembles,
    but each bagged ensemble is weighed alone.  The
    default k x r sweep (B = 10) thins its four widest bags (m = 554 to
    1500) and partitions the others (m = 397, D = 704 would select at a
    saving of 646 against a cost of 695); the B-sweep's 400 bags of m =
    125 (u = 2500, D = 672) select; ten 5% bags at n = 8000 partition,
    over their union (u ≈ 3200, D ≈ 260 <= m, where the costs agree: a
    saving of 273 against 488) and next to the whole cloud (u = 8000,
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


def _segments(count: int, rows_each: int, depth: int, depth_incl: int):
    """Consecutive ranges of ``count`` bags, ``rows_each`` table rows per
    bag, whose stacked tables and temporaries take at most one distance
    tile's bytes (at least one bag per range, ranges of equal size).

    A row of ``depth`` self-excluded columns counts 8 bytes per column and
    at least 64 columns, for the estimator's and the fold's temporaries of
    each row: without that floor a stack of shallow tables (k = 10) took
    2.4 times the memory (a traced peak of 24.2 against 10.1 MB for
    ``bagged`` at n = 1000, B = 400, r = 0.25).  Each of its
    ``depth_incl`` inclusive columns counts 40 bytes more: the column's id
    and distance, its member's offset and position in the bag, and the
    estimate gathered from there for pre-smoothing.
    """
    row = 8 * max(64, depth) + 40 * depth_incl
    per = max(1, 8 * geometry._UNION_CELLS // max(1, rows_each * row))
    per = -(-count // -(-count // per))
    return [(lo, min(count, lo + per)) for lo in range(0, count, per)]


def _reads(cell: PlanCell):
    """The key and checkpoint B at which ``cell`` reads its ensemble's
    means: the key's in-bag k_s is None unless the cell pre-smooths, and
    ``smoothed`` pre-smooths inside the whole cloud's one bag."""
    smooths = cell.variant == "smoothed" or cell.variant in _PRE
    return (cell.est, cell.k_s if smooths else None), 1 if cell.bags is None else cell.bags.bags


class _Ensemble:
    """The cells of one ensemble of bags and the state they share: the
    bagged cells of one (rate, seed), named by it, or the unbagged cells as
    the whole cloud's one bag ``np.arange(n)``, named None.

    Results are kept per key, one key per (estimator, in-bag k_s) with k_s
    None for raw estimates, and per checkpoint B.  ``rows`` holds the bags'
    positions among the rows of each distance tile.  A round of the plan
    runs one part of the ensemble, bags b0..b1 (:func:`_rounds`); each
    tile's running means stay in ``acc`` until the ensemble's last bag is
    folded.  ``hoods`` keeps every query's in-bag neighborhood, as deep as
    the deepest pre-smoothing k_s or ``depth_incl``, the whole cloud's
    post-smoothing depth.
    """

    def __init__(self, n: int, bags, cells, clock, name, depth_incl: int = 0):
        self.bags, self.cells, self.name = bags, cells, name
        # The plan's clock, charging this ensemble's keys under its name.
        self._timed = lambda keys, share=False: clock([(name, key) for key in keys], share)
        reads = [_reads(c) for c in cells]
        self.checkpoints = sorted({B for _, B in reads})
        self.rows = None
        self.keys = list(dict.fromkeys(key for key, _ in reads))
        self.raw_keys = [key for key in self.keys if key[1] is None]
        self.pre_keys = [key for key in self.keys if key[1] is not None]
        # Every key reads the estimates of each bag's rows of a tile: raw
        # keys the queries', pre-smoothed keys their in-bag neighbors'.
        self.ests = list(dict.fromkeys(est for est, _ in self.keys))
        self.depth = max((est.k for est in self.ests), default=0)
        self.depth_incl = max([depth_incl] + [ks for _, ks in self.pre_keys])
        shape = (len(self.checkpoints), n)
        self.means = {key: (np.empty(shape), np.empty(shape, dtype=bool)) for key in self.keys}
        self.acc = {}
        # The current part's member estimates, by position in the bag, and
        # the positions in the bag of every query's in-bag neighborhood.
        self.kept = self.hoods = None
        # Depth of the tile prefix this ensemble's tables read from, 0 when
        # they partition (:func:`_thin_depth`).
        self.thin = 0

    @property
    def need(self):
        """Ranked entries per row of the bag tables of a tile."""
        return geometry._prefix_need(self.depth, self.depth_incl, self.bags.shape[1])

    def hold(self, bags: int, n: int):
        """Allocate what a part of ``bags`` bags keeps for smoothing."""
        m = self.bags.shape[1]
        self.kept = {est: (np.empty((bags, m)), np.empty((bags, m), dtype=bool))
                     for est, _ in self.pre_keys}
        if self.depth_incl:
            self.hoods = np.empty((bags, n, self.depth_incl), dtype=np.min_scalar_type(m - 1))

    def tile(self, block, prefix, lo, hi, b0, b1, points, policy):
        """Rank and estimate bags b0..b1's rows of queries lo..hi, fold the
        raw estimates, and keep the members' estimates and every query's
        in-bag neighborhood for :meth:`pre_tile` (the whole cloud's also
        for post-smoothing).  With the tile's ranked ``prefix`` the bags'
        tables are read from it, else partitioned."""
        q, m = hi - lo, self.bags.shape[1]
        qids = np.arange(lo, hi, dtype=np.int64)
        for s0, s1 in _segments(b1 - b0, q, self.depth, self.depth_incl):
            bags = self.bags[b0 + s0 : b0 + s1]
            bag_q = np.tile(qids, s1 - s0)
            # Estimates need the self-excluded tables, smoothing the
            # inclusive ones.
            tables = bag_tables(_RowGroups(block, self.rows[b0 + s0 : b0 + s1], prefix=prefix),
                                bags, bag_q, self.depth, self.depth_incl)
            raw = {}
            for est in self.ests:
                with self._timed([key for key in self.keys if key[0] == est]):
                    values, flags = estimates_from_tables(est, tables, points, bag_q)
                    raw[est] = values.reshape(s1 - s0, q), flags.reshape(s1 - s0, q)
            if self.depth_incl:
                with self._timed(self.pre_keys, share=True):
                    # The bags' members among the queries, as (bag, position).
                    bi, bj = np.nonzero((bags >= lo) & (bags < hi))
                    bq = bags[bi, bj] - lo
                    for est, kept in self.kept.items():
                        for a, part in zip(kept, raw[est]):
                            a[s0 + bi, bj] = part[bi, bq]
                    # Each query's in-bag neighborhood, as positions in its bag:
                    # ``where`` maps a member's id to its position in each bag
                    # of the segment, in the narrowest type that holds m - 1.
                    n, bag = points.shape[0], np.arange(s1 - s0)[:, None]
                    where = np.empty((s1 - s0) * n, dtype=self.hoods.dtype)
                    where[bags + bag * n] = np.arange(m)
                    self.hoods[s0:s1, lo:hi] = where[
                        tables.incl_idx.reshape(s1 - s0, q, -1) + bag[..., None] * n]
            # Freed before the next segment's tables are built.
            del tables
            if self.raw_keys:
                with self._timed(self.raw_keys, share=True):
                    parts = [raw[est] for est, _ in self.raw_keys]
                    self._fold(self.raw_keys, parts, b0 + s0, lo, hi, policy)

    def pre_tile(self, lo, hi, b0, b1, policy):
        """Pre-smooth bags b0..b1's rows of queries lo..hi from the kept
        neighborhoods and fold them."""
        with self._timed(self.pre_keys, share=True):
            for s0, s1 in _segments(b1 - b0, hi - lo, 0, self.depth_incl):
                parts = self._pre_smooth(self.hoods[s0:s1, lo:hi], s0)
                self._fold(self.pre_keys, parts, b0 + s0, lo, hi, policy)

    def _pre_smooth(self, hood, s0):
        """Means of the kept member estimates of the part's bags s0.. over
        ``hood``, their (bags, q, depth) in-bag neighborhoods as positions
        in each bag: one (bags, q) (values, flags) pair per pre-smoothed
        key."""
        bags, q = hood.shape[:2]
        offsets = (np.arange(bags) * self.bags.shape[1])[:, None, None]
        parts = []
        for est, ks in self.pre_keys:
            values, flags = (a[s0 : s0 + bags].reshape(-1) for a in self.kept[est])
            v, f = gather_mean(values, (hood[:, :, :ks] + offsets).reshape(-1, ks), flags)
            parts.append((v.reshape(bags, q), f.reshape(bags, q)))
        return parts

    def _fold(self, keys, parts, b0, lo, hi, policy):
        """Add bags b0.. to the tile's running means of ``keys``, one
        (bags, q) ``parts`` entry per key side by side, and store each key's
        mean at every checkpoint reached."""
        q = hi - lo
        values = np.concatenate([v for v, _ in parts], axis=1)
        flags = np.concatenate([f for _, f in parts], axis=1)
        start, end = b0, b0 + values.shape[0]
        # Tiles are disjoint, so no two workers share a running mean.
        acc = self.acc.pop((lo, keys[0]), None) or AnchoredMean(len(keys) * q)
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
        if end < self.bags.shape[0]:
            self.acc[lo, keys[0]] = acc

    def emit(self, finish):
        """Pass each cell's means at its checkpoint and its clock key to ``finish``."""
        for i, B in enumerate(self.checkpoints):
            for cell in self.cells:
                key, at = _reads(cell)
                if at == B:
                    finish(cell, (self.name, key), self.means[key][0][i], self.means[key][1][i])


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
