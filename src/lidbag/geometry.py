"""Point storage, Euclidean distances, and exact batched k-NN tables.

Every estimator and smoothing pipeline in this package goes through the
two routines here, so there is exactly one distance convention in play:
Euclidean distances computed by :func:`dist_block`, and neighbor tables
built from them by :func:`neighbor_tables` with ties broken by ascending
original point index.  That rule makes every result independent of
reference-set permutation, worker count, and platform.

:func:`neighbor_tables` works through its queries in fixed-size chunks, so
its memory does not grow with the number of queries.  A chunk is copied
from a materialised distance block or read from a :class:`_RowGroups`: the
rows of one distance tile (from the union of several reference groups, such
as the bags of an ensemble, to a range of queries) that belong to each
group.  Callers compute those tiles query range by query range
(:func:`_query_tiles`), so a table over n queries needs O(tile + n * depth)
memory, never an (n, m) block.  In each chunk it finds every row's prefix
with one partition, decides from the next order statistic whether a tie
straddles the prefix edge (only those rows are re-ranked over all columns),
and ranks the prefix over id-ordered columns by (distance, column), which
is (distance, id): by numpy's default sort, with a stable sort again for
just the rows that hold equal distances (:func:`_ranked`).

A :class:`_RowGroups` may also carry the tile's ranked prefix
(:class:`_RankedTile`): every query's first D rows of the tile, ranked once
by (distance, row).  Its groups then read their rows from it instead: a
group's members keep their order in it, so when the tile's rows ascend with
the ids, the first ``need`` members of a query's prefix are that group's
exact (distance, id) prefix, ties included.  A group at least as wide as
the prefix is deep thins it: a membership lookup over the query's D cells
and a count per row, with no sort.  A narrower group selects from it: the
prefix's inverse gives every row of the tile its rank in each query's
order, and the group sorts its m members' ranks, small integers, and keeps
the first ``need``.  A row with fewer than ``need`` members in its first D
is partitioned over its group's columns as above.  All three producers
feed the same cut into inclusive and self-excluded tables.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """Base class for geometry failures."""


class DimensionMismatchError(GeometryError):
    """Operands have different ambient dimensions."""


class EmptyReferenceError(GeometryError):
    """A neighbor query was issued against an empty reference set."""


class CapacityError(GeometryError):
    """k exceeds the number of available neighbors."""

    def __init__(self, k: int, available: int, message: str | None = None):
        self.k = int(k)
        self.available = int(available)
        if message is None:
            message = f"k={k} exceeds available neighbor count {available}"
        super().__init__(message)


def _as_points(a, name: str = "points") -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise GeometryError(f"{name} must be a 2-D array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class PointCloud:
    """n points in R^dim with per-point manifold labels and per-manifold GT LID.

    Parameters
    ----------
    points : (n, dim) float array of finite coordinates
    manifold_label : (n,) int array, labels in 1..L
    gt_lid : (L,) positive float array; ``gt_lid[label - 1]`` is the
        ground-truth local intrinsic dimensionality of that manifold.
    """

    points: np.ndarray
    manifold_label: np.ndarray
    gt_lid: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points)
        labels = np.asarray(self.manifold_label, dtype=np.int64).reshape(-1)
        gt = np.atleast_1d(np.asarray(self.gt_lid, dtype=np.float64))
        n = pts.shape[0]
        if n < 2:
            raise GeometryError(f"need n >= 2 points, got {n}")
        if pts.shape[1] < 1:
            raise GeometryError("need dim >= 1")
        if not np.all(np.isfinite(pts)):
            bad = int(np.count_nonzero(~np.all(np.isfinite(pts), axis=1)))
            raise GeometryError(f"point coordinates must be finite; {bad} points are not")
        if labels.shape[0] != n:
            raise GeometryError("one manifold label per point required")
        L = gt.shape[0]
        present = np.unique(labels)
        if present.min(initial=1) < 1 or present.max(initial=L) > L:
            raise GeometryError(f"labels must lie in 1..{L}, got {present}")
        if len(present) != L:
            raise GeometryError("every label in 1..L needs at least one point")
        if not np.all(np.isfinite(gt)) or np.any(gt <= 0):
            raise GeometryError("gt_lid values must be finite and > 0")
        pts = pts.copy()
        labels = labels.copy()
        gt = gt.copy()
        for arr in (pts, labels, gt):
            arr.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "manifold_label", labels)
        object.__setattr__(self, "gt_lid", gt)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_manifolds(self) -> int:
        return self.gt_lid.shape[0]

    def gt_per_point(self) -> np.ndarray:
        """Ground-truth LID aligned with points, via each point's label."""
        return self.gt_lid[self.manifold_label - 1]

    @classmethod
    def single_manifold(cls, points, gt_lid: float) -> "PointCloud":
        pts = _as_points(points)
        labels = np.ones(pts.shape[0], dtype=np.int64)
        return cls(pts, labels, np.asarray([float(gt_lid)]))


def dist_block(a, b, out: np.ndarray | None = None) -> np.ndarray:
    """Exact Euclidean distance matrix between row sets ``a`` and ``b``.

    This is the single distance kernel of the package.  Each entry is
    computed from its two rows alone, so a column gather of a larger block
    is bit-identical to recomputing the block for those columns.  Entry
    (i, j) sums the same squared differences in the same order as (j, i),
    so ``dist_block(p, p)`` is exactly symmetric and its rows are its
    columns.

    The entries are ``scipy.spatial.distance.cdist``'s: its default metric
    calls the compiled ``cdist_euclidean`` that this function calls, on the
    same float64 arrays.  The extension is loaded by itself at the first
    call (~1 MB, :func:`_scipy_extension`), without the ``scipy.spatial``
    package (~35 MB, which pulls in ``scipy.sparse`` and ``scipy.linalg``).

    ``out``, when given, is a C-contiguous float64 array of the block's
    shape; the block is written into it, with the bytes a fresh call
    returns, and ``out`` is returned.  The tile maps of
    :mod:`lidbag.smoothing` pass one reused buffer per worker, so a map of
    tiles does not fault in a fresh 4 MiB block for every tile.
    """
    a, b = _operands(a, b)
    shape = (a.shape[0], b.shape[0])
    if out is not None and (out.shape != shape or out.dtype != np.float64
                            or not out.flags.c_contiguous):
        raise GeometryError(f"out must be a C-contiguous float64 array of shape {shape}")
    return _scipy_extension("spatial", "_distance_pybind").cdist_euclidean(a, b, out=out)


def _scipy_extension(subpackage: str, name: str):
    """scipy's compiled module ``scipy.<subpackage>.<name>``, without the package.

    A registered module, or one that the registered package provides, is
    returned as it is.  Otherwise the module is imported from scipy's
    ``<subpackage>`` folder under a bare package object, which stands in
    ``sys.modules`` only for the load.  The shell is published as importlib
    publishes a package whose ``__init__`` runs: marked as initializing and
    under the import system's lock for the package's name.  So a thread
    that imports the real package meanwhile waits and then gets it (where
    Python hands it the withdrawn shell, as ``from ... import`` does, the
    shell's attributes are the real package's), and first calls on several
    threads load the module once.  The module and the compiled modules it
    imports stay registered, so a later import of the package reuses them.
    """
    package, full = f"scipy.{subpackage}", f"scipy.{subpackage}.{name}"
    if full not in sys.modules:
        import scipy

        with importlib._bootstrap._ModuleLockManager(package):
            if package not in sys.modules and full not in sys.modules:
                folder = os.path.join(os.path.dirname(scipy.__file__), subpackage)
                spec = importlib.machinery.ModuleSpec(package, None, is_package=True)
                spec.submodule_search_locations = [folder]
                shell = importlib.util.module_from_spec(spec)
                spec._initializing = True

                def real(attr):  # a thread that waited for the load holds the shell
                    if sys.modules.get(package) is shell:
                        raise AttributeError(attr)
                    return getattr(importlib.import_module(package), attr)

                shell.__getattr__ = real
                sys.modules[package] = shell
                try:
                    importlib.import_module(full)
                except ModuleNotFoundError as exc:
                    raise ImportError(f"cannot load {full} from {folder} "
                                      f"(scipy {scipy.__version__}): {exc}", name=full) from exc
                finally:
                    del sys.modules[package]
    return importlib.import_module(full)


def _operands(a, b):
    a = _as_points(a, "a")
    b = _as_points(b, "b")
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    return a, b


class _RowGroups:
    """Stands for the distances from queries to g groups of reference points.

    ``block`` is a (u, q) distance tile from u points to q queries, and
    ``rows`` a (g, m) array of row positions in it, one row per group.  The
    stand-in is, group after group, ``block[rows[j]].T``: the distances from
    every query to group j's points.  :func:`neighbor_tables` gathers the
    stand-in chunk by chunk, so no (rows, m) array is made.
    ``dist_block(p, p)`` is exactly symmetric, so a tile's rows may be the
    references and its columns the queries.  ``prefix``, the tile's
    :class:`_RankedTile`, lets groups whose rows ascend with their ids read
    their rows from it.
    """

    def __init__(self, block, rows, prefix=None):
        self.block = block
        self.rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
        self.prefix = prefix
        self.shape = (self.rows.shape[0] * block.shape[1], self.rows.shape[1])


#: Distances per query chunk in :func:`neighbor_tables`.  The chunk and its
#: partition index (256 KiB each) stay cache-sized and are reused from the
#: heap chunk after chunk, so a table's temporaries no longer grow with the
#: number of queries or fault fresh pages in for every table.
_BLOCK_CELLS = 32768

#: Distances per tile of :func:`_query_tiles` (4 MiB): the one distance block
#: a caller holds at a time, whatever the number of queries or references.
_UNION_CELLS = 2**19


def _query_tiles(nq: int, width: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` query ranges whose distances to ``width`` points fit one
    tile of ``_UNION_CELLS`` entries (one query when a row alone exceeds it)."""
    span = max(1, _UNION_CELLS // max(1, width))
    return [(lo, min(nq, lo + span)) for lo in range(0, nq, span)]


class _TileBuffers:
    """One reused distance tile per worker thread, for one map over query
    ``tiles`` against ``width`` points: a thread's buffer is allocated at
    its first tile, as large as the widest tile, and every tile it computes
    is written into it through :func:`dist_block`'s ``out``.  The buffers
    are freed with this object, so a map's caller drops it when the map
    ends."""

    def __init__(self, tiles: list[tuple[int, int]], width: int):
        self.width = width
        self._cells = width * max((hi - lo for lo, hi in tiles), default=0)
        self._local = threading.local()

    def out(self, lo: int, hi: int) -> np.ndarray:
        """The calling thread's buffer as a (width, hi - lo) tile."""
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = np.empty(self._cells)
        return buf[: self.width * (hi - lo)].reshape(self.width, hi - lo)


@dataclass(frozen=True)
class NeighborTables:
    """Sorted neighbor prefixes for a batch of queries against one reference.

    ``incl_*`` rank every reference point (the query itself included when it
    is a member) — the convention smoothing wants.  ``excl_*`` drop the
    query's own entry — the convention estimation wants.  Indices are
    original cloud ids, distances are nondecreasing along each row.
    """

    incl_idx: np.ndarray
    incl_dist: np.ndarray
    excl_idx: np.ndarray
    excl_dist: np.ndarray

    @property
    def depth(self) -> int:
        return self.excl_idx.shape[1]

    @functools.cached_property
    def excl_logs(self) -> np.ndarray:
        """``np.log(excl_dist)``, taken once for every k the tables serve
        (-inf at a zero distance)."""
        with np.errstate(divide="ignore"):
            return np.log(self.excl_dist)


def neighbor_tables(
    dcols: np.ndarray,
    reference_ids: np.ndarray,
    query_ids: np.ndarray | None,
    depth: int,
    depth_incl: int | None = None,
) -> NeighborTables:
    """Build inclusive/exclusive sorted neighbor tables from a distance block.

    Parameters
    ----------
    dcols : (nq, m) distances from each query to each reference point, or a
        :class:`_RowGroups` that stands for g groups of them, read from a
        distance tile.  Any memory layout works; each chunk of rows is copied
        into a contiguous tile.
    reference_ids : (m,) original ids of the reference columns; for a
        :class:`_RowGroups`, (g, m) ids, one row per group (or (m,) when
        g = 1).
    query_ids : (nq,) original ids of the queries, or None when no query is a
        member of the reference set.  Membership is decided by id equality.
    depth : number of neighbors to keep per row in ``excl_*``; requires
        depth <= m - 1 when any query is a member, else depth <= m.
    depth_incl : number of neighbors to keep per row in ``incl_*`` (default
        ``depth``); requires depth_incl <= m.  One pass serves both depths,
        so a smoothing neighborhood may reach the whole reference set while
        the estimation depth stays below it.

    Each group's queries are processed in equal chunks of about
    ``_BLOCK_CELLS // m`` rows (at least one), each copied into one reused
    tile, so the temporaries stay cache-sized whatever nq is.  A tile holds
    its columns in ascending id order (for non-ascending ids that order is
    computed once per group and applied as each tile is copied).  Each row
    keeps its
    ``need = min(max(depth + 1, depth_incl), m)`` smallest entries, by a
    sort of the whole row when need = m and otherwise via a partition at
    ``kth = need``: position ``need`` then holds the next order statistic,
    and when it equals the need-th distance a tie straddles the prefix edge
    and the row is re-ranked by a stable sort over all its columns.
    Otherwise the kept positions are found in ascending order and ranked by
    a sort of their distances: numpy's default sort, followed by a stable
    sort of just the rows that hold equal distances, so each sort orders by
    (distance, column).  That order is (distance, id), so ties go to the
    smaller original id, and ``incl_*`` and ``excl_*`` are cut from the same
    ranked prefix: a member query's own entry is first in its row unless a
    copy of it has a smaller id, so ``excl_*`` is the prefix shifted by one
    on rows that start with the query, and only rows that start with a copy
    search for the query.
    A :class:`_RowGroups` that carries its tile's ranked prefix gives the
    same tables from it, by thinning or by selection (see the module
    docstring), for groups whose rows ascend with their ids and that give
    each row of the tile one id.
    """
    if isinstance(dcols, _RowGroups):
        source = dcols
    else:
        dcols = np.asarray(dcols, dtype=np.float64)
        source = _RowGroups(dcols.T, np.arange(dcols.shape[1]))
    nq, m = source.shape
    groups = source.rows.shape[0]
    reference_ids = np.asarray(reference_ids, dtype=np.int64)
    if reference_ids.size != groups * m:
        raise GeometryError("reference_ids must match dcols columns")
    reference_ids = reference_ids.reshape(groups, m)
    if m == 0:
        raise EmptyReferenceError("empty reference set")
    member_possible = query_ids is not None
    max_depth = m - 1 if member_possible else m
    if depth > max_depth:
        raise CapacityError(depth, max_depth)
    depth_incl = depth if depth_incl is None else depth_incl
    if depth_incl > m:
        raise CapacityError(depth_incl, m)
    if member_possible:
        qids = np.asarray(query_ids, dtype=np.int64).reshape(-1)
        if qids.shape[0] != nq:
            raise GeometryError("query_ids must match dcols rows")
    need = _prefix_need(depth, depth_incl, m)

    rows, ids = source.rows, reference_ids
    unsorted = np.nonzero(np.any(ids[:, 1:] < ids[:, :-1], axis=1))[0]
    if unsorted.size:
        by_id = np.argsort(ids[unsorted], axis=1, kind="stable")
        rows, ids = rows.copy(), ids.copy()
        rows[unsorted] = np.take_along_axis(rows[unsorted], by_id, axis=1)
        ids[unsorted] = np.take_along_axis(ids[unsorted], by_id, axis=1)

    incl_idx = np.empty((nq, depth_incl), dtype=np.int64)
    incl_dist = np.empty((nq, depth_incl))
    if member_possible or depth != depth_incl:
        excl_idx = np.empty((nq, depth), dtype=np.int64)
        excl_dist = np.empty((nq, depth))
    else:
        excl_idx, excl_dist = incl_idx, incl_dist

    produce, prefix = _partitioned(source, rows, ids, need), source.prefix
    if prefix is not None and need <= prefix.depth and np.all(rows[:, 1:] > rows[:, :-1]):
        # The prefix serves groups that give each row of the tile one id.
        id_of = np.empty(source.block.shape[0], dtype=np.int64)
        id_of[rows] = ids
        if np.array_equal(id_of[rows], ids):
            # Read whichever is shorter per row: the prefix's D cells, or
            # the m ranks of a group's members.
            producer = _thinned if prefix.depth <= m else _selected
            produce = producer(source, rows, ids, need, id_of)
    for lo, hi, pids, pd in produce:
        incl_idx[lo:hi] = pids[:, :depth_incl]
        incl_dist[lo:hi] = pd[:, :depth_incl]
        if excl_idx is not incl_idx:
            excl_idx[lo:hi] = pids[:, :depth]
            excl_dist[lo:hi] = pd[:, :depth]
        if member_possible:
            # Rows that start with the query drop it by a shift of one.
            q = qids[lo:hi]
            first = pids[:, 0] == q
            shift = np.nonzero(first)[0]
            excl_idx[lo + shift] = pids[shift, 1 : depth + 1]
            excl_dist[lo + shift] = pd[shift, 1 : depth + 1]
            # A copy of the query ranks before it: move the query's own
            # entry (if present) to the end, keeping the rest in order.
            dup = np.nonzero(~first & (pd[:, 0] == 0.0))[0]
            if dup.size:
                self_mask = pids[dup] == q[dup, None]
                push = np.argsort(self_mask, axis=1, kind="stable")[:, :depth]
                excl_idx[lo + dup] = _take_rows(pids[dup], push)
                excl_dist[lo + dup] = _take_rows(pd[dup], push)
        # Freed before the producer makes the next chunk.
        del pids, pd

    return NeighborTables(incl_idx, incl_dist, excl_idx, excl_dist)


def _prefix_need(depth: int, depth_incl: int, m: int) -> int:
    """Ranked entries a row of :func:`neighbor_tables` keeps: the inclusive
    depth, or one beyond the exclusive depth for a member query's own
    entry, at most all m."""
    return min(max(depth + 1, depth_incl), m)


def _partitioned(source: _RowGroups, rows: np.ndarray, ids: np.ndarray, need: int):
    """The stand-in's ranked prefixes, (lo, hi, ids, distances) chunk by
    chunk, each row partitioned over its own group's columns."""
    for lo, hi, t, row_ids in _chunks(source, rows, ids):
        pos, pd = _ranked_prefix(t, need)
        yield lo, hi, row_ids[pos], pd


def _thinned(source: _RowGroups, rows: np.ndarray, ids: np.ndarray, need: int,
             id_of: np.ndarray):
    """The stand-in's ranked prefixes, as :func:`_partitioned` yields them,
    thinned from ``source.prefix``: every row keeps the first ``need``
    entries of its query's tile-wide (distance, row) order that belong to
    its group, found by a membership lookup over the prefix's D cells and a
    count per row.  A group whose rows ascend with its ids orders its
    members by (distance, id) there, ties included, so no row is sorted
    again.  A row with fewer than ``need`` members in the prefix is
    partitioned over its group's columns instead.  ``id_of`` maps the
    tile's rows to their ids."""
    u, q = source.block.shape
    m, depth = rows.shape[1], source.prefix.depth
    step = max(1, _BLOCK_CELLS // depth)
    first = np.arange(need)
    pos, dist = source.prefix.ranks
    for g in range(rows.shape[0]):
        if m == u:
            # Every row of the tile is a member: the prefix is the table.
            for a in range(0, q, step):
                b = min(q, a + step)
                yield g * q + a, g * q + b, id_of[pos[a:b, :need]], dist[a:b, :need]
            continue
        member = np.zeros(u, dtype=bool)
        member[rows[g]] = True
        for a in range(0, q, step):
            b = min(q, a + step)
            keep = member[pos[a:b]]
            # Flat positions of every row's members, row after row; each
            # row keeps its first ``need``.
            at = np.flatnonzero(keep)
            count = np.count_nonzero(keep, axis=1)
            ok = count >= need
            take = at[(np.cumsum(count) - count)[ok, None] + first] + a * depth
            yield (g * q + a, g * q + b, *_from_prefix(
                source, rows, ids, id_of, np.full(b - a, g), np.arange(a, b), take, ok, need))


def _selected(source: _RowGroups, rows: np.ndarray, ids: np.ndarray, need: int,
              id_of: np.ndarray):
    """The stand-in's ranked prefixes, as :func:`_thinned` yields them,
    selected by rank: every row keeps the ``need`` members of its group
    whose ranks in its query's tile-wide order
    (:attr:`_RankedTile.inverse`) are smallest, by a row gather of the
    group's m ranks, a sort of those small integers, and a gather of the
    first ``need`` from the prefix.  That reads m ranks per row where
    :func:`_thinned` reads the prefix's D cells, so it serves the groups
    narrower than the prefix is deep.  The prefix is already in
    (distance, row) order, so ties need no re-ranking.  A row whose
    ``need``-th rank lies beyond the prefix is partitioned over its group's
    columns instead.

    The gathered ranks are sorted as 32-bit integers, whatever the
    inverse's type: numpy 2.4 sorts 16-bit integers fast only with its
    AVX-512 code, and 8-bit ones slowly on every path.  A row sort of 2000
    rows of 125 distinct ranks took, on its AVX-512 and AVX2 paths, 0.34
    and 0.42 ms as uint32, 0.25 and 8.35 ms as uint16, and 9.5 ms as uint8
    on both.  The ranks of a row are distinct, so every type sorts them
    alike.

    A chunk holds as many ranks as ``_BLOCK_CELLS`` distances take bytes
    in the inverse's type, and rows of at most ``_BLOCK_CELLS`` prefix
    cells in all, as their ids and distances are gathered: whole groups of
    q rows when one fits, so that the rows of many narrow groups are
    sorted and gathered together, else a range of one group's queries."""
    prefix = source.prefix
    inverse, depth = prefix.inverse, prefix.depth
    q, (groups, m) = inverse.shape[1], rows.shape
    span = max(1, min(_BLOCK_CELLS * 8 // (inverse.itemsize * m), _BLOCK_CELLS // need))
    per, step = (span // q, q) if span >= q else (1, span)
    rank = np.empty((per * min(step, q), m), dtype=np.promote_types(inverse.dtype, np.uint32))
    for g0 in range(0, groups, per):
        g1 = min(groups, g0 + per)
        for a in range(0, q, step):
            b = min(q, a + step)
            c = b - a
            r = rank[: (g1 - g0) * c]
            for i, g in enumerate(range(g0, g1)):
                np.copyto(r[i * c : (i + 1) * c], inverse[rows[g], a:b].T)
            r.sort(axis=1)
            top = r[:, :need]
            query = np.tile(np.arange(a, b), g1 - g0)
            ok = top[:, -1] < depth
            take = (top + (query * depth)[:, None])[ok]
            yield (g0 * q + a, (g1 - 1) * q + b, *_from_prefix(
                source, rows, ids, id_of, np.repeat(np.arange(g0, g1), c), query, take, ok, need))


def _from_prefix(source: _RowGroups, rows: np.ndarray, ids: np.ndarray, id_of: np.ndarray,
                 group: np.ndarray, query: np.ndarray, take: np.ndarray, ok: np.ndarray,
                 need: int):
    """Ranked prefixes (ids, distances) of stand-in rows, each reading one
    ``group`` and one ``query`` of the tile: rows ``ok`` read the flat
    positions ``take`` of the prefix, and the others are partitioned over
    their group's columns (``rows``, whose ids are ``ids``).  ``id_of`` maps
    the tile's rows to their ids."""
    pos, dist = (x.reshape(-1) for x in source.prefix.ranks)
    if ok.all():
        return id_of[pos[take]], dist[take]
    pids = np.empty((ok.shape[0], need), dtype=np.int64)
    pd = np.empty((ok.shape[0], need))
    pids[ok], pd[ok] = id_of[pos[take]], dist[take]
    short = np.flatnonzero(~ok)
    g = group[short]
    fpos, pd[short] = _ranked_prefix(source.block[rows[g], query[short, None]], need)
    pids[short] = _take_rows(ids[g], fpos)
    return pids, pd


class _RankedTile:
    """A (u, q) distance tile's queries ranked to ``depth``, the one ranking
    of a tile that :func:`neighbor_tables` thins or selects from.  Both
    views are computed on first use, so inside the first table that reads
    them, and kept without a lock: a tile belongs to the one worker that
    computed it."""

    def __init__(self, block: np.ndarray, depth: int):
        self.block = block
        self.depth = depth
        self._ranks = self._inverse = None

    @property
    def ranks(self):
        """(q, depth) row positions and distances in (distance, row) order."""
        if self._ranks is None:
            u, q = self.block.shape
            every = np.arange(u)[None]
            pos = np.empty((q, self.depth), dtype=np.int64)
            dist = np.empty((q, self.depth))
            for lo, hi, t, _ in _chunks(_RowGroups(self.block, every), every, every):
                pos[lo:hi], dist[lo:hi] = _ranked_prefix(t, self.depth)
            self._ranks = pos, dist
        return self._ranks

    @property
    def inverse(self):
        """(u, q) rank of every tile row in every query's order: its place
        in the prefix, or ``depth`` + row beyond it (distinct ranks, all
        past the prefix), in the narrowest unsigned type that holds them."""
        if self._inverse is None:
            pos = self.ranks[0]
            u, q = self.block.shape
            dtype = np.min_scalar_type(self.depth + u - 1)
            inverse = np.empty((u, q), dtype=dtype)
            inverse[:] = np.arange(self.depth, self.depth + u, dtype=dtype)[:, None]
            # Scattered a chunk of queries at a time, so that the flat
            # positions take a chunk's memory, not the prefix's.
            flat, ranks = inverse.reshape(-1), np.arange(self.depth, dtype=dtype)
            step = max(1, _BLOCK_CELLS // self.depth)
            for a in range(0, q, step):
                b = min(q, a + step)
                flat[pos[a:b] * q + np.arange(a, b)[:, None]] = ranks
            self._inverse = inverse
        return self._inverse


def _chunks(source: _RowGroups, rows: np.ndarray, ids: np.ndarray):
    """The stand-in of ``source`` chunk by chunk: (lo, hi, tile, ids) with
    the stand-in's rows lo..hi, all of one group, in a C-contiguous tile
    and the group's (m,) reference ids.  ``rows`` and ``ids`` are the
    groups' row positions and reference ids in ascending id order."""
    m, block = rows.shape[1], source.block
    chunk = max(1, _BLOCK_CELLS // m)
    # Equal chunks per group, as many as whole chunks of _BLOCK_CELLS // m
    # rows fit (at least one row, at least one chunk): a remainder is spread
    # over the chunks instead of taking a short chunk of its own.  A group
    # whose rows are not the whole block in order is gathered in one copy
    # when that fits one tile budget (whole rows copy fastest), and chunk by
    # chunk otherwise, so a reordered block is never copied whole.
    per = block.shape[1]
    step = max(1, -(-per // max(1, per // chunk)))
    tile = np.empty((min(step, per), m))
    every_row = np.arange(block.shape[0])
    whole = m * per <= _UNION_CELLS
    for g in range(rows.shape[0]):
        group = block
        if not np.array_equal(rows[g], every_row):
            group = block[rows[g]] if whole else None
        for a in range(0, per, step):
            b = min(per, a + step)
            t = tile[: b - a]
            np.copyto(t, (block[rows[g], a:b] if group is None else group[:, a:b]).T)
            yield g * per + a, g * per + b, t, ids[g]


def _ranked_prefix(tile: np.ndarray, need: int):
    """Column positions and distances of each row's ``need`` smallest
    entries, ordered by (distance, column)."""
    m = tile.shape[1]
    if need == m:
        return _ranked(tile)
    # The partition's first ``need`` values are the row's smallest; their
    # maximum is the prefix edge, and position ``need`` holds the next order
    # statistic.  When it equals the edge a tie straddles the prefix: which
    # of the tied columns the partition kept is arbitrary, so the row is
    # re-ranked by a full stable sort, which picks the smaller ids.  On any
    # other row exactly ``need`` entries lie at or below the edge, and a
    # scan finds them in ascending column order.
    part = np.partition(tile, need, axis=1)
    edge = part[:, :need].max(axis=1)
    tied = np.flatnonzero(part[:, need] == edge)
    sub = tile
    if tied.size:
        sub, edge = np.delete(tile, tied, 0), np.delete(edge, tied)
    at = np.flatnonzero(sub <= edge[:, None]).reshape(-1, need)
    rank, pd = _ranked(sub.reshape(-1)[at])
    pos = _take_rows(at, rank) - np.arange(0, sub.size, m)[:, None]
    if tied.size:
        # Every such row holds equal values, so it goes straight to the
        # stable sort that :func:`_ranked` would repeat after its own.
        t = tile[tied]
        full = np.argsort(t, axis=1, kind="stable")[:, :need]
        at = tied - np.arange(tied.size)
        pos = np.insert(pos, at, full, axis=0)
        pd = np.insert(pd, at, _take_rows(t, full), axis=0)
    return pos, pd


def _ranked(a: np.ndarray):
    """Each row's column order by (value, column) and its sorted values,
    for a C-contiguous 2-D ``a``.  A row of distinct values has one order,
    which any sort finds, so rows are sorted by numpy's default sort, and
    only the rows whose sorted values hold adjacent equals (or NaNs) are
    sorted again by a stable sort, which puts equal values in column
    order."""
    order = np.argsort(a, axis=1)
    values = _take_rows(a, order)
    rising = values[:, 1:] > values[:, :-1]
    if not rising.all():
        tied = np.flatnonzero(~rising.all(axis=1))
        # Equal values sort to the same places whatever their order.
        order[tied] = np.argsort(a[tied], axis=1, kind="stable")
    return order, values


def _take_rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(a, idx, axis=1)`` for a C-contiguous 2-D ``a``,
    as one flat gather: about half the per-call time on the kernel's tiles,
    ~10% of sweep_bags wall time.  Every caller passes a tile or a fresh
    array, so ``reshape(-1)`` is a view, never a copy."""
    assert a.flags.c_contiguous
    return a.reshape(-1)[idx + np.arange(0, a.size, a.shape[1])[:, None]]
