"""Point storage, Euclidean distances, and exact batched k-NN tables.

Every estimator and smoothing pipeline in this package goes through the
two routines here, so there is exactly one distance convention in play:
Euclidean distances computed by :func:`dist_block`, and neighbor tables
built from them by :func:`neighbor_tables` with ties broken by ascending
original point index.  That rule makes every result independent of
reference-set permutation, worker count, and platform.

:func:`neighbor_tables` works through its queries in fixed-size tiles, so
its memory does not grow with the number of queries.  A tile is copied
from a materialised distance block, read from segments of its rows given a
:class:`_BlockRows`, or, given a :class:`_LazyBlock`, computed by
:func:`dist_block` from the points themselves, so a table over n queries
needs O(tile + n * depth) memory, never an (n, m) block.  In each
tile it finds every row's prefix with one partition, decides from the next
order statistic whether a tie straddles the prefix edge (only those rows
are re-ranked over all columns), and ranks the prefix by one stable sort
over id-ordered columns, which orders by (distance, id).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist


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


def dist_block(a, b) -> np.ndarray:
    """Exact Euclidean distance matrix between row sets ``a`` and ``b``.

    This is the single distance kernel of the package.  Each entry is
    computed from its two rows alone, so a column gather of a larger block
    is bit-identical to recomputing the block for those columns.  Entry
    (i, j) sums the same squared differences in the same order as (j, i),
    so ``dist_block(p, p)`` is exactly symmetric and its rows are its
    columns.
    """
    return cdist(*_operands(a, b))


def _operands(a, b):
    a = _as_points(a, "a")
    b = _as_points(b, "b")
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    return a, b


class _LazyBlock:
    """Stands for ``dist_block(queries, refs)`` without computing it.

    :func:`neighbor_tables` fills each query tile with
    ``dist_block(queries[lo:hi], refs)``, which is bit-identical to the same
    rows of the full block because every entry is computed from its two rows
    alone.
    """

    def __init__(self, queries, refs):
        self.queries, self.refs = _operands(queries, refs)
        self.shape = (self.queries.shape[0], self.refs.shape[0])


class _BlockRows:
    """Stands for ``block[rows].T`` without gathering it.

    For the exactly symmetric ``dist_block(p, p)`` that is the distance
    from every point to the points ``rows``.  :func:`neighbor_tables` reads
    ``block[rows, lo:lo + span]`` (contiguous row segments) for a span of
    queries at a time and fills its tiles from that, so no (n, m) copy is
    made.
    """

    def __init__(self, block, rows):
        self.block, self.rows = block, np.asarray(rows, dtype=np.int64)
        self.shape = (block.shape[1], self.rows.shape[0])


#: Distances per query block in :func:`neighbor_tables`.  The tile and its
#: partition index (256 KiB each) stay cache-sized and are reused from the
#: heap block after block, so a table's temporaries no longer grow with the
#: number of queries or fault fresh pages in for every table.
_BLOCK_CELLS = 32768

#: Queries per row-segment read from a :class:`_BlockRows` (rounded up to
#: whole tiles): 1 KiB segments, long enough to stream from memory, while
#: the (m, span) buffer stays within a few MiB.
_SPAN = 128


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
    dcols : (nq, m) distances from each query to each reference point, a
        :class:`_LazyBlock` that computes them tile by tile, or a
        :class:`_BlockRows` that reads them from rows of a symmetric block.
        Any memory layout works; each block of rows is copied into a
        contiguous tile.
    reference_ids : (m,) original ids of the reference columns.
    query_ids : (nq,) original ids of the queries, or None when no query is a
        member of the reference set.  Membership is decided by id equality.
    depth : number of neighbors to keep per row in ``excl_*``; requires
        depth <= m - 1 when any query is a member, else depth <= m.
    depth_incl : number of neighbors to keep per row in ``incl_*`` (default
        ``depth``); requires depth_incl <= m.  One pass serves both depths,
        so a smoothing neighborhood may reach the whole reference set while
        the estimation depth stays below it.

    Queries are processed in blocks of ``_BLOCK_CELLS // m`` rows (at least
    one), each copied into one reused tile or computed by :func:`dist_block`,
    so the temporaries stay cache-sized whatever nq is.  A tile holds its
    columns in ascending id order (for non-ascending ``reference_ids`` that
    order is computed once and applied as each tile is copied, or to the
    reference points once).  Each row keeps its
    ``need = min(max(depth + 1, depth_incl), m)`` smallest entries, by a
    stable sort of the whole row when need = m and otherwise via a partition
    at ``kth = need``: position ``need`` then holds the next order
    statistic, and when it equals the need-th distance a tie straddles the
    prefix edge and the row is re-ranked by a stable sort over all its
    columns.  Otherwise the kept positions are sorted ascending and ranked
    by one stable argsort of their distances.  Both orders are
    (distance, id), so ties go to the smaller original id, and ``incl_*``
    and ``excl_*`` are cut from the same ranked prefix.
    """
    lazy = isinstance(dcols, _LazyBlock)
    segmented = isinstance(dcols, _BlockRows)
    if not (lazy or segmented):
        dcols = np.asarray(dcols, dtype=np.float64)
    nq, m = dcols.shape
    reference_ids = np.asarray(reference_ids, dtype=np.int64).reshape(-1)
    if reference_ids.shape[0] != m:
        raise GeometryError("reference_ids must match dcols columns")
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
    need = min(max(depth + 1, depth_incl), m)

    if np.all(reference_ids[1:] >= reference_ids[:-1]):
        by_id, ids = None, reference_ids
    else:
        by_id = np.argsort(reference_ids, kind="stable")
        ids = reference_ids[by_id]

    incl_idx = np.empty((nq, depth_incl), dtype=np.int64)
    incl_dist = np.empty((nq, depth_incl))
    if member_possible or depth != depth_incl:
        excl_idx = np.empty((nq, depth), dtype=np.int64)
        excl_dist = np.empty((nq, depth))
    else:
        excl_idx, excl_dist = incl_idx, incl_dist

    rows = max(1, _BLOCK_CELLS // m)
    if lazy:
        refs = dcols.refs if by_id is None else dcols.refs[by_id]
    else:
        tile = np.empty((min(rows, nq), m))
    if segmented:
        block_rows = dcols.rows if by_id is None else dcols.rows[by_id]
        span = rows * -(-_SPAN // rows)
    for lo in range(0, nq, rows):
        hi = min(nq, lo + rows)
        if lazy:
            t = dist_block(dcols.queries[lo:hi], refs)
        else:
            t = tile[: hi - lo]
            if segmented:
                if lo % span == 0:
                    seg = dcols.block[block_rows, lo : lo + span]
                np.copyto(t, seg[:, lo % span : lo % span + hi - lo].T)
            elif by_id is None:
                np.copyto(t, dcols[lo:hi])
            else:
                np.take(dcols[lo:hi], by_id, axis=1, out=t)
        pos, pd = _ranked_prefix(t, need)
        pids = ids[pos]
        incl_idx[lo:hi] = pids[:, :depth_incl]
        incl_dist[lo:hi] = pd[:, :depth_incl]
        if excl_idx is not incl_idx:
            excl_idx[lo:hi] = pids[:, :depth]
            excl_dist[lo:hi] = pd[:, :depth]
        if member_possible:
            # Move each query's own entry to the end, keeping the rest in order.
            self_mask = pids == qids[lo:hi, None]
            hit = np.nonzero(self_mask.any(axis=1))[0]
            if hit.size:
                push = np.argsort(self_mask[hit], axis=1, kind="stable")[:, :depth]
                excl_idx[lo + hit] = _take_rows(pids[hit], push)
                excl_dist[lo + hit] = _take_rows(pd[hit], push)

    return NeighborTables(incl_idx, incl_dist, excl_idx, excl_dist)


def _ranked_prefix(tile: np.ndarray, need: int):
    """Column positions and distances of each row's ``need`` smallest
    entries, ordered by (distance, column)."""
    m = tile.shape[1]
    if need == m:
        pos = np.argsort(tile, axis=1, kind="stable")
        return pos, _take_rows(tile, pos)
    part = np.argpartition(tile, need, axis=1)
    pos = np.sort(part[:, :need], axis=1)
    nxt = _take_rows(tile, part[:, need : need + 1])[:, 0]
    pd = _take_rows(tile, pos)
    rank = np.argsort(pd, axis=1, kind="stable")
    pos = _take_rows(pos, rank)
    pd = _take_rows(pd, rank)
    # Which of the tied columns the partition kept is arbitrary; the full
    # stable sort picks the smaller ids.
    tied = np.nonzero(nxt == pd[:, -1])[0]
    if tied.size:
        sub = tile[tied]
        full = np.argsort(sub, axis=1, kind="stable")[:, :need]
        pos[tied] = full
        pd[tied] = _take_rows(sub, full)
    return pos, pd


def _take_rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(a, idx, axis=1)`` for a C-contiguous 2-D ``a``,
    as one flat gather: about half the per-call time on the kernel's tiles,
    ~10% of sweep_bags wall time.  Every caller passes a tile or a fresh
    array, so ``reshape(-1)`` is a view, never a copy."""
    assert a.flags.c_contiguous
    return a.reshape(-1)[idx + np.arange(0, a.size, a.shape[1])[:, None]]
