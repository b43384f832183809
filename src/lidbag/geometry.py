"""Point storage, Euclidean distances, and exact batched k-NN tables.

Every estimator and smoothing pipeline in this package goes through the
two routines here, so there is exactly one distance convention in play:
Euclidean distances computed by :func:`dist_block`, and neighbor tables
built from them by :func:`neighbor_tables` with ties broken by ascending
original point index.  That rule makes every result independent of
reference-set permutation, worker count, and platform.
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
    is bit-identical to recomputing the block for those columns.
    """
    a = _as_points(a, "a")
    b = _as_points(b, "b")
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    return cdist(a, b)


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
) -> NeighborTables:
    """Build inclusive/exclusive sorted neighbor tables from a distance block.

    Parameters
    ----------
    dcols : (nq, m) distances from each query to each reference point.
    reference_ids : (m,) original ids of the reference columns.
    query_ids : (nq,) original ids of the queries, or None when no query is a
        member of the reference set.  Membership is decided by id equality.
    depth : number of neighbors to keep per row; requires depth <= m - 1 when
        any query is a member, else depth <= m.

    Ties are broken by ascending original id; rows whose selection is
    ambiguous at the prefix boundary are re-ranked exhaustively, so the
    partition shortcut never changes the outcome.
    """
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
    need = min(depth + 1, m)

    if need < m:
        part = np.argpartition(dcols, need - 1, axis=1)[:, :need]
    else:
        part = np.broadcast_to(np.arange(m), (nq, m)).copy()
    pd = np.take_along_axis(dcols, part, axis=1)
    pids = reference_ids[part]
    order = np.lexsort((pids, pd), axis=1)
    pd = np.take_along_axis(pd, order, axis=1)
    pids = np.take_along_axis(pids, order, axis=1)

    if need < m:
        # A tie at the prefix edge can leave a smaller-id point outside the
        # partition; re-rank those rows over the full reference.
        edge = pd[:, -1]
        ambiguous = np.count_nonzero(dcols <= edge[:, None], axis=1) > need
        if np.any(ambiguous):
            rows = np.nonzero(ambiguous)[0]
            sub = dcols[rows]
            full = np.lexsort(
                (np.broadcast_to(reference_ids, sub.shape), sub), axis=1
            )[:, :need]
            pd[rows] = np.take_along_axis(sub, full, axis=1)
            pids[rows] = reference_ids[full]

    incl_idx = pids[:, :depth]
    incl_dist = pd[:, :depth]

    if member_possible:
        qids = np.asarray(query_ids, dtype=np.int64).reshape(-1)
        if qids.shape[0] != nq:
            raise GeometryError("query_ids must match dcols rows")
        self_mask = pids == qids[:, None]
        push = np.argsort(self_mask, axis=1, kind="stable")
        excl_idx = np.take_along_axis(pids, push, axis=1)[:, :depth]
        excl_dist = np.take_along_axis(pd, push, axis=1)[:, :depth]
    else:
        excl_idx = incl_idx
        excl_dist = incl_dist

    return NeighborTables(incl_idx, incl_dist, excl_idx, excl_dist)
