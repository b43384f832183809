"""Neighborhood machinery: exhaustive oracle, tie policy, batched tables."""

import math

import numpy as np
import pytest

from lidbag.geometry import (
    CapacityError,
    DimensionMismatchError,
    EmptyReferenceError,
    GeometryError,
    NeighborTables,
    PointCloud,
    dist_block,
    neighbor_tables,
)


def oracle_knn(points, qpoint, k, *, exclude_id=None, ids=None):
    """Full-sort reference implementation: rank by (distance, original id)."""
    pts = np.asarray(points, dtype=np.float64)
    if ids is None:
        ids = np.arange(pts.shape[0])
    d = np.sqrt(np.sum((pts - qpoint) ** 2, axis=1))
    ranked = sorted(zip(d, ids), key=lambda t: (t[0], t[1]))
    if exclude_id is not None:
        ranked = [t for t in ranked if t[1] != exclude_id]
    top = ranked[:k]
    return np.array([t[1] for t in top]), np.array([t[0] for t in top])


def table_row(points, query, k, *, ids=None):
    """One query's self-excluded neighbors from :func:`neighbor_tables`.

    ``query`` is an original id (a member of the reference, whose own entry
    is dropped) or a coordinate vector (a non-member).
    """
    pts = np.asarray(points, dtype=np.float64)
    ids = np.arange(pts.shape[0], dtype=np.int64) if ids is None else np.asarray(ids)
    if isinstance(query, (int, np.integer)):
        qpoint = pts[np.nonzero(ids == query)[0][0]]
        tabs = neighbor_tables(dist_block(qpoint, pts), ids, np.array([query]), k)
    else:
        tabs = neighbor_tables(dist_block(query, pts), ids, None, k)
    return tabs.excl_idx[0], tabs.excl_dist[0]


def all_rows(points, k):
    """Self-excluded tables of every point against the whole cloud."""
    ids = np.arange(len(points), dtype=np.int64)
    return neighbor_tables(dist_block(points, points), ids, ids, k)


class TestDistances:
    def test_pairwise_distance_345(self):
        assert dist_block([0.0, 0.0], [3.0, 4.0])[0, 0] == 5.0

    def test_pairwise_distance_zero(self):
        assert dist_block([1.5, -2.0, 7.0], [1.5, -2.0, 7.0])[0, 0] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dist_block([0.0, 0.0], [1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatchError):
            dist_block(np.zeros((2, 2)), np.zeros((3, 4)))

    def test_dist_block_matches_scalar(self, rng):
        a = rng.normal(size=(7, 3))
        b = rng.normal(size=(5, 3))
        blk = dist_block(a, b)
        assert blk.shape == (7, 5)
        for i in range(7):
            for j in range(5):
                assert blk[i, j] == pytest.approx(math.dist(a[i], b[j]), abs=1e-12)

    def test_dist_block_diagonal_exact_zero(self, rng):
        a = rng.normal(size=(20, 4)) * 1e3
        blk = dist_block(a, a)
        assert np.all(np.diag(blk) == 0.0)

    def test_column_gather_equals_recomputed_columns(self, rng):
        # The engine takes a bag's distance columns from either source.
        a = rng.normal(size=(300, 7)) * 10
        cols = np.sort(rng.choice(300, size=40, replace=False))
        assert dist_block(a, a)[:, cols].tobytes() == dist_block(a, a[cols]).tobytes()


class TestPointCloud:
    def test_basic_properties(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        cloud = PointCloud(points=pts, manifold_label=np.array([1, 1, 2]), gt_lid=np.array([1.0, 2.0]))
        assert cloud.n == 3
        assert cloud.dim == 2
        assert cloud.n_manifolds == 2
        np.testing.assert_array_equal(cloud.gt_per_point(), [1.0, 1.0, 2.0])

    def test_single_manifold_constructor(self, rng):
        cloud = PointCloud.single_manifold(rng.normal(size=(5, 3)), 3.0)
        assert cloud.n_manifolds == 1
        np.testing.assert_array_equal(cloud.manifold_label, np.ones(5, dtype=np.int64))

    def test_points_are_frozen(self, rng):
        cloud = PointCloud.single_manifold(rng.normal(size=(4, 2)), 2.0)
        with pytest.raises((ValueError, RuntimeError)):
            cloud.points[0, 0] = 99.0

    def test_rejects_tiny_cloud(self):
        with pytest.raises(GeometryError):
            PointCloud.single_manifold(np.zeros((1, 2)), 1.0)

    def test_rejects_label_gaps(self):
        pts = np.zeros((3, 2))
        with pytest.raises(GeometryError):
            PointCloud(points=pts, manifold_label=np.array([1, 1, 3]), gt_lid=np.array([1.0, 1.0, 1.0]))

    def test_rejects_nonpositive_gt(self):
        pts = np.zeros((2, 2))
        with pytest.raises(GeometryError):
            PointCloud(points=pts, manifold_label=np.array([1, 1]), gt_lid=np.array([0.0]))


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coordinates(self, bad):
        pts = np.zeros((4, 2))
        pts[2, 1] = bad
        with pytest.raises(GeometryError, match="finite"):
            PointCloud.single_manifold(pts, 1.0)


class TestNeighborList:
    """Each table row is one query's neighbor list."""

    def test_invariants_enforced(self, rng):
        pts = rng.normal(size=(40, 2))
        pts[:10] = pts[10:20]  # exact duplicates
        tabs = all_rows(pts, 12)
        for dist in (tabs.excl_dist, tabs.incl_dist):
            assert np.all(np.diff(dist, axis=1) >= 0)
        for idx in (tabs.excl_idx, tabs.incl_idx):
            for row in idx:
                assert len(np.unique(row)) == row.shape[0]

    def test_k_property(self, rng):
        tabs = all_rows(rng.normal(size=(9, 2)), 3)
        assert tabs.depth == 3
        assert tabs.excl_idx.shape == tabs.incl_dist.shape == (9, 3)


class TestKnnExamples:
    """Hand-checkable line geometry: points at 0, 1, 3, 6 on an axis."""

    line = np.array([[0.0], [1.0], [3.0], [6.0]])

    def test_member_query_excludes_self(self):
        idx, dist = table_row(self.line, 1, 2)
        np.testing.assert_array_equal(idx, [0, 2])
        np.testing.assert_allclose(dist, [1.0, 2.0])

    def test_nonmember_query_keeps_everything(self):
        idx, _ = table_row(self.line, np.array([2.9]), 4)
        np.testing.assert_array_equal(idx, [2, 1, 0, 3])

    def test_tie_broken_by_smaller_id(self):
        # 2.0 is equidistant from points 1 (at 1) and 2 (at 3).
        idx, _ = table_row(self.line, np.array([2.0]), 1)
        assert idx[0] == 1

    def test_capacity_error_reports_available(self):
        with pytest.raises(CapacityError) as exc:
            table_row(self.line, 0, 4)  # member: only 3 others available
        assert exc.value.available == 3
        table_row(self.line, np.array([0.5]), 4)  # non-member: 4 is fine
        with pytest.raises(CapacityError):
            table_row(self.line, np.array([0.5]), 5)

    def test_empty_reference(self):
        with pytest.raises(EmptyReferenceError):
            neighbor_tables(np.zeros((1, 0)), np.zeros(0, dtype=np.int64), None, 1)

    def test_unknown_member_id(self):
        # Membership is decided by id: a query id absent from the reference
        # ids loses no candidate.
        ref_ids = np.array([0, 2, 3])
        tabs = neighbor_tables(dist_block(self.line[1], self.line[ref_ids]),
                               ref_ids, np.array([1]), 2)
        np.testing.assert_array_equal(tabs.excl_idx, tabs.incl_idx)
        np.testing.assert_array_equal(tabs.excl_idx[0], [0, 2])

    def test_duplicate_flag(self):
        # Duplicates are kept at distance zero, lower id first.
        doubled = np.array([[0.0], [0.0], [5.0]])
        idx, dist = table_row(doubled, 0, 1)
        assert idx[0] == 1 and dist[0] == 0.0
        idx, dist = table_row(doubled, 2, 1)
        assert idx[0] == 0 and dist[0] == 5.0

    def test_reference_ids_relabel(self):
        idx, _ = table_row(self.line, 30, 2, ids=[10, 30, 20, 40])
        np.testing.assert_array_equal(idx, [10, 20])


class TestKnnOracle:
    def test_random_clouds_match_full_sort(self, rng):
        for trial in range(30):
            n = int(rng.integers(5, 60))
            dim = int(rng.integers(1, 6))
            pts = rng.normal(size=(n, dim))
            if trial % 3 == 0:  # inject exact duplicates to stress ties
                pts[: n // 2] = pts[n // 2 : 2 * (n // 2)]
            k = min(int(rng.integers(1, n)), n - 1)
            tabs = all_rows(pts, k)
            for q in range(n):
                oid, od = oracle_knn(pts, pts[q], k, exclude_id=q)
                np.testing.assert_array_equal(tabs.excl_idx[q], oid)
                np.testing.assert_array_equal(tabs.excl_dist[q], od)

    def test_lattice_ties_match_full_sort(self):
        # Integer lattice: many exactly-equal distances.
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        tabs = all_rows(pts, 8)
        for q in range(pts.shape[0]):
            oid, od = oracle_knn(pts, pts[q], 8, exclude_id=q)
            np.testing.assert_array_equal(tabs.excl_idx[q], oid)
            np.testing.assert_array_equal(tabs.excl_dist[q], od)

    def test_prefix_property(self, rng):
        pts = rng.normal(size=(40, 3))
        big = all_rows(pts, 20)
        for k in range(1, 20):
            small = all_rows(pts, k)
            np.testing.assert_array_equal(small.excl_idx, big.excl_idx[:, :k])
            np.testing.assert_array_equal(small.excl_dist, big.excl_dist[:, :k])
            np.testing.assert_array_equal(small.incl_idx, big.incl_idx[:, :k])

    def test_row_permutation_invariance(self, rng):
        pts = rng.normal(size=(25, 2))
        perm = rng.permutation(25)
        base = table_row(pts, 4, 6)
        shuffled = table_row(pts[perm], 4, 6, ids=perm)
        np.testing.assert_array_equal(base[0], shuffled[0])
        np.testing.assert_array_equal(base[1], shuffled[1])


class TestNeighborTablesBatch:
    def test_matches_per_query_knn(self, rng):
        pts = rng.normal(size=(30, 3))
        ids = np.arange(30, dtype=np.int64)
        dcols = dist_block(pts, pts)
        tabs = neighbor_tables(dcols, ids, ids, 6)
        assert isinstance(tabs, NeighborTables)
        assert tabs.depth == 6
        for q in range(30):
            oid, od = oracle_knn(pts, pts[q], 6, exclude_id=q)
            np.testing.assert_array_equal(tabs.excl_idx[q], oid)
            np.testing.assert_allclose(tabs.excl_dist[q], od, rtol=1e-15)
            row = table_row(pts, q, 6)
            assert tabs.excl_dist[q].tobytes() == row[1].tobytes()

    def test_inclusive_rows_lead_with_self(self, rng):
        pts = rng.normal(size=(15, 2))
        ids = np.arange(15, dtype=np.int64)
        tabs = neighbor_tables(dist_block(pts, pts), ids, ids, 4)
        np.testing.assert_array_equal(tabs.incl_idx[:, 0], ids)
        assert np.all(tabs.incl_dist[:, 0] == 0.0)

    def test_nonmember_queries(self, rng):
        ref = rng.normal(size=(20, 2))
        qs = rng.normal(size=(5, 2))
        ids = np.arange(20, dtype=np.int64)
        tabs = neighbor_tables(dist_block(qs, ref), ids, None, 3)
        for i in range(5):
            oid, _ = oracle_knn(ref, qs[i], 3)
            np.testing.assert_array_equal(tabs.excl_idx[i], oid)

    def test_lattice_ties_in_batch(self):
        xs, ys = np.meshgrid(np.arange(4.0), np.arange(4.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        ids = np.arange(16, dtype=np.int64)
        tabs = neighbor_tables(dist_block(pts, pts), ids, ids, 10)
        for q in range(16):
            oid, od = oracle_knn(pts, pts[q], 10, exclude_id=q)
            np.testing.assert_array_equal(tabs.excl_idx[q], oid)
            np.testing.assert_array_equal(tabs.excl_dist[q], od)

    def test_depth_capacity(self, rng):
        pts = rng.normal(size=(5, 2))
        ids = np.arange(5, dtype=np.int64)
        d = dist_block(pts, pts)
        with pytest.raises(CapacityError):
            neighbor_tables(d, ids, ids, 5)  # member queries: max 4
        neighbor_tables(d, ids, None, 5)  # non-member: 5 allowed
        with pytest.raises(CapacityError):
            neighbor_tables(d, ids, None, 6)
