"""Neighborhood machinery: exhaustive oracle, tie policy, batched tables."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidbag import geometry, smoothing
from lidbag.datasets import DATASET_NAMES, GeneratorSpec, generate
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
        # The engine reads a bag's distances to the queries as the bag's rows
        # of a distance tile, by symmetry; both equal recomputed columns.
        a = rng.normal(size=(300, 7)) * 10
        cols = np.sort(rng.choice(300, size=40, replace=False))
        full = dist_block(a, a)
        recomputed = dist_block(a, a[cols]).tobytes()
        assert full[:, cols].tobytes() == recomputed
        assert np.ascontiguousarray(full[cols].T).tobytes() == recomputed

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_self_block_exactly_symmetric_on_generators(self, name):
        pts = generate(GeneratorSpec(name, n=150, seed=3)).points
        blk = dist_block(pts, pts)
        assert blk.tobytes() == np.ascontiguousarray(blk.T).tobytes()

    def test_self_block_exactly_symmetric_on_random_clouds(self, rng):
        for dim in range(1, 101):
            pts = rng.normal(size=(40, dim)) * rng.uniform(0.01, 100.0)
            blk = dist_block(pts, pts)
            assert blk.tobytes() == np.ascontiguousarray(blk.T).tobytes(), dim


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

    def test_shuffled_reference_ids_copy_chunk_by_chunk(self, rng):
        # Columns in non-ascending id order are put in id order one chunk at
        # a time: the call holds no reordered copy of the 8 MB input.
        dcols = rng.random((2000, 500))
        ids = rng.permutation(500)
        tracemalloc.start()
        try:
            tabs = neighbor_tables(dcols, ids, None, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        order = np.argsort(dcols, axis=1, kind="stable")[:, :5]
        np.testing.assert_array_equal(tabs.incl_idx, ids[order])

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
        tabs = neighbor_tables(d, ids, ids, 2, 5)  # inclusive depth: max m
        assert (tabs.excl_idx.shape, tabs.incl_idx.shape) == ((5, 2), (5, 5))
        with pytest.raises(CapacityError):
            neighbor_tables(d, ids, ids, 2, 6)


def lexsort_tables(dcols, reference_ids, query_ids, depth, depth_incl):
    """Full-row reference: rank every column by (distance, id) with one lexsort."""
    ids = np.broadcast_to(reference_ids, dcols.shape)
    order = np.lexsort((ids, dcols), axis=1)
    ranked_ids = np.take_along_axis(ids, order, axis=1)
    ranked_d = np.take_along_axis(dcols, order, axis=1)
    incl = ranked_ids[:, :depth_incl], ranked_d[:, :depth_incl]
    if query_ids is None:
        return incl + (ranked_ids[:, :depth], ranked_d[:, :depth])
    keep = ranked_ids != np.asarray(query_ids)[:, None]
    excl_idx = np.array([r[k][:depth] for r, k in zip(ranked_ids, keep)])
    excl_d = np.array([r[k][:depth] for r, k in zip(ranked_d, keep)])
    return incl + (excl_idx.reshape(-1, depth), excl_d.reshape(-1, depth))


class TestBlockedKernel:
    """The query-blocked kernel against a full-row lexsort, across block edges."""

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(150, 400),
        dim=st.integers(1, 3),
        side=st.integers(2, 6),
        lattice=st.booleans(),
        depth_kind=st.sampled_from(["one", "max", "any"]),
        incl_kind=st.sampled_from(["default", "m", "any"]),
        members=st.booleans(),
        shuffled=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    def test_matches_lexsort_reference(self, m, dim, side, lattice, depth_kind, incl_kind,
                                       members, shuffled, seed):
        rng = np.random.default_rng(seed)
        rows = geometry._BLOCK_CELLS // m
        n = max(m, 3 * rows) + int(rng.integers(1, rows))
        if n % rows == 0:
            n += 1
        # Lattice points tie everywhere, so most rows are re-ranked at the
        # prefix edge; in a Gaussian cloud only copied points tie, mostly
        # inside the prefix.  Copies of the last query of each block at the
        # start of the next make ties straddle block edges.
        if lattice:
            pts = rng.integers(0, side, size=(n, dim)).astype(np.float64)
        else:
            pts = rng.normal(size=(n, dim))
        dup = rng.choice(n, size=n // 10, replace=False)
        pts[dup] = pts[rng.choice(n, size=dup.size)]
        for edge in range(rows, n, rows):
            pts[edge] = pts[edge - 1]
        ref_ids = rng.choice(n, size=m, replace=False)
        # A member query with a copy of smaller id in the reference set ranks
        # behind that copy, so its self-exclusion cannot be a shift by one.
        low, high = np.sort(ref_ids[:2])
        pts[high] = pts[low]
        if not shuffled:
            ref_ids = np.sort(ref_ids)
        # Every cloud point queries the reference: those drawn into it are
        # members, the rest are not.
        query_ids = np.arange(n, dtype=np.int64) if members else None
        max_depth = m - 1 if members else m
        depth = {"one": 1, "max": max_depth,
                 "any": int(rng.integers(1, max_depth + 1))}[depth_kind]
        # The inclusive (smoothing) depth may differ from depth either way,
        # up to all m reference points.
        depth_incl = {"default": None, "m": m,
                      "any": int(rng.integers(1, m + 1))}[incl_kind]
        dcols = dist_block(pts, pts[ref_ids])
        want = lexsort_tables(dcols, ref_ids, query_ids, depth,
                              depth if depth_incl is None else depth_incl)
        # The materialised block and the streamed source must give the same
        # tables.  The source reads the reference rows of a tile from every
        # point to the queries lo..hi (distances are exactly symmetric), one
        # group per reference set: here the reference set and its reverse.
        got = neighbor_tables(dcols, ref_ids, query_ids, depth, depth_incl)
        self.assert_tables(got, want, "materialised")
        lo = int(rng.integers(0, n - 1))
        hi = int(rng.integers(lo + 1, n + 1))
        block = dist_block(pts, pts[lo:hi])
        groups = np.stack([ref_ids, ref_ids[::-1]])
        qids = None if query_ids is None else np.tile(query_ids[lo:hi], 2)
        got = neighbor_tables(geometry._RowGroups(block, groups), groups, qids, depth, depth_incl)
        for g in range(2):
            rows = slice(g * (hi - lo), (g + 1) * (hi - lo))
            sub = NeighborTables(*(getattr(got, f)[rows] for f in TABLE_FIELDS))
            self.assert_tables(sub, [t[lo:hi] for t in want], f"group {g}")
        # The same groups read from a ranked prefix of the tile, thinned
        # from its D cells when D <= m and selected by their members' ranks
        # when D > m: D as deep as a row keeps (most rows fall short and are
        # partitioned), a random depth (on a lattice most edges cut through
        # ties), the depth of the thinning rule's law, one past m (the
        # selection, with most rows short when ``need`` is deep), and every
        # row of the tile (no row falls short).
        need = geometry._prefix_need(depth, depth if depth_incl is None else depth_incl, m)
        law = smoothing._thin_depth(n, m, need, 2**40, need)
        for thin in (need, int(rng.integers(need, n + 1)), law, min(n, m + 1), n):
            prefix = geometry._RankedTile(block, thin)
            pos, dist = prefix.ranks
            assert dist.tobytes() == np.sort(block.T, axis=1)[:, :thin].tobytes()
            self.assert_inverse(prefix.inverse, pos, thin)
            got = neighbor_tables(geometry._RowGroups(block, groups, prefix=prefix), groups,
                                  qids, depth, depth_incl)
            for g in range(2):
                rows = slice(g * (hi - lo), (g + 1) * (hi - lo))
                sub = NeighborTables(*(getattr(got, f)[rows] for f in TABLE_FIELDS))
                self.assert_tables(sub, [t[lo:hi] for t in want], f"prefix of {thin}, group {g}")
        # Rows may instead name their own (group, query) pair, in any order.
        group = rng.integers(0, 2, size=int(rng.integers(0, 2 * (hi - lo) + 1)))
        col = rng.integers(0, hi - lo, size=group.size)
        qids = None if query_ids is None else query_ids[lo:hi][col]
        got = neighbor_tables(geometry._RowGroups(block, groups, (group, col)), groups, qids,
                              depth, depth_incl)
        for g in range(2):
            sub = NeighborTables(*(getattr(got, f)[group == g] for f in TABLE_FIELDS))
            self.assert_tables(sub, [t[lo:hi][col[group == g]] for t in want],
                               f"pairs of group {g}")

    @pytest.mark.parametrize("u, thin, dtype", [(200, 56, np.uint8), (200, 57, np.uint16),
                                                 (65000, 536, np.uint16),
                                                 (65000, 537, np.uint32)])
    def test_inverse_ranks_take_the_narrowest_type(self, u, thin, dtype):
        # Ranks reach thin + u - 1: 255 and 65535 fit one and two bytes.
        # Tile rows lie on a line, four queries near its start and one at
        # its end.  Every group has m = 40 < thin members, so the groups
        # select.  The first two are the 20 rows nearest the start and 20
        # further out: at need = 15 the start queries select every row
        # from the prefix, at need = 30 most of their rows fall short and
        # are partitioned.  The third is the 14 rows nearest the end, row 0
        # and 25 rows of the first half: at need = 15 the end query's 15th
        # member is row 0, the first row past the prefix, at rank ``thin``
        # exactly, so its row falls short.
        rng = np.random.default_rng(u + thin)
        pts = np.arange(u, dtype=np.float64)[:, None]
        queries = np.array([[0.0], [3.5], [10.0], [20.25], [u - 0.5]])
        block = dist_block(pts, queries)
        groups = [np.concatenate([np.arange(20), rng.choice(np.arange(20, u), 20, replace=False)])
                  for _ in range(2)]
        groups.append(np.concatenate([[0], rng.choice(np.arange(1, u // 2), 25, replace=False),
                                      np.arange(u - 14, u)]))
        groups = np.sort(groups, axis=1)
        prefix = geometry._RankedTile(block, thin)
        assert prefix.inverse.dtype == dtype
        assert prefix.inverse[0, 4] == thin
        self.assert_inverse(prefix.inverse, prefix.ranks[0], thin)
        for need in (15, 30):
            # A table of depth need - 1 ranks need entries per row.
            got = neighbor_tables(geometry._RowGroups(block, groups, prefix=prefix), groups,
                                  None, need - 1)
            for g in range(3):
                want = lexsort_tables(block[groups[g]].T, groups[g], None, need - 1, need - 1)
                sub = NeighborTables(*(getattr(got, f)[5 * g : 5 * (g + 1)]
                                       for f in TABLE_FIELDS))
                self.assert_tables(sub, want, f"need {need}, group {g}")

    def test_a_prefix_serves_only_groups_with_one_id_per_row(self):
        # Two groups read the same rows of the tile under different ids: no
        # one map from the tile's rows to ids serves both, so they
        # partition their columns whatever the prefix's depth.
        pts = np.random.default_rng(5).normal(size=(300, 2))
        block = dist_block(pts, pts[:40])
        rows = np.stack([np.arange(0, 300, 3)] * 2)
        ids = np.stack([rows[0], rows[0] + 1000])
        want = neighbor_tables(geometry._RowGroups(block, rows), ids, None, 5)
        for thin in (50, 300):
            prefix = geometry._RankedTile(block, thin)
            got = neighbor_tables(geometry._RowGroups(block, rows, prefix=prefix), ids, None, 5)
            self.assert_tables(got, [getattr(want, f) for f in TABLE_FIELDS], f"prefix of {thin}")

    @staticmethod
    def assert_inverse(inverse, pos, thin):
        """``inverse`` ranks every tile row in every query's order: the
        prefix's rows by their place in it, every other row past it."""
        u, q = inverse.shape
        assert inverse.dtype == np.min_scalar_type(thin + u - 1)
        assert np.array_equal(np.argsort(inverse, axis=0)[:thin].T, pos)
        assert np.array_equal(np.sort(inverse, axis=0)[:thin], np.tile(np.arange(thin)[:, None], q))
        past = inverse >= thin
        assert np.array_equal(inverse[past], (thin + np.arange(u)[:, None] + 0 * inverse)[past])

    @staticmethod
    def assert_tables(got, want, source):
        for field, ref in zip(TABLE_FIELDS, want):
            out = getattr(got, field)
            assert out.shape == ref.shape, (source, field)
            assert out.tobytes() == np.ascontiguousarray(ref).tobytes(), (source, field)


TABLE_FIELDS = ("incl_idx", "incl_dist", "excl_idx", "excl_dist")
