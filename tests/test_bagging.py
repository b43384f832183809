"""Bag drawing, anchored aggregation, per-bag tables, and the bagged variant."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidbag.bagging import (
    DIVERGENCE_POLICIES,
    AnchoredMean,
    BaggingConfig,
    BaggingError,
    LocalityCapacityError,
    bag_tables,
    draw_bags,
    estimates_from_tables,
)
from lidbag.datasets import GeneratorSpec, generate
from lidbag.estimators import EstimatorConfig, batch_values, clamp_values, tle_values
from lidbag.geometry import PointCloud, dist_block, neighbor_tables
from lidbag.smoothing import variant_estimates


def aggregate(per_bag_row, flags=None, policy="clamp"):
    """One query's bagged mean, fed to :class:`AnchoredMean` one bag at a time."""
    row = np.asarray(per_bag_row, dtype=np.float64)
    flags = np.zeros(row.shape[0], dtype=bool) if flags is None else np.asarray(flags)
    acc = AnchoredMean(1)
    for v, f in zip(row, flags):
        acc.add(np.array([v]), np.array([f]))
    values, out_flags = acc.result(policy)
    return float(values[0]), bool(out_flags[0])


class TestBaggingConfig:
    def test_bag_size_examples(self):
        assert BaggingConfig(bags=1, rate=0.25).bag_size(10) == 3
        assert BaggingConfig(bags=1, rate=1.0).bag_size(10) == 10
        assert BaggingConfig(bags=1, rate=0.001).bag_size(10) == 1
        assert BaggingConfig(bags=1, rate=0.34).bag_size(100) == 34

    def test_validation(self):
        with pytest.raises(BaggingError):
            BaggingConfig(bags=0, rate=0.5)
        with pytest.raises(BaggingError):
            BaggingConfig(bags=2, rate=0.0)
        with pytest.raises(BaggingError):
            BaggingConfig(bags=2, rate=1.2)
        with pytest.raises(BaggingError):
            BaggingConfig(bags=2, rate=0.5, seed=-1)


class TestDrawBags:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 200),
        st.floats(0.01, 1.0),
        st.integers(1, 8),
        st.integers(0, 2**31),
    )
    def test_shape_sortedness_distinctness(self, n, rate, bags, seed):
        cfg = BaggingConfig(bags=bags, rate=rate, seed=seed)
        out = draw_bags(n, cfg)
        m = cfg.bag_size(n)
        assert out.shape == (bags, m)
        assert out.dtype == np.int64
        for row in out:
            assert np.all(np.diff(row) > 0)  # sorted and distinct
            assert row.min() >= 0 and row.max() < n

    def test_deterministic_and_seed_sensitive(self):
        cfg = BaggingConfig(bags=4, rate=0.5, seed=7)
        a = draw_bags(50, cfg)
        b = draw_bags(50, BaggingConfig(bags=4, rate=0.5, seed=7))
        np.testing.assert_array_equal(a, b)
        c = draw_bags(50, BaggingConfig(bags=4, rate=0.5, seed=8))
        assert not np.array_equal(a, c)

    def test_growing_ensemble_keeps_prefix(self):
        cfg = BaggingConfig(bags=3, rate=0.3, seed=1)
        small = draw_bags(80, cfg)
        big = draw_bags(80, cfg, count=10)
        np.testing.assert_array_equal(big[:3], small)

    def test_full_rate_returns_everything(self):
        out = draw_bags(12, BaggingConfig(bags=2, rate=1.0, seed=0))
        np.testing.assert_array_equal(out, np.tile(np.arange(12), (2, 1)))

    def test_mean_overlap_tracks_m_squared_over_n(self):
        # For independent bags |A ∩ B| concentrates at m^2/n.
        n, rate = 400, 0.25
        bags = draw_bags(n, BaggingConfig(bags=60, rate=rate, seed=3))
        m = bags.shape[1]
        overlaps = [
            np.intersect1d(bags[i], bags[j]).size
            for i in range(0, 60, 2)
            for j in (i + 1,)
        ]
        assert np.mean(overlaps) == pytest.approx(m * m / n, rel=0.15)


class TestAnchoredMean:
    def test_exact_on_constant_columns(self):
        acc = AnchoredMean(3)
        col = np.array([0.1, 7.3, 2.2e-17])
        for _ in range(11):
            acc.add(col, np.zeros(3, dtype=bool))
        values, flags = acc.result("clamp")
        assert values.tobytes() == col.tobytes()  # bit-identical, not approx
        assert not flags.any()

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-1e12, 1e12, allow_nan=False), st.integers(1, 40))
    def test_exact_on_any_constant(self, x, reps):
        acc = AnchoredMean(1)
        for _ in range(reps):
            acc.add(np.array([x]), np.array([False]))
        values, _ = acc.result()
        assert values[0] == x

    def test_matches_plain_mean_closely(self, rng):
        cols = rng.normal(size=(5, 30)) * 100
        acc = AnchoredMean(5)
        for j in range(30):
            acc.add(cols[:, j], np.zeros(5, dtype=bool))
        values, _ = acc.result()
        np.testing.assert_allclose(values, cols.mean(axis=1), rtol=1e-12)

    def test_result_usable_at_every_prefix(self, rng):
        # Consuming an ensemble checkpoint-by-checkpoint must equal a fresh
        # accumulator stopped at the same count.
        cols = rng.normal(size=(4, 9))
        flags = rng.random((4, 9)) < 0.2
        acc = AnchoredMean(4)
        for j in range(9):
            acc.add(cols[:, j], flags[:, j])
            fresh = AnchoredMean(4)
            for i in range(j + 1):
                fresh.add(cols[:, i], flags[:, i])
            a, af = acc.result("skip")
            b, bf = fresh.result("skip")
            assert a.tobytes() == b.tobytes()
            np.testing.assert_array_equal(af, bf)

    def test_stack_equals_columns_one_by_one(self, rng):
        cols = rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-3, 4, size=(7, 5))
        flags = rng.random((7, 5)) < 0.3
        one, stacked = AnchoredMean(5), AnchoredMean(5)
        for j in range(7):
            one.add(cols[j], flags[j])
        stacked.add(cols[:1], flags[:1])
        stacked.add(cols[1:4], flags[1:4])
        stacked.add(cols[4:], flags[4:])
        for policy in DIVERGENCE_POLICIES:
            a, af = one.result(policy)
            b, bf = stacked.result(policy)
            assert a.tobytes() == b.tobytes()
            np.testing.assert_array_equal(af, bf)

    def test_empty_accumulator_rejected(self):
        with pytest.raises(BaggingError):
            AnchoredMean(2).result()


class TestAggregate:
    def test_plain_mean_when_clean(self):
        value, flag = aggregate([1.0, 2.0, 3.0])
        assert value == 2.0 and not flag

    def test_clamp_keeps_flagged_values_and_flags_result(self):
        value, flag = aggregate([1.0, 2.0, 30.0], [False, False, True], "clamp")
        assert value == pytest.approx(11.0)
        assert flag

    def test_skip_drops_flagged_values(self):
        value, flag = aggregate([1.0, 2.0, 30.0], [False, False, True], "skip")
        assert value == pytest.approx(1.5)
        assert not flag

    def test_infinite_first_value_is_not_nan(self):
        # An unclamped divergent estimate (+inf) in the first bag.
        assert aggregate([math.inf, 2.0, 4.0], [True, False, False], "skip") == (3.0, False)
        assert aggregate([math.inf, 2.0, 4.0], [True, False, False], "clamp") == (math.inf, True)
        assert aggregate([math.inf, math.inf], [True, True], "skip") == (math.inf, True)

    def test_skip_falls_back_when_all_flagged(self):
        value, flag = aggregate([10.0, 30.0], [True, True], "skip")
        assert value == pytest.approx(20.0)
        assert flag

    def test_policy_registry_and_errors(self):
        assert DIVERGENCE_POLICIES == ("clamp", "skip")
        with pytest.raises(BaggingError):
            aggregate([], policy="clamp")
        with pytest.raises(BaggingError):
            aggregate([1.0], policy="median")

    def test_matrix_agrees_with_rowwise(self, rng):
        per_bag = rng.normal(size=(6, 7))
        flags = rng.random((6, 7)) < 0.3
        acc = AnchoredMean(6)
        for i in range(7):
            acc.add(per_bag[:, i], flags[:, i])
        for policy in DIVERGENCE_POLICIES:
            mv, mf = acc.result(policy)
            for q in range(6):
                rv, rf = aggregate(per_bag[q], flags[q], policy)
                assert mv[q] == pytest.approx(rv, rel=1e-12)
                assert bool(mf[q]) == rf


class TestBagTables:
    def test_matches_direct_tables_on_subset(self, rng):
        pts = rng.normal(size=(40, 3))
        dfull = dist_block(pts, pts)
        bag = np.sort(rng.choice(40, size=15, replace=False)).astype(np.int64)
        qids = np.arange(40, dtype=np.int64)
        tabs = bag_tables(dfull[:, bag], bag, qids, 5)
        direct = neighbor_tables(dist_block(pts, pts[bag]), bag, qids, 5)
        assert tabs.excl_dist.tobytes() == direct.excl_dist.tobytes()
        np.testing.assert_array_equal(tabs.excl_idx, direct.excl_idx)

    def test_split_depths_for_wide_smoothing(self, rng):
        pts = rng.normal(size=(30, 2))
        dfull = dist_block(pts, pts)
        bag = np.sort(rng.choice(30, size=8, replace=False)).astype(np.int64)
        qids = np.arange(30, dtype=np.int64)
        # Smoothing may reach the whole bag (depth_incl = m) while estimation
        # stops short of it; one table pass keeps both depths.
        tabs = bag_tables(dfull[:, bag], bag, qids, 4, 8)
        assert tabs.excl_dist.shape[1] == 4
        assert tabs.incl_dist.shape[1] == 8

    def test_estimation_depth_over_capacity_raises(self, rng):
        pts = rng.normal(size=(20, 2))
        dfull = dist_block(pts, pts)
        bag = np.arange(5, dtype=np.int64)
        with pytest.raises(LocalityCapacityError):
            bag_tables(dfull[:, bag], bag, np.arange(20, dtype=np.int64), 5)


class TestEstimatesFromTables:
    def test_depth_guard(self, rng):
        pts = rng.normal(size=(20, 2))
        ids = np.arange(20, dtype=np.int64)
        tabs = neighbor_tables(dist_block(pts, pts), ids, ids, 4)
        with pytest.raises(BaggingError):
            estimates_from_tables(EstimatorConfig(method="mle", k=5), tabs, pts)

    def test_prefix_slicing_matches_shallow_tables(self, rng):
        pts = rng.normal(size=(25, 3))
        ids = np.arange(25, dtype=np.int64)
        deep = neighbor_tables(dist_block(pts, pts), ids, ids, 10)
        shallow = neighbor_tables(dist_block(pts, pts), ids, ids, 4)
        cfg = EstimatorConfig(method="mle", k=4)
        a, af = estimates_from_tables(cfg, deep, pts)
        b, bf = estimates_from_tables(cfg, shallow, pts)
        assert a.tobytes() == b.tobytes()
        np.testing.assert_array_equal(af, bf)


class TestDuplicatePoints:
    """A point and its exact copy have no defined estimate: divergent, not an abort."""

    base = np.random.default_rng(5).normal(size=(60, 3))
    cloud = PointCloud.single_manifold(np.vstack([base, base[7]]), 3.0)
    copies = np.array([7, 60])
    cap = 30.0  # default clamp: 10 x the ambient dimension

    @pytest.mark.parametrize("method", ["mle", "mada", "tle"])
    def test_copies_flagged_and_other_rows_untouched(self, method):
        pts = self.cloud.points
        ids = np.arange(self.cloud.n, dtype=np.int64)
        tabs = neighbor_tables(dist_block(pts, pts), ids, ids, 6)
        est = EstimatorConfig(method=method, k=6)
        values, flags = estimates_from_tables(est, tabs, pts)
        assert np.all(values[self.copies] == self.cap)
        assert np.all(flags[self.copies])
        rest = np.setdiff1d(ids, self.copies)
        d = tabs.excl_dist[rest]
        if method == "tle":
            raw = tle_values(d, pts[tabs.excl_idx[rest]], pts[rest])
        else:
            raw = batch_values(method, d)
        want, want_flags = clamp_values(*raw, self.cap)
        assert values[rest].tobytes() == want.tobytes()
        np.testing.assert_array_equal(flags[rest], want_flags)

    @pytest.mark.parametrize("policy", DIVERGENCE_POLICIES)
    @pytest.mark.parametrize("variant", ["baseline", "bagged", "bagged_pre_post"])
    def test_every_pipeline_finishes(self, variant, policy):
        est = EstimatorConfig(method="mle", k=5)
        cfg = None if variant == "baseline" else BaggingConfig(bags=5, rate=0.5, seed=1)
        values, flags = variant_estimates(self.cloud, variant, est, cfg, policy=policy)
        assert values.shape == flags.shape == (self.cloud.n,)
        assert np.all(np.isfinite(values)) and np.all(values <= self.cap)
        if variant == "baseline":
            np.testing.assert_array_equal(np.nonzero(flags)[0], self.copies)
        if variant == "bagged" and policy == "clamp":
            assert np.all(flags[self.copies])


class TestBaggedEstimateAll:
    """The ``bagged`` variant: per-bag estimates averaged over the ensemble."""

    cloud = generate(GeneratorSpec("M5b_Helix2d", n=200, seed=0))

    def test_output_shape_and_flags(self):
        est = EstimatorConfig(method="mle", k=6)
        values, flags = variant_estimates(self.cloud, "bagged", est,
                                          BaggingConfig(bags=5, rate=0.3, seed=1))
        assert values.shape == flags.shape == (200,)
        assert flags.dtype == bool
        assert np.all(np.isfinite(values))

    def test_full_rate_single_bag_equals_baseline_bitwise(self):
        est = EstimatorConfig(method="mada", k=7)
        base, _ = variant_estimates(self.cloud, "baseline", est)
        out, _ = variant_estimates(self.cloud, "bagged", est,
                                   BaggingConfig(bags=1, rate=1.0, seed=5))
        assert out.tobytes() == base.tobytes()

    def test_full_rate_many_bags_equals_baseline_bitwise(self):
        # Every full-rate bag repeats the same estimate; the anchored mean
        # must return it exactly, independent of B.
        est = EstimatorConfig(method="mle", k=6)
        base, _ = variant_estimates(self.cloud, "baseline", est)
        out, _ = variant_estimates(self.cloud, "bagged", est,
                                   BaggingConfig(bags=8, rate=1.0, seed=5))
        assert out.tobytes() == base.tobytes()

    def test_thread_count_does_not_change_bytes(self):
        est = EstimatorConfig(method="mle", k=5)
        cfg = BaggingConfig(bags=6, rate=0.4, seed=2)
        a = variant_estimates(self.cloud, "bagged", est, cfg, threads=1)
        b = variant_estimates(self.cloud, "bagged", est, cfg, threads=4)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    def test_k_over_bag_capacity_raises_actionable_error(self):
        est = EstimatorConfig(method="mle", k=10)
        with pytest.raises(LocalityCapacityError) as exc:
            variant_estimates(self.cloud, "bagged", est, BaggingConfig(bags=2, rate=0.05, seed=0))
        msg = str(exc.value)
        assert "r" in msg and "k" in msg  # names the knobs that fix it

    def test_member_vs_nonmember_handling(self):
        # Queries inside a bag see m-1 candidates, outside see m; both paths
        # must fill every row.
        est = EstimatorConfig(method="mle", k=3)
        cfg = BaggingConfig(bags=2, rate=0.1, seed=3)
        bag = draw_bags(self.cloud.n, cfg)[0]
        points = self.cloud.points
        qids = np.arange(self.cloud.n, dtype=np.int64)
        tables = bag_tables(dist_block(points, points[bag]), bag, qids, 3)
        values, _ = estimates_from_tables(est, tables, points)
        member = np.zeros(self.cloud.n, dtype=bool)
        member[bag] = True
        assert np.all(np.isfinite(values[member]))
        assert np.all(np.isfinite(values[~member]))
        assert not np.any(tables.excl_idx[member] == qids[member, None])
        np.testing.assert_array_equal(tables.excl_idx[~member], tables.incl_idx[~member])

    def test_policy_changes_only_flagged_rows(self, rng):
        # A square lattice gives equidistant neighborhoods, so divergent bags.
        xs, ys = np.meshgrid(np.arange(6.0), np.arange(6.0))
        lattice = np.column_stack([xs.ravel(), ys.ravel()])
        pts = np.vstack([rng.normal(size=(60, 2)) + 20.0, lattice])
        cloud = PointCloud.single_manifold(pts, 2.0)
        est = EstimatorConfig(method="mle", k=4, clamp_max=50.0)
        cfg = BaggingConfig(bags=6, rate=0.5, seed=11)
        a, a_flags = variant_estimates(cloud, "bagged", est, cfg, policy="clamp")
        b, _ = variant_estimates(cloud, "bagged", est, cfg, policy="skip")
        clean = ~a_flags  # the clamp policy flags every row with a flagged bag
        assert a_flags.any() and clean.any()
        np.testing.assert_array_equal(a[clean], b[clean])
        assert not np.array_equal(a[~clean], b[~clean])
