"""Estimator kernels: closed-form values, invariances, convergence, clamping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidbag.estimators import (
    CLAMP_DIM_FACTOR,
    METHODS,
    MLE_NORMALIZATIONS,
    EstimatorConfig,
    EstimatorError,
    ZeroDistanceError,
    batch_values,
    clamp_values,
    mada_values,
    mle_values,
    tle_values,
)
from lidbag.bagging import estimates_from_tables
from lidbag.geometry import PointCloud, dist_block, neighbor_tables
from lidbag.smoothing import variant_estimates


def ball_cloud(n, d, seed, *, embed=0):
    """Uniform sample from the unit d-ball, optionally zero-padded."""
    r = np.random.default_rng(seed)
    x = r.normal(size=(n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= r.uniform(size=(n, 1)) ** (1.0 / d)
    if embed:
        x = np.hstack([x, np.zeros((n, embed))])
    return x


def neighborhoods(pts, k, rows=None):
    """Self-excluded neighbor ids and sorted distances of ``rows`` in ``pts``."""
    ids = np.arange(len(pts), dtype=np.int64)
    rows = ids if rows is None else np.asarray(rows, dtype=np.int64)
    tabs = neighbor_tables(dist_block(pts[rows], pts), ids, rows, k)
    return tabs.excl_idx, tabs.excl_dist


def tle_at(pts, q, k):
    """TLE estimate of point ``q`` from its k nearest other points."""
    idx, dist = neighborhoods(pts, k, [q])
    values, _ = tle_values(dist, pts[idx], pts[[q]])
    return values[0]


class TestMleValues:
    def test_two_point_closed_form(self):
        values, div = mle_values(np.array([0.5, 1.0]))
        assert values[0] == 1.0 / math.log(2.0)
        assert not div[0]

    def test_three_point_closed_form(self):
        values, _ = mle_values(np.array([0.25, 0.5, 1.0]))
        assert values[0] == pytest.approx(2.0 / (3.0 * math.log(2.0)), rel=1e-14)

    def test_k_normalization_scales_by_k_over_km1(self):
        d = np.array([0.25, 0.5, 1.0])
        a, _ = mle_values(d, "k_minus_1")
        b, _ = mle_values(d, "k")
        assert b[0] == pytest.approx(a[0] * 3.0 / 2.0, rel=1e-14)

    def test_equal_radii_divergent(self):
        values, div = mle_values(np.array([1.0, 1.0, 1.0]))
        assert div[0]
        assert values[0] == np.inf

    def test_matrix_rows_independent(self, rng):
        d = np.sort(rng.uniform(0.1, 2.0, size=(8, 5)), axis=1)
        together, _ = mle_values(d)
        for i in range(8):
            single, _ = mle_values(d[i])
            assert together[i] == single[0]

    def test_rejects_zero_distance(self):
        with pytest.raises(ZeroDistanceError):
            mle_values(np.array([0.0, 1.0]))

    def test_rejects_k1_and_bad_normalization(self):
        with pytest.raises(EstimatorError):
            mle_values(np.array([1.0]))
        with pytest.raises(EstimatorError):
            mle_values(np.array([0.5, 1.0]), "median")

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.05, 10.0), min_size=2, max_size=12),
        st.floats(1e-3, 1e3),
    )
    def test_scale_invariance(self, raw, c):
        d = np.sort(np.asarray(raw))
        base, bdiv = mle_values(d)
        scaled, sdiv = mle_values(c * d)
        assert bool(bdiv[0]) == bool(sdiv[0])
        if not bdiv[0]:
            assert scaled[0] == pytest.approx(base[0], rel=1e-9)

    def test_shrinking_inner_radii_lowers_estimate(self):
        d = np.array([0.3, 0.6, 1.0])
        hi, _ = mle_values(d)
        lo, _ = mle_values(np.array([0.1, 0.2, 1.0]))
        assert lo[0] < hi[0]


class TestMadaValues:
    def test_two_point_closed_form(self):
        values, _ = mada_values(np.array([1.0, 2.0]))
        assert values[0] == 1.0

    def test_five_point_uses_middle_radius(self):
        # k=5 reads r_3; r_5/r_3 = 4 -> ln2/ln4 = 1/2.
        values, _ = mada_values(np.array([0.1, 0.2, 0.5, 1.0, 2.0]))
        assert values[0] == pytest.approx(0.5, rel=1e-14)

    def test_equal_scales_divergent(self):
        values, div = mada_values(np.array([0.5, 1.0, 1.0]))
        assert div[0]
        assert values[0] == np.inf

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.05, 10.0), min_size=2, max_size=12),
        st.floats(1e-3, 1e3),
    )
    def test_scale_invariance(self, raw, c):
        d = np.sort(np.asarray(raw))
        base, bdiv = mada_values(d)
        scaled, sdiv = mada_values(c * d)
        assert bool(bdiv[0]) == bool(sdiv[0])
        if not bdiv[0]:
            assert scaled[0] == pytest.approx(base[0], rel=1e-9)


class TestTleValues:
    def test_one_dimensional_line_near_one(self):
        # Collinear neighborhoods: the tight-locality kernel should report ~1.
        pts = np.linspace(0.0, 1.0, 80)[:, None]
        assert 0.6 < tle_at(pts, 40, 10) < 1.6

    def test_symmetric_equidistant_divergent(self):
        # Query at the origin, neighbors forming a perfectly symmetric cross:
        # every paired measurement cancels, so no information survives.
        q = np.zeros(2)
        nb = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        d = np.ones(4)
        values, div = tle_values(d, nb[None, :, :], q[None, :])
        assert div[0]

    def test_lower_spread_than_mle_on_cube(self):
        r = np.random.default_rng(5)
        pts = r.uniform(size=(800, 20))
        idx, D = neighborhoods(pts, 20, range(120))
        mle, _ = mle_values(D)
        tle, tdiv = tle_values(D, pts[idx], pts[:120])
        assert not tdiv.any()
        assert np.var(tle) < np.var(mle)

    def test_scale_invariance(self):
        r = np.random.default_rng(11)
        pts = r.normal(size=(60, 3))
        assert tle_at(37.0 * pts, 5, 8) == pytest.approx(tle_at(pts, 5, 8), rel=1e-9)

    def test_shape_validation(self):
        with pytest.raises(EstimatorError):
            tle_values(np.ones((2, 3)), np.zeros((2, 4, 2)), np.zeros((2, 2)))


class TestClamping:
    def test_clamp_caps_and_flags(self):
        v, d = clamp_values([1.0, 50.0, np.inf], [False, False, True], 10.0)
        np.testing.assert_array_equal(v, [1.0, 10.0, 10.0])
        np.testing.assert_array_equal(d, [False, True, True])

    def test_nan_is_clamped(self):
        v, d = clamp_values([np.nan], [False], 7.0)
        assert v[0] == 7.0 and d[0]

    def test_config_resolves_default_clamp_from_dim(self):
        cfg = EstimatorConfig(method="mle", k=4)
        assert cfg.resolve_clamp(6) == CLAMP_DIM_FACTOR * 6
        assert EstimatorConfig(method="mle", k=4, clamp_max=3.0).resolve_clamp(6) == 3.0

    def test_divergent_neighborhood_clamps_at_estimate_level(self):
        # The middle point's two neighbors are equidistant: MLE diverges.
        pts = np.array([[-1.0], [0.0], [1.0], [5.0]])
        ids = np.arange(4, dtype=np.int64)
        tabs = neighbor_tables(dist_block(pts, pts), ids, ids, 2)
        cfg = EstimatorConfig(method="mle", k=2, clamp_max=20.0)
        values, divergent = estimates_from_tables(cfg, tabs, pts)
        assert divergent[1]
        assert values[1] == 20.0
        assert not divergent[3] and values[3] < 20.0


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(EstimatorError):
            EstimatorConfig(method="twonn", k=5)

    def test_k_too_small(self):
        with pytest.raises(EstimatorError):
            EstimatorConfig(method="mada", k=1)

    def test_normalization_ignored_off_mle_but_still_validated(self):
        # Non-MLE methods accept (and ignore) the knob so one sweep-wide
        # setting can be threaded through uniformly; junk is still rejected.
        cfg = EstimatorConfig(method="mada", k=5, mle_normalization="k")
        assert cfg.mle_normalization == "k"
        with pytest.raises(EstimatorError):
            EstimatorConfig(method="mada", k=5, mle_normalization="junk")

    def test_methods_registry(self):
        assert METHODS == ("mle", "mada", "tle")
        assert MLE_NORMALIZATIONS == ("k_minus_1", "k")


class TestBatchDispatch:
    def test_dispatch_matches_kernels(self, rng):
        d = np.sort(rng.uniform(0.1, 1.0, size=(4, 6)), axis=1)
        np.testing.assert_array_equal(batch_values("mle", d)[0], mle_values(d)[0])
        np.testing.assert_array_equal(batch_values("mada", d)[0], mada_values(d)[0])

    def test_tle_requires_coordinates(self):
        with pytest.raises(EstimatorError):
            batch_values("tle", np.ones((1, 3)))

    def test_unknown_method(self):
        with pytest.raises(EstimatorError):
            batch_values("lpca", np.ones((1, 3)))


class TestEstimateAt:
    """Single queries through the batch path."""

    line = np.array([[0.0], [1.0], [3.0], [6.0], [10.0]])

    def test_member_query_by_id_excludes_self(self):
        _, dist = neighborhoods(self.line, 2, [1])
        values, _ = mle_values(dist)
        # neighbors of point 1 are 0 (d=1) and 2 (d=2)
        assert values[0] == 1.0 / math.log(2.0)

    def test_member_id_outside_reference_uses_coordinates(self):
        # Point 1 queried against the subset {0, 2, 3, 4} it is not in: by id
        # it keeps every candidate, exactly as a coordinate query does.
        sub = np.array([0, 2, 3, 4])
        by_id = neighbor_tables(dist_block(self.line, self.line[sub]), sub,
                                np.arange(5), 2)
        by_coords = neighbor_tables(dist_block(self.line[1], self.line[sub]), sub, None, 2)
        assert by_id.excl_dist[1].tobytes() == by_coords.excl_dist[0].tobytes()
        cfg = EstimatorConfig(method="mle", k=2)
        values, _ = estimates_from_tables(cfg, by_id, self.line)
        assert values[1] == mle_values(by_coords.excl_dist)[0][0]

    def test_point_cloud_input_and_tle_path(self):
        cloud = PointCloud.single_manifold(ball_cloud(120, 2, 3), 2.0)
        cfg = EstimatorConfig(method="tle", k=10)
        values, _ = variant_estimates(cloud, "baseline", cfg)
        assert values.shape == (120,)
        assert 0.5 < values[7] <= cfg.resolve_clamp(cloud.dim)


class TestConvergence:
    """Monte Carlo sanity: estimators land near truth on easy manifolds."""

    def test_mle_on_segment_near_one(self):
        means = []
        for seed in range(10):
            r = np.random.default_rng(seed)
            pts = r.uniform(size=(400, 1))
            _, D = neighborhoods(pts, 10, range(150))
            values, _ = mle_values(D)
            means.append(values.mean())
        assert np.mean(means) == pytest.approx(1.0, abs=0.15)

    def test_mle_on_disk_near_two(self):
        pts = ball_cloud(2000, 2, 7)
        _, D = neighborhoods(pts, 20, range(300))
        values, _ = mle_values(D)
        assert values.mean() == pytest.approx(2.0, abs=0.3)

    def test_mada_on_plane_near_two(self):
        r = np.random.default_rng(13)
        pts = np.hstack([r.uniform(size=(2500, 2)), np.zeros((2500, 1))])
        _, D = neighborhoods(pts, 20, range(400))
        values, div = mada_values(D)
        assert np.median(values[~div]) == pytest.approx(2.0, abs=0.3)

    def test_tle_on_ball_near_three(self):
        pts = ball_cloud(2500, 3, 21)
        idx, D = neighborhoods(pts, 20, range(300))
        values, div = tle_values(D, pts[idx], pts[:300])
        assert values[~div].mean() == pytest.approx(3.0, abs=0.45)
