"""Neighborhood smoothing and the six named estimation pipelines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidbag.bagging import (
    AnchoredMean,
    BaggingConfig,
    LocalityCapacityError,
    bag_tables,
    draw_bags,
    estimates_from_tables,
)
from lidbag.datasets import GeneratorSpec, generate
from lidbag.estimators import EstimatorConfig
from lidbag.geometry import PointCloud, dist_block
from lidbag.smoothing import (
    VARIANTS,
    SmoothingCapacityError,
    SmoothingConfig,
    SmoothingError,
    gather_mean,
    smooth,
    variant_estimates,
)


def reference(cloud, variant, est, bag_cfg=None, k_s=None, policy="clamp", trace=None):
    """Loop-based reference for all six variants: each bag from scratch.

    Per bag: dist_block -> bag_tables -> estimates_from_tables -> in-bag
    gather_mean (pre) -> AnchoredMean; then a full-cloud smooth (post).  The
    unbagged variants are one bag holding the whole cloud.  ``trace``, if
    given, receives (bag, raw estimates, pre-smoothing neighborhoods) per bag.
    """
    points, n = cloud.points, cloud.n
    ids = np.arange(n, dtype=np.int64)
    k_s = est.k if k_s is None else k_s
    pre = variant in ("bagged_pre", "bagged_pre_post")
    post = variant in ("smoothed", "bagged_post", "bagged_pre_post")
    acc = AnchoredMean(n)
    for bag in [ids] if bag_cfg is None else draw_bags(n, bag_cfg):
        tables = bag_tables(dist_block(points, points[bag]), bag, ids, est.k,
                            k_s if pre else None)
        values, flags = estimates_from_tables(est, tables, points)
        hood = tables.incl_idx[:, :k_s] if pre else None
        if trace is not None:
            trace.append((bag, values, hood))
        if pre:
            values, flags = gather_mean(values, hood, flags)
        acc.add(values, flags)
    values, flags = acc.result(policy)
    if post:
        values, flags = smooth(values, cloud, points, SmoothingConfig(k_s), flags=flags)
    return values, flags


def lattice_cloud(seed):
    """A square lattice (equidistant neighbors, so divergent MLE estimates)
    next to a Gaussian blob."""
    xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
    blob = np.random.default_rng(seed).normal(size=(140, 2)) + 20.0
    return PointCloud.single_manifold(np.vstack([np.column_stack([xs.ravel(), ys.ravel()]), blob]), 2.0)


class TestEngineMatchesReference:
    cloud = lattice_cloud(4)
    est = EstimatorConfig(method="mle", k=4, clamp_max=30.0)

    def test_reference_sees_divergent_estimates(self):
        _, flags = reference(self.cloud, "baseline", self.est)
        assert flags.any() and not flags.all()

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("policy", ["clamp", "skip"])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_bitwise_equal_on_both_sides_of_rb_one(self, variant, policy, threads):
        # B=4: rate 0.1 gives r*B = 0.4 (per-bag distance columns), rate 0.5
        # gives r*B = 2 (columns gathered from one shared block).
        configs = [None]
        if variant.startswith("bagged"):
            configs = [BaggingConfig(bags=4, rate=rate, seed=3) for rate in (0.1, 0.5)]
        for bag_cfg in configs:
            for k_s in (None, 9):
                s_cfg = None if k_s is None else SmoothingConfig(k_s)
                got = variant_estimates(self.cloud, variant, self.est, bag_cfg, s_cfg,
                                        policy=policy, threads=threads)
                want = reference(self.cloud, variant, self.est, bag_cfg, k_s, policy)
                assert got[0].tobytes() == want[0].tobytes(), (bag_cfg, k_s)
                assert got[1].tobytes() == want[1].tobytes(), (bag_cfg, k_s)

    @pytest.mark.parametrize("method", ["mada", "tle"])
    def test_other_estimators(self, method):
        est = EstimatorConfig(method=method, k=6)
        bag_cfg = BaggingConfig(bags=3, rate=0.2, seed=1)
        got = variant_estimates(self.cloud, "bagged_pre_post", est, bag_cfg, threads=2)
        want = reference(self.cloud, "bagged_pre_post", est, bag_cfg)
        assert got[0].tobytes() == want[0].tobytes()


class TestSmoothingConfig:
    def test_registries(self):
        assert VARIANTS == (
            "baseline",
            "smoothed",
            "bagged",
            "bagged_post",
            "bagged_pre",
            "bagged_pre_post",
        )

    def test_validation(self):
        with pytest.raises(SmoothingError):
            SmoothingConfig(k_s=0)


class TestGatherMean:
    def test_hand_example(self):
        values = np.array([1.0, 2.0, 4.0])
        idx = np.array([[0, 1], [1, 2], [0, 2]])
        means, flags = gather_mean(values, idx)
        np.testing.assert_allclose(means, [1.5, 3.0, 2.5])
        assert not flags.any()

    def test_flags_spread_by_any(self):
        values = np.array([1.0, 2.0, 4.0])
        idx = np.array([[0, 1], [1, 2]])
        flags = np.array([True, False, False])
        _, out = gather_mean(values, idx, flags)
        np.testing.assert_array_equal(out, [True, False])


class TestSmooth:
    def test_hand_trace(self):
        # Reference on a line with estimates 1,2,3,4; query at 0.1 with
        # k_s=2 averages the two nearest (points 0 and 1) -> 1.5.
        ref = np.array([[0.0], [1.0], [2.0], [3.0]])
        est = np.array([1.0, 2.0, 3.0, 4.0])
        out = smooth(est, ref, np.array([[0.1]]), SmoothingConfig(k_s=2))
        assert out[0] == 1.5

    def test_member_query_includes_own_estimate(self):
        ref = np.array([[0.0], [1.0], [5.0]])
        est = np.array([10.0, 20.0, 90.0])
        out = smooth(est, ref, ref, SmoothingConfig(k_s=2))
        np.testing.assert_allclose(out, [15.0, 15.0, 55.0])

    def test_constant_estimates_stay_constant(self, rng):
        ref = rng.normal(size=(30, 3))
        est = np.full(30, 7.25)
        out = smooth(est, ref, rng.normal(size=(10, 3)), SmoothingConfig(k_s=5))
        np.testing.assert_array_equal(out, np.full(10, 7.25))

    def test_k_s_equal_to_reference_gives_global_mean(self, rng):
        ref = rng.normal(size=(12, 2))
        est = rng.uniform(1.0, 5.0, size=12)
        out = smooth(est, ref, rng.normal(size=(4, 2)), SmoothingConfig(k_s=12))
        np.testing.assert_allclose(out, est.mean(), rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 15))
    def test_range_property(self, seed, k_s):
        r = np.random.default_rng(seed)
        m = int(r.integers(k_s, k_s + 20))
        ref = r.normal(size=(m, 2))
        est = r.uniform(-3.0, 9.0, size=m)
        out = smooth(est, ref, r.normal(size=(6, 2)), SmoothingConfig(k_s=k_s))
        assert np.all(out >= est.min() - 1e-12)
        assert np.all(out <= est.max() + 1e-12)

    def test_capacity_and_alignment_errors(self, rng):
        ref = rng.normal(size=(5, 2))
        with pytest.raises(SmoothingCapacityError):
            smooth(np.zeros(5), ref, ref, SmoothingConfig(k_s=6))
        with pytest.raises(SmoothingError):
            smooth(np.zeros(4), ref, ref, SmoothingConfig(k_s=2))

    def test_flags_round_trip(self, rng):
        ref = rng.normal(size=(10, 2))
        est = rng.uniform(size=10)
        flags = np.zeros(10, dtype=bool)
        flags[3] = True
        out, oflags = smooth(est, ref, ref, SmoothingConfig(k_s=2), flags=flags)
        assert oflags.dtype == bool
        assert oflags.any()  # at least point 3's own neighborhood is tainted


class TestPipelines:
    cloud = generate(GeneratorSpec("M13a_Scurve", n=260, seed=0))
    est = EstimatorConfig(method="mle", k=8)

    def test_baseline_shapes(self):
        values, flags = variant_estimates(self.cloud, "baseline", self.est)
        assert values.shape == flags.shape == (260,)
        assert np.all(np.isfinite(values))

    def test_baseline_smooth_with_ks1_is_identity(self):
        base, bflags = variant_estimates(self.cloud, "baseline", self.est)
        sm, sflags = variant_estimates(self.cloud, "smoothed", self.est,
                                       s_cfg=SmoothingConfig(k_s=1))
        # k_s=1 neighborhoods contain only the query itself
        assert sm.tobytes() == base.tobytes()
        np.testing.assert_array_equal(sflags, bflags)

    def test_post_smooth_with_ks1_matches_plain_bagging(self):
        bag = BaggingConfig(bags=4, rate=0.5, seed=2)
        plain, _ = variant_estimates(self.cloud, "bagged", self.est, bag)
        sm, _ = variant_estimates(self.cloud, "bagged_post", self.est, bag, SmoothingConfig(k_s=1))
        assert sm.tobytes() == plain.tobytes()

    def test_pre_smooth_traces_in_bag_neighborhoods(self):
        bag = BaggingConfig(bags=3, rate=0.4, seed=7)
        trace = []
        reference(self.cloud, "bagged_pre", self.est, bag, k_s=5, trace=trace)
        assert len(trace) == 3
        for members, _, hood in trace:
            assert hood.shape == (260, 5)
            # pre-smoothing may only ever average over the bag's own points
            assert np.all(np.isin(hood, members))
        # With k_s = m every query averages the whole bag, so one bag's
        # pre-smoothed values all equal the mean of its members' estimates.
        one = BaggingConfig(bags=1, rate=0.4, seed=7)
        m = one.bag_size(260)
        values, _ = variant_estimates(self.cloud, "bagged_pre", self.est, one, SmoothingConfig(k_s=m))
        members, raw, _ = trace[0]
        np.testing.assert_allclose(values, raw[members].mean(), rtol=1e-12)

    def test_pre_smooth_ks1_in_bag_neighborhood_is_nearest_member(self):
        # k_s=1 pre-smoothing replaces each query's estimate by that of its
        # nearest in-bag point (itself when a member), then aggregates.
        bag = BaggingConfig(bags=2, rate=0.5, seed=9)
        trace = []
        reference(self.cloud, "bagged_pre", self.est, bag, k_s=1, trace=trace)
        values, _ = variant_estimates(self.cloud, "bagged_pre", self.est, bag, SmoothingConfig(k_s=1))
        manual = np.empty((260, 2))
        for i, (members, raw, hood) in enumerate(trace):
            member_set = set(members.tolist())
            for q in range(260):
                if q in member_set:
                    assert hood[q, 0] == q  # own estimate survives
                manual[q, i] = raw[hood[q, 0]]
        np.testing.assert_allclose(values, manual.mean(axis=1), rtol=1e-12)

    def test_pre_post_composes_both_stages(self):
        bag = BaggingConfig(bags=3, rate=0.5, seed=4)
        cfg = SmoothingConfig(k_s=6)
        values, flags = variant_estimates(self.cloud, "bagged_pre_post", self.est, bag, cfg)
        assert values.shape == (260,)
        pre_only, pre_flags = variant_estimates(self.cloud, "bagged_pre", self.est, bag, cfg)
        resmoothed = smooth(pre_only, self.cloud, self.cloud.points, cfg, flags=pre_flags)
        assert values.tobytes() == resmoothed[0].tobytes()
        np.testing.assert_array_equal(flags, resmoothed[1])

    def test_capacity_guards(self):
        tiny = BaggingConfig(bags=2, rate=0.05, seed=0)  # m = 13
        with pytest.raises(LocalityCapacityError):
            variant_estimates(self.cloud, "bagged_pre", EstimatorConfig(method="mle", k=13),
                              tiny, SmoothingConfig(k_s=2))
        with pytest.raises(SmoothingCapacityError):
            variant_estimates(self.cloud, "bagged_pre", EstimatorConfig(method="mle", k=5),
                              tiny, SmoothingConfig(k_s=14))
        with pytest.raises(SmoothingCapacityError):
            variant_estimates(self.cloud, "bagged_post", EstimatorConfig(method="mle", k=5),
                              tiny, SmoothingConfig(k_s=261))
        with pytest.raises(LocalityCapacityError):
            variant_estimates(self.cloud, "baseline", EstimatorConfig(method="mle", k=260))


class TestVariantDispatch:
    cloud = generate(GeneratorSpec("M7_Roll", n=220, seed=1))
    est = EstimatorConfig(method="mle", k=7)
    bag = BaggingConfig(bags=3, rate=0.5, seed=0)

    def test_every_variant_runs(self):
        for variant in VARIANTS:
            needs_bag = variant.startswith("bagged")
            values, flags = variant_estimates(
                self.cloud, variant, self.est,
                bag_cfg=self.bag if needs_bag else None,
            )
            assert values.shape == (220,)
            assert flags.dtype == bool

    def test_matches_direct_calls(self):
        a, _ = variant_estimates(self.cloud, "baseline", self.est)
        b, _ = reference(self.cloud, "baseline", self.est)
        assert a.tobytes() == b.tobytes()
        c, _ = variant_estimates(self.cloud, "bagged_pre", self.est, bag_cfg=self.bag)
        d, _ = reference(self.cloud, "bagged_pre", self.est, self.bag, k_s=7)
        assert c.tobytes() == d.tobytes()

    def test_unknown_variant(self):
        with pytest.raises(SmoothingError):
            variant_estimates(self.cloud, "tripled", self.est)

    def test_bag_config_presence_enforced(self):
        with pytest.raises(SmoothingError):
            variant_estimates(self.cloud, "bagged", self.est)  # missing
        with pytest.raises(SmoothingError):
            variant_estimates(self.cloud, "baseline", self.est, bag_cfg=self.bag)  # extra

    def test_smoothing_config_ignored_without_smoothing(self):
        # `lidbag estimate --k-s` on a variant that does not smooth.
        for variant, bag in (("baseline", None), ("bagged", self.bag)):
            plain = variant_estimates(self.cloud, variant, self.est, bag)
            wide = variant_estimates(self.cloud, variant, self.est, bag, SmoothingConfig(k_s=500))
            assert plain[0].tobytes() == wide[0].tobytes()

    def test_default_smoothing_k_is_estimator_k(self):
        a, _ = variant_estimates(self.cloud, "smoothed", self.est)
        b, _ = variant_estimates(self.cloud, "smoothed", self.est, s_cfg=SmoothingConfig(k_s=7))
        assert a.tobytes() == b.tobytes()
