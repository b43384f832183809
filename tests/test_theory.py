"""Monte Carlo corroboration of the overlap/variance/covariance formulas."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from lidbag import theory
from lidbag.theory import (
    ConditionalCovariance,
    OverlapExperiment,
    TheoryError,
    VarianceExperiment,
    run_conditional_covariance,
    run_overlap,
    run_variance,
)


class TestOverlap:
    def test_full_bags_always_overlap_completely(self):
        out = run_overlap(n=7, m=7, trials=200, seed=0)
        assert out.histogram[7] == 200
        assert out.histogram[:7].sum() == 0
        assert out.mean_overlap == 7.0
        assert out.chi2_pvalue == 1.0  # single possible outcome, 0 dof

    def test_singleton_bags_collide_at_rate_one_over_n(self):
        out = run_overlap(n=10, m=1, trials=40_000, seed=1)
        collisions = out.histogram[1] / out.trials
        # binomial(40000, 0.1): 3 sigma is ~0.0045
        assert collisions == pytest.approx(0.1, abs=0.005)

    def test_mean_tracks_m_squared_over_n(self):
        out = run_overlap(n=60, m=20, trials=30_000, seed=2)
        assert isinstance(out, OverlapExperiment)
        assert out.expected_mean == pytest.approx(400.0 / 60.0)
        assert abs(out.mean_overlap - out.expected_mean) < 3.5 * out.mean_se

    def test_histogram_support_and_mass(self):
        out = run_overlap(n=25, m=10, trials=5_000, seed=3)
        assert out.histogram.shape == (11,)
        assert out.histogram.sum() == 5_000
        # overlap can never be below 2m - n
        low = max(0, 2 * 10 - 25)
        assert out.histogram[:low].sum() == 0
        assert out.pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_pvalue_healthy_on_null(self):
        # the test statistic is computed under its own null: p should not be
        # microscopically small for a correctly drawn sample
        out = run_overlap(n=100, m=10, trials=20_000, seed=4)
        assert out.chi2_pvalue > 1e-4

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 1000])
    def test_law_is_scipy_stats_bit_for_bit(self, n):
        # run_overlap calls the scipy.special ufuncs behind scipy.stats'
        # hypergeom.pmf and chi2.sf; a scipy release that moves or changes
        # them fails here by name.
        import scipy
        from scipy import stats

        for m in sorted({m for m in (1, n // 2, n - 1, n) if 1 <= m <= n}):
            where = f"n={n}, m={m} (scipy {scipy.__version__})"
            try:
                out = run_overlap(n, m, trials=200, seed=n + m)
            except ImportError as exc:
                pytest.fail(f"{exc} at {where}")
            want = stats.hypergeom(n, m, m).pmf(np.arange(m + 1))
            assert out.pmf.tobytes() == want.tobytes(), f"pmf differs at {where}"
            if out.chi2_dof:
                want_p = float(stats.chi2.sf(out.chi2_stat, out.chi2_dof))
                assert out.chi2_pvalue == want_p, f"p-value differs at {where}"
            else:
                assert out.chi2_pvalue == 1.0, where

    def test_validation(self):
        with pytest.raises(TheoryError):
            run_overlap(n=5, m=6, trials=10)
        with pytest.raises(TheoryError):
            run_overlap(n=5, m=2, trials=0)


class TestVariance:
    def test_single_bag_equality_at_b1(self):
        # With B=1 the aggregate IS the first bag mean: equality is exact.
        out = run_variance(n=100, r=0.2, B=1, trials=2_000, seed=0)
        assert out.var_bagged == out.var_single

    def test_full_rate_bags_have_correlation_one(self):
        out = run_variance(n=50, r=1.0, B=4, trials=2_000, seed=1)
        assert out.m == 50
        assert out.rho == pytest.approx(1.0, abs=1e-9)
        # every bag mean is the same statistic: bagging changes nothing
        assert out.var_bagged == pytest.approx(out.var_single, rel=1e-9)

    def test_closed_form_tracks_measurement(self):
        out = run_variance(n=400, r=0.1, B=8, trials=12_000, seed=2)
        assert isinstance(out, VarianceExperiment)
        assert out.var_single == pytest.approx(out.var_single_analytic, rel=0.1)
        assert out.rho == pytest.approx(out.rho_analytic, abs=0.05)
        assert out.var_bagged == pytest.approx(out.closed_form_analytic, rel=0.1)

    def test_sandwich_holds(self):
        for B in (1, 3, 10):
            out = run_variance(n=200, r=0.25, B=B, trials=6_000, seed=3)
            assert out.sandwich_ok
            assert out.cov <= out.var_bagged <= out.var_single

    def test_bagging_buys_variance_between_cov_and_single(self):
        out = run_variance(n=300, r=0.1, B=20, trials=8_000, seed=4)
        # B large: variance should approach the covariance floor sigma^2/n
        floor = 1.0 / out.n
        assert out.var_bagged < 0.5 * out.var_single
        assert out.var_bagged > 0.8 * floor

    def test_determinism(self):
        a = run_variance(n=80, r=0.3, B=5, trials=1_500, seed=7)
        b = run_variance(n=80, r=0.3, B=5, trials=1_500, seed=7)
        assert a.var_bagged == b.var_bagged
        assert a.cov == b.cov

    def test_validation(self):
        with pytest.raises(TheoryError):
            run_variance(n=100, r=0.0, B=2)
        with pytest.raises(TheoryError):
            run_variance(n=100, r=0.5, B=0)
        with pytest.raises(TheoryError):
            run_variance(n=100, r=0.5, B=2, trials=1)


class TestConditionalCovariance:
    def test_gamma_linear_in_overlap(self):
        out = run_conditional_covariance(n=60, r=0.25, trials=60_000, seed=0)
        assert isinstance(out, ConditionalCovariance)
        assert out.m == 15
        for b in out.bins:
            assert b.gamma_analytic == pytest.approx(b.h / out.m**2)
            # measured curve within 4 standard errors of the line
            assert abs(b.gamma_hat - b.gamma_analytic) < 4.0 * b.se + 1e-12

    def test_monotone_up_to_noise(self):
        out = run_conditional_covariance(n=60, r=0.25, trials=60_000, seed=1)
        assert out.monotonicity_violations == 0

    def test_overall_cov_matches_phi_at_mean_overlap(self):
        out = run_conditional_covariance(n=50, r=0.3, trials=80_000, seed=2)
        assert out.phi_at_mean == pytest.approx(1.0 / out.n)
        assert out.overall_cov == pytest.approx(out.phi_at_mean, rel=0.2)

    def test_full_overlap_bin_equals_single_bag_variance(self):
        # r=1: H=m always, gamma(m) = sigma^2/m exactly in theory
        out = run_conditional_covariance(n=30, r=1.0, trials=30_000, seed=3)
        assert len(out.bins) == 1
        only = out.bins[0]
        assert only.h == 30
        assert only.gamma_analytic == pytest.approx(1.0 / 30.0)
        assert only.gamma_hat == pytest.approx(1.0 / 30.0, rel=0.1)

    def test_sparse_bins_skipped_not_extrapolated(self):
        # tiny trial count: extreme overlaps cannot fill their bins
        out = run_conditional_covariance(n=200, r=0.5, trials=300, seed=4, min_bin=30)
        assert out.skipped  # at least one overlap value was too rare
        for b in out.bins:
            assert b.count >= 30

    def test_validation(self):
        with pytest.raises(TheoryError):
            run_conditional_covariance(n=10, r=1.5)
        # one trial has no sample covariance: rejected, not reported as nan
        with pytest.raises(TheoryError, match="trials >= 2"):
            run_conditional_covariance(n=10, r=0.5, trials=1)


def _bits(value):
    """A record reduced to comparable bytes: nan equals nan, -0.0 is not 0.0."""
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _bits(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return value


# (experiment, chunk cells or None for the module's own): the shrunk
# blocks of 37 rows let a cheap call span three of them (37, 37, 26 trials);
# the module's own block of 4000 rows holds all 301 trials at n = 1000.
_CHUNK_CASES = {
    "overlap": (lambda: run_overlap(n=60, m=13, trials=100, seed=5), 60 * 37),
    "overlap-full": (lambda: run_overlap(n=60, m=60, trials=100, seed=5), 60 * 37),
    "variance": (lambda: run_variance(n=60, r=0.2, B=3, trials=100, seed=5), 60 * 37),
    "variance-full": (lambda: run_variance(n=60, r=1.0, B=3, trials=100, seed=5), 60 * 37),
    "conditional": (lambda: run_conditional_covariance(n=60, r=0.4, trials=100, seed=5,
                                                       min_bin=3), 60 * 37),
    "conditional-full": (lambda: run_conditional_covariance(n=60, r=1.0, trials=100,
                                                            seed=5), 60 * 37),
    "variance-default-blocks": (lambda: run_variance(n=1000, r=0.1, B=2, trials=301,
                                                     seed=5), None),
    "conditional-default-blocks": (lambda: run_conditional_covariance(n=1000, r=0.1,
                                                                      trials=301, seed=5),
                                   None),
}


class TestRowChunks:
    @pytest.mark.parametrize("case", sorted(_CHUNK_CASES))
    def test_row_chunks_change_no_bit(self, case, monkeypatch):
        # A block drawn one row at a time, in chunks of a prime number of
        # cells (2003: 33 rows of 60, ragged against a 37-row block; 2 rows
        # of 1000, ragged against 301 trials), or whole (a chunk larger than
        # any block, as drawn before row chunking) must give the same record
        # as the default chunking, to the bit.
        run, chunk_cells = _CHUNK_CASES[case]
        if chunk_cells is not None:
            monkeypatch.setattr(theory, "_CHUNK_CELLS", chunk_cells)
        expected = _bits(run())
        assert expected == _bits(run())  # deterministic
        for row_cells in (1, 2003, 10 * theory._CHUNK_CELLS):
            monkeypatch.setattr(theory, "_ROW_CELLS", row_cells)
            assert _bits(run()) == expected, row_cells

    def test_row_chunks_tile_the_blocks(self, monkeypatch):
        monkeypatch.setattr(theory, "_CHUNK_CELLS", 60 * 37)
        monkeypatch.setattr(theory, "_ROW_CELLS", 2003)  # 33 rows of 60
        chunks = list(theory._row_chunks(60, 100, 0, [(0,), (1,)]))
        spans = [(rows.start, rows.stop) for rows, _, _ in chunks]
        assert spans == [(0, 33), (33, 37), (37, 70), (70, 74), (74, 100)]
        assert [b for _, b, _ in chunks] == [33, 4, 33, 4, 26]
        # one set of generators per block, continued by its later chunks
        gens = [g for _, _, g in chunks]
        assert gens[0] is gens[1] and gens[2] is gens[3]
        assert gens[1] is not gens[2] and gens[3] is not gens[4]

    @pytest.mark.parametrize("run", [
        lambda: run_variance(1000, 0.1, 10, 5000),
        lambda: run_conditional_covariance(1000, 0.1, 20_000),
    ], ids=["variance", "conditional"])
    def test_peak_memory_is_a_few_row_chunks(self, run):
        # Whole blocks of 4000 x 1000 draws peaked above 100 MiB here.
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak
