"""Monte Carlo checks of the variance/covariance theory behind subbagging.

Everything here uses the sample mean of i.i.d. scalars as the plug-in
statistic, because each theoretical quantity then has a closed form that
serves as an exact oracle:

* the overlap H of two independent size-m bags from n points is
  Hypergeometric(n, m, m) with mean m^2/n;
* two single-bag means have correlation rho_m = m/n and covariance
  sigma^2/n, and the B-bag aggregate has variance
  Var(theta_m) * (rho_m + (1 - rho_m)/B), sandwiched between the
  single-bag covariance and variance;
* conditioned on an overlap of h, the covariance of two bag means is
  gamma(h, m) = sigma^2 h / m^2, linear in h, with phi(x) = sigma^2 x / m
  at x = h/m.

These experiments corroborate the formulas numerically; they prove
nothing, and they say nothing about LID estimators themselves.

The trials are split into seeded blocks of about ``_CHUNK_CELLS`` draws,
one random stream per block and draw kind, so a result depends only on
its arguments.  Each block is drawn in row chunks of about ``_ROW_CELLS``
cells: a stream read in slices yields the same values, and every
statistic is computed row by row, so the chunk size bounds memory (a few
MiB per call) without changing a bit of any result.

:func:`run_overlap` evaluates the Hypergeometric pmf and the chi-square
tail with the two ``scipy.special`` ufuncs that ``scipy.stats`` itself
calls, clipped and placed on the support as ``scipy.stats`` does, so its
results equal ``hypergeom(n, m, m).pmf`` and ``chi2.sf`` bit for bit.
It loads their compiled module, ``scipy.special._ufuncs`` with the
compiled modules it imports (~4 MB, ~0.01 s), at its first call, without
the ``scipy.special`` package (~24 MB, ~0.3 s) or ``scipy.stats`` (~33 MB,
~0.7 s); the lab loads no other scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bagging import AnchoredMean
from .geometry import _scipy_extension

# Trials per seeded block are _CHUNK_CELLS // n: the block boundaries are
# part of every stream's seed, so changing this changes every result.
_CHUNK_CELLS = 4_000_000
# Cells drawn at once within a block; bounds memory only, results are the
# same for any value.
_ROW_CELLS = 1 << 16


class TheoryError(ValueError):
    """Invalid experiment configuration."""


def _validate(n: int, m: int, trials: int, min_trials: int = 1):
    if n < 1:
        raise TheoryError(f"need n >= 1, got {n}")
    if not 1 <= m <= n:
        raise TheoryError(f"need 1 <= m <= n, got m={m} with n={n}")
    if trials < min_trials:
        raise TheoryError(f"need trials >= {min_trials}, got {trials}")


def _bag_size(n: int, r: float, trials: int) -> int:
    """m = min(n, ceil(n r)) for a rate r in (0, 1], after checking the
    experiment's arguments; a covariance needs at least two trials."""
    if not 0.0 < r <= 1.0:
        raise TheoryError(f"need r in (0, 1], got {r}")
    m = min(n, math.ceil(n * r))
    _validate(n, m, trials, min_trials=2)
    return m


def _row_chunks(n: int, trials: int, seed: int, keys):
    """Walk the trials' seeded blocks in row chunks.

    Yields ``(rows, count, gens)`` for consecutive row slices of at most
    ``_ROW_CELLS // n`` rows (at least one) that never straddle a block.
    ``gens`` holds one generator per spawn-key prefix in ``keys``, seeded by
    the prefix and the block's first trial and shared by the block's chunks,
    so each chunk continues the streams where the previous one stopped.
    """
    block = max(1, min(trials, _CHUNK_CELLS // n))
    step = max(1, _ROW_CELLS // n)
    for done in range(0, trials, block):
        end = min(done + block, trials)
        gens = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(*key, done)))
                for key in keys]
        for lo in range(done, end, step):
            hi = min(lo + step, end)
            yield slice(lo, hi), hi - lo, gens


def _bag_rows(rng, rows: int, n: int, m: int) -> np.ndarray:
    """``rows`` independent size-m subsets of range(n), one per row."""
    if m == n:
        return np.broadcast_to(np.arange(n), (rows, n))
    return np.argpartition(rng.random((rows, n)), m - 1, axis=1)[:, :m]


def _mean_at(x: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """Per-row mean of ``x`` over the columns in ``sel``."""
    return np.take_along_axis(x, sel, axis=1).mean(axis=1)


def _overlap_counts(sel1: np.ndarray, sel2: np.ndarray, n: int) -> np.ndarray:
    member = np.zeros((sel1.shape[0], n), dtype=bool)
    np.put_along_axis(member, sel1, True, axis=1)
    return np.count_nonzero(np.take_along_axis(member, sel2, axis=1), axis=1)


@dataclass(frozen=True)
class OverlapExperiment:
    """Observed overlap histogram against the hypergeometric law."""

    n: int
    m: int
    trials: int
    seed: int
    histogram: np.ndarray  # counts of H = h for h in 0..m
    pmf: np.ndarray  # theoretical P(H = h) on the same support
    mean_overlap: float
    expected_mean: float  # m^2 / n
    mean_se: float
    chi2_stat: float
    chi2_dof: int
    chi2_pvalue: float

    def summary_lines(self):
        return [
            f"overlap of two size-{self.m} bags from n={self.n} over {self.trials} pairs",
            f"mean overlap {self.mean_overlap:.6f} vs m^2/n = {self.expected_mean:.6f}"
            f" (se {self.mean_se:.6f})",
            f"chi-square {self.chi2_stat:.3f} on {self.chi2_dof} dof ->"
            f" p = {self.chi2_pvalue:.6f}",
        ]


def run_overlap(n: int, m: int, trials: int, seed: int = 0) -> OverlapExperiment:
    """Draw pairs of independent bags and tally their overlaps.

    The histogram is compared to the Hypergeometric(n, m, m) pmf with a
    chi-square test (adjacent bins merged until each expects >= 5 counts).
    """
    _validate(n, m, trials)
    ufuncs = _scipy_extension("special", "_ufuncs")

    hist = np.zeros(m + 1, dtype=np.int64)
    for _, b, (rng1, rng2) in _row_chunks(n, trials, seed, [(0,), (1,)]):
        h = _overlap_counts(_bag_rows(rng1, b, n, m), _bag_rows(rng2, b, n, m), n)
        hist += np.bincount(h, minlength=m + 1)

    support = np.arange(m + 1)
    # hypergeom(n, m, m).pmf(support): zero below the support's low end
    # max(0, 2m - n), the clipped ufunc value on it.
    low = max(0, 2 * m - n)
    pmf = np.zeros(m + 1)
    pmf[low:] = np.clip(ufuncs._hypergeom_pmf(support[low:], m, m, n), 0, 1)
    mean_overlap = float((support * hist).sum() / trials)
    p = m / n
    var_h = m * p * (1.0 - p) * ((n - m) / (n - 1)) if n > 1 else 0.0
    mean_se = float(math.sqrt(var_h / trials))
    stat, dof = _chi_square(hist, pmf * trials)
    pvalue = float(ufuncs.chdtrc(dof, stat)) if dof else 1.0  # chi2.sf(stat, dof)
    return OverlapExperiment(
        n, m, trials, seed, hist, pmf, mean_overlap, m * m / n, mean_se, stat, dof, pvalue
    )


def _chi_square(observed: np.ndarray, expected: np.ndarray):
    """Chi-square GOF statistic and degrees of freedom, with adjacent bins
    merged until expected >= 5."""
    obs_bins, exp_bins = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(observed, expected):
        o_acc += o
        e_acc += e
        if e_acc >= 5.0:
            obs_bins.append(o_acc)
            exp_bins.append(e_acc)
            o_acc = e_acc = 0.0
    if e_acc > 0.0 or o_acc > 0.0:
        if exp_bins:
            obs_bins[-1] += o_acc
            exp_bins[-1] += e_acc
        else:
            obs_bins.append(o_acc)
            exp_bins.append(e_acc)
    obs = np.asarray(obs_bins)
    exp = np.asarray(exp_bins)
    exp *= obs.sum() / exp.sum()  # absorb pmf truncation round-off
    dof = len(obs) - 1
    if dof < 1:
        return 0.0, 0
    return float(((obs - exp) ** 2 / exp).sum()), dof


@dataclass(frozen=True)
class VarianceExperiment:
    """Measured bagged-mean variance against the closed form."""

    plug_in: str
    n: int
    r: float
    B: int
    trials: int
    seed: int
    sigma_sq: float  # population variance of the scalar law (known)
    m: int
    var_single: float  # Var(theta_m), bag 0
    var_bagged: float  # Var of the B-bag aggregate
    cov: float  # Cov(theta_i, theta_j), pooled over bag pairs
    rho: float  # cov / pooled single-bag variance

    @property
    def var_single_analytic(self) -> float:
        return self.sigma_sq / self.m

    @property
    def rho_analytic(self) -> float:
        return self.m / self.n

    def closed_form(self, rho: float | None = None) -> float:
        """(sigma^2/m) (rho + (1 - rho)/B); measured rho by default."""
        rho = self.rho if rho is None else rho
        return self.var_single_analytic * (rho + (1.0 - rho) / self.B)

    @property
    def closed_form_analytic(self) -> float:
        return self.closed_form(self.rho_analytic)

    @property
    def sandwich_ok(self) -> bool:
        """Cov <= Var(bagged) <= Var(single bag) on the measured values."""
        return self.cov <= self.var_bagged <= self.var_single

    def summary_lines(self):
        return [
            f"sample-mean plug-in, n={self.n}, r={self.r}, m={self.m}, B={self.B},"
            f" {self.trials} trials",
            f"Var(single) {self.var_single:.6e} (analytic {self.var_single_analytic:.6e})",
            f"Cov {self.cov:.6e}, rho {self.rho:.6f} (analytic {self.rho_analytic:.6f})",
            f"Var(bagged) {self.var_bagged:.6e} vs closed form {self.closed_form():.6e}"
            f" (analytic-rho {self.closed_form_analytic:.6e})",
            f"sandwich Cov <= Var(bagged) <= Var(single): {self.sandwich_ok}",
        ]


def _bag_means(n: int, m: int, n_bags: int, trials: int, seed: int) -> np.ndarray:
    """(trials, n_bags) matrix of bag means over per-trial standard normals."""
    means = np.empty((trials, n_bags))
    keys = [(0,)] + [(1, j) for j in range(n_bags)]
    for rows, b, (rng_x, *rng_bags) in _row_chunks(n, trials, seed, keys):
        x = rng_x.standard_normal((b, n))
        for j, rng in enumerate(rng_bags):
            means[rows, j] = _mean_at(x, _bag_rows(rng, b, n, m))
    return means


def run_variance(
    n: int, r: float, B: int, trials: int = 5000, seed: int = 0
) -> VarianceExperiment:
    """Measure single-bag, pairwise, and bagged variance of the sample mean.

    Each trial draws a fresh n-vector of standard normals and max(B, 2)
    bags; the covariance is pooled over all bag pairs within a trial.  The
    first B bag means are aggregated by the library's own
    :class:`~lidbag.bagging.AnchoredMean`.
    """
    m = _bag_size(n, r, trials)
    if B < 1:
        raise TheoryError(f"need B >= 1, got {B}")
    n_bags = max(B, 2)
    means = _bag_means(n, m, n_bags, trials, seed)

    var_single = float(means[:, 0].var(ddof=1))
    cmat = np.cov(means, rowvar=False)
    var_pooled = float(np.trace(cmat) / n_bags)
    cov = float((cmat.sum() - np.trace(cmat)) / (n_bags * (n_bags - 1)))
    rho = cov / var_pooled

    # One bag at a time: a (B, trials) stack would hold several B * trials
    # temporaries, and adding columns one by one gives the same bits.
    acc, unflagged = AnchoredMean(trials), np.zeros(trials, dtype=bool)
    for j in range(B):
        acc.add(means[:, j], unflagged)
    var_bagged = float(acc.result()[0].var(ddof=1))
    return VarianceExperiment(
        "sample_mean", n, float(r), B, trials, seed, 1.0, m,
        var_single, var_bagged, cov, rho,
    )


@dataclass(frozen=True)
class CovarianceBin:
    """Covariance of two bag means conditioned on overlap h."""

    h: int
    count: int
    gamma_hat: float
    se: float
    gamma_analytic: float  # sigma^2 h / m^2


@dataclass(frozen=True)
class ConditionalCovariance:
    """gamma(h) curve of the sample-mean plug-in, estimated per overlap bin."""

    n: int
    r: float
    m: int
    trials: int
    seed: int
    sigma_sq: float
    min_bin: int
    bins: tuple[CovarianceBin, ...]
    skipped: tuple[int, ...]  # overlaps seen but with < min_bin samples
    overall_cov: float
    phi_at_mean: float  # phi(E[H]/m) = sigma^2 / n for the sample mean
    monotonicity_violations: int

    def summary_lines(self):
        lines = [
            f"conditional covariance, n={self.n}, r={self.r}, m={self.m},"
            f" {self.trials} trials, bins under {self.min_bin} samples skipped",
            f"overall Cov {self.overall_cov:.6e} vs phi(E[H]/m) = {self.phi_at_mean:.6e}",
            f"monotonicity violations beyond noise: {self.monotonicity_violations}",
        ]
        for b in self.bins:
            lines.append(
                f"  h={b.h:3d} count={b.count:7d} gamma {b.gamma_hat:+.6e}"
                f" (analytic {b.gamma_analytic:+.6e}, se {b.se:.2e})"
            )
        if self.skipped:
            lines.append(f"  unavailable overlaps (sparse): {list(self.skipped)}")
        return lines


def run_conditional_covariance(
    n: int, r: float, trials: int = 100_000, seed: int = 0, min_bin: int = 30
) -> ConditionalCovariance:
    """Estimate Cov(theta_i, theta_j | H = h) per overlap bin.

    Bins with fewer than ``min_bin`` samples are reported as unavailable
    rather than extrapolated.  A monotonicity violation is an adjacent pair
    of available bins whose estimates decrease by more than three combined
    standard errors.
    """
    m = _bag_size(n, r, trials)
    t1 = np.empty(trials)
    t2 = np.empty(trials)
    hs = np.empty(trials, dtype=np.int64)
    for rows, b, (rng_x, rng1, rng2) in _row_chunks(n, trials, seed, [(0,), (1,), (2,)]):
        x = rng_x.standard_normal((b, n))
        sel1 = _bag_rows(rng1, b, n, m)
        sel2 = _bag_rows(rng2, b, n, m)
        t1[rows] = _mean_at(x, sel1)
        t2[rows] = _mean_at(x, sel2)
        hs[rows] = _overlap_counts(sel1, sel2, n)

    sigma_sq = 1.0
    bins, skipped = [], []
    for h in range(max(0, 2 * m - n), m + 1):
        idx = hs == h
        cnt = int(np.count_nonzero(idx))
        if cnt == 0:
            continue
        if cnt < min_bin:
            skipped.append(h)
            continue
        a, c = t1[idx], t2[idx]
        if cnt > 1:
            cm = np.cov(a, c, ddof=1)
            gamma = float(cm[0, 1])
            se = float(math.sqrt((cm[0, 0] * cm[1, 1] + gamma * gamma) / cnt))
        else:
            gamma, se = 0.0, math.inf
        bins.append(CovarianceBin(h, cnt, gamma, se, sigma_sq * h / (m * m)))

    overall = float(np.cov(t1, t2, ddof=1)[0, 1])
    violations = 0
    for prev, cur in zip(bins, bins[1:]):
        if cur.h == prev.h + 1 and cur.gamma_hat < prev.gamma_hat - 3.0 * (prev.se + cur.se):
            violations += 1
    return ConditionalCovariance(
        n, float(r), m, trials, seed, sigma_sq, min_bin,
        tuple(bins), tuple(skipped), overall, sigma_sq / n, violations,
    )
