"""The LID estimators (MLE, MADA, TLE) as batched kernels behind one dispatch.

All three estimators consume sorted neighbor distances produced by
:mod:`lidbag.geometry` and depend only on distance ratios, so they are
scale invariant.  Divergent configurations (degenerate distance profiles
whose formulas blow up) are always flagged and, by default, clamped to a
finite cap so that downstream aggregation stays rectangular and auditable.

The kernels (`mle_values`, `mada_values`, `tle_values`) operate on
row-per-query distance matrices, and :func:`batch_values` dispatches to
them by method name; a single query is a one-row batch, so there is one
source of numerical truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

METHODS = ("mle", "mada", "tle")
MLE_NORMALIZATIONS = ("k_minus_1", "k")

#: Divergent estimates are capped at ``ambient dim * CLAMP_DIM_FACTOR``
#: unless the configuration states an explicit cap.
CLAMP_DIM_FACTOR = 10.0

#: (query, neighbor, neighbor) cells per chunk in :func:`tle_values`.  The
#: chunk's dozen-odd (c, k, k) float temporaries stay cache-sized (128 KiB
#: each) instead of tens of MB, and so do its (c, k, dim) neighbor
#: coordinates, which the tables' path gathers chunk by chunk; rows are
#: independent, so chunking does not change any value.
_TLE_CELLS = 2**14


class EstimatorError(ValueError):
    """Base class for estimator failures."""


class ZeroDistanceError(EstimatorError):
    """A neighbor distance of exactly zero violates the continuity model."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Method selection plus the shared locality hyper-parameter k.

    ``clamp_max=None`` means "use the default cap of 10x the ambient
    dimension, resolved where the data is known"; ``math.inf`` disables
    clamping (divergent values then surface as the +inf sentinel).
    ``mle_normalization`` picks between the 1/(k-1) convention (default)
    and the 1/k variant for cross-checking.
    """

    method: str
    k: int
    clamp_max: float | None = None
    mle_normalization: str = "k_minus_1"

    def __post_init__(self):
        object.__setattr__(self, "method", str(self.method).lower())
        if self.method not in METHODS:
            raise EstimatorError(f"unknown method {self.method!r}; pick from {METHODS}")
        if isinstance(self.k, bool) or not isinstance(self.k, Integral):
            raise EstimatorError(f"k must be an integer, got {self.k!r}")
        if self.k < 2:
            raise EstimatorError(f"k must be >= 2 for {self.method}, got {self.k}")
        if self.clamp_max is not None and not self.clamp_max > 0:
            raise EstimatorError("clamp_max must be > 0 when present")
        if self.mle_normalization not in MLE_NORMALIZATIONS:
            raise EstimatorError(
                f"unknown MLE normalization {self.mle_normalization!r}"
            )

    def resolve_clamp(self, dim: int) -> float:
        if self.clamp_max is not None:
            return float(self.clamp_max)
        return CLAMP_DIM_FACTOR * float(dim)


def _check_distances(dists: np.ndarray) -> None:
    if np.any(dists <= 0.0):
        raise ZeroDistanceError(
            "zero neighbor distance encountered; the estimators assume "
            "absolutely continuous distances (duplicate points?)"
        )


def clamp_values(values, divergent, clamp_max: float):
    """Cap estimates at ``clamp_max``, flagging every capped entry divergent."""
    values = np.asarray(values, dtype=np.float64)
    divergent = np.asarray(divergent, dtype=bool)
    over = ~(values <= clamp_max)  # catches +inf and NaN as well
    return np.where(over, clamp_max, values), divergent | over


def mle_values(dists: np.ndarray, normalization: str = "k_minus_1",
               logs: np.ndarray | None = None):
    """Vectorized MLE over rows of sorted neighbor distances.

    For one row (r_1 <= ... <= r_k) the estimate is

        ( (1/(k-1)) * sum_{i<k} ln(r_k / r_i) )^{-1}

    (or the 1/k variant).  A row of k equal distances is flagged divergent,
    with the +inf sentinel as the raw value, as is any row whose computed
    log-sum is not positive: the sum of k - 1 equal logs need not round to
    (k - 1) times one of them, so an equal row can leave a log-sum of either
    sign near zero, and the estimate must not depend on that rounding.

    ``logs``, when given, holds ``np.log`` of at least the first k columns
    of each row, for instance of a deeper sorted table that serves several
    k: every k then reads the same logs, and the caller has checked that no
    distance is zero (for sorted rows, that the first is not).
    """
    d = np.asarray(dists, dtype=np.float64)
    if d.ndim == 1:
        d = d[None, :]
    k = d.shape[1]
    if k < 2:
        raise EstimatorError(f"MLE needs k >= 2, got {k}")
    if normalization not in MLE_NORMALIZATIONS:
        raise EstimatorError(f"unknown MLE normalization {normalization!r}")
    if logs is None:
        _check_distances(d)
        logs = np.log(d)
    log_sum = (k - 1) * logs[:, k - 1] - logs[:, : k - 1].sum(axis=1)
    divergent = (d[:, 0] == d[:, -1]) | ~(log_sum > 0.0)
    num = float(k - 1) if normalization == "k_minus_1" else float(k)
    with np.errstate(divide="ignore"):
        values = num / log_sum
    values = np.where(divergent, np.inf, values)
    return values, divergent


def mada_values(dists: np.ndarray):
    """Vectorized two-scale MADA: ln 2 / ln(r_k / r_ceil(k/2))."""
    d = np.asarray(dists, dtype=np.float64)
    if d.ndim == 1:
        d = d[None, :]
    k = d.shape[1]
    if k < 2:
        raise EstimatorError(f"MADA needs k >= 2, got {k}")
    _check_distances(d)
    h = (k + 1) // 2  # ceil(k/2), 1-based
    # The log of the ratio, not the difference of two logs: a difference of
    # logs rounds at the magnitude of the radii, so rescaling the radii by a
    # power of two could move a near-equal pair in or out of divergence.
    denom = np.log(d[:, -1] / d[:, h - 1])
    divergent = denom == 0.0
    with np.errstate(divide="ignore"):
        values = math.log(2.0) / denom
    values = np.where(divergent, np.inf, values)
    return values, divergent


def _tle_chunk(Y: np.ndarray):
    """TLE measurement aggregation for one chunk of centered neighborhoods.

    Y has shape (c, k, dim): neighbor coordinates relative to each query.
    Returns (sum_of_log_ratios, count_of_valid_measurements) per query.

    The estimator augments the k query-to-neighbor distances with pairwise
    measurements: each neighbor x_i — and its reflection 2q - x_i through
    the query — serves as an alternate center whose distance to every other
    neighbor x_j is renormalized by the distance from that center to the
    boundary of the query's k-NN ball along the same ray.  For center c and
    target w inside the ball of radius r around q, the renormalized
    measurement is  r * |w - c| / lambda,  where lambda solves
    |c + lambda * u - q| = r along the unit ray u from c through w.  With
    u_i = |x_i - q|, v_ij = |x_i - x_j| and a = u_i^2 + v_ij^2 - u_j^2 the
    closed form is

        s_ij = r * ( sqrt(a^2 + 4 v_ij^2 (r^2 - u_i^2)) - a ) / (2 (r^2 - u_i^2))

    evaluated here in a branchwise-rationalized way that stays stable when
    u_i -> r (boundary centers) and subsumes the u_i = r limit exactly.
    Reflected centers use the same formula with v_ij^2 replaced by
    z_ij^2 = |x_i + x_j - 2q|^2.  Pairs with v_ij = 0 contribute no valid
    measurement (both s and t dropped), mirroring the degenerate-duplicate
    convention; i = j pairs are excluded throughout.
    """
    c, k, _ = Y.shape
    G = np.matmul(Y, Y.swapaxes(1, 2))
    u2 = np.diagonal(G, axis1=1, axis2=2)  # (c, k)
    r2 = u2[:, -1]
    log_r = 0.5 * np.log(r2)

    ui2 = u2[:, :, None]  # center axis
    uj2 = u2[:, None, :]  # target axis
    v2 = np.clip(ui2 + uj2 - 2.0 * G, 0.0, None)
    z2 = np.clip(ui2 + uj2 + 2.0 * G, 0.0, None)
    den = np.clip(r2[:, None, None] - ui2, 0.0, None)  # (c, k, 1)
    r = np.sqrt(r2)[:, None, None]

    offdiag = ~np.eye(k, dtype=bool)[None, :, :]
    valid_base = (v2 > 0.0) & offdiag

    total = np.zeros(c)
    count = np.zeros(c, dtype=np.int64)
    for pair2, pair_ok in ((v2, valid_base), (z2, valid_base & (z2 > 0.0))):
        a = ui2 + pair2 - uj2
        root = np.sqrt(a * a + 4.0 * pair2 * den)
        with np.errstate(divide="ignore", invalid="ignore"):
            meas = np.where(
                a >= 0.0,
                2.0 * r * pair2 / (root + a),
                r * (root - a) / (2.0 * den),
            )
        valid = pair_ok & np.isfinite(meas) & (meas > 0.0)
        valid_count = valid.sum(axis=(1, 2))
        # An invalid cell reads log(1.0), which is exactly 0.0.
        total += np.log(np.where(valid, meas, 1.0)).sum(axis=(1, 2)) - log_r * valid_count
        count += valid_count
    return total, count


def tle_values(dists: np.ndarray, neighbor_points: np.ndarray, query_points: np.ndarray):
    """Vectorized TLE over (query, neighborhood) rows.

    Parameters
    ----------
    dists : (n, k) sorted neighbor distances (validated > 0).
    neighbor_points : (n, k, dim) neighbor coordinates in row order.
    query_points : (n, dim) query coordinates.

    The estimate is -1 / mean(log(measurement / r)) over the valid
    tight-locality measurement multiset; an empty multiset or a zero mean
    (perfectly symmetric equidistant neighborhoods) is flagged divergent.
    """
    d = np.asarray(dists, dtype=np.float64)
    if d.ndim == 1:
        d = d[None, :]
    P = np.asarray(neighbor_points, dtype=np.float64)
    Q = np.asarray(query_points, dtype=np.float64)
    if P.ndim == 2:
        P = P[None, :, :]
    if Q.ndim == 1:
        Q = Q[None, :]
    if P.shape[:2] != d.shape or Q.shape[0] != d.shape[0]:
        raise EstimatorError("neighbor_points/query_points shapes do not match dists")
    return _tle_rows(d, lambda lo, hi: P[lo:hi], Q)


def _tle_gathered(dists: np.ndarray, points: np.ndarray, idx: np.ndarray,
                  query_points: np.ndarray):
    """:func:`tle_values` with ``neighbor_points = points[idx]``, whose
    coordinates are gathered chunk by chunk: the (n, k, dim) array is never
    built.  ``dists`` and ``idx`` are (n, k), ``points`` (N, dim) and
    ``query_points`` (n, dim)."""
    d = np.asarray(dists, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    idx = np.asarray(idx)
    Q = np.asarray(query_points, dtype=np.float64)
    if idx.shape != d.shape or Q.shape[0] != d.shape[0]:
        raise EstimatorError("neighbor ids/query_points shapes do not match dists")
    return _tle_rows(d, lambda lo, hi: points[idx[lo:hi]], Q)


def _tle_rows(d: np.ndarray, neighbors, Q: np.ndarray):
    """TLE of the (n, k) rows ``d`` in chunks of ``_TLE_CELLS // k**2``
    rows; ``neighbors(lo, hi)`` gives rows lo..hi's (hi - lo, k, dim)
    neighbor coordinates and ``Q`` holds the (n, dim) queries."""
    n, k = d.shape
    if k < 2:
        raise EstimatorError(f"TLE needs k >= 2, got {k}")
    _check_distances(d)

    chunk = max(1, _TLE_CELLS // (k * k))
    values = np.empty(n)
    divergent = np.empty(n, dtype=bool)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        Y = neighbors(lo, hi) - Q[lo:hi, None, :]
        total, count = _tle_chunk(Y)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean_log = total / count
        bad = (count == 0) | ~(mean_log < 0.0)
        with np.errstate(divide="ignore"):
            vals = -1.0 / mean_log
        values[lo:hi] = np.where(bad, np.inf, vals)
        divergent[lo:hi] = bad
    return values, divergent


def batch_values(
    method: str,
    dists: np.ndarray,
    *,
    normalization: str = "k_minus_1",
    points: np.ndarray | None = None,
    neighbor_ids: np.ndarray | None = None,
    query_points: np.ndarray | None = None,
    logs: np.ndarray | None = None,
):
    """Dispatch a vectorized estimator kernel by method name (unclamped);
    ``logs`` goes to :func:`mle_values`.  TLE takes the (N, dim) cloud
    ``points``, the (n, k) ``neighbor_ids`` of each query's neighbors in it
    and the (n, dim) ``query_points``: the estimates equal
    :func:`tle_values` of ``points[neighbor_ids]``, gathered a chunk of
    rows at a time."""
    if method == "mle":
        return mle_values(dists, normalization, logs)
    if method == "mada":
        return mada_values(dists)
    if method == "tle":
        if points is None or neighbor_ids is None or query_points is None:
            raise EstimatorError("TLE needs the cloud, neighbor ids and query coordinates")
        return _tle_gathered(dists, points, neighbor_ids, query_points)
    raise EstimatorError(f"unknown method {method!r}; pick from {METHODS}")
