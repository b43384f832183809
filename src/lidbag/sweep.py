"""Experiment sweeps over (dataset, estimator, variant, k, r, B) grids.

For each dataset the runner turns the grid into a plan: every feasible
cell becomes one :class:`~lidbag.smoothing.PlanCell` and every infeasible
one a skip with its reason.  :func:`~lidbag.smoothing.run_plan` executes
the whole plan at once, so the work cells share is done once: one pass of
distance tiles per dataset (and round), one bag ensemble per (dataset, r)
shared by all estimators, k values and variants, and the B axis as
checkpoints of that growing ensemble.  The ``baseline`` and ``smoothed``
cells (keyed r = 1, B = 1) are one more ensemble, of one bag holding the
whole cloud, whose neighborhoods also serve every post-smoothing cell.  Each result becomes a row through
the MSE decomposition.

Rows are sorted canonically before writing, making the primary CSV
byte-identical across thread counts.  Wall times are attributable
kernel/smoothing/aggregation time per cell, the unbagged cells' fold of
their one bag included (shared distance and table construction is
amortized and excluded); because times are inherently
nondeterministic they go to a separate timing CSV by default so the
primary file stays byte-stable.

The runtime benchmark times the library's own baseline and bagged
pipelines against each other.
"""

from __future__ import annotations

import csv
import time
from dataclasses import astuple, dataclass, field, fields
from operator import attrgetter

import numpy as np

from .datasets import DATASET_NAMES, GeneratorSpec, dataset_ordinal, generate
from .estimators import METHODS, MLE_NORMALIZATIONS, EstimatorConfig
# bag_tables stays bound here: perfbench/selfcheck.py checks that tracing
# restores lidbag.sweep.bag_tables.
from .bagging import BaggingConfig, DIVERGENCE_POLICIES, bag_tables  # noqa: F401
from .smoothing import (
    _BAGGED,
    _UNBAGGED,
    VARIANTS,
    PlanCell,
    cell_error,
    run_plan,
    variant_estimates,
)
from .evaluation import decompose, log_ratio

#: Non-timing sweep columns, in file order.
SWEEP_COLUMNS = (
    "dataset", "estimator", "variant", "k", "r", "B", "seed",
    "mse", "var", "bias_sq", "divergent_count",
)
TIMING_COLUMNS = ("dataset", "estimator", "variant", "k", "r", "B", "seed", "wall_time_ms")
SKIP_COLUMNS = ("dataset", "estimator", "variant", "k", "r", "B", "reason")


class SweepError(ValueError):
    """Invalid sweep configuration."""


def geometric_grid(a: float, b: float, steps: int) -> np.ndarray:
    """g_i = a * (b/a)^(i / (steps-1)) for i = 0..steps-1."""
    if steps < 1:
        raise SweepError(f"need steps >= 1, got {steps}")
    if a <= 0 or b <= 0:
        raise SweepError("geometric grids need positive endpoints")
    if steps == 1:
        return np.asarray([float(a)])
    i = np.arange(steps)
    return a * (b / a) ** (i / (steps - 1))


def integer_grid(a: int, b: int, steps: int) -> tuple[int, ...]:
    """Geometric grid rounded to nearest integer, duplicates collapsed."""
    vals = np.rint(geometric_grid(a, b, steps)).astype(int)
    out = []
    for v in vals:
        if not out or v != out[-1]:
            out.append(int(v))
    return tuple(out)


DEFAULT_K_GRID = integer_grid(5, 72, 9)
DEFAULT_R_GRID = tuple(float(x) for x in geometric_grid(0.042, 0.6, 9))
DEFAULT_B_GRID = integer_grid(3, 400, 20)


@dataclass(frozen=True)
class SweepGrid:
    """Everything a sweep run depends on.

    ``b_values`` defaults to a single B=10 (the k x r experiments fix the
    bag count); pass ``DEFAULT_B_GRID`` for the B-sweep experiment.  ``k_s``
    of None smooths each cell with the cell's own k.
    """

    datasets: tuple[str, ...]
    estimators: tuple[str, ...] = ("mle",)
    variants: tuple[str, ...] = VARIANTS
    k_values: tuple[int, ...] = DEFAULT_K_GRID
    r_values: tuple[float, ...] = DEFAULT_R_GRID
    b_values: tuple[int, ...] = (10,)
    master_seed: int = 0
    n: int = 2500
    k_s: int | None = None
    policy: str = "clamp"
    mle_normalization: str = "k_minus_1"

    def __post_init__(self):
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "variants", tuple(self.variants))
        object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        object.__setattr__(self, "r_values", tuple(float(r) for r in self.r_values))
        object.__setattr__(self, "b_values", tuple(int(b) for b in self.b_values))
        if not self.datasets:
            raise SweepError("need at least one dataset")
        for name in self.datasets:
            if name not in DATASET_NAMES:
                raise SweepError(f"unknown dataset {name!r}")
        if len(set(self.datasets)) != len(self.datasets):
            raise SweepError("duplicate dataset names")
        for e in self.estimators:
            if e not in METHODS:
                raise SweepError(f"unknown estimator {e!r}; expected one of {METHODS}")
        for v in self.variants:
            if v not in VARIANTS:
                raise SweepError(f"unknown variant {v!r}; expected one of {VARIANTS}")
        if not (self.estimators and self.variants and self.k_values
                and self.r_values and self.b_values):
            raise SweepError("grids must be nonempty")
        if any(k < 2 for k in self.k_values):
            raise SweepError("estimators need k >= 2")
        if any(not 0.0 < r <= 1.0 for r in self.r_values):
            raise SweepError("sampling rates must lie in (0, 1]")
        if any(b < 1 for b in self.b_values):
            raise SweepError("bag counts must be >= 1")
        if list(self.b_values) != sorted(set(self.b_values)):
            raise SweepError("b_values must be strictly increasing")
        if self.n < 2:
            raise SweepError("need n >= 2")
        if self.k_s is not None and self.k_s < 1:
            raise SweepError("k_s must be >= 1 when given")
        if self.policy not in DIVERGENCE_POLICIES:
            raise SweepError(f"unknown divergence policy {self.policy!r}")
        if self.mle_normalization not in MLE_NORMALIZATIONS:
            raise SweepError(f"unknown MLE normalization {self.mle_normalization!r}")
        if self.master_seed < 0:
            raise SweepError("master_seed must be nonnegative")

    def smoothing_k(self, k: int) -> int:
        return k if self.k_s is None else self.k_s

    def cell_count(self) -> int:
        """Total grid cells = emitted rows + recorded skips."""
        per_ds = 0
        flat = len(self.estimators) * len(self.k_values)
        for v in self.variants:
            per_ds += flat if v in _UNBAGGED else flat * len(self.r_values) * len(self.b_values)
        return per_ds * len(self.datasets)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "SweepGrid":
        known = {f.name for f in fields(cls)}
        extra = set(d) - known
        if extra:
            raise SweepError(f"unknown sweep config keys: {sorted(extra)}")
        if d.get("datasets") == "all":
            d = dict(d, datasets=DATASET_NAMES)
        return cls(**d)


@dataclass(frozen=True)
class SweepRow:
    dataset: str
    estimator: str
    variant: str
    k: int
    r: float
    B: int
    seed: int
    mse: float
    var: float
    bias_sq: float
    divergent_count: int
    wall_time_ms: float

    def sort_key(self):
        return (self.dataset, self.estimator, self.variant, self.k, self.r, self.B)


@dataclass(frozen=True)
class SweepSkip:
    dataset: str
    estimator: str
    variant: str
    k: int
    r: float
    B: int
    reason: str

    def sort_key(self):
        return (self.dataset, self.estimator, self.variant, self.k, self.r, self.B)


@dataclass
class SweepResult:
    grid: SweepGrid | None
    rows: list[SweepRow] = field(default_factory=list)
    skips: list[SweepSkip] = field(default_factory=list)

    def sorted_rows(self) -> list[SweepRow]:
        return sorted(self.rows, key=SweepRow.sort_key)

    def sorted_skips(self) -> list[SweepSkip]:
        return sorted(self.skips, key=SweepSkip.sort_key)

    def best_rows(self) -> list[SweepRow]:
        """Minimum-MSE row per (dataset, estimator, variant).

        Ties break toward the canonically first cell.
        """
        best: dict[tuple, SweepRow] = {}
        for row in self.sorted_rows():
            key = (row.dataset, row.estimator, row.variant)
            cur = best.get(key)
            if cur is None or row.mse < cur.mse:
                best[key] = row
        return sorted(best.values(), key=SweepRow.sort_key)

    def row_lookup(self) -> dict[tuple, SweepRow]:
        return {
            (r.dataset, r.estimator, r.variant, r.k, r.r, r.B): r for r in self.rows
        }


def _derive_seed(master: int, *key: int) -> int:
    return int(
        np.random.SeedSequence(master, spawn_key=tuple(key)).generate_state(1, np.uint64)[0]
    )


def run_sweep(grid: SweepGrid, *, threads: int = 1, progress=None) -> SweepResult:
    """Evaluate every grid cell; infeasible cells become skips, not errors.

    Deterministic for a fixed ``master_seed`` regardless of ``threads``:
    all parallelism is :func:`~lidbag.smoothing.run_plan`'s map over query
    tiles, each query's result depends on its own rows alone, and its bags
    are folded in bag order.
    """
    result = SweepResult(grid)
    for name in grid.datasets:
        _sweep_dataset(grid, name, result, threads, progress)
    expected = grid.cell_count()
    got = len(result.rows) + len(result.skips)
    if got != expected:
        raise SweepError(
            f"cell accounting failed: {len(result.rows)} rows + {len(result.skips)}"
            f" skips != {expected} grid cells"
        )
    return result


def _sweep_dataset(grid: SweepGrid, name: str, result: SweepResult, threads, progress):
    if progress:
        progress(f"dataset {name}: generating n={grid.n}")
    ds_ord = dataset_ordinal(name)
    cloud = generate(GeneratorSpec(name, n=grid.n, seed=_derive_seed(grid.master_seed, ds_ord, 0)))
    n = cloud.n
    cells = []

    def plan(variant, est, k, bags=None):
        r, B, m = (1.0, 1, n) if bags is None else (bags.rate, bags.bags, bags.bag_size(n))
        ks = grid.smoothing_k(k)
        error = cell_error(variant, k, ks, n, m)
        if error is not None:
            result.skips.append(SweepSkip(name, est, variant, k, r, B, str(error)))
            return
        cfg = EstimatorConfig(method=est, k=k, mle_normalization=grid.mle_normalization)
        cells.append(PlanCell(variant, cfg, ks, bags))

    # Baseline-family cells are keyed (r=1, B=1), independent of the r/B grids.
    for est in grid.estimators:
        for k in grid.k_values:
            for variant in _UNBAGGED:
                if variant in grid.variants:
                    plan(variant, est, k)
    for ri, r in enumerate(grid.r_values):
        seed = _derive_seed(grid.master_seed, ds_ord, 1, ri)
        for B in grid.b_values:
            for est in grid.estimators:
                for k in grid.k_values:
                    for variant in _BAGGED:
                        if variant in grid.variants:
                            plan(variant, est, k, BaggingConfig(B, r, seed))

    def emit(cell, values, flags, ms):
        dec = decompose(values, cloud)
        r, B = (1.0, 1) if cell.bags is None else (cell.bags.rate, cell.bags.bags)
        result.rows.append(SweepRow(
            name, cell.est.method, cell.variant, cell.est.k, r, B, grid.master_seed,
            dec.total_mse, dec.total_var, dec.total_bias_sq,
            int(np.count_nonzero(flags)), ms,
        ))

    run_plan(
        cloud, cells, emit, policy=grid.policy, threads=threads,
        progress=None if progress is None else (lambda msg: progress(f"dataset {name}: {msg}")),
    )


# ---------------------------------------------------------------------------
# Heatmap and best-cell reports


@dataclass(frozen=True)
class HeatmapCell:
    dataset: str
    estimator: str
    variant: str
    y: int  # k or B, per y_axis
    r: float
    log_mse_ratio: float


def emit_heatmap_data(
    result: SweepResult,
    *,
    estimator: str,
    variant: str,
    y_axis: str = "k",
    fixed_k: int | None = None,
    fixed_b: int | None = None,
) -> list[HeatmapCell]:
    """ln(MSE_baseline / MSE_variant) per grid cell, on a (y, r) lattice.

    ``y_axis`` "k" lays k against r (optionally filtered to ``fixed_b``);
    "B" lays B against r at ``fixed_k``.  Cells whose bagged or baseline
    row is missing (skipped) are omitted.  Positive values mean the variant
    beat the baseline; an r=1 column is exactly zero because rate-1 bagging
    reproduces the baseline bit for bit.
    """
    if y_axis not in ("k", "B"):
        raise SweepError(f"y_axis must be 'k' or 'B', got {y_axis!r}")
    if variant not in _BAGGED:
        raise SweepError(f"heatmaps compare bagged variants, got {variant!r}")
    if y_axis == "B" and fixed_k is None:
        raise SweepError("y_axis='B' needs fixed_k")
    base = {
        (row.dataset, row.k): row.mse
        for row in result.rows
        if row.estimator == estimator and row.variant == "baseline"
    }
    cells = []
    for row in sorted(result.rows, key=SweepRow.sort_key):
        if row.estimator != estimator or row.variant != variant:
            continue
        if y_axis == "B" and row.k != fixed_k:
            continue
        if y_axis == "k" and fixed_b is not None and row.B != fixed_b:
            continue
        base_mse = base.get((row.dataset, row.k))
        if base_mse is None:
            continue
        y = row.k if y_axis == "k" else row.B
        cells.append(HeatmapCell(
            row.dataset, estimator, variant, y, row.r, log_ratio(base_mse, row.mse)
        ))
    return cells


# ---------------------------------------------------------------------------
# Runtime benchmark


@dataclass(frozen=True)
class BenchmarkPoint:
    n: int
    r: float
    B: int
    k: int
    estimator: str
    t_base_ms: float
    t_bag_ms: float
    rb: float  # r * B, the work-ratio predictor
    predicted_bag_faster: bool
    bag_faster: bool

    @property
    def agrees(self) -> bool:
        return self.predicted_bag_faster == self.bag_faster


def benchmark_runtime(
    n_values,
    B: int,
    r: float,
    estimator: str = "mle",
    *,
    k: int = 10,
    dataset: str = "M9_Affine",
    seed: int = 0,
    repeats: int = 3,
) -> list[BenchmarkPoint]:
    """Time ``variant_estimates`` for the baseline against the bagged variant.

    Nothing is cached between calls.  The baseline computes n^2 distances
    and ranks n rows of n; the bagged variant computes the distances from
    every point to the union U of its bags (n * |U| <= n^2) and ranks B * n
    rows of m, r * B * n^2 cells: the cost model in which bagging wins when
    r*B < 1.  Where the engine selects many narrow bags from one ranking
    of U (:func:`~lidbag.smoothing.run_plan`), the bagged variant costs
    that ranking plus B cheaper passes instead, still more than the
    baseline's once U is most of the cloud.  Neither holds an n^2 block: distances are
    computed one query tile at a time as the neighbor tables consume them.
    Each measurement discards one warmup run and keeps the median of
    ``repeats``.
    """
    out = []
    for n in n_values:
        n = int(n)
        cloud = generate(GeneratorSpec(dataset, n=n, seed=seed))
        cfg = EstimatorConfig(method=estimator, k=k)
        bag_cfg = BaggingConfig(B, r, seed)
        error = cell_error("bagged", k, k, n, bag_cfg.bag_size(n))
        if error is not None:
            raise SweepError(f"benchmark cell infeasible: {error}")
        t_base = _timed(lambda: variant_estimates(cloud, "baseline", cfg), repeats)
        t_bag = _timed(lambda: variant_estimates(cloud, "bagged", cfg, bag_cfg), repeats)
        rb = r * B
        out.append(BenchmarkPoint(
            n, float(r), B, k, estimator, t_base, t_bag, rb,
            predicted_bag_faster=rb < 1.0, bag_faster=t_bag < t_base,
        ))
    return out


def _timed(fn, repeats: int) -> float:
    fn()  # warmup, discarded
    times = []
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(times))


# ---------------------------------------------------------------------------
# CSV emission (17 significant digits, canonical ordering)


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _cell(v) -> str:
    # bool before float and int: np.bool_ is neither, and str(np.True_) is "True".
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    return str(v)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` (sequences of cells) to ``path``.

    This is the convention of every result file lidbag writes: one header
    row, ``\n`` line ends, floats with 17 significant digits (each parses
    back to the same double), booleans as 0/1, anything else through
    ``str``.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([_cell(v) for v in row] for row in rows)


def write_sweep_csv(result: SweepResult, path, *, include_timing: bool = False) -> None:
    """Primary results CSV; timing column only on request (see module doc)."""
    cols = SWEEP_COLUMNS + (("wall_time_ms",) if include_timing else ())
    write_csv(path, cols, map(attrgetter(*cols), result.sorted_rows()))


def write_timing_csv(result: SweepResult, path) -> None:
    write_csv(path, TIMING_COLUMNS, map(attrgetter(*TIMING_COLUMNS), result.sorted_rows()))


def write_skips_csv(result: SweepResult, path) -> None:
    write_csv(path, SKIP_COLUMNS, map(attrgetter(*SKIP_COLUMNS), result.sorted_skips()))


def read_sweep_csv(path) -> SweepResult:
    """Load rows written by write_sweep_csv (timing column optional)."""
    result = SweepResult(None)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(SWEEP_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise SweepError(f"{path}: missing sweep columns {sorted(missing)}")
        for rec in reader:
            result.rows.append(SweepRow(
                rec["dataset"], rec["estimator"], rec["variant"],
                int(rec["k"]), float(rec["r"]), int(rec["B"]), int(rec["seed"]),
                float(rec["mse"]), float(rec["var"]), float(rec["bias_sq"]),
                int(rec["divergent_count"]),
                float(rec.get("wall_time_ms", 0.0) or 0.0),
            ))
    return result


def write_heatmap_csv(cells: list[HeatmapCell], path, y_name: str = "k") -> None:
    write_csv(path, ("dataset", "estimator", "variant", y_name, "r", "log_mse_ratio"),
              map(astuple, cells))


def write_best_csv(result: SweepResult, path) -> None:
    write_csv(path, SWEEP_COLUMNS, map(attrgetter(*SWEEP_COLUMNS), result.best_rows()))
