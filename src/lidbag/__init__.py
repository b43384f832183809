"""Bagged and smoothed local intrinsic dimensionality (LID) estimation.

A library and CLI for k-NN LID estimators (MLE, MADA, TLE) wrapped in a
subbagging ensemble and neighborhood smoothing, plus the synthetic-manifold
benchmark collection, a manifold-wise MSE decomposition harness, Monte
Carlo checks of the underlying variance theory, and a deterministic
experiment sweep runner.
"""

from .geometry import (
    CapacityError,
    DimensionMismatchError,
    EmptyReferenceError,
    GeometryError,
    NeighborTables,
    PointCloud,
    dist_block,
    neighbor_tables,
)
from .estimators import (
    EstimatorConfig,
    EstimatorError,
    METHODS,
    MLE_NORMALIZATIONS,
    ZeroDistanceError,
)
from .datasets import (
    DATASET_NAMES,
    DatasetError,
    GeneratorSpec,
    ValidationReport,
    dataset_info,
    generate,
    load_binary,
    load_csv,
    save_binary,
    save_csv,
    validate,
)
from .bagging import (
    BaggingConfig,
    BaggingError,
    DIVERGENCE_POLICIES,
    LocalityCapacityError,
    draw_bags,
)
from .smoothing import (
    SmoothingCapacityError,
    SmoothingConfig,
    SmoothingError,
    VARIANTS,
    smooth,
    variant_estimates,
)
from .evaluation import (
    EvaluationError,
    ManifoldPart,
    MseDecomposition,
    decompose,
    log_ratio,
)
from .theory import (
    ConditionalCovariance,
    OverlapExperiment,
    TheoryError,
    VarianceExperiment,
    run_conditional_covariance,
    run_overlap,
    run_variance,
)
from .sweep import (
    DEFAULT_B_GRID,
    DEFAULT_K_GRID,
    DEFAULT_R_GRID,
    BenchmarkPoint,
    HeatmapCell,
    SweepGrid,
    SweepResult,
    SweepRow,
    SweepSkip,
    benchmark_runtime,
    emit_heatmap_data,
    geometric_grid,
    read_sweep_csv,
    run_sweep,
    write_sweep_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
