"""Seeded generators for the 19 benchmark manifolds, with validators and IO.

Every dataset is sampled i.i.d. point by point: point j consumes its own
RNG stream (spawned from the dataset seed by point index), drawing the
sampling-function parameters in documented argument order.  That layout
makes clouds bit-reproducible across platforms and independent of any
batching strategy.

Each generator has a companion validator that re-checks the closed-form
constraints its sampling function imposes on the output coordinates
(unit norms, exact coordinate ranges, exact zero paddings, Kronecker
block repetitions, surface relations).  Validation failures are reported
one entry per violated constraint, with the offending point count.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field

import numpy as np

from .geometry import PointCloud

VTOL = 1e-9  # tolerance for re-derived floating-point surface relations

TWO_PI = 2.0 * np.pi
STICK_MAX = 2.0 - 1.0 / np.sqrt(2.0)


class DatasetError(ValueError):
    """Unknown dataset name or invalid generation request."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Request for one benchmark sample: which manifold, how many points, seed."""

    name: str
    n: int = 2500
    seed: int = 0

    def __post_init__(self):
        if self.name not in _REGISTRY:
            raise DatasetError(
                f"unknown dataset {self.name!r}; known: {', '.join(DATASET_NAMES)}"
            )
        if self.n < 2:
            raise DatasetError("need n >= 2 to build a point cloud")


@dataclass
class ValidationReport:
    """Outcome of re-checking a cloud against its generator's constraints."""

    name: str
    n: int
    violations: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# --------------------------------------------------------------------------
# samplers: one point per call, parameters drawn in the documented phi order
# --------------------------------------------------------------------------

# M2_Affine_3to5 coefficient matrix (rows = output coords, cols = parameters)
# and offsets; shared by the generator and the left-null-space validator.
_M2_A = np.array(
    [
        [1.2, -0.5, 0.0],
        [0.5, 0.9, 0.0],
        [-0.5, -0.2, 1.0],
        [0.4, -0.9, -0.1],
        [1.1, -0.3, 0.0],
    ]
)
_M2_B = np.array([3.0, -1.0, 0.0, 0.0, 8.0])


def _pad(coords: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros(dim)
    out[: coords.shape[0]] = coords
    return out


def _m1_sphere(rng, d, dim):
    x = rng.standard_normal(d + 1)
    return _pad(x / np.sqrt(np.sum(x * x)), dim)


def _m2_affine(rng, d, dim):
    x = rng.uniform(0.0, 4.0, 3)
    return _M2_A @ x + _M2_B


def _m3_nonlinear(rng, d, dim):
    x0, x1, x2, x3 = rng.uniform(0.0, 1.0, 4)
    return np.array(
        [
            x1 * x1 * np.cos(TWO_PI * x0),
            x2 * x2 * np.sin(TWO_PI * x0),
            x1 + x2 + (x1 - x3) ** 2,
            x1 - 2 * x2 + (x0 - x3) ** 2,
            -x1 - 2 * x2 + (x2 - x3) ** 2,
            x0 * x0 - x1 * x1 + x2 * x2 - x3 * x3,
        ]
    )


def _trig_chain(rng, d, dim):
    # product of d unit disks: radius on disk k is x_{(k+1) mod d}, angle is
    # 2*pi*x_k; the 2d-block is tiled dim/(2d) times (Kronecker with ones).
    x = rng.uniform(0.0, 1.0, d)
    block = np.empty(2 * d)
    radius = x[(np.arange(d) + 1) % d]
    angle = TWO_PI * x
    block[0::2] = radius * np.cos(angle)
    block[1::2] = radius * np.sin(angle)
    return np.tile(block, dim // (2 * d))


def _m5b_helix(rng, d, dim):
    r = rng.uniform(0.0, 10.0 * np.pi)
    p = rng.uniform(0.0, 10.0 * np.pi)
    return _pad(np.array([r * np.cos(p), r * np.sin(p), 0.5 * p]), dim)


def _m7_roll(rng, d, dim):
    t = rng.uniform(1.5 * np.pi, 4.5 * np.pi)
    p = rng.uniform(0.0, 21.0)
    return _pad(np.array([t * np.cos(t), p, t * np.sin(t)]), dim)


def _m9_affine(rng, d, dim):
    return _pad(rng.uniform(-2.5, 2.5, d), dim)


def _m10_cubic(rng, d, dim):
    # facet sampler: (I, S) uniform categorical over {0..d} x {0,1}, then the
    # d free coordinates; the facet coordinate s is spliced in at position I.
    i = int(rng.integers(0, d + 1))
    s = float(rng.integers(0, 2))
    u = rng.uniform(0.0, 1.0, d)
    return _pad(np.concatenate([u[:i], [s], u[i:]]), dim)


def _m11_moebius(rng, d, dim):
    phi = rng.uniform(0.0, TWO_PI)
    r = rng.uniform(-1.0, 1.0)
    w = 1.0 + 0.5 * r * np.cos(5.0 * phi)
    return np.array([w * np.cos(phi), w * np.sin(phi), 0.5 * r * np.sin(5.0 * phi)])


def _m12_norm(rng, d, dim):
    return _pad(rng.standard_normal(d), dim)


def _m13a_scurve(rng, d, dim):
    t = rng.uniform(-1.5 * np.pi, 1.5 * np.pi)
    p = rng.uniform(0.0, 2.0)
    return _pad(np.array([np.sin(t), p, np.sign(t) * (np.cos(t) - 1.0)]), dim)


def _mn_nonlinear(rng, d, dim):
    x = rng.uniform(0.0, 1.0, d)
    xj = x[::-1]  # x_{d-1-i}
    b1 = np.tan(x * np.cos(xj))
    b2 = np.arctan(xj * np.sin(x))
    return np.concatenate([b1, b2, b1, b2])


def _uniform_tail(rng, d, dim):
    u = rng.uniform(0.0, 1.0, d)
    return np.concatenate([u[: d - 1], np.repeat(u[d - 1], dim - d + 1)])


def _lollipop(rng, d, dim):
    # component draw first (candy with probability 0.95), then the component's
    # own parameters: (R, Phi) for candy, (T,) for the stick.
    if rng.random() < 0.95:
        r = rng.uniform(0.0, 1.0)
        phi = rng.uniform(0.0, TWO_PI)
        root = np.sqrt(r)
        return np.array([2.0 + root * np.sin(phi), 2.0 + root * np.cos(phi)]), 2
    t = rng.uniform(0.0, STICK_MAX)
    return np.array([t, t]), 1


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetInfo:
    """Static facts about one benchmark dataset.

    ``gt_lid`` is the ground truth used for labeling (per label, 1-based);
    ``table_d`` is the nominal GT LID from the benchmark table, which for
    M10a_Cubic disagrees with its own facet construction (a d-dimensional
    hypercube surface needs dim >= d+1); the generator follows the
    construction at the stated dim and labels with d = dim - 1.
    """

    name: str
    table_d: tuple
    dim: int
    gt_lid: tuple
    sampler: object
    d_param: int  # parameter-space size handed to the sampler
    labeled: bool = False  # True when the sampler returns (coords, label)
    note: str = ""


def _info(name, table_d, dim, gt, sampler, d_param, labeled=False, note=""):
    return DatasetInfo(
        name=name,
        table_d=tuple(np.atleast_1d(table_d)),
        dim=dim,
        gt_lid=tuple(np.atleast_1d(gt)),
        sampler=sampler,
        d_param=d_param,
        labeled=labeled,
        note=note,
    )


_REGISTRY = {
    info.name: info
    for info in (
        _info("M1_Sphere", 10, 11, 10, _m1_sphere, 10),
        _info("M2_Affine_3to5", 3, 5, 3, _m2_affine, 3),
        _info("M3_Nonlinear_4to6", 4, 6, 4, _m3_nonlinear, 4),
        _info("M4_Nonlinear", 4, 8, 4, _trig_chain, 4),
        _info("M5b_Helix2d", 2, 3, 2, _m5b_helix, 2),
        _info("M6_Nonlinear", 6, 36, 6, _trig_chain, 6),
        _info("M7_Roll", 2, 3, 2, _m7_roll, 2),
        _info("M8_Nonlinear", 12, 72, 12, _trig_chain, 12),
        _info("M9_Affine", 20, 20, 20, _m9_affine, 20),
        _info(
            "M10a_Cubic", 20, 11, 10, _m10_cubic, 10,
            note=(
                "table lists d=20 at dim=11, inconsistent with the facet "
                "construction (needs dim >= d+1); generated with d = dim-1 = 10"
            ),
        ),
        _info("M10b_Cubic", 17, 18, 17, _m10_cubic, 17),
        _info("M10c_Cubic", 24, 25, 24, _m10_cubic, 24),
        _info("M11_Moebius", 2, 3, 2, _m11_moebius, 2),
        _info("M12_Norm", 20, 20, 20, _m12_norm, 20),
        _info("M13a_Scurve", 2, 3, 2, _m13a_scurve, 2),
        _info("Mn1_Nonlinear", 18, 72, 18, _mn_nonlinear, 18),
        _info("Mn2_Nonlinear", 24, 96, 24, _mn_nonlinear, 24),
        _info("Lollipop", (1, 2), 2, (1, 2), _lollipop, 2, labeled=True),
        _info("Uniform", 30, 100, 30, _uniform_tail, 30),
    )
}

DATASET_NAMES = tuple(_REGISTRY)


def dataset_info(name: str) -> DatasetInfo:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise DatasetError(
            f"unknown dataset {name!r}; known: {', '.join(DATASET_NAMES)}"
        ) from None


def dataset_ordinal(name: str) -> int:
    """Stable position of a dataset in the canonical table order."""
    return DATASET_NAMES.index(dataset_info(name).name)


def generate(spec: GeneratorSpec) -> PointCloud:
    """Sample a benchmark cloud: bit-reproducible from (name, n, seed)."""
    info = dataset_info(spec.name)
    streams = np.random.SeedSequence(spec.seed).spawn(spec.n)
    points = np.empty((spec.n, info.dim))
    labels = np.ones(spec.n, dtype=np.int64)
    for j, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        if info.labeled:
            points[j], labels[j] = info.sampler(rng, info.d_param, info.dim)
        else:
            points[j] = info.sampler(rng, info.d_param, info.dim)
    gt = np.asarray(info.gt_lid, dtype=np.float64)
    present = np.unique(labels)
    if present.shape[0] != gt.shape[0]:
        # a mixture component may be absent in a tiny sample: relabel densely
        remap = {old: new + 1 for new, old in enumerate(present)}
        labels = np.vectorize(remap.get)(labels)
        gt = gt[present - 1]
    return PointCloud(points, labels, gt)


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def _report_mask(rep, mask, constraint, err=None):
    """Append one violation entry when any point trips a constraint."""
    bad = int(np.count_nonzero(mask))
    if bad:
        detail = f"{constraint}: {bad} of {rep.n} points"
        if err is not None:
            detail += f" (max err {float(err):.3e})"
        rep.violations.append(detail)


def _check_range(rep, values, lo, hi, constraint):
    bad = (values < lo) | (values > hi)
    bad = np.any(bad, axis=1) if bad.ndim == 2 else bad
    _report_mask(rep, bad, constraint)


def _check_close(rep, err, constraint, tol=VTOL):
    err = np.max(np.abs(err), axis=1) if np.ndim(err) == 2 else np.abs(err)
    _report_mask(rep, err > tol, constraint, err=np.max(err, initial=0.0))


def _check_padding(rep, X, width_used):
    if X.shape[1] > width_used:
        tail = X[:, width_used:]
        _report_mask(rep, np.any(tail != 0.0, axis=1), "zero padding exact")


def _angles(y, x):
    a = np.arctan2(y, x)
    return np.where(a < 0.0, a + TWO_PI, a)


def validate(cloud: PointCloud, spec: GeneratorSpec) -> ValidationReport:
    """Re-check every closed-form constraint the generator imposes."""
    info = dataset_info(spec.name)
    rep = ValidationReport(name=info.name, n=cloud.n)
    X = cloud.points
    if X.shape[1] != info.dim:
        rep.violations.append(f"ambient dim {X.shape[1]} != {info.dim}")
        return rep
    if info.note:
        rep.notes.append(info.note)
    d = info.d_param

    if info.name == "M1_Sphere":
        norms = np.sqrt(np.sum(X[:, : d + 1] ** 2, axis=1))
        _check_close(rep, norms - 1.0, "unit sphere norm")
        _check_padding(rep, X, d + 1)
    elif info.name == "M2_Affine_3to5":
        # left null space of the affine map: w^T (x - b) = 0 for all points
        u, s, _ = np.linalg.svd(_M2_A, full_matrices=True)
        W = u[:, 3:]
        _check_close(rep, (X - _M2_B) @ W, "affine plane membership", tol=1e-8)
        params = np.linalg.lstsq(_M2_A, (X - _M2_B).T, rcond=None)[0].T
        _check_range(rep, params, -VTOL, 4.0 + VTOL, "recovered parameters in [0,4]")
    elif info.name == "M3_Nonlinear_4to6":
        _check_range(rep, X[:, 0:2], -1.0, 1.0, "disk coordinates in [-1,1]")
        _check_range(rep, X[:, 2], 0.0, 3.0, "coordinate 3 in [0,3]")
        _check_range(rep, X[:, 3], -2.0, 2.0, "coordinate 4 in [-2,2]")
        _check_range(rep, X[:, 4], -3.0, 1.0, "coordinate 5 in [-3,1]")
        _check_range(rep, X[:, 5], -2.0, 2.0, "coordinate 6 in [-2,2]")
    elif info.name in ("M4_Nonlinear", "M6_Nonlinear", "M8_Nonlinear"):
        reps = info.dim // (2 * d)
        base = X[:, : 2 * d]
        if reps > 1:
            tiles = X.reshape(cloud.n, reps, 2 * d)
            _report_mask(
                rep,
                np.any(tiles != tiles[:, :1, :], axis=(1, 2)),
                "Kronecker block repetition exact",
            )
        radius = np.hypot(base[:, 0::2], base[:, 1::2])  # = x_{(k+1) mod d}
        angle = _angles(base[:, 1::2], base[:, 0::2])  # = 2 pi x_k
        _check_range(rep, radius, 0.0, 1.0, "disk radii in [0,1]")
        # radius of disk k equals the angle parameter of disk (k+1) mod d
        err = radius - np.roll(angle, -1, axis=1) / TWO_PI
        # near the wrap point 0 ~ 1 the angle is only defined modulo 1
        err = np.minimum(np.abs(err), np.abs(np.abs(err) - 1.0))
        _check_close(rep, err, "cyclic radius/angle chain")
    elif info.name == "M5b_Helix2d":
        rho = np.hypot(X[:, 0], X[:, 1])
        _check_range(rep, rho, 0.0, 10.0 * np.pi + VTOL, "radius in [0,10pi]")
        _check_range(rep, X[:, 2], 0.0, 5.0 * np.pi + VTOL, "height in [0,5pi]")
        err = np.stack(
            [X[:, 0] - rho * np.cos(2.0 * X[:, 2]), X[:, 1] - rho * np.sin(2.0 * X[:, 2])],
            axis=1,
        )
        _check_close(rep, err, "helix surface relation (p = 2 x3)", tol=1e-7)
        _check_padding(rep, X, 3)
    elif info.name == "M7_Roll":
        t = np.hypot(X[:, 0], X[:, 2])
        _check_range(rep, t, 1.5 * np.pi - VTOL, 4.5 * np.pi + VTOL, "t in [1.5pi,4.5pi]")
        _check_range(rep, X[:, 1], 0.0, 21.0, "p in [0,21]")
        err = np.stack([X[:, 0] - t * np.cos(t), X[:, 2] - t * np.sin(t)], axis=1)
        _check_close(rep, err, "roll surface relation", tol=1e-7)
        _check_padding(rep, X, 3)
    elif info.name == "M9_Affine":
        _check_range(rep, X[:, :d], -2.5, 2.5, "coordinates in [-2.5,2.5]")
        _check_padding(rep, X, d)
    elif info.name in ("M10a_Cubic", "M10b_Cubic", "M10c_Cubic"):
        body = X[:, : d + 1]
        on_facet = (body == 0.0) | (body == 1.0)
        _report_mask(
            rep,
            np.count_nonzero(on_facet, axis=1) != 1,
            "exactly one facet coordinate in {0,1}",
        )
        _check_range(rep, body, 0.0, 1.0, "coordinates in [0,1]")
        _check_padding(rep, X, d + 1)
    elif info.name == "M11_Moebius":
        rho = np.hypot(X[:, 0], X[:, 1])
        phi = _angles(X[:, 1], X[:, 0])
        w = rho - 1.0
        _report_mask(
            rep,
            w * w + X[:, 2] ** 2 > 0.25 + VTOL,
            "strip cross-section inside radius 1/2",
        )
        err = w * np.sin(5.0 * phi) - X[:, 2] * np.cos(5.0 * phi)
        _check_close(rep, err, "twist relation", tol=1e-7)
    elif info.name == "M12_Norm":
        _check_padding(rep, X, d)
        if not np.all(np.isfinite(X)):
            rep.violations.append("non-finite coordinates")
    elif info.name == "M13a_Scurve":
        _check_range(rep, X[:, 0], -1.0, 1.0, "sin t in [-1,1]")
        _check_range(rep, X[:, 1], 0.0, 2.0, "p in [0,2]")
        _check_range(rep, np.abs(X[:, 2]), 0.0, 2.0, "|x3| in [0,2]")
        err = X[:, 0] ** 2 + (1.0 - np.abs(X[:, 2])) ** 2 - 1.0
        _check_close(rep, err, "s-curve circle relation", tol=1e-7)
        _check_padding(rep, X, 3)
    elif info.name in ("Mn1_Nonlinear", "Mn2_Nonlinear"):
        b1 = X[:, 0:d]
        b2 = X[:, d : 2 * d]
        _report_mask(
            rep,
            np.any(X[:, 2 * d :] != np.hstack([b1, b2]), axis=1),
            "Kronecker block repetition exact",
        )
        _check_range(rep, b1, 0.0, np.tan(1.0), "tan block in [0,tan 1]")
        _check_range(rep, b2, 0.0, np.arctan(np.sin(1.0)), "arctan block in [0,atan(sin 1)]")
        # reconstruct the parameters from the paired coordinates and re-apply
        # phi: with A_i = x_i cos x_j and B_i = x_j sin x_i (j = d-1-i), the
        # ratio B_i / A_j equals tan x_i, so x_i = arctan(B_i / A_j).
        A = np.arctan(b1)
        Bv = np.tan(b2)
        Am = A[:, ::-1]  # A_j, the mirrored partner
        safe = Am > 1e-12
        xi = np.arctan(Bv / np.where(safe, Am, 1.0))
        xj = xi[:, ::-1]
        ok = safe & safe[:, ::-1]
        err = np.where(ok, A - xi * np.cos(xj), 0.0)
        _check_close(rep, err, "parameter consistency across paired coordinates", tol=1e-6)
    elif info.name == "Lollipop":
        stick = cloud.manifold_label == 1
        candy = ~stick
        Xs, Xc = X[stick], X[candy]
        if Xs.size:
            _report_mask(rep, Xs[:, 0] != Xs[:, 1], "stick on the diagonal x = y")
            _check_range(rep, Xs[:, 0], 0.0, STICK_MAX, "stick extent in [0, 2-1/sqrt(2)]")
        if Xc.size:
            _report_mask(
                rep,
                (Xc[:, 0] - 2.0) ** 2 + (Xc[:, 1] - 2.0) ** 2 > 1.0 + VTOL,
                "candy inside the unit disk at (2,2)",
            )
        if cloud.n >= 2000:
            frac = float(np.count_nonzero(stick)) / cloud.n
            if abs(frac - 0.05) > 0.01:
                rep.violations.append(
                    f"stick fraction {frac:.4f} outside 0.05 +/- 0.01"
                )
    elif info.name == "Uniform":
        _check_range(rep, X, 0.0, 1.0, "coordinates in [0,1]")
        tail = X[:, d - 1 :]
        _report_mask(
            rep,
            np.any(tail != tail[:, :1], axis=1),
            "replicated tail coordinates exact",
        )
    return rep


# --------------------------------------------------------------------------
# import/export
# --------------------------------------------------------------------------

_MAGIC = b"LIDC"
_BIN_VERSION = 1


def save_csv(cloud: PointCloud, path) -> None:
    """CSV with header x0..x{dim-1},label; 17 significant digits.

    Ground-truth LIDs ride along in a leading comment so the file
    round-trips without a side channel.
    """
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        gts = ",".join(_fmt(v) for v in cloud.gt_lid)
        fh.write(f"# gt_lid: {gts}\n")
        fh.write(",".join(f"x{i}" for i in range(cloud.dim)) + ",label\n")
        for row, lab in zip(cloud.points, cloud.manifold_label):
            fh.write(",".join(_fmt(v) for v in row) + f",{int(lab)}\n")


def _fmt(v: float) -> str:
    return "%.17g" % float(v)


def load_csv(path, gt_lid=None) -> PointCloud:
    """Read a file written by :func:`save_csv`; malformed input raises DatasetError."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            first = fh.readline()
            if first.startswith("# gt_lid:"):
                gt_lid = [float(v) for v in first.split(":", 1)[1].split(",")]
                header = fh.readline()
            else:
                header = first
            cols = header.strip().split(",")
            if cols[-1] != "label" or not cols[0].startswith("x"):
                raise DatasetError(f"{path}: expected header x0..x{{dim-1}},label")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except DatasetError:
            raise
        except ValueError as exc:  # also UnicodeDecodeError
            raise DatasetError(f"{path}: malformed CSV: {exc}") from exc
    if data.shape[1] != len(cols):
        raise DatasetError(f"{path}: rows have {data.shape[1]} columns, header has {len(cols)}")
    if gt_lid is None:
        raise DatasetError(f"{path}: CSV carries no gt_lid comment; pass gt_lid explicitly")
    labels = data[:, -1]
    if not np.all(labels == np.rint(labels)):
        raise DatasetError(f"{path}: manifold labels must be integers")
    return PointCloud(data[:, :-1], labels.astype(np.int64), np.asarray(gt_lid))


def save_binary(cloud: PointCloud, path) -> None:
    """Compact binary: header {n, dim, L, gt_lid list}, labels, points."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQII", _BIN_VERSION, cloud.n, cloud.dim, cloud.n_manifolds))
        fh.write(cloud.gt_lid.astype("<f8").tobytes())
        fh.write(cloud.manifold_label.astype("<i4").tobytes())
        fh.write(np.ascontiguousarray(cloud.points, dtype="<f8").tobytes())


def load_binary(path) -> PointCloud:
    """Read a file written by :func:`save_binary`; a short file raises DatasetError."""

    def read(fh, size: int, what: str) -> bytes:
        chunk = fh.read(size)
        if len(chunk) != size:
            raise DatasetError(
                f"{path}: truncated binary file ({what}: {len(chunk)} of {size} bytes)"
            )
        return chunk

    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise DatasetError(f"{path}: not a point-cloud binary file")
        version, n, dim, L = struct.unpack("<IQII", read(fh, 20, "header"))
        if version != _BIN_VERSION:
            raise DatasetError(f"{path}: unsupported binary version {version}")
        gt = np.frombuffer(read(fh, 8 * L, "gt_lid"), dtype="<f8")
        labels = np.frombuffer(read(fh, 4 * n, "labels"), dtype="<i4").astype(np.int64)
        points = np.frombuffer(read(fh, 8 * n * dim, "points"), dtype="<f8").reshape(n, dim)
    return PointCloud(points, labels, gt)
