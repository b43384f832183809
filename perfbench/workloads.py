"""The benchmark's four workloads, built only from lidbag's public API.

A workload turns a seed into a list of :class:`Call`s.  Each call is one
public entry point (``run_sweep``, ``variant_estimates`` or a ``theory.run_*``
experiment) together with how many benchmark operations it stands for, how
many items of work it delivers, and how to digest its output for the
correctness gate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import lidbag
from lidbag.sweep import fmt_float

SWEEP_KR_DATASET = "M12_Norm"
SWEEP_BAGS_DATASETS = ("M7_Roll", "M12_Norm", "Uniform")
LIBRARY_CALLS = (("bagged", "mle"), ("bagged", "tle"), ("bagged_pre_post", "mle"))
VARIANCE_B = (1, 2, 5, 10, 50)


@dataclass
class Call:
    name: str
    run: Callable[[], object]
    ops: int  # operations this call counts for in attempted/failed
    items: Callable[[object], int]  # LID estimates or Monte Carlo trials delivered
    digest: Callable[[object], str]


@dataclass
class Workload:
    name: str
    build: Callable[[int, int, str], list[Call]]  # (data seed, thread-map width, out dir)
    arrays: dict  # computed array sizes, for the machine record


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _sweep_call(name: str, grid: lidbag.SweepGrid, threads: int, out_dir: str) -> Call:
    path = os.path.join(out_dir, f"{name}.csv")

    def digest(result) -> str:
        lidbag.write_sweep_csv(result, path)
        with open(path, "rb") as fh:
            return _sha(fh.read())

    return Call(
        name,
        lambda: lidbag.run_sweep(grid, threads=threads),
        grid.cell_count(),
        lambda result: len(result.rows) * grid.n,
        digest,
    )


def _sweep_kr(seed: int, threads: int, out_dir: str) -> list[Call]:
    grid = lidbag.SweepGrid(datasets=(SWEEP_KR_DATASET,), n=2500, master_seed=seed)
    return [_sweep_call("sweep", grid, threads, out_dir)]


def _sweep_bags(seed: int, threads: int, out_dir: str) -> list[Call]:
    grid = lidbag.SweepGrid(
        datasets=SWEEP_BAGS_DATASETS, variants=("bagged",), k_values=(10,),
        r_values=(0.05,), b_values=lidbag.DEFAULT_B_GRID, n=2500, master_seed=seed,
    )
    return [_sweep_call("sweep", grid, threads, out_dir)]


def _array_digest(out) -> str:
    values, flags = (np.ascontiguousarray(a) for a in out)
    return _sha(str((values.dtype, values.shape, flags.dtype, flags.shape)).encode(),
                values.tobytes(), flags.tobytes())


def _library_n8000(seed: int, threads: int, out_dir: str) -> list[Call]:
    cloud = lidbag.generate(lidbag.GeneratorSpec("M9_Affine", n=8000, seed=seed))
    bag_cfg = lidbag.BaggingConfig(bags=10, rate=0.05, seed=seed)
    calls = []
    for variant, method in LIBRARY_CALLS:
        est = lidbag.EstimatorConfig(method=method, k=10)
        calls.append(Call(
            f"{variant}-{method}",
            lambda v=variant, e=est: lidbag.variant_estimates(
                cloud, v, e, bag_cfg=bag_cfg, threads=threads),
            1,
            lambda out: int(out[0].shape[0]),
            _array_digest,
        ))
    return calls


def _fmt_fields(value) -> str:
    """Every field of an experiment record, floats through ``fmt_float``."""
    if dataclasses.is_dataclass(value):
        inner = ",".join(f"{f.name}={_fmt_fields(getattr(value, f.name))}"
                         for f in dataclasses.fields(value))
        return f"{type(value).__name__}({inner})"
    if isinstance(value, np.ndarray):
        return _fmt_fields(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt_fields(v) for v in value) + "]"
    if isinstance(value, (float, np.floating)):
        return fmt_float(value)
    return str(value)


def _theory_digest(out) -> str:
    return _sha(_fmt_fields(out).encode())


def _theory_lab(seed: int, threads: int, out_dir: str) -> list[Call]:
    def call(name, fn):
        return Call(name, fn, 1, lambda out: int(out.trials), _theory_digest)

    calls = [call("overlap", lambda: lidbag.run_overlap(100, 10, 100_000, seed=seed))]
    for B in VARIANCE_B:
        calls.append(call(f"variance-B{B}",
                          lambda B=B: lidbag.run_variance(1000, 0.1, B, 5000, seed=seed)))
    calls.append(call("conditional-covariance",
                      lambda: lidbag.run_conditional_covariance(1000, 0.1, 20_000, seed=seed)))
    return calls


def _dist_bytes(n: int) -> int:
    return 8 * n * n


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_kr", _sweep_kr, {
            "n": 2500, "dims": [lidbag.dataset_info(SWEEP_KR_DATASET).dim],
            "dist_block_bytes": _dist_bytes(2500),
            "bag_sizes_m": [math.ceil(2500 * r) for r in lidbag.DEFAULT_R_GRID],
            "table_depth_max": max(lidbag.DEFAULT_K_GRID),
        }),
        Workload("sweep_bags", _sweep_bags, {
            "n": 2500, "dims": [lidbag.dataset_info(d).dim for d in SWEEP_BAGS_DATASETS],
            "dist_block_bytes": _dist_bytes(2500), "bag_size_m": math.ceil(2500 * 0.05),
            "bags_per_dataset": max(lidbag.DEFAULT_B_GRID),
        }),
        Workload("library_n8000", _library_n8000, {
            "n": 8000, "dims": [lidbag.dataset_info("M9_Affine").dim],
            "dist_block_bytes": _dist_bytes(8000), "bag_size_m": math.ceil(8000 * 0.05),
        }),
        Workload("theory_lab", _theory_lab, {
            "overlap": {"n": 100, "m": 10, "trials": 100_000},
            "variance": {"n": 1000, "m": 100, "trials": 5000, "B": list(VARIANCE_B)},
            "conditional_covariance": {"n": 1000, "m": 100, "trials": 20_000},
        }),
    )
}
