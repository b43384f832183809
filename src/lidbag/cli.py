"""Command-line front end: generate, estimate, sweep, theory, report, bench.

All verbs write CSV into --out and print a short summary to stdout.  The
sweep verb accepts a JSON config file mirroring SweepGrid; explicit flags
override config values.  Every result CSV goes through
:func:`lidbag.sweep.write_csv`, whose floats (17 significant digits)
round-trip exactly; ``generate`` writes datasets with their own format.
"""

from __future__ import annotations

import argparse
import json
import sys
from operator import attrgetter
from pathlib import Path

from .datasets import (
    DATASET_NAMES,
    DatasetError,
    GeneratorSpec,
    generate,
    load_csv,
    save_binary,
    save_csv,
    validate,
)
from .estimators import METHODS, MLE_NORMALIZATIONS, EstimatorConfig, EstimatorError
from .bagging import DIVERGENCE_POLICIES, BaggingConfig, BaggingError
from .geometry import GeometryError
from .smoothing import VARIANTS, SmoothingConfig, SmoothingError, variant_estimates
from .evaluation import EvaluationError, decompose
from .theory import TheoryError, run_conditional_covariance, run_overlap, run_variance
from .sweep import (
    DEFAULT_B_GRID,
    SweepError,
    SweepGrid,
    benchmark_runtime,
    emit_heatmap_data,
    read_sweep_csv,
    run_sweep,
    write_best_csv,
    write_csv,
    write_heatmap_csv,
    write_skips_csv,
    write_sweep_csv,
    write_timing_csv,
)


def _csv_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _int_list(text: str) -> list[int]:
    return [int(t) for t in _csv_list(text)]


def _float_list(text: str) -> list[float]:
    return [float(t) for t in _csv_list(text)]


def _thread_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _out_dir(args) -> Path:
    """Create ``--out``; verbs call this only once they have a result to write,
    so a rejected run leaves no empty directory behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_datasets(arg: str) -> list[str]:
    if arg == "all":
        return list(DATASET_NAMES)
    names = _csv_list(arg)
    for name in names:
        if name not in DATASET_NAMES:
            raise SystemExit(
                f"unknown dataset {name!r}; known: {', '.join(DATASET_NAMES)}"
            )
    return names


def _cmd_generate(args) -> int:
    names = _resolve_datasets(args.dataset)
    failures = 0
    for name in names:
        spec = GeneratorSpec(name, n=args.n, seed=args.seed)
        cloud = generate(spec)
        out = _out_dir(args)
        if args.format in ("csv", "both"):
            save_csv(cloud, out / f"{name}.csv")
        if args.format in ("binary", "both"):
            save_binary(cloud, out / f"{name}.lidc")
        line = f"{name}: n={cloud.n} dim={cloud.dim} gt_lid={[float(g) for g in cloud.gt_lid]}"
        if not args.no_validate:
            report = validate(cloud, spec)
            line += f" validation={'OK' if report.ok else 'FAIL'}"
            for v in report.violations:
                line += f"\n  violation: {v}"
            for note in report.notes:
                line += f"\n  note: {note}"
            failures += 0 if report.ok else 1
        print(line)
    return 1 if failures else 0


def _cmd_estimate(args) -> int:
    if args.data:
        cloud = load_csv(args.data)
        label = Path(args.data).stem
    else:
        cloud = generate(GeneratorSpec(args.dataset, n=args.n, seed=args.seed))
        label = args.dataset
    est = EstimatorConfig(
        method=args.estimator, k=args.k, mle_normalization=args.mle_normalization
    )
    bag_cfg = None
    if args.variant.startswith("bagged"):
        bag_cfg = BaggingConfig(bags=args.bags, rate=args.r, seed=args.seed)
    s_cfg = None if args.k_s is None else SmoothingConfig(k_s=args.k_s)
    values, flags = variant_estimates(
        cloud, args.variant, est, bag_cfg, s_cfg,
        policy=args.policy, threads=args.threads,
    )
    path = _out_dir(args) / "estimates.csv"
    write_csv(path, ("query", "estimate", "divergent"), zip(range(cloud.n), values, flags))
    dec = decompose(values, cloud)
    print(f"{label}: {args.variant} {args.estimator} k={args.k}"
          + (f" r={args.r} B={args.bags}" if bag_cfg else ""))
    print(f"  mse={dec.total_mse:.6g} var={dec.total_var:.6g}"
          f" bias_sq={dec.total_bias_sq:.6g} divergent={int(flags.sum())}")
    for part in dec.per_manifold:
        print(f"  manifold {part.label}: gt={cloud.gt_lid[part.label - 1]:g}"
              f" mean_est={part.mean_estimate:.4f} mse={part.mse:.6g}"
              f" (weight {part.weight:.3f})")
    print(f"wrote {path}")
    return 0


def _grid_from_args(args) -> SweepGrid:
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SystemExit(f"{args.config}: invalid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise SystemExit(f"{args.config}: sweep config must be a JSON object")
    if args.datasets is not None:
        cfg["datasets"] = _resolve_datasets(args.datasets)
    elif "datasets" not in cfg:
        raise SystemExit("sweep needs --datasets or a config file listing them")
    if args.estimators is not None:
        cfg["estimators"] = _csv_list(args.estimators)
    if args.variants is not None:
        cfg["variants"] = _csv_list(args.variants)
    if args.k_values is not None:
        cfg["k_values"] = _int_list(args.k_values)
    if args.r_values is not None:
        cfg["r_values"] = _float_list(args.r_values)
    if args.b_values is not None:
        cfg["b_values"] = _int_list(args.b_values)
    if args.b_grid_default:
        cfg["b_values"] = list(DEFAULT_B_GRID)
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    if args.n is not None:
        cfg["n"] = args.n
    if args.k_s is not None:
        cfg["k_s"] = args.k_s
    if args.policy is not None:
        cfg["policy"] = args.policy
    if args.mle_normalization is not None:
        cfg["mle_normalization"] = args.mle_normalization
    return SweepGrid.from_dict(cfg)


def _cmd_sweep(args) -> int:
    grid = _grid_from_args(args)
    progress = None if args.quiet else lambda msg: print(f"[sweep] {msg}", flush=True)
    result = run_sweep(grid, threads=args.threads, progress=progress)
    out = _out_dir(args)
    write_sweep_csv(result, out / "results.csv", include_timing=args.timing_in_results)
    write_timing_csv(result, out / "timing.csv")
    write_skips_csv(result, out / "skips.csv")
    with open(out / "grid.json", "w") as fh:
        json.dump(grid.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{len(result.rows)} rows, {len(result.skips)} skipped cells"
          f" -> {out / 'results.csv'}")
    return 0


def _write_lines(path: Path, lines) -> None:
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def _cmd_theory(args) -> int:
    if args.experiment == "overlap":
        exp = run_overlap(args.n, args.m, args.trials, args.seed)
        cols = ("h", "observed", "expected_pmf")
        rows = zip(range(len(exp.pmf)), exp.histogram, exp.pmf)
        lines = exp.summary_lines()
    elif args.experiment == "variance":
        exps = [run_variance(args.n, args.r, B, args.trials, args.seed)
                for B in args.b_list or [args.bags]]
        cols = ("n", "r", "m", "B", "trials", "var_single", "var_bagged", "cov", "rho",
                "closed_form", "closed_form_analytic", "sandwich_ok")
        rows = [(e.n, e.r, e.m, e.B, e.trials, e.var_single, e.var_bagged, e.cov, e.rho,
                 e.closed_form(), e.closed_form_analytic, e.sandwich_ok) for e in exps]
        lines = [line for e in exps for line in (*e.summary_lines(), "")]
    else:  # conditional
        exp = run_conditional_covariance(args.n, args.r, args.trials, args.seed)
        cols = ("h", "count", "gamma_hat", "se", "gamma_analytic")
        rows = map(attrgetter(*cols), exp.bins)
        lines = exp.summary_lines()
    out = _out_dir(args)
    write_csv(out / f"{args.experiment}.csv", cols, rows)
    _write_lines(out / "summary.txt", lines)
    for line in lines:
        print(line)
    return 0


def _cmd_report(args) -> int:
    result = read_sweep_csv(args.results)
    out = _out_dir(args)
    write_best_csv(result, out / "best.csv")
    print(f"best-cell table -> {out / 'best.csv'}")
    estimators = sorted({r.estimator for r in result.rows})
    wanted = [args.estimator] if args.estimator else estimators
    variants = [args.variant] if args.variant else [
        v for v in VARIANTS if v.startswith("bagged")
    ]
    for est in wanted:
        for variant in variants:
            cells = emit_heatmap_data(
                result, estimator=est, variant=variant, y_axis=args.y_axis,
                fixed_k=args.fixed_k, fixed_b=args.fixed_b,
            )
            if not cells:
                continue
            path = out / f"heatmap_{est}_{variant}_{args.y_axis}.csv"
            write_heatmap_csv(cells, path, y_name=args.y_axis)
            print(f"{len(cells)} heatmap cells -> {path}")
    return 0


def _cmd_bench(args) -> int:
    points = benchmark_runtime(
        args.n_values, args.bags, args.r, args.estimator,
        k=args.k, seed=args.seed, repeats=args.repeats,
    )
    out = _out_dir(args)
    cols = ("n", "r", "B", "k", "estimator", "t_base_ms", "t_bag_ms", "rb",
            "predicted_bag_faster", "bag_faster", "agrees")
    write_csv(out / "bench.csv", cols, map(attrgetter(*cols), points))
    for p in points:
        verdict = "agrees with" if p.agrees else "CONTRADICTS"
        print(f"n={p.n} r*B={p.rb:g}: base {p.t_base_ms:.1f} ms,"
              f" bagged {p.t_bag_ms:.1f} ms -> {verdict} the r*B<1 prediction")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lidbag",
        description="Bagged and smoothed local intrinsic dimensionality estimation",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample benchmark datasets to files")
    g.add_argument("--dataset", default="all",
                   help="dataset name, comma list, or 'all'")
    g.add_argument("--n", type=int, default=2500)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--format", choices=("csv", "binary", "both"), default="csv")
    g.add_argument("--no-validate", action="store_true",
                   help="skip the constraint suite after sampling")
    g.add_argument("--out", required=True, help="output directory (created if missing)")
    g.set_defaults(fn=_cmd_generate)

    e = sub.add_parser("estimate", help="run one estimation pipeline")
    e.add_argument("--dataset", choices=DATASET_NAMES, help="built-in dataset")
    e.add_argument("--data", help="CSV written by 'generate' (overrides --dataset)")
    e.add_argument("--n", type=int, default=2500)
    e.add_argument("--estimator", choices=METHODS, default="mle")
    e.add_argument("--variant", choices=VARIANTS, default="bagged")
    e.add_argument("--k", type=int, default=10)
    e.add_argument("--k-s", dest="k_s", type=int, default=None,
                   help="smoothing neighborhood (default: the estimator's k)")
    e.add_argument("--r", type=float, default=0.1, help="bag sampling rate")
    e.add_argument("--bags", type=int, default=10, help="number of bags B")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--policy", choices=DIVERGENCE_POLICIES, default="clamp")
    e.add_argument("--mle-normalization", choices=MLE_NORMALIZATIONS,
                   default="k_minus_1")
    e.add_argument("--threads", type=_thread_count, default=1)
    e.add_argument("--out", required=True, help="output directory (created if missing)")
    e.set_defaults(fn=_cmd_estimate)

    s = sub.add_parser("sweep", help="evaluate a (dataset, k, r, B) grid")
    s.add_argument("--config", help="JSON file mirroring SweepGrid")
    s.add_argument("--datasets", help="comma list or 'all'")
    s.add_argument("--estimators", help="comma list from: " + ",".join(METHODS))
    s.add_argument("--variants", help="comma list from: " + ",".join(VARIANTS))
    s.add_argument("--k-values", dest="k_values")
    s.add_argument("--r-values", dest="r_values")
    s.add_argument("--b-values", dest="b_values")
    s.add_argument("--b-grid-default", action="store_true",
                   help="use the geometric 3..400 B grid")
    s.add_argument("--seed", type=int, default=None, help="master seed")
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--k-s", dest="k_s", type=int, default=None)
    s.add_argument("--policy", choices=DIVERGENCE_POLICIES, default=None)
    s.add_argument("--mle-normalization", choices=MLE_NORMALIZATIONS, default=None)
    s.add_argument("--threads", type=_thread_count, default=1)
    s.add_argument("--timing-in-results", action="store_true",
                   help="append wall_time_ms to results.csv (breaks byte-stability)")
    s.add_argument("--quiet", action="store_true")
    s.add_argument("--out", required=True, help="output directory (created if missing)")
    s.set_defaults(fn=_cmd_sweep)

    t = sub.add_parser("theory", help="Monte Carlo checks of the variance theory")
    t.add_argument("--experiment", choices=("overlap", "variance", "conditional"),
                   required=True)
    t.add_argument("--n", type=int, default=1000)
    t.add_argument("--m", type=int, default=100, help="bag size (overlap)")
    t.add_argument("--r", type=float, default=0.1)
    t.add_argument("--bags", type=int, default=10, help="B (variance)")
    t.add_argument("--b-list", type=_int_list, default=None,
                   help="comma list of B values (variance)")
    t.add_argument("--trials", type=int, default=5000)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True, help="output directory (created if missing)")
    t.set_defaults(fn=_cmd_theory)

    r = sub.add_parser("report", help="best-cell tables and heatmap CSVs")
    r.add_argument("--results", required=True, help="results.csv from 'sweep'")
    r.add_argument("--estimator", choices=METHODS, default=None)
    r.add_argument("--variant", choices=VARIANTS, default=None)
    r.add_argument("--y-axis", choices=("k", "B"), default="k")
    r.add_argument("--fixed-k", dest="fixed_k", type=int, default=None)
    r.add_argument("--fixed-b", dest="fixed_b", type=int, default=None)
    r.add_argument("--out", required=True, help="output directory (created if missing)")
    r.set_defaults(fn=_cmd_report)

    b = sub.add_parser("bench", help="naive-path runtime crossover check")
    b.add_argument("--n-values", dest="n_values", type=_int_list, default=[2500])
    b.add_argument("--r", type=float, default=0.05)
    b.add_argument("--bags", type=int, default=10)
    b.add_argument("--k", type=int, default=10)
    b.add_argument("--estimator", choices=METHODS, default="mle")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--repeats", type=int, default=3)
    b.add_argument("--out", required=True, help="output directory (created if missing)")
    b.set_defaults(fn=_cmd_bench)
    return p


# User-facing failures: bad arguments, infeasible grids, unreadable files.
# Anything else escaping a verb is a bug and should keep its traceback.
_CLI_ERRORS = (
    BaggingError,
    DatasetError,
    EstimatorError,
    EvaluationError,
    GeometryError,
    SmoothingError,
    SweepError,
    TheoryError,
    OSError,
    json.JSONDecodeError,
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "estimate" and not (args.dataset or args.data):
        raise SystemExit("estimate needs --dataset or --data")
    try:
        return args.fn(args)
    except _CLI_ERRORS as exc:
        raise SystemExit(f"lidbag {args.command}: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
