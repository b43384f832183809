"""One workload in one process: set up, run timed repetitions, check outputs.

Started by ``run.py``; not meant to be run by hand.  Protocol on stdout:
``@ready`` once the inputs are built (the launcher times set-up up to that
line), then one ``@result <json>`` line.  With ``--setup-only`` the process
exits right after ``@ready``; with ``--record`` it runs each call once and
reports the digests instead of timings.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import numpy  # noqa: E402
import scipy  # noqa: E402

import lidbag  # noqa: E402

from spec import REFERENCE_SEEDS, check_threads  # noqa: E402
from tracer import Tracer, layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def _get(t: dict, name: str, key: str) -> float:
    return float(t.get(name, {}).get(key, 0.0))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


THEORY = ("theory.run_overlap", "theory.run_variance", "theory.run_conditional_covariance")

#: (span name, total, unit), reported as ``<span name>.<total>``.  ``busy_s``
#: is inclusive span time and ``self_s`` excludes child spans.
LAYER_TOTALS = [
    ("geometry.neighbor_tables", "calls", "count"),
    ("geometry.neighbor_tables", "busy_s", "s"),
    ("geometry.neighbor_tables", "cells_scanned", "count"),
    ("geometry.dist_block", "calls", "count"),
    ("geometry.dist_block", "busy_s", "s"),
    ("geometry.dist_block", "bytes_out", "B"),
    ("bagging.bag_tables", "self_s", "s"),
    ("bagging.draw_bags", "bags", "count"),
    ("bagging.estimates_from_tables", "self_s", "s"),
    ("estimators.batch_values", "calls", "count"),
    ("estimators.batch_values", "busy_s", "s"),
    ("estimators.batch_values", "estimates", "count"),
    ("smoothing.gather_mean", "busy_s", "s"),
    ("smoothing.gather_mean", "elements", "count"),
    ("smoothing.smooth", "busy_s", "s"),
    ("smoothing.variant_estimates", "self_s", "s"),
    ("bagging.AnchoredMean.add", "busy_s", "s"),
    ("bagging.AnchoredMean.result", "busy_s", "s"),
    ("evaluation.decompose", "calls", "count"),
    ("evaluation.decompose", "busy_s", "s"),
    ("sweep.run_sweep", "self_s", "s"),
    ("datasets.generate", "busy_s", "s"),
    *[(name, key, "s") for name in THEORY for key in ("busy_s", "self_s")],
]


def _layer_metrics(t: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repetition, from its layer totals."""
    out = {f"{name}.{key}": (_get(t, name, key), unit) for name, key, unit in LAYER_TOTALS}
    rows, skips = _get(t, "sweep.run_sweep", "rows"), _get(t, "sweep.run_sweep", "skips")
    out["estimators.batch_values.divergent_ratio"] = (_ratio(
        _get(t, "estimators.batch_values", "divergent"),
        _get(t, "estimators.batch_values", "estimates")), "ratio")
    out["sweep.rows"] = (rows, "count")
    out["sweep.useful_ratio"] = (_ratio(rows, rows + skips), "ratio")
    out["theory.trials"] = (sum(_get(t, name, "trials") for name in THEORY), "count")
    out["trace.spans"] = (sum(_get(t, name, "calls") for name in t if name != "op"), "count")
    return out


def _load_reference(workload: str, data_seed: int) -> dict[str, str]:
    try:
        with open(REFERENCE) as fh:
            return json.load(fh)["workloads"][workload][str(data_seed)]
    except (OSError, KeyError, ValueError) as exc:
        print(f"perfbench: no reference digests for {workload} seed {data_seed}: {exc!r}",
              file=sys.stderr)
        return {}


def _run_rep(calls, reference, tracer=None, rep=0):
    """One pass over the workload's calls: timing, output checks and counts."""
    rec = {"wall_s": 0.0, "cpu_s": 0.0, "items": 0, "attempted": 0, "failed": 0,
           "digests": {}}
    for call in calls:
        rec["attempted"] += call.ops
        scope = tracer.operation(f"rep{rep}/{call.name}") if tracer else contextlib.nullcontext()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with scope:
                out = call.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"perfbench: {call.name} raised {exc!r}", file=sys.stderr)
            rec["failed"] += call.ops
            rec["digests"][call.name] = None
            continue
        finally:
            rec["wall_s"] += time.perf_counter() - t0
            rec["cpu_s"] += time.process_time() - c0
        digest = call.digest(out)
        rec["digests"][call.name] = digest
        rec["items"] += call.items(out)
        if digest != reference.get(call.name):
            print(f"perfbench: {call.name} output digest {digest} does not match the"
                  f" reference {reference.get(call.name)}", file=sys.stderr)
            rec["failed"] += call.ops
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(os.path.realpath(os.path.join(ROOT, "src")), "")
    if not os.path.realpath(lidbag.__file__).startswith(src):
        print(f"perfbench: lidbag was imported from {lidbag.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    workload = WORKLOADS[args.workload]
    data_seed = args.seed % REFERENCE_SEEDS
    width = None if args.record or args.setup_only else check_threads(args.workload)
    setup_tracer = Tracer()
    with setup_tracer if args.trace else contextlib.nullcontext():
        with setup_tracer.operation("setup"):
            calls = workload.build(data_seed, 1, args.out)
    check_calls = workload.build(data_seed, width, args.out) if width else None
    print("@ready", flush=True)
    if args.setup_only:
        return 0

    if args.record:
        digests = {call.name: call.digest(call.run()) for call in calls}
        print("@result " + json.dumps({"digests": digests}), flush=True)
        return 0

    reference = _load_reference(args.workload, data_seed)
    setup_spans = setup_tracer.spans if args.trace else []
    plain, traced, spans = [], [], list(setup_spans)
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        use_trace = bool(args.trace) and len(traced) < len(plain)
        if use_trace:
            tracer = Tracer()
            with tracer:
                rec = _run_rep(calls, reference, tracer, len(plain) + len(traced))
            rec["totals"] = layer_totals(setup_spans + tracer.spans)
            spans.extend(tracer.spans)
            traced.append(rec)
        else:
            plain.append(_run_rep(calls, reference))
        if peak_rss_mb is None:
            # Set-up plus one pass, as a one-shot run needs; later passes
            # only add allocator fragmentation, which varies from run to run.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Stop before a repetition that would end past --seconds.
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / (len(plain) + len(traced))) > args.seconds:
            if traced or not args.trace:
                break

    checked = [_run_rep(check_calls, reference)] if check_calls else []
    reps = checked + plain + traced
    wall = statistics.median(r["wall_s"] for r in plain)
    result = {
        "walls": [r["wall_s"] for r in plain],
        "check_walls": [r["wall_s"] for r in checked],
        "wall_s": wall,
        "items": plain[0]["items"],
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "digests_agree": all(r["digests"] == reps[0]["digests"] for r in reps),
        "peak_rss_mb": peak_rss_mb,
        "check_threads": width,
        "data_seed": data_seed,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "arrays": workload.arrays,
    }
    if args.trace:
        layers = [_layer_metrics(r["totals"]) for r in traced]
        per_layer = {name: (statistics.median(m[name][0] for m in layers), unit)
                     for name, (_, unit) in layers[0].items()}
        is_sweep = "sweep.run_sweep" in traced[0]["totals"]
        cpu = statistics.median(r["cpu_s"] for r in plain) if is_sweep else 0.0
        per_layer["sweep.run_sweep.cpu_s"] = (cpu, "s")
        # Parallel efficiency of the widest pass: the thread-independence
        # check where there is one, else the one-thread repetitions.
        par = checked[0] if checked else {"cpu_s": cpu, "wall_s": wall}
        per_layer["sweep.run_sweep.parallel_eff"] = (
            _ratio(par["cpu_s"], par["wall_s"] * (width or 1)) if is_sweep else 0.0, "ratio")
        per_layer["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - wall, "s")
        result["traced_walls"] = [r["wall_s"] for r in traced]
        result["per_layer"] = per_layer
        trace_path = os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "fields": ["id", "name", "start", "end", "parent", "thread", "op", "work"],
                       "spans": [list(s) for s in spans]}, fh)
        result["trace_file"] = os.path.relpath(trace_path, ROOT)
    print("@result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
