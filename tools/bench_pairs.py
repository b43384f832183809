"""Alternated before/after benchmark pairs: a parent ref against the working tree.

    python3 tools/bench_pairs.py --parent HEAD --pr 6 --workloads sweep_kr,sweep_bags \
        --seeds 600-609

Run from the root of the repository.  Both sides run from copies built the
same way (``git archive``, removed again on exit), in sibling directories
whose paths have equal length, so where a side runs from cannot tell the
two apart: ``.bench_build/parent`` holds the parent ref's committed files,
and ``.bench_build/change`` the working tree's tracked files, uncommitted
edits included (``git stash create``, which leaves the tree and the stash
list alone).  Untracked files are not part of the measured code.  Unlike a
``git worktree``, a copy registers nothing in the repository's ``.git``, so
a build directory deleted by hand or left by a killed run cannot block the
next run.  For every workload and seed the script runs

    python3 perfbench/run.py --workload W --seed S --seconds 25 --trace 0

once in each checkout, as one pair, and alternates which side of a pair
runs first.  It writes ``BENCH_<pr>.json`` at the repository root, with one
entry per workload:

- ``metrics``: for each end-to-end metric of ``BENCHMARK.json``, the median
  and quartiles of both sides, the number of pairs the change won and tied
  (by the metric's ``better`` direction), the median gap (positive when the
  change is better) and whether it exceeds the parent's interquartile
  range, and two verdicts:

  - ``gain_resolved``: the change won at least nine tenths of the pairs
    (ties count for neither side) and the median gap exceeds the parent's
    interquartile range;
  - ``within_bound``: the change's median is worse than the parent's by no
    more than the metric's relative ``bound``; ``"unresolved"`` when either
    side's interquartile range, relative to its median, is wider than the
    bound, unless every run of the change beat every run of the parent;
- ``correct`` and ``failed``: whether every run of a side reported
  ``correct: true``, and the failed operations summed over its runs;
- ``runs``: every pair's raw metrics.

With ``--traced W``, each side also runs workload W once with ``--trace 1``
at the first seed, and ``traced`` keeps both result lines, whose per-layer
metrics show where a change's time went.

The file also records the machine (CPUs, CPU model, Python, numpy and scipy
versions, as ``perfbench/run.py`` reports them, and under ``simd_found`` the
SIMD targets numpy dispatches to in the runs' environment, the ``found`` list
of ``np.show_runtime()``: they decide which sort and ``np.log`` kernels a run
timed) and both commits.  Both sides run the same interpreter in the same
environment, so one probe serves both.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def _git(*args: str, root: str = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


def _checkouts(parent: str, root: str, build: str) -> dict[str, str]:
    """Unpack the parent commit and the working tree's tracked files into
    ``build/parent`` and ``build/change``; returns the side -> path map."""
    # ``git stash create`` prints nothing when no tracked file differs from HEAD.
    change = _git("stash", "create", root=root) or _git("rev-parse", "HEAD", root=root)
    commits = {"parent": _git("rev-parse", parent, root=root), "change": change}
    shutil.rmtree(build, ignore_errors=True)
    paths = {}
    for side, commit in commits.items():
        paths[side] = os.path.join(build, side)
        archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=root,
                                 check=True, capture_output=True).stdout
        tarfile.open(fileobj=io.BytesIO(archive)).extractall(paths[side], filter="data")
    return paths


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


#: Prints the SIMD targets numpy found, as ``np.show_runtime()`` lists them.
_SIMD_PROBE = """
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
print(" ".join(f for f in __cpu_dispatch__ if __cpu_features__[f]))
"""


def _simd_found() -> list[str]:
    """The SIMD targets numpy finds in a process started like a run."""
    return subprocess.run([sys.executable, "-c", _SIMD_PROBE], check=True,
                          capture_output=True, text=True).stdout.split()


def _run(checkout: str, workload: str, seed: int, seconds: float,
         trace: int = 0) -> tuple[dict, dict]:
    """One benchmark run: (result line, machine facts)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed "
                           f"(exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
    machine = {}
    for line in lines:
        if line.startswith("# machine "):
            machine = json.loads(line[len("# machine "):])
    return json.loads(lines[-1]), machine


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _compare(declared: list[dict], pairs: list[dict]) -> dict:
    out = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if lower else -1  # a positive gap favours the change
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        ties = sum(p == c for p, c in zip(parent, change))
        before, after = _summary(parent), _summary(change)
        gap = sign * (before["median"] - after["median"])
        spread = max(side["iqr"] / abs(side["median"]) for side in (before, after))
        if (max(change) < min(parent)) if lower else (min(change) > max(parent)):
            within = True
        elif spread > metric["bound"]:
            within = "unresolved"
        else:
            within = -gap / abs(before["median"]) <= metric["bound"]
        out[name] = {"unit": metric["unit"], "better": metric["better"], "parent": before,
                     "change": after, "change_wins": wins, "ties": ties, "pairs": len(pairs),
                     "median_gap": gap, "gap_exceeds_parent_iqr": gap > before["iqr"],
                     "gain_resolved": 10 * wins >= 9 * len(pairs) and gap > before["iqr"],
                     "within_bound": within}
    return out


def _write(report: dict, path: str) -> None:
    """Written after every workload, so an interrupted run keeps what it measured."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent commit")
    ap.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", required=True, help="e.g. 600-609 or 1,4,7")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--traced", default="",
                    help="comma-separated workloads to run once more per side with --trace 1, "
                         "at the first seed")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["end_to_end"]
    workloads, seeds = args.workloads.split(","), _seeds(args.seeds)
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")

    try:
        checkouts = _checkouts(args.parent, ROOT, BUILD)
        report = {
            "command": "python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {args.seconds:g} --trace 0",
            "parent": {"ref": args.parent, "commit": _git("rev-parse", args.parent)},
            "change": {"commit": _git("rev-parse", "HEAD"),
                       "uncommitted_changes": bool(_git("status", "--porcelain",
                                                        "--untracked-files=no"))},
            "machine": {"simd_found": _simd_found()},
            "workloads": {},
            "traced": {},
        }
        for workload in workloads:
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side], machine = _run(checkouts[side], workload, seed, args.seconds)
                    report["machine"] = dict(machine, **report["machine"])
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} wall_s {pair[side]['metrics']['wall_s']['value']:.3f}"
                    f" peak_rss_mb {pair[side]['metrics']['peak_rss_mb']['value']:.1f}"
                    for side in ("parent", "change")), flush=True)
            report["workloads"][workload] = {
                "seeds": seeds,
                "metrics": _compare(declared, pairs),
                "correct": {side: all(p[side]["correct"] for p in pairs)
                            for side in ("parent", "change")},
                "failed": {side: sum(p[side]["failed"] for p in pairs)
                           for side in ("parent", "change")},
                "runs": pairs,
            }
            _write(report, path)
        for workload in filter(None, args.traced.split(",")):
            report["traced"][workload] = {"seed": seeds[0], "command": report["command"].replace(
                "--trace 0", "--trace 1")}
            for side in ("parent", "change"):
                report["traced"][workload][side], _ = _run(
                    checkouts[side], workload, seeds[0], args.seconds, 1)
            _write(report, path)
    finally:
        shutil.rmtree(BUILD, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
