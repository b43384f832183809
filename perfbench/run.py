"""lidbag benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload sweep_kr --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  The workload runs in a fresh Python process
(``worker.py``) that imports lidbag from ``src/`` of the checkout, with its
BLAS/OpenMP pools capped at one thread.  Set-up is timed
from process start to the worker's ``@ready`` line, on that worker and on
``SETUP_PROBES`` extra set-up-only processes, and reported as their median.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the per-layer ones from a traced run
(the spans are written to ``perfbench/out/``).  Earlier lines starting with
``#`` record the machine and the raw samples.  Exits 2 when the checkout has
no lidbag sources, 1 when a worker fails or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spec import THREAD_ENV, WORKLOADS  # noqa: E402

SETUP_PROBES = 2  # set-up-only processes besides the measuring worker
TIME_LIMIT_S = 170.0  # whole run, set-up probes included


def machine_facts() -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            facts[key.strip().lower().replace(" ", "_")] = value.strip()
    if "l3_cache" not in facts:
        try:
            with open("/proc/cpuinfo") as fh:
                m = re.search(r"^cache size\s*:\s*(.+)$", fh.read(), re.M)
            if m:
                facts["cpuinfo_cache_size"] = m.group(1).strip()
        except OSError:
            pass
    return facts


class Worker:
    """A worker process, killed if the run's time limit passes."""

    def __init__(self, args, extra: list[str], deadline: float):
        env = dict(os.environ, **THREAD_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", args.out, *extra]
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
        self._timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self._timer.start()

    def read(self, prefix: str) -> str | None:
        """Rest of the first stdout line starting with ``prefix``; None at EOF."""
        for line in self.proc.stdout:
            if line.startswith(prefix):
                return line[len(prefix):].strip()
        return None

    def close(self) -> int:
        try:
            self.proc.stdout.read()
            return self.proc.wait()
        finally:
            self._timer.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()

    def ready_after(self) -> float | None:
        """Seconds from process start to ``@ready``, or None if it never came."""
        if self.read("@ready") is None:
            return None
        return time.perf_counter() - self.start


def end_to_end(res: dict, setup: list[float]) -> dict:
    wall = res["wall_s"]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "items_per_s": {"value": res["items"] / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "lidbag", "__init__.py")):
        print(f"perfbench: no lidbag sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    args.out = os.path.join(HERE, "out")
    os.makedirs(args.out, exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S

    setup: list[float] = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = Worker(args, ["--setup-only"], deadline)
            setup.append(probe.ready_after())
            if probe.close() != 0 or setup[-1] is None:
                print("perfbench: a set-up probe failed", file=sys.stderr)
                return 1
    worker = Worker(args, [], deadline)
    setup.append(worker.ready_after())
    payload = worker.read("@result ") if setup[-1] is not None else None
    code = worker.close()
    if code != 0 or payload is None:
        print(f"perfbench: the {args.workload} worker failed (exit {code})", file=sys.stderr)
        return 1
    res = json.loads(payload)

    facts = dict(machine_facts(), **res["versions"], check_threads=res["check_threads"])
    print("# machine " + json.dumps(facts))
    print("# arrays " + json.dumps(res["arrays"]))
    print("# samples " + json.dumps({
        "setup_s": setup, "wall_s": res["walls"], "traced_wall_s": res.get("traced_walls"),
        "check_wall_s": res["check_walls"],
        "data_seed": res["data_seed"], "trace_file": res.get("trace_file")}))
    print(f"# failed_frac {res['failed'] / res['attempted']:.6g}"
          f" ({res['failed']} of {res['attempted']} operations)")
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["per_layer"].items()}
    else:
        metrics = end_to_end(res, setup)
    correct = res["failed"] == 0 and res["digests_agree"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
