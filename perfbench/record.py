"""Record the reference output digests that the benchmark checks against.

    python3 perfbench/record.py                      # every workload, every data seed
    python3 perfbench/record.py --workload theory_lab --seeds 0,1

Each (workload, data seed) runs once in its own worker process at one
thread, so the ``sweep_bags`` reference is the single-threaded sweep and the
benchmark's two-thread check pass must reproduce it byte for byte.  Re-record only when a
change is meant to alter lidbag's outputs; the file is merged, not replaced.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from run import HERE, Worker
from spec import REFERENCE_SEEDS, WORKLOADS

REFERENCE = os.path.join(HERE, "reference.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seeds", default=",".join(map(str, range(REFERENCE_SEEDS))))
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if any(not 0 <= s < REFERENCE_SEEDS for s in seeds):
        ap.error(f"data seeds lie in 0..{REFERENCE_SEEDS - 1}")

    ref = {"workloads": {}}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            ref = json.load(fh)
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    for name in args.workload or WORKLOADS:
        for seed in seeds:
            run_args = argparse.Namespace(workload=name, seed=seed, seconds=1, trace=0, out=out)
            worker = Worker(run_args, ["--record"], time.monotonic() + 600)
            payload = worker.read("@result ")
            if worker.close() != 0 or payload is None:
                print(f"record: {name} seed {seed} failed", file=sys.stderr)
                return 1
            ref["workloads"].setdefault(name, {})[str(seed)] = json.loads(payload)["digests"]
            print(f"{name} seed {seed}: recorded", flush=True)
            with open(REFERENCE, "w") as fh:
                json.dump(ref, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
