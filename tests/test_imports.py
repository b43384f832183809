"""Import footprint: only the overlap experiment loads ``scipy.stats``.

``scipy.stats`` would add ~34 MB to the ~67 MB of ``import lidbag``, and
sweeps, the library estimators and most CLI verbs never use it.  Each case runs in a fresh interpreter and reports whether
``scipy.stats`` ended up in ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lidbag

SRC = str(Path(lidbag.__file__).resolve().parents[1])

TINY_SWEEP = """
from lidbag import SweepGrid, run_sweep
run_sweep(SweepGrid(datasets=("M5b_Helix2d",), variants=("baseline", "bagged", "bagged_pre_post"),
                    k_values=(4,), r_values=(0.25,), b_values=(2,), n=140))
"""

VARIANT_ESTIMATES = """
from lidbag import BaggingConfig, EstimatorConfig, GeneratorSpec, generate, variant_estimates
cloud = generate(GeneratorSpec("M7_Roll", n=120, seed=0))
variant_estimates(cloud, "bagged", EstimatorConfig(method="mle", k=4), BaggingConfig(2, 0.5, 0))
"""

# What ``python -m lidbag.cli sweep ...`` runs, in a process that can still
# look at its modules when the verb exits.
SWEEP_VERB = """
import runpy
sys.argv = ["lidbag", "sweep", "--datasets", "M5b_Helix2d", "--estimators", "mle",
            "--k-values", "4", "--r-values", "0.25", "--b-values", "2", "--n", "140",
            "--quiet", "--out", "out"]
try:
    runpy.run_module("lidbag.cli", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
"""


def _loads_scipy_stats(code: str, cwd=None) -> bool:
    """Whether a fresh interpreter running ``code`` imports ``scipy.stats``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    script = (f"import sys\n{code}\n"
              "assert 'lidbag' in sys.modules\nprint('scipy.stats' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {"True": True, "False": False}[proc.stdout.splitlines()[-1]]


@pytest.mark.parametrize("code", ["import lidbag", TINY_SWEEP, VARIANT_ESTIMATES],
                         ids=["import", "run_sweep", "variant_estimates"])
def test_library_paths_leave_scipy_stats_unloaded(code):
    assert not _loads_scipy_stats(code)


def test_sweep_verb_leaves_scipy_stats_unloaded(tmp_path):
    assert not _loads_scipy_stats(SWEEP_VERB, cwd=tmp_path)
    assert (tmp_path / "out" / "results.csv").exists()


def test_overlap_experiment_loads_scipy_stats():
    assert _loads_scipy_stats("import lidbag\nlidbag.run_overlap(40, 8, 200)")
