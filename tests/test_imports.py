"""Import footprint: numpy is the floor, each computation loads its own scipy.

``import lidbag`` loads numpy alone (~30 MB).  The first distance tile
loads ``scipy.spatial`` (~35 MB), and the overlap experiment loads
``scipy.special``, whose two ufuncs give ``scipy.stats``' overlap law bit
for bit without ``scipy.stats``' ~33 MB.  Each case runs in a fresh
interpreter and reports the ``scipy`` subpackages in ``sys.modules``.
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

GENERATE = """
from lidbag import GeneratorSpec, generate
generate(GeneratorSpec("M7_Roll", n=120, seed=0))
"""

RUN_VARIANCE = "import lidbag\nlidbag.run_variance(200, 0.1, 4, 50)"

RUN_CONDITIONAL = "import lidbag\nlidbag.run_conditional_covariance(200, 0.1, 50)"

RUN_OVERLAP = "import lidbag\nlidbag.run_overlap(40, 8, 200)"

# What ``python -m lidbag.cli <verb> ...`` runs, in a process that can still
# look at its modules when the verb exits.
VERB = """
import runpy
sys.argv = ["lidbag", *{argv!r}, "--out", "out"]
try:
    runpy.run_module("lidbag.cli", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
"""

SWEEP_ARGV = ["sweep", "--datasets", "M5b_Helix2d", "--estimators", "mle", "--k-values", "4",
              "--r-values", "0.25", "--b-values", "2", "--n", "140", "--quiet"]

THEORY_ARGV = ["theory", "--experiment", "variance", "--n", "200", "--trials", "50"]

# The first distance tiles of this process are computed on four pool
# threads at once (n = 1600 gives five query tiles), so four workers reach
# the first ``cdist`` import together; the serial rerun must give the same
# bytes.
FIRST_TILES_ON_THREADS = """
from lidbag import SweepGrid, run_sweep
from lidbag.geometry import _query_tiles
from lidbag.sweep import write_skips_csv, write_sweep_csv
assert "scipy.spatial" not in sys.modules
assert len(_query_tiles(1600, 1600)) >= 4
grid = SweepGrid(datasets=("M5b_Helix2d",), variants=("baseline", "bagged"),
                 k_values=(4,), r_values=(0.25,), b_values=(2,), n=1600)
out = []
for threads in (4, 1):
    result = run_sweep(grid, threads=threads)
    write_sweep_csv(result, f"results{threads}.csv")
    write_skips_csv(result, f"skips{threads}.csv")
    out.append(b"".join(open(f"{name}{threads}.csv", "rb").read()
                        for name in ("results", "skips")))
assert out[0] == out[1], "threads=4 and threads=1 wrote different bytes"
"""


def _scipy_loaded(code: str, cwd=None) -> set:
    """The ``scipy`` subpackages a fresh interpreter running ``code`` loads."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    script = (f"import sys\n{code}\n"
              "assert 'lidbag' in sys.modules\n"
              "print(' '.join(sorted({name.split('.')[1] for name in sys.modules\n"
              "                       if name.startswith('scipy.')\n"
              "                       and not name.split('.')[1].startswith('_')})))")
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("code", ["import lidbag", GENERATE, RUN_VARIANCE, RUN_CONDITIONAL],
                         ids=["import", "generate", "run_variance",
                              "run_conditional_covariance"])
def test_numpy_only_paths_load_no_scipy_subpackage(code):
    assert _scipy_loaded(code) == set()


def test_theory_variance_verb_loads_no_scipy_subpackage(tmp_path):
    assert _scipy_loaded(VERB.format(argv=THEORY_ARGV), cwd=tmp_path) == set()
    assert (tmp_path / "out" / "variance.csv").exists()


def test_overlap_experiment_loads_scipy_special_only():
    loaded = _scipy_loaded(RUN_OVERLAP)
    assert "special" in loaded
    assert not loaded & {"stats", "spatial"}, loaded


@pytest.mark.parametrize("code", [TINY_SWEEP, VARIANT_ESTIMATES],
                         ids=["run_sweep", "variant_estimates"])
def test_distance_paths_load_scipy_spatial_not_stats(code):
    loaded = _scipy_loaded(code)
    assert "spatial" in loaded
    assert "stats" not in loaded, loaded


def test_sweep_verb_loads_scipy_spatial_not_stats(tmp_path):
    loaded = _scipy_loaded(VERB.format(argv=SWEEP_ARGV), cwd=tmp_path)
    assert "spatial" in loaded
    assert "stats" not in loaded, loaded
    assert (tmp_path / "out" / "results.csv").exists()


def test_first_distance_import_on_pool_threads(tmp_path):
    assert "spatial" in _scipy_loaded(FIRST_TILES_ON_THREADS, cwd=tmp_path)
