"""Import footprint: numpy is the floor, each computation loads its own scipy.

``import lidbag`` loads numpy alone (~30 MB).  The first distance tile
loads scipy's compiled Euclidean kernel, ``scipy.spatial._distance_pybind``
(~1 MB), from its own file, without the ``scipy.spatial`` package (~35 MB,
with ``scipy.sparse`` and ``scipy.linalg``).  The overlap experiment loads
``scipy.special``, whose two ufuncs give ``scipy.stats``' overlap law bit
for bit without ``scipy.stats``' ~33 MB.  Each case runs in a fresh
interpreter and reports the full names of the ``scipy`` modules in
``sys.modules``.
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


KERNEL = "scipy.spatial._distance_pybind"

# Packages no distance path may load: the kernel's own package and what it
# imports, and the statistics package.
HEAVY = {"scipy.spatial", "scipy.sparse", "scipy.linalg", "scipy.stats"}

# The kernel first, then scipy's own cdist: both read the registered module
# and give the same bytes.
KERNEL_THEN_CDIST = """
import numpy as np
from lidbag.geometry import dist_block
rng = np.random.default_rng(0)
a, b = rng.normal(size=(40, 7)), rng.normal(size=(25, 7))
block = dist_block(a, b)
assert "scipy.spatial" not in sys.modules
import scipy.spatial.distance
from scipy.spatial.distance import cdist
assert scipy.spatial.distance._distance_pybind is sys.modules["scipy.spatial._distance_pybind"]
assert cdist(a, b).tobytes() == block.tobytes()
"""

# ``scipy.spatial`` first: ``dist_block`` uses the module it registered and
# loads no extension file of its own.
SPATIAL_FIRST = """
import importlib.util
import scipy.spatial
kernel = sys.modules["scipy.spatial._distance_pybind"]
def refuse(*args, **kwargs):
    raise AssertionError("loaded a second copy of the kernel")
importlib.util.spec_from_file_location = refuse
from lidbag.geometry import _euclidean_kernel, dist_block
assert dist_block([[0.0, 0.0]], [[3.0, 4.0]]).tolist() == [[5.0]]
assert _euclidean_kernel() is kernel.cdist_euclidean
assert sys.modules["scipy.spatial._distance_pybind"] is kernel
"""

MISSING_KERNEL = """
from lidbag.geometry import dist_block
try:
    dist_block([[0.0, 0.0]], [[3.0, 4.0]])
except ImportError as exc:
    print(exc)
else:
    raise AssertionError("dist_block ran without its kernel")
"""


def _run(code: str, cwd=None, path=()) -> str:
    """The output of a fresh interpreter running ``code``, with lidbag and
    the folders ``path`` first on its import path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [*map(str, path), SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", f"import sys\n{code}"], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def _scipy_loaded(code: str, cwd=None) -> set:
    """The full names of the ``scipy`` modules a fresh interpreter running
    ``code`` loads."""
    out = _run(f"{code}\n"
               "assert 'lidbag' in sys.modules\n"
               "print(' '.join(sorted(name for name in sys.modules\n"
               "                      if name.startswith('scipy.'))))", cwd=cwd)
    return set(out.splitlines()[-1].split())


def _within(loaded: set, package: str) -> set:
    """The names in ``loaded`` that are ``package`` or one of its modules."""
    return {name for name in loaded if name == package or name.startswith(package + ".")}


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
    assert "scipy.special" in loaded
    assert not _within(loaded, "scipy.stats") | _within(loaded, "scipy.spatial"), loaded


def _assert_kernel_alone(loaded: set):
    assert _within(loaded, "scipy.spatial") == {KERNEL}, loaded
    assert not loaded & HEAVY, loaded


@pytest.mark.parametrize("code", [TINY_SWEEP, VARIANT_ESTIMATES],
                         ids=["run_sweep", "variant_estimates"])
def test_distance_paths_load_the_kernel_alone(code):
    _assert_kernel_alone(_scipy_loaded(code))


def test_sweep_verb_loads_the_kernel_alone(tmp_path):
    _assert_kernel_alone(_scipy_loaded(VERB.format(argv=SWEEP_ARGV), cwd=tmp_path))
    assert (tmp_path / "out" / "results.csv").exists()


def test_first_distance_import_on_pool_threads(tmp_path):
    _assert_kernel_alone(_scipy_loaded(FIRST_TILES_ON_THREADS, cwd=tmp_path))


def test_kernel_then_scipy_cdist_share_one_module():
    assert "scipy.spatial" in _scipy_loaded(KERNEL_THEN_CDIST)


def test_dist_block_reuses_a_loaded_scipy_spatial():
    assert "scipy.spatial" in _scipy_loaded(SPATIAL_FIRST)


def test_missing_kernel_file_names_its_folder(tmp_path):
    # A scipy whose spatial folder holds no extension file.
    spatial = tmp_path / "scipy" / "spatial"
    spatial.mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text('__version__ = "0.0.missing"\n')
    out = _run(MISSING_KERNEL, path=[tmp_path])
    assert str(spatial) in out and "scipy 0.0.missing" in out, out
