"""Import footprint: numpy is the floor, each computation loads its own scipy.

``import lidbag`` loads numpy alone (~30 MB).  The first distance tile
loads scipy's compiled Euclidean kernel, ``scipy.spatial._distance_pybind``
(~1 MB), without the ``scipy.spatial`` package (~35 MB, with
``scipy.sparse`` and ``scipy.linalg``).  The overlap experiment loads the
compiled ``scipy.special._ufuncs`` and the compiled modules it imports
(~4 MB, ~0.01 s), whose two ufuncs give ``scipy.stats``' overlap law bit
for bit, without the ``scipy.special`` package (~24 MB, ~0.3 s) or
``scipy.stats`` (~33 MB).  Each case runs in a fresh interpreter and
reports the ``scipy`` modules in ``sys.modules`` with their files.  Other
cases load scipy's packages before or after lidbag's extensions, or while
one is loading, and check that every module is loaded once.
"""

import importlib.machinery
import json
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

OVERLAP_ARGV = ["theory", "--experiment", "overlap", "--n", "40", "--m", "8", "--trials", "200"]

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

# From here on, loading any scipy extension file fails the script, by
# whatever path the load comes.
REFUSE_SCIPY_EXTENSIONS = """
import importlib.machinery
create_module = importlib.machinery.ExtensionFileLoader.create_module
def refuse(self, spec):
    if spec.name.startswith("scipy."):
        raise AssertionError(f"loaded a second copy of {spec.name}")
    return create_module(self, spec)
importlib.machinery.ExtensionFileLoader.create_module = refuse
"""

# ``scipy.spatial`` first: ``dist_block`` uses the module it registered and
# loads no extension file of its own.
SPATIAL_FIRST = """
import scipy.spatial
kernel = sys.modules["scipy.spatial._distance_pybind"]
""" + REFUSE_SCIPY_EXTENSIONS + """
from lidbag.geometry import _scipy_extension, dist_block
assert dist_block([[0.0, 0.0]], [[3.0, 4.0]]).tolist() == [[5.0]]
assert _scipy_extension("spatial", "_distance_pybind") is kernel
assert sys.modules["scipy.spatial._distance_pybind"] is kernel
"""

# ``scipy.special`` first: ``run_overlap`` uses its ufuncs, loads nothing
# and leaves the package registered.
SPECIAL_FIRST = """
import scipy.special
special, ufuncs = scipy.special, sys.modules["scipy.special._ufuncs"]
""" + REFUSE_SCIPY_EXTENSIONS + """
import lidbag
lidbag.run_overlap(40, 8, 200)
assert sys.modules["scipy.special"] is special
assert sys.modules["scipy.special._ufuncs"] is ufuncs
"""

# The overlap experiment first, then ``scipy.stats``: its ``scipy.special``
# reuses the registered ufuncs, and its law gives the same bytes.
OVERLAP_THEN_STATS = """
import numpy as np
import lidbag
out = lidbag.run_overlap(40, 8, 200)
assert out.chi2_dof
ufuncs = sys.modules["scipy.special._ufuncs"]
assert "scipy.special" not in sys.modules
from scipy import stats
import scipy.special
assert scipy.special._ufuncs is ufuncs and sys.modules["scipy.special._ufuncs"] is ufuncs
assert stats.hypergeom(40, 8, 8).pmf(np.arange(9)).tobytes() == out.pmf.tobytes()
assert float(stats.chi2.sf(out.chi2_stat, out.chi2_dof)) == out.chi2_pvalue
"""

# Threads import ``scipy.special`` while the loader's package shell stands
# in ``sys.modules``: a finder that finds nothing stalls the loader's first
# look for ``_ufuncs`` until both threads have started.  Each must wait for
# the load and get the real package, not the shell: after its wait,
# ``import scipy.special`` hands back ``scipy``, whose ``special`` attribute
# imports the package, and ``from scipy.special import`` reads its names
# from the module object it was handed, the withdrawn shell.
SPECIAL_WHILE_LOADING = """
import threading, time
got, started = {}, threading.Barrier(3)

def import_special():
    started.wait(60)
    import scipy.special
    got["import"] = scipy.special

def import_from_special():
    started.wait(60)
    from scipy.special import chdtrc
    got["from"] = chdtrc

class Stall:
    threads = ()

    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special._ufuncs" and not self.threads:
            assert sys.modules["scipy.special"].__file__ is None  # the shell
            self.threads = [threading.Thread(target=run)
                            for run in (import_special, import_from_special)]
            for thread in self.threads:
                thread.start()
            started.wait(60)
            time.sleep(0.5)
        return None

stall = Stall()
sys.meta_path.insert(0, stall)
from lidbag.geometry import _scipy_extension
ufuncs = _scipy_extension("special", "_ufuncs")
for thread in stall.threads:
    thread.join(60)
    assert not thread.is_alive(), "an importing thread did not finish"
special = sys.modules["scipy.special"]
assert got == {"import": special, "from": ufuncs.chdtrc}, got
assert special._ufuncs is ufuncs and special.__file__
"""

# Calls whose scipy extension file is missing, by the package that holds it.
MISSING = {
    "spatial": "from lidbag.geometry import dist_block\ndist_block([[0.0, 0.0]], [[3.0, 4.0]])",
    "special": "import lidbag\nlidbag.run_overlap(40, 8, 200)",
}

MISSING_EXTENSION = """
try:
    exec({call!r})
except ImportError as exc:
    print(exc)
else:
    raise AssertionError("ran without its extension")
assert "scipy.{subpackage}" not in sys.modules, "left the package shell behind"
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


def _scipy_files(code: str, cwd=None) -> dict:
    """The ``scipy`` modules a fresh interpreter running ``code`` loads, by
    full name, each with its file (None for a module without one)."""
    out = _run(f"{code}\n"
               "import json\n"
               "assert 'lidbag' in sys.modules\n"
               "print(json.dumps({name: getattr(module, '__file__', None)\n"
               "                  for name, module in sys.modules.items()\n"
               "                  if name.startswith('scipy.')}))", cwd=cwd)
    return json.loads(out.splitlines()[-1])


def _scipy_loaded(code: str, cwd=None) -> set:
    """The full names of the ``scipy`` modules a fresh interpreter running
    ``code`` loads."""
    return set(_scipy_files(code, cwd=cwd))


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


def _assert_ufuncs_alone(files: dict):
    special = _within(files, "scipy.special")
    assert "scipy.special._ufuncs" in special and "scipy.special" not in special, special
    compiled = tuple(importlib.machinery.EXTENSION_SUFFIXES)
    python = {name for name in special if not (files[name] or "").endswith(compiled)}
    assert not python, f"pure-Python scipy.special modules: {python}"
    assert not _within(files, "scipy.stats") | _within(files, "scipy.spatial"), files


def test_overlap_experiment_loads_scipy_special_only():
    _assert_ufuncs_alone(_scipy_files(RUN_OVERLAP))


def test_theory_overlap_verb_loads_the_ufuncs_alone(tmp_path):
    _assert_ufuncs_alone(_scipy_files(VERB.format(argv=OVERLAP_ARGV), cwd=tmp_path))
    assert (tmp_path / "out" / "overlap.csv").exists()


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


def test_scipy_special_first_then_overlap_loads_nothing():
    assert "scipy.special" in _scipy_loaded(SPECIAL_FIRST)


def test_overlap_then_scipy_stats_share_the_ufuncs():
    assert "scipy.stats" in _scipy_loaded(OVERLAP_THEN_STATS)


def test_import_while_the_ufuncs_load_gets_the_package():
    assert "scipy.special" in _scipy_loaded(SPECIAL_WHILE_LOADING)


def _assert_missing_file_named(tmp_path, subpackage: str):
    # A scipy whose folder for ``subpackage`` holds no extension file.
    folder = tmp_path / "scipy" / subpackage
    folder.mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text('__version__ = "0.0.missing"\n')
    out = _run(MISSING_EXTENSION.format(call=MISSING[subpackage], subpackage=subpackage),
               path=[tmp_path])
    assert str(folder) in out and "scipy 0.0.missing" in out, out


def test_missing_kernel_file_names_its_folder(tmp_path):
    _assert_missing_file_named(tmp_path, "spatial")


def test_missing_ufuncs_file_names_its_folder(tmp_path):
    _assert_missing_file_named(tmp_path, "special")
