"""Sweep engine determinism and accounting, reports, CSV IO, and the CLI."""

import dataclasses
import hashlib
import importlib.util
import json
import os

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from lidbag.bagging import BaggingConfig
from lidbag.cli import main
from lidbag.datasets import DATASET_NAMES, GeneratorSpec, generate, load_csv
from lidbag.estimators import EstimatorConfig
from lidbag.evaluation import decompose
from lidbag.smoothing import VARIANTS, variant_estimates
from lidbag.sweep import (
    DEFAULT_B_GRID,
    DEFAULT_K_GRID,
    DEFAULT_R_GRID,
    SWEEP_COLUMNS,
    SweepGrid,
    SweepError,
    _derive_seed,
    benchmark_runtime,
    emit_heatmap_data,
    fmt_float,
    geometric_grid,
    integer_grid,
    read_sweep_csv,
    run_sweep,
    write_best_csv,
    write_csv,
    write_heatmap_csv,
    write_skips_csv,
    write_sweep_csv,
    write_timing_csv,
)
from lidbag.theory import run_variance

SMALL = dict(
    datasets=("M5b_Helix2d",),
    estimators=("mle",),
    k_values=(4,),
    r_values=(0.25, 1.0),
    b_values=(2, 3),
    n=140,
)


#: The grid of acceptance criterion C10.
C10 = dict(
    datasets=("M5b_Helix2d", "M12_Norm"), estimators=("mle",),
    k_values=(5, 10), r_values=(0.1, 0.3, 1.0), b_values=(2, 5), n=800,
)

#: sha256 of results.csv and skips.csv for each grid, at every thread
#: count.  Floats are printed to 17 digits, so another numpy or scipy, or
#: numpy's code for another SIMD target, may round a last bit differently;
#: the values were recorded with numpy 2.4.6 and scipy 1.17.1 on a CPU
#: where numpy found X86_V3, X86_V4, AVX512_ICL and AVX512_SPR.
PINNED = {
    "SMALL": ("7e06f0fea980290f268a15b362787c00233be8b5b7677e7fbadb59e217b6c754",
              "1fab845f3ab695dfcc0e33e0588bd6437afbb8331e9942c6054f3721bb216754"),
    "C10": ("703c2b965f2ed5ec0136d25ec540260619d64bc9326e98593adb45a8e2c8db9a",
            "1fab845f3ab695dfcc0e33e0588bd6437afbb8331e9942c6054f3721bb216754"),
}


def simd_found():
    """The SIMD targets numpy dispatches to on this CPU, the ``found`` list
    of ``np.show_runtime()``, by the probe that ``tools/bench_pairs.py``
    records with each benchmark."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", "bench_pairs.py")
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs._simd_found()


class TestGrids:
    def test_geometric_grid_hits_endpoints_exactly(self):
        g = geometric_grid(0.042, 0.6, 9)
        assert g[0] == 0.042
        assert g[-1] == 0.6
        assert len(g) == 9
        assert np.all(np.diff(g) > 0)
        ratios = g[1:] / g[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)

    def test_integer_grid_rounds_and_dedupes(self):
        assert integer_grid(2, 3, 5) == (2, 3)
        assert integer_grid(5, 5, 3) == (5,)

    def test_frozen_default_grids(self):
        assert DEFAULT_K_GRID == (5, 7, 10, 14, 19, 26, 37, 52, 72)
        assert DEFAULT_B_GRID == (3, 4, 5, 6, 8, 11, 14, 18, 24, 30, 39, 51,
                                  66, 85, 110, 143, 185, 239, 309, 400)
        assert len(DEFAULT_R_GRID) == 9
        assert DEFAULT_R_GRID[0] == 0.042
        assert DEFAULT_R_GRID[-1] == 0.6


class TestSweepGridValidation:
    def test_accepts_small_grid(self):
        grid = SweepGrid(**SMALL)
        assert grid.cell_count() == 1 * 1 * (2 + 4 * 2 * 2)  # 2 flat + bagged lattice

    @pytest.mark.parametrize(
        "patch",
        [
            dict(datasets=()),
            dict(datasets=("M5b_Helix2d", "M5b_Helix2d")),
            dict(datasets=("M99_Nope",)),
            dict(estimators=("pca",)),
            dict(variants=("tripled",)),
            dict(k_values=(1,)),
            dict(r_values=(0.0,)),
            dict(r_values=(1.5,)),
            dict(b_values=(3, 2)),
            dict(b_values=(2, 2)),
            dict(n=1),
            dict(k_s=0),
            dict(policy="drop"),
            dict(mle_normalization="median"),
            dict(master_seed=-1),
        ],
    )
    def test_rejects_bad_configs(self, patch):
        with pytest.raises(SweepError):
            SweepGrid(**{**SMALL, **patch})

    def test_dict_round_trip(self):
        grid = SweepGrid(**SMALL)
        assert SweepGrid.from_dict(grid.to_dict()) == grid

    def test_from_dict_expands_all_and_rejects_junk_keys(self):
        grid = SweepGrid.from_dict({"datasets": "all", "k_values": [5]})
        assert grid.datasets == DATASET_NAMES
        with pytest.raises(SweepError):
            SweepGrid.from_dict({"datasets": ["M1_Sphere"], "bogus": 1})

    def test_smoothing_k_defaults_to_cell_k(self):
        assert SweepGrid(**SMALL).smoothing_k(9) == 9
        assert SweepGrid(**{**SMALL, "k_s": 6}).smoothing_k(9) == 6


class TestRunSweep:
    def test_cell_accounting_and_row_shape(self):
        grid = SweepGrid(**SMALL)
        result = run_sweep(grid)
        assert len(result.rows) + len(result.skips) == grid.cell_count()
        for row in result.rows:
            assert row.variant in VARIANTS
            assert row.mse == pytest.approx(row.var + row.bias_sq, abs=1e-12)
            assert row.seed == grid.master_seed

    def test_baseline_rows_keyed_r1_b1(self):
        result = run_sweep(SweepGrid(**SMALL))
        flats = [r for r in result.rows if r.variant in ("baseline", "smoothed")]
        assert flats
        for row in flats:
            assert (row.r, row.B) == (1.0, 1)

    def test_deterministic_across_runs_and_threads(self, tmp_path):
        grid = SweepGrid(**SMALL)
        paths = []
        for i, threads in enumerate((1, 3)):
            result = run_sweep(grid, threads=threads)
            p = tmp_path / f"run{i}.csv"
            write_sweep_csv(result, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_rate_one_bagged_rows_reproduce_baseline(self):
        result = run_sweep(SweepGrid(**SMALL))
        lookup = result.row_lookup()
        base = lookup[("M5b_Helix2d", "mle", "baseline", 4, 1.0, 1)]
        for B in (2, 3):
            bagged = lookup[("M5b_Helix2d", "mle", "bagged", 4, 1.0, B)]
            assert bagged.mse == base.mse  # bitwise, not approx
            assert bagged.var == base.var
            assert bagged.bias_sq == base.bias_sq
        smoothed = lookup[("M5b_Helix2d", "mle", "smoothed", 4, 1.0, 1)]
        post = lookup[("M5b_Helix2d", "mle", "bagged_post", 4, 1.0, 3)]
        assert post.mse == smoothed.mse

    def test_b_checkpoints_match_separate_runs(self):
        joint = run_sweep(SweepGrid(**{**SMALL, "b_values": (2, 4)}))
        alone = run_sweep(SweepGrid(**{**SMALL, "b_values": (4,)}))
        jl = joint.row_lookup()
        for key, row in alone.row_lookup().items():
            if key[2].startswith("bagged"):
                assert jl[key].mse == row.mse

    def test_rows_match_public_pipelines_bitwise(self):
        # The sweep's cached/shared-table fast path must equal running each
        # named pipeline in isolation with the same derived seeds.
        grid = SweepGrid(**SMALL)
        result = run_sweep(grid)
        lookup = result.row_lookup()
        name = "M5b_Helix2d"
        cloud = generate(GeneratorSpec(
            name, n=grid.n,
            seed=_derive_seed(grid.master_seed, DATASET_NAMES.index(name), 0),
        ))
        est = EstimatorConfig(method="mle", k=4)
        for ri, r in enumerate(grid.r_values):
            bag_seed = _derive_seed(grid.master_seed, DATASET_NAMES.index(name), 1, ri)
            for B in grid.b_values:
                for variant in ("bagged", "bagged_post", "bagged_pre", "bagged_pre_post"):
                    bag_cfg = BaggingConfig(bags=B, rate=r, seed=bag_seed)
                    values, _ = variant_estimates(cloud, variant, est, bag_cfg)
                    dec = decompose(values, cloud)
                    row = lookup[(name, "mle", variant, 4, r, B)]
                    assert row.mse == dec.total_mse, (variant, r, B)
                    assert row.var == dec.total_var
                    assert row.bias_sq == dec.total_bias_sq

    def test_infeasible_cells_become_skips_with_reasons(self):
        grid = SweepGrid(
            datasets=("M5b_Helix2d",), estimators=("mle",),
            k_values=(10,), r_values=(0.05,), b_values=(2,), n=100,
        )  # m = 5: every bagged cell needs k <= 4
        result = run_sweep(grid)
        bagged_rows = [r for r in result.rows if r.variant.startswith("bagged")]
        assert not bagged_rows
        assert len(result.skips) == 4
        for skip in result.skips:
            assert "k=10" in skip.reason
            assert "raise r or lower k" in skip.reason

    def test_partial_skips_keep_feasible_variants(self):
        # k_s too large for in-bag smoothing but fine on the full cloud:
        # only the pre variants drop out.
        grid = SweepGrid(
            datasets=("M5b_Helix2d",), estimators=("mle",),
            k_values=(4,), r_values=(0.25,), b_values=(2,), n=140, k_s=50,
        )  # m = 35
        result = run_sweep(grid)
        kept = {r.variant for r in result.rows}
        assert {"baseline", "smoothed", "bagged", "bagged_post"} <= kept
        dropped = {s.variant for s in result.skips}
        assert dropped == {"bagged_pre", "bagged_pre_post"}
        for s in result.skips:
            assert "k_s=50" in s.reason

    def test_duplicate_point_becomes_divergent_rows(self, monkeypatch):
        def with_duplicate(spec):
            cloud = generate(spec)
            pts = cloud.points.copy()
            pts[1] = pts[0]
            return dataclasses.replace(cloud, points=pts)

        monkeypatch.setattr("lidbag.sweep.generate", with_duplicate)
        grid = SweepGrid(**SMALL)
        result = run_sweep(grid)
        assert len(result.rows) + len(result.skips) == grid.cell_count()
        assert not result.skips
        assert all(row.divergent_count > 0 for row in result.rows
                   if row.variant == "baseline")
        assert any(row.divergent_count > 0 for row in result.rows
                   if row.variant == "bagged")

    def test_progress_callback_sees_every_dataset(self):
        seen = []
        run_sweep(SweepGrid(**SMALL), progress=seen.append)
        assert any("M5b_Helix2d" in msg for msg in seen)


class TestReports:
    def test_heatmap_rate_one_column_exactly_zero(self):
        result = run_sweep(SweepGrid(**SMALL))
        cells = emit_heatmap_data(result, estimator="mle", variant="bagged",
                                  y_axis="k", fixed_b=3)
        assert cells
        r1 = [c for c in cells if c.r == 1.0]
        assert r1
        for c in r1:
            assert c.log_mse_ratio == 0.0

    def test_heatmap_b_axis_needs_fixed_k(self):
        result = run_sweep(SweepGrid(**SMALL))
        with pytest.raises(SweepError):
            emit_heatmap_data(result, estimator="mle", variant="bagged", y_axis="B")
        cells = emit_heatmap_data(result, estimator="mle", variant="bagged",
                                  y_axis="B", fixed_k=4)
        assert {c.y for c in cells} == {2, 3}

    def test_heatmap_rejects_unbagged_variant(self):
        result = run_sweep(SweepGrid(**SMALL))
        with pytest.raises(SweepError):
            emit_heatmap_data(result, estimator="mle", variant="baseline")

    def test_best_rows_pick_min_mse_per_pipeline(self):
        result = run_sweep(SweepGrid(**SMALL))
        best = {((r.dataset, r.variant)): r for r in result.best_rows()}
        for row in result.rows:
            assert best[(row.dataset, row.variant)].mse <= row.mse


class TestCsvIO:
    def test_round_trip_preserves_rows_exactly(self, tmp_path):
        result = run_sweep(SweepGrid(**SMALL))
        p = tmp_path / "results.csv"
        write_sweep_csv(result, p)
        back = read_sweep_csv(p)
        original = [dataclasses.replace(r, wall_time_ms=0.0) for r in result.sorted_rows()]
        assert back.rows == original  # float equality via  17-digit printing

    def test_results_csv_has_no_timing_column_by_default(self, tmp_path):
        result = run_sweep(SweepGrid(**SMALL))
        p = tmp_path / "results.csv"
        write_sweep_csv(result, p)
        header = p.read_text().splitlines()[0]
        assert header == ",".join(SWEEP_COLUMNS)
        write_sweep_csv(result, p, include_timing=True)
        assert p.read_text().splitlines()[0].endswith(",wall_time_ms")

    def test_sidecar_files(self, tmp_path):
        result = run_sweep(SweepGrid(
            datasets=("M5b_Helix2d",), estimators=("mle",),
            k_values=(10,), r_values=(0.05,), b_values=(2,), n=100,
        ))
        write_timing_csv(result, tmp_path / "timing.csv")
        write_skips_csv(result, tmp_path / "skips.csv")
        write_best_csv(result, tmp_path / "best.csv")
        assert (tmp_path / "timing.csv").read_text().splitlines()[0].endswith("wall_time_ms")
        skips = (tmp_path / "skips.csv").read_text().splitlines()
        assert len(skips) == 1 + 4  # header + the four bagged skips

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_output_bytes_are_pinned(self, name, threads, tmp_path):
        # Refactors of the engine must leave every byte of both files as
        # it was.
        result = run_sweep(SweepGrid(**{"SMALL": SMALL, "C10": C10}[name]), threads=threads)
        write_sweep_csv(result, tmp_path / "results.csv")
        write_skips_csv(result, tmp_path / "skips.csv")
        got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in ("results.csv", "skips.csv"))
        assert got == PINNED[name], (
            f"{name} grid at threads={threads}: sha256 {got} != pinned {PINNED[name]}"
            f" (numpy {np.__version__}, scipy {scipy.__version__},"
            f" SIMD targets found: {' '.join(simd_found())})")

    def test_missing_columns_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("dataset,mse\nM1_Sphere,1.0\n")
        with pytest.raises(SweepError):
            read_sweep_csv(p)

    def test_write_csv_convention(self, tmp_path):
        # bools (numpy's too) as 0/1, numpy floats through fmt_float, numpy
        # ints as digits, LF line ends.
        p = tmp_path / "t.csv"
        x = np.float64(0.1)
        write_csv(p, ("a", "b", "c", "d", "e"),
                  [(True, np.True_, x, np.int64(7), "s"), (False, np.False_, 2.5, 3, "t")])
        assert fmt_float(x) == "0.10000000000000001"
        assert p.read_bytes() == b"a,b,c,d,e\n1,1,0.10000000000000001,7,s\n0,0,2.5,3,t\n"

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_fmt_float_round_trips_every_double(self, x):
        assert float(fmt_float(x)) == x

    def test_heatmap_csv_header_follows_axis(self, tmp_path):
        result = run_sweep(SweepGrid(**SMALL))
        cells = emit_heatmap_data(result, estimator="mle", variant="bagged",
                                  y_axis="B", fixed_k=4)
        p = tmp_path / "h.csv"
        write_heatmap_csv(cells, p, y_name="B")
        assert p.read_text().splitlines()[0] == "dataset,estimator,variant,B,r,log_mse_ratio"


class TestBenchmark:
    def test_point_fields_and_prediction_logic(self):
        pts = benchmark_runtime([260], B=2, r=0.2, k=5, repeats=1)
        assert len(pts) == 1
        p = pts[0]
        assert p.rb == pytest.approx(0.4)
        assert p.predicted_bag_faster is True
        assert p.t_base_ms > 0 and p.t_bag_ms > 0
        assert p.agrees == (p.predicted_bag_faster == p.bag_faster)

    def test_infeasible_cell_rejected(self):
        with pytest.raises(SweepError):
            benchmark_runtime([100], B=2, r=0.02, k=5, repeats=1)


class TestCli:
    def test_generate_writes_both_formats_and_validates(self, tmp_path, capsys):
        rc = main(["generate", "--dataset", "M5b_Helix2d", "--n", "60",
                   "--seed", "1", "--format", "both", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "M5b_Helix2d.csv").exists()
        assert (tmp_path / "M5b_Helix2d.lidc").exists()
        out = capsys.readouterr().out
        assert "validation=OK" in out

    def test_estimate_from_generated_csv(self, tmp_path, capsys):
        main(["generate", "--dataset", "M13a_Scurve", "--n", "120",
              "--format", "csv", "--out", str(tmp_path)])
        rc = main(["estimate", "--data", str(tmp_path / "M13a_Scurve.csv"),
                   "--variant", "bagged", "--k", "4", "--r", "0.3",
                   "--bags", "3", "--out", str(tmp_path / "est")])
        assert rc == 0
        lines = (tmp_path / "est" / "estimates.csv").read_text().splitlines()
        assert lines[0] == "query,estimate,divergent"
        assert len(lines) == 1 + 120
        out = capsys.readouterr().out
        assert "mse=" in out and "manifold 1" in out

    def test_estimate_truncated_csv_names_the_file(self, tmp_path, capsys):
        main(["generate", "--dataset", "M13a_Scurve", "--n", "60",
              "--format", "csv", "--out", str(tmp_path)])
        path = tmp_path / "M13a_Scurve.csv"
        text = path.read_text()
        path.write_text(text[: len(text) - 30])  # cut mid-row
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--data", str(path), "--variant", "baseline",
                  "--k", "4", "--out", str(tmp_path / "est")])
        assert str(path) in str(exc.value)
        assert not (tmp_path / "est").exists()
        capsys.readouterr()

    def test_estimate_header_only_csv_says_so_and_nothing_else(self, tmp_path, capsys, recwarn):
        main(["generate", "--dataset", "M13a_Scurve", "--n", "60",
              "--format", "csv", "--out", str(tmp_path)])
        path = tmp_path / "M13a_Scurve.csv"
        path.write_text("\n".join(path.read_text().splitlines()[:2]) + "\n")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--data", str(path), "--variant", "baseline",
                  "--k", "4", "--out", str(tmp_path / "est")])
        assert f"{path}: no data rows" in str(exc.value)
        assert capsys.readouterr().err == "" and not recwarn.list

    def test_estimate_builtin_dataset_baseline(self, tmp_path, capsys):
        # k=2 leaves some queries divergent, so the flag column holds both values.
        rc = main(["estimate", "--dataset", "M7_Roll", "--n", "100",
                   "--variant", "baseline", "--k", "2", "--out", str(tmp_path)])
        assert rc == 0
        est_lines = (tmp_path / "estimates.csv").read_text().splitlines()
        cells = [line.split(",") for line in est_lines[1:]]
        assert [int(c[0]) for c in cells] == list(range(100))
        values = np.array([float(c[1]) for c in cells])
        want, flags = variant_estimates(generate(GeneratorSpec("M7_Roll", n=100, seed=0)),
                                        "baseline", EstimatorConfig(method="mle", k=2))
        assert values.tobytes() == want.tobytes()
        assert flags.any() and not flags.all()
        assert [c[2] for c in cells] == ["1" if f else "0" for f in flags]
        capsys.readouterr()

    def test_estimate_needs_a_data_source(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["estimate", "--out", str(tmp_path)])

    @pytest.mark.parametrize("verb", [["estimate", "--dataset", "M7_Roll"], ["sweep"]])
    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_thread_count_below_one_rejected(self, tmp_path, capsys, verb, threads):
        with pytest.raises(SystemExit) as exc:
            main(verb + ["--threads", threads, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"argument --threads: must be >= 1, got {threads}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_sweep_report_round_trip(self, tmp_path, capsys):
        sweep_out = tmp_path / "sweep"
        rc = main(["sweep", "--datasets", "M5b_Helix2d", "--estimators", "mle",
                   "--k-values", "4", "--r-values", "0.25,1.0",
                   "--b-values", "2,3", "--n", "140", "--quiet",
                   "--out", str(sweep_out)])
        assert rc == 0
        for fname in ("results.csv", "timing.csv", "skips.csv", "grid.json"):
            assert (sweep_out / fname).exists()
        report_out = tmp_path / "report"
        rc = main(["report", "--results", str(sweep_out / "results.csv"),
                   "--estimator", "mle", "--variant", "bagged",
                   "--out", str(report_out)])
        assert rc == 0
        assert (report_out / "best.csv").exists()
        assert (report_out / "heatmap_mle_bagged_k.csv").exists()
        capsys.readouterr()

    def test_sweep_cli_matches_library_bytes(self, tmp_path, capsys):
        out = tmp_path / "cli"
        main(["sweep", "--datasets", "M5b_Helix2d", "--estimators", "mle",
              "--k-values", "4", "--r-values", "0.25,1.0", "--b-values", "2,3",
              "--n", "140", "--quiet", "--out", str(out)])
        lib = run_sweep(SweepGrid(**SMALL))
        p = tmp_path / "lib.csv"
        write_sweep_csv(lib, p)
        assert p.read_bytes() == (out / "results.csv").read_bytes()
        capsys.readouterr()

    def test_sweep_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = dict(datasets=["M5b_Helix2d"], estimators=["mle"], k_values=[4],
                   r_values=[0.9], b_values=[2], n=100)
        cfg_path = tmp_path / "grid_config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfg_path), "--r-values", "0.5",
                   "--quiet", "--out", str(out)])
        assert rc == 0
        saved = json.loads((out / "grid.json").read_text())
        assert saved["r_values"] == [0.5]  # flag wins over the file
        assert saved["n"] == 100  # untouched keys survive
        capsys.readouterr()

    def test_theory_verbs(self, tmp_path, capsys):
        rc = main(["theory", "--experiment", "overlap", "--n", "40", "--m", "8",
                   "--trials", "2000", "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "overlap.csv").exists()
        assert "m^2/n" in (tmp_path / "o" / "summary.txt").read_text()

        rc = main(["theory", "--experiment", "variance", "--n", "100",
                   "--r", "0.2", "--b-list", "1,3", "--trials", "400",
                   "--out", str(tmp_path / "v")])
        assert rc == 0
        lines = (tmp_path / "v" / "variance.csv").read_text().splitlines()
        assert len(lines) == 1 + 2  # header + one row per B
        header = lines[0].split(",")
        for B, line in zip((1, 3), lines[1:]):
            row = dict(zip(header, line.split(",")))
            e = run_variance(100, 0.2, B, 400, 0)
            for col in ("r", "var_single", "var_bagged", "cov", "rho", "closed_form_analytic"):
                assert row[col] == fmt_float(getattr(e, col)), col
            assert row["closed_form"] == fmt_float(e.closed_form())
            assert (row["n"], row["m"], row["B"], row["trials"]) == ("100", "20", str(B), "400")
            assert row["sandwich_ok"] == ("1" if e.sandwich_ok else "0")

        rc = main(["theory", "--experiment", "conditional", "--n", "40",
                   "--r", "0.5", "--trials", "3000", "--out", str(tmp_path / "c")])
        assert rc == 0
        assert (tmp_path / "c" / "conditional.csv").exists()
        capsys.readouterr()

    def test_theory_conditional_rejects_one_trial(self, tmp_path, capsys):
        # one trial has no sample covariance: an error, not "overall Cov nan"
        with pytest.raises(SystemExit) as exc:
            main(["theory", "--experiment", "conditional", "--n", "40", "--r", "0.5",
                  "--trials", "1", "--out", str(tmp_path)])
        assert str(exc.value.code).startswith("lidbag theory: need trials >= 2")
        assert not (tmp_path / "conditional.csv").exists()
        assert not (tmp_path / "summary.txt").exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["theory", "--experiment", "conditional", "--n", "40", "--r", "0.5", "--trials", "1"],
        ["generate", "--dataset", "nosuch"],
        ["estimate", "--dataset", "M7_Roll", "--n", "100", "--r", "0.01", "--k", "4"],
        ["report", "--results", "no_such_results.csv"],
        ["bench", "--n-values", "100", "--r", "0.02", "--bags", "2", "--k", "5",
         "--repeats", "1"],
    ], ids=lambda argv: argv[0])
    def test_rejected_run_creates_no_output_dir(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code not in (0, None)
        assert not out.exists()
        capsys.readouterr()

    def test_bench_verb(self, tmp_path, capsys):
        rc = main(["bench", "--n-values", "260", "--r", "0.2", "--bags", "2",
                   "--k", "5", "--repeats", "1", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "bench.csv").read_text().splitlines()
        assert len(lines) == 2
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        flags = [row[c] for c in ("predicted_bag_faster", "bag_faster", "agrees")]
        assert set(flags) <= {"0", "1"}
        assert row["predicted_bag_faster"] == "1"  # r*B = 0.4
        assert (flags[2] == "1") == (flags[0] == flags[1])
        assert "prediction" in capsys.readouterr().out
