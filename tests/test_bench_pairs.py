"""The verdicts ``tools/bench_pairs.py`` writes for alternated benchmark pairs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def pairs(parent, change, name="wall_s"):
    return [{"parent": {"metrics": {name: {"value": p}}},
             "change": {"metrics": {name: {"value": c}}}} for p, c in zip(parent, change)]


def verdict(metric, parent, change):
    return bench_pairs._compare([metric], pairs(parent, change, metric["name"]))[metric["name"]]


PARENT = [4.0, 4.1, 3.9, 4.2, 4.0, 3.8, 4.1, 4.0, 3.9, 4.3]


def test_a_clear_gain_is_resolved_and_within_bound():
    out = verdict(WALL, PARENT, [p - 0.8 for p in PARENT])
    assert out["change_wins"] == 10 and out["ties"] == 0
    assert out["median_gap"] == pytest.approx(0.8)
    assert out["gain_resolved"] is True and out["within_bound"] is True


def test_nine_wins_of_ten_suffice_and_eight_do_not():
    nine = [p - 0.8 for p in PARENT[:9]] + [PARENT[9] + 0.1]
    assert verdict(WALL, PARENT, nine)["gain_resolved"] is True
    eight = [p - 0.8 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]]
    assert verdict(WALL, PARENT, eight)["gain_resolved"] is False


def test_ties_count_for_neither_side():
    change = [p - 0.8 for p in PARENT[:9]] + [PARENT[9]]
    out = verdict(WALL, PARENT, change)
    assert (out["change_wins"], out["ties"]) == (9, 1)
    assert out["gain_resolved"] is True
    out = verdict(WALL, PARENT, [p - 0.8 for p in PARENT[:8]] + PARENT[8:])
    assert (out["change_wins"], out["ties"]) == (8, 2)
    assert out["gain_resolved"] is False


def test_a_gap_inside_the_parents_spread_is_not_a_gain():
    # Every pair won, but by less than the parent's interquartile range.
    out = verdict(WALL, PARENT, [p - 0.01 for p in PARENT])
    assert out["change_wins"] == 10
    assert out["gain_resolved"] is False
    assert out["within_bound"] is True


def test_direction_follows_better():
    out = verdict(RATE, PARENT, [p + 0.8 for p in PARENT])
    assert out["median_gap"] == pytest.approx(0.8)
    assert out["gain_resolved"] is True
    out = verdict(RATE, PARENT, [p - 0.8 for p in PARENT])
    assert out["change_wins"] == 0 and out["median_gap"] == pytest.approx(-0.8)
    assert out["within_bound"] is True  # 20% worse, bound 25%


def test_a_regression_beyond_the_bound_is_out_of_bound():
    out = verdict(WALL, PARENT, [p * 1.3 for p in PARENT])
    assert out["within_bound"] is False
    assert verdict(WALL, PARENT, [p * 1.2 for p in PARENT])["within_bound"] is True


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert verdict(WALL, wide, [v * 1.01 for v in wide])["within_bound"] == "unresolved"
    assert verdict(WALL, PARENT, wide)["within_bound"] == "unresolved"
    # Unless every run of the change beat every run of the parent.
    assert verdict(WALL, [v + 20.0 for v in wide], wide)["within_bound"] is True


def found_in_process(capsys):
    """The probe's answer in this process."""
    capsys.readouterr()
    exec(bench_pairs._SIMD_PROBE, {})
    return capsys.readouterr().out.split()


def test_simd_probe_reports_the_targets_of_the_runs_environment(monkeypatch, capsys):
    found = found_in_process(capsys)
    assert bench_pairs._simd_found() == found
    if found:
        # A target switched off for the runs is missing from the record.
        monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", found[-1])
        assert bench_pairs._simd_found() == found[:-1]


def test_machine_record_names_the_runs_simd_targets(monkeypatch, tmp_path, capsys):
    # Fake runs stand in for perfbench; the parent checkout is unpacked
    # into a temporary directory and the report is caught, not written.
    metrics = {m: {"value": 1.0} for m in ("setup_s", "wall_s", "items_per_s", "peak_rss_mb")}
    machine = {"nproc": 2, "numpy": "x.y", "simd_found": "from perfbench"}
    monkeypatch.setattr(bench_pairs, "_run", lambda checkout, workload, seed, seconds, trace=0: (
        {"metrics": metrics, "correct": True, "failed": 0}, machine))
    monkeypatch.setattr(bench_pairs, "BUILD", str(tmp_path / "build"))
    reports = []
    monkeypatch.setattr(bench_pairs, "_write", lambda report, path: reports.append(report))
    bench_pairs.main(["--parent", "HEAD", "--pr", "t", "--workloads", "w", "--seeds", "1-4"])
    found = found_in_process(capsys)
    assert reports[-1]["machine"] == {"nproc": 2, "numpy": "x.y", "simd_found": found}
