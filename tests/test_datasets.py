"""Benchmark generators: registry facts, determinism, validation, round-trips."""

import numpy as np
import pytest

from lidbag.datasets import (
    DATASET_NAMES,
    STICK_MAX,
    VTOL,
    DatasetError,
    GeneratorSpec,
    dataset_info,
    dataset_ordinal,
    generate,
    load_binary,
    load_csv,
    save_binary,
    save_csv,
    validate,
)
from lidbag.geometry import PointCloud


class TestRegistry:
    def test_nineteen_datasets_in_stable_order(self):
        assert len(DATASET_NAMES) == 19
        assert len(set(DATASET_NAMES)) == 19
        for i, name in enumerate(DATASET_NAMES):
            assert dataset_ordinal(name) == i

    def test_spot_check_table_facts(self):
        m1 = dataset_info("M1_Sphere")
        assert (m1.dim, m1.table_d) == (11, (10,))
        mn2 = dataset_info("Mn2_Nonlinear")
        assert (mn2.dim, mn2.table_d) == (96, (24,))
        uni = dataset_info("Uniform")
        assert (uni.dim, uni.table_d) == (100, (30,))
        lolli = dataset_info("Lollipop")
        assert lolli.dim == 2 and lolli.gt_lid == (1.0, 2.0)

    def test_cubic_note_documents_label_choice(self):
        info = dataset_info("M10a_Cubic")
        assert info.note  # the d = dim - 1 labeling is surfaced, not silent
        assert info.gt_lid == (float(info.dim - 1),)

    def test_unknown_name_rejected(self):
        with pytest.raises(DatasetError):
            dataset_info("M99_Mystery")
        with pytest.raises(DatasetError):
            GeneratorSpec(name="M99_Mystery")

    def test_spec_validation(self):
        with pytest.raises(DatasetError):
            GeneratorSpec(name="M1_Sphere", n=1)
        with pytest.raises(ValueError):
            generate(GeneratorSpec(name="M1_Sphere", n=4, seed=-3))


class TestGeneration:
    def test_bit_reproducible(self):
        a = generate(GeneratorSpec("M7_Roll", n=120, seed=9))
        b = generate(GeneratorSpec("M7_Roll", n=120, seed=9))
        assert a.points.tobytes() == b.points.tobytes()
        np.testing.assert_array_equal(a.manifold_label, b.manifold_label)

    def test_seed_changes_sample(self):
        a = generate(GeneratorSpec("M7_Roll", n=120, seed=9))
        b = generate(GeneratorSpec("M7_Roll", n=120, seed=10))
        assert a.points.tobytes() != b.points.tobytes()

    def test_prefix_stability_under_growth(self):
        # Per-point seed streams: growing n must not reshuffle earlier rows.
        small = generate(GeneratorSpec("M9_Affine", n=50, seed=4))
        big = generate(GeneratorSpec("M9_Affine", n=80, seed=4))
        assert big.points[:50].tobytes() == small.points.tobytes()

    def test_every_dataset_generates_clean(self):
        for name in DATASET_NAMES:
            spec = GeneratorSpec(name, n=300, seed=1)
            cloud = generate(spec)
            assert isinstance(cloud, PointCloud)
            assert cloud.n == 300
            assert cloud.dim == dataset_info(name).dim
            assert np.all(np.isfinite(cloud.points))
            # absolutely continuous sampling: duplicates would break estimators
            assert np.unique(cloud.points, axis=0).shape[0] == 300

    def test_lollipop_has_both_parts_with_expected_mix(self):
        cloud = generate(GeneratorSpec("Lollipop", n=2500, seed=0))
        assert cloud.n_manifolds == 2
        stick_frac = np.mean(cloud.manifold_label == 1)  # label 1 = 1-d stick
        assert 0.02 < stick_frac < 0.09

    def test_all_other_datasets_single_labeled(self):
        for name in DATASET_NAMES:
            if name == "Lollipop":
                continue
            cloud = generate(GeneratorSpec(name, n=60, seed=2))
            assert cloud.n_manifolds == 1


class TestDistributionSpotChecks:
    def test_sphere_radii_exact(self):
        cloud = generate(GeneratorSpec("M1_Sphere", n=400, seed=3))
        norms = np.linalg.norm(cloud.points, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=VTOL)

    def test_affine_coordinates_box(self):
        cloud = generate(GeneratorSpec("M9_Affine", n=4000, seed=3))
        # 10-d uniform data pushed through an affine map: mean near the
        # image of the box center, all coordinates bounded.
        assert np.all(np.isfinite(cloud.points))
        spread = cloud.points.std(axis=0)
        assert np.all(spread > 0.05)

    def test_uniform_tail_in_unit_box_with_copied_tail(self):
        cloud = generate(GeneratorSpec("Uniform", n=1500, seed=6))
        assert cloud.points.min() >= -VTOL
        assert cloud.points.max() <= 1.0 + VTOL
        # the last intrinsic coordinate is replicated across the tail dims
        tail = cloud.points[:, 29:]
        assert np.all(tail == tail[:, :1])

    def test_lollipop_stick_on_diagonal_segment(self):
        cloud = generate(GeneratorSpec("Lollipop", n=2500, seed=1))
        stick = cloud.points[cloud.manifold_label == 1]
        assert stick.shape[0] > 0
        np.testing.assert_array_equal(stick[:, 0], stick[:, 1])
        assert stick[:, 0].min() >= -VTOL
        assert stick[:, 0].max() <= STICK_MAX + VTOL


class TestValidation:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_fresh_samples_validate(self, name):
        spec = GeneratorSpec(name, n=600, seed=0)
        rep = validate(generate(spec), spec)
        assert rep.ok, rep.violations
        assert rep.n == 600

    def test_corrupted_sphere_flagged(self):
        spec = GeneratorSpec("M1_Sphere", n=200, seed=0)
        cloud = generate(spec)
        pts = cloud.points.copy()
        pts[17] *= 1.5  # knock one point off the sphere
        bad = PointCloud(points=pts, manifold_label=cloud.manifold_label,
                         gt_lid=cloud.gt_lid)
        rep = validate(bad, spec)
        assert not rep.ok
        assert any("radius" in v or "norm" in v or "sphere" in v.lower() for v in rep.violations)

    def test_wrong_ambient_dim_flagged(self):
        spec = GeneratorSpec("M1_Sphere", n=50, seed=0)
        other = generate(GeneratorSpec("M5b_Helix2d", n=50, seed=0))
        rep = validate(other, spec)
        assert not rep.ok

    def test_cubic_note_rides_on_report(self):
        spec = GeneratorSpec("M10a_Cubic", n=200, seed=0)
        rep = validate(generate(spec), spec)
        assert rep.ok
        assert rep.notes


class TestRoundTrips:
    @pytest.mark.parametrize("name", ["M1_Sphere", "Lollipop"])
    def test_csv_round_trip_is_lossless(self, tmp_path, name):
        cloud = generate(GeneratorSpec(name, n=80, seed=5))
        p = tmp_path / "cloud.csv"
        save_csv(cloud, p)
        back = load_csv(p)
        assert back.points.tobytes() == cloud.points.tobytes()
        np.testing.assert_array_equal(back.manifold_label, cloud.manifold_label)
        np.testing.assert_array_equal(back.gt_lid, cloud.gt_lid)

    def test_csv_without_comment_needs_explicit_gt(self, tmp_path):
        cloud = generate(GeneratorSpec("M1_Sphere", n=40, seed=5))
        p = tmp_path / "cloud.csv"
        save_csv(cloud, p)
        body = p.read_text().splitlines()[1:]  # strip the gt_lid comment
        p.write_text("\n".join(body) + "\n")
        with pytest.raises(DatasetError):
            load_csv(p)
        back = load_csv(p, gt_lid=[4.5])
        np.testing.assert_array_equal(back.gt_lid, [4.5])
        assert back.points.tobytes() == cloud.points.tobytes()

    @pytest.mark.parametrize("name", ["M12_Norm", "Lollipop"])
    def test_binary_round_trip_is_lossless(self, tmp_path, name):
        cloud = generate(GeneratorSpec(name, n=64, seed=8))
        p = tmp_path / "cloud.npz"
        save_binary(cloud, p)
        back = load_binary(p)
        assert back.points.tobytes() == cloud.points.tobytes()
        np.testing.assert_array_equal(back.manifold_label, cloud.manifold_label)
        np.testing.assert_array_equal(back.gt_lid, cloud.gt_lid)

    def test_malformed_csv_raises_dataset_error_naming_the_file(self, tmp_path):
        cloud = generate(GeneratorSpec("M7_Roll", n=20, seed=0))
        p = tmp_path / "cloud.csv"
        save_csv(cloud, p)
        lines = p.read_text().splitlines()
        for bad_row in (lines[2][:-4], lines[2] + ",0.5", lines[2][:-1] + "1.5"):
            p.write_text("\n".join(lines[:2] + [bad_row] + lines[3:]) + "\n")
            with pytest.raises(DatasetError, match="cloud.csv"):
                load_csv(p)

    def test_short_binary_file_raises_dataset_error(self, tmp_path):
        cloud = generate(GeneratorSpec("M12_Norm", n=64, seed=8))
        p = tmp_path / "cloud.lidc"
        save_binary(cloud, p)
        blob = p.read_bytes()
        for cut in (10, 30, len(blob) - 8):
            p.write_bytes(blob[:cut])
            with pytest.raises(DatasetError, match="truncated"):
                load_binary(p)

    def test_csv_and_binary_agree(self, tmp_path):
        cloud = generate(GeneratorSpec("M6_Nonlinear", n=32, seed=2))
        pc, pb = tmp_path / "a.csv", tmp_path / "a.npz"
        save_csv(cloud, pc)
        save_binary(cloud, pb)
        assert load_csv(pc).points.tobytes() == load_binary(pb).points.tobytes()
