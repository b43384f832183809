"""Benchmark generators: registry facts, determinism, validation, round-trips."""

import hashlib

import numpy as np
import pytest
from conftest import pin_target

from lidbag.datasets import (
    DATASET_NAMES,
    STICK_MAX,
    VTOL,
    DatasetError,
    GeneratorSpec,
    dataset_info,
    dataset_ordinal,
    generate,
    load_csv,
    save_csv,
    validate,
)
from lidbag.geometry import PointCloud

#: sha256 of the points and then the labels of each dataset's
#: ``generate(GeneratorSpec(name, n=64, seed=1))``, under the widest of the
#: SIMD targets X86_V4 and X86_V3 that numpy found, as for the sweep pins of
#: ``tests/test_sweep_cli.py`` (numpy 2.4.6; the X86_V3 set with
#: NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4").  Only the two
#: Mn datasets, whose samplers call ``np.tan`` and ``np.arctan``, differ.
GENERATE_PINNED = {"X86_V4": {
    "M1_Sphere": "85bcdcc19a31a94ccd33f3c739a874838d5105abb6c031108964919da18dce44",
    "M2_Affine_3to5": "14064eed8684ded95bed00ae109e31010abc89b8079cd93988e3f18118d77727",
    "M3_Nonlinear_4to6": "e8305d41fc5b1afee09dd4407820be5ae57a0d5121023eb50f612958db6748b8",
    "M4_Nonlinear": "3621a771643b5b9214b492f2d76f53bae1c92dcef7c768c505a1dc2947f95da1",
    "M5b_Helix2d": "8472d1416455bb24b5021af66128386305d1738972ef01d7cf7078cd8f576dfb",
    "M6_Nonlinear": "832235c945e08831ae213ae52eda4318c29a2619ae366711b8236beaabcae726",
    "M7_Roll": "558d2f49e02c6ce9ec9e1c828f19fd0a9a83f046c55337e7ae7d41599bd11e22",
    "M8_Nonlinear": "018df6ef7fe3a00e59ea069c3bd044959490b914f821ca072a2f3c79e73ec439",
    "M9_Affine": "9028c1a8b538941aba96aed35016d26f9530cfe65f8aea8bc34210b43c1e9a6b",
    "M10a_Cubic": "a0d193747ab7cd8266c5fe5b2ba87ebc9cea5eb7094688bd632189d57ba888e0",
    "M10b_Cubic": "bc448bfb7bf3a451c26a291c3522748dd04765aa8a3aae6ffa675c3fadcec660",
    "M10c_Cubic": "b545f9819186845c010dc23b6a703579a9b353311410ec6bdcbbf0e3a774de6a",
    "M11_Moebius": "18b851f3bdc46b2010c2f2af623e0550d94222bad5500192e569ce45eed84c21",
    "M12_Norm": "c52f7bc0f37e3868df9cf64ccd69f2fb19401caa4ef6c003e1320cc20b745d9e",
    "M13a_Scurve": "e00b198b88cfa04a33aad4fccbd1bc18565ff1562651e9b6c47320e94041ed38",
    "Mn1_Nonlinear": "082dfe7d409a3c29d4c7e4172d407850121bd8e79b909c83a64a8ea84d6c80fe",
    "Mn2_Nonlinear": "e464af67d9922fad1323db6e19f26874ba8d209489c002de6f8774851ad0778c",
    "Lollipop": "4c22363e40d16658fdfb1a9c15a865b0d9360ff3cf30b7ffce67dab087a48863",
    "Uniform": "847226d8a70104cbe965c42102df5488889522d7a3d2120d2e196795c8c77e05",
}}
GENERATE_PINNED["X86_V3"] = {
    **GENERATE_PINNED["X86_V4"],
    "Mn1_Nonlinear": "96a557ece5d56e4e00d0e994da9c943cfb70177491e6e1227e156669025164b7",
    "Mn2_Nonlinear": "1740e6db70bc9e96e63b4260b435423906fdf8a73a374ee11d3f09e447824923",
}


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
        with pytest.raises(DatasetError, match="seed must be a nonnegative integer"):
            GeneratorSpec(name="M1_Sphere", n=4, seed=-3)


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

    @pytest.mark.parametrize("seed", [0, 1800])
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_point_streams_are_the_spawned_children(self, name, seed):
        # Point j draws from the seed's j-th spawned child, which
        # ``generate`` builds as it draws point j; the reference holds all
        # n children from ``spawn(n)``.
        n, info = 200, dataset_info(name)
        points, labels = np.empty((n, info.dim)), np.ones(n, dtype=np.int64)
        for j, stream in enumerate(np.random.SeedSequence(seed).spawn(n)):
            drawn = info.sampler(np.random.default_rng(stream), info.d_param, info.dim)
            if info.labeled:
                points[j], labels[j] = drawn
            else:
                points[j] = drawn
        cloud = generate(GeneratorSpec(name, n=n, seed=seed))
        assert cloud.points.tobytes() == points.tobytes()
        assert cloud.manifold_label.tolist() == labels.tolist()

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_generated_bytes_are_pinned(self, name):
        target = pin_target(GENERATE_PINNED)
        cloud = generate(GeneratorSpec(name, n=64, seed=1))
        got = hashlib.sha256(cloud.points.tobytes() + cloud.manifold_label.tobytes()).hexdigest()
        assert got == GENERATE_PINNED[target][name], (
            f"{name} under {target}: sha256 {got} != pinned {GENERATE_PINNED[target][name]}"
            f" (numpy {np.__version__})")

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
    @pytest.mark.parametrize("name", ["M1_Sphere", "M12_Norm", "Lollipop"])
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

    def test_malformed_csv_raises_dataset_error_naming_the_file(self, tmp_path):
        cloud = generate(GeneratorSpec("M7_Roll", n=20, seed=0))
        p = tmp_path / "cloud.csv"
        save_csv(cloud, p)
        lines = p.read_text().splitlines()
        for bad_row in (lines[2][:-4], lines[2] + ",0.5", lines[2][:-1] + "1.5"):
            p.write_text("\n".join(lines[:2] + [bad_row] + lines[3:]) + "\n")
            with pytest.raises(DatasetError, match="cloud.csv"):
                load_csv(p)
        # Rows that parse but that a PointCloud rejects: a label outside
        # 1..L, a non-finite coordinate, and a single point.
        nan_row = "nan" + lines[2][lines[2].index(","):]
        for body, reason in (([lines[2][:-1] + "0"] + lines[3:], "labels must lie in 1..1"),
                             ([nan_row] + lines[3:], "must be finite"),
                             (lines[2:3], "need n >= 2")):
            p.write_text("\n".join(lines[:2] + body) + "\n")
            with pytest.raises(DatasetError, match=f"cloud.csv: .*{reason}"):
                load_csv(p)

    def test_header_only_csv_reports_no_rows_without_a_warning(self, tmp_path, recwarn):
        cloud = generate(GeneratorSpec("M7_Roll", n=20, seed=0))
        p = tmp_path / "cloud.csv"
        save_csv(cloud, p)
        p.write_text("\n".join(p.read_text().splitlines()[:2]) + "\n")
        with pytest.raises(DatasetError, match="cloud.csv: no data rows"):
            load_csv(p)
        assert not recwarn.list

    def test_csv_with_a_byte_order_mark_loads_like_one_without(self, tmp_path):
        cloud = generate(GeneratorSpec("M7_Roll", n=20, seed=0))
        p = tmp_path / "cloud.csv"
        save_csv(cloud, p)
        plain = load_csv(p)
        p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
        back = load_csv(p)
        assert back.points.tobytes() == plain.points.tobytes()
        np.testing.assert_array_equal(back.manifold_label, plain.manifold_label)
        np.testing.assert_array_equal(back.gt_lid, plain.gt_lid)
