"""Golden values of the seeded random streams every result rests on.

numpy freezes ``RandomState``'s streams, but not ``Generator``'s (NEP 19):
a release may change what ``Generator.choice``, ``random`` or
``standard_normal`` draw from a seed.  Such a change would move every
pinned CSV byte and benchmark digest; these tests name it instead.
"""

import numpy as np

from lidbag.bagging import BaggingConfig, draw_bags
from lidbag.datasets import GeneratorSpec, generate
from lidbag.theory import _bag_rows


def stream_message(what):
    return (f"{what} drew other values than numpy 2.4 did: numpy {np.__version__}'s "
            "Generator stream differs, so pinned bytes and digests move with it")


def test_draw_bags_golden():
    got = draw_bags(50, BaggingConfig(3, 0.1, 7))
    want = [[2, 9, 14, 37, 40], [2, 19, 22, 31, 49], [18, 23, 24, 29, 37]]
    assert got.tolist() == want, stream_message("draw_bags (Generator.choice)")


def test_theory_bag_rows_golden():
    # The rows are the m smallest of uniform draws; argpartition's order
    # within a row is not part of the stream, so rows are compared sorted.
    got = np.sort(_bag_rows(np.random.default_rng(11), 3, 40, 5), axis=1)
    want = [[0, 3, 6, 29, 32], [0, 7, 20, 29, 33], [7, 8, 25, 32, 37]]
    assert got.tolist() == want, stream_message("theory._bag_rows (Generator.random)")


def test_generate_golden():
    # Samplers of plain draws (no transcendental ufunc whose last bit
    # depends on the SIMD target), so the values are exact.
    norm = generate(GeneratorSpec("M12_Norm", 30, 5)).points
    assert norm[[0, 29], :3].tolist() == [
        [-0.15761234320110798, 0.027401051761102527, 0.2714984624699337],
        [0.12941094545125084, 0.2570679785005693, -1.1676810321538782],
    ], stream_message("generate M12_Norm (Generator.standard_normal)")
    affine = generate(GeneratorSpec("M9_Affine", 30, 5)).points
    assert affine[[0, 29], :3].tolist() == [
        [-0.4844076218777911, 1.2679589073740116, -2.3408117172418494],
        [-2.4540818831156654, 0.09160190836308679, 1.117644512920644],
    ], stream_message("generate M9_Affine (Generator.uniform)")
