"""Neighborhood smoothing and the six named estimation pipelines."""

import functools
import math
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidbag.bagging import (
    DIVERGENCE_POLICIES,
    AnchoredMean,
    BaggingConfig,
    BaggingError,
    LocalityCapacityError,
    bag_tables,
    draw_bags,
    estimates_from_tables,
)
from lidbag.datasets import GeneratorSpec, generate
from lidbag.sweep import DEFAULT_R_GRID, SweepGrid, run_sweep
from lidbag.estimators import METHODS, EstimatorConfig
from lidbag import estimators, geometry, smoothing
from lidbag.geometry import GeometryError, PointCloud, dist_block, neighbor_tables
from lidbag.smoothing import (
    VARIANTS,
    PlanCell,
    SmoothingCapacityError,
    SmoothingConfig,
    SmoothingError,
    gather_mean,
    run_plan,
    smooth,
    variant_estimates,
)


def reference(cloud, variant, est, bag_cfg=None, k_s=None, policy="clamp", trace=None):
    """Loop-based reference for all six variants: each bag from scratch.

    Per bag: dist_block -> bag_tables -> estimates_from_tables -> in-bag
    gather_mean (pre) -> AnchoredMean; then a gather_mean over neighbor
    tables of the materialised full-cloud block (post).  The
    unbagged variants are one bag holding the whole cloud.  ``trace``, if
    given, receives (bag, raw estimates, pre-smoothing neighborhoods) per bag.
    """
    points, n = cloud.points, cloud.n
    ids = np.arange(n, dtype=np.int64)
    k_s = est.k if k_s is None else k_s
    pre = variant in ("bagged_pre", "bagged_pre_post")
    post = variant in ("smoothed", "bagged_post", "bagged_pre_post")
    acc = AnchoredMean(n)
    for bag in [ids] if bag_cfg is None else draw_bags(n, bag_cfg):
        tables = bag_tables(dist_block(points, points[bag]), bag, ids, est.k,
                            k_s if pre else None)
        values, flags = estimates_from_tables(est, tables, points)
        hood = tables.incl_idx[:, :k_s] if pre else None
        if trace is not None:
            trace.append((bag, values, hood))
        if pre:
            values, flags = gather_mean(values, hood, flags)
        acc.add(values, flags)
    values, flags = acc.result(policy)
    if post:
        hood = neighbor_tables(dist_block(points, points), ids, None, k_s).incl_idx
        values, flags = gather_mean(values, hood, flags)
    return values, flags


def lattice_cloud(seed):
    """A square lattice (equidistant neighbors, so divergent MLE estimates)
    next to a Gaussian blob."""
    xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
    blob = np.random.default_rng(seed).normal(size=(140, 2)) + 20.0
    return PointCloud.single_manifold(np.vstack([np.column_stack([xs.ravel(), ys.ravel()]), blob]), 2.0)


#: Ways to force the rule (:func:`smoothing._thin_depth`) in the engine
#: tests: never read from a tile's ranked prefix, read from a prefix as deep
#: as a row keeps (most rows fall short and are partitioned), twice the mean
#: depth at which a row meets its members, or every reference point; bags
#: thin a prefix no deeper than m and select from a deeper one, with or
#: without the whole cloud's one-bag ensemble.
THIN_RULES = {
    "partition": lambda u, m, need, bags, ranked: 0,
    "shallow": lambda u, m, need, bags, ranked: need,
    "law": lambda u, m, need, bags, ranked: min(u, 2 * need * u // m),
    "all": lambda u, m, need, bags, ranked: u,
}


def with_baseline(cloud, variant, est, bag_cfg=None, s_cfg=None, **kw):
    """``variant_estimates`` run in one plan with a ``baseline`` cell, whose
    whole-cloud ensemble ranks every tile over the whole cloud."""
    k_s = est.k if s_cfg is None else s_cfg.k_s
    out = {}
    run_plan(cloud, [PlanCell(variant, est, k_s, bag_cfg), PlanCell("baseline", est, k_s)],
             lambda cell, values, flags, ms: out.setdefault(cell.variant, (values, flags)), **kw)
    return out[variant]


class TestEngineMatchesReference:
    cloud = lattice_cloud(4)
    est = EstimatorConfig(method="mle", k=4, clamp_max=30.0)

    def test_reference_sees_divergent_estimates(self):
        _, flags = reference(self.cloud, "baseline", self.est)
        assert flags.any() and not flags.all()

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("policy", ["clamp", "skip"])
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("rule", THIN_RULES)
    def test_bitwise_equal_on_both_sides_of_rb_one(self, variant, policy, threads, rule,
                                                   monkeypatch):
        monkeypatch.setattr(smoothing, "_thin_depth", THIN_RULES[rule])
        # B=4: rate 0.1 gives r*B = 0.4 (the bags' union is a part of the
        # cloud), rate 0.5 gives r*B = 2 (the union is nearly all of it).
        configs = [None]
        if variant.startswith("bagged"):
            configs = [BaggingConfig(bags=4, rate=rate, seed=3) for rate in (0.1, 0.5)]
        for bag_cfg in configs:
            for k_s in (None, 9):
                s_cfg = None if k_s is None else SmoothingConfig(k_s)
                want = reference(self.cloud, variant, self.est, bag_cfg, k_s, policy)
                for run in (variant_estimates, with_baseline):
                    got = run(self.cloud, variant, self.est, bag_cfg, s_cfg,
                              policy=policy, threads=threads)
                    assert got[0].tobytes() == want[0].tobytes(), (bag_cfg, k_s, run)
                    assert got[1].tobytes() == want[1].tobytes(), (bag_cfg, k_s, run)

    @pytest.mark.parametrize("method", ["mada", "tle"])
    def test_other_estimators(self, method):
        est = EstimatorConfig(method=method, k=6)
        bag_cfg = BaggingConfig(bags=3, rate=0.2, seed=1)
        got = variant_estimates(self.cloud, "bagged_pre_post", est, bag_cfg, threads=2)
        want = reference(self.cloud, "bagged_pre_post", est, bag_cfg)
        assert got[0].tobytes() == want[0].tobytes()


class TestStreamedPath:
    """Every table streams its distances, one budget-sized tile at a time."""

    # m = 110 columns per bag at r = 0.1; n^2 is more than twice the tile
    # budget, so every plan runs over several query tiles.
    cloud = generate(GeneratorSpec("M12_Norm", n=1100, seed=2))
    est = EstimatorConfig(method="mle", k=6)
    # r * B = 0.4, 1 and 5.
    ensembles = [BaggingConfig(bags=4, rate=0.1, seed=1), BaggingConfig(bags=10, rate=0.1, seed=1),
                 BaggingConfig(bags=10, rate=0.5, seed=1)]

    def spy(self, monkeypatch):
        shapes = []

        def recording(a, b, _real=geometry.dist_block):
            out = _real(a, b)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(geometry, "dist_block", recording)
        monkeypatch.setattr(smoothing, "dist_block", recording)
        return shapes

    def configs(self, variant):
        return self.ensembles if variant.startswith("bagged") else [None]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_no_block_beyond_a_tile_below_rb_one(self, variant, monkeypatch):
        n = self.cloud.n
        shapes = self.spy(monkeypatch)
        variant_estimates(self.cloud, variant, self.est, self.configs(variant)[0], SmoothingConfig(9))
        assert shapes
        assert max(a * b for a, b in shapes) <= max(geometry._UNION_CELLS, n)

    @pytest.mark.parametrize("hood_bytes", [smoothing._HOOD_BYTES, 0])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_no_block_beyond_a_tile_at_any_rb(self, variant, hood_bytes, monkeypatch):
        # At r * B >= 1 too: no n x n block, and each round computes each
        # query's distances to the union of the bags once, however many
        # bags there are.  Without a budget for kept neighborhoods a
        # pre-smoothed ensemble runs one bag a round.
        n = self.cloud.n
        shapes = self.spy(monkeypatch)
        monkeypatch.setattr(smoothing, "_HOOD_BYTES", hood_bytes)
        for bag_cfg in self.configs(variant):
            shapes.clear()
            variant_estimates(self.cloud, variant, self.est, bag_cfg, SmoothingConfig(9))
            assert max(a * b for a, b in shapes) <= max(geometry._UNION_CELLS, n), bag_cfg
            rounds = bag_cfg.bags if variant in smoothing._PRE and hood_bytes == 0 else 1
            full = variant not in ("bagged", "bagged_pre")
            union = n if full else np.unique(draw_bags(n, bag_cfg)).size
            assert all(union in shape for shape in shapes), bag_cfg
            assert sum(a * b for a, b in shapes) == rounds * n * union, bag_cfg

    @pytest.mark.parametrize("variant, k_s", [
        ("bagged_pre", 110),  # k_s = m: 4 bags of 110 columns
        ("smoothed", 1100),  # k_s = n: one full-cloud table
    ])
    def test_smoothing_over_every_reference_point_reads_each_distance_once(
            self, variant, k_s, monkeypatch):
        # The inclusive depth reaches the reference size while the estimation
        # depth stays below it; one table pass serves both, and one distance
        # from every query to every point of the union of the bags serves
        # all four bags.
        n = self.cloud.n
        shapes = self.spy(monkeypatch)
        bag_cfg = self.ensembles[0] if variant.startswith("bagged") else None
        variant_estimates(self.cloud, variant, self.est, bag_cfg, SmoothingConfig(k_s))
        union = n if bag_cfg is None else np.unique(draw_bags(n, bag_cfg)).size
        assert sum(a * b for a, b in shapes) == n * union

    def test_pre_smoothing_memory_stays_within_the_budget(self, monkeypatch):
        # A round keeps at most _HOOD_BYTES of in-bag neighborhoods (n * k_s
        # one-byte positions per bag), or one bag's when one bag exceeds
        # it, however many bags and ensembles the plan pre-smooths, and the
        # member estimates of the same bags (m values and flags per bag).
        held, live = [], []

        class Recording(smoothing._Ensemble):
            def __init__(self, *args):
                super().__init__(*args)
                live.append(self)

            def pre_tile(self, *args):
                kept = [e for e in live if e.hoods is not None]
                members = [a for e in kept for pair in e.kept.values() for a in pair]
                held.append((sum(e.hoods.nbytes for e in kept), sum(a.nbytes for a in members)))
                return super().pre_tile(*args)

        def most_held(budget, *bags):
            monkeypatch.setattr(smoothing, "_HOOD_BYTES", budget)
            held.clear()
            live.clear()
            cells = [PlanCell("bagged_pre", self.est, 110, BaggingConfig(b, 0.1, seed))
                     for seed, b in enumerate(bags)]
            run_plan(self.cloud, cells, lambda cell, values, flags, ms: None)
            assert all(members * one == hoods * 110 * 9 for hoods, members in held)
            return max(hoods for hoods, _ in held)

        monkeypatch.setattr(smoothing, "_Ensemble", Recording)
        one = 1100 * 110
        assert most_held(2**24, 100) == 100 * one
        assert most_held(2**24, 200) == (2**24 // one) * one
        # The second ensemble does not fit next to the first; the third
        # does not fit next to the first two.
        assert most_held(2**24, 100, 100) == 100 * one
        assert most_held(2**24, 100, 20, 20) == 120 * one
        assert most_held(one - 1, 3) == one
        assert most_held(0, 2, 3) == one

        # So the traced peak does not grow with B * n * k_s.
        def peak(bags):
            tracemalloc.start()
            try:
                variant_estimates(self.cloud, "bagged_pre", self.est,
                                  BaggingConfig(bags=bags, rate=0.1, seed=1), SmoothingConfig(110))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(smoothing, "_HOOD_BYTES", 20 * one)
        assert peak(120) - peak(40) < 1e6

    def test_stacked_pre_smoothing_tables_stay_within_a_few_tiles(self):
        # Segments of stacked bag tables are sized by bytes: an inclusive
        # column of pre-smoothing costs its id and distance and its gather
        # temporaries, so at k_s = m = 110 a segment holds one bag of 480
        # query rows.  The 40 bags keep 4.6 MiB of neighborhoods, and a
        # tile's distances and its full ranking 12 MiB.
        bag_cfg, s_cfg = BaggingConfig(40, 0.1, 1), SmoothingConfig(110)
        tracemalloc.start()
        try:
            got = variant_estimates(self.cloud, "bagged_pre", self.est, bag_cfg, s_cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        want = reference(self.cloud, "bagged_pre", self.est, bag_cfg, 110)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("threads", [1, 3])
    def test_an_ensemble_split_between_rounds_matches_one_round(self, threads, monkeypatch):
        # B grid 2, 5 with room for three bags a round: the ensemble's
        # parts are bags 0..3 and 3..5, split inside the checkpoint range
        # (2, 5], so each tile's running means carry over from one round to
        # the next.  Its raw (``bagged``) means fold in the same rounds.
        cloud = small_cloud("M12_Norm", 200, 3)
        est = EstimatorConfig(method="mle", k=4)
        cells = [PlanCell(v, est, 5, BaggingConfig(B, 0.4, 2))
                 for v in ("bagged", "bagged_pre", "bagged_pre_post") for B in (2, 5)]

        def run():
            out, parts = {}, []
            real = smoothing._Ensemble.pre_tile

            def recording(e, lo, hi, b0, b1, policy):
                parts.append((b0, b1))
                return real(e, lo, hi, b0, b1, policy)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(smoothing._Ensemble, "pre_tile", recording)
                run_plan(cloud, cells, lambda cell, values, flags, ms: out.setdefault(
                    cell, (values.tobytes(), flags.tobytes())), threads=threads)
            return out, sorted(set(parts))

        whole, parts = run()
        assert parts == [(0, 5)]
        monkeypatch.setattr(geometry, "_UNION_CELLS", 4000)
        monkeypatch.setattr(smoothing, "_HOOD_BYTES", 3 * 200 * 5)
        split, parts = run()
        assert parts == [(0, 3), (3, 5)]
        assert split == whole

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("hood_bytes", [2**24, 4096, 1])
    def test_the_whole_cloud_runs_first_and_changes_no_bit(self, hood_bytes, threads,
                                                           monkeypatch):
        # The unbagged cells are the whole cloud's one-bag ensemble.  Listed
        # after the bagged cells, and as wide as the r = 1 bags (m = n), it
        # still leads round 1 at every budget, and its cells are emitted
        # first; its neighborhoods, kept through every round, post-smooth.
        cloud = small_cloud("M7_Roll", 500, 5)
        est = EstimatorConfig(method="mle", k=5)
        bags = {"bagged_pre": BaggingConfig(3, 1.0, 1), "bagged_pre_post": BaggingConfig(4, 0.3, 2),
                "bagged_post": BaggingConfig(3, 0.3, 2)}
        cells = [PlanCell(v, est, k_s, bags.get(v))
                 for v in ("bagged_pre", "bagged_pre_post", "smoothed", "baseline", "bagged_post")
                 for k_s in (8, 12, 20)]
        monkeypatch.setattr(smoothing, "_HOOD_BYTES", hood_bytes)
        first, order, out = [], [], {}

        def rounds(ensembles, n, _real=smoothing._rounds):
            plan = _real(ensembles, n)
            first.append(plan[0][0][0].name)
            return plan

        monkeypatch.setattr(smoothing, "_rounds", rounds)
        run_plan(cloud, cells, lambda cell, values, flags, ms: (
            order.append(cell), out.setdefault(cell, (values, flags))), threads=threads)
        assert first == [None]
        assert order[:6] == [c for c in cells if c.bags is None]
        assert sorted(order, key=cells.index) == cells
        for cell in cells:
            want = variant_estimates(cloud, cell.variant, est, cell.bags, SmoothingConfig(cell.k_s))
            assert out[cell][0].tobytes() == want[0].tobytes(), cell
            assert out[cell][1].tobytes() == want[1].tobytes(), cell

    @pytest.mark.parametrize("rounds", [1, 3])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_thread_count_identity(self, variant, rounds, monkeypatch):
        # Tile workers write disjoint slices of shared result arrays; more
        # workers than cores and a short switch interval would expose a lost
        # or misplaced write as changed bytes.  200 bags of 55 select their
        # tables from each tile's ranking, with or without a full-cloud
        # table.  A pre-smoothed ensemble runs in one round or, with room
        # for a third of its bags a round, in up to three.
        s_cfg = SmoothingConfig(9)
        interval = sys.getswitchinterval()
        many = [BaggingConfig(bags=200, rate=0.05, seed=1)] if variant.startswith("bagged") else []
        for bag_cfg in self.configs(variant) + many:
            if rounds > 1 and variant in smoothing._PRE:
                m = bag_cfg.bag_size(self.cloud.n)
                hood = self.cloud.n * 9 * np.min_scalar_type(m - 1).itemsize
                monkeypatch.setattr(smoothing, "_HOOD_BYTES", -(-bag_cfg.bags // rounds) * hood)
            one = variant_estimates(self.cloud, variant, self.est, bag_cfg, s_cfg, threads=1)
            sys.setswitchinterval(1e-5)
            try:
                three = variant_estimates(self.cloud, variant, self.est, bag_cfg, s_cfg, threads=3)
            finally:
                sys.setswitchinterval(interval)
            assert one[0].tobytes() == three[0].tobytes(), bag_cfg
            assert one[1].tobytes() == three[1].tobytes(), bag_cfg

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rejects_an_unknown_policy_before_any_work(self, variant, monkeypatch):
        def no_work(*args):
            raise AssertionError("distances computed")

        monkeypatch.setattr(smoothing, "dist_block", no_work)
        bag_cfg = BaggingConfig(bags=2, rate=0.1, seed=1) if variant.startswith("bagged") else None
        with pytest.raises(BaggingError, match="unknown divergence policy 'bogus'"):
            variant_estimates(self.cloud, variant, self.est, bag_cfg, policy="bogus")

    def test_rejects_thread_count_below_one(self):
        bag_cfg = BaggingConfig(bags=2, rate=0.1, seed=1)
        for threads in (0, -5):
            with pytest.raises(SmoothingError, match=f"threads must be >= 1, got {threads}"):
                variant_estimates(self.cloud, "bagged", self.est, bag_cfg, threads=threads)


class TestClock:
    """Per-cell milliseconds, charged by the tile workers to one shared clock."""

    @pytest.mark.parametrize("hood_bytes", [smoothing._HOOD_BYTES, 0])
    def test_every_row_has_a_positive_time_under_thread_churn(self, hood_bytes, monkeypatch):
        # Three workers and a short switch interval interleave the charges;
        # a lost one would leave a cell at zero or NaN.
        monkeypatch.setattr(smoothing, "_HOOD_BYTES", hood_bytes)
        grid = SweepGrid(datasets=("M12_Norm",), estimators=("mle", "mada"), k_values=(4, 6),
                         r_values=(0.1, 0.5), b_values=(2, 5), n=300)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            result = run_sweep(grid, threads=3)
        finally:
            sys.setswitchinterval(interval)
        assert len(result.rows) == grid.cell_count()
        times = [row.wall_time_ms for row in result.rows]
        assert all(math.isfinite(t) and t > 0 for t in times), times

    @pytest.mark.parametrize("hood_bytes", [smoothing._HOOD_BYTES, 0])
    def test_cells_are_charged_the_kernels_whose_estimates_they_read(self, hood_bytes,
                                                                     monkeypatch):
        # On a fake clock every kernel call takes 1000 s.  ``bagged`` reads
        # the estimates of its queries and ``bagged_pre`` those of their
        # in-bag neighbors, both from the map over tiles, in one round or,
        # without a budget for kept neighborhoods, in one round per bag.
        now = [0.0]

        def kernel(*args, _real=smoothing.estimates_from_tables):
            now[0] += 1000.0
            return _real(*args)

        monkeypatch.setattr(smoothing, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(smoothing, "estimates_from_tables", kernel)
        monkeypatch.setattr(smoothing, "_HOOD_BYTES", hood_bytes)
        cloud = lattice_cloud(4)
        est, bags = EstimatorConfig(method="mle", k=4), BaggingConfig(bags=3, rate=0.3, seed=1)
        ms = {}
        run_plan(cloud, [PlanCell(v, est, 5, bags) for v in ("bagged", "bagged_pre")],
                 lambda cell, values, flags, t: ms.setdefault(cell.variant, t))
        assert ms["bagged"] >= 1e6
        assert ms["bagged_pre"] >= 1e6


class TestTileBudgets:
    """The chunk, tile, TLE and kept-neighborhood budgets decide memory and
    call counts only."""

    @settings(max_examples=15, deadline=None)
    @given(kind=st.sampled_from(("M7_Roll", "M12_Norm", "lattice")), n=st.integers(30, 160),
           method=st.sampled_from(METHODS), variant=st.sampled_from(VARIANTS),
           rate=st.sampled_from((0.1, 0.3, 0.7)), B=st.integers(1, 6),
           block=st.integers(1, 4096), union=st.integers(1, 8192), tle=st.integers(1, 512),
           hood=st.sampled_from((2**13, 2**24)), rule=st.sampled_from(sorted(THIN_RULES)),
           many=st.booleans(), seed=st.integers(0, 2**16))
    def test_budgets_change_no_bit(self, kind, n, method, variant, rate, B, block, union, tle,
                                   hood, rule, many, seed):
        bagged = variant.startswith("bagged")
        if bagged and many:
            # 50 bags of 10 points: alone, the plan ranks its tiles and the
            # rule selects the bags' tables from the ranking.  Budgets of a
            # few cells would rank 50 bags' tables one query at a time (up
            # to 2 s an example); the floors still cut the cloud into ten
            # tiles and each bag's rows of a tile into two chunks.  TLE runs
            # once per bag and tile on ten rows: a budget under 18 cells
            # (one-row chunks, ~2 s an example) is still drawn for the other
            # plans, and 45 cells still cut each call into two chunks.
            n, rate, B = 100, 0.1, 50
            block, union, tle = max(block, 64), max(union, 1024), max(tle, 45)
        cloud = small_cloud(kind, n, seed)
        est = EstimatorConfig(method=method, k=3)
        bag_cfg = BaggingConfig(B, rate, seed) if bagged else None
        if bag_cfg is not None and bag_cfg.bag_size(n) < 5:
            bag_cfg = BaggingConfig(B, 0.7, seed)
        s_cfg = SmoothingConfig(4)
        ids = np.arange(n, dtype=np.int64)
        bag = draw_bags(n, BaggingConfig(1, 0.5, seed))[0]
        d = dist_block(cloud.points, cloud.points[bag])
        want = (variant_estimates(cloud, variant, est, bag_cfg, s_cfg),
                neighbor_tables(d, bag, ids, 3, 5))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_BLOCK_CELLS", block)
            mp.setattr(geometry, "_UNION_CELLS", union)
            mp.setattr(estimators, "_TLE_CELLS", tle)
            mp.setattr(smoothing, "_HOOD_BYTES", hood)
            mp.setattr(smoothing, "_thin_depth", THIN_RULES[rule])
            # Alone, a bagged plan ranks over the bags' union (a part of the
            # cloud at rate 0.1); with a baseline cell it ranks whole tiles.
            # Either way the forced rule decides which ensembles read their
            # tables from the ranking.
            got = [run(cloud, variant, est, bag_cfg, s_cfg, threads=2)
                   for run in (variant_estimates, with_baseline)]
            table = neighbor_tables(d, bag, ids, 3, 5)
        for run in got:
            for a, b in zip(run, want[0]):
                assert a.tobytes() == b.tobytes()
        for field in ("incl_idx", "incl_dist", "excl_idx", "excl_dist"):
            assert getattr(table, field).tobytes() == getattr(want[1], field).tobytes()


class TestThinningRule:
    """Which ensembles read their tables from a tile's ranked prefix."""

    def test_choice_on_the_benchmark_shapes(self):
        # sweep_kr: n = 2500, B = 10, k and k_s up to 72 (need = 73, and the
        # full-cloud table ranks every tile to 73) at the nine default
        # rates; the four widest bags thin.
        sizes = [math.ceil(2500 * r) for r in DEFAULT_R_GRID]
        assert sizes == [105, 147, 205, 285, 397, 554, 772, 1076, 1500]
        assert ([smoothing._thin_depth(2500, m, 73, 10, 73) for m in sizes]
                == [0] * 5 + [497, 349, 242, 164])
        # sweep_bags: k = 10, up to 400 bags of 125, no full-cloud table;
        # their union is the whole cloud, ranked to D = 672 > m, and the
        # bags select from it.
        u = np.unique(draw_bags(2500, BaggingConfig(400, 0.05, 3))).size
        assert u == 2500
        assert smoothing._thin_depth(u, 125, 11, 400, 0) == 672
        # library_n8000: ten bags of 400 at n = 8000 partition, over their
        # union (bagged) and next to a full-cloud table (bagged_pre_post).
        u = np.unique(draw_bags(8000, BaggingConfig(10, 0.05, 3))).size
        assert 3100 < u < 3300
        assert smoothing._thin_depth(u, 400, 11, 10, 0) == 0
        assert smoothing._thin_depth(8000, 400, 11, 10, 11) == 0
        # The runtime crossover at r * B = 5 (ten bags of 1250, u = 2500):
        # wide bags thin next to a full-cloud table, but over their union
        # alone they partition.
        assert smoothing._thin_depth(2500, 1250, 11, 10, 11) == 51
        assert smoothing._thin_depth(2500, 1250, 11, 10, 0) == 0

    def test_few_bags_do_not_pay_for_a_deeper_prefix(self):
        # At m = 554 the prefix pays from six bags; at m = 1500 from one.
        assert [smoothing._thin_depth(2500, 554, 73, B, 73) for B in (1, 5, 6)] == [0, 0, 497]
        assert smoothing._thin_depth(2500, 1500, 73, 1, 73) == 164
        # Without a full-cloud table the prefix is a whole ranking: bags of
        # 125 select from it from 74 of them.
        assert [smoothing._thin_depth(2500, 125, 11, B, 0) for B in (73, 74)] == [0, 672]

    @pytest.mark.parametrize("u, m, need", [(2500, 554, 73), (2500, 1500, 73), (2500, 1250, 11),
                                            (8000, 4000, 11), (300, 299, 2), (2500, 125, 11),
                                            (8000, 400, 11)])
    def test_depth_holds_need_members_by_the_hypergeometric_law(self, u, m, need):
        depth = smoothing._thin_depth(u, m, need, 400, need)
        assert need <= depth <= u
        members = np.random.default_rng(0).hypergeometric(m, u - m, depth, size=200_000)
        assert np.mean(members < need) < 1e-3

    @pytest.mark.parametrize("variant, bag_cfg, ranks", [
        # Bag-union plans: 200 bags of 55 select from a prefix, 3 do not.
        ("bagged", BaggingConfig(200, 0.05, 1), True),
        ("bagged", BaggingConfig(3, 0.05, 1), False),
        ("bagged_pre", BaggingConfig(200, 0.05, 1), True),
        # A full-cloud table ranks every tile.
        ("bagged_post", BaggingConfig(3, 0.05, 1), True),
        ("baseline", None, True),
    ])
    def test_a_plan_ranks_each_tile_once_or_not_at_all(self, variant, bag_cfg, ranks,
                                                        monkeypatch):
        cloud = generate(GeneratorSpec("M12_Norm", n=1100, seed=2))
        calls, real = [], geometry._RankedTile

        class Recording(real):
            @property
            def ranks(self):
                if self._ranks is None:
                    calls.append(self.depth)
                return real.ranks.fget(self)

        monkeypatch.setattr(geometry, "_RankedTile", Recording)
        variant_estimates(cloud, variant, EstimatorConfig("mle", k=6), bag_cfg)
        tiles = len(geometry._query_tiles(1100, 1100))
        assert len(calls) == (tiles if ranks else 0)


class TestSmoothingConfig:
    def test_registries(self):
        assert VARIANTS == (
            "baseline",
            "smoothed",
            "bagged",
            "bagged_post",
            "bagged_pre",
            "bagged_pre_post",
        )

    def test_validation(self):
        with pytest.raises(SmoothingError):
            SmoothingConfig(k_s=0)


class TestGatherMean:
    def test_hand_example(self):
        values = np.array([1.0, 2.0, 4.0])
        idx = np.array([[0, 1], [1, 2], [0, 2]])
        means, flags = gather_mean(values, idx)
        np.testing.assert_allclose(means, [1.5, 3.0, 2.5])
        assert not flags.any()

    def test_flags_spread_by_any(self):
        values = np.array([1.0, 2.0, 4.0])
        idx = np.array([[0, 1], [1, 2]])
        flags = np.array([True, False, False])
        _, out = gather_mean(values, idx, flags)
        np.testing.assert_array_equal(out, [True, False])


class TestSmooth:
    def test_hand_trace(self):
        # Reference on a line with estimates 1,2,3,4; query at 0.1 with
        # k_s=2 averages the two nearest (points 0 and 1) -> 1.5.
        ref = np.array([[0.0], [1.0], [2.0], [3.0]])
        est = np.array([1.0, 2.0, 3.0, 4.0])
        out = smooth(est, ref, np.array([[0.1]]), SmoothingConfig(k_s=2))
        assert out[0] == 1.5

    def test_member_query_includes_own_estimate(self):
        ref = np.array([[0.0], [1.0], [5.0]])
        est = np.array([10.0, 20.0, 90.0])
        out = smooth(est, ref, ref, SmoothingConfig(k_s=2))
        np.testing.assert_allclose(out, [15.0, 15.0, 55.0])

    def test_constant_estimates_stay_constant(self, rng):
        ref = rng.normal(size=(30, 3))
        est = np.full(30, 7.25)
        out = smooth(est, ref, rng.normal(size=(10, 3)), SmoothingConfig(k_s=5))
        np.testing.assert_array_equal(out, np.full(10, 7.25))

    def test_k_s_equal_to_reference_gives_global_mean(self, rng):
        ref = rng.normal(size=(12, 2))
        est = rng.uniform(1.0, 5.0, size=12)
        out = smooth(est, ref, rng.normal(size=(4, 2)), SmoothingConfig(k_s=12))
        np.testing.assert_allclose(out, est.mean(), rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 15))
    def test_range_property(self, seed, k_s):
        r = np.random.default_rng(seed)
        m = int(r.integers(k_s, k_s + 20))
        ref = r.normal(size=(m, 2))
        est = r.uniform(-3.0, 9.0, size=m)
        out = smooth(est, ref, r.normal(size=(6, 2)), SmoothingConfig(k_s=k_s))
        assert np.all(out >= est.min() - 1e-12)
        assert np.all(out <= est.max() + 1e-12)

    def test_capacity_and_alignment_errors(self, rng):
        ref = rng.normal(size=(5, 2))
        with pytest.raises(SmoothingCapacityError):
            smooth(np.zeros(5), ref, ref, SmoothingConfig(k_s=6))
        with pytest.raises(SmoothingError):
            smooth(np.zeros(4), ref, ref, SmoothingConfig(k_s=2))

    def test_rejects_non_finite_reference(self, rng):
        ref = rng.normal(size=(10, 2))
        bad = ref.copy()
        bad[3, 1] = np.nan
        with pytest.raises(GeometryError, match="reference"):
            smooth(np.ones(10), bad, ref, SmoothingConfig(k_s=2))

    def test_rejects_non_finite_queries(self, rng):
        ref = rng.normal(size=(10, 2))
        queries = ref[:4].copy()
        queries[0, 0] = np.nan
        with pytest.raises(GeometryError, match="queries"):
            smooth(np.ones(10), ref, queries, SmoothingConfig(k_s=2))

    def test_rejects_one_flag_per_point_mismatch(self, rng):
        ref = rng.normal(size=(50, 2))
        with pytest.raises(SmoothingError, match="60 flags for 50 reference points"):
            smooth(np.ones(50), ref, ref, SmoothingConfig(k_s=2), flags=np.zeros(60, dtype=bool))

    def test_flags_round_trip(self, rng):
        ref = rng.normal(size=(10, 2))
        est = rng.uniform(size=10)
        flags = np.zeros(10, dtype=bool)
        flags[3] = True
        out, oflags = smooth(est, ref, ref, SmoothingConfig(k_s=2), flags=flags)
        assert oflags.dtype == bool
        assert oflags.any()  # at least point 3's own neighborhood is tainted


class TestUnclampedDivergence:
    """A duplicate pair gives +inf estimates, which ``clamp_max=inf`` keeps."""

    pts = np.random.default_rng(0).normal(size=(300, 3))
    pts[1] = pts[0]
    cloud = PointCloud.single_manifold(pts, 3.0)
    est = EstimatorConfig("mle", 5, clamp_max=math.inf)
    bag_cfg = BaggingConfig(20, 0.5, 0)

    def per_bag(self):
        trace = []
        reference(self.cloud, "bagged", self.est, self.bag_cfg, trace=trace)
        return np.array([values for _, values, _ in trace])

    def test_infinite_first_bag_is_not_nan(self):
        per_bag = self.per_bag()
        assert np.isinf(per_bag[0, :2]).all()  # both copies fall in the first bag
        finite = np.isfinite(per_bag)
        values, flags = variant_estimates(self.cloud, "bagged", self.est, self.bag_cfg,
                                          policy="clamp")
        assert not np.isnan(values).any()
        np.testing.assert_array_equal(values[:2], [math.inf, math.inf])
        assert flags[:2].all()
        values, flags = variant_estimates(self.cloud, "bagged", self.est, self.bag_cfg,
                                          policy="skip")
        assert finite[:, :2].any(axis=0).all() and not flags[:2].any()
        for q in (0, 1):
            np.testing.assert_allclose(values[q], per_bag[finite[:, q], q].mean(), rtol=1e-12)


class TestPipelines:
    cloud = generate(GeneratorSpec("M13a_Scurve", n=260, seed=0))
    est = EstimatorConfig(method="mle", k=8)

    def test_baseline_shapes(self):
        values, flags = variant_estimates(self.cloud, "baseline", self.est)
        assert values.shape == flags.shape == (260,)
        assert np.all(np.isfinite(values))

    def test_baseline_smooth_with_ks1_is_identity(self):
        base, bflags = variant_estimates(self.cloud, "baseline", self.est)
        sm, sflags = variant_estimates(self.cloud, "smoothed", self.est,
                                       s_cfg=SmoothingConfig(k_s=1))
        # k_s=1 neighborhoods contain only the query itself
        assert sm.tobytes() == base.tobytes()
        np.testing.assert_array_equal(sflags, bflags)

    def test_post_smooth_with_ks1_matches_plain_bagging(self):
        bag = BaggingConfig(bags=4, rate=0.5, seed=2)
        plain, _ = variant_estimates(self.cloud, "bagged", self.est, bag)
        sm, _ = variant_estimates(self.cloud, "bagged_post", self.est, bag, SmoothingConfig(k_s=1))
        assert sm.tobytes() == plain.tobytes()

    def test_pre_smooth_traces_in_bag_neighborhoods(self):
        bag = BaggingConfig(bags=3, rate=0.4, seed=7)
        trace = []
        reference(self.cloud, "bagged_pre", self.est, bag, k_s=5, trace=trace)
        assert len(trace) == 3
        for members, _, hood in trace:
            assert hood.shape == (260, 5)
            # pre-smoothing may only ever average over the bag's own points
            assert np.all(np.isin(hood, members))
        # With k_s = m every query averages the whole bag, so one bag's
        # pre-smoothed values all equal the mean of its members' estimates.
        one = BaggingConfig(bags=1, rate=0.4, seed=7)
        m = one.bag_size(260)
        values, _ = variant_estimates(self.cloud, "bagged_pre", self.est, one, SmoothingConfig(k_s=m))
        members, raw, _ = trace[0]
        np.testing.assert_allclose(values, raw[members].mean(), rtol=1e-12)

    def test_pre_smooth_ks1_in_bag_neighborhood_is_nearest_member(self):
        # k_s=1 pre-smoothing replaces each query's estimate by that of its
        # nearest in-bag point (itself when a member), then aggregates.
        bag = BaggingConfig(bags=2, rate=0.5, seed=9)
        trace = []
        reference(self.cloud, "bagged_pre", self.est, bag, k_s=1, trace=trace)
        values, _ = variant_estimates(self.cloud, "bagged_pre", self.est, bag, SmoothingConfig(k_s=1))
        manual = np.empty((260, 2))
        for i, (members, raw, hood) in enumerate(trace):
            member_set = set(members.tolist())
            for q in range(260):
                if q in member_set:
                    assert hood[q, 0] == q  # own estimate survives
                manual[q, i] = raw[hood[q, 0]]
        np.testing.assert_allclose(values, manual.mean(axis=1), rtol=1e-12)

    def test_pre_post_composes_both_stages(self):
        bag = BaggingConfig(bags=3, rate=0.5, seed=4)
        cfg = SmoothingConfig(k_s=6)
        values, flags = variant_estimates(self.cloud, "bagged_pre_post", self.est, bag, cfg)
        assert values.shape == (260,)
        pre_only, pre_flags = variant_estimates(self.cloud, "bagged_pre", self.est, bag, cfg)
        resmoothed = smooth(pre_only, self.cloud, self.cloud.points, cfg, flags=pre_flags)
        assert values.tobytes() == resmoothed[0].tobytes()
        np.testing.assert_array_equal(flags, resmoothed[1])

    def test_capacity_guards(self):
        tiny = BaggingConfig(bags=2, rate=0.05, seed=0)  # m = 13
        with pytest.raises(LocalityCapacityError):
            variant_estimates(self.cloud, "bagged_pre", EstimatorConfig(method="mle", k=13),
                              tiny, SmoothingConfig(k_s=2))
        with pytest.raises(SmoothingCapacityError):
            variant_estimates(self.cloud, "bagged_pre", EstimatorConfig(method="mle", k=5),
                              tiny, SmoothingConfig(k_s=14))
        with pytest.raises(SmoothingCapacityError):
            variant_estimates(self.cloud, "bagged_post", EstimatorConfig(method="mle", k=5),
                              tiny, SmoothingConfig(k_s=261))
        with pytest.raises(LocalityCapacityError):
            variant_estimates(self.cloud, "baseline", EstimatorConfig(method="mle", k=260))


class TestVariantDispatch:
    cloud = generate(GeneratorSpec("M7_Roll", n=220, seed=1))
    est = EstimatorConfig(method="mle", k=7)
    bag = BaggingConfig(bags=3, rate=0.5, seed=0)

    def test_every_variant_runs(self):
        for variant in VARIANTS:
            needs_bag = variant.startswith("bagged")
            values, flags = variant_estimates(
                self.cloud, variant, self.est,
                bag_cfg=self.bag if needs_bag else None,
            )
            assert values.shape == (220,)
            assert flags.dtype == bool

    def test_matches_direct_calls(self):
        a, _ = variant_estimates(self.cloud, "baseline", self.est)
        b, _ = reference(self.cloud, "baseline", self.est)
        assert a.tobytes() == b.tobytes()
        c, _ = variant_estimates(self.cloud, "bagged_pre", self.est, bag_cfg=self.bag)
        d, _ = reference(self.cloud, "bagged_pre", self.est, self.bag, k_s=7)
        assert c.tobytes() == d.tobytes()

    def test_unknown_variant(self):
        with pytest.raises(SmoothingError):
            variant_estimates(self.cloud, "tripled", self.est)

    def test_bag_config_presence_enforced(self):
        with pytest.raises(SmoothingError):
            variant_estimates(self.cloud, "bagged", self.est)  # missing
        with pytest.raises(SmoothingError):
            variant_estimates(self.cloud, "baseline", self.est, bag_cfg=self.bag)  # extra

    def test_smoothing_config_ignored_without_smoothing(self):
        # `lidbag estimate --k-s` on a variant that does not smooth.
        for variant, bag in (("baseline", None), ("bagged", self.bag)):
            plain = variant_estimates(self.cloud, variant, self.est, bag)
            wide = variant_estimates(self.cloud, variant, self.est, bag, SmoothingConfig(k_s=500))
            assert plain[0].tobytes() == wide[0].tobytes()

    def test_default_smoothing_k_is_estimator_k(self):
        a, _ = variant_estimates(self.cloud, "smoothed", self.est)
        b, _ = variant_estimates(self.cloud, "smoothed", self.est, s_cfg=SmoothingConfig(k_s=7))
        assert a.tobytes() == b.tobytes()


def small_cloud(kind, n, seed):
    """A generator's cloud, or integer points in a 3-D box: exact ties and copies."""
    if kind == "lattice":
        pts = np.random.default_rng(seed).integers(0, 8, size=(n, 3)).astype(np.float64)
        return PointCloud.single_manifold(pts, 3.0)
    return generate(GeneratorSpec(kind, n=n, seed=seed))


class TestInvariants:
    """Invariants the design relies on, as properties of ``variant_estimates``."""

    kinds = st.sampled_from(("M7_Roll", "M12_Norm", "Uniform", "Lollipop", "lattice"))

    @settings(max_examples=20, deadline=None)
    @given(kind=kinds, n=st.integers(20, 200), k=st.integers(2, 8),
           method=st.sampled_from(METHODS), B=st.integers(1, 4),
           pair=st.sampled_from([("bagged", "baseline"), ("bagged_post", "smoothed"),
                                 ("bagged_pre", "smoothed")]),
           policy=st.sampled_from(DIVERGENCE_POLICIES), seed=st.integers(0, 2**16))
    def test_rate_one_reproduces_the_unbagged_variant(self, kind, n, k, method, B, pair,
                                                      policy, seed):
        # Every bag at r = 1 is the whole cloud, ranked as a stack of bags
        # read from each distance tile, while the unbagged variant ranks the
        # full-cloud table from the same tiles.
        cloud = small_cloud(kind, n, seed)
        est = EstimatorConfig(method=method, k=k)
        bagged, unbagged = pair
        got = variant_estimates(cloud, bagged, est, BaggingConfig(B, 1.0, seed), policy=policy)
        want = variant_estimates(cloud, unbagged, est, policy=policy)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    @settings(max_examples=20, deadline=None)
    @given(kind=kinds, n=st.integers(40, 200), k=st.integers(2, 5),
           method=st.sampled_from(METHODS),
           variant=st.sampled_from([v for v in VARIANTS if v.startswith("bagged")]),
           rate=st.sampled_from((0.2, 0.35, 0.6)), b1=st.integers(1, 3),
           extra=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_b_prefix_stable(self, kind, n, k, method, variant, rate, b1, extra, seed):
        # One plan holding B = b1 and B = b2 emits at each checkpoint what a
        # separate run emits, even when b2 crosses r * B = 1 and its bags
        # widen the union the plan's distance tiles cover.
        cloud = small_cloud(kind, n, seed)
        est = EstimatorConfig(method=method, k=k)
        configs = [BaggingConfig(b, rate, seed) for b in (b1, b1 + extra)]
        out = {}
        run_plan(cloud, [PlanCell(variant, est, k, c) for c in configs],
                 lambda cell, values, flags, ms: out.setdefault(cell.bags, (values, flags)))
        for c in configs:
            alone = variant_estimates(cloud, variant, est, c)
            assert out[c][0].tobytes() == alone[0].tobytes(), c
            assert out[c][1].tobytes() == alone[1].tobytes(), c

    @settings(max_examples=20, deadline=None)
    @given(kind=kinds, n=st.integers(20, 200), k=st.integers(2, 7),
           method=st.sampled_from(METHODS), variant=st.sampled_from(VARIANTS),
           exponent=st.integers(-8, 8).filter(bool), rate=st.sampled_from((0.4, 1.0)),
           seed=st.integers(0, 2**16))
    def test_scale_invariant(self, kind, n, k, method, variant, exponent, rate, seed):
        # A power-of-two factor scales every distance exactly, so neighbor
        # tables and ties are unchanged and only the kernels' rounding moves.
        cloud = small_cloud(kind, n, seed)
        scaled = PointCloud(cloud.points * 2.0**exponent, cloud.manifold_label, cloud.gt_lid)
        est = EstimatorConfig(method=method, k=k)
        bag_cfg = BaggingConfig(3, rate, seed) if variant.startswith("bagged") else None  # m >= 8
        a = variant_estimates(cloud, variant, est, bag_cfg)
        b = variant_estimates(scaled, variant, est, bag_cfg)
        np.testing.assert_array_equal(b[1], a[1])
        np.testing.assert_allclose(b[0], a[0], rtol=1e-9, atol=0)
