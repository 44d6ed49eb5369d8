"""Metric repair, instance generation, ground-truth enumeration, and fuzzing."""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cofix import (
    Arity,
    Coefficients,
    CoincidenceReport,
    InstanceRecipe,
    MappingMode,
    MappingSet,
    MetricMode,
    MetricSpace,
    PipelineStatus,
    SolveStatus,
    TableMapping,
    check_condition,
    check_range_inclusions,
    enumerate_fixed_points,
    generate_instance,
    identity_mapping,
    metric_closure_repair,
    oracle_summary,
    picard_solve,
    run_fuzz,
    solve_pipeline,
    verify_metric_axioms,
)
from cofix import oracle
from cofix.contraction import validate_coefficients
from cofix.errors import CofixError, DomainError, ExhaustiveOnInfinite

PATH3_TABLE = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])


def squaring_closure(table, min_separation=1e-6):
    """The repair by repeated min-plus squaring with an n x n x n temporary; a reference."""
    D = np.nan_to_num(np.abs(np.array(table, dtype=float)), nan=0.0, posinf=1024.0, neginf=0.0)
    D = np.round(np.clip(D, 0.0, 1024.0) * 2.0**20) / 2.0**20
    D = np.minimum(D, D.T)
    np.fill_diagonal(D, 0.0)
    n = D.shape[0]
    for _ in range(max(int(np.ceil(np.log2(max(n, 2)))) + 2, 2)):
        D = np.minimum(D, np.min(D[:, :, None] + D[None, :, :], axis=1))
    off = ~np.eye(n, dtype=bool)
    if n > 1 and D[off].min() < min_separation:
        D = D + np.ceil(min_separation * 2.0**20) / 2.0**20 * off
    return D


def guarded_repair(table):
    """The repair's snap and closure followed by the axiom check it once ended with; a reference."""
    D = np.nan_to_num(np.abs(np.asarray(table, dtype=float)), nan=0.0, posinf=1024.0, neginf=0.0)
    G = np.round(np.clip(D, 0.0, 1024.0) * 2.0**20).astype(np.uint32)
    G = np.minimum(G, G.T)
    np.fill_diagonal(G, 0)
    for k in range(G.shape[0]):
        G = np.minimum(G, G[:, k, None] + G[None, k, :])
    D = G / 2.0**20
    off = ~np.eye(len(D), dtype=bool)
    if off.any() and D[off].min() < oracle.MIN_SEPARATION:
        D = D + np.ceil(oracle.MIN_SEPARATION * 2.0**20) / 2.0**20 * off
    report = verify_metric_axioms(MetricSpace.finite(D), tolerance=0.0)
    assert report.passed, report
    return D


# raw entries the repair must tame: NaN, infinities, negatives, signed zeros, entries past
# MAX_DISTANCE (1024) and below MIN_SEPARATION (1e-6), which make the separation bump fire
RAW_SPECIALS = np.array([np.nan, np.inf, -np.inf, -3.5, -0.0, 0.0, 2e3, 1e9, 3e-7, 9.5e-7, 1e-6, 1024.0])


@st.composite
def raw_tables(draw):
    """A square raw table, n from 1 to 130, of uniform entries (tiny ones on some draws) with special entries mixed in."""
    n = draw(st.integers(1, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hi = draw(st.sampled_from([2e-6, 8.0, 1500.0]))
    raw = rng.uniform(-hi / 4, hi, size=(n, n))
    special = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.02, 0.3]))
    raw[special] = rng.choice(RAW_SPECIALS, size=int(special.sum()))
    return raw


def loop_descent_table(rho, phi, allowed, rank):
    """Descent targets by scanning every allowed point for every point; a reference."""
    caps = phi * rho
    order = sorted(allowed, key=lambda y: (-rho[y], y))
    table = []
    for x in range(rho.shape[0]):
        candidates = [y for y in order if rho[y] <= caps[x]]
        table.append(candidates[min(rank, len(candidates) - 1)])
    return table


class TestDescentTable:
    def test_matches_the_loop(self):
        rng = np.random.default_rng(20)
        for case in range(600):
            n = int(rng.integers(2, 80))
            mode = list(MetricMode)[case % 3]
            rho = oracle._rho_profile(rng, n, mode)
            anchor = int(rng.integers(0, n))
            rho[anchor] = 0.0
            # phi = 0.5 on integer profiles puts caps exactly on other rho values
            phi = 0.5 if case % 6 == 1 else float(rng.uniform(0.35, 0.65))
            allowed = np.arange(n)
            if case % 2:
                f = rng.integers(0, n, size=n)
                f[anchor] = anchor
                allowed = np.unique(f)
            for rank in (0, 1):
                got = oracle._descent_table(rho, phi, allowed, rank).table
                assert got.tolist() == loop_descent_table(rho, phi, allowed, rank), (case, rank)

    def test_ties_go_to_the_smallest_index(self):
        rho = np.array([2.0, 1.0, 0.0, 1.0, 2.0, 4.0])
        assert oracle._descent_table(rho, 0.5, np.arange(6), 0).table.tolist() == [1, 2, 2, 2, 1, 0]
        assert oracle._descent_table(rho, 0.5, np.arange(6), 1).table.tolist() == [3, 2, 2, 2, 3, 4]


class TestMetricClosureRepair:
    def test_valid_table_is_untouched(self):
        out = metric_closure_repair(PATH3_TABLE)
        assert np.array_equal(out, PATH3_TABLE)

    def test_triangle_violations_are_shortcut(self):
        out = metric_closure_repair(np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]))
        assert np.array_equal(out, PATH3_TABLE)

    def test_asymmetry_resolved_by_minimum(self):
        out = metric_closure_repair(np.array([[0.0, 3.0], [1.0, 0.0]]))
        assert np.array_equal(out, [[0.0, 1.0], [1.0, 0.0]])

    def test_garbage_entries_are_tamed(self):
        out = metric_closure_repair(np.array([[0.0, -2.0], [np.nan, 0.0]]))
        rep = verify_metric_axioms(MetricSpace.finite(out), tolerance=0.0)
        assert rep.passed
        # nan collapses to zero, so the separation bump supplies the distance
        assert out[0, 1] == pytest.approx(2.0 / 2**20)

    def test_oversized_entries_are_clipped(self):
        out = metric_closure_repair(np.array([[0.0, 1e9], [1e9, 0.0]]))
        assert out[0, 1] == 1024.0

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            metric_closure_repair(np.zeros((2, 3)))

    def test_result_always_passes_exact_verification(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            raw = rng.uniform(0.0, 10.0, size=(n, n))
            out = metric_closure_repair(raw)
            assert verify_metric_axioms(MetricSpace.finite(out), tolerance=0.0).passed

    def test_matches_the_squaring_closure(self):
        rng = np.random.default_rng(2024)
        for k in range(42):
            n = int(rng.integers(1, 131))
            raw = rng.uniform(-1.0, 1500.0 if k % 3 == 0 else 8.0, size=(n, n))
            mask = rng.random((n, n))
            raw[mask < 0.02] = np.nan
            raw[(mask >= 0.02) & (mask < 0.03)] = np.inf
            raw[(mask >= 0.03) & (mask < 0.035)] = -np.inf
            assert np.array_equal(metric_closure_repair(raw), squaring_closure(raw)), (k, n)

    @pytest.mark.parametrize("n", [2, 9, 64])
    def test_grid_top_matches_the_squaring_closure(self, n):
        # raw 1e9 and inf clip to 1024, 2**30 grid units: two such entries sum
        # to exactly 2**31, where int32 would wrap and uint32 does not
        rng = np.random.default_rng(n)
        raw = np.where(rng.random((n, n)) < 0.5, 1e9, np.inf)
        top = metric_closure_repair(raw)
        assert np.array_equal(top, squaring_closure(raw))
        assert np.array_equal(top, 1024.0 * (1 - np.eye(n)))
        # a few short edges among the top ones: paths mix top and short sums
        raw[rng.random((n, n)) < 0.1] = rng.uniform(0.0, 1023.0)
        assert np.array_equal(metric_closure_repair(raw), squaring_closure(raw))

    @pytest.mark.parametrize(
        "raw",
        [np.array([[-0.0]]), np.zeros((3, 3)), -np.zeros((4, 4)), np.full((5, 5), 4e-7), np.array([[0.0, 3e-7, 9.0], [5.0, -0.0, 2e-7], [np.nan, 8.0, 1.0]])],
        ids=["one_point", "zeros", "negative_zeros", "below_separation", "mixed_below_separation"],
    )
    def test_edge_tables_match_the_squaring_closure_bit_for_bit(self, raw):
        # one point has no off-diagonal entry to lift; the others sit below MIN_SEPARATION and are lifted
        out = metric_closure_repair(raw)
        assert out.tobytes() == squaring_closure(raw).tobytes()
        assert not np.signbit(out).any()

    def test_memory_stays_quadratic(self):
        raw = np.random.default_rng(3).uniform(0.1, 8.0, size=(300, 300))
        tracemalloc.start()
        try:
            metric_closure_repair(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 300 x 300 float array is 0.7 MiB; the squaring closure's cube was 206 MiB
        assert peak < 16 * 2**20

    @settings(max_examples=120, deadline=None)
    @given(raw=raw_tables())
    def test_closed_without_a_guard(self, raw):
        # the repair runs no axiom check: its docstring proves the table exact; here the check that
        # once ended it passes at zero tolerance, and the table is the guarded one bit for bit
        out = metric_closure_repair(raw)
        assert verify_metric_axioms(MetricSpace.finite(out), tolerance=0.0).passed
        assert out.tobytes() == guarded_repair(raw).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 8))
    def test_repair_is_idempotent(self, seed, n):
        raw = np.random.default_rng(seed).uniform(0.0, 6.0, size=(n, n))
        once = metric_closure_repair(raw)
        assert np.array_equal(metric_closure_repair(once), once)


class TestEnumeration:
    def test_fixed_points(self):
        space = MetricSpace.finite(PATH3_TABLE)
        assert enumerate_fixed_points(space, TableMapping([0, 0, 1])) == (0,)
        assert enumerate_fixed_points(space, identity_mapping(3)) == (0, 1, 2)

    def test_summary_collects_per_mapping_results(self):
        space = MetricSpace.finite(PATH3_TABLE)
        ms = MappingSet(S=TableMapping([0, 0, 2]), T=TableMapping([0, 1, 1]), arity=Arity.TWO)
        result = oracle_summary(space, ms)
        assert result.fixed_points == {"S": (0, 2), "T": (0, 1)}
        assert result.common_fixed_points == (0,)
        assert result.coincidence_classes == ()
        json.dumps(result.to_dict())

    def test_summary_groups_coincidence_classes(self):
        space = MetricSpace.finite(PATH3_TABLE)
        ms = MappingSet(
            S=TableMapping([1, 1, 1]), T=TableMapping([1, 1, 1]), f=TableMapping([0, 0, 1]), arity=Arity.THREE
        )
        result = oracle_summary(space, ms)
        assert result.common_fixed_points == ()
        assert len(result.coincidence_classes) == 1
        klass = result.coincidence_classes[0]
        assert klass.value == 1 and klass.points == (2,)

    def test_ambiguous_common_fixed_points_have_no_unique_answer(self):
        space = MetricSpace.finite(PATH3_TABLE)
        ident = identity_mapping(3)
        result = oracle_summary(space, MappingSet(S=ident, T=ident, arity=Arity.TWO))
        assert result.common_fixed_points == (0, 1, 2)

    def test_needs_finite_space(self):
        from cofix import AffineMapping

        half = AffineMapping([[0.5]], [0.0])
        with pytest.raises(ExhaustiveOnInfinite):
            oracle_summary(MetricSpace.euclidean(1), MappingSet(S=half, T=half, arity=Arity.TWO))


class TestInstanceRecipe:
    def test_roundtrip(self):
        r = InstanceRecipe(seed=5, n=8, arity=Arity.THREE, metric_mode=MetricMode.INTEGER)
        assert InstanceRecipe.from_dict(json.loads(json.dumps(r.to_dict()))) == r

    def test_coercion_from_plain_values(self):
        r = InstanceRecipe(seed=0, n=4, arity=3, metric_mode="integer", mapping_mode="random")
        assert r.arity is Arity.THREE
        assert r.metric_mode is MetricMode.INTEGER
        assert r.mapping_mode is MappingMode.RANDOM

    def test_tiny_universe_rejected(self):
        with pytest.raises(DomainError):
            InstanceRecipe(seed=0, n=1)

    @pytest.mark.parametrize("kwargs", [{"seed": 1, "n": 5.5}, {"seed": 1.5, "n": 5}, {"seed": None, "n": 5}], ids=["n", "seed", "no-seed"])
    def test_seed_and_size_follow_the_integer_rule(self, kwargs):
        # n = 5.5 constructed and failed later inside numpy; seed = 1.5 raised TypeError
        with pytest.raises(DomainError, match="must be an integer"):
            InstanceRecipe(**kwargs)

    def test_negative_seed_is_refused(self):
        # the recipe built and generate_instance raised numpy's ValueError
        with pytest.raises(DomainError, match="^seed must be at least 0, got -3$"):
            generate_instance(InstanceRecipe(seed=-3, n=5))

    def test_integral_floats_are_accepted(self):
        r = InstanceRecipe(seed=3.0, n=6.0)
        assert r == InstanceRecipe(seed=3, n=6)
        assert type(r.seed) is int and type(r.n) is int
        assert generate_instance(r).space == generate_instance(InstanceRecipe(seed=3, n=6)).space


class TestAnchorInstances:
    @pytest.mark.parametrize("mode", list(MetricMode))
    def test_two_mapping_instances_are_exact(self, mode):
        for seed in range(6):
            inst = generate_instance(InstanceRecipe(seed=seed, n=9, metric_mode=mode))
            assert verify_metric_axioms(inst.space, tolerance=0.0).passed
            # margins stay non-positive in exact float evaluation
            rep = check_condition(inst.space, inst.maps, inst.coefficients, tolerance=0.0)
            assert rep.satisfied
            assert inst.oracle.common_fixed_points == (inst.anchor,)
            assert 0.35 <= inst.phi <= 0.65
            assert inst.coefficients.gamma == inst.phi

    def test_every_start_descends_to_the_anchor(self):
        inst = generate_instance(InstanceRecipe(seed=3, n=12))
        for x0 in range(inst.space.n):
            rep = picard_solve(inst.space, inst.maps.S, inst.maps.T, inst.coefficients, x0)
            assert rep.converged and rep.point == inst.anchor

    def test_three_mapping_instances_carry_noninjective_factor(self):
        for seed in range(6):
            inst = generate_instance(InstanceRecipe(seed=seed, n=8, arity=Arity.THREE))
            f = inst.maps.f
            assert len(set(int(v) for v in f.table)) < f.n
            assert check_range_inclusions(inst.space, inst.maps).holds
            rep = check_condition(inst.space, inst.maps, inst.coefficients, tolerance=0.0)
            assert rep.satisfied
            pipe = solve_pipeline(inst.space, inst.maps, inst.coefficients)
            assert pipe.succeeded and pipe.common_fixed_point == inst.anchor

    def test_four_mapping_instances_use_min_term_weight(self):
        for seed in range(6):
            inst = generate_instance(InstanceRecipe(seed=seed, n=8, arity=Arity.FOUR))
            assert inst.coefficients.L == inst.phi
            rep = check_condition(inst.space, inst.maps, inst.coefficients, tolerance=0.0)
            assert rep.satisfied
            pipe = solve_pipeline(inst.space, inst.maps, inst.coefficients)
            assert pipe.succeeded and pipe.common_fixed_point == inst.anchor

    def test_ground_truth_checks_run_under_optimization(self):
        # stated as asserts, the checks vanished under python -O: an instance violating its own condition was returned
        script = """
from dataclasses import replace
from cofix import InstanceRecipe, generate_instance, oracle
check = oracle.check_condition
oracle.check_condition = lambda *args: replace(check(*args), satisfied=False)
try:
    generate_instance(InstanceRecipe(seed=0, n=8))
except AssertionError as exc:
    print(exc)
"""
        src = Path(oracle.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
        run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True)
        assert run.stdout == "generated instance violates its own condition at (0, 0)\n"

    def test_generation_is_deterministic(self):
        a = generate_instance(InstanceRecipe(seed=11, n=7, arity=Arity.THREE))
        b = generate_instance(InstanceRecipe(seed=11, n=7, arity=Arity.THREE))
        assert np.array_equal(a.space.table, b.space.table)
        assert a.maps.S == b.maps.S and a.maps.f == b.maps.f
        assert a.anchor == b.anchor and a.phi == b.phi

    def test_two_point_universe(self):
        inst = generate_instance(InstanceRecipe(seed=0, n=2, arity=Arity.THREE))
        assert inst.oracle.common_fixed_points == (inst.anchor,)


class TestMappingSets:
    @pytest.mark.parametrize("mode", list(MappingMode), ids=str)
    @pytest.mark.parametrize("arity", list(Arity))
    def test_companions_follow_the_arity(self, arity, mode):
        # none for two mappings, f for three, and g = f (the same object) for four
        for seed in range(4):
            inst = generate_instance(InstanceRecipe(seed=seed, n=7, arity=arity, mapping_mode=mode))
            maps = inst.maps
            assert maps.arity == arity
            assert (maps.f is None) == (arity == Arity.TWO)
            assert (maps.g is maps.f) if arity == Arity.FOUR else maps.g is None
            if arity >= Arity.THREE:
                image = set(maps.f.image().tolist())
                assert set(maps.S.table.tolist()) <= image and set(maps.T.table.tolist()) <= image
            if mode == MappingMode.CONTRACTION_ANCHOR:
                assert (maps.S is maps.T) == (arity != Arity.FOUR)
                assert inst.coefficients.L == (inst.phi if arity == Arity.FOUR else 0.0)


class TestRandomInstances:
    def test_random_mode_attaches_plain_oracle(self):
        inst = generate_instance(
            InstanceRecipe(seed=4, n=10, mapping_mode=MappingMode.RANDOM, metric_mode=MetricMode.EMBEDDED)
        )
        assert inst.anchor is None and inst.phi is None
        assert verify_metric_axioms(inst.space, tolerance=0.0).passed
        validate_coefficients(inst.coefficients)

    def test_random_higher_arity_instances_keep_inclusions(self):
        for seed in range(8):
            inst = generate_instance(
                InstanceRecipe(seed=seed, n=9, arity=Arity.THREE, mapping_mode=MappingMode.RANDOM)
            )
            assert check_range_inclusions(inst.space, inst.maps).holds


class TestRunFuzz:
    def test_anchor_two_mapping_batch_is_clean(self):
        summary = run_fuzz(30, seed=100, n_max=12)
        assert summary.clean
        t = summary.tallies
        assert t["generated"] == 30
        assert t["condition_satisfied"] == 30
        assert t["converged"] == 30
        assert t["oracle_matched"] == 30
        assert summary.elapsed > 0.0
        json.dumps(summary.to_dict())

    def test_anchor_three_mapping_batch_is_clean(self):
        summary = run_fuzz(15, seed=200, arity=Arity.THREE, n_max=10)
        assert summary.clean
        assert summary.tallies["pipeline_common_fixed_point"] == 15

    def test_anchor_four_mapping_batch_is_clean(self):
        summary = run_fuzz(10, seed=300, arity=Arity.FOUR, n_max=10)
        assert summary.clean
        assert summary.tallies["pipeline_common_fixed_point"] == 10

    def test_random_two_mapping_batch_accounts_for_every_instance(self):
        summary = run_fuzz(40, seed=400, mapping_mode=MappingMode.RANDOM, n_max=12)
        t = summary.tallies
        assert t["generated"] == 40
        assert t["condition_satisfied"] + t["condition_violated"] == 40
        assert t["converged"] + t["rate_violated"] + t["max_iterations"] == 40
        # a converged orbit on a separated table sits exactly on a fixed point
        assert summary.clean
        assert t["oracle_matched"] == t["converged"]

    def test_random_three_mapping_batch(self):
        summary = run_fuzz(15, seed=500, arity=Arity.THREE, mapping_mode=MappingMode.RANDOM, n_max=9)
        assert summary.clean
        total = sum(v for k, v in summary.tallies.items() if k.startswith("pipeline_"))
        assert total == 15

    def test_pipeline_bugs_propagate_instead_of_being_tallied(self, monkeypatch):
        import cofix.reduction

        def broken(*args, **kwargs):
            raise TypeError("bug inside the pipeline")

        monkeypatch.setattr(cofix.reduction, "solve_pipeline", broken)
        with pytest.raises(TypeError, match="bug inside the pipeline"):
            run_fuzz(3, seed=200, arity=Arity.THREE, n_max=6)

    def test_input_guards(self):
        with pytest.raises(DomainError):
            run_fuzz(0)
        with pytest.raises(DomainError):
            run_fuzz(5, n_min=5, n_max=3)

    @pytest.mark.parametrize(
        "args, kwargs",
        [((2.5,), {}), ((1,), {"seed": 1.5}), ((3,), {"n_min": 2.5, "n_max": 4.7}), ((3,), {"n_max": 4.7})],
        ids=["count", "seed", "n_min", "n_max"],
    )
    def test_counts_seed_and_sizes_follow_the_integer_rule(self, args, kwargs):
        # n_min = 2.5 ran and wrote an n_range that FuzzSummary.from_dict refused
        with pytest.raises(DomainError, match="must be an integer"):
            run_fuzz(*args, **kwargs)

    def test_integral_floats_give_a_summary_that_decodes(self):
        summary = run_fuzz(3.0, seed=7.0, n_min=3.0, n_max=5.0)
        assert summary.to_dict()["n_range"] == [3, 5]
        assert oracle.FuzzSummary.from_dict(json.loads(json.dumps(summary.to_dict()))) == summary
        exact = run_fuzz(3, seed=7, n_min=3, n_max=5)
        assert (summary.count, summary.seed, summary.tallies) == (exact.count, exact.seed, exact.tallies)


class TestFuzzVerdict:
    """One rule judges both solvers: a named point must be an enumerated
    common fixed point, and naming none is a mismatch only on anchor instances."""

    MODES = [MappingMode.CONTRACTION_ANCHOR, MappingMode.RANDOM]

    @staticmethod
    def _patch(monkeypatch, *, point, status, pipeline_status=None, raises=False):
        import cofix.reduction
        import cofix.solver

        real_picard = cofix.solver.picard_solve

        def picard(*args, **kwargs):
            return replace(real_picard(*args, **kwargs), status=status, **({} if point is None else {"point": point}))

        def pipeline(space, maps, *args, **kwargs):
            if raises:
                raise CofixError("tallied failure")
            return CoincidenceReport(
                status=pipeline_status, arity=maps.arity, tolerance=0.0, stages=(), common_fixed_point=point
            )

        monkeypatch.setattr(cofix.solver, "picard_solve", picard)
        monkeypatch.setattr(cofix.reduction, "solve_pipeline", pipeline)

    @pytest.mark.parametrize("mode", MODES, ids=str)
    @pytest.mark.parametrize("arity", [Arity.TWO, Arity.THREE])
    def test_a_point_outside_the_oracle_is_a_mismatch(self, monkeypatch, arity, mode):
        # -1 indexes no point, so it is in no oracle's common fixed points
        self._patch(monkeypatch, point=-1, status=SolveStatus.CONVERGED, pipeline_status=PipelineStatus.COMMON_FIXED_POINT)
        summary = run_fuzz(5, seed=30, arity=arity, mapping_mode=mode, n_max=8)
        assert summary.mismatch_seeds == (30, 31, 32, 33, 34)
        assert summary.tallies["oracle_matched"] == 0
        key = "converged" if arity == Arity.TWO else "pipeline_common_fixed_point"
        assert summary.tallies[key] == 5

    @pytest.mark.parametrize("mode", MODES, ids=str)
    @pytest.mark.parametrize("arity", [Arity.TWO, Arity.THREE])
    def test_naming_no_point_is_a_mismatch_only_on_anchor_instances(self, monkeypatch, arity, mode):
        # the failed orbit still ends on the anchor; a point not certified counts for nothing
        self._patch(monkeypatch, point=None, status=SolveStatus.MAX_ITERATIONS, pipeline_status=PipelineStatus.COINCIDENCE_ONLY)
        summary = run_fuzz(5, seed=30, arity=arity, mapping_mode=mode, n_max=8)
        anchored = mode == MappingMode.CONTRACTION_ANCHOR
        assert summary.mismatch_seeds == ((30, 31, 32, 33, 34) if anchored else ())
        assert summary.tallies["oracle_matched"] == 0
        key = "max_iterations" if arity == Arity.TWO else "pipeline_coincidence_only"
        assert summary.tallies[key] == 5

    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_tallied_pipeline_errors_name_no_point(self, monkeypatch, mode):
        self._patch(monkeypatch, point=None, status=SolveStatus.CONVERGED, raises=True)
        summary = run_fuzz(4, seed=40, arity=Arity.FOUR, mapping_mode=mode, n_max=8)
        assert summary.tallies["pipeline_errors"] == 4
        assert summary.tallies["oracle_matched"] == 0
        assert summary.mismatch_seeds == ((40, 41, 42, 43) if mode == MappingMode.CONTRACTION_ANCHOR else ())
