"""Sections, induced pairs, weak compatibility, lifting, and the pipelines."""

import itertools
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cofix import (
    AffineMapping,
    Arity,
    Coefficients,
    CoincidenceReport,
    CoincidenceSolutions,
    InstanceRecipe,
    MappingMode,
    MappingSet,
    MetricMode,
    MetricSpace,
    PipelineOptions,
    PipelineStatus,
    SampledPairs,
    SolveReport,
    SolveStatus,
    TableMapping,
    TableSection,
    WeakCompatibility,
    check_range_inclusions,
    coincidence_points,
    generate_instance,
    identity_mapping,
    induce,
    injective_restriction,
    is_weakly_compatible,
    lift_to_common_fixed_point,
    require_lift_agreement,
    solve_pipeline,
)
from cofix import reduction
from cofix.reduction import solve_four, solve_four_coincidence, solve_three, solve_three_coincidence
from cofix.errors import (
    CofixError,
    ConditionViolated,
    DomainError,
    ExhaustiveOnInfinite,
    LiftDisagreement,
    LiftMismatch,
    NonInvertibleMapping,
    NonUniqueCoincidence,
    RangeInclusionFailure,
)

PATH3 = MetricSpace.finite([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
PATH4 = MetricSpace.finite(
    [
        [0.0, 1.0, 2.0, 3.0],
        [1.0, 0.0, 1.0, 2.0],
        [2.0, 1.0, 0.0, 1.0],
        [3.0, 2.0, 1.0, 0.0],
    ]
)

# S = T = const 1 with f folding 0 and 1 together: the induced problem
# converges to 1 and x = 2 is the only coincidence point, but S and f do
# not commute there, so the lift is blocked
DEGRADE_S = TableMapping([1, 1, 1])
DEGRADE_F = TableMapping([0, 0, 1])
DEGRADE_THREE = MappingSet(S=DEGRADE_S, T=DEGRADE_S, f=DEGRADE_F, arity=Arity.THREE)


class TestInjectiveRestriction:
    def test_keeps_smallest_preimage(self):
        space = MetricSpace.finite(np.ones((4, 4)) - np.eye(4))
        sect = injective_restriction(space, TableMapping([0, 0, 1, 0]))
        assert sect.image == (0, 1)
        assert sect.domain == (0, 2)
        assert sect.pull_back(1) == 2

    def test_domain_ordered_by_image_value(self):
        space = MetricSpace.finite(np.ones((4, 4)) - np.eye(4))
        sect = injective_restriction(space, TableMapping([2, 2, 0, 0]))
        assert sect.image == (0, 2)
        assert sect.domain == (2, 0)

    def test_pull_back_rejects_foreign_value(self):
        sect = injective_restriction(PATH3, TableMapping([0, 0, 1]))
        with pytest.raises(DomainError):
            sect.pull_back(2)

    def test_needs_finite_space(self):
        with pytest.raises(ExhaustiveOnInfinite):
            injective_restriction(MetricSpace.euclidean(1), TableMapping([0]))

    def test_restriction_is_injective_and_image_preserving(self):
        rng = np.random.default_rng(12)
        space = MetricSpace.finite(np.ones((9, 9)) - np.eye(9))
        for _ in range(25):
            f = TableMapping(rng.integers(0, 9, size=9))
            sect = injective_restriction(space, f)
            restricted = [f(x) for x in sect.domain]
            assert len(set(restricted)) == len(sect.domain)
            assert set(restricted) == set(int(v) for v in f.image())

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_section_arrays_match_the_tuples(self, seed, n):
        # induced reads index arrays held once; the reference reads the public tuples, as it once did
        rng = np.random.default_rng(seed)
        space = MetricSpace.finite(np.ones((n, n)) - np.eye(n))
        f, m = TableMapping(rng.integers(0, n, size=n)), TableMapping(rng.integers(0, n, size=n))
        sect = injective_restriction(space, f)
        reference = np.arange(n)
        reference[list(sect.image)] = m.table[list(sect.domain)]
        assert sect.induced(m) == TableMapping(reference)
        for x in range(n):
            if x in sect.image:
                assert sect.pull_back(x) == sect.domain[sect.image.index(x)]
            else:
                with pytest.raises(DomainError):
                    sect.pull_back(x)
        # equality and hashing go by the tuples alone
        twin = TableSection(domain=sect.domain, image=sect.image)
        assert twin == sect and hash(twin) == hash(sect)


class TestInducedPairs:
    def test_finite_tables_fix_points_off_image(self):
        pair = induce(PATH3, DEGRADE_THREE)
        assert list(pair.S.table) == [1, 1, 2]
        assert pair.S == pair.T
        assert pair.image == (0, 1)
        # point 2 lies off the image and is held fixed; inside it only 1 is fixed
        assert [y for y in pair.image if pair.S(y) == y] == [1]
        assert [y for y in pair.image if pair.S(y) == y and pair.T(y) == y] == [1]

    def test_four_mapping_sections_are_independent(self):
        S = TableMapping([0, 0, 0])
        f = TableMapping([0, 2, 1])
        g = identity_mapping(3)
        pair = induce(PATH3, MappingSet(S=S, T=S, f=f, g=g, arity=Arity.FOUR))
        assert pair.section_s.domain == (0, 2, 1)
        assert pair.section_t.domain == (0, 1, 2)
        assert list(pair.S.table) == [0, 0, 0]
        assert list(pair.T.table) == [0, 0, 0]

    def test_shared_f_shares_the_section(self):
        pair = induce(PATH3, DEGRADE_THREE)
        assert pair.section_s is pair.section_t

    def test_two_mappings_have_nothing_to_induce(self):
        with pytest.raises(DomainError, match="three- and four-mapping"):
            induce(PATH3, MappingSet(S=DEGRADE_S, T=DEGRADE_S, arity=Arity.TWO))

    def test_affine_induction_composes_with_inverse(self):
        space = MetricSpace.euclidean(1)
        half = AffineMapping([[0.5]], [0.0])
        double = AffineMapping([[2.0]], [0.0])
        pair = induce(space, MappingSet(S=half, T=half, f=double, arity=Arity.THREE))
        assert pair.image is None
        assert np.array_equal(pair.S.matrix, [[0.25]])


class TestCoincidenceScans:
    def test_two_mapping_scan(self):
        sols = coincidence_points(
            PATH3, MappingSet(S=TableMapping([1, 1, 1]), T=identity_mapping(3), arity=Arity.TWO)
        )
        assert sols.points == (1,)
        assert sols.values == (1,)
        assert sols.consistent

    def test_three_mapping_scan_requires_triple_agreement(self):
        sols = coincidence_points(
            PATH3, MappingSet(S=DEGRADE_S, T=DEGRADE_S, f=DEGRADE_F, arity=Arity.THREE)
        )
        assert sols.points == (2,)
        assert sols.values == (1,)
        assert sols.consistent

    def test_four_mapping_scan_is_pairwise(self):
        S = TableMapping([1, 1, 1])
        f = TableMapping([1, 0, 1])
        T = TableMapping([0, 0, 0])
        g = TableMapping([0, 1, 0])
        sols = coincidence_points(PATH3, MappingSet(S=S, T=T, f=f, g=g, arity=Arity.FOUR))
        assert sols.points == (0, 2, 0, 2)
        assert sols.values == (1, 1, 0, 0)
        assert not sols.consistent

    def test_needs_finite_space(self):
        half = AffineMapping([[0.5]], [0.0])
        ms = MappingSet(S=half, T=half, arity=Arity.TWO)
        with pytest.raises(ExhaustiveOnInfinite):
            coincidence_points(MetricSpace.euclidean(1), ms)

    def test_roundtrip(self):
        sols = CoincidenceSolutions(points=(2,), values=(1,), consistent=True)
        assert CoincidenceSolutions.from_dict(json.loads(json.dumps(sols.to_dict()))) == sols


class TestWeakCompatibility:
    def test_finite_compatible(self):
        step = TableMapping([0, 0, 1, 2])
        wc = is_weakly_compatible(PATH4, step, identity_mapping(4))
        assert wc.compatible and not wc.vacuous
        assert wc.checked == 1  # only x = 0 coincides

    def test_finite_incompatible_names_witness(self):
        wc = is_weakly_compatible(PATH3, DEGRADE_S, DEGRADE_F)
        assert not wc.compatible
        assert wc.witness == 2
        assert wc.checked == 1

    def test_finite_vacuous(self):
        wc = is_weakly_compatible(PATH3, TableMapping([1, 1, 1]), TableMapping([0, 0, 0]))
        assert wc.compatible and wc.vacuous

    def test_affine_commuting_scalings(self):
        space = MetricSpace.euclidean(2)
        A = AffineMapping(0.5 * np.eye(2), np.zeros(2))
        B = AffineMapping(2.0 * np.eye(2), np.zeros(2))
        wc = is_weakly_compatible(space, A, B)
        assert wc.compatible and not wc.vacuous

    def test_affine_noncommuting_on_coincidence_line(self):
        # A and B coincide along the line x2 = 6*x1 but their commutator
        # moves that direction, so compatibility fails off the origin
        space = MetricSpace.euclidean(2)
        A = AffineMapping([[0.5, 0.0], [0.0, 0.25]], [0.0, 0.0])
        B = AffineMapping([[0.5, 0.0], [0.3, 0.2]], [0.0, 0.0])
        wc = is_weakly_compatible(space, A, B)
        assert not wc.compatible
        assert wc.witness is not None
        assert wc.checked == 2

    def test_affine_incompatible_at_the_particular_solution(self):
        # 2x + 1 = 3x - 1 only at x = 2, where A(B(2)) = 11 but B(A(2)) = 14
        space = MetricSpace.euclidean(1)
        A = AffineMapping([[2.0]], [1.0])
        B = AffineMapping([[3.0]], [-1.0])
        wc = is_weakly_compatible(space, A, B, names=("A", "B"))
        assert not wc.compatible and not wc.vacuous
        assert wc.witness == (2.0,)
        assert wc.checked == 1

    def test_affine_parallel_maps_are_vacuous(self):
        space = MetricSpace.euclidean(2)
        A = AffineMapping(np.eye(2), [1.0, 0.0])
        B = AffineMapping(np.eye(2), [0.0, 0.0])
        wc = is_weakly_compatible(space, A, B)
        assert wc.compatible and wc.vacuous

    def test_roundtrip(self):
        wc = is_weakly_compatible(PATH3, DEGRADE_S, DEGRADE_F, names=("S", "f"))
        assert WeakCompatibility.from_dict(json.loads(json.dumps(wc.to_dict()))) == wc


def reference_coincidence_points(maps):
    """(points, values) by the scan's former arity branches: S = T, S = T = f, then S = f and T = g."""
    S, T = maps.S.table, maps.T.table
    if maps.arity == Arity.TWO:
        pts = [int(x) for x in np.flatnonzero(S == T)]
        return tuple(pts), tuple(int(S[x]) for x in pts)
    f = maps.f.table
    if maps.arity == Arity.THREE:
        pts = [int(x) for x in np.flatnonzero((S == f) & (T == f))]
        return tuple(pts), tuple(int(f[x]) for x in pts)
    g = maps.g.table
    sf = [int(x) for x in np.flatnonzero(S == f)]
    tg = [int(x) for x in np.flatnonzero(T == g)]
    return tuple(sf + tg), tuple(int(f[x]) for x in sf) + tuple(int(g[x]) for x in tg)


def reference_weak_compatibility(A, B):
    """(compatible, witness, checked) by walking the coincidence points one at a time."""
    pts = [x for x in range(A.n) if A(x) == B(x)]
    for x in pts:
        if A(B(x)) != B(A(x)):
            return False, x, len(pts)
    return True, None, len(pts)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), arity=st.sampled_from([2, 3, 4]))
def test_scans_match_the_per_point_references(data, n, arity):
    # a narrow range of table values makes coincidences, and failures to commute, common
    values = st.integers(0, data.draw(st.integers(0, n - 1)))
    tables = [TableMapping(data.draw(st.lists(values, min_size=n, max_size=n))) for _ in range(arity)]
    space = MetricSpace.finite(np.ones((n, n)) - np.eye(n))
    sols = coincidence_points(space, MappingSet(*tables, arity=arity))
    pts, vals = reference_coincidence_points(MappingSet(*tables, arity=arity))
    assert (sols.points, sols.values, sols.consistent) == (pts, vals, len(set(vals)) <= 1)
    assert all(type(v) is int for v in sols.points + sols.values)
    for A, B in itertools.permutations(tables, 2):
        wc = is_weakly_compatible(space, A, B)
        compatible, witness, checked = reference_weak_compatibility(A, B)
        assert (wc.compatible, wc.witness, wc.checked, wc.vacuous) == (compatible, witness, checked, checked == 0)
        assert witness is None or type(wc.witness) is int


HALF = AffineMapping([[0.5]], [0.0])


class TestHelpersValidateTheirMappings:
    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: is_weakly_compatible(PATH3, TableMapping([1, 1, 1]), TableMapping([1, 7, 1])), "mapping f: .*outside"),
            (lambda: is_weakly_compatible(PATH3, TableMapping([0, 5, 2]), identity_mapping(3)), "mapping S: .*outside"),
            (
                lambda: is_weakly_compatible(PATH3, TableMapping([0, 1]), identity_mapping(3), names=("T", "g")),
                "mapping T: .*2 entries for a universe of 3",
            ),
            (lambda: is_weakly_compatible(MetricSpace.euclidean(1), TableMapping([0]), HALF), "mapping S: .*finite spaces only"),
            (lambda: is_weakly_compatible(PATH3, identity_mapping(3), HALF), "mapping f: .*Euclidean spaces only"),
            (
                lambda: lift_to_common_fixed_point(PATH3, TableMapping([0, 1]), identity_mapping(3), 1),
                "mapping primary: .*2 entries",
            ),
            (lambda: lift_to_common_fixed_point(PATH3, identity_mapping(3), TableMapping([0, 3, 1]), 1), "mapping companion: "),
        ],
        ids=["off-universe", "off-universe-first", "short-table", "table-on-R1", "affine-on-finite", "lift-short", "lift-companion"],
    )
    def test_misfit_mapping_is_refused(self, call, match):
        with pytest.raises(DomainError, match=match):
            call()


class TestLifting:
    def test_lift_failure_when_compatibility_does_not_transfer(self):
        with pytest.raises(LiftMismatch, match="weak compatibility"):
            lift_to_common_fixed_point(PATH3, DEGRADE_S, DEGRADE_F, 2)

    def test_lift_failure_when_lifted_point_moves(self):
        A = TableMapping([0, 2, 0, 0])
        B = TableMapping([1, 2, 0, 0])
        with pytest.raises(LiftMismatch, match="not a common fixed point"):
            lift_to_common_fixed_point(PATH4, A, B, 0)

    def test_lift_success(self):
        step = TableMapping([0, 0, 1, 2])
        assert lift_to_common_fixed_point(PATH4, step, identity_mapping(4), 0) == 0

    def test_lift_checks_the_input_point(self):
        with pytest.raises(DomainError):
            lift_to_common_fixed_point(PATH3, DEGRADE_S, DEGRADE_F, 9)

    def test_agreement_guard(self):
        assert require_lift_agreement(PATH3, 1, 1) == 1
        with pytest.raises(LiftDisagreement):
            require_lift_agreement(PATH3, 0, 1)

    def test_options_take_max_iters_by_the_integer_rule(self):
        space, maps, x0 = _scaled_problem(0, 2, 1.0, 3)
        with pytest.raises(DomainError) as exc_info:
            solve_pipeline(space, maps, Coefficients(0, 0, 0.9, 0), x0, PipelineOptions(max_iters=2.5, verify_hypotheses=False))
        assert str(exc_info.value) == "[solve] max_iters must be an integer, got 2.5"
        # a string is never a number
        with pytest.raises(DomainError, match="max_iters must be an integer, got '400'"):
            solve_pipeline(space, maps, Coefficients(0, 0, 0.9, 0), x0, PipelineOptions(max_iters="400", verify_hypotheses=False))
        rep = solve_pipeline(space, maps, Coefficients(0, 0, 0.9, 0), x0, PipelineOptions(max_iters=400.0, verify_hypotheses=False))
        assert rep.status is PipelineStatus.COMMON_FIXED_POINT

    @pytest.mark.parametrize("lam", [1.0, 1e2, 1e4])
    def test_lift_allows_the_residual_of_the_solve(self, lam):
        # the solved point lies within r / (1 - k) of the limit, and the lifted
        # point moves by about that much; against the bare tol, 17 of these
        # 360 pipelines raised LiftMismatch (lifted points moving 1.0-1.7e-9)
        for seed in range(20):
            for m in (2, 3, 4):
                for arity in (3, 4):
                    space, maps, x0 = _scaled_problem(seed, m, lam, arity)
                    rep = solve_pipeline(space, maps, Coefficients(0, 0, 0.9, 0), x0, PipelineOptions(verify_hypotheses=False))
                    assert rep.status is PipelineStatus.COMMON_FIXED_POINT


class TestThreeMappingPipeline:
    def test_happy_path_reaches_common_fixed_point(self):
        S = TableMapping([0, 0, 0])
        f = TableMapping([0, 2, 1])
        rep = solve_pipeline(PATH3, MappingSet(S, S, f, arity=Arity.THREE), Coefficients(0, 0, 0.5, 0))
        assert rep.status is PipelineStatus.COMMON_FIXED_POINT
        assert rep.succeeded
        assert rep.common_fixed_point == 0
        assert rep.point_of_coincidence == 0
        assert rep.coincidence_points == (0,)
        assert rep.stages == (
            "validate",
            "inclusions",
            "condition",
            "induce",
            "solve",
            "coincidence",
            "weak_compatibility",
            "lift",
        )
        assert rep.scan.points == (0,)
        assert all(wc.compatible for wc in rep.weak_compatibility)

    def test_incompatible_mappings_degrade_to_coincidence(self):
        rep = solve_pipeline(PATH3, MappingSet(DEGRADE_S, DEGRADE_S, DEGRADE_F, arity=Arity.THREE), Coefficients(0, 0, 0, 0))
        assert rep.status is PipelineStatus.COINCIDENCE_ONLY
        assert not rep.succeeded
        assert rep.common_fixed_point is None
        assert rep.point_of_coincidence == 1
        assert rep.coincidence_points == (2,)
        assert [wc.compatible for wc in rep.weak_compatibility] == [False, False]
        assert rep.weak_compatibility[0].witness == 2
        assert rep.stages[-1] == "weak_compatibility"

    def test_coincidence_variant_skips_the_lift(self):
        S = TableMapping([0, 0, 0])
        f = TableMapping([0, 2, 1])
        maps = MappingSet(S, S, f, arity=Arity.THREE)
        rep = solve_pipeline(PATH3, maps, Coefficients(0, 0, 0.5, 0), options=PipelineOptions(stop_at_coincidence=True))
        assert rep.status is PipelineStatus.COINCIDENCE_ONLY
        assert rep.point_of_coincidence == 0
        assert rep.common_fixed_point is None
        assert rep.weak_compatibility == ()
        assert rep.stages[-1] == "coincidence"

    def test_inclusion_failure_is_tagged(self):
        S = TableMapping([2, 2, 2])
        f = TableMapping([0, 1, 0])
        with pytest.raises(RangeInclusionFailure) as exc_info:
            solve_pipeline(PATH3, MappingSet(S, S, f, arity=Arity.THREE), Coefficients(0, 0, 0.5, 0))
        assert exc_info.value.stage == "inclusions"
        assert exc_info.value.witness == 0

    def test_condition_violation_carries_report(self):
        ident = identity_mapping(3)
        with pytest.raises(ConditionViolated) as exc_info:
            solve_pipeline(PATH3, MappingSet(ident, ident, ident, arity=Arity.THREE), Coefficients(0, 0, 0.3, 0))
        exc = exc_info.value
        assert exc.stage == "condition"
        assert str(exc).startswith("[condition]")
        assert exc.report.worst_pair == (0, 2)
        assert exc.report.worst_margin == pytest.approx(1.4)

    def test_skipping_verification_surfaces_downstream_failure(self):
        ident = identity_mapping(3)
        opts = PipelineOptions(verify_hypotheses=False)
        with pytest.raises(NonUniqueCoincidence) as exc_info:
            solve_pipeline(PATH3, MappingSet(ident, ident, ident, arity=Arity.THREE), Coefficients(0, 0, 0.3, 0), options=opts)
        assert exc_info.value.stage == "coincidence"

    def test_pulled_back_point_off_the_coincidence_set_is_refused(self, monkeypatch):
        # a solve claiming convergence at image point 0, which the induced pair sends
        # to 1: the section pulls it back to x = 0, where S(0) = 1 but f(0) = 0
        def converged_at_zero(space, S, T, c, x0, **kwargs):
            return SolveReport(SolveStatus.CONVERGED, point=0, residuals=(0.0, 0.0), iterations=0, rate=0.5, tolerance=0.0)

        monkeypatch.setattr(reduction, "picard_solve", converged_at_zero)
        opts = PipelineOptions(verify_hypotheses=False)
        with pytest.raises(NonUniqueCoincidence, match="pulled-back point is not a coincidence point") as exc_info:
            solve_pipeline(PATH3, DEGRADE_THREE, Coefficients(0, 0, 0, 0), options=opts)
        assert exc_info.value.stage == "coincidence"

    def test_solver_failure_status(self):
        space = MetricSpace.finite([[0.0, 1.0], [1.0, 0.0]])
        swap = TableMapping([1, 0])
        opts = PipelineOptions(verify_hypotheses=False)
        maps = MappingSet(swap, swap, identity_mapping(2), arity=Arity.THREE)
        rep = solve_pipeline(space, maps, Coefficients(0, 0, 0.5, 0), options=opts)
        assert rep.status is PipelineStatus.SOLVER_FAILED
        assert rep.solve_report.status is SolveStatus.RATE_VIOLATED
        assert rep.stages[-1] == "solve"
        assert rep.point_of_coincidence is None

    def test_explicit_start_point_is_validated(self):
        S = TableMapping([0, 0, 0])
        f = TableMapping([0, 2, 1])
        rep = solve_pipeline(PATH3, MappingSet(S, S, f, arity=Arity.THREE), Coefficients(0, 0, 0.5, 0), x0=2)
        assert rep.succeeded
        with pytest.raises(DomainError):
            solve_pipeline(PATH3, MappingSet(S, S, f, arity=Arity.THREE), Coefficients(0, 0, 0.5, 0), x0=7)

    def test_euclidean_pipeline(self):
        space = MetricSpace.euclidean(1)
        half = AffineMapping([[0.5]], [0.0])
        double = AffineMapping([[2.0]], [0.0])
        opts = PipelineOptions(pair_source=SampledPairs(samples=500, seed=9, box=(-5.0, 5.0)))
        maps = MappingSet(half, half, double, arity=Arity.THREE)
        rep = solve_pipeline(space, maps, Coefficients(0, 0, 0.3, 0), np.array([1.0]), opts)
        assert rep.succeeded
        assert abs(rep.common_fixed_point[0]) <= 1e-9

    def test_euclidean_pipeline_needs_sampler(self):
        space = MetricSpace.euclidean(1)
        half = AffineMapping([[0.5]], [0.0])
        double = AffineMapping([[2.0]], [0.0])
        # inclusions are decided exactly; only the condition check needs a sampler
        with pytest.raises(ExhaustiveOnInfinite, match="supply a sampler") as exc_info:
            solve_pipeline(space, MappingSet(half, half, double, arity=Arity.THREE), Coefficients(0, 0, 0.3, 0), np.array([1.0]))
        assert exc_info.value.stage == "condition"


def _orthogonal(rng, m):
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def _about(M, z):
    """The affine map x -> M (x - z) + z, which fixes z."""
    return AffineMapping(M, z - M @ z)


def _scaled_problem(seed, m, lam, arity, rank_deficient=False):
    """S = A o f (T = A o g) about a point z of size lam; A has spectral norm 0.9.

    With f and g invertible every range inclusion holds at any lam; zeroing a
    column of f (and g) shrinks f(X) to a hyperplane that S(X) leaves.
    """
    rng = np.random.default_rng([seed, m, arity])
    z = lam * rng.uniform(-1.0, 1.0, size=m)
    s = rng.uniform(0.2, 0.9, size=m)
    s[0] = 0.9
    A = (_orthogonal(rng, m) * s) @ _orthogonal(rng, m).T
    F = _orthogonal(rng, m) * rng.uniform(0.5, 1.0)
    G = _orthogonal(rng, m) * rng.uniform(0.5, 1.0)
    S, T = _about(A @ F, z), _about(A @ (F if arity == 3 else G), z)
    if rank_deficient:
        F[:, 0] = G[:, 0] = 0.0
    f, g = _about(F, z), (_about(G, z) if arity == 4 else None)
    return MetricSpace.euclidean(m), MappingSet(S=S, T=T, f=f, g=g, arity=arity), lam * rng.uniform(-1.0, 1.0, size=m)


SCALES = [10.0**k for k in range(0, 13, 2)]


class TestSingularFactor:
    @pytest.mark.parametrize("lam", [1.0, 1e4])
    def test_pseudo_inverse_section_reaches_the_fixed_point(self, lam):
        # f projects onto the first axis about z, so it has no inverse and the
        # section falls back to the pseudo-inverse; S = T = f / 2 about z
        P = np.diag([1.0, 0.0])
        z = lam * np.array([0.3, -0.7])
        f, S = _about(P, z), _about(0.5 * P, z)
        section = reduction._affine_section(f)
        assert np.array_equal(section.mapping.matrix, np.linalg.pinv(P))
        opts = PipelineOptions(pair_source=SampledPairs(500, 0, (-3 * lam, 3 * lam)))
        maps = MappingSet(S=S, T=S, f=f, arity=Arity.THREE)
        rep = solve_pipeline(MetricSpace.euclidean(2), maps, Coefficients(0, 0, 0.5, 0), np.array([lam, lam]), opts)
        assert rep.status == PipelineStatus.COMMON_FIXED_POINT
        assert np.linalg.norm(np.array(rep.common_fixed_point) - z) <= 1e-8 * max(1.0, np.linalg.norm(z))

    def test_overflowing_inverse_falls_back_to_the_pseudo_inverse(self):
        # inv(f) overflows on the first axis, which pinv treats as null
        f = AffineMapping(np.diag([1e-310, 1.0]), np.zeros(2))
        S = AffineMapping(0.5 * f.matrix, np.zeros(2))
        maps = MappingSet(S=S, T=S, f=f, arity=Arity.THREE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            section = reduction._affine_section(f)
            rep = solve_pipeline(
                MetricSpace.euclidean(2), maps, Coefficients(0, 0, 0.5, 0), np.ones(2), PipelineOptions(verify_hypotheses=False)
            )
        assert np.array_equal(section.mapping.matrix, np.diag([0.0, 1.0]))
        assert rep.status == PipelineStatus.COMMON_FIXED_POINT
        assert np.linalg.norm(rep.common_fixed_point) <= 1e-8

    def test_overflowing_pseudo_inverse_is_not_invertible(self):
        # a 1-D factor of 1e-310 is its own largest singular value, so pinv inverts it too
        f = AffineMapping([[1e-310]], [0.0])
        S = AffineMapping([[0.5e-310]], [0.0])
        maps = MappingSet(S=S, T=S, f=f, arity=Arity.THREE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonInvertibleMapping, match="overflows") as exc:
                solve_pipeline(MetricSpace.euclidean(1), maps, Coefficients(0, 0, 0.5, 0), np.ones(1), PipelineOptions(verify_hypotheses=False))
        assert exc.value.stage == "induce"


class TestAffineInclusionsAtScale:
    @pytest.mark.parametrize("arity", [3, 4])
    @pytest.mark.parametrize("lam", SCALES)
    def test_invertible_factors_pass_the_inclusion_stage(self, lam, arity):
        # max_iters=1 stops the run at the solver, so only the stages up to
        # the inclusions decide the outcome; the sampler is the condition's
        for seed in range(3):
            opts = PipelineOptions(pair_source=SampledPairs(64, seed, (-lam, lam)), verify_hypotheses=False, max_iters=1)
            for m in (1, 2, 3):
                space, maps, x0 = _scaled_problem(seed, m, lam, arity)
                rep = solve_pipeline(space, maps, Coefficients(0, 0, 0.9, 0), x0, opts)
                assert rep.inclusion_report.holds

    @pytest.mark.parametrize("lam", SCALES)
    def test_rank_deficient_factor_fails_with_an_escaping_witness(self, lam):
        for seed in range(3):
            for m in (2, 3):
                space, maps, _ = _scaled_problem(seed, m, lam, 3, rank_deficient=True)
                rep = check_range_inclusions(space, maps)
                assert not rep.holds
                for (_, inner, _, outer), check in zip(maps.sides, rep.checks):
                    assert not check.holds
                    target = inner(np.array(check.witness)) - outer.offset
                    sol, *_ = np.linalg.lstsq(outer.matrix, target, rcond=None)
                    escape = np.linalg.norm(outer.matrix @ sol - target)
                    assert escape > 1e-6 * np.linalg.norm(target)


class TestFourMappingPipeline:
    def test_identity_factors_reduce_to_plain_iteration(self):
        labels = [0, 1, 3, 7]
        space = MetricSpace.finite(np.abs(np.subtract.outer(labels, labels)).astype(float))
        step = TableMapping([0, 0, 1, 2])
        ident = identity_mapping(4)
        rep = solve_pipeline(space, MappingSet(step, step, ident, ident, arity=Arity.FOUR), Coefficients(0, 0, 0.5, 0), x0=3)
        assert rep.succeeded
        assert rep.common_fixed_point == 0
        assert rep.coincidence_points == (0, 0)

    def test_distinct_factor_maps(self):
        S = TableMapping([0, 0, 0])
        f = TableMapping([0, 2, 1])
        g = identity_mapping(3)
        rep = solve_pipeline(PATH3, MappingSet(S, S, f, g, arity=Arity.FOUR), Coefficients(0, 0, 0.5, 0))
        assert rep.succeeded
        assert rep.common_fixed_point == 0
        assert rep.point_of_coincidence == 0
        assert rep.scan.consistent

    def test_mismatched_images_rejected(self):
        S = TableMapping([0, 0, 0])
        f = TableMapping([0, 2, 1])
        g = TableMapping([0, 0, 1])
        with pytest.raises(RangeInclusionFailure):
            solve_pipeline(PATH3, MappingSet(S, S, f, g, arity=Arity.FOUR), Coefficients(0, 0, 0.5, 0))

    def test_report_roundtrip(self):
        rep = solve_pipeline(PATH3, MappingSet(DEGRADE_S, DEGRADE_S, DEGRADE_F, arity=Arity.THREE), Coefficients(0, 0, 0, 0))
        d = json.loads(json.dumps(rep.to_dict()))
        assert CoincidenceReport.from_dict(d) == rep


def test_pipeline_options_defaults():
    opts = PipelineOptions()
    assert opts.tol is None
    assert opts.max_iters == 10000
    assert not opts.keep_trace
    assert opts.verify_hypotheses
    assert opts.pair_source == "exhaustive"


class TestFourMappingCoincidence:
    def test_stops_before_the_lifts(self):
        S = TableMapping([0, 0, 0])
        f = TableMapping([0, 2, 1])
        maps = MappingSet(S, S, f, identity_mapping(3), arity=Arity.FOUR)
        rep = solve_pipeline(PATH3, maps, Coefficients(0, 0, 0.5, 0), options=PipelineOptions(stop_at_coincidence=True))
        assert rep.status == PipelineStatus.COINCIDENCE_ONLY
        assert rep.stages == ("validate", "inclusions", "condition", "induce", "solve", "coincidence")
        assert rep.point_of_coincidence == 0
        assert rep.coincidence_points == (0, 0)
        assert rep.common_fixed_point is None
        assert rep.weak_compatibility == ()

    def test_accepts_an_instance_whose_lift_is_blocked(self):
        maps = MappingSet(DEGRADE_S, DEGRADE_S, DEGRADE_F, DEGRADE_F, arity=Arity.FOUR)
        assert solve_pipeline(PATH3, maps, Coefficients(0, 0, 0, 0)).status == PipelineStatus.COINCIDENCE_ONLY
        rep = solve_pipeline(PATH3, maps, Coefficients(0, 0, 0, 0), options=PipelineOptions(stop_at_coincidence=True))
        assert rep.status == PipelineStatus.COINCIDENCE_ONLY
        assert rep.point_of_coincidence == 1
        assert rep.coincidence_points == (2, 2)


# the arity-named shorthands, keyed by (arity, stop_at_coincidence)
NAMED = {
    (3, False): solve_three,
    (3, True): solve_three_coincidence,
    (4, False): solve_four,
    (4, True): solve_four_coincidence,
}


def _outcome(call):
    """A run's report, or the type, message and stage of the error it raised."""
    try:
        return call().to_dict()
    except CofixError as exc:
        return type(exc), str(exc), exc.stage


def _assert_named_entry_matches(space, maps, c, x0, options):
    """solve_pipeline and the named entry for its arity and stop flag agree."""
    named = NAMED[int(maps.arity), options.stop_at_coincidence]
    mappings = [m for _, m in maps.items()]
    expected = _outcome(lambda: named(space, *mappings, c, x0, replace(options, stop_at_coincidence=False)))
    assert _outcome(lambda: solve_pipeline(space, maps, c, x0, options)) == expected


class TestSolvePipeline:
    @pytest.mark.parametrize("stop", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("mapping_mode", list(MappingMode))
    @pytest.mark.parametrize("metric_mode", list(MetricMode))
    @pytest.mark.parametrize("arity", [3, 4])
    def test_named_entries_agree_on_generated_instances(self, arity, metric_mode, mapping_mode, seed, stop):
        recipe = InstanceRecipe(seed=seed, n=3 + 4 * seed, arity=arity, metric_mode=metric_mode, mapping_mode=mapping_mode)
        inst = generate_instance(recipe)
        for verify in (True, False):
            opts = PipelineOptions(verify_hypotheses=verify, stop_at_coincidence=stop)
            _assert_named_entry_matches(inst.space, inst.maps, inst.coefficients, None, opts)

    @pytest.mark.parametrize("stop", [False, True])
    @pytest.mark.parametrize("lam", [1.0, 1e4, 1e8])
    @pytest.mark.parametrize("arity", [3, 4])
    def test_named_entries_agree_on_affine_problems(self, arity, lam, stop):
        for seed in range(3):
            space, maps, x0 = _scaled_problem(seed, 1 + seed, lam, arity)
            opts = PipelineOptions(pair_source=SampledPairs(200, seed, (-lam, lam)), stop_at_coincidence=stop)
            _assert_named_entry_matches(space, maps, Coefficients(0, 0, 0.9, 0), x0, opts)

    def test_rejects_two_mappings_before_any_check(self):
        S = TableMapping([0, 0, 0])
        with pytest.raises(DomainError, match="three or four mappings") as info:
            solve_pipeline(PATH3, MappingSet(S, S), Coefficients(0, 0, 0.5, 0))
        assert info.value.stage == "validate"
