"""Alternating Picard iteration, rate guards, and the uniqueness check."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cofix import (
    AffineMapping,
    Coefficients,
    IterationTrace,
    MetricSpace,
    SolveReport,
    SolveStatus,
    TableMapping,
    UniquenessVerdict,
    apriori_error_bound,
    picard_solve,
    rate_constant,
    uniqueness_check,
)
from cofix.errors import BoundViolation, DomainError, PreconditionError

HALVING_LABELS = [0, 1, 3, 7]
HALVING_TABLE = np.abs(np.subtract.outer(HALVING_LABELS, HALVING_LABELS)).astype(float)


@pytest.fixture
def halving_space():
    return MetricSpace.finite(HALVING_TABLE)


@pytest.fixture
def halving_map():
    return TableMapping([0, 0, 1, 2])


class TestRateConstant:
    def test_known_values(self):
        assert rate_constant(Coefficients(0.1, 0.1, 0.2, 0.1)) == pytest.approx(0.5)
        assert rate_constant(Coefficients(0.3, 0.0, 0.0, 0.0)) == pytest.approx(0.3)

    def test_takes_worse_direction(self):
        # odd direction: (0.2+0.1+0.1)/(1-0.1-0.1) = 0.5 beats the even 3/7
        assert rate_constant(Coefficients(0.2, 0.1, 0.1, 0.1)) == pytest.approx(0.5)

    def test_min_term_weight_is_ignored(self):
        with_L = rate_constant(Coefficients(0.1, 0.1, 0.2, 0.1, 50.0))
        assert with_L == pytest.approx(0.5)

    def test_rejects_invalid_coefficients(self):
        with pytest.raises(BoundViolation):
            rate_constant(Coefficients(0.5, 0.5, 0.0, 0.0))

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.0, 0.9),
        beta=st.floats(0.0, 0.9),
        gamma=st.floats(0.0, 0.9),
        delta=st.floats(0.0, 0.45),
    )
    def test_always_below_one_for_valid_tuples(self, alpha, beta, gamma, delta):
        # filtered before it is built: an out-of-bound tuple cannot be
        assume(alpha + beta + gamma + 2.0 * delta < 0.999)
        c = Coefficients(alpha, beta, gamma, delta)
        assert 0.0 <= rate_constant(c) < 1.0


class TestAprioriBound:
    def test_known_value(self):
        assert apriori_error_bound(0.5, 2.0, 3) == pytest.approx(0.5)

    def test_zeroth_iterate(self):
        assert apriori_error_bound(0.5, 2.0, 0) == pytest.approx(4.0)

    @pytest.mark.parametrize("k,d0,n", [(1.0, 1.0, 1), (-0.1, 1.0, 1), (0.5, -1.0, 1), (0.5, 1.0, -1)])
    def test_guards(self, k, d0, n):
        with pytest.raises(DomainError):
            apriori_error_bound(k, d0, n)


class TestIterationTrace:
    def test_producer_labels(self):
        tr = IterationTrace(points=(3, 2, 1), steps=(4.0, 2.0))
        assert [tr.producer(i) for i in range(3)] == ["start", "S", "T"]

    def test_length_consistency_enforced(self):
        with pytest.raises(DomainError):
            IterationTrace(points=(1, 2), steps=())

    def test_dict_roundtrip(self):
        tr = IterationTrace(points=((0.5, 1.0), (0.25, 0.5)), steps=(0.559016994374947,))
        assert IterationTrace.from_dict(tr.to_dict()) == tr


class TestPicardSolve:
    def test_halving_orbit_from_top(self, halving_space, halving_map):
        rep = picard_solve(halving_space, halving_map, halving_map, Coefficients(0, 0, 0.5, 0), 3)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.converged
        assert rep.point == 0
        assert rep.iterations == 4
        assert rep.residuals == (0.0, 0.0)
        assert rep.rate == pytest.approx(0.5)
        assert rep.trace.points == (3, 2, 1, 0, 0)
        assert rep.trace.steps == (4.0, 2.0, 1.0, 0.0)
        assert rep.apriori_bounds == (8.0, 4.0, 2.0, 1.0, 0.5)
        assert rep.violation_index is None

    def test_every_start_reaches_the_anchor(self, halving_space, halving_map):
        for x0 in range(halving_space.n):
            rep = picard_solve(halving_space, halving_map, halving_map, Coefficients(0, 0, 0.5, 0), x0)
            assert rep.converged and rep.point == 0

    def test_fixed_start_stops_immediately(self, halving_space, halving_map):
        rep = picard_solve(halving_space, halving_map, halving_map, Coefficients(0, 0, 0.5, 0), 0)
        assert rep.converged
        assert rep.trace.points == (0, 0)
        assert rep.trace.steps == (0.0,)
        assert rep.iterations == 1

    def test_trace_can_be_dropped(self, halving_space, halving_map):
        rep = picard_solve(halving_space, halving_map, halving_map, Coefficients(0, 0, 0.5, 0), 3, keep_trace=False)
        assert rep.trace is None
        assert rep.converged

    def test_swap_map_trips_rate_guard(self):
        space = MetricSpace.finite([[0.0, 1.0], [1.0, 0.0]])
        swap = TableMapping([1, 0])
        rep = picard_solve(space, swap, swap, Coefficients(0, 0, 0.5, 0), 0)
        assert rep.status is SolveStatus.RATE_VIOLATED
        assert not rep.converged
        assert rep.violation_index == 1
        assert rep.iterations == 2
        assert rep.trace.steps == (1.0, 1.0)

    def test_cycle_detection_catches_slow_loops(self):
        # tolerance so generous the ratio guard passes, so only the
        # revisited-state check can call out the two-cycle
        space = MetricSpace.finite([[0.0, 0.15], [0.15, 0.0]])
        swap = TableMapping([1, 0])
        rep = picard_solve(space, swap, swap, Coefficients(0, 0, 0.5, 0), 0, tol=0.1)
        assert rep.status is SolveStatus.RATE_VIOLATED
        assert rep.violation_index == 0
        assert rep.iterations == 2

    def test_revisited_state_within_tolerance_converges(self):
        # the gap 5e-13 lies above the stop threshold (1.1e-13 at k = 0.9) but
        # within tol = 1e-12: the revisited state certifies the endpoint
        space = MetricSpace.finite([[0.0, 5e-13], [5e-13, 0.0]])
        swap = TableMapping([1, 0])
        rep = picard_solve(space, swap, swap, Coefficients(0, 0, 0.9, 0), 0)
        assert rep.status is SolveStatus.CONVERGED
        assert (rep.iterations, rep.residuals, rep.violation_index) == (2, (5e-13, 5e-13), None)

    def test_stalled_orbit_with_bad_residuals(self):
        # S and T shuttle between two nearly identical points while T would
        # throw the endpoint far away: no gap or cycle step exceeds tol, so
        # the failure surfaces through the endpoint residuals alone
        tab = [[0.0, 1e-13, 5.0], [1e-13, 0.0, 5.0], [5.0, 5.0, 0.0]]
        space = MetricSpace.finite(tab)
        S = TableMapping([1, 2, 0])
        T = TableMapping([2, 0, 0])
        rep = picard_solve(space, S, T, Coefficients(0, 0, 0.5, 0), 0)
        assert rep.status is SolveStatus.RATE_VIOLATED
        assert rep.violation_index is None
        assert rep.iterations == 2
        assert rep.point == 0
        assert rep.residuals == (1e-13, 5.0)

    def test_slow_rotation_exhausts_iterations(self):
        th = np.deg2rad(20.0)
        R = 0.99 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        rot = AffineMapping(R, np.zeros(2))
        space = MetricSpace.euclidean(2)
        rep = picard_solve(space, rot, rot, Coefficients(0, 0, 0.99, 0), np.array([1.0, 0.0]), max_iters=50)
        assert rep.status is SolveStatus.MAX_ITERATIONS
        assert rep.iterations == 50

    def test_euclidean_convergence_and_bounds(self):
        space = MetricSpace.euclidean(1)
        S = AffineMapping([[1.0 / 3.0]], [0.0])
        T = AffineMapping([[0.25]], [0.0])
        rep = picard_solve(space, S, T, Coefficients(0, 0, 0.4, 0), np.array([1.0]))
        assert rep.converged
        assert abs(rep.point[0]) <= 2e-9
        assert max(rep.residuals) <= 1e-9
        assert rep.iterations <= 60
        # the a-priori bound dominates the true distance to the limit 0
        for i, pt in enumerate(rep.trace.points):
            assert abs(pt[0]) <= rep.apriori_bounds[i] + 1e-12

    def test_input_guards(self, halving_space, halving_map):
        c = Coefficients(0, 0, 0.5, 0)
        with pytest.raises(DomainError):
            picard_solve(halving_space, halving_map, halving_map, c, 9)
        with pytest.raises(DomainError):
            picard_solve(halving_space, halving_map, halving_map, c, 0, tol=0.0)
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(DomainError, match="finite and non-negative"):
                picard_solve(halving_space, halving_map, halving_map, c, 0, tol=bad)
        with pytest.raises(DomainError):
            picard_solve(halving_space, halving_map, halving_map, c, 0, max_iters=0)

    @pytest.mark.parametrize("x0", [True, False, np.True_])
    def test_boolean_start_point_is_refused(self, x0):
        # True is an int: the orbit started from point 1, trace (1, 0, 0)
        space, m = MetricSpace.finite([[0, 1], [1, 0]]), TableMapping([0, 0])
        with pytest.raises(DomainError, match="is outside the universe"):
            picard_solve(space, m, m, Coefficients(0, 0, 0.5, 0), x0)

    @pytest.mark.parametrize(
        "max_iters, expected",
        [(2.5, "max_iters must be an integer, got 2.5"), ("3", 3), (0, "max_iters must be at least 1, got 0"), (3.0, 3)],
    )
    def test_max_iters_takes_the_integer_rule(self, max_iters, expected):
        half = AffineMapping([[0.5]], [0.0])

        def solve():
            return picard_solve(MetricSpace.euclidean(1), half, half, Coefficients(0, 0, 0.6, 0), [1.0], max_iters=max_iters)

        if isinstance(expected, str):
            with pytest.raises(DomainError) as exc_info:
                solve()
            assert str(exc_info.value) == expected
        else:
            rep = solve()
            assert (rep.iterations, rep.status) == (expected, SolveStatus.MAX_ITERATIONS)

    def test_list_iterates_pass_and_misshapen_ones_are_refused(self):
        space, c = MetricSpace.euclidean(2), Coefficients(0, 0, 0.5, 0)
        half = AffineMapping(0.5 * np.eye(2), np.zeros(2))
        as_list = lambda x: [0.5 * v for v in x]  # noqa: E731
        assert picard_solve(space, as_list, as_list, c, [3.0, -4.0]) == picard_solve(space, half, half, c, [3.0, -4.0])
        for bad in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], np.zeros((2, 1)), None):
            with pytest.raises(DomainError) as exc_info:
                picard_solve(space, lambda x: bad, half, c, [3.0, -4.0])
            assert str(exc_info.value) == f"point {bad!r} is outside the universe of this euclidean_affine space"

    def test_overflowing_gap_of_finite_iterates_is_taken_as_infinite(self):
        # 1e200 and -1e200 are both finite, but d · d = 4e400 overflows: the point passes, its gap is inf
        with np.errstate(over="ignore"):
            point, gap = MetricSpace.euclidean(1)._step(np.array([1e200]), np.array([-1e200]))
        assert point.tolist() == [-1e200] and gap == np.inf

    @pytest.mark.parametrize(
        "matrix, x0",
        [(-1.0, 1e200), (0.5, 1e155), (0.5, 1e200), (0.5, 1e308)],
        ids=["flip-1e200", "half-1e155", "half-1e200", "half-1e308"],
    )
    def test_overflowing_radius_is_refused_not_certified(self, matrix, x0):
        # the first gap's d · d overflows, so the a-priori radius is inf: an inf slack
        # and threshold passed the inf residuals, and the orbit was "converged" at x1
        m = AffineMapping([[matrix]], [0.0])
        with pytest.raises(DomainError, match="a-priori radius overflows at iterate 1"):
            picard_solve(MetricSpace.euclidean(1), m, m, Coefficients(0, 0, 0.6, 0), [x0])

    def test_orbit_below_the_overflow_still_converges(self):
        half = AffineMapping([[0.5]], [0.0])
        rep = picard_solve(MetricSpace.euclidean(1), half, half, Coefficients(0, 0, 0.6, 0), [1e150], keep_trace=False)
        assert (rep.status, rep.point, rep.iterations) == (SolveStatus.CONVERGED, (5.690262398681798e-10,), 529)

    def test_infinite_residual_never_passes(self):
        # S fixes z = 1e154 and T flips it: the first gap is 0 and z · z = 1e308 is finite,
        # so is the radius, but d(z, T z)^2 = 4e308 overflows to inf; the orbit is not certified
        ident, flip = AffineMapping([[1.0]], [0.0]), AffineMapping([[-1.0]], [0.0])
        rep = picard_solve(MetricSpace.euclidean(1), ident, flip, Coefficients(0, 0, 0.6, 0), [1e154])
        assert rep.status != SolveStatus.CONVERGED
        assert rep.trace.steps[0] == 0.0 and np.inf in rep.trace.steps

    def test_escaping_mapping_is_rejected(self):
        space = MetricSpace.euclidean(1)
        escape = lambda x: np.array([np.nan])  # noqa: E731
        with pytest.raises(DomainError):
            picard_solve(space, escape, escape, Coefficients(0, 0, 0.5, 0), np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("step", [1, 2, 7])
    def test_non_finite_iterate_is_refused_at_its_step(self, bad, step):
        # each produced point is checked once, before its gap is taken: the
        # orbit stops at the step that produced the point, with its message
        produced = []

        def halve(x):
            y = 0.5 * np.asarray(x) + np.array([0.0, 1.0])
            if len(produced) + 1 == step:
                y[1] = bad
            produced.append(y)
            return y

        with pytest.raises(DomainError) as exc_info:
            picard_solve(MetricSpace.euclidean(2), halve, halve, Coefficients(0, 0, 0.5, 0), [3.0, -4.0])
        assert len(produced) == step
        assert str(exc_info.value) == f"point {produced[-1]!r} is outside the universe of this euclidean_affine space"

    @pytest.mark.parametrize("bad", [4, -1, np.int64(9), 1.5, 2.0, None])
    @pytest.mark.parametrize("step", [1, 3])
    def test_off_universe_index_is_refused_at_its_step(self, halving_space, bad, step):
        produced = []

        def descend(x):
            y = bad if len(produced) + 1 == step else max(int(x) - 1, 0)
            produced.append(y)
            return y

        with pytest.raises(DomainError) as exc_info:
            picard_solve(halving_space, descend, descend, Coefficients(0, 0, 0.5, 0), 3)
        assert len(produced) == step
        assert str(exc_info.value) == f"point {bad!r} is outside the universe of this finite_explicit space"

    def test_overflowing_iterate_warns_nothing(self):
        # the domain check refuses the overflowed point; numpy's overflow warning told nothing more
        space = MetricSpace.euclidean(1)
        S, T = AffineMapping([[1e300]], [0.0]), AffineMapping([[0.5]], [0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"point array\(\[inf\]\) is outside the universe"):
                picard_solve(space, S, T, Coefficients(0, 0, 0.6, 0), np.array([1e10]))

    def test_report_roundtrip(self, halving_space, halving_map):
        rep = picard_solve(halving_space, halving_map, halving_map, Coefficients(0, 0, 0.5, 0), 3)
        d = rep.to_dict()
        json.dumps(d)
        assert SolveReport.from_dict(d) == rep

    def test_report_roundtrip_euclidean(self):
        space = MetricSpace.euclidean(1)
        S = AffineMapping([[0.5]], [0.0])
        rep = picard_solve(space, S, S, Coefficients(0, 0, 0.5, 0), np.array([1.0]))
        d = json.loads(json.dumps(rep.to_dict()))
        assert SolveReport.from_dict(d) == rep


class TestUniquenessCheck:
    def test_same_point_is_equal(self, halving_space, halving_map):
        c = Coefficients(0, 0, 0.5, 0)
        v = uniqueness_check(halving_space, halving_map, halving_map, c, 0, 0)
        assert v is UniquenessVerdict.EQUAL

    def test_identity_maps_expose_distinct_fixed_points(self, halving_space):
        ident = TableMapping([0, 1, 2, 3])
        c = Coefficients(0.1, 0.1, 0.3, 0.1, 0.5)
        v = uniqueness_check(halving_space, ident, ident, c, 0, 3)
        assert v is UniquenessVerdict.DISTINCT

    def test_unfixed_input_rejected(self, halving_space, halving_map):
        c = Coefficients(0, 0, 0.5, 0)
        with pytest.raises(PreconditionError):
            uniqueness_check(halving_space, halving_map, halving_map, c, 3, 0)
        with pytest.raises(PreconditionError):
            uniqueness_check(halving_space, halving_map, halving_map, c, 0, 3)

    def test_residual_slack_scales_the_equality_ball(self):
        space = MetricSpace.euclidean(1)
        half = AffineMapping([[0.5]], [0.0])
        c = Coefficients(0, 0, 0.5, 0)
        near = np.array([4e-10])
        # gap 8e-10 within tol / (1 - gamma) = 2e-9
        assert uniqueness_check(space, half, half, c, near, -near) is UniquenessVerdict.EQUAL
        wide = np.array([1.9e-9])
        # residuals still pass (9.5e-10) but the gap 3.8e-9 exceeds the ball
        assert uniqueness_check(space, half, half, c, wide, -wide) is UniquenessVerdict.DISTINCT

    def test_equality_ball_grows_with_the_points(self):
        # four ulps apart at |z| = 3.3e7: the residual's rounding (1.1e-8) used
        # to fail the absolute 1e-9 and raise PreconditionError
        space = MetricSpace.euclidean(1)
        z = np.array([1e8 / 3.0])
        S = AffineMapping([[0.3]], 0.7 * z)
        c = Coefficients(0, 0, 0.3, 0)
        assert uniqueness_check(space, S, S, c, z, z + 4 * np.spacing(z)) is UniquenessVerdict.EQUAL
        with pytest.raises(PreconditionError):
            uniqueness_check(space, S, S, c, z, z + 1e-9 * z)

    def test_first_point_checked_under_S_second_under_T(self):
        space = MetricSpace.finite([[0.0, 1.0], [1.0, 0.0]])
        to0 = TableMapping([0, 0])
        to1 = TableMapping([1, 1])
        c = Coefficients(0, 0, 0, 0)
        assert uniqueness_check(space, to0, to1, c, 0, 1) is UniquenessVerdict.DISTINCT
        with pytest.raises(PreconditionError):
            uniqueness_check(space, to0, to1, c, 1, 0)


@settings(max_examples=30, deadline=None)
@given(factor=st.floats(0.05, 0.8), offset=st.floats(-5.0, 5.0), x0=st.floats(-20.0, 20.0))
def test_affine_contractions_always_converge(factor, offset, x0):
    """A shared scaling map converges from anywhere to its affine fixed point."""
    space = MetricSpace.euclidean(1)
    S = AffineMapping([[factor]], [offset])
    c = Coefficients(0, 0, factor, 0)
    rep = picard_solve(space, S, S, c, np.array([x0]))
    assert rep.converged
    assert rep.point[0] == pytest.approx(offset / (1.0 - factor), abs=1e-7)
    steps = rep.trace.steps
    for a, b in zip(steps, steps[1:]):
        assert b <= rep.rate * a + rep.tolerance
