"""Pinned synthesis results on seeded problems, and the two-phase flow as a reference.

Each case pins what ``synthesize_coefficients`` returns, exactly: the
tuple's ``repr``, or the ``Infeasible`` message and its binding pair.  A
change to the synthesis LP that moves any of them shows up here.  The
generated tables lie on a dyadic grid, so their margins are exact.  A
pinned tuple is the vertex at which the min-sum cutting-plane loop, run
from the largest-lhs rows, stops: HiGHS's (captured with scipy 1.17,
numpy 2.4), and where the optimum is not unique another HiGHS build may
pick another vertex of the same coefficient sum.  A pinned ``Infeasible``
comes from the elastic solve that follows a failed min-sum one.

``two_phase_synthesis`` keeps the flow that ran the elastic solve first on
every problem.  Its ``Infeasible`` outcomes are the library's byte for
byte, and its tuples have the library's coefficient sum.
"""

import itertools
import warnings

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import Bounds, LinearConstraint

from cofix import (
    AffineMapping,
    InstanceRecipe,
    MappingMode,
    MappingSet,
    MetricMode,
    MetricSpace,
    SampledPairs,
    TableMapping,
    check_condition,
    generate_instance,
    synthesize_coefficients,
)
from cofix import contraction
from cofix.contraction import CUT_ROWS, EXHAUSTIVE, MARGIN, Coefficients
from cofix.errors import Infeasible

ANCHOR, RANDOM = MappingMode.CONTRACTION_ANCHOR, MappingMode.RANDOM
UNIFORM, INTEGER, EMBEDDED = MetricMode.UNIFORM, MetricMode.INTEGER, MetricMode.EMBEDDED


def generated(seed, n, arity, metric_mode, mapping_mode):
    inst = generate_instance(InstanceRecipe(seed, n, arity, metric_mode, mapping_mode))
    return inst.space, inst.maps, None


def affine(seed, m, rate, samples):
    """S = T = rate * Q about a point z, Q a seeded orthogonal matrix, sampled in [-10, 10]^m."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    Q = q * np.sign(np.diag(r))
    z = rng.uniform(-1.0, 1.0, size=m)
    S = AffineMapping(rate * Q, z - rate * Q @ z)
    return MetricSpace.euclidean(m), MappingSet(S, S), SampledPairs(samples, seed, (-10.0, 10.0))


def near_overflow():
    """d(1, 2) = 1e308 under the identity: every term reading it overflows, and (1, 2)'s margins are NaN."""
    ident = TableMapping([0, 1, 2])
    return MetricSpace.finite([[0, 1, 1], [1, 0, 1e308], [1, 1e308, 0]]), MappingSet(ident, ident), None


CASES = [
    (
        generated(0, 8, 2, UNIFORM, ANCHOR),
        "Coefficients(alpha=0.0, beta=0.0, gamma=0.6231139448847783, delta=0.0, L=0.0)",
    ),
    (
        generated(0, 12, 2, EMBEDDED, ANCHOR),
        "Coefficients(alpha=0.0, beta=0.0, gamma=0.28227901819651185, delta=0.33386049090174413, L=0.0)",
    ),
    (
        generated(0, 11, 2, INTEGER, RANDOM),
        ("no coefficient tuple covers all 121 pairs; most binding pair (0, 2) lacks 1.55263", (0, 2)),
    ),
    (
        generated(2, 16, 3, UNIFORM, ANCHOR),
        "Coefficients(alpha=0.0, beta=0.0, gamma=0.5217650266630978, delta=0.0, L=0.0)",
    ),
    (
        generated(0, 15, 3, UNIFORM, RANDOM),
        ("no coefficient tuple covers all 225 pairs; most binding pair (1, 6) lacks 0.529281", (1, 6)),
    ),
    (
        generated(1, 37, 3, EMBEDDED, RANDOM),
        ("no coefficient tuple covers all 1369 pairs; most binding pair (21, 31) lacks 4.16526", (21, 31)),
    ),
    (
        generated(0, 22, 4, INTEGER, ANCHOR),
        "Coefficients(alpha=0.10000000000000009, beta=0.0, gamma=0.24999999999999994, delta=0.24999999999999994, L=0.0)",
    ),
    (
        generated(2, 26, 4, EMBEDDED, ANCHOR),
        "Coefficients(alpha=0.16097285597520997, beta=0.0, gamma=0.1672661729483443, delta=0.16726617294834423, L=0.0)",
    ),
    (
        generated(0, 21, 4, UNIFORM, RANDOM),
        ("no coefficient tuple covers all 441 pairs; most binding pair (5, 14) lacks 0.940374", (5, 14)),
    ),
    (
        affine(3, 3, 1.05, 800),
        "Coefficients(alpha=0.0, beta=0.0, gamma=0.8826752505334874, delta=0.03366237473325559, L=3.1694099692175723)",
    ),
    (affine(8, 2, 0.9, 1000), "Coefficients(alpha=0.0, beta=0.0, gamma=0.9180000000000003, delta=0.0, L=0.0)"),
    (
        near_overflow(),
        ("no coefficient tuple covers all 9 pairs; most binding pair (1, 2) lacks nan", (1, 2)),
    ),
]


def outcome(synthesize, space, maps, source):
    """What ``synthesize`` returns on the problem, or the message and binding pair of its ``Infeasible``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return synthesize(space, maps, *(() if source is None else (source,)))
        except Infeasible as exc:
            return str(exc), exc.binding_pair


@pytest.mark.parametrize("case, expected", CASES, ids=range(len(CASES)))
def test_synthesis_result_is_pinned(case, expected):
    got = outcome(synthesize_coefficients, *case)
    assert (got if isinstance(got, tuple) else repr(got)) == expected


def two_phase_synthesis(space, maps, pair_source=EXHAUSTIVE):
    """Synthesis as it ran before the min-sum loop went first; a reference.

    The elastic cutting-plane loop from the largest-lhs rows, ``Infeasible``
    when its excess passes the ties allowance, then the min-sum loop from
    the elastic rows and the re-verification with its two bumps.  Its
    ``Infeasible`` report takes the worst margin and the pair count from
    the condition check's own evaluator, ``_worst``.
    """
    maps.validate(space)
    sampled = isinstance(pair_source, SampledPairs)
    scale = 1.02 if sampled else 1.0
    tolerance = space.slack()
    ties = max(tolerance, 1e-9)
    batch = contraction._pair_batch(space, pair_source)

    def blocks():
        for xs, ys in contraction._row_blocks(space, *batch):
            lhs, *terms = contraction._term_arrays(space, maps, xs, ys)
            yield xs, ys, lhs if scale == 1.0 else scale * lhs, terms

    def cuts(coefs, above):
        for xs, ys, need, terms in blocks():
            margin = contraction._margin(need, coefs, terms)
            m = margin.reshape(-1)
            top = np.argpartition(m, -CUT_ROWS)[-CUT_ROWS:] if m.size > CUT_ROWS else np.arange(m.size)
            idx = np.unravel_index(top[m[top] > above], margin.shape)
            yield np.column_stack([np.broadcast_to(t, margin.shape)[idx] for t in (*terms, need)])

    def infeasible(coefs, reason):
        worst, _, count = contraction._worst(space, maps, batch, coefs, scale, grid=not sampled)
        for xs, ys, need, terms in blocks():
            margin = contraction._margin(need, coefs, terms)
            hits = np.flatnonzero(np.isnan(margin) | (margin >= worst - ties))
            if hits.size:
                pair = contraction._pair_at(space, xs, ys, margin.shape, int(hits[0]))
                return Infeasible(f"{reason.format(count=count)}; most binding pair {pair} lacks {worst:.6g}", binding_pair=pair)

    budget_row = np.array([1.0, 1.0, 1.0, 2.0, 0.0, 0.0])
    lower, upper = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1.0]), np.array([1.0, 1.0, 1.0, 1.0, np.inf, np.inf])

    def solve(rows, elastic):
        k = 6 if elastic else 5
        A_ub = np.vstack([np.column_stack([-rows[:, :5], -np.ones((len(rows), k - 5))]), budget_row[:k]])
        b_ub = np.append(-rows[:, 5], 1.0 - MARGIN)
        objective = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]) if elastic else np.ones(5)
        constraints = LinearConstraint(A_ub, -np.inf, b_ub)
        return scipy.optimize.milp(c=objective, constraints=constraints, bounds=Bounds(lower[:k], upper[:k]))

    def cutting_plane(rows, elastic):
        while True:
            res = solve(rows, elastic)
            if not res.success:
                return res, rows
            above = (res.x[-1] if elastic else 0.0) + tolerance
            grown = np.unique(np.vstack([rows, *cuts(res.x[:5], above)]), axis=0)
            if len(grown) == len(rows):
                return res, rows
            rows = grown

    with np.errstate(over="ignore", invalid="ignore"):
        largest_lhs = np.unique(np.vstack(list(cuts(np.zeros(5), -np.inf))), axis=0)
        res, rows = cutting_plane(largest_lhs, elastic=True)
        if not res.success:
            raise Infeasible("feasibility solve failed")
        if res.x[-1] > ties:
            raise infeasible(res.x[:5], "no coefficient tuple covers all {count} pairs")
        res2, _ = cutting_plane(rows, elastic=False)
        attempt = np.maximum(np.asarray(res2.x if res2.success else res.x[:5], dtype=float), 0.0)
        for bump in (0.0, tolerance, 16.0 * tolerance):
            candidate = Coefficients(*(attempt * (1.0 + bump) + bump if bump else attempt))
            report = contraction._evaluate_condition(space, maps, candidate, pair_source, tolerance, batch if sampled else None)
            if report.satisfied:
                return candidate
        raise infeasible(attempt, "solved tuple failed re-verification")


# generated problems of every arity, metric mode and mapping mode at small n, then the pinned cases' problems
REFERENCE_PROBLEMS = [
    generated(seed, 3 + (11 * seed + 5 * arity) % 40, arity, metric, mapping)
    for arity, metric, mapping, seed in itertools.product((2, 3, 4), MetricMode, MappingMode, range(4))
] + [case for case, _ in CASES]


@pytest.mark.parametrize("case", REFERENCE_PROBLEMS, ids=range(len(REFERENCE_PROBLEMS)))
def test_min_sum_first_agrees_with_the_two_phase_reference(case):
    # an Infeasible is the reference's byte for byte; a tuple is an optimal vertex of the same LP, which re-verifies
    got, ref = outcome(synthesize_coefficients, *case), outcome(two_phase_synthesis, *case)
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert isinstance(got, Coefficients)
        assert abs(sum(got.as_tuple()) - sum(ref.as_tuple())) <= 1e-9
        space, maps, source = case
        assert check_condition(space, maps, got, *(() if source is None else (source,))).satisfied


@pytest.mark.parametrize("case", [case for case, _ in CASES], ids=range(len(CASES)))
def test_a_failed_min_sum_solve_falls_back_to_the_two_phase_flow(monkeypatch, case):
    # the first min-sum solve reports an infeasible working set: the rest is the reference's flow, solve for solve
    ref = outcome(two_phase_synthesis, *case)
    milp, widths = scipy.optimize.milp, []

    def first_min_sum_fails(*args, **kwargs):
        widths.append(len(kwargs["c"]))
        if widths == [5]:
            return scipy.optimize.OptimizeResult(success=False, status=2, message="The problem is infeasible.")
        return milp(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", first_min_sum_fails)
    got = outcome(synthesize_coefficients, *case)
    assert widths[:2] == [5, 6]
    assert got == ref
