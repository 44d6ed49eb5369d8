"""Metric space construction, point handling, and axiom verification."""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cofix
from cofix import (
    AxiomCheck,
    AxiomReport,
    Flavor,
    InstanceRecipe,
    MetricSpace,
    generate_instance,
    metric_closure_repair,
    metric_core,
    verify_metric_axioms,
)
from cofix.errors import DomainError

# the two ways to build a finite space, which follow one ownership rule
BOTH_CONSTRUCTORS = pytest.mark.parametrize(
    "build", [MetricSpace.finite, lambda t: MetricSpace(Flavor.FINITE_EXPLICIT, table=t)], ids=["finite", "raw"]
)

# path-graph metric on four points
PATH4 = [
    [0.0, 1.0, 2.0, 3.0],
    [1.0, 0.0, 1.0, 2.0],
    [2.0, 1.0, 0.0, 1.0],
    [3.0, 2.0, 1.0, 0.0],
]

# the four axiom checks of a report that passes, as to_dict writes them
PASSING = [{"name": name, "passed": True, "witness": None, "magnitude": 0.0} for name in ("identity", "symmetry", "positivity", "triangle")]


@pytest.fixture
def path4():
    return MetricSpace.finite(PATH4)


class TestFiniteSpace:
    def test_basics(self, path4):
        assert path4.is_finite
        assert path4.flavor is Flavor.FINITE_EXPLICIT
        assert path4.n == 4
        assert path4.slack() == 1e-12

    def test_distance_lookup(self, path4):
        assert path4.distance(0, 3) == 3.0
        assert path4.distance(3, 0) == 3.0
        assert path4.distance(2, 2) == 0.0

    def test_finite_flavor_needs_a_table(self):
        with pytest.raises(DomainError, match="needs a distance table"):
            MetricSpace(Flavor.FINITE_EXPLICIT)

    def test_table_is_read_only(self, path4):
        with pytest.raises(ValueError):
            path4.table[0, 1] = 99.0

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            MetricSpace.finite(np.zeros((2, 3)))

    def test_rejects_non_finite_entries(self):
        bad = [[0.0, np.nan], [np.nan, 0.0]]
        with pytest.raises(DomainError):
            MetricSpace.finite(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_raw_constructor_rejects_any_non_finite_entry(self, bad):
        tab = np.zeros((3, 3))
        tab[2, 1] = bad
        with pytest.raises(DomainError):
            MetricSpace.finite(tab)
        with pytest.raises(DomainError):
            MetricSpace(Flavor.FINITE_EXPLICIT, table=tab)

    @BOTH_CONSTRUCTORS
    def test_finiteness_check_allocates_no_table_sized_mask(self, build):
        n = 4000
        # 122 MiB, which neither constructor copies; an n x n boolean mask would be 15.3 MiB
        tab = np.ones((n, n))
        tracemalloc.start()
        try:
            build(tab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_contains(self, path4):
        assert path4.contains(0)
        assert path4.contains(np.int64(3))
        assert not path4.contains(4)
        assert not path4.contains(-1)
        assert not path4.contains(1.5)

    def test_distance_rejects_foreign_point(self, path4):
        with pytest.raises(DomainError):
            path4.distance(0, 7)

    def test_slack_is_the_exact_tolerance(self, path4):
        assert path4.slack() == 1e-12
        assert path4.slack(0.0) == 0.0
        # finite points compare exactly: magnitudes do not widen the slack
        assert path4.slack(0.5, 2, 3, scale=1e9) == 0.5

    def test_canonicalize_materialize_roundtrip(self, path4):
        c = path4.canonicalize(np.int64(2))
        assert c == 2 and isinstance(c, int)
        assert path4.materialize(c) == 2

    def test_raw_constructor_takes_a_nested_list(self, path4):
        sp = MetricSpace(Flavor.FINITE_EXPLICIT, table=PATH4)
        assert np.array_equal(sp.table, path4.table)
        assert sp.table.dtype == np.float64
        assert verify_metric_axioms(sp).to_dict() == verify_metric_axioms(path4).to_dict()

    @BOTH_CONSTRUCTORS
    def test_table_is_stored_read_only_on_both_paths(self, build):
        # one rule: a float64 table is shared as a read-only view, and the caller's array stays writable
        tab = np.array(PATH4)
        sp = build(tab)
        assert np.shares_memory(sp.table, tab)
        assert not sp.table.flags.writeable and tab.flags.writeable
        # anything else becomes a private float64 array
        for other in (PATH4, np.array(PATH4, dtype=np.int64), np.array(PATH4, dtype=np.float32)):
            sp = build(other)
            assert sp.table.dtype == np.float64 and not sp.table.flags.writeable
            assert not np.shares_memory(sp.table, other)
            assert np.array_equal(sp.table, tab)

    @pytest.mark.parametrize("table, nonnegative", [(PATH4, True), ([[-0.0]], True), ([[0.0, -1.0], [2.0, 0.0]], False)])
    def test_table_sign_is_recorded(self, table, nonnegative):
        # -0.0 is no negative entry; a norm is never negative
        assert MetricSpace.finite(table).nonnegative is nonnegative
        assert MetricSpace.euclidean(2).nonnegative is True


class TestSpaceEquality:
    def test_finite_spaces_compare_by_table_values(self, path4):
        # a finite space's == raised "truth value of an array ... is ambiguous"
        assert path4 == MetricSpace.finite(PATH4)
        assert path4 == MetricSpace(Flavor.FINITE_EXPLICIT, table=PATH4)
        other = np.array(PATH4)
        other[0, 3] = other[3, 0] = 2.5
        assert path4 != MetricSpace.finite(other)
        assert path4 != MetricSpace.finite(np.array(PATH4)[:3, :3])
        assert path4 != MetricSpace.euclidean(4)
        assert path4 != PATH4

    def test_hash_agrees_with_eq(self, path4):
        # hash(space) raised TypeError: unhashable type
        signed = np.array(PATH4)
        np.fill_diagonal(signed, -0.0)
        assert MetricSpace.finite(signed) == path4
        assert hash(MetricSpace.finite(signed)) == hash(path4)
        assert len({path4, MetricSpace.finite(PATH4), MetricSpace.euclidean(2), MetricSpace.euclidean(2.0)}) == 2

    def test_euclidean_spaces_compare_by_dimension(self):
        assert MetricSpace.euclidean(2) == MetricSpace.euclidean(2.0)
        assert MetricSpace.euclidean(2) != MetricSpace.euclidean(3)

    def test_instances_holding_a_finite_space_compare(self):
        recipe = InstanceRecipe(seed=4, n=7)
        first, again = generate_instance(recipe), generate_instance(recipe)
        assert first == again
        assert cofix.as_problem(first) == cofix.as_problem(again)
        assert first != generate_instance(InstanceRecipe(seed=5, n=7))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
def test_slack_refuses_non_finite_or_negative_tolerance(path4, bad):
    for sp in (path4, MetricSpace.euclidean(2)):
        with pytest.raises(DomainError, match="finite and non-negative"):
            sp.slack(bad)


@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_slack_refuses_a_boolean_tolerance(path4, flag):
    # float(True) is 1.0: a boolean is never a number
    for sp in (path4, MetricSpace.euclidean(2)):
        with pytest.raises(DomainError, match="tolerance must be a number"):
            sp.slack(flag)


class TestEuclideanSpace:
    def test_basics(self):
        sp = MetricSpace.euclidean(3)
        assert not sp.is_finite
        assert sp.dimension == 3
        assert sp.slack() == 1e-9
        with pytest.raises(DomainError):
            sp.n

    def test_distance_is_norm(self):
        sp = MetricSpace.euclidean(3)
        assert sp.distance([0.0, 0.0, 0.0], [3.0, 4.0, 0.0]) == 5.0

    def test_slack_grows_with_magnitude(self):
        sp = MetricSpace.euclidean(2)
        eps = np.finfo(float).eps
        a, b = np.array([3.0, 4.0]), np.array([0.0, 1e6])
        assert sp.slack() == 1e-9
        assert sp.slack(1e-9, a, b) == 1e-9 + 4 * eps * (5.0 + 1e6)
        assert sp.slack(0.0, scale=1e12) == 4 * eps * 1e12
        assert sp.slack(0.0, a, scale=2.0) == 4 * eps * 7.0

    def test_canonicalize_materialize_roundtrip(self):
        sp = MetricSpace.euclidean(2)
        c = sp.canonicalize(np.array([0.5, -1.5]))
        assert c == (0.5, -1.5)
        back = sp.materialize(c)
        assert isinstance(back, np.ndarray)
        assert np.array_equal(back, [0.5, -1.5])

    def test_wrong_dimension_rejected(self):
        sp = MetricSpace.euclidean(2)
        with pytest.raises(DomainError):
            sp.distance(np.zeros(3), np.zeros(3))

    def test_rejects_bad_dimension(self):
        with pytest.raises(DomainError):
            MetricSpace.euclidean(0)

    @pytest.mark.parametrize("dimension", [2.5, None, "two"])
    def test_rejects_non_integer_dimension(self, dimension):
        # 2.5 used to be truncated to R^2
        with pytest.raises(DomainError):
            MetricSpace.euclidean(dimension)
        with pytest.raises(DomainError):
            MetricSpace(Flavor.EUCLIDEAN_AFFINE, dimension=dimension)

    def test_integral_float_dimension_is_accepted(self):
        assert MetricSpace.euclidean(3.0).dimension == 3

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 16), data=st.data())
    def test_distance_is_numpy_norm_bit_for_bit(self, m, data):
        # magnitudes 1e-150 to 1e150, mixed within a vector: squares stay finite
        coord = st.builds(lambda mant, e: mant * 10.0**e, st.floats(-1.0, 1.0), st.integers(-150, 150))
        a, b = (np.array(data.draw(st.lists(coord, min_size=m, max_size=m))) for _ in range(2))
        sp = MetricSpace.euclidean(m)
        expected = float(np.linalg.norm(a - b))
        assert sp.distance(a, b).hex() == expected.hex()
        point, gap = sp._step(a, b)
        assert gap.hex() == expected.hex() and point is b


class TestPointRule:
    """``contains`` and ``_check_point`` state one rule: a point is in or it raises DomainError."""

    FINITE_POINTS = [
        (0, True), (3, True), (np.int64(2), True), (np.int32(1), True), (np.uint8(3), True),
        (4, False), (-1, False), (np.int64(4), False), (np.int64(-1), False), (10**30, False),
        (1.5, False), (2.0, False), (np.float64(1.0), False), ("1", False), (None, False),
        ([1], False), (np.array(1), False), (True, False), (False, False), (np.True_, False),
    ]
    EUCLIDEAN_POINTS = [
        ([0.0, 1.0], True), ((1.0, -2.0), True), (np.array([1, 2]), True), ([1e308, -1e308], True),
        ([np.nan, 0.0], False), ([0.0, np.inf], False), ([-np.inf, 0.0], False), ([np.nan, np.inf], False),
        (np.zeros(3), False), (np.zeros((2, 1)), False), (np.zeros((1, 2)), False), (1.0, False), ([], False),
    ]

    @pytest.mark.parametrize("finite, p, inside", [(True, *c) for c in FINITE_POINTS] + [(False, *c) for c in EUCLIDEAN_POINTS])
    def test_contains_and_check_agree(self, path4, finite, p, inside):
        sp = path4 if finite else MetricSpace.euclidean(2)
        assert sp.contains(p) is inside
        if inside:
            checked = sp._check_point(p)
            if sp.is_finite:
                assert type(checked) is int and checked == int(p)
            else:
                assert checked.dtype == np.float64 and np.array_equal(checked, np.asarray(p, dtype=float))
        else:
            message = f"point {p!r} is outside the universe of this {sp.flavor.value} space"
            with pytest.raises(DomainError) as exc_info:
                sp._check_point(p)
            assert str(exc_info.value) == message


class TestAxiomChecks:
    def test_valid_table_passes(self, path4):
        rep = verify_metric_axioms(path4)
        assert rep.passed
        assert rep.mode == "exhaustive"
        assert rep.tolerance == 0.0
        assert [c.name for c in rep.checks] == ["identity", "symmetry", "positivity", "triangle"]

    def test_identity_violation(self):
        tab = np.array(PATH4)
        tab[1, 1] = 0.5
        rep = verify_metric_axioms(MetricSpace.finite(tab))
        chk = rep.check("identity")
        assert not chk.passed
        assert chk.witness == (1,)
        assert chk.magnitude == 0.5

    def test_symmetry_violation(self):
        tab = np.array(PATH4)
        tab[0, 1] = 2.0
        chk = verify_metric_axioms(MetricSpace.finite(tab)).check("symmetry")
        assert not chk.passed
        assert chk.magnitude == 1.0
        # |1e308 - (-1e308)| overflows to inf: a failed check, not a RuntimeWarning
        chk = verify_metric_axioms(MetricSpace.finite([[0.0, 1e308], [-1e308, 0.0]])).check("symmetry")
        assert (chk.passed, chk.witness, chk.magnitude) == (False, (0, 1), math.inf)

    def test_positivity_violation(self):
        chk = verify_metric_axioms(MetricSpace.finite(np.zeros((2, 2)))).check("positivity")
        assert not chk.passed
        assert chk.witness == (0, 1)

    def test_triangle_violation(self):
        tab = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
        rep = verify_metric_axioms(MetricSpace.finite(tab))
        chk = rep.check("triangle")
        assert not chk.passed
        assert chk.witness == (0, 1, 2)
        assert chk.magnitude == 3.0

    @pytest.mark.parametrize("n", [1, 2, 9, 33, 70])
    def test_tiled_triangle_check_matches_the_row_scan(self, n):
        rng = np.random.default_rng(n)
        # few distinct values make many triples tie for the worst violation
        tab = rng.integers(0, 6, size=(n, n)).astype(float)
        worst, witness = -np.inf, None
        for i in range(n):
            viol = tab[i][None, :] - tab[i][:, None] - tab
            j, k = np.unravel_index(int(np.argmax(viol)), viol.shape)
            if viol[j, k] > worst:
                worst, witness = float(viol[j, k]), (i, int(j), int(k))
        chk = verify_metric_axioms(MetricSpace.finite(tab)).check("triangle")
        if worst > 0.0:
            assert (chk.passed, chk.witness, chk.magnitude) == (False, witness, worst)
        else:
            assert (chk.passed, chk.witness, chk.magnitude) == (True, None, 0.0)

    def test_tolerance_slack_admits_near_miss(self):
        tab = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
        assert verify_metric_axioms(MetricSpace.finite(tab), tolerance=3.0).passed

    def test_negative_tolerance_rejected(self, path4):
        with pytest.raises(DomainError):
            verify_metric_axioms(path4, tolerance=-1.0)

    @pytest.mark.parametrize("m", [1, 2, 8])
    def test_euclidean_report_is_analytic(self, m):
        rep = verify_metric_axioms(MetricSpace.euclidean(m))
        assert rep.to_dict() == {"checks": PASSING, "mode": "analytic", "tolerance": 1e-9, "passed": True}
        assert AxiomReport.from_dict(json.loads(json.dumps(rep.to_dict()))) == rep

    def test_euclidean_tolerance_goes_through_slack(self):
        sp = MetricSpace.euclidean(2)
        assert verify_metric_axioms(sp, tolerance=1e-6).tolerance == 1e-6
        assert verify_metric_axioms(sp, tolerance=0).tolerance == 0.0
        for bad in (np.nan, np.inf, -1.0):
            with pytest.raises(DomainError, match="finite and non-negative"):
                verify_metric_axioms(sp, tolerance=bad)

    def test_euclidean_report_draws_nothing(self):
        # sampling 200,000 triples in R^8 held a 36.6 MiB draw, and norm arrays besides
        tracemalloc.start()
        try:
            rep = verify_metric_axioms(MetricSpace.euclidean(8), samples=200_000, seed=1, box=(-10.0, 10.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.mode, rep.passed) == ("analytic", True)
        assert peak < 2**20

    @pytest.mark.parametrize(
        "kwargs",
        [{"samples": 0}, {"samples": 2.5, "seed": 1.5}, {"seed": None}, {"box": (1.0, 1.0)}, {"box": (-1e200, 1e200)}],
        ids=["no-samples", "fractional", "no-seed", "empty-box", "wide-box"],
    )
    def test_sampling_keywords_are_unread(self, path4, kwargs):
        for sp in (path4, MetricSpace.euclidean(2)):
            assert verify_metric_axioms(sp, **kwargs) == verify_metric_axioms(sp)

    def test_sampled_report_document_still_decodes(self):
        # the shape written when Euclidean axioms were sampled: seed, box and samples are dropped
        doc = {"checks": PASSING, "mode": "sampled", "tolerance": 1e-9, "seed": 7, "box": [-2.0, 2.0], "samples": 64, "passed": True}
        rep = AxiomReport.from_dict(doc)
        assert (rep.mode, rep.tolerance, rep.passed) == ("sampled", 1e-9, True)
        assert rep.to_dict() == {"checks": PASSING, "mode": "sampled", "tolerance": 1e-9, "passed": True}

    def test_report_roundtrip(self, path4):
        rep = verify_metric_axioms(path4)
        d = rep.to_dict()
        json.dumps(d)
        assert AxiomReport.from_dict(d) == rep

    def test_report_check_lookup(self, path4):
        rep = verify_metric_axioms(path4)
        assert rep.check("triangle").name == "triangle"
        with pytest.raises(KeyError):
            rep.check("nonsense")


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=10), seed=st.integers(min_value=0, max_value=10**6))
def test_embedded_point_clouds_always_yield_metrics(n, seed):
    """Pairwise-distance tables of real point clouds satisfy every axiom."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-5.0, 5.0, size=(n, 3))
    tab = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    rep = verify_metric_axioms(MetricSpace.finite(tab), tolerance=1e-9)
    assert rep.passed


# --------------------------------------------------------------------------
# the Chebyshev row screen ahead of the exact triangle scan


def reference_verify_finite(tab, tolerance):
    """The unscreened check: every row goes through the exact tiled triangle scan."""
    D = np.asarray(tab, dtype=float)
    n = D.shape[0]
    diag = np.abs(np.diag(D))
    i = int(np.argmax(diag))
    ok = bool(diag[i] <= tolerance)
    identity = AxiomCheck("identity", ok, None if ok else (i,), 0.0 if ok else float(diag[i]))
    asym = np.abs(D - D.T)
    i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
    ok = bool(asym[i, j] <= tolerance)
    symmetry = AxiomCheck("symmetry", ok, None if ok else (int(i), int(j)), 0.0 if ok else float(asym[i, j]))
    off = D + np.where(np.eye(n, dtype=bool), np.inf, 0.0)
    i, j = np.unravel_index(int(np.argmin(off)), off.shape)
    ok = bool(off[i, j] > 0.0)
    positivity = AxiomCheck("positivity", ok, None if ok else (int(i), int(j)), 0.0 if ok else float(-off[i, j]))
    T_ROWS, T_COLS = 8, 32
    row_worst = np.empty(n)
    tile = np.empty((T_ROWS, T_COLS, n))
    for i0 in range(0, n, T_ROWS):
        rows = D[i0 : i0 + T_ROWS]
        worst_here = np.full(len(rows), -np.inf)
        for j0 in range(0, n, T_COLS):
            cols = D[j0 : j0 + T_COLS]
            viol = tile[: len(rows), : len(cols)]
            np.subtract(rows[:, None, :], rows[:, j0 : j0 + len(cols), None], out=viol)
            viol -= cols
            np.maximum(worst_here, viol.max(axis=(1, 2)), out=worst_here)
        row_worst[i0 : i0 + len(rows)] = worst_here
    i = int(np.argmax(row_worst))
    viol = D[i][None, :] - D[i][:, None] - D
    j, k = np.unravel_index(int(np.argmax(viol)), viol.shape)
    worst = float(viol[j, k])
    ok = worst <= tolerance
    triangle = AxiomCheck("triangle", bool(ok), None if ok else (i, int(j), int(k)), 0.0 if ok else worst)
    return AxiomReport(checks=(identity, symmetry, positivity, triangle), mode="exhaustive", tolerance=tolerance)


def _ultrametric(rng, n):
    rho = rng.uniform(0.5, 8.0, n)
    tab = np.maximum.outer(rho, rho)
    np.fill_diagonal(tab, 0.0)
    return tab


def _collinear(rng, n):
    # |x_i - x_j| of float points: many triples hold with equality, up to rounding
    x = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-7.0, 5.5)
    if rng.random() < 0.5:
        x = np.round(x * 64.0) / 64.0  # coarse grid: ties between distinct points
    return np.abs(x[:, None] - x[None, :])


def _nudged(rng, tab, count):
    """``tab`` with ``count`` symmetric entries moved one ulp up or down."""
    tab = tab.copy()
    n = tab.shape[0]
    for _ in range(count):
        i, j = rng.choice(n, size=2, replace=False)
        tab[i, j] = tab[j, i] = np.nextafter(tab[i, j], np.inf if rng.random() < 0.5 else -np.inf)
    return tab


def _tied_cluster(rng, n):
    """Three points b, c and a = fl(b + c) +- an ulp apart, far from all others, which are equidistant to them.

    Inside the cluster only a tie S[i, j] == D[i, j] can flag a row, and
    rounding decides whether (i, j, k) violates the triangle inequality.
    """
    b = rng.uniform(1.0, 2.0) * 2.0 ** int(rng.integers(0, 40))
    c = rng.uniform(1.0, 2.0) * 2.0 ** -int(rng.integers(0, 30))
    a = b + c
    for _ in range(int(rng.integers(0, 3))):
        a = np.nextafter(a, np.inf if rng.random() < 0.5 else -np.inf)
    rho = rng.uniform(4.0, 8.0, n) * a
    i, j, k = rng.choice(n, size=3, replace=False)
    rho[[j, k]] = rho[i]
    tab = np.maximum.outer(rho, rho)
    np.fill_diagonal(tab, 0.0)
    for (p, q), d in (((i, j), b), ((j, k), c), ((i, k), a)):
        tab[p, q] = tab[q, p] = d
    return tab


def _family_table(family, n, seed):
    rng = np.random.default_rng(seed)
    if family == "ultrametric":
        return _ultrametric(rng, n)
    if family == "repaired":
        return metric_closure_repair(rng.uniform(0.1, 8.0, (n, n)))
    if family == "random":
        tab = rng.uniform(0.1, 8.0, (n, n))
        tab = np.minimum(tab, tab.T)
        np.fill_diagonal(tab, 0.0)
        return tab
    if family == "asymmetric":
        tab = _ultrametric(rng, n) if rng.random() < 0.5 else metric_closure_repair(rng.uniform(0.1, 8.0, (n, n)))
        return tab * (1.0 + rng.uniform(0.0, 0.3) * np.triu(rng.random((n, n)), 1))
    if family == "collinear":
        return _collinear(rng, n)
    if family == "nextafter":
        tab = _collinear(rng, n) if rng.random() < 0.5 else metric_closure_repair(rng.uniform(0.1, 8.0, (n, n)))
        return _nudged(rng, tab, int(rng.integers(1, n)))
    if family == "tied_cluster":
        return _tied_cluster(rng, n)
    if family == "offdiagonal_zero":
        tab = _collinear(rng, n)
        i, j = rng.choice(n, size=2, replace=False)
        tab[i, j] = tab[j, i] = 0.0
        return tab
    if family == "diagonal":
        tab = _ultrametric(rng, n)
        i = int(rng.integers(0, n))
        tab[i, i] = float(rng.choice([1e-300, 1e-13, 1e-6, -1e-13, -1e-6]))
        return tab
    if family == "negative":
        tab = _collinear(rng, n)
        i, j = rng.choice(n, size=2, replace=False)
        tab[i, j] = tab[j, i] = -tab[i, j]
        return tab
    if family == "integer":
        tab = rng.integers(0, 6, size=(n, n)).astype(float)
        tab = tab + tab.T + 1.0
        np.fill_diagonal(tab, 0.0)
        return tab
    mode = ("uniform", "integer", "embedded")[seed % 3]
    return generate_instance(InstanceRecipe(seed=seed, n=n, metric_mode=mode)).space.table


FAMILIES = (
    "ultrametric",
    "repaired",
    "random",
    "asymmetric",
    "collinear",
    "nextafter",
    "tied_cluster",
    "offdiagonal_zero",
    "diagonal",
    "negative",
    "integer",
    "generated",
)


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    n=st.integers(min_value=3, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    tol=st.sampled_from([0.0, 1e-12, 1e-3]),
)
def test_screened_reports_equal_the_unscreened_scan(family, n, seed, tol):
    tab = _family_table(family, n, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric_core, "SCREEN_MIN_N", 3)
        screened = verify_metric_axioms(MetricSpace.finite(tab), tolerance=tol)
    assert screened.to_dict() == reference_verify_finite(tab, tol).to_dict()


def _two_level(rng, rho, scale):
    """Hub ultrametrics max(rho_i, rho_j) in three clusters, max(sigma_a, sigma_b) > every rho apart.

    An ultrametric, but with two points in each of two clusters no row is a
    hub's: from one cluster, another's points all lie at one distance.
    """
    cluster = np.arange(len(rho)) % 3
    sigma = rng.uniform(16.0, 32.0, 3)[cluster] * scale
    return np.where(cluster[:, None] == cluster[None, :], np.maximum.outer(rho, rho), np.maximum.outer(sigma, sigma))


def _ultrametric_case(case, n, seed):
    """An ultrametric at a scale from 1e-7 to 1e300, or one edited to be asymmetric or not ultrametric.

    ``"one_triple"`` raises d(i, j) of the three points of least rho above
    their largest rho, and no further than every other rho: the triple
    (i, j, k) alone has a side longer than the other two.  Raised past
    d(i, k) + d(k, j) it breaks the triangle inequality as well.  Hubs tie
    in ``"tied_hub"``, sit at the first or last index in ``"hub_first"``
    and ``"hub_last"`` (rho 0, as in the oracle's anchors), and are
    missing from ``"two_level"``.
    """
    rng = np.random.default_rng(seed)
    scale = 10.0 ** int(rng.integers(-7, 301))
    if case == "one_triple":
        rho = rng.uniform(8.0, 16.0, n) * scale
        i, j, k = rng.choice(n, size=3, replace=False)
        rho[[i, j, k]] = rng.uniform(1.0, 2.0, 3) * scale
    elif case == "tied_hub":
        rho = rng.integers(1, 4, n) * scale
    else:
        rho = rng.uniform(0.5, 8.0, n) * scale
    if case in ("hub_first", "hub_last"):
        rho[0 if case == "hub_first" else -1] = 0.0
    tab = _two_level(rng, rho, scale) if case == "two_level" else np.maximum.outer(rho, rho)
    np.fill_diagonal(tab, 0.0)
    if case == "signed_zero_diagonal":
        tab[np.diag_indices(n)] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    elif case == "nudged":
        i, j = rng.choice(n, size=2, replace=False)
        tab[i, j] = tab[j, i] = np.nextafter(tab[i, j], np.inf if rng.random() < 0.5 else -np.inf)
    elif case == "asymmetric":
        # the upper triangle alone stays an ultrametric
        i, j = sorted(rng.choice(n, size=2, replace=False))
        tab[j, i] = rng.choice([np.nextafter(tab[i, j], np.inf), np.nextafter(tab[i, j], -np.inf), 3.0 * tab[i, j], 0.25 * tab[i, j]])
    elif case == "one_triple":
        top = rho[[i, j, k]].max()
        tab[i, j] = tab[j, i] = rng.choice([np.nextafter(top, np.inf), 1.5 * top, 3.0 * top])
    return tab


@settings(max_examples=300, deadline=None)
@given(
    case=st.sampled_from(
        ["ultrametric", "nudged", "asymmetric", "one_triple", "tied_hub", "hub_first", "hub_last", "signed_zero_diagonal", "two_level"]
    ),
    n=st.integers(min_value=3, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    tol=st.sampled_from([0.0, 1e-12, 1e-3]),
)
def test_certified_reports_equal_the_unscreened_scan(case, n, seed, tol):
    tab = _ultrametric_case(case, n, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric_core, "SCREEN_MIN_N", 3)
        certified = verify_metric_axioms(MetricSpace.finite(tab), tolerance=tol)
    assert certified.to_dict() == reference_verify_finite(tab, tol).to_dict()


def _calls(monkeypatch, owner, name):
    """Patch ``owner.name`` to record each call's first argument, and return that list."""
    calls = []
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


@pytest.fixture
def scanned_rows(monkeypatch):
    """The rows the exact triangle scan visits, in call order."""
    rows = []
    row_worst = metric_core._row_worst

    def counting(D, which):
        rows.extend(int(i) for i in which)
        return row_worst(D, which)

    monkeypatch.setattr(metric_core, "_row_worst", counting)
    return rows


class TestScreenPath:
    def test_anchor_ultrametric_scans_no_row(self, scanned_rows, monkeypatch):
        screened = _calls(monkeypatch, metric_core, "_uncleared_rows")
        for n in (300, 2000):
            assert verify_metric_axioms(MetricSpace.finite(_ultrametric(np.random.default_rng(n), n))).passed
        assert (screened, scanned_rows) == ([], [])

    def test_nudged_anchor_falls_back_to_the_screen(self, monkeypatch):
        tab = _nudged(np.random.default_rng(300), _ultrametric(np.random.default_rng(300), 300), 1)
        screened = _calls(monkeypatch, metric_core, "_uncleared_rows")
        rep = verify_metric_axioms(MetricSpace.finite(tab))
        assert len(screened) == 1
        assert rep.to_dict() == reference_verify_finite(tab, 0.0).to_dict()

    def test_repaired_table_scans_no_row(self, scanned_rows, monkeypatch):
        screened = _calls(monkeypatch, metric_core, "_uncleared_rows")
        for n in (200, 300):
            D = metric_closure_repair(np.random.default_rng(n).uniform(0.1, 8.0, (n, n)))  # checks no axiom itself
            assert verify_metric_axioms(MetricSpace.finite(D), tolerance=0.0).passed
        # the hub test turns both tables away to the screen, which clears every row
        assert (len(screened), scanned_rows) == (2, [])

    def test_inexact_ties_are_scanned(self, scanned_rows):
        # collinear points off any dyadic grid: d(i, k) = d(i, j) + d(j, k) up to rounding
        x = np.random.default_rng(1).uniform(0.0, 0.3, 200)
        tab = np.abs(x[:, None] - x[None, :])
        rep = verify_metric_axioms(MetricSpace.finite(tab))
        assert 0 < len(scanned_rows) <= 200
        assert rep.to_dict() == reference_verify_finite(tab, 0.0).to_dict()

    def test_violation_is_found_through_the_screen(self, scanned_rows):
        tab = _ultrametric(np.random.default_rng(7), 150)
        tab[40, 90] = tab[90, 40] = tab[40, 90] * 3.0
        rep = verify_metric_axioms(MetricSpace.finite(tab))
        assert not rep.check("triangle").passed
        assert 0 < len(scanned_rows) < 150
        assert rep.to_dict() == reference_verify_finite(tab, 0.0).to_dict()

    def test_small_tables_never_import_scipy(self):
        # nor does an anchor of any size: its hub certificate is numpy's
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import cofix\n"
            "for n in (64, 300):\n"
            "    rho = np.random.default_rng(0).uniform(0.5, 8.0, n)\n"
            "    tab = np.maximum.outer(rho, rho)\n"
            "    np.fill_diagonal(tab, 0.0)\n"
            "    assert cofix.verify_metric_axioms(cofix.MetricSpace.finite(tab)).passed\n"
            "sys.exit('scipy' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cofix.__file__))}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_peak_stays_below_three_tables(self):
        n = 600
        space = MetricSpace.finite(_ultrametric(np.random.default_rng(0), n))
        verify_metric_axioms(space)  # the scipy import is not the check's memory
        tracemalloc.start()
        try:
            verify_metric_axioms(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the unscreened check held |D - D^T|, the positivity matrix and its np.where temporary
        assert peak < 3 * n * n * 8


# --------------------------------------------------------------------------
# exact symmetry, decided once, and the one path of the axiom check


class TestSymmetricProperty:
    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
    def test_one_ulp_anywhere_breaks_symmetry(self, n):
        tab = _ultrametric(np.random.default_rng(n), n)
        assert MetricSpace.finite(tab).symmetric
        # corners, a random pair, and both sides of a tile edge
        pairs = {(0, n - 1), (n - 1, 0), tuple(np.random.default_rng(n).choice(n, size=2, replace=False)) if n > 1 else (0, 0)}
        if n > 256:
            pairs |= {(255, 256), (256, 255), (n - 1, 255)}
        for i, j in pairs:
            if i == j:
                continue
            bent = tab.copy()
            bent[i, j] = np.nextafter(bent[i, j], np.inf)
            assert not MetricSpace.finite(bent).symmetric, (i, j)

    def test_signed_zeros_face_each_other(self):
        tab = np.array(PATH4)
        tab[0, 1], tab[1, 0] = -0.0, 0.0
        assert MetricSpace.finite(tab).symmetric

    def test_euclidean_spaces_are_symmetric(self):
        assert MetricSpace.euclidean(3).symmetric

    def test_decided_once_without_a_table_sized_temporary(self):
        space = MetricSpace.finite(_ultrametric(np.random.default_rng(0), 2000))
        tracemalloc.start()
        try:
            assert space.symmetric
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 256 x 256 tile comparison at a time, against 30.5 MiB for the table
        assert peak < 2**20
        assert vars(space)["symmetric"] is True


def _symmetric_case(case, n, seed):
    """A symmetric table of ``n`` points, edited as ``case`` says; the axiom report must not depend on the path."""
    rng = np.random.default_rng(seed)
    if case == "repaired":
        tab = metric_closure_repair(rng.uniform(0.1, 8.0, (n, n)))
    else:
        rho = rng.integers(1, 4, n).astype(float) if case == "tied_hub" else rng.uniform(0.5, 8.0, n)
        if case in ("hub_first", "hub_last"):
            rho[0 if case == "hub_first" else -1] = 0.0
        tab = _two_level(rng, rho, 1.0) if case == "two_level" else np.maximum.outer(rho, rho)
        np.fill_diagonal(tab, -0.0 if case == "signed_zero_diagonal" else 0.0)
    (i, j), (k, l) = sorted(rng.choice(n, size=2, replace=False)), sorted(rng.choice(n, size=2, replace=False))
    if case == "offdiagonal_zero":
        tab[i, j] = tab[j, i] = 0.0
    elif case == "signed_zero":
        # -0.0 below the diagonal, 0.0 above: the first least entry is (i, j)
        tab[i, j], tab[j, i] = 0.0, -0.0
    elif case == "two_zeros":
        tab[i, j] = tab[j, i] = tab[k, l] = tab[l, k] = 0.0
    elif case == "negative":
        tab[i, j] = tab[j, i] = -tab[i, j]
    elif case == "diagonal":
        tab[i, i] = float(rng.choice([1e-300, 1e-6, -1e-6]))
    elif case in ("nudged", "nudged_last"):
        # still a metric, no longer an ultrametric: the screen runs
        if case == "nudged_last":
            i, j = n - 2, n - 1  # in the hub test's last block only
        tab[i, j] = tab[j, i] = np.nextafter(tab[i, j], np.inf)
    elif case == "triangle":
        tab[i, j] = tab[j, i] = 3.0 * tab[i, j]
    return tab


SYMMETRIC_CASES = (
    "ultrametric",
    "tied_hub",
    "hub_first",
    "hub_last",
    "signed_zero_diagonal",
    "two_level",
    "repaired",
    "offdiagonal_zero",
    "signed_zero",
    "two_zeros",
    "negative",
    "diagonal",
    "nudged",
    "nudged_last",
    "triangle",
)
# metrics with no hub row, and a table breaking the triangle inequality: the Chebyshev screen runs
SCREENED_CASES = ("two_level", "repaired", "nudged", "nudged_last", "triangle")
# hub ultrametrics: certified when the table is known to be symmetric, screened when it is not
HUB_CASES = ("ultrametric", "tied_hub", "hub_first", "hub_last", "signed_zero_diagonal")


@pytest.mark.parametrize("case", SYMMETRIC_CASES)
@pytest.mark.parametrize("n, seed, hub_rows", [(metric_core.SCREEN_MIN_N, 0, None), (131, 1, 7), (200, 2, None)])
def test_condensed_reports_equal_the_full_path(monkeypatch, case, n, seed, hub_rows):
    tab = _symmetric_case(case, n, seed)
    if hub_rows:
        # blocks of 7 rows: the last holds rows 126-130 alone
        monkeypatch.setattr(metric_core, "BLOCK_PAIRS", hub_rows * n)
    screened = _calls(monkeypatch, metric_core, "_uncleared_rows")
    rep = verify_metric_axioms(MetricSpace.finite(tab), tolerance=0.0)
    full_space = MetricSpace.finite(tab)
    object.__setattr__(full_space, "symmetric", False)
    full = verify_metric_axioms(full_space, tolerance=0.0)
    # a table not known to be symmetric gets no hub certificate: a hub ultrametric is screened too
    assert len(screened) == (2 if case in SCREENED_CASES else case in HUB_CASES)
    # JSON tells -0.0 from 0.0
    assert json.dumps(rep.to_dict(), sort_keys=True) == json.dumps(full.to_dict(), sort_keys=True)
    assert rep.to_dict() == reference_verify_finite(tab, 0.0).to_dict()
    assert rep.check("symmetry").passed


def test_condensed_positivity_names_the_first_zero_in_row_major_order():
    tab = _ultrametric(np.random.default_rng(3), 300)
    tab[7, 250] = tab[250, 7] = tab[3, 4] = tab[4, 3] = 0.0
    rep = verify_metric_axioms(MetricSpace.finite(tab))
    assert (rep.check("positivity").witness, rep.check("symmetry").witness) == ((3, 4), None)


def test_condensed_path_makes_no_square_scratch():
    # an anchor needs neither |D - D^T| nor the screen's n x n copy: a positivity row block,
    # 0.73 of the table at n=600, is the largest array
    n = 600
    space = MetricSpace.finite(_ultrametric(np.random.default_rng(0), n))
    verify_metric_axioms(space)  # the scipy imports and the symmetry decision are not the check's memory
    tracemalloc.start()
    try:
        assert verify_metric_axioms(space).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


@pytest.mark.parametrize("case", HUB_CASES)
@pytest.mark.parametrize("n", [2, 3, 40, metric_core.SCREEN_MIN_N - 1])
def test_small_hub_tables_are_certified_unscanned(scanned_rows, case, n):
    # the hub certificate is numpy's and O(n^2): it runs below SCREEN_MIN_N too
    tab = _symmetric_case(case, n, n)
    rep = verify_metric_axioms(MetricSpace.finite(tab), tolerance=0.0)
    assert rep.to_dict() == reference_verify_finite(tab, 0.0).to_dict()
    assert rep.passed and scanned_rows == []


@pytest.mark.parametrize("case", ["two_level", "repaired", "triangle"])
@pytest.mark.parametrize("n", [40, metric_core.SCREEN_MIN_N - 1])
def test_small_tables_without_a_hub_are_scanned(scanned_rows, case, n):
    tab = _symmetric_case(case, n, n)
    scanned_rows.clear()  # a repair's own guard check scans too
    rep = verify_metric_axioms(MetricSpace.finite(tab), tolerance=0.0)
    assert rep.to_dict() == reference_verify_finite(tab, 0.0).to_dict()
    assert scanned_rows == list(range(n))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    block_rows=st.integers(min_value=1, max_value=31),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    symmetric=st.booleans(),
)
def test_positivity_blocks_keep_the_first_least_entry(n, block_rows, seed, symmetric):
    # few distinct values and signed zeros: ties within and across row blocks
    rng = np.random.default_rng(seed)
    tab = rng.choice([-0.0, 0.0, 1.0, 2.0, -1.0], size=(n, n), p=[0.1, 0.1, 0.5, 0.2, 0.1])
    if symmetric:
        tab = np.where(np.triu(np.ones((n, n), dtype=bool)), tab, tab.T)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric_core, "LEAST_BLOCK", block_rows * n)
        check = verify_metric_axioms(MetricSpace.finite(tab), tolerance=0.0).check("positivity")
    off = [(float(tab[i, j]), i, j) for i in range(n) for j in range(n) if i != j]
    least, i, j = min(off, key=lambda e: e[0]) if off else (math.inf, 0, 0)  # min keeps the first of ties
    ok = least > 0.0
    # JSON tells -0.0 from 0.0: the magnitude is -d(i, j) at the first least entry
    want = AxiomCheck("positivity", ok, None if ok else (i, j), 0.0 if ok else -least)
    assert json.dumps(check.to_dict()) == json.dumps(want.to_dict())


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=24),
    width=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    huge=st.booleans(),
    metric=st.booleans(),
)
def test_triangle_tiles_of_any_width_match_the_brute_force(n, width, seed, huge, metric):
    # BLOCK_PAIRS sets the tile's columns j, here 1 to n.  Few distinct values give ties; a metric draws
    # from [1, 2] off the diagonal and passes; other tables hold a zero pair, and near +-1e308 their
    # differences overflow to -inf (never a violation) or +inf (the worst)
    rng = np.random.default_rng(seed)
    if metric:
        tab = rng.choice([1.0, 1.5, 2.0], size=(n, n))
        tab = np.minimum(tab, tab.T)
    else:
        tab = rng.choice([0.0, 1.0, 3.0, 1e308, -1e308] if huge else [0.0, 1.0, 2.0, 5.0], size=(n, n))
        tab[0, n - 1] = 0.0
    np.fill_diagonal(tab, 0.0)
    rows = rng.permutation(n)[: int(rng.integers(1, n + 1))]
    with np.errstate(over="ignore"):
        cube = tab[:, None, :] - tab[:, :, None] - tab[None, :, :]  # [i, j, k]: d(i, k) - d(i, j) - d(j, k)
    row_worst = cube.max(axis=(1, 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric_core, "BLOCK_PAIRS", metric_core.TILE_ROWS * n * min(width, n))
        assert np.array_equal(metric_core._row_worst(tab, rows), row_worst[rows])
        triangle = verify_metric_axioms(MetricSpace.finite(tab), tolerance=0.0).check("triangle")
    i = int(np.argmax(row_worst))
    j, k = np.unravel_index(int(np.argmax(cube[i])), (n, n))
    ok = bool(cube[i, j, k] <= 0.0)
    want = AxiomCheck("triangle", ok, None if ok else (i, int(j), int(k)), 0.0 if ok else float(cube[i, j, k]))
    assert json.dumps(triangle.to_dict()) == json.dumps(want.to_dict())
    assert triangle.passed or not metric


def test_triangle_tile_stays_within_the_block_budget():
    # 8 rows of an n=1000 table: a tile of 8 x 32 x n entries was 2 MB; 8 x 8 x n is 512 KB
    n = 1000
    tab = metric_closure_repair(np.random.default_rng(4).uniform(0.1, 8.0, size=(n, n)))
    tracemalloc.start()
    try:
        metric_core._row_worst(tab, np.arange(metric_core.TILE_ROWS))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the tile, plus the 8-row block and numpy's reduction buffers
    assert peak < 8 * max(metric_core.BLOCK_PAIRS, metric_core.TILE_ROWS * n) + 2**18

