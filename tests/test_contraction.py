"""Coefficient bounds, mapping containers, condition checks, and synthesis."""

import dataclasses
import itertools
import json
import math
import pickle
import tracemalloc
import warnings
from unittest.mock import patch

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cofix import (
    EXHAUSTIVE,
    AffineMapping,
    Arity,
    Coefficients,
    MappingSet,
    MetricSpace,
    SampledPairs,
    TableMapping,
    ViolationReport,
    check_condition,
    check_range_inclusions,
    identity_mapping,
    synthesize_coefficients,
    verify_metric_axioms,
)
from cofix import contraction
from cofix.contraction import rhs_four, rhs_three, rhs_two, validate_coefficients
from cofix.errors import (
    BoundViolation,
    DomainError,
    ExhaustiveOnInfinite,
    Infeasible,
    NonInvertibleMapping,
)
from cofix.oracle import InstanceRecipe, MappingMode, MetricMode, generate_instance, metric_closure_repair
from cofix.problem import Problem, problem_to_dict

# labels 0, 1, 3, 7 with the absolute-difference metric; the step map
# 7 -> 3 -> 1 -> 0 -> 0 satisfies the two-mapping condition with gamma = 1/2
# and attains equality on consecutive label pairs.
HALVING_LABELS = [0, 1, 3, 7]
HALVING_TABLE = np.abs(np.subtract.outer(HALVING_LABELS, HALVING_LABELS)).astype(float)
HALVING_STEP = [0, 0, 1, 2]

PATH4 = MetricSpace.finite(
    [
        [0.0, 1.0, 2.0, 3.0],
        [1.0, 0.0, 1.0, 2.0],
        [2.0, 1.0, 0.0, 1.0],
        [3.0, 2.0, 1.0, 0.0],
    ]
)


@pytest.fixture
def halving_space():
    return MetricSpace.finite(HALVING_TABLE)


@pytest.fixture
def halving_map():
    return TableMapping(HALVING_STEP)


class TestCoefficients:
    def test_weight_sum_and_tuple(self):
        c = Coefficients(0.1, 0.2, 0.3, 0.1, 2.0)
        assert c.weight_sum == pytest.approx(0.8)
        assert c.as_tuple() == (0.1, 0.2, 0.3, 0.1, 2.0)

    def test_dict_roundtrip(self):
        c = Coefficients(0.1, 0.2, 0.3, 0.1, 2.0)
        assert Coefficients.from_dict(c.to_dict()) == c

    def test_from_dict_defaults_L_to_zero(self):
        c = Coefficients.from_dict({"alpha": 0.1, "beta": 0.0, "gamma": 0.2, "delta": 0.0})
        assert c.L == 0.0

    def test_validate_accepts_interior_tuple(self):
        c = Coefficients(0.2, 0.2, 0.2, 0.1, 5.0)
        assert validate_coefficients(c) is c

    @pytest.mark.parametrize(
        "bad",
        [
            (1.0, 0.0, 0.0, 0.0),
            (-0.1, 0.0, 0.0, 0.0),
            (0.0, 1.5, 0.0, 0.0),
            (0.0, 0.0, 0.0, -0.2),
            (0.0, 0.0, 0.0, 0.0, -1.0),
            (0.5, 0.3, 0.2, 0.0),  # weight sum exactly 1
            (0.3, 0.3, 0.0, 0.3),  # weight sum 1.2 via doubled delta
            (float("nan"), 0.0, 0.0, 0.0),
        ],
    )
    def test_construction_rejects_out_of_bound_tuples(self, bad):
        # a tuple is checked when it is built: no out-of-bound Coefficients exists
        with pytest.raises(BoundViolation):
            Coefficients(*bad)

    @pytest.mark.parametrize("bad", [False, np.True_, "half", None])
    def test_each_field_follows_the_number_rule(self, bad):
        # Coefficients(False, ...) built and wrote "alpha": false, which load_problem refuses
        for k, name in enumerate(("alpha", "beta", "gamma", "delta", "L")):
            args = [0.0, 0.0, 0.5, 0.0, 0.0]
            args[k] = bad
            with pytest.raises(DomainError) as exc_info:
                Coefficients(*args)
            assert str(exc_info.value) == f"{name} must be a number, got {bad!r}"

    def test_fields_are_python_floats(self):
        # np.float32 fields made to_dict unserializable, and "0.5" raised TypeError from np.isfinite
        for value in (0.5, np.float32(0.5), np.float64(0.5)):
            c = Coefficients(value, 0, np.int64(0), 0.125, 3)
            assert c.as_tuple() == (0.5, 0.0, 0.0, 0.125, 3.0)
            assert all(type(v) is float for v in c.as_tuple())
            assert json.loads(json.dumps(c.to_dict())) == {"alpha": 0.5, "beta": 0.0, "gamma": 0.0, "delta": 0.125, "L": 3.0}
        # a string is never a number
        with pytest.raises(DomainError, match="^alpha must be a number, got '0.5'$"):
            Coefficients("0.5", 0, 0, 0.125, 3)

    def test_weight_sum_just_below_one_is_fine(self):
        validate_coefficients(Coefficients(0.5, 0.3, 0.199, 0.0))


class TestTableMapping:
    def test_call_and_image(self, halving_map):
        assert halving_map(3) == 2
        assert halving_map.n == 4
        assert list(halving_map.image()) == [0, 1, 2]
        assert halving_map != identity_mapping(4)

    def test_identity_helper(self):
        assert identity_mapping(4) == TableMapping([0, 1, 2, 3])

    def test_compose_applies_inner_first(self):
        outer = TableMapping([1, 2, 0])
        inner = TableMapping([2, 2, 2])
        assert list(outer.compose(inner).table) == [0, 0, 0]
        assert list(inner.compose(outer).table) == [2, 2, 2]

    def test_equality_and_hash(self):
        a = TableMapping([1, 0])
        b = TableMapping(np.array([1, 0]))
        assert a == b
        assert hash(a) == hash(b)
        assert a != TableMapping([0, 1])

    def test_table_read_only(self, halving_map):
        with pytest.raises(ValueError):
            halving_map.table[0] = 3

    def test_validate_against_space(self, halving_space, halving_map):
        assert halving_map.validate(halving_space) is halving_map
        with pytest.raises(DomainError):
            TableMapping([0, 1]).validate(halving_space)
        with pytest.raises(DomainError):
            TableMapping([0, 1, 2, 9]).validate(halving_space)
        with pytest.raises(DomainError):
            halving_map.validate(MetricSpace.euclidean(2))

    @pytest.mark.parametrize("table", [[0, -1, 2, 3], [0, 1, 2, 4], [-3, 4, 4, 4]], ids=["negative", "past_n", "both"])
    def test_validate_refuses_entries_outside_the_universe(self, halving_space, table):
        with pytest.raises(DomainError, match="^mapping table references indices outside the universe$"):
            TableMapping(table).validate(halving_space)
        with pytest.raises(DomainError, match="^mapping table has 4 entries for a universe of 3 points$"):
            TableMapping(table).validate(MetricSpace.finite(np.ones((3, 3)) - np.eye(3)))

    def test_recorded_range_is_not_a_field(self, halving_space):
        a, b = TableMapping([2, 0, 1, 3]), TableMapping([2, 0, 1, 3])
        # ==, hash and the fields go by the table alone
        object.__setattr__(b, "_range", (-5, 99))
        assert a == b and hash(a) == hash(b)
        assert [f.name for f in dataclasses.fields(a)] == ["table"]
        copy = pickle.loads(pickle.dumps(a))
        assert copy == a and hash(copy) == hash(a) and copy.validate(halving_space) is copy
        assert dataclasses.replace(a, table=[0, 0, 0, 9]) != a
        with pytest.raises(DomainError, match="outside the universe"):
            dataclasses.replace(a, table=[0, 0, 0, 9]).validate(halving_space)

    def test_apply_many_keeps_the_index_shape(self, halving_map):
        xs = np.array([[3], [2], [0]])
        out = halving_map.apply_many(xs)
        assert out.shape == xs.shape
        assert [int(v) for v in out.ravel()] == [halving_map(int(x)) for x in xs.ravel()]

    def test_rejects_two_dimensional_table(self):
        with pytest.raises(DomainError):
            TableMapping(np.zeros((2, 2), dtype=int))

    def test_rejects_fractional_entries(self):
        with pytest.raises(DomainError, match="entries must be integers"):
            TableMapping([0.5, 0])
        assert TableMapping(np.array([1.0, 0.0])).table.tolist() == [1, 0]


class TestAffineMapping:
    def test_call_matches_matrix_form(self):
        m = AffineMapping([[2.0, 0.0], [0.0, 0.5]], [1.0, -1.0])
        out = m(np.array([1.0, 4.0]))
        assert np.array_equal(out, [3.0, 1.0])

    def test_apply_many_matches_loop(self):
        rng = np.random.default_rng(3)
        m = AffineMapping(rng.normal(size=(3, 3)), rng.normal(size=3))
        pts = rng.normal(size=(10, 3))
        batch = m.apply_many(pts)
        for i in range(10):
            assert np.allclose(batch[i], m(pts[i]))

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 16), rows=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1), strided=st.booleans())
    def test_apply_many_is_the_broadcast_product_bit_for_bit(self, m, rows, seed, strided):
        rng = np.random.default_rng(seed)
        A = AffineMapping(rng.normal(size=(m, m)), rng.normal(size=m) * 10.0 ** rng.integers(-8, 9, size=m))
        # a sampled check's points are views of its (N, 2, m) draw
        pts = rng.uniform(-1.0, 1.0, size=(rows, 2, m))[:, 0, :] if strided else rng.uniform(-1.0, 1.0, size=(rows, m))
        assert A.apply_many(pts).tobytes() == (pts @ A.matrix.T + A.offset).tobytes()
        assert A.apply_many(pts[0]).tobytes() == (pts[0] @ A.matrix.T + A.offset).tobytes()

    def test_cached_transpose_is_not_a_field(self):
        rng = np.random.default_rng(4)
        matrix, offset = rng.normal(size=(3, 3)), rng.normal(size=3)
        a, b = AffineMapping(matrix, offset), AffineMapping(matrix, offset)
        assert a._mt.flags.c_contiguous and not a._mt.flags.writeable and np.array_equal(a._mt, matrix.T)
        object.__setattr__(b, "_mt", np.zeros((3, 3)))
        assert "_mt" not in {f.name for f in dataclasses.fields(AffineMapping)}
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        doc = [problem_to_dict(Problem(MetricSpace.euclidean(3), MappingSet(m, m), Coefficients(0, 0, 0.5, 0))) for m in (a, b)]
        assert doc[0] == doc[1]

    def test_inverse_roundtrip(self):
        m = AffineMapping([[2.0, 0.0], [0.0, 4.0]], [1.0, 2.0])
        assert m.inverse().compose(m) == AffineMapping(np.eye(2), np.zeros(2))

    def test_singular_inverse_raises(self):
        with pytest.raises(NonInvertibleMapping):
            AffineMapping([[1.0, 0.0], [1.0, 0.0]], [0.0, 0.0]).inverse()

    @pytest.mark.parametrize("matrix", [[[1e-310]], [[1e-310, 0.0], [0.0, 1.0]]], ids=["1d", "2d"])
    def test_overflowing_inverse_counts_as_singular(self, matrix):
        # every entry is finite but 1 / 1e-310 is not: this used to raise
        # DomainError("... must be finite"), in 1-D after a numpy RuntimeWarning
        m = AffineMapping(matrix, [1.0] * len(matrix))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonInvertibleMapping, match="overflows"):
                m.inverse()

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            AffineMapping(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(DomainError):
            AffineMapping(np.eye(2), np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["matrix", "offset"])
    def test_rejects_non_finite_entries(self, bad, where):
        # a NaN matrix was accepted and surfaced as "worst_margin": NaN in check
        matrix, offset = [[0.5, 0.0], [0.0, 0.5]], [0.0, 1.0]
        if where == "matrix":
            matrix[1][0] = bad
        else:
            offset[0] = bad
        with pytest.raises(DomainError, match="must be finite"):
            AffineMapping(matrix, offset)

    def test_hash_agrees_with_eq_on_signed_zero(self):
        # the byte hash put the -0.0 map and its == twin in different buckets
        a = AffineMapping([[0.5]], [-0.0])
        b = AffineMapping([[0.5]], [0.0])
        c = AffineMapping([[-0.0, 0.5], [0.5, 0.0]], [1.0, -0.0])
        d = AffineMapping([[0.0, 0.5], [0.5, 0.0]], [1.0, 0.0])
        assert a == b and hash(a) == hash(b)
        assert c == d and hash(c) == hash(d)
        assert len({a, b, c, d}) == 2
        assert np.signbit(a.offset[0])  # the stored entry keeps its sign

    def test_validate_against_space(self):
        m = AffineMapping(np.eye(2), np.zeros(2))
        assert m.validate(MetricSpace.euclidean(2)) is m
        with pytest.raises(DomainError):
            m.validate(MetricSpace.euclidean(3))
        with pytest.raises(DomainError):
            m.validate(MetricSpace.finite([[0.0, 1.0], [1.0, 0.0]]))


class TestMappingSet:
    def test_arity_field_consistency(self, halving_map):
        # an arity-k set holds exactly the first k of S, T, f and g; the message names them
        ident = identity_mapping(4)
        with pytest.raises(DomainError, match="^three-mapping problems take S, T, f$"):
            MappingSet(S=halving_map, T=halving_map, arity=Arity.THREE)
        with pytest.raises(DomainError, match="^four-mapping problems take S, T, f, g$"):
            MappingSet(S=halving_map, T=halving_map, f=ident, arity=Arity.FOUR)
        with pytest.raises(DomainError, match="^four-mapping problems take S, T, f, g$"):
            MappingSet(S=halving_map, T=halving_map, g=ident, arity=Arity.FOUR)
        with pytest.raises(DomainError, match="^two-mapping problems take S, T$"):
            MappingSet(S=halving_map, T=halving_map, f=ident, arity=Arity.TWO)
        with pytest.raises(DomainError, match="^three-mapping problems take S, T, f$"):
            MappingSet(S=halving_map, T=halving_map, f=ident, g=ident, arity=Arity.THREE)

    def test_int_arity_promoted(self, halving_map):
        ms = MappingSet(S=halving_map, T=halving_map, arity=2)
        assert ms.arity is Arity.TWO

    def test_sides_pair_each_mapping_with_its_companion(self, halving_map):
        S, T = halving_map, TableMapping([1, 1, 1, 1])
        f, g = TableMapping([0, 0, 2, 2]), TableMapping([0, 1, 1, 2])
        assert MappingSet(S=S, T=T).sides == (("S", S, None, None), ("T", T, None, None))
        assert MappingSet(S=S, T=T, f=f, arity=3).sides == (("S", S, "f", f), ("T", T, "f", f))
        assert MappingSet(S=S, T=T, f=f, g=g, arity=4).sides == (("S", S, "f", f), ("T", T, "g", g))

    def test_items_labels(self, halving_map):
        ident = identity_mapping(4)
        ms = MappingSet(S=halving_map, T=halving_map, f=ident, g=ident, arity=Arity.FOUR)
        assert [label for label, _ in ms.items()] == ["S", "T", "f", "g"]

    def test_validate_names_offending_mapping(self, halving_space, halving_map):
        ms = MappingSet(S=halving_map, T=TableMapping([0, 1]), arity=Arity.TWO)
        with pytest.raises(DomainError, match="mapping T"):
            ms.validate(halving_space)


class TestSampledPairs:
    def test_draws_are_deterministic(self, halving_space):
        src = SampledPairs(samples=50, seed=11)
        xs1, ys1 = src.draw_pairs(halving_space)
        xs2, ys2 = src.draw_pairs(halving_space)
        assert np.array_equal(xs1, xs2) and np.array_equal(ys1, ys2)
        assert xs1.min() >= 0 and xs1.max() < halving_space.n

    def test_euclidean_needs_box(self):
        src = SampledPairs(samples=5, seed=0)
        with pytest.raises(DomainError):
            src.draw_pairs(MetricSpace.euclidean(2))

    def test_box_past_float_range_is_refused(self):
        # +-1e200 overflowed the squared distances and reported a NaN margin
        with pytest.raises(DomainError, match="sampling box"):
            SampledPairs(samples=4, seed=0, box=(-1e200, 1e200))
        # the cap shrinks with the dimension, so drawing checks the box again
        src = SampledPairs(samples=4, seed=0, box=(-1e150, 1e150))
        assert src.draw_pairs(MetricSpace.euclidean(1))[0].shape == (4, 1)
        with pytest.raises(DomainError, match="sampling box"):
            src.draw_pairs(MetricSpace.euclidean(4))
        half = AffineMapping(0.5 * np.eye(4), np.zeros(4))
        with pytest.raises(DomainError, match="sampling box"):
            check_condition(MetricSpace.euclidean(4), MappingSet(half, half), Coefficients(0, 0, 0.5, 0), src)

    def test_bad_construction(self):
        with pytest.raises(DomainError):
            SampledPairs(samples=0, seed=0)
        with pytest.raises(DomainError):
            SampledPairs(samples=5, seed=0, box=(2.0, 2.0))

    @pytest.mark.parametrize("box", [(False, True), (0.0, True), ("low", 1.0)])
    def test_box_bounds_follow_the_number_rule(self, box):
        # float(False) is 0.0: (False, True) built the box (0.0, 1.0)
        with pytest.raises(DomainError, match="^sampling box bound must be a number, got "):
            SampledPairs(8, 0, box=box)

    def test_dict_roundtrip(self):
        src = SampledPairs(samples=7, seed=3, box=(-1.0, 4.0))
        assert SampledPairs.from_dict(src.to_dict()) == src

    @pytest.mark.parametrize("samples, seed", [(64.7, 3), (5, 3.9), (5, None)])
    def test_fractional_counts_and_seeds_are_refused(self, samples, seed):
        # these used to construct and then raise TypeError from draw_pairs
        with pytest.raises(DomainError):
            SampledPairs(samples, seed)

    def test_integral_floats_become_ints(self):
        src = SampledPairs(64.0, 3.0)
        assert (src.samples, src.seed) == (64, 3)
        assert type(src.samples) is int and type(src.seed) is int


class TestScalarRhs:
    def test_two_mapping_value(self, halving_space, halving_map):
        c = Coefficients(0.1, 0.2, 0.3, 0.05, 1.0)
        val = rhs_two(c, halving_space, halving_map, halving_map, 1, 2)
        # terms at (1, 2): t1=1, t2=2, t3=2, t4=3+0, min term 0
        assert val == pytest.approx(1.25, abs=1e-15)

    def test_three_with_identity_matches_two(self, halving_space, halving_map):
        c = Coefficients(0.1, 0.2, 0.3, 0.05, 1.0)
        ident = identity_mapping(4)
        for x in range(4):
            for y in range(4):
                assert rhs_three(c, halving_space, halving_map, halving_map, ident, x, y) == rhs_two(
                    c, halving_space, halving_map, halving_map, x, y
                )

    def test_four_with_equal_maps_matches_three(self, halving_space, halving_map):
        c = Coefficients(0.2, 0.1, 0.2, 0.1, 0.5)
        f = TableMapping([1, 0, 2, 3])
        for x in range(4):
            for y in range(4):
                assert rhs_four(c, halving_space, halving_map, halving_map, f, f, x, y) == rhs_three(
                    c, halving_space, halving_map, halving_map, f, x, y
                )

    def test_min_term_contributes(self):
        # constant map to 1 on the path graph keeps all four min arguments positive
        const1 = TableMapping([1, 1, 1, 1])
        c = Coefficients(0.0, 0.0, 0.0, 0.0, 0.5)
        assert rhs_two(c, PATH4, const1, const1, 0, 3) == pytest.approx(0.5)

    def test_zero_coefficient_drops_an_overflowing_term(self):
        # at (1, 1) alpha, beta and delta are 0 but d(1, 0) + d(1, 0) = 2e308 overflows: 0 * inf was a NaN rhs,
        # where the check, which drops the term, reads the margin 0 - 0.5 * d(1, 1) = 0
        big = 1e308
        space, zero = MetricSpace.finite([[0, big, 1], [big, 0, big], [1, big, 0]]), TableMapping([0, 0, 0])
        c = Coefficients(0, 0, 0.5, 0)
        assert rhs_two(c, space, zero, zero, 1, 1) == 0.0
        for x, y in itertools.product(range(3), repeat=2):
            lhs = space.distance(zero(x), zero(y))
            assert lhs - rhs_two(c, space, zero, zero, x, y) == -0.5 * space.distance(x, y)
        assert check_condition(space, MappingSet(zero, zero), c).worst_margin == 0.0


def _relabelled(inst, seed: int):
    """The instance's space and mappings with point i renamed p[i], p a seeded permutation."""
    p = np.random.default_rng(seed).permutation(inst.space.n)
    table = np.empty_like(inst.space.table)
    table[np.ix_(p, p)] = inst.space.table

    def rename(m):
        out = np.empty_like(m.table)
        out[p] = p[m.table]
        return TableMapping(out)

    mappings = [rename(m) for _, m in inst.maps.items()]
    return MetricSpace.finite(table), MappingSet(*mappings, arity=inst.maps.arity)


@pytest.mark.parametrize("metric_mode", list(MetricMode))
@pytest.mark.parametrize("arity", [2, 3, 4])
def test_relabelling_leaves_the_finite_checks_unchanged(arity, metric_mode):
    # the names of the points carry no meaning: the worst margin, bit for bit, and the axiom
    # verdicts and magnitudes stay; only the worst pair and the witnesses are renamed
    for seed, mapping_mode in itertools.product(range(6), list(MappingMode)):
        inst = generate_instance(InstanceRecipe(seed=seed, n=40, arity=arity, metric_mode=metric_mode, mapping_mode=mapping_mode))
        space, maps = _relabelled(inst, seed)
        before, after = (check_condition(s, m, inst.coefficients) for s, m in ((inst.space, inst.maps), (space, maps)))
        assert (after.satisfied, after.worst_margin.hex()) == (before.satisfied, before.worst_margin.hex())
        verdicts = [[(ch.name, ch.passed, ch.magnitude) for ch in verify_metric_axioms(s).checks] for s in (inst.space, space)]
        assert verdicts[1] == verdicts[0]


class TestConditionChecks:
    def test_halving_satisfied_with_zero_margin(self, halving_space, halving_map):
        rep = check_condition(halving_space, MappingSet(halving_map, halving_map), Coefficients(0, 0, 0.5, 0))
        assert rep.satisfied
        assert rep.worst_margin == 0.0
        assert rep.worst_pair == (0, 0)
        assert rep.pairs_checked == 16
        assert rep.mode == "exhaustive"
        assert rep.tolerance == 1e-12

    def test_identity_maps_violate(self, halving_space):
        ident = identity_mapping(4)
        rep = check_condition(halving_space, MappingSet(ident, ident), Coefficients(0.1, 0.1, 0.3, 0.1, 0.5))
        assert not rep.satisfied
        assert rep.worst_pair == (0, 3)
        assert rep.worst_margin == pytest.approx(3.5)

    @pytest.mark.parametrize("source", ["finite_exhaustive", "finite_sampled", "euclidean_sampled"])
    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_vectorized_matches_scalar_on_random_instance(self, arity, source):
        rng = np.random.default_rng(42)
        if source == "euclidean_sampled":
            space = MetricSpace.euclidean(2)
            src = SampledPairs(200, seed=7, box=(-2.0, 2.0))

            def draw():
                return AffineMapping(rng.normal(size=(2, 2)), rng.normal(size=2))

        else:
            pts = rng.uniform(-3.0, 3.0, size=(6, 2))
            space = MetricSpace.finite(np.linalg.norm(pts[:, None] - pts[None, :], axis=2))
            src = EXHAUSTIVE if source == "finite_exhaustive" else SampledPairs(50, seed=7)

            def draw():
                return TableMapping(rng.integers(0, 6, size=6))

        S, T = draw(), draw()
        f = draw() if arity >= 3 else None
        g = draw() if arity == 4 else None
        c = Coefficients(0.2, 0.1, 0.2, 0.05, 0.3)
        if arity == 2:
            rep = check_condition(space, MappingSet(S, T), c, src)
            rhs = lambda x, y: rhs_two(c, space, S, T, x, y)
        elif arity == 3:
            rep = check_condition(space, MappingSet(S, T, f, arity=Arity.THREE), c, src)
            rhs = lambda x, y: rhs_three(c, space, S, T, f, x, y)
        else:
            rep = check_condition(space, MappingSet(S, T, f, g, arity=Arity.FOUR), c, src)
            rhs = lambda x, y: rhs_four(c, space, S, T, f, g, x, y)
        pairs = [(x, y) for x in range(6) for y in range(6)] if src == EXHAUSTIVE else zip(*src.draw_pairs(space))
        margins = {
            (space.canonicalize(x), space.canonicalize(y)): space.distance(S(x), T(y)) - rhs(x, y) for x, y in pairs
        }
        worst = max(margins.values())
        assert rep.worst_margin == pytest.approx(worst, abs=1e-12)
        assert margins[rep.worst_pair] == pytest.approx(worst, abs=1e-12)
        assert rep.satisfied == (worst <= rep.tolerance)
        assert rep.pairs_checked == (36 if src == EXHAUSTIVE else src.samples)

    def test_exhaustive_grid_reads_the_table_like_the_scalar_terms(self):
        # an asymmetric table tells d(g(y), S(x)) from d(S(x), g(y))
        rng = np.random.default_rng(11)
        tab = rng.uniform(0.1, 3.0, size=(6, 6))
        np.fill_diagonal(tab, 0.0)
        space = MetricSpace.finite(tab)
        S, T, f = (TableMapping(rng.integers(0, 6, size=6)) for _ in range(3))
        c = Coefficients(0.1, 0.1, 0.2, 0.1, 0.3)
        rep = check_condition(space, MappingSet(S, T, f, arity=Arity.THREE), c)
        margins = {
            (x, y): space.distance(S(x), T(y)) - rhs_three(c, space, S, T, f, x, y) for x in range(6) for y in range(6)
        }
        worst = max(margins.values())
        assert rep.worst_margin == worst
        assert rep.worst_pair == min(p for p, m in margins.items() if m == worst)

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_check_condition_dispatches_to_the_named_check(self, halving_space, halving_map, arity):
        c = Coefficients(0.1, 0.1, 0.2, 0.1, 0.4)
        f, g = TableMapping([0, 0, 2, 2]), TableMapping([0, 1, 1, 2])
        src = SampledPairs(20, seed=3)
        if arity == 2:
            maps = MappingSet(S=halving_map, T=halving_map, arity=arity)
            named = contraction.check_condition_two(halving_space, halving_map, halving_map, c, src)
        elif arity == 3:
            maps = MappingSet(S=halving_map, T=halving_map, f=f, arity=arity)
            named = contraction.check_condition_three(halving_space, halving_map, halving_map, f, c, src)
        else:
            maps = MappingSet(S=halving_map, T=halving_map, f=f, g=g, arity=arity)
            named = contraction.check_condition_four(halving_space, halving_map, halving_map, f, g, c, src)
        assert check_condition(halving_space, maps, c, src).to_dict() == named.to_dict()

    def test_three_with_identity_equals_two(self, halving_space, halving_map):
        c = Coefficients(0.1, 0.1, 0.2, 0.1, 0.4)
        two = check_condition(halving_space, MappingSet(halving_map, halving_map), c)
        maps = MappingSet(halving_map, halving_map, identity_mapping(4), arity=Arity.THREE)
        three = check_condition(halving_space, maps, c)
        assert three.condition == "three"
        assert (three.satisfied, three.worst_pair, three.worst_margin) == (
            two.satisfied,
            two.worst_pair,
            two.worst_margin,
        )

    def test_four_with_shared_f_equals_three(self, halving_space, halving_map):
        c = Coefficients(0.1, 0.1, 0.2, 0.1, 0.4)
        f = TableMapping([0, 0, 2, 2])
        three = check_condition(halving_space, MappingSet(halving_map, halving_map, f, arity=Arity.THREE), c)
        four = check_condition(halving_space, MappingSet(halving_map, halving_map, f, f, arity=Arity.FOUR), c)
        assert four.condition == "four"
        assert (four.satisfied, four.worst_pair, four.worst_margin) == (
            three.satisfied,
            three.worst_pair,
            three.worst_margin,
        )

    def test_sampled_mode_on_finite_space(self, halving_space, halving_map):
        src = SampledPairs(samples=40, seed=5)
        rep = check_condition(halving_space, MappingSet(halving_map, halving_map), Coefficients(0, 0, 0.5, 0), src)
        assert rep.mode == "sampled"
        assert rep.seed == 5
        assert rep.pairs_checked == 40
        assert rep.satisfied

    def test_exhaustive_on_euclidean_raises(self):
        space = MetricSpace.euclidean(1)
        half = AffineMapping([[0.5]], [0.0])
        with pytest.raises(ExhaustiveOnInfinite):
            check_condition(space, MappingSet(half, half), Coefficients(0, 0, 0.5, 0))

    def test_unknown_pair_source_raises(self, halving_space, halving_map):
        with pytest.raises(DomainError, match="unknown pair source 'all'"):
            check_condition(halving_space, MappingSet(halving_map, halving_map), Coefficients(0, 0, 0.5, 0), "all")

    def test_euclidean_sampled_boundary_case(self):
        space = MetricSpace.euclidean(1)
        half = AffineMapping([[0.5]], [0.0])
        src = SampledPairs(samples=500, seed=2, box=(-10.0, 10.0))
        good = check_condition(space, MappingSet(half, half), Coefficients(0, 0, 0.5, 0), src)
        assert good.satisfied
        assert good.box == (-10.0, 10.0)
        bad = check_condition(space, MappingSet(half, half), Coefficients(0, 0, 0.4, 0), src)
        assert not bad.satisfied
        assert bad.worst_margin > 0

    def test_invalid_coefficients_rejected_before_checking(self, halving_space, halving_map):
        with pytest.raises(BoundViolation):
            check_condition(halving_space, MappingSet(halving_map, halving_map), Coefficients(0.6, 0.4, 0.0, 0.0))

    def test_report_roundtrip_finite_and_euclidean(self, halving_space, halving_map):
        rep = check_condition(halving_space, MappingSet(halving_map, halving_map), Coefficients(0, 0, 0.5, 0))
        d = rep.to_dict()
        json.dumps(d)
        assert ViolationReport.from_dict(d) == rep

        space = MetricSpace.euclidean(2)
        m = AffineMapping(0.5 * np.eye(2), np.zeros(2))
        rep = check_condition(space, MappingSet(m, m), Coefficients(0, 0, 0.5, 0), SampledPairs(16, 0, box=(-1, 1)))
        d = rep.to_dict()
        json.dumps(d)
        assert ViolationReport.from_dict(d) == rep


def reference_condition_report(space, maps, c, pair_source=EXHAUSTIVE, tolerance=None):
    """The condition check with every pair of the batch, as a report.

    The reference for the library's check, which evaluates one pair per
    pair of keys.  As in the paper, a zero coefficient drops its term:
    the margin is the lhs minus the nonzero-coefficient terms, summed in
    the order alpha, beta, gamma, delta, L.  The worst margin is the first
    NaN in pair order, else the first largest.  The batch is cut into the
    library's row blocks: R^m norms of a block round differently from
    those of a single pair.
    """
    c = validate_coefficients(c)
    tolerance = space.slack(tolerance)
    (*_, f), (*_, g) = maps.sides
    sampled = isinstance(pair_source, SampledPairs)
    if sampled:
        xs, ys = pair_source.draw_pairs(space)
    else:
        idx = np.arange(space.n)
        xs, ys = idx[:, None], idx[None, :]
    if space.is_finite:
        dist, block = (lambda u, v: space.table[u, v]), contraction.BLOCK_PAIRS
    else:
        dist, block = (lambda u, v: np.linalg.norm(u - v, axis=-1)), contraction.EUCLIDEAN_BLOCK_PAIRS
    rows = xs.shape[0]
    pairs = rows * (1 if sampled else space.n)
    step = max(1, block * rows // pairs)
    margins = []
    # terms near the float range overflow to inf or NaN on purpose: the library must rank them alike
    with np.errstate(over="ignore", invalid="ignore"):
        for r0 in range(0, rows, step):
            bx = xs[r0 : r0 + step]
            by = ys[r0 : r0 + step] if sampled else ys
            Sx, Ty = maps.S.apply_many(bx), maps.T.apply_many(by)
            fx = bx if f is None else f.apply_many(bx)
            gy = by if g is None else g.apply_many(by)
            t1, t2, t3, u1, u2 = dist(fx, Sx), dist(gy, Ty), dist(fx, gy), dist(gy, Sx), dist(fx, Ty)
            terms = (t1, t2, t3, u1 + u2, np.minimum(np.minimum(t1, t2), np.minimum(u1, u2)))
            rhs = None
            for coef, t in zip(c.as_tuple(), terms):
                if coef != 0.0:
                    rhs = coef * t if rhs is None else rhs + coef * t
            margin = dist(Sx, Ty) if rhs is None else dist(Sx, Ty) - rhs
            margins.append(np.broadcast_to(margin, (len(bx),) if sampled else (len(bx), space.n)).reshape(-1))
    margins = np.concatenate(margins)
    # argmax returns the first NaN if there is one, else the first largest
    flat = int(np.argmax(margins))
    if sampled:
        pair = (space.canonicalize(xs[flat]), space.canonicalize(ys[flat]))
    else:
        pair = divmod(flat, space.n)
    return ViolationReport(
        condition=maps.arity.name.lower(),
        satisfied=bool(margins[flat] <= tolerance),
        worst_pair=pair,
        worst_margin=float(margins[flat]),
        pairs_checked=pairs,
        mode="sampled" if sampled else "exhaustive",
        tolerance=float(tolerance),
        seed=pair_source.seed if sampled else None,
        box=pair_source.box if sampled else None,
    )


def _report_json(report):
    """Sorted-key JSON of a report: tells -0.0 from 0.0 and keeps a NaN margin."""
    return json.dumps(report.to_dict(), sort_keys=True)



class TestRowBlocks:
    N = 700  # several blocks of BLOCK_PAIRS // N rows

    @pytest.mark.parametrize("coefficients", [(0.2, 0.1, 0.2, 0.05, 0.3), (0.0, 0.0, 0.5, 0.0, 0.0)])
    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_exhaustive_matches_single_batch(self, arity, coefficients):
        n = self.N
        assert contraction.BLOCK_PAIRS // n < n // 3
        rng = np.random.default_rng(arity)
        # few distinct distances make many pairs tie for the worst margin
        space = MetricSpace.finite(rng.integers(0, 5, size=(n, n)))
        S, T, f, g = (TableMapping(rng.integers(0, n, size=n)) for _ in range(4))
        maps = MappingSet(S, T, *[f, g][: arity - 2], arity=arity)
        c = Coefficients(*coefficients)
        rep = check_condition(space, maps, c)
        with patch.object(contraction, "BLOCK_PAIRS", n * n):
            whole = reference_condition_report(space, maps, c)
        assert _report_json(rep) == _report_json(whole)

    def test_tie_between_blocks_reports_the_earlier_pair(self):
        n = self.N
        step = contraction.BLOCK_PAIRS // n
        tab = np.ones((n, n))
        np.fill_diagonal(tab, 0.0)
        # the two worst pairs sit in row 3 (first block) and row 3 + 2*step (third block)
        far = 3 + 2 * step
        tab[3, far] = tab[far, 3] = 2.0
        ident = identity_mapping(n)
        rep = check_condition(MetricSpace.finite(tab), MappingSet(ident, ident), Coefficients(0, 0, 0, 0))
        assert (rep.worst_pair, rep.worst_margin) == ((3, far), 2.0)

    @pytest.mark.parametrize("flavor", ["finite", "euclidean"])
    def test_sampled_report_does_not_depend_on_block_size(self, monkeypatch, flavor):
        rng = np.random.default_rng(5)
        if flavor == "finite":
            space = MetricSpace.finite(rng.integers(0, 5, size=(30, 30)))
            S, T, f, g = (TableMapping(rng.integers(0, 30, size=30)) for _ in range(4))
            src = SampledPairs(1000, seed=2)
        else:
            space = MetricSpace.euclidean(3)
            S, T, f, g = (AffineMapping(rng.normal(size=(3, 3)), rng.normal(size=3)) for _ in range(4))
            src = SampledPairs(1000, seed=2, box=(-2.0, 2.0))
        maps = MappingSet(S, T, f, g, arity=4)
        c = Coefficients(0.2, 0.1, 0.2, 0.05, 0.3)
        whole = check_condition(space, maps, c, src)
        monkeypatch.setattr(contraction, "BLOCK_PAIRS", 7)
        monkeypatch.setattr(contraction, "EUCLIDEAN_BLOCK_PAIRS", 7)
        assert check_condition(space, maps, c, src) == whole

    def test_exhaustive_check_memory_stays_bounded(self):
        n = 2000
        rho = np.random.default_rng(0).uniform(0.5, 8.0, size=n)
        tab = np.maximum.outer(rho, rho)
        np.fill_diagonal(tab, 0.0)
        space = MetricSpace.finite(tab)
        S = TableMapping(np.random.default_rng(1).integers(0, n, size=n))
        tracemalloc.start()
        try:
            rep = check_condition(space, MappingSet(S, S), Coefficients(0, 0, 0.5, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.pairs_checked == n * n
        # one n x n float array is 30.5 MiB; the whole-grid evaluator held several
        assert peak < 32 * 2**20


class TestGatheredGrid:
    @pytest.mark.parametrize("one_row_blocks", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 9, 300])
    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_exhaustive_report_matches_fancy_indexing(self, monkeypatch, arity, n, one_row_blocks):
        rng = np.random.default_rng([arity, n])
        # asymmetric, with few distinct entries so that many pairs tie
        space = MetricSpace.finite(rng.integers(0, 4, size=(n, n)) / 4.0)
        S, T, f, g = (TableMapping(rng.integers(0, n, size=n)) for _ in range(4))
        maps = MappingSet(S, T, *[f, g][: arity - 2], arity=arity)
        c = Coefficients(0.2, 0.1, 0.15, 0.1, 0.4)
        if one_row_blocks:
            monkeypatch.setattr(contraction, "BLOCK_PAIRS", 1)
        assert _report_json(check_condition(space, maps, c)) == _report_json(reference_condition_report(space, maps, c))

    @pytest.mark.parametrize("constant_side", ["x", "y"])
    def test_one_key_side_matches_fancy_indexing(self, constant_side):
        # one side has a single key, so the gathers take the other axis first
        n = 40
        space = MetricSpace.finite(np.random.default_rng(11).integers(0, 4, size=(n, n)) / 4.0)
        ident, zero = identity_mapping(n), TableMapping(np.zeros(n, dtype=int))
        x_map, y_map = (zero, ident) if constant_side == "x" else (ident, zero)
        maps = MappingSet(x_map, y_map, x_map, y_map, arity=4)
        c = Coefficients(0.2, 0.1, 0.15, 0.1, 0.4)
        assert _report_json(check_condition(space, maps, c)) == _report_json(reference_condition_report(space, maps, c))

    def test_one_key_side_gathers_the_smaller_axis_first(self):
        # T = g = 0 leave one y key, so a block holds every x key: gathering
        # whole rows first copied a full table (7.6 MiB here) per cross term
        n = 1000
        rho = np.random.default_rng(0).uniform(0.5, 8.0, size=n)
        rho[0] = 0.0
        tab = np.maximum.outer(rho, rho)
        np.fill_diagonal(tab, 0.0)
        space = MetricSpace.finite(tab)
        ident, zero = identity_mapping(n), TableMapping(np.zeros(n, dtype=int))
        tracemalloc.start()
        try:
            maps = MappingSet(ident, zero, ident, zero, arity=Arity.FOUR)
            rep = check_condition(space, maps, Coefficients(0, 0, 0.5, 0, 0.4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.worst_pair, rep.pairs_checked) == ((530, 0), n * n)
        assert peak < tab.nbytes / 10

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_sampled_finite_report_matches_fancy_indexing(self, arity):
        n = 50
        rng = np.random.default_rng(arity)
        space = MetricSpace.finite(rng.integers(0, 4, size=(n, n)) / 4.0)
        S, T, f, g = (TableMapping(rng.integers(0, n, size=n)) for _ in range(4))
        maps = MappingSet(S, T, *[f, g][: arity - 2], arity=arity)
        c = Coefficients(0.2, 0.1, 0.15, 0.1, 0.4)
        src = SampledPairs(3000, seed=arity)
        assert _report_json(check_condition(space, maps, c, src)) == _report_json(reference_condition_report(space, maps, c, src))


# a nonzero value for each coefficient; any subset of them keeps the weight sum below 1
NONZERO = (0.1, 0.15, 0.2, 0.1, 0.7)
ZERO_PATTERNS = list(itertools.product((False, True), repeat=5))


def _coefficients(pattern):
    return Coefficients(*(v if keep else 0.0 for v, keep in zip(NONZERO, pattern)))


@st.composite
def table_cases(draw):
    """Tables drawn entry by entry, not symmetric, with negative, -0.0 and near-overflow entries."""
    n = draw(st.integers(1, 9))
    entries = draw(st.sampled_from([(0.0, 1.0, 2.0), (-0.0, 0.0, -1.0, 1.0, 2.0), (0.0, 0.5, 1e308, -1e308)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space = MetricSpace.finite(rng.choice(entries, size=(n, n)))
    arity = draw(st.integers(2, 4))
    # few distinct values per map, so that many x share a key
    maps = [TableMapping(rng.integers(0, draw(st.integers(1, n)), size=n)) for _ in range(arity)]
    return space, MappingSet(*maps, arity=arity)


@st.composite
def tied_table_cases(draw):
    """Tables without a negative entry, so the bound-first check runs, drawn from a few values so that many margins tie."""
    n = draw(st.integers(1, 12))
    entries = draw(st.sampled_from([(0.0, 1.0), (0.0, 0.5, 1.0, 2.0), (-0.0, 0.0, 1.0), (0.0, 1.0, 1e308)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space = MetricSpace.finite(rng.choice(entries, size=(n, n)))
    arity = draw(st.integers(2, 4))
    maps = [TableMapping(rng.integers(0, draw(st.integers(1, n)), size=n)) for _ in range(arity)]
    return space, MappingSet(*maps, arity=arity)


@st.composite
def generated_cases(draw):
    recipe = InstanceRecipe(
        seed=draw(st.integers(0, 10**6)),
        n=draw(st.integers(2, 24)),
        arity=draw(st.integers(2, 4)),
        metric_mode=draw(st.sampled_from(MetricMode)),
        mapping_mode=draw(st.sampled_from(MappingMode)),
    )
    inst = generate_instance(recipe)
    return inst.space, inst.maps


@st.composite
def euclidean_cases(draw):
    """Affine maps on R^m, some stretching points past every float's reach."""
    m, arity = draw(st.integers(1, 16)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stretch = draw(st.sampled_from([1.0, 1.0, 1e100, 1e200]))
    maps = [AffineMapping(rng.normal(size=(m, m)) * (stretch if k == 2 else 1.0), rng.normal(size=m)) for k in range(arity)]
    lam = draw(st.sampled_from([1.0, 1e4, 1e8, 1e120]))
    src = SampledPairs(draw(st.integers(1, 40)), draw(st.integers(0, 1000)), (-lam, lam))
    return MetricSpace.euclidean(m), MappingSet(*maps, arity=arity), src


class TestPrunedKeyedCheck:
    """The check's report equals the all-pairs reference byte for byte."""

    @staticmethod
    def _assert_same_reports(space, maps, src, pattern, block):
        c = _coefficients(pattern)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with patch.object(contraction, "BLOCK_PAIRS", block or contraction.BLOCK_PAIRS), patch.object(
                contraction, "EUCLIDEAN_BLOCK_PAIRS", block or contraction.EUCLIDEAN_BLOCK_PAIRS
            ):
                expected = _report_json(reference_condition_report(space, maps, c, src))
                assert _report_json(check_condition(space, maps, c, src)) == expected

    @settings(max_examples=400, deadline=None)
    @given(
        case=st.one_of(table_cases(), tied_table_cases(), generated_cases()),
        sampled=st.booleans(),
        seed=st.integers(0, 1000),
        pattern=st.sampled_from(ZERO_PATTERNS),
        block=st.sampled_from([None, 1, 3, 7]),
    )
    def test_finite_reports_equal_the_reference(self, case, sampled, seed, pattern, block):
        space, maps = case
        src = SampledPairs(2 * space.n**2, seed) if sampled else EXHAUSTIVE
        self._assert_same_reports(space, maps, src, pattern, block)

    @settings(max_examples=200, deadline=None)
    @given(case=euclidean_cases(), pattern=st.sampled_from(ZERO_PATTERNS), block=st.sampled_from([None, 1, 7]))
    def test_euclidean_reports_equal_the_reference(self, case, pattern, block):
        space, maps, src = case
        self._assert_same_reports(space, maps, src, pattern, block)

    @pytest.mark.parametrize("lam", [1.0, 1e4, 1e8])
    def test_euclidean_gamma_only_check_at_every_scale(self, lam):
        rng = np.random.default_rng(3)
        S, T = (AffineMapping(0.5 * rng.normal(size=(3, 3)), lam * rng.normal(size=3)) for _ in range(2))
        maps, src = MappingSet(S, T), SampledPairs(5000, 1, (-lam, lam))
        self._assert_same_reports(MetricSpace.euclidean(3), maps, src, (False, False, True, False, False), None)

    @pytest.mark.parametrize("m", [8, 16, 127, 129, 257])
    def test_wide_euclidean_reports_equal_the_reference(self, m):
        # norms of 8 or more coordinates sum in numpy's 8 lanes, of more than 128 in halves too
        rng = np.random.default_rng(m)
        maps = MappingSet(*(AffineMapping(rng.normal(size=(m, m)) / np.sqrt(m), rng.normal(size=m)) for _ in range(4)), arity=4)
        src = SampledPairs(3000, m, (-10.0, 10.0))
        for pattern in [(True,) * 5, (False, False, True, False, False)]:
            self._assert_same_reports(MetricSpace.euclidean(m), maps, src, pattern, None)

    @pytest.mark.parametrize("src", [EXHAUSTIVE, SampledPairs(5, 0)], ids=["exhaustive", "sampled"])
    def test_negative_zero_table_reports_the_lhs(self, src):
        # without any term the margin is the lhs itself, -0.0
        space, S = MetricSpace.finite([[-0.0]]), TableMapping([0])
        rep = check_condition(space, MappingSet(S, S), Coefficients(0, 0, 0, 0), src)
        assert repr(rep.worst_margin) == "-0.0"

    def test_overflowing_companion_of_zero_coefficients_drops_out(self):
        # f(x) = 1e200 x would overflow, but every coefficient is 0: f is never applied,
        # and the margin is the finite lhs, never 0 * inf
        space, half = MetricSpace.euclidean(1), AffineMapping([[0.5]], [0.0])
        maps = MappingSet(half, half, AffineMapping([[1e200]], [0.0]), arity=3)
        src = SampledPairs(100, 1, (-1e120, 1e120))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = check_condition(space, maps, Coefficients(0, 0, 0, 0), src)
        xs, ys = src.draw_pairs(space)
        k = int(np.argmax(np.abs(0.5 * xs - 0.5 * ys)))
        assert rep.worst_pair == ((float(xs[k, 0]),), (float(ys[k, 0]),))
        assert rep.worst_margin == abs(0.5 * xs[k, 0] - 0.5 * ys[k, 0])

    def test_overflow_in_a_dropped_term_does_not_hide_a_violation(self):
        # rows 0, 1 and 2 have distinct keys and every y the same; row 1's
        # d(g(y), S(x)) + d(f(x), T(y)) overflows, but delta is 0, so row 1's
        # margin is d(Sx, Ty) - gamma * d(fx, gy) = 1e308 - 0.5e308 in every block layout
        big = 1e308
        space = MetricSpace.finite([[0.5, big, 0.5], [big, 0.0, 1.0], [2.0, 1.0, 0.0]])
        zero = TableMapping([0, 0, 0])
        maps = MappingSet(TableMapping([0, 1, 2]), zero, TableMapping([0, 1, 0]), zero, arity=4)
        c = Coefficients(0, 0, 0.5, 0)
        for block in (1, 3, 9, None):
            with warnings.catch_warnings(), patch.object(contraction, "BLOCK_PAIRS", block or contraction.BLOCK_PAIRS):
                warnings.simplefilter("error")
                rep = check_condition(space, maps, c)
                assert _report_json(rep) == _report_json(reference_condition_report(space, maps, c))
            assert (rep.worst_pair, rep.worst_margin) == ((1, 0), 5e307)

    @pytest.mark.parametrize("block", [1, 3, 7, None])
    def test_first_nan_margin_is_the_worst_in_every_block_layout(self, block):
        # S = T = identity, (0, 0, 0, 1/4, 2): at (1, 2) delta * (1e308 + 1e308) is inf and
        # L * min{.., d(1, 1) = -1e308, ..} is -inf, so the margin is NaN; row 0 already reads +inf at (0, 1)
        big = 1e308
        space, ident = MetricSpace.finite([[0, 1, 1], [1, -big, big], [1, big, 0]]), identity_mapping(3)
        c = Coefficients(0, 0, 0, 0.25, 2.0)
        with warnings.catch_warnings(), patch.object(contraction, "BLOCK_PAIRS", block or contraction.BLOCK_PAIRS):
            warnings.simplefilter("error")
            rep = check_condition(space, MappingSet(ident, ident), c)
        assert rep.worst_pair == (1, 2)
        assert np.isnan(rep.worst_margin) and not rep.satisfied

    @pytest.mark.parametrize("block", [1, 3, 7, None])
    def test_first_nan_margin_is_the_worst_on_euclidean_samples(self, block):
        # f(x) = 1e200 x overflows past x = 1.8e108; where f(x) and f(y) both read inf,
        # d(f(x), f(y)) is NaN and so is the margin at gamma = 1/2
        space, half = MetricSpace.euclidean(1), AffineMapping([[0.5]], [0.0])
        maps = MappingSet(half, half, AffineMapping([[1e200]], [0.0]), arity=3)
        src = SampledPairs(40, 0, (-1e108, 2.5e108))
        with warnings.catch_warnings(), patch.object(contraction, "EUCLIDEAN_BLOCK_PAIRS", block or contraction.EUCLIDEAN_BLOCK_PAIRS):
            warnings.simplefilter("error")
            rep = check_condition(space, maps, Coefficients(0, 0, 0.5, 0), src)
        xs, ys = src.draw_pairs(space)
        with np.errstate(over="ignore"):
            k = int(np.flatnonzero(np.isinf(1e200 * xs[:, 0]) & np.isinf(1e200 * ys[:, 0]))[0])
        assert rep.worst_pair == ((float(xs[k, 0]),), (float(ys[k, 0]),))
        assert np.isnan(rep.worst_margin)

    def test_keyed_grid_counts_every_pair(self):
        # f sends everything to 0 and S is constant: one key per side, n^2 pairs covered
        n = 40
        space = MetricSpace.finite(np.ones((n, n)) - np.eye(n))
        zero = TableMapping(np.zeros(n, dtype=int))
        rep = check_condition(space, MappingSet(zero, zero, zero, arity=Arity.THREE), Coefficients(0, 0, 0.5, 0))
        assert (rep.pairs_checked, rep.worst_pair) == (n * n, (0, 0))


def _anchor_four(n, seed=0):
    """An arity-4 anchor instance: d = max(rho x, rho y) around point 0 (rho 0), a non-injective f = g,
    and S, T descending within f(X) to points of at most half the rho; (0, 0, 1/2, 0, 1/2) holds."""
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.5, 8.0, n)
    rho[0] = 0.0
    table = np.maximum.outer(rho, rho)
    np.fill_diagonal(table, 0.0)
    f = rng.integers(0, n, n)
    f[0], f[2] = 0, f[1]
    targets = np.unique(f)
    order = targets[np.argsort(rho[targets], kind="stable")]
    at = np.searchsorted(rho[order], rho / 2.0, side="right") - 1
    S, T = TableMapping(order[at][f]), TableMapping(order[np.maximum(at - 1, 0)][f])
    return table, MappingSet(S, T, TableMapping(f), TableMapping(f), arity=4), Coefficients(0, 0, 0.5, 0, 0.5)


class TestBoundFirst:
    """The delta and L terms are computed only where the margin without them reaches the running worst."""

    @staticmethod
    def _tail_pairs(monkeypatch):
        """Count the pairs of every evaluator call that computes the delta or L terms."""
        evaluate, tally = contraction._term_arrays, [0]

        def spy(space, maps, xs, ys, wanted=contraction.ALL_TERMS):
            if wanted[3] or wanted[4]:
                tally[0] += math.prod(np.broadcast_shapes(xs.shape, ys.shape))
            return evaluate(space, maps, xs, ys, wanted)

        monkeypatch.setattr(contraction, "_term_arrays", spy)
        return tally

    @staticmethod
    def _grid_pairs(space, maps):
        xs, ys = contraction._pair_batch(space, EXHAUSTIVE, maps)
        return xs.size * ys.size

    def test_tail_terms_touch_few_pairs_on_the_anchor(self, monkeypatch):
        table, maps, c = _anchor_four(2500)
        space = MetricSpace.finite(table)
        tally = self._tail_pairs(monkeypatch)
        rep = check_condition(space, maps, c)
        # the seed's 2500 diagonal pairs, then about 0.06% of the keyed pairs
        assert tally[0] <= 0.005 * self._grid_pairs(space, maps)
        assert (rep.worst_pair, rep.worst_margin, rep.pairs_checked) == ((0, 0), 0.0, 2500**2)
        # the same report with the bound off
        object.__setattr__(space, "nonnegative", False)
        assert _report_json(check_condition(space, maps, c)) == _report_json(rep)

    def test_negative_entry_turns_the_bound_off(self, monkeypatch):
        table, maps, c = _anchor_four(600)
        table[5, 7] = -1.0
        space = MetricSpace.finite(table)
        tally = self._tail_pairs(monkeypatch)
        rep = check_condition(space, maps, c)
        assert tally[0] == self._grid_pairs(space, maps)
        assert _report_json(rep) == _report_json(reference_condition_report(space, maps, c))

    @pytest.mark.parametrize("block", [1, 3, 7, None])
    def test_overflowing_tail_term_on_a_nonnegative_table(self, block):
        # d(1, 2) + d(2, 1) = 2e308 overflows: where delta multiplies it the margin is -inf,
        # below every bound, and the other pairs decide the worst in every block layout
        big = 1e308
        space, ident = MetricSpace.finite([[0, 1, 1], [1, 0, big], [1, big, 0]]), identity_mapping(3)
        c = Coefficients(0, 0, 0.5, 0.2, 0.5)
        with warnings.catch_warnings(), patch.object(contraction, "BLOCK_PAIRS", block or contraction.BLOCK_PAIRS):
            warnings.simplefilter("error")
            rep = check_condition(space, MappingSet(ident, ident), c)
            assert _report_json(rep) == _report_json(reference_condition_report(space, MappingSet(ident, ident), c))

    def test_consecutive_index_runs_read_the_table_as_a_view(self):
        # the arity-2 grid's rows and columns are runs: d(x, y) is a view of the table
        space = MetricSpace.finite(np.arange(36.0).reshape(6, 6))
        ident, idx = identity_mapping(6), np.arange(6)
        gamma_only = (False, False, True, False, False)
        lhs, _, _, t3, _, _ = contraction._term_arrays(space, MappingSet(ident, ident), idx[1:4, None], idx[None, 2:], gamma_only)
        for t in (lhs, t3):
            assert np.shares_memory(t, space.table) and np.array_equal(t, space.table[1:4, 2:])
        # a run on one side only slices that axis; the other is gathered
        rows = TableMapping([4, 0, 5, 1, 2, 3])
        lhs = contraction._term_arrays(space, MappingSet(rows, ident), idx[:3, None], idx[None, 2:], gamma_only)[0]
        assert np.array_equal(lhs, space.table[[4, 0, 5]][:, 2:])
        lhs = contraction._term_arrays(space, MappingSet(ident, rows), idx[2:5, None], idx[None, :3], gamma_only)[0]
        assert np.array_equal(lhs, space.table[2:5][:, [4, 0, 5]])

    def test_grid_index_sets_take_no_run_test(self, monkeypatch):
        # the grid's own index sets are runs found from their ends; only the mapped ones, here never runs, are tested
        n = 300
        rng = np.random.default_rng(4)
        space = MetricSpace.finite(metric_closure_repair(rng.uniform(0.1, 8.0, size=(n, n))))
        maps = MappingSet(TableMapping(rng.integers(0, n, size=n)), TableMapping(rng.integers(0, n, size=n)))
        run, found = contraction._run, []
        monkeypatch.setattr(contraction, "_run", lambda idx: found.append(run(idx)) or found[-1])
        c = Coefficients(0.1, 0.1, 0.2, 0.1, 0.2)
        rep = check_condition(space, maps, c)
        assert found and all(r is None for r in found)
        assert _report_json(rep) == _report_json(reference_condition_report(space, maps, c))

    @pytest.mark.parametrize(
        "idx, run",
        [([3], slice(3, 4)), ([0, 1, 2], slice(0, 3)), ([2, 1, 0], None), ([0, 2, 1, 3], None), ([0, 0], None), ([], None)],
    )
    def test_run_detection(self, idx, run):
        assert contraction._run(np.array(idx, dtype=np.int64)) == run


# variants of a mirrored case: symmetric with S == T, alpha == beta and one companion, or one of them broken
MIRROR_VARIANTS = ("mirrored", "mirrored", "ulp", "lower", "alpha_beta", "maps", "companion")


@st.composite
def mirrored_cases(draw):
    """(space, maps, coefficients, variant): a symmetric table read by S == T through one companion, alpha == beta.

    The tables tie often, and may hold -0.0 (facing 0.0 across the
    diagonal), entries near 1e308 and, with -1e308, margins inf - inf =
    NaN.  ``variant`` "ulp" moves one entry one ulp off its mirror,
    "lower" raises one entry below the diagonal to 3, "alpha_beta" makes
    beta differ from alpha, "maps" T from S and "companion" (four
    mappings) g from f: the check must then take the full grid.
    """
    variant = draw(st.sampled_from(MIRROR_VARIANTS))
    n = draw(st.integers(1 if variant == "mirrored" else 2, 12))
    entries = draw(st.sampled_from([(0.0, 1.0), (0.0, 0.5, 1.0, 2.0), (-0.0, 0.0, 1.0), (0.0, 1.0, 1e308), (0.0, 1.0, 1e308, -1e308)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.choice(entries, size=(n, n))
    table = np.where(np.triu(np.ones((n, n), dtype=bool)), raw, raw.T)
    # a zero may face a zero of the other sign across the diagonal, which symmetry equates
    table[np.tril(table == 0.0, -1) & (rng.random((n, n)) < 0.5)] *= -1.0
    if variant == "ulp":
        i, j = rng.choice(n, size=2, replace=False)
        table[i, j] = np.nextafter(table[i, j], np.inf)
    elif variant == "lower":
        i, j = sorted(rng.choice(n, size=2, replace=False), reverse=True)
        table[i, j] = 3.0
    arity = 4 if variant == "companion" else draw(st.integers(2, 4))
    # few distinct values per map, so that many x share a key
    S, f = (TableMapping(rng.integers(0, draw(st.integers(1, n)), size=n)) for _ in range(2))
    # the same mapping object or an equal one
    T = S if draw(st.booleans()) else TableMapping(S.table.copy())
    g = f if draw(st.booleans()) else TableMapping(f.table.copy())
    if variant == "maps":
        T = TableMapping((S.table + 1) % n)
    elif variant == "companion":
        g = TableMapping((f.table + 1) % n)
    maps = MappingSet(S, T, *[f, g][: arity - 2], arity=arity)
    alpha = draw(st.sampled_from([0.0, 0.1]))
    beta = (0.15 - alpha) if variant == "alpha_beta" else alpha
    c = Coefficients(alpha, beta, draw(st.sampled_from([0.0, 0.2])), draw(st.sampled_from([0.0, 0.1])), draw(st.sampled_from([0.0, 0.7, 2.0])))
    return MetricSpace.finite(table), maps, c, variant


class TestOneTriangle:
    """A mirrored exhaustive grid is evaluated on and above its diagonal only, with the full grid's report."""

    @settings(max_examples=400, deadline=None)
    @given(case=mirrored_cases(), block=st.sampled_from([None, 1, 3, 7]), seeded=st.booleans())
    def test_reports_equal_the_reference(self, case, block, seeded):
        # seeded: every grid takes the diagonal seed (see TestSeededBound)
        space, maps, c, variant = case
        assert contraction._mirrored(space, maps, c.as_tuple(), EXHAUSTIVE) == (variant == "mirrored")
        with patch.object(contraction, "BLOCK_PAIRS", block or contraction.BLOCK_PAIRS), patch.object(
            contraction, "SEED_MIN_PAIRS", 0 if seeded else contraction.SEED_MIN_PAIRS
        ):
            rep = check_condition(space, maps, c)
            ref = reference_condition_report(space, maps, c)
        assert _report_json(rep) == _report_json(ref)
        assert rep.worst_pair == ref.worst_pair and repr(rep.worst_margin) == repr(ref.worst_margin)

    def test_sampled_sources_keep_every_pair(self):
        ident = identity_mapping(4)
        space = MetricSpace.finite(np.ones((4, 4)) - np.eye(4))
        assert not contraction._mirrored(space, MappingSet(ident, ident), (0.0,) * 5, SampledPairs(8, 0))
        assert contraction._mirrored(space, MappingSet(ident, ident), (0.0,) * 5, EXHAUSTIVE)

    @staticmethod
    def _evaluated_pairs(monkeypatch):
        """Count the pairs of every evaluator call."""
        evaluate, tally = contraction._term_arrays, [0]

        def spy(space, maps, xs, ys, wanted=contraction.ALL_TERMS):
            tally[0] += math.prod(np.broadcast_shapes(xs.shape, ys.shape))
            return evaluate(space, maps, xs, ys, wanted)

        monkeypatch.setattr(contraction, "_term_arrays", spy)
        return tally

    def test_arity_two_anchor_evaluates_about_half_the_pairs(self, monkeypatch):
        # S halves rho toward the anchor, point 0: an ultrametric table, read by S on both sides
        n = 2500
        rho = np.random.default_rng(0).uniform(0.5, 8.0, n)
        rho[0] = 0.0
        table = np.maximum.outer(rho, rho)
        np.fill_diagonal(table, 0.0)
        order = np.argsort(rho)
        S = TableMapping(order[np.searchsorted(rho[order], rho / 2.0, side="right") - 1])
        space, maps, c = MetricSpace.finite(table), MappingSet(S, S), Coefficients(0, 0, 0.5, 0)
        tally = self._evaluated_pairs(monkeypatch)
        rep = check_condition(space, maps, c)
        assert tally[0] < 0.55 * n * n
        assert (rep.worst_pair, rep.worst_margin, rep.pairs_checked) == ((0, 0), 0.0, n * n)
        # the same report from the full grid
        tally[0] = 0
        object.__setattr__(space, "symmetric", False)
        assert _report_json(check_condition(space, maps, c)) == _report_json(rep)
        assert tally[0] == n * n


@st.composite
def seeded_cases(draw):
    """(space, maps, coefficients) of a bounded check: a table without negative entries, delta or L > 0.

    "random": a generated instance with random maps, whose condition mostly
    fails, so the seed lies below the worst.  "identity": S = T = the
    identity on a repaired uniform table: every diagonal margin is 0 and
    every other one positive.  "keyed": maps of few values on a table of
    few values, arities 2-4, whose margins tie often.
    """
    kind = draw(st.sampled_from(["random", "identity", "keyed"]))
    if kind == "random":
        recipe = InstanceRecipe(
            seed=draw(st.integers(0, 10**6)),
            n=draw(st.integers(2, 24)),
            arity=draw(st.integers(2, 4)),
            metric_mode=draw(st.sampled_from(MetricMode)),
            mapping_mode=MappingMode.RANDOM,
        )
        inst = generate_instance(recipe)
        space, maps = inst.space, inst.maps
    elif kind == "identity":
        n = draw(st.integers(1, 12))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        space = MetricSpace.finite(metric_closure_repair(rng.uniform(0.1, 8.0, size=(n, n))))
        maps = MappingSet(identity_mapping(n), identity_mapping(n))
    else:
        space, maps = draw(tied_table_cases())
    return space, maps, _coefficients(draw(st.sampled_from([p for p in ZERO_PATTERNS if p[3] or p[4]])))


class TestSeededBound:
    """An exhaustive bounded check seeds its bar with the largest diagonal margin, with the full grid's report."""

    @staticmethod
    def _calls(monkeypatch):
        """Record (xs shape, ys shape, wanted) of every evaluator call."""
        evaluate, calls = contraction._term_arrays, []

        def spy(space, maps, xs, ys, wanted=contraction.ALL_TERMS):
            calls.append((xs.shape, ys.shape, tuple(wanted)))
            return evaluate(space, maps, xs, ys, wanted)

        monkeypatch.setattr(contraction, "_term_arrays", spy)
        return calls

    @staticmethod
    def _assert_reference(space, maps, c, src=EXHAUSTIVE, block=None):
        """The check, seeded on any grid, against the all-pairs reference, with ``block`` pairs per block."""
        with warnings.catch_warnings(), patch.object(contraction, "SEED_MIN_PAIRS", 0), patch.object(
            contraction, "BLOCK_PAIRS", block or contraction.BLOCK_PAIRS
        ):
            warnings.simplefilter("error")
            rep = check_condition(space, maps, c, src)
            assert _report_json(rep) == _report_json(reference_condition_report(space, maps, c, src))
        return rep

    @settings(max_examples=300, deadline=None)
    @given(case=seeded_cases(), sampled=st.booleans(), seed=st.integers(0, 1000), block=st.sampled_from([None, 1, 3, 7]))
    def test_reports_equal_the_reference(self, case, sampled, seed, block):
        space, maps, c = case
        self._assert_reference(space, maps, c, SampledPairs(2 * space.n**2, seed) if sampled else EXHAUSTIVE, block)

    @pytest.mark.parametrize("arity", [3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_keyed_grid_worst_off_the_diagonal(self, arity, seed):
        # S and T send the keys (S(x), f(x)) apart: d(S(x), T(y)) peaks at a pair of distinct keys
        rng = np.random.default_rng(seed)
        n = 12
        raw = rng.integers(1, 6, size=(n, n)).astype(float)
        space = MetricSpace.finite(metric_closure_repair(raw))
        f = rng.integers(0, n // 2, size=n)
        maps = MappingSet(*map(TableMapping, (rng.integers(0, n, size=n), rng.integers(0, n, size=n), f, f[::-1].copy())[:arity]), arity=arity)
        c = Coefficients(0.05, 0.05, 0.1, 0.1, 0.3)
        for block in (None, 1, 5):
            rep = self._assert_reference(space, maps, c, block=block)
            x, y = rep.worst_pair
            assert (maps.S(x), maps.f(x)) != (maps.T(y), (maps.g or maps.f)(y))

    def test_identity_seed_lies_below_every_other_margin(self, monkeypatch):
        # off the diagonal the margin is d - 0.3 d - 0.1 * 2d - 0.2 * 0 = 0.5 and its bound P = 0.7, on it both are 0
        n = 40
        space = MetricSpace.finite(np.ones((n, n)) - np.eye(n))
        maps, c = MappingSet(identity_mapping(n), identity_mapping(n)), Coefficients(0, 0, 0.3, 0.1, 0.2)
        calls = self._calls(monkeypatch)
        rep = self._assert_reference(space, maps, c, block=7 * n)
        assert (rep.worst_pair, rep.worst_margin) == ((0, 1), 0.5)
        # the seed 0, then the worst 0.5, leaves most pairs of each block near: each takes the bound, then its whole
        seed, *blocks = calls
        assert seed == ((n,), (n,), (False, False, True, True, True))
        heads, wholes = blocks[::2], blocks[1::2]
        assert len(heads) == len(wholes) > 1
        for head, whole in zip(heads, wholes):
            assert head[:2] == whole[:2] and len(head[0]) == 2
            assert (head[2], whole[2]) == ((False, False, True, False, False), (False, False, True, True, True))

    def test_overflowing_diagonal_seeds_minus_infinity(self, monkeypatch):
        # every diagonal pair reads u1 + u2 = 1e308 + 1e308 = inf, so its margin is -inf, and so is the seed;
        # a pair with y = S(x) reads u1 = 0 and a finite margin.  No margin of a bounded check is NaN:
        # the lhs is a finite entry and each product lies in [0, inf]
        big, n = 1e308, 3
        space = MetricSpace.finite(np.full((n, n), big) - np.diag(np.full(n, big)))
        S, T = TableMapping((np.arange(n) + 1) % n), TableMapping((np.arange(n) + 2) % n)
        c = Coefficients(0, 0, 0.2, 0.1, 0.5)
        with np.errstate(over="ignore"):
            diagonal = contraction._block_margin(space, MappingSet(S, T), np.arange(n), np.arange(n), c.as_tuple(), 1.0, (False, False, True, True, True))
        assert (diagonal == -np.inf).all()
        for block in (None, 1, 2):
            rep = self._assert_reference(space, MappingSet(S, T), c, block=block)
            assert math.isfinite(rep.worst_margin)

    def test_sampled_sources_take_no_seed(self, monkeypatch):
        n = 30
        space = MetricSpace.finite(metric_closure_repair(np.random.default_rng(2).uniform(0.1, 8.0, size=(n, n))))
        maps, c, src = MappingSet(identity_mapping(n), identity_mapping(n)), Coefficients(0, 0, 0.3, 0.1, 0.2), SampledPairs(50, 4)
        calls = self._calls(monkeypatch)
        self._assert_reference(space, maps, c, src, block=20)
        # today's rule: the first block whole, then the bound on the running worst
        assert calls[0] == ((20,), (20,), (False, False, True, True, True))
        assert calls[1][2] == (False, False, True, False, False)

    def test_anchor_gathers_the_tail_at_few_keyed_pairs(self, monkeypatch):
        # the n=300 arity-4 anchor is one block: without the seed it took the delta and L terms at all its keyed pairs
        table, maps, c = _anchor_four(300)
        space = MetricSpace.finite(table)
        xs, ys = contraction._pair_batch(space, EXHAUSTIVE, maps)
        assert xs.size * ys.size >= contraction.SEED_MIN_PAIRS
        calls = self._calls(monkeypatch)
        rep = check_condition(space, maps, c)
        assert (rep.worst_pair, rep.worst_margin) == ((0, 0), 0.0)
        seed, head, gather = calls
        assert seed == ((300,), (300,), (False, False, True, False, True))
        assert head == ((xs.size, 1), (1, ys.size), (False, False, True, False, False))
        assert gather[2] == seed[2] and len(gather[0]) == 1 and gather[0][0] <= 0.01 * xs.size * ys.size


# entries a sum of columns may meet: signed zeros, subnormals, infinities and NaN
SPECIAL_ENTRIES = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, np.finfo(float).tiny])


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 300),
    rows=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    decades=st.sampled_from([16, 600]),
    special=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    negative_zero_row=st.booleans(),
)
def test_column_sum_is_numpys_reduction_bit_for_bit(m, rows, seed, decades, special, negative_zero_row):
    rng = np.random.default_rng(seed)
    d = rng.uniform(-1.0, 1.0, size=(rows, m)) * 10.0 ** rng.integers(-decades // 2, decades // 2, size=(rows, m))
    mask = rng.random((rows, m)) < special
    d[mask] = rng.choice(SPECIAL_ENTRIES, size=int(mask.sum()))
    if negative_zero_row:
        d[0] = -0.0
    with np.errstate(all="ignore"):
        expected = np.add.reduce(d, axis=-1)
        got = contraction._column_sum([d[:, j].copy() for j in range(m)])
    assert got.shape == expected.shape
    assert ((got.view(np.int64) == expected.view(np.int64)) | (np.isnan(got) & np.isnan(expected))).all()


class TestCheckValidatesMappings:
    @pytest.mark.parametrize(
        "table, message",
        [
            ([0, 1, 2, 0], "mapping S: mapping table has 4 entries for a universe of 3 points"),
            ([0, 1], "mapping S: mapping table has 2 entries for a universe of 3 points"),
            ([0, 1, 7], "mapping S: mapping table references indices outside the universe"),
        ],
        ids=["too_long", "too_short", "out_of_range"],
    )
    def test_bad_table_is_a_domain_error(self, table, message):
        space = MetricSpace.finite(np.ones((3, 3)) - np.eye(3))
        S = TableMapping(table)
        with pytest.raises(DomainError, match=message):
            check_condition(space, MappingSet(S, S), Coefficients(0, 0, 0.5, 0))

    def test_table_mapping_on_euclidean_space_is_a_domain_error(self):
        S = TableMapping([0])
        with pytest.raises(DomainError, match="mapping S: index-table mappings apply to finite spaces only"):
            check_condition(MetricSpace.euclidean(2), MappingSet(S, S), Coefficients(0, 0, 0.5, 0), SampledPairs(4, 0, (-1, 1)))

    @pytest.mark.parametrize("label", ["f", "g"])
    def test_bad_companion_is_named(self, halving_space, halving_map, label):
        good, bad = halving_map, TableMapping([0, 1, 2, 9])
        f, g = (bad, good) if label == "f" else (good, bad)
        with pytest.raises(DomainError, match=f"mapping {label}: "):
            check_condition(halving_space, MappingSet(good, good, f, g, arity=4), Coefficients(0, 0, 0.5, 0))


@st.composite
def inclusion_cases(draw):
    """Table mapping sets of arity 2-4 on n = 1..10 points: constant maps, permutations and maps of few values.

    S and T may be drawn inside their companion's image, and g may be f
    relabelled, so that f(X) = g(X); otherwise the images fall as they may.
    """
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def table():
        kind = draw(st.sampled_from(["constant", "permutation", "few"]))
        if kind == "constant":
            return np.full(n, rng.integers(0, n))
        return rng.permutation(n) if kind == "permutation" else rng.integers(0, draw(st.integers(1, n)), size=n)

    arity = draw(st.integers(2, 4))
    S, T, f, g = (table() for _ in range(4))
    if arity == 4 and draw(st.booleans()):
        g = f[rng.permutation(n)]
    if arity > 2 and draw(st.booleans()):
        S = f[rng.integers(0, n, size=n)]
        T = (g if arity == 4 else f)[rng.integers(0, n, size=n)]
    space = MetricSpace.finite(np.ones((n, n)) - np.eye(n))
    return space, MappingSet(*map(TableMapping, (S, T, f, g)[:arity]), arity=arity)


def reference_inclusions(maps):
    """(description, holds, witness) of each finite inclusion check, by ``np.isin`` and ``np.setxor1d``."""

    def check(description, outside):
        return description, not outside.size, int(outside[0]) if outside.size else None

    checks = [
        check(f"{label}(X) within {tag}(X)", np.flatnonzero(~np.isin(m.table, comp.table)))
        for label, m, tag, comp in maps.sides
        if comp is not None
    ]
    if maps.arity == Arity.FOUR:
        checks.append(check("f(X) equals g(X)", np.setxor1d(maps.f.table, maps.g.table)))
    return checks


class TestRangeInclusions:
    @settings(max_examples=300, deadline=None)
    @given(case=inclusion_cases())
    def test_finite_checks_equal_the_set_reference(self, case):
        space, maps = case
        rep = check_range_inclusions(space, maps)
        assert [(c.description, c.holds, c.witness) for c in rep.checks] == reference_inclusions(maps)
        assert all(type(c.witness) in (int, type(None)) for c in rep.checks)

    def test_two_mappings_have_nothing_to_check(self, halving_space, halving_map):
        rep = check_range_inclusions(halving_space, MappingSet(S=halving_map, T=halving_map, arity=Arity.TWO))
        assert rep.holds
        assert rep.checks == ()

    def test_three_mapping_pass(self, halving_space):
        S = TableMapping([1, 1, 1, 1])
        f = TableMapping([0, 1, 0, 1])
        ms = MappingSet(S=S, T=S, f=f, arity=Arity.THREE)
        rep = check_range_inclusions(halving_space, ms)
        assert rep.holds
        assert [c.description for c in rep.checks] == ["S(X) within f(X)", "T(X) within f(X)"]

    def test_three_mapping_failure_names_first_escapee(self, halving_space):
        S = TableMapping([2, 2, 2, 2])
        f = TableMapping([0, 1, 0, 1])
        rep = check_range_inclusions(halving_space, MappingSet(S=S, T=S, f=f, arity=Arity.THREE))
        assert not rep.holds
        bad = rep.checks[0]
        assert bad.description == "S(X) within f(X)"
        assert bad.witness == 0

    def test_four_mapping_image_equality(self, halving_space):
        S = TableMapping([0, 0, 0, 0])
        f = TableMapping([0, 1, 0, 1])
        g_match = TableMapping([1, 0, 1, 0])
        g_bigger = TableMapping([0, 1, 2, 1])
        ok = check_range_inclusions(
            halving_space, MappingSet(S=S, T=S, f=f, g=g_match, arity=Arity.FOUR)
        )
        assert ok.holds
        bad = check_range_inclusions(
            halving_space, MappingSet(S=S, T=S, f=f, g=g_bigger, arity=Arity.FOUR)
        )
        assert not bad.holds
        eq_check = [c for c in bad.checks if c.description == "f(X) equals g(X)"][0]
        assert not eq_check.holds
        assert eq_check.witness == 2

    def test_euclidean_inclusions_need_no_sampler(self):
        space = MetricSpace.euclidean(1)
        half = AffineMapping([[0.5]], [0.0])
        double = AffineMapping([[2.0]], [0.0])
        ms = MappingSet(S=half, T=half, f=double, arity=Arity.THREE)
        rep = check_range_inclusions(space, ms)
        assert rep.holds
        assert rep.mode == "exact"

    def test_euclidean_rank_deficient_target_fails(self):
        space = MetricSpace.euclidean(2)
        S = AffineMapping(0.5 * np.eye(2), np.zeros(2))
        squash = AffineMapping([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0])
        ms = MappingSet(S=S, T=S, f=squash, arity=Arity.THREE)
        rep = check_range_inclusions(space, ms)
        assert not rep.holds
        # the offsets agree, so the witness is the unit vector of the escaping column
        assert rep.checks[0].witness == (0.0, 1.0)


class TestSynthesis:
    def test_halving_instance_recovers_minimal_tuple(self, halving_space, halving_map):
        ms = MappingSet(S=halving_map, T=halving_map, arity=Arity.TWO)
        c = synthesize_coefficients(halving_space, ms)
        assert c.delta == pytest.approx(1.0 / 3.0)
        assert c.alpha == c.beta == c.gamma == c.L == 0.0
        assert check_condition(halving_space, MappingSet(halving_map, halving_map), c).satisfied

    def test_infeasible_halving_variant_names_binding_pair(self):
        # labels 0, 1, 2, 4: the pair (1, 2) forces the weight sum to 1
        labels = [0, 1, 2, 4]
        tab = np.abs(np.subtract.outer(labels, labels)).astype(float)
        space = MetricSpace.finite(tab)
        step = TableMapping([0, 0, 1, 2])
        ms = MappingSet(S=step, T=step, arity=Arity.TWO)
        with pytest.raises(Infeasible) as exc_info:
            synthesize_coefficients(space, ms)
        assert exc_info.value.binding_pair == (1, 2)

    def test_sampled_euclidean_synthesis_verifies_off_sample(self):
        space = MetricSpace.euclidean(1)
        S = AffineMapping([[1.0 / 3.0]], [0.0])
        T = AffineMapping([[0.25]], [0.0])
        ms = MappingSet(S=S, T=T, arity=Arity.TWO)
        c = synthesize_coefficients(space, ms, SampledPairs(2000, seed=8, box=(-10, 10)))
        fresh = SampledPairs(5000, seed=99, box=(-10, 10))
        assert check_condition(space, ms, c, fresh, tolerance=1e-9).satisfied

    def test_expanding_map_yields_on_sample_certificate_only(self):
        # a sampled source almost never hits a zero min-term, so a huge L can
        # cover an expanding map on-sample; a denser fresh source exposes it
        space = MetricSpace.euclidean(1)
        double = AffineMapping([[2.0]], [0.0])
        ms = MappingSet(S=double, T=double, arity=Arity.TWO)
        src = SampledPairs(500, seed=4, box=(-2, 2))
        c = synthesize_coefficients(space, ms, src)
        assert c.L > 100.0
        assert check_condition(space, ms, c, src).satisfied
        fresh = check_condition(space, ms, c, SampledPairs(50000, seed=77, box=(-2, 2)))
        assert not fresh.satisfied

    @staticmethod
    def _failing_checks(failures):
        """A condition evaluation whose first ``failures`` reports read unsatisfied, and the tuples it was asked about."""
        asked = []
        evaluate = contraction._evaluate_condition

        def check(space, maps, c, *args):
            asked.append(c)
            report = evaluate(space, maps, c, *args)
            return dataclasses.replace(report, satisfied=False) if len(asked) <= failures else report

        return check, asked

    @staticmethod
    def _milp_widths(monkeypatch):
        """The column count of every ``milp`` solve from here on: 6 for the elastic one, 5 for the min-sum one."""
        milp, widths = scipy.optimize.milp, []
        monkeypatch.setattr(scipy.optimize, "milp", lambda *a, **kw: widths.append(len(kw["c"])) or milp(*a, **kw))
        return widths

    @pytest.mark.parametrize("failures", [0, 2])
    def test_sampled_synthesis_draws_its_sample_once(self, monkeypatch, failures):
        rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
        space, S = MetricSpace.euclidean(2), AffineMapping(0.9 * rotation, [1.0, -2.0])
        maps, src = MappingSet(S, S), SampledPairs(3000, 5, (-5.0, 5.0))
        evaluate = contraction._evaluate_condition
        check, asked = self._failing_checks(failures)
        monkeypatch.setattr(contraction, "_evaluate_condition", check)
        draw = SampledPairs.draw_pairs
        with patch.object(SampledPairs, "draw_pairs", autospec=True, side_effect=draw) as draws:
            c = synthesize_coefficients(space, maps, src)
        # the passes and every re-verification read the one draw
        assert draws.call_count == 1 and len(asked) == failures + 1
        # re-verifying on fresh draws of the source returns the same tuple
        monkeypatch.setattr(contraction, "_evaluate_condition", lambda *args: check(*args[:5]))
        asked.clear()
        assert synthesize_coefficients(space, maps, src) == c
        assert evaluate(space, maps, c, src, space.slack()).satisfied

    def test_one_block_synthesis_builds_its_terms_once(self, monkeypatch):
        # the n=180 arity-3 anchor's keyless grid is one block: its passes recompute only the margins
        inst = generate_instance(InstanceRecipe(seed=3, n=180, arity=3))
        evaluate, verify, margin = contraction._term_arrays, contraction._evaluate_condition, contraction._margin
        calls = []

        def spy(space, maps, xs, ys, wanted=contraction.ALL_TERMS):
            calls.append(np.broadcast_shapes(xs.shape, ys.shape))
            return evaluate(space, maps, xs, ys, wanted)

        monkeypatch.setattr(contraction, "_term_arrays", spy)
        monkeypatch.setattr(contraction, "_evaluate_condition", lambda *args: calls.append("verify") or verify(*args))
        monkeypatch.setattr(contraction, "_margin", lambda *args: calls.append("margin") or margin(*args))
        c = synthesize_coefficients(inst.space, inst.maps)
        # one evaluation of the grid, then a margin per pass: the largest-lhs seed and each cutting-plane pass
        synthesis = calls[: calls.index("verify")]
        assert synthesis[0] == (180, 180) and synthesis[1:] == ["margin"] * (len(synthesis) - 1) and len(synthesis) > 3
        monkeypatch.undo()
        assert check_condition(inst.space, inst.maps, c).satisfied

    def test_a_feasible_one_block_synthesis_runs_no_elastic_solve(self, monkeypatch):
        # the anchor of test_one_block_synthesis_builds_its_terms_once: the elastic solve is the 6-column one
        inst = generate_instance(InstanceRecipe(seed=3, n=180, arity=3))
        widths = self._milp_widths(monkeypatch)
        c = synthesize_coefficients(inst.space, inst.maps)
        monkeypatch.undo()
        assert widths and set(widths) == {5}
        assert check_condition(inst.space, inst.maps, c).satisfied

    def test_a_failed_reverification_retries_a_bumped_tuple(self, monkeypatch, halving_space, halving_map):
        check, asked = self._failing_checks(1)
        monkeypatch.setattr(contraction, "_evaluate_condition", check)
        c = synthesize_coefficients(halving_space, MappingSet(halving_map, halving_map))
        first, bumped = asked
        tol = halving_space.slack()
        assert c == bumped == Coefficients(*(v * (1.0 + tol) + tol for v in first.as_tuple()))
        assert first.delta == pytest.approx(1.0 / 3.0)
        assert check_condition(halving_space, MappingSet(halving_map, halving_map), c).satisfied

    def test_a_min_sum_tuple_failing_reverification_falls_back_to_the_two_phase_flow(self, monkeypatch, halving_space, halving_map):
        check, asked = self._failing_checks(3)
        monkeypatch.setattr(contraction, "_evaluate_condition", check)
        widths = self._milp_widths(monkeypatch)
        c = synthesize_coefficients(halving_space, MappingSet(halving_map, halving_map))
        # the min-sum tuple and its two bumps fail; the elastic solve runs, and the two-phase tuple passes
        assert len(asked) == 4 and 6 in widths and set(widths[: widths.index(6)]) == {5}
        assert c == asked[3] and c.delta == pytest.approx(1.0 / 3.0)

    def test_tuple_failing_every_reverification_is_infeasible(self, monkeypatch, halving_space, halving_map):
        # three checks of the min-sum tuple, then three of the two-phase flow's
        check, asked = self._failing_checks(6)
        monkeypatch.setattr(contraction, "_evaluate_condition", check)
        with pytest.raises(Infeasible, match="solved tuple failed re-verification") as exc_info:
            synthesize_coefficients(halving_space, MappingSet(halving_map, halving_map))
        assert len(asked) == 6
        # every margin of the halving instance is at most 0 at delta = 1/3; the first tie is the first pair
        assert exc_info.value.binding_pair == (0, 0)

    def test_failed_highs_solve_is_infeasible(self, monkeypatch, halving_space, halving_map):
        monkeypatch.setattr(scipy.optimize, "milp", lambda *args, **kwargs: scipy.optimize.OptimizeResult(success=False))
        with pytest.raises(Infeasible, match="^feasibility solve failed$") as exc_info:
            synthesize_coefficients(halving_space, MappingSet(halving_map, halving_map))
        assert exc_info.value.binding_pair is None

    def test_zero_tuple_holds_on_a_table_with_nan_margins(self):
        # d(S(x), T(y)) = -1e308 <= 0 at every pair, but 0 times an overflowed term made the check's
        # margins NaN; the failed re-verification then sought margins >= NaN - ties, found none: TypeError
        z = TableMapping([0, 0])
        space, maps = MetricSpace.finite([[-1e308, 1e308], [-1e308, -1e308]]), MappingSet(z, z, z, arity=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = synthesize_coefficients(space, maps)
        assert c == Coefficients(0, 0, 0, 0, 0)
        assert check_condition(space, maps, c).satisfied

    def test_nan_margins_make_the_first_nan_pair_most_binding(self):
        # synthesis's all-terms margins are NaN at (0, 0); no margin is >= NaN - ties, which raised TypeError
        b = 1.7e308
        space = MetricSpace.finite(
            [[b, 0.5, 2, 2, 0.5], [2, b, 0.5, 0.5, 0.5], [2, b, b, b, b], [2, b, b, 0.5, 2], [0.5, 0.5, 0.5, 0.5, b]]
        )
        tables = ([1, 2, 1, 1, 2], [2, 0, 1, 2, 1], [3, 3, 2, 2, 3], [2, 3, 1, 2, 1])
        with warnings.catch_warnings(), pytest.raises(Infeasible, match="lacks nan") as exc_info:
            warnings.simplefilter("error")
            synthesize_coefficients(space, MappingSet(*map(TableMapping, tables), arity=4))
        assert exc_info.value.binding_pair == (0, 0)

def dense_two_phase_lp(space, maps, pair_source=EXHAUSTIVE, margin=0.05):
    """Both synthesis LPs over every pair at once, one dense row per pair.

    The reference for the cutting-plane solves.  Returns the phase-1
    coefficients and elastic excess, the phase-2 objective (None when that
    solve fails), and the binding pair when the excess shows the LP
    infeasible (else None).
    """
    batch, A, need = _dense_rows(space, maps, pair_source)
    budget_row = np.array([1.0, 1.0, 1.0, 2.0, 0.0])
    bounds = [(0.0, 1.0)] * 4 + [(0.0, None), (-1.0, None)]
    A_ub = np.vstack([np.hstack([-A, -np.ones((A.shape[0], 1))]), np.append(budget_row, 0.0)])
    b_ub = np.append(-need, 1.0 - margin)
    res = scipy.optimize.linprog(c=np.array([0, 0, 0, 0, 0, 1.0]), A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    pair = None
    if res.x[-1] > max(space.slack(), 1e-9):
        pair = _binding_pair(space, batch, need - A @ res.x[:5])
    A2 = np.vstack([-A, budget_row])
    res2 = scipy.optimize.linprog(c=np.ones(5), A_ub=A2, b_ub=b_ub, bounds=bounds[:5], method="highs")
    return res.x[:5], res.fun, res2.fun if res2.success else None, pair


def _dense_rows(space, maps, pair_source):
    """The batch (xs, ys, shape) with the LP's (pairs x 5) multipliers and its need vector."""
    slack = 0.0 if pair_source == EXHAUSTIVE else 0.02
    xs, ys = contraction._pair_batch(space, pair_source)
    lhs, *terms = contraction._term_arrays(space, maps, xs, ys)
    A = np.column_stack([np.broadcast_to(t, lhs.shape).reshape(-1) for t in terms])
    return (xs, ys, lhs.shape), A, (1.0 + slack) * lhs.reshape(-1)


def _binding_pair(space, batch, shortfall):
    """The first pair whose shortfall is within max(tolerance, 1e-9) of the worst."""
    ties = max(space.slack(), 1e-9)
    return contraction._pair_at(space, *batch, int(np.flatnonzero(shortfall >= shortfall.max() - ties)[0]))


def _generated_problem(arity, metric_mode, mapping_mode, seed):
    recipe = InstanceRecipe(seed=seed, n=2 + (7 * seed + arity) % 30, arity=arity, metric_mode=metric_mode, mapping_mode=mapping_mode)
    inst = generate_instance(recipe)
    return inst.space, inst.maps, EXHAUSTIVE


def _euclidean_problem(m, kind, seed):
    rng = np.random.default_rng([m, seed])
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    scale = {"contraction": 0.6, "isometry": 1.0}[kind]
    S = AffineMapping(scale * q, rng.uniform(-1.0, 1.0, size=m))
    return MetricSpace.euclidean(m), MappingSet(S, S), SampledPairs(3000, seed=seed, box=(-5.0, 5.0))


LP_PROBLEMS = [
    (_generated_problem, arity, metric, mapping, seed)
    for arity, metric, mapping, seed in itertools.product((2, 3, 4), MetricMode, MappingMode, range(4))
] + [(_euclidean_problem, m, kind, seed) for m in (1, 3) for kind in ("contraction", "isometry") for seed in range(2)]


class TestCuttingPlaneLP:
    @pytest.mark.parametrize("problem", LP_PROBLEMS, ids=lambda p: "-".join(map(str, p[1:])))
    def test_matches_the_dense_lp(self, monkeypatch, problem):
        build, *args = problem
        space, maps, src = build(*args)
        coefs, excess, objective, pair = dense_two_phase_lp(space, maps, src)
        solves = {5: [], 6: []}
        milp = scipy.optimize.milp

        def record(*a, **kw):
            res = milp(*a, **kw)
            solves[len(kw["c"])].append(res)
            return res

        monkeypatch.setattr(scipy.optimize, "milp", record)
        try:
            synthesize_coefficients(space, maps, src)
            named = None
        except Infeasible as exc:
            named = exc.binding_pair
        monkeypatch.undo()
        phase1 = solves[6][-1] if solves[6] else None
        if phase1 is not None:
            # the elastic solve runs only after the min-sum loop failed
            assert abs(phase1.fun - excess) <= 1e-9
        if pair is None:
            assert named is None
            assert solves[5][-1].success == (objective is not None)
            if objective is not None:
                # a feasible LP: the min-sum loop alone reaches the dense optimum
                assert phase1 is None and abs(solves[5][-1].fun - objective) <= 1e-9
        elif np.allclose(phase1.x[:5], coefs, rtol=0.0, atol=1e-9):
            assert named == pair
        else:
            # a non-unique optimum: the two solves stopped at different optimal
            # coefficients, so the tie rule is checked at the library's own
            batch, A, need = _dense_rows(space, maps, src)
            assert named == _binding_pair(space, batch, need - A @ phase1.x[:5])

    def test_exhaustive_synthesis_memory_stays_bounded(self, monkeypatch):
        n = 1000
        rng = np.random.default_rng(0)
        rho = rng.uniform(0.5, 8.0, size=n)
        rho[0] = 0.0
        tab = np.maximum.outer(rho, rho)
        np.fill_diagonal(tab, 0.0)
        # S moves each point to the one of largest rho at most half its own,
        # so d(Sx, Sy) <= d(x, y) / 2 and the LP is feasible
        order = np.argsort(rho)
        S = TableMapping(order[np.searchsorted(rho[order], rho / 2.0, side="right") - 1])
        space = MetricSpace.finite(tab)
        rows = []
        milp = scipy.optimize.milp

        def record(*a, **kw):
            rows.append(kw["constraints"].A.shape[0])
            return milp(*a, **kw)

        monkeypatch.setattr(scipy.optimize, "milp", record)
        tracemalloc.start()
        try:
            c = synthesize_coefficients(space, MappingSet(S, S))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert check_condition(space, MappingSet(S, S), c).satisfied
        # the dense LP held a (pairs x 6) matrix: 46 MiB at a million pairs
        assert peak < 32 * 2**20
        assert 0 < sum(rows) < n * n // 100


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(0.0, 0.5),
    beta=st.floats(0.0, 0.4),
    gamma=st.floats(0.0, 0.3),
    L=st.floats(0.0, 3.0),
)
def test_rhs_is_monotone_in_coefficients(alpha, beta, gamma, L):
    """Growing any coefficient never shrinks the right-hand side."""
    assume(alpha + beta + gamma < 1.0)
    space = MetricSpace.finite(HALVING_TABLE)
    step = TableMapping(HALVING_STEP)
    base = Coefficients(0.0, 0.0, 0.0, 0.0, 0.0)
    grown = Coefficients(alpha, beta, gamma, 0.0, L)
    for x in range(4):
        for y in range(4):
            assert rhs_two(grown, space, step, step, x, y) >= rhs_two(base, space, step, step, x, y)
