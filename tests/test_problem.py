"""Problem document loading, serialization, and the instance wrapper."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cofix import (
    EXHAUSTIVE,
    AffineMapping,
    Arity,
    Coefficients,
    InstanceRecipe,
    MappingMode,
    MappingSet,
    MetricMode,
    MetricSpace,
    Problem,
    SampledPairs,
    SchemaError,
    TableMapping,
    as_problem,
    generate_instance,
    load_problem,
    picard_solve,
    problem_to_dict,
)
from cofix.errors import DomainError
from cofix.solver import SolveStatus

HALVING_TABLE = [
    [0.0, 1.0, 3.0, 7.0],
    [1.0, 0.0, 2.0, 6.0],
    [3.0, 2.0, 0.0, 4.0],
    [7.0, 6.0, 4.0, 0.0],
]


def finite_doc(**overrides):
    doc = {
        "space": {"flavor": "finite_explicit", "table": HALVING_TABLE},
        "mappings": {
            "arity": 2,
            "S": {"type": "table", "table": [0, 0, 1, 2]},
            "T": {"type": "table", "table": [0, 0, 1, 2]},
        },
        "coefficients": {"alpha": 0, "beta": 0, "gamma": 0.5, "delta": 0, "L": 0},
        "pair_source": "exhaustive",
        "solver": {"x0": 3, "tol": 1e-12, "max_iters": 500},
        "metadata": {"note": "halving chain"},
    }
    doc.update(overrides)
    return doc


def euclid_doc(**overrides):
    doc = {
        "space": {"flavor": "euclidean_affine", "dimension": 2},
        "mappings": {
            "arity": 2,
            "S": {"type": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [0.0, 0.0]},
            "T": {"type": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [0.0, 0.0]},
        },
        "coefficients": {"alpha": 0, "beta": 0, "gamma": 0.5, "delta": 0, "L": 0},
        "pair_source": {"samples": 64, "seed": 3, "box": [-2.0, 2.0]},
    }
    doc.update(overrides)
    return doc


HALF_LINE = {"type": "affine", "matrix": [[0.5]], "offset": [0.0]}


def line_doc(S=HALF_LINE, pair_source=None, dimension=1):
    """A one-dimensional affine document with S = T."""
    return euclid_doc(
        space={"flavor": "euclidean_affine", "dimension": dimension},
        mappings={"arity": 2, "S": S, "T": S},
        pair_source=pair_source or {"samples": 5, "seed": 1, "box": [-1, 1]},
    )


# JSON strings where numbers belong: each of these documents loaded, a string read as the number it spells
STRING_NUMBERS = {
    "table": (finite_doc(space={"flavor": "finite_explicit", "table": [["0", "1"], ["1", "0"]]}), "space table holds a string"),
    "arity": (finite_doc(mappings={**finite_doc()["mappings"], "arity": "2"}), "arity must be an integer, got '2'"),
    "gamma": (finite_doc(coefficients={"alpha": 0, "beta": 0, "gamma": "0.5", "delta": 0, "L": 0}), "gamma must be a number, got '0.5'"),
    "x0": (finite_doc(solver={"x0": "1"}), "solver x0 holds a string"),
    "x0_list": (euclid_doc(solver={"x0": ["1", 0.0]}), "solver x0 holds a string"),
    "tol": (finite_doc(solver={"tol": "1e-9"}), "tolerance must be a number, got '1e-9'"),
    "max_iters": (finite_doc(solver={"max_iters": "5"}), "max_iters must be an integer, got '5'"),
    "dimension": (line_doc(dimension="1"), "dimension must be an integer, got '1'"),
    "matrix": (line_doc({"type": "affine", "matrix": [["0.5"]], "offset": [0.0]}), "mapping S matrix holds a string"),
    "offset": (line_doc({"type": "affine", "matrix": [[0.5]], "offset": ["0"]}), "mapping S offset holds a string"),
    "samples": (line_doc(pair_source={"samples": "5", "seed": 1, "box": [-1, 1]}), "samples must be an integer, got '5'"),
    "seed": (line_doc(pair_source={"samples": 5, "seed": "1", "box": [-1, 1]}), "seed must be an integer, got '1'"),
    "box": (line_doc(pair_source={"samples": 5, "seed": 1, "box": ["-1", "1"]}), "box must be a number, got '-1'"),
}


class TestLoadProblem:
    def test_loads_finite_document_from_dict(self):
        problem = load_problem(finite_doc())
        assert problem.space.is_finite
        assert problem.space.n == 4
        assert problem.maps.arity == Arity.TWO
        assert problem.coefficients.gamma == 0.5
        assert problem.pair_source == EXHAUSTIVE
        assert problem.x0 == 3
        assert problem.tol == 1e-12
        assert problem.max_iters == 500
        assert problem.metadata == {"note": "halving chain"}

    def test_loads_from_json_text(self):
        problem = load_problem(json.dumps(finite_doc()))
        assert problem.x0 == 3
        assert problem.space.n == 4

    def test_loads_from_file_path(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(finite_doc()))
        for source in (path, str(path)):
            problem = load_problem(source)
            assert problem.max_iters == 500

    def test_loads_euclidean_document(self):
        problem = load_problem(euclid_doc())
        assert not problem.space.is_finite
        assert problem.space.dimension == 2
        src = problem.pair_source
        assert isinstance(src, SampledPairs)
        assert (src.samples, src.seed, src.box) == (64, 3, (-2.0, 2.0))

    def test_euclidean_x0_list_is_canonicalized(self):
        doc = euclid_doc(solver={"x0": [0.5, -0.5]})
        problem = load_problem(doc)
        assert problem.x0 == (0.5, -0.5)
        start = problem.start_point()
        assert isinstance(start, np.ndarray)
        np.testing.assert_allclose(start, [0.5, -0.5])

    def test_solver_block_is_optional(self):
        doc = finite_doc()
        del doc["solver"]
        del doc["metadata"]
        problem = load_problem(doc)
        assert problem.x0 is None
        assert problem.tol is None
        assert problem.max_iters == 10000
        assert problem.metadata == {}

    def test_null_blocks_fall_back_to_defaults(self):
        doc = finite_doc(solver=None, metadata=None, pair_source=None)
        problem = load_problem(doc)
        assert problem.x0 is None
        assert problem.metadata == {}
        assert problem.pair_source == EXHAUSTIVE

    def test_start_point_defaults(self):
        doc = finite_doc()
        del doc["solver"]
        assert load_problem(doc).start_point() == 0
        edoc = euclid_doc()
        np.testing.assert_array_equal(load_problem(edoc).start_point(), np.zeros(2))

    def test_loaded_problem_solves_end_to_end(self):
        problem = load_problem(finite_doc())
        report = picard_solve(
            problem.space,
            problem.maps.S,
            problem.maps.T,
            problem.coefficients,
            problem.start_point(),
            tol=problem.tol,
            max_iters=problem.max_iters,
        )
        assert report.status == SolveStatus.CONVERGED
        assert report.point == 0


class TestSchemaRejections:
    def test_missing_top_level_key(self):
        doc = finite_doc()
        del doc["coefficients"]
        with pytest.raises(SchemaError, match="missing required key 'coefficients'"):
            load_problem(doc)

    def test_missing_space_flavor(self):
        doc = finite_doc(space={"table": HALVING_TABLE})
        with pytest.raises(SchemaError, match="space is missing required key 'flavor'"):
            load_problem(doc)

    def test_block_must_be_an_object(self):
        with pytest.raises(SchemaError, match="space must be an object, got int"):
            load_problem(finite_doc(space=5))

    def test_unknown_space_flavor(self):
        doc = finite_doc(space={"flavor": "hyperbolic", "table": HALVING_TABLE})
        with pytest.raises(SchemaError, match="unknown space flavor 'hyperbolic'"):
            load_problem(doc)

    def test_unknown_mapping_type(self):
        doc = finite_doc()
        doc["mappings"]["S"] = {"type": "polynomial", "coeffs": [1, 2]}
        with pytest.raises(SchemaError, match="mapping S has unknown type"):
            load_problem(doc)

    def test_arity_three_requires_factor_map(self):
        doc = finite_doc()
        doc["mappings"]["arity"] = 3
        with pytest.raises(SchemaError, match="mappings is missing required key 'f'"):
            load_problem(doc)

    def test_pair_source_must_be_marker_or_object(self):
        with pytest.raises(SchemaError, match="pair_source"):
            load_problem(finite_doc(pair_source=7))

    def test_solver_block_must_be_object(self):
        with pytest.raises(SchemaError, match="solver block must be an object"):
            load_problem(finite_doc(solver=[1, 2]))

    def test_malformed_json_text(self):
        with pytest.raises(SchemaError, match="cannot parse problem document"):
            load_problem("{not json")

    def test_missing_file_is_treated_as_json_and_rejected(self):
        with pytest.raises(SchemaError, match="cannot parse problem document"):
            load_problem("/no/such/problem.json")

    def test_non_object_document(self):
        with pytest.raises(SchemaError, match="problem document must be an object"):
            load_problem("[1, 2, 3]")

    def test_non_square_table_is_wrapped(self):
        doc = finite_doc(space={"flavor": "finite_explicit", "table": [[0.0, 1.0]]})
        with pytest.raises(SchemaError, match="invalid problem document"):
            load_problem(doc)

    def test_out_of_range_coefficients_are_wrapped(self):
        doc = finite_doc()
        doc["coefficients"]["gamma"] = 1.2
        with pytest.raises(SchemaError, match="invalid problem document"):
            load_problem(doc)

    def test_mapping_space_mismatch_is_wrapped(self):
        doc = finite_doc()
        doc["mappings"]["S"] = {"type": "table", "table": [0, 0, 1, 9]}
        with pytest.raises(SchemaError, match="invalid problem document"):
            load_problem(doc)

    def test_out_of_range_start_point_is_wrapped(self):
        doc = finite_doc(solver={"x0": 11})
        with pytest.raises(SchemaError, match="invalid problem document"):
            load_problem(doc)

    def test_fractional_finite_start_point_is_rejected(self):
        # a JSON boolean is no index either: int(True) solved from point 1
        for x0 in (1.5, True, False):
            with pytest.raises(SchemaError, match="point must be an integer"):
                load_problem(finite_doc(solver={"x0": x0}))
        assert load_problem(finite_doc(solver={"x0": 1.0})).x0 == 1

    @pytest.mark.parametrize(
        "doc",
        [
            euclid_doc(space={"flavor": "euclidean_affine", "dimension": 2.5}),
            finite_doc(solver={"max_iters": 10.5}),
            euclid_doc(pair_source={"samples": 64.7, "seed": 3}),
            euclid_doc(pair_source={"samples": 64, "seed": 3.9}),
            finite_doc(mappings={**finite_doc()["mappings"], "arity": 2.5}),
            # JSON booleans: int(True) is 1, so each loaded as 1 or 0
            euclid_doc(space={"flavor": "euclidean_affine", "dimension": True}),
            finite_doc(solver={"max_iters": True}),
            euclid_doc(pair_source={"samples": True, "seed": 3}),
            euclid_doc(pair_source={"samples": 64, "seed": False}),
            finite_doc(mappings={**finite_doc()["mappings"], "arity": True}),
        ],
        ids=[
            *("dimension", "max_iters", "samples", "seed", "arity"),
            *("dimension_bool", "max_iters_bool", "samples_bool", "seed_bool", "arity_bool"),
        ],
    )
    def test_fractional_integers_are_rejected(self, doc):
        # max_iters is held to its rule by Problem, which names it
        with pytest.raises(SchemaError, match="(not|must be) an integer"):
            load_problem(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            # JSON booleans: each loaded as 1 or 0, and a solve followed
            (finite_doc(space={"flavor": "finite_explicit", "table": [[0, True, 3, 7], [True, 0, 2, 6], [3, 2, 0, 4], [7, 6, 4, 0]]}), "space table holds a boolean"),
            (finite_doc(mappings={**finite_doc()["mappings"], "S": {"type": "table", "table": [True, False, 1, 2]}}), "mapping S table holds a boolean"),
            (finite_doc(coefficients={"alpha": 0, "beta": 0, "gamma": 0.5, "delta": 0, "L": True}), "L must be a number, got True"),
            (finite_doc(coefficients={"alpha": 0, "beta": 0, "gamma": False, "delta": 0, "L": 0}), "gamma must be a number, got False"),
            (finite_doc(solver={"tol": True}), "tolerance must be a number, got True"),
            (euclid_doc(pair_source={"samples": 64, "seed": 3, "box": [False, True]}), "box must be a number, got False"),
            (euclid_doc(mappings={**euclid_doc()["mappings"], "S": {"type": "affine", "matrix": [[True, 0.0], [0.0, 0.5]], "offset": [0.0, 0.0]}}), "mapping S matrix holds a boolean"),
            (euclid_doc(mappings={**euclid_doc()["mappings"], "T": {"type": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [False, 0.0]}}), "mapping T offset holds a boolean"),
            (euclid_doc(solver={"x0": [True, 0.0]}), "solver x0 holds a boolean"),
        ],
        ids=["table", "mapping_table", "L", "gamma", "tol", "box", "matrix", "offset", "x0"],
    )
    def test_booleans_are_not_numbers(self, doc, message):
        with pytest.raises(SchemaError, match=message):
            load_problem(doc)

    @pytest.mark.parametrize("field", STRING_NUMBERS)
    def test_a_string_is_never_a_number(self, field):
        doc, message = STRING_NUMBERS[field]
        with pytest.raises(SchemaError, match=message):
            load_problem(json.dumps(doc))

    def test_max_iters_below_one_is_refused_when_built(self):
        # a document with max_iters 0 loaded, check exited 0 on it and solve 2
        with pytest.raises(SchemaError, match="max_iters must be at least 1, got 0"):
            load_problem(finite_doc(solver={"max_iters": 0}))
        problem = load_problem(finite_doc())
        with pytest.raises(DomainError, match="max_iters must be at least 1, got 0"):
            Problem(problem.space, problem.maps, problem.coefficients, max_iters=0)

    def test_integral_floats_read_as_integers(self):
        problem = load_problem(euclid_doc(space={"flavor": "euclidean_affine", "dimension": 2.0}, pair_source={"samples": 64.0, "seed": 3.0}))
        assert problem.space.dimension == 2
        assert problem.pair_source == SampledPairs(64, 3)
        assert load_problem(finite_doc(solver={"max_iters": 10.0})).max_iters == 10

    def test_fractional_table_entries_are_rejected(self):
        doc = finite_doc()
        doc["mappings"]["S"] = {"type": "table", "table": [0.5, 0, 1, 2]}
        with pytest.raises(SchemaError, match="entries must be integers"):
            load_problem(doc)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("where", ["matrix", "offset"])
    def test_non_finite_affine_entries_are_rejected(self, bad, where):
        # a NaN matrix loaded, and check printed "worst_margin": NaN, which is not JSON
        doc = euclid_doc()
        doc["mappings"]["S"][where] = [[bad, 0.0], [0.0, 0.5]] if where == "matrix" else [bad, 0.0]
        # json.dumps writes NaN and Infinity, which json.loads reads back
        with pytest.raises(SchemaError, match="entries must be finite"):
            load_problem(json.dumps(doc))

    @pytest.mark.parametrize("block", ["table", "matrix"])
    def test_ragged_arrays_are_rejected(self, block):
        if block == "table":
            doc = finite_doc(space={"flavor": "finite_explicit", "table": [[0.0, 1.0], [1.0]]})
        else:
            doc = euclid_doc()
            doc["mappings"]["S"]["matrix"] = [[0.5, 0.0], [0.5]]
        with pytest.raises(SchemaError, match="invalid problem document"):
            load_problem(doc)

    def test_distance_table_is_converted_once(self):
        # the loader wrapped the table in a float array that finite() copied again
        n = 400
        rho = np.random.default_rng(0).uniform(0.5, 8.0, n)
        table = np.maximum.outer(rho, rho)
        np.fill_diagonal(table, 0.0)
        doc = finite_doc(
            space={"flavor": "finite_explicit", "table": table.tolist()},
            mappings={"arity": 2, "S": {"type": "table", "table": [0] * n}, "T": {"type": "table", "table": [0] * n}},
            solver={},
        )
        tracemalloc.start()
        try:
            problem = load_problem(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(problem.space.table, table)
        assert peak < 1.5 * table.nbytes


class TestRoundTrip:
    def test_finite_document_survives_roundtrip(self):
        original = load_problem(finite_doc())
        restored = load_problem(problem_to_dict(original))
        assert restored.space.table.tolist() == HALVING_TABLE
        assert restored.maps.S.table.tolist() == [0, 0, 1, 2]
        assert restored.coefficients == original.coefficients
        assert restored.x0 == original.x0
        assert restored.tol == original.tol
        assert restored.max_iters == original.max_iters
        assert restored.metadata == original.metadata

    def test_euclidean_document_survives_roundtrip(self):
        original = load_problem(euclid_doc(solver={"x0": [1.0, 2.0]}))
        doc = problem_to_dict(original)
        # the emitted document must be honest JSON, not numpy leftovers
        restored = load_problem(json.loads(json.dumps(doc)))
        assert restored.space.dimension == 2
        assert restored.pair_source == original.pair_source
        assert restored.x0 == (1.0, 2.0)
        np.testing.assert_allclose(restored.maps.S.matrix, original.maps.S.matrix)

    def test_space_block_carries_no_eq_tol(self):
        # the space's equality knob is gone: old documents still load, new ones omit it
        for doc in (finite_doc(), euclid_doc()):
            old = {**doc, "space": {**doc["space"], "eq_tol": 1e-6}}
            assert problem_to_dict(load_problem(old)) == problem_to_dict(load_problem(doc))
            assert "eq_tol" not in problem_to_dict(load_problem(doc))["space"]

    @pytest.mark.parametrize("flag", [True, False])
    def test_space_block_carries_no_completeness_flag(self, flag):
        # every space is complete: an old "complete" key, even false, is ignored
        for doc in (finite_doc(), euclid_doc()):
            old = {**doc, "space": {**doc["space"], "complete": flag}}
            assert problem_to_dict(load_problem(old)) == problem_to_dict(load_problem(doc))
            assert "complete" not in problem_to_dict(load_problem(doc))["space"]

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_solver_tolerance_must_be_finite_and_non_negative(self, tol):
        with pytest.raises(SchemaError, match="finite and non-negative"):
            load_problem(finite_doc(solver={"tol": tol}))

    def test_serialized_pair_source_forms(self):
        assert problem_to_dict(load_problem(finite_doc()))["pair_source"] == EXHAUSTIVE
        src = problem_to_dict(load_problem(euclid_doc()))["pair_source"]
        assert src == {"samples": 64, "seed": 3, "box": [-2.0, 2.0]}


def _numbers(lo, hi):
    """A number in [lo, hi] as a Python float, np.float32 or np.float64, or the integer lo."""
    real = st.floats(lo, hi)
    return st.one_of(st.just(lo), real, real.map(np.float32), real.map(np.float64))


@st.composite
def problems(draw):
    """A Problem built in the library: numpy scalars among the coefficients, the sampler's and the solver's fields."""
    arity = draw(st.sampled_from(list(Arity)))
    entry = st.floats(-1e6, 1e6)
    integer = st.sampled_from([int, np.int32, np.int64, np.uint16])
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        space = MetricSpace.finite(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
        mapping = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(TableMapping)
        x0 = draw(st.one_of(st.none(), st.builds(lambda kind, i: kind(i), integer, st.integers(0, n - 1))))
    else:
        m = draw(st.integers(1, 3))
        space = MetricSpace.euclidean(m)
        mapping = st.builds(AffineMapping, st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m), st.lists(entry, min_size=m, max_size=m))
        x0 = draw(st.one_of(st.none(), st.tuples(*[_numbers(-1e6, 1e6)] * m)))
    maps = MappingSet(*draw(st.lists(mapping, min_size=arity, max_size=arity)), arity=arity)
    # each of alpha..delta below 0.15 keeps the weight sum below 1 after float32 rounding
    coefficients = Coefficients(*draw(st.tuples(*[_numbers(0, 0.15)] * 4)), draw(st.one_of(st.integers(0, 10), _numbers(0, 10.0))))
    lo = draw(st.floats(-100.0, 99.0))
    box = (np.float64(lo), np.float32(lo + draw(st.floats(1.0, 100.0)))) if draw(st.booleans()) else None
    sampled = SampledPairs(draw(integer)(draw(st.integers(1, 500))), draw(integer)(draw(st.integers(0, 2**15))), box)
    pair_source = sampled if not space.is_finite or draw(st.booleans()) else EXHAUSTIVE
    tol = draw(st.one_of(st.none(), _numbers(0.0, 1e-3)))
    max_iters = draw(integer)(draw(st.integers(1, 10**4)))
    return Problem(space, maps, coefficients, pair_source, x0, tol, max_iters, {"note": draw(st.text(max_size=8))})


def assert_round_trips(problem):
    """What the library writes is strict JSON, and it reads back as the same problem."""
    text = json.dumps(problem_to_dict(problem), allow_nan=False)
    json.loads(text, parse_constant=pytest.fail)
    restored = load_problem(text)
    for name in ("space", "maps", "coefficients", "pair_source", "x0", "tol", "max_iters", "metadata"):
        assert getattr(restored, name) == getattr(problem, name), name


class TestWrittenDocumentsReadBack:
    @settings(max_examples=150, deadline=None)
    @given(problem=problems())
    def test_built_problems_round_trip(self, problem):
        # np.float32 coefficients, and np.int64 or np.float32 x0, tol and max_iters, made problem_to_dict's output unserializable
        assert_round_trips(problem)

    @pytest.mark.parametrize("arity", list(Arity))
    @pytest.mark.parametrize("metric_mode", list(MetricMode))
    @pytest.mark.parametrize("mapping_mode", list(MappingMode))
    def test_generated_instances_round_trip(self, arity, metric_mode, mapping_mode):
        recipe = InstanceRecipe(seed=11, n=7, arity=arity, metric_mode=metric_mode, mapping_mode=mapping_mode)
        assert_round_trips(as_problem(generate_instance(recipe)))


class TestAsProblem:
    def test_anchor_instance_carries_oracle_metadata(self):
        instance = generate_instance(InstanceRecipe(seed=17, n=6, arity=2))
        problem = as_problem(instance)
        assert isinstance(problem, Problem)
        assert problem.pair_source == EXHAUSTIVE
        assert problem.metadata["anchor"] == instance.anchor
        assert problem.metadata["phi"] == instance.phi
        assert problem.metadata["recipe"]["seed"] == 17
        assert "oracle" in problem.metadata

    def test_random_instance_has_no_anchor_keys(self):
        instance = generate_instance(
            InstanceRecipe(seed=5, n=5, arity=2, mapping_mode="random")
        )
        problem = as_problem(instance)
        assert "anchor" not in problem.metadata
        assert "phi" not in problem.metadata

    def test_wrapped_instance_serializes_to_json(self):
        instance = generate_instance(InstanceRecipe(seed=3, n=4, arity=3))
        doc = problem_to_dict(as_problem(instance))
        text = json.dumps(doc)
        reloaded = load_problem(text)
        assert reloaded.maps.arity == Arity.THREE
        assert reloaded.metadata["recipe"]["arity"] == 3
