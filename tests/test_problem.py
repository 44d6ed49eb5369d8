"""Problem document loading, serialization, and the instance wrapper."""

import json
from pathlib import Path

import numpy as np
import pytest

from cofix import (
    EXHAUSTIVE,
    Arity,
    InstanceRecipe,
    Problem,
    SampledPairs,
    SchemaError,
    as_problem,
    generate_instance,
    load_problem,
    picard_solve,
    problem_to_dict,
)
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
        with pytest.raises(SchemaError, match="not an index"):
            load_problem(finite_doc(solver={"x0": 1.5}))
        assert load_problem(finite_doc(solver={"x0": 1.0})).x0 == 1

    @pytest.mark.parametrize(
        "doc",
        [
            euclid_doc(space={"flavor": "euclidean_affine", "dimension": 2.5}),
            finite_doc(solver={"max_iters": 10.5}),
            euclid_doc(pair_source={"samples": 64.7, "seed": 3}),
            euclid_doc(pair_source={"samples": 64, "seed": 3.9}),
            finite_doc(mappings={**finite_doc()["mappings"], "arity": 2.5}),
        ],
        ids=["dimension", "max_iters", "samples", "seed", "arity"],
    )
    def test_fractional_integers_are_rejected(self, doc):
        with pytest.raises(SchemaError, match="not an integer"):
            load_problem(doc)

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
