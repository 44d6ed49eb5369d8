"""Command line behavior: exit codes, output formats, argument handling.

Every test drives ``cofix.cli.main`` directly with an argv list and a
problem file written into ``tmp_path``, so the assertions cover exactly
what a shell user would see.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest

from cofix import (
    Arity,
    AxiomReport,
    FuzzSummary,
    InstanceRecipe,
    MappingMode,
    MetricMode,
    as_problem,
    cli,
    generate_instance,
    load_problem,
    problem_to_dict,
)

HALVING_TABLE = [
    [0.0, 1.0, 3.0, 7.0],
    [1.0, 0.0, 2.0, 6.0],
    [3.0, 2.0, 0.0, 4.0],
    [7.0, 6.0, 4.0, 0.0],
]
PATH3 = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]

GAMMA_HALF = {"alpha": 0, "beta": 0, "gamma": 0.5, "delta": 0, "L": 0}
ZERO_COEFS = {"alpha": 0, "beta": 0, "gamma": 0, "delta": 0, "L": 0}


def table_maps(arity, **tables):
    maps = {"arity": arity}
    for label, table in tables.items():
        maps[label] = {"type": "table", "table": table}
    return maps


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def halving_file(tmp_path):
    doc = {
        "space": {"flavor": "finite_explicit", "table": HALVING_TABLE},
        "mappings": table_maps(2, S=[0, 0, 1, 2], T=[0, 0, 1, 2]),
        "coefficients": GAMMA_HALF,
        "solver": {"x0": 3},
    }
    return write_doc(tmp_path, "halving.json", doc)


@pytest.fixture
def violated_file(tmp_path):
    doc = {
        "space": {"flavor": "finite_explicit", "table": HALVING_TABLE},
        "mappings": table_maps(2, S=[0, 1, 2, 3], T=[0, 1, 2, 3]),
        "coefficients": {"alpha": 0.1, "beta": 0.1, "gamma": 0.3, "delta": 0.1, "L": 0.5},
    }
    return write_doc(tmp_path, "violated.json", doc)


@pytest.fixture
def swap_file(tmp_path):
    doc = {
        "space": {"flavor": "finite_explicit", "table": [[0.0, 1.0], [1.0, 0.0]]},
        "mappings": table_maps(2, S=[1, 0], T=[1, 0]),
        "coefficients": GAMMA_HALF,
    }
    return write_doc(tmp_path, "swap.json", doc)


@pytest.fixture
def three_file(tmp_path):
    doc = {
        "space": {"flavor": "finite_explicit", "table": PATH3},
        "mappings": table_maps(3, S=[0, 0, 0], T=[0, 0, 0], f=[0, 2, 1]),
        "coefficients": GAMMA_HALF,
    }
    return write_doc(tmp_path, "three.json", doc)


@pytest.fixture
def degrade_file(tmp_path):
    doc = {
        "space": {"flavor": "finite_explicit", "table": PATH3},
        "mappings": table_maps(3, S=[1, 1, 1], T=[1, 1, 1], f=[0, 0, 1]),
        "coefficients": ZERO_COEFS,
    }
    return write_doc(tmp_path, "degrade.json", doc)


@pytest.fixture
def affine_file(tmp_path):
    doc = {
        "space": {"flavor": "euclidean_affine", "dimension": 1},
        "mappings": {
            "arity": 3,
            "S": {"type": "affine", "matrix": [[0.5]], "offset": [0.0]},
            "T": {"type": "affine", "matrix": [[0.5]], "offset": [0.0]},
            "f": {"type": "affine", "matrix": [[2.0]], "offset": [0.0]},
        },
        "coefficients": {"alpha": 0, "beta": 0, "gamma": 0.3, "delta": 0, "L": 0},
        "pair_source": {"samples": 500, "seed": 9, "box": [-5.0, 5.0]},
        "solver": {"x0": [1.0]},
    }
    return write_doc(tmp_path, "affine3.json", doc)


@pytest.fixture
def four_file(tmp_path):
    doc = {
        "space": {"flavor": "finite_explicit", "table": HALVING_TABLE},
        "mappings": table_maps(
            4, S=[0, 0, 1, 2], T=[0, 0, 1, 2], f=[0, 1, 2, 3], g=[0, 1, 2, 3]
        ),
        "coefficients": GAMMA_HALF,
    }
    return write_doc(tmp_path, "four.json", doc)


class TestCheck:
    def test_passing_problem_exits_zero(self, halving_file, capsys):
        assert cli.main(["check", halving_file]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "result: pass" in out
        assert "axioms: pass" in out

    def test_violated_problem_exits_one(self, violated_file, capsys):
        assert cli.main(["check", violated_file]) == cli.EXIT_FAILED
        assert "result: FAIL" in capsys.readouterr().out

    def test_structured_output_parses(self, halving_file, capsys):
        assert cli.main(["check", halving_file, "--format", "structured"]) == cli.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert data["condition"]["satisfied"] is True
        assert data["axioms"]["passed"] is True

    def test_euclidean_problem_with_a_wide_sampling_box_passes(self, tmp_path, capsys):
        # at +-1e8 float rounding once failed a sampled axiom check against an
        # absolute 1e-9; the axioms are now analytic, the condition still sampled
        doc = {
            "space": {"flavor": "euclidean_affine", "dimension": 1},
            "mappings": {
                "arity": 2,
                "S": {"type": "affine", "matrix": [[0.5]], "offset": [0.0]},
                "T": {"type": "affine", "matrix": [[0.5]], "offset": [0.0]},
            },
            "coefficients": {"alpha": 0, "beta": 0, "gamma": 0.6, "delta": 0, "L": 0},
            "pair_source": {"samples": 20000, "seed": 3, "box": [-1e8, 1e8]},
        }
        path = write_doc(tmp_path, "wide.json", doc)
        assert cli.main(["check", path]) == cli.EXIT_OK
        assert "axioms: pass (analytic" in capsys.readouterr().out

    def test_failing_axiom_names_its_witness(self, tmp_path, capsys):
        doc = {
            "space": {"flavor": "finite_explicit", "table": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 3.0, 0.0]]},
            "mappings": table_maps(2, S=[0, 0, 0], T=[0, 0, 0]),
            "coefficients": GAMMA_HALF,
        }
        assert cli.main(["check", write_doc(tmp_path, "asymmetric.json", doc)]) == cli.EXIT_FAILED
        assert capsys.readouterr().out == (
            "axioms: FAIL (exhaustive, tolerance 0)\n"
            "  symmetry fails at (1, 2) by 2\n"
            "condition (two mappings, exhaustive): pass  worst margin 0 at pair (0, 0)  [9 pairs]\n"
            "inclusions: none required\n"
            "result: FAIL\n"
        )

    def test_three_mapping_problem_lists_its_inclusions(self, three_file, capsys):
        assert cli.main(["check", three_file]) == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[2:] == ["inclusion S(X) within f(X): pass", "inclusion T(X) within f(X): pass", "result: pass"]

    def test_failed_inclusions_name_their_witnesses(self, tmp_path, capsys):
        doc = {
            "space": {"flavor": "finite_explicit", "table": PATH3},
            "mappings": table_maps(3, S=[2, 2, 2], T=[2, 2, 2], f=[0, 0, 0]),
            "coefficients": ZERO_COEFS,
        }
        assert cli.main(["check", write_doc(tmp_path, "badinc.json", doc)]) == cli.EXIT_FAILED
        out = capsys.readouterr().out.splitlines()
        assert out[2:] == [
            "inclusion S(X) within f(X): FAIL  witness 0",
            "inclusion T(X) within f(X): FAIL  witness 0",
            "result: FAIL",
        ]

    def test_overflowing_dropped_term_is_not_a_violation(self, tmp_path, capsys):
        # every margin is -0.5 * d(x, y) <= 0; 0 * (1e308 + 1e308) once made one NaN, printed as invalid JSON
        doc = {
            "space": {"flavor": "finite_explicit", "table": [[0, 1e308, 1], [1e308, 0, 1e308], [1, 1e308, 0]]},
            "mappings": table_maps(2, S=[0, 0, 0], T=[0, 0, 0]),
            "coefficients": GAMMA_HALF,
        }
        path = write_doc(tmp_path, "reach.json", doc)
        # the axiom scan's d(i, k) - d(i, j) - d(j, k) overflows to -inf, no violation and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["check", path, "--format", "structured"]) == cli.EXIT_OK
        out, err = capsys.readouterr()
        condition = json.loads(out, parse_constant=pytest.fail)["condition"]
        assert (condition["worst_margin"], condition["worst_pair"], err) == (0.0, [0, 0], "")

    def test_overflowing_delta_term_prints_no_warning(self, tmp_path, capsys):
        # at (1, 2) delta multiplies d(2, 1) + d(1, 2) = 2e308, which overflowed with a RuntimeWarning on stderr;
        # the margin there is -inf, and (0, 1) is the worst pair: 1 - 0.5 * 1 - 0.2 * (1 + 1)
        doc = {
            "space": {"flavor": "finite_explicit", "table": [[0, 1, 1], [1, 0, 1e308], [1, 1e308, 0]]},
            "mappings": table_maps(2, S=[0, 1, 2], T=[0, 1, 2]),
            "coefficients": {"alpha": 0, "beta": 0, "gamma": 0.5, "delta": 0.2, "L": 0},
        }
        path = write_doc(tmp_path, "delta.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # d(1, 2) = 1e308 breaks the triangle inequality, so the check fails
            assert cli.main(["check", path, "--format", "structured"]) == cli.EXIT_FAILED
        out, err = capsys.readouterr()
        data = json.loads(out, parse_constant=pytest.fail)
        assert (data["axioms"]["passed"], data["condition"]["worst_pair"], err) == (False, [0, 1], "")

    def test_overflowing_asymmetry_prints_no_warning(self, tmp_path, capsys):
        # |d(0, 1) - d(1, 0)| = |1e308 - (-1e308)| overflowed with a RuntimeWarning on stderr; inf fails symmetry
        doc = {
            "space": {"flavor": "finite_explicit", "table": [[0, 1e308], [-1e308, 0]]},
            "mappings": table_maps(2, S=[0, 1], T=[0, 1]),
            "coefficients": GAMMA_HALF,
        }
        path = write_doc(tmp_path, "asym.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["check", path, "--format", "human"]) == cli.EXIT_FAILED
        out, err = capsys.readouterr()
        assert ("  symmetry fails at (0, 1) by inf" in out.splitlines(), err) == (True, "")

    @pytest.mark.parametrize(
        "table, axiom, witness",
        [([[0, 1e308], [-1e308, 0]], "symmetry", [0, 1]), ([[0, 1e308, -1e308], [1e308, 0, 1e308], [-1e308, 1e308, 0]], "triangle", [0, 2, 0])],
        ids=["symmetry", "triangle"],
    )
    def test_overflowing_magnitude_is_strict_json(self, tmp_path, capsys, table, axiom, witness):
        # the overflowed magnitude printed as a bare Infinity, which is not JSON; it is the string "Infinity",
        # and human output still says "by inf" (test_overflowing_asymmetry_prints_no_warning)
        n = len(table)
        doc = {"space": {"flavor": "finite_explicit", "table": table}, "mappings": table_maps(2, S=list(range(n)), T=list(range(n))), "coefficients": GAMMA_HALF}
        assert cli.main(["check", write_doc(tmp_path, "overflow.json", doc), "--format", "structured"]) == cli.EXIT_FAILED
        data = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        check = AxiomReport.from_dict(data["axioms"]).check(axiom)
        assert (check.passed, check.witness, check.magnitude) == (False, tuple(witness), math.inf)

    def test_boolean_table_entry_exits_schema(self, tmp_path, capsys):
        # int(True) is 1: the table loaded as [[0, 1], [1, 0]] and the check ran (exit 1)
        doc = {"space": {"flavor": "finite_explicit", "table": [[0, True], [True, 0]]}, "mappings": table_maps(2, S=[0, 1], T=[0, 1]), "coefficients": GAMMA_HALF}
        assert cli.main(["check", write_doc(tmp_path, "bool.json", doc)]) == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "schema error: space table holds a boolean, which is not a number\n")

    @pytest.mark.parametrize(
        "space_entry, map_entry, message",
        [
            (10**400, 0, "space table holds an integer out of range: int too large to convert to float"),
            (1, 2**70, "mapping S table holds an integer out of range: Python int too large to convert to C long"),
        ],
        ids=["space_table", "mapping_table"],
    )
    def test_integer_past_the_conversion_exits_schema(self, tmp_path, capsys, space_entry, map_entry, message):
        # each was an OverflowError traceback (exit 1) from converting the table to a float or int64 array
        doc = {"space": {"flavor": "finite_explicit", "table": [[0, space_entry], [1, 0]]}, "mappings": table_maps(2, S=[0, map_entry], T=[0, 1]), "coefficients": GAMMA_HALF}
        assert cli.main(["check", write_doc(tmp_path, "huge.json", doc), "--format", "structured"]) == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"schema error: {message}\n")

    def test_negative_sampler_seed_exits_schema(self, tmp_path, capsys):
        # the document loaded and check died in numpy's seeding: a traceback, exit 1
        half = {"type": "affine", "matrix": [[0.5]], "offset": [0.0]}
        doc = {
            "space": {"flavor": "euclidean_affine", "dimension": 1},
            "mappings": {"arity": 2, "S": half, "T": half},
            "coefficients": GAMMA_HALF,
            "pair_source": {"samples": 64, "seed": -1, "box": [-1, 1]},
        }
        assert cli.main(["check", write_doc(tmp_path, "negseed.json", doc)]) == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "schema error: invalid problem document: seed must be at least 0, got -1\n")

    def test_missing_file_exits_schema(self, capsys):
        assert cli.main(["check", "/no/such/file.json"]) == cli.EXIT_SCHEMA
        assert capsys.readouterr().err.startswith("schema error:")

    def test_sampling_box_past_float_range_exits_schema(self, tmp_path, capsys):
        # squared distances overflowed: "magnitude": NaN, invalid JSON, exit 1
        doc = {
            "space": {"flavor": "euclidean_affine", "dimension": 2},
            "mappings": {
                "arity": 2,
                "S": {"type": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [0.0, 0.0]},
                "T": {"type": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [0.0, 0.0]},
            },
            "coefficients": GAMMA_HALF,
            "pair_source": {"samples": 64, "seed": 3, "box": [-1e200, 1e200]},
        }
        assert cli.main(["check", write_doc(tmp_path, "huge.json", doc), "--format", "structured"]) == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sampling box" in captured.err


class TestEuclideanWithoutSampler:
    """An exhaustive pair source on R^m is an input error (it exited 1 as a failure)."""

    @pytest.fixture
    def unsampled(self, tmp_path):
        def write(arity):
            half = {"type": "affine", "matrix": [[0.5]], "offset": [0.0]}
            mappings = {"arity": arity, "S": half, "T": half}
            if arity == 3:
                mappings["f"] = {"type": "affine", "matrix": [[2.0]], "offset": [0.0]}
            doc = {
                "space": {"flavor": "euclidean_affine", "dimension": 1},
                "mappings": mappings,
                "coefficients": {"alpha": 0, "beta": 0, "gamma": 0.6, "delta": 0, "L": 0},
                "solver": {"x0": [1.0]},
            }
            return write_doc(tmp_path, f"unsampled{arity}.json", doc)

        return write

    @pytest.mark.parametrize("command, arity", [("check", 2), ("check", 3), ("solve3", 3)])
    def test_checking_the_condition_exits_schema(self, unsampled, capsys, command, arity):
        assert cli.main([command, unsampled(arity), "--format", "structured"]) == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:")
        assert "supply a sampler" in captured.err

    def test_solving_needs_no_sampler(self, unsampled, capsys):
        assert cli.main(["solve", unsampled(2)]) == cli.EXIT_OK
        assert "status: converged" in capsys.readouterr().out
        assert cli.main(["solve3", unsampled(3), "--no-verify"]) == cli.EXIT_OK
        assert "common fixed point" in capsys.readouterr().out


class TestBadTolerance:
    """A NaN, infinite or negative tolerance is an input error, however it arrives."""

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command, problem", [("solve", "halving_file"), ("check", "halving_file"), ("solve3", "three_file")])
    def test_flag_exits_schema(self, request, capsys, command, problem, tol):
        # solve printed "tolerance": NaN (exit 1) or Infinity (exit 0); check -1 printed FAIL
        path = request.getfixturevalue(problem)
        assert cli.main([command, path, "--tol", tol, "--format", "structured"]) == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite and non-negative" in captured.err

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_document_tolerance_exits_schema(self, tmp_path, capsys, tol):
        doc = {
            "space": {"flavor": "finite_explicit", "table": HALVING_TABLE},
            "mappings": table_maps(2, S=[0, 0, 1, 2], T=[0, 0, 1, 2]),
            "coefficients": GAMMA_HALF,
            "solver": {"tol": tol},
        }
        # json.dumps writes NaN and Infinity, which json.loads reads back
        assert cli.main(["solve", write_doc(tmp_path, "tol.json", doc)]) == cli.EXIT_SCHEMA
        assert "finite and non-negative" in capsys.readouterr().err


class TestFractionalInput:
    @pytest.mark.parametrize(
        "command, S, solver",
        [("solve", [0, 0, 1, 2], {"x0": 1.5}), ("solve", [0.5, 0, 1, 2], {}), ("check", [0.5, 0, 1, 2], {})],
    )
    def test_exits_schema(self, tmp_path, capsys, command, S, solver):
        doc = {
            "space": {"flavor": "finite_explicit", "table": HALVING_TABLE},
            "mappings": table_maps(2, S=S, T=[0, 0, 1, 2]),
            "coefficients": GAMMA_HALF,
            "solver": solver,
        }
        assert cli.main([command, write_doc(tmp_path, "fractional.json", doc)]) == cli.EXIT_SCHEMA
        assert capsys.readouterr().err.startswith("schema error:")


    @pytest.mark.parametrize(
        "block, key, value",
        [("space", "dimension", 2.5), ("solver", "max_iters", 10.5), ("pair_source", "samples", 64.7), ("pair_source", "seed", 3.9)],
        ids=["dimension", "max_iters", "samples", "seed"],
    )
    def test_fractional_integers_exit_schema(self, tmp_path, capsys, block, key, value):
        doc = {
            "space": {"flavor": "euclidean_affine", "dimension": 2},
            "mappings": {
                "arity": 2,
                "S": {"type": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [0.0, 0.0]},
                "T": {"type": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [0.0, 0.0]},
            },
            "coefficients": GAMMA_HALF,
            "pair_source": {"samples": 64, "seed": 3, "box": [-2.0, 2.0]},
            "solver": {"max_iters": 100},
        }
        path = write_doc(tmp_path, "integral.json", doc)
        assert cli.main(["check", path]) == cli.EXIT_OK
        doc[block][key] = value
        assert cli.main(["check", write_doc(tmp_path, "fractional.json", doc)]) == cli.EXIT_SCHEMA
        # max_iters is held to its rule by Problem, which names it
        assert re.search("(not|must be) an integer", capsys.readouterr().err)


class TestNonFiniteAffine:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("command", ["check", "solve"])
    @pytest.mark.parametrize("fmt", ["human", "structured"])
    def test_exits_schema_with_nothing_on_stdout(self, tmp_path, capsys, bad, command, fmt):
        # check exited 1 and printed "worst_margin": NaN; solve failed only at
        # its first iterate, with a point "outside the universe"
        doc = {
            "space": {"flavor": "euclidean_affine", "dimension": 1},
            "mappings": {
                "arity": 2,
                "S": {"type": "affine", "matrix": [[bad]], "offset": [0.0]},
                "T": {"type": "affine", "matrix": [[0.5]], "offset": [0.0]},
            },
            "coefficients": GAMMA_HALF,
            "pair_source": {"samples": 64, "seed": 0, "box": [-1.0, 1.0]},
            "solver": {"x0": [1.0]},
        }
        path = write_doc(tmp_path, "nonfinite.json", doc)
        assert cli.main([command, path, "--format", fmt]) == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "schema error: invalid problem document: affine matrix and offset entries must be finite\n"


class TestOverflowingInverse:
    # every entry is finite, but 1 / 1e-310 is not: this used to print a numpy
    # RuntimeWarning and exit 2, calling the document non-finite
    @staticmethod
    def write(tmp_path, f):
        m = len(f)
        half = {"type": "affine", "matrix": (0.5 * np.array(f)).tolist(), "offset": [0.0] * m}
        doc = {
            "space": {"flavor": "euclidean_affine", "dimension": m},
            "mappings": {"arity": 3, "S": half, "T": half, "f": {"type": "affine", "matrix": f, "offset": [0.0] * m}},
            "coefficients": GAMMA_HALF,
            "pair_source": {"samples": 64, "seed": 0, "box": [-1.0, 1.0]},
            "solver": {"x0": [1.0] * m},
        }
        return write_doc(tmp_path, "overflow.json", doc)

    @pytest.mark.parametrize("argv", [["solve3", "--no-verify"], ["reduce"]])
    def test_overflowing_section_exits_one(self, tmp_path, capsys, argv):
        path = self.write(tmp_path, [[1e-310]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, path]) == cli.EXIT_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("failed: ")
        assert captured.err.rstrip().endswith("overflows")

    def test_pseudo_inverse_section_reaches_the_fixed_point(self, tmp_path, capsys):
        # inv overflows on the first axis; the pseudo-inverse drops that axis
        path = self.write(tmp_path, [[1e-310, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve3", path, "--no-verify", "--format", "structured"]) == cli.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "common_fixed_point"
        assert np.linalg.norm(data["common_fixed_point"]) <= 1e-8


class TestSolve:
    def test_converging_problem_exits_zero(self, halving_file, capsys):
        assert cli.main(["solve", halving_file]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "status: converged" in out
        assert "point: 0" in out

    def test_rate_violation_exits_one(self, swap_file, capsys):
        assert cli.main(["solve", swap_file]) == cli.EXIT_FAILED
        assert "violation at step" in capsys.readouterr().out

    def test_trace_prints_orbit(self, halving_file, capsys):
        assert cli.main(["solve", halving_file, "--trace"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "[  0]" in out
        assert "start" in out

    def test_x0_override(self, halving_file, capsys):
        assert cli.main(["solve", halving_file, "--x0", "0"]) == cli.EXIT_OK
        assert "iterations: 1" in capsys.readouterr().out

    def test_euclidean_x0_override(self, tmp_path, capsys):
        half = {"type": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [0.0, 0.0]}
        doc = {
            "space": {"flavor": "euclidean_affine", "dimension": 2},
            "mappings": {"arity": 2, "S": half, "T": half},
            "coefficients": GAMMA_HALF,
        }
        path = write_doc(tmp_path, "plane.json", doc)
        assert cli.main(["solve", path, "--x0", "3,-4", "--trace", "--format", "structured"]) == cli.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "converged"
        assert data["trace"]["points"][0] == [3.0, -4.0]

    def test_unparseable_x0_exits_schema(self, halving_file, capsys):
        assert cli.main(["solve", halving_file, "--x0", "abc"]) == cli.EXIT_SCHEMA
        assert "cannot parse start point" in capsys.readouterr().err

    @pytest.mark.parametrize("fixture, arity", [("three_file", 3), ("four_file", 4)])
    def test_wrong_arity_exits_schema(self, request, capsys, fixture, arity):
        assert cli.main(["solve", request.getfixturevalue(fixture)]) == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"solve handles 2 mappings; this problem has {arity} (use solve{arity})" in captured.err

    @pytest.mark.parametrize("flag", ["--no-verify", "--coincidence-only"])
    def test_pipeline_flags_are_refused(self, halving_file, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", halving_file, flag])
        assert exc.value.code == cli.EXIT_SCHEMA
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_structured_report_parses(self, halving_file, capsys):
        assert cli.main(["solve", halving_file, "--format", "structured"]) == cli.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "converged"
        assert data["point"] == 0

    @pytest.mark.parametrize("matrix, x0", [(-1.0, 1e200), (0.5, 1e155), (0.5, 1e200), (0.5, 1e308)])
    def test_overflowing_radius_exits_schema(self, tmp_path, capsys, matrix, x0):
        # these orbits were reported "converged" at x1 with residuals (inf, inf)
        m = {"type": "affine", "matrix": [[matrix]], "offset": [0.0]}
        doc = {
            "space": {"flavor": "euclidean_affine", "dimension": 1},
            "mappings": {"arity": 2, "S": m, "T": m},
            "coefficients": {**GAMMA_HALF, "gamma": 0.6},
            "solver": {"x0": [x0]},
        }
        assert cli.main(["solve", write_doc(tmp_path, "far.json", doc)]) == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: the orbit's a-priori radius overflows at iterate 1\n"

    def test_overflowing_iterate_prints_the_input_error_alone(self, tmp_path, capsys):
        # S(x0) = 1e310 overflows to inf; the domain check refuses it, and
        # numpy's "overflow encountered in matmul" warning used to come first
        doc = {
            "space": {"flavor": "euclidean_affine", "dimension": 1},
            "mappings": {
                "arity": 2,
                "S": {"type": "affine", "matrix": [[1e300]], "offset": [0.0]},
                "T": {"type": "affine", "matrix": [[0.5]], "offset": [0.0]},
            },
            "coefficients": {**GAMMA_HALF, "gamma": 0.6},
            "solver": {"x0": [1e10]},
        }
        path = write_doc(tmp_path, "overflow.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve", path]) == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: point array([inf]) is outside the universe of this euclidean_affine space\n"


class TestParserReuse:
    """main builds its parser once per process; every call still parses afresh."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_argparse_error_leaves_no_state(self, halving_file, capsys):
        cli.build_parser.cache_clear()
        assert cli.main(["check", halving_file, "--format", "structured"]) == cli.EXIT_OK
        alone = capsys.readouterr().out
        for bad in (["check", halving_file, "--x0", "1"], ["check", halving_file, "--format", "xml"], ["nonsense"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(bad)
            assert exc.value.code == cli.EXIT_SCHEMA
            capsys.readouterr()
            assert cli.main(["check", halving_file, "--format", "structured"]) == cli.EXIT_OK
            assert capsys.readouterr().out == alone

    def test_flags_do_not_carry_over(self, halving_file, capsys):
        assert cli.main(["solve", halving_file, "--trace", "--x0", "0", "--format", "structured"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["trace"] is not None
        assert cli.main(["solve", halving_file, "--format", "structured"]) == cli.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["trace"] is None and data["iterations"] == 4  # from the document's x0 = 3

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"], ["solve4", "--help"]])
    def test_help_matches_a_fresh_parser(self, capsys, argv):
        fresh = cli.build_parser.__wrapped__()
        with pytest.raises(SystemExit):
            fresh.parse_args(argv)
        expected = capsys.readouterr().out
        assert expected.startswith("usage: cofix " + " ".join(argv[:-1]).strip())
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 0
            assert capsys.readouterr().out == expected


class TestSolveHigher:
    def test_three_mapping_pipeline(self, three_file, capsys):
        assert cli.main(["solve3", three_file]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "common fixed point: 0" in out
        assert "stages:" in out

    def test_affine_pipeline(self, affine_file, capsys):
        assert cli.main(["solve3", affine_file]) == cli.EXIT_OK
        assert "common fixed point" in capsys.readouterr().out

    def test_degraded_instance_exits_one(self, degrade_file, capsys):
        assert cli.main(["solve3", degrade_file]) == cli.EXIT_FAILED
        out = capsys.readouterr().out
        assert "point of coincidence: 1" in out
        assert "INCOMPATIBLE" in out

    def test_coincidence_only_accepts_degraded_instance(self, degrade_file, capsys):
        assert cli.main(["solve3", degrade_file, "--coincidence-only"]) == cli.EXIT_OK
        assert "point of coincidence: 1" in capsys.readouterr().out

    def test_four_mapping_pipeline(self, four_file, capsys):
        assert cli.main(["solve4", four_file]) == cli.EXIT_OK
        assert "common fixed point: 0" in capsys.readouterr().out

    def test_four_mapping_coincidence_only(self, four_file, capsys):
        assert cli.main(["solve4", four_file, "--coincidence-only", "--format", "structured"]) == cli.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "coincidence_only"
        assert data["stages"][-1] == "coincidence"
        assert data["point_of_coincidence"] == 0
        assert data["common_fixed_point"] is None

    def test_four_mapping_coincidence_only_accepts_degraded_instance(self, tmp_path, capsys):
        doc = {
            "space": {"flavor": "finite_explicit", "table": PATH3},
            "mappings": table_maps(4, S=[1, 1, 1], T=[1, 1, 1], f=[0, 0, 1], g=[0, 0, 1]),
            "coefficients": ZERO_COEFS,
        }
        path = write_doc(tmp_path, "degrade4.json", doc)
        assert cli.main(["solve4", path]) == cli.EXIT_FAILED
        assert "INCOMPATIBLE" in capsys.readouterr().out
        assert cli.main(["solve4", path, "--coincidence-only"]) == cli.EXIT_OK
        assert "point of coincidence: 1" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, fixture, use",
        [
            ("solve3", "halving_file", "solve"),
            ("solve3", "four_file", "solve4"),
            ("solve4", "halving_file", "solve"),
            ("solve4", "three_file", "solve3"),
        ],
    )
    def test_arity_mismatch_exits_schema(self, request, capsys, command, fixture, use):
        # these messages used to name no command to use instead
        assert cli.main([command, request.getfixturevalue(fixture)]) == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{command} handles {command[-1]} mappings; this problem has " in captured.err
        assert captured.err.endswith(f" (use {use})\n")

    def test_inclusion_failure_exits_one(self, tmp_path, capsys):
        doc = {
            "space": {"flavor": "finite_explicit", "table": PATH3},
            "mappings": table_maps(3, S=[2, 2, 2], T=[2, 2, 2], f=[0, 0, 0]),
            "coefficients": ZERO_COEFS,
        }
        path = write_doc(tmp_path, "badinc.json", doc)
        assert cli.main(["solve3", path]) == cli.EXIT_FAILED
        err = capsys.readouterr().err
        assert err.startswith("failed: [inclusions]")

    def test_structured_report_parses(self, three_file, capsys):
        assert cli.main(["solve3", three_file, "--format", "structured"]) == cli.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "common_fixed_point"
        assert data["common_fixed_point"] == 0


class TestReduce:
    def test_emits_loadable_two_mapping_problem(self, three_file, capsys):
        assert cli.main(["reduce", three_file, "--format", "structured"]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        reduced = load_problem(doc)
        assert int(reduced.maps.arity) == 2
        assert reduced.metadata["reduced_from_arity"] == 3
        assert reduced.metadata["image"] == [0, 1, 2]

    def test_degraded_image_is_partial(self, degrade_file, capsys):
        assert cli.main(["reduce", degrade_file, "--format", "structured"]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["metadata"]["image"] == [0, 1]

    def test_human_output_names_induced_maps(self, three_file, capsys):
        assert cli.main(["reduce", three_file]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "induced S:" in out
        assert "image: [0, 1, 2]" in out

    def test_two_mapping_problem_is_rejected(self, halving_file, capsys):
        assert cli.main(["reduce", halving_file]) == cli.EXIT_SCHEMA
        assert "three- or four-mapping" in capsys.readouterr().err

    def test_reduced_problem_lives_on_the_image(self, tmp_path, capsys):
        # f misses point 2, which used to stay in the universe as a fixed point
        # of both induced maps, a second common fixed point
        doc = {
            "space": {"flavor": "finite_explicit", "table": PATH3},
            "mappings": table_maps(3, S=[1, 1, 1], T=[1, 1, 1], f=[0, 0, 1]),
            "coefficients": GAMMA_HALF,
            "solver": {"x0": 2},
        }
        assert cli.main(["reduce", write_doc(tmp_path, "p.json", doc), "--format", "structured"]) == cli.EXIT_OK
        reduced = json.loads(capsys.readouterr().out)
        assert reduced["space"]["table"] == [[0.0, 1.0], [1.0, 0.0]]
        assert reduced["mappings"]["S"]["table"] == [1, 1]
        assert reduced["mappings"]["T"]["table"] == [1, 1]
        assert reduced["metadata"]["image"] == [0, 1]
        assert reduced["solver"]["x0"] == 1  # f(2) = 1, at position 1
        assert cli.main(["check", write_doc(tmp_path, "r.json", reduced)]) == cli.EXIT_OK

    def test_euclidean_start_is_the_image_of_x0(self, affine_file, capsys):
        # a null start used to be written, so the reduced solve began at the origin
        assert cli.main(["reduce", affine_file, "--format", "structured"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["solver"]["x0"] == [2.0]

    def test_inclusion_failure_exits_one(self, tmp_path, capsys):
        doc = {
            "space": {"flavor": "finite_explicit", "table": PATH3},
            "mappings": table_maps(3, S=[2, 2, 2], T=[2, 2, 2], f=[0, 0, 0]),
            "coefficients": ZERO_COEFS,
        }
        assert cli.main(["reduce", write_doc(tmp_path, "badinc.json", doc)]) == cli.EXIT_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "failed: [inclusions] S(X) within f(X) fails\n"

    @pytest.mark.parametrize("arity", [3, 4])
    @pytest.mark.parametrize("metric_mode", list(MetricMode))
    def test_reduced_anchor_instance_solves_like_the_pipeline(self, tmp_path, capsys, arity, metric_mode):
        # the reduced problem passes check, and solve runs the pipeline's inner
        # solve point for point, landing on the anchor's position in the image
        for seed in (3, 8, 21):
            inst = generate_instance(InstanceRecipe(seed=seed, n=2 + seed, arity=arity, metric_mode=metric_mode))
            path = write_doc(tmp_path, "anchor.json", problem_to_dict(as_problem(inst)))
            assert cli.main(["reduce", path, "--format", "structured"]) == cli.EXIT_OK
            reduced = json.loads(capsys.readouterr().out)
            image = reduced["metadata"]["image"]
            reduced_path = write_doc(tmp_path, "reduced.json", reduced)
            assert cli.main(["check", reduced_path]) == cli.EXIT_OK
            capsys.readouterr()
            assert cli.main(["solve", reduced_path, "--format", "structured"]) == cli.EXIT_OK
            solved = json.loads(capsys.readouterr().out)
            assert image[solved["point"]] == inst.anchor
            assert cli.main([f"solve{arity}", path, "--no-verify", "--format", "structured"]) == cli.EXIT_OK
            inner = json.loads(capsys.readouterr().out)["solve_report"]
            assert inner == {**solved, "point": image[solved["point"]]}

    def test_reduced_euclidean_problem_solves_like_the_pipeline(self, tmp_path, affine_file, capsys):
        assert cli.main(["reduce", affine_file, "--format", "structured"]) == cli.EXIT_OK
        reduced_path = write_doc(tmp_path, "reduced.json", json.loads(capsys.readouterr().out))
        assert cli.main(["solve", reduced_path, "--format", "structured"]) == cli.EXIT_OK
        solved = json.loads(capsys.readouterr().out)
        assert cli.main(["solve3", affine_file, "--no-verify", "--format", "structured"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["solve_report"] == solved


class TestOracle:
    def test_enumerates_finite_problem(self, halving_file, capsys):
        assert cli.main(["oracle", halving_file]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "fixed points of S: [0]" in out
        assert "common fixed points: [0]" in out

    def test_lists_coincidence_classes(self, degrade_file, capsys):
        assert cli.main(["oracle", degrade_file]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[-2:] == ["common fixed points: []", "coincidence value 1: points [2]"]

    def test_structured_output_parses(self, four_file, capsys):
        assert cli.main(["oracle", four_file, "--format", "structured"]) == cli.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["common_fixed_points"] == [0]
        assert set(data["fixed_points"]) == {"S", "T", "f", "g"}

    def test_euclidean_problem_is_rejected(self, affine_file, capsys):
        assert cli.main(["oracle", affine_file]) == cli.EXIT_SCHEMA
        assert "finite problem" in capsys.readouterr().err


class TestFuzz:
    def test_small_clean_batch_exits_zero(self, capsys):
        assert cli.main(["fuzz", "--count", "5", "--seed", "0"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "fuzz: 5 instances" in out
        assert "mismatches: none" in out

    def test_structured_summary_parses(self, capsys):
        argv = ["fuzz", "--count", "4", "--seed", "1", "--arity", "3", "--format", "structured"]
        assert cli.main(argv) == cli.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["tallies"]["generated"] == 4
        assert data["mismatch_seeds"] == []
        assert data["arity"] == 3

    def test_mismatch_seeds_are_listed_and_exit_one(self, monkeypatch, capsys):
        summary = FuzzSummary(
            count=3,
            seed=0,
            arity=Arity.THREE,
            metric_mode=MetricMode.UNIFORM,
            mapping_mode=MappingMode.CONTRACTION_ANCHOR,
            n_range=(4, 16),
            tallies={"generated": 3},
            mismatch_seeds=(2,),
        )
        monkeypatch.setattr(cli, "run_fuzz", lambda *args, **kwargs: summary)
        assert cli.main(["fuzz", "--count", "3", "--arity", "3"]) == cli.EXIT_FAILED
        out = capsys.readouterr().out
        assert "  MISMATCH seeds: [2]" in out
        assert "mismatches: none" not in out

    def test_zero_count_exits_schema(self, capsys):
        assert cli.main(["fuzz", "--count", "0"]) == cli.EXIT_SCHEMA
        assert capsys.readouterr().err.startswith("input error:")

    def test_negative_seed_exits_schema_with_one_line(self, capsys):
        # numpy's seeding refused -1 with a ValueError traceback (exit 1)
        assert cli.main(["fuzz", "--count", "2", "--seed", "-1"]) == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "input error: seed must be at least 0, got -1\n")

    def test_mode_flags_are_validated_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fuzz", "--metric-mode", "nonsense"])
