"""The report codec: every report class survives a JSON round trip.

Each case builds a report the library actually produces (or, for the
plain value records, one built directly), dumps it through ``json`` and
decodes it with the class's ``from_dict``.  The cases cover Euclidean
tuple points, ``None`` optionals and a kept iteration trace.
"""

import json
import math

import numpy as np
import pytest

from cofix import (
    AffineMapping,
    Arity,
    AxiomCheck,
    Coefficients,
    InstanceRecipe,
    MappingSet,
    MetricSpace,
    PipelineOptions,
    SampledPairs,
    TableMapping,
    as_problem,
    check_condition,
    check_range_inclusions,
    cli,
    coincidence_points,
    generate_instance,
    is_weakly_compatible,
    picard_solve,
    problem_to_dict,
    solve_pipeline,
    verify_metric_axioms,
)
from cofix.errors import DomainError
from cofix.oracle import oracle_summary, run_fuzz
from cofix.records import Record, ValueEnum, as_float, as_int, int_arg, real_arg

LINE = MetricSpace.euclidean(2)
HALF = AffineMapping(0.5 * np.eye(2), [0.5, -0.5])
# scalings about the point (1, -1), so they commute and share it as fixed point
DOUBLE = AffineMapping(2.0 * np.eye(2), [-1.0, 1.0])
# FLAT's image is one point, so S(X) within FLAT(X) fails with a point witness
FLAT = AffineMapping(np.zeros((2, 2)), np.zeros(2))
SHEAR = AffineMapping([[0.5, 0.0], [0.0, 0.25]], [0.0, 0.0])
BOX = SampledPairs(samples=64, seed=3, box=(-2.0, 2.0))
GAMMA = Coefficients(0.0, 0.0, 0.6, 0.0)
PATH3 = MetricSpace.finite([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
THREE = MappingSet(
    S=TableMapping([0, 0, 0]), T=TableMapping([0, 0, 0]), f=TableMapping([0, 2, 1]), arity=Arity.THREE
)


def euclidean_pipeline():
    opts = PipelineOptions(pair_source=BOX, keep_trace=True)
    return solve_pipeline(LINE, MappingSet(HALF, HALF, DOUBLE, arity=Arity.THREE), GAMMA, np.array([1.0, 1.0]), opts)


CASES = {
    "AxiomCheck": lambda: AxiomCheck("symmetry", False, ((0.5, 1.0), (2.0, -1.0)), 0.25),
    "AxiomReport": lambda: verify_metric_axioms(LINE),
    "Coefficients": lambda: Coefficients(0.1, 0.2, 0.3, 0.05, 1.5),
    "SampledPairs": lambda: SampledPairs(samples=10, seed=4),
    "ViolationReport": lambda: check_condition(LINE, MappingSet(S=HALF, T=HALF), GAMMA, BOX),
    "InclusionCheck": lambda: check_range_inclusions(LINE, MappingSet(S=HALF, T=HALF, f=FLAT, arity=Arity.THREE)).checks[0],
    "InclusionReport": lambda: check_range_inclusions(LINE, MappingSet(S=HALF, T=HALF, f=DOUBLE, arity=Arity.THREE)),
    "IterationTrace": lambda: picard_solve(LINE, HALF, HALF, GAMMA, np.zeros(2)).trace,
    "SolveReport": lambda: picard_solve(LINE, HALF, HALF, GAMMA, np.zeros(2), keep_trace=True),
    "CoincidenceSolutions": lambda: coincidence_points(PATH3, THREE),
    "WeakCompatibility": lambda: is_weakly_compatible(LINE, SHEAR, AffineMapping([[0.5, 0.0], [0.3, 0.2]], [0.0, 0.0])),
    "CoincidenceReport": euclidean_pipeline,
    "CoincidenceClass": lambda: oracle_summary(PATH3, THREE).coincidence_classes[0],
    "OracleResult": lambda: oracle_summary(PATH3, THREE),
    "InstanceRecipe": lambda: InstanceRecipe(seed=5, n=7, arity=3, metric_mode="integer", mapping_mode="random"),
    "FuzzSummary": lambda: run_fuzz(3, seed=1, n_max=6, arity=Arity.FOUR, mapping_mode="random"),
}


def test_cases_cover_every_record_class():
    assert {cls.__name__ for cls in Record.__subclasses__()} == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_round_trip(name):
    report = CASES[name]()
    assert type(report).__name__ == name
    decoded = type(report).from_dict(json.loads(json.dumps(report.to_dict())))
    assert decoded == report


def test_round_trip_cases_reach_the_hard_shapes():
    pipeline = euclidean_pipeline()
    assert isinstance(pipeline.common_fixed_point, tuple)
    assert pipeline.solve_report.trace is not None
    assert pipeline.scan is None
    assert CASES["SampledPairs"]().box is None
    assert not CASES["WeakCompatibility"]().compatible


def test_nested_records_keep_their_derived_keys(tmp_path, capsys):
    assert euclidean_pipeline().to_dict()["inclusion_report"]["holds"] is True
    inst = generate_instance(InstanceRecipe(seed=1, n=5))
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem_to_dict(as_problem(inst))))
    assert cli.main(["check", str(path), "--format", "structured"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["axioms"]["passed"] is True


def test_value_enums_print_their_values():
    enums = ValueEnum.__subclasses__()
    assert {cls.__name__ for cls in enums} == {"SolveStatus", "UniquenessVerdict", "PipelineStatus", "MetricMode", "MappingMode"}
    for member in (m for cls in enums for m in cls):
        assert str(member) == member.value


def test_missing_required_key_raises_key_error_and_defaults_fill_in():
    with pytest.raises(KeyError, match="gamma"):
        Coefficients.from_dict({"alpha": 0, "beta": 0, "delta": 0})
    assert SampledPairs.from_dict({"samples": 5, "seed": 1.0}) == SampledPairs(samples=5, seed=1)
    with pytest.raises(ValueError, match="^samples must be an integer, got '5'$"):
        SampledPairs.from_dict({"samples": "5", "seed": 1})
    with pytest.raises(ValueError, match="expected 2 entries"):
        SampledPairs.from_dict({"samples": 5, "seed": 1, "box": [1.0]})


def test_non_finite_floats_are_strict_json_strings():
    # a bare Infinity or NaN is not JSON (RFC 8259)
    inf, nan = float("inf"), float("nan")
    check = AxiomCheck("symmetry", False, (0, 1), inf)
    assert check.to_dict()["magnitude"] == "Infinity"
    text = json.dumps(check.to_dict())
    assert AxiomCheck.from_dict(json.loads(text, parse_constant=pytest.fail)) == check
    for value, word in ((inf, "Infinity"), (-inf, "-Infinity"), (nan, "NaN"), (np.float64(-inf), "-Infinity")):
        assert AxiomCheck("triangle", False, None, value).to_dict()["magnitude"] == word
    assert math.isnan(AxiomCheck.from_dict({"name": "t", "passed": False, "witness": None, "magnitude": "NaN"}).magnitude)
    assert AxiomCheck("identity", True, None, 0.0).to_dict()["magnitude"] == 0.0


def test_a_boolean_is_never_a_number():
    # float(True) is 1.0; problem files reach as_float through every float field (tests/test_problem.py)
    for flag in (True, False, np.True_):
        with pytest.raises(ValueError, match="is not a number"):
            as_float(flag)
    assert (as_float(1), as_float(-math.inf), as_float(np.float32(0.5))) == (1.0, -math.inf, 0.5)
    # nor is a string: a float field reads back only the three strings a non-finite float is written as
    for text in ("2.5", "-Infinity", "1e-9"):
        with pytest.raises(ValueError, match="is not a number"):
            as_float(text)
        with pytest.raises(ValueError, match="is not an integer"):
            as_int(text)
    assert AxiomCheck.from_dict({"name": "t", "passed": False, "witness": None, "magnitude": "-Infinity"}).magnitude == -math.inf
    with pytest.raises(ValueError, match="^magnitude must be a number, got '2.5'$"):
        AxiomCheck.from_dict({"name": "t", "passed": False, "witness": None, "magnitude": "2.5"})


def _halving_solve(max_iters):
    half = AffineMapping([[0.5]], [0.0])
    return picard_solve(MetricSpace.euclidean(1), half, half, Coefficients(0, 0, 0.6, 0), [1.0], max_iters=max_iters)


# (argument, its least value, a call passing the value, the value read back from the result)
INT_ARG_SITES = {
    "MetricSpace.dimension": ("dimension", 1, MetricSpace.euclidean, lambda r: r.dimension),
    "SampledPairs.samples": ("samples", 1, lambda v: SampledPairs(v, 0), lambda r: r.samples),
    "SampledPairs.seed": ("seed", 0, lambda v: SampledPairs(8, v), lambda r: r.seed),
    "InstanceRecipe.seed": ("seed", 0, lambda v: InstanceRecipe(seed=v, n=5), lambda r: r.seed),
    "InstanceRecipe.n": ("n", 2, lambda v: InstanceRecipe(seed=0, n=v), lambda r: r.n),
    "run_fuzz.count": ("count", 1, lambda v: run_fuzz(v, n_max=4), lambda r: r.count),
    "run_fuzz.seed": ("seed", 0, lambda v: run_fuzz(1, seed=v, n_max=4), lambda r: r.seed),
    "run_fuzz.n_min": ("n_min", 2, lambda v: run_fuzz(1, n_min=v, n_max=4), lambda r: r.n_range[0]),
    "run_fuzz.n_max": ("n_max", 3, lambda v: run_fuzz(1, n_min=3, n_max=v), lambda r: r.n_range[1]),
    "picard_solve.max_iters": ("max_iters", 1, _halving_solve, lambda r: r.iterations),
}


class TestArgumentRules:
    """``int_arg`` states each integer argument's rule and least value once, ``real_arg`` the number rule."""

    @pytest.mark.parametrize("site", INT_ARG_SITES)
    @pytest.mark.parametrize("bad", ["least - 1", True, 2.5])
    def test_every_site_refuses_with_one_message(self, site, bad):
        # a negative seed passed every check and then died in numpy's seeding
        name, least, call, _ = INT_ARG_SITES[site]
        value = least - 1 if bad == "least - 1" else bad
        expected = f"{name} must be at least {least}, got {value}" if bad == "least - 1" else f"{name} must be an integer, got {value!r}"
        with pytest.raises(DomainError) as exc_info:
            call(value)
        assert str(exc_info.value) == expected

    @pytest.mark.parametrize("site", INT_ARG_SITES)
    def test_every_site_takes_its_least_value(self, site):
        _, least, call, read = INT_ARG_SITES[site]
        for value in (least, float(least)):
            got = read(call(value))
            assert type(got) is int and got == least

    def test_int_arg(self):
        assert int_arg("k", np.int64(3), 3) == 3 and type(int_arg("k", np.int32(4))) is int
        assert int_arg("k", -5) == -5
        with pytest.raises(DomainError, match=r"^k must be at least 0, got -1$"):
            int_arg("k", -1, 0)
        for bad in (np.True_, np.float32(2.5), "2.5", "4", None, [1]):
            with pytest.raises(DomainError, match=r"^k must be an integer, got "):
                int_arg("k", bad, 0)
        # numpy's floats follow the fractional rule as Python's do: np.float32(2.5) read as 2
        with pytest.raises(ValueError, match="not an integer"):
            as_int(np.float32(2.5))
        assert as_int(np.float32(2.0)) == 2

    def test_real_arg(self):
        for value, expected in ((1, 1.0), (np.float32(0.5), 0.5), (np.int64(2), 2.0), (-math.inf, -math.inf)):
            got = real_arg("x", value)
            assert type(got) is float and got == expected
        for bad in (True, np.False_, "half", "0.25", None, [0.5], 1j):
            with pytest.raises(DomainError) as exc_info:
                real_arg("x", bad)
            assert str(exc_info.value) == f"x must be a number, got {bad!r}"
