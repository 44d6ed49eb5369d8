"""The report codec: every report class survives a JSON round trip.

Each case builds a report the library actually produces (or, for the
plain value records, one built directly), dumps it through ``json`` and
decodes it with the class's ``from_dict``.  The cases cover Euclidean
tuple points, ``None`` optionals and a kept iteration trace.
"""

import json

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
    solve_three,
    verify_metric_axioms,
)
from cofix.oracle import oracle_summary, run_fuzz
from cofix.records import Record

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
    return solve_three(LINE, HALF, HALF, DOUBLE, GAMMA, np.array([1.0, 1.0]), opts)


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


def test_missing_required_key_raises_key_error_and_defaults_fill_in():
    with pytest.raises(KeyError, match="gamma"):
        Coefficients.from_dict({"alpha": 0, "beta": 0, "delta": 0})
    assert SampledPairs.from_dict({"samples": "5", "seed": 1.0}) == SampledPairs(samples=5, seed=1)
    with pytest.raises(ValueError, match="expected 2 entries"):
        SampledPairs.from_dict({"samples": 5, "seed": 1, "box": [1.0]})
