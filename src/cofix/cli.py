"""Command line interface.

Subcommands map onto the library layers: ``check`` verifies hypotheses,
``solve`` runs the two-mapping iteration, ``solve3``/``solve4`` run the
reduction pipelines, ``reduce`` emits the induced two-mapping problem,
``oracle`` brute-forces ground truth, and ``fuzz`` batch-generates
instances and cross-checks the solvers.  Exit codes: 0 when the requested
check or solve succeeded, 1 when a hypothesis or convergence failure was
detected, 2 when the input could not be understood.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from .contraction import (
    Arity,
    MappingSet,
    TableMapping,
    check_condition,
    check_range_inclusions,
)
from .errors import CofixError, DomainError, SchemaError
from .metric_core import MetricSpace, verify_metric_axioms
from .oracle import MappingMode, MetricMode, oracle_summary, run_fuzz
from .problem import load_problem, problem_to_dict
from .reduction import PipelineOptions, PipelineStatus, _require_inclusions, induce, solve_pipeline
from .solver import picard_solve

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_SCHEMA = 2


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(doc, indent=2, sort_keys=True))


def _parse_x0(problem, raw: Optional[str]):
    if raw is None:
        return problem.start_point()
    try:
        if problem.space.is_finite:
            return int(raw)
        return np.array([float(v) for v in raw.split(",")], dtype=float)
    except ValueError as exc:
        raise SchemaError(f"cannot parse start point {raw!r}: {exc}") from exc


def _cmd_check(args) -> int:
    problem = load_problem(args.problem)
    axioms = verify_metric_axioms(problem.space)
    condition = check_condition(problem.space, problem.maps, problem.coefficients, problem.pair_source, args.tol)
    inclusions = check_range_inclusions(problem.space, problem.maps, tolerance=args.tol)
    passed = axioms.passed and condition.satisfied and inclusions.holds

    if args.format == "human":
        print(f"axioms: {'pass' if axioms.passed else 'FAIL'} ({axioms.mode}, tolerance {axioms.tolerance:g})")
        if not axioms.passed:
            bad = next(c for c in axioms.checks if not c.passed)
            print(f"  {bad.name} fails at {bad.witness} by {bad.magnitude:g}")
        print(
            f"condition ({condition.condition} mappings, {condition.mode}): "
            f"{'pass' if condition.satisfied else 'FAIL'}  "
            f"worst margin {condition.worst_margin:.6g} at pair {condition.worst_pair}  "
            f"[{condition.pairs_checked} pairs]"
        )
        for ch in inclusions.checks:
            print(f"inclusion {ch.description}: " + ("pass" if ch.holds else f"FAIL  witness {ch.witness}"))
        if not inclusions.checks:
            print("inclusions: none required")
        print(f"result: {'pass' if passed else 'FAIL'}")
    _emit(
        {
            "axioms": axioms.to_dict(),
            "condition": condition.to_dict(),
            "inclusions": inclusions.to_dict(),
            "passed": passed,
        },
        args.format,
    )
    return EXIT_OK if passed else EXIT_FAILED


def _print_solve_human(report) -> None:
    print(f"status: {report.status}")
    print(f"point: {report.point}")
    print(f"residuals: {report.residuals[0]:.6g}, {report.residuals[1]:.6g}")
    print(f"iterations: {report.iterations}")
    print(f"rate: {report.rate:.6g}")
    if report.violation_index is not None:
        print(f"violation at step: {report.violation_index}")
    if report.apriori_bounds:
        print(f"a-priori bound at stop: {report.apriori_bounds[-1]:.6g}")
    if report.trace is not None:
        for i, p in enumerate(report.trace.points):
            gap = f"  gap {report.trace.steps[i]:.6g}" if i < len(report.trace.steps) else ""
            print(f"  [{i:>3}] {report.trace.producer(i):>5}: {p}{gap}")


def _print_pipeline_human(report) -> None:
    print(f"status: {report.status}")
    print(f"stages: {' -> '.join(report.stages)}")
    if report.point_of_coincidence is not None:
        print(f"point of coincidence: {report.point_of_coincidence}")
        print(f"coincidence points: {list(report.coincidence_points)}")
    if report.common_fixed_point is not None:
        print(f"common fixed point: {report.common_fixed_point}")
    for wc in report.weak_compatibility:
        verdict = "compatible" if wc.compatible else f"INCOMPATIBLE at {wc.witness}"
        print(f"weak compatibility {wc.pair[0]},{wc.pair[1]}: {verdict}")
    if report.solve_report is not None:
        print(f"inner solve: {report.solve_report.status} in {report.solve_report.iterations} iterations")


def _solve_command(arity: Arity) -> str:
    return "solve" if arity == Arity.TWO else f"solve{int(arity)}"


def _cmd_solve(args) -> int:
    """solve, solve3 and solve4: picard_solve at two mappings, solve_pipeline at three or four."""
    problem = load_problem(args.problem)
    want, have = args.want_arity, problem.maps.arity
    if have != want:
        raise SchemaError(
            f"{_solve_command(want)} handles {int(want)} mappings; this problem has {int(have)} (use {_solve_command(have)})"
        )
    x0 = _parse_x0(problem, args.x0)
    # the same three settings drive picard_solve and the pipeline; a flag overrides the document
    run = dict(
        tol=args.tol if args.tol is not None else problem.tol,
        max_iters=args.max_iters if args.max_iters is not None else problem.max_iters,
        keep_trace=args.trace,
    )
    if want == Arity.TWO:
        report = picard_solve(problem.space, problem.maps.S, problem.maps.T, problem.coefficients, x0, **run)
        good, show = report.converged, _print_solve_human
    else:
        options = PipelineOptions(
            verify_hypotheses=not args.no_verify,
            pair_source=problem.pair_source,
            stop_at_coincidence=args.coincidence_only,
            **run,
        )
        report = solve_pipeline(problem.space, problem.maps, problem.coefficients, x0, options)
        wanted = PipelineStatus.COINCIDENCE_ONLY if args.coincidence_only else PipelineStatus.COMMON_FIXED_POINT
        good, show = report.status == wanted, _print_pipeline_human
    if args.format == "human":
        show(report)
    _emit(report.to_dict(), args.format)
    return EXIT_OK if good else EXIT_FAILED


def _cmd_reduce(args) -> int:
    problem = load_problem(args.problem)
    if problem.maps.arity == Arity.TWO:
        raise SchemaError("reduce needs a three- or four-mapping problem")
    _require_inclusions(problem.space, problem.maps, problem.tol)
    induced = induce(problem.space, problem.maps)
    space, S, T = problem.space, induced.S, induced.T
    start = problem.maps.f(problem.start_point())  # where the pipeline's inner solve starts
    metadata = {**problem.metadata, "reduced_from_arity": int(problem.maps.arity)}
    if induced.image is not None:
        # the induced maps act on f(X) alone, which holds S(X) and T(X): point i of the reduced problem is image[i]
        image = np.array(induced.image)
        space = MetricSpace.finite(space.table[np.ix_(image, image)])
        S, T = (TableMapping(np.searchsorted(image, m.table[image])) for m in (S, T))
        start = int(np.searchsorted(image, start))
        metadata["image"] = list(induced.image)
    reduced = replace(problem, space=space, maps=MappingSet(S=S, T=T), x0=space.canonicalize(start), metadata=metadata)
    doc = problem_to_dict(reduced)
    if args.format == "human":
        print(f"induced S: {doc['mappings']['S']}")
        print(f"induced T: {doc['mappings']['T']}")
        if induced.image is not None:
            print(f"image: {list(induced.image)}")
    _emit(doc, args.format)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    problem = load_problem(args.problem)
    if not problem.space.is_finite:
        raise SchemaError("oracle enumeration needs a finite problem")
    result = oracle_summary(problem.space, problem.maps)
    if args.format == "human":
        for label, pts in result.fixed_points.items():
            print(f"fixed points of {label}: {list(pts)}")
        print(f"common fixed points: {list(result.common_fixed_points)}")
        for klass in result.coincidence_classes:
            print(f"coincidence value {klass.value}: points {list(klass.points)}")
    _emit(result.to_dict(), args.format)
    return EXIT_OK


def _cmd_fuzz(args) -> int:
    summary = run_fuzz(
        args.count,
        seed=args.seed,
        n_min=args.n_min,
        n_max=args.n_max,
        arity=Arity(args.arity),
        metric_mode=MetricMode(args.metric_mode),
        mapping_mode=MappingMode(args.mapping_mode),
    )
    if args.format == "human":
        print(
            f"fuzz: {summary.count} instances, arity {int(summary.arity)}, "
            f"modes {summary.metric_mode}/{summary.mapping_mode}, seed {summary.seed}, "
            f"n in {summary.n_range[0]}..{summary.n_range[1]}"
        )
        for key, value in sorted(summary.tallies.items()):
            if value:
                print(f"  {key}: {value}")
        if summary.mismatch_seeds:
            print(f"  MISMATCH seeds: {list(summary.mismatch_seeds)}")
        else:
            print("  mismatches: none")
        print(f"elapsed: {summary.elapsed:.2f}s")
    _emit(summary.to_dict(), args.format)
    return EXIT_OK if summary.clean else EXIT_FAILED


@functools.cache  # one parser per process; parse_args returns a fresh Namespace each call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cofix",
        description="check and solve common fixed point problems for families of mappings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("human", "structured"), default="human")

    solvopts = argparse.ArgumentParser(add_help=False)
    solvopts.add_argument("--x0", help="start point: index, or comma-separated coordinates")
    solvopts.add_argument("--tol", type=float, default=None)
    solvopts.add_argument("--max-iters", type=int, default=None)
    solvopts.add_argument("--trace", action="store_true", help="record and print the orbit")

    p = sub.add_parser("check", parents=[fmt], help="verify axioms, condition, and inclusions")
    p.add_argument("problem")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(fn=_cmd_check)

    for arity in Arity:
        helptext = "two-mapping alternating iteration" if arity == Arity.TWO else f"{int(arity)}-mapping reduction pipeline"
        p = sub.add_parser(_solve_command(arity), parents=[fmt, solvopts], help=helptext)
        p.add_argument("problem")
        if arity != Arity.TWO:
            p.add_argument("--no-verify", action="store_true", help="skip the up-front hypothesis check")
            p.add_argument("--coincidence-only", action="store_true", help="stop at the coincidence point")
        p.set_defaults(fn=_cmd_solve, want_arity=arity)

    p = sub.add_parser("reduce", parents=[fmt], help="emit the induced two-mapping problem")
    p.add_argument("problem")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("oracle", parents=[fmt], help="brute-force enumeration for finite problems")
    p.add_argument("problem")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("fuzz", parents=[fmt], help="generate instances and cross-check the solvers")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=16)
    p.add_argument("--arity", type=int, choices=(2, 3, 4), default=2)
    p.add_argument("--metric-mode", choices=[m.value for m in MetricMode], default="uniform")
    p.add_argument("--mapping-mode", choices=[m.value for m in MappingMode], default="contraction_anchor")
    p.set_defaults(fn=_cmd_fuzz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except DomainError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except CofixError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
