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
import json
import sys
from typing import Optional

import numpy as np

from .contraction import (
    Arity,
    MappingSet,
    SampledPairs,
    check_condition,
    check_range_inclusions,
)
from .errors import CofixError, DomainError, SchemaError
from .metric_core import verify_metric_axioms
from .oracle import MappingMode, MetricMode, oracle_summary, run_fuzz
from .problem import Problem, load_problem, problem_to_dict
from .reduction import PipelineOptions, PipelineStatus, induce, solve_pipeline
from .solver import SolveStatus, picard_solve

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_SCHEMA = 2


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(doc, indent=2, sort_keys=True))


def _parse_x0(problem: Problem, raw: Optional[str]):
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
    source = problem.pair_source
    if isinstance(source, SampledPairs):
        axioms = verify_metric_axioms(
            problem.space,
            seed=source.seed,
            samples=source.samples,
            box=source.box or (-1.0, 1.0),
        )
    else:
        axioms = verify_metric_axioms(problem.space)
    condition = check_condition(problem.space, problem.maps, problem.coefficients, source, args.tol)
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
        if inclusions.checks:
            for ch in inclusions.checks:
                line = f"inclusion {ch.description}: {'pass' if ch.holds else 'FAIL'}"
                if not ch.holds:
                    line += f"  witness {ch.witness}"
                print(line)
        else:
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


def _cmd_solve(args) -> int:
    problem = load_problem(args.problem)
    if problem.maps.arity != Arity.TWO:
        raise SchemaError(f"solve handles two mappings; this problem has {int(problem.maps.arity)} (use solve{int(problem.maps.arity)})")
    x0 = _parse_x0(problem, args.x0)
    report = picard_solve(
        problem.space,
        problem.maps.S,
        problem.maps.T,
        problem.coefficients,
        x0,
        tol=args.tol if args.tol is not None else problem.tol,
        max_iters=args.max_iters if args.max_iters is not None else problem.max_iters,
        keep_trace=args.trace,
    )
    if args.format == "human":
        _print_solve_human(report)
    _emit(report.to_dict(), args.format)
    return EXIT_OK if report.status == SolveStatus.CONVERGED else EXIT_FAILED


def _cmd_solve_high(args) -> int:
    problem = load_problem(args.problem)
    want_arity = args.want_arity
    if problem.maps.arity != want_arity:
        raise SchemaError(
            f"solve{int(want_arity)} handles {int(want_arity)} mappings; this problem has {int(problem.maps.arity)}"
        )
    x0 = _parse_x0(problem, args.x0)
    options = PipelineOptions(
        tol=args.tol if args.tol is not None else problem.tol,
        max_iters=args.max_iters if args.max_iters is not None else problem.max_iters,
        keep_trace=args.trace,
        verify_hypotheses=not args.no_verify,
        pair_source=problem.pair_source,
        stop_at_coincidence=args.coincidence_only,
    )
    report = solve_pipeline(problem.space, problem.maps, problem.coefficients, x0, options)

    if args.format == "human":
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
    _emit(report.to_dict(), args.format)

    good = (
        report.status == PipelineStatus.COINCIDENCE_ONLY
        if args.coincidence_only
        else report.status == PipelineStatus.COMMON_FIXED_POINT
    )
    return EXIT_OK if good else EXIT_FAILED


def _cmd_reduce(args) -> int:
    problem = load_problem(args.problem)
    if problem.maps.arity == Arity.TWO:
        raise SchemaError("reduce needs a three- or four-mapping problem")
    induced = induce(problem.space, problem.maps)

    reduced = Problem(
        space=problem.space,
        maps=MappingSet(S=induced.S, T=induced.T, arity=Arity.TWO),
        coefficients=problem.coefficients,
        pair_source=problem.pair_source,
        tol=problem.tol,
        max_iters=problem.max_iters,
        metadata={**problem.metadata, "reduced_from_arity": int(problem.maps.arity)},
    )
    doc = problem_to_dict(reduced)
    if induced.image is not None:
        doc["metadata"]["image"] = list(induced.image)
    if args.format == "human":
        print(f"induced S: {doc['mappings']['S']}")
        print(f"induced T: {doc['mappings']['T']}")
        if induced.image is not None:
            print(f"image: {list(induced.image)}")
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
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

    p = sub.add_parser("solve", parents=[fmt, solvopts], help="two-mapping alternating iteration")
    p.add_argument("problem")
    p.set_defaults(fn=_cmd_solve)

    for arity in (Arity.THREE, Arity.FOUR):
        p = sub.add_parser(
            f"solve{int(arity)}",
            parents=[fmt, solvopts],
            help=f"{int(arity)}-mapping reduction pipeline",
        )
        p.add_argument("problem")
        p.add_argument("--no-verify", action="store_true", help="skip the up-front hypothesis check")
        p.add_argument("--coincidence-only", action="store_true", help="stop at the coincidence point")
        p.set_defaults(fn=_cmd_solve_high, want_arity=arity)

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
