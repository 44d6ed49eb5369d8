"""The benchmark's two workloads: inputs built from a seed, ops, and answer checks.

Every workload is a deterministic sequence of *cycles*; cycle ``i`` is a
list of :class:`Op` built from ``(seed, i)`` alone, so a traced replay of
the same cycles sees the same inputs as the untraced run.  An op's
``call`` is the timed library work; its ``check`` runs afterwards, outside
the timer, and classifies the answer:

* ``ok``: the answer is right;
* ``expected``: a non-success the inputs call for, such as a violated
  condition on a random instance or CLI exit code 1 on such a problem;
* ``defect``: on a Euclidean problem whose hypotheses hold, an honest
  non-success (a non-converged status or a ``CofixError``) instead of an
  answer.  Today these are the absolute-tolerance defects: solves at
  coordinate scale >= 1e6, and the odd lift whose residuals stack past
  the tolerance at any scale;
* ``wrong``: a wrong answer, an unexpected exception, or, on a finite
  anchor instance, a non-success.

Library functions are always looked up on their modules at call time, so
the tracer's wrappers (see ``tracing.py``) see every call.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from cofix import cli, contraction, metric_core, oracle, problem, reduction, solver
from cofix.errors import CofixError

OK, EXPECTED, DEFECT, WRONG = "ok", "expected", "defect", "wrong"

MARGIN_RTOL = 1e-12


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str]
    lam: Optional[float] = None


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _raise_or(value):
    """The op's result, or the exception it raised, re-raised for the runner to report."""
    if isinstance(value, BaseException):
        raise value
    return value


def _rhs_at(space, maps, c, x, y) -> float:
    if maps.arity == 2:
        return contraction.rhs_two(c, space, maps.S, maps.T, x, y)
    if maps.arity == 3:
        return contraction.rhs_three(c, space, maps.S, maps.T, maps.f, x, y)
    return contraction.rhs_four(c, space, maps.S, maps.T, maps.f, maps.g, x, y)


def margin_matches(space, maps, c, worst_pair, worst_margin) -> bool:
    """Does the reported worst margin equal lhs - rhs recomputed at the worst pair?"""
    x, y = (space.materialize(tuple(p) if isinstance(p, list) else p) for p in worst_pair)
    lhs = space.distance(maps.S(x), maps.T(y))
    rhs = _rhs_at(space, maps, c, x, y)
    return abs((lhs - rhs) - worst_margin) <= MARGIN_RTOL * (1.0 + abs(lhs) + abs(rhs))


def _check_condition(space, maps, c):
    """The arity-matched exhaustive condition check."""
    if maps.arity == 2:
        return contraction.check_condition_two(space, maps.S, maps.T, c)
    if maps.arity == 3:
        return contraction.check_condition_three(space, maps.S, maps.T, maps.f, c)
    return contraction.check_condition_four(space, maps.S, maps.T, maps.f, maps.g, c)


def _report_ok(space, maps, c, report) -> bool:
    return (
        report.satisfied
        and report.satisfied == (report.worst_margin <= report.tolerance)
        and margin_matches(space, maps, c, report.worst_pair, report.worst_margin)
    )


# --------------------------------------------------------------------------
# large_finite: big distance tables, array kernels dominate


@dataclass
class AnchorProblem:
    space: Any
    maps: Any
    c: Any
    anchor: int
    x0: int


def _descent(rho: np.ndarray, phi: float, allowed: np.ndarray, rank: int) -> np.ndarray:
    """Each point's target among ``allowed``: the farthest one with rho <= phi * rho[x].

    ``rank`` 1 takes the next one down when it exists; ties go to the
    smallest index.  The anchor (rho 0) always qualifies.
    """
    order = allowed[np.lexsort((allowed, -rho[allowed]))]
    p = np.searchsorted(-rho[order], -phi * rho, side="left")
    return order[np.minimum(p + rank, order.shape[0] - 1)]


def anchor_problem(rng: np.random.Generator, n: int, arity: int) -> AnchorProblem:
    """An anchor instance built from public constructors, skipping the cubic self-check.

    d(x, y) = max(rho x, rho y) around an anchor with rho 0, and descent
    maps that move every point to one whose rho is at most phi times its
    own.  The anchor is the unique common fixed point.
    """
    anchor = int(rng.integers(0, n))
    rho = rng.uniform(0.5, 8.0, size=n)
    rho[anchor] = 0.0
    D = np.maximum.outer(rho, rho)
    np.fill_diagonal(D, 0.0)
    space = metric_core.MetricSpace.finite(D)
    phi = float(rng.uniform(0.35, 0.65))
    TM, MS = contraction.TableMapping, contraction.MappingSet
    if arity == 2:
        sigma = TM(_descent(rho, phi, np.arange(n), 0))
        maps = MS(S=sigma, T=sigma, arity=2)
        c = contraction.Coefficients(0.0, 0.0, phi, 0.0, 0.0)
    else:
        f_tab = rng.integers(0, n, size=n)
        f_tab[anchor] = anchor
        others = [i for i in range(3) if i != anchor][:2]
        f_tab[others[1]] = f_tab[others[0]]  # f is not injective
        f = TM(f_tab)
        targets = f.image()
        sigma = TM(_descent(rho, phi, targets, 0))
        if arity == 3:
            st = sigma.compose(f)
            maps = MS(S=st, T=st, f=f, arity=3)
            c = contraction.Coefficients(0.0, 0.0, phi, 0.0, 0.0)
        else:
            tau = TM(_descent(rho, phi, targets, 1))
            maps = MS(S=sigma.compose(f), T=tau.compose(f), f=f, g=f, arity=4)
            c = contraction.Coefficients(0.0, 0.0, phi, 0.0, phi)
    return AnchorProblem(space, maps, c, anchor, int(rng.integers(0, n)))


def _certify(p: AnchorProblem):
    axioms = metric_core.verify_metric_axioms(p.space)
    report = _check_condition(p.space, p.maps, p.c)
    inclusions = contraction.check_range_inclusions(p.space, p.maps)
    m = p.maps
    if m.arity == 2:
        solved = solver.picard_solve(p.space, m.S, m.T, p.c, p.x0, keep_trace=False)
    else:
        options = reduction.PipelineOptions(verify_hypotheses=False)
        if m.arity == 3:
            solved = reduction.solve_three(p.space, m.S, m.T, m.f, p.c, p.x0, options)
        else:
            solved = reduction.solve_four(p.space, m.S, m.T, m.f, m.g, p.c, p.x0, options)
    return axioms, report, inclusions, solved


def _certify_check(p: AnchorProblem):
    def check(out) -> str:
        axioms, report, inclusions, solved = _raise_or(out)
        if p.maps.arity == 2:
            landed = solved.status == solver.SolveStatus.CONVERGED and solved.point == p.anchor
        else:
            landed = solved.succeeded and solved.common_fixed_point == p.anchor
        good = axioms.passed and inclusions.holds and _report_ok(p.space, p.maps, p.c, report) and landed
        return OK if good else WRONG

    return check


def _screen_check(p: AnchorProblem):
    return lambda report: OK if _report_ok(p.space, p.maps, p.c, _raise_or(report)) else WRONG


def _repair_check(raw: np.ndarray):
    def check(D) -> str:
        if _raise_or(D).shape != raw.shape:
            return WRONG
        report = metric_core.verify_metric_axioms(metric_core.MetricSpace.finite(D), tolerance=0.0)
        return OK if report.passed else WRONG

    return check


def _synth_check(p: AnchorProblem):
    def check(c) -> str:
        c = contraction.validate_coefficients(_raise_or(c))
        return OK if _check_condition(p.space, p.maps, c).satisfied else WRONG

    return check


class LargeFinite:
    """Certify, screen, repair and synthesize on big tables; the solver barely runs.

    A cycle is 21 ops: twelve certify ops at n=300 (four per arity), one
    at n=450 and two at n=600 (their arities rotate from cycle to cycle),
    and one of each screen, repair and synthesis size.  Sorted by latency,
    the n=300 certify ops fill the lowest 12/21 of the distribution and the
    n=600 certify and n=2500 screen ops the highest 3/21, so the 50th and
    90th percentiles each sit inside one band of like ops, away from a
    boundary between kinds, and the mean op stays near 0.26 s.
    """

    CERTIFY = [(300, arity) for arity in (2, 3, 4) for _ in range(4)]
    ROTATING = (450, 600)
    SCREEN = [(1500, 4), (2500, 2)]
    REPAIR = [200, 300]
    SYNTH = [(120, 2), (180, 3)]

    def __init__(self, seed: int):
        self.seed = seed
        rng = _rng(seed, 0)
        self.ops = self._build(rng)
        self.rotating = {n: [self._certify_op(rng, n, arity) for arity in (2, 3, 4)] for n in self.ROTATING}

    @staticmethod
    def _certify_op(rng, n: int, arity: int) -> Op:
        p = anchor_problem(rng, n, arity)
        return Op(f"certify/n{n}/a{arity}", lambda: _certify(p), _certify_check(p))

    def _build(self, rng) -> list[Op]:
        ops = [self._certify_op(rng, n, arity) for n, arity in self.CERTIFY]
        for n, arity in self.SCREEN:
            p = anchor_problem(rng, n, arity)
            ops.append(Op(f"screen/n{n}/a{arity}", lambda p=p: _check_condition(p.space, p.maps, p.c), _screen_check(p)))
        for n in self.REPAIR:
            raw = rng.uniform(0.1, 8.0, size=(n, n))
            ops.append(Op(f"repair/n{n}", lambda raw=raw: oracle.metric_closure_repair(raw), _repair_check(raw)))
        for n, arity in self.SYNTH:
            p = anchor_problem(rng, n, arity)
            ops.append(Op(f"synth/n{n}/a{arity}", lambda p=p: contraction.synthesize_coefficients(p.space, p.maps), _synth_check(p)))
        return ops

    def warmup(self) -> list[Op]:
        """The smallest op of each kind."""
        rng = _rng(self.seed, 1)
        p = anchor_problem(rng, 120, 4)
        raw = rng.uniform(0.1, 8.0, size=(60, 60))
        return [
            Op("certify", lambda: _certify(p), _certify_check(p)),
            Op("screen", lambda: _check_condition(p.space, p.maps, p.c), _screen_check(p)),
            Op("repair", lambda: oracle.metric_closure_repair(raw), _repair_check(raw)),
            Op("synth", lambda: contraction.synthesize_coefficients(p.space, p.maps), _synth_check(p)),
        ]

    def cycle(self, i: int) -> list[Op]:
        n450, n600 = self.rotating[450], self.rotating[600]
        return self.ops + [n450[i % 3], n600[i % 3], n600[(i + 1) % 3]]


# --------------------------------------------------------------------------
# corpus_euclidean, first part: many tiny generated problems through the CLI,
# in process


def _run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _corpus_call(recipe, command: str):
    def call():
        inst = oracle.generate_instance(recipe)
        text = json.dumps(problem.problem_to_dict(problem.as_problem(inst)))
        code, out = _run_cli([command, text, "--format", "structured"])
        return inst, code, out

    return call


def _corpus_check(command: str):
    def check(value) -> str:
        inst, code, out = _raise_or(value)
        anchored = inst.anchor is not None
        truth = inst.oracle.common_fixed_points
        if code not in (0, 1):
            return WRONG
        if command == "check":
            doc = json.loads(out)
            cond = doc["condition"]
            # generated tables are metrics and generated maps meet their inclusions
            passed = cond["satisfied"]
            consistent = (
                doc["axioms"]["passed"]
                and doc["inclusions"]["holds"]
                and doc["passed"] == passed
                and (code == 0) == passed
                and cond["satisfied"] == (cond["worst_margin"] <= cond["tolerance"])
                and margin_matches(inst.space, inst.maps, inst.coefficients, cond["worst_pair"], cond["worst_margin"])
            )
            if not consistent or (anchored and not passed):
                return WRONG
            return OK if passed else EXPECTED
        if code == 1:
            return WRONG if anchored else EXPECTED
        doc = json.loads(out)
        point = doc["point"] if command == "solve" else doc["common_fixed_point"]
        if point not in truth or (anchored and point != inst.anchor):
            return WRONG
        return OK

    return check


class SmallCorpus:
    """A stream of tiny generated problems, each written out and run through ``cli.main``.

    One cycle covers every arity x metric mode x mapping mode x
    {check, solve} combination once, with fresh sizes n in 2..64.
    """

    SOLVE = {2: "solve", 3: "solve3", 4: "solve4"}

    def __init__(self, seed: int):
        self.seed = seed

    def _ops(self, rng) -> list[Op]:
        ops = []
        for arity in (2, 3, 4):
            for metric_mode in oracle.MetricMode:
                for mapping_mode in oracle.MappingMode:
                    for command in ("check", self.SOLVE[arity]):
                        recipe = oracle.InstanceRecipe(
                            seed=int(rng.integers(0, 2**31)),
                            n=int(rng.integers(2, 65)),
                            arity=arity,
                            metric_mode=metric_mode,
                            mapping_mode=mapping_mode,
                        )
                        ops.append(Op(f"{command}/{mapping_mode.value}", _corpus_call(recipe, command), _corpus_check(command)))
        return ops

    def warmup(self) -> list[Op]:
        ops = self._ops(_rng(self.seed, 1))
        seen, first = set(), []
        for op in ops:
            if op.kind not in seen:
                seen.add(op.kind)
                first.append(op)
        return first

    def cycle(self, i: int) -> list[Op]:
        return self._ops(_rng(self.seed, 2, i))


# --------------------------------------------------------------------------
# corpus_euclidean, second part: affine problems in R^m on the sampled code
# paths

DIMS = (2, 3, 4, 8)
SCALES = (1.0, 1e2, 1e4, 1e6, 1e8)
RATE = 0.9
# converging solves here take at most ~340 iterations; the cap keeps a solve
# that cannot converge from forming a latency band of its own
SOLVE_MAX_ITERS = 400
CHECK_PAIRS = 20000
PIPELINE_PAIRS = 5000
SYNTH_PAIRS = (5000, 10000, 20000)
AXIOM_TRIPLES = 20000


def _orthogonal(rng, m: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def _contraction_matrix(rng, m: int) -> np.ndarray:
    """A matrix with spectral norm RATE: U diag(s) V^T with s[0] = RATE."""
    s = rng.uniform(0.2, RATE, size=m)
    s[0] = RATE
    return (_orthogonal(rng, m) * s) @ _orthogonal(rng, m).T


def _affine_about(M: np.ndarray, z: np.ndarray):
    """The affine map x -> M (x - z) + z, which fixes z."""
    return contraction.AffineMapping(M, z - M @ z)


def _closed_form(S) -> np.ndarray:
    return np.linalg.solve(np.eye(S.dimension) - S.matrix, S.offset)


def _near(point, z: np.ndarray, bound: float, tol: float) -> bool:
    gap = float(np.linalg.norm(np.asarray(point, dtype=float) - z))
    return gap <= bound + tol + 1e-12 * (1.0 + float(np.linalg.norm(z)))


def _solve_verdict(success: bool, correct: bool) -> str:
    if success:
        return OK if correct else WRONG
    return DEFECT


def _check_solve_op(rng, m: int, lam: float) -> Op:
    space = metric_core.MetricSpace.euclidean(m)
    S = _affine_about(_contraction_matrix(rng, m), lam * rng.uniform(-1.0, 1.0, size=m))
    maps = contraction.MappingSet(S=S, T=S, arity=2)
    c = contraction.Coefficients(0.0, 0.0, RATE, 0.0, 0.0)
    source = contraction.SampledPairs(CHECK_PAIRS, int(rng.integers(0, 2**31)), (-lam, lam))
    x0 = lam * rng.uniform(-1.0, 1.0, size=m)

    def call():
        report = contraction.check_condition_two(space, S, S, c, source)
        return report, solver.picard_solve(space, S, S, c, x0, max_iters=SOLVE_MAX_ITERS, keep_trace=False)

    def check(value) -> str:
        report, run = _raise_or(value)
        if not (report.pairs_checked == CHECK_PAIRS and margin_matches(space, maps, c, report.worst_pair, report.worst_margin)):
            return WRONG
        success = report.satisfied and run.converged
        correct = success and _near(run.point, _closed_form(S), run.apriori_bounds[-1], run.tolerance)
        return _solve_verdict(success, correct)

    return Op(f"check_solve/m{m}", call, check, lam)


def _pipeline_op(rng, m: int, lam: float, arity: int) -> Op:
    """S = G o f (and T = G o g) with G a contraction about z and f, g fixing z.

    The three- or four-mapping condition holds with gamma = RATE, f and g
    are invertible so every inclusion holds, and all mappings fix z, so
    they commute at their only coincidence point and the lift succeeds.
    """
    space = metric_core.MetricSpace.euclidean(m)
    z = lam * rng.uniform(-1.0, 1.0, size=m)
    A = _contraction_matrix(rng, m)
    F = _orthogonal(rng, m) * rng.uniform(0.5, 1.0)
    Gm = _orthogonal(rng, m) * rng.uniform(0.5, 1.0)
    f, g = _affine_about(F, z), _affine_about(Gm, z)
    S, T = _affine_about(A @ F, z), _affine_about(A @ (F if arity == 3 else Gm), z)
    c = contraction.Coefficients(0.0, 0.0, RATE, 0.0, 0.0)
    options = reduction.PipelineOptions(
        max_iters=SOLVE_MAX_ITERS,
        pair_source=contraction.SampledPairs(PIPELINE_PAIRS, int(rng.integers(0, 2**31)), (-lam, lam)),
    )
    x0 = lam * rng.uniform(-1.0, 1.0, size=m)

    def call():
        if arity == 3:
            return reduction.solve_three(space, S, T, f, c, x0, options)
        return reduction.solve_four(space, S, T, f, g, c, x0, options)

    def check(report) -> str:
        if isinstance(report, CofixError) or not report.succeeded:
            return _solve_verdict(False, False)
        run = report.solve_report
        return _solve_verdict(True, _near(report.common_fixed_point, _closed_form(S), run.apriori_bounds[-1], run.tolerance))

    return Op(f"pipeline/a{arity}", call, check, lam)


def _synth_op(rng, m: int, pairs: int) -> Op:
    space = metric_core.MetricSpace.euclidean(m)
    S = _affine_about(RATE * _orthogonal(rng, m), rng.uniform(-1.0, 1.0, size=m))
    maps = contraction.MappingSet(S=S, T=S, arity=2)
    train = contraction.SampledPairs(pairs, int(rng.integers(0, 2**31)), (-10.0, 10.0))
    fresh = contraction.SampledPairs(CHECK_PAIRS, int(rng.integers(0, 2**31)), (-10.0, 10.0))

    def check(value) -> str:
        c = _raise_or(value)
        return OK if contraction.check_condition_two(space, S, S, c, fresh).satisfied else WRONG

    return Op(f"synth/p{pairs}", lambda: contraction.synthesize_coefficients(space, maps, train), check)


def _axioms_op(rng, m: int) -> Op:
    space = metric_core.MetricSpace.euclidean(m)
    seed = int(rng.integers(0, 2**31))

    def call():
        return metric_core.verify_metric_axioms(space, samples=AXIOM_TRIPLES, seed=seed, box=(-10.0, 10.0))

    return Op(f"axioms/m{m}", call, lambda report: OK if _raise_or(report).passed else WRONG)


class Euclidean:
    """Affine problems in R^m: sampled checks, solves across scales, synthesis, pipelines.

    A cycle is 55 ops: two sampled checks plus solves for every (m,
    lambda), a three- and a four-mapping pipeline per lambda, sampled
    axioms per m, and one synthesis whose size rotates from cycle to
    cycle.  Only synthesis (2% of ops) lies above the dense band of checks
    and solves, so the 90th percentile sits inside that band.  Every cycle
    draws fresh matrices.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def _ops(self, rng, i: int) -> list[Op]:
        ops = [_check_solve_op(rng, m, lam) for _ in range(2) for m in DIMS for lam in SCALES]
        ops += [_pipeline_op(rng, DIMS[k % len(DIMS)], lam, arity) for k, (arity, lam) in enumerate((a, l) for a in (3, 4) for l in SCALES)]
        ops += [_axioms_op(rng, m) for m in DIMS]
        ops.append(_synth_op(rng, DIMS[i % 3], SYNTH_PAIRS[i % 3]))
        return ops

    def warmup(self) -> list[Op]:
        rng = _rng(self.seed, 3)
        return [
            _check_solve_op(rng, 2, 1.0),
            _pipeline_op(rng, 2, 1.0, 3),
            _pipeline_op(rng, 2, 1.0, 4),
            _synth_op(rng, 2, SYNTH_PAIRS[0]),
            _axioms_op(rng, 2),
        ]

    def cycle(self, i: int) -> list[Op]:
        return self._ops(_rng(self.seed, 4, i), i)


class CorpusEuclidean:
    """Small problems of both kinds: a cycle of :class:`SmallCorpus` then one of :class:`Euclidean`.

    Neither part builds a large table, so per-call overhead, solver
    iterations and sampled kernels set the cost.  The two parts share one
    workload so that each run measures for long enough to be steady on a
    shared host; their op latencies overlap, so the 50th and 90th
    percentiles fall in a dense band of both.  The parts draw from separate
    random streams.
    """

    def __init__(self, seed: int):
        self.parts = (SmallCorpus(seed), Euclidean(seed))

    def warmup(self) -> list[Op]:
        return [op for part in self.parts for op in part.warmup()]

    def cycle(self, i: int) -> list[Op]:
        return [op for part in self.parts for op in part.cycle(i)]


WORKLOADS = {"large_finite": LargeFinite, "corpus_euclidean": CorpusEuclidean}
