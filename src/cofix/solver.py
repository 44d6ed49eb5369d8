"""Alternating Picard iteration and its convergence certificates.

For mappings S and T satisfying the two-mapping condition, the orbit
x1 = S(x0), x2 = T(x1), x3 = S(x2), ... contracts consecutive gaps by

    k = max((alpha + gamma + delta) / (1 - beta - delta),
            (beta + gamma + delta) / (1 - alpha - delta)) < 1

and converges to the unique common fixed point z with the a-priori bound
d(x_n, z) <= k**n * d(x0, x1) / (1 - k).  The solver enforces the gap
ratio step by step and reports a violation instead of silently emitting a
wrong limit when the hypotheses do not actually hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, PreconditionError
from .metric_core import MetricSpace, Point
from .contraction import Coefficients
from .records import Record, ValueEnum, int_arg

# the iteration cap of a solve that names none
MAX_ITERS = 10000


class SolveStatus(ValueEnum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    RATE_VIOLATED = "rate_violated"


def rate_constant(c: Coefficients) -> float:
    """Gap contraction factor of the alternating orbit.

    Examples: (0.1, 0.1, 0.2, 0.1) gives 0.5; (0.3, 0, 0, 0) gives 0.3.
    Always strictly below 1 for valid coefficients; L plays no role because
    the minimum term vanishes on consecutive orbit pairs.
    """
    k_odd = (c.alpha + c.gamma + c.delta) / (1.0 - c.beta - c.delta)
    k_even = (c.beta + c.gamma + c.delta) / (1.0 - c.alpha - c.delta)
    return max(k_odd, k_even)


def apriori_error_bound(k: float, d0: float, n: int) -> float:
    """Distance bound from the n-th iterate to the limit: k**n * d0 / (1 - k)."""
    if not 0.0 <= k < 1.0:
        raise DomainError(f"rate constant must lie in [0, 1), got {k}")
    if d0 < 0.0:
        raise DomainError(f"initial gap must be non-negative, got {d0}")
    if n < 0:
        raise DomainError(f"iterate index must be non-negative, got {n}")
    return (k**n) * d0 / (1.0 - k)


@dataclass(frozen=True)
class IterationTrace(Record):
    """An orbit: points visited and consecutive gaps.

    ``points[0]`` is the start; ``points[i]`` for i >= 1 came from S on odd
    i and T on even i.  ``steps[i] = d(points[i], points[i+1])``.
    """

    points: tuple
    steps: tuple[float, ...]

    def __post_init__(self):
        if len(self.steps) != max(len(self.points) - 1, 0):
            raise DomainError(
                f"{len(self.points)} points need {max(len(self.points) - 1, 0)} gaps, got {len(self.steps)}"
            )

    def producer(self, i: int) -> str:
        """Which mapping produced points[i]: the start, S (odd), or T (even)."""
        if i == 0:
            return "start"
        return "S" if i % 2 == 1 else "T"


@dataclass(frozen=True)
class SolveReport(Record):
    """Outcome of a Picard run.

    ``point`` is the final iterate, canonicalized for serialization; it is
    the certified common fixed point only when ``status`` is CONVERGED, in
    which case both ``residuals`` (d(z, Sz), d(z, Tz)) passed the slack;
    ``tolerance`` is the ``tol`` asked for, without ``space.slack``'s
    rounding allowance.  ``apriori_bounds[i]`` bounds the distance from
    points[i] to the limit, valid whenever the contractive condition holds.
    ``violation_index`` on RATE_VIOLATED names the gap that broke the
    guaranteed ratio steps[i] <= k * steps[i-1] + slack, or the largest gap
    of a detected non-contracting cycle; it is None when the failure
    surfaced as a stalled orbit whose endpoint residuals never passed.
    """

    status: SolveStatus
    point: Point
    residuals: tuple[float, float]
    iterations: int
    rate: float
    tolerance: float
    trace: Optional[IterationTrace] = None
    apriori_bounds: tuple[float, ...] = field(default=())
    violation_index: Optional[int] = None

    @property
    def converged(self) -> bool:
        return self.status == SolveStatus.CONVERGED


def picard_solve(
    space: MetricSpace,
    S: Callable[[Point], Point],
    T: Callable[[Point], Point],
    c: Coefficients,
    x0: Point,
    *,
    tol: Optional[float] = None,
    max_iters: int = MAX_ITERS,
    keep_trace: bool = True,
) -> SolveReport:
    """Run the alternating orbit from x0 and certify the limit.

    The orbit stops once the current gap falls below
    tol * (1 - k) / max(k, tol), which pins the remaining distance to the
    limit under tol, and the endpoint passes the residual check
    max(d(z, Sz), d(z, Tz)) <= tol; a small gap with failing residuals
    keeps iterating, since under the contraction guarantee the residuals
    must shrink along with the gaps.  Every consecutive gap is checked
    against the guaranteed ratio k, and on finite spaces a revisited
    (point, parity) state exposes cycles the ratio guard is too slack to
    see.  Each test allows ``space.slack`` at 2 / (1 - k) times the orbit's
    a-priori radius ||x|| + 2 * d(x, next x) / (1 - k) around its current
    point x, taken at the start and whenever the stop test fires; a radius
    that overflows raises DomainError, and a NaN or infinite residual never
    passes.  Hypothesis failures surface as report statuses, not exceptions.
    """
    max_iters = int_arg("max_iters", max_iters, 1)
    x0 = space._check_point(x0)
    tol = space.slack(tol)
    if tol == 0.0:
        raise DomainError("tolerance must be positive, got 0")

    k = rate_constant(c)
    pts = [x0]
    steps: list[float] = []
    seen: dict = {(x0, 0): 0} if space.is_finite else {}
    violation: Optional[int] = None
    current = x0

    def residuals_at(z) -> tuple[float, float]:
        return (float(space.distance(z, S(z))), float(space.distance(z, T(z))))

    def certified(res) -> bool:
        # a NaN or infinite residual passes no slack
        return all(math.isfinite(r) and r <= slack for r in res)

    def finish(status: SolveStatus, residuals=None) -> SolveReport:
        d0 = steps[0] if steps else 0.0
        return SolveReport(
            status=status,
            point=space.canonicalize(pts[-1]),
            residuals=residuals if residuals is not None else residuals_at(pts[-1]),
            iterations=len(pts) - 1,
            rate=k,
            tolerance=float(tol),
            trace=IterationTrace(
                points=tuple(space.canonicalize(p) for p in pts),
                steps=tuple(steps),
            )
            if keep_trace
            else None,
            apriori_bounds=tuple(apriori_error_bound(k, d0, i) for i in range(len(pts))),
            violation_index=violation,
        )

    # an overflowing iterate is refused by the domain check, so numpy's warning adds nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, max_iters + 1):
            # points[i] comes from S on odd i and from T on even i
            current, gap = space._step(current, (S if i % 2 else T)(current))
            steps.append(gap)
            pts.append(current)

            if i >= 2 and gap > k * steps[-2] + slack:
                violation = i - 1
                return finish(SolveStatus.RATE_VIOLATED)

            if i == 1 or gap <= threshold:
                # the radius bounds the orbit's magnitudes from here on; a step's
                # rounding is damped only at rate k, so the computed orbit drifts up
                # to 1 / (1 - k) times it from the exact one, a gap twice that
                scale = 2.0 / (1.0 - k) * (float(np.linalg.norm(current)) + 2.0 * gap / (1.0 - k))
                if not math.isfinite(scale):
                    # an infinite slack would pass any gap and residual, so nothing could be certified
                    raise DomainError(f"the orbit's a-priori radius overflows at iterate {i}")
                slack = space.slack(tol, scale=scale)
                # largest gap that still pins the limit within tol, since the
                # geometric tail after a gap g contributes at most g * k / (1 - k),
                # or that rounding cannot tell from zero
                threshold = space.slack(tol * (1.0 - k) / max(k, tol), scale=scale)

            if gap <= threshold:
                res = residuals_at(current)
                if certified(res):
                    return finish(SolveStatus.CONVERGED, res)

            if space.is_finite:
                key = (current, i % 2)
                if key in seen:
                    start = seen[key]
                    window = steps[start:]
                    if max(window, default=0.0) > slack:
                        violation = start + window.index(max(window))
                        return finish(SolveStatus.RATE_VIOLATED)
                    res = residuals_at(current)
                    if certified(res):
                        return finish(SolveStatus.CONVERGED, res)
                    return finish(SolveStatus.RATE_VIOLATED, res)
                seen[key] = i

        return finish(SolveStatus.MAX_ITERATIONS)


class UniquenessVerdict(ValueEnum):
    EQUAL = "equal"
    DISTINCT = "distinct"


def uniqueness_check(
    space: MetricSpace,
    S: Callable[[Point], Point],
    T: Callable[[Point], Point],
    c: Coefficients,
    z1: Point,
    z2: Point,
    *,
    tol: Optional[float] = None,
) -> UniquenessVerdict:
    """Decide whether two claimed common fixed points are the same point.

    Under the two-mapping condition any two common fixed points u, v
    satisfy d(u, v) <= (gamma + 2*delta) * d(u, v), which forces d(u, v)
    to vanish; numerically the comparison allows s / (1 - gamma - 2*delta),
    s = ``space.slack(tol, z1, z2)``, so that the certified residual slack
    cannot masquerade as a second fixed point.  Both inputs must actually be
    near-fixed (residual within s for the mapping that certified them),
    otherwise the premise of the comparison is void and a PreconditionError
    is raised.
    """
    space._check_point(z1)
    space._check_point(z2)
    slack = space.slack(tol, z1, z2)
    r1 = float(space.distance(z1, S(z1)))
    r2 = float(space.distance(z2, T(z2)))
    if r1 > slack:
        raise PreconditionError(f"first point is not fixed under S: residual {r1:.6g} exceeds {slack:.6g}")
    if r2 > slack:
        raise PreconditionError(f"second point is not fixed under T: residual {r2:.6g} exceeds {slack:.6g}")
    shrink = c.gamma + 2.0 * c.delta
    gap = float(space.distance(z1, z2))
    return UniquenessVerdict.EQUAL if gap <= slack * (1.0 / (1.0 - shrink)) else UniquenessVerdict.DISTINCT
