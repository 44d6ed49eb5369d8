"""Reduction of three- and four-mapping problems to the two-mapping solver.

Given S, T, f with S(X) and T(X) inside f(X), pick a subdomain E on which
f is injective with f(E) = f(X).  The induced maps

    G(f(x)) = S(x),    H(f(x)) = T(x)    for x in E

are self-maps of the image f(X) and inherit the two-mapping contractive
condition from the three-mapping one verbatim.  Their unique common fixed
point w pulls back along the section to a coincidence point u with
S(u) = T(u) = f(u) = w, and weak compatibility (the mappings commute at
coincidence points) lifts w to the unique common fixed point of all three.
Four mappings work the same way with f on the S side and g on the T side,
provided f(X) = g(X).
"""

from __future__ import annotations

from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Union

import numpy as np

from .contraction import (
    EXHAUSTIVE,
    AffineMapping,
    Arity,
    Coefficients,
    InclusionReport,
    Mapping,
    MappingSet,
    PairSource,
    TableMapping,
    ViolationReport,
    _inverted,
    _validate_labelled,
    check_condition,
    check_range_inclusions,
)
from .errors import (
    CofixError,
    ConditionViolated,
    DomainError,
    ExhaustiveOnInfinite,
    LiftDisagreement,
    LiftMismatch,
    NonInvertibleMapping,
    NonUniqueCoincidence,
    RangeInclusionFailure,
)
from .metric_core import MetricSpace, Point
from .records import Record, ValueEnum
from .solver import MAX_ITERS, SolveReport, SolveStatus, picard_solve


@contextmanager
def _stage(name: str, stages: list):
    """Tag errors escaping this block with the pipeline stage that raised them."""
    stages.append(name)
    try:
        yield
    except CofixError as exc:
        if exc.stage is None:
            exc.stage = name
        raise


@dataclass(frozen=True)
class TableSection:
    """Right inverse of a finite mapping on its image.

    ``domain`` lists one representative per image value, each the smallest
    preimage index; ``pull_back`` sends an image value to its representative.
    """

    domain: tuple[int, ...]
    image: tuple[int, ...]

    def pull_back(self, y: int) -> int:
        try:
            return self.domain[self.image.index(int(y))]
        except ValueError:
            raise DomainError(f"{y} is not in the mapping image") from None

    def induced(self, m: TableMapping) -> TableMapping:
        """m through the section on the image; points off the image stay fixed."""
        table = np.arange(m.n)
        table[list(self.image)] = m.table[list(self.domain)]
        return TableMapping(table)


@dataclass(frozen=True)
class AffineSection:
    """Right inverse of an affine mapping: pull_back(f(x)) recovers a preimage."""

    mapping: AffineMapping
    image = None  # not a field: an affine image is not enumerated

    def pull_back(self, y: np.ndarray) -> np.ndarray:
        return self.mapping(y)

    def induced(self, m: AffineMapping) -> AffineMapping:
        return m.compose(self.mapping)


Section = Union[TableSection, AffineSection]


def injective_restriction(space: MetricSpace, f: TableMapping) -> TableSection:
    """Restrict f to a subdomain where it is injective without shrinking its image.

    Keeps the smallest preimage of each image value, listed in ascending
    order of the values.  Only finite spaces can be enumerated this way.
    """
    if not space.is_finite:
        raise ExhaustiveOnInfinite("cannot walk a Euclidean space; use an affine section instead")
    f.validate(space)
    image, domain = np.unique(f.table, return_index=True)
    return TableSection(domain=tuple(domain.tolist()), image=tuple(image.tolist()))


def _affine_section(f: AffineMapping) -> AffineSection:
    with suppress(NonInvertibleMapping):
        return AffineSection(f.inverse())
    return AffineSection(_inverted(f, np.linalg.pinv, "pseudo-inverse"))


def _require_inclusions(space: MetricSpace, maps: MappingSet, tol: Optional[float]) -> InclusionReport:
    """The range inclusions the induced pair needs; RangeInclusionFailure names the first that fails."""
    report = check_range_inclusions(space, maps, tolerance=tol)
    bad = next((ch for ch in report.checks if not ch.holds), None)
    if bad is not None:
        raise RangeInclusionFailure(f"{bad.description} fails", witness=bad.witness, stage="inclusions")
    return report


@dataclass(frozen=True)
class InducedPair:
    """The two-mapping problem a higher-arity one reduces to.

    ``S`` and ``T`` act on the shared image like the originals act through
    the sections; on finite spaces they are stored as full-universe tables
    that hold points outside ``image`` fixed, so only orbits started inside
    the image are meaningful.  ``cofix reduce`` writes the document of this
    pair: on finite spaces it keeps only the image, relabels point
    ``image[i]`` as i and lists ``image`` in its metadata, so no point
    outside f(X) becomes a spurious common fixed point.
    """

    S: Mapping
    T: Mapping
    image: Optional[tuple[int, ...]]
    section_s: Section
    section_t: Section


def induce(space: MetricSpace, maps: MappingSet) -> InducedPair:
    """Induced two-mapping problem for S over its companion and T over its own.

    The companions come from ``maps.sides``: f for both with three mappings,
    f and g with four.  A companion shared by both sides shares its section.
    """
    if maps.arity == Arity.TWO:
        raise DomainError("only three- and four-mapping problems induce a two-mapping problem")
    maps.validate(space)
    (_, S, _, f), (_, T, _, g) = maps.sides
    section = partial(injective_restriction, space) if space.is_finite else _affine_section
    sect_s = section(f)
    sect_t = sect_s if g is f else section(g)
    return InducedPair(
        S=sect_s.induced(S),
        T=sect_t.induced(T),
        image=sect_s.image,
        section_s=sect_s,
        section_t=sect_t,
    )


@dataclass(frozen=True)
class CoincidenceSolutions(Record):
    """Exhaustive scan of coincidence points and the values they share.

    ``points`` and ``values`` run group by group, as :func:`coincidence_points`
    forms the groups.  ``consistent`` says all collected values name the
    same point, which the contractive condition guarantees.
    """

    points: tuple
    values: tuple
    consistent: bool


def coincidence_points(space: MetricSpace, maps: MappingSet) -> CoincidenceSolutions:
    """Scan a finite universe for coincidence points of a mapping set.

    Each mapping of ``maps.sides`` joins the group of its companion: [S, T]
    for two mappings, [f, S, T] for three, [f, S] and [g, T] for four.  A
    point is a coincidence point of a group where all its tables agree, and
    its value is the first table's: S(x) = T(x) = f(x) yields f(x).
    """
    if not space.is_finite:
        raise ExhaustiveOnInfinite("coincidence scans need a finite universe")
    maps.validate(space)
    groups: dict = {}
    for _, m, tag, companion in maps.sides:
        groups.setdefault(tag, [] if companion is None else [companion]).append(m)
    pts, vals = [], []
    for first, *rest in groups.values():
        hits = np.flatnonzero(np.logical_and.reduce([first.table == m.table for m in rest]))
        pts += hits.tolist()
        vals += first.table[hits].tolist()
    return CoincidenceSolutions(points=tuple(pts), values=tuple(vals), consistent=len(set(vals)) <= 1)


@dataclass(frozen=True)
class WeakCompatibility(Record):
    """Whether two mappings commute at their coincidence points.

    ``vacuous`` flags an empty coincidence set, which is compatible by
    default.  ``witness`` is a coincidence point where commutation fails.
    """

    pair: tuple[str, str]
    compatible: bool
    vacuous: bool
    witness: Optional[object] = None
    checked: int = 0


def _affine_commutation(space: MetricSpace, A: AffineMapping, B: AffineMapping, tol: float):
    """(checked, witness) of A and B on the affine subspace where A(x) = B(x); (0, None) when it is empty."""
    M = A.matrix - B.matrix
    rhs = B.offset - A.offset
    x0, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    # one step of iterative refinement: lstsq alone left x0 up to 300·eps·|x0| off
    x0 += np.linalg.lstsq(M, rhs - M @ x0, rcond=None)[0]
    if np.linalg.norm(M @ x0 - rhs) > tol * (1.0 + np.linalg.norm(rhs)):
        return 0, None
    _, s, vt = np.linalg.svd(M)
    rank = int(np.sum(s > max(s[0], 1.0) * 1e-12)) if s.size else 0
    null = vt[rank:].T
    cond = s[0] / s[rank - 1] if rank else 1.0
    ab, ba = A(B(x0)), B(A(x0))
    # x0 solves a linear system, so its rounding is amplified by the condition number
    if space.distance(ab, ba) > space.slack(tol, ab, ba, scale=cond * float(np.linalg.norm(x0))):
        return 1, tuple(x0.tolist())
    moved = np.abs((A.matrix @ B.matrix - B.matrix @ A.matrix) @ null).max(axis=0)
    fails = moved.size and float(moved.max()) > tol
    return 1 + null.shape[1], (tuple((x0 + null[:, int(np.argmax(moved))]).tolist()) if fails else None)


def is_weakly_compatible(
    space: MetricSpace,
    A: Mapping,
    B: Mapping,
    *,
    names: tuple[str, str] = ("S", "f"),
    tol: Optional[float] = None,
) -> WeakCompatibility:
    """Check that A and B commute wherever they coincide, after validating both (``names`` names a misfit).

    Finite spaces test every coincidence point exactly; the first that fails
    is the witness.  For affine mappings the coincidence set is an affine
    subspace; commutation is an affine identity on it, so checking one
    particular solution plus the action of the commutator on the nullspace
    directions settles it.  Either flavor yields ``checked`` and ``witness``,
    and one verdict is built from them.
    """
    _validate_labelled(space, zip(names, (A, B)))
    tol = space.slack(tol)
    if space.is_finite:
        pts = np.flatnonzero(A.table == B.table)
        bad = pts[A.table[B.table[pts]] != B.table[A.table[pts]]]
        checked, witness = pts.size, (int(bad[0]) if bad.size else None)
    else:
        checked, witness = _affine_commutation(space, A, B, tol)
    return WeakCompatibility(pair=names, compatible=witness is None, vacuous=not checked, witness=witness, checked=checked)


def lift_to_common_fixed_point(
    space: MetricSpace,
    primary: Mapping,
    companion: Mapping,
    u: Point,
    *,
    tol: Optional[float] = None,
) -> Point:
    """Lift a coincidence point of (primary, companion) to their common value.

    With v = companion(u) the point of coincidence, weak compatibility
    transfers the agreement one level up: primary(v) must equal
    companion(v), and both must land back on v, up to ``space.slack``.
    Returns v; raises LiftMismatch naming whichever check failed.
    """
    _validate_labelled(space, (("primary", primary), ("companion", companion)))
    space._check_point(u)
    v = companion(u)
    w, cv = primary(v), companion(v)
    slack = space.slack(tol, v, w, cv)
    gap = float(space.distance(w, cv))
    if gap > slack:
        raise LiftMismatch(
            f"mappings disagree at the lifted point (gap {gap:.6g}); weak compatibility did not transfer"
        )
    worst = max(float(space.distance(w, v)), float(space.distance(cv, v)))
    if worst > slack:
        raise LiftMismatch(f"lifted point moves by {worst:.6g} and is not a common fixed point")
    return v


def require_lift_agreement(space: MetricSpace, z1: Point, z2: Point, *, tol: Optional[float] = None) -> Point:
    """Guard that two independently lifted points are the same point."""
    gap = float(space.distance(z1, z2))
    if gap > space.slack(tol, z1, z2):
        raise LiftDisagreement(f"lifted points differ by {gap:.6g}")
    return z1


class PipelineStatus(ValueEnum):
    COMMON_FIXED_POINT = "common_fixed_point"
    COINCIDENCE_ONLY = "coincidence_only"
    SOLVER_FAILED = "solver_failed"


@dataclass(frozen=True)
class PipelineOptions:
    """Knobs of :func:`solve_pipeline`.

    ``verify_hypotheses`` controls whether the contractive condition is
    checked up front; switching it off trades the certificate for speed
    and leaves hypothesis failures to surface as solver statuses or lift
    errors.  ``pair_source`` feeds only the condition check, and Euclidean
    spaces need a SampledPairs source for it; range inclusions are decided
    exactly without one.  ``stop_at_coincidence`` ends the pipeline at the
    coincidence point, before weak compatibility and the lift.
    """

    tol: Optional[float] = None
    max_iters: int = MAX_ITERS
    keep_trace: bool = False
    verify_hypotheses: bool = True
    pair_source: PairSource = EXHAUSTIVE
    stop_at_coincidence: bool = False


@dataclass(frozen=True)
class CoincidenceReport(Record):
    """Outcome of a reduction pipeline.

    ``point_of_coincidence`` is the shared value w = S(u) = T(u) = f(u);
    ``coincidence_points`` holds the pulled-back points u (one for three
    mappings, one per side for four).  ``common_fixed_point`` is set only
    when the lift succeeded; a weak-compatibility failure downgrades the
    status to COINCIDENCE_ONLY instead of erroring, since the coincidence
    part of the result still stands.
    """

    status: PipelineStatus
    arity: Arity
    tolerance: float
    stages: tuple[str, ...]
    common_fixed_point: Optional[object] = None
    point_of_coincidence: Optional[object] = None
    coincidence_points: tuple = ()
    solve_report: Optional[SolveReport] = None
    condition_report: Optional[ViolationReport] = None
    inclusion_report: Optional[InclusionReport] = None
    weak_compatibility: tuple[WeakCompatibility, ...] = ()
    scan: Optional[CoincidenceSolutions] = None

    @property
    def succeeded(self) -> bool:
        return self.status == PipelineStatus.COMMON_FIXED_POINT


def solve_pipeline(
    space: MetricSpace,
    maps: MappingSet,
    c: Coefficients,
    x0: Optional[Point] = None,
    options: PipelineOptions = PipelineOptions(),
) -> CoincidenceReport:
    """Common fixed point of a three- or four-mapping set via the induced pair.

    Verifies the range inclusions S(X) within f(X) and T(X) within g(X)
    (f again for three mappings, and f(X) = g(X) for four, so the induced
    pair acts on one shared space) and, unless opted out, the contractive
    condition.  It then solves the induced two-mapping problem from f(x0),
    pulls the solution back to a coincidence point per side, and lifts
    each through weak compatibility.  If a mapping fails to commute with
    its companion at a coincidence point the report degrades to
    COINCIDENCE_ONLY rather than erroring; ``options.stop_at_coincidence``
    stops there on purpose, skipping the lifts.  With four mappings the two
    lifts must agree; the guard raising LiftDisagreement is unreachable
    when the verified hypotheses actually hold, since both lifts name the
    unique common fixed point.
    """
    stages: list[str] = []

    with _stage("validate", stages):
        tol = space.slack(options.tol)
        if maps.arity == Arity.TWO:
            raise DomainError("the pipeline takes three or four mappings; solve two with picard_solve")
        maps.validate(space)
        if x0 is None:
            x0 = space.default_point()
        space._check_point(x0)

    with _stage("inclusions", stages):
        inclusion_report = _require_inclusions(space, maps, tol)

    condition_report = None
    if options.verify_hypotheses:
        with _stage("condition", stages):
            condition_report = check_condition(space, maps, c, options.pair_source, tol)
            if not condition_report.satisfied:
                raise ConditionViolated(
                    f"contractive condition fails at pair {condition_report.worst_pair} "
                    f"by {condition_report.worst_margin:.6g}",
                    report=condition_report,
                )

    with _stage("induce", stages):
        induced = induce(space, maps)

    with _stage("solve", stages):
        start = maps.f(x0)
        solve_report = picard_solve(
            space,
            induced.S,
            induced.T,
            c,
            start,
            tol=tol,
            max_iters=options.max_iters,
            keep_trace=options.keep_trace,
        )
    common = dict(
        arity=maps.arity,
        tolerance=tol,
        solve_report=solve_report,
        condition_report=condition_report,
        inclusion_report=inclusion_report,
    )
    if solve_report.status != SolveStatus.CONVERGED:
        return CoincidenceReport(status=PipelineStatus.SOLVER_FAILED, stages=tuple(stages), **common)
    # the solve's residual r leaves its point within r / (1 - k) of the limit,
    # and each mapping a later test compares can carry a point that far again
    solved_tol = tol + 2.0 * max(solve_report.residuals) / (1.0 - solve_report.rate)

    with _stage("coincidence", stages):
        w = space.materialize(solve_report.point)
        # one pulled-back point per side, each a coincidence point of its pair
        us = [section.pull_back(w) for section in (induced.section_s, induced.section_t)]
        for u, (_, m, _, companion) in zip(us, maps.sides):
            for h in (m, companion):
                hu = h(u)
                moved = float(space.distance(hu, w))
                if moved > space.slack(solved_tol, hu, w):
                    raise NonUniqueCoincidence(
                        f"pulled-back point is not a coincidence point: image moves by {moved:.6g}"
                    )
        scan = None
        if space.is_finite:
            scan = coincidence_points(space, maps)
            values_off = [v for v in scan.values if float(space.distance(space.materialize(v), w)) > space.slack(solved_tol)]
            if values_off:
                raise NonUniqueCoincidence(
                    f"coincidence values {sorted(set(values_off))} disagree with the solved value "
                    f"{space.canonicalize(w)}"
                )
        # sides sharing a companion share the section, so report its point once
        by_companion = {tag: u for u, (*_, tag, _) in zip(us, maps.sides)}
        common.update(
            point_of_coincidence=space.canonicalize(w),
            coincidence_points=tuple(space.canonicalize(u) for u in by_companion.values()),
            scan=scan,
        )

    if options.stop_at_coincidence:
        return CoincidenceReport(status=PipelineStatus.COINCIDENCE_ONLY, stages=tuple(stages), **common)

    with _stage("weak_compatibility", stages):
        compat = tuple(
            is_weakly_compatible(space, m, companion, names=(label, tag), tol=tol)
            for label, m, tag, companion in maps.sides
        )
        common.update(weak_compatibility=compat)
        if not all(wc.compatible for wc in compat):
            return CoincidenceReport(status=PipelineStatus.COINCIDENCE_ONLY, stages=tuple(stages), **common)

    with _stage("lift", stages):
        lifted = [
            lift_to_common_fixed_point(space, m, companion, u, tol=solved_tol)
            for u, (_, m, _, companion) in zip(us, maps.sides)
        ]
        z = require_lift_agreement(space, *lifted, tol=solved_tol)
        common.update(common_fixed_point=space.canonicalize(z))

    return CoincidenceReport(status=PipelineStatus.COMMON_FIXED_POINT, stages=tuple(stages), **common)


def solve_three(
    space: MetricSpace,
    S: Mapping,
    T: Mapping,
    f: Mapping,
    c: Coefficients,
    x0: Optional[Point] = None,
    options: PipelineOptions = PipelineOptions(),
) -> CoincidenceReport:
    """:func:`solve_pipeline` for the three mappings S, T, f."""
    return solve_pipeline(space, MappingSet(S=S, T=T, f=f, arity=Arity.THREE), c, x0, options)


def solve_three_coincidence(
    space: MetricSpace,
    S: Mapping,
    T: Mapping,
    f: Mapping,
    c: Coefficients,
    x0: Optional[Point] = None,
    options: PipelineOptions = PipelineOptions(),
) -> CoincidenceReport:
    """:func:`solve_three` stopping at the coincidence point, skipping the lift."""
    return solve_pipeline(space, MappingSet(S=S, T=T, f=f, arity=Arity.THREE), c, x0, replace(options, stop_at_coincidence=True))


def solve_four(
    space: MetricSpace,
    S: Mapping,
    T: Mapping,
    f: Mapping,
    g: Mapping,
    c: Coefficients,
    x0: Optional[Point] = None,
    options: PipelineOptions = PipelineOptions(),
) -> CoincidenceReport:
    """:func:`solve_pipeline` for the four mappings S, T, f, g, with f paired to S and g to T."""
    return solve_pipeline(space, MappingSet(S=S, T=T, f=f, g=g, arity=Arity.FOUR), c, x0, options)


def solve_four_coincidence(
    space: MetricSpace,
    S: Mapping,
    T: Mapping,
    f: Mapping,
    g: Mapping,
    c: Coefficients,
    x0: Optional[Point] = None,
    options: PipelineOptions = PipelineOptions(),
) -> CoincidenceReport:
    """:func:`solve_four` stopping at the coincidence points, skipping the lifts."""
    return solve_pipeline(space, MappingSet(S=S, T=T, f=f, g=g, arity=Arity.FOUR), c, x0, replace(options, stop_at_coincidence=True))
