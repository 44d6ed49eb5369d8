"""Contractive conditions for two, three, and four self-mappings.

The two-mapping condition bounds d(Sx, Ty) by

    alpha*d(x, Sx) + beta*d(y, Ty) + gamma*d(x, y)
    + delta*(d(y, Sx) + d(x, Ty))
    + L*min{d(x, Sx), d(y, Ty), d(y, Sx), d(x, Ty)}

with alpha, beta, gamma, delta in [0, 1), alpha + beta + gamma + 2*delta < 1
and L >= 0.  The three-mapping variant replaces x and y inside the distance
terms on the right-hand side by f(x) and f(y); the four-mapping variant uses
f(x) on the x side and g(y) on the y side.  ``MappingSet.rhs_maps`` names
that substitution once: ``(None, None)`` (the identity) for two mappings,
``(f, f)`` for three, ``(f, g)`` for four.

Every check runs the four-mapping form through one vectorized evaluator,
``_term_arrays``, over a batch of pairs: index arrays looked up in the
distance table on finite spaces, coordinate arrays compared by norm on
Euclidean ones.  The exhaustive grid is the same call with the index
column and row broadcast against each other, so substituting the identity
for f (or f for g) reproduces the lower-arity report exactly; its lookups
gather whole table rows, then columns.  Checks feed the batch to the
evaluator in row blocks of about ``BLOCK_PAIRS`` pairs, so their scratch
memory stays bounded at any table size.  ``check_condition`` picks the
named check that matches a mapping set's arity.  ``synthesize_coefficients``
solves its LPs by cutting planes, with a pass over the same blocks as the
separation step.

A check takes the lhs and only the terms with a nonzero coefficient, in
the order alpha, beta, gamma, delta, L: as in the paper, a zero
coefficient drops its term, so an overflowing term it multiplies leaves
no NaN behind (synthesis's LP rows take all five).  Without any term the
margin is the lhs itself.  A NaN margin outranks every number, and the
first NaN in pair order is the worst in any block layout.  And as the
paper gets three and four mappings from maps induced on f(X), G(f(x)) =
S(x), the condition reads x only through the key (S(x), f(x)) and y
through (T(y), g(y)): the exhaustive grid keeps the least x and the least
y of each key.  These ascend, so its first worst pair is the full grid's.
With two mappings the key is x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import partial, reduce
from typing import Optional, Union

import numpy as np

from .errors import (
    BoundViolation,
    DomainError,
    ExhaustiveOnInfinite,
    Infeasible,
    NonInvertibleMapping,
)
from .metric_core import MetricSpace, Point, sampling_box
from .records import Record, int_arg

EXHAUSTIVE = "exhaustive"

# pairs evaluated at once by a condition check; bounds its scratch memory
BLOCK_PAIRS = 1 << 16

# the same for Euclidean pairs, whose points are m-vectors: blocks this small
# keep a sampled check's coordinate arrays in cache and let the allocator
# reuse them from block to block, where 2**16-pair blocks (4 MiB arrays at
# m=8) were mapped in afresh, page by page, on every check
EUCLIDEAN_BLOCK_PAIRS = 1 << 11

# which of the terms t1..t5 to compute: by default all five
ALL_TERMS = (True,) * 5

# rows a cutting-plane pass of the coefficient LP takes from each block of pairs
CUT_ROWS = 16

# synthesized coefficients keep alpha + beta + gamma + 2*delta <= 1 - MARGIN
MARGIN = 0.05


@dataclass(frozen=True)
class Coefficients(Record):
    """A tuple (alpha, beta, gamma, delta, L) for the contractive conditions."""

    alpha: float
    beta: float
    gamma: float
    delta: float
    L: float = 0.0

    @property
    def weight_sum(self) -> float:
        """The constrained combination alpha + beta + gamma + 2*delta."""
        return self.alpha + self.beta + self.gamma + 2.0 * self.delta

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta, self.L)


def validate_coefficients(c: Coefficients) -> Coefficients:
    """Return ``c`` unchanged if it satisfies the coefficient bounds.

    Raises :class:`BoundViolation` naming the broken bound otherwise.  The
    boundary ``alpha + beta + gamma + 2*delta == 1`` is rejected: the rate
    constant would reach 1 and the convergence argument collapses.
    """
    for name in ("alpha", "beta", "gamma", "delta"):
        v = getattr(c, name)
        if not np.isfinite(v) or v < 0.0 or v >= 1.0:
            raise BoundViolation(f"{name}={v!r} must lie in [0, 1)")
    if not np.isfinite(c.L) or c.L < 0.0:
        raise BoundViolation(f"L={c.L!r} must be non-negative")
    if c.weight_sum >= 1.0:
        raise BoundViolation(
            f"alpha + beta + gamma + 2*delta = {c.weight_sum!r} must be strictly below 1"
        )
    return c


class Arity(IntEnum):
    TWO = 2
    THREE = 3
    FOUR = 4


@dataclass(frozen=True)
class TableMapping:
    """A self-map of a finite universe stored as an index table."""

    table: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.table)
        tab = np.array(raw, dtype=np.int64, copy=True)
        if tab.ndim != 1:
            raise DomainError(f"index table must be one-dimensional, got shape {tab.shape}")
        if not np.array_equal(tab, raw):
            raise DomainError("index table entries must be integers")
        tab.setflags(write=False)
        object.__setattr__(self, "table", tab)

    def __call__(self, x: int) -> int:
        return int(self.table[x])

    def __eq__(self, other):
        return isinstance(other, TableMapping) and np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash(self.table.tobytes())

    @property
    def n(self) -> int:
        return int(self.table.shape[0])

    def apply_many(self, xs: np.ndarray) -> np.ndarray:
        """Apply to an index array of any shape."""
        return self.table[xs]

    def image(self) -> np.ndarray:
        return np.unique(self.table)

    def compose(self, inner: "TableMapping") -> "TableMapping":
        """The composite self then inner-first: (self o inner)(x) = self(inner(x))."""
        return TableMapping(self.table[inner.table])

    def validate(self, space: MetricSpace) -> "TableMapping":
        if not space.is_finite:
            raise DomainError("index-table mappings apply to finite spaces only")
        if self.n != space.n:
            raise DomainError(f"mapping table has {self.n} entries for a universe of {space.n} points")
        if self.n and (self.table.min() < 0 or self.table.max() >= space.n):
            raise DomainError("mapping table references indices outside the universe")
        return self


def identity_mapping(n: int) -> TableMapping:
    return TableMapping(np.arange(n))


@dataclass(frozen=True)
class AffineMapping:
    """The affine self-map x -> matrix @ x + offset of a Euclidean space; every entry must be finite."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float, copy=True)
        off = np.array(self.offset, dtype=float, copy=True)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DomainError(f"affine matrix must be square, got shape {mat.shape}")
        if off.shape != (mat.shape[0],):
            raise DomainError(f"offset shape {off.shape} does not match matrix {mat.shape}")
        if not (np.isfinite(mat).all() and np.isfinite(off).all()):
            raise DomainError("affine matrix and offset entries must be finite")
        mat.setflags(write=False)
        off.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "offset", off)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=float) + self.offset

    def __eq__(self, other):
        return (
            isinstance(other, AffineMapping)
            and np.array_equal(self.matrix, other.matrix)
            and np.array_equal(self.offset, other.offset)
        )

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which == already equates
        return hash(((self.matrix + 0.0).tobytes(), (self.offset + 0.0).tobytes()))

    @property
    def dimension(self) -> int:
        return int(self.matrix.shape[0])

    def apply_many(self, pts: np.ndarray) -> np.ndarray:
        """Apply to a stack of points, shape (N, m) -> (N, m)."""
        return pts @ self.matrix.T + self.offset

    def inverse(self) -> "AffineMapping":
        """x -> matrix^-1 (x - offset); NonInvertibleMapping if the linear part is singular or its inverse overflows."""
        try:
            return _inverted(self, np.linalg.inv, "inverse")
        except np.linalg.LinAlgError as exc:
            raise NonInvertibleMapping(f"linear part is singular: {exc}") from exc

    def compose(self, inner: "AffineMapping") -> "AffineMapping":
        return AffineMapping(self.matrix @ inner.matrix, self.matrix @ inner.offset + self.offset)

    def validate(self, space: MetricSpace) -> "AffineMapping":
        if space.is_finite:
            raise DomainError("affine mappings apply to Euclidean spaces only")
        if self.dimension != space.dimension:
            raise DomainError(f"mapping dimension {self.dimension} does not match space dimension {space.dimension}")
        return self


def _inverted(m: AffineMapping, invert, name: str) -> AffineMapping:
    """x -> L (x - m.offset) for L = invert(m.matrix); NonInvertibleMapping, naming L the ``name``, if it overflows."""
    with np.errstate(all="ignore"):
        inv = invert(m.matrix)
        offset = -inv @ m.offset
    if not (np.isfinite(inv).all() and np.isfinite(offset).all()):
        raise NonInvertibleMapping(f"the {name} of the linear part overflows")
    return AffineMapping(inv, offset)


Mapping = Union[TableMapping, AffineMapping]


@dataclass(frozen=True)
class MappingSet:
    """The mappings of one problem: always S and T, plus f (and g) by arity."""

    S: Mapping
    T: Mapping
    f: Optional[Mapping] = None
    g: Optional[Mapping] = None
    arity: Arity = Arity.TWO

    def __post_init__(self):
        arity = Arity(self.arity)
        object.__setattr__(self, "arity", arity)
        if arity >= Arity.THREE and self.f is None:
            raise DomainError("three-mapping problems need f")
        if arity == Arity.FOUR and self.g is None:
            raise DomainError("four-mapping problems need g")
        if arity == Arity.TWO and (self.f is not None or self.g is not None):
            raise DomainError("two-mapping problems take only S and T")
        if arity == Arity.THREE and self.g is not None:
            raise DomainError("three-mapping problems take S, T, and f")

    def validate(self, space: MetricSpace) -> "MappingSet":
        for label, m in self.items():
            try:
                m.validate(space)
            except DomainError as exc:
                raise DomainError(f"mapping {label}: {exc}") from exc
        return self

    @property
    def sides(self) -> tuple[tuple[str, Mapping, Optional[str], Optional[Mapping]], ...]:
        """Both sides of the reduction as (label, mapping, companion label, companion).

        S pairs with f and T with g, or with f again for three mappings.  Two
        mappings have no companions: both are None, standing for the identity.
        """
        f = ("f", self.f) if self.f is not None else (None, None)
        g = ("g", self.g) if self.g is not None else f
        return ("S", self.S, *f), ("T", self.T, *g)

    @property
    def rhs_maps(self) -> tuple[Optional[Mapping], Optional[Mapping]]:
        """The (f, g) put in place of (x, y) on the right-hand side; None is the identity."""
        (*_, f), (*_, g) = self.sides
        return f, g

    def items(self):
        """(label, mapping) for S, T and whichever of f, g are present."""
        return [(label, m) for label, m in zip("STfg", (self.S, self.T, self.f, self.g)) if m is not None]


@dataclass(frozen=True)
class SampledPairs(Record):
    """A seeded uniform pair sampler.

    On Euclidean spaces points are drawn uniformly from the box
    ``[lo, hi]^m``; on finite spaces indices are drawn uniformly and ``box``
    is ignored.  The seed and box are echoed into every report produced
    from this source so runs can be reproduced.
    """

    samples: int
    seed: int
    box: Optional[tuple[float, float]] = None

    def __post_init__(self):
        for name in ("samples", "seed"):
            object.__setattr__(self, name, int_arg(name, getattr(self, name)))
        if self.samples < 1:
            raise DomainError(f"need at least one sample, got {self.samples}")
        if self.box is not None:
            object.__setattr__(self, "box", sampling_box(self.box))

    def draw_pairs(self, space: MetricSpace) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        if space.is_finite:
            pairs = rng.integers(0, space.n, size=(self.samples, 2))
            return pairs[:, 0], pairs[:, 1]
        if self.box is None:
            raise DomainError("sampling a Euclidean space needs a bounding box")
        lo, hi = sampling_box(self.box, space.dimension)
        pts = rng.uniform(lo, hi, size=(self.samples, 2, space.dimension))
        return pts[:, 0, :], pts[:, 1, :]


PairSource = Union[str, SampledPairs]


@dataclass(frozen=True)
class ViolationReport(Record):
    """Outcome of a condition check over a pair source.

    ``worst_pair`` maximizes lhs - rhs, where a NaN margin outranks every
    number; ties, NaN or not, resolve to the first pair in iteration order,
    which is the lexicographically smallest pair for exhaustive checks.
    ``satisfied`` means the worst margin stays within ``tolerance``, which
    a NaN never does.  ``pairs_checked`` counts the pairs covered: all n^2
    of an exhaustive check, though it evaluates one pair per pair of keys.
    """

    condition: str
    satisfied: bool
    worst_pair: tuple
    worst_margin: float
    pairs_checked: int
    mode: str
    tolerance: float
    seed: Optional[int] = None
    box: Optional[tuple[float, float]] = None


def _scalar_terms(space: MetricSpace, S, T, f, g, x: Point, y: Point):
    """Distance terms of the condition at one pair, with substitutions applied."""
    fx = f(x) if f is not None else x
    gy = g(y) if g is not None else (f(y) if f is not None else y)
    Sx = S(x)
    Ty = T(y)
    d = space.distance
    t1 = d(fx, Sx)
    t2 = d(gy, Ty)
    t3 = d(fx, gy)
    u1 = d(gy, Sx)
    u2 = d(fx, Ty)
    t5 = min(t1, t2, u1, u2)
    return d(Sx, Ty), t1, t2, t3, u1 + u2, t5


def _rhs(c: Coefficients, terms) -> float:
    _, t1, t2, t3, t4, t5 = terms
    return c.alpha * t1 + c.beta * t2 + c.gamma * t3 + c.delta * t4 + c.L * t5


def rhs_two(c: Coefficients, space: MetricSpace, S, T, x: Point, y: Point) -> float:
    """Right-hand side of the two-mapping condition at the pair (x, y)."""
    return _rhs(c, _scalar_terms(space, S, T, None, None, x, y))


def rhs_three(c: Coefficients, space: MetricSpace, S, T, f, x: Point, y: Point) -> float:
    """Right-hand side of the three-mapping condition (f substituted on both sides)."""
    return _rhs(c, _scalar_terms(space, S, T, f, f, x, y))


def rhs_four(c: Coefficients, space: MetricSpace, S, T, f, g, x: Point, y: Point) -> float:
    """Right-hand side of the four-mapping condition (f on the x side, g on the y side)."""
    return _rhs(c, _scalar_terms(space, S, T, f, g, x, y))


def _pair_batch(space: MetricSpace, pair_source, maps: Optional[MappingSet] = None) -> tuple[np.ndarray, np.ndarray]:
    """Points (xs, ys) of the pairs a source names; they broadcast to the batch shape.

    The exhaustive grid is the index column against the index row, so its
    flat order is the lexicographic pair order.  Given validated ``maps``
    of three or four mappings, the column keeps only the least x of each
    key (S(x), f(x)) and the row the least y of each key (T(y), g(y)).
    """
    if pair_source == EXHAUSTIVE or pair_source is None:
        if not space.is_finite:
            raise ExhaustiveOnInfinite("exhaustive pair enumeration needs a finite space; supply a sampler")
        rows = cols = np.arange(space.n)
        if maps is not None and maps.arity > Arity.TWO:
            # key (m(x), comp(x)) as m(x) * n + comp(x): the tables hold indices below n
            keys = (m.table * space.n + comp.table for _, m, _, comp in maps.sides)
            rows, cols = (np.sort(np.unique(k, return_index=True)[1]) for k in keys)
        return rows[:, None], cols[None, :]
    if not isinstance(pair_source, SampledPairs):
        raise DomainError(f"unknown pair source {pair_source!r}")
    return pair_source.draw_pairs(space)


def _term_arrays(space: MetricSpace, S, T, f, g, xs: np.ndarray, ys: np.ndarray, wanted=ALL_TERMS):
    """Vectorized condition terms at a batch of pairs, in :func:`_scalar_terms` order.

    Finite points are index arrays and distances are table lookups;
    Euclidean points carry coordinates on the last axis and distances are
    norms.  ``f`` or ``g`` None stands for the identity.  Terms that depend
    on one side only keep that side's shape and broadcast against the rest.
    Of t1..t5 only those ``wanted`` are computed; the others are None.
    """
    if space.is_finite:
        D = space.table

        def dist(u, v):
            # an exhaustive block is an index column against an index row:
            # gathering whole rows (or columns) and then the other axis beats
            # scattered lookups, and the result is the same table entries
            if u.ndim == v.ndim == 2 and u.shape[1] == 1 and v.shape[0] == 1:
                return D[u[:, 0]][:, v[0]]
            if u.ndim == v.ndim == 2 and u.shape[0] == 1 and v.shape[1] == 1:
                return D[:, v[:, 0]][u[0]].T
            return D[u, v]

    else:

        def dist(u, v):
            return np.linalg.norm(u - v, axis=-1)

    Sx = S.apply_many(xs)
    Ty = T.apply_many(ys)
    fx = f.apply_many(xs) if f is not None else xs
    gy = g.apply_many(ys) if g is not None else ys
    alpha, beta, gamma, delta, L = wanted
    # t5 is the least of t1, t2, u1 and u2, so L needs all four
    t1 = dist(fx, Sx) if alpha or L else None
    t2 = dist(gy, Ty) if beta or L else None
    u1, u2 = (dist(gy, Sx), dist(fx, Ty)) if delta or L else (None, None)
    t5 = np.minimum(np.minimum(t1, t2), np.minimum(u1, u2)) if L else None
    t3 = dist(fx, gy) if gamma else None
    t4 = u1 + u2 if delta else None
    return dist(Sx, Ty), t1 if alpha else None, t2 if beta else None, t3, t4, t5


def _pair_at(space: MetricSpace, xs: np.ndarray, ys: np.ndarray, shape: tuple, flat: int) -> tuple:
    """Canonical form of the pair at flat index ``flat`` of a batch of ``shape``."""
    idx = np.unravel_index(flat, shape)

    def point(pts):
        return space.canonicalize(np.broadcast_to(pts, shape + pts.shape[len(shape):])[idx])

    return point(xs), point(ys)


def _row_blocks(space: MetricSpace, xs: np.ndarray, ys: np.ndarray):
    """Slices of a pair batch along its first axis, about ``BLOCK_PAIRS`` pairs each.

    Euclidean batches take ``EUCLIDEAN_BLOCK_PAIRS`` pairs per slice instead.

    Points that span the batch's rows are sliced; the exhaustive grid's
    index row is shared by every block.  The blocks' flat orders, one after
    another, are the batch's flat order.
    """
    shape = np.broadcast_shapes(xs.shape, ys.shape)[: None if space.is_finite else -1]
    rows = shape[0]
    block = BLOCK_PAIRS if space.is_finite else EUCLIDEAN_BLOCK_PAIRS
    step = max(1, block * rows // math.prod(shape))
    for r0 in range(0, rows, step):
        yield tuple(p[r0 : r0 + step] if len(p) == rows else p for p in (xs, ys))


def _margins(space: MetricSpace, S, T, f, g, batch, coefs, scale: float = 1.0, wanted=ALL_TERMS):
    """(xs, ys, margin, need, terms) for each row block of a pair batch.

    ``need`` is ``scale * lhs`` and the margin is ``need`` minus the
    right-hand side at ``coefs``: alpha*t1 + beta*t2 + gamma*t3 + delta*t4
    + L*t5, with ``terms`` t1..t5, summed in that order over the terms
    :func:`_term_arrays` computed as ``wanted``; the others are None.
    """
    for xs, ys in _row_blocks(space, *batch):
        lhs, *terms = _term_arrays(space, S, T, f, g, xs, ys, wanted)
        need = lhs if scale == 1.0 else scale * lhs
        products = [coef * t for coef, t in zip(coefs, terms) if t is not None]
        margin = need - reduce(np.add, products) if products else need
        yield xs, ys, margin, need, terms


def _worst(margins):
    """The worst margin, where it sits as ``(xs, ys, shape, flat)``, and the pair count.

    A NaN margin outranks every number; ties, NaN or not, go to the first
    pair in the batch's flat order.
    """
    worst, at, count = None, None, 0
    for xs, ys, margin, *_ in margins:
        # argmax finds a block's first NaN, if it holds one
        flat = int(np.argmax(margin))
        # a NaN worst stays; NaN or more replaces a number, strictly: on a tie the earlier block keeps the worst pair
        if worst is None or not (math.isnan(worst) or margin.flat[flat] <= worst):
            worst, at = float(margin.flat[flat]), (xs, ys, margin.shape, flat)
        count += margin.size
    return worst, at, count


def _evaluate_condition(space, maps: MappingSet, c, pair_source, tolerance) -> ViolationReport:
    maps.validate(space)
    c = validate_coefficients(c)
    tolerance = space.slack(tolerance)
    coefs = c.as_tuple()
    wanted = tuple(v != 0.0 for v in coefs)
    batch = _pair_batch(space, pair_source, maps)
    worst, at, count = _worst(_margins(space, maps.S, maps.T, *maps.rhs_maps, batch, coefs, wanted=wanted))
    pair = _pair_at(space, *at)
    sampled = isinstance(pair_source, SampledPairs)
    return ViolationReport(
        condition=maps.arity.name.lower(),
        satisfied=bool(worst <= tolerance),
        worst_pair=pair,
        worst_margin=worst,
        pairs_checked=count if sampled else space.n**2,
        mode="sampled" if sampled else "exhaustive",
        tolerance=float(tolerance),
        seed=pair_source.seed if sampled else None,
        box=pair_source.box if sampled else None,
    )


def check_condition_two(
    space: MetricSpace,
    S: Mapping,
    T: Mapping,
    c: Coefficients,
    pair_source: PairSource = EXHAUSTIVE,
    tolerance: Optional[float] = None,
) -> ViolationReport:
    """Check the two-mapping condition over the pair source (``tolerance`` per ``space.slack``)."""
    return _evaluate_condition(space, MappingSet(S, T), c, pair_source, tolerance)


def check_condition_three(
    space: MetricSpace,
    S: Mapping,
    T: Mapping,
    f: Mapping,
    c: Coefficients,
    pair_source: PairSource = EXHAUSTIVE,
    tolerance: Optional[float] = None,
) -> ViolationReport:
    """Check the three-mapping condition: f(x), f(y) replace x, y on the right."""
    return _evaluate_condition(space, MappingSet(S, T, f, arity=Arity.THREE), c, pair_source, tolerance)


def check_condition_four(
    space: MetricSpace,
    S: Mapping,
    T: Mapping,
    f: Mapping,
    g: Mapping,
    c: Coefficients,
    pair_source: PairSource = EXHAUSTIVE,
    tolerance: Optional[float] = None,
) -> ViolationReport:
    """Check the four-mapping condition: f(x) on the x side, g(y) on the y side."""
    return _evaluate_condition(space, MappingSet(S, T, f, g, arity=Arity.FOUR), c, pair_source, tolerance)


def check_condition(
    space: MetricSpace,
    maps: MappingSet,
    c: Coefficients,
    pair_source: PairSource = EXHAUSTIVE,
    tolerance: Optional[float] = None,
) -> ViolationReport:
    """Check the condition matching ``maps.arity`` through its named check."""
    if maps.arity == Arity.TWO:
        return check_condition_two(space, maps.S, maps.T, c, pair_source, tolerance)
    if maps.arity == Arity.THREE:
        return check_condition_three(space, maps.S, maps.T, maps.f, c, pair_source, tolerance)
    return check_condition_four(space, maps.S, maps.T, maps.f, maps.g, c, pair_source, tolerance)


@dataclass(frozen=True)
class InclusionCheck(Record):
    description: str
    holds: bool
    witness: Optional[object]


@dataclass(frozen=True)
class InclusionReport(Record):
    checks: tuple[InclusionCheck, ...]
    mode: str

    @property
    def holds(self) -> bool:
        return all(c.holds for c in self.checks)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "holds": self.holds}


def _finite_inclusion(inner: TableMapping, outer: TableMapping, desc: str) -> InclusionCheck:
    """Does inner(X) lie inside outer(X)?  Witness: the first x whose image escapes."""
    escaped = np.flatnonzero(~np.isin(inner.table, outer.table))
    return InclusionCheck(desc, not escaped.size, int(escaped[0]) if escaped.size else None)


def _affine_inclusion(inner: AffineMapping, outer: AffineMapping, desc: str, *, tol: float) -> InclusionCheck:
    """Exact test of inner(X) within outer(X): the offset gap and every column
    of inner's matrix must lie in the column space of outer's.

    A vector counts as inside when the part the SVD projection misses is at
    most ``tol`` times the size of its operands, which absorbs rounding at
    any coordinate scale.  Witness: the origin if the offset escapes, else
    the unit vector of the first escaping column.
    """
    u, s, _ = np.linalg.svd(outer.matrix)
    basis = u[:, s > s[0] * s.size * np.finfo(float).eps]
    vectors = np.column_stack([inner.offset - outer.offset, inner.matrix])
    missed = np.linalg.norm(vectors - basis @ (basis.T @ vectors), axis=0)
    scale = np.linalg.norm(vectors, axis=0)
    scale[0] = np.linalg.norm(inner.offset) + np.linalg.norm(outer.offset)
    escaped = np.flatnonzero(missed > tol * scale)
    if not escaped.size:
        return InclusionCheck(desc, True, None)
    witness = np.zeros(inner.dimension)
    if escaped[0]:
        witness[escaped[0] - 1] = 1.0
    return InclusionCheck(desc, False, tuple(float(v) for v in witness))


def check_range_inclusions(
    space: MetricSpace,
    maps: MappingSet,
    tolerance: Optional[float] = None,
) -> InclusionReport:
    """Verify the image inclusions the reduction pipelines rely on.

    Each mapping's image must lie inside its companion's (``maps.sides``),
    and with four mappings f(X) must equal g(X).  Both flavors are decided
    exactly: finite images as index sets, affine ones by
    :func:`_affine_inclusion` with ``tolerance`` as its relative slack.
    """
    maps.validate(space)
    tolerance = space.slack(tolerance)
    within = _finite_inclusion if space.is_finite else partial(_affine_inclusion, tol=tolerance)
    checks = [within(m, comp, f"{label}(X) within {tag}(X)") for label, m, tag, comp in maps.sides if comp is not None]
    (*_, f_tag, f), (*_, g_tag, g) = maps.sides
    if f_tag != g_tag:
        # distinct companions: the induced pair needs their images to match
        if space.is_finite:
            diff = np.setxor1d(f.table, g.table)
            checks.append(InclusionCheck("f(X) equals g(X)", not diff.size, int(diff[0]) if diff.size else None))
        else:
            checks += [within(f, g, "f(X) within g(X)"), within(g, f, "g(X) within f(X)")]
    return InclusionReport(checks=tuple(checks), mode="exhaustive" if space.is_finite else "exact")


def synthesize_coefficients(
    space: MetricSpace,
    maps: MappingSet,
    pair_source: PairSource = EXHAUSTIVE,
) -> Coefficients:
    """Find coefficients making the arity-matched condition hold on the source.

    Solves a linear feasibility problem in (alpha, beta, gamma, delta, L):
    one covering constraint per pair plus the weight-sum budget
    alpha + beta + gamma + 2*delta <= 1 - ``MARGIN``.  A first elastic
    solve measures feasibility and identifies the most binding pair; a
    second solve picks the smallest feasible tuple by coefficient sum.
    Sampled sources get a relative cushion, (1 + 0.02) * lhs <= rhs, that
    makes their certificates robust off-sample; exhaustive ones get none.
    The returned tuple is re-verified with the matching check at
    ``space.slack()`` before being handed back; failure to re-verify raises
    :class:`Infeasible` like any other infeasibility, with the most binding
    pair attached.

    Both solves are cutting-plane loops (Kelley's method): the LP is solved
    on a small working set of pair rows, seeded with the rows of largest
    lhs, and a pass over every pair adds each block's ``CUT_ROWS`` most
    violated rows until no pair's shortfall exceeds the solve's optimum by
    more than ``space.slack()``.  The working-set optimum is then feasible for
    the LP over all pairs, hence optimal for it, and no dense
    (pairs x 5) matrix is ever built.
    """
    from scipy.optimize import linprog

    maps.validate(space)
    cushion = 0.0 if (pair_source == EXHAUSTIVE or pair_source is None) else 0.02
    tolerance = space.slack()

    # shortfalls this close to the worst are ties: the solve is no more exact than that
    ties = max(tolerance, 1e-9)
    f, g = maps.rhs_maps
    batch = _pair_batch(space, pair_source)

    def margins(coefs):
        return _margins(space, maps.S, maps.T, f, g, batch, coefs, 1.0 + cushion)

    def cuts(coefs, above):
        """Each block's ``CUT_ROWS`` largest-margin rows [t1, .., t5, need] with margin above ``above``."""
        for _, _, margin, need, terms in margins(coefs):
            m = margin.reshape(-1)
            top = np.argpartition(m, -CUT_ROWS)[-CUT_ROWS:] if m.size > CUT_ROWS else np.arange(m.size)
            idx = np.unravel_index(top[m[top] > above], margin.shape)
            yield np.column_stack([np.broadcast_to(t, margin.shape)[idx] for t in (*terms, need)])

    def most_binding(coefs):
        """The first pair within ``ties`` of the worst shortfall, or the first NaN one; the worst; the pair count."""
        worst, _, count = _worst(margins(coefs))
        for xs, ys, margin, *_ in margins(coefs):
            hits = np.flatnonzero(np.isnan(margin) | (margin >= worst - ties))
            if hits.size:
                return _pair_at(space, xs, ys, margin.shape, int(hits[0])), worst, count

    budget_row = np.array([1.0, 1.0, 1.0, 2.0, 0.0])
    bounds = [(0.0, 1.0)] * 4 + [(0.0, None), (-1.0, None)]

    def phase1(rows):
        # minimize the elastic excess s with  need - A@coefs <= s
        A_ub = np.vstack([np.column_stack([-rows[:, :5], -np.ones(len(rows))]), np.append(budget_row, 0.0)])
        b_ub = np.append(-rows[:, 5], 1.0 - MARGIN)
        return linprog(c=np.array([0, 0, 0, 0, 0, 1.0]), A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")

    def phase2(rows):
        # smallest feasible tuple by coefficient sum
        A_ub = np.vstack([-rows[:, :5], budget_row])
        b_ub = np.append(-rows[:, 5], 1.0 - MARGIN)
        return linprog(c=np.ones(5), A_ub=A_ub, b_ub=b_ub, bounds=bounds[:5], method="highs")

    def cutting_plane(solve, rows, bound):
        """Solve on the working set ``rows`` ([A | need]) until a pass over all pairs adds no new row."""
        while True:
            res = solve(rows)
            if not res.success:
                return res, rows
            grown = np.unique(np.vstack([rows, *cuts(res.x[:5], bound(res) + tolerance)]), axis=0)
            if len(grown) == len(rows):
                return res, rows
            rows = grown

    largest_lhs = np.unique(np.vstack(list(cuts(np.zeros(5), -np.inf))), axis=0)
    res, rows = cutting_plane(phase1, largest_lhs, lambda r: r.x[-1])
    if not res.success:
        raise Infeasible("feasibility solve failed", binding_pair=None, margin=MARGIN)
    if res.x[-1] > ties:
        pair, excess, count = most_binding(res.x[:5])
        raise Infeasible(
            f"no coefficient tuple covers all {count} pairs; most binding pair {pair} lacks {excess:.6g}",
            binding_pair=pair,
            margin=MARGIN,
        )

    res2, _ = cutting_plane(phase2, rows, lambda r: 0.0)
    attempt = res2.x if res2.success else res.x[:5]
    for bump in (0.0, tolerance, 16.0 * tolerance):
        coefs = np.maximum(np.asarray(attempt, dtype=float), 0.0)
        if bump:
            coefs = np.minimum(coefs * (1.0 + bump) + bump, [0.999, 0.999, 0.999, 0.499, np.inf])
            if budget_row @ coefs >= 1.0 - MARGIN / 2.0:
                continue
        candidate = validate_coefficients(Coefficients(*[float(v) for v in coefs]))
        report = check_condition(space, maps, candidate, pair_source, tolerance)
        if report.satisfied:
            return candidate
    pair, excess, _ = most_binding(np.maximum(np.asarray(attempt, dtype=float), 0.0))
    raise Infeasible(
        f"solved tuple failed re-verification; most binding pair {pair} lacks {excess:.6g}",
        binding_pair=pair,
        margin=MARGIN,
    )
