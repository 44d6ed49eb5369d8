"""Contractive conditions for two, three, and four self-mappings.

The two-mapping condition bounds d(Sx, Ty) by

    alpha*d(x, Sx) + beta*d(y, Ty) + gamma*d(x, y)
    + delta*(d(y, Sx) + d(x, Ty))
    + L*min{d(x, Sx), d(y, Ty), d(y, Sx), d(x, Ty)}

with alpha, beta, gamma, delta in [0, 1), alpha + beta + gamma + 2*delta < 1
and L >= 0.  The three-mapping variant replaces x and y inside the distance
terms on the right-hand side by f(x) and f(y); the four-mapping variant uses
f(x) on the x side and g(y) on the y side.  ``MappingSet.sides`` names
that substitution once, as each side's companion: None (the identity) on
both sides for two mappings, f on both for three, f and g for four.

Every check runs the four-mapping form through one vectorized evaluator,
``_term_arrays``, over a batch of pairs: index arrays looked up in the distance
table on finite spaces; on Euclidean ones, norms built one coordinate column at
a time, their squares summed in ``np.linalg.norm``'s order (``_column_sum``).
The exhaustive grid is the same call with the index column and row broadcast
against each other, so substituting the identity for f (or f for g) reproduces
the lower-arity report exactly; its lookups read an ascending run of
consecutive indices as a table slice, and otherwise gather the whole table
rows or columns of the smaller index set, then the other axis.  Checks feed
the batch to the evaluator in row blocks of about ``BLOCK_PAIRS`` pairs, so
their scratch memory stays bounded at any table size.  ``check_condition`` picks the named
check that matches a mapping set's arity.  ``synthesize_coefficients`` solves
its one LP twice by cutting planes, with a pass over the same blocks as the separation step.

A check takes the lhs and only the terms with a nonzero coefficient, in
the order alpha, beta, gamma, delta, L, and so do the scalar ``rhs_*``: as
in the paper, a zero coefficient drops its term, so an overflowing term it
multiplies leaves no NaN behind (synthesis's LP rows take all five).  An
overflow is a value, not a warning: each check and each synthesis runs
under one ``np.errstate``.  Without any term the margin is the lhs itself.
A NaN margin outranks every number, and the first NaN in pair order is
the worst in any block layout.  And as the
paper gets three and four mappings from maps induced on f(X), G(f(x)) =
S(x), the condition reads x only through the key (S(x), f(x)) and y
through (T(y), g(y)): the exhaustive grid keeps the least x and the least
y of each key.  These ascend, so its first worst pair is the full grid's.
With two mappings the key is x.

Bound first.  Every coefficient is >= 0, and on a table without negative
entries so is every term.  The margin is M = need - ((((p1 + p2) + p3) +
p4) + p5) over the products p = coefficient * term that it takes, and
rounding is monotone: adding p4 or p5 in [0, inf] never lowers a rounded
sum, and subtracting a larger sum never raises the difference.  So P =
need - ((p1 + p2) + p3), without the delta and L products, is an upper
bound, M <= P, exactly in floating point; where P is NaN or +inf, M may be
anything.  The exhaustive check (``_worst``) evaluates its first block in
full, then gathers the delta and L terms only at the pairs where ``not (P <
worst)``, worst the running worst: that keeps NaN and ties.  Every other
pair keeps its P, strictly below the worst, so it can never become the
worst, and the report is the one of the full evaluation byte for byte.  A
table with a negative entry (``MetricSpace.nonnegative``, recorded when
the table is built) turns the bound off, as does a Euclidean batch;
synthesis's cut pass takes all five terms at every pair.  On an n=2500
arity-4 anchor instance the delta and L terms then reach about 0.1% of the
pairs after the first block.

One triangle.  When S == T, both sides share a companion h (the identity,
or f == g), alpha == beta and the table is exactly symmetric
(``MetricSpace.symmetric``), the pair (y, x) reads the terms of (x, y)
with t1 and t2 swapped and u1 and u2 swapped, and every other distance
mirrored: d(Sy, Sx) = d(Sx, Sy), d(hy, hx) = d(hx, hy).  Since alpha*t1 +
beta*t2 and u1 + u2 are the same IEEE sums either way round, the mirror's
margin equals the pair's, or both are NaN; a signed zero may differ, which
no comparison sees.  The keyed grid has the same keys on both sides, so it
is square.  Its first worst pair in flat order then lies on or above the
diagonal: one below it would have an equal mirror in an earlier row.  So
the exhaustive check (``_mirrored``) evaluates row blocks [r0, r1) against
the columns [r0, n) only, about half the pairs, and reports the same worst
pair and margin, bit for bit, as the full grid; ``pairs_checked`` still
counts all n^2.  Synthesis keeps the full grid: its LP rows see t1 and t2
apart.
"""

from __future__ import annotations

import math
import operator
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
from .metric_core import BLOCK_PAIRS, MetricSpace, Point, sampling_box
from .records import ArrayEq, Record, int_arg, real_arg

EXHAUSTIVE = "exhaustive"

# pairs evaluated at once by a condition check, which bound its scratch memory: BLOCK_PAIRS on a
# table, and this many on Euclidean pairs, whose points are m-vectors.  Blocks this small
# keep a sampled check's coordinate arrays in cache and let the allocator
# reuse them from block to block, where 2**16-pair blocks (4 MiB arrays at
# m=8) were mapped in afresh, page by page, on every check
EUCLIDEAN_BLOCK_PAIRS = 1 << 11

# rows of a block of the upper-half grid at most: the pairs it evaluates below
# the diagonal, about rows^2 / 2, stay few against the n * rows of the block
UPPER_BLOCK_ROWS = 64

# AffineMapping.apply_many adds the offset column by column up to this dimension, in one broadcast add
# above it: a broadcast row runs an m-long inner loop per point, which costs more than m column passes
# while m is small.  Per 2,048-point block with the matmul (2-CPU x86-64, numpy 2.4), column/broadcast:
# 9/16 us at m=2, 15/18 at m=4, 19/19 at m=5, 39/21 at m=8.  Either way each entry takes the same IEEE add.
OFFSET_COLUMNS = 4

# which of the terms t1..t5 to compute: by default all five
ALL_TERMS = (True,) * 5

# rows a cutting-plane pass of the coefficient LP takes from each block of pairs
CUT_ROWS = 16

# synthesized coefficients keep alpha + beta + gamma + 2*delta <= 1 - MARGIN
MARGIN = 0.05


@dataclass(frozen=True)
class Coefficients(Record):
    """A tuple (alpha, beta, gamma, delta, L) of floats for the contractive conditions.

    A field that is no number raises DomainError naming it; a tuple out of bounds raises BoundViolation.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    L: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta", "L"):
            object.__setattr__(self, name, real_arg(name, getattr(self, name)))
        validate_coefficients(self)

    @property
    def weight_sum(self) -> float:
        """The constrained combination alpha + beta + gamma + 2*delta."""
        return self.alpha + self.beta + self.gamma + 2.0 * self.delta

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta, self.L)


def validate_coefficients(c: Coefficients) -> Coefficients:
    """Return ``c`` unchanged if it satisfies the coefficient bounds; unexported, ``perfbench``'s bound check.

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


@dataclass(frozen=True, eq=False)
class TableMapping(ArrayEq):
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


@dataclass(frozen=True, eq=False)
class AffineMapping(ArrayEq):
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
        # the transpose as a C-contiguous copy, not a field: gemm runs faster on it, with equal products
        mt = np.ascontiguousarray(mat.T)
        for name, arr in (("matrix", mat), ("offset", off), ("_mt", mt)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=float) + self.offset

    @property
    def dimension(self) -> int:
        return int(self.matrix.shape[0])

    def apply_many(self, pts: np.ndarray) -> np.ndarray:
        """Apply to a stack of points, shape (N, m) -> (N, m): ``pts @ matrix.T + offset``, bit for bit."""
        # gemm sums alike over either layout of the matrix, gemv (numpy's way with one row) does not
        out = pts @ (self._mt if pts.ndim == 2 and len(pts) > 1 else self.matrix.T)
        if self.dimension > OFFSET_COLUMNS:
            out += self.offset
        else:
            for j, b in enumerate(self.offset):
                out[..., j] += b
        return out

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


def _validate_labelled(space: MetricSpace, labelled) -> None:
    """Validate each (label, mapping) against ``space``; DomainError("mapping <label>: ...") names the first misfit."""
    for label, m in labelled:
        try:
            m.validate(space)
        except DomainError as exc:
            raise DomainError(f"mapping {label}: {exc}") from exc


@dataclass(frozen=True)
class MappingSet:
    """The mappings of one problem: an arity-k set holds exactly the first k of S, T, f and g."""

    S: Mapping
    T: Mapping
    f: Optional[Mapping] = None
    g: Optional[Mapping] = None
    arity: Arity = Arity.TWO

    def __post_init__(self):
        arity = Arity(self.arity)
        object.__setattr__(self, "arity", arity)
        if any((m is None) != (i >= arity) for i, m in enumerate((self.S, self.T, self.f, self.g))):
            raise DomainError(f"{arity.name.lower()}-mapping problems take {', '.join('STfg'[:arity])}")

    def validate(self, space: MetricSpace) -> "MappingSet":
        _validate_labelled(space, self.items())
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

    def items(self):
        """(label, mapping) for S, T and whichever of f, g are present."""
        return [(label, m) for label, m in zip("STfg", (self.S, self.T, self.f, self.g)) if m is not None]


@dataclass(frozen=True)
class SampledPairs(Record):
    """A seeded uniform pair sampler.

    On Euclidean spaces points are drawn uniformly from the box
    ``[lo, hi]^m``; on finite spaces indices are drawn uniformly and ``box``
    is ignored.  The seed and box are echoed into every report produced
    from this source so runs can be reproduced.  Integers ``samples`` >= 1
    and ``seed`` >= 0 and numbers lo < hi in ``box`` are required, or DomainError.
    """

    samples: int
    seed: int
    box: Optional[tuple[float, float]] = None

    def __post_init__(self):
        for name, least in (("samples", 1), ("seed", 0)):
            object.__setattr__(self, name, int_arg(name, getattr(self, name), least))
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
    gy = g(y) if g is not None else y
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
    # alpha*t1 + .. + L*t5 left to right over the nonzero coefficients, as a check takes them: 0 * inf is no NaN
    return reduce(operator.add, (coef * t for coef, t in zip(c.as_tuple(), terms[1:]) if coef != 0.0), 0.0)


def rhs_two(c: Coefficients, space: MetricSpace, S, T, x: Point, y: Point) -> float:
    """Right-hand side of the two-mapping condition at (x, y); unexported, ``perfbench``'s scalar reference."""
    return _rhs(c, _scalar_terms(space, S, T, None, None, x, y))


def rhs_three(c: Coefficients, space: MetricSpace, S, T, f, x: Point, y: Point) -> float:
    """Right-hand side of the three-mapping condition (f on both sides); unexported, ``perfbench``'s scalar reference."""
    return _rhs(c, _scalar_terms(space, S, T, f, f, x, y))


def rhs_four(c: Coefficients, space: MetricSpace, S, T, f, g, x: Point, y: Point) -> float:
    """Right-hand side of the four-mapping condition (f on x's side, g on y's); unexported, ``perfbench``'s reference."""
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


def _column_sum(cols: list) -> np.ndarray:
    """``np.add.reduce(np.stack(cols, axis=-1), axis=-1)`` bit for bit, from the columns.

    numpy adds ``pairwise_sum`` (numpy/_core/src/umath/loops_utils.h.src; Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., §4.2) to 0.0: fewer than 8 terms left to right, up to 128 in 8 lanes
    r_j = a_j + a_{j+8} + ..., then ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and the leftover terms
    one by one, more as two halves split at a multiple of 8.  Wherever the 0.0 enters, it only turns -0.0 into 0.0.
    """
    n = len(cols)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _column_sum(cols[:half]) + _column_sum(cols[half:])
    if n < 8:
        return reduce(np.add, cols, 0.0)
    r = [reduce(np.add, cols[j : n - n % 8 : 8]) for j in range(8)]
    return reduce(np.add, cols[n - n % 8 :], 0.0 + ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))


def _run(idx: np.ndarray) -> Optional[slice]:
    """The slice of an ascending run of consecutive indices, or None for any other index array."""
    if len(idx) and idx[-1] - idx[0] == len(idx) - 1 and (np.diff(idx) == 1).all():
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return None


def _term_arrays(space: MetricSpace, maps: MappingSet, xs: np.ndarray, ys: np.ndarray, wanted=ALL_TERMS):
    """Vectorized condition terms at a batch of pairs, in :func:`_scalar_terms` order.

    ``maps.sides`` puts f(x) and g(y) in place of x and y, a None companion
    the identity.  Finite points are index arrays and distances are table
    lookups; Euclidean points carry coordinates on the last axis and
    distances are norms.  Terms that depend on one side only keep that
    side's shape and broadcast against the rest; a term may be a read-only
    view of the table.  Of t1..t5 only those ``wanted`` are computed, the
    others are None; so are f(x) and g(y).
    """
    if space.is_finite:
        D = space.table

        def dist(u, v):
            # an exhaustive block is an index column against an index row: an
            # ascending run of consecutive indices reads the table through a
            # slice, with no gather, and through a view alone where both are;
            # else gathering the smaller index set's whole rows (or columns),
            # then the other axis, beats scattered lookups and copies at most n
            # entries per index of the smaller set
            if u.ndim == v.ndim == 2 and u.shape[1] == 1 and v.shape[0] == 1:
                r, c = u[:, 0], v[0]
                rs, cs = _run(r), _run(c)
                if rs is not None or cs is not None:
                    return D[r if rs is None else rs, c if cs is None else cs]
                return D[r][:, c] if len(r) <= len(c) else D[:, c][r]
            if u.ndim == v.ndim == 2 and u.shape[0] == 1 and v.shape[1] == 1:
                return dist(u.T, v.T).T
            return D[u, v]

    else:

        def dist(u, v):
            # np.linalg.norm(u - v, axis=-1) bit for bit, one coordinate column at a time
            cols = [u[..., j] - v[..., j] for j in range(u.shape[-1])]
            for c in cols:
                c *= c
            return np.sqrt(_column_sum(cols))

    (_, S, _, f), (_, T, _, g) = maps.sides
    alpha, beta, gamma, delta, L = wanted
    Sx = S.apply_many(xs)
    Ty = T.apply_many(ys)
    # alpha, gamma, delta and L read f(x); beta, gamma, delta and L read g(y)
    fx = f.apply_many(xs) if f is not None and (alpha or gamma or delta or L) else xs
    gy = g.apply_many(ys) if g is not None and (beta or gamma or delta or L) else ys
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


def _row_blocks(space: MetricSpace, xs: np.ndarray, ys: np.ndarray, upper: bool = False):
    """Slices of a pair batch along its first axis, about ``BLOCK_PAIRS`` pairs each.

    Euclidean batches take ``EUCLIDEAN_BLOCK_PAIRS`` pairs per slice instead.

    Points that span the batch's rows are sliced; the exhaustive grid's
    index row is shared by every block.  The blocks' flat orders, one after
    another, are the batch's flat order.  With ``upper``, a square grid's
    block of rows [r0, r1), at most ``UPPER_BLOCK_ROWS`` of them, takes only
    the columns [r0, n): the blocks then cover the pairs on and above the
    diagonal, in the grid's flat order.
    """
    shape = np.broadcast_shapes(xs.shape, ys.shape)[: None if space.is_finite else -1]
    rows = shape[0]
    block = BLOCK_PAIRS if space.is_finite else EUCLIDEAN_BLOCK_PAIRS
    step = max(1, block * rows // math.prod(shape))
    step = min(step, UPPER_BLOCK_ROWS) if upper else step
    for r0 in range(0, rows, step):
        bx, by = (p[r0 : r0 + step] if len(p) == rows else p for p in (xs, ys))
        yield bx, by[:, r0:] if upper else by


def _margin(need: np.ndarray, coefs, terms) -> np.ndarray:
    """``need`` minus alpha*t1 + beta*t2 + gamma*t3 + delta*t4 + L*t5 over the ``terms`` not None, in a fresh array.

    The products are summed left to right into one buffer of the batch's
    shape, which then takes ``need`` minus the sum: the IEEE operations of
    ``need - reduce(np.add, products)``.  Without any term it holds ``need``.
    Terms may be read-only table views, so nothing is written into them.
    """
    out = None
    for coef, t in zip(coefs, terms):
        if t is None:
            continue
        if out is None:
            out = np.multiply(coef, t, out=np.empty(need.shape))
        else:
            np.add(out, coef * t, out=out)
    return need.copy() if out is None else np.subtract(need, out, out=out)


def _block_margin(space: MetricSpace, maps: MappingSet, xs, ys, coefs, scale: float, wanted):
    """(margin, need, terms) of one block of pairs: ``need`` is ``scale * lhs``, ``terms`` t1..t5 as ``wanted``."""
    lhs, *terms = _term_arrays(space, maps, xs, ys, wanted)
    need = lhs if scale == 1.0 else scale * lhs
    return _margin(need, coefs, terms), need, terms


def _worst(space: MetricSpace, maps: MappingSet, batch, coefs, scale: float = 1.0, wanted=ALL_TERMS, upper=False):
    """The worst margin over the row blocks of a pair batch, where it sits as ``(xs, ys, shape, flat)``, and the pair count.

    A NaN margin outranks every number; ties, NaN or not, go to the first
    pair in the batch's flat order.  ``upper`` visits only the pairs on and
    above the diagonal of a square grid (see :func:`_mirrored`).

    Bound first (see the module docstring): when every delta and L product
    the margin takes lies in [0, inf], a positive coefficient times a term
    of a table without negative entries, the margin P without them is at
    least the full margin M wherever P is a number below +inf.  After the
    first block, a block computes P at every pair and M only where ``not (P
    < worst)``, worst the running worst; elsewhere it keeps P, strictly
    below the worst, which M, at most P, can then neither beat nor tie.
    """
    tail = wanted[3:]
    bounded = (
        space.is_finite
        and space.nonnegative
        and any(tail)
        and all(coef > 0.0 for coef, w in zip(coefs[3:], tail) if w)
    )
    head = wanted[:3] + (False, False)
    worst, at, count = None, None, 0
    # a term or sum that overflows near the float range is an inf or NaN margin, ranked as such
    with np.errstate(over="ignore", invalid="ignore"):
        for xs, ys in _row_blocks(space, *batch, upper):
            if bounded and worst is not None:
                margin = _block_margin(space, maps, xs, ys, coefs, scale, head)[0]
                near = np.flatnonzero(~(margin < worst))
                if near.size:
                    # the pairs that may reach the worst, as index arrays: the same evaluator on them alone
                    at_near = np.unravel_index(near, margin.shape)
                    points = (np.broadcast_to(p, margin.shape)[at_near] for p in (xs, ys))
                    margin[at_near] = _block_margin(space, maps, *points, coefs, scale, wanted)[0]
            else:
                margin = _block_margin(space, maps, xs, ys, coefs, scale, wanted)[0]
            # argmax finds a block's first NaN, if it holds one
            flat = int(np.argmax(margin))
            # a NaN worst stays; NaN or more replaces a number, strictly: on a tie the earlier block keeps the worst pair
            if worst is None or not (math.isnan(worst) or margin.flat[flat] <= worst):
                worst, at = float(margin.flat[flat]), (xs, ys, margin.shape, flat)
            count += margin.size
    return worst, at, count


def _mirrored(space: MetricSpace, maps: MappingSet, coefs, pair_source) -> bool:
    """Does the exhaustive grid's margin at (x, y) equal its margin at (y, x), or both read NaN?

    See "One triangle" in the module docstring.  The cheap tests go first.
    """
    (_, S, _, f), (_, T, _, g) = maps.sides
    return (
        not isinstance(pair_source, SampledPairs)
        and coefs[0] == coefs[1]
        and (S is T or S == T)
        and (f is g or f == g)
        and space.symmetric
    )


def _evaluate_condition(space, maps: MappingSet, c, pair_source, tolerance, batch=None) -> ViolationReport:
    maps.validate(space)
    tolerance = space.slack(tolerance)
    coefs = c.as_tuple()
    wanted = tuple(v != 0.0 for v in coefs)
    batch = _pair_batch(space, pair_source, maps) if batch is None else batch
    worst, at, count = _worst(space, maps, batch, coefs, wanted=wanted, upper=_mirrored(space, maps, coefs, pair_source))
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
    """:func:`check_condition` for S, T; unexported, kept for ``perfbench``, which calls and traces it by name."""
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
    """:func:`check_condition` for S, T, f; unexported, kept for ``perfbench``, which calls and traces it by name."""
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
    """:func:`check_condition` for S, T, f, g; unexported, kept for ``perfbench``, which calls and traces it by name."""
    return _evaluate_condition(space, MappingSet(S, T, f, g, arity=Arity.FOUR), c, pair_source, tolerance)


def check_condition(
    space: MetricSpace,
    maps: MappingSet,
    c: Coefficients,
    pair_source: PairSource = EXHAUSTIVE,
    tolerance: Optional[float] = None,
) -> ViolationReport:
    """Check ``maps.arity``'s condition (``tolerance`` per ``space.slack``) by its named check, which ``perfbench`` traces."""
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

    Solves one linear program in (alpha, beta, gamma, delta, L), each at least
    0: a covering row need <= alpha*t1 + beta*t2 + gamma*t3 + delta*t4 + L*t5
    per pair and the budget alpha + beta + gamma + 2*delta <= 1 - ``MARGIN``.
    Its two solves differ only in an elastic column and the objective.  The
    first adds an excess s >= -1 to every covering row and minimizes it: an
    optimum above the ties allowance means no tuple covers every pair, and the
    most binding pair is reported.  The second drops s and minimizes the
    coefficient sum.  Sampled sources get a relative cushion, need = 1.02 *
    lhs, that makes their certificates robust off-sample; exhaustive ones get
    none.  The returned tuple is re-verified with the matching check at
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
    from scipy.optimize import Bounds, LinearConstraint, milp

    maps.validate(space)
    sampled = isinstance(pair_source, SampledPairs)
    scale = 1.02 if sampled else 1.0
    tolerance = space.slack()

    # shortfalls this close to the worst are ties: the solve is no more exact than that
    ties = max(tolerance, 1e-9)
    batch = _pair_batch(space, pair_source)

    def cuts(coefs, above):
        """Each block's ``CUT_ROWS`` largest-margin rows [t1, .., t5, need] with margin above ``above``."""
        for xs, ys in _row_blocks(space, *batch):
            margin, need, terms = _block_margin(space, maps, xs, ys, coefs, scale, ALL_TERMS)
            m = margin.reshape(-1)
            top = np.argpartition(m, -CUT_ROWS)[-CUT_ROWS:] if m.size > CUT_ROWS else np.arange(m.size)
            idx = np.unravel_index(top[m[top] > above], margin.shape)
            yield np.column_stack([np.broadcast_to(t, margin.shape)[idx] for t in (*terms, need)])

    def infeasible(coefs, reason: str) -> Infeasible:
        """``reason`` ({count}: the pair count) as Infeasible, naming the first pair within ``ties`` of the worst or NaN."""
        worst, _, count = _worst(space, maps, batch, coefs, scale)
        for xs, ys in _row_blocks(space, *batch):
            margin = _block_margin(space, maps, xs, ys, coefs, scale, ALL_TERMS)[0]
            hits = np.flatnonzero(np.isnan(margin) | (margin >= worst - ties))
            if hits.size:
                pair = _pair_at(space, xs, ys, margin.shape, int(hits[0]))
                message = f"{reason.format(count=count)}; most binding pair {pair} lacks {worst:.6g}"
                return Infeasible(message, binding_pair=pair)

    # the elastic solve's variables are the five coefficients, then s
    budget_row = np.array([1.0, 1.0, 1.0, 2.0, 0.0, 0.0])
    lower, upper = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1.0]), np.array([1.0, 1.0, 1.0, 1.0, np.inf, np.inf])

    def solve(rows, elastic: bool):
        """The LP on the working set ``rows`` ([t1, .., t5, need]): need - A@coefs <= s, s = 0 unless ``elastic``."""
        k = 6 if elastic else 5
        covering = np.column_stack([-rows[:, :5], -np.ones((len(rows), k - 5))])
        A_ub = np.vstack([covering, budget_row[:k]])
        b_ub = np.append(-rows[:, 5], 1.0 - MARGIN)
        # the elastic solve minimizes s, the other the coefficient sum; milp, with no integer variable, is linprog's HiGHS LP
        objective = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]) if elastic else np.ones(5)
        return milp(c=objective, constraints=LinearConstraint(A_ub, -np.inf, b_ub), bounds=Bounds(lower[:k], upper[:k]))

    def cutting_plane(rows, elastic: bool):
        """Solve on the working set ``rows`` until a pass over all pairs adds no new row."""
        while True:
            res = solve(rows, elastic)
            if not res.success:
                return res, rows
            # a row joins when its shortfall exceeds the optimum's, s or 0, by more than the tolerance
            above = (res.x[-1] if elastic else 0.0) + tolerance
            grown = np.unique(np.vstack([rows, *cuts(res.x[:5], above)]), axis=0)
            if len(grown) == len(rows):
                return res, rows
            rows = grown

    # an overflowing term makes an inf or NaN row or margin, which the solves and reports handle
    with np.errstate(over="ignore", invalid="ignore"):
        largest_lhs = np.unique(np.vstack(list(cuts(np.zeros(5), -np.inf))), axis=0)
        res, rows = cutting_plane(largest_lhs, elastic=True)
        if not res.success:
            raise Infeasible("feasibility solve failed")
        if res.x[-1] > ties:
            raise infeasible(res.x[:5], "no coefficient tuple covers all {count} pairs")

        res2, _ = cutting_plane(rows, elastic=False)
        attempt = np.maximum(np.asarray(res2.x if res2.success else res.x[:5], dtype=float), 0.0)
        for bump in (0.0, tolerance, 16.0 * tolerance):
            # the attempt meets the 1 - MARGIN budget row up to HiGHS's tolerance and bump <= 16 * slack
            # <= 1.6e-8, so the weight sum stays below 0.9502, well inside the bounds Coefficients checks
            coefs = attempt * (1.0 + bump) + bump if bump else attempt
            candidate = Coefficients(*coefs)
            # the sample drawn once; an exhaustive check keeps its keyed grid
            report = _evaluate_condition(space, maps, candidate, pair_source, tolerance, batch if sampled else None)
            if report.satisfied:
                return candidate
        raise infeasible(attempt, "solved tuple failed re-verification")
