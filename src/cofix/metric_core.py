"""Metric spaces, points, and metric-axiom verification.

Two flavors of space are supported:

* ``FINITE_EXPLICIT``: the universe is the index set ``0..n-1`` and the
  distance is read from a stored symmetric ``n x n`` table;
* ``EUCLIDEAN_AFFINE``: points are real ``m``-vectors and the distance is
  the Euclidean norm of the difference.

Both flavors are complete, which the fixed-point results assume: a finite
space trivially, R^m by construction.  No flag records it.

A stored table can break the metric axioms, so :func:`verify_metric_axioms`
scans it; on R^m they hold by theorem (a norm induces a metric) and it
reports them analytically, drawing nothing.

A finite space keeps a read-only view of a float64 table and converts any
other table once; the caller must not write to a float64 table afterwards,
since finiteness and ``nonnegative`` are taken at construction.  The
dataclasses are frozen and operations pure, so concurrency needs no locks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import DomainError
from .records import ArrayEq, Record, int_arg

Point = Union[int, np.ndarray]


class Flavor(Enum):
    FINITE_EXPLICIT = "finite_explicit"
    EUCLIDEAN_AFFINE = "euclidean_affine"


@dataclass(frozen=True, eq=False)
class MetricSpace(ArrayEq):
    """A metric space of one of the two supported flavors.

    :meth:`finite` and :meth:`euclidean` fill in the flavor for the raw
    constructor, which keeps a float64 table as a read-only view that the
    caller must not write to, and converts any other table.  :meth:`slack`
    decides whether two points are the same.  ``nonnegative`` (not a field)
    says no distance is below 0; it turns on the bound-first check.
    """

    flavor: Flavor
    table: Optional[np.ndarray] = None
    dimension: Optional[int] = None

    def __post_init__(self):
        if self.flavor is Flavor.FINITE_EXPLICIT:
            if self.table is None:
                raise DomainError("finite space needs a distance table")
            tab = np.asarray(self.table, dtype=float).view()
            tab.setflags(write=False)
            if tab.ndim != 2 or tab.shape[0] != tab.shape[1] or tab.shape[0] < 1:
                raise DomainError(f"distance table must be square and non-empty, got shape {tab.shape}")
            # min and max propagate NaN and reach any infinity without an n x n mask
            lo = tab.min()
            if not np.isfinite([lo, tab.max()]).all():
                raise DomainError("distance table contains non-finite entries")
            object.__setattr__(self, "table", tab)
            object.__setattr__(self, "nonnegative", bool(lo >= 0.0))
            object.__setattr__(self, "dimension", None)
        elif self.flavor is Flavor.EUCLIDEAN_AFFINE:
            dimension = int_arg("dimension", self.dimension)
            if dimension < 1:
                raise DomainError(f"Euclidean space needs a positive dimension, got {self.dimension}")
            object.__setattr__(self, "dimension", dimension)
            object.__setattr__(self, "table", None)
            object.__setattr__(self, "nonnegative", True)
        else:  # pragma: no cover - enum is closed
            raise DomainError(f"unknown flavor {self.flavor}")

    @classmethod
    def finite(cls, table) -> "MetricSpace":
        """A finite space on a square distance table: a float64 array is shared read-only, anything else converted."""
        return cls(flavor=Flavor.FINITE_EXPLICIT, table=table)

    @classmethod
    def euclidean(cls, dimension: int) -> "MetricSpace":
        return cls(flavor=Flavor.EUCLIDEAN_AFFINE, dimension=dimension)

    @cached_property
    def is_finite(self) -> bool:
        return self.flavor is Flavor.FINITE_EXPLICIT

    @property
    def n(self) -> int:
        """Number of points of a finite universe."""
        if not self.is_finite:
            raise DomainError("only finite spaces have a point count")
        return self.table.shape[0]

    def slack(self, tol: Optional[float] = None, *points: Point, scale: float = 0.0) -> float:
        """The "same point?" rule: points at most this far apart are the same point.

        ``tol`` defaults to 1e-12 on finite spaces and 1e-9 on R^m; a NaN,
        infinite or negative one raises DomainError.  Finite spaces compare
        exactly: the slack is ``tol``.  On R^m it is tol + (m + 2)·eps·s, s the
        sum of ``scale`` and the norms of ``points``: a coordinate of an affine
        map is an inner product of length m + 1, off by about (m + 1)·u times
        the magnitudes involved (Higham, Accuracy and Stability of Numerical
        Algorithms, 2nd ed., §3.1), and a distance adds one rounding more.
        """
        tol = (1e-12 if self.is_finite else 1e-9) if tol is None else float(tol)
        if not (math.isfinite(tol) and tol >= 0.0):
            raise DomainError(f"tolerance must be finite and non-negative, got {tol}")
        if self.is_finite:
            return tol
        scale += sum(float(np.linalg.norm(p)) for p in points)
        return tol + (self.dimension + 2) * np.finfo(float).eps * scale

    def default_point(self) -> Point:
        """The start point used when none is given: index 0, or the origin of R^m."""
        return 0 if self.is_finite else np.zeros(self.dimension)

    def contains(self, p: Point) -> bool:
        try:
            self._check_point(p)
        except DomainError:
            return False
        return True

    def _check_point(self, p: Point) -> Point:
        """The point's computational form, an int or a float m-vector; DomainError off the universe."""
        if self.is_finite:
            if isinstance(p, (int, np.integer)) and 0 <= int(p) < self.n:
                return int(p)
        else:
            arr = np.asarray(p, dtype=float)
            if arr.shape == (self.dimension,) and np.isfinite(arr).all():
                return arr
        raise DomainError(f"point {p!r} is outside the universe of this {self.flavor.value} space")

    def _step(self, a: Point, p) -> tuple[Point, float]:
        """(p checked, its distance from the checked point a); DomainError if p is off the universe.

        On R^m the distance is sqrt(d · d), d = a - p, bit for bit np.linalg.norm(d).  As a is finite, a finite
        d · d makes p finite; only a non-finite one needs the point rule, which may pass p at an overflowed distance.
        """
        if self.is_finite:
            p = self._check_point(p)
            return p, float(self.table[a, p])
        arr, dd = np.asarray(p, dtype=float), math.inf
        if arr.shape == a.shape:
            d = a - arr
            dd = d.dot(d)
        if not math.isfinite(dd):
            arr = self._check_point(p)
        return arr, math.sqrt(dd)

    def distance(self, a: Point, b: Point) -> float:
        return self._step(self._check_point(a), b)[1]

    def canonicalize(self, p: Point):
        """Plain-Python form of a point (int, or tuple of floats) for reports."""
        p = self._check_point(p)
        return p if self.is_finite else tuple(float(v) for v in p)

    def materialize(self, p) -> Point:
        """Inverse of :meth:`canonicalize`: rebuild the computational form."""
        if self.is_finite:
            if isinstance(p, float) and not p.is_integer():
                raise DomainError(f"point {p!r} is not an index of this finite space")
            return self._check_point(int(p))
        return self._check_point(np.asarray(p, dtype=float))


# the largest reach of a sampling box; values this small keep distances, their sums and squares finite
REACH_CAP = 1e150


def sampling_box(box: tuple[float, float], dimension: int = 1) -> tuple[float, float]:
    """A sampling box as floats; DomainError unless lo < hi and squared distances in R^dimension stay finite.

    Squares past about 1e154 overflow and margins read NaN; capping sqrt(m)
    times the box's reach at ``REACH_CAP`` leaves mappings room to stretch it 1000-fold.
    """
    lo, hi = float(box[0]), float(box[1])
    if not lo < hi:
        raise DomainError(f"sampling box must have lo < hi, got {box}")
    if max(abs(lo), abs(hi)) * math.sqrt(dimension) > REACH_CAP:
        raise DomainError(f"sampling box {box} is too wide: squared distances in R^{dimension} would overflow")
    return lo, hi


@dataclass(frozen=True)
class AxiomCheck(Record):
    name: str
    passed: bool
    witness: Optional[tuple]
    magnitude: float

@dataclass(frozen=True)
class AxiomReport(Record):
    """Outcome of the four metric-axiom checks.

    ``mode`` is ``"exhaustive"`` for finite spaces and ``"analytic"`` for
    Euclidean ones, whose axioms hold by theorem.  :meth:`from_dict` ignores
    the ``seed``, ``box`` and ``samples`` keys of older, sampled reports.
    """

    checks: tuple[AxiomCheck, ...]
    mode: str
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "passed": self.passed}


# the triangle check visits (i, j, k) in tiles of TILE_ROWS x TILE_COLS x n triples
TILE_ROWS, TILE_COLS = 8, 32
# tables of at least this many points are screened before the exact scan; below
# it a cold scipy.spatial import (0.5-0.8 s) costs more than the scan it saves
SCREEN_MIN_N = 128


def _row_worst(D: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For each i in ``rows``, the largest d(i, k) - d(i, j) - d(j, k) over all j and k."""
    n = D.shape[0]
    worst = np.empty(len(rows))
    tile = np.empty((TILE_ROWS, TILE_COLS, n))
    for r0 in range(0, len(rows), TILE_ROWS):
        block = D[rows[r0 : r0 + TILE_ROWS]]
        worst_here = np.full(len(block), -np.inf)
        for j0 in range(0, n, TILE_COLS):
            cols = D[j0 : j0 + TILE_COLS]
            viol = tile[: len(block), : len(cols)]
            # entries near the float range overflow to -inf here, which is never a violation
            with np.errstate(over="ignore"):
                np.subtract(block[:, None, :], block[:, j0 : j0 + len(cols), None], out=viol)
                viol -= cols
            np.maximum(worst_here, viol.max(axis=(1, 2)), out=worst_here)
        worst[r0 : r0 + len(block)] = worst_here
    return worst


def _on_dyadic_grid(D: np.ndarray, scratch: np.ndarray) -> bool:
    """Is every entry a multiple of ulp(C) in [0, C], C the least power of two >= max D?

    Then every difference of two entries, and of three, is exact.
    """
    C = math.ldexp(1.0, min(math.frexp(float(D.max()))[1], 1023))
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(D, C, out=scratch)
        scratch -= C
    return bool(np.array_equal(scratch, D))


def _uncleared_rows(D: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The rows i, ascending, that the Chebyshev screen cannot prove free of triangle violations.

    ``X`` is D with its diagonal set to t, the least off-diagonal entry; it
    is overwritten.
    """
    from scipy.spatial.distance import pdist, squareform

    # S[i, j] = max_k fl|X[i, k] - X[j, k]|, symmetric, so one C pass over i < j
    S = squareform(pdist(X, "chebyshev"))
    np.fill_diagonal(S, -np.inf)  # j = i is a trivial triple
    cleared = ~(S >= D).any(axis=1)
    if not cleared.all():
        strict = ~(S > D).any(axis=1)
        if not np.array_equal(strict, cleared) and _on_dyadic_grid(D, X):
            cleared = strict
    return np.flatnonzero(~cleared)


def _is_ultrametric(D: np.ndarray) -> bool:
    """Does the table's upper triangle equal that of its single-linkage cophenetic matrix?

    That matrix is the subdominant ultrametric, built in O(n^2) (Gower and
    Ross, Applied Statistics 18, 1969; Mullner, arXiv:1109.2378), so for an
    exactly symmetric table the answer is whether it is an ultrametric; the
    caller checks the symmetry.  First a fixed set of up to 64 triples rejects
    most other tables without importing scipy: in an ultrametric the two
    largest sides of every triangle are equal.
    """
    n = D.shape[0]
    i = np.arange(0, n, (n + 63) // 64)
    j, k = (i + n // 3) % n, (i + 2 * n // 3) % n
    sides = np.sort([D[i, j], D[j, k], D[k, i]], axis=0)
    if not np.array_equal(sides[1], sides[2]):
        return False
    from scipy.cluster.hierarchy import cophenet, linkage
    from scipy.spatial.distance import squareform

    upper = squareform(D, checks=False)
    return bool(np.array_equal(cophenet(linkage(upper, "single")), upper))


def _verify_finite(space: MetricSpace, tolerance: float) -> AxiomReport:
    D = space.table
    n = space.n

    diag = np.abs(np.diag(D))
    i = int(np.argmax(diag))
    ok = bool(diag[i] <= tolerance)
    identity = AxiomCheck("identity", ok, None if ok else (i,), 0.0 if ok else float(diag[i]))

    # one n x n scratch: |D - D^T|, then D with a +inf diagonal, then the screen's X
    scratch = np.empty(D.shape)
    np.subtract(D, D.T, out=scratch)
    np.abs(scratch, out=scratch)
    i, j = np.unravel_index(int(np.argmax(scratch)), scratch.shape)
    ok = bool(scratch[i, j] <= tolerance)
    exactly_symmetric = bool(scratch[i, j] == 0.0)
    symmetry = AxiomCheck("symmetry", ok, None if ok else (int(i), int(j)), 0.0 if ok else float(scratch[i, j]))

    # strict positivity off the diagonal, exact comparison by design
    np.copyto(scratch, D)
    np.fill_diagonal(scratch, np.inf)
    i, j = np.unravel_index(int(np.argmin(scratch)), scratch.shape)
    ok = bool(scratch[i, j] > 0.0)
    positivity = AxiomCheck("positivity", ok, None if ok else (int(i), int(j)), 0.0 if ok else float(-scratch[i, j]))

    # The triangle scan's value for (i, j, k) is e = fl(fl(a - b) - c), with
    # a = D[i, k], b = D[i, j], c = D[j, k]; only each i's worst is kept, and
    # the witness row is redone.  Ahead of the scan, a screen proves rows clean
    # (rounding is monotone and b, c are floats: Higham, Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., §2.1):
    #   e > tol >= 0  =>  fl(a - b) > c  =>  a - b > c  =>  a - c > b  =>  fl|a - c| >= b,
    # so a row i with S[i, j] = max_k fl|D[i, k] - D[j, k]| < D[i, j] for every
    # j != i holds no triple above tol.  Triples with j = i or k in {i, j} give
    # e <= 0 when the diagonal is exactly 0 and positivity holds, so the screen
    # runs only then; its X is D with the diagonal set to t, the least
    # off-diagonal entry, so those columns read |t - d| < d rather than tying
    # at d.  A tie S[i, j] == D[i, j] flags the row, unless every difference
    # is exact (the table lies on the ulp grid of a power of two >= max D, as
    # repaired tables do): then e > 0 forces S[i, j] > D[i, j].  A cleared
    # row's worst is 0 <= tol, so a failing table's first worst row, and its
    # witness, still come from the exact scan; a passing one reports no witness.
    # Ahead of the screen, under the same preconditions, an exactly symmetric
    # table equal to its single-linkage cophenetic matrix U clears every row.
    # U's entries are merge heights, copied from the table, so U == D is an
    # exact comparison; over the upper triangle, with D symmetric, it makes D
    # an ultrametric: a <= max(b, c) for every triple.  With b, c >= 0, a <= b
    # gives fl(a - b) <= 0, and a <= c gives a - b <= c, so fl(a - b) <= c by
    # monotone rounding; either way e <= 0.  Tables that are not ultrametrics,
    # repaired and random ones among them, still take the screen.
    rows = np.arange(n)
    if n >= SCREEN_MIN_N and positivity.passed and not diag.any():
        if exactly_symmetric and _is_ultrametric(D):
            rows = rows[:0]
        else:
            np.fill_diagonal(scratch, scratch[i, j])
            rows = _uncleared_rows(D, scratch)
    del scratch
    ok = True
    if len(rows):
        i = int(rows[np.argmax(_row_worst(D, rows))])
        with np.errstate(over="ignore"):  # as in _row_worst: -inf is no violation
            viol = D[i][None, :] - D[i][:, None] - D
        j, k = np.unravel_index(int(np.argmax(viol)), viol.shape)
        worst = float(viol[j, k])
        ok = worst <= tolerance
    triangle = AxiomCheck("triangle", bool(ok), None if ok else (i, int(j), int(k)), 0.0 if ok else worst)

    return AxiomReport(checks=(identity, symmetry, positivity, triangle), mode="exhaustive", tolerance=tolerance)


def verify_metric_axioms(
    space: MetricSpace,
    tolerance: Optional[float] = None,
    *,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
    box: Optional[tuple[float, float]] = None,
) -> AxiomReport:
    """Check identity, symmetry, strict positivity, and the triangle inequality.

    Finite spaces are checked exhaustively (positivity uses exact
    comparison; the other axioms allow ``tolerance`` slack, default 0).
    From ``SCREEN_MIN_N`` points on, when the diagonal is exactly 0 and
    positivity holds, the triangle check first screens rows with scipy's
    Chebyshev distance: row i is clean when max_k fl|d(i, k) - d(j, k)| is
    below d(i, j) for every j != i, since a triple above the tolerance
    forces fl|d(i, k) - d(j, k)| >= d(i, j) by monotone rounding.  A tie
    still sends the row to the exact scan unless every difference of the
    table is exact (it lies on the ulp grid of a power of two >= its
    maximum).  Ahead of the screen, an exactly symmetric table is compared
    with its single-linkage cophenetic matrix, its subdominant ultrametric,
    in O(n^2): when they are equal the table is an ultrametric,
    d(x, z) <= max(d(x, y), d(y, z)), and no row needs the screen or the
    scan.  The gain is specific to ultrametric tables, such as the anchor
    tables of :mod:`cofix.oracle`; a fixed set of triples turns most other
    tables away before scipy is called, and repaired and random tables
    still take the cubic screen.  Reports are the same as from the full
    scan.  The failure report names the violating pair or triple and the
    violation magnitude.

    Euclidean spaces need no check, since a norm induces a metric: the
    report is ``"analytic"``, four passing checks with no witness, and
    echoes ``tolerance`` as :meth:`MetricSpace.slack` resolves it.
    ``samples``, ``seed`` and ``box`` are unread on both flavors; they stay
    only because ``perfbench/workloads.py`` passes them.
    """
    tolerance = space.slack(0.0 if tolerance is None and space.is_finite else tolerance)
    if space.is_finite:
        return _verify_finite(space, tolerance)
    checks = tuple(AxiomCheck(name, True, None, 0.0) for name in ("identity", "symmetry", "positivity", "triangle"))
    return AxiomReport(checks=checks, mode="analytic", tolerance=tolerance)
