"""Metric spaces, points, and metric-axiom verification.

Two flavors of space are supported:

* ``FINITE_EXPLICIT``: the universe is the index set ``0..n-1`` and the
  distance is read from a stored symmetric ``n x n`` table;
* ``EUCLIDEAN_AFFINE``: points are real ``m``-vectors and the distance is
  the Euclidean norm of the difference.

Both flavors are complete, which the fixed-point results assume: a finite
space trivially, R^m by construction.  No flag records it.

A stored table can break the metric axioms, so :func:`verify_metric_axioms`
scans it, but certifies a hub ultrametric, such as an anchor table of
:mod:`cofix.oracle`, from one row; on R^m they hold by theorem (a norm
induces a metric) and it reports them analytically, drawing nothing.

A finite space keeps a read-only view of a float64 table and converts any
other table once; the caller must not write to a float64 table afterwards,
since finiteness and ``nonnegative`` are taken at construction and
``symmetric`` at its first use.  The dataclasses are frozen and operations
pure, so concurrency needs no locks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import DomainError
from .records import ArrayEq, Record, int_arg, real_arg

Point = Union[int, np.ndarray]

# the scratch budget of every finite-table pass, in table entries: contraction's pair blocks, the
# symmetry tiles (isqrt of it square), the hub certificate's row blocks and the exact triangle scan's tiles
BLOCK_PAIRS = 1 << 16


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
    ``symmetric`` says the table equals its transpose exactly; it is
    decided once, on first use; it spares the axiom check |D - D^T| and
    lets the exhaustive condition check read one triangle of the table.
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
            object.__setattr__(self, "dimension", int_arg("dimension", self.dimension, 1))
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

    @cached_property
    def symmetric(self) -> bool:
        """Does d(x, y) == d(y, x) hold exactly for every pair?  Always on R^m, where a norm induces the metric.

        A table is compared with its transpose in square tiles of
        ``BLOCK_PAIRS`` entries, each above the diagonal against its mirror
        below, so no n x n temporary is made; the first unequal tile ends it.
        """
        if not self.is_finite:
            return True
        D, t = self.table, math.isqrt(BLOCK_PAIRS)
        return all(
            np.array_equal(D[i0 : i0 + t, j0 : j0 + t], D[j0 : j0 + t, i0 : i0 + t].T)
            for i0 in range(0, self.n, t)
            for j0 in range(i0, self.n, t)
        )

    @property
    def n(self) -> int:
        """Number of points of a finite universe."""
        if not self.is_finite:
            raise DomainError("only finite spaces have a point count")
        return self.table.shape[0]

    def slack(self, tol: Optional[float] = None, *points: Point, scale: float = 0.0) -> float:
        """The "same point?" rule: points at most this far apart are the same point.

        ``tol`` defaults to 1e-12 on finite spaces and 1e-9 on R^m; a bool,
        or a NaN, infinite or negative one, raises DomainError.  Finite spaces
        compare exactly: the slack is ``tol``.  On R^m it is tol + (m + 2)·eps·s, s the
        sum of ``scale`` and the norms of ``points``: a coordinate of an affine
        map is an inner product of length m + 1, off by about (m + 1)·u times
        the magnitudes involved (Higham, Accuracy and Stability of Numerical
        Algorithms, 2nd ed., §3.1), and a distance adds one rounding more.
        """
        tol = (1e-12 if self.is_finite else 1e-9) if tol is None else real_arg("tolerance", tol)
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
            if isinstance(p, (int, np.integer)) and not isinstance(p, bool) and 0 <= int(p) < self.n:
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
            return self._check_point(int_arg("point", p))
        return self._check_point(np.asarray(p, dtype=float))


# the largest reach of a sampling box; values this small keep distances, their sums and squares finite
REACH_CAP = 1e150


def sampling_box(box: tuple[float, float], dimension: int = 1) -> tuple[float, float]:
    """A sampling box as floats; DomainError unless lo < hi and squared distances in R^dimension stay finite.

    Squares past about 1e154 overflow and margins read NaN; capping sqrt(m)
    times the box's reach at ``REACH_CAP`` leaves mappings room to stretch it 1000-fold.
    """
    lo, hi = real_arg("sampling box bound", box[0]), real_arg("sampling box bound", box[1])
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


def _axiom(name: str, ok, witness: Optional[tuple], magnitude) -> AxiomCheck:
    """One axiom's verdict: a passing check names no witness and reports 0.0."""
    ok = bool(ok)
    return AxiomCheck(name, ok, None if ok else witness, 0.0 if ok else float(magnitude))


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


# the exact triangle scan visits (i, j, k) in tiles of TILE_ROWS rows i, as many columns j as BLOCK_PAIRS
# allows (one at least) and all n columns k: at most max(BLOCK_PAIRS, TILE_ROWS * n) entries
TILE_ROWS = 8
# tables of at least this many points are screened before the exact scan; below
# it a cold scipy.spatial import (0.5-0.8 s) costs more than the scan it saves
SCREEN_MIN_N = 128
# positivity copies row blocks of about this many entries (2 MiB).  Freeing a block this large
# lifts glibc's dynamic mmap threshold above the arrays of about 1 MB that other layers make, so
# those come from the heap; with 512 KiB blocks they came from fresh mappings, and a large_finite
# cycle took about 9,400 minor page faults, most in ops that never check the axioms, against none.
LEAST_BLOCK = 1 << 18


def _row_worst(D: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For each i in ``rows``, the largest d(i, k) - d(i, j) - d(j, k) over all j and k."""
    n = D.shape[0]
    width = max(1, min(n, BLOCK_PAIRS // (TILE_ROWS * n)))
    worst = np.empty(len(rows))
    tile = np.empty((TILE_ROWS, width, n))
    for r0 in range(0, len(rows), TILE_ROWS):
        block = D[rows[r0 : r0 + TILE_ROWS]]
        worst_here = np.full(len(block), -np.inf)
        for j0 in range(0, n, width):
            cols = D[j0 : j0 + width]
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


def _uncleared_rows(D: np.ndarray, t: float) -> np.ndarray:
    """The rows i, ascending, that the Chebyshev screen cannot prove free of triangle violations.

    The screen reads X, a copy of D with its diagonal set to ``t``, the
    least off-diagonal entry.
    """
    from scipy.spatial.distance import pdist, squareform

    X = np.array(D)
    np.fill_diagonal(X, t)
    # S[i, j] = max_k fl|X[i, k] - X[j, k]|, symmetric, so one C pass over i < j
    S = squareform(pdist(X, "chebyshev"))
    np.fill_diagonal(S, -np.inf)  # j = i is a trivial triple
    cleared = ~(S >= D).any(axis=1)
    if not cleared.all():
        strict = ~(S > D).any(axis=1)
        if not np.array_equal(strict, cleared) and _on_dyadic_grid(D, X):
            cleared = strict
    return np.flatnonzero(~cleared)


def _is_hub_ultrametric(D: np.ndarray, r: int) -> bool:
    """Is d(i, j) == max(a_i, a_j) for every i != j, with a = D[r]?  Then D is an ultrametric, whatever r is:

    d(i, k) = max(a_i, a_k) <= max(a_i, a_j, a_k) = max(d(i, j), d(j, k)).
    When the table has such a hub, both points of its least off-diagonal
    entry are hubs (the hub and a point of least a, or two points tied
    there), so the caller passes one of them.  D must be exactly symmetric
    with a zero diagonal: the comparison runs over the upper triangle in row
    blocks of about ``BLOCK_PAIRS`` entries, and the first that differs ends it.
    """
    n, a = D.shape[0], D[r]
    rows = max(1, BLOCK_PAIRS // n)
    for i0 in range(0, n, rows):
        hub = np.maximum.outer(a[i0 : i0 + rows], a[i0:])
        np.fill_diagonal(hub, 0.0)
        if not np.array_equal(D[i0 : i0 + rows, i0:], hub):
            return False
    return True


def _least_off_diagonal(D: np.ndarray) -> tuple[float, int, int]:
    """(d(i, j), i, j) at the first least off-diagonal entry in row-major order; (inf, 0, 0) for one point.

    Row blocks of about ``LEAST_BLOCK`` entries are copied with their
    diagonal set to +inf, each freed before the next; argmin and the strict
    comparison across blocks keep the earliest of tied entries, and -0.0
    ties 0.0.
    """
    n = D.shape[0]
    rows = max(1, LEAST_BLOCK // n)
    least = (math.inf, 0, 0)
    for i0 in range(0, n, rows):
        block = np.array(D[i0 : i0 + rows])
        np.fill_diagonal(block[:, i0:], np.inf)
        k = int(np.argmin(block))
        if block.flat[k] < least[0]:
            least = (float(block.flat[k]), i0 + k // n, k % n)
        del block
    return least


def _verify_finite(space: MetricSpace, tolerance: float) -> AxiomReport:
    D = space.table
    n = space.n

    diag = np.abs(np.diag(D))
    i = int(np.argmax(diag))
    identity = _axiom("identity", diag[i] <= tolerance, (i,), diag[i])

    symmetry = _axiom("symmetry", True, None, 0.0)
    if not space.symmetric:
        # |D - D^T|, the one n x n array, names the witness; entries near the
        # float range overflow to inf, which fails symmetry already
        with np.errstate(over="ignore"):
            asym = np.subtract(D, D.T)
        np.abs(asym, out=asym)
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        symmetry = _axiom("symmetry", asym[i, j] <= tolerance, (int(i), int(j)), asym[i, j])
        del asym

    # strict positivity off the diagonal, exact comparison by design
    least, i, j = _least_off_diagonal(D)
    positivity = _axiom("positivity", least > 0.0, (i, j), -least)

    # The triangle scan's value for (i, j, k) is e = fl(fl(a - b) - c), with
    # a = D[i, k], b = D[i, j], c = D[j, k]; only each i's worst is kept, and
    # the witness row is redone.  Triples with j = i or k in {i, j} give
    # e <= 0 when the diagonal is exactly 0 and positivity holds; then two
    # tests can prove rows clean ahead of the scan.
    # The hub certificate, at any size: an exactly symmetric table with
    # d(x, y) == max(a_x, a_y) for x != y, a the row of i, the first point of
    # its least entry, clears every row.  The comparison is exact, and it
    # makes D an ultrametric, a <= max(b, c) for every triple.  With b, c >= 0,
    # a <= b gives fl(a - b) <= 0, and a <= c gives a - b <= c, so
    # fl(a - b) <= c by monotone rounding; either way e <= 0.
    # The Chebyshev screen, from SCREEN_MIN_N points on, for other tables
    # (repaired, random and non-hub ultrametric ones among them).  Rounding is
    # monotone and b, c are floats (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., §2.1):
    #   e > tol >= 0  =>  fl(a - b) > c  =>  a - b > c  =>  a - c > b  =>  fl|a - c| >= b,
    # so a row i with S[i, j] = max_k fl|D[i, k] - D[j, k]| < D[i, j] for every
    # j != i holds no triple above tol.  The screen reads D with the diagonal
    # set to t, the least off-diagonal entry, so the columns k in {i, j} read
    # |t - d| < d rather than tying at d.  A tie S[i, j] == D[i, j] flags the
    # row, unless every difference is exact (the table lies on the ulp grid of
    # a power of two >= max D, as repaired tables do): then e > 0 forces
    # S[i, j] > D[i, j].  A cleared row's worst is 0 <= tol, so a failing
    # table's first worst row, and its witness, still come from the exact
    # scan; a passing one reports no witness.
    clean = positivity.passed and not diag.any()
    rows = np.arange(n)
    if clean and space.symmetric and _is_hub_ultrametric(D, i):
        rows = rows[:0]
    elif clean and n >= SCREEN_MIN_N:
        rows = _uncleared_rows(D, least)
    triangle = _axiom("triangle", True, None, 0.0)
    if len(rows):
        i = int(rows[np.argmax(_row_worst(D, rows))])
        with np.errstate(over="ignore"):  # as in _row_worst: -inf is no violation
            viol = D[i][None, :] - D[i][:, None] - D
        j, k = np.unravel_index(int(np.argmax(viol)), viol.shape)
        triangle = _axiom("triangle", viol[j, k] <= tolerance, (i, int(j), int(k)), viol[j, k])

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

    Finite spaces are checked exhaustively, on one path at every size
    (positivity uses exact comparison; the other axioms allow ``tolerance``
    slack, default 0).  Symmetry reads :attr:`MetricSpace.symmetric`, and
    only a table that is not exactly symmetric builds |D - D^T| for its
    witness.  The triangle inequality needs no scan when the table has a
    hub: an exactly symmetric table with a zero diagonal that passes
    positivity, and d(x, y) == max(a_x, a_y) for x != y, a the row of a
    point of its least entry, is an ultrametric, as the anchor tables of
    :mod:`cofix.oracle` are.  From ``SCREEN_MIN_N`` points on, scipy's
    Chebyshev distance screens the rows of other tables ahead of the exact
    scan.  Reports are the same as from the full scan; a failure names the
    violating pair or triple and the violation magnitude.

    Euclidean spaces need no check, since a norm induces a metric: the
    report is ``"analytic"``, four passing checks with no witness, and
    echoes ``tolerance`` as :meth:`MetricSpace.slack` resolves it.
    ``samples``, ``seed`` and ``box`` are unread on both flavors; they stay
    only because ``perfbench/workloads.py`` passes them.
    """
    tolerance = space.slack(0.0 if tolerance is None and space.is_finite else tolerance)
    if space.is_finite:
        return _verify_finite(space, tolerance)
    checks = tuple(_axiom(name, True, None, 0.0) for name in ("identity", "symmetry", "positivity", "triangle"))
    return AxiomReport(checks=checks, mode="analytic", tolerance=tolerance)
