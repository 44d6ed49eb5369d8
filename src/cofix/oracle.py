"""Instance generation and brute-force ground truth for finite problems.

The generator's main mode builds instances whose unique common fixed point
is known by construction.  It draws a profile rho of positive distances to
a chosen anchor point, sets d(x, y) = max(rho[x], rho[y]) for x != y (an
ultrametric, assembled without arithmetic so the table is exact in
floats), and uses descent mappings that always move to a point whose rho
is at most phi times the current one.  The contractive condition then
holds with margin exactly <= 0 in float evaluation, every orbit walks down
to the anchor, and the oracle answer is the anchor itself.  Brute-force
enumeration double-checks each emitted instance, so tests can treat the
generator's claims as ground truth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .contraction import (
    Arity,
    Coefficients,
    MappingSet,
    TableMapping,
    check_condition,
    check_range_inclusions,
)
from .errors import CofixError, DomainError, ExhaustiveOnInfinite
from .metric_core import MetricSpace, _least_off_diagonal, verify_metric_axioms
from .records import Record, ValueEnum, int_arg
from .reduction import coincidence_points, is_weakly_compatible


class MetricMode(ValueEnum):
    UNIFORM = "uniform"
    INTEGER = "integer"
    EMBEDDED = "embedded"


class MappingMode(ValueEnum):
    CONTRACTION_ANCHOR = "contraction_anchor"
    RANDOM = "random"


# distances are snapped to multiples of 2**-GRID_BITS and capped, so sums
# and differences of two entries stay exactly representable in a double
GRID_BITS = 20
MAX_DISTANCE = 1024.0
# repaired tables keep distinct points at least this far apart
MIN_SEPARATION = 1e-6


def metric_closure_repair(table: np.ndarray) -> np.ndarray:
    """Turn a square array into an exact finite metric table, closed with zero tolerance.

    NaN reads as 0, +inf as ``MAX_DISTANCE`` and a negative entry as its
    magnitude.  Entries are clipped to [0, 1024] and snapped to integers of
    2**-20 units in uint32, symmetrized by the entrywise minimum with a zero
    diagonal, and closed by Floyd–Warshall (Floyd 1962, CACM "Algorithm 97")
    in place, one point k at a time, with one n x n scratch array.  No check
    runs after it, for these reasons:

    * the integers are at most 2**30, so no sum of two wraps: every step is
      exact, and G[i, j] <= G[i, k] + G[k, j] for all i, j and k;
    * ``via`` = G[:, k] + G[k, :] is built whole before the minimum and is
      symmetric when G is, so G stays symmetric; via[i, i] >= 0 keeps the
      diagonal 0;
    * every entry, sum or difference of entries is a multiple of 2**-20
      below 2**11, so dividing back and the float triangle test are exact;
    * below ``MIN_SEPARATION``, every off-diagonal entry is lifted by b, the
      least grid multiple at or above it; d(x, z) + b <= (d(x, y) + b) +
      (d(y, z) + b) keeps the table closed, and no off-diagonal entry is 0.
    """
    D = np.asarray(table, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1] or not D.size:
        raise DomainError(f"need a square, non-empty table, got shape {D.shape}")
    scale = float(2**GRID_BITS)
    D = np.nan_to_num(np.abs(D), nan=0.0, posinf=MAX_DISTANCE, neginf=0.0)
    G = np.round(np.clip(D, 0.0, MAX_DISTANCE) * scale).astype(np.uint32)
    G = np.minimum(G, G.T)
    np.fill_diagonal(G, 0)

    via = np.empty_like(G)
    for k in range(G.shape[0]):
        np.add(G[:, k, None], G[None, k, :], out=via)
        np.minimum(G, via, out=G)
    np.divide(G, scale, out=D)

    # one point has no off-diagonal entry: its floor is inf
    if _least_off_diagonal(D)[0] < MIN_SEPARATION:
        D += np.ceil(MIN_SEPARATION * scale) / scale
        np.fill_diagonal(D, 0.0)
    return D


def enumerate_fixed_points(space: MetricSpace, m: TableMapping) -> tuple[int, ...]:
    """All x with m(x) = x, by exhaustive scan."""
    m.validate(space)
    return tuple(int(x) for x in np.flatnonzero(m.table == np.arange(space.n)))


@dataclass(frozen=True)
class CoincidenceClass(Record):
    """Coincidence points grouped by the value they share."""

    value: int
    points: tuple[int, ...]


@dataclass(frozen=True)
class OracleResult(Record):
    """Ground truth for a finite instance, by exhaustive enumeration."""

    common_fixed_points: tuple[int, ...]
    fixed_points: dict
    coincidence_classes: tuple[CoincidenceClass, ...] = ()


def oracle_summary(space: MetricSpace, maps: MappingSet) -> OracleResult:
    """Enumerate fixed points, common fixed points, and coincidence classes."""
    if not space.is_finite:
        raise ExhaustiveOnInfinite("oracle enumeration needs a finite universe")
    maps.validate(space)
    fixed = {label: enumerate_fixed_points(space, m) for label, m in maps.items()}
    common = tuple(sorted(set.intersection(*map(set, fixed.values()))))
    classes: tuple[CoincidenceClass, ...] = ()
    if maps.arity >= Arity.THREE:
        scan = coincidence_points(space, maps)
        pts, vals = np.array(scan.points, dtype=int), np.array(scan.values, dtype=int)
        classes = tuple(CoincidenceClass(value=v, points=tuple(np.unique(pts[vals == v]).tolist())) for v in sorted(set(scan.values)))
    return OracleResult(common_fixed_points=common, fixed_points=fixed, coincidence_classes=classes)


@dataclass(frozen=True)
class InstanceRecipe(Record):
    """Reproducible parameters for one generated instance: integers ``seed`` >= 0 and ``n`` >= 2, or DomainError."""

    seed: int
    n: int
    arity: Arity = Arity.TWO
    metric_mode: MetricMode = MetricMode.UNIFORM
    mapping_mode: MappingMode = MappingMode.CONTRACTION_ANCHOR

    def __post_init__(self):
        for name, least in (("seed", 0), ("n", 2)):
            object.__setattr__(self, name, int_arg(name, getattr(self, name), least))
        object.__setattr__(self, "arity", Arity(self.arity))
        object.__setattr__(self, "metric_mode", MetricMode(self.metric_mode))
        object.__setattr__(self, "mapping_mode", MappingMode(self.mapping_mode))


@dataclass(frozen=True)
class GeneratedInstance:
    """A complete problem plus its ground truth.

    For anchor-mode instances ``anchor`` is the unique common fixed point
    and ``phi`` the descent factor; both are None in random mode.
    """

    space: MetricSpace
    maps: MappingSet
    coefficients: Coefficients
    recipe: InstanceRecipe
    oracle: OracleResult
    anchor: Optional[int] = None
    phi: Optional[float] = None


def _rho_profile(rng: np.random.Generator, n: int, mode: MetricMode) -> np.ndarray:
    if mode == MetricMode.INTEGER:
        return rng.integers(1, 10, size=n).astype(float)
    if mode == MetricMode.EMBEDDED:
        pts = rng.uniform(-4.0, 4.0, size=(n, 3))
        return np.maximum(np.linalg.norm(pts, axis=1), 1e-3)
    return rng.uniform(0.5, 8.0, size=n)


def _hub_space(rng: np.random.Generator, n: int, mode: MetricMode) -> tuple[MetricSpace, int, np.ndarray]:
    """Ultrametric around a random anchor: d(x, y) = max(rho[x], rho[y])."""
    anchor = int(rng.integers(0, n))
    rho = _rho_profile(rng, n, mode)
    rho[anchor] = 0.0
    D = np.maximum(rho[:, None], rho[None, :])
    np.fill_diagonal(D, 0.0)
    return MetricSpace.finite(D), anchor, rho


def _descent_table(rho: np.ndarray, phi: float, allowed: np.ndarray, rank: int) -> TableMapping:
    """Map each point to an allowed point whose rho is at most phi times its own.

    ``rank`` 0 picks the farthest qualifying target (slowest descent),
    rank 1 the second farthest when one exists.  Ties break to the
    smallest index; the anchor (rho zero) always qualifies, so the
    candidate set is never empty.
    """
    # allowed points by descending rho, then index: the qualifying targets of
    # x are the suffix from the first one with rho <= phi * rho[x]
    order = allowed[np.lexsort((allowed, -rho[allowed]))]
    first = np.searchsorted(-rho[order], -(phi * rho), side="left")
    return TableMapping(order[np.minimum(first + rank, order.shape[0] - 1)])


def _force_non_injective(f: np.ndarray, anchor: int) -> np.ndarray:
    n = f.shape[0]
    others = [i for i in range(n) if i != anchor]
    if len(others) >= 2:
        f[others[1]] = f[others[0]]
    else:
        f[others[0]] = anchor
    return f


def _mapping_set(arity: Arity, S: TableMapping, T: TableMapping, f: Optional[TableMapping]) -> MappingSet:
    """S and T with their companions by arity: none for two, f for three, f and g = f for four."""
    return MappingSet(S=S, T=T, f=f, g=f if arity == Arity.FOUR else None, arity=arity)


def _anchor_instance(recipe: InstanceRecipe, rng: np.random.Generator) -> GeneratedInstance:
    space, anchor, rho = _hub_space(rng, recipe.n, recipe.metric_mode)
    phi = float(rng.uniform(0.35, 0.65))
    f, targets = None, np.arange(recipe.n)
    if recipe.arity >= Arity.THREE:
        f_table = rng.integers(0, recipe.n, size=recipe.n)
        f_table[anchor] = anchor
        f = TableMapping(_force_non_injective(f_table, anchor))
        targets = f.image()

    sigma = _descent_table(rho, phi, targets, rank=0)
    S = sigma if f is None else sigma.compose(f)
    four = recipe.arity == Arity.FOUR
    T = _descent_table(rho, phi, targets, rank=1).compose(f) if four else S
    maps = _mapping_set(recipe.arity, S, T, f)
    coefficients = Coefficients(0.0, 0.0, phi, 0.0, phi if four else 0.0)

    oracle = _verified_oracle(space, maps, coefficients, anchor)
    return GeneratedInstance(
        space=space,
        maps=maps,
        coefficients=coefficients,
        recipe=recipe,
        oracle=oracle,
        anchor=anchor,
        phi=phi,
    )


def _verified_oracle(space: MetricSpace, maps: MappingSet, c: Coefficients, anchor: int) -> OracleResult:
    """Re-check every claim an anchor instance makes before emitting it; a false one raises AssertionError, also under -O."""
    axioms = verify_metric_axioms(space, tolerance=0.0)
    if not axioms.passed:
        raise AssertionError(f"generated table broke axiom {next(ch.name for ch in axioms.checks if not ch.passed)}")
    report = check_condition(space, maps, c)
    if not report.satisfied:
        raise AssertionError(f"generated instance violates its own condition at {report.worst_pair}")
    if not check_range_inclusions(space, maps).holds:
        raise AssertionError("generated instance breaks a range inclusion")
    oracle = oracle_summary(space, maps)
    if oracle.common_fixed_points != (anchor,):
        raise AssertionError(f"anchor {anchor} is not the unique common fixed point: {oracle.common_fixed_points}")
    for label, m, tag, companion in maps.sides:
        if companion is not None:
            wc = is_weakly_compatible(space, m, companion, names=(label, tag))
            if not wc.compatible:
                raise AssertionError(f"generated mappings {(label, tag)} fail weak compatibility at {wc.witness}")
    for klass in oracle.coincidence_classes:
        if klass.value != anchor:
            raise AssertionError(f"coincidence value {klass.value} differs from the anchor")
    return oracle


def _random_instance(recipe: InstanceRecipe, rng: np.random.Generator) -> GeneratedInstance:
    n = recipe.n
    if recipe.metric_mode == MetricMode.EMBEDDED:
        pts = rng.uniform(-4.0, 4.0, size=(n, 3))
        raw = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    elif recipe.metric_mode == MetricMode.INTEGER:
        raw = rng.integers(1, 10, size=(n, n)).astype(float)
    else:
        raw = rng.uniform(0.1, 8.0, size=(n, n))
    space = MetricSpace.finite(metric_closure_repair(raw))

    weights = rng.dirichlet(np.ones(5))[:4] * rng.uniform(0.3, 0.9)
    coefficients = Coefficients(*weights[:3], weights[3] / 2.0, rng.uniform(0.0, 1.0))

    # f is drawn before S and T, which take values in its image: the draw order fixes every table
    f = TableMapping(rng.integers(0, n, size=n)) if recipe.arity >= Arity.THREE else None
    targets = np.arange(n) if f is None else f.image()
    draw = lambda: TableMapping(targets[rng.integers(0, targets.shape[0], size=n)])
    maps = _mapping_set(recipe.arity, draw(), draw(), f)
    return GeneratedInstance(
        space=space,
        maps=maps,
        coefficients=coefficients,
        recipe=recipe,
        oracle=oracle_summary(space, maps),
    )


def generate_instance(recipe: InstanceRecipe) -> GeneratedInstance:
    """Build the instance the recipe describes, with its oracle attached."""
    rng = np.random.default_rng(recipe.seed)
    if recipe.mapping_mode == MappingMode.CONTRACTION_ANCHOR:
        return _anchor_instance(recipe, rng)
    return _random_instance(recipe, rng)


@dataclass(frozen=True)
class FuzzSummary(Record):
    """Aggregate outcome of a batch of generated instances."""

    count: int
    seed: int
    arity: Arity
    metric_mode: MetricMode
    mapping_mode: MappingMode
    n_range: tuple[int, int]
    tallies: dict = field(default_factory=dict)
    mismatch_seeds: tuple[int, ...] = ()
    elapsed: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.mismatch_seeds


def run_fuzz(
    count: int,
    *,
    seed: int = 0,
    n_min: int = 2,
    n_max: int = 16,
    arity: Arity = Arity.TWO,
    metric_mode: MetricMode = MetricMode.UNIFORM,
    mapping_mode: MappingMode = MappingMode.CONTRACTION_ANCHOR,
) -> FuzzSummary:
    """Generate ``count`` instances and cross-check solvers against oracles.

    Instance i uses seed ``seed + i``, so a mismatch seed reported in the
    summary reproduces its instance directly through
    :func:`generate_instance`.  One rule judges both solvers: a point the
    solve names as common fixed point must be an enumerated one, and
    naming none (a failed orbit, a coincidence-only pipeline, a tallied
    CofixError) is a mismatch only in anchor mode, whose answer is known.
    Condition violations are simply tallied.  Integers ``count`` >= 1, ``seed``
    >= 0 and 2 <= ``n_min`` <= ``n_max`` are required, or DomainError.
    """
    from .reduction import PipelineOptions, solve_pipeline
    from .solver import picard_solve

    count, seed, n_min = int_arg("count", count, 1), int_arg("seed", seed, 0), int_arg("n_min", n_min, 2)
    n_max = int_arg("n_max", n_max, n_min)
    arity, metric_mode, mapping_mode = Arity(arity), MetricMode(metric_mode), MappingMode(mapping_mode)
    size_rng = np.random.default_rng(seed)
    tallies: dict = {
        "generated": 0,
        "condition_satisfied": 0,
        "condition_violated": 0,
        "converged": 0,
        "rate_violated": 0,
        "max_iterations": 0,
        "oracle_matched": 0,
        "pipeline_common_fixed_point": 0,
        "pipeline_coincidence_only": 0,
        "pipeline_errors": 0,
    }
    mismatches: list[int] = []
    t0 = time.perf_counter()

    for i in range(count):
        recipe = InstanceRecipe(
            seed=seed + i,
            n=int(size_rng.integers(n_min, n_max + 1)),
            arity=arity,
            metric_mode=metric_mode,
            mapping_mode=mapping_mode,
        )
        inst = generate_instance(recipe)
        tallies["generated"] += 1
        space, maps, c = inst.space, inst.maps, inst.coefficients

        report = check_condition(space, maps, c)
        tallies["condition_satisfied" if report.satisfied else "condition_violated"] += 1

        # each solver names the point it certified, or None
        if arity == Arity.TWO:
            x0 = int(np.random.default_rng(recipe.seed ^ 0xA5A5).integers(0, space.n))
            solve = picard_solve(space, maps.S, maps.T, c, x0, keep_trace=False)
            key, named = str(solve.status), solve.point if solve.converged else None
        else:
            options = PipelineOptions(verify_hypotheses=False, keep_trace=False)
            try:
                pipe = solve_pipeline(space, maps, c, None, options)
            except CofixError:
                key, named = "pipeline_errors", None
            else:
                key, named = f"pipeline_{pipe.status}", pipe.common_fixed_point
        tallies[key] = tallies.get(key, 0) + 1
        if named is not None and named in inst.oracle.common_fixed_points:
            tallies["oracle_matched"] += 1
        elif named is not None or inst.anchor is not None:
            mismatches.append(recipe.seed)

    return FuzzSummary(
        count=count,
        seed=seed,
        arity=arity,
        metric_mode=metric_mode,
        mapping_mode=mapping_mode,
        n_range=(n_min, n_max),
        tallies=tallies,
        mismatch_seeds=tuple(mismatches),
        elapsed=time.perf_counter() - t0,
    )
