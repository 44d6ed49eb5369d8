"""Pinned synthesis results on seeded problems.

Each case pins what ``synthesize_coefficients`` returns, exactly: the
tuple's ``repr``, or the ``Infeasible`` message and its binding pair.  A
change to the synthesis LP that moves any of them shows up here.  The
generated tables lie on a dyadic grid, so their margins are exact; the
LP's vertex is HiGHS's (captured with scipy 1.17, numpy 2.4), and where
the optimum is not unique another HiGHS build may pick another vertex of
the same coefficient sum.
"""

import warnings

import numpy as np
import pytest

from cofix import (
    AffineMapping,
    InstanceRecipe,
    MappingMode,
    MappingSet,
    MetricMode,
    MetricSpace,
    SampledPairs,
    TableMapping,
    generate_instance,
    synthesize_coefficients,
)
from cofix.errors import Infeasible

ANCHOR, RANDOM = MappingMode.CONTRACTION_ANCHOR, MappingMode.RANDOM
UNIFORM, INTEGER, EMBEDDED = MetricMode.UNIFORM, MetricMode.INTEGER, MetricMode.EMBEDDED


def generated(seed, n, arity, metric_mode, mapping_mode):
    inst = generate_instance(InstanceRecipe(seed, n, arity, metric_mode, mapping_mode))
    return inst.space, inst.maps, None


def affine(seed, m, rate, samples):
    """S = T = rate * Q about a point z, Q a seeded orthogonal matrix, sampled in [-10, 10]^m."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    Q = q * np.sign(np.diag(r))
    z = rng.uniform(-1.0, 1.0, size=m)
    S = AffineMapping(rate * Q, z - rate * Q @ z)
    return MetricSpace.euclidean(m), MappingSet(S, S), SampledPairs(samples, seed, (-10.0, 10.0))


def near_overflow():
    """d(1, 2) = 1e308 under the identity: every term reading it overflows, and (1, 2)'s margins are NaN."""
    ident = TableMapping([0, 1, 2])
    return MetricSpace.finite([[0, 1, 1], [1, 0, 1e308], [1, 1e308, 0]]), MappingSet(ident, ident), None


CASES = [
    (
        generated(0, 8, 2, UNIFORM, ANCHOR),
        "Coefficients(alpha=0.0, beta=0.0, gamma=0.6231139448847784, delta=0.0, L=0.0)",
    ),
    (
        generated(0, 12, 2, EMBEDDED, ANCHOR),
        "Coefficients(alpha=0.0, beta=0.0, gamma=0.2822790181965116, delta=0.33386049090174413, L=0.0)",
    ),
    (
        generated(0, 11, 2, INTEGER, RANDOM),
        ("no coefficient tuple covers all 121 pairs; most binding pair (0, 2) lacks 1.55263", (0, 2)),
    ),
    (
        generated(2, 16, 3, UNIFORM, ANCHOR),
        "Coefficients(alpha=0.0, beta=0.0, gamma=0.09353005332619535, delta=0.42823497333690225, L=0.0)",
    ),
    (
        generated(0, 15, 3, UNIFORM, RANDOM),
        ("no coefficient tuple covers all 225 pairs; most binding pair (1, 6) lacks 0.529281", (1, 6)),
    ),
    (
        generated(1, 37, 3, EMBEDDED, RANDOM),
        ("no coefficient tuple covers all 1369 pairs; most binding pair (21, 31) lacks 4.16526", (21, 31)),
    ),
    (
        generated(0, 22, 4, INTEGER, ANCHOR),
        "Coefficients(alpha=0.10000000000000009, beta=0.0, gamma=0.24999999999999994, delta=0.24999999999999994, L=0.0)",
    ),
    (
        generated(2, 26, 4, EMBEDDED, ANCHOR),
        "Coefficients(alpha=0.16097285597520986, beta=0.0, gamma=0.16726617294834434, delta=0.16726617294834434, L=0.0)",
    ),
    (
        generated(0, 21, 4, UNIFORM, RANDOM),
        ("no coefficient tuple covers all 441 pairs; most binding pair (5, 14) lacks 0.940374", (5, 14)),
    ),
    (
        affine(3, 3, 1.05, 800),
        "Coefficients(alpha=0.0, beta=0.0, gamma=0.8826752505334874, delta=0.03366237473325559, L=3.1694099692175723)",
    ),
    (affine(8, 2, 0.9, 1000), "Coefficients(alpha=0.0, beta=0.0, gamma=0.918, delta=0.0, L=0.0)"),
    (
        near_overflow(),
        ("no coefficient tuple covers all 9 pairs; most binding pair (1, 2) lacks nan", (1, 2)),
    ),
]


@pytest.mark.parametrize("case, expected", CASES, ids=range(len(CASES)))
def test_synthesis_result_is_pinned(case, expected):
    space, maps, source = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = repr(synthesize_coefficients(space, maps, *(() if source is None else (source,))))
        except Infeasible as exc:
            got = (str(exc), exc.binding_pair)
    assert got == expected
