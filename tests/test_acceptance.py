"""Acceptance gate: eight end-to-end criteria over the whole library.

Each test covers one criterion and prints a single verdict line; run with
``pytest tests/test_acceptance.py -s`` to see the lines as they pass.  The
first three criteria share a module-scoped corpus of a thousand seeded
finite instances, so the corpus is generated once.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from cofix import (
    AffineMapping,
    Arity,
    BoundViolation,
    Coefficients,
    GeneratedInstance,
    InstanceRecipe,
    MappingSet,
    MetricMode,
    MetricSpace,
    PipelineOptions,
    PipelineStatus,
    SampledPairs,
    SolveReport,
    SolveStatus,
    TableMapping,
    UniquenessVerdict,
    check_condition,
    generate_instance,
    identity_mapping,
    induce,
    injective_restriction,
    picard_solve,
    rate_constant,
    solve_pipeline,
    synthesize_coefficients,
    uniqueness_check,
)
from cofix.contraction import rhs_two, validate_coefficients

CORPUS_SIZE = 1000
RATIO_SLACK = 1e-12
BOUND_SLACK = 1e-9


@contextmanager
def criterion(num: int, description: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}  {description}", flush=True)


@dataclass(frozen=True)
class CorpusEntry:
    instance: GeneratedInstance
    condition_ok: bool
    starts_to_anchor: int
    traced: SolveReport


@pytest.fixture(scope="module")
def corpus():
    t0 = time.perf_counter()
    entries = []
    modes = list(MetricMode)
    for seed in range(CORPUS_SIZE):
        n = 2 + (seed * 37) % 63
        recipe = InstanceRecipe(seed=seed, n=n, metric_mode=modes[seed % len(modes)])
        inst = generate_instance(recipe)
        space, maps, c = inst.space, inst.maps, inst.coefficients
        report = check_condition(space, maps, c, tolerance=0.0)
        hits = 0
        for x0 in range(n):
            run = picard_solve(space, maps.S, maps.T, c, x0, keep_trace=False)
            hits += run.status == SolveStatus.CONVERGED and run.point == inst.anchor
        farthest = int(np.argmax(space.table[inst.anchor]))
        traced = picard_solve(space, maps.S, maps.T, c, farthest, keep_trace=True)
        entries.append(CorpusEntry(inst, report.satisfied, hits, traced))
    return {"entries": entries, "elapsed": time.perf_counter() - t0}


def test_criterion_1_anchor_corpus_converges_from_every_start(corpus):
    desc = (
        f"{CORPUS_SIZE} seeded finite instances (n in 2..64, all metric modes): "
        "condition holds at zero tolerance and every start converges to the anchor within the time budget"
    )
    with criterion(1, desc):
        entries = corpus["entries"]
        assert len(entries) == CORPUS_SIZE
        sizes = {e.instance.recipe.n for e in entries}
        assert min(sizes) == 2
        assert max(sizes) == 64
        assert {e.instance.recipe.metric_mode for e in entries} == set(MetricMode)
        for e in entries:
            assert e.condition_ok, f"condition failed for seed {e.instance.recipe.seed}"
            assert e.starts_to_anchor == e.instance.recipe.n, (
                f"seed {e.instance.recipe.seed}: {e.starts_to_anchor} of "
                f"{e.instance.recipe.n} starts reached the anchor"
            )
        assert corpus["elapsed"] < 60.0, f"corpus took {corpus['elapsed']:.1f}s"


def test_criterion_2_orbit_gaps_respect_the_contraction_ratio(corpus):
    desc = "every consecutive orbit gap is at most the guaranteed ratio times its predecessor"
    with criterion(2, desc):
        gaps_checked = 0
        for e in corpus["entries"]:
            steps = e.traced.trace.steps
            k = e.traced.rate
            for prev, cur in zip(steps, steps[1:]):
                assert cur <= k * prev + RATIO_SLACK, (
                    f"seed {e.instance.recipe.seed}: gap {cur} exceeds {k} * {prev}"
                )
                gaps_checked += 1
        assert gaps_checked > CORPUS_SIZE


def test_criterion_3_apriori_bounds_dominate_true_distances(corpus):
    desc = "the a-priori error bound dominates the true distance to the anchor at every iterate"
    with criterion(3, desc):
        for e in corpus["entries"]:
            space, anchor = e.instance.space, e.instance.anchor
            trace, bounds = e.traced.trace, e.traced.apriori_bounds
            assert len(bounds) == len(trace.points)
            for point, bound in zip(trace.points, bounds):
                actual = space.distance(point, anchor)
                assert actual <= bound + BOUND_SLACK, (
                    f"seed {e.instance.recipe.seed}: distance {actual} above bound {bound}"
                )


def test_criterion_4_three_mapping_reduction_matches_ground_truth():
    desc = (
        "300 instances with a non-injective third mapping: induced fixed points equal "
        "the enumerated coincidence values and the pipeline lifts them to the anchor"
    )
    with criterion(4, desc):
        for seed in range(2000, 2300):
            n = 3 + seed % 10
            inst = generate_instance(InstanceRecipe(seed=seed, n=n, arity=Arity.THREE))
            space, maps, c = inst.space, inst.maps, inst.coefficients
            assert len(set(maps.f.table.tolist())) < n, "generator must force a non-injective f"

            induced = induce(space, maps)
            truth = {klass.value for klass in inst.oracle.coincidence_classes}
            # induced tables also fix every point off the image: look inside it only
            fixed_s = {y for y in induced.image if induced.S(y) == y}
            fixed_t = {y for y in induced.image if induced.T(y) == y}
            assert fixed_s & fixed_t == truth
            assert fixed_s == truth
            assert fixed_t == truth
            assert truth == {inst.anchor}

            start = int(np.argmax(space.table[inst.anchor]))
            report = solve_pipeline(space, maps, c, start, PipelineOptions())
            assert report.status == PipelineStatus.COMMON_FIXED_POINT
            assert report.common_fixed_point == inst.anchor
            assert report.point_of_coincidence == inst.anchor


def test_criterion_5_four_mapping_pipeline_agrees_with_plain_solver(corpus):
    desc = (
        "identity factor mappings reproduce the plain two-mapping orbit exactly, and "
        "100 instances with a shared non-trivial factor lift to the anchor"
    )
    with criterion(5, desc):
        for e in corpus["entries"][:100]:
            inst = e.instance
            space, maps, c = inst.space, inst.maps, inst.coefficients
            ident = identity_mapping(inst.recipe.n)
            start = int(np.argmax(space.table[inst.anchor]))
            four = MappingSet(maps.S, maps.T, ident, ident, arity=Arity.FOUR)
            report = solve_pipeline(space, four, c, start, PipelineOptions(keep_trace=True))
            assert report.status == PipelineStatus.COMMON_FIXED_POINT
            assert report.common_fixed_point == e.traced.point
            inner = report.solve_report
            assert inner.point == e.traced.point
            assert inner.iterations == e.traced.iterations
            assert inner.trace.points == e.traced.trace.points
            assert inner.trace.steps == e.traced.trace.steps

        for seed in range(4000, 4100):
            n = 3 + seed % 10
            inst = generate_instance(InstanceRecipe(seed=seed, n=n, arity=Arity.FOUR))
            space, maps, c = inst.space, inst.maps, inst.coefficients
            assert maps.f.table.tolist() == maps.g.table.tolist()
            assert len(set(maps.f.table.tolist())) < n
            report = solve_pipeline(space, maps, c, int(np.argmax(space.table[inst.anchor])), PipelineOptions())
            assert report.status == PipelineStatus.COMMON_FIXED_POINT
            assert report.common_fixed_point == inst.anchor


def test_criterion_6_injective_restrictions_preserve_images():
    desc = "1000 random finite mappings: the injective restriction is injective and keeps the full image"
    with criterion(6, desc):
        rng = np.random.default_rng(20260815)
        for _ in range(1000):
            n = int(rng.integers(2, 13))
            table = rng.integers(0, n, size=n)
            space = MetricSpace.finite(np.ones((n, n)) - np.eye(n))
            f = TableMapping(table)
            section = injective_restriction(space, f)

            image = sorted(set(table.tolist()))
            assert list(section.image) == image
            assert len(section.domain) == len(section.image)
            restricted = [int(table[x]) for x in section.domain]
            assert restricted == list(section.image)
            assert len(set(section.domain)) == len(section.domain)
            for y in section.image:
                x = section.pull_back(y)
                assert x in section.domain
                assert int(table[x]) == y
                assert x == int(np.flatnonzero(table == y)[0])


def test_criterion_7_rejections_and_violation_reports_are_faithful():
    desc = (
        "over-budget weights are rejected, violation reports re-verify against scalar "
        "arithmetic, and identity mappings are never certified unique"
    )
    with criterion(7, desc):
        rng = np.random.default_rng(7)
        rejected = 0
        for _ in range(200):
            raw = rng.uniform(0.05, 1.0, size=4)
            target = rng.uniform(1.0 + 1e-9, 1.3)
            scale = target / (raw[0] + raw[1] + raw[2] + 2.0 * raw[3])
            # the tuple is checked when it is built
            with pytest.raises(BoundViolation):
                Coefficients(*(raw * scale), L=float(rng.uniform(0.0, 2.0)))
            rejected += 1
        for boundary in ((0.5, 0.25, 0.15, 0.05), (1.0, 0.0, 0.0, 0.0)):
            with pytest.raises(BoundViolation):
                Coefficients(*boundary)
            rejected += 1
        assert rejected == 202

        harvested = 0
        seed = 5000
        while harvested < 200 and seed < 7000:
            n = 4 + seed % 9
            inst = generate_instance(
                InstanceRecipe(seed=seed, n=n, mapping_mode="random")
            )
            seed += 1
            space, maps, c = inst.space, inst.maps, inst.coefficients
            report = check_condition(space, maps, c)
            if report.satisfied:
                continue
            x, y = report.worst_pair
            lhs = space.distance(maps.S(x), maps.T(y))
            rhs = rhs_two(c, space, maps.S, maps.T, x, y)
            assert lhs - rhs > report.tolerance
            assert abs((lhs - rhs) - report.worst_margin) <= 1e-12
            harvested += 1
        assert harvested == 200

        c_id = Coefficients(0.08, 0.06, 0.1, 0.04, 0.2)
        for seed in range(40):
            n = 2 + seed % 12
            inst = generate_instance(InstanceRecipe(seed=seed, n=n))
            space = inst.space
            ident = identity_mapping(n)
            report = check_condition(space, MappingSet(ident, ident), c_id)
            assert not report.satisfied
            far = int(np.argmax(space.table[0]))
            for start in (0, far):
                run = picard_solve(space, ident, ident, c_id, start)
                assert run.status == SolveStatus.CONVERGED
                assert run.point == start
            verdict = uniqueness_check(space, ident, ident, c_id, 0, far)
            assert verdict == UniquenessVerdict.DISTINCT


def test_criterion_8_euclidean_synthesis_certificate_holds_off_sample():
    desc = (
        "coefficients synthesized from 20k sampled pairs re-verify on 100k fresh pairs "
        "and drive the solver to the origin within 200 iterations"
    )
    with criterion(8, desc):
        space = MetricSpace.euclidean(1)
        maps = MappingSet(
            S=AffineMapping(np.array([[1.0 / 3.0]]), np.zeros(1)),
            T=AffineMapping(np.array([[0.25]]), np.zeros(1)),
            arity=Arity.TWO,
        )
        train = SampledPairs(samples=20000, seed=101, box=(-10.0, 10.0))
        c = synthesize_coefficients(space, maps, train)
        validate_coefficients(c)
        assert rate_constant(c) < 1.0

        fresh = SampledPairs(samples=100000, seed=202, box=(-10.0, 10.0))
        report = check_condition(space, maps, c, fresh, tolerance=1e-9)
        assert report.satisfied
        assert report.pairs_checked == 100000

        run = picard_solve(space, maps.S, maps.T, c, np.array([1.0]), tol=1e-11, max_iters=200)
        assert run.status == SolveStatus.CONVERGED
        assert run.iterations <= 200
        assert abs(run.point[0]) < 1e-10
