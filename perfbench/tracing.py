"""Spans around cofix's layer functions, recorded from outside the library.

:meth:`Tracer.install` replaces each traced function on every ``cofix``
module that holds it (``cofix.cli.picard_solve``,
``cofix.reduction.check_condition_three``, ``cofix.oracle.verify_metric_axioms``,
the package namespace, ...), so calls between layers become child spans of
their caller.  Spans stay in memory as ``(name, start, end, parent, op)``
tuples and are summarised, or written out, after the run.  A span's self
time is its duration minus that of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# span name -> (defining module, function names)
TRACED = {
    "metric_core.axioms": ("cofix.metric_core", ("verify_metric_axioms",)),
    "contraction.check": ("cofix.contraction", ("check_condition_two", "check_condition_three", "check_condition_four")),
    "contraction.synth": ("cofix.contraction", ("synthesize_coefficients",)),
    "contraction.inclusions": ("cofix.contraction", ("check_range_inclusions",)),
    "solver.picard": ("cofix.solver", ("picard_solve",)),
    "reduction.pipeline": ("cofix.reduction", ("solve_three", "solve_four", "solve_three_coincidence", "solve_four_coincidence")),
    "oracle.generate": ("cofix.oracle", ("generate_instance",)),
    "oracle.repair": ("cofix.oracle", ("metric_closure_repair",)),
    "problem.io": ("cofix.problem", ("load_problem", "problem_to_dict", "as_problem")),
    "cli.main": ("cofix.cli", ("main",)),
}
# spans whose peak traced allocation is recorded, in a pass of its own
# (a nested one counts towards the outermost)
PEAK_TRACKED = ("metric_core.axioms", "contraction.check", "contraction.synth", "oracle.repair")
# the benchmark's own spans: inside an op, and its client work between ops
BENCH_OP, BENCH_CLIENT = "bench.op", "bench.client"
LAYERS = ("metric_core", "contraction", "solver", "reduction", "oracle", "problem", "cli")
LAMBDA_TAGS = {1.0: "lam1e0", 1e2: "lam1e2", 1e4: "lam1e4", 1e6: "lam1e6", 1e8: "lam1e8"}


def _counts(name: str, args, kwargs, result, exc) -> dict:
    """Work counted at a span boundary, read from arguments and results."""
    from cofix.errors import CofixError, Infeasible
    from cofix.reduction import PipelineStatus
    from cofix.solver import SolveStatus

    if name == "metric_core.axioms":
        space = args[0]
        return {"triples": space.n**3 if space.is_finite else kwargs.get("samples", 243)}
    if exc is not None:
        if name == "contraction.synth" and isinstance(exc, Infeasible):
            return {"infeasible": 1}
        if name == "reduction.pipeline" and isinstance(exc, CofixError):
            return {"errors": 1}
        return {}
    if name == "contraction.check":
        return {"pairs": result.pairs_checked}
    if name == "solver.picard":
        return {"iterations": result.iterations, "not_converged": int(result.status != SolveStatus.CONVERGED)}
    if name == "reduction.pipeline":
        return {"common_fixed_point": int(result.status == PipelineStatus.COMMON_FIXED_POINT)}
    if name == "cli.main":
        return {"nonzero_exit": int(result != 0)}
    return {}


class Tracer:
    """Spans, counters and allocation peaks of one traced replay.

    The runner sets ``op`` (the op id) and ``lam`` (its coordinate scale)
    before each op, and ``active`` while the op's library call runs, so
    the benchmark's own checks are not traced.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict = defaultdict(float)
        self.peaks: dict = defaultdict(float)
        self.op = -1
        self.lam = None
        self.active = False
        # in the allocation pass, wrappers only record tracemalloc peaks:
        # tracing allocations slows Python code too much to time it as well
        self.alloc_pass = False
        self._patches: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, self.op))
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        self.stack.pop()
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, op)

    @contextmanager
    def span(self, name: str):
        if self.alloc_pass:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        tracer = self
        peak = name in PEAK_TRACKED

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if tracer.alloc_pass:
                if not peak or tracemalloc.is_tracing():
                    return fn(*args, **kwargs)
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.peaks[name] = max(tracer.peaks[name], tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
            idx = tracer._open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                tracer._close(idx)
                tracer.counters[name + ".calls"] += 1
                for key, value in _counts(name, args, kwargs, result, exc).items():
                    tracer.counters[f"{name}.{key}"] += value
                if name == "solver.picard" and tracer.lam is not None and exc is None:
                    tag = LAMBDA_TAGS[tracer.lam]
                    tracer.counters[f"solver.picard.calls.{tag}"] += 1
                    tracer.counters[f"solver.picard.not_converged.{tag}"] += int(not result.converged)

        return traced

    def _count_lp_rows(self, linprog):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active and not tracer.alloc_pass and kwargs.get("A_ub") is not None:
                tracer.counters["contraction.synth.lp_rows"] += kwargs["A_ub"].shape[0]
            return linprog(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every traced function wherever a cofix module holds it."""
        import scipy.optimize

        modules = [m for key, m in sys.modules.items() if key == "cofix" or key.startswith("cofix.")]
        for name, (home, fns) in TRACED.items():
            for fn_name in fns:
                original = getattr(sys.modules[home], fn_name)
                wrapper = self._wrap(original, name)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        self._patches.append((scipy.optimize, "linprog", scipy.optimize.linprog))
        scipy.optimize.linprog = self._count_lp_rows(scipy.optimize.linprog)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def self_times(self) -> dict:
        """Total self time per span name."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += (end - start) - child[idx]
        return total

    def metrics(self, ops: int, wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics; counts and times are per op of the traced run."""
        selfs = self.self_times()
        c = self.counters
        out = {}

        def put(name, value, unit):
            out[name] = {"value": float(value), "unit": unit}

        def per_op(name, unit="count/op"):
            put(name, c[name] / ops, unit)

        for name in TRACED:
            per_op(f"{name}.calls")
            put(f"{name}.self_s", selfs[name] / ops, "s/op")
        for name in PEAK_TRACKED:
            put(f"{name}.peak_alloc_mib", self.peaks[name], "MiB")
        per_op("metric_core.axioms.triples")
        per_op("contraction.check.pairs")
        check_s = selfs["contraction.check"]
        put("contraction.check.pairs_per_s", c["contraction.check.pairs"] / check_s if check_s else 0.0, "1/s")
        per_op("contraction.synth.lp_rows")
        per_op("contraction.synth.infeasible")
        per_op("solver.picard.iterations")
        iters = c["solver.picard.iterations"]
        put("solver.picard.us_per_iteration", 1e6 * selfs["solver.picard"] / iters if iters else 0.0, "us")
        per_op("solver.picard.not_converged")
        for tag in LAMBDA_TAGS.values():
            calls = c[f"solver.picard.calls.{tag}"]
            frac = c[f"solver.picard.not_converged.{tag}"] / calls if calls else 0.0
            put(f"solver.picard.not_converged_frac.{tag}", frac, "fraction")
        per_op("reduction.pipeline.common_fixed_point")
        per_op("reduction.pipeline.errors")
        per_op("cli.main.nonzero_exit")
        for layer in LAYERS:
            put(f"{layer}.self_s", sum(v for k, v in selfs.items() if k.startswith(layer + ".")) / ops, "s/op")
        bench = selfs[BENCH_OP] + selfs[BENCH_CLIENT]
        put("bench.self_s", bench / ops, "s/op")
        put("trace.wall_s", wall / ops, "s/op")
        put("trace.accounted_frac", sum(selfs.values()) / wall if wall else 0.0, "fraction")
        put("trace.overhead_frac", wall / untraced_wall - 1.0 if untraced_wall else 0.0, "fraction")
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent index, op id."""
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
