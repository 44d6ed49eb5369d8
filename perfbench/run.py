"""cofix benchmark: closed-loop workloads whose every op is checked for correctness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the library is imported from
``src/``.  One client issues ops back to back in one thread (a closed
loop); whole cycles of ops run until ``--seconds`` have passed.  Each
workload runs in a subprocess of its own, so its peak RSS is its own.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced run (see ``tracing.py``).  The last line of
standard output is the result object; the line before it records the run
environment.  ``--smoke`` runs one cycle of every workload, both ways, and
checks that every metric named in ``BENCHMARK.json`` is printed and that no
op failed.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"
WORKLOAD_NAMES = ("large_finite", "corpus_euclidean")
SETUP_REPEATS = 5
DEADLINE_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PERCENTILES = (50, 90)
MIX_WINDOW = 0.02


# ---------------------------------------------------------------- child side


def _import_library():
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    import cofix

    if Path(cofix.__file__).resolve().parent != SRC / "cofix":
        raise SystemExit(f"imported cofix from {cofix.__file__}, not from {SRC}")


def _execute(op, tracer=None):
    """Run one op; return (verdict, seconds inside the library call, why it is wrong)."""
    from cofix.errors import CofixError
    from workloads import WRONG

    error = None
    with _op_span(tracer, op):
        t0 = time.perf_counter()
        try:
            value = op.call()
        except CofixError as exc:
            value = exc
        except Exception as exc:  # an unexpected exception is a failed op, not a crash
            value, error = exc, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    if error is None:
        try:
            verdict = op.check(value)
        except Exception as exc:
            verdict, error = WRONG, f"check {type(exc).__name__}: {exc}"
        if verdict == WRONG and error is None:
            error = "wrong answer"
    else:
        verdict = WRONG
    return verdict, dt, error


@contextmanager
def _op_span(tracer, op):
    """With a tracer, record the library call as a bench.op span whose children are traced."""
    if tracer is None:
        yield
        return
    from tracing import BENCH_OP

    tracer.lam = op.lam
    with tracer.span(BENCH_OP):
        tracer.active = True
        try:
            yield
        finally:
            tracer.active = False


class Tally:
    """Latencies and verdicts of one loop."""

    def __init__(self):
        self.lat, self.kinds, self.verdicts, self.lams, self.errors = [], [], [], [], []

    def add(self, op, verdict, dt, error):
        self.lat.append(dt)
        self.kinds.append(op.kind)
        self.verdicts.append(verdict)
        self.lams.append(op.lam)
        if error and len(self.errors) < 5:
            self.errors.append(f"{op.kind} (scale {op.lam}): {error}")

    def count(self, verdict):
        return sum(v == verdict for v in self.verdicts)


def _loop(wl, tally, *, seconds=None, cycles=None, tracer=None):
    """Run whole cycles until ``seconds`` have passed or ``cycles`` are done."""
    from tracing import BENCH_CLIENT

    t_start = time.perf_counter()
    i = 0
    while True:
        if tracer is None:
            ops = wl.cycle(i)
            for op in ops:
                tally.add(op, *_execute(op))
        else:
            with tracer.span(BENCH_CLIENT):
                ops = wl.cycle(i)
            for op in ops:
                tracer.op = len(tally.lat)
                with tracer.span(BENCH_CLIENT):
                    tally.add(op, *_execute(op, tracer))
        i += 1
        if cycles is not None and i >= cycles:
            break
        if cycles is None and time.perf_counter() - t_start >= seconds:
            break
    return i, time.perf_counter() - t_start


def _mix(lat, kinds):
    """Which op kinds sit at each percentile, and how far it moves if the mix shifts 2%."""
    import numpy as np

    lat = np.asarray(lat)
    order = np.argsort(lat, kind="stable")
    by_kind = {}
    for k, v in zip(kinds, lat):
        by_kind.setdefault(k, []).append(v)
    ranges = {k: np.percentile(v, [5, 95]) for k, v in by_kind.items()}
    out = {}
    for q in PERCENTILES:
        v = float(np.percentile(lat, q))
        lo = lat[order[max(int((q / 100 - MIX_WINDOW) * len(lat)), 0)]]
        hi = lat[order[min(int((q / 100 + MIX_WINDOW) * len(lat)), len(lat) - 1)]]
        out[f"p{q}"] = {
            "kinds_spanning": sorted(k for k, (a, b) in ranges.items() if a <= v <= b),
            "shift_2pct": float((hi - lo) / v),
        }
    return out


def _child(args):
    _import_library()
    import platform
    import resource

    import numpy as np
    import scipy
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    warm = Tally()
    for op in wl.warmup():
        warm.add(op, *_execute(op))
    setup_s = time.perf_counter() - T0
    out = {"setup_s": setup_s, "warmup_failed": warm.count(workloads.WRONG), "errors": warm.errors}
    out["versions"] = {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}
    if args.child == "setup":
        return out

    tally = Tally()
    if args.child == "measure":
        cycles, _ = _loop(wl, tally, seconds=args.seconds)
        lat = np.asarray(tally.lat)
        out.update(
            cycles=cycles,
            ops_per_s=len(lat) / float(lat.sum()),
            percentiles={f"p{q}": float(np.percentile(lat, q)) for q in PERCENTILES},
            beyond={f"p{q}": int((lat > np.percentile(lat, q)).sum()) for q in PERCENTILES},
            mix=_mix(tally.lat, tally.kinds),
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    else:
        from tracing import Tracer

        # the same cycles untraced, then traced, then once more for allocations
        cycles, untraced_wall = _loop(wl, tally, seconds=args.seconds / 2.0)
        untraced_ops = len(tally.lat)
        tracer = Tracer()
        tracer.install()
        _, wall = _loop(wl, tally, cycles=cycles, tracer=tracer)
        traced_ops = len(tally.lat) - untraced_ops
        tracer.alloc_pass = True
        _loop(wl, tally, cycles=1, tracer=tracer)
        tracer.uninstall()
        out.update(cycles=cycles, metrics=tracer.metrics(traced_ops, wall, untraced_wall))
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.dump(SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    out.update(
        ops=len(tally.lat),
        verdicts={v: tally.count(v) for v in (workloads.OK, workloads.EXPECTED, workloads.DEFECT, workloads.WRONG)},
        ops_by_kind={k: tally.kinds.count(k) for k in sorted(set(tally.kinds))},
        defects_by_lambda={
            f"{lam:g}": sum(1 for l, v in zip(tally.lams, tally.verdicts) if l == lam and v == workloads.DEFECT)
            for lam in sorted({l for l in tally.lams if l is not None})
        },
        errors=out["errors"] + tally.errors,
    )
    return out


# --------------------------------------------------------------- parent side


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _child_env() -> dict:
    env = dict(os.environ)
    cap = _nproc()
    for var in BLAS_VARS:
        current = env.get(var, "")
        env[var] = current if current.isdigit() and 0 < int(current) <= cap else str(cap)
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(mode, args, deadline):
    cmd = [sys.executable, str(HERE / "run.py"), "--child", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise RuntimeError(f"no time left to start the {mode} run")
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} run exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args, runs) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "nproc": _nproc(),
        "blas_threads": {var: _child_env()[var] for var in BLAS_VARS},
        "client": "closed loop, 1 process, 1 thread",
        **runs,
    }


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _bench(args) -> int:
    if not (SRC / "cofix" / "__init__.py").is_file():
        print(f"no cofix sources under {SRC}; run from the root of a cofix checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    if args.trace:
        run = _spawn("trace", args, deadline)
        metrics = run.pop("metrics")
        setups = []
    else:
        setups = [_spawn("setup", args, deadline)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
        run = _spawn("measure", args, deadline)
        setups.append(run["setup_s"])
        ops = run["ops"]
        ok = run["verdicts"]["ok"] + run["verdicts"]["expected"]
        metrics = {
            "ops_per_s": _metric(run["ops_per_s"], "ops/s"),
            "op_p50_ms": _metric(1e3 * run["percentiles"]["p50"], "ms"),
            "op_p90_ms": _metric(1e3 * run["percentiles"]["p90"], "ms"),
            "peak_rss_mib": _metric(run["peak_rss_mib"], "MiB"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "op_ok_frac": _metric(ok / ops, "fraction"),
        }
    failed = run["verdicts"]["wrong"] + run["warmup_failed"]
    print(json.dumps({"env": _environment(args, {"setup_s_runs": setups, **run})}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": run["ops"], "failed": failed, "metrics": metrics}))
    return 0


def _smoke() -> int:
    """One cycle of every workload, untraced and traced; every metric printed, no op failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=DEADLINE_S + 10)
            if proc.returncode != 0:
                problems.append(f"{name} trace={trace}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            missing = want[trace] - set(result["metrics"])
            extra = set(result["metrics"]) - want[trace]
            if missing or extra:
                problems.append(f"{name} trace={trace}: missing {sorted(missing)}, unexpected {sorted(extra)}")
            if result["failed"] or not result["correct"]:
                env = json.loads(proc.stdout.strip().splitlines()[-2])["env"]
                problems.append(f"{name} trace={trace}: {result['failed']} failed ops: {env['errors']}")
            print(f"{name} trace={trace}: {result['attempted']} ops, {result['failed']} failed, {len(result['metrics'])} metrics")
    for p in problems:
        print("SMOKE FAIL", p)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--child", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return _smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.child:
        print(json.dumps(_child(args)))
        return 0
    return _bench(args)


if __name__ == "__main__":
    sys.exit(main())
