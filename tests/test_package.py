"""The package's export list, and what the benchmark calls in it."""

import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

import cofix
from cofix import contraction, reduction
from cofix.errors import CofixError

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"

# the arity-named forms of check_condition and solve_pipeline, the scalar reference and the bound
# check: not exported, but kept on their modules, where the benchmark calls them
MODULE_ONLY = {
    **dict.fromkeys(("check_condition_two", "check_condition_three", "check_condition_four"), contraction),
    **dict.fromkeys(("rhs_two", "rhs_three", "rhs_four", "validate_coefficients"), contraction),
    **dict.fromkeys(("solve_three", "solve_three_coincidence", "solve_four", "solve_four_coincidence"), reduction),
}


def test_all_is_sorted_and_public():
    assert cofix.__all__ == sorted(cofix.__all__)
    assert "solve_pipeline" in cofix.__all__
    for name in cofix.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(cofix, name), types.ModuleType)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from cofix import *", namespace)
    assert set(cofix.__all__) <= set(namespace)


@pytest.mark.parametrize("name", sorted(MODULE_ONLY))
def test_module_only_names_are_not_exported(name):
    assert name not in cofix.__all__ and not hasattr(cofix, name)
    assert callable(getattr(MODULE_ONLY[name], name))


def test_traced_names_resolve():
    # the tracer wraps these by name; a missing one breaks `perfbench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location("cofix_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, names in tracing.TRACED.values():
        for name in names:
            assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"


@pytest.mark.parametrize("workload", ["large_finite", "corpus_euclidean"])
def test_benchmark_warmup_ops_answer_right(workload, monkeypatch):
    # the smallest op of each kind the benchmark times, judged by its own check;
    # a CofixError is an answer for the check to classify, as in perfbench/run.py
    spec = importlib.util.spec_from_file_location("cofix_bench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    verdicts = []
    for op in workloads.WORKLOADS[workload](1).warmup():
        try:
            value = op.call()
        except CofixError as exc:
            value = exc
        verdicts.append((op.kind, op.check(value)))
    assert verdicts and all(verdict != workloads.WRONG for _, verdict in verdicts), verdicts
