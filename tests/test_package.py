"""The package's export list, and the names the benchmark's tracer wraps."""

import importlib
import importlib.util
import types
from pathlib import Path

import cofix

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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


def test_traced_names_resolve():
    # the tracer wraps these by name; a missing one breaks `perfbench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location("cofix_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, names in tracing.TRACED.values():
        for name in names:
            assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"
