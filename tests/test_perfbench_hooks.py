"""The names the benchmark reaches into hermlab for: every span target of
perfbench/spans.py, both cache counters of perfbench/worker.py, and every
module attribute the perfbench scripts read.  A refactor that renames or
deletes one of them fails here, not in the benchmark."""
import ast
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import worker  # noqa: E402


def test_every_span_target_is_present_and_restored():
    sites = [
        (mod, name.rsplit(".", 1)[1])
        for name, modules, _, _ in spans.TARGETS
        for mod in (importlib.import_module(f"hermlab.{m}") for m in modules)
    ]
    before = [getattr(mod, attr, None) for mod, attr in sites]
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == []
    assert [getattr(mod, attr, None) for mod, attr in sites] == before


def test_cache_counters_are_readable():
    counts = worker._cache_counts()
    assert {"fields.eig_cache_misses", "spde.setup_cache_misses"} <= set(counts)


def test_every_module_attribute_perfbench_reads_resolves():
    modules = {"core", "fields", "integrals", "ou", "powercount", "quadrature", "spde", "stats"}
    names = {
        (node.value.id, node.attr)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert ("spde", "sample_mild_solution") in names  # the walk still sees the workloads
    missing = sorted(f"{m}.{a}" for m, a in names
                     if not hasattr(importlib.import_module(f"hermlab.{m}"), a))
    assert missing == []
