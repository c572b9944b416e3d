"""The names the benchmark's traced run reaches into hermlab for: every span
target of perfbench/spans.py and both cache counters of perfbench/worker.py.
A refactor that renames one of them fails here, not in the benchmark."""
import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

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
