"""Self-test of the benchmark itself.  Run from the checkout root:

    python3 perfbench/selftest.py

Runs every workload at a tiny length, checks that a wrong oracle value fails
its verdict and raises the error rate, that tracing restores every wrapped
module attribute, and that the benchmark refuses to run without the source.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402  (puts ./src on sys.path)
from hermlab import fields  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
E2E = ("items_per_s", "item_ms_p50", "item_ms_p90", "peak_rss_mb", "setup_s")


def tiny(name: str, **kw) -> dict:
    worker.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=worker.OUT) as tmp:
        return worker.run(name, seed=3, seconds=0.0, t0=time.monotonic(),
                          min_items=kw.pop("min_items", 4), outdir=Path(tmp), **kw)


def wrapped_sites():
    """(module, attribute) of every site the tracer wraps."""
    import importlib
    out = []
    for name, modules, _, _ in spans.TARGETS:
        attr = name.rsplit(".", 1)[1]
        for m in modules:
            mod = importlib.import_module(f"hermlab.{m}")
            if hasattr(mod, attr):
                out.append((mod, attr))
    return out


class TinyRuns(unittest.TestCase):
    def test_each_workload_reports_every_metric(self):
        for name in run.NAMES:
            with self.subTest(workload=name):
                res = tiny(name, trace=False)
                for m in E2E:
                    self.assertTrue(math.isfinite(res[m]) and res[m] > 0, (m, res[m]))
                self.assertGreaterEqual(res["meta"]["timed_items"], 4)
                n_bad = sum(not v["ok"] for v in res["verdicts"]) + len(res["failures"])
                self.assertEqual(res["failed"], n_bad)
                self.assertEqual(res["attempted"], res["meta"]["timed_items"]
                                 + res["meta"]["warmup_items"] + len(res["verdicts"]))
        # the oracles are deterministic, so their verdicts must hold at any length
        self.assertEqual(tiny("oracles", trace=False, min_items=1)["failed"], 0)

    def test_traced_run_reports_every_layer_metric(self):
        want = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_frac"}
        for name in ("wiener_1d", "oracles"):
            with self.subTest(workload=name):
                res = tiny(name, trace=True, min_items=1)
                self.assertEqual(res["absent"], [])
                self.assertEqual(set(res["layers"]), want)
        self.assertGreater(res["layers"]["quadrature.kernel_masses"], 0)


class Verdicts(unittest.TestCase):
    def test_wrong_oracle_fails_and_raises_error_rate(self):
        # the MC gate is relative, so it needs enough items to resolve a factor 10
        for name, n in (("oracles", 1), ("wiener_1d", 256)):
            with self.subTest(workload=name):
                good = tiny(name, trace=False, min_items=n)
                bad = tiny(name, trace=False, min_items=n, oracle_scale=10.0)
                self.assertGreater(bad["failed"], good["failed"])
                self.assertGreater(bad["error_rate"], good["error_rate"])
                line, code = run.summarize([dict(bad, metrics={})])
                self.assertFalse(line["correct"])
                self.assertNotEqual(code, 0)


class Tracing(unittest.TestCase):
    def test_uninstall_restores_every_attribute(self):
        sites = wrapped_sites()
        before = [getattr(mod, attr) for mod, attr in sites]
        t = spans.Tracer()
        t.install()
        try:
            self.assertTrue(all(getattr(m, a) is not b for (m, a), b in zip(sites, before)))
            self.assertIs(fields.simulate_hermite_sheet.__wrapped__, before[0])
        finally:
            t.uninstall()
        self.assertTrue(all(getattr(m, a) is b for (m, a), b in zip(sites, before)))

    def test_failed_traced_run_restores_attributes(self):
        sites = wrapped_sites()
        before = [getattr(mod, attr) for mod, attr in sites]
        with self.assertRaises(ValueError):
            tiny("no_such_workload", trace=True)
        self.assertTrue(all(getattr(m, a) is b for (m, a), b in zip(sites, before)))

    def test_missing_name_is_absent_not_a_crash(self):
        targets = spans.TARGETS + [("fields.renamed_away", ("fields",), None, None)]
        t = spans.Tracer(targets=targets)
        t.install()
        t.uninstall()
        self.assertEqual(t.absent, ["fields.renamed_away"])
        spans.layer_metrics(t, 1)

    def test_self_time_subtracts_covered_part(self):
        recs = [
            {"id": 0, "parent": None, "start_ns": 0, "end_ns": 100},
            {"id": 1, "parent": 0, "start_ns": 10, "end_ns": 40},
            {"id": 2, "parent": 0, "start_ns": 30, "end_ns": 50},  # overlaps id 1
            {"id": 3, "parent": 2, "start_ns": 35, "end_ns": 45},
        ]
        self.assertEqual(spans.self_times(recs), {0: 60, 1: 30, 2: 10, 3: 10})


class Refusal(unittest.TestCase):
    def test_exits_nonzero_without_source(self):
        worker.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=worker.OUT) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "oracles", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
