"""Run one benchmark workload in this process and print its result as one
JSON line.  run.py starts one fresh process per measurement:

    python3 perfbench/worker.py --workload heat_2d --seed 1 --seconds 10 \
        --trace 0 --t0 <time.monotonic() of the parent at spawn>

Set-up is everything before the first timed item: imports, input building
and one untimed warm-up chunk that fills the first-call caches (eigenvalue
caches, spde._mild_setup, Riemann weights).
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from hermlab import fields, spde  # noqa: E402

MIN_ITEMS = 100  # so that at least 10 item times lie beyond p90


class Items:
    """Runs, times and checks items; thread-safe across replicate threads."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.ids = itertools.count()
        self.ms: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()

    def run(self, fn, *args):
        i = next(self.ids)
        error = None
        with self.tracer.item(i) if self.tracer else nullcontext():
            t = time.perf_counter()
            try:
                value = fn(i, *args)
            except Exception:  # a failed item is counted, the run goes on
                value, error = math.nan, traceback.format_exc(limit=3)
            dt = time.perf_counter() - t
        for v in (value.values() if isinstance(value, dict) else [value]):
            if error is None and isinstance(v, (float, np.floating)) and not math.isfinite(v):
                error = f"item {i}: non-finite value {v}"
        with self._lock:
            self.attempted += 1
            self.ms.append(dt * 1e3)
            if error:
                self.failures.append(error)
        return value


def _cache_counts() -> dict:
    """Process-wide cache fills: eigenvalue-cache entries and _mild_setup misses."""
    out = {}
    caches = [getattr(fields, n) for n in ("_EIG_CACHE", "_SQRT_EIG_CACHE") if hasattr(fields, n)]
    if caches:
        out["fields.eig_cache_misses"] = sum(len(c) for c in caches)
    info = getattr(getattr(spde, "_mild_setup", None), "cache_info", None)
    if info is not None:
        out["spde.setup_cache_misses"] = info().misses
    return out


def run(name: str, seed: int, seconds: float, trace: bool, t0: float, *,
        setup_only: bool = False, min_items: int = MIN_ITEMS,
        oracle_scale: float = 1.0, outdir: Path = OUT) -> dict:
    """Set up, run the timed phase for `seconds` and at least `min_items`
    items, then check the verdicts.  `oracle_scale` multiplies every oracle
    value; the self-test uses it to make a verdict fail."""
    tracer = spans.Tracer() if trace else None
    caches0 = _cache_counts()
    if tracer:
        tracer.install()
    try:
        w = workloads.build(name, seed)
        items = Items(tracer)
        w.warmup(items)
        setup_s = time.monotonic() - t0
        if setup_only:
            return {"workload": name, "setup_s": setup_s}
        warm = items.attempted
        items.ms.clear()
        if tracer:
            tracer.mark_timed()
        start = time.perf_counter()
        chunks = 0
        while True:
            chunks += 1
            w.chunk_run(items, chunks)
            wall = time.perf_counter() - start
            if wall >= seconds and len(items.ms) >= min_items:
                break
        caches1 = _cache_counts()
    finally:
        if tracer:
            tracer.uninstall()
    try:
        verdicts = w.verdicts(oracle_scale)
    except Exception:  # a verdict that cannot be evaluated fails
        verdicts = [("verdicts", False, traceback.format_exc(limit=3))]

    n = len(items.ms)
    failed = len(items.failures) + sum(not ok for _, ok, _ in verdicts)
    attempted = items.attempted + len(verdicts)
    result = {
        "workload": name,
        "setup_s": setup_s,
        "items_per_s": n / wall,
        "item_ms_p50": float(np.percentile(items.ms, 50)),
        "item_ms_p90": float(np.percentile(items.ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "verdicts": [{"name": v, "ok": ok, "detail": d} for v, ok, d in verdicts],
        "failures": items.failures[:5],
        "meta": {
            "seed": seed, "timed_items": n, "warmup_items": warm, "chunks": chunks,
            "timed_wall_s": wall, "replicate_threads": w.threads,
            "fft_workers": getattr(fields, "_FFT_WORKERS", None),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "array_bytes_computed": w.arrays,
        },
    }
    if tracer:
        layers = spans.layer_metrics(tracer, w.threads)
        layers.update({k: caches1[k] - caches0.get(k, 0) for k in caches1})
        result["layers"] = layers
        result["absent"] = tracer.absent
        outdir.mkdir(parents=True, exist_ok=True)
        path = outdir / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(path)
        result["spans_file"] = os.path.relpath(path, ROOT)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() of the parent when it started this process")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--min-items", type=int, default=MIN_ITEMS)
    a = p.parse_args(argv)
    res = run(a.workload, a.seed, a.seconds, bool(a.trace), a.t0, setup_only=a.setup_only,
              min_items=a.min_items)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
