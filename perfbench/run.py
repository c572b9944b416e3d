"""hermlab benchmark.

    python3 perfbench/run.py --workload <name>[,<name>...|all] --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a source checkout; hermlab is imported from ./src.
Every measurement runs in a fresh worker process (perfbench/worker.py).

--trace 0: SETUPS set-up-only processes, then one measured process that runs
the workload for --seconds.  Prints every end-to-end metric named in
BENCHMARK.json; setup_s is the median over all these processes.

--trace 1: one untraced and one traced process, --seconds/2 each.  Prints
every per-layer metric named in BENCHMARK.json, from the traced process,
and trace.overhead_frac = 1 - traced items_per_s / untraced items_per_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  An operation is one item or one verdict
check; the error rate is failed / attempted.  Exit code 0 when every
operation succeeded, 1 when an item or a verdict failed, 2 when the
benchmark could not run (no result line is printed then).
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "hermlab"
OUT = HERE / "out"
NAMES = ("wiener_1d", "heat_2d", "oracles")
SETUPS = 4  # set-up-only processes per --trace 0 run, besides the measured one
TRACE_MIN_ITEMS = 10
SETUP_TIMEOUT_S = 30
MEASURE_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool = False,
          min_items: int | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    if min_items is not None:
        cmd += ["--min-items", str(min_items)]
    timeout = SETUP_TIMEOUT_S if setup_only else MEASURE_TIMEOUT_S
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{workload}: worker exceeded {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def l3_bytes():
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return None
    return int(out) if out.isdigit() and int(out) > 0 else None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(PACKAGE.glob("*.py")))


def measure(workload: str, seed: int, seconds: float) -> dict:
    setups = [spawn(workload, seed, seconds, False, setup_only=True)["setup_s"]
              for _ in range(SETUPS)]
    res = spawn(workload, seed, seconds, False)
    setups.append(res["setup_s"])
    res["setup_runs_s"] = setups
    res["metrics"] = {k: res[k] for k in
                      ("items_per_s", "item_ms_p50", "item_ms_p90", "peak_rss_mb")}
    res["metrics"]["setup_s"] = statistics.median(setups)
    return res


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    # no percentile is reported here, so the worker's 100-item floor is not needed
    plain = spawn(workload, seed, seconds / 2, False, min_items=TRACE_MIN_ITEMS)
    res = spawn(workload, seed, seconds / 2, True, min_items=TRACE_MIN_ITEMS)
    res["metrics"] = dict(res["layers"])
    res["metrics"]["trace.overhead_frac"] = 1.0 - res["items_per_s"] / plain["items_per_s"]
    res["untraced"] = {k: plain[k] for k in ("items_per_s", "attempted", "failed", "verdicts")}
    res["attempted"] += plain["attempted"]
    res["failed"] += plain["failed"]
    return res


def report(res: dict, units: dict, l3) -> None:
    name = res["workload"]
    meta = res["meta"]
    print(f"== {name}: {meta['timed_items']} timed items in {meta['timed_wall_s']:.2f} s "
          f"(seed {meta['seed']}, {meta['replicate_threads']} replicate thread(s), "
          f"fft workers {meta['fft_workers']}, numpy {meta['numpy']}, scipy {meta['scipy']})")
    print(f"  nproc {meta['nproc']}; {meta['warmup_items']} warm-up items; {meta['chunks']} "
          f"chunks; src/hermlab {meta['src_lines']} lines (informational, no bound)")
    for metric, value in res["metrics"].items():
        print(f"  {metric} = {value:.6g} {units.get(metric, '')}")
    for metric in sorted(set(units) - set(res["metrics"])):
        print(f"  {metric}: absent (its function is no longer found)")
    # error_rate is carried by attempted/failed in the result line: a metric
    # that reads 0 on a correct run cannot be given a relative bound
    print(f"  error_rate = {res['failed'] / res['attempted']:.6g} failed/attempted "
          f"({res['failed']} of {res['attempted']} operations)")
    for v in res["verdicts"]:
        print(f"  verdict {v['name']}: {'PASS' if v['ok'] else 'FAIL'} {v['detail']}")
    for f in res["failures"]:
        print(f"  failure: {f.strip()}")
    for array, size in meta["array_bytes_computed"].items():
        fits = "unknown" if l3 is None else ("yes" if size <= l3 else "no")
        l3s = "unknown" if l3 is None else f"{l3 / 2**20:.1f} MiB"
        print(f"  {array}: {size / 2**20:.2f} MiB computed from array sizes; L3 {l3s}; "
              f"fits in L3: {fits}; no memory-bandwidth figure is claimed")


def summarize(results: list[dict]) -> tuple[dict, int]:
    """The result line and the exit code."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, (0 if failed == 0 else 1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="hermlab benchmark")
    p.add_argument("--workload", required=True,
                   help=f"comma-separated names, or all: {', '.join(NAMES)}")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    names = list(NAMES) if a.workload == "all" else a.workload.split(",")
    bad = [n for n in names if n not in NAMES]
    if bad:
        p.error(f"unknown workload(s) {bad}; choose from {', '.join(NAMES)}")
    if not (PACKAGE / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no hermlab source at {PACKAGE} (or no BENCHMARK.json); run from a checkout",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if a.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    # compile once, so set-up times measure cached bytecode as on a user's machine
    for d in (PACKAGE, HERE):
        compileall.compile_dir(str(d), maxlevels=0, quiet=2)
    l3 = l3_bytes()
    OUT.mkdir(exist_ok=True)
    results = []
    try:
        for name in names:
            res = (measure_traced if a.trace else measure)(name, a.seed, a.seconds)
            res["metrics"] = {k: res["metrics"][k] for k in units if k in res["metrics"]}
            res["meta"].update(nproc=os.cpu_count(), l3_bytes=l3, src_lines=src_lines())
            report(res, units, l3)
            (OUT / f"result-{name}-seed{a.seed}-trace{a.trace}.json").write_text(
                json.dumps(res, indent=1))
            results.append(res)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    line, code = summarize(results)
    line["metrics"] = {k: {"value": v, "unit": units[k.rsplit("/", 1)[-1]]}
                       for k, v in line["metrics"].items()}
    print(json.dumps(line))
    return code


if __name__ == "__main__":
    sys.exit(main())
