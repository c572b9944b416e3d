"""In-memory span tracer for the benchmark's traced run.

While installed, each public hermlab function in TARGETS is replaced, at every
module attribute its callers look it up through, by a wrapper that records
one span per call: name, start, end, parent span, thread, item id, an
optional tag (for example the panel count) and an optional work count.
`uninstall` puts every original attribute back.  A name that no longer
exists after a refactor is listed in `absent` and its metrics are left out.

The benchmark itself opens one "item" span around each timed item, so layer
spans of one item share its id and the item span is their root.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def _fine_cells(bound) -> int:
    # simulate_hermite_sheet rounds n_internal per axis to a multiple of the
    # output step count (see its docstring); the fine mesh is the product.
    n = bound.arguments["n_internal"]
    cells = 1
    for s in bound.arguments["grid"].steps:
        cells *= s * max(1, round(n / s))
    return cells


def _panel_pairs(bound) -> int:
    return (len(bound.arguments["edges_u"]) - 1) * (len(bound.arguments["edges_v"]) - 1)


def _panels_tag(bound) -> str:
    cfg = bound.arguments.get("cfg")
    return f"p{cfg.panels}" if cfg is not None else ""


# (span name, modules whose attribute of that name callers look up, tag, work)
TARGETS = [
    ("fields.simulate_hermite_sheet", ("fields", "ou", "spde"), None, _fine_cells),
    ("fields.hermite_poly", ("fields",), None, None),
    ("fields.fgn_autocov", ("fields",), None, None),
    ("core.derive_stream", ("core", "stats"), None, None),
    ("core.cell_increments", ("integrals", "spde"), None, None),
    ("integrals.wiener_hermite_integral", ("integrals",), None, None),
    ("integrals.covered_mass_fraction", ("integrals",), None, None),
    ("integrals.riemann_weights", ("integrals", "spde"), None, None),
    ("ou.simulate_hou", ("ou",), None, None),
    ("spde.sample_mild_solution", ("spde",), None, None),
    ("spde.heat_covariance_quadrature", ("spde",), None, None),
    ("quadrature.inner_product_HH", ("quadrature",), _panels_tag, None),
    ("quadrature.abs_pow_cell_masses", ("quadrature",), None, _panel_pairs),
    ("quadrature.fbm_time_kernel_integral", ("quadrature", "spde"), None, None),
    ("quadrature.contraction_norm_sq", ("quadrature",), None, None),
    ("quadrature.sigma_limit", ("quadrature",), None, None),
    ("powercount.check_integrability", ("powercount",), None, None),
    ("powercount.span_closure", ("powercount",), None, None),
    ("stats.collect_samples", ("stats",), None, None),
    ("stats.report_from_samples", ("stats",), None, None),
]

ITEM = "item"


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.timed_from_ns: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, modules, tag, work in self.targets:
            attr = name.rsplit(".", 1)[1]
            sites = []
            for mod_name in modules:
                try:
                    mod = importlib.import_module(f"hermlab.{mod_name}")
                except ImportError:
                    continue
                if callable(getattr(mod, attr, None)):
                    sites.append(mod)
            if not sites:
                self.absent.append(name)
                continue
            wrappers: dict = {}
            for mod in sites:
                original = getattr(mod, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original, tag, work)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def _wrap(self, name, fn, tag, work):
        sig = inspect.signature(fn) if (tag or work) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs) if sig is not None else None
            with self.span(name, tag(bound) if tag else "") as rec:
                result = fn(*args, **kwargs)
            if work:
                rec["work"] = work(bound)
            return result

        return wrapper

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, tag: str = ""):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        rec = {"work": None}
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield rec
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            # work is filled in by the wrapper after the call returns, so the
            # record is appended by reference and read at export time
            self.spans.append((sid, name, tag, start, end, parent,
                               threading.get_ident(), getattr(local, "item", None), rec))

    @contextmanager
    def item(self, item_id: int):
        """Root span of one benchmark item; layer spans inside carry its id."""
        self._local.item = item_id
        try:
            with self.span(ITEM):
                yield
        finally:
            self._local.item = None

    def mark_timed(self) -> None:
        """Spans that start after this call belong to the timed phase."""
        self.timed_from_ns = time.perf_counter_ns()

    # -- export and analysis -----------------------------------------------

    def records(self) -> list[dict]:
        out = []
        for sid, name, tag, start, end, parent, thread, item, rec in self.spans:
            out.append({"id": sid, "name": name, "tag": tag, "start_ns": start,
                        "end_ns": end, "parent": parent, "thread": thread,
                        "item": item, "work": rec["work"]})
        out.sort(key=lambda r: r["id"])
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for r in self.records():
                fh.write(json.dumps(r) + "\n")


def self_times(records: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the part of it covered by child spans (ns)."""
    children = defaultdict(list)
    for r in records:
        if r["parent"] is not None:
            children[r["parent"]].append((r["start_ns"], r["end_ns"]))
    out = {}
    for r in records:
        lo, hi = r["start_ns"], r["end_ns"]
        covered, reach = 0, lo
        for s, e in sorted(children.get(r["id"], ())):
            s, e = max(s, reach), min(e, hi)
            if e > s:
                covered += e - s
                reach = e
        out[r["id"]] = (hi - lo) - covered
    return out


# Per-layer metrics.  Times are per-call means over every call the traced
# process made (set-up included, so set-up-only calls such as the heat
# weights are seen); work counts are per timed item; a function the workload
# never calls reads 0.
MEAN_TIME = {
    "fields.sheet_self_ms": ("fields.simulate_hermite_sheet", "self", None),
    "fields.hermite_map_ms": ("fields.hermite_poly", "dur", None),
    "fields.autocov_ms": ("fields.fgn_autocov", "dur", None),
    "core.derive_stream_us": ("core.derive_stream", "dur", None),
    "core.cell_increments_ms": ("core.cell_increments", "dur", None),
    "integrals.integral_self_ms": ("integrals.wiener_hermite_integral", "self", None),
    "integrals.mass_check_ms": ("integrals.covered_mass_fraction", "dur", None),
    "integrals.weights_ms": ("integrals.riemann_weights", "dur", None),
    "ou.path_self_ms": ("ou.simulate_hou", "self", None),
    "spde.mild_self_ms": ("spde.sample_mild_solution", "self", None),
    "spde.cov_quad_ms": ("spde.heat_covariance_quadrature", "dur", None),
    "quadrature.inner_ms.p512": ("quadrature.inner_product_HH", "dur", "p512"),
    "quadrature.inner_ms.p1024": ("quadrature.inner_product_HH", "dur", "p1024"),
    "quadrature.kernel_ms": ("quadrature.abs_pow_cell_masses", "dur", None),
    "quadrature.contract_ms": ("quadrature.inner_product_HH", "self", None),
    "quadrature.time_kernel_ms": ("quadrature.fbm_time_kernel_integral", "dur", None),
    "quadrature.contraction_ms": ("quadrature.contraction_norm_sq", "dur", None),
    "powercount.check_ms": ("powercount.check_integrability", "dur", None),
    "stats.report_ms": ("stats.report_from_samples", "dur", None),
}
PER_ITEM = {
    "fields.fine_cells": ("fields.simulate_hermite_sheet", "work"),
    "integrals.weights_calls_per_item": ("integrals.riemann_weights", "calls"),
    "quadrature.kernel_masses": ("quadrature.abs_pow_cell_masses", "work"),
    "powercount.closure_calls": ("powercount.span_closure", "calls"),
}
RATES = {"fields.fine_cells_per_s": "fields.simulate_hermite_sheet"}  # work per second


def layer_metrics(tracer: Tracer, threads: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans; names whose span is absent
    are left out."""
    recs = tracer.records()
    selfs = self_times(recs)
    timed_from = tracer.timed_from_ns or 0
    by_name = defaultdict(list)
    for r in recs:
        by_name[r["name"]].append(r)

    def timed(rs):
        return [r for r in rs if r["start_ns"] >= timed_from]

    n_items = max(1, len(timed(by_name[ITEM])))
    out = {}
    for metric, (name, kind, tag) in MEAN_TIME.items():
        if name in tracer.absent:
            continue
        rs = [r for r in by_name[name] if tag is None or r["tag"] == tag]
        ns = [selfs[r["id"]] if kind == "self" else r["end_ns"] - r["start_ns"] for r in rs]
        per_unit = 1e3 if metric.endswith("_us") else 1e6
        out[metric] = sum(ns) / len(ns) / per_unit if ns else 0.0
    for metric, (name, kind) in PER_ITEM.items():
        if name in tracer.absent:
            continue
        rs = timed(by_name[name])
        total = len(rs) if kind == "calls" else sum(r["work"] or 0 for r in rs)
        out[metric] = total / n_items
    for metric, name in RATES.items():
        if name in tracer.absent:
            continue
        rs = by_name[name]
        secs = sum(r["end_ns"] - r["start_ns"] for r in rs) / 1e9
        out[metric] = sum(r["work"] or 0 for r in rs) / secs if secs else 0.0
    if "stats.collect_samples" not in tracer.absent:
        busy = sum(r["end_ns"] - r["start_ns"] for r in timed(by_name[ITEM]))
        wall = sum(r["end_ns"] - r["start_ns"] for r in timed(by_name["stats.collect_samples"]))
        out["stats.busy_frac"] = busy / (threads * wall) if wall else 0.0
    return out
