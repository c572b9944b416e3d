"""The three benchmark workloads, driven only through hermlab's public
functions.  Every size (n_internal, grid steps, panels, threads) is passed
explicitly, so the amount of work does not follow a library default.

Public functions are looked up through their module at call time
(`fields.simulate_hermite_sheet(...)`, never a local alias), so that the
traced run sees every call.

All workloads are closed loops: one caller per replicate thread submits the
next item only after the previous one returned.  A workload runs in chunks;
the runner checks the clock between chunks.
"""
from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np

from hermlab import core, fields, integrals, ou, powercount, quadrature, spde, stats

Z_GATE = 4.0  # MC verdicts: |estimate - oracle| <= 4 standard errors


def circulant_bytes(steps, n_internal: int) -> int:
    """Bytes of the complex128 noise array of the Hermite-rank sampler:
    2N per axis, N the fine mesh (n_internal rounded to a multiple of steps)."""
    cells = 1
    for s in steps:
        cells *= 2 * s * max(1, round(n_internal / s))
    return 16 * cells


def _variance_verdict(name: str, report, oracle: float) -> tuple:
    """|Var - oracle| within Z_GATE standard errors of the variance.

    The standard error is the report's relative one, stderr_variance /
    variance, times the larger of Var and the oracle.  The report's own
    stderr_variance shrinks with Var when a sample of these heavy-tailed
    (second-chaos) laws misses the upper tail, which made the plain 4-sigma
    gate fail on correct samplers: in 0.12% of bootstrap samples of n = 3000
    on wiener_1d and 0.18% of n = 150 on heat_2d, against 0.02% and none in
    this form.
    """
    if not report.variance > 0:
        return name, False, f"degenerate sample variance {report.variance}"
    se = report.stderr_variance / report.variance * max(report.variance, oracle)
    z = (report.variance - oracle) / se
    ok = bool(abs(z) <= Z_GATE)
    return name, ok, (f"Var {report.variance:.5f} vs oracle {oracle:.5f}: "
                      f"z = {z:+.2f} over n = {report.n} (gate |z| <= {Z_GATE:g})")


class MonteCarlo:
    """Replicates go through stats.collect_samples, `chunk` at a time; chunk
    k uses master seed seed * 2**32 + k, so the seed fixes every input."""

    threads = 1
    warm = 1

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.samples: list[np.ndarray] = []

    def master(self, k: int) -> int:
        return self.seed * 2**32 + k

    def item(self, item_id: int, stream) -> float:
        raise NotImplementedError

    def _collect(self, items, n: int, k: int, threads: int) -> np.ndarray:
        return stats.collect_samples(lambda s: items.run(self.item, s), n, self.master(k), threads)

    def warmup(self, items) -> None:
        # serial, so first-call cache fills happen once
        self._collect(items, self.warm, 0, 1)

    def chunk_run(self, items, k: int) -> None:
        samples = self._collect(items, self.chunk, k, self.threads)
        stats.report_from_samples(samples, self.master(k))  # running report
        self.samples.append(samples)

    def pooled_report(self):
        x = np.concatenate(self.samples)
        return stats.report_from_samples(x[np.isfinite(x)], self.seed)


class Wiener1D(MonteCarlo):
    """Rosenblatt (q=2, H=0.7) Wiener integral of exp_window(1,1) on a
    512-step grid with n_internal = 2**18, serial.  Even items go through
    integrals.wiener_hermite_integral, odd items through ou.simulate_hou:
    the same random variable from the two public consumers of the sampler.

    The acceptance criteria use n_internal = 2**14, but their ~3 ms items
    are mostly interpreter work, whose speed swings by up to 1.6x between
    the CPU-speed phases of a shared 2-vCPU host: ten 30- or 35-s runs spread by
    0.2 to 0.4 of their median, past the largest bound the benchmark may
    set.  At 2**18 (~60 ms items, FFT and RNG bound) the swing is about
    half, as for heat_2d.  The per-call overhead is still seen in the
    per-layer metrics (autocov, stream, mass check, weights)."""

    name = "wiener_1d"
    H = 0.7
    steps = 512
    n_internal = 2**18
    chunk = 8
    warm = 2

    def __init__(self, seed):
        super().__init__(seed)
        self.grid = core.GridSpec(0.0, 1.0, self.steps)
        self.spec = core.HermiteSpec(2, core.HurstMultiIndex(self.H))
        self.ou_spec = ou.OUSpec(1.0, 1.0, q=2, H=self.H)
        self.window = core.ExpWindow(1.0, 1.0)
        self.arrays = {"noise_complex128": circulant_bytes([self.steps], self.n_internal)}

    def item(self, item_id, stream):
        if item_id % 2 == 0:
            sheet = fields.simulate_hermite_sheet(self.spec, self.grid, self.n_internal, stream)
            return integrals.wiener_hermite_integral(self.window, sheet)
        return ou.simulate_hou(self.ou_spec, self.grid, stream, self.n_internal).values[-1]

    def verdicts(self, oracle_scale):
        quad = quadrature.inner_product_HH(self.window, self.window, self.H,
                                           quadrature.QuadratureConfig(panels=512))
        return [_variance_verdict("isometry", self.pooled_report(), quad * oracle_scale)]


class Heat2D(MonteCarlo):
    """Mild solution u(1, 0) at the criterion-6 settings (a 1024^2
    circulant) with min(2, nproc) replicate threads."""

    name = "heat_2d"

    def __init__(self, seed):
        super().__init__(seed)
        self.threads = min(2, os.cpu_count() or 1)
        # long chunks, so the join at the end of each collect_samples call
        # does not keep lining up the two threads' FFTs
        self.chunk = 16 * self.threads
        self.spec = spde.HeatSpec(2, 0.55, (0.55,), trunc=4.0, t_steps=512, x_steps=512,
                                  n_internal=512)
        self.arrays = {"noise_complex128": circulant_bytes([512, 512], 512)}

    def item(self, item_id, stream):
        return spde.sample_mild_solution(self.spec, 1.0, 0.0, stream)

    def verdicts(self, oracle_scale):
        quad = spde.heat_covariance_quadrature(self.spec, 1.0, 1.0)
        return [_variance_verdict("heat_variance", self.pooled_report(), quad * oracle_scale)]


CRIT7_TABLE = [
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(1, 4), Fraction(4, 5)),
    (Fraction(1, 4) + Fraction(1, 10**6), Fraction(4, 5)),
    (Fraction(1, 4) - Fraction(1, 10**6), Fraction(4, 5)),
    (Fraction(3, 5), Fraction(3, 4)),
    (Fraction(3, 5), Fraction(3, 4) + Fraction(1, 10**6)),
]
HURST_PATH = (0.75, 0.65, 0.55, 0.51)


class Oracles:
    """Deterministic oracle calls, no RNG, so the seed changes nothing: one
    chunk is one pass over the item list, always in the same order.

    An item is one oracle evaluation, and returns a dict of its values:
    - one point (integrand, H) of the panel-refinement path, that is
      inner_product_HH at 1024 and then at 512 panels;
    - sigma_limit; contraction_norm_sq; heat_covariance_quadrature;
    - check_integrability over the whole criterion-7 table.
    With these twelve items per pass the median item is a refinement point,
    about 75 ms of large array work, so item_ms_p50 is steady across runs:
    a 512-panel call alone swings by about 30% between the CPU-speed phases
    of a shared host, a 1024-panel call by about 10%, and six 3-ms
    power-counting items would sit next to the median."""

    name = "oracles"
    threads = 1

    def __init__(self, seed: int):
        exp = core.ExpWindow(1.0, 1.0)
        box = core.IndicatorBox([0.0], [1.0])
        calls = []
        for tag, f in (("exp", exp), ("box", box)):
            for h in HURST_PATH:
                calls.append(((tag, h), lambda tag=tag, f=f, h=h: {
                    (tag, panels, h): quadrature.inner_product_HH(
                        f, f, h, quadrature.QuadratureConfig(panels=panels))
                    for panels in (1024, 512)}))
        cfg1024 = quadrature.QuadratureConfig(panels=1024)
        calls.append((("sigma",), lambda: {("sigma", 1024): quadrature.sigma_limit(
            exp, core.LimitScenario(a_axes=(0,)), cfg1024)}))
        cfg64 = quadrature.QuadratureConfig(panels=64)
        calls.append((("contraction",), lambda: {("contraction", 2, 1): (
            quadrature.contraction_norm_sq(exp, 0.7, 2, 1, cfg64))}))
        heat51 = spde.HeatSpec(2, 0.51, (0.51,), t_steps=256, x_steps=256, n_internal=512)
        calls.append((("heat_quad",), lambda: {("heat_quad", 0.51): (
            spde.heat_covariance_quadrature(heat51, 1.0, 1.0))}))
        calls.append((("crit7",), lambda: {
            ("crit7", H, g): powercount.check_integrability(powercount.cycle_system(2, 1, H, g))
            for H, g in CRIT7_TABLE}))
        self.calls = calls
        self.values: dict = {}
        self.arrays = {"kernel_float64": 8 * 1024**2}  # one 1024-panel mass matrix

    def _run(self, items, calls) -> None:
        for _key, fn in calls:
            values = items.run(lambda _i, fn=fn: fn())
            if isinstance(values, dict):  # a failed item returns nan
                self.values.update(values)

    def warmup(self, items):
        # one item of each oracle function, at the first H of the path
        first = {}
        for key, fn in self.calls:
            first.setdefault(key[0], (key, fn))
        self._run(items, first.values())
        self.values.clear()

    def chunk_run(self, items, k):
        self._run(items, self.calls)

    def verdicts(self, oracle_scale):
        v = self.values
        limit = (1.0 - math.exp(-2.0)) / 2.0 * oracle_scale
        path = [v[("exp", 1024, h)] for h in HURST_PATH]
        dists = [abs(x - limit) for x in path]
        monotone = all(dists[i + 1] < dists[i] for i in range(3))
        final_rel = dists[-1] / limit
        sigma_rel = abs(v[("sigma", 1024)] - limit) / limit
        crit4 = monotone and final_rel <= 0.02 and sigma_rel <= 0.001
        out = [("crit4", crit4, f"monotone={monotone}, final rel {final_rel:.4f} (gate 0.02), "
                                f"sigma rel {sigma_rel:.2e} (gate 1e-3)")]

        base = powercount.cycle_system(2, 1, *CRIT7_TABLE[0])
        reps = [v[("crit7", H, g)] for H, g in CRIT7_TABLE]
        crit7 = (powercount.d0(base, range(4)) == Fraction(7, 5)
                 and powercount.d_infinity(base, []) == Fraction(-1, 5)
                 and reps[0].finite_at_zero is True and reps[0].finite_at_infinity is True
                 and reps[1].finite_at_zero is False and reps[2].finite_at_zero is True
                 and reps[3].finite_at_zero is False
                 and reps[4].finite_at_infinity is False and reps[5].finite_at_infinity is True)
        out.append(("crit7", bool(crit7), "d0(T)=7/5, dinf(empty)=-1/5, flips at H=1/4, gamma=3/4"))

        box = [v[("box", p, h)] for p in (512, 1024) for h in HURST_PATH]
        worst = max(abs(x - 1.0 * oracle_scale) for x in box)
        out.append(("indicator", bool(worst <= 1e-12), f"max |<1,1> - 1| = {worst:.1e} (gate 1e-12)"))

        target = oracle_scale / math.sqrt(math.pi)
        rel = abs(v[("heat_quad", 0.51)] - target) / target
        out.append(("heat_quad_051", bool(rel <= 0.05), f"rel to 1/sqrt(pi) {rel:.4f} (gate 0.05)"))
        return out


def build(name: str, seed: int):
    kinds = {"wiener_1d": Wiener1D, "heat_2d": Heat2D, "oracles": Oracles}
    if name not in kinds:
        raise ValueError(f"unknown workload {name!r}")
    return kinds[name](seed)
