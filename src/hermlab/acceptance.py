"""The acceptance suite: ten oracle- and property-based criteria at desk
scale, each with a pinned tolerance and replicate budget.

Every criterion returns (ok, detail); run_all prints one pass/fail line per
criterion.  Monte Carlo criteria use the fixed master seed below so the
suite is deterministic; `fast=True` cuts the replicate count of
the expensive mild-solution criterion only; every gate and every other
budget is identical to the full run.
"""
from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import (
    ExpWindow,
    GridSpec,
    HermiteSpec,
    HurstMultiIndex,
    LimitScenario,
    derive_stream,
)
from .fields import ChaosKernel, chaos_oracle_sample, simulate_fractional_gaussian_sheet, simulate_hermite_sheet
from .integrals import WienerFunctional
from .ou import OUSpec, ou_limit_cdf_H1, simulate_hou
from .powercount import check_integrability, cycle_system
from .quadrature import QuadratureConfig, inner_product_HH, sigma_limit
from .spde import HeatSpec, existence_condition, heat_covariance_quadrature, sample_mild_solution
from .stats import collect_samples, excess_kurtosis, ks_distance

MASTER_SEED = 20260810


def _wiener_samples(q, H, n, seed, threads, n_internal=2**14, salt=0):
    """MC samples of int exp_window(1, 1) dZ^q_H via the Riemann-Stieltjes sum, 512 steps."""
    functional = WienerFunctional(ExpWindow(1.0, 1.0), GridSpec(0.0, 1.0, 512))
    spec = HermiteSpec(q, HurstMultiIndex(H))
    return collect_samples(lambda s: functional.sample(spec, n_internal, s), n, seed + salt,
                           threads)


def crit_1_fbm_covariance(seed: int, fast: bool, threads: int | None = None):
    """fBm H=0.7 grid 512: empirical covariance at 5x5 nodes within 3 MC
    standard errors of R_H, 2000 replicates."""
    n = 2000
    H, steps = 0.7, 512
    grid = GridSpec(0.0, 1.0, steps)
    nodes = [64, 128, 256, 384, 512]
    paths = collect_samples(
        lambda s: simulate_fractional_gaussian_sheet(H, grid, s).values[nodes], n, seed, threads
    )
    worst = 0.0
    for a in range(5):
        for b in range(5):
            prod = paths[:, a] * paths[:, b]
            emp, se = prod.mean(), prod.std(ddof=1) / math.sqrt(n)
            t, s = nodes[a] / steps, nodes[b] / steps
            exact = 0.5 * (t ** (2 * H) + s ** (2 * H) - abs(t - s) ** (2 * H))
            worst = max(worst, abs(emp - exact) / se)
    return worst <= 3.0, f"max |emp-R_H|/stderr = {worst:.2f} over 25 node pairs (gate 3)"


def crit_2_hermite_variance(seed: int, fast: bool, threads: int | None = None):
    """Rosenblatt (q=2) d=1 H=0.7: Var Z(t) within 10% of t^1.4 at t=0.5, 1.

    Z(1) has excess kurtosis near 10, so the sample variance has relative
    standard error about sqrt(11/n); n = 20000 puts the 10% gate at about
    4.5 standard errors."""
    n = 20000
    grid = GridSpec(0.0, 1.0, 512)
    spec = HermiteSpec(2, HurstMultiIndex(0.7))
    vals = collect_samples(
        lambda s: simulate_hermite_sheet(spec, grid, 2**14, s).values[[256, 512]], n, seed, threads
    )
    rel = [vals[:, j].var() / (t ** 1.4) - 1.0 for j, t in enumerate((0.5, 1.0))]
    ok = max(abs(r) for r in rel) <= 0.10
    return ok, f"Var/t^1.4 - 1: t=0.5 -> {rel[0]:+.3f}, t=1 -> {rel[1]:+.3f} (gate 0.10)"


def crit_3_isometry(seed: int, fast: bool, threads: int | None = None):
    """Wiener-integral isometry: f=exp_window(1,1), q=2, H=0.7, 5000 reps:
    MC variance within 10% of the inner-product quadrature."""
    n = 5000
    samples = _wiener_samples(2, 0.7, n, seed, threads)
    quad = inner_product_HH(ExpWindow(1.0, 1.0), ExpWindow(1.0, 1.0), 0.7,
                            QuadratureConfig(panels=512))
    rel = samples.var() / quad - 1.0
    return abs(rel) <= 0.10, f"MC/quadrature - 1 = {rel:+.3f} (quad {quad:.5f}, gate 0.10)"


def crit_4_half_limit_quadrature(seed: int, fast: bool, threads: int | None = None):
    """OU window variance along H in {0.75,0.65,0.55,0.51}: monotone toward
    int f^2 = (1-e^-2)/2 and within 2% at H=0.51."""
    f = ExpWindow(1.0, 1.0)
    cfg = QuadratureConfig(panels=1024)
    limit = (1.0 - math.exp(-2.0)) / 2.0
    vals = [inner_product_HH(f, f, h, cfg) for h in (0.75, 0.65, 0.55, 0.51)]
    dists = [abs(v - limit) for v in vals]
    monotone = all(dists[i + 1] < dists[i] for i in range(3))
    final_rel = dists[-1] / limit
    sigma = sigma_limit(f, LimitScenario(a_axes=(0,)), cfg)
    ok = monotone and final_rel <= 0.02 and abs(sigma - limit) / limit <= 0.001
    return ok, (
        f"values {['%.5f' % v for v in vals]} -> {limit:.5f}; "
        f"final rel dist {final_rel:.4f} (gate 0.02), monotone={monotone}"
    )


def crit_5_ou_one_limit(seed: int, fast: bool, threads: int | None = None):
    """OU H->1 (q=2): Var Y(1) at H=0.99 within 5% of (1-1/e)^2 and KS to the
    (1-1/e)(Z^2-1)/sqrt(2) law decreasing along H in {0.9, 0.95, 0.99}."""
    n_var = 12000
    n_ks = 5000
    target = (1.0 - math.exp(-1.0)) ** 2
    grid = GridSpec(0.0, 1.0, 512)
    spec99 = OUSpec(lam=1.0, sigma=1.0, q=2, H=0.99)
    y99 = collect_samples(lambda s: simulate_hou(spec99, grid, s, 2**14).values[-1], n_var, seed,
                          threads)
    rel = y99.var() / target - 1.0
    cdf = ou_limit_cdf_H1("nonstationary", 1.0, 1.0, 1.0, 0.0, 2)
    ks = []
    for j, h in enumerate((0.9, 0.95, 0.99)):
        spec = OUSpec(lam=1.0, sigma=1.0, q=2, H=h)
        ys = collect_samples(lambda s: simulate_hou(spec, grid, s, 2**13).values[-1],
                             n_ks, seed + 1 + j, threads)
        ks.append(ks_distance(ys, cdf))
    decreasing = ks[0] > ks[1] > ks[2]
    ok = abs(rel) <= 0.05 and decreasing
    return ok, (
        f"Var/(1-1/e)^2 - 1 = {rel:+.3f} (gate 0.05); "
        f"KS {['%.4f' % k for k in ks]} decreasing={decreasing}"
    )


def crit_6_heat_white_noise(seed: int, fast: bool, threads: int | None = None):
    """Heat equation d=1: quadrature at H0=H1=0.51 within 5% of 1/sqrt(pi);
    MC variance of the mild solution at H0=H1=0.55 within 15% of quadrature."""
    n = 300 if fast else 1500
    limit = 1.0 / math.sqrt(math.pi)
    q51 = heat_covariance_quadrature(HeatSpec(2, 0.51, (0.51,)), 1.0, 1.0)
    rel_q = abs(q51 - limit) / limit
    spec = HeatSpec(2, 0.55, (0.55,), trunc=4.0, t_steps=512, x_steps=512, n_internal=512)
    quad = heat_covariance_quadrature(spec, 1.0, 1.0)
    us = collect_samples(lambda s: sample_mild_solution(spec, 1.0, 0.0, s), n, seed, threads)
    rel_mc = us.var() / quad - 1.0
    ok = rel_q <= 0.05 and abs(rel_mc) <= 0.15
    return ok, (
        f"quad(0.51)={q51:.5f} vs 1/sqrt(pi)={limit:.5f} (rel {rel_q:.4f}, gate 0.05); "
        f"MC/quad - 1 = {rel_mc:+.3f} (gate 0.15)"
    )


def crit_7_power_counting(seed: int, fast: bool, threads: int | None = None):
    """Cycle-system verdicts as exact rationals: d0(T)=4H-1, dinf(empty)=3-4g
    at H=3/5, g=4/5; verdict flips exactly at H=1/4 and g=3/4."""
    H, g = Fraction(3, 5), Fraction(4, 5)
    rep = check_integrability(cycle_system(2, 1, H, g))
    ok = rep.d0_full == Fraction(7, 5) and rep.dinf_empty == Fraction(-1, 5)
    ok &= rep.finite_at_zero is True and rep.finite_at_infinity is True
    eps = Fraction(1, 10**6)
    at = check_integrability(cycle_system(2, 1, Fraction(1, 4), g))
    above = check_integrability(cycle_system(2, 1, Fraction(1, 4) + eps, g))
    below = check_integrability(cycle_system(2, 1, Fraction(1, 4) - eps, g))
    ok &= at.finite_at_zero is False and above.finite_at_zero is True and below.finite_at_zero is False
    g_at = check_integrability(cycle_system(2, 1, H, Fraction(3, 4)))
    g_above = check_integrability(cycle_system(2, 1, H, Fraction(3, 4) + eps))
    ok &= g_at.finite_at_infinity is False and g_above.finite_at_infinity is True
    return bool(ok), "d0(T)=7/5, dinf(empty)=-1/5; flips exactly at H=1/4 and gamma=3/4"


def crit_8_fourth_moment(seed: int, fast: bool, threads: int | None = None):
    """Excess kurtosis: (Z^2-1)/sqrt(2) -> 12 within 1.5; N(0,1) -> 0 within
    0.1; q=2 OU integral |excess| smaller at H=0.55 than at H=0.75."""
    n = 10**5
    z = derive_stream(seed + 100, 0).standard_normal(n)
    k_chaos = excess_kurtosis((z**2 - 1.0) / math.sqrt(2.0))
    z2 = derive_stream(seed + 101, 0).standard_normal(n)
    k_norm = excess_kurtosis(z2)
    n_ou = 5000
    k55 = excess_kurtosis(_wiener_samples(2, 0.55, n_ou, seed, threads, n_internal=2**13, salt=2))
    k75 = excess_kurtosis(_wiener_samples(2, 0.75, n_ou, seed, threads, n_internal=2**13, salt=3))
    ok = abs(k_chaos - 12.0) <= 1.5 and abs(k_norm) <= 0.1 and abs(k55) < abs(k75)
    return ok, (
        f"chaos {k_chaos:.2f} (12 +- 1.5), normal {k_norm:.3f} (0 +- 0.1), "
        f"OU |excess| {abs(k55):.2f}@H=0.55 < {abs(k75):.2f}@H=0.75"
    )


def crit_9_chaos_oracle(seed: int, fast: bool, threads: int | None = None):
    """On a 32-cell grid, q=2 oracle variance within 4 stderr of the
    off-diagonal isometry value 2 ||f||^2 for 3 test kernels."""
    n = 10000
    grid = GridSpec(0.0, 1.0, 32)
    kernels = [
        ChaosKernel.from_function(2, grid, lambda a, b: np.ones(a.shape[:-1])),
        ChaosKernel.from_function(2, grid, lambda a, b: np.exp(-a[..., 0] - b[..., 0])),
        ChaosKernel.from_function(
            2, grid, lambda a, b: np.cos(math.pi * a[..., 0]) * np.cos(math.pi * b[..., 0])
        ),
    ]
    details, ok = [], True
    for j, K in enumerate(kernels):
        samp = collect_samples(lambda s: chaos_oracle_sample(K, s), n, seed + j, threads)
        target = 2.0 * K.offdiag_norm_sq()
        xc = samp - samp.mean()
        se = math.sqrt(max(np.mean(xc**4) - np.mean(xc**2) ** 2, 0.0) / n)
        zscore = (samp.var() - target) / se
        ok &= abs(zscore) <= 4.0
        details.append(f"{zscore:+.2f}")
    return bool(ok), f"variance z-scores {details} (gate |z| <= 4)"


def crit_10_existence_table(seed: int, fast: bool, threads: int | None = None):
    """Existence condition evaluated exactly on 10 hand-built cases,
    including the boundary d=3, gamma_cond=3.0 -> reject."""
    cases = [  # d = len(hs)
        (0.55, (0.55,), True, 2.3),
        (0.6, (0.6, 0.6, 0.6), False, 3.0),
        (0.51, (0.51,), True, None),
        (0.99, (0.99,), True, None),
        (0.6, (0.6, 0.6), True, None),
        (0.9, (0.9, 0.9, 0.9), True, 6.0),
        (0.6, (0.6, 0.6, 0.6, 0.6), False, None),
        (0.95, (0.95, 0.95, 0.95, 0.95), True, 7.4),
        (0.55, (0.55, 0.55, 0.55), False, 2.5),
        (0.52, (0.9,), True, None),
    ]
    ok = True
    for h0, hs, expect_ok, expect_gamma in cases:
        rep = existence_condition(h0, hs)
        ok &= rep.ok == expect_ok
        if expect_gamma is not None:
            ok &= abs(rep.gamma_cond - expect_gamma) < 1e-12
    return bool(ok), f"{len(cases)} exact cases including the d=3 boundary reject"


CRITERIA: list[tuple[int, str, Callable]] = [
    (1, "fBm covariance fidelity (q=1)", crit_1_fbm_covariance),
    (2, "Hermite-sheet variance (q=2)", crit_2_hermite_variance),
    (3, "Wiener-integral isometry", crit_3_isometry),
    (4, "H->1/2 variance limit (OU window)", crit_4_half_limit_quadrature),
    (5, "H->1 limit law (OU)", crit_5_ou_one_limit),
    (6, "heat-equation white-noise limit", crit_6_heat_white_noise),
    (7, "power counting exactness", crit_7_power_counting),
    (8, "fourth-moment statistic", crit_8_fourth_moment),
    (9, "chaos oracle equivalence", crit_9_chaos_oracle),
    (10, "existence-condition truth table", crit_10_existence_table),
]


def run_all(seed: int | None = MASTER_SEED, fast: bool = False, threads: int | None = None) -> bool:
    """Run every criterion, print one pass/fail line each, return overall.
    seed None runs MASTER_SEED; every other value, 0 included, is used as is.
    threads goes to every collect_samples call (None: one per CPU)."""
    if seed is None:
        seed = MASTER_SEED
    all_ok = True
    for num, name, fn in CRITERIA:
        t0 = time.perf_counter()
        ok, detail = fn(seed, fast, threads)
        dt = time.perf_counter() - t0
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail} [{dt:.1f}s]")
    return all_ok
