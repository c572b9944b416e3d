"""Monte Carlo estimation and distributional diagnostics.

Replicates are tied to their index through derive_stream, so results are
bit-identical for a fixed (sampler, n, seed) at any thread count: samples land
in a preallocated list by index and are reduced in a fixed order.
collect_samples alone sets the thread count: one per CPU by default, or one
when the first replicate is too short for threads to pay.
"""
from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import erf, ndtr

from .core import DomainError, derive_stream
from .fields import hermite_poly

# Replicates this short hold the interpreter lock, so threads only add contention.
# On a 2-vCPU host a criterion-9 replicate takes 0.05 ms (0.15 ms as the first),
# the FFT-bound criterion-3 and criterion-8 ones 0.6 to 1 ms.
SERIAL_BELOW_S = 5e-4


@dataclass(frozen=True)
class MCReport:
    n: int
    mean: float
    variance: float
    stderr_mean: float
    stderr_variance: float
    seed: int

    def __post_init__(self):
        if self.variance < 0 or self.stderr_mean < 0 or self.stderr_variance < 0:
            raise DomainError("variance and standard errors must be nonnegative")

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "mean": self.mean,
            "variance": self.variance,
            "stderr_mean": self.stderr_mean,
            "stderr_variance": self.stderr_variance,
            "seed": self.seed,
        }


def resolve_threads(threads: int | None) -> int:
    """Replicate threads collect_samples runs: threads if nonzero, else one per CPU."""
    return max(1, int(threads or os.cpu_count() or 1))


def collect_samples(
    sampler: Callable[[np.random.Generator], float | np.ndarray],
    n: int,
    master_seed: int,
    threads: int | None = None,
) -> np.ndarray:
    """Evaluate sampler on n derived streams; sample i always uses stream i.

    A scalar sampler gives shape (n,); a sampler returning a fixed-shape
    array gives shape (n, *that shape).  Runs resolve_threads(threads)
    threads.  With threads None, replicate 0 runs on the calling thread first,
    and the rest run there too if it took less than SERIAL_BELOW_S."""
    if n < 1:
        raise DomainError("need at least one replicate")
    out = [None] * n

    def run(lo: int, hi: int):
        for i in range(lo, hi):
            out[i] = sampler(derive_stream(master_seed, i))

    start = 0
    if threads is None:
        t0 = time.perf_counter()
        run(0, 1)
        start = 1
        if time.perf_counter() - t0 < SERIAL_BELOW_S:
            threads = 1
    threads = resolve_threads(threads)
    if threads == 1:
        run(start, n)
    else:
        bounds = np.linspace(start, n, threads + 1).astype(int)
        with ThreadPoolExecutor(max_workers=threads) as ex:
            futs = [ex.submit(run, bounds[t], bounds[t + 1]) for t in range(threads)]
            for f in futs:
                f.result()
    return np.array(out, dtype=float)


def report_from_samples(samples: np.ndarray, seed: int) -> MCReport:
    n = samples.size
    if n < 2:
        raise DomainError("mc report needs n >= 2")
    mean = float(np.mean(samples))
    xc = samples - mean
    m2 = float(np.mean(xc**2))
    m4 = float(np.mean(xc**4))
    variance = m2 * n / (n - 1)
    var_of_var = max(0.0, (m4 - m2**2 * (n - 3) / (n - 1)) / n)
    return MCReport(
        n=n,
        mean=mean,
        variance=variance,
        stderr_mean=math.sqrt(variance / n),
        stderr_variance=math.sqrt(var_of_var),
        seed=int(seed),
    )


def excess_kurtosis(samples: np.ndarray) -> float:
    """m4/m2^2 - 3 from centered sample moments.  Zero for Gaussian data,
    and the fourth-moment criterion makes it a normality statistic inside a
    fixed Wiener chaos."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 100:
        raise DomainError("kurtosis needs at least 100 samples")
    xc = samples - samples.mean()
    m2 = float(np.mean(xc**2))
    if m2 <= 0:
        raise DomainError("degenerate sample variance")
    return float(np.mean(xc**4)) / m2**2 - 3.0


def ks_distance(samples: np.ndarray, target_cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sup distance between the empirical CDF and target_cdf, evaluated at
    the sorted sample points with both one-sided gaps."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    F = np.asarray(target_cdf(xs), dtype=float)
    hi = np.max(np.arange(1, n + 1) / n - F)
    lo = np.max(F - np.arange(0, n) / n)
    return float(min(1.0, max(0.0, hi, lo)))


def target_cdf_hermite_limit(q: int) -> Callable[[np.ndarray], np.ndarray]:
    """CDF of H_q(Z)/sqrt(q!); closed form for q=1 (normal) and q=2 (shifted
    scaled chi-square), empirical from 10^6 direct draws for q >= 3."""
    if q < 1:
        raise DomainError("chaos order must be >= 1")
    if q == 1:
        return lambda x: ndtr(np.asarray(x, dtype=float))
    if q == 2:
        # (Z^2-1)/sqrt(2) <= x  <=>  Z^2 <= 1 + sqrt(2) x; P(Z^2<=y)=erf(sqrt(y/2))
        def cdf(x):
            y = 1.0 + math.sqrt(2.0) * np.asarray(x, dtype=float)
            return np.where(y > 0.0, erf(np.sqrt(np.maximum(y, 0.0) / 2.0)), 0.0)

        return cdf
    rng = derive_stream(0x4865726D697465, q)
    z = rng.standard_normal(10**6)
    vals = np.sort(hermite_poly(q, z) / math.sqrt(math.factorial(q)))

    def ecdf(x):
        return np.searchsorted(vals, np.asarray(x, dtype=float), side="right") / vals.size

    return ecdf
