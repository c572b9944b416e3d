"""Monte Carlo estimation and distributional diagnostics.

Replicates are tied to their index through derive_stream, so results are
bit-identical for a fixed (sampler, n, seed) at any thread count: samples land
in a preallocated list by index and are reduced in a fixed order.
collect_samples alone sets the thread count: one per CPU by default, or one
when a warm replicate is too short for threads to pay.
"""
from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .core import DomainError, ResourceError, check_chaos_order, derive_stream
from .fields import hermite_poly, release_noise_buffer

# Replicates this short hold the interpreter lock, so threads only add contention.
# On a 2-vCPU host a criterion-9 replicate takes 0.05 ms (0.3 to 0.4 ms as the
# first call in a process), the FFT-bound criterion-3 and criterion-8 ones 0.6 to 1 ms.
SERIAL_BELOW_S = 5e-4

# Replicate threads one collect_samples call may run; a larger --threads is refused.
THREAD_CAP = 256


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
        return asdict(self)


def resolve_threads(threads: int | None) -> int:
    """Replicate threads collect_samples runs: threads if nonzero, else one per
    CPU up to THREAD_CAP.  An explicit count above THREAD_CAP raises
    ResourceError."""
    if threads and threads > THREAD_CAP:
        raise ResourceError(f"{threads} threads exceed the cap {THREAD_CAP}")
    return max(1, min(THREAD_CAP, int(threads or os.cpu_count() or 1)))


def collect_samples(
    sampler: Callable[[np.random.Generator], float | np.ndarray],
    n: int,
    master_seed: int,
    threads: int | None = None,
) -> np.ndarray:
    """Evaluate sampler on n derived streams; sample i always uses stream i.

    A scalar sampler gives shape (n,); a sampler returning a fixed-shape
    array gives shape (n, *that shape).  Runs resolve_threads(threads)
    threads, but never more than there are replicates left for them.  With
    threads None, replicates 0 and 1 run on the calling thread first, and
    the rest run there too if replicate 1 took less than SERIAL_BELOW_S."""
    if n < 1:
        raise DomainError("need at least one replicate")
    out = [None] * n

    def run(lo: int, hi: int):
        try:
            for i in range(lo, hi):
                out[i] = sampler(derive_stream(master_seed, i))
        finally:  # a thread keeps its sampler workspace for one run of replicates
            release_noise_buffer()

    start = 0
    if threads is None:
        run(0, 1)  # pays the sampler's first-call costs, so replicate 1 is timed
        start = min(n, 2)
        t0 = time.perf_counter()
        run(1, start)
        if time.perf_counter() - t0 < SERIAL_BELOW_S:
            threads = 1
    threads = min(resolve_threads(threads), n - start)
    if threads <= 1:
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
    """Exact CDF of H_q(Z)/sqrt(q!), the H -> 1 limit variable, for every q.

    H_q is monotone between the q-1 roots of H_(q-1), the eigenvalues of the
    Golub-Welsch Jacobi matrix with off-diagonal sqrt(k).  Bisection solves
    H_q(z) = x sqrt(q!) on each monotone piece, and the CDF sums the normal
    mass where H_q <= x sqrt(q!).  The roots of H_q lie in |z| < sqrt(4q+2),
    so sqrt(4q+2) + |x sqrt(q!)|^(1/q) bounds the two unbounded pieces."""
    check_chaos_order(q)
    from scipy.special import ndtr

    i = np.arange(q - 2)
    jacobi = np.zeros((q - 1, q - 1))
    jacobi[i, i + 1] = jacobi[i + 1, i] = np.sqrt(i + 1.0)
    edges = np.concatenate(([-np.inf], np.linalg.eigvalsh(jacobi), [np.inf]))
    lo_edge, hi_edge, piece = edges[:-1, None], edges[1:, None], np.arange(q)[:, None]
    rising = (q - 1 - piece) % 2 == 0  # H_q rises on the last piece
    # H_q at each piece's minimum: the left end if rising, else the right end;
    # H_q(-inf) = -inf is read only for a rising first piece (q odd)
    h_min = np.concatenate(([-np.inf], hermite_poly(q, edges[1:-1]), [np.inf]))[piece + ~rising]
    norm = math.sqrt(math.factorial(q))

    def cdf(x):
        x = np.asarray(x, dtype=float)
        y = x.reshape(1, -1) * norm
        bound = math.sqrt(4.0 * q + 2.0) + np.abs(y) ** (1.0 / q)
        lo, hi = np.maximum(lo_edge, -bound), np.minimum(hi_edge, bound)
        for _ in range(64):  # 2^-64 of a bracket narrower than 2 * bound is below an ulp
            mid = 0.5 * (lo + hi)
            # y at a piece's minimum gives the piece no mass, though H_q is flat there
            right = ((hermite_poly(q, mid) <= y) & (y > h_min)) == rising
            lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
        p = ndtr(0.5 * (lo + hi))
        mass = np.where(rising, p - ndtr(lo_edge), ndtr(hi_edge) - p)
        return mass.sum(axis=0).reshape(x.shape)

    return cdf
