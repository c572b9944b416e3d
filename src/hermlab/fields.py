"""Samplers for fractional Gaussian sheets and Hermite sheets, Hermite
polynomials, and a brute-force multiple Wiener-Ito integral oracle.

Every sheet comes from one pipeline, the Hermite-rank construction, which
ends at the grid-cell increments: a long-range-dependent Gaussian array with
per-axis transformed Hurst value H' = 1 + (H-1)/q is pushed through H_q
pointwise, block-summed from the fine mesh into grid cells and scaled
(hermite_sheet_increments).  The base correlation is chosen so the
transformed increments carry the exact fractional-sheet covariance, making
Var Z(node) = node^(2H) at every grid node in expectation.  Only consumers of
node values pay for the cumulative sum over the grid: simulate_hermite_sheet
and simulate_fractional_gaussian_sheet (the q = 1 case at one fine cell per
grid cell) wrap it in a RandomField, while a Wiener functional or an OU path
dots the increments directly.  Gaussian arrays come from circulant embedding
drawn in the spectral domain: the half spectrum of real white noise is itself
a complex Gaussian array of known law, so it is drawn directly, scaled per
frequency plane and sent through one axis-by-axis inverse real FFT, which
keeps the embedded covariance exact.  That per-bin scale is the one cached
quantity: the cache is keyed by the sampler's exact (H, q, N) and holds at
most 8 entries.  Direct discretization of the chaos kernel is O(cells^q)
and lives only in the ChaosKernel oracle.
"""
from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
import scipy.fft as sfft

from .core import (
    DomainError,
    FieldMeta,
    GridSpec,
    HermiteSpec,
    HurstMultiIndex,
    RandomField,
    ResourceError,
    midpoint_mesh,
)

_CACHE_LOCK = threading.Lock()
_CACHE_SIZE = 8
_SQRT_EIG_CACHE: dict = {}  # (Hs, q, N) -> half-spectrum scale of the spectral draw


CHAOS_CELL_CAP = 2**21
SHEET_CELL_CAP = 2**26  # circulant cells of one sheet draw, 512 MiB per float64 array


# ---------------------------------------------------------------------------
# Hermite polynomials
# ---------------------------------------------------------------------------

def hermite_poly(q: int, x):
    """Probabilists' Hermite polynomial H_q via the three-term recurrence
    H_{q+1}(x) = x H_q(x) - q H_{q-1}(x)."""
    if q < 0:
        raise DomainError("Hermite polynomial degree must be >= 0")
    x = np.asarray(x, dtype=float)
    if q == 0:
        return np.ones_like(x) if x.ndim else 1.0
    h_prev, h = 1.0, x
    for n in range(1, q):
        # x*h, then the subtraction in place: the same operations in the same
        # order as x*h - n*h_prev, with one full-size temporary fewer
        nxt = x * h
        nxt -= n * h_prev
        h, h_prev = nxt, h
    if h is x:
        h = x.copy()
    return h if h.ndim else float(h)


# ---------------------------------------------------------------------------
# Circulant embedding of fractional Gaussian noise
# ---------------------------------------------------------------------------

def fgn_autocov(H: float, n: int) -> np.ndarray:
    """Autocovariance of unit-variance fGn at lags 0..n."""
    k = np.arange(n + 1, dtype=float)
    return 0.5 * ((k + 1.0) ** (2 * H) - 2.0 * k ** (2 * H) + np.abs(k - 1.0) ** (2 * H))


def _cached(cache: dict, key, compute):
    """cache[key], computed on a miss; the oldest entry is evicted once the
    cache holds _CACHE_SIZE entries, so a sweep over many (H, q, N) stays bounded."""
    with _CACHE_LOCK:
        value = cache.get(key)
    if value is None:
        value = compute()
        with _CACHE_LOCK:
            while len(cache) >= _CACHE_SIZE:
                del cache[next(iter(cache))]
            cache[key] = value
    return value


def _circulant_eigs(H: float, n: int, q: int) -> np.ndarray:
    """Eigenvalues of the even circulant extension (length 2n) of the
    correlation rho_H(k)^(1/q) at lags 0..n; negatives below -1e-10 relative
    are an error, above are clamped to 0."""
    rho = fgn_autocov(H, n) ** (1.0 / q)
    c = np.concatenate([rho[:n], [rho[n]], rho[n - 1:0:-1]])
    eig = np.fft.fft(c).real
    if eig.min() < -1e-10 * eig.max():
        raise RuntimeError(
            f"circulant embedding not nonnegative (H={H}, q={q}, n={n}): "
            f"min eigenvalue {eig.min():.3e}"
        )
    return np.maximum(eig, 0.0)


def _spectral_scale(Hs: tuple, q: int, N: tuple) -> np.ndarray:
    """Per-bin scale of the spectral draw in _stationary_unit_field for the
    circulant of 2 N[a] cells per axis, with M its size and lam the separable
    eigenvalue tensor cut to the half spectrum [..., :N[-1]+1].  Cached
    read-only under its exact arguments, since replicate threads share it."""

    def compute():
        eigs = [_circulant_eigs(h, n, q) for h, n in zip(Hs, N)]
        last = eigs[-1][: N[-1] + 1] * (0.5 * math.prod(len(e) for e in eigs))
        last[[0, -1]] *= 2.0
        scale = np.sqrt(functools.reduce(np.multiply.outer, eigs[:-1] + [last]))
        scale.setflags(write=False)
        return scale

    return _cached(_SQRT_EIG_CACHE, (Hs, q, N), compute)


def _stationary_unit_field(scale: np.ndarray, stream: np.random.Generator) -> np.ndarray:
    """Unit-variance stationary Gaussian array with separable correlation
    prod_a rho_a, sampled by d-dimensional circulant embedding from the
    half-spectrum `scale` of _spectral_scale; the circulant shape is
    scale.shape with the last axis 2 * (scale.shape[-1] - 1).

    With C = F^-1 diag(lam) F the circulant covariance, C^(1/2) w for real
    white noise w has Cov = C exactly, and its half spectrum is
    sqrt(lam) rfftn(w).  That half spectrum is drawn directly: z has i.i.d.
    standard normal real and imaginary parts, and bins inside the last axis
    are scaled by sqrt(M lam / 2) while the k_last = 0 and m_last/2 planes,
    whose imaginary parts the inverse real FFT drops after the leading axes,
    are scaled by sqrt(M lam).  The output is linear in the noise and its
    covariance is C exactly; the first half of each axis carries the target.
    The inverse is irfftn taken one axis at a time, so the unused second
    half of each leading axis is dropped before the next pass.
    """
    shape = scale.shape[:-1] + (2 * (scale.shape[-1] - 1),)
    x = stream.standard_normal(scale.shape + (2,)).view(np.complex128)[..., 0]
    x *= scale
    for a, m in enumerate(shape[:-1]):
        x = sfft.ifft(x, axis=a, overwrite_x=True)
        x = x[(slice(None),) * a + (slice(0, m // 2),)]
    x = sfft.irfft(x, n=shape[-1], axis=-1)
    return x[..., : shape[-1] // 2]


def _block_sum(incr: np.ndarray, strides: Sequence[int]) -> np.ndarray:
    """Sum each run of stride[a] consecutive cells along axis a into one cell."""
    if all(st == 1 for st in strides):
        return incr
    shape = [v for n, st in zip(incr.shape, strides) for v in (n // st, st)]
    return incr.reshape(shape).sum(axis=tuple(range(1, 2 * incr.ndim, 2)))


def _padded_cumsum(incr: np.ndarray) -> np.ndarray:
    padded = np.zeros(tuple(s + 1 for s in incr.shape))
    out = padded[tuple(slice(1, None) for _ in range(incr.ndim))]
    for a in range(incr.ndim):
        np.cumsum(incr if a == 0 else out, axis=a, out=out)
    return padded


def fine_mesh(steps: Sequence[int], n_internal: int) -> tuple[int, ...]:
    """Fine-mesh cells per axis of a Hermite sheet on a grid of `steps` cells
    per axis: n_internal rounded to a multiple of each axis's step count, so
    grid nodes land on fine-mesh nodes (at least one fine cell per grid cell)."""
    if n_internal < 64:
        raise DomainError("internal fine mesh must have at least 64 cells per axis")
    return tuple(s * max(1, round(n_internal / s)) for s in steps)


def _increments(Hs, q, grid, N, stream) -> np.ndarray:
    """The one sheet pipeline: a stationary unit Gaussian array with per-axis
    correlation rho_H(k)^(1/q) on the fine mesh of N[a] cells per axis,
    pushed through H_q, block-summed into grid cells and scaled in place by
    c = prod_a h_a^(H_a) / sqrt(q!), h_a the fine cell width: the grid-cell
    increments."""
    cells = math.prod(2 * n for n in N)
    if cells > SHEET_CELL_CAP:
        raise ResourceError(
            f"circulant of {cells} cells exceeds the sampler cap {SHEET_CELL_CAP}; "
            "lower the grid or the fine mesh"
        )
    xi = _stationary_unit_field(_spectral_scale(Hs, q, N), stream)
    strides = [n // s for n, s in zip(N, grid.steps)]
    width = [e / n for e, n in zip(grid.extents, N)]
    c = float(np.prod([m**h for m, h in zip(width, Hs)])) / math.sqrt(math.factorial(q))
    incr = _block_sum(hermite_poly(q, xi), strides)
    incr *= c
    return incr


def simulate_fractional_gaussian_sheet(
    H: Union[float, Sequence[float], HurstMultiIndex],
    grid: GridSpec,
    stream: np.random.Generator,
) -> RandomField:
    """Gaussian field with covariance prod_a R_{H_a}(t_a, s_a) on the grid
    nodes (anchored at the low corner): the q = 1 sheet pipeline at one fine
    cell per grid cell, for any H_a in (0, 1)."""
    if isinstance(H, HurstMultiIndex):
        Hs = H.values
    else:
        Hs = tuple(float(v) for v in np.atleast_1d(H))
    if len(Hs) != grid.d:
        raise DomainError("Hurst index and grid dimension mismatch")
    for h in Hs:
        if not 0.0 < h < 1.0:
            raise DomainError(f"Hurst exponent {h} not in (0, 1)")
    spec = None
    if all(0.5 < h < 1.0 for h in Hs):
        spec = HermiteSpec(1, HurstMultiIndex(Hs))
    values = _padded_cumsum(_increments(Hs, 1, grid, grid.steps, stream))
    meta = FieldMeta(spec=spec, method="circulant", internal=max(grid.steps))
    return RandomField(grid=grid, values=values, meta=meta)


# ---------------------------------------------------------------------------
# Hermite sheets via the Hermite-rank construction
# ---------------------------------------------------------------------------

def hermite_sheet_increments(
    spec: HermiteSpec,
    grid: GridSpec,
    n_internal: int,
    stream: np.random.Generator,
) -> np.ndarray:
    """Grid-cell increments of an approximate Hermite sheet, shape grid.steps.

    The base Gaussian array carries the per-axis correlation rho_H(k)^(1/q)
    (tail exponent 2(H'-1) with H' = 1 + (H-1)/q), which makes the
    H_q-transformed increments match the fBm-sheet increment covariance
    q! prod_a rho_(H_a)(k_a) exactly at every lag.  The normalization
    c = prod_a mesh_a^(H_a) / sqrt(q!) then gives Var Z(node) = node^(2H)
    exactly in expectation at every grid node; higher-order structure
    converges with the fine mesh.

    n_internal is the fine-mesh size per axis, rounded by fine_mesh.  A fine
    mesh whose circulant would exceed SHEET_CELL_CAP cells raises
    ResourceError before anything is allocated.
    """
    if spec.d != grid.d:
        raise DomainError("spec and grid dimension mismatch")
    N = fine_mesh(grid.steps, n_internal)
    return _increments(spec.hurst.values, spec.q, grid, N, stream)


def simulate_hermite_sheet(
    spec: HermiteSpec,
    grid: GridSpec,
    n_internal: int,
    stream: np.random.Generator,
) -> RandomField:
    """Approximate sample of a Hermite sheet on the grid nodes: the padded
    cumulative sum of hermite_sheet_increments on the same stream."""
    values = _padded_cumsum(hermite_sheet_increments(spec, grid, n_internal, stream))
    internal = max(fine_mesh(grid.steps, n_internal))
    return RandomField(grid=grid, values=values,
                       meta=FieldMeta(spec=spec, method="hermite_rank", internal=internal))


# ---------------------------------------------------------------------------
# Brute-force multiple-integral oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ChaosKernel:
    """Discretized kernel of a q-th multiple Wiener-Ito integral on a small
    grid: values at all q-tuples of cell midpoints."""

    q: int
    grid: GridSpec
    table: np.ndarray

    def __post_init__(self):
        if self.q < 1:
            raise DomainError("chaos order must be >= 1")
        cells = int(np.prod(self.grid.steps))
        if cells**self.q > CHAOS_CELL_CAP:
            raise ResourceError(
                f"{cells}^{self.q} kernel nodes exceed the oracle cap {CHAOS_CELL_CAP}"
            )
        if self.table.shape != (cells,) * self.q:
            raise DomainError("kernel table must have shape (cells,)*q")

    @classmethod
    def from_function(cls, q: int, grid: GridSpec, func) -> "ChaosKernel":
        """Tabulate func(y_1, ..., y_q), each y_i in R^d, at cell midpoints."""
        mids = midpoint_mesh([grid.axis_nodes(a) for a in range(grid.d)]).reshape(-1, grid.d)
        m = mids.shape[0]
        if m**q > CHAOS_CELL_CAP:
            raise ResourceError(f"{m}^{q} kernel nodes exceed the oracle cap")
        idx = np.stack(np.meshgrid(*[np.arange(m)] * q, indexing="ij"), axis=-1)
        args = [mids[idx[..., j]] for j in range(q)]
        table = np.asarray(func(*args), dtype=float)
        return cls(q=q, grid=grid, table=table)

    @functools.cached_property
    def _offdiag_table(self) -> np.ndarray:
        """Kernel with all tuples having a repeated cell zeroed out."""
        m = int(np.prod(self.grid.steps))
        mask = np.ones((m,) * self.q, dtype=bool)
        ax = [np.arange(m).reshape((1,) * j + (m,) + (1,) * (self.q - 1 - j))
              for j in range(self.q)]
        for i in range(self.q):
            for j in range(i + 1, self.q):
                mask &= ax[i] != ax[j]
        return np.where(mask, self.table, 0.0)

    def offdiag_norm_sq(self) -> float:
        """Discrete squared L2 norm of the kernel over off-diagonal tuples."""
        vol = self.grid.cell_volume()
        return float(np.sum(self._offdiag_table**2)) * vol**self.q


def chaos_oracle_sample(kernel: ChaosKernel, stream: np.random.Generator) -> float:
    """Brute-force draw of I_q(f): independent N(0, cell volume) white-noise
    increments on the kernel grid, summed against the kernel over q-tuples of
    pairwise-distinct cells."""
    m = int(np.prod(kernel.grid.steps))
    dw = stream.standard_normal(m) * math.sqrt(kernel.grid.cell_volume())
    wq = functools.reduce(np.multiply.outer, [dw] * kernel.q) if kernel.q > 1 else dw
    return float(np.sum(kernel._offdiag_table * wq))
