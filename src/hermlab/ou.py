"""Hermite Ornstein-Uhlenbeck processes: one simulator, simulate_hou, for
both the nonstationary and the stationary solution of the Langevin equation
driven by a Hermite process (the spec's `stationary` flag selects the
window), and their limit laws as the Hurst index approaches 1 or 1/2."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    DomainError,
    check_chaos_order,
    GridSpec,
    HermiteSpec,
    HurstMultiIndex,
    RandomField,
    midpoint_mesh,
)
from .fields import hermite_sheet_increments
from .stats import target_cdf_hermite_limit

_EXP_SPAN = 512.0  # largest exponent of a path weight; float64 overflows past 709


@dataclass(frozen=True)
class OUSpec:
    """Langevin parameters: dX = -lam X dt + sigma dZ^q_H, constant initial
    condition xi, optional stationary mode with truncation horizon M for the
    infinite-past window."""

    lam: float
    sigma: float
    q: int
    H: float
    xi: float = 0.0
    stationary: bool = False
    M: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "xi", float(self.xi))
        if self.lam <= 0 or self.sigma <= 0:
            raise DomainError("need lam > 0 and sigma > 0")
        check_chaos_order(self.q)
        HurstMultiIndex(self.H)  # H in (1/2, 1)

    def horizon(self) -> float:
        return self.M if self.M is not None else 10.0 / self.lam


def driving_grid(spec: OUSpec, grid: GridSpec) -> GridSpec:
    """The grid of the driving Hermite path: `grid` itself, or for a
    stationary spec the same step extended back to cover [-M, T]; `grid`
    must be one-parameter and start at 0.  Horizons with lam*M < 5 are
    refused (truncated tail mass above e^-5)."""
    if grid.d != 1 or abs(grid.origins[0]) > 1e-12:
        raise DomainError("need a one-parameter grid starting at 0")
    if not spec.stationary:
        return grid
    M = spec.horizon()
    if spec.lam * M < 5.0:
        raise DomainError(f"truncation refused: lam*M = {spec.lam * M:.2f} < 5")
    h = grid.mesh[0]
    m_cells = int(math.ceil(M / h - 1e-12))
    return GridSpec(-m_cells * h, m_cells * h + grid.extents[0], m_cells + grid.steps[0])


def simulate_hou(
    spec: OUSpec,
    grid: GridSpec,
    stream: np.random.Generator,
    n_internal: int = 2**14,
) -> RandomField:
    """Hermite OU path on a one-parameter grid over [0, T].

    Nonstationary spec: Y(t) = e^(-lam t) (xi + sigma int_0^t e^(lam u) dZ),
    driven by the cell increments of one Hermite path on the grid.

    Stationary spec: X(t) = sigma int_(-M)^t e^(-lam (t-u)) dZ(u), with the
    driving path on [-M, T] (see driving_grid); xi is not used.

    The stream feeds the driving path alone.

    Both integrals are midpoint Riemann-Stieltjes cumulative sums of the
    increments.  The weights e^(lam u) are taken relative to a reference
    time that moves up by _EXP_SPAN / lam each time lam u passes a multiple
    of _EXP_SPAN, so no exponential overflows at any horizon; the reference
    is 0 throughout while lam T < _EXP_SPAN.
    """
    path_grid = driving_grid(spec, grid)
    m_cells = path_grid.steps[0] - grid.steps[0]
    sheet_spec = HermiteSpec(spec.q, HurstMultiIndex(spec.H))
    dz = hermite_sheet_increments(sheet_spec, path_grid, n_internal, stream)
    lam_mids = spec.lam * midpoint_mesh([path_grid.axis_nodes(0)]).reshape(-1)
    ref = _EXP_SPAN * np.maximum(np.floor(lam_mids / _EXP_SPAN), 0.0)  # lam * reference
    integ = np.exp(lam_mids - ref) * dz
    starts = np.flatnonzero(np.diff(ref)) + 1
    for lo, hi in zip(np.r_[0, starts], np.r_[starts, len(integ)]):
        np.cumsum(integ[lo:hi], out=integ[lo:hi])
        if lo:  # carry the running sum over to the new reference
            integ[lo:hi] += integ[lo - 1] * math.exp(ref[lo - 1] - ref[lo])
    # node k sums the cells before it, relative to the reference of cell k - 1
    integ = np.concatenate([[0.0], integ])[m_cells:]
    ref = np.concatenate([[0.0], ref])[m_cells:]
    decay = np.exp(-(spec.lam * grid.axis_nodes(0) - ref))
    if spec.stationary:
        values = spec.sigma * decay * integ
    else:
        values = decay * (spec.xi * np.exp(-ref) + spec.sigma * integ)
    return RandomField(grid, values)


def ou_limit_covariance(kind: str, t: float, s: float, lam: float, sigma: float) -> float:
    """H->1/2 limit covariances: the standard (nonstationary) and stationary
    Ornstein-Uhlenbeck Gaussian processes."""
    if t < 0 or s < 0:
        raise DomainError("t and s must be >= 0")
    if lam <= 0 or sigma <= 0:
        raise DomainError("need lam > 0 and sigma > 0")
    base = sigma**2 / (2.0 * lam)
    if kind == "nonstationary":
        return base * (math.exp(-lam * abs(t - s)) - math.exp(-lam * (t + s)))
    if kind == "stationary":
        return base * math.exp(-lam * abs(t - s))
    raise DomainError(f"unknown OU kind {kind!r}")


def ou_limit_cdf_H1(
    kind: str,
    t: float,
    lam: float,
    sigma: float,
    xi: float,
    q: int,
) -> Callable[[np.ndarray], np.ndarray]:
    """Exact CDF of the H->1 limit law: e^(-lam t) xi + sigma (1-e^(-lam t))
    H_q(Z)/sqrt(q!) in the nonstationary case (t > 0), (sigma/lam)
    H_q(Z)/sqrt(q!) (time-independent) in the stationary case."""
    if lam <= 0 or sigma <= 0:
        raise DomainError("need lam > 0 and sigma > 0")
    if kind == "nonstationary":
        if t <= 0:
            raise DomainError("the nonstationary limit law needs t > 0")
        shift = math.exp(-lam * t) * float(xi)
        scale = sigma * (1.0 - math.exp(-lam * t))
    elif kind == "stationary":
        shift, scale = 0.0, sigma / lam
    else:
        raise DomainError(f"unknown OU kind {kind!r}")
    cdf = target_cdf_hermite_limit(q)
    return lambda x: cdf((np.asarray(x, dtype=float) - shift) / scale)
