"""Linear stochastic heat equation driven by Hermite noise: existence
condition, mild-solution sampling, covariance quadrature, and the limit laws
when the Hurst multi-index approaches 1 or 1/2.  The heat kernel `green`
comes from core, where the window HeatWindow evaluates it.

The mild solution is a Wiener integral of the window
F(u, y) = 1_{(0,t)}(u) G(t-u, x-y) against a (d+1)-parameter Hermite sheet
with Hurst (H0, H); its covariance reduces by a Parseval identity to a
singular double time integral handled in quadrature.fbm_time_kernel_integral.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import erf

from .core import (
    DomainError,
    GridSpec,
    HeatWindow,
    HermiteSpec,
    HurstMultiIndex,
    LimitScenario,
    Marginal,
    UnsupportedError,
    green,  # noqa: F401  (re-exported as spde.green)
)
from .fields import check_sheet_cells, fine_mesh
from .integrals import WienerFunctional
from .quadrature import (
    effective_exponents,
    fbm_time_kernel_integral,
    limit_constant,
    limit_covariance_bifractional,
)


class ExistenceReport(NamedTuple):
    ok: bool
    gamma_cond: float


def existence_condition(h0: float, H, d: int) -> ExistenceReport:
    """A unique mild solution exists iff d < 4 H0 + sum_i (2 H_i - 1).

    The sum is taken in exact rationals from each float's shortest decimal,
    so a boundary such as 4*0.66 + 3*(2*0.56 - 1) = 3 rejects d = 3 instead of
    being decided by float rounding."""
    Hs = H.values if isinstance(H, HurstMultiIndex) else tuple(np.atleast_1d(H))

    def exact(x):
        return Fraction(repr(float(x)))

    gamma_cond = 4 * exact(h0) + sum(2 * exact(h) - 1 for h in Hs)
    return ExistenceReport(bool(d < gamma_cond), float(gamma_cond))


@dataclass(frozen=True)
class HeatSpec:
    """Heat equation with additive Hermite noise of order q and Hurst
    (H0, H); spatial truncation half-width and grid resolutions control the
    discretized mild-solution sampler."""

    q: int
    h0: float
    h: tuple[float, ...]
    trunc: Optional[float] = None
    t_steps: int = 256
    x_steps: int = 256
    n_internal: int = 512

    def __init__(self, q, h0, h, trunc=None, t_steps=256, x_steps=256, n_internal=512):
        h = tuple(float(v) for v in np.atleast_1d(h))
        object.__setattr__(self, "q", int(q))
        object.__setattr__(self, "h0", float(h0))
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "trunc", None if trunc is None else float(trunc))
        object.__setattr__(self, "t_steps", int(t_steps))
        object.__setattr__(self, "x_steps", int(x_steps))
        object.__setattr__(self, "n_internal", int(n_internal))
        if self.q < 1:
            raise DomainError("chaos order must be >= 1")
        if not 0.5 < self.h0 < 1.0 or any(not 0.5 < v < 1.0 for v in h):
            raise DomainError("Hurst entries must lie in (1/2, 1)")
        ok, gamma_cond = existence_condition(self.h0, h, len(h))
        if not ok:
            raise DomainError(
                f"no mild solution: d={len(h)} >= 4*H0 + sum(2H-1) = {gamma_cond}"
            )

    @property
    def d(self) -> int:
        return len(self.h)

    @property
    def steps(self) -> tuple[int, ...]:
        """Grid cells per axis of the sampled sheet, time first."""
        return (self.t_steps,) + (self.x_steps,) * self.d

    def half_width(self, t: float) -> float:
        return self.trunc if self.trunc is not None else 6.0 * math.sqrt(t)


def window_coverage(t: float, half_width: float, d: int, panels: int = 512) -> float:
    """Fraction of int_0^t int G(t-u, y) dy du captured by |y_a| <= half_width."""
    u = (np.arange(panels) + 0.5) * (t / panels)
    frac = erf(half_width / np.sqrt(2.0 * u)) ** d
    return float(np.mean(frac))


@functools.lru_cache(maxsize=64)
def _mild_setup(spec: HeatSpec, t: float, x: tuple) -> WienerFunctional:
    check_sheet_cells(fine_mesh(spec.steps, spec.n_internal))  # before the weights
    L = spec.half_width(t)
    cov = window_coverage(t, L, spec.d)
    if cov < 0.99:
        raise DomainError(
            f"spatial truncation keeps only {cov:.4f} of the kernel mass; widen trunc"
        )
    origins = [0.0] + [xa - L for xa in x]
    extents = [t] + [2.0 * L] * spec.d
    return WienerFunctional(HeatWindow(t, x, L), GridSpec(origins, extents, spec.steps))


def sample_mild_solution(spec: HeatSpec, t: float, x, stream: np.random.Generator) -> float:
    """One draw of the discretized mild solution u(t, x): a Riemann-Stieltjes
    sum of the heat window against the cell increments of a simulated
    (d+1)-parameter Hermite sheet on [0,t] x [x-L, x+L]^d."""
    x = tuple(float(v) for v in np.atleast_1d(x))
    if len(x) != spec.d:
        raise DomainError("spatial point dimension mismatch")
    if t < 0:
        raise DomainError("t must be >= 0")
    if t == 0:
        return 0.0
    sheet_spec = HermiteSpec(spec.q, HurstMultiIndex((spec.h0,) + spec.h))
    return _mild_setup(spec, float(t), x).sample(sheet_spec, spec.n_internal, stream)


# ---------------------------------------------------------------------------
# Covariance quadrature
# ---------------------------------------------------------------------------

def heat_covariance_quadrature(spec: HeatSpec, t: float, s: float, x=None) -> float:
    """E u(t,x) u(s,x) for the heat equation in any d via the spectral reduction:

        H0(2H0-1) * prod_a [ H_a(2H_a-1) q_(2H_a-1) 2^(1-H_a) Gamma(1-H_a) ]
        * int_0^t int_0^s |u-v|^(2H0-2) (t+s-u-v)^(sum H - d) du dv,

    where the product is quadrature.limit_constant(H, 0) and
    2^(1-H) Gamma(1-H) = int |tau|^(1-2H) e^(-tau^2/2) dtau.  The value does
    not depend on x (spatial stationarity).
    """
    if t < 0 or s < 0:
        raise DomainError("t and s must be >= 0")
    if t == 0 or s == 0:
        return 0.0
    h0 = spec.h0
    gexp = sum(spec.h) - spec.d
    return (h0 * (2.0 * h0 - 1.0) * limit_constant(spec.h, 0)
            * fbm_time_kernel_integral(t, s, h0, gexp))


# ---------------------------------------------------------------------------
# Limit covariances and the H -> 1 limit functional
# ---------------------------------------------------------------------------

def heat_limit_covariance(
    scenario: LimitScenario,
    h0: Optional[float],
    t: float,
    s: float,
) -> float:
    """Limit of E u(t,x)u(s,x) when the spatial axes in A_k (and the time
    index, unless h0 is given) are driven to 1/2.

    h0 = None: time index driven to 1/2 (cases 1 and 3), returning the
    bifractional covariance with exponent 1-gamma0 and the white-noise-limit
    prefactor.  h0 = value: time index fixed (case 2); the fractional time
    kernel is kept and integrated against (t+s-u-v)^(-gamma0).
    """
    k = scenario.k
    if k < 1:
        raise DomainError("at least one spatial axis must be driven to 1/2")
    fixed_h = [scenario.fixed[a] for a in sorted(scenario.fixed)]
    d = k + len(scenario.b_axes) + len(fixed_h)
    gamma0 = effective_exponents(d, scenario).gamma0
    scale = limit_constant(fixed_h, k)
    if h0 is None:
        return limit_covariance_bifractional(t, s, gamma0, scale)
    if not 0.5 < h0 < 1.0:
        raise DomainError(f"fixed H0={h0} not in (1/2, 1)")
    if t == 0 or s == 0:
        return 0.0
    time_part = h0 * (2.0 * h0 - 1.0) * fbm_time_kernel_integral(t, s, h0, -gamma0)
    return scale * time_part


def heat_limit_functional(t: float, x, axes, grid: GridSpec, panels: int = 64) -> WienerFunctional:
    """The H -> 1 limit of u(t,x) as one functional on the lower sheet.

    `axes` are the window axes sent to 1, numbered as Marginal numbers
    them: 0 is time and 1 + a is spatial axis a.  `grid` carries the axes
    that stay stochastic, in their order, and its extent around x on the
    kept spatial axes fixes the window truncation.  The limit is the Wiener
    integral of Marginal(window, axes, panels) against a Hermite sheet on
    `grid`; draw it with .sample(HermiteSpec(q, kept Hurst values),
    n_internal, stream).  Every axis sent to 1 (case 3) leaves no sheet: its
    limit is t H_q(Z)/sqrt(q!), whose CDF at y is
    stats.target_cdf_hermite_limit(q)(y / t).
    """
    x = tuple(float(v) for v in np.atleast_1d(x))
    axes = tuple(sorted(int(a) for a in axes))
    if axes == tuple(range(len(x) + 1)):
        raise UnsupportedError("case 3 leaves no sheet: its law is t H_q(Z)/sqrt(q!), "
                               "see stats.target_cdf_hermite_limit")
    kept = [j for j in range(len(x) + 1) if j not in axes]
    widths = [min(x[j - 1] - lo, hi - x[j - 1])
              for j, lo, hi in zip(kept, grid.lo(), grid.hi()) if j > 0]
    trunc = min(widths) if widths else 6.0 * math.sqrt(t)
    return WienerFunctional(Marginal(HeatWindow(t, x, trunc), axes, panels), grid)
