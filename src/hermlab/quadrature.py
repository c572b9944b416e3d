"""Deterministic quadrature for the singular-kernel inner products, the
generic closed-form constants of the limit theorems (q_alpha, limit_constant)
and the singular time kernel of the heat covariance, which spde assembles.

The weight |u-v|^(2H-2) is integrated exactly over each panel pair through its
double antiderivative |w|^(2H)/(2H(2H-1)); integrand values are sampled at
panel midpoints.  This removes the diagonal singularity without adaptive
machinery and makes indicator integrands exact for any panel count.

When both edge arrays are equally spaced with one step h, the mass of a panel
pair depends only on its lag i-j: the antiderivative is evaluated once at the
n_u+n_v+1 lag positions, and their second differences are the n_u+n_v-1 lag
masses of a Toeplitz kernel.  Contractions apply that kernel by a zero-padded
real-FFT correlation (numpy.fft at a 5-smooth length), O(n log n) per axis
line, and never form the matrix.
Edges with unequal steps take the four-corner formula, four antiderivative
evaluations per panel pair, and contract the dense matrix.  The dense Toeplitz
matrix is built only for callers that ask for it (`abs_pow_cell_masses`).
The closed-form constants import scipy.special on their first call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DomainError,
    HurstMultiIndex,
    Integrand,
    LimitScenario,
    ResourceError,
    UnsupportedError,
    midpoint_mesh,
)

TWO_PI = 2.0 * math.pi

# panels ** d cells: inner_product_HH peaks at 80 to 89 B of numpy buffers per cell
# (tracemalloc, 2^20 panels in 1-D, 128^3 in 3-D), so about 1.4 GiB at the cap
PANEL_CELL_CAP = 2**24


@dataclass(frozen=True)
class QuadratureConfig:
    """Panel count per axis for the singular-kernel quadrature, which
    integrates |u-v|^(2H-2) exactly over every panel pair."""

    panels: int = 256

    def __post_init__(self):
        if self.panels < 8:
            raise DomainError("quadrature needs at least 8 panels per axis")


DEFAULT_CFG = QuadratureConfig()


# ---------------------------------------------------------------------------
# Singular-kernel panel masses
# ---------------------------------------------------------------------------

def _mass_kernel(edges_u: np.ndarray, edges_v: np.ndarray, c: float) -> np.ndarray:
    """Exact integrals of |u-v|^c over all panel pairs, c in (-1, 0], in the
    form contractions consume: the 1-D lag vector of the Toeplitz kernel when
    both edge arrays are equally spaced with one step, else the dense matrix.

    Uses the double antiderivative Psi(w) = |w|^(c+2) / ((c+1)(c+2)):
    the mass of cell pair [a,b] x [p,q] is Psi(b-p)+Psi(a-q)-Psi(b-q)-Psi(a-p).
    With one step (to within a few ulps, as np.linspace leaves it), the pair
    (i, j) has the mass P[L+1]+P[L-1]-P[L]-P[L] with L = i-j, where P[k] is
    Psi at the lag u_k - v_0 (k >= 0) or u_0 - v_{-k} (k < 0).  Psi is then
    evaluated at n_u+n_v+1 lags; lag[s] is the mass at L = s-n_v+1.  When
    edges_v is edges_u, u_0 - u_k is exactly -(u_k - u_0), so Psi is
    evaluated at the n+1 lags k >= 0 and mirrored.  The sum runs in the
    four-corner order, so uniform dyadic edges give bit-identical masses.
    """
    if c <= -1.0:
        raise DomainError(f"exponent {c} not integrable across the diagonal")

    def psi(w):
        return np.abs(w) ** (c + 2.0) / ((c + 1.0) * (c + 2.0))

    nu = len(edges_u) - 1
    h = (edges_u[-1] - edges_u[0]) / nu
    if all(
        np.max(np.abs(e - (e[0] + h * np.arange(len(e)))))
        <= 4.0 * np.finfo(float).eps * np.max(np.abs(e))
        for e in ((edges_u,) if edges_v is edges_u else (edges_u, edges_v))
    ):
        if edges_v is edges_u:
            p = psi(edges_u - edges_u[0])
            p = np.concatenate((p[:0:-1], p))
        else:
            p = psi(np.concatenate((edges_u[0] - edges_v[:0:-1], edges_u - edges_v[0])))
        return p[2:] + p[:-2] - p[1:-1] - p[1:-1]

    au, bu = edges_u[:-1, None], edges_u[1:, None]
    av, bv = edges_v[None, :-1], edges_v[None, 1:]
    return psi(bu - av) + psi(au - bv) - psi(bu - bv) - psi(au - av)


def abs_pow_cell_masses(edges_u: np.ndarray, edges_v: np.ndarray, c: float) -> np.ndarray:
    """The (n_u, n_v) matrix of exact integrals of |u-v|^c over all panel
    pairs, c in (-1, 0]: the Toeplitz expansion of the lag masses on equal
    steps, the four-corner masses otherwise (see `_mass_kernel`)."""
    k = _mass_kernel(edges_u, edges_v, c)
    if k.ndim == 2:
        return k
    return _toeplitz(k, len(edges_v) - 1)


def _toeplitz(k: np.ndarray, nv: int) -> np.ndarray:
    """scipy.linalg.toeplitz(k[nv-1:], k[nv-1::-1]) from numpy alone: entry
    (i, j) is k[i - j + nv - 1], row i the window k[i:i+nv] reversed."""
    return np.lib.stride_tricks.sliding_window_view(k[::-1], nv)[::-1].copy()


def _next_fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, pocketfft's fast real-FFT length (as
    scipy.fft.next_fast_len(n, real=True) gives it)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 * 2^k, the least such multiple >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _apply_lags(T: np.ndarray, lag: np.ndarray, axis: int) -> np.ndarray:
    """np.tensordot(T, toeplitz(lag[nv-1:], lag[nv-1::-1]), axes=(axis, 0))
    without the matrix: out[j] = sum_i T[i] lag[i-j+nv-1] is entry nu-1+j of
    the linear convolution of T with the reversed lags.  Zero padding to
    n >= nu+nv-1 points keeps the circular wrap-around out of those entries.
    The result axis goes last, as tensordot puts it."""
    nu = T.shape[axis]
    nv = len(lag) - nu + 1
    n = _next_fast_len(len(lag))
    kernel = np.fft.rfft(lag[::-1], n).reshape((-1,) + (1,) * (T.ndim - axis - 1))
    out = np.fft.irfft(np.fft.rfft(T, n, axis=axis) * kernel, n, axis=axis)
    return np.moveaxis(out, axis, -1)[..., nu - 1:nu - 1 + nv]


def _contract(T: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Contract `axis` of T with a `_mass_kernel` result; the new axis goes last."""
    if kernel.ndim == 1:
        return _apply_lags(T, kernel, axis)
    return np.tensordot(T, kernel, axes=(axis, 0))


def _panel_edges(f: Integrand, panels: int) -> list[np.ndarray]:
    if panels**f.d > PANEL_CELL_CAP:
        raise ResourceError(f"{panels}^{f.d} quadrature panels exceed the cap {PANEL_CELL_CAP}")
    lo, hi = f.support()
    return [np.linspace(lo[a], hi[a], panels + 1) for a in range(f.d)]


# ---------------------------------------------------------------------------
# The <f,g> inner product
# ---------------------------------------------------------------------------

def inner_product_HH(f: Integrand, g: Integrand, H, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """Weighted double integral
    prod_a H_a(2H_a-1) * int int f(u) g(v) prod_a |u_a-v_a|^(2H_a-2) du dv.

    Equals the covariance of the Wiener integrals of f and g against a
    Hermite sheet of any order.  Exact for indicator integrands.
    """
    Hs = HurstMultiIndex(H).values
    if f.d != g.d or len(Hs) != f.d:
        raise DomainError("f, g and H must share one dimension")
    ef = _panel_edges(f, cfg.panels)
    F = f.eval(midpoint_mesh(ef))
    if g is f:  # one evaluation, and one equal-step check per kernel
        eg, G = ef, F
    else:
        eg = _panel_edges(g, cfg.panels)
        G = g.eval(midpoint_mesh(eg))
    # sum_{I,J} F[I] G[J] prod_a W_a[i_a, j_a] by successive contractions
    T = F
    for a in range(f.d):
        T = _contract(T, _mass_kernel(ef[a], eg[a], 2.0 * Hs[a] - 2.0), 0)
    pref = float(np.prod([h * (2.0 * h - 1.0) for h in Hs]))
    return pref * float(np.sum(T * G))


# ---------------------------------------------------------------------------
# Closed-form constants
# ---------------------------------------------------------------------------

def q_alpha(alpha: float) -> float:
    """(2^(1-a) sqrt(pi))^(-1) Gamma(a/2) / Gamma((1-a)/2) for a in (0,1)."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha} outside (0, 1)")
    from scipy.special import gamma as gamma_fn

    return float(
        gamma_fn(alpha / 2.0) / (2.0 ** (1.0 - alpha) * math.sqrt(math.pi) * gamma_fn((1.0 - alpha) / 2.0))
    )


def limit_constant(H_fixed: Sequence[float], k: int) -> float:
    """Prefactor of the limit covariance when k axes collapse to white noise:
    (2 pi)^(-k/2) * prod_fixed H(2H-1) q_(2H-1) 2^(1-H) Gamma(1-H), using
    int exp(-tau^2/2) |tau|^(1-2H) dtau = 2^(1-H) Gamma(1-H) for the heat
    kernel's Fourier weight; each fixed axis keeps its pre-limit factor."""
    if k < 0:
        raise DomainError("k must be >= 0")
    from scipy.special import gamma as gamma_fn

    out = TWO_PI ** (-0.5 * k)
    for h in HurstMultiIndex(H_fixed).values if len(H_fixed) else ():
        out *= (h * (2.0 * h - 1.0) * q_alpha(2.0 * h - 1.0)
                * 2.0 ** (1.0 - h) * float(gamma_fn(1.0 - h)))
    return float(out)


# ---------------------------------------------------------------------------
# Limit variance and contraction norms
# ---------------------------------------------------------------------------

def sigma_limit(f: Integrand, scenario: LimitScenario, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """Limit of inner_product_HH(f, f, H) as the A_k axes go to 1/2.

    On an A_k axis the weight H(2H-1)|u-v|^(2H-2) collapses to a point mass
    on the diagonal (that coordinate contributes int f(u,.) f(u,.) du); a
    B_p axis (H -> 1) contributes the plain product integral; fixed axes
    keep the singular kernel.
    """
    if scenario.k == 0:
        raise DomainError("sigma limit needs at least one axis going to 1/2")
    d = f.d
    scenario.target(d)  # validates that every axis has a role
    edges = _panel_edges(f, cfg.panels)
    F = f.eval(midpoint_mesh(edges))
    T = F
    pref = 1.0
    for a in range(d):  # contract axis 0, the new axis goes last, as in inner_product_HH
        h = np.diff(edges[a])
        if a in scenario.a_axes:  # the diagonal kernel diag(h)
            T = np.moveaxis(T, 0, -1) * h
        elif a in scenario.b_axes:  # the rank-one kernel h h^T
            T = np.tensordot(T, h, axes=(0, 0))[..., None] * h
        else:
            Ha = float(scenario.fixed[a])
            T = _contract(T, _mass_kernel(edges[a], edges[a], 2.0 * Ha - 2.0), 0)
            pref *= Ha * (2.0 * Ha - 1.0)
    return pref * float(np.sum(T * F))


def contraction_norm_sq(
    f: Integrand,
    H: float,
    q: int,
    r: int,
    cfg: QuadratureConfig = DEFAULT_CFG,
) -> float:
    """Squared L2 norm of the r-th contraction of the Wiener-integral kernel
    (d=1 only): the 4-fold integral

        (1/q!^2) (H(2H-1))^2 * int^4 f(u)f(v)f(u')f(v')
            |u-v|^a |u'-v'|^a |u-u'|^b |v-v'|^b,
        a = 2(H-1)r/q, b = 2(H-1)(q-r)/q.

    Vanishing contractions certify the central limit via the fourth-moment
    criterion.  Panels are capped at 64 per dimension (4-fold integral).
    """
    if f.d != 1:
        raise UnsupportedError("contraction norm implemented for d=1 only")
    if q < 2 or q > 4:
        raise UnsupportedError("contraction norm supports 2 <= q <= 4")
    if not 1 <= r <= q - 1:
        raise DomainError(f"contraction order r={r} outside 1..q-1")
    if not 0.5 < H < 1.0:
        # formal endpoint H=1 allowed: all exponents vanish
        if H != 1.0:
            raise DomainError(f"H={H} not in (1/2, 1]")
    n = min(cfg.panels, 64)
    edges = _panel_edges(f, n)[0]
    Fv = f.eval(midpoint_mesh([edges]))
    a_exp = 2.0 * (H - 1.0) * r / q
    b_exp = 2.0 * (H - 1.0) * (q - r) / q
    A = abs_pow_cell_masses(edges, edges, a_exp)
    # A carries the du dv measure of its pair; the b-kernel must carry none,
    # so divide its exact masses by the cell areas to get panel averages.
    hw = np.diff(edges)
    Bbar = abs_pow_cell_masses(edges, edges, b_exp) / np.outer(hw, hw)
    Gm = Fv[:, None] * Fv[None, :] * A
    total = float(np.sum(Gm * (Bbar.T @ Gm @ Bbar)))
    pref = (H * (2.0 * H - 1.0)) ** 2 / math.factorial(q) ** 2
    return pref * total


# ---------------------------------------------------------------------------
# Singular time integral for the heat-equation covariance
# ---------------------------------------------------------------------------

def fbm_time_kernel_integral(t: float, s: float, h0: float, gexp: float) -> float:
    """int_0^t int_0^s |u-v|^(2*h0-2) (t+s-u-v)^gexp du dv.

    Rotating to p = u-v reduces the inner integral to the closed form
    E(p) = ((T-|p|)^G - |D-p|^G) / (2G) with T=t+s, D=t-s, G=gexp+1, leaving

        I = (1/2G) [ int |p|^c (T-|p|)^G dp - int |p|^c |D-p|^G dp ],
        c = 2*h0 - 2,

    whose pieces are incomplete Beta integrals and, for t != s, two
    Gauss hypergeometric values, all evaluated to near machine precision.
    """
    if t < 0 or s < 0:
        raise DomainError("t and s must be >= 0")
    if t == 0 or s == 0:
        return 0.0
    HurstMultiIndex(h0)  # h0 in (1/2, 1)
    G = gexp + 1.0
    if G <= 0:
        raise DomainError("time exponent not integrable")
    t, s = max(t, s), min(t, s)  # symmetric in (t, s)
    T, D = t + s, t - s
    c = 2.0 * h0 - 2.0
    from scipy.special import beta as beta_fn, betainc, hyp2f1

    def beta_piece(L):
        # int_0^L x^c (T-x)^G dx = T^(c+G+1) B(L/T; c+1, G+1)
        return T ** (c + G + 1.0) * float(
            betainc(c + 1.0, G + 1.0, L / T) * beta_fn(c + 1.0, G + 1.0)
        )

    i1 = beta_piece(s) + beta_piece(t)

    if D == 0.0:
        i2 = (s ** (c + G + 1.0) + t ** (c + G + 1.0)) / (c + G + 1.0)
    else:
        # p in [0, D]: a complete Beta integral
        i2 = D ** (c + G + 1.0) * float(beta_fn(c + 1.0, G + 1.0))
        # p in [-s, 0] and [D, t]: int_0^s x^a (D+x)^b dx
        #   = s^(a+1) (D+s)^b / (a+1) 2F1(-b, 1; a+2; s/(D+s)),
        # Euler's integral and Pfaff's transformation (DLMF 15.6.1, 15.8.1)
        for a, b in ((c, G), (G, c)):
            i2 += s ** (a + 1.0) * (D + s) ** b / (a + 1.0) * float(
                hyp2f1(-b, 1.0, a + 2.0, s / (D + s)))
    return (i1 - i2) / (2.0 * G)
