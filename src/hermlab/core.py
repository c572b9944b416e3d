"""Shared domain types: Hurst indices, grids, random fields, integrands, RNG streams.

Everything in this module is immutable after construction and safe to share
read-only across threads.  RNG streams are single-owner: one stream per
Monte Carlo replicate, derived deterministically from (master_seed, index).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class UnsupportedError(ValueError):
    """The input is valid but outside the implemented (tractable) range."""


class ResourceError(RuntimeError):
    """A computation would exceed its configured size cap."""


class TruncationError(DomainError):
    """Truncating an integrand to a finite window loses too much mass."""


# ---------------------------------------------------------------------------
# Hurst indices and process specs
# ---------------------------------------------------------------------------

MAX_CHAOS_ORDER = 170  # the largest q whose q! is a finite float64


def check_chaos_order(q: int) -> None:
    """Raise DomainError unless 1 <= q <= MAX_CHAOS_ORDER: the sheet
    normalization and the H -> 1 limit law divide by sqrt(q!)."""
    if not 1 <= q <= MAX_CHAOS_ORDER:
        raise DomainError(f"chaos order q={q} must lie in 1..{MAX_CHAOS_ORDER}")

@dataclass(frozen=True)
class HurstMultiIndex:
    """Per-axis Hurst exponents, each in the open interval (1/2, 1): every
    entry point that takes a Hurst value, scalar or sequence, checks it here."""

    values: tuple[float, ...]

    def __init__(self, values: Union[float, Sequence[float]]):
        if np.isscalar(values):
            values = (values,)
        vals = tuple(float(v) for v in values)
        if not vals:
            raise DomainError("Hurst multi-index must have at least one entry")
        for v in vals:
            if not 0.5 < v < 1.0:
                raise DomainError(f"Hurst exponent {v} not in (1/2, 1)")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True)
class HermiteSpec:
    """Identifies the law of a Hermite sheet: chaos order q and Hurst index;
    the parameter dimension d is the length of the Hurst index."""

    q: int
    hurst: HurstMultiIndex

    def __post_init__(self):
        check_chaos_order(self.q)
        if not isinstance(self.hurst, HurstMultiIndex):
            object.__setattr__(self, "hurst", HurstMultiIndex(self.hurst))

    @property
    def d(self) -> int:
        return len(self.hurst)


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid: per-axis origin, extent and step count."""

    origins: tuple[float, ...]
    extents: tuple[float, ...]
    steps: tuple[int, ...]

    def __init__(self, origins, extents, steps):
        origins = tuple(float(o) for o in np.atleast_1d(origins))
        extents = tuple(float(e) for e in np.atleast_1d(extents))
        steps = tuple(int(s) for s in np.atleast_1d(steps))
        if not len(origins) == len(extents) == len(steps):
            raise DomainError("origins, extents and steps must have equal length")
        if not all(map(math.isfinite, origins + extents)):
            raise DomainError("grid origins and extents must be finite")
        for e in extents:
            if e <= 0:
                raise DomainError("grid extent must be positive")
        for s in steps:
            if s < 1:
                raise DomainError("grid needs at least one step per axis")
        object.__setattr__(self, "origins", origins)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "steps", steps)

    @property
    def d(self) -> int:
        return len(self.steps)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(s + 1 for s in self.steps)

    @property
    def mesh(self) -> tuple[float, ...]:
        return tuple(e / s for e, s in zip(self.extents, self.steps))

    def axis_nodes(self, a: int) -> np.ndarray:
        return self.origins[a] + np.linspace(0.0, self.extents[a], self.steps[a] + 1)

    def cell_volume(self) -> float:
        return float(np.prod(self.mesh))

    def lo(self) -> np.ndarray:
        return np.asarray(self.origins)

    def hi(self) -> np.ndarray:
        return np.asarray(self.origins) + np.asarray(self.extents)


@dataclass(frozen=True, eq=False)
class RandomField:
    """Sampled process values on a rectangular grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise DomainError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )


@dataclass(frozen=True)
class LimitScenario:
    """Which axes are driven to a Hurst limit: A_k -> 1/2, B_p -> 1, the
    rest pinned at the values in `fixed`, each in (1/2, 1)."""

    a_axes: tuple[int, ...] = ()
    b_axes: tuple[int, ...] = ()
    fixed: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        a = tuple(int(i) for i in self.a_axes)
        b = tuple(int(i) for i in self.b_axes)
        object.__setattr__(self, "a_axes", a)
        object.__setattr__(self, "b_axes", b)
        fixed = dict(self.fixed)
        if fixed:
            fixed = dict(zip(fixed, HurstMultiIndex(tuple(fixed.values()))))
        object.__setattr__(self, "fixed", fixed)
        groups = [set(a), set(b), set(self.fixed)]
        for g1, g2 in itertools.combinations(groups, 2):
            if g1 & g2:
                raise DomainError("A_k, B_p and fixed axes must be disjoint")

    @property
    def k(self) -> int:
        return len(self.a_axes)

    def target(self, d: int) -> tuple[float, ...]:
        """Per-axis limit Hurst values; axes in A_k map to 1/2."""
        out = []
        for j in range(d):
            if j in self.a_axes:
                out.append(0.5)
            elif j in self.b_axes:
                out.append(1.0)
            elif j in self.fixed:
                out.append(float(self.fixed[j]))
            else:
                raise DomainError(f"axis {j} has no role in the limit scenario")
        return tuple(out)


# ---------------------------------------------------------------------------
# Integrand family
# ---------------------------------------------------------------------------

class Integrand:
    """A deterministic function on R^d from a closed enumerated family.

    Subclasses provide pointwise (vectorized) evaluation plus a bounding box
    of the support, which quadrature, Monte Carlo and truncation checks
    all consume.  Points are arrays of shape (..., d).
    """

    d: int

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def eval(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_pts(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 0:
            if self.d != 1:
                raise DomainError("scalar point for a multi-dimensional integrand")
            pts = pts.reshape(1)
        if pts.shape[-1] != self.d:
            raise DomainError(
                f"point dimension {pts.shape[-1]} != integrand dimension {self.d}"
            )
        return pts


@dataclass(frozen=True)
class IndicatorBox(Integrand):
    """Indicator of a closed box [lo, hi] in R^d."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __init__(self, lo, hi):
        lo = tuple(float(v) for v in np.atleast_1d(lo))
        hi = tuple(float(v) for v in np.atleast_1d(hi))
        if len(lo) != len(hi):
            raise DomainError("box corners must have equal dimension")
        if any(l > h for l, h in zip(lo, hi)):
            raise DomainError("box needs lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "d", len(lo))

    def support(self):
        return np.asarray(self.lo), np.asarray(self.hi)

    def eval(self, pts):
        pts = self._check_pts(pts)
        inside = np.all((pts >= self.lo) & (pts <= self.hi), axis=-1)
        return inside.astype(float)

    def integral(self) -> float:
        """The box volume, int f."""
        return math.prod(h - l for l, h in zip(self.lo, self.hi))


@dataclass(frozen=True)
class ExpWindow(Integrand):
    """u -> exp(-lam*(t-u)) on [lo, t]; the Ornstein-Uhlenbeck window (d=1).

    lo defaults to 0 (nonstationary case); a negative lo gives the truncated
    stationary window.
    """

    lam: float
    t: float
    lo: float = 0.0

    def __post_init__(self):
        if self.lam <= 0:
            raise DomainError("exp window needs lam > 0")
        if self.lo >= self.t:
            raise DomainError("exp window needs lo < t")
        object.__setattr__(self, "d", 1)

    def support(self):
        return np.asarray([self.lo]), np.asarray([self.t])

    def eval(self, pts):
        pts = self._check_pts(pts)
        u = pts[..., 0]
        inside = (u >= self.lo) & (u <= self.t)
        return np.where(inside, np.exp(-self.lam * (self.t - u)), 0.0)

    def integral(self) -> float:
        """int f = (1 - exp(-lam (t - lo))) / lam."""
        return -math.expm1(-self.lam * (self.t - self.lo)) / self.lam


def green(t, x, d: int = 1):
    """Heat kernel (2 pi t)^(-d/2) exp(-|x|^2/(2t)) for t > 0, else 0.

    x has shape (..., d) (or is scalar when d=1); t broadcasts against it.
    """
    x = np.asarray(x, dtype=float)
    if d == 1 and (x.ndim == 0 or x.shape[-1] != 1):
        x = x[..., None]
    if x.shape[-1] != d:
        raise DomainError(f"spatial point dimension {x.shape[-1]} != {d}")
    t = np.asarray(t, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    safe = np.where(t > 0.0, t, 1.0)
    g = (2.0 * math.pi * safe) ** (-d / 2.0) * np.exp(-r2 / (2.0 * safe))
    out = np.where(t > 0.0, g, 0.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class HeatWindow(Integrand):
    """(u, y) -> 1_{(0,t)}(u) * G(t-u, x-y), the mild-solution window.

    G is the heat kernel `green` on R^{d_s}; the window lives on R^{1+d_s} with the
    time coordinate first.  Spatial support is truncated to |y_a - x_a| <= trunc.
    """

    t: float
    x: tuple[float, ...]
    trunc: float

    def __init__(self, t, x, trunc):
        x = tuple(float(v) for v in np.atleast_1d(x))
        if t <= 0:
            raise DomainError("heat window needs t > 0")
        if trunc <= 0:
            raise DomainError("heat window needs trunc > 0")
        object.__setattr__(self, "t", float(t))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "trunc", float(trunc))
        object.__setattr__(self, "d", 1 + len(x))

    def support(self):
        lo = np.asarray([0.0] + [xa - self.trunc for xa in self.x])
        hi = np.asarray([self.t] + [xa + self.trunc for xa in self.x])
        return lo, hi

    def eval(self, pts):
        pts = self._check_pts(pts)
        u = pts[..., 0]
        dy = pts[..., 1:] - np.asarray(self.x)
        inside = (u > 0.0) & (self.t - u > 0.0) & np.all(np.abs(dy) <= self.trunc, axis=-1)
        return np.where(inside, green(self.t - u, dy, len(self.x)), 0.0)


@dataclass(frozen=True)
class Marginal(Integrand):
    """v -> int f(u_A, v) du_A: the axes A of f integrated out by the
    midpoint rule on `panels` cells per axis over f's support, the other
    axes kept in their order.

    Wiener integrals of a marginal against the lower-dimensional sheet are
    the limits of int f dZ^(q,H) when the components of H on A tend to 1.
    """

    f: Integrand
    axes: tuple[int, ...]
    panels: int = 64

    def __post_init__(self):
        axes = tuple(sorted(int(a) for a in self.axes))
        if not 0 < len(axes) < self.f.d:
            raise DomainError(
                f"a marginal integrates out between 1 and {self.f.d - 1} axes, not {len(axes)}"
            )
        if len(set(axes)) != len(axes) or not 0 <= axes[0] <= axes[-1] < self.f.d:
            raise DomainError(f"axes {axes} are not distinct axes of a {self.f.d}-d integrand")
        if self.panels < 1:
            raise DomainError("a marginal needs at least one panel per axis")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "d", self.f.d - len(axes))

    def _kept(self) -> list[int]:
        return [a for a in range(self.f.d) if a not in self.axes]

    def support(self):
        lo, hi = self.f.support()
        kept = self._kept()
        return lo[kept], hi[kept]

    def eval(self, pts):
        pts = self._check_pts(pts)
        lo, hi = self.f.support()
        edges = [np.linspace(lo[a], hi[a], self.panels + 1) for a in self.axes]
        outer = midpoint_mesh(edges).reshape(-1, len(self.axes))
        full = np.empty(pts.shape[:-1] + outer.shape[:1] + (self.f.d,))
        full[..., self._kept()] = pts[..., None, :]
        full[..., list(self.axes)] = outer
        width = math.prod(e[1] - e[0] for e in edges)
        return self.f.eval(full).sum(axis=-1) * width


def midpoint_mesh(edges: Sequence[np.ndarray]) -> np.ndarray:
    """Cell midpoints of the product of per-axis edge arrays, shape
    (n_0, ..., n_{d-1}, d) in "ij" order, ready for Integrand.eval."""
    mids = [0.5 * (e[:-1] + e[1:]) for e in edges]
    return np.stack(np.meshgrid(*mids, indexing="ij"), axis=-1)


# ---------------------------------------------------------------------------
# Cell increments
# ---------------------------------------------------------------------------

def cell_increments(values: np.ndarray) -> np.ndarray:
    """Rectangle increments of every grid cell at once (successive diffs)."""
    out = values
    for a in range(values.ndim):
        out = np.diff(out, axis=a)
    return out


# ---------------------------------------------------------------------------
# Reproducible stream derivation
# ---------------------------------------------------------------------------

def derive_stream(master_seed: int, replicate_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one replicate.

    A pure function of (master_seed, replicate_index): identical inputs give
    identical streams regardless of thread schedule.
    """
    if replicate_index < 0:
        raise DomainError("replicate index must be >= 0")
    return np.random.default_rng(np.random.SeedSequence(
        entropy=int(master_seed) % 2**64, spawn_key=(int(replicate_index),)
    ))


# ---------------------------------------------------------------------------
# CSV serialization of fields
# ---------------------------------------------------------------------------

def write_fields_csv(path, grid: GridSpec, values: np.ndarray) -> None:
    """One row per grid node: axis coordinates then one value column per
    field; values stacks the fields, shape (n_fields, *grid.shape)."""
    values = np.asarray(values, dtype=float)
    if values.ndim != grid.d + 1 or values.shape[1:] != grid.shape or not len(values):
        raise DomainError(f"values shape {values.shape} is not (n, *{grid.shape})")
    axes = [grid.axis_nodes(a) for a in range(grid.d)]
    coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, grid.d)
    cols = [coords[:, a] for a in range(grid.d)]
    cols += [v.reshape(-1) for v in values]
    header = [f"axis{a}" for a in range(grid.d)]
    header += ["value"] if len(values) == 1 else [f"value_{i}" for i in range(len(values))]
    data = np.column_stack(cols)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
