"""Wiener integrals against simulated Hermite sheets.

A plain integral, a heat mild solution and the H -> 1 limit object
int Marginal(f, A) dZ^(q,d-k) are each one WienerFunctional: the integrand's
midpoint weights on a grid, checked once for truncation, then dotted with the
cell increments of each replicate's sheet.  `sample` draws those increments
straight from the sheet pipeline; calling the functional on a RandomField
differences its node values back into increments first.  An OU path
(ou.simulate_hou) takes its own cumulative midpoint Riemann-Stieltjes sum
of the increments instead.
"""
from __future__ import annotations

import numpy as np

from .core import (
    DomainError,
    GridSpec,
    HermiteSpec,
    Integrand,
    RandomField,
    TruncationError,
    cell_increments,
    midpoint_mesh,
)
from .fields import hermite_sheet_increments

MASS_TOL = 0.01
MASS_CHECK_POINTS = 2**21  # 128 panels per axis up to d = 3


def riemann_weights(f: Integrand, grid: GridSpec) -> np.ndarray:
    """Integrand values at every grid-cell midpoint (the fixed part of the
    Riemann-Stieltjes sum; reuse across replicates of the same grid)."""
    if f.d != grid.d:
        raise DomainError("integrand and grid dimension mismatch")
    return f.eval(midpoint_mesh([grid.axis_nodes(a) for a in range(grid.d)]))


def covered_mass_fraction(f: Integrand, grid: GridSpec) -> float:
    """Fraction of the L1 mass of f captured inside the grid box; 1 without
    evaluating f when its support box lies inside the grid box (up to a
    1e-12 relative slack on the box corners).  Otherwise f is evaluated at
    the midpoints of the largest p <= 128 panels per axis with p^d <= MASS_CHECK_POINTS."""
    lo_f, hi_f = f.support()
    lo_g, hi_g = grid.lo(), grid.hi()
    slack = 1e-12 * (hi_g - lo_g)
    if np.all(lo_f >= lo_g - slack) and np.all(hi_f <= hi_g + slack):
        return 1.0
    panels = next(p for p in range(128, 0, -1) if p**f.d <= MASS_CHECK_POINTS)
    pts = midpoint_mesh([np.linspace(lo_f[a], hi_f[a], panels + 1) for a in range(f.d)])
    vals = np.abs(f.eval(pts))
    total = float(vals.sum())
    if total == 0.0:
        return 1.0
    inside = np.all((pts >= lo_g) & (pts <= hi_g), axis=-1)
    return float(vals[inside].sum()) / total


class WienerFunctional:
    """X -> int f dX on one grid: the Riemann-Stieltjes sum
    sum_cells f(midpoint) * rectangle increment, exact for grid-aligned step
    functions.

    Construction raises TruncationError when more than MASS_TOL of the L1
    mass of f falls outside the grid box and stores the midpoint weights;
    each replicate then costs one dot product, so build one functional and
    reuse it across replicates.
    """

    def __init__(self, f: Integrand, grid: GridSpec):
        self.grid = grid
        self.weights = riemann_weights(f, grid)  # checks the dimension first
        self.weights.setflags(write=False)  # shared across replicate threads
        covered = covered_mass_fraction(f, grid)
        if covered < 1.0 - MASS_TOL:
            raise TruncationError(
                f"field domain captures only {covered:.4f} of the integrand mass"
            )

    def sample(self, spec: HermiteSpec, n_internal: int, stream: np.random.Generator) -> float:
        """int f dZ for one Hermite sheet of `spec` drawn on this grid from
        `stream`: equal, up to rounding, to self(simulate_hermite_sheet(spec,
        self.grid, n_internal, stream)), without forming node values."""
        return self._dot(hermite_sheet_increments(spec, self.grid, n_internal, stream))

    def __call__(self, field: RandomField) -> float:
        if field.grid != self.grid:
            raise DomainError("field grid differs from the functional's grid")
        return self._dot(cell_increments(field.values))

    def _dot(self, incr: np.ndarray) -> float:
        # incr is a fresh array of the caller's, so the products overwrite it
        incr *= self.weights
        return float(np.sum(incr))


def wiener_hermite_integral(f: Integrand, field: RandomField) -> float:
    """One-shot WienerFunctional(f, field.grid)(field)."""
    return WienerFunctional(f, field.grid)(field)
