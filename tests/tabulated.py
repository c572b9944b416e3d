"""A test integrand from a table: values on the nodes of a GridSpec,
multilinearly interpolated inside the grid and 0 outside.  It lets tests
build arbitrary integrands (linear combinations, zero tables, smooth
surfaces) without a closed form."""
import numpy as np
from scipy.interpolate import RegularGridInterpolator

from hermlab.core import GridSpec, Integrand


class Tabulated(Integrand):
    def __init__(self, grid: GridSpec, table):
        table = np.asarray(table, dtype=float)
        assert table.shape == grid.shape, "table shape must match the grid node shape"
        self.grid, self.d = grid, grid.d
        self._interp = RegularGridInterpolator(
            tuple(grid.axis_nodes(a) for a in range(grid.d)), table,
            method="linear", bounds_error=False, fill_value=0.0,
        )

    def support(self):
        return self.grid.lo(), self.grid.hi()

    def eval(self, pts):
        pts = self._check_pts(pts)
        return self._interp(pts.reshape(-1, self.d)).reshape(pts.shape[:-1])
