import math

import numpy as np
import pytest

from hermlab.core import (
    DomainError,
    ExpWindow,
    GridSpec,
    HeatWindow,
    HermiteSpec,
    HurstMultiIndex,
    IndicatorBox,
    LimitScenario,
    RandomField,
    Tabulated,
    cell_increments,
    derive_stream,
    write_fields_csv,
)


def make_field(values, origins=None, extents=None):
    values = np.asarray(values, dtype=float)
    d = values.ndim
    steps = [s - 1 for s in values.shape]
    grid = GridSpec(origins or [0.0] * d, extents or [1.0] * d, steps)
    return RandomField(grid, values)


class TestTypes:
    def test_hurst_range_enforced(self):
        with pytest.raises(DomainError):
            HurstMultiIndex([0.5])
        with pytest.raises(DomainError):
            HurstMultiIndex([1.0])
        h = HurstMultiIndex([0.6, 0.9])
        assert len(h) == 2 and h[1] == 0.9

    def test_hermite_spec_validation(self):
        with pytest.raises(DomainError):
            HermiteSpec(0, HurstMultiIndex(0.7))
        spec = HermiteSpec(2, (0.6, 0.7))
        assert spec.d == 2
        with pytest.raises(TypeError):  # d is read from the Hurst index, never passed
            HermiteSpec(2, (0.6, 0.7), 2)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            GridSpec(0.0, 0.0, 4)
        with pytest.raises(DomainError):
            GridSpec(0.0, 1.0, 0)
        g = GridSpec([0, -1], [1, 2], [4, 8])
        assert g.shape == (5, 9)
        assert g.mesh == (0.25, 0.25)

    def test_field_shape_checked(self):
        g = GridSpec(0, 1, 4)
        with pytest.raises(DomainError):
            RandomField(g, np.zeros(4))

    def test_scenario_disjointness(self):
        with pytest.raises(DomainError):
            LimitScenario(a_axes=(0,), b_axes=(0,))
        sc = LimitScenario(a_axes=(0,), b_axes=(2,), fixed={1: 0.7})
        assert sc.target(3) == (0.5, 0.7, 1.0)
        with pytest.raises(DomainError):
            sc.target(4)  # axis 3 has no role


class TestRectangleIncrement:
    """cell_increments: the alternating-sign increment of every grid cell."""

    def test_d1_is_difference(self):
        assert cell_increments(np.array([1.0, 4.0, 9.0])).tolist() == [3.0, 5.0]

    def test_d2_alternating_sum(self):
        vals = np.array([[0.0, 1.0], [2.0, 7.0]])
        assert cell_increments(vals).tolist() == [[7.0 - 1.0 - 2.0 + 0.0]]

    def test_constant_field_zero(self):
        incr = cell_increments(np.full((4, 4, 4), 3.7))
        assert incr.shape == (3, 3, 3)
        np.testing.assert_allclose(incr, 0.0, atol=1e-12)

    def test_additive_split(self):
        # the cells of a block telescope to the block's corner sum
        v = np.random.default_rng(0).standard_normal((6, 6))
        block = cell_increments(v)[0:5, 1:5].sum()
        assert block == pytest.approx(v[5, 5] - v[0, 5] - v[5, 1] + v[0, 1], abs=1e-12)


class TestIntegrands:
    def test_indicator_inside_outside(self):
        f = IndicatorBox([0, 0], [1, 1])
        assert float(f.eval(np.array([0.5, 0.3]))) == 1.0
        assert float(IndicatorBox(0, 1).eval(np.array([1.5]))) == 0.0

    def test_indicator_binary_valued(self):
        f = IndicatorBox([0], [1])
        pts = np.linspace(-1, 2, 301).reshape(-1, 1)
        vals = f.eval(pts)
        assert set(np.unique(vals)) <= {0.0, 1.0}

    def test_exp_window_value(self):
        f = ExpWindow(1.0, 1.0)
        assert float(f.eval(np.array([0.0]))) == pytest.approx(math.exp(-1.0))
        assert float(f.eval(np.array([-0.1]))) == 0.0

    def test_heat_window_time_support(self):
        f = HeatWindow(1.0, (0.0,), 6.0)
        assert float(f.eval(np.array([1.5, 0.0]))) == 0.0
        assert float(f.eval(np.array([-0.1, 0.0]))) == 0.0
        # at u=0.5 the value is the heat kernel at time 0.5
        assert float(f.eval(np.array([0.5, 0.0]))) == pytest.approx((2 * math.pi * 0.5) ** -0.5)

    def test_tabulated_interp_and_outside(self):
        g = GridSpec(0, 1, 2)
        f = Tabulated(g, np.array([0.0, 1.0, 0.0]))
        assert float(f.eval(np.array([0.25]))) == pytest.approx(0.5)
        assert float(f.eval(np.array([2.0]))) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            IndicatorBox([0, 0], [1, 1]).eval(np.array([0.5]))

    def test_finite_everywhere(self):
        f = HeatWindow(1.0, (0.0, 0.0), 4.0)
        pts = np.random.default_rng(1).uniform(-5, 5, size=(1000, 3))
        assert np.all(np.isfinite(f.eval(pts)))


class TestStreams:
    def test_deterministic(self):
        a = derive_stream(42, 0).standard_normal(100)
        b = derive_stream(42, 0).standard_normal(100)
        assert np.array_equal(a, b)

    def test_replicates_differ(self):
        a = derive_stream(42, 0).standard_normal(100)
        c = derive_stream(42, 1).standard_normal(100)
        assert not np.allclose(a, c)

    def test_no_collisions_in_1000(self):
        keys = {derive_stream(42, k).standard_normal(4).tobytes() for k in range(1000)}
        assert len(keys) == 1000

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            derive_stream(42, -1)


class TestCSV:
    def test_roundtrip_shape(self, tmp_path):
        fld = make_field(np.arange(9.0).reshape(3, 3))
        path = tmp_path / "f.csv"
        write_fields_csv(path, fld.grid, fld.values[None])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "axis0,axis1,value"
        assert len(lines) == 1 + 9
