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
    MAX_CHAOS_ORDER,
    RandomField,
    cell_increments,
    derive_stream,
    midpoint_mesh,
    write_fields_csv,
)
from hermlab.ou import OUSpec
from hermlab.quadrature import (
    fbm_time_kernel_integral,
    inner_product_HH,
    limit_constant,
    sigma_limit,
)
from hermlab.spde import HeatSpec, heat_limit_covariance
from hermlab.stats import target_cdf_hermite_limit


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

    @pytest.mark.parametrize("make", [
        lambda q: HermiteSpec(q, 0.7),
        lambda q: OUSpec(1.0, 1.0, q, 0.7),
        lambda q: HeatSpec(q, 0.7, 0.8),
        target_cdf_hermite_limit,
    ], ids=["HermiteSpec", "OUSpec", "HeatSpec", "target_cdf_hermite_limit"])
    def test_chaos_order_bound(self, make):
        # q! overflows float64 above 170, and every sampler divides by sqrt(q!)
        assert MAX_CHAOS_ORDER == 170 and math.isfinite(float(math.factorial(170)))
        with pytest.raises(OverflowError):
            float(math.factorial(171))
        make(MAX_CHAOS_ORDER)
        for q in (0, MAX_CHAOS_ORDER + 1, 400):
            with pytest.raises(DomainError, match=r"1\.\.170"):
                make(q)

    # every entry point that takes a Hurst value, with the others in range
    HURST_ENTRY_POINTS = {
        "inner_product_HH": lambda H: inner_product_HH(
            IndicatorBox([0, 0], [1, 1]), IndicatorBox([0, 0], [1, 1]), (0.7, H)),
        "limit_constant": lambda H: limit_constant([0.7, H], 1),
        "fbm_time_kernel_integral": lambda H: fbm_time_kernel_integral(1.0, 0.5, H, -0.3),
        "HeatSpec.h0": lambda H: HeatSpec(2, H, (0.7,)),
        "HeatSpec.h": lambda H: HeatSpec(2, 0.7, (0.7, H)),
        "heat_limit_covariance": lambda H: heat_limit_covariance(
            LimitScenario(a_axes=(0,)), H, 1.0, 0.5),
        "OUSpec": lambda H: OUSpec(1.0, 1.0, 2, H),
        "LimitScenario.fixed": lambda H: sigma_limit(
            IndicatorBox([0, 0], [1, 1]), LimitScenario(a_axes=(0,), fixed={1: H})),
    }

    @pytest.mark.parametrize("H", [0.5, 1.0, 1.5, math.nan])
    @pytest.mark.parametrize("entry", sorted(HURST_ENTRY_POINTS))
    def test_hurst_domain_at_every_entry_point(self, entry, H):
        self.HURST_ENTRY_POINTS[entry](0.7)
        with pytest.raises(DomainError, match=r"not in \(1/2, 1\)"):
            self.HURST_ENTRY_POINTS[entry](H)

    @pytest.mark.parametrize("origins,extents", [
        (math.nan, 1.0), (0.0, math.inf), (0.0, math.nan), ([0.0, -math.inf], [1.0, 1.0]),
    ])
    def test_grid_refuses_non_finite(self, origins, extents):
        with pytest.raises(DomainError, match="finite"):
            GridSpec(origins, extents, [4] * len(np.atleast_1d(origins)))

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

    @pytest.mark.parametrize("f", [
        ExpWindow(1.0, 1.0), ExpWindow(3.0, 2.0, lo=-1.0), ExpWindow(1e-9, 1.0),
        IndicatorBox([0], [1]), IndicatorBox([0.5, -1.0], [2.0, 3.0]),
    ], ids=["exp", "exp_stationary", "exp_small_lambda", "box_1d", "box_2d"])
    def test_integral_is_the_fine_midpoint_sum(self, f):
        # int f in closed form against the midpoint rule on 2^18 cells (512
        # per axis in 2-D), within (h lam)^2 / 24 < 1e-10 of it for these f
        lo, hi = f.support()
        n = 2**18 if f.d == 1 else 512
        pts = midpoint_mesh([np.linspace(lo[a], hi[a], n + 1) for a in range(f.d)])
        ref = float(f.eval(pts).sum()) * math.prod((hi - lo) / n)
        assert f.integral() == pytest.approx(ref, rel=1e-10)

    def test_heat_window_time_support(self):
        f = HeatWindow(1.0, (0.0,), 6.0)
        assert float(f.eval(np.array([1.5, 0.0]))) == 0.0
        assert float(f.eval(np.array([-0.1, 0.0]))) == 0.0
        # at u=0.5 the value is the heat kernel at time 0.5
        assert float(f.eval(np.array([0.5, 0.0]))) == pytest.approx((2 * math.pi * 0.5) ** -0.5)

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
