import math

import numpy as np
import pytest

from hermlab.core import (
    DomainError,
    ExpWindow,
    GridSpec,
    HeatWindow,
    HermiteSpec,
    IndicatorBox,
    Marginal,
    TruncationError,
    derive_stream,
)
from hermlab.fields import simulate_hermite_sheet
from hermlab.integrals import (
    MASS_CHECK_POINTS,
    WienerFunctional,
    covered_mass_fraction,
    wiener_hermite_integral,
)
from hermlab.quadrature import QuadratureConfig, inner_product_HH
from hermlab.spde import HeatSpec, _mild_setup
from hermlab.stats import ks_distance, target_cdf_hermite_limit
from tabulated import Tabulated

SEED = 2210


def field(q=2, H=0.7, steps=512, n_int=2**13, rep=0, salt=0):
    g = GridSpec(0.0, 1.0, steps)
    return simulate_hermite_sheet(HermiteSpec(q, H), g, n_int, derive_stream(SEED + salt, rep))


class TestWienerIntegral:
    def test_aligned_step_function_exact(self):
        fld = field()
        f = IndicatorBox(0.25, 0.75)
        v = wiener_hermite_integral(f, fld)
        assert v == pytest.approx(fld.values[384] - fld.values[128], abs=1e-12)

    def test_linearity_exact(self):
        g = GridSpec(0.0, 1.0, 64)
        nodes = g.axis_nodes(0)
        A = np.exp(-nodes)
        B = np.sin(3 * nodes) + 1.5
        fA, fB = Tabulated(g, A), Tabulated(g, B)
        fC = Tabulated(g, 2.0 * A - 0.5 * B)
        fld = field(steps=256)
        vA = wiener_hermite_integral(fA, fld)
        vB = wiener_hermite_integral(fB, fld)
        vC = wiener_hermite_integral(fC, fld)
        assert vC == pytest.approx(2.0 * vA - 0.5 * vB, rel=1e-10)

    def test_mean_zero(self):
        f = ExpWindow(1.0, 1.0)
        g = GridSpec(0.0, 1.0, 256)
        W = WienerFunctional(f, g)
        vals = np.array([W(field(steps=256, rep=i, salt=1)) for i in range(2000)])
        assert abs(vals.mean()) < 4 * vals.std() / math.sqrt(len(vals))

    def test_isometry_statistical(self):
        f = ExpWindow(1.0, 1.0)
        g = GridSpec(0.0, 1.0, 512)
        W = WienerFunctional(f, g)
        vals = np.array([W(field(rep=i, salt=2)) for i in range(1500)])
        quad = inner_product_HH(f, f, 0.7, QuadratureConfig(panels=512))
        se = np.std((vals - vals.mean()) ** 2) / math.sqrt(len(vals))
        assert abs(vals.var() - quad) < 4 * se + 0.02 * quad

    def test_truncation_error_raised(self):
        # stationary window on [-10, 1] against a field on [0, 1]
        f = ExpWindow(1.0, 1.0, lo=-10.0)
        fld = field()
        with pytest.raises(TruncationError):
            wiener_hermite_integral(f, fld)

    def test_dimension_mismatch(self):
        f = IndicatorBox([0, 0], [1, 1])
        with pytest.raises(DomainError):
            wiener_hermite_integral(f, field())

    def test_mass_fraction(self):
        f = ExpWindow(1.0, 1.0)
        g = GridSpec(0.0, 1.0, 64)
        assert covered_mass_fraction(f, g) == pytest.approx(1.0)
        g_half = GridSpec(0.5, 0.5, 32)
        frac = covered_mass_fraction(f, g_half)
        expect = (1 - math.exp(-0.5)) / (1 - math.exp(-1.0))
        assert frac == pytest.approx(expect, abs=0.01)

    def test_mass_fraction_skips_eval_inside_grid_box(self, monkeypatch):
        f = HeatWindow(1.0, (0.0, 0.0), 4.0)
        lo, hi = f.support()
        g = GridSpec(lo, hi - lo, [16, 16, 16])

        def fail(pts):
            raise AssertionError("integrand evaluated for a support inside the grid box")

        monkeypatch.setattr(f.__class__, "eval", fail)
        assert covered_mass_fraction(f, g) == 1.0

    def test_mass_fraction_point_budget_in_4d(self, monkeypatch):
        f = IndicatorBox([0.0] * 4, [1.0] * 4)
        g = GridSpec([0.0] * 4, [0.5, 0.5, 1.0, 1.0], [4] * 4)  # f sticks out on two axes
        sizes = []
        box_eval = IndicatorBox.eval

        def spy(self, pts):
            sizes.append(pts.size // pts.shape[-1])
            return box_eval(self, pts)

        monkeypatch.setattr(IndicatorBox, "eval", spy)
        assert covered_mass_fraction(f, g) == pytest.approx(0.25, abs=0.01)
        assert sizes and max(sizes) <= MASS_CHECK_POINTS


class TestWienerFunctional:
    def test_equals_one_shot_integral_bit_for_bit(self):
        g = GridSpec(0.0, 1.0, 256)
        for f in (ExpWindow(1.3, 1.0), IndicatorBox(0.1, 0.83)):
            W = WienerFunctional(f, g)
            for rep in range(3):
                fld = field(steps=256, rep=rep, salt=6)
                assert W(fld) == wiener_hermite_integral(f, fld)
        g2 = GridSpec([0, 0], [1, 1], [32, 32])
        fld2 = simulate_hermite_sheet(HermiteSpec(2, (0.7, 0.8)), g2, 128,
                                      derive_stream(SEED + 7, 0))
        box = IndicatorBox([0.1, 0.2], [0.7, 0.9])
        assert WienerFunctional(box, g2)(fld2) == wiener_hermite_integral(box, fld2)

    def test_sample_equals_the_call_on_the_same_stream(self):
        # sample dots the sheet's increments directly; the call differences the
        # node values back into increments, so the two agree up to rounding
        W = WienerFunctional(ExpWindow(1.0, 1.0), GridSpec(0.0, 1.0, 512))
        spec = HermiteSpec(2, 0.7)
        heat = HeatSpec(2, 0.55, (0.55,), trunc=4.0, t_steps=512, x_steps=512, n_internal=512)
        H = _mild_setup(heat, 1.0, (0.0,))
        heat_spec = HermiteSpec(2, (0.55, 0.55))
        for rep in range(2):
            for functional, sheet, n_internal in ((W, spec, 2**14), (H, heat_spec, 512)):
                got = functional.sample(sheet, n_internal, derive_stream(SEED + 8, rep))
                field = simulate_hermite_sheet(sheet, functional.grid, n_internal,
                                               derive_stream(SEED + 8, rep))
                assert got == pytest.approx(functional(field), rel=1e-12, abs=0.0)

    def test_truncation_raised_at_construction(self):
        with pytest.raises(TruncationError):
            WienerFunctional(ExpWindow(1.0, 1.0, lo=-10.0), GridSpec(0.0, 1.0, 64))

    def test_field_from_another_grid_rejected(self):
        W = WienerFunctional(ExpWindow(1.0, 1.0), GridSpec(0.0, 1.0, 256))
        with pytest.raises(DomainError):
            W(field(steps=512))
        with pytest.raises(DomainError):
            WienerFunctional(IndicatorBox([0, 0], [1, 1]), GridSpec(0.0, 1.0, 64))


class TestMixedLimit:
    def test_unit_square_reduces_to_endpoint(self):
        f = Marginal(IndicatorBox([0, 0], [1, 1]), (0,))
        lower = field(rep=3, salt=3, steps=256)
        x = WienerFunctional(f, lower.grid)(lower)
        assert x == pytest.approx(lower.values[-1], rel=1e-9)

    def test_zero_integrand(self):
        g = GridSpec([0, 0], [1, 1], [8, 8])
        z = Marginal(Tabulated(g, np.zeros((9, 9))), (0,))
        lower = field(rep=4, salt=4, steps=64)
        assert WienerFunctional(z, lower.grid)(lower) == 0.0

    def test_variance_matches_high_H_quadrature(self):
        f = IndicatorBox([0, 0.25], [1, 0.75])
        W = WienerFunctional(Marginal(f, (0,)), GridSpec(0.0, 1.0, 256))
        xs = np.array([W(field(rep=i, salt=5, steps=256)) for i in range(1200)])
        quad = inner_product_HH(f, f, (0.99, 0.7), QuadratureConfig(panels=128))
        se = np.std((xs - xs.mean()) ** 2) / math.sqrt(len(xs))
        assert abs(xs.var() - quad) < 4 * se + 0.03 * quad

    def test_k_equals_d_rejected(self):
        with pytest.raises(DomainError):
            Marginal(IndicatorBox([0], [1]), (0,))

    def test_marginal_values_and_support(self):
        # piecewise-linear in u with kinks on panel edges: the midpoint rule
        # integrates it exactly, so the marginal is the trapezoid sum of u^2
        g = GridSpec([0, 0], [1, 2], [8, 4])
        u, v = np.meshgrid(g.axis_nodes(0), g.axis_nodes(1), indexing="ij")
        m = Marginal(Tabulated(g, u**2 + v), [0])
        nodes = g.axis_nodes(0)
        trapz = float(np.sum((nodes[:-1] ** 2 + nodes[1:] ** 2) / 2) / 8)
        vs = np.array([[0.1], [0.75], [1.9]])
        assert np.allclose(m.eval(vs), trapz + vs[:, 0], rtol=1e-12, atol=0)
        assert m.d == 1 and m.axes == (0,)
        lo, hi = m.support()
        assert list(lo) == [0.0] and list(hi) == [2.0]
        box = Marginal(IndicatorBox([0, 0.25], [1, 0.75]), (1,), panels=16)
        assert box.eval(0.3) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("axes", [(), (0, 0), (2,), (-1,)])
    def test_bad_axes_rejected(self, axes):
        with pytest.raises(DomainError):
            Marginal(IndicatorBox([0, 0], [1, 1]), axes)


class TestDistributionalLimits:
    def test_H_to_one_ks_trend(self):
        # the law of int f dZ at H=0.99 is closer to (int f) H_2(Z)/sqrt(2)
        # than at H=0.9
        f = ExpWindow(1.0, 1.0)
        g = GridSpec(0.0, 1.0, 512)
        W = WienerFunctional(f, g)
        cdf = target_cdf_hermite_limit(2)
        scale = 1 - math.exp(-1.0)
        ks = []
        for j, h in enumerate((0.9, 0.99)):
            vals = np.array([
                W(simulate_hermite_sheet(HermiteSpec(2, h), g, 2**13,
                                         derive_stream(SEED + 10 + j, i)))
                for i in range(1500)
            ])
            ks.append(ks_distance(vals / scale, cdf))
        assert ks[1] < ks[0]

    def test_H_to_half_kurtosis_trend(self):
        f = ExpWindow(1.0, 1.0)
        g = GridSpec(0.0, 1.0, 512)
        W = WienerFunctional(f, g)
        from hermlab.stats import excess_kurtosis

        ks = {}
        for j, h in enumerate((0.55, 0.75)):
            vals = np.array([
                W(simulate_hermite_sheet(HermiteSpec(2, h), g, 2**13,
                                         derive_stream(SEED + 20 + j, i)))
                for i in range(2000)
            ])
            ks[h] = abs(excess_kurtosis(vals))
        assert ks[0.55] < ks[0.75]
