import math

import numpy as np
import pytest
from scipy.integrate import quad

from hermlab.core import (
    DomainError,
    GridSpec,
    HermiteSpec,
    HurstMultiIndex,
    LimitScenario,
    ResourceError,
    UnsupportedError,
    derive_stream,
)
from hermlab import spde
from hermlab.fields import simulate_hermite_sheet
from hermlab.quadrature import QuadratureConfig, inner_product_HH
from hermlab.spde import (
    HeatSpec,
    existence_condition,
    green,
    heat_covariance_quadrature,
    heat_limit_covariance,
    heat_limit_functional,
    sample_mild_solution,
    window_coverage,
)

SEED = 515


class TestGreen:
    def test_zero_for_nonpositive_time(self):
        assert green(0.0, 0.0) == 0.0
        assert green(-1.0, 0.3) == 0.0

    def test_normalization(self):
        val, _ = quad(lambda y: green(0.3, y), -10, 10)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_peak_value(self):
        assert green(1.0, 0.0) == pytest.approx((2 * math.pi) ** -0.5)

    def test_d2(self):
        v = green(1.0, (0.0, 0.0), d=2)
        assert v == pytest.approx((2 * math.pi) ** -1.0)


class TestExistence:
    def test_examples(self):
        assert existence_condition(0.55, (0.55,), 1) == (True, pytest.approx(2.3))
        ok, g = existence_condition(0.6, (0.6, 0.6, 0.6), 3)
        assert not ok and g == pytest.approx(3.0)

    def test_spec_construction_rejects(self):
        with pytest.raises(DomainError):
            HeatSpec(2, 0.6, (0.6, 0.6, 0.6))

    def test_boundary_decided_exactly(self):
        # 4*0.66 + 3*(2*0.56 - 1) = 3 exactly; float summation gives 3.0000000000000004
        ok, g = existence_condition(0.66, (0.56,) * 3, 3)
        assert not ok and g == 3.0
        with pytest.raises(DomainError):
            HeatSpec(2, 0.66, (0.56,) * 3)


class TestCovarianceQuadrature:
    def test_zero_time(self):
        spec = HeatSpec(2, 0.7, (0.7,))
        assert heat_covariance_quadrature(spec, 0.0, 1.0) == 0.0

    def test_symmetry(self):
        spec = HeatSpec(2, 0.7, (0.7,))
        a = heat_covariance_quadrature(spec, 1.0, 0.5)
        b = heat_covariance_quadrature(spec, 0.5, 1.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_nondecreasing_in_t(self):
        spec = HeatSpec(2, 0.7, (0.7,))
        vals = [heat_covariance_quadrature(spec, t, t) for t in (0.25, 0.5, 1.0, 2.0)]
        assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))

    def test_white_noise_limit_trend(self):
        limit = 1 / math.sqrt(math.pi)
        vals = [
            heat_covariance_quadrature(HeatSpec(2, h, (h,)), 1.0, 1.0)
            for h in (0.75, 0.65, 0.55, 0.51)
        ]
        assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
        assert abs(vals[-1] - limit) / limit < 0.05

    def test_against_window_inner_product(self):
        # independent route: 2-axis singular quadrature of the heat window
        from hermlab.core import HeatWindow

        spec = HeatSpec(2, 0.7, (0.7,))
        a = heat_covariance_quadrature(spec, 1.0, 1.0)
        w = HeatWindow(1.0, (0.0,), 8.0)
        b = inner_product_HH(w, w, (0.7, 0.7), QuadratureConfig(panels=400))
        assert a == pytest.approx(b, rel=0.005)

    def test_d2_against_window_inner_product(self):
        # the spectral product over spatial axes against the 3-axis singular
        # quadrature of the heat window, which converges to it from below
        from hermlab.core import HeatWindow

        a = heat_covariance_quadrature(HeatSpec(2, 0.6, (0.8, 0.8)), 1.0, 1.0)
        w = HeatWindow(1.0, (0.0, 0.0), 6.0)
        err = [inner_product_HH(w, w, (0.6, 0.8, 0.8), QuadratureConfig(panels=p)) / a - 1.0
               for p in (64, 128)]
        assert abs(err[1]) <= 0.01 and abs(err[1]) < abs(err[0])

    def test_time_regularity_exponent(self):
        # fitted slope of E|u(t)-u(s)|^2 vs |t-s| near the predicted exponent 1
        spec = HeatSpec(2, 0.7, (0.7,))
        q11 = heat_covariance_quadrature(spec, 1.0, 1.0)
        xs, ys = [], []
        for dt in (0.05, 0.1, 0.2, 0.4):
            s = 1.0 - dt
            e = (
                q11
                + heat_covariance_quadrature(spec, s, s)
                - 2 * heat_covariance_quadrature(spec, 1.0, s)
            )
            xs.append(math.log(dt))
            ys.append(math.log(e))
        slope = np.polyfit(xs, ys, 1)[0]
        assert abs(slope - 1.0) <= 0.25


class TestMildSolution:
    def test_zero_at_time_zero(self):
        spec = HeatSpec(2, 0.7, (0.7,), t_steps=32, x_steps=32, n_internal=64)
        assert sample_mild_solution(spec, 0.0, 0.0, derive_stream(SEED, 0)) == 0.0

    def test_mean_zero(self):
        spec = HeatSpec(2, 0.6, (0.6,), trunc=4.0, t_steps=128, x_steps=128, n_internal=128)
        us = np.array([
            sample_mild_solution(spec, 1.0, 0.0, derive_stream(SEED + 1, i))
            for i in range(800)
        ])
        assert abs(us.mean()) < 4 * us.std() / math.sqrt(len(us))

    def test_variance_against_quadrature_q1(self):
        # q=1 isolates the Riemann-sum discretization from Hermite-rank error
        spec = HeatSpec(1, 0.6, (0.6,), trunc=4.0, t_steps=256, x_steps=256, n_internal=256)
        us = np.array([
            sample_mild_solution(spec, 1.0, 0.0, derive_stream(SEED + 2, i))
            for i in range(600)
        ])
        quad = heat_covariance_quadrature(spec, 1.0, 1.0)
        se = np.std((us - us.mean()) ** 2) / math.sqrt(len(us))
        assert abs(us.var() - quad) < 4 * se + 0.03 * quad

    def test_truncation_guard(self):
        spec = HeatSpec(2, 0.7, (0.7,), trunc=0.5, t_steps=32, x_steps=32, n_internal=64)
        with pytest.raises(DomainError):
            sample_mild_solution(spec, 1.0, 0.0, derive_stream(SEED, 0))

    def test_oversize_sheet_refused_before_the_weights(self, monkeypatch):
        def reached(*args):
            raise AssertionError("weights built for a sheet the sampler refuses")

        monkeypatch.setattr(spde, "WienerFunctional", reached)
        # d = 2 at 512 steps per axis: a (2 * 512)**3 = 2**30-cell circulant
        spec = HeatSpec(2, 0.6, (0.8, 0.8), t_steps=512, x_steps=512, n_internal=512)
        with pytest.raises(ResourceError):
            sample_mild_solution(spec, 1.0, (0.0, 0.0), derive_stream(SEED, 0))

    def test_coverage_helper(self):
        assert window_coverage(1.0, 6.0, 1) > 1 - 1e-7
        assert window_coverage(1.0, 0.5, 1) < 0.9


class TestLimits:
    def test_case3_value(self):
        sc = LimitScenario(a_axes=(0,))
        v = heat_limit_covariance(sc, None, 1.0, 1.0)
        assert v == pytest.approx(1 / math.sqrt(math.pi), rel=1e-12)
        assert heat_limit_covariance(sc, None, 0.0, 0.0) == 0.0

    def test_case1_bifractional_shape(self):
        # K exponent of the (t+s)^K - |t-s|^K structure equals 1 - gamma0
        sc = LimitScenario(a_axes=(0,), fixed={1: 0.8})
        gamma0 = 2 - 0.5 - 0.8
        K = 1 - gamma0
        v1 = heat_limit_covariance(sc, None, 1.0, 1.0)
        v2 = heat_limit_covariance(sc, None, 2.0, 2.0)
        assert v2 / v1 == pytest.approx(2.0**K, rel=1e-9)

    def test_case2_consistent_with_quadrature(self):
        # fixed H0, spatial axis to 1/2: the limit matches the pre-limit
        # covariance quadrature evaluated near the spatial boundary
        sc = LimitScenario(a_axes=(0,))
        v_lim = heat_limit_covariance(sc, 0.7, 1.0, 1.0)
        v_near = heat_covariance_quadrature(HeatSpec(2, 0.7, (0.5001,)), 1.0, 1.0)
        assert v_lim == pytest.approx(v_near, rel=0.005)

    @pytest.mark.parametrize("h0,t,s,axis,h_fixed,rel", [
        (0.7, 1.0, 1.0, 0, 0.8, 1e-3), (0.7, 1.0, 0.5, 0, 0.8, 1e-3), (0.7, 1.0, 1.0, 1, 0.65, 1e-3),
        (None, 1.0, 1.0, 0, 0.8, 5e-3), (None, 1.0, 1.0, 1, 0.65, 5e-3),
    ])
    def test_d2_fixed_axis_limit_consistent_with_quadrature(self, h0, t, s, axis, h_fixed, rel):
        # d = 2, one spatial axis to 1/2 and the other fixed, H0 fixed (case 2)
        # or to 1/2 too (case 1): the fixed axis keeps its pre-limit factor
        sc = LimitScenario(a_axes=(axis,), fixed={1 - axis: h_fixed})
        h = [h_fixed, h_fixed]
        h[axis] = 0.5001
        v_lim = heat_limit_covariance(sc, h0, t, s)
        v_near = heat_covariance_quadrature(HeatSpec(2, h0 or 0.5001, tuple(h)), t, s)
        assert v_lim == pytest.approx(v_near, rel=rel)

    def test_case3_sampler_refused(self):
        # every axis to 1 leaves no sheet; the law is t H_q(Z)/sqrt(q!) exactly
        with pytest.raises(UnsupportedError):
            heat_limit_functional(1.0, 0.0, (0, 1), GridSpec(0.0, 1.0, 8))

    def test_case2_sampler_runs_and_centers(self):
        # H0 fixed, the single spatial axis driven to 1: the lower sheet is a
        # one-parameter Hermite process in time
        W = heat_limit_functional(1.0, 0.0, (1,), GridSpec(0.0, 1.0, 256), panels=64)
        lower_spec = HermiteSpec(2, HurstMultiIndex(0.7))
        xs = np.array([W.sample(lower_spec, 2**12, derive_stream(SEED + 5, i))
                       for i in range(400)])
        assert np.all(np.isfinite(xs))
        assert abs(xs.mean()) < 4 * xs.std() / math.sqrt(len(xs))
        assert xs.var() > 0.01

    def test_sample_equals_the_functional_of_the_drawn_sheet(self):
        # d = 2 case 1: time and spatial axis 0 to 1, a sheet on spatial axis 1
        W = heat_limit_functional(1.0, (0.0, 0.0), (0, 1), GridSpec(-4.0, 8.0, 64), panels=16)
        spec = HermiteSpec(2, HurstMultiIndex(0.7))
        for i in range(3):
            got = W.sample(spec, 512, derive_stream(SEED + 6, i))
            ref = W(simulate_hermite_sheet(spec, W.grid, 512, derive_stream(SEED + 6, i)))
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_truncation_read_from_the_kept_spatial_axis(self):
        # x = 0 on the kept axis [-2, 3]: the half-width is 2, the nearer edge
        from hermlab.core import HeatWindow, Marginal
        from hermlab.integrals import WienerFunctional

        g = GridSpec(-2.0, 5.0, 32)
        W = heat_limit_functional(1.0, (0.0, 0.0), (0, 1), g, panels=8)
        ref = WienerFunctional(Marginal(HeatWindow(1.0, (0.0, 0.0), 2.0), (0, 1), 8), g)
        assert np.array_equal(W.weights, ref.weights)

    def test_case1_sampler_variance_matches_high_H_quadrature(self):
        # d=2, spatial axis 0 to 1 (with time), axis 1 fixed at 0.7
        from hermlab.core import HeatWindow

        W = heat_limit_functional(1.0, (0.0, 0.0), (0, 1), GridSpec(-4.0, 8.0, 256), panels=48)
        lower_spec = HermiteSpec(2, HurstMultiIndex(0.7))
        xs = np.array([W.sample(lower_spec, 2**12, derive_stream(SEED + 4, i))
                       for i in range(600)])
        w = HeatWindow(1.0, (0.0, 0.0), 4.0)
        quad = inner_product_HH(w, w, (0.99, 0.99, 0.7), QuadratureConfig(panels=48))
        se = np.std((xs - xs.mean()) ** 2) / math.sqrt(len(xs))
        assert abs(xs.var() - quad) < 4 * se + 0.05 * quad
