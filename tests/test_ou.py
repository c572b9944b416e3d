import math

import numpy as np
import pytest

from hermlab.core import (
    DomainError,
    ExpWindow,
    GridSpec,
    HermiteSpec,
    UnsupportedError,
    derive_stream,
    midpoint_mesh,
)
from hermlab.fields import hermite_sheet_increments, simulate_hermite_sheet
from hermlab.ou import (
    OUSpec,
    draw_xi,
    driving_grid,
    ou_limit_cdf_H1,
    ou_limit_covariance,
    simulate_hou,
)
from hermlab.quadrature import QuadratureConfig, inner_product_HH
from hermlab.stats import ks_distance, target_cdf_hermite_limit

SEED = 907


class TestSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            OUSpec(lam=0.0, sigma=1.0, q=2, H=0.7)
        with pytest.raises(DomainError):
            OUSpec(lam=1.0, sigma=1.0, q=2, H=0.4)


class TestNonstationary:
    def test_initial_condition_exact(self):
        spec = OUSpec(lam=1.0, sigma=1.0, q=2, H=0.7, xi=2.5)
        y = simulate_hou(spec, GridSpec(0, 1, 128), derive_stream(SEED, 0), 1024)
        assert y.values[0] == pytest.approx(2.5)

    def test_variance_matches_quadrature(self):
        spec = OUSpec(lam=1.0, sigma=1.0, q=2, H=0.7)
        g = GridSpec(0, 1, 512)
        ys = np.array([
            simulate_hou(spec, g, derive_stream(SEED + 1, i), 2**13).values[-1]
            for i in range(1500)
        ])
        quad = inner_product_HH(ExpWindow(1.0, 1.0), ExpWindow(1.0, 1.0), 0.7,
                                QuadratureConfig(panels=512))
        se = np.std((ys - ys.mean()) ** 2) / math.sqrt(len(ys))
        assert abs(ys.var() - quad) < 4 * se + 0.02 * quad

    def test_langevin_residual_small(self):
        # Y(t) = xi - lam int_0^t Y + sigma Z(t), checked pathwise
        spec = OUSpec(lam=1.0, sigma=1.0, q=2, H=0.7, xi=0.5)
        g = GridSpec(0, 1, 2**12)
        stream = derive_stream(SEED + 2, 0)
        # reproduce the internals: same stream gives xi then the path
        xi = 0.5
        y = simulate_hou(spec, g, stream, 2**13)
        # rebuild the driving path from the same derived stream
        stream2 = derive_stream(SEED + 2, 0)
        z = simulate_hermite_sheet(HermiteSpec(2, 0.7), g, 2**13, stream2)
        nodes = g.axis_nodes(0)
        h = g.mesh[0]
        integral_y = np.concatenate([[0.0], np.cumsum(0.5 * (y.values[1:] + y.values[:-1]) * h)])
        resid = y.values - (xi - spec.lam * integral_y + spec.sigma * z.values)
        rng = y.values.max() - y.values.min()
        assert np.max(np.abs(resid)) < 0.02 * max(rng, 1.0)

    def test_limit_variance_H_to_one(self):
        spec = OUSpec(lam=1.0, sigma=1.0, q=2, H=0.99)
        g = GridSpec(0, 1, 512)
        ys = np.array([
            simulate_hou(spec, g, derive_stream(SEED + 3, i), 2**13).values[-1]
            for i in range(2000)
        ])
        target = (1 - math.exp(-1)) ** 2
        se = np.std((ys - ys.mean()) ** 2) / math.sqrt(len(ys))
        assert abs(ys.var() - target) < 4 * se + 0.02 * target


class TestStationary:
    def test_matches_reference_from_driving_path(self):
        # X(t) = sigma e^(-lam t) int_(-M)^t e^(lam u) dZ(u), rebuilt from the
        # same derived stream with the driving path laid on [-M, T]
        spec = OUSpec(lam=1.5, sigma=1.7, q=2, H=0.7, stationary=True, M=4.0)
        g = GridSpec(0, 1, 64)
        x = simulate_hou(spec, g, derive_stream(SEED + 12, 0), 1024)
        h = g.mesh[0]
        m = int(math.ceil(spec.M / h - 1e-12))
        path = GridSpec(-m * h, m * h + 1.0, m + 64)
        incr = hermite_sheet_increments(HermiteSpec(2, 0.7), path, 1024,
                                        derive_stream(SEED + 12, 0))
        mids = midpoint_mesh([path.axis_nodes(0)]).reshape(-1)
        dz = np.exp(spec.lam * mids) * incr
        integ = np.concatenate([[0.0], np.cumsum(dz)])[m:]
        ref = spec.sigma * np.exp(-spec.lam * g.axis_nodes(0)) * integ
        np.testing.assert_array_equal(x.values, ref)

    def test_xi_consumes_no_draw(self):
        g = GridSpec(0, 1, 64)
        base = dict(lam=1.0, sigma=1.3, q=2, H=0.7, stationary=True, M=6.0)
        x0 = simulate_hou(OUSpec(**base, xi=0.0), g, derive_stream(SEED + 13, 0), 1024)
        xg = simulate_hou(OUSpec(**base, xi=("gaussian", 0.5, 2.0)), g,
                          derive_stream(SEED + 13, 0), 1024)
        np.testing.assert_array_equal(x0.values, xg.values)

    def test_truncation_refused(self):
        spec = OUSpec(lam=1.0, sigma=1.0, q=2, H=0.7, stationary=True, M=3.0)
        with pytest.raises(DomainError):
            simulate_hou(spec, GridSpec(0, 1, 64), derive_stream(SEED, 0), 1024)

    def test_variance_roughly_constant(self):
        # q=1 keeps the variance-estimator noise below the 10% spread gate;
        # second-order stationarity is the same code path for every q
        spec = OUSpec(lam=1.0, sigma=1.0, q=1, H=0.7, stationary=True, M=10.0)
        g = GridSpec(0, 1, 128)
        xs = np.stack([
            simulate_hou(spec, g, derive_stream(SEED + 4, i), 2**13).values
            for i in range(4000)
        ])
        v = xs[:, [32, 64, 128]].var(axis=0)
        assert (v.max() - v.min()) / v.mean() < 0.10

    def test_variance_matches_window_quadrature(self):
        spec = OUSpec(lam=1.0, sigma=1.0, q=2, H=0.7, stationary=True, M=10.0)
        g = GridSpec(0, 1, 128)
        xs = np.array([
            simulate_hou(spec, g, derive_stream(SEED + 5, i), 2**13).values[-1]
            for i in range(1500)
        ])
        w = ExpWindow(1.0, 1.0, lo=-10.0)
        quad = inner_product_HH(w, w, 0.7, QuadratureConfig(panels=1024))
        se = np.std((xs - xs.mean()) ** 2) / math.sqrt(len(xs))
        assert abs(xs.var() - quad) < 4 * se + 0.02 * quad

    def test_covariance_decays(self):
        spec = OUSpec(lam=1.0, sigma=1.0, q=2, H=0.7, stationary=True, M=10.0)
        g = GridSpec(0, 1, 128)
        xs = np.stack([
            simulate_hou(spec, g, derive_stream(SEED + 6, i), 2**13).values
            for i in range(1500)
        ])
        var0 = xs[:, 0].var()
        cov01 = np.mean(xs[:, 0] * xs[:, -1]) - xs[:, 0].mean() * xs[:, -1].mean()
        assert cov01 < var0

    def test_lag_dependence_only(self):
        spec = OUSpec(lam=1.0, sigma=1.0, q=2, H=0.7, stationary=True, M=10.0)
        g = GridSpec(0, 1, 128)
        xs = np.stack([
            simulate_hou(spec, g, derive_stream(SEED + 7, i), 2**13).values
            for i in range(2500)
        ])
        c_a = np.mean(xs[:, 0] * xs[:, 64])
        c_b = np.mean(xs[:, 64] * xs[:, 128])
        se = np.std(xs[:, 0] * xs[:, 64]) / math.sqrt(len(xs)) * 2
        assert abs(c_a - c_b) < 4 * se


class TestLongHorizon:
    @pytest.mark.parametrize("stationary", [False, True], ids=["nonstationary", "stationary"])
    def test_finite_and_equal_to_the_direct_sum_at_lam_T_800(self, stationary):
        # e^(lam u) alone overflows past lam u = 709; the direct reference
        # takes each weight e^(-lam (t_k - u_j)) as one exponent of a difference
        spec = OUSpec(1.0, 1.0, q=2, H=0.7, xi=0.0 if stationary else 0.5,
                      stationary=stationary)
        g = GridSpec(0, 800, 512)
        x = simulate_hou(spec, g, derive_stream(SEED + 14, 0), 1024)
        path = driving_grid(spec, g)
        stream = derive_stream(SEED + 14, 0)
        xi = 0.0 if stationary else draw_xi(spec.xi, stream)
        incr = hermite_sheet_increments(HermiteSpec(2, 0.7), path, 1024, stream)
        mids = midpoint_mesh([path.axis_nodes(0)]).reshape(-1)
        nodes = g.axis_nodes(0)
        lag = nodes[:, None] - mids[None, :]
        weights = np.where(lag > 0, np.exp(-spec.lam * np.maximum(lag, 0.0)), 0.0)
        ref = np.exp(-spec.lam * nodes) * xi + spec.sigma * (weights @ incr)
        assert np.all(np.isfinite(x.values))
        np.testing.assert_allclose(x.values, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        assert np.abs(x.values[-64:]).max() > 0.0


class TestLimits:
    def test_limit_covariance_values(self):
        assert ou_limit_covariance("nonstationary", 1, 1, 1, 1) == pytest.approx(
            (1 - math.exp(-2)) / 2
        )
        assert ou_limit_covariance("stationary", 1, 1, 1, 1) == pytest.approx(0.5)
        assert ou_limit_covariance("nonstationary", 0, 1, 1, 1) == pytest.approx(0.0)
        assert ou_limit_covariance("stationary", 2, 7, 1, 1) == pytest.approx(
            0.5 * math.exp(-5)
        )

    def test_limit_cdf_is_shift_plus_scaled_hermite_law(self):
        x = np.linspace(-3.0, 4.0, 71)
        hq = target_cdf_hermite_limit(3)
        shift, scale = 0.5 * math.exp(-2.0), 2.0 * (1.0 - math.exp(-2.0))
        got = ou_limit_cdf_H1("nonstationary", 2.0, 1.0, 2.0, 0.5, 3)(x)
        assert np.array_equal(got, hq((x - shift) / scale))
        assert np.array_equal(ou_limit_cdf_H1("nonstationary", 2.0, 1.0, 2.0, ("const", 0.5), 3)(x),
                              got)
        assert np.array_equal(ou_limit_cdf_H1("stationary", 5.0, 4.0, 2.0, 0.0, 3)(x), hq(2.0 * x))

    def test_limit_cdf_q1_gaussian(self):
        from scipy.special import ndtr

        x = np.linspace(-3.0, 3.0, 61)
        got = ou_limit_cdf_H1("stationary", 0.0, 2.0, 1.0, 0.0, 1)(x)
        assert np.max(np.abs(got - ndtr(2.0 * x))) <= 1e-15

    def test_limit_cdf_refusals(self):
        with pytest.raises(UnsupportedError):
            ou_limit_cdf_H1("nonstationary", 1.0, 1.0, 1.0, ("gaussian", 0.0, 1.0), 2)
        with pytest.raises(DomainError):
            ou_limit_cdf_H1("nonstationary", 0.0, 1.0, 1.0, 0.0, 2)
        with pytest.raises(DomainError):
            ou_limit_cdf_H1("bogus", 1.0, 1.0, 1.0, 0.0, 2)
        with pytest.raises(DomainError):
            ou_limit_cdf_H1("stationary", 1.0, 1.0, 1.0, 0.0, 0)

    def test_quadrature_trend_to_half_limit(self):
        f = ExpWindow(1.0, 1.0)
        cfg = QuadratureConfig(panels=1024)
        target = ou_limit_covariance("nonstationary", 1, 1, 1, 1)
        vals = [inner_product_HH(f, f, h, cfg) for h in (0.75, 0.65, 0.55, 0.51)]
        assert abs(vals[-1] - target) / target < 0.02

    def test_H_to_one_ks_trend(self):
        g = GridSpec(0, 1, 512)
        cdf = ou_limit_cdf_H1("nonstationary", 1.0, 1.0, 1.0, 0.0, 2)
        ks = []
        for j, h in enumerate((0.9, 0.99)):
            spec = OUSpec(lam=1.0, sigma=1.0, q=2, H=h)
            ys = np.array([
                simulate_hou(spec, g, derive_stream(SEED + 11 + j, i), 2**13).values[-1]
                for i in range(1500)
            ])
            ks.append(ks_distance(ys, cdf))
        assert ks[1] < ks[0]
