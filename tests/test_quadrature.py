import math

import mpmath
import numpy as np
import pytest
import scipy.fft as sfft
from scipy.integrate import quad

from hermlab.core import (
    DomainError,
    ExpWindow,
    GridSpec,
    HeatWindow,
    IndicatorBox,
    LimitScenario,
    UnsupportedError,
)
from hermlab import quadrature
from hermlab.quadrature import (
    QuadratureConfig,
    abs_pow_cell_masses,
    contraction_norm_sq,
    fbm_time_kernel_integral,
    inner_product_HH,
    limit_constant,
    q_alpha,
    sigma_limit,
)
from hermlab.spde import heat_limit_covariance
from tabulated import Tabulated

CFG = QuadratureConfig(panels=128)
UNIT = IndicatorBox(0, 1)
EXP = ExpWindow(1.0, 1.0)


class TestInnerProduct:
    def test_indicator_gives_t_pow_2h(self):
        # <1_[0,t], 1_[0,t]> = t^2H exactly
        for t, H in ((1.0, 0.7), (0.5, 0.6), (2.0, 0.9)):
            f = IndicatorBox(0, t)
            assert inner_product_HH(f, f, H, CFG) == pytest.approx(t ** (2 * H), rel=1e-10)

    def test_indicator_exact_any_panels(self):
        f = IndicatorBox(0, 1)
        vals = [
            inner_product_HH(f, f, 0.7, QuadratureConfig(panels=p)) for p in (8, 32, 256)
        ]
        assert max(abs(v - 1.0) for v in vals) < 1e-9

    def test_tensor_product_2d(self):
        f = IndicatorBox([0, 0], [1, 1])
        assert inner_product_HH(f, f, (0.6, 0.8), CFG) == pytest.approx(1.0, rel=1e-9)

    def test_covariance_of_fbm(self):
        # <1_[0,1], 1_[0,0.5]> = R_H(1, 0.5)
        v = inner_product_HH(IndicatorBox(0, 1), IndicatorBox(0, 0.5), 0.7, CFG)
        assert v == pytest.approx(0.5 * (1 + 0.5**1.4 - 0.5**1.4), rel=1e-9)

    def test_symmetry(self):
        a = inner_product_HH(UNIT, EXP, 0.7, CFG)
        b = inner_product_HH(EXP, UNIT, 0.7, CFG)
        assert a == pytest.approx(b, rel=1e-12)

    def test_bilinear_in_tabulated_scaling(self):
        g = GridSpec(0, 1, 64)
        nodes = g.axis_nodes(0)
        t1 = Tabulated(g, np.exp(-nodes))
        t2 = Tabulated(g, 3.0 * np.exp(-nodes))
        a = inner_product_HH(t1, t1, 0.7, CFG)
        b = inner_product_HH(t2, t1, 0.7, CFG)
        assert b == pytest.approx(3.0 * a, rel=1e-12)

    def test_cauchy_schwarz_and_psd(self):
        ff = inner_product_HH(EXP, EXP, 0.7, CFG)
        gg = inner_product_HH(UNIT, UNIT, 0.7, CFG)
        fg = inner_product_HH(EXP, UNIT, 0.7, CFG)
        assert ff > 0 and gg > 0
        assert abs(fg) <= math.sqrt(ff * gg) * (1 + 1e-9)

    def test_panel_refinement_converges(self):
        v1 = inner_product_HH(EXP, EXP, 0.7, QuadratureConfig(panels=256))
        v2 = inner_product_HH(EXP, EXP, 0.7, QuadratureConfig(panels=512))
        assert abs(v2 - v1) < 1e-6

    def test_exp_window_matches_algebraic_weight_quad(self):
        # <f,f> = H(2H-1) int_0^1 p^(2H-2) (e^-p - e^(p-2)) dp for f = ExpWindow(1, 1),
        # by the substitution p = |u - v|; QUADPACK integrates the p^(2H-2)
        # endpoint singularity through its algebraic weight
        for H in (0.55, 0.7, 0.9):
            tail, _ = quad(lambda p: math.exp(-p) - math.exp(p - 2.0), 0.0, 1.0,
                           weight="alg", wvar=(2 * H - 2, 0.0), epsabs=0.0, epsrel=1e-12)
            exact = H * (2 * H - 1) * tail
            v = inner_product_HH(EXP, EXP, H, QuadratureConfig(panels=256))
            assert v == pytest.approx(exact, rel=1e-5)

    def test_hurst_out_of_range(self):
        with pytest.raises(DomainError):
            inner_product_HH(UNIT, UNIT, 0.5, CFG)
        with pytest.raises(DomainError):
            inner_product_HH(UNIT, UNIT, 1.0, CFG)


class TestSharedEvaluation:
    """<f, f> evaluates f once and checks each kernel's steps once; the value
    is bit for bit the one of an equal but separate second argument."""

    @pytest.mark.parametrize("panels", [512, 1024])
    @pytest.mark.parametrize("make,H", [
        (lambda: ExpWindow(1.0, 1.0), 0.7),
        (lambda: IndicatorBox([0.0], [1.0]), 0.55),
        (lambda: HeatWindow(1.0, 0.0, 2.0), (0.6, 0.8)),
    ], ids=["exp", "box", "heat_d2"])
    def test_self_inner_product_bit_identical(self, make, H, panels):
        f, g = make(), make()
        assert g is not f
        cfg = QuadratureConfig(panels=panels)
        assert inner_product_HH(f, f, H, cfg) == inner_product_HH(f, g, H, cfg)

    @pytest.mark.parametrize("e", [np.linspace(0, 1, 513), np.linspace(0, 1, 9) ** 2],
                             ids=["equal_steps", "unequal_steps"])
    def test_mass_kernel_same_edges_bit_identical(self, e):
        k = quadrature._mass_kernel(e, e, -0.6)
        assert k.tobytes() == quadrature._mass_kernel(e, e.copy(), -0.6).tobytes()


def four_corner_masses(edges_u, edges_v, c):
    """Reference: four antiderivative evaluations per panel pair."""
    def psi(w):
        return np.abs(w) ** (c + 2.0) / ((c + 1.0) * (c + 2.0))

    au, bu = edges_u[:-1, None], edges_u[1:, None]
    av, bv = edges_v[None, :-1], edges_v[None, 1:]
    return psi(bu - av) + psi(au - bv) - psi(bu - bv) - psi(au - av)


class TestToeplitzKernel:
    @pytest.mark.parametrize("n", [512, 1024])
    @pytest.mark.parametrize("H", [0.51, 0.75])
    def test_bit_identical_on_unit_interval(self, n, H):
        e = np.linspace(0, 1, n + 1)
        c = 2 * H - 2
        assert np.array_equal(abs_pow_cell_masses(e, e, c), four_corner_masses(e, e, c))

    def test_equal_steps_with_offset(self):
        eu, ev = np.linspace(0, 1, 129), np.linspace(0.5, 1.5, 129)
        assert np.array_equal(abs_pow_cell_masses(eu, ev, -0.6), four_corner_masses(eu, ev, -0.6))

    # square, tall and wide, down to one row and one column
    @pytest.mark.parametrize("nu,nv", [(1, 1), (1, 7), (7, 1), (5, 5), (9, 4), (3, 11), (1024, 512)])
    def test_numpy_toeplitz_matches_scipy_bit_for_bit(self, nu, nv):
        import scipy.linalg

        k = np.random.default_rng(nu * 1000 + nv).standard_normal(nu + nv - 1)
        T = quadrature._toeplitz(k, nv)
        assert T.shape == (nu, nv) and T.flags.writeable and T.flags.c_contiguous
        assert T.tobytes() == scipy.linalg.toeplitz(k[nv - 1:], k[nv - 1::-1]).tobytes()

    def test_unequal_steps_take_four_corner_path(self, monkeypatch):
        eu, ev = np.linspace(0, 1, 129), np.linspace(0, 0.5, 129)
        calls = []
        monkeypatch.setattr(quadrature, "_toeplitz", lambda *a: calls.append(a))
        assert np.array_equal(abs_pow_cell_masses(eu, ev, -0.6), four_corner_masses(eu, ev, -0.6))
        assert calls == []
        # the covariance test case runs through this path
        v = inner_product_HH(IndicatorBox(0, 1), IndicatorBox(0, 0.5), 0.7, CFG)
        assert v == pytest.approx(0.5 * (1 + 0.5**1.4 - 0.5**1.4), rel=1e-9)
        assert calls == []

    # the last edge of linspace(0.2, 0.9, n+1) is one rounding off the step grid
    @pytest.mark.parametrize("lo,hi", [(0.0, 0.7), (0.3, 1.1), (0.2, 0.9)])
    @pytest.mark.parametrize("n", [100, 1000])
    @pytest.mark.parametrize("rule", ["exact_cell"])  # the one panel rule; case ids name it
    def test_values_match_four_corner_off_dyadic(self, monkeypatch, lo, hi, n, rule):
        cfg = QuadratureConfig(panels=n)
        cases = [(IndicatorBox(lo, hi), H) for H in (0.51, 0.75)]
        cases += [(ExpWindow(1.0, hi, lo), H) for H in (0.51, 0.75)]
        if n == 100:
            cases.append((IndicatorBox([lo, lo], [hi, hi]), (0.6, 0.8)))
        calls = []
        apply_lags = quadrature._apply_lags
        monkeypatch.setattr(quadrature, "_apply_lags", lambda *a: calls.append(a) or apply_lags(*a))
        vals = [inner_product_HH(f, f, H, cfg) for f, H in cases]
        assert len(calls) == sum(f.d for f, _ in cases)  # linspace edges take the lag path
        monkeypatch.setattr(quadrature, "_mass_kernel", four_corner_masses)
        refs = [inner_product_HH(f, f, H, cfg) for f, H in cases]
        # One lag's mass is shared by up to n panel pairs, so its rounding is
        # repeated, not averaged: over the 2n lags the gap grows like n^1.5 eps.
        tol = n**1.5 * np.finfo(float).eps
        for v, r in zip(vals, refs):
            assert abs(v - r) <= tol * abs(r)

    @pytest.mark.parametrize("lo,hi", [(0.0, 0.7), (0.3, 1.1)])
    @pytest.mark.parametrize("n", [100, 1000])
    def test_indicator_exact_off_dyadic(self, lo, hi, n):
        f = IndicatorBox(lo, hi)
        for H in (0.51, 0.75):
            target = (hi - lo) ** (2 * H)
            v = inner_product_HH(f, f, H, QuadratureConfig(panels=n))
            assert abs(v - target) <= 1e-11 * target


class TestApplyLags:
    """The FFT correlation against the dense Toeplitz contraction it replaces."""

    @pytest.mark.parametrize("H", [0.51, 0.75])
    @pytest.mark.parametrize("eu,ev", [
        (np.linspace(0, 1, 129), np.linspace(0.5, 1.5, 129)),  # offset edges
        (np.linspace(0, 1, 129), np.linspace(0, 0.5, 65)),  # nu != nv, one step
        (np.linspace(0, 0.5, 65), np.linspace(0, 1, 129)),
    ])
    def test_matches_dense_tensordot(self, eu, ev, H):
        c = 2 * H - 2
        lag = quadrature._mass_kernel(eu, ev, c)
        assert lag.ndim == 1
        M = abs_pow_cell_masses(eu, ev, c)
        rng = np.random.default_rng(3)
        nu = M.shape[0]
        # rounding of an n-point FFT grows like log2(n) eps, relative to the
        # largest entry of T times the largest column sum of the masses
        n_fft = len(eu) + len(ev) - 3
        gate = 8 * math.log2(n_fft) * np.finfo(float).eps
        for T, axis in ((rng.standard_normal(nu), 0), (np.ones(nu), 0),
                        (rng.standard_normal((nu, 5)), 0), (rng.standard_normal((4, nu)), 1)):
            ref = np.tensordot(T, M, axes=(axis, 0))
            got = quadrature._apply_lags(T, lag, axis)
            assert got.shape == ref.shape
            scale = np.max(np.abs(T)) * np.max(np.sum(M, axis=0))
            assert np.max(np.abs(got - ref)) <= gate * scale

    @pytest.mark.parametrize("shape,axis", [
        ((128,), 0), ((1000,), 0), ((128, 7), 0), ((6, 100), 1),
        ((30, 5, 4), 0), ((4, 45, 3), 1), ((3, 4, 64), 2),
    ])
    def test_bit_identical_to_scipy_fft(self, shape, axis):
        nu = shape[axis]
        # offset edges of one step, 80 panels on the v side
        lag = quadrature._mass_kernel(np.arange(nu + 1) / nu, 0.25 + np.arange(81) / nu, -0.6)
        assert lag.shape == (nu + 80 - 1,)
        T = np.random.default_rng(24).standard_normal(shape)
        # _apply_lags as it was written on scipy.fft
        n = sfft.next_fast_len(len(lag), real=True)
        kernel = sfft.rfft(lag[::-1], n).reshape((-1,) + (1,) * (T.ndim - axis - 1))
        ref = sfft.irfft(sfft.rfft(T, n, axis=axis) * kernel, n, axis=axis)
        ref = np.moveaxis(ref, axis, -1)[..., nu - 1:nu - 1 + 80]
        assert quadrature._apply_lags(T, lag, axis).tobytes() == ref.tobytes()

    def test_next_fast_len_is_scipys_real_length(self):
        ns = list(range(1, 5001)) + [2**20 + 1, 3**12 - 1, 10**6 + 7, 5**9 + 1, 2**24 - 3]
        assert [quadrature._next_fast_len(n) for n in ns] == [
            sfft.next_fast_len(n, real=True) for n in ns]

    def test_unequal_steps_keep_the_dense_matrix(self):
        k = quadrature._mass_kernel(np.linspace(0, 1, 129), np.linspace(0, 0.5, 129), -0.6)
        assert k.shape == (128, 128)


class TestConstants:
    def test_q_alpha_half(self):
        assert q_alpha(0.5) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_q_alpha_white_noise_limit(self):
        h = 0.51
        v = h * (2 * h - 1) * q_alpha(2 * h - 1)
        assert v == pytest.approx(1 / (2 * math.pi), rel=0.02)

    def test_q_alpha_vanishes_at_one(self):
        assert q_alpha(0.999) < 1e-2

    def test_q_alpha_domain(self):
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(DomainError):
                q_alpha(bad)

    def test_effective_exponents_case3(self):
        # gamma = gamma0 = d - sum of the limit H = 1/2 in d = 1; the heat
        # limit covariance grows as (2t)^(1 - gamma0) on the diagonal
        sc = LimitScenario(a_axes=(0,))
        assert 1 - sum(sc.target(1)) == pytest.approx(0.5)
        v1 = heat_limit_covariance(sc, None, 1.0, 1.0)
        v2 = heat_limit_covariance(sc, None, 2.0, 2.0)
        assert v2 / v1 == pytest.approx(2.0**0.5, rel=1e-12)

    def test_effective_exponents_fixed_axis(self):
        # gamma0 = d - k/2 - sum of the fixed H = 2 - 0.5 - 0.7
        sc = LimitScenario(a_axes=(0,), fixed={1: 0.7})
        gamma0 = 2 - 0.5 - 0.7
        assert 2 - sum(sc.target(2)) == pytest.approx(gamma0)
        v1 = heat_limit_covariance(sc, None, 1.0, 1.0)
        v2 = heat_limit_covariance(sc, None, 2.0, 2.0)
        assert v2 / v1 == pytest.approx(2.0 ** (1 - gamma0), rel=1e-12)

    def test_limit_constant_values(self):
        assert limit_constant([], 1) == pytest.approx((2 * math.pi) ** -0.5, rel=1e-12)
        from scipy.special import gamma as G
        v = limit_constant([0.75], 1)  # a fixed axis keeps H(2H-1) q_(2H-1) 2^(1-H) Gamma(1-H)
        fixed = 0.75 * 0.5 * q_alpha(0.5) * 2**0.25 * G(0.25)
        assert v == pytest.approx((2 * math.pi) ** -0.5 * fixed, rel=1e-12)

    def test_case3_white_noise_value(self):
        # limit_constant([], 1) * ((t+s)^(1/2) - |t-s|^(1/2)) at t = s = 1
        assert limit_constant([], 1) * math.sqrt(2) == pytest.approx(1 / math.sqrt(math.pi), rel=1e-12)
        v = heat_limit_covariance(LimitScenario(a_axes=(0,)), None, 1.0, 1.0)
        assert v == pytest.approx(1 / math.sqrt(math.pi), rel=1e-12)


class TestSigmaLimit:
    def test_exp_window(self):
        sc = LimitScenario(a_axes=(0,))
        v = sigma_limit(EXP, sc, QuadratureConfig(panels=2048))
        assert v == pytest.approx((1 - math.exp(-2)) / 2, rel=1e-5)

    def test_indicator(self):
        sc = LimitScenario(a_axes=(0,))
        assert sigma_limit(UNIT, sc, CFG) == pytest.approx(1.0, rel=1e-12)

    def test_zero(self):
        g = GridSpec(0, 1, 8)
        z = Tabulated(g, np.zeros(9))
        assert sigma_limit(z, LimitScenario(a_axes=(0,)), CFG) == 0.0

    def test_k_zero_rejected(self):
        with pytest.raises(DomainError):
            sigma_limit(EXP, LimitScenario(fixed={0: 0.7}), CFG)

    def test_matches_H_extrapolation(self):
        # quadrature values along H -> 1/2 approach the collapsed-diagonal value
        sc = LimitScenario(a_axes=(0,))
        cfg = QuadratureConfig(panels=1024)
        target = sigma_limit(EXP, sc, cfg)
        vals = [inner_product_HH(EXP, EXP, h, cfg) for h in (0.75, 0.65, 0.55, 0.51)]
        dists = [abs(v - target) for v in vals]
        assert all(dists[i + 1] < dists[i] for i in range(3))
        assert dists[-1] / target < 0.02

    def test_b_axis_factorizes(self):
        # with one axis driven to 1, the kernel on that axis integrates to
        # (int f)^2 per axis: for the unit square the result is int f^2 along
        # the collapsed axis times 1
        f = IndicatorBox([0, 0], [1, 1])
        sc = LimitScenario(a_axes=(0,), b_axes=(1,))
        assert sigma_limit(f, sc, CFG) == pytest.approx(1.0, rel=1e-12)


    @pytest.mark.parametrize("d,sc", [
        (1, LimitScenario(a_axes=(0,))),
        (2, LimitScenario(a_axes=(0,), fixed={1: 0.7})),
        (2, LimitScenario(a_axes=(1,), b_axes=(0,))),
        (3, LimitScenario(a_axes=(0,), b_axes=(2,), fixed={1: 0.6})),
    ])
    def test_matches_dense_kernels(self, d, sc):
        # the former form: diag(h) on A_k axes, outer(h, h) on B_p axes and
        # the dense singular-kernel masses on fixed axes, by tensordot
        g = GridSpec([0.0] * d, [1.0 + 0.5 * a for a in range(d)], [8] * d)
        f = Tabulated(g, np.exp(-np.sum(np.stack(np.meshgrid(
            *[g.axis_nodes(a) for a in range(d)], indexing="ij")), axis=0)))
        cfg = QuadratureConfig(panels=64)
        edges = [np.linspace(lo, hi, 65) for lo, hi in zip(*f.support())]
        F = f.eval(quadrature.midpoint_mesh(edges))
        T, pref = F, 1.0
        for a in range(f.d):
            h = np.diff(edges[a])
            if a in sc.a_axes:
                W = np.diag(h)
            elif a in sc.b_axes:
                W = np.outer(h, h)
            else:
                W = abs_pow_cell_masses(edges[a], edges[a], 2 * sc.fixed[a] - 2)
                pref *= sc.fixed[a] * (2 * sc.fixed[a] - 1)
            T = np.tensordot(T, W, axes=(0, 0))
        ref = pref * float(np.sum(T * F))
        assert sigma_limit(f, sc, cfg) == pytest.approx(ref, rel=1e-12)


class TestContraction:
    def test_zero_f(self):
        g = GridSpec(0, 1, 8)
        z = Tabulated(g, np.zeros(9))
        assert contraction_norm_sq(z, 0.7, 2, 1, CFG) == 0.0

    def test_formal_endpoint(self):
        assert contraction_norm_sq(UNIT, 1.0, 2, 1, CFG) == pytest.approx(0.25, rel=1e-9)

    def test_shrinks_toward_half(self):
        vals = [contraction_norm_sq(UNIT, h, 2, 1, CFG) for h in (0.51, 0.6, 0.75)]
        assert vals[0] < vals[1] < vals[2]

    def test_r_range_checked(self):
        with pytest.raises(DomainError):
            contraction_norm_sq(UNIT, 0.7, 2, 2, CFG)

    def test_d1_only(self):
        f = IndicatorBox([0, 0], [1, 1])
        with pytest.raises(UnsupportedError):
            contraction_norm_sq(f, 0.7, 2, 1, CFG)


class TestTimeKernelIntegral:
    def test_symmetry(self):
        a = fbm_time_kernel_integral(1.0, 0.6, 0.7, -0.3)
        b = fbm_time_kernel_integral(0.6, 1.0, 0.7, -0.3)
        assert a == pytest.approx(b, rel=1e-12)

    def test_zero_time(self):
        assert fbm_time_kernel_integral(0.0, 1.0, 0.7, -0.3) == 0.0

    def test_against_brute_force(self):
        # plain 2-D midpoint quadrature with exact |u-v| panel masses
        h0, g = 0.7, -0.3
        n = 800
        edges = np.linspace(0, 1, n + 1)
        from hermlab.quadrature import abs_pow_cell_masses

        W = abs_pow_cell_masses(edges, edges, 2 * h0 - 2)
        mids = 0.5 * (edges[:-1] + edges[1:])
        K = (2.0 - mids[:, None] - mids[None, :]) ** g
        ref = float(np.sum(W * K))
        val = fbm_time_kernel_integral(1.0, 1.0, h0, g)
        assert val == pytest.approx(ref, rel=2e-3)

    @pytest.mark.parametrize("t,s,h0,gexp", [
        (1.0, 0.999999, 0.5001, -0.95), (1.0, 0.5, 0.5001, -0.45), (2.0, 1.0, 0.7, -0.3),
    ])
    def test_against_mpmath_at_t_ne_s(self, t, s, h0, gexp):
        # 50-digit reference: incomplete Beta pieces, a complete Beta on
        # [0, D], and int_0^s x^a (D+x)^b dx = s^(a+1) D^b/(a+1)
        # 2F1(-b, a+1; a+2; -s/D), a hypergeometric form the code does not use
        with mpmath.workdps(50):
            tt, ss, G = mpmath.mpf(t), mpmath.mpf(s), mpmath.mpf(gexp) + 1
            T, D, c = tt + ss, tt - ss, 2 * mpmath.mpf(h0) - 2
            i1 = sum(T ** (c + G + 1) * mpmath.betainc(c + 1, G + 1, 0, L / T) for L in (ss, tt))
            i2 = D ** (c + G + 1) * mpmath.beta(c + 1, G + 1)
            for a, b in ((c, G), (G, c)):
                i2 += ss ** (a + 1) * D ** b / (a + 1) * mpmath.hyp2f1(-b, a + 1, a + 2, -ss / D)
            ref = float((i1 - i2) / (2 * G))
        assert abs(fbm_time_kernel_integral(t, s, h0, gexp) - ref) <= 1e-10 * abs(ref)
