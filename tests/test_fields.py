import math

import numpy as np
import pytest
import scipy.fft as sfft
import scipy.linalg

from hermlab import fields
from hermlab.core import (
    DomainError,
    GridSpec,
    HermiteSpec,
    ResourceError,
    derive_stream,
    rectangle_increment,
)
from hermlab.fields import (
    ChaosKernel,
    chaos_oracle_sample,
    fgn_autocov,
    hermite_poly,
    simulate_fractional_gaussian_sheet,
    simulate_hermite_sheet,
)
from hermlab.stats import collect_samples

SEED = 1303


def streams(n, salt=0):
    return (derive_stream(SEED + salt, k) for k in range(n))


class TestHermitePoly:
    def test_low_orders(self):
        x = np.linspace(-3, 3, 11)
        assert np.allclose(hermite_poly(0, x), 1.0)
        assert np.allclose(hermite_poly(1, x), x)
        assert np.allclose(hermite_poly(2, x), x**2 - 1)
        assert np.allclose(hermite_poly(3, x), x**3 - 3 * x)

    def test_point_values(self):
        assert hermite_poly(2, 2.0) == pytest.approx(3.0)
        assert hermite_poly(3, 1.0) == pytest.approx(-2.0)

    def test_negative_degree(self):
        with pytest.raises(DomainError):
            hermite_poly(-1, 0.0)

    @pytest.mark.parametrize("q", range(7))
    def test_matches_reference_recurrence_bit_for_bit(self, q):
        x = derive_stream(SEED, 30).standard_normal((33, 17))[:, ::2]  # a strided view
        before = x.copy()
        ref_prev, ref = np.ones_like(x), x
        for n in range(1, q):
            ref, ref_prev = x * ref - n * ref_prev, ref
        got = hermite_poly(q, x)
        assert got.tobytes() == (ref_prev if q == 0 else ref).tobytes()
        assert got is not x
        assert x.tobytes() == before.tobytes()


class TestGaussianSheet:
    def test_origin_zero_and_shape(self):
        g = GridSpec([0, 0], [1, 1], [8, 8])
        f = simulate_fractional_gaussian_sheet((0.6, 0.8), g, derive_stream(SEED, 0))
        assert f.values.shape == (9, 9)
        assert f.values[0, 0] == 0.0
        assert np.all(f.values[0, :] == 0.0) and np.all(f.values[:, 0] == 0.0)

    def test_brownian_case_covariance(self):
        g = GridSpec(0, 1, 64)
        X = np.stack([
            simulate_fractional_gaussian_sheet(0.5, g, s).values for s in streams(2000)
        ])
        for i, j, target in ((32, 64, 0.5), (64, 64, 1.0)):
            prod = X[:, i] * X[:, j]
            se = prod.std() / math.sqrt(len(prod))
            assert abs(prod.mean() - target) < 3 * se

    def test_fbm_covariance_closed_form(self):
        g = GridSpec(0, 1, 64)
        X = np.stack([
            simulate_fractional_gaussian_sheet(0.7, g, s).values for s in streams(2000, 1)
        ])
        prod = X[:, 64] * X[:, 32]
        se = prod.std() / math.sqrt(len(prod))
        assert abs(prod.mean() - 0.5) < 3 * se  # R_0.7(1, 0.5) = 0.5

    def test_2d_unit_variance_corner(self):
        g = GridSpec([0, 0], [1, 1], [16, 16])
        v = np.array([
            simulate_fractional_gaussian_sheet((0.6, 0.8), g, s).values[-1, -1]
            for s in streams(2000, 2)
        ])
        se = np.std(v**2) / math.sqrt(len(v))
        assert abs(v.var() - 1.0) < 3 * se

    def test_hurst_domain(self):
        g = GridSpec(0, 1, 8)
        with pytest.raises(DomainError):
            simulate_fractional_gaussian_sheet(1.2, g, derive_stream(SEED, 0))


class TestHermiteSheet:
    def test_q1_matches_gaussian_generator(self):
        g = GridSpec(0, 1, 128)
        spec = HermiteSpec(1, 0.7)
        Z = np.stack([
            simulate_hermite_sheet(spec, g, 1024, s).values for s in streams(1500, 3)
        ])
        B = np.stack([
            simulate_fractional_gaussian_sheet(0.7, g, s).values for s in streams(1500, 4)
        ])
        for node in (64, 128):
            vz, vb = Z[:, node].var(), B[:, node].var()
            se = math.sqrt(np.std(Z[:, node] ** 2) ** 2 + np.std(B[:, node] ** 2) ** 2) / math.sqrt(1500)
            assert abs(vz - vb) < 3 * se

    def test_q2_variance_matches_t_2h(self):
        g = GridSpec(0, 1, 256)
        spec = HermiteSpec(2, 0.7)
        Z = np.stack([
            simulate_hermite_sheet(spec, g, 2**13, s).values for s in streams(1500, 5)
        ])
        for node, t in ((128, 0.5), (256, 1.0)):
            col = Z[:, node]
            se = np.std((col - col.mean()) ** 2) / math.sqrt(len(col))
            assert abs(col.var() - t**1.4) < 4 * se + 0.02 * t**1.4

    def test_self_similarity_variance_ratio(self):
        g = GridSpec(0, 1, 256)
        spec = HermiteSpec(2, 0.8)
        Z = np.stack([
            simulate_hermite_sheet(spec, g, 2**13, s).values for s in streams(1500, 6)
        ])
        ratio = Z[:, 128].var() / Z[:, 256].var()
        assert ratio == pytest.approx(0.5 ** (2 * 0.8), rel=0.25)

    def test_increment_variance_stationary(self):
        g = GridSpec(0, 1, 256)
        spec = HermiteSpec(2, 0.7)
        Z = np.stack([
            simulate_hermite_sheet(spec, g, 2**13, s).values for s in streams(1500, 7)
        ])
        v1 = (Z[:, 64] - Z[:, 0]).var()
        v2 = (Z[:, 192] - Z[:, 128]).var()
        se = math.sqrt(2.0 * (v1**2 + v2**2) / 1500) * 2
        assert abs(v1 - v2) < 4 * se + 0.02 * v1

    def test_marginal_approaches_gaussian_toward_half(self):
        # the sheet value at t=1 loses its chaos heavy tail as H drops to 1/2
        from hermlab.stats import excess_kurtosis

        g = GridSpec(0, 1, 64)
        kurt = {}
        for j, h in enumerate((0.55, 0.85)):
            vals = np.array([
                simulate_hermite_sheet(HermiteSpec(2, h), g, 2048,
                                       derive_stream(SEED + 20 + j, i)).values[-1]
                for i in range(3000)
            ])
            kurt[h] = abs(excess_kurtosis(vals))
        assert kurt[0.55] < kurt[0.85]

    def test_mesh_too_small_rejected(self):
        g = GridSpec(0, 1, 16)
        with pytest.raises(DomainError):
            simulate_hermite_sheet(HermiteSpec(2, 0.7), g, 32, derive_stream(SEED, 0))

    def test_origin_is_zero(self):
        g = GridSpec([0, 0], [1, 1], [16, 16])
        z = simulate_hermite_sheet(HermiteSpec(2, (0.7, 0.8)), g, 128, derive_stream(SEED, 0))
        assert z.values[0, 0] == 0.0

    @pytest.mark.parametrize("H,steps,n_internal", [
        (0.7, (128,), 1024), ((0.7, 0.8), (32, 16), 256),
    ], ids=["d1", "d2"])
    def test_values_are_the_padded_cumsum_of_the_increments(self, H, steps, n_internal):
        g = GridSpec([0.0] * len(steps), [1.0] * len(steps), steps)
        spec = HermiteSpec(2, H)
        incr = fields.hermite_sheet_increments(spec, g, n_internal, derive_stream(SEED + 31, 0))
        z = simulate_hermite_sheet(spec, g, n_internal, derive_stream(SEED + 31, 0))
        assert incr.shape == steps
        assert z.values.tobytes() == fields._padded_cumsum(incr).tobytes()
        assert z.meta.internal == max(fields.fine_mesh(steps, n_internal))

    def test_fine_mesh_rounds_to_whole_strides(self):
        assert fields.fine_mesh((512,), 2**14) == (2**14,)
        assert fields.fine_mesh((512, 512), 512) == (512, 512)
        assert fields.fine_mesh((100, 48, 1000), 1000) == (1000, 1008, 1000)
        with pytest.raises(DomainError):
            fields.fine_mesh((16,), 63)

    def test_gaussian_sheet_is_the_q1_stride1_hermite_sheet(self):
        g = GridSpec([0, 0], [1, 2], [64, 96])  # n_internal 64 rounds to stride 1 on both
        for rep in range(2):
            B = simulate_fractional_gaussian_sheet((0.6, 0.8), g, derive_stream(SEED + 8, rep))
            Z = simulate_hermite_sheet(HermiteSpec(1, (0.6, 0.8)), g, 64,
                                       derive_stream(SEED + 8, rep))
            assert B.values.tobytes() == Z.values.tobytes()
            assert B.meta.internal == Z.meta.internal == 96

    def test_circulant_cap_refused_before_allocation(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(fields, "_circulant_eigs", reached)
        monkeypatch.setattr(fields, "_SQRT_EIG_CACHE", {})  # so the first draw misses
        stream = derive_stream(SEED, 0)
        big = GridSpec([0, 0], [1, 1], [512, 512])
        with pytest.raises(ResourceError):  # (2 * 2**14)**2 = 2**30 circulant cells
            simulate_hermite_sheet(HermiteSpec(2, (0.7, 0.7)), big, 2**14, stream)
        with pytest.raises(ResourceError):
            simulate_fractional_gaussian_sheet((0.7, 0.3), GridSpec([0, 0], [1, 1], [4097, 4096]),
                                               stream)
        with pytest.raises(Reached):  # exactly SHEET_CELL_CAP cells is served
            simulate_fractional_gaussian_sheet((0.7, 0.3), GridSpec([0, 0], [1, 1], [4096, 4096]),
                                               stream)


class TestChaosOracle:
    def grid(self):
        return GridSpec(0.0, 1.0, 32)

    def test_q1_variance_is_l2_norm(self):
        K = ChaosKernel.from_function(1, self.grid(), lambda a: np.exp(-a[..., 0]))
        xs = np.array([chaos_oracle_sample(K, s) for s in streams(4000, 8)])
        target = K.offdiag_norm_sq()
        se = np.std(xs**2) / math.sqrt(len(xs))
        assert abs(xs.var() - target) < 4 * se

    def test_q2_variance_is_twice_l2(self):
        K = ChaosKernel.from_function(2, self.grid(), lambda a, b: np.ones(a.shape[:-1]))
        xs = np.array([chaos_oracle_sample(K, s) for s in streams(4000, 9)])
        target = 2.0 * K.offdiag_norm_sq()
        se = np.std(xs**2) / math.sqrt(len(xs))
        assert abs(xs.var() - target) < 4 * se

    def test_mean_zero(self):
        K = ChaosKernel.from_function(2, self.grid(), lambda a, b: np.exp(-a[..., 0] - b[..., 0]))
        xs = np.array([chaos_oracle_sample(K, s) for s in streams(4000, 10)])
        assert abs(xs.mean()) < 4 * xs.std() / math.sqrt(len(xs))

    def test_orthogonality_across_orders(self):
        K1 = ChaosKernel.from_function(1, self.grid(), lambda a: np.ones(a.shape[:-1]))
        K2 = ChaosKernel.from_function(2, self.grid(), lambda a, b: np.ones(a.shape[:-1]))
        p = np.empty(4000)
        for i, s in enumerate(streams(4000, 11)):
            x1 = chaos_oracle_sample(K1, s)
            s2 = derive_stream(SEED + 11, i)  # same white noise for both orders
            x2 = chaos_oracle_sample(K2, s2)
            p[i] = x1 * x2
        assert abs(p.mean()) < 4 * p.std() / math.sqrt(len(p))

    def test_cap_enforced(self):
        big = GridSpec(0.0, 1.0, 256)
        with pytest.raises(ResourceError):
            ChaosKernel.from_function(3, big, lambda a, b, c: np.ones(a.shape[:-1]))


class TestCirculant:
    def test_autocov_values(self):
        rho = fgn_autocov(0.5, 8)
        assert rho[0] == pytest.approx(1.0)
        assert np.allclose(rho[1:], 0.0)  # white noise at H=1/2

    def test_field_increment_additivity(self):
        g = GridSpec([0, 0], [1, 1], [8, 8])
        f = simulate_fractional_gaussian_sheet((0.7, 0.7), g, derive_stream(SEED, 3))
        whole = rectangle_increment(f, (0, 0), (8, 8))
        left = rectangle_increment(f, (0, 0), (4, 8))
        right = rectangle_increment(f, (4, 0), (8, 8))
        assert whole == pytest.approx(left + right, abs=1e-10)

    @pytest.mark.parametrize("shape,hursts", [
        ((32,), (0.7,)), ((8, 4), (0.7, 0.6)), ((6, 4, 4), (0.7, 0.6, 0.8)),
    ])
    def test_real_noise_embedding_covariance_is_exact(self, shape, hursts, monkeypatch):
        # the sampler is linear in its noise, 2 prod(half) normals drawn as
        # the real and imaginary parts of the half spectrum, so its covariance
        # is A A^T with column j the output for the unit noise vector e_j
        monkeypatch.setattr(fields, "_SQRT_EIG_CACHE", {})
        q = 2
        scale = fields._spectral_scale(hursts, q, shape)
        half = tuple(2 * n for n in shape[:-1]) + (shape[-1] + 1,)

        class Unit:
            def __init__(self, j):
                self.j = j

            def standard_normal(self, size):
                e = np.zeros(size)
                e.reshape(-1)[self.j] = 1.0
                return e

        A = np.stack([
            fields._stationary_unit_field(scale, Unit(j)).reshape(-1)
            for j in range(2 * math.prod(half))
        ], axis=1)
        target = np.ones((1, 1))
        for h, n in zip(hursts, shape):
            target = np.kron(target, scipy.linalg.toeplitz(fgn_autocov(h, n)[:n] ** (1.0 / q)))
        assert np.abs(A @ A.T - target).max() < 1e-12

    def test_axis_by_axis_inverse_matches_irfftn(self, monkeypatch):
        monkeypatch.setattr(fields, "_SQRT_EIG_CACHE", {})
        shape = (16, 12, 8)
        scale = fields._spectral_scale((0.7, 0.7, 0.7), 2, tuple(m // 2 for m in shape))
        half = (16, 12, 5)
        assert scale.shape == half
        z = derive_stream(SEED, 12).standard_normal(half + (2,)).view(np.complex128)[..., 0]
        ref = sfft.irfftn(scale * z, s=shape)[:8, :6, :4]
        got = fields._stationary_unit_field(scale, derive_stream(SEED, 12))
        assert np.allclose(got, ref, rtol=0, atol=1e-13)

    def test_block_sum_matches_fine_cumsum_at_grid_nodes(self):
        rng = np.random.default_rng(5)
        incr = rng.standard_normal((12, 8))
        strides = (3, 2)
        fine = fields._padded_cumsum(incr)[::3, ::2]
        coarse = fields._padded_cumsum(fields._block_sum(incr, strides))
        assert coarse.shape == (5, 5)
        assert np.allclose(coarse, fine, rtol=0, atol=1e-13)
        assert fields._block_sum(incr, (1, 1)) is incr

    def test_eigenvalue_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(fields, "_SQRT_EIG_CACHE", {})
        for n in range(64, 64 + 3 * fields._CACHE_SIZE):
            fields._spectral_scale((0.7,), 2, (n,))
        assert len(fields._SQRT_EIG_CACHE) == fields._CACHE_SIZE
        assert ((0.7,), 2, (64 + 3 * fields._CACHE_SIZE - 1,)) in fields._SQRT_EIG_CACHE

    def test_cached_eigenvalues_skip_the_autocovariance(self, monkeypatch):
        monkeypatch.setattr(fields, "_SQRT_EIG_CACHE", {})
        g = GridSpec(0, 1, 16)
        first = simulate_hermite_sheet(HermiteSpec(2, 0.65), g, 100, derive_stream(SEED, 0))

        def fail(*args):
            raise AssertionError("autocovariance recomputed on a cache hit")

        monkeypatch.setattr(fields, "fgn_autocov", fail)
        again = simulate_hermite_sheet(HermiteSpec(2, 0.65), g, 100, derive_stream(SEED, 0))
        assert again.values.tobytes() == first.values.tobytes()

    def test_nearby_hurst_draws_its_own_spectrum(self, monkeypatch):
        # the cache key is the exact H: a sheet at 0.7 + 4e-13 does not
        # depend on whether a sheet at 0.7 was drawn earlier in the process
        g = GridSpec(0, 1, 32)

        def draw(H):
            return simulate_hermite_sheet(HermiteSpec(2, H), g, 256,
                                          derive_stream(SEED, 21)).values.tobytes()

        with monkeypatch.context() as m:  # reference drawn with no cache at all
            m.setattr(fields, "_cached", lambda cache, key, compute: compute())
            cold = draw(0.7 + 4e-13)
        monkeypatch.setattr(fields, "_SQRT_EIG_CACHE", {})
        draw(0.7)
        assert draw(0.7 + 4e-13) == cold

    def test_shared_scale_is_read_only_and_thread_independent(self, monkeypatch):
        g = GridSpec(0, 1, 16)

        def sampler(stream):
            return simulate_hermite_sheet(HermiteSpec(2, 0.7), g, 128, stream).values

        runs = []
        for threads in (1, 2):
            monkeypatch.setattr(fields, "_SQRT_EIG_CACHE", {})
            runs.append(collect_samples(sampler, 16, SEED, threads=threads).tobytes())
        assert runs[0] == runs[1]
        (scale,) = fields._SQRT_EIG_CACHE.values()
        with pytest.raises(ValueError):
            scale[0] = 0.0
