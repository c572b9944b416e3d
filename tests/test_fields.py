import functools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as sfft
import scipy.linalg

from hermlab import fields
from hermlab.core import (
    DomainError,
    GridSpec,
    HermiteSpec,
    IndicatorBox,
    ResourceError,
    derive_stream,
)
from hermlab.fields import (
    ChaosKernel,
    chaos_oracle_sample,
    fgn_autocov,
    hermite_poly,
    simulate_fractional_gaussian_sheet,
    simulate_hermite_sheet,
)
from hermlab.integrals import WienerFunctional
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


def out_of_place_scale(Hs, q, N):
    """The spectral scale by the out-of-place formula: np.fft.fft of the
    concatenated even extension of rho_H^(1/q), real part clamped at 0, the
    outer product of the axes' eigenvalues, then np.sqrt."""
    eigs = []
    for H, n in zip(Hs, N):
        k = np.arange(n + 1, dtype=float)
        rho = 0.5 * ((k + 1.0) ** (2 * H) - 2.0 * k ** (2 * H) + np.abs(k - 1.0) ** (2 * H))
        rho = rho ** (1.0 / q)
        c = np.concatenate([rho[:n], [rho[n]], rho[n - 1:0:-1]])
        eigs.append(np.maximum(np.fft.fft(c).real, 0.0))
    last = eigs[-1][: N[-1] + 1] * (0.5 * math.prod(len(e) for e in eigs))
    last[[0, -1]] *= 2.0
    return np.sqrt(functools.reduce(np.multiply.outer, eigs[:-1] + [last]))


def scipy_unit_field(scale, stream):
    """_stationary_unit_field with scipy.fft, as it was written before
    numpy.fft took over: ifft with overwrite_x along each leading axis, the
    unused half dropped after each, then irfft along the last axis."""
    shape = scale.shape[:-1] + (2 * (scale.shape[-1] - 1),)
    x = stream.standard_normal(scale.shape + (2,)).view(np.complex128)[..., 0]
    x *= scale
    for a, m in enumerate(shape[:-1]):
        x = sfft.ifft(x, axis=a, overwrite_x=True)
        x = x[(slice(None),) * a + (slice(0, m // 2),)]
    x = sfft.irfft(x, n=shape[-1], axis=-1)
    return x[..., : shape[-1] // 2]


def faults_per_replicate(argv: str, pad: int) -> float:
    """Minor page faults per replicate of `hermlab <argv>` run through
    cli.main in a fresh process, counted after three warm replicates; the
    environment carries `pad` extra bytes, which moves the heap layout."""
    probe = (
        "import io, contextlib, resource, sys\n"
        "import hermlab.cli\n"
        "from hermlab import stats\n"
        "def counted(sampler, n, seed, threads=None):\n"
        "    stats.collect_samples(sampler, 3, seed + 1, threads)\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    out = stats.collect_samples(sampler, n, seed, threads)\n"
        "    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / n,"
        " file=sys.stderr)\n"
        "    return out\n"
        "hermlab.cli.collect_samples = counted\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert hermlab.cli.main({argv.split()!r}) == 0\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               HERMLAB_TEST_PAD="x" * pad)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stderr.split()[-1])


class TestCirculant:
    @pytest.mark.parametrize("N,hursts,q", [
        ((2**12,), (0.7,), 2), ((1000,), (0.9,), 3), ((3 * 7 * 11,), (0.6,), 1),
        ((64, 48), (0.7, 0.6), 2), ((12, 35), (0.95, 0.65), 1),
        ((16, 12, 8), (0.7, 0.6, 0.8), 3), ((5, 9, 6), (0.55, 0.75, 0.65), 2),
    ])
    def test_numpy_fft_bit_identical_to_scipy_fft(self, N, hursts, q, monkeypatch):
        monkeypatch.setattr(fields, "_SQRT_EIG_CACHE", {})
        scale = fields._spectral_scale(hursts, q, N)
        got = fields._stationary_unit_field(scale, derive_stream(SEED, 24))
        ref = scipy_unit_field(scale, derive_stream(SEED, 24))
        assert got.shape == ref.shape == N
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape,hursts,q", [
        (shape, hursts, q)
        for shape, hursts in [
            ((1,), (0.7,)), ((7,), (0.55,)), ((1000,), (0.9,)), ((2**12 + 1,), (0.75,)),
            ((8, 5), (0.7, 0.6)), ((1, 3), (0.95, 0.65)), ((6, 4, 3), (0.7, 0.6, 0.8)),
        ]
        for q in (1, 2, 3)
    ] + [((9, 16), (0.7, 0.3), 1)])  # the Gaussian sheet takes H below 1/2
    def test_scale_bit_identical_to_out_of_place_formula(self, shape, hursts, q, monkeypatch):
        monkeypatch.setattr(fields, "_SQRT_EIG_CACHE", {})
        got = fields._spectral_scale(hursts, q, shape)
        assert got.tobytes() == out_of_place_scale(hursts, q, shape).tobytes()

    def test_setup_traced_peak_per_circulant_cell(self, monkeypatch):
        """Traced peak of one 1-D spectral set-up at N = 2^16, in bytes per
        circulant cell (2N cells).  Measured 24.0: the complex128 buffer
        (16 B) and the float64 eigenvalues read out of it (8 B); the
        out-of-place set-up read 44.0.  The bound is 26, a margin of 2 B per
        cell, half of the smallest array the set-up makes (N + 1 floats), so
        any further full-length temporary crosses it.  tracemalloc sees
        numpy's buffers but not pocketfft's scratch inside the transform."""
        n = 2**16
        monkeypatch.setattr(fields, "_SQRT_EIG_CACHE", {})
        fields._spectral_scale((0.7,), 2, (64,))  # imports and FFT set-up outside the trace
        tracemalloc.start()
        try:
            fields._spectral_scale((0.7,), 2, (n,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (2 * n) < 26.0

    def test_draw_traced_peak_per_circulant_cell(self, monkeypatch):
        """Traced peak of a multi-axis draw, in bytes per circulant cell, once
        the thread holds its noise buffer: a 2-D draw at N = (256, 256) (512^2
        cells) and a 3-D draw at N = (64, 64, 64) (128^3 cells).  Measured
        0.51 and 0.06: the last pass writes its real output into the half of
        axis 0 that the first pass drops, so what remains is numpy's ~130 KB
        casting buffer for the complex-by-real scale multiply, whatever the
        size.  A fresh real output adds 4 B per cell in 2-D (2 B in 3-D), an
        out-of-place leading pass a half spectrum, a fresh noise array 8 B.
        Each bound is the measurement plus half the smallest array in play,
        the unit field the draw hands on (prod N floats: 2 B per cell in 2-D,
        1 B in 3-D), so any fresh full-length array crosses it."""
        for N, bound in [((256, 256), 1.5), ((64, 64, 64), 0.6)]:
            monkeypatch.setattr(fields, "_SQRT_EIG_CACHE", {})
            scale = fields._spectral_scale((0.7, 0.6, 0.8)[: len(N)], 2, N)
            fields._stationary_unit_field(scale, derive_stream(SEED, 0))
            tracemalloc.start()
            try:
                fields._stationary_unit_field(scale, derive_stream(SEED, 1))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / math.prod(2 * n for n in N) < bound, N
        fields.release_noise_buffer()

    @pytest.mark.parametrize("N", [(64,), (64, 60), (66, 65, 64)])
    def test_draws_on_one_thread_do_not_share_memory(self, N, monkeypatch):
        """The increments are the caller's own array: later draws on the
        same thread, through hermite_sheet_increments and through
        WienerFunctional.sample (which multiplies its increments in place),
        leave them byte-unchanged, and they share no memory with a later
        draw or with the noise buffer that holds a multi-axis unit field.
        N is both the grid and the fine mesh, so no block sum copies the
        q = 1 increments: H_1 itself must return a fresh array."""
        monkeypatch.setattr(fields, "_SQRT_EIG_CACHE", {})
        d = len(N)
        grid = GridSpec([0.0] * d, [1.0] * d, N)
        hurst = (0.7, 0.6, 0.8)[:d]
        gaussian, rosenblatt = HermiteSpec(1, hurst), HermiteSpec(2, hurst)
        functional = WienerFunctional(IndicatorBox([0.0] * d, [0.5] * d), grid)
        first = fields.hermite_sheet_increments(gaussian, grid, 64, derive_stream(SEED, 2))
        kept = first.copy()
        assert math.isfinite(functional.sample(rosenblatt, 64, derive_stream(SEED, 3)))
        second = fields.hermite_sheet_increments(gaussian, grid, 64, derive_stream(SEED, 4))
        assert first.tobytes() == kept.tobytes()
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, fields._NOISE.buf)
        fields.release_noise_buffer()

    @pytest.mark.parametrize("N", [(64,), (16, 12), (6, 5, 4)])
    def test_unit_field_lives_in_the_noise_buffer_past_one_axis(self, N, monkeypatch):
        """A 1-D unit field is a fresh array, since its noise buffer has no
        dropped half; a multi-axis one is a view on the thread's noise
        buffer, valid until that thread's next draw."""
        monkeypatch.setattr(fields, "_SQRT_EIG_CACHE", {})
        scale = fields._spectral_scale((0.7,) * len(N), 2, N)
        first = fields._stationary_unit_field(scale, derive_stream(SEED, 2))
        assert np.shares_memory(first, fields._NOISE.buf) == (len(N) > 1)
        if len(N) == 1:
            kept = first.copy()
            second = fields._stationary_unit_field(scale, derive_stream(SEED, 3))
            assert first.tobytes() == kept.tobytes()
            assert not np.shares_memory(first, second)
        fields.release_noise_buffer()

    def test_collect_samples_releases_the_noise_buffer(self, monkeypatch):
        monkeypatch.setattr(fields, "_SQRT_EIG_CACHE", {})
        grid = GridSpec(0.0, 1.0, 16)
        spec = HermiteSpec(2, 0.7)

        def sampler(stream):
            incr = fields.hermite_sheet_increments(spec, grid, 256, stream)
            assert fields._NOISE.buf.shape == (257, 2)  # kept between replicates
            return float(incr.sum())

        fields.release_noise_buffer()
        collect_samples(sampler, 4, SEED, threads=1)
        assert not hasattr(fields._NOISE, "buf")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor faults as Linux counts them")
    @pytest.mark.parametrize("pad", [1000, 3000, 6000])
    def test_replicates_do_not_fault_the_heap_in_again(self, pad):
        """A default `integral` run through cli.main: after three warm
        replicates, the next 100 take 2.3 minor page faults each, the noise
        buffer's first touch spread over the run.  A draw that frees its
        noise as well as numpy.fft's plan and scratch took 224 each, the
        allocator returning the heap top to the system at every replicate.
        Whether it does so depends on the heap layout, so the probe runs
        under environments of three sizes; the bound is 20."""
        assert faults_per_replicate("integral --hurst 0.7 --reps 100 --threads 1", pad) < 20.0

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor faults as Linux counts them")
    def test_multi_axis_replicates_fault_no_output_in(self):
        """A d = 2 `heat` run on a 1024^2 circulant: 12.2 minor page faults
        per replicate with the last pass's real output written into the
        dropped half of the noise buffer, against 25.8 when every draw
        allocated a fresh 4 MB output.  The bound is 20."""
        argv = "heat --h0 0.55 --hurst 0.55 --trunc 4 --reps 40 --threads 1"
        assert faults_per_replicate(argv, 1000) < 20.0

    def test_autocov_values(self):
        rho = fgn_autocov(0.5, 8)
        assert rho[0] == pytest.approx(1.0)
        assert np.allclose(rho[1:], 0.0)  # white noise at H=1/2

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

            def standard_normal(self, size=None, out=None):  # as Generator's
                e = np.zeros(size) if out is None else out
                e[...] = 0.0
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
