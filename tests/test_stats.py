import math
import os
import threading

import numpy as np
import pytest

from hermlab.core import DomainError, derive_stream
from hermlab.stats import (
    collect_samples,
    excess_kurtosis,
    ks_distance,
    report_from_samples,
    resolve_threads,
    target_cdf_hermite_limit,
)


class TestMCReport:
    def test_constant_sampler(self):
        rep = report_from_samples(collect_samples(lambda s: 3.0, 100, 1), 1)
        assert rep.mean == 3.0
        assert rep.variance == 0.0
        assert rep.stderr_mean == 0.0

    def test_standard_normal_mean(self):
        rep = report_from_samples(
            collect_samples(lambda s: float(s.standard_normal()), 10**5, 1), 1)
        assert abs(rep.mean) < 4 / math.sqrt(10**5)

    def test_chaos_variance_within_stderr(self):
        def sampler(s):
            z = float(s.standard_normal())
            return (z * z - 1.0) / math.sqrt(2.0)

        rep = report_from_samples(collect_samples(sampler, 10**5, 2), 2)
        assert abs(rep.variance - 1.0) < 4 * rep.stderr_variance

    def test_thread_count_invariance(self):
        def sampler(s):
            return float(s.standard_normal(16).sum())

        r1 = report_from_samples(collect_samples(sampler, 500, 7, threads=1), 7)
        r4 = report_from_samples(collect_samples(sampler, 500, 7, threads=4), 7)
        assert r1.mean == r4.mean
        assert r1.variance == r4.variance

    def test_n_too_small(self):
        with pytest.raises(DomainError):
            report_from_samples(collect_samples(lambda s: 0.0, 1, 0), 0)


class TestKurtosis:
    def test_normal_near_zero(self):
        z = derive_stream(3, 0).standard_normal(10**5)
        assert abs(excess_kurtosis(z)) < 0.1

    def test_second_chaos_near_12(self):
        z = derive_stream(4, 0).standard_normal(10**5)
        k = excess_kurtosis((z**2 - 1) / math.sqrt(2))
        assert abs(k - 12.0) < 1.5

    def test_affine_invariance_exact(self):
        x = derive_stream(5, 0).standard_normal(500)
        assert excess_kurtosis(5.0 * x - 2.0) == pytest.approx(excess_kurtosis(x), rel=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            excess_kurtosis(np.zeros(200))
        with pytest.raises(DomainError):
            excess_kurtosis(np.arange(10.0))


class TestKS:
    def test_hand_example(self):
        d = ks_distance(np.array([0.25, 0.5, 0.75]), lambda x: np.clip(x, 0, 1))
        assert d == pytest.approx(0.25)

    def test_self_distance_small(self):
        from scipy.special import ndtr

        z = derive_stream(6, 0).standard_normal(10**5)
        assert ks_distance(z, ndtr) < 0.01

    def test_shifted_normal_far(self):
        from scipy.special import ndtr

        z = derive_stream(7, 0).standard_normal(10**4) + 1.0
        assert ks_distance(z, ndtr) > 0.3

    def test_bounded(self):
        z = derive_stream(8, 0).standard_normal(100)
        assert 0.0 <= ks_distance(z, lambda x: np.zeros_like(x)) <= 1.0


class TestTargetCDF:
    def test_q1_at_zero(self):
        cdf = target_cdf_hermite_limit(1)
        assert float(cdf(np.array([0.0]))[0]) == pytest.approx(0.5)

    def test_q2_left_endpoint_and_median_region(self):
        cdf = target_cdf_hermite_limit(2)
        lo = -1 / math.sqrt(2)
        assert float(cdf(np.array([lo]))[0]) == pytest.approx(0.0, abs=1e-12)
        assert float(cdf(np.array([lo - 0.5]))[0]) == 0.0
        assert float(cdf(np.array([0.0]))[0]) == pytest.approx(0.6826895, abs=1e-6)

    def test_q2_matches_samples(self):
        cdf = target_cdf_hermite_limit(2)
        z = derive_stream(9, 0).standard_normal(10**5)
        samples = (z**2 - 1) / math.sqrt(2)
        assert ks_distance(samples, cdf) < 0.01

    def test_q3_empirical_mode(self):
        cdf = target_cdf_hermite_limit(3)
        z = derive_stream(10, 0).standard_normal(2 * 10**4)
        samples = (z**3 - 3 * z) / math.sqrt(6)
        assert ks_distance(samples, cdf) < 0.02


class TestCollect:
    def test_indexing_matches_streams(self):
        samples = collect_samples(lambda s: float(s.standard_normal()), 10, 42)
        expected = [float(derive_stream(42, i).standard_normal()) for i in range(10)]
        assert np.allclose(samples, expected)

    def test_thread_count_defaults_to_every_cpu(self):
        assert resolve_threads(None) == resolve_threads(0) == (os.cpu_count() or 1)
        assert resolve_threads(3) == 3
        assert resolve_threads(-2) == 1

    def test_short_replicates_stay_on_the_calling_thread(self):
        idents = set()
        samples = collect_samples(lambda s: idents.add(threading.get_ident()) or 3.0, 200, 1)
        assert idents == {threading.get_ident()}
        assert np.all(samples == 3.0)

    def test_explicit_threads_are_honoured(self):
        idents = set()
        both_in = threading.Barrier(2, timeout=30)

        def sampler(s):
            idents.add(threading.get_ident())
            both_in.wait()  # each worker holds one replicate until the other arrives
            return 3.0

        assert np.all(collect_samples(sampler, 2, 1, threads=2) == 3.0)
        assert len(idents) == 2 and threading.get_ident() not in idents

    @pytest.mark.parametrize("threads", [1, 2])
    def test_vector_sampler_matches_stacked_loop(self, threads):
        def sampler(s):
            return s.standard_normal(3) * np.arange(1.0, 4.0)

        samples = collect_samples(sampler, 25, 42, threads=threads)
        expected = np.stack([sampler(derive_stream(42, i)) for i in range(25)])
        assert samples.shape == (25, 3)
        assert samples.tobytes() == expected.tobytes()
