import math
import os
import threading
import time
from concurrent.futures import Future

import mpmath
import numpy as np
import pytest
from numpy.polynomial.hermite_e import herme2poly
from scipy.special import erf, ndtr

from hermlab import stats
from hermlab.core import DomainError, ResourceError, derive_stream
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

    def test_q1_q2_match_closed_forms(self):
        x = np.concatenate([np.linspace(-3.0, 5.0, 801), [-1 / math.sqrt(2)]])
        assert np.max(np.abs(target_cdf_hermite_limit(1)(x) - ndtr(x))) <= 1e-14
        # (Z^2-1)/sqrt(2) <= x  <=>  Z^2 <= 1 + sqrt(2) x; P(Z^2 <= y) = erf(sqrt(y/2))
        y = 1.0 + math.sqrt(2.0) * x
        chi2 = np.where(y > 0.0, erf(np.sqrt(np.maximum(y, 0.0) / 2.0)), 0.0)
        got = target_cdf_hermite_limit(2)(x)
        assert np.max(np.abs(got - chi2)) <= 1e-14
        assert got[-1] == 0.0

    @pytest.mark.parametrize("q", [3, 4, 5, 6])
    def test_matches_mpmath_reference(self, q):
        x = np.linspace(-2.5, 4.5, 29) + 0.0123  # clear of the critical values
        ref = np.array([_mp_cdf(q, v) for v in x])
        assert np.max(np.abs(target_cdf_hermite_limit(q)(x) - ref)) <= 1e-14

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
    def test_mean_zero_variance_one(self, q):
        # E X = int_0^inf (1 - F(x)) - F(-x) dx, E X^2 = int_0^inf 2x (1 - F(x) + F(-x)) dx,
        # on x = u^q / sqrt(q!), which reaches P(|Z| > 10) at u = 10
        u = np.linspace(0.0, 10.0, 20001)
        norm = math.sqrt(math.factorial(q))
        x, dx = u**q / norm, q * u ** (q - 1) / norm
        cdf = target_cdf_hermite_limit(q)
        up, down = 1.0 - cdf(x), cdf(-x)
        assert abs(np.trapezoid((up - down) * dx, u)) <= 5e-5
        assert abs(np.trapezoid(2.0 * x * (up + down) * dx, u) - 1.0) <= 5e-5

    def test_shape_follows_input(self):
        cdf = target_cdf_hermite_limit(3)
        assert cdf(np.zeros((2, 3))).shape == (2, 3)
        assert float(cdf(0.0)) == pytest.approx(0.5, abs=1e-15)

    def test_order_validated(self):
        with pytest.raises(DomainError):
            target_cdf_hermite_limit(0)


def _mp_cdf(q: int, x: float) -> float:
    """P(H_q(Z) <= x sqrt(q!)) at 40 digits: the normal mass of the intervals
    between the real roots of H_q(z) - x sqrt(q!) where the polynomial is <= 0."""
    with mpmath.workdps(40):
        coeffs = [mpmath.mpf(c) for c in herme2poly([0] * q + [1])[::-1]]
        coeffs[-1] -= mpmath.mpf(x) * mpmath.sqrt(mpmath.factorial(q))
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
        cuts = [-mpmath.inf] + sorted(r.real for r in roots if abs(r.imag) < 1e-25) + [mpmath.inf]
        total = mpmath.mpf(0)
        for a, b in zip(cuts[:-1], cuts[1:]):
            inner = 0 if a == -mpmath.inf and b == mpmath.inf else (
                b - 1 if a == -mpmath.inf else a + 1 if b == mpmath.inf else (a + b) / 2)
            if mpmath.polyval(coeffs, inner) <= 0:
                total += mpmath.ncdf(b) - mpmath.ncdf(a)
        return float(total)


class TestCollect:
    def test_indexing_matches_streams(self):
        samples = collect_samples(lambda s: float(s.standard_normal()), 10, 42)
        expected = [float(derive_stream(42, i).standard_normal()) for i in range(10)]
        assert np.allclose(samples, expected)

    def test_thread_count_defaults_to_every_cpu(self):
        cpus = min(os.cpu_count() or 1, stats.THREAD_CAP)
        assert resolve_threads(None) == resolve_threads(0) == cpus
        assert resolve_threads(3) == 3
        assert resolve_threads(-2) == 1

    def test_thread_count_is_capped(self, monkeypatch):
        assert resolve_threads(stats.THREAD_CAP) == stats.THREAD_CAP
        with pytest.raises(ResourceError):
            resolve_threads(stats.THREAD_CAP + 1)
        monkeypatch.setattr(stats.os, "cpu_count", lambda: 10 * stats.THREAD_CAP)
        assert resolve_threads(None) == stats.THREAD_CAP

    def test_no_more_workers_than_replicates(self, monkeypatch):
        pools = []

        class InlinePool:  # runs each task at submit, so no thread starts
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        def sampler(s):
            return float(s.standard_normal())

        serial = collect_samples(sampler, 3, 11, threads=1)
        monkeypatch.setattr(stats, "ThreadPoolExecutor", InlinePool)
        assert np.array_equal(collect_samples(sampler, 3, 11, threads=8), serial)
        assert collect_samples(sampler, 1, 11, threads=8)[0] == serial[0]
        assert pools == [3]

    def test_short_replicates_stay_on_the_calling_thread(self):
        idents = set()
        samples = collect_samples(lambda s: idents.add(threading.get_ident()) or 3.0, 200, 1)
        assert idents == {threading.get_ident()}
        assert np.all(samples == 3.0)

    def test_slow_first_call_alone_keeps_the_calling_thread(self):
        idents, calls = set(), []

        def sampler(s):
            if not calls:
                time.sleep(0.01)  # a first-call cost far above SERIAL_BELOW_S
            calls.append(None)
            idents.add(threading.get_ident())
            return 3.0

        assert np.all(collect_samples(sampler, 200, 1) == 3.0)
        assert idents == {threading.get_ident()}

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_or_two_replicates(self, n):
        samples = collect_samples(lambda s: float(s.standard_normal()), n, 42)
        assert samples.tolist() == [float(derive_stream(42, i).standard_normal()) for i in range(n)]

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
