"""Closed-form rate machinery: variance, MMSE scale, computation rate."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cfrates.linalg import gram_effective, gram_plain
from cfrates.rates import comp_rate, effective_variance, optimal_beta


def golden_section_min(f, lo, hi, iters=200):
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    for _ in range(iters):
        if f(c) < f(d):
            b = d
        else:
            a = c
        c = b - phi * (b - a)
        d = a + phi * (b - a)
    return 0.5 * (a + b)


class TestEffectiveVariance:
    def test_zero_beta(self):
        # at beta=0 the variance is snr * sum(a^2 * b_sq)
        assert effective_variance([1.0, 2.0], [1, -2], 0.0, 7.0, [1.0, 3.0]) == pytest.approx(
            7.0 * (1 + 4 * 3), rel=1e-15
        )

    def test_perfect_match_leaves_unit_noise(self):
        h = [0.3, 1.7, -2.0]
        assert effective_variance(h, h, 1.0, 123.0) == pytest.approx(1.0, rel=1e-12)

    def test_sum_past_the_float_range_is_inf(self):
        # each term is 1.69e308; math.fsum raises on the overflowing partial sum
        assert effective_variance([1.0, 1.0], [1.3e154, 1.3e154], 0.0, 1.0) == math.inf

    def test_reference_pair(self):
        snr = 10**1.5
        h = [math.sqrt(5), 1.0]
        a = [2, 1]
        beta = optimal_beta(h, a, snr)
        sigma2 = effective_variance(h, a, beta, snr)
        assert 0.5 * math.log2(snr / sigma2) == pytest.approx(2.409, abs=2e-3)


class TestOptimalBeta:
    def test_numerator_past_the_float_range(self):
        # snr * g^T B a is about 5e315, past the floats, though beta is about 2.2e15
        g, a, snr = [1.0, 1.1], [2**51, 2476979795053773], 1e300
        exact = Fraction(snr) * sum(Fraction(x) * y for x, y in zip(g, a)) / (1 + Fraction(snr) * sum(Fraction(x) ** 2 for x in g))
        assert optimal_beta(g, a, snr) == float(exact)  # one int / int division: the exact value rounded once
        assert comp_rate(g, a, snr).beta == optimal_beta(g, a, snr)

    @pytest.mark.parametrize(
        "g, a, snr, message",
        [
            ([1.0, 1.1], [math.inf, 1.0], 10.0, "beta is not finite"),
            ([1.0, 1.1], [math.nan, 1.0], 10.0, "NaN"),
            ([1e-200, 1e-200], [1e308, 1e308], 1e300, "beta is not finite"),  # beta is about 2e408
        ],
        ids=["inf-a", "nan-a", "beta-past-the-floats"],
    )
    def test_non_finite_a_or_beta_rejected(self, g, a, snr, message):
        # beta is an integer ratio of a's mantissas, which an inf or nan entry has not; the float form returned inf or nan
        with pytest.raises(ValueError, match=message):
            optimal_beta(g, a, snr)

    def test_parallel_closed_form(self):
        h = np.array([1.0, 2.0, -1.0])
        snr = 25.0
        beta = optimal_beta(h, 3 * h, snr)
        assert beta == pytest.approx(3 * snr * float(h @ h) / (1 + snr * float(h @ h)), rel=1e-12)

    def test_against_golden_section(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            h = rng.normal(size=k)
            snr = 10 ** rng.uniform(-1, 2)
            a = rng.integers(-4, 5, size=k)
            if not a.any():
                a[-1] = 2
            beta = optimal_beta(h, a, snr)
            found = golden_section_min(lambda b: effective_variance(h, a, b, snr), -20.0, 20.0)
            # argmin localization is sqrt(eps)-limited near a flat minimum
            assert beta == pytest.approx(found, abs=1e-6)
            assert effective_variance(h, a, beta, snr) <= effective_variance(h, a, found, snr) + 1e-12

    def test_perturbation_never_improves(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            g = rng.normal(size=k)
            b_sq = rng.uniform(1.0, 4.0, size=k)
            snr = 10 ** rng.uniform(-1, 3)
            a = rng.integers(-3, 4, size=k)
            if not a.any():
                a[0] = 1
            beta = optimal_beta(g, a, snr, b_sq)
            best = effective_variance(g, a, beta, snr, b_sq)
            for eps in (-1e-3, 1e-3):
                assert effective_variance(g, a, beta + eps, snr, b_sq) >= best


class TestCompRate:
    def test_point_to_point(self):
        for snr in (1.0, 10.0, 1e3):
            res = comp_rate([1.0, 0.0], [1, 0], snr)
            assert res.r_comp == pytest.approx(0.5 * math.log2(1 + snr), rel=1e-12)

    def test_reference_second_combination(self):
        res = comp_rate([math.sqrt(5), 1.0], [3, 1], 10**1.5)
        assert res.r_comp == pytest.approx(1.372, abs=2e-3)

    def test_interference_decoding_closed_form(self):
        # gains (1, g), weights (1, K-1), a=(0,1):
        # rate = 0.5*log2((1+snr(1+g^2(K-1))) / ((K-1)(1+snr)))
        for k, g, snr in [(3, 2.0, 10.0), (4, 5.0, 316.227766), (2, 0.5, 100.0)]:
            res = comp_rate([1.0, g], [0, 1], snr, [1.0, k - 1.0])
            expected = 0.5 * math.log2((1 + snr * (1 + g * g * (k - 1))) / ((k - 1) * (1 + snr)))
            assert res.r_comp == pytest.approx(expected, rel=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            comp_rate([1.0, 2.0], [0, 0], 10.0)

    @pytest.mark.parametrize("a", [[0.5, 0.0], [1.0, 2.5], [math.nan, 1.0], [math.inf, 1.0]])
    def test_non_integer_vector_rejected(self, a):
        # the reported coefficients must be the ones the rate was computed for
        with pytest.raises(ValueError, match="must be integer"):
            comp_rate([1.0, 1.0], a, 10.0)

    def test_integer_valued_floats_accepted(self):
        res = comp_rate([1.0, 2.0], [1.0, 2.0], 10.0)
        assert res.a == (1, 2) and all(type(x) is int for x in res.a)
        assert res == comp_rate([1.0, 2.0], np.array([1, 2]), 10.0)

    def test_plain_equals_unit_weights(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            k = int(rng.integers(1, 5))
            h = rng.normal(size=k)
            snr = 10 ** rng.uniform(-1, 3)
            a = rng.integers(-4, 5, size=k)
            if not a.any():
                a[0] = 1
            plain = comp_rate(h, a, snr)
            eff = comp_rate(h, a, snr, np.ones(k))
            assert plain.sigma2_eff == pytest.approx(eff.sigma2_eff, rel=1e-12)
            assert plain.r_comp == pytest.approx(eff.r_comp, rel=1e-12, abs=1e-12)

    def test_variance_matches_gram_quadratic_form(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            k = int(rng.integers(1, 5))
            g = rng.normal(size=k)
            snr = 10 ** rng.uniform(-1, 3)
            a = rng.integers(-4, 5, size=k)
            if not a.any():
                a[1 % k] = 1
            weighted = bool(rng.integers(0, 2))
            b_sq = rng.uniform(1.0, 4.0, size=k) if weighted else None
            gram = gram_effective(g, b_sq, snr) if weighted else gram_plain(g, snr)
            res = comp_rate(g, a, snr, b_sq)
            quad = float(np.asarray(a, float) @ gram.entries @ np.asarray(a, float))
            assert res.sigma2_eff == pytest.approx(quad, rel=1e-10)

    def test_beta_is_the_minimizer(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            g = rng.normal(size=k)
            snr = 10 ** rng.uniform(0, 2)
            a = rng.integers(-3, 4, size=k)
            if not a.any():
                a[0] = -2
            res = comp_rate(g, a, snr)
            direct = effective_variance(g, a, res.beta, snr)
            assert direct == pytest.approx(res.sigma2_eff, rel=1e-10)

    def test_integer_scaling_never_gains(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            k = int(rng.integers(1, 4))
            h = rng.normal(size=k)
            snr = 10 ** rng.uniform(-1, 3)
            a = rng.integers(-3, 4, size=k)
            if not a.any():
                a[0] = 1
            base = comp_rate(h, a, snr).r_comp
            for m in (2, 3, 5):
                assert comp_rate(h, m * a, snr).r_comp <= base + 1e-12

    def test_snr_over_sigma2_past_the_float_range(self):
        # sigma2 = snr b g^2 / den is 1e-310, subnormal, so snr / sigma2 overflows; the rate is 0.5 log2(1e310)
        res = comp_rate([1e155], [1], 1.0, [1e-20])
        assert res.sigma2_eff == pytest.approx(1e-310, rel=1e-12)
        assert res.r_comp == pytest.approx(0.5 * 310 * math.log2(10), rel=1e-14)
