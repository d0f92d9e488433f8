"""Diophantine outage sets: interval algebra, measures, membership."""

import math

import numpy as np
import pytest

from cfrates.outage import (
    IntervalSet,
    in_outage,
    strong_outage_params,
    strong_outage_set,
    weak_outage_params,
    weak_outage_set,
)


def brute_force_membership(gs, q_max, phi):
    """Direct search: any q <= q_max with q*g within phi of an integer."""
    gs = np.asarray(gs, dtype=float)
    hit = np.zeros(gs.shape, dtype=bool)
    for q in range(1, math.floor(q_max) + 1):
        hit |= np.abs(q * gs - np.round(q * gs)) < phi
    return hit


class TestIntervalSet:
    def test_merge_and_measure(self):
        s = IntervalSet.from_pieces([(0.1, 0.3), (0.2, 0.4), (0.6, 0.7), (0.4, 0.5)], (0.0, 1.0))
        assert s.intervals == ((0.1, 0.5), (0.6, 0.7))
        assert s.measure == pytest.approx(0.5, abs=1e-12)

    def test_clipping_to_domain(self):
        s = IntervalSet.from_pieces([(-0.5, 0.25), (0.9, 1.4)], (0.0, 1.0))
        assert s.intervals == ((0.0, 0.25), (0.9, 1.0))

    def test_half_open_membership(self):
        s = IntervalSet.from_pieces([(0.25, 0.5)], (0.0, 1.0))
        assert 0.25 in s
        assert 0.4999999 in s
        assert 0.5 not in s
        assert 0.1 not in s

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(30)
        s = IntervalSet.from_pieces([(0.1, 0.2), (0.55, 0.8)], (0.0, 1.0))
        xs = rng.random(2000)
        many = s.contains_many(xs)
        assert all(many[i] == (float(x) in s) for i, x in enumerate(xs))

    def test_subset_relation(self):
        small = IntervalSet.from_pieces([(0.2, 0.3)], (0.0, 1.0))
        big = IntervalSet.from_pieces([(0.1, 0.4), (0.6, 0.9)], (0.0, 1.0))
        assert small.is_subset_of(big)
        assert not big.is_subset_of(small)

    def test_bad_domain(self):
        with pytest.raises(ValueError):
            IntervalSet.from_pieces([], (1.0, 1.0))


class TestStrongParams:
    def test_formulas(self):
        b, snr, c = 2, 1e4, 2.0
        p = strong_outage_params(b, snr, c)
        delta = 3.0 / math.log2(snr)
        assert p.delta == pytest.approx(delta, rel=1e-12)
        assert p.q_max == pytest.approx(snr ** (0.25 - delta / 2) / math.sqrt(2.5), rel=1e-12)
        assert p.phi == pytest.approx(math.sqrt(2.5) * snr ** (-0.25 - delta / 2), rel=1e-12)
        # the product form implies measure bound 2*snr^-delta = 2^-c
        assert 2 * p.q_max * p.phi == pytest.approx(2.0 ** (-c), rel=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            strong_outage_params(0, 1e4, 1.0)
        with pytest.raises(ValueError):
            strong_outage_params(101, 1e4, 1.0)
        with pytest.raises(ValueError):
            strong_outage_params(1, 1e4, 0.0)


class TestStrongSet:
    def test_empty_when_no_admissible_q(self):
        # large b at modest snr pushes q_max below 1
        p = strong_outage_params(9, 316.227766, 2.0)
        assert p.q_max < 1
        s = strong_outage_set(9, 316.227766, 2.0)
        assert s.intervals == ()
        assert s.measure == 0.0

    def test_measure_bound_reference_case(self):
        s = strong_outage_set(1, 1e4, 2.0)
        assert 0 < s.measure <= 2.0**-2

    def test_measure_bound_grid(self):
        for snr_db in (20.0, 40.0, 60.0):
            snr = 10 ** (snr_db / 10)
            for b in range(1, 11):
                if b >= math.sqrt(snr):
                    continue
                for c in (1.0, 2.0, 4.0):
                    s = strong_outage_set(b, snr, c)
                    assert s.measure <= 2.0 ** (-c) + 1e-12

    def test_membership_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for b, snr, c in [(1, 1e4, 2.0), (3, 1e4, 1.0), (2, 1e6, 2.0), (7, 1e6, 1.0)]:
            p = strong_outage_params(b, snr, c)
            s = strong_outage_set(b, snr, c)
            gs = b + rng.random(5000)
            np.testing.assert_array_equal(s.contains_many(gs), brute_force_membership(gs, p.q_max, p.phi))

    def test_wraparound_right_edge_piece(self):
        # the anchor at b always pushes a piece against b+1
        s = strong_outage_set(1, 1e4, 2.0)
        p = strong_outage_params(1, 1e4, 2.0)
        assert s.intervals[0][0] == pytest.approx(1.0)
        assert s.intervals[-1][1] == pytest.approx(2.0)
        assert s.intervals[-1][0] == pytest.approx(2.0 - p.phi, rel=1e-12)

    def test_monotone_shrink_in_c(self):
        for b in (1, 2, 5):
            s1 = strong_outage_set(b, 1e6, 1.0)
            s2 = strong_outage_set(b, 1e6, 2.0)
            s4 = strong_outage_set(b, 1e6, 4.0)
            assert s4.is_subset_of(s2)
            assert s2.is_subset_of(s1)


class TestWeakSet:
    def test_params(self):
        b, snr, c = 1, 1e8, 0.5
        p = weak_outage_params(b, snr, c)
        delta = 9.0 / math.log2(snr)
        assert p.delta == pytest.approx(delta, rel=1e-12)
        assert p.q_max == pytest.approx(snr ** (0.25 - delta / 2), rel=1e-12)
        assert p.phi == pytest.approx(snr ** (-0.25 - delta / 2), rel=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            weak_outage_params(0, 1e8, 1.0)
        with pytest.raises(ValueError):
            weak_outage_params(10, 1e8, 1.0)  # ceil(log2(1e8)/6) = 5

    def test_per_interval_measure_bound(self):
        snr, c = 1e8, 0.5
        for b in (1, 2, 3, 4):
            p = weak_outage_params(b, snr, c)
            s = weak_outage_set(b, snr, c)
            bound = math.sqrt(2) * 2 ** (b / 2) * snr ** (-0.25 - p.delta / 2) + 8 * 2 ** (-b) * snr ** (
                -p.delta
            )
            assert s.measure <= bound + 1e-15

    def test_union_measure_bound(self):
        snr, c = 1e8, 0.5
        delta = weak_outage_params(1, snr, c).delta
        total = sum(
            weak_outage_set(b, snr, c).measure for b in range(1, math.ceil(math.log2(snr) / 6) + 1)
        )
        assert total < 16 * snr ** (-delta / 2)

    def test_membership_matches_brute_force(self):
        rng = np.random.default_rng(32)
        for b, snr, c in [(1, 1e8, 0.5), (2, 1e8, 0.5), (3, 1e8, 0.5), (1, 1e10, 1.0), (2, 1e10, 1.0)]:
            p = weak_outage_params(b, snr, c)
            s = weak_outage_set(b, snr, c)
            gs = 2.0 ** (-b) * (1 + rng.random(5000))
            np.testing.assert_array_equal(s.contains_many(gs), brute_force_membership(gs, p.q_max, p.phi))

    def test_domain_is_dyadic(self):
        s = weak_outage_set(2, 1e8, 0.5)
        assert s.domain == (0.25, 0.5)
        for lo, hi in s.intervals:
            assert 0.25 <= lo < hi <= 0.5


class TestInOutage:
    def test_integer_gain_in_strong_regime(self):
        # |1*g - 2| = 0 < phi whenever q_max >= 1
        assert strong_outage_params(2, 1e4, 2.0).q_max >= 1
        assert in_outage(2.0, 1e4, 2.0)

    def test_hard_to_approximate_gain(self):
        snr = 10**1.5
        g = math.sqrt(2)
        p = strong_outage_params(1, snr, 2.0)
        assert not brute_force_membership([g], p.q_max, p.phi)[0]
        assert not in_outage(g, snr, 2.0)

    def test_other_regimes_always_false(self):
        snr = 1e4
        assert not in_outage(snr ** (-0.3), snr, 2.0)  # noisy
        assert not in_outage(snr ** (-0.2), snr, 2.0)  # weak
        assert not in_outage(2 * math.sqrt(snr), snr, 2.0)  # very strong

    def test_moderately_weak_dispatch(self):
        snr = 1e8
        c = 0.5
        rng = np.random.default_rng(33)
        for _ in range(200):
            g = float(snr ** (-1 / 6) + (1 - snr ** (-1 / 6)) * rng.random())
            b = math.ceil(-math.log2(g))
            expected = g in weak_outage_set(b, snr, c)
            assert in_outage(g, snr, c) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            in_outage(-1.0, 1e4, 2.0)
        with pytest.raises(ValueError):
            in_outage(1.0, 0.5, 2.0)
        with pytest.raises(ValueError):
            in_outage(1.0, 1e4, -1.0)
