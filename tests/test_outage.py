"""Diophantine outage sets: interval algebra, measures, membership."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def exact_scan(g, q_max, phi):
    """Exact search in integers: any q <= q_max with |q*g - a| < phi, a the integer nearest q*g."""
    num, den = float(g).as_integer_ratio()
    phi_num, phi_den = float(phi).as_integer_ratio()
    return any(
        abs(q * num - (2 * q * num + den) // (2 * den) * den) * phi_den < phi_num * den
        for q in range(1, math.floor(q_max) + 1)
    )


def set_members(s, gs):
    """Half-open membership by bisection over the sorted disjoint intervals of s."""
    return np.searchsorted(np.ravel(s.intervals), np.asarray(gs, dtype=float), side="right") % 2 == 1


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
        assert set_members(s, [0.25, 0.4999999, 0.5, 0.1]).tolist() == [True, True, False, False]
        assert not set_members(IntervalSet.from_pieces([], (0.0, 1.0)), [0.5])[0]

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
        for b in (math.inf, math.nan, 1.5):  # the range check runs before int(b), which raises at inf and NaN
            with pytest.raises(ValueError, match="b must be an integer"):
                strong_outage_params(b, 1e4, 1.0)


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
            brute = brute_force_membership(gs, p.q_max, p.phi)
            np.testing.assert_array_equal(set_members(s, gs), brute)
            np.testing.assert_array_equal([in_outage(float(g), snr, c) for g in gs], brute)

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
            for small, big in ((s4, s2), (s2, s1)):
                for lo, hi in small.intervals:
                    assert any(b_lo <= lo and hi <= b_hi for b_lo, b_hi in big.intervals)


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
        for b in (math.inf, math.nan, 1.5):
            with pytest.raises(ValueError, match="b must be an integer"):
                weak_outage_params(b, 1e8, 1.0)

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
            brute = brute_force_membership(gs, p.q_max, p.phi)
            np.testing.assert_array_equal(set_members(s, gs), brute)
            np.testing.assert_array_equal([in_outage(float(g), snr, c) for g in gs], brute)

    def test_integer_valued_float_b(self):
        # 1.0 and 1 hash alike, so the first call fills the cache for both: either order must build the same set
        built = []
        for order in ((1.0, 1), (1, 1.0)):
            weak_outage_set.cache_clear()
            built.append([weak_outage_set(b, 1e4, 2) for b in order])
        assert built[0] == built[1] and built[0][0] == built[0][1]
        assert built[0][0].domain == (0.5, 1.0)

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
            expected = set_members(weak_outage_set(b, snr, c), [g])[0]
            assert in_outage(g, snr, c) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            in_outage(-1.0, 1e4, 2.0)
        with pytest.raises(ValueError):
            in_outage(1.0, 0.5, 2.0)
        with pytest.raises(ValueError):
            in_outage(1.0, 1e4, -1.0)

    @pytest.mark.parametrize("c", [math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("g", [1e-9, 0.7, 2.0, 1e3], ids=["noisy", "moderately-weak", "strong", "very-strong"])
    def test_gap_must_be_positive_in_every_regime(self, g, c):
        # nan fails every comparison, so c <= 0 let it through: a noisy or very strong gain returned
        # False, and a moderately weak or strong one raised the set's own range message
        with pytest.raises(ValueError, match="^gap parameter c must be positive$"):
            in_outage(g, 100.0, c)

    @pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
    def test_gain_must_be_finite(self, g):
        # nan fails every comparison, so g <= 0 let it through and it was reported outside the outage set
        with pytest.raises(ValueError, match="positive and finite"):
            in_outage(g, 100.0, 2.0)

    def test_gain_one_ulp_below_a_power_of_two(self):
        # g sits in [2^-b, 2^-b+1) with b = 3 although -log2(g) rounds to 2; 4*g is within 2^-52 of 1
        snr, c = 1e10, 0.5
        g = math.nextafter(0.25, 0.0)
        p = weak_outage_params(3, snr, c)
        assert exact_scan(g, p.q_max, p.phi)
        assert in_outage(g, snr, c)


@st.composite
def outage_points(draw):
    """A gain in one regime's domain, random or within a relative 1e-3..1e-12 of a/q."""
    snr = 10 ** (draw(st.sampled_from([100.0, 80.0, 60.0, 40.0, 20.0])) / 10)
    c = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    if draw(st.booleans()):
        b = draw(st.integers(1, 9))
        params, s = strong_outage_params(b, snr, c), strong_outage_set(b, snr, c)
    else:
        b = draw(st.integers(1, math.ceil(math.log2(snr) / 6)))
        params, s = weak_outage_params(b, snr, c), weak_outage_set(b, snr, c)
    lo, hi = max(s.domain[0], snr ** (-1 / 6)), s.domain[1]
    if draw(st.booleans()):
        g = draw(st.floats(lo, hi, exclude_max=True))
    else:
        q = draw(st.integers(1, math.floor(params.q_max) + 5))
        a = draw(st.integers(math.ceil(lo * q), max(math.ceil(lo * q), math.ceil(hi * q) - 1)))
        eps = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** -draw(st.integers(3, 12))
        g = a / q * (1 + eps)
    assume(lo <= g < hi)
    return g, snr, c, params, s


class TestContinuedFractionRule:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(outage_points())
    def test_matches_exact_scan_and_set(self, point):
        g, snr, c, params, s = point
        expected = exact_scan(g, params.q_max, params.phi)
        assert in_outage(g, snr, c) == expected
        assert set_members(s, [g])[0] == expected

    @pytest.mark.parametrize("snr_db", [140.0, 160.0, 200.0])
    def test_high_snr_matches_exact_scan_without_a_set(self, snr_db):
        snr, c = 10 ** (snr_db / 10), 2.0
        misses = strong_outage_set.cache_info().misses, weak_outage_set.cache_info().misses
        cases = [
            (strong_outage_params, 1, 1.0),
            (strong_outage_params, 7, 7.0),
            (strong_outage_params, 1, math.sqrt(2)),
            (strong_outage_params, 2, 1 + math.sqrt(2)),
            (strong_outage_params, 3, 355 / 113 + 1e-13),
            (strong_outage_params, 1, 4 / 3 - 1e-15),
            (weak_outage_params, 1, math.sqrt(2) / 2),
            (weak_outage_params, 2, 1 / 3 + 1e-16),
            (weak_outage_params, 3, 0.2 * (1 - 1e-12)),
        ]
        hits = []
        for params_of, b, g in cases:
            p = params_of(b, snr, c)
            expected = exact_scan(g, p.q_max, p.phi)
            assert in_outage(g, snr, c) == expected, (b, g)
            hits.append(expected)
        assert hits[:2] == [True, True] and not all(hits)
        assert (strong_outage_set.cache_info().misses, weak_outage_set.cache_info().misses) == misses


class TestSizeCap:
    def test_strong_set_refused_before_building(self):
        with pytest.raises(ValueError, match="pieces"):
            strong_outage_set(1, 1e20, 2.0)

    def test_weak_set_refused_before_building(self):
        with pytest.raises(ValueError, match="pieces"):
            weak_outage_set(1, 1e24, 2.0)
