"""Symmetric interference channel: schemes, bounds, regimes, GDoF."""

import math

import numpy as np
import pytest

from cfrates import symmetric_ic
from cfrates.symmetric_ic import (
    SymmetricIcSpec,
    closed_form_lower,
    effective_two_user,
    gdof,
    hk_rate,
    hk_rate_default,
    hk_rate_optimized,
    regime_name,
    report,
    single_layer_rate,
    tdma_rate,
    treat_as_noise_rate,
    upper_bound,
    upper_bound_loose,
)


class TestSpec:
    def test_alpha_and_inr(self):
        spec = SymmetricIcSpec(3, 2.0, 100.0)
        assert spec.inr == pytest.approx(400.0)
        assert spec.alpha == pytest.approx(math.log(400) / math.log(100), rel=1e-12)

    def test_zero_gain_alpha(self):
        assert SymmetricIcSpec(3, 0.0, 100.0).alpha == -math.inf

    def test_alpha_undefined_at_unit_snr(self):
        with pytest.raises(ValueError):
            SymmetricIcSpec(3, 1.0, 1.0).alpha

    def test_validation(self):
        with pytest.raises(ValueError):
            SymmetricIcSpec(1, 1.0, 10.0)
        with pytest.raises(ValueError):
            SymmetricIcSpec(3, -1.0, 10.0)
        with pytest.raises(ValueError):
            SymmetricIcSpec(3, 1.0, 0.0)
        for gain in (math.nan, math.inf):
            with pytest.raises(ValueError, match="cross gain"):
                SymmetricIcSpec(3, gain, 10.0)

    @pytest.mark.parametrize("field", ["cross gain", "snr"])
    @pytest.mark.parametrize("value", ["2", None, [2.0]])
    def test_non_numbers_rejected(self, field, value):
        # math.isfinite raised TypeError for these, not the documented ValueError
        args = (value, 300.0) if field == "cross gain" else (2.0, value)
        with pytest.raises(ValueError, match=f"{field} must be"):
            SymmetricIcSpec(3, *args)
        assert SymmetricIcSpec(3, np.float64(2.0), np.int64(300)).inr == 1200.0

    def test_interference_past_the_float_range_refused(self):
        # g^2 snr = inf made alpha inf: "very-strong" where the true alpha is 1.04, the very-strong bound, and nan HK gains
        with pytest.raises(ValueError, match="overflows"):
            regime_name(SymmetricIcSpec(3, 1e6, 1e300))
        # g^2 snr = 1e308 is finite, but (K-1) g^2 snr is not: treating it as noise read 0, not about 3.6e-9
        spec = SymmetricIcSpec(3, 1e4, 1e300)
        for view in (report, treat_as_noise_rate, upper_bound, lambda s: s.alpha):
            with pytest.raises(ValueError, match=r"\(K-1\) g\^2 snr overflows"):
                view(spec)
        assert SymmetricIcSpec(2, 1e4, 1e300).inr == 1e308  # one interferer: (K-1) g^2 snr is inr
        assert single_layer_rate(spec) > 0 and tdma_rate(spec) > 0  # neither reads inr

    @pytest.mark.parametrize("users", [2.5, 3.0, math.nan, math.inf, True, "3"])
    def test_users_must_be_an_integer(self, users):
        # 2.5 gave a 2.5-user report with interference weight 1.5; nan passed the users < 2 check
        with pytest.raises(ValueError, match="integer number of users"):
            SymmetricIcSpec(users, 2.0, 1000.0)
        assert SymmetricIcSpec(np.int64(3), 2.0, 1000.0).users == 3

    def test_regime_thresholds(self):
        snr = 1e4
        # alpha = 1 + 2*log_snr(g), so g = snr**e gives alpha = 1 + 2e
        cases = [
            (snr ** (-0.3), "noisy"),
            (snr ** (-0.2), "weak"),
            (snr ** (-0.1), "moderately-weak"),
            (2.0, "strong"),
            (math.sqrt(snr), "very-strong"),
        ]
        for g, name in cases:
            spec = SymmetricIcSpec(3, g, snr)
            assert regime_name(spec) == name, (g, spec.alpha, name)

    def test_boundary_very_strong(self):
        snr = 316.227766
        spec = SymmetricIcSpec(3, math.sqrt(snr), snr)
        assert spec.alpha == pytest.approx(2.0, rel=1e-12)
        assert regime_name(spec) == "very-strong"


class TestEffectiveTwoUser:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_weights(self, k):
        ch = effective_two_user(SymmetricIcSpec(k, 2.0, 10.0))
        assert ch.gains == (1.0, 2.0)
        assert ch.weights_sq == (1.0, float(k - 1))
        assert ch.snr == 10.0


class TestSingleLayer:
    def test_very_strong_within_one_bit(self):
        rng = np.random.default_rng(29)
        for snr_db in (10.0, 20.0, 30.0):
            snr = 10 ** (snr_db / 10)
            floor = 0.5 * math.log2(1 + snr) - 1
            for _ in range(30):
                g = math.sqrt(snr) * (1 + rng.random())
                rate = single_layer_rate(SymmetricIcSpec(3, g, snr))
                assert rate >= floor - 1e-9

    def test_unit_gain_alignment_penalty(self):
        snr = 10**1.5
        aligned = single_layer_rate(SymmetricIcSpec(3, 1.0, snr))
        nearby = single_layer_rate(SymmetricIcSpec(3, 1.05, snr))
        assert aligned < nearby

    def test_integer_gain_dips_at_15db(self):
        snr = 10**1.5
        rate = {g: single_layer_rate(SymmetricIcSpec(3, g, snr)) for g in (1.5, 2.0, 2.5, 3.0)}
        assert rate[2.0] < min(rate[1.5], rate[2.5])
        assert rate[3.0] < rate[2.5]

    def test_half_integer_dip_appears_at_25db(self):
        snr = 10**2.5
        rate = {g: single_layer_rate(SymmetricIcSpec(3, g, snr)) for g in (1.4, 1.5, 1.6)}
        assert rate[1.5] < min(rate[1.4], rate[1.6])


class TestTreatAsNoise:
    def test_no_interference(self):
        spec = SymmetricIcSpec(3, 0.0, 100.0)
        assert treat_as_noise_rate(spec) == pytest.approx(0.5 * math.log2(101), rel=1e-12)

    def test_two_user_formula(self):
        spec = SymmetricIcSpec(2, 0.7, 50.0)
        expected = 0.5 * math.log2(1 + 50 / (1 + 0.49 * 50))
        assert treat_as_noise_rate(spec) == pytest.approx(expected, rel=1e-12)

    def test_three_user_numeric(self):
        snr = 100.0
        g = (snr**0.5 / snr) ** 0.5  # g^2*snr = sqrt(snr)
        spec = SymmetricIcSpec(3, g, snr)
        expected = 0.5 * math.log2(1 + snr / (1 + 2 * math.sqrt(snr)))
        assert treat_as_noise_rate(spec) == pytest.approx(expected, rel=1e-12)


class TestLayeredScheme:
    def test_default_gains_structure(self):
        from cfrates.symmetric_ic import _hk_channel

        spec = SymmetricIcSpec(3, 0.2, 1e4)
        inr = spec.inr
        ch = _hk_channel(spec, math.sqrt(1 / inr))
        expected = (
            math.sqrt((inr - 1) / (3 * inr)),
            math.sqrt(1 / (3 * inr)),
            0.2 * math.sqrt((inr - 1) / (3 * inr)),
        )
        assert ch.gains == pytest.approx(expected, rel=1e-12)
        assert ch.weights_sq == (1.0, 1.0, 2.0)

    def test_zero_split_keeps_unit_scale(self):
        from cfrates.symmetric_ic import _hk_channel

        ch = _hk_channel(SymmetricIcSpec(3, 2.0, 100.0), 0.0)
        assert ch.gains == pytest.approx((1.0, 0.0, 2.0), abs=1e-15)

    def test_inapplicable_below_unit_inr(self):
        with pytest.raises(ValueError):
            hk_rate_default(SymmetricIcSpec(3, 0.01, 100.0))

    def test_gamma_range_validated(self):
        spec = SymmetricIcSpec(3, 0.5, 100.0)
        with pytest.raises(ValueError):
            hk_rate(spec, 1.0)
        with pytest.raises(ValueError):
            hk_rate(spec, -0.1)

    def test_beats_closed_form_off_outage(self):
        # moderately weak sweep: layered rate should clear the closed form
        snr = 10**4.5
        c = 2.0
        from cfrates.outage import in_outage

        for g in np.linspace(snr ** (-1 / 6) * 1.05, 0.95, 25):
            spec = SymmetricIcSpec(3, float(g), snr)
            if regime_name(spec) != "moderately-weak" or in_outage(float(g), snr, c):
                continue
            assert hk_rate_default(spec) >= closed_form_lower(spec, c) - 1e-9

    def test_grid_refinement_beats_default(self):
        spec = SymmetricIcSpec(3, 0.3, 10**2.5)
        assert hk_rate_optimized(spec, n_gamma=16) >= hk_rate_default(spec) - 1e-12

    @pytest.mark.parametrize("n_gamma", [1, 0, -3])
    def test_grid_of_fewer_than_two_points_rejected(self, n_gamma):
        # one point divided by zero for the grid step; none silently searched the default alone
        with pytest.raises(ValueError, match="n_gamma must be at least 2"):
            hk_rate_optimized(SymmetricIcSpec(3, 0.3, 10**2.5), n_gamma=n_gamma)

    @pytest.mark.parametrize("n_gamma", [3.0, 2.5, None, "8"])
    def test_grid_of_non_integer_points_rejected(self, n_gamma):
        # range() raised TypeError for 3.0 and 2.5, and the ">= 2" test for None and "8", not the documented ValueError
        with pytest.raises(ValueError, match="n_gamma must be an integer"):
            hk_rate_optimized(SymmetricIcSpec(3, 0.3, 10**2.5), n_gamma=n_gamma)


class TestUpperBounds:
    def test_very_strong_branch(self):
        spec = SymmetricIcSpec(3, 40.0, 100.0)
        assert upper_bound(spec) == pytest.approx(0.5 * math.log2(101), rel=1e-12)
        assert upper_bound_loose(spec) == pytest.approx(0.5 * math.log2(101), rel=1e-12)

    def test_strong_branch(self):
        snr = 1e4
        spec = SymmetricIcSpec(3, 3.0, snr)
        assert 1 <= spec.alpha < 2
        assert upper_bound(spec) == pytest.approx(0.25 * math.log2(1 + snr + 9 * snr), rel=1e-12)
        assert upper_bound_loose(spec) == pytest.approx(0.25 * math.log2(9 * snr) + 1, rel=1e-12)

    def test_loose_slack_bounded_at_samples(self):
        snr = 10**3.5
        for g in (0.01, 0.05, 0.2, 0.6, 2.0, 8.0, 80.0):
            spec = SymmetricIcSpec(3, g, snr)
            tight, loose = upper_bound(spec), upper_bound_loose(spec)
            assert loose >= tight - 1e-9
            assert loose - tight <= 2.0


class TestClosedFormLower:
    def test_very_strong(self):
        spec = SymmetricIcSpec(3, 40.0, 100.0)
        assert closed_form_lower(spec, 1.0) == pytest.approx(0.5 * math.log2(101) - 1, rel=1e-12)

    def test_strong(self):
        snr = 1e4
        spec = SymmetricIcSpec(3, 3.0, snr)
        c = 2.0
        assert closed_form_lower(spec, c) == pytest.approx(
            0.25 * math.log2(9 * snr) - c / 2 - 3, rel=1e-12
        )

    def test_noisy_penalty_vanishes_for_two_users(self):
        snr = 1e4
        g = 0.01
        expected = 0.5 * math.log2(1 + snr / (1 + g * g * snr))
        assert closed_form_lower(SymmetricIcSpec(2, g, snr), 1.0) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            closed_form_lower(SymmetricIcSpec(3, 1.0, 100.0), 0.0)

    def test_rejects_nan_gap(self):
        # every comparison with NaN is false: c <= 0 let it through to a NaN rate
        with pytest.raises(ValueError, match="gap parameter c must be positive"):
            closed_form_lower(SymmetricIcSpec(3, 1.0, 100.0), math.nan)


class TestGdof:
    def test_table_exact(self):
        assert gdof(0.0, 3) == 1.0
        assert gdof(0.5, 3) == 0.5
        assert gdof(2 / 3, 3) == 2 / 3
        assert gdof(1.0, 3) == 1 / 3
        assert gdof(1.5, 3) == 0.75
        assert gdof(2.0, 3) == 1.0

    def test_users_dependence_only_at_singularity(self):
        for alpha in (0.0, 0.4, 0.6, 0.8, 1.3, 2.5):
            assert gdof(alpha, 2) == gdof(alpha, 7)
        assert gdof(1.0, 2) == 0.5
        assert gdof(1.0, 7) == pytest.approx(1 / 7)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gdof(-0.1, 3)

    def test_rejects_nan(self):
        # every comparison with NaN is false, so no branch may silently take it
        with pytest.raises(ValueError, match="alpha must be nonnegative"):
            gdof(math.nan, 3)

    @pytest.mark.parametrize("alpha, users", [(1.0, 2.5), (0.5, math.nan), (0.5, 3.0), (0.5, 1)])
    def test_users_must_be_an_integer(self, alpha, users):
        # (1.0, 2.5) gave 0.4, 1 / 2.5; (0.5, nan) passed the users < 2 check and gave 0.5
        with pytest.raises(ValueError, match="integer number of users, at least 2"):
            gdof(alpha, users)
        assert gdof(1.0, np.int64(4)) == 0.25


class TestTdma:
    def test_single_user(self):
        assert tdma_rate(1, 10.0) == pytest.approx(0.5 * math.log2(11), rel=1e-12)

    def test_two_user_unit_snr(self):
        assert tdma_rate(2, 1.0) == pytest.approx(0.25 * math.log2(3), rel=1e-12)

    def test_monotone_decreasing_in_users(self):
        snr = 31.6227766
        rates = [tdma_rate(k, snr) for k in range(1, 9)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("users", [2.5, 3.9, math.nan, 0, "3"])
    def test_users_must_be_an_integer(self, users):
        # int() truncated 2.5 to the 2-user answer, 1.9128, and 3.9 to the 3-user one; nan failed in int()
        with pytest.raises(ValueError, match="integer number of users, at least 1"):
            tdma_rate(users, 100.0)
        assert tdma_rate(np.int64(2), 100.0) == tdma_rate(2, 100.0) == 0.25 * math.log2(201.0)

    @pytest.mark.parametrize("snr", [-0.4, 0.0, math.inf, math.nan])
    def test_rejects_snr_outside_the_positive_floats(self, snr):
        # -0.4 gave a rate of -0.58, and nan and inf passed through
        with pytest.raises(ValueError, match="snr must be positive and finite"):
            tdma_rate(2, snr)


class TestReport:
    def test_fields_populated(self):
        for users, g, snr_db in [(3, 2.0, 25.0), (3, 0.4, 45.0), (4, 7.0, 30.0)]:
            spec = SymmetricIcSpec(users, g, 10 ** (snr_db / 10))
            rep = report(spec, c=2.0)
            assert rep.regime in ("noisy", "weak", "moderately-weak", "strong", "very-strong")
            assert rep.r_best >= max(r for r in (rep.r_single, rep.r_noise, rep.r_tdma))
            assert rep.r_best <= rep.upper_loose + 1e-9
            if not rep.in_outage:
                assert rep.lower_closed <= rep.r_best + 1e-9
            assert rep.method in ("exhaustive", "lll")

    def test_zero_gain_noise_dominates(self):
        rep = report(SymmetricIcSpec(3, 0.0, 100.0), c=1.0)
        assert rep.regime == "noisy"
        assert rep.r_hk is None
        assert rep.r_best == rep.r_noise

    def test_boundary_classified_very_strong(self):
        snr = 100.0
        rep = report(SymmetricIcSpec(3, 10.0, snr), c=1.0)
        assert rep.regime == "very-strong"


def _log2p(x):
    return max(0.0, math.log2(x)) if x > 0 else 0.0


def _closed_forms(k, snr, inr, c):
    """regime -> (closed-form lower, tight upper, loose upper), written out per regime."""
    log2 = math.log2
    return {
        "noisy": (
            0.5 * log2(1.0 + snr / (1.0 + inr)) - 0.5 * log2(k - 1),
            0.5 * log2(1.0 + inr + snr / (1.0 + inr)),
            0.5 * log2(1.0 + snr / (1.0 + inr)) + 1.0,
        ),
        "weak": (
            0.5 * _log2p(inr) - 3.5 - log2(k),
            0.5 * log2(1.0 + inr + snr / (1.0 + inr)),
            0.5 * _log2p(inr) + 1.0,
        ),
        "moderately-weak": (
            0.5 * _log2p(snr / math.sqrt(inr)) - c - 8.0 - log2(k),
            0.25 * log2(1.0 + snr) + 0.25 * log2(1.0 + snr / (1.0 + inr)),
            0.5 * _log2p(snr / math.sqrt(inr)) + 1.0,
        ),
        "strong": (0.25 * _log2p(inr) - 0.5 * c - 3.0, 0.25 * log2(1.0 + snr + inr), 0.25 * _log2p(inr) + 1.0),
        "very-strong": (0.5 * log2(1.0 + snr) - 1.0, 0.5 * log2(1.0 + snr), 0.5 * log2(1.0 + snr)),
    }


class TestRegimeEdges:
    @staticmethod
    def _near(g0, ulps=20):
        g = g0
        for _ in range(ulps):
            g = math.nextafter(g, 0.0)
        gains = []
        for _ in range(2 * ulps + 1):
            gains.append(g)
            g = math.nextafter(g, math.inf)
        return gains

    @pytest.mark.parametrize("snr_db", [15, 45, 100])
    def test_bounds_follow_the_regime_at_every_edge(self, snr_db):
        # near each edge the regime name, the three bounds and report's fields
        # must all follow one regime
        snr, c = 10 ** (snr_db / 10), 2.0
        edges = [(snr**-0.25, "noisy", "weak"), (snr ** (-1 / 6), "weak", "moderately-weak")]
        edges += [(1.0, "moderately-weak", "strong"), (math.sqrt(snr), "strong", "very-strong")]
        for g0, below, above in edges:
            seen = set()
            for g in self._near(g0):
                spec = SymmetricIcSpec(3, g, snr)
                name = regime_name(spec)
                seen.add(name)
                lower, tight, loose = _closed_forms(3, snr, g * g * snr, c)[name]
                assert (closed_form_lower(spec, c), upper_bound(spec), upper_bound_loose(spec)) == (lower, tight, loose), g
                rep = report(spec, c=c)
                assert (rep.regime, rep.lower_closed, rep.upper_tight, rep.upper_loose) == (name, lower, tight, loose), g
            assert seen == {below, above}, (g0, seen)  # the 41 gains straddle the edge

    def test_every_view_at_the_float_edges(self, monkeypatch):
        # alpha exactly at an edge, and its float neighbours; gdof cannot tell
        # 0.5 or 2 apart (both neighbouring slopes meet there), the bounds can
        names = {0.49999999999999994: "noisy", 0.5: "weak", 0.6666666666666666: "weak"}
        names.update({0.6666666666666667: "moderately-weak", 0.9999999999999999: "moderately-weak", 1.0: "strong"})
        names.update({1.9999999999999998: "strong", 2.0: "very-strong", math.inf: "very-strong"})
        spec, c = SymmetricIcSpec(3, 2.0, 300.0), 2.0
        for alpha, name in names.items():
            monkeypatch.setattr(SymmetricIcSpec, "alpha", property(lambda self: alpha))
            lower, tight, loose = _closed_forms(3, 300.0, spec.inr, c)[name]
            rep = report(spec, c=c)
            assert (regime_name(spec), rep.regime) == (name, name), alpha
            assert (closed_form_lower(spec, c), upper_bound(spec), upper_bound_loose(spec)) == (lower, tight, loose), alpha
            assert (rep.lower_closed, rep.upper_tight, rep.upper_loose) == (lower, tight, loose), alpha

    def test_gdof_at_the_float_edges(self):
        table = {
            0.49999999999999994: 0.5,  # 1 - alpha rounds to 1/2
            0.5: 0.5,
            0.6666666666666666: 0.6666666666666666,  # float(2/3) still lies below the real 2/3
            0.6666666666666667: 0.6666666666666666,
            0.9999999999999999: 0.5,
            1.0: 1 / 3,
            1.0000000000000002: 0.5000000000000001,
            1.9999999999999998: 0.9999999999999999,
            2.0: 1.0,
        }
        assert {alpha: gdof(alpha, 3) for alpha in table} == table

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.filterwarnings("error")
    def test_gdof_takes_numpy_alphas(self, dtype):
        # numpy's bool "+" is a logical or, so a regime index summed with "+"
        # put 0.8 in weak and 2.5 in moderately-weak
        slopes = {0.3: lambda a: 1.0 - a, 0.6: lambda a: a, 0.8: lambda a: 1.0 - a / 2.0}
        slopes.update({1.5: lambda a: a / 2.0, 2.5: lambda a: 1.0})
        for alpha, slope in slopes.items():
            a = dtype(alpha)
            assert gdof(a, 3) == slope(a), alpha


@pytest.mark.parametrize("snr, gain", [(1.0, 2.0), (1e300, 1e6)], ids=["alpha-undefined", "inr-overflows"])
def test_gap_checked_before_the_spec(snr, gain):
    # a bad c is named first, even where alpha or inr would refuse the spec
    spec = SymmetricIcSpec(3, gain, snr)
    for call in (lambda c: closed_form_lower(spec, c), lambda c: report(spec, c=c)):
        for c in (0.0, -1.0, "2"):
            with pytest.raises(ValueError, match="gap parameter c must be positive"):
                call(c)


REAL_ARGUMENTS = {
    "tdma_rate-snr": (lambda x: tdma_rate(2, x), "snr must be positive"),
    "gdof-alpha": (lambda x: gdof(x, 3), "alpha must be nonnegative"),
    "closed_form_lower-c": (lambda x: closed_form_lower(SymmetricIcSpec(3, 2.0, 300.0), x), "gap parameter c"),
    "report-c": (lambda x: report(SymmetricIcSpec(3, 2.0, 300.0), c=x), "gap parameter c"),
    "hk_rate-gamma": (lambda x: hk_rate(SymmetricIcSpec(3, 2.0, 300.0), x), "gamma must lie in"),
}


@pytest.mark.parametrize("entry", list(REAL_ARGUMENTS))
@pytest.mark.parametrize("value", ["2", None, [2.0]])
def test_non_numbers_are_value_errors(entry, value, monkeypatch):
    # a comparison ("0 < snr", "alpha >= 0", "c > 0", "0.0 <= gamma") raised TypeError,
    # not the documented ValueError; report refused a bad c only after both transforms
    def no_transform(*args, **kwargs):
        raise AssertionError("transform ran before the argument was checked")

    monkeypatch.setattr(symmetric_ic, "transform", no_transform)
    call, message = REAL_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=message):
        call(value)
