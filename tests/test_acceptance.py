"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS lines.
Criteria with stated runtime limits assert them.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cfrates.outage import in_outage, strong_outage_params, strong_outage_set
from cfrates.symmetric_ic import SymmetricIcSpec, gdof, report, single_layer_rate
from cfrates.transform import ChannelSpec, pseudo_triangularize, sum_rate_bounds, transform


def verdict(number: int, text: str) -> None:
    print(f"[PASS] acceptance {number}: {text}")


def test_01_reference_two_user_transform():
    start = time.perf_counter()
    t = transform(ChannelSpec.plain([math.sqrt(5), 1.0], 10 ** 1.5), method="exhaustive")
    bounds = sum_rate_bounds(t)
    elapsed = time.perf_counter() - start

    assert t.matrix.tolist() == [[2, 1], [3, 1]]
    assert t.rates[0] == pytest.approx(2.409, abs=2e-3)
    assert t.rates[1] == pytest.approx(1.372, abs=2e-3)
    assert bounds.total / bounds.upper == pytest.approx(0.998, abs=2e-3)
    assert elapsed < 1.0
    verdict(1, f"rows {t.matrix.tolist()}, rates ({t.rates[0]:.4f}, {t.rates[1]:.4f}), "
               f"sum/upper {bounds.total / bounds.upper:.4f}, {elapsed * 1e3:.0f} ms")


def test_02_pseudo_triangularization_regression():
    pts = pseudo_triangularize(np.array([[2, 1], [3, 1]]))
    assert [pt.pi for pt in pts] == [(0, 1), (1, 0)]
    assert pts[0].lower.entries == ((Fraction(1), Fraction(0)), (Fraction(-3, 2), Fraction(1)))
    assert pts[1].lower.entries == ((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(1)))
    for k in (2, 3, 4):
        eye_pts = pseudo_triangularize(np.eye(k, dtype=int))
        assert len(eye_pts) == 1
        assert eye_pts[0].pi == tuple(range(k))
    verdict(2, "two orders with exact rational eliminators; identity admits only identity order")


def test_03_sum_rate_sandwich_property():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        h = rng.normal(size=k)
        snr = 10 ** (rng.uniform(0.0, 50.0) / 10.0)
        bounds = sum_rate_bounds(transform(ChannelSpec.plain(h, snr), method="exhaustive"))
        assert bounds.lower - 1e-9 <= bounds.total <= bounds.upper + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    verdict(3, f"1000 random instances sandwiched, {elapsed:.1f} s")


def test_04_two_user_rate_sum_sweep(tmp_path):
    snr = 1e4  # 40 dB
    grid = np.linspace(1.0, 3.0, 400)
    rows = []
    for h in grid:
        t = transform(ChannelSpec.plain([1.0, float(h)], snr), method="exhaustive")
        c_mac = 0.5 * math.log2(1 + (1 + h * h) * snr)
        ratio = sum(t.rates) / c_mac
        assert 1 - 1 / c_mac - 1e-12 <= ratio <= 1 + 1e-12
        rows.append((float(h), t.rates[0] / c_mac, t.rates[1] / c_mac, ratio))

    out = tmp_path / "two_user_rate_sum.csv"
    lines = ["h,r_comp_1_norm,r_comp_2_norm,sum_norm"]
    lines += [",".join(format(v, ".17g") for v in row) for row in rows]
    out.write_text("\n".join(lines) + "\n")

    worst = min(row[3] for row in rows)
    assert worst > 0.9  # "nearly equal to the sum capacity" at desk scale
    verdict(4, f"400 points within 1 bit of sum capacity (worst ratio {worst:.4f}); CSV at {out}")


def test_05_very_strong_certificate():
    rng = np.random.default_rng(99)
    for snr_db in (10.0, 20.0, 30.0):
        snr = 10 ** (snr_db / 10)
        floor = 0.5 * math.log2(1 + snr) - 1
        for _ in range(200):
            g = math.sqrt(snr) * (1.0 + 9.0 * rng.random())
            rate = single_layer_rate(SymmetricIcSpec(3, float(g), snr), method="exhaustive")
            assert rate >= floor - 1e-9
    verdict(5, "600 very-strong draws all within 1 bit of interference-free capacity")


def test_06_regime_dominance_sweep():
    start = time.perf_counter()
    regimes_seen = set()
    for snr_db in (25.0, 45.0):
        snr = 10 ** (snr_db / 10)
        grid = np.logspace(math.log10(snr ** -0.25 / 4), math.log10(2 * math.sqrt(snr)), 2000)
        for g in grid:
            rep = report(SymmetricIcSpec(3, float(g), snr), c=2.0, method="auto")
            regimes_seen.add(rep.regime)
            if not rep.in_outage:
                assert rep.lower_closed <= rep.r_best + 1e-9, (snr_db, g, rep)
            assert rep.r_best <= rep.upper_loose + 1e-9, (snr_db, g, rep)
    elapsed = time.perf_counter() - start
    assert regimes_seen == {"noisy", "weak", "moderately-weak", "strong", "very-strong"}
    assert elapsed < 300.0
    verdict(6, f"4000 grid points, all five regimes, dominance holds, {elapsed:.0f} s")


def test_07_outage_measure_and_membership():
    rng = np.random.default_rng(7)
    configs = 0
    for snr_db in (20.0, 40.0, 60.0):
        snr = 10 ** (snr_db / 10)
        for b in range(1, 11):
            if b >= math.sqrt(snr):
                continue  # construction is defined for b < sqrt(snr)
            for c in (1.0, 2.0, 4.0):
                params = strong_outage_params(b, snr, c)
                s = strong_outage_set(b, snr, c)
                assert s.measure <= 2.0 ** (-c) + 1e-12
                gs = b + rng.random(10_000)
                brute = np.zeros(gs.shape, dtype=bool)
                for q in range(1, math.floor(params.q_max) + 1):
                    brute |= np.abs(q * gs - np.round(q * gs)) < params.phi
                bounds = np.ravel(s.intervals)  # sorted, so a bisection lands inside a [lo, hi) at an odd index
                np.testing.assert_array_equal(np.searchsorted(bounds, gs, side="right") % 2 == 1, brute)
                np.testing.assert_array_equal([in_outage(float(g), snr, c) for g in gs], brute)
                configs += 1
    verdict(7, f"{configs} configurations: measure <= 2^-c and 10^4-point membership agreement each")


def test_08_gdof_table():
    users = 3
    expected = {0.0: 1.0, 0.5: 0.5, 2 / 3: 2 / 3, 1.0: 1 / users, 1.5: 0.75, 2.0: 1.0}
    for alpha, value in expected.items():
        assert gdof(alpha, users) == value
    verdict(8, "six-point table exact")


def test_09_alignment_dips(tmp_path):
    snr15 = 10 ** 1.5
    r15 = {g: single_layer_rate(SymmetricIcSpec(3, g, snr15), method="exhaustive")
           for g in (1.5, 2.0, 2.5)}
    assert r15[2.0] < min(r15[1.5], r15[2.5])

    snr25 = 10 ** 2.5
    r25 = {g: single_layer_rate(SymmetricIcSpec(3, g, snr25), method="exhaustive")
           for g in (1.4, 1.5, 1.6)}
    assert r25[1.5] < min(r25[1.4], r25[1.6])

    # full curves for manual comparison
    out = tmp_path / "single_layer_curves.csv"
    lines = ["snr_db,g,r_single"]
    for snr_db, snr in ((15.0, snr15), (25.0, snr25)):
        for g in np.linspace(0.05, 5.0, 400):
            rate = single_layer_rate(SymmetricIcSpec(3, float(g), snr))
            lines.append(f"{snr_db},{format(float(g), '.17g')},{format(rate, '.17g')}")
    out.write_text("\n".join(lines) + "\n")
    verdict(9, f"integer-gain dip at 15 dB and half-integer dip at 25 dB confirmed; curves at {out}")


def test_10_high_snr_dominance():
    """test_06's two checks at 60, 160 and 300 dB for K in {2, 3, 5, 10}.

    Per K and then per snr, 400 gains log-uniform over
    [snr^-1/4 / 4, 2 sqrt(snr)), all from one ``default_rng(5)`` stream;
    every regime appears in each sweep.  Two margins vanish at high snr: the
    least r_best - lower_closed is 0 at K = 2 and, at 300 dB, at every K; the
    largest r_best - upper_loose is 0.0 at 300 dB (K = 2, 3).  So the
    300 dB checks rest on the 1e-9 slack.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    for k in (2, 3, 5, 10):
        for snr_db in (60.0, 160.0, 300.0):
            snr = 10 ** (snr_db / 10)
            regimes_seen = set()
            for g in np.exp(rng.uniform(math.log(snr ** -0.25 / 4), math.log(2 * math.sqrt(snr)), 400)):
                rep = report(SymmetricIcSpec(k, float(g), snr), c=2.0, method="auto")
                regimes_seen.add(rep.regime)
                if not rep.in_outage:
                    assert rep.lower_closed <= rep.r_best + 1e-9, (k, snr_db, g, rep)
                assert rep.r_best <= rep.upper_loose + 1e-9, (k, snr_db, g, rep)
            assert regimes_seen == {"noisy", "weak", "moderately-weak", "strong", "very-strong"}, (k, snr_db)
    elapsed = time.perf_counter() - start
    verdict(10, f"4800 points at 60/160/300 dB, K in {{2, 3, 5, 10}}, all five regimes each, dominance holds, {elapsed:.1f} s")
