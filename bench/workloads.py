"""Seeded workloads for the cfrates benchmark and their output checks.

Each workload turns ``(seed, pass index)`` into a list of items, runs one
item through the library's public API, checks the outputs against facts
that do not come from the code under test, and renders the outputs as
17-digit lines for a digest.  Items are grouped into passes whose input mix
is fixed (stratified over K and over SNR or gain), so two seeds differ only
in where each stratum is sampled, not in how much of each stratum they get.

The library is reached through ``sys.modules`` module objects at call time,
so wrappers installed by ``tracing.Tracer`` see every call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import cfrates  # noqa: F401  (registers the submodules below)

sic = sys.modules["cfrates.symmetric_ic"]
tfm = sys.modules["cfrates.transform"]
outage = sys.modules["cfrates.outage"]

# The lru_cache objects themselves, taken before any tracing wrapper can
# replace the module globals, so cache_clear/cache_info always reach them.
OUTAGE_CACHES = (outage.strong_outage_set, outage.weak_outage_set)

TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: str
    make_pass: Callable[[int, int], list]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    lines: Callable[[Any, Any], list[str]]


def _rng(seed: int, workload_id: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload_id, pass_index])


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _strata(rng: np.random.Generator, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of ``n`` equal slices of [lo, hi], in order."""
    return [lo + (i + float(u)) * (hi - lo) / n for i, u in enumerate(rng.random(n))]


# ---------------------------------------------------------------------------
# ic_sweep: symmetric_ic.report over the acceptance regime-dominance range
# ---------------------------------------------------------------------------

IC_USERS = 3
IC_POINTS_PER_SNR = 32
# (SNR in dB, top of the gain range as a multiple of sqrt(snr)).  The
# acceptance range ends at 2 sqrt(snr).  At 45 dB the sweep stops at sqrt(snr),
# where the very-strong regime starts: there r_best can reach
# upper_loose = 0.5 log2(1 + snr) with no slack, and float cancellation in the
# rates puts it up to ~3e-7 above (45 dB, g = 217.0068004430703).  At 25 dB
# that error stays below 1e-10, so the whole range is swept.
IC_SWEEP = ((25.0, 2.0), (45.0, 1.0))


def ic_pass(seed: int, p: int) -> list[tuple[float, float]]:
    """Gains log-stratified over [snr^-1/4 / 4, top * sqrt(snr)), ascending per SNR."""
    rng = _rng(seed, 0, p)
    items = []
    for snr_db, top in IC_SWEEP:
        snr = 10.0 ** (snr_db / 10.0)
        lo, hi = math.log(snr**-0.25 / 4.0), math.log(top * math.sqrt(snr))
        items += [(snr_db, math.exp(x)) for x in _strata(rng, lo, hi, IC_POINTS_PER_SNR)]
    return items


def ic_run(item):
    snr_db, g = item
    spec = sic.SymmetricIcSpec(IC_USERS, g, 10.0 ** (snr_db / 10.0))
    return sic.report(spec, c=2.0, method="auto")


def ic_check(item, rep) -> list[str]:
    bad = []
    if not rep.in_outage and not rep.lower_closed <= rep.r_best + TOL:
        bad.append("lower_closed > r_best off the outage set")
    if not rep.r_best <= rep.upper_loose + TOL:
        bad.append("r_best > upper_loose")
    return bad


def ic_lines(item, rep) -> list[str]:
    r_hk = math.nan if rep.r_hk is None else rep.r_hk
    fields = (
        item[0], item[1], rep.regime, rep.alpha, rep.r_single, rep.r_noise, r_hk, rep.r_tdma,
        rep.r_best, rep.lower_closed, rep.upper_tight, rep.upper_loose, rep.in_outage, rep.method,
    )
    return [",".join(_fmt(x) for x in fields)]


# ---------------------------------------------------------------------------
# plain MACs: mac_orders (full `cfrates rates` pipeline) and the high-SNR probe
# ---------------------------------------------------------------------------


def _mac_pass(workload_id: int, ks: tuple[int, ...], snr_db_range: tuple[float, float], strata: int):
    def make(seed: int, p: int) -> list[tuple[int, float, tuple[float, ...]]]:
        rng = _rng(seed, workload_id, p)
        items = []
        for k in ks:
            for snr_db in _strata(rng, *snr_db_range, strata):
                items.append((k, snr_db, tuple(float(x) for x in rng.normal(size=k))))
        return items

    return make


def _channel(item):
    k, snr_db, h = item
    return tfm.ChannelSpec.plain(h, 10.0 ** (snr_db / 10.0))


def _sandwich(item, t, bounds) -> list[str]:
    """MAC sum capacity C = 0.5 log2(1 + snr |h|^2) bounds the rate sum from
    above; C - (K/2) log2 K bounds it from below when the search is exact."""
    k, snr_db, h = item
    snr = 10.0 ** (snr_db / 10.0)
    upper = 0.5 * math.log2(1.0 + snr * math.fsum(x * x for x in h))
    lower = upper - 0.5 * k * math.log2(k)
    total = math.fsum(t.rates)
    bad = []
    if t.matrix.shape != (k, k) or len(t.rates) != k:
        bad.append("transform is not K x K")
    if not total <= upper + TOL:
        bad.append("rate sum above the MAC sum capacity")
    if t.method == "exhaustive" and not lower - TOL <= total:
        bad.append("rate sum below the sandwich lower bound")
    if abs(bounds.upper - upper) > TOL * max(1.0, upper) or abs(bounds.total - total) > TOL * max(1.0, abs(total)):
        bad.append("sum_rate_bounds disagrees with the sum capacity or the rate sum")
    return bad


def _mac_lines(item, t, bounds) -> list[str]:
    k, snr_db, h = item
    head = [k, snr_db, *h, t.method, *t.matrix.ravel().tolist(), *t.rates, bounds.lower, bounds.upper]
    return [",".join(_fmt(x) for x in head)]


def batch_run(item):
    t = tfm.transform(_channel(item), method="auto")
    return t, tfm.sum_rate_bounds(t)


def batch_check(item, out) -> list[str]:
    return _sandwich(item, *out)


def batch_lines(item, out) -> list[str]:
    return _mac_lines(item, *out)


# K=5 twice: the costliest stratum gets the most samples, and p50 falls in
# the middle of the K=4 items instead of on the gap between two K strata.
# K=6 is left out: at ~1.2 s +- 0.6 s per MAC a run holds too few of them
# for a steady rate.
MAC_ORDERS_KS = (2, 3, 4, 5, 5)


def orders_run(item):
    t = tfm.transform(_channel(item), method="auto")
    bounds = tfm.sum_rate_bounds(t)
    orders = []
    for pt in tfm.pseudo_triangularize(t.matrix):
        orders.append((pt, tfm.rate_allocation(t, pt), tfm.mod_p_lift(t.matrix, pt)))
    return t, bounds, orders


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def _unit_lower(m) -> bool:
    return all(m[i][i] == 1 and all(m[i][j] == 0 for j in range(i + 1, len(m))) for i in range(len(m)))


def _triangular(m, pi) -> bool:
    """Exact zeros at (i, pi[j]) for j < i and a nonzero permuted diagonal."""
    k = len(m)
    return all(m[i][pi[j]] == 0 for i in range(k) for j in range(i)) and all(m[i][pi[i]] != 0 for i in range(k))


def _order_violations(a: list[list[int]], pt, alloc, lift, total: float) -> list[str]:
    k = len(a)
    pi = tuple(pt.pi)
    if sorted(pi) != list(range(k)):
        return ["order is not a permutation"]
    lower = [list(row) for row in pt.lower.entries]
    a_tilde = [[sum((lower[i][m] * a[m][c] for m in range(k)), Fraction(0)) for c in range(k)] for i in range(k)]
    p = int(lift.p)
    lp = lift.lower_mod_p.tolist()
    ap = [[sum(lp[i][m] * a[m][c] for m in range(k)) % p for c in range(k)] for i in range(k)]
    failed = {
        "L is not unit lower triangular": not _unit_lower(lower),
        "a_tilde != L A": a_tilde != [list(row) for row in pt.a_tilde.entries],
        "a_tilde breaks the triangular pattern": not _triangular(a_tilde, pi),
        "lift modulus is not prime": not _is_prime(p),
        "mod-p L is not unit lower triangular": not _unit_lower(lp),
        "mod-p lift breaks the triangular pattern": not _triangular(ap, pi),
        "a_tilde_mod_p != L_p A mod p": ap != lift.a_tilde_mod_p.tolist(),
        "allocation does not sum to the transform total": not abs(math.fsum(alloc) - total) <= TOL * max(1.0, abs(total)),
    }
    return [msg for msg, bad in failed.items() if bad]


def orders_check(item, out) -> list[str]:
    t, bounds, orders = out
    bad = _sandwich(item, t, bounds)
    if not orders:
        bad.append("no cancellation order for a full-rank matrix")
    a = [[int(x) for x in row] for row in t.matrix.tolist()]
    total = math.fsum(t.rates)
    for pt, alloc, lift in orders:
        bad += _order_violations(a, pt, alloc, lift, total)
    return bad


def orders_lines(item, out) -> list[str]:
    t, bounds, orders = out
    lines = _mac_lines(item, t, bounds)
    for pt, alloc, lift in orders:
        fields = [*pt.pi, *(x for row in pt.lower.entries for x in row), lift.p, *alloc]
        lines.append(",".join(_fmt(x) for x in fields))
    return lines


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ic_sweep",
            why="symmetric_ic.report over the regime-dominance gain range at 25 dB and, below the very-strong "
            "regime, 45 dB, as cfrates sweep runs it; lattice.successive_minima is most of it",
            inputs=f"symmetric_ic.report, K={IC_USERS}, c=2, {IC_POINTS_PER_SNR} log-stratified gains in "
            f"[snr^-1/4/4, top sqrt(snr)) per (dB, top) in {IC_SWEEP} per pass",
            make_pass=ic_pass,
            run=ic_run,
            check=ic_check,
            lines=ic_lines,
        ),
        Workload(
            name="mac_orders",
            why="cfrates rates on plain MACs (K=2..5, 10-40 dB) with every cancellation order and mod-p lift; "
            "exact rational elimination is most of it, the lattice search under 10%",
            inputs="transform(auto)+sum_rate_bounds+pseudo_triangularize+rate_allocation+mod_p_lift per order, "
            "h~N(0,I), K in (2,3,4,5,5) x 4 SNR strata in [10, 40] dB per pass",
            make_pass=_mac_pass(1, MAC_ORDERS_KS, (10.0, 40.0), 4),
            run=orders_run,
            check=orders_check,
            lines=orders_lines,
        ),
    )
}

# Above ~60 dB the exact search can miss a successive minimum and raise
# AssertionError (ROADMAP item 2), and near 90 dB float cancellation in
# comp_rate can put the rate sum ~1e-6 above the sum capacity.  The timed
# workloads stay below that regime, so none of their items fail; the traced
# run measures the defect on one pass of this probe instead.
HIGH_SNR_PROBE = Workload(
    name="high_snr_probe",
    why="the known high-SNR exact-search defect, measured apart from the timed workloads",
    inputs="transform(auto)+sum_rate_bounds, h~N(0,I), K=2..5 x 16 SNR strata in [70, 90] dB",
    make_pass=_mac_pass(3, (2, 3, 4, 5), (70.0, 90.0), 16),
    run=batch_run,
    check=batch_check,
    lines=batch_lines,
)
