"""Diophantine outage sets of the strong and moderately-weak regimes.

The constant-gap rate guarantees fail exactly where the cross gain is too
well approximated by a fraction with small denominator: |q*g - a| < phi for
some positive integer q up to a snr-dependent cutoff.  For a fixed q the bad
gains form intervals of half-width phi/q around the rationals a/q, so the
whole outage set is a finite union of half-open intervals whose Lebesgue
measure can be computed exactly.

Membership builds no set: g's last convergent with denominator <= q_max decides
it (Khinchin, *Continued Fractions*, §§6-7).  A builder refuses over 2^20 pieces.

Strong regime: unit intervals [b, b+1), cutoff q_max and half-width phi
chosen so the total measure is at most 2*snr^(-delta) = 2^(-c) when
delta = (c+1)/log2(snr).

Moderately weak regime: dyadic intervals [2^-b, 2^-b+1) with
delta = (2c+8)/log2(snr); the per-interval measure obeys the
sqrt(2)*2^(b/2)*snr^(-1/4-delta/2) + 8*2^(-b)*snr^(-delta) bound.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "IntervalSet",
    "OutageParams",
    "strong_outage_params",
    "weak_outage_params",
    "strong_outage_set",
    "weak_outage_set",
    "in_outage",
]


@dataclass(frozen=True)
class IntervalSet:
    """Sorted disjoint half-open intervals [lo, hi) inside a domain."""

    intervals: tuple[tuple[float, float], ...]
    domain: tuple[float, float]

    @classmethod
    def from_pieces(cls, pieces, domain) -> "IntervalSet":
        """Normalize raw pieces: clip to the domain, sort, merge overlaps.

        Adjacent half-open pieces [a,b) [b,c) merge into [a,c).
        """
        d_lo, d_hi = float(domain[0]), float(domain[1])
        if not d_lo < d_hi:
            raise ValueError("domain must be a nonempty interval")
        clipped = []
        for lo, hi in pieces:
            lo, hi = max(float(lo), d_lo), min(float(hi), d_hi)
            if lo < hi:
                clipped.append((lo, hi))
        clipped.sort()
        merged: list[list[float]] = []
        for lo, hi in clipped:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return cls(intervals=tuple((lo, hi) for lo, hi in merged), domain=(d_lo, d_hi))

    @property
    def measure(self) -> float:
        return float(sum(hi - lo for lo, hi in self.intervals))


def _wrap_pieces(lo: float, hi: float, d_lo: float, d_hi: float) -> list[tuple[float, float]]:
    """Reduce [lo, hi) modulo the domain, splitting at the right edge."""
    length = d_hi - d_lo  # > hi - lo: 2*phi/q <= 2^-c, since q_max*phi = 2^(-c-1) and q <= q_max
    start = d_lo + (lo - d_lo) % length
    end = start + (hi - lo)
    if end <= d_hi:
        return [(start, end)]
    return [(start, d_hi), (d_lo, d_lo + (end - d_hi))]


@dataclass(frozen=True)
class OutageParams:
    """Derived quantities of one outage-set construction."""

    b: int
    snr: float
    c: float
    delta: float
    q_max: float
    phi: float
    regime: str


# delta, q_max and phi of one regime's set at b, or ValueError out of its range; in_outage builds no OutageParams
def _strong(b, snr: float, c: float) -> tuple[float, float, float]:
    if not (1 < snr < math.inf and c > 0):
        raise ValueError("need 1 < snr < inf and c > 0")
    if not (1 <= b < math.sqrt(snr)) or b != int(b):
        raise ValueError(f"b must be an integer in [1, sqrt(snr)), got {b!r}")
    delta = (c + 1.0) / math.log2(snr)
    return delta, snr ** (0.25 - delta / 2.0) / math.sqrt(b + 0.5), math.sqrt(b + 0.5) * snr ** (-0.25 - delta / 2.0)


def _weak(b, snr: float, c: float) -> tuple[float, float, float]:
    if not (1 < snr < math.inf and c > 0):
        raise ValueError("need 1 < snr < inf and c > 0")
    if not (1 <= b <= math.ceil(math.log2(snr) / 6.0)) or b != int(b):
        raise ValueError(f"b must be an integer in [1, ceil(log2(snr)/6)], got {b!r}")
    delta = (2.0 * c + 8.0) / math.log2(snr)
    scale = math.sqrt(2.0 ** (-b + 1))
    return delta, scale * snr ** (0.25 - delta / 2.0), snr ** (-0.25 - delta / 2.0) / scale


def strong_outage_params(b: int, snr: float, c: float) -> OutageParams:
    delta, q_max, phi = _strong(b, snr, c)
    return OutageParams(int(b), float(snr), float(c), delta, q_max, phi, "strong")


def weak_outage_params(b: int, snr: float, c: float) -> OutageParams:
    delta, q_max, phi = _weak(b, snr, c)
    return OutageParams(int(b), float(snr), float(c), delta, q_max, phi, "moderately-weak")


_MAX_PIECES = 2**20


def _denominators(params: OutageParams, pieces_up_to: Callable[[int], int]) -> range:
    """1..floor(q_max), or ValueError before a build of more than 2^20 pieces."""
    q_top = math.floor(params.q_max)
    if (pieces := pieces_up_to(q_top)) > _MAX_PIECES:
        raise ValueError(f"the {params.regime} outage set at b={params.b} has up to {pieces} pieces, over {_MAX_PIECES}")
    return range(1, q_top + 1)


@lru_cache(maxsize=512)
def strong_outage_set(b: int, snr: float, c: float) -> IntervalSet:
    """Gains in [b, b+1) admitting |q*g - a| < phi with 0 < q <= q_max.

    For each q the solutions are intervals of half-width phi/q around the
    anchors b + j/q; the piece protruding left of b reappears at the right
    edge (it belongs to the anchor at b+1), so intervals are wrapped modulo
    the domain and then merged.
    """
    params = strong_outage_params(b, snr, c)
    d_lo, d_hi = float(b), float(b + 1)
    pieces: list[tuple[float, float]] = []
    for q in _denominators(params, lambda n: n * (n + 3) // 2):  # q anchors per q, the one at b split
        w = params.phi / q
        for j in range(q):
            pieces.extend(_wrap_pieces(b + j / q - w, b + j / q + w, d_lo, d_hi))
    return IntervalSet.from_pieces(pieces, (d_lo, d_hi))


@lru_cache(maxsize=512)
def weak_outage_set(b: int, snr: float, c: float) -> IntervalSet:
    """Gains in [2^-b, 2^-b+1) admitting |q*g - a| < phi with 0 < q <= q_max.

    Built directly from the rational anchors a/q that meet the dyadic
    domain; no wraparound is involved.
    """
    params = weak_outage_params(b, snr, c)
    d_lo, d_hi = 2.0 ** (-b), 2.0 ** (-b + 1)
    pieces: list[tuple[float, float]] = []
    for q in _denominators(params, lambda n: (n * (n + 1) >> (b + 1)) + 2 * n):  # q*2^-b + 2 or fewer per q
        w = params.phi / q
        a_lo = math.floor(q * (d_lo - w)) + 1
        a_hi = math.ceil(q * (d_hi + w)) - 1
        for a in range(a_lo, a_hi + 1):
            pieces.append((a / q - w, a / q + w))
    return IntervalSet.from_pieces(pieces, (d_lo, d_hi))


def in_outage(g: float, snr: float, c: float) -> bool:
    """Whether the constant-gap guarantee is suspended at this gain.

    Only the strong and moderately-weak regimes carry outage sets; all other
    regimes return False.  The sets do not depend on the number of users, and
    none is built: g's continued fraction decides membership exactly.
    """
    if not 0 < g < math.inf:
        raise ValueError("cross gain must be positive and finite")
    if not snr > 1:
        raise ValueError("outage sets are defined for snr > 1")
    if not c > 0:  # nan fails every comparison
        raise ValueError("gap parameter c must be positive")
    if 1.0 <= g < math.sqrt(snr):
        _, q_max, phi = _strong(math.floor(g), snr, c)
    elif snr ** (-1.0 / 6.0) <= g < 1.0:
        _, q_max, phi = _weak(1 - math.frexp(g)[1], snr, c)  # g in [2^-b, 2^-b+1), exactly
    else:
        return False
    # some |q*g - a| < phi with 0 < q <= q_top iff the last convergent p/q of g with q <= q_top has one
    num, den = float(g).as_integer_ratio()
    phi_num, phi_den = phi.as_integer_ratio()
    q_top = math.floor(q_max)
    p_prev, q_prev, p, q = 1, 0, num // den, 1
    x, y = den, num % den  # the next partial quotient is x // y
    while y:
        a = x // y
        if a * q + q_prev > q_top:
            break
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
        x, y = y, x - a * y
    return q <= q_top and abs(q * num - p * den) * phi_den < phi_num * den
