"""Diophantine outage sets of the strong and moderately-weak regimes.

The constant-gap rate guarantees fail exactly where the cross gain is too
well approximated by a fraction with small denominator: |q*g - a| < phi for
some positive integer q up to a snr-dependent cutoff.  For a fixed q the bad
gains form intervals of half-width phi/q around the rationals a/q, so the
whole outage set is a finite union of half-open intervals whose Lebesgue
measure can be computed exactly.

Strong regime: unit intervals [b, b+1), cutoff q_max and half-width phi
chosen so the total measure is at most 2*snr^(-delta) = 2^(-c) when
delta = (c+1)/log2(snr).

Moderately weak regime: dyadic intervals [2^-b, 2^-b+1) with
delta = (2c+8)/log2(snr); the per-interval measure obeys the
sqrt(2)*2^(b/2)*snr^(-1/4-delta/2) + 8*2^(-b)*snr^(-delta) bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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

    def __contains__(self, x: float) -> bool:
        return bool(self.contains_many(np.array([x]))[0])

    def contains_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized membership; relies on the sorted-disjoint invariant."""
        if not self.intervals:
            return np.zeros(np.asarray(xs).shape, dtype=bool)
        bounds = np.array(self.intervals, dtype=float).ravel()
        idx = np.searchsorted(bounds, np.asarray(xs, dtype=float), side="right")
        return idx % 2 == 1

    def is_subset_of(self, other: "IntervalSet") -> bool:
        """True when every interval here is covered by the other set."""
        for lo, hi in self.intervals:
            covered = False
            for olo, ohi in other.intervals:
                if olo <= lo and hi <= ohi:
                    covered = True
                    break
            if not covered:
                return False
        return True


def _wrap_pieces(lo: float, hi: float, d_lo: float, d_hi: float) -> list[tuple[float, float]]:
    """Reduce [lo, hi) modulo the domain, splitting at the right edge."""
    length = d_hi - d_lo
    if hi - lo >= length:
        return [(d_lo, d_hi)]
    off = (lo - d_lo) % length
    start = d_lo + off
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


def strong_outage_params(b: int, snr: float, c: float) -> OutageParams:
    if not (snr > 1 and c > 0):
        raise ValueError("need snr > 1 and c > 0")
    if not (1 <= b < math.sqrt(snr)) or b != int(b):
        raise ValueError(f"b must be an integer in [1, sqrt(snr)), got {b!r}")
    delta = (c + 1.0) / math.log2(snr)
    q_max = snr ** (0.25 - delta / 2.0) / math.sqrt(b + 0.5)
    phi = math.sqrt(b + 0.5) * snr ** (-0.25 - delta / 2.0)
    return OutageParams(b=int(b), snr=float(snr), c=float(c), delta=delta, q_max=q_max, phi=phi, regime="strong")


def weak_outage_params(b: int, snr: float, c: float) -> OutageParams:
    if not (snr > 1 and c > 0):
        raise ValueError("need snr > 1 and c > 0")
    if not (1 <= b <= math.ceil(math.log2(snr) / 6.0)) or b != int(b):
        raise ValueError(f"b must be an integer in [1, ceil(log2(snr)/6)], got {b!r}")
    delta = (2.0 * c + 8.0) / math.log2(snr)
    scale = math.sqrt(2.0 ** (-b + 1))
    q_max = scale * snr ** (0.25 - delta / 2.0)
    phi = snr ** (-0.25 - delta / 2.0) / scale
    return OutageParams(b=int(b), snr=float(snr), c=float(c), delta=delta, q_max=q_max, phi=phi, regime="moderately-weak")


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
    for q in range(1, math.floor(params.q_max) + 1):
        w = params.phi / q
        for j in range(q):
            anchor = b + j / q
            pieces.extend(_wrap_pieces(anchor - w, anchor + w, d_lo, d_hi))
    return IntervalSet.from_pieces(pieces, (d_lo, d_hi))


@lru_cache(maxsize=512)
def weak_outage_set(b: int, snr: float, c: float) -> IntervalSet:
    """Gains in [2^-b, 2^-b+1) admitting |q*g - a| < phi with 0 < q <= q_max.

    Built directly from the rational anchors a/q intersecting the dyadic
    domain, so membership agrees exactly with the Diophantine condition; no
    wraparound is involved.
    """
    params = weak_outage_params(b, snr, c)
    d_lo, d_hi = 2.0 ** (-b), 2.0 ** (-b + 1)
    pieces: list[tuple[float, float]] = []
    for q in range(1, math.floor(params.q_max) + 1):
        w = params.phi / q
        a_lo = math.floor(q * (d_lo - w)) + 1
        a_hi = math.ceil(q * (d_hi + w)) - 1
        for a in range(a_lo, a_hi + 1):
            anchor = a / q
            pieces.append((anchor - w, anchor + w))
    return IntervalSet.from_pieces(pieces, (d_lo, d_hi))


def in_outage(g: float, snr: float, c: float) -> bool:
    """Whether the constant-gap guarantee is suspended at this gain.

    Only the strong and moderately-weak regimes carry outage sets; all other
    regimes return False.  The sets do not depend on the number of users.
    """
    if g <= 0:
        raise ValueError("cross gain must be positive")
    if not snr > 1:
        raise ValueError("outage sets are defined for snr > 1")
    if c <= 0:
        raise ValueError("gap parameter c must be positive")
    if 1.0 <= g < math.sqrt(snr):
        return g in strong_outage_set(math.floor(g), snr, c)
    if snr ** (-1.0 / 6.0) <= g < 1.0:
        return g in weak_outage_set(math.ceil(-math.log2(g)), snr, c)
    return False
