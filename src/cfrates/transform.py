"""Stacked integer-combination receivers and their algebraic bookkeeping.

A channel's transform stacks the optimal coefficient vectors into an integer
matrix A with one decoded combination (and its rate) per row.  Solving the
combinations back for the individual codewords by successive cancellation
requires triangularizing A without row swaps, which is only possible for some
column orders: each feasible order comes with a unit-lower-triangular rational
matrix L such that L A is upper triangular up to that column permutation.
Row i's multipliers depend only on the set of columns eliminated before it, so
all feasible orders come from a prefix search over column sets with at most
2^K exact row solves.  The same elimination can be replayed over Z_p with an
integer unit-lower L once a suitable prime is chosen, which is what an actual
mod-p decoder would use.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .lattice import DEFAULT_BUDGET, BudgetExceeded, OptimalSet, lll_reduce, successive_minima
from .linalg import (
    GramMatrix,
    RationalMatrix,
    cholesky,
    exact_rank,
    exact_solve_in_span,
    gram_effective,
    gram_plain,
    sylvester_logdet,
)
from .rates import ComputationResult, comp_rate

__all__ = [
    "ChannelSpec",
    "CfTransform",
    "PseudoTriangularization",
    "ModPLift",
    "SumRateBounds",
    "transform",
    "sum_rate_bounds",
    "pseudo_triangularize",
    "mod_p_lift",
    "rate_allocation",
]


@dataclass(frozen=True)
class ChannelSpec:
    """A problem instance: gains, squared effective weights, and linear snr.

    ``weights_sq`` is all ones for a plain MAC; effective MACs carry the
    diagonal of their weight matrix.
    """

    gains: tuple[float, ...]
    snr: float
    weights_sq: tuple[float, ...]

    @classmethod
    def plain(cls, h, snr: float) -> "ChannelSpec":
        h = tuple(float(x) for x in h)
        return cls(gains=h, snr=float(snr), weights_sq=(1.0,) * len(h))

    @classmethod
    def effective(cls, g, b_sq, snr: float) -> "ChannelSpec":
        g = tuple(float(x) for x in g)
        b_sq = tuple(float(x) for x in b_sq)
        if len(b_sq) != len(g):
            raise ValueError("weights must match the gain vector length")
        return cls(gains=g, snr=float(snr), weights_sq=b_sq)

    @property
    def dim(self) -> int:
        return len(self.gains)

    @property
    def is_plain(self) -> bool:
        return all(w == 1.0 for w in self.weights_sq)

    def gram(self) -> GramMatrix:
        if self.is_plain:
            return gram_plain(self.gains, self.snr)
        return gram_effective(self.gains, self.weights_sq, self.snr)


@dataclass(frozen=True)
class CfTransform:
    """Integer coefficient matrix plus per-row decoding results.

    Rows of ``matrix`` are the optimal coefficient vectors sorted by rate
    (best first); ``results`` carries (a, beta, sigma2_eff, r_comp) per row.
    ``method`` records whether the rows came from exhaustive enumeration or
    the LLL fallback.
    """

    matrix: np.ndarray
    results: tuple[ComputationResult, ...]
    channel: ChannelSpec
    method: str

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(r.r_comp for r in self.results)


def transform(channel: ChannelSpec, method: str = "auto", budget: int = DEFAULT_BUDGET) -> CfTransform:
    """Build the transform of a channel with the requested search method.

    ``method='auto'`` tries exhaustive enumeration and falls back to LLL when
    the node budget is exhausted; 'exhaustive' propagates BudgetExceeded;
    'lll' skips enumeration entirely.
    """
    if method not in ("auto", "exhaustive", "lll"):
        raise ValueError(f"unknown method {method!r}")
    gram = channel.gram()
    opt: OptimalSet
    if method == "lll":
        opt = lll_reduce(cholesky(gram))
    else:
        try:
            opt = successive_minima(gram, budget=budget)
        except BudgetExceeded:
            if method == "exhaustive":
                raise
            opt = lll_reduce(cholesky(gram))
    if len(opt) != channel.dim:
        raise ValueError("channel admits no full positive-rate coefficient set")
    b_sq = None if channel.is_plain else channel.weights_sq
    results = tuple(comp_rate(channel.gains, vec, channel.snr, b_sq) for vec in opt.vectors)
    matrix = opt.matrix
    if exact_rank(matrix) != channel.dim:
        raise AssertionError("coefficient matrix lost rank")
    return CfTransform(matrix=matrix, results=results, channel=channel, method=opt.method)


class SumRateBounds(NamedTuple):
    lower: float
    total: float
    upper: float


def sum_rate_bounds(t: CfTransform) -> SumRateBounds:
    """Sandwich for the sum of computation rates.

    upper is the MAC sum capacity 0.5*log2(1 + snr*g^T B g / det B); lower sits
    (K/2)*log2(K) below it.  Both bound the exhaustive sum; an LLL transform
    only guarantees the upper bound, so one is flagged with a warning.
    """
    ch = t.channel
    k = ch.dim
    b_sq = None if ch.is_plain else ch.weights_sq
    logdet = sylvester_logdet(ch.gains, ch.snr, b_sq)
    upper = 0.5 * (k * math.log2(ch.snr) - logdet)
    lower = upper - 0.5 * k * math.log2(k)
    total = sum(t.rates)
    if t.method == "lll":
        warnings.warn("sum-rate lower bound is not guaranteed for an LLL transform", stacklevel=2)
    return SumRateBounds(lower=lower, total=total, upper=upper)


@dataclass(frozen=True)
class PseudoTriangularization:
    """Unit-lower-triangular L and column order pi with L A triangular.

    ``a_tilde[i, pi[j]] == 0`` for all j < i, exactly, in rational arithmetic;
    the permuted diagonal is nonzero because L A keeps the rank of A.
    """

    lower: RationalMatrix
    pi: tuple[int, ...]
    a_tilde: RationalMatrix


def pseudo_triangularize(a_matrix, enumerate_limit: int = 8) -> list[PseudoTriangularization]:
    """All column orders under which A triangularizes without row swaps.

    Row i's multipliers depend only on the set S of columns eliminated before
    it: they are the exact solution of ``A[0:i, S]^T x = -A[i, S]`` with free
    unknowns set to zero.  A depth-first search over column prefixes in
    lexicographic order solves each (row, column set) once, so at most 2^K
    exact row solves are made, and an infeasible prefix is pruned for all of
    its extensions.  Orders come out in lexicographic ``pi`` order.  Full-rank
    A always admits at least one.  For K > ``enumerate_limit`` only the greedy
    order is returned: at each row, the first remaining column where the
    reduced row is nonzero.
    """
    a = np.asarray(a_matrix)
    k = a.shape[0]
    if a.shape != (k, k):
        raise ValueError("matrix must be square")
    if exact_rank(a) != k:
        raise ValueError("matrix must be full rank")
    rows = [[int(x) for x in row] for row in a.tolist()]
    memo: dict[frozenset[int], tuple | None] = {}  # keyed by the column set; the row is its size

    def reduced(pi: tuple[int, ...]):
        """(row of L, row of L A) for row len(pi) eliminating pi's columns, or None."""
        done = frozenset(pi)
        if done not in memo:
            i, cols = len(pi), sorted(done)
            x = exact_solve_in_span([[rows[m][c] for m in range(i)] for c in cols], [-rows[i][c] for c in cols])
            if x is None:
                memo[done] = None
            else:
                lower = (*x, Fraction(1), *[Fraction(0)] * (k - i - 1))
                tilde = tuple(sum(lower[m] * rows[m][c] for m in range(i + 1)) for c in range(k))
                if any(tilde[c] != 0 for c in cols):
                    raise AssertionError("eliminated entry is nonzero")
                memo[done] = (lower, tilde)
        return memo[done]

    def orders(pi: tuple[int, ...]):
        if len(pi) == k:
            yield pi
        elif reduced(pi) is not None:
            for c in range(k):
                if c not in pi:
                    yield from orders((*pi, c))

    if k <= enumerate_limit:
        found = list(orders(()))
    else:
        pi: tuple[int, ...] = ()
        for _ in range(k):
            tilde = reduced(pi)[1]
            pi = (*pi, next(c for c in range(k) if c not in pi and tilde[c] != 0))
        found = [pi]

    out = []
    for pi in found:
        solved = [reduced(pi[:i]) for i in range(k)]
        if any(solved[i][1][pi[i]] == 0 for i in range(k)):
            raise AssertionError("permuted diagonal entry vanished")
        out.append(
            PseudoTriangularization(
                lower=RationalMatrix(tuple(lo for lo, _ in solved)),
                pi=pi,
                a_tilde=RationalMatrix(tuple(t for _, t in solved)),
            )
        )
    return out


@dataclass(frozen=True)
class ModPLift:
    """Integer replay of a triangularization over Z_p.

    ``lower_mod_p`` is unit-lower-triangular with entries in {0..p-1} and
    (lower_mod_p @ A) mod p reproduces the zero pattern of the rational
    elimination; ``lemma_bound`` is the sufficient (far larger) prime bound
    K*(K!)^2*(K*a_max)^(2K)*a_max kept for reference.
    """

    p: int
    lower_mod_p: np.ndarray
    a_tilde_mod_p: np.ndarray
    row_denominators: tuple[int, ...]
    lemma_bound: int


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def mod_p_lift(a_matrix, pt: PseudoTriangularization) -> ModPLift:
    """Lift a rational triangularization of integer A to arithmetic mod p.

    Row i of L times its common denominator q_i is integral, and so is q_i
    times row i of L A; reducing mod p and rescaling by q_i^-1 keeps the
    eliminated zeros for free.  p is chosen as the smallest prime that leaves
    every q_i invertible and every permuted diagonal entry nonzero mod p.
    """
    a = np.asarray(a_matrix)
    k = a.shape[0]
    rows = [[int(x) for x in row] for row in a.tolist()]
    lower = pt.lower
    pi = pt.pi

    denoms = []
    for i in range(k):
        q = 1
        for j in range(k):
            q = q * lower[i, j].denominator // math.gcd(q, lower[i, j].denominator)
        denoms.append(q)

    scaled_lower = [[lower[i, j] * denoms[i] for j in range(k)] for i in range(k)]
    diag_scaled = []
    for i in range(k):
        val = pt.a_tilde[i, pi[i]] * denoms[i]
        if val.denominator != 1:
            raise AssertionError("row denominator does not clear the eliminated row")
        diag_scaled.append(int(val))

    p = 2
    while True:
        if _is_prime(p) and all(q % p != 0 for q in denoms) and all(d % p != 0 for d in diag_scaled):
            break
        p += 1

    lower_p = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        inv = pow(denoms[i] % p, -1, p)
        for j in range(k):
            num = scaled_lower[i][j]
            if num.denominator != 1:
                raise AssertionError("scaled multiplier is not integral")
            lower_p[i, j] = (inv * (int(num) % p)) % p

    a_tilde_p = (lower_p @ np.array(rows, dtype=object)) % p
    a_tilde_p = a_tilde_p.astype(np.int64)
    for i in range(k):
        for j in range(i):
            if a_tilde_p[i, pi[j]] != 0:
                raise AssertionError("mod-p elimination lost a zero")
        if a_tilde_p[i, pi[i]] % p == 0:
            raise AssertionError("mod-p diagonal entry vanished")

    a_max = max(1, int(np.max(np.abs(a))))
    bound = k * math.factorial(k) ** 2 * (k * a_max) ** (2 * k) * a_max
    return ModPLift(
        p=p,
        lower_mod_p=lower_p,
        a_tilde_mod_p=a_tilde_p,
        row_denominators=tuple(denoms),
        lemma_bound=bound,
    )


def rate_allocation(t: CfTransform, pt: PseudoTriangularization) -> tuple[float, ...]:
    """Per-user rates under a feasible cancellation order.

    User k is decoded at the rate of combination pi^-1(k); the sum equals the
    transform's sum rate for every feasible permutation.
    """
    k = len(pt.pi)
    if t.matrix.shape[0] != k:
        raise ValueError("transform and triangularization sizes differ")
    pi_inv = [0] * k
    for m, col in enumerate(pt.pi):
        pi_inv[col] = m
    rates = t.rates
    return tuple(rates[pi_inv[user]] for user in range(k))
