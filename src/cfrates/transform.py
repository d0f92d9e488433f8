"""Stacked integer-combination receivers and their algebraic bookkeeping.

A channel's transform stacks the optimal coefficient vectors into an integer
matrix A with one decoded combination (and its rate) per row.  Solving the
combinations back for the individual codewords by successive cancellation
requires triangularizing A without row swaps, which is only possible for some
column orders: each feasible order comes with a unit-lower-triangular rational
matrix L such that L A is upper triangular up to that column permutation.
Row i's multipliers depend only on the set S of columns eliminated before it,
so all feasible orders come from a prefix search over column sets with at most
2^K integer row solves, each kept as one step with integer rows q_S L_i and
q_S (L A)_i.  The same elimination can be replayed over Z_p with an integer
unit-lower L once a suitable prime is chosen, which is what an actual mod-p
decoder would use; each lifted row is built once per (column set, p).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .lattice import DEFAULT_BUDGET, BudgetExceeded, OptimalSet, _lll_set, _search
from .linalg import (
    GramMatrix,
    RationalMatrix,
    _channel,
    _Checked,
    _cholesky_rows,
    _echelon,
    _gram_rows,
    _solve_scaled,
    exact_rank,
    gram_effective,
    sylvester_logdet,
)
from .rates import ComputationResult, _rate

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
    diagonal of their weight matrix.  Construction checks the channel with
    ``linalg._channel``, the one check of every channel input, so an invalid
    spec raises ValueError and never exists; the checked record is kept in
    ``_checked``, outside init, repr, equality and hash, so ``transform``
    reuses it instead of checking again.
    """

    gains: tuple[float, ...]
    snr: float
    weights_sq: tuple[float, ...]
    _checked: _Checked = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_checked", _channel(self.gains, self.snr, self.weights_sq))

    @classmethod
    def plain(cls, h, snr: float) -> "ChannelSpec":
        h = tuple(float(x) for x in h)
        return cls(gains=h, snr=float(snr), weights_sq=(1.0,) * len(h))

    @classmethod
    def effective(cls, g, b_sq, snr: float) -> "ChannelSpec":
        g = tuple(float(x) for x in g)
        return cls(gains=g, snr=float(snr), weights_sq=tuple(float(x) for x in b_sq))

    @property
    def dim(self) -> int:
        return len(self.gains)

    def gram(self) -> GramMatrix:
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
    'lll' skips enumeration entirely.  The channel's checked record gives the
    Gram rows and their Cholesky factor, shared by both searches; each row's
    result comes from the record by the same ``rates._rate`` that
    ``comp_rate`` calls, and the rank check is ``exact_rank``'s elimination on
    the rows.
    """
    if method not in ("auto", "exhaustive", "lll"):
        raise ValueError(f"unknown method {method!r}")
    k, snr, checked = channel.dim, channel.snr, channel._checked
    gram = _gram_rows(checked, snr)
    factor = _cholesky_rows(gram)
    opt: OptimalSet
    if method == "lll":
        opt = _lll_set(factor)
    else:
        try:
            opt = _search(gram, factor, snr, budget)
        except BudgetExceeded:
            if method == "exhaustive":
                raise
            opt = _lll_set(factor)
    if len(opt) != k:
        raise ValueError("channel admits no full positive-rate coefficient set")
    results = tuple(_rate(checked, snr, vec) for vec in opt.vectors)
    if len(_echelon([list(vec) for vec in opt.vectors], k)) != k:
        raise RuntimeError("coefficient matrix lost rank")
    return CfTransform(matrix=opt.matrix, results=results, channel=channel, method=opt.method)


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
    logdet = sylvester_logdet(ch.gains, ch.snr, ch.weights_sq)
    upper = 0.5 * (k * math.log2(ch.snr) - logdet)
    lower = upper - 0.5 * k * math.log2(k)
    total = sum(t.rates)
    if t.method == "lll":
        warnings.warn("sum-rate lower bound is not guaranteed for an LLL transform", stacklevel=2)
    return SumRateBounds(lower=lower, total=total, upper=upper)


@dataclass(frozen=True)
class _Step:
    """Row i of every order that eliminates a given set S of i columns first.

    q is the lcm of the reduced denominators of row i of L; ``lower_int`` and
    ``tilde_int`` are q times row i of L and of L A, and ``lower``/``tilde``
    the rows themselves.  ``mod_p`` caches the lifted rows per prime.
    """

    source: tuple[tuple[int, ...], ...]
    q: int
    lower_int: tuple[int, ...]
    tilde_int: tuple[int, ...]
    lower: tuple[Fraction, ...]
    tilde: tuple[Fraction, ...]
    mod_p: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = field(default_factory=dict)


@dataclass(frozen=True)
class PseudoTriangularization:
    """Unit-lower-triangular L and column order pi with L A triangular.

    ``a_tilde[i, pi[j]] == 0`` for all j < i, exactly, in rational arithmetic;
    the permuted diagonal is nonzero because L A keeps the rank of A.
    ``steps[i]`` is the step, shared with other orders of A, that holds row i.
    """

    lower: RationalMatrix
    pi: tuple[int, ...]
    a_tilde: RationalMatrix
    steps: tuple[_Step, ...] = field(repr=False, compare=False)


def pseudo_triangularize(a_matrix, enumerate_limit: int = 8) -> list[PseudoTriangularization]:
    """All column orders under which A triangularizes without row swaps.

    Row i's multipliers depend only on the set S of columns eliminated before
    it: they are the exact solution of ``A[0:i, S]^T x = -A[i, S]`` with free
    unknowns set to zero.  A depth-first search over column prefixes in
    lexicographic order solves each (row, S) once, in integers, into one step
    keyed by the bitmask of S, so at most 2^K row solves are made, with no
    ``Fraction`` arithmetic, and an infeasible prefix is pruned for all of its
    extensions.  Orders come out in lexicographic ``pi`` order.  Full-rank A
    always admits at least one.  For K > ``enumerate_limit`` only the greedy
    order is returned: at each row, the first remaining column where the
    reduced row is nonzero.
    """
    a = np.asarray(a_matrix)
    k = a.shape[0]
    if a.shape != (k, k):
        raise ValueError("matrix must be square")
    if exact_rank(a) != k:
        raise ValueError("matrix must be full rank")
    rows = tuple(tuple(int(x) for x in row) for row in a.tolist())
    memo: dict[int, _Step | None] = {}  # keyed by the bitmask of S; the row is its size

    def step(done: int, i: int) -> _Step | None:
        if done not in memo:
            cols = [c for c in range(k) if done >> c & 1]
            solved = _solve_scaled([[rows[m][c] for m in range(i)] for c in cols], [-rows[i][c] for c in cols])
            if solved is None:
                memo[done] = None
            else:
                d, x = solved
                q = abs(d) // math.gcd(d, *x)
                lower = (*(n // (d // q) for n in x), q, *[0] * (k - i - 1))
                tilde = tuple(sum(lower[m] * rows[m][c] for m in range(i + 1)) for c in range(k))
                if any(tilde[c] for c in cols):
                    raise RuntimeError("eliminated entry is nonzero")
                fractions = [tuple(Fraction(v, q) for v in row) for row in (lower, tilde)]
                memo[done] = _Step(rows, q, lower, tilde, *fractions)
        return memo[done]

    def orders(pi: tuple[int, ...], path: tuple[_Step, ...], done: int):
        if len(pi) == k:
            yield pi, path
        elif (s := step(done, len(pi))) is not None:
            free = [c for c in range(k) if not done >> c & 1]
            if k > enumerate_limit:
                free = [next(c for c in free if s.tilde_int[c])]
            for c in free:
                yield from orders((*pi, c), (*path, s), done | 1 << c)

    out = []
    for pi, path in orders((), (), 0):
        if any(s.tilde_int[c] == 0 for s, c in zip(path, pi)):
            raise RuntimeError("permuted diagonal entry vanished")
        out.append(
            PseudoTriangularization(
                lower=RationalMatrix(tuple(s.lower for s in path)),
                pi=pi,
                a_tilde=RationalMatrix(tuple(s.tilde for s in path)),
                steps=path,
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
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def mod_p_lift(a_matrix, pt: PseudoTriangularization) -> ModPLift:
    """Lift a rational triangularization of integer A to arithmetic mod p.

    Row i of L mod p is q_i^-1 times the integer row q_i L_i of its step, and p
    is the smallest prime that leaves every q_i and every permuted diagonal
    entry q_i (L A)[i, pi_i] nonzero mod p.  The rows of L mod p and of
    (L mod p) A mod p are built, and checked for lost zeros, once per (column
    set, p) and shared by every order through that step.  ValueError when A is
    not the matrix ``pt`` was built from.
    """
    rows = pt.steps[0].source
    if tuple(map(tuple, np.asarray(a_matrix).tolist())) != rows:
        raise ValueError("matrix is not the one the triangularization was built from")
    k, pi = len(rows), pt.pi
    units = math.prod(s.q * s.tilde_int[c] for s, c in zip(pt.steps, pi))
    p = next(p for p in itertools.count(2) if units % p and _is_prime(p))
    lifted = []
    for i, s in enumerate(pt.steps):
        if p not in s.mod_p:
            inv = pow(s.q, -1, p)
            lower_p = tuple(x * inv % p for x in s.lower_int)
            tilde_p = tuple(sum(x * row[c] for x, row in zip(lower_p, rows)) % p for c in range(k))
            if any(tilde_p[c] for c in pi[:i]):
                raise RuntimeError("mod-p elimination lost a zero")
            s.mod_p[p] = lower_p, tilde_p
        lifted.append(s.mod_p[p])
        if lifted[i][1][pi[i]] == 0:
            raise RuntimeError("mod-p diagonal entry vanished")

    a_max = max(1, *map(abs, itertools.chain.from_iterable(rows)))
    return ModPLift(
        p=p,
        lower_mod_p=np.array([lower_p for lower_p, _ in lifted], dtype=np.int64),
        a_tilde_mod_p=np.array([tilde_p for _, tilde_p in lifted], dtype=np.int64),
        row_denominators=tuple(s.q for s in pt.steps),
        lemma_bound=k * math.factorial(k) ** 2 * (k * a_max) ** (2 * k) * a_max,
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
