"""Stacked integer-combination receivers and their algebraic bookkeeping.

A channel's transform stacks the optimal coefficient vectors into an integer
matrix A with one decoded combination (and its rate) per row.  Successive
cancellation needs A triangularized without row swaps, which only some column
orders allow: each comes with a unit-lower-triangular rational L such that
L A is upper triangular up to that permutation.  All feasible orders come
from one depth-first walk over column-set prefixes, with at most 2^K steps of
integer rows q_S L_i and q_S (L A)_i; each order can be replayed over Z_p
with an integer L, as a mod-p decoder would.  Orders and lifts hold only
integer rows, and their ``Fraction`` matrices and int64 arrays are cached
views, as are a transform's matrix, rates and integer columns.  A
``ChannelSpec`` keeps one checked channel record (``linalg._channel``) that
``transform``, ``gram()`` and ``sum_rate_bounds`` share.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .lattice import DEFAULT_BUDGET, BudgetExceeded, _lll_set, _search
from .linalg import GramMatrix, RationalMatrix, _channel, _Checked, _echelon, _gram, _int_rows, _logdet, _matrix
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
    ``linalg._channel``, so an invalid spec raises ValueError; the record,
    snr included, is kept in ``_checked``, outside init, repr, equality and
    hash.  ``transform``, ``gram()`` and ``sum_rate_bounds`` all read it, so
    the integer factors of its Gram are built once, on first use.
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
        return _gram(self._checked)


@dataclass(frozen=True)
class CfTransform:
    """Per-row decoding results of a channel's optimal coefficient vectors.

    ``results`` carries (a, beta, sigma2_eff, r_comp) per row, sorted by rate
    (best first); ``method`` records whether the rows came from exhaustive
    enumeration or the LLL fallback.  Equality and hashing compare these and
    the channel.  The coefficient ``matrix`` (int64, rows a), the ``rates``
    and the matrix's integer columns are views built on first read and cached.
    """

    results: tuple[ComputationResult, ...]
    channel: ChannelSpec
    method: str

    @cached_property
    def matrix(self) -> np.ndarray:
        import numpy as np
        return np.array([r.a for r in self.results], dtype=np.int64)

    @cached_property
    def rates(self) -> tuple[float, ...]:
        return tuple(r.r_comp for r in self.results)

    @cached_property
    def _cols(self) -> list[list[int]]:
        return [list(col) for col in zip(*(r.a for r in self.results))]


def transform(channel: ChannelSpec, method: str = "auto", budget: int = DEFAULT_BUDGET) -> CfTransform:
    """Build the transform of a channel with the requested search method.

    ``method='auto'`` tries exhaustive enumeration and falls back to LLL when
    the node budget is exhausted; 'exhaustive' propagates BudgetExceeded;
    'lll' skips enumeration entirely.  The budget, and so BudgetExceeded and
    the fallback, apply to K >= 4 only: for K <= 3 the exhaustive search is an
    exact reduction with no enumeration.  Each row's result comes from the
    record and the row's search norm by the same ``rates._rate`` that
    ``comp_rate`` calls, and the rank check is ``exact_rank``'s elimination on
    the rows.  A row whose exact norm is below snr but rounds to it has rate
    0.0.  ValueError for an unknown method or a negative ``budget``.
    """
    if method not in ("auto", "exhaustive", "lll"):
        raise ValueError(f"unknown method {method!r}")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    k, ch = channel.dim, channel._checked
    try:
        opt = _lll_set(ch) if method == "lll" else _search(ch, budget)
    except BudgetExceeded:
        if method == "exhaustive":
            raise
        opt = _lll_set(ch)
    if len(opt) != k:
        raise ValueError("channel admits no full positive-rate coefficient set")
    results = tuple(_rate(ch, vec, norm) for vec, norm in zip(opt.vectors, opt.norms))
    if len(_echelon([list(vec) for vec in opt.vectors], k)) != k:
        raise RuntimeError("coefficient matrix lost rank")
    return CfTransform(results=results, channel=channel, method=opt.method)


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
    logdet = _logdet(ch._checked)
    upper = 0.5 * (k * math.log2(ch.snr) - logdet)
    lower = upper - 0.5 * k * math.log2(k)
    total = sum(t.rates)
    if t.method == "lll":
        warnings.warn("sum-rate lower bound is not guaranteed for an LLL transform", stacklevel=2)
    return SumRateBounds(lower=lower, total=total, upper=upper)


class _Source(NamedTuple):
    """What every step of one matrix shares: its integer rows and columns and the lemma's prime bound."""

    rows: list[list[int]]
    cols: list[list[int]]
    lemma_bound: int


@dataclass(frozen=True)
class _Step:
    """Row i of every order that eliminates a given set S of i columns first.

    q is the lcm of the reduced denominators of row i of L; ``lower_int`` and
    ``tilde_int`` are q times row i of L and of L A, which determine the step,
    so equality and hashing compare only these three.  The ``Fraction`` rows
    ``lower`` and ``tilde`` are built from them on first read.  ``mod_p``
    caches the lifted rows per prime.
    """

    source: _Source = field(repr=False, compare=False)
    q: int
    lower_int: tuple[int, ...]
    tilde_int: tuple[int, ...]
    mod_p: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = field(default_factory=dict, repr=False, compare=False)

    @cached_property
    def lower(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.q) for v in self.lower_int)

    @cached_property
    def tilde(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.q) for v in self.tilde_int)


@dataclass(frozen=True)
class PseudoTriangularization:
    """Unit-lower-triangular L and column order pi with L A triangular.

    ``steps[i]`` is the step, shared with other orders of A, that holds row i
    in integers; ``lower`` (L) and ``a_tilde`` (L A) are built from the steps
    on first read.  ``a_tilde[i, pi[j]] == 0`` for all j < i, exactly, in
    rational arithmetic; the permuted diagonal is nonzero because L A keeps
    the rank of A.  Two orders are equal when their pi, L and L A are.
    """

    pi: tuple[int, ...]
    steps: tuple[_Step, ...]

    @cached_property
    def lower(self) -> RationalMatrix:
        return RationalMatrix(tuple(s.lower for s in self.steps))

    @cached_property
    def a_tilde(self) -> RationalMatrix:
        return RationalMatrix(tuple(s.tilde for s in self.steps))


def _reduce(cols, path, pi) -> list[int]:
    """Entries 0..i of q_S L_i, i = len(pi), S = pi[:i]; the entries past i are zero.

    e_i with each pi[j] eliminated by path step j, made primitive.  Step j's row of L A is zero
    at pi[:j], so eliminating pi[j] keeps the earlier zeros; q > 0.
    """
    i = len(pi)
    lower = [0] * i + [1]
    for s, c in zip(path, pi):
        y = sum(map(mul, lower, cols[c]))
        if y:
            d = s.tilde_int[c]
            lower = [d * x - y * v for x, v in zip(lower, s.lower_int)]
    g = math.gcd(*lower) if lower[i] > 0 else -math.gcd(*lower)
    return [x // g for x in lower]


def pseudo_triangularize(a_matrix, enumerate_limit: int = 8) -> list[PseudoTriangularization]:
    """All column orders under which A triangularizes without row swaps.

    Row i's multipliers depend only on the set S of columns eliminated before
    it, and column c can follow S iff row i of L A is nonzero at c (L A keeps
    the rank of A), so every prefix completes.  A depth-first walk over column
    prefixes builds each (row, S) step once, by ``_reduce`` from the steps on
    its path, with no ``Fraction`` arithmetic; L A is recomputed from A's
    columns, so the check that S is eliminated does not trust the reduction.
    Orders come out in lexicographic ``pi`` order.  For K > ``enumerate_limit``
    only the greedy order is returned: at each row, the first remaining column
    where the reduced row is nonzero.  ValueError unless A is a nonempty
    full-rank square integer matrix.
    """
    rows = _int_rows(_matrix(a_matrix, "matrix must be a nonempty square matrix", square=True))
    k = len(rows)
    if not k:
        raise ValueError("matrix must be a nonempty square matrix")
    if len(_echelon([row[:] for row in rows], k)) != k:
        raise ValueError("matrix must be full rank")
    a_max = max(1, *map(abs, itertools.chain.from_iterable(rows)))
    cols = [list(col) for col in zip(*rows)]
    source = _Source(rows, cols, k * math.factorial(k) ** 2 * (k * a_max) ** (2 * k) * a_max)
    memo: dict[int, tuple[_Step, list[int]]] = {}  # keyed by the bitmask of S: its step and next columns
    out, stack = [], [((), (), 0)]  # stack entries: (pi, its steps, the bitmask of pi), pi shorter than k
    while stack:
        pi, path, done = stack.pop()
        i = len(pi)
        if done not in memo:
            head = _reduce(cols, path, pi)
            tilde = tuple([sum(map(mul, head, col)) for col in cols])  # map stops at entry i
            if any(map(tilde.__getitem__, pi)):
                raise RuntimeError("eliminated entry is nonzero")
            nxt = [c for c in range(k) if tilde[c]]  # the columns in S are zero there
            step = _Step(source, head[i], (*head, *[0] * (k - i - 1)), tilde)
            memo[done] = step, nxt[:1] if k > enumerate_limit else nxt
        s, nxt = memo[done]
        path = (*path, s)
        if i + 1 == k:  # the last row: its one next column completes the order
            out += [PseudoTriangularization((*pi, c), path) for c in nxt]
        else:
            stack += [((*pi, c), path, done | 1 << c) for c in reversed(nxt)]  # smallest column popped first
    return out


@dataclass(frozen=True)
class ModPLift:
    """Integer replay of a triangularization over Z_p.

    ``lower_rows`` and ``a_tilde_rows`` are the rows of L mod p and of
    (L mod p) A mod p; ``lower_mod_p`` and ``a_tilde_mod_p`` are the same rows
    as int64 arrays, built on first read.  ``lower_mod_p`` is
    unit-lower-triangular with entries in {0..p-1} and (lower_mod_p @ A) mod p
    reproduces the zero pattern of the rational elimination; ``lemma_bound``
    is the sufficient (far larger) prime bound K*(K!)^2*(K*a_max)^(2K)*a_max
    kept for reference.
    """

    p: int
    lower_rows: tuple[tuple[int, ...], ...]
    a_tilde_rows: tuple[tuple[int, ...], ...]
    row_denominators: tuple[int, ...]
    lemma_bound: int

    @cached_property
    def lower_mod_p(self) -> np.ndarray:
        import numpy as np
        return np.array(self.lower_rows, dtype=np.int64)

    @cached_property
    def a_tilde_mod_p(self) -> np.ndarray:
        import numpy as np
        return np.array(self.a_tilde_rows, dtype=np.int64)


def _is_prime(n: int) -> bool:
    for f in range(2, math.isqrt(n) + 1):
        if not n % f:
            return False
    return n >= 2


def mod_p_lift(a_matrix, pt: PseudoTriangularization) -> ModPLift:
    """Lift a rational triangularization of integer A to arithmetic mod p.

    Row i of L mod p is q_i^-1 times the integer row q_i L_i of its step, and p
    is the smallest prime that divides no q_i and no permuted diagonal entry
    q_i (L A)[i, pi_i].  Each lifted row is built and checked for lost zeros
    once per (column set, p).  ValueError when A is not the matrix ``pt`` was
    built from.
    """
    steps, pi = pt.steps, pt.pi
    if not steps or _matrix(a_matrix, "matrix is not the one the triangularization was built from") != steps[0].source.rows:
        raise ValueError("matrix is not the one the triangularization was built from")
    _, cols, lemma_bound = steps[0].source
    units = 1
    for s, c in zip(steps, pi):
        units *= s.q * s.tilde_int[c]
    p = 2
    while not units % p or not _is_prime(p):
        p += 1
    lower_rows, a_tilde_rows = [], []
    for i, s in enumerate(steps):
        lifted = s.mod_p.get(p)
        if lifted is None:
            inv = pow(s.q, -1, p)
            head = [x * inv % p for x in s.lower_int[: i + 1]]  # entries past i are zero
            tilde_p = tuple([sum(map(mul, head, col)) % p for col in cols])
            if any(map(tilde_p.__getitem__, pi[:i])):
                raise RuntimeError("mod-p elimination lost a zero")
            lifted = s.mod_p[p] = (*head, *[0] * (len(cols) - i - 1)), tilde_p
        if not lifted[1][pi[i]]:
            raise RuntimeError("mod-p diagonal entry vanished")
        lower_rows.append(lifted[0])
        a_tilde_rows.append(lifted[1])
    return ModPLift(p, tuple(lower_rows), tuple(a_tilde_rows), tuple([s.q for s in steps]), lemma_bound)


def rate_allocation(t: CfTransform, pt: PseudoTriangularization) -> tuple[float, ...]:
    """Per-user rates under a feasible cancellation order.

    User k is decoded at the rate of combination pi^-1(k); the sum equals the
    transform's sum rate for every feasible permutation.  ValueError unless
    ``pt`` was built from the transform's matrix (its steps share the
    transform's integer columns ``_cols``), as in ``mod_p_lift``.
    """
    if not pt.steps or pt.steps[0].source.cols != t._cols:
        raise ValueError("matrix is not the one the triangularization was built from")
    alloc = [0.0] * len(pt.pi)
    for user, rate in zip(pt.pi, t.rates):
        alloc[user] = rate
    return tuple(alloc)
