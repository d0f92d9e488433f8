"""Shortest independent coefficient vectors for a channel's Gram matrix.

The optimal coefficient set consists of integer vectors realizing the
successive minima of the lattice whose Gram matrix is G, found one at a time:
vector m is the smallest a^T G a outside the span of vectors 0..m-1.  Each
step is a depth-first Fincke-Pohst walk in the coordinates of a unimodular
basis that starts LLL-reduced and whose leading columns span the vectors
found so far, so a sign rule on the trailing coordinates skips the span and
no independence test is needed.  The sphere of step m is the (m+1)-th
smallest LLL norm, which bounds the (m+1)-th minimum.  LLL alone is the fast
suboptimal fallback when an enumeration budget is exhausted.

``successive_minima`` and ``transform`` both run ``_search``, on Python ints
and floats over the columns of a channel's embedding M (``linalg._embedding``)
and ranking candidates by ``linalg._sq_norm``, the norm the rates use.  LLL is
classical floating LLL (Cohen, *A Course in Computational Algebraic Number
Theory*, 1993, §2.6.3), updating its Gram-Schmidt rows in place; the search
rebuilds them from b = q W once after LLL and then only after a ``_fold``
that moved W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .linalg import GramMatrix, _channel, _Embedding, _sq_norm

__all__ = ["BudgetExceeded", "OptimalSet", "canonicalize", "candidate_bound", "successive_minima", "lll_reduce"]

DEFAULT_BUDGET = 10_000_000

# Relative slack for sphere inclusion tests.  The walk runs on M's float
# columns, whose entries c g_j round independently, so a walk norm is within
# 3 eps sqrt(den) of ||M a||^2 = a^T G a, relative, den = 1 + snr g^T B g
# (to first order; 0.4 eps sqrt(den) was the largest seen).  1e-9 covers that
# while den < 1e12: 120 dB at g^T B g = 1.
_RADIUS_SLACK = 1e-9


class BudgetExceeded(RuntimeError):
    """Raised when enumeration visits more nodes than the caller allowed."""


def canonicalize(a) -> np.ndarray:
    """Sign-normalize an integer vector so its first nonzero entry is positive.

    A vector and its negation give identical rates, so one representative per
    pair is enough.  ValueError unless the entries are integers, not all zero.
    """
    vec = tuple(np.asarray(a).tolist())
    if not all(float(x).is_integer() for x in vec):
        raise ValueError("vector must be integer")
    if not any(vec):
        raise ValueError("zero vector has no canonical form")
    return np.array(_signed(vec), dtype=np.int64)


def candidate_bound(gains, snr: float, b_sq=None) -> float:
    """Squared-norm bound below which integer vectors can yield positive rate.

    Returns 1 + snr*||h||^2 for a plain MAC, or 1 + snr * g^T B g with squared
    weights ``b_sq``.
    """
    return _channel(gains, snr, b_sq)[3]


@dataclass(frozen=True)
class OptimalSet:
    """Ordered independent coefficient vectors with nondecreasing noise norms.

    ``norms[m]`` is a^T G a for ``vectors[m]``.  With ``method='exhaustive'``
    the norms are exactly the squared successive minima of the lattice; with
    ``method='lll'`` they are upper bounds.  The set is empty when no vector
    achieves positive rate.
    """

    vectors: tuple[tuple[int, ...], ...]
    norms: tuple[float, ...]
    method: str

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def matrix(self) -> np.ndarray:
        """Vectors stacked as rows, best (smallest norm) first."""
        return np.array(self.vectors, dtype=np.int64)


def _dot(u, v):
    return sum(map(mul, u, v))


def _signed(a: tuple[int, ...]) -> tuple[int, ...]:
    """``a`` or ``-a``, whichever has a positive first nonzero entry."""
    return a if next(x for x in a if x) > 0 else tuple(-x for x in a)


class _Basis:
    """Lattice vectors b_i = q w_i and their Gram-Schmidt data, on Python floats.

    Built from the basis vectors (rows), the columns of ``q``; ``q`` and the
    unimodular ``w`` are lists of rows.  ``ortho[i]`` is b*_i, ``mu[i][j] =
    <b_i, b*_j> / |b*_j|^2`` (j < i) and ``bb[i] = |b*_i|^2``.  ``lll`` keeps
    ``mu`` and ``bb`` but not ``ortho``; ``refresh`` rebuilds all three.
    """

    def __init__(self, rows: list[list[float]]):
        k = len(rows)
        self.q, self.w = list(zip(*rows)), [[int(i == j) for j in range(k)] for i in range(k)]
        self.b = [list(row) for row in rows]
        self.ortho, self.mu, self.bb = [None] * k, [[0.0] * k for _ in range(k)], [0.0] * k

    def _row(self, i: int) -> None:
        """Gram-Schmidt data of vector i, from b_i and b*_0..b*_{i-1}."""
        bi = oi = self.b[i]
        mu_i, bb = self.mu[i], self.bb
        for j, oj in enumerate(self.ortho[:i]):
            mu_i[j] = c = _dot(bi, oj) / bb[j] if bb[j] > 0 else 0.0
            oi = [x - c * y for x, y in zip(oi, oj)]
        self.ortho[i] = oi
        bb[i] = _dot(oi, oi)

    def refresh(self, start: int) -> None:
        """Recompute b_i = q w_i and the Gram-Schmidt data after columns ``start``.. of w changed."""
        self.b[start:] = [[_dot(row, col) for row in self.q] for col in list(zip(*self.w))[start:]]
        for i in range(start, len(self.b)):
            self._row(i)

    def lll(self, delta: float) -> list[list[int]]:
        """LLL-reduce the vectors in place (Lovasz parameter ``delta``); return ``w``.

        A size reduction updates row i of ``mu`` in place and an exchange
        applies the swap formulas to ``mu`` and ``bb`` (Cohen 1993, 2.6.3).
        Row i is computed when the loop first reaches it, against b*_0..b*_{i-1}
        rebuilt from b and ``mu``: orthogonalizing vectors, not inner products,
        keeps ``bb`` accurate on ill-conditioned bases.
        """
        b, w, mu, bb, ortho = self.b, self.w, self.mu, self.bb, self.ortho
        k, top = len(b), 0
        if b:
            self._row(0)
        i = 1
        while i < k:
            mu_i = mu[i]
            if i > top:
                top = i
                for j in range(i):  # b*_j = b_j - sum_{m<j} mu_jm b*_m
                    oj = b[j]
                    for c, om in zip(mu[j], ortho[:j]):
                        oj = [x - c * y for x, y in zip(oj, om)]
                    ortho[j] = oj
                self._row(i)
            for j in range(i - 1, -1, -1):
                if abs(mu_i[j]) > 0.5:
                    r = round(mu_i[j])
                    b[i] = [x - r * y for x, y in zip(b[i], b[j])]
                    for row in w:
                        row[i] -= r * row[j]
                    mu_i[:j] = [x - r * y for x, y in zip(mu_i, mu[j][:j])]
                    mu_i[j] -= r
            c = mu_i[i - 1]
            if bb[i] >= (delta - c * c) * bb[i - 1]:
                i += 1
                continue
            # exchange b_{i-1} and b_i; rows of mu above i-1 and the other bb do not change
            bb_new = bb[i] + c * c * bb[i - 1]  # |b*_{i-1}|^2 after the exchange
            mu_i[i - 1] = c * bb[i - 1] / bb_new
            bb[i - 1], bb[i] = bb_new, bb[i - 1] * bb[i] / bb_new
            b[i - 1], b[i] = b[i], b[i - 1]
            for row in w:
                row[i - 1], row[i] = row[i], row[i - 1]
            mu[i - 1][: i - 1], mu_i[: i - 1] = mu_i[: i - 1], mu[i - 1][: i - 1]
            for mu_l in mu[i + 1 : top + 1]:
                t = mu_l[i]
                mu_l[i] = mu_l[i - 1] - c * t
                mu_l[i - 1] = t + mu_i[i - 1] * mu_l[i]
            i = max(i - 1, 1)
        return w


def _enumerate_half_sphere(mu, bb, radius_sq: float, floor: int, budget: int, nodes: int = 0) -> tuple[list, int]:
    """All integer c with ||R c||^2 <= radius_sq and c[floor:] nonzero, one per {c, -c}.

    ||R c||^2 = sum_i bb[i] (c_i + sum_{j>i} mu[j][i] c_j)^2 for a ``_Basis``'s
    Gram-Schmidt data, fixed from the last coordinate down; while the fixed
    ones are zero the current one must be nonnegative, and positive at
    ``floor``, which keeps the representative whose last nonzero entry is
    positive.  Every integer tried counts against ``budget``, from ``nodes``;
    returns the points and the new node count.
    """
    k = len(bb)
    slack = _RADIUS_SLACK * radius_sq
    a, found = [0] * k, []

    def descend(level: int, remaining: float, tail_zero: bool) -> None:
        nonlocal nodes
        center = -sum(mu[j][level] * a[j] for j in range(level + 1, k))
        weight = bb[level]
        half_width = math.sqrt(max(remaining, 0.0) / weight)
        lo = math.ceil(center - half_width - 1e-12)
        hi = math.floor(center + half_width + 1e-12)
        if tail_zero:
            lo = max(lo, int(level == floor))
        nodes += max(0, hi - lo + 1)
        if nodes > budget:
            raise BudgetExceeded(f"enumeration exceeded {budget} nodes")
        for v in range(lo, hi + 1):
            cost = weight * (v - center) ** 2
            if cost > remaining + slack:
                continue
            a[level] = v
            if level == 0:
                found.append(tuple(a))
            else:
                descend(level - 1, remaining - cost, tail_zero and v == 0)
        a[level] = 0

    descend(k - 1, radius_sq, True)
    return found, nodes


def _fold(w: list[list[int]], m: int, c: tuple[int, ...]) -> bool:
    """Turn column m of the unimodular ``w`` (a list of rows) into the direction of ``c[m:]``.

    Extended-gcd column operations on columns m.. keep ``w`` unimodular and
    its first m columns fixed; afterwards ``w @ c`` lies in the span of the
    first m+1 columns.  Returns whether ``w`` changed, i.e. ``c[m+1:]`` is nonzero.
    """
    x = c[m]
    for j in range(m + 1, len(c)):
        y = c[j]
        if y == 0:
            continue
        # p*x + q*y == d == gcd(x, y) by the extended Euclidean algorithm
        d, p, q, d1, p1, q1 = x, 1, 0, y, 0, 1
        while d1:
            t = d // d1
            d, p, q, d1, p1, q1 = d1, p1, q1, d - t * d1, p - t * p1, q - t * q1
        for row in w:
            row[m], row[j] = (x // d) * row[m] + (y // d) * row[j], p * row[j] - q * row[m]
        x = d
    return any(c[m + 1 :])


def successive_minima(gram: GramMatrix, budget: int = DEFAULT_BUDGET) -> OptimalSet:
    """Optimal coefficient set: K independent vectors with minimal G-norms.

    Vector m is the smallest lattice vector outside the span of vectors
    0..m-1, ranked by a^T G a with ties broken lexicographically on the
    canonicalized entries, on the embedding the Gram carries: vectors and
    norms equal ``transform``'s rows.  Returns an empty set when even the
    shortest vector has a^T G a >= snr (no positive rate).  Raises
    BudgetExceeded when the K enumeration trees together grow past ``budget``
    nodes; callers may fall back to ``lll_reduce``.  A negative ``budget``, or
    a Gram with no embedding (built by hand or ``dataclasses.replace``), is a
    ValueError.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if gram._emb is None:
        raise ValueError("successive_minima needs a Gram built by gram_effective, gram_plain or ChannelSpec.gram")
    return _search(gram._emb, gram.snr, budget)


def _search(emb: _Embedding, snr: float, budget: int) -> OptimalSet:
    """``successive_minima`` on an embedding: LLL and the walk on ``emb.basis``, ranking by ``_sq_norm``."""
    lat = _Basis(emb.basis)
    w = lat.lll(0.99)
    lat.refresh(0)  # LLL updates b in place, a rounding away from q W, and leaves ortho stale
    # The m+1 shortest LLL vectors are independent, so the (m+1)-th smallest
    # LLL norm bounds the (m+1)-th minimum whatever the snr.
    radii = sorted(_dot(v, v) for v in lat.b)

    vectors, out_norms, nodes = [], [], 0
    for m in range(len(w)):
        coords, nodes = _enumerate_half_sphere(lat.mu, lat.bb, radii[m] * (1.0 + _RADIUS_SLACK), m, budget, nodes)
        if not coords:
            raise RuntimeError("search sphere missed a successive minimum")
        if len(coords) == 1:  # the usual case: nothing to rank
            c = coords[0]
            vec = _signed(tuple(_dot(row, c) for row in w))  # a = W c
            norm = _sq_norm(emb, vec)
        else:
            cands = [_signed(tuple(_dot(row, c) for row in w)) for c in coords]
            norm, vec, c = min((_sq_norm(emb, a), a, c) for a, c in zip(cands, coords))
        if m == 0 and norm >= snr:
            return OptimalSet(vectors=(), norms=(), method="exhaustive")
        vectors.append(vec)
        out_norms.append(norm)
        if m + 1 < len(w) and _fold(w, m, c):  # w is not read after the last step
            lat.refresh(m)
    return OptimalSet(vectors=tuple(vectors), norms=tuple(out_norms), method="exhaustive")


def lll_reduce(basis: np.ndarray, delta: float = 0.99) -> OptimalSet:
    """Suboptimal coefficient set from an LLL reduction of ``basis``.

    The rows of ``basis`` (for a Gram G, the Cholesky factor from
    ``cholesky``) span the lattice, and a's norm is |B^T a|^2.  The returned
    norms upper bound the squared successive minima, hence the rates derived
    from them lower bound the optimal computation rates.  Raises ValueError
    unless ``basis`` is a finite, full-rank square matrix.
    """
    try:
        basis = np.asarray(basis, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError("basis must be a finite square matrix") from exc
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1] or not np.all(np.isfinite(basis)):
        raise ValueError("basis must be a finite square matrix")
    if np.linalg.matrix_rank(basis) != basis.shape[0]:
        raise ValueError("basis must be full rank")
    if not (0.25 < delta <= 1.0):
        raise ValueError("delta must lie in (1/4, 1]")

    rows, cols = basis.tolist(), basis.T.tolist()
    scored = sorted((sum(v * v for v in (_dot(c, a) for c in cols)), _signed(a)) for a in zip(*_Basis(rows).lll(delta)))
    return OptimalSet(vectors=tuple(v for _, v in scored), norms=tuple(n for n, _ in scored), method="lll")


def _lll_set(emb: _Embedding, delta: float = 0.99) -> OptimalSet:
    """``lll_reduce`` on the float basis of an embedding, with ``_sq_norm`` norms."""
    scored = sorted((_sq_norm(emb, col), _signed(col)) for col in zip(*_Basis(emb.basis).lll(delta)))
    return OptimalSet(vectors=tuple(v for _, v in scored), norms=tuple(n for n, _ in scored), method="lll")
