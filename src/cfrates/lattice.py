"""Shortest independent coefficient vectors for a channel's Gram matrix.

The optimal coefficient set consists of integer vectors realizing the
successive minima of the lattice whose Gram matrix is G, found one at a time:
vector m is the smallest a^T G a outside the span of vectors 0..m-1.  Each
step is a depth-first walk in the coordinates of a unimodular basis that
starts LLL-reduced and whose leading columns span the vectors found so far,
so a sign rule on the trailing coordinates skips the span and no
independence test is needed.  The walk takes no radius: its first descent,
nearest-first as in Schnorr-Euchner, sets one and each later leaf shrinks
it.  LLL alone is the fast suboptimal fallback when a node budget runs out.

``successive_minima`` and ``transform`` both run ``_search`` on a channel's
checked record (``linalg._channel``): Python ints and floats over the columns
of its M, ranking candidates by ``linalg._sq_norm``, the norm the rates use.
LLL is classical floating LLL (Cohen, *A Course in Computational Algebraic
Number Theory*, 1993, §2.6.3), updating its Gram-Schmidt rows in place; the
search rebuilds them from b = q W once after LLL and then only after a
``_fold`` that moved W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .linalg import GramMatrix, _channel, _Checked, _matrix, _sq_norm

__all__ = ["BudgetExceeded", "OptimalSet", "canonicalize", "candidate_bound", "successive_minima", "lll_reduce"]

DEFAULT_BUDGET = 10_000_000

# The walk keeps the leaves whose cost is within this factor of the least one,
# for ``_search`` to rank by ``_sq_norm``: costs equal on the walk's own mu and
# bb differ in floats by the rounding of its sums, a few ulps per level (a
# center, a square, a product, a running sum), which 64 eps covers at these K.
_WINDOW = 1.0 + 64 * 2.0**-52


class BudgetExceeded(RuntimeError):
    """Raised when enumeration visits more nodes than the caller allowed."""


def canonicalize(a) -> np.ndarray:
    """Sign-normalize an integer vector so its first nonzero entry is positive.

    A vector and its negation give identical rates, so one representative per
    pair is enough.  ValueError unless the entries are integers, not all zero.
    """
    (vec,) = _matrix([a], "vector must be integer")
    if not all(float(x).is_integer() for x in vec):
        raise ValueError("vector must be integer")
    if not any(vec):
        raise ValueError("zero vector has no canonical form")
    import numpy as np
    return np.array(_signed(tuple(vec)), dtype=np.int64)


def candidate_bound(gains, snr: float, b_sq=None) -> float:
    """Squared-norm bound below which integer vectors can yield positive rate.

    Returns 1 + snr*||h||^2 for a plain MAC, or 1 + snr * g^T B g with squared
    weights ``b_sq``.
    """
    return _channel(gains, snr, b_sq).denom


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
        import numpy as np
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


def _walk(mu, bb, floor: int, budget: int, nodes: int = 0) -> tuple[list, int]:
    """The c with c[floor:] nonzero, one per {c, -c}, of least ||R c||^2 to within ``_WINDOW``.

    ||R c||^2 = sum_i bb[i] (c_i + sum_{j>i} mu[j][i] c_j)^2 for a ``_Basis``'s
    Gram-Schmidt data, fixed from the last coordinate down; while the fixed
    ones are zero the current one must be nonnegative, and positive at
    ``floor``, which keeps the representative whose last nonzero entry is
    positive.  The first descent takes the integer nearest each center
    (Schnorr-Euchner), reaching Babai's point; each leaf shrinks the radius,
    and each level's range at the radius counts against ``budget`` from
    ``nodes``.  Returns the leaves and the new node count.
    """
    k = len(bb)
    a, leaves, limit = [0] * k, [], math.inf

    def descend(level: int, partial: float, tail_zero: bool) -> None:
        nonlocal nodes, limit
        if level < 0:  # a leaf
            leaves.append((partial, tuple(a)))
            limit = min(limit, partial * _WINDOW)
            return
        center = -sum(mu[j][level] * a[j] for j in range(level + 1, k))
        weight = bb[level]
        low = int(level == floor) if tail_zero else -math.inf
        first = max(round(center), low) if limit == math.inf else None
        if first is not None:  # the first descent: the nearest admissible integer alone, until its leaf sets the radius
            a[level] = first
            descend(level - 1, partial + weight * (first - center) ** 2, tail_zero and first == 0)
        half = math.sqrt((limit - partial) / weight)
        lo, hi = max(math.ceil(center - half), low), math.floor(center + half)
        nodes += max(0, hi - lo + 1)
        if nodes > budget:
            raise BudgetExceeded(f"enumeration exceeded {budget} nodes")
        for v in range(lo, hi + 1):
            cost = partial + weight * (v - center) ** 2
            if cost <= limit and v != first:  # a cost passes the limit only after a leaf shrank it
                a[level] = v
                descend(level - 1, cost, tail_zero and v == 0)

    descend(k - 1, 0.0, True)
    return [c for cost, c in leaves if cost <= limit], nodes


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
    canonicalized entries, on the channel record the Gram carries: vectors
    and norms equal ``transform``'s rows.  Returns an empty set when even the
    shortest vector has a^T G a >= snr (no positive rate).  Raises
    BudgetExceeded when the K enumeration trees together grow past ``budget``
    nodes; callers may fall back to ``lll_reduce``.  A negative ``budget``, or
    a Gram with no channel record (built by hand or ``dataclasses.replace``),
    is a ValueError.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if gram._checked is None:
        raise ValueError("successive_minima needs a Gram built by gram_effective, gram_plain or ChannelSpec.gram")
    return _search(gram._checked, budget)


def _search(ch: _Checked, budget: int) -> OptimalSet:
    """``successive_minima`` on a channel record: LLL and the walk on M's columns, ranking by ``_sq_norm``."""
    lat = _Basis(ch.m[0])
    w = lat.lll(0.99)
    lat.refresh(0)  # LLL updates b in place, a rounding away from q W, and leaves ortho stale
    vectors, out_norms, nodes = [], [], 0
    for m in range(len(w)):
        coords, nodes = _walk(lat.mu, lat.bb, m, budget, nodes)
        best = None
        for c in coords:  # ranked by (a^T G a, a) for a = W c, sign-normalized
            a = _signed(tuple(_dot(row, c) for row in w))
            key = (_sq_norm(ch, a), a, c)
            best = key if best is None or key < best else best
        norm, vec, c = best
        if m == 0 and norm >= ch.snr:
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
        rows = [list(map(float, row)) for row in _matrix(basis, "basis must be a finite square matrix", square=True)]
    except (TypeError, ValueError) as exc:
        raise ValueError("basis must be a finite square matrix") from exc
    if not all(all(map(math.isfinite, row)) for row in rows):
        raise ValueError("basis must be a finite square matrix")
    import numpy as np
    if np.linalg.matrix_rank(rows) != len(rows):
        raise ValueError("basis must be full rank")
    if not (0.25 < delta <= 1.0):
        raise ValueError("delta must lie in (1/4, 1]")

    cols = list(zip(*rows))
    scored = sorted((sum(v * v for v in (_dot(c, a) for c in cols)), _signed(a)) for a in zip(*_Basis(rows).lll(delta)))
    return OptimalSet(vectors=tuple(v for _, v in scored), norms=tuple(n for n, _ in scored), method="lll")


def _lll_set(ch: _Checked, delta: float = 0.99) -> OptimalSet:
    """``lll_reduce`` on M's float columns for a channel record, with ``_sq_norm`` norms."""
    scored = sorted((_sq_norm(ch, col), _signed(col)) for col in zip(*_Basis(ch.m[0]).lll(delta)))
    return OptimalSet(vectors=tuple(v for _, v in scored), norms=tuple(n for n, _ in scored), method="lll")
