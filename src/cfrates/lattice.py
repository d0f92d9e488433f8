"""Shortest independent coefficient vectors for a channel's Gram matrix.

The optimal coefficient set consists of integer vectors realizing the
successive minima of the lattice whose Gram matrix is G, found one at a time:
vector m is the smallest a^T G a outside the span of vectors 0..m-1.  Each
step is a depth-first Fincke-Pohst walk in the coordinates of a unimodular
basis that starts LLL-reduced and whose leading columns span the vectors
found so far, so a sign rule on the trailing coordinates skips the span and
no independence test is needed.  The sphere of step m is the (m+1)-th
smallest LLL norm, which bounds the (m+1)-th minimum and stays far below the
positive-rate radius.  LLL is also exposed on its own as the fast suboptimal
fallback when an enumeration budget is exhausted.

The search core ``_search`` takes the Gram rows and their Cholesky factor as
Python lists, which ``transform`` builds from its channel's checked record,
and runs on Python ints and floats, cheaper than numpy on 2x2 to 8x8
matrices.  The numpy dots left on a transform's float path, g^T B g and two
per row in ``rates._rate``, are kept for their fused multiply-add rounding.
LLL and the walk share ``_Basis``'s Gram-Schmidt rows; LLL computes a row
only when it reaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .linalg import GramMatrix, _channel, _cholesky_rows

__all__ = ["BudgetExceeded", "OptimalSet", "canonicalize", "candidate_bound", "successive_minima", "lll_reduce"]

DEFAULT_BUDGET = 10_000_000

# relative slack for sphere inclusion tests on floating-point radii
_RADIUS_SLACK = 1e-9


class BudgetExceeded(RuntimeError):
    """Raised when enumeration visits more nodes than the caller allowed."""


def canonicalize(a) -> np.ndarray:
    """Sign-normalize an integer vector so its first nonzero entry is positive.

    A vector and its negation give identical rates, so one representative per
    pair is enough.
    """
    vec = tuple(np.asarray(a, dtype=np.int64).tolist())
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


def _norm(g: list[list[float]], a: tuple[int, ...]) -> float:
    """a^T G a, the noise norm that ranks candidates."""
    return _dot(a, [_dot(row, a) for row in g])


def _signed(a: tuple[int, ...]) -> tuple[int, ...]:
    """``a`` or ``-a``, whichever has a positive first nonzero entry."""
    return a if next(x for x in a if x) > 0 else tuple(-x for x in a)


class _Basis:
    """Lattice vectors b_i = q w_i and their Gram-Schmidt data, on Python floats.

    Built from the rows of a basis, which become the columns of ``q``; ``q``
    and the unimodular ``w`` are lists of rows.  ``ortho[i]`` is b*_i, the part of b_i orthogonal to b_0..b_{i-1},
    ``mu[i][j] = <b_i, b*_j> / |b*_j|^2`` (j < i) and ``bb[i] = |b*_i|^2``: the
    triangular factor of the basis is R[i][i] = |b*_i|, R[j][i] = mu[i][j] |b*_j|.
    The Gram-Schmidt data are filled in by ``lll``.
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

    def gso(self, start: int) -> None:
        """Recompute the Gram-Schmidt data from vector ``start`` on."""
        for i in range(start, len(self.b)):
            self._row(i)

    def refresh(self, start: int) -> None:
        """Recompute b_i = q w_i and the Gram-Schmidt data after columns ``start``.. of w changed."""
        self.b[start:] = [[_dot(row, col) for row in self.q] for col in list(zip(*self.w))[start:]]
        self.gso(start)

    def lll(self, delta: float) -> list[list[int]]:
        """LLL-reduce the vectors in place (Lovasz parameter ``delta``); return ``w``.

        Gram-Schmidt rows are computed lazily: row i when the loop reaches it
        and again after each change to b_i, from the same b_i and
        b*_0..b*_{i-1} an eager update would use, so the values are the same.
        """
        b, w, mu, bb = self.b, self.w, self.mu, self.bb
        if b:
            self._row(0)
        i = 1
        while i < len(b):
            self._row(i)
            for j in range(i - 1, -1, -1):
                if abs(mu[i][j]) > 0.5:
                    r = round(mu[i][j])
                    b[i] = [x - r * y for x, y in zip(b[i], b[j])]
                    for row in w:
                        row[i] -= r * row[j]
                    self._row(i)
            c = mu[i][i - 1]
            if bb[i] >= (delta - c * c) * bb[i - 1]:
                i += 1
            else:
                b[i - 1], b[i] = b[i], b[i - 1]
                for row in w:
                    row[i - 1], row[i] = row[i], row[i - 1]
                if i == 1:
                    self._row(0)
                i = max(i - 1, 1)
        return w


def _enumerate_half_sphere(mu, bb, radius_sq: float, floor: int, budget: int, nodes: int = 0) -> tuple[list, int]:
    """All integer c with ||R c||^2 <= radius_sq and c[floor:] nonzero, one per {c, -c}.

    R is the triangular factor of a ``_Basis`` with Gram-Schmidt data ``mu``
    and ``bb``, so ||R c||^2 = sum_i bb[i] (c_i + sum_{j>i} mu[j][i] c_j)^2 and
    coordinates are fixed from the last index downward; while every fixed
    coordinate is zero the current one is restricted to be nonnegative, and at
    index ``floor`` to be positive.  That keeps exactly the representative
    whose last nonzero entry is positive and skips every c with c[floor:] == 0.
    Every integer tried at any level counts against ``budget``, starting from
    ``nodes``; returns the points and the new node count.
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


def _fold(w: list[list[int]], m: int, c: tuple[int, ...]) -> None:
    """Turn column m of the unimodular ``w`` (a list of rows) into the direction of ``c[m:]``.

    Extended-gcd column operations on columns m.. keep ``w`` unimodular and
    its first m columns fixed; afterwards ``w @ c`` lies in the span of the
    first m+1 columns.
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


def successive_minima(gram: GramMatrix, budget: int = DEFAULT_BUDGET) -> OptimalSet:
    """Optimal coefficient set: K independent vectors with minimal G-norms.

    Vector m is the smallest lattice vector outside the span of vectors
    0..m-1, ranked by a^T G a with ties broken lexicographically on the
    canonicalized entries.  Step m enumerates the integer coordinates c of a
    unimodular basis W (a = W c) whose first m columns span the vectors found
    so far, skipping every c with c[m:] == 0.  Returns an empty set when even
    the shortest vector has a^T G a >= snr (no combination has positive rate).
    Raises BudgetExceeded when the K enumeration trees together grow past
    ``budget`` nodes; callers may fall back to ``lll_reduce``.
    """
    g = gram.entries.tolist()
    return _search(g, _cholesky_rows(g), gram.snr, budget)


def _search(g: list[list[float]], r: list[list[float]], snr: float, budget: int) -> OptimalSet:
    """``successive_minima`` on the Gram rows ``g`` and their Cholesky factor ``r`` (rows)."""
    lat = _Basis(r)
    w = lat.lll(0.99)
    # The m+1 shortest LLL vectors are independent, so the (m+1)-th smallest
    # LLL norm bounds the (m+1)-th minimum whatever the snr.
    radii = sorted(_dot(v, v) for v in lat.b)

    vectors, out_norms, nodes = [], [], 0
    for m in range(len(g)):
        if m:
            lat.refresh(m - 1)  # the last _fold changed columns m-1.. of w
        coords, nodes = _enumerate_half_sphere(lat.mu, lat.bb, radii[m] * (1.0 + _RADIUS_SLACK), m, budget, nodes)
        if not coords:
            raise RuntimeError("search sphere missed a successive minimum")
        cands = [_signed(tuple(_dot(row, c) for row in w)) for c in coords]  # a = W c
        norm, vec, c = min((_norm(g, a), a, c) for a, c in zip(cands, coords))
        if m == 0 and norm >= snr:
            return OptimalSet(vectors=(), norms=(), method="exhaustive")
        vectors.append(vec)
        out_norms.append(norm)
        _fold(w, m, c)
    return OptimalSet(vectors=tuple(vectors), norms=tuple(out_norms), method="exhaustive")


def _lll_coords(basis, delta: float) -> list[list[int]]:
    """Unimodular U, as a list of rows, such that the columns of basis @ U are LLL-reduced."""
    return _Basis(np.asarray(basis, dtype=float).T.tolist()).lll(delta)


def lll_reduce(basis: np.ndarray, delta: float = 0.99) -> OptimalSet:
    """Suboptimal coefficient set from an LLL-reduced lattice basis.

    ``basis`` is the lower-triangular Cholesky factor of the Gram matrix; the
    columns of its transpose span the lattice.  The returned norms upper
    bound the squared successive minima, hence the rates derived from them
    lower bound the optimal computation rates.  Raises ValueError unless
    ``basis`` is a finite, full-rank square matrix.
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

    return _lll_set(basis.tolist(), delta)


def _lll_set(r: list[list[float]], delta: float = 0.99) -> OptimalSet:
    """``lll_reduce`` on a checked basis ``r`` given as rows."""
    lat = _Basis(r)
    w = lat.lll(delta)
    scored = sorted((_dot(v, v), _signed(col)) for v, col in zip(lat.b, zip(*w)))
    return OptimalSet(vectors=tuple(v for _, v in scored), norms=tuple(n for n, _ in scored), method="lll")
