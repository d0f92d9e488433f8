"""Shortest independent coefficient vectors for a channel's Gram matrix.

The optimal coefficient set consists of integer vectors realizing the
successive minima of the lattice whose Gram matrix is G: vector m is the
smallest a^T G a outside the span of vectors 0..m-1, ties broken by the
sign-normalized a.

For K <= 3, the dimensions of every interference-channel effective MAC, the
search is exact at any snr: a greedy reduction (Lagrange for K = 2; Semaev,
"A 3-dimensional lattice reduction algorithm", CaLC 2001, for K = 3) on the
integer Gram ``ch.q``, an exact multiple of G, gives a Minkowski-reduced
basis, whose {0, +-1} combinations hold every minimum (Nguyen & Stehle, "Low-
dimensional lattice basis reduction revisited", ACM TALG 5(4), 2009).  The
node budget, ``BudgetExceeded`` and the LLL fallback apply to K >= 4 only.

For K >= 4 each step is a depth-first walk in the coordinates of a
unimodular basis that starts LLL-reduced and whose leading columns span the
vectors found so far, so a sign rule on the trailing coordinates skips the
span and no independence test is needed.  The walk takes no radius: its
first descent, nearest-first as in Schnorr-Euchner, sets one and each later
leaf shrinks it.  LLL alone is the fast suboptimal fallback when a node
budget runs out.

``successive_minima`` and ``transform`` both run ``_search`` on a channel's
checked record (``linalg._channel``); the walk runs on Python ints and floats
over the columns of its M.  At every K candidates are ranked by the exact
integer a^T Q a (``linalg._q_norm``), the set is empty when the first reaches
U (a^T G a >= snr, exactly), and each norm reported is that a^T Q a rounded
once (``linalg._exact_norm``), the norm the rates use.  LLL is classical
floating LLL (Cohen, *A Course in Computational Algebraic Number Theory*,
1993, §2.6.3), updating its Gram-Schmidt rows in place; the walk rebuilds
them from b = q W once after LLL and then only after a ``_fold`` that moved W.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import mul

from .linalg import GramMatrix, _channel, _Checked, _exact_norm, _matrix, _q_norm, _sq_norm

__all__ = ["BudgetExceeded", "OptimalSet", "canonicalize", "candidate_bound", "successive_minima", "lll_reduce"]

DEFAULT_BUDGET = 10_000_000

# Channels of at most this many gains are searched exactly on their integer Gram, with no M
_EXACT_K = 3

# The walk keeps the leaves whose cost is within this factor of the least one,
# for ``_search`` to rank by exact a^T Q a: costs equal on the walk's own mu and
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
    and norms equal ``transform``'s rows.  The ranking is by the exact
    a^T G a (for K >= 4, of the walk's leaves within its float window).  For
    K >= 4 BudgetExceeded is raised when the K enumeration trees together
    grow past ``budget`` nodes; callers may fall back to ``lll_reduce``.
    Returns an empty set when even the shortest vector has a^T G a >= snr
    exactly (no positive rate).  A negative ``budget``, or a Gram with no
    channel record (built by hand or ``dataclasses.replace``), is a ValueError.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if gram._checked is None:
        raise ValueError("successive_minima needs a Gram built by gram_effective, gram_plain or ChannelSpec.gram")
    return _search(gram._checked, budget)


def _lagrange(n0: int, n1: int, d01: int, u0: list, u1: list, d02: int = 0, d12: int = 0) -> tuple:
    """Lagrange (Gauss) reduction of basis vectors u0, u1 with norms n0, n1 and inner product d01.

    Returns the same seven values after it, when n0 <= n1 and |2 d01| <= n0;
    d02 and d12 are the inner products with a third vector, kept up to date.
    The quotient d01 / n0 is rounded exactly, as (2 d01 + n0) // (2 n0).
    """
    while True:
        t = (2 * d01 + n0) // (2 * n0)
        if t:
            n1 += t * (t * n0 - 2 * d01)
            d01 -= t * n0
            d12 -= t * d02
            u1 = [x - t * y for x, y in zip(u1, u0)]
        if n1 >= n0:
            return n0, n1, d01, u0, u1, d02, d12
        n0, n1, u0, u1, d02, d12 = n1, n0, u1, u0, d12, d02


def _greedy_basis(q: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """A greedy-reduced basis of Z^K (K <= 3) under the integer Gram ``q``, sorted by norm, and its Gram entries r_ij, i <= j.

    K = 2 is Lagrange's reduction.  For K = 3 (Semaev 2001; Nguyen & Stehle
    2009), until the last vector stops shrinking below the second:
    Lagrange-reduce the first two, subtract from the last its closest vector
    in their span, and sort by norm.  That closest vector is a corner of the
    cell of the exact solution of the 2x2 Gram system, since a reduced planar
    basis splits the plane into non-obtuse triangles.  In dimension <= 4 such
    a basis is Minkowski-reduced: its norms are the successive minima.
    """
    k = len(q)
    if k == 1:
        return [[1]], [q[0][0]]
    e = [[int(i == j) for j in range(k)] for i in range(k)]
    if k == 2:
        n0, n1, d01, u0, u1, _, _ = _lagrange(q[0][0], q[1][1], q[0][1], *e)
        return [u0, u1], [n0, d01, n1]
    (n0, d01, d02), (_, n1, d12), (_, _, n2) = q
    u0, u1, u2 = e
    while True:
        n0, n1, d01, u0, u1, d02, d12 = _lagrange(n0, n1, d01, u0, u1, d02, d12)
        det = n0 * n1 - d01 * d01
        f0, f1 = (n1 * d02 - d01 * d12) // det, (n0 * d12 - d01 * d02) // det
        change, y0, y1 = min(  # |u2 - y0 u0 - y1 u1|^2 - n2 at each corner
            (y0 * (y0 * n0 + 2 * (y1 * d01 - d02)) + y1 * (y1 * n1 - 2 * d12), y0, y1)
            for y0 in (f0, f0 + 1)
            for y1 in (f1, f1 + 1)
        )
        n2 += change
        d02, d12 = d02 - y0 * n0 - y1 * d01, d12 - y0 * d01 - y1 * n1
        u2 = [x - y0 * a - y1 * b for x, a, b in zip(u2, u0, u1)]
        if n2 >= n1:
            return [u0, u1, u2], [n0, d01, d02, n1, d12, n2]
        # the last vector moves before the second, or before the first
        if n2 >= n0:
            n1, n2, d01, d02, u1, u2 = n2, n1, d02, d01, u2, u1
        else:
            n0, n1, n2, d01, d02, d12, u0, u1, u2 = n2, n0, n1, d02, d12, d01, u2, u0, u1


# Per dimension, the {0, +-1} combinations x with a positive first nonzero entry, each with its weights on
# the Gram entries r_ij, i <= j: x^T r x is their sum of products
_UNIT_COMBOS = {
    k: [(x, [x[i] * x[j] * (2 - (i == j)) for i in range(k) for j in range(i, k)])
        for x in itertools.product((0, 1, -1), repeat=k) if any(x) and _signed(x) == x]
    for k in range(1, _EXACT_K + 1)
}


def _exact_search(ch: _Checked) -> OptimalSet:
    """``_search`` for K <= 3: the successive minima from a greedy-reduced basis under the integer Gram Q.

    Every minimum lies among the {0, +-1} combinations of a Minkowski-reduced
    basis in dimension <= 3, so they are ranked by (exact a^T Q a, signed a),
    and each is kept when independent of those kept before it.  A vector
    shorter than the last basis vector lies in the span of the earlier
    minima, so only combinations up to its norm are ranked.  Norms are
    ``_exact_norm``'s; the set is empty when the first a^T Q a reaches U
    (a^T G a >= snr, exactly), so a kept norm may round to snr (rate 0.0).
    """
    bm, bgm, d, s, _, unit = ch.q
    q = [[-s * x * y for y in bgm] for x in bgm]
    for i, row in enumerate(q):
        row[i] += d * bm[i]
    u, entries = _greedy_basis(q)
    k, cols, top, ranked = len(u), list(zip(*u)), entries[-1], []
    for x, weights in _UNIT_COMBOS[k]:
        norm = sum(map(mul, weights, entries))
        if norm <= top:
            ranked.append((norm, _signed(tuple(_dot(x, col) for col in cols)), x))
    ranked.sort()
    kept = ranked[:2]
    if k == 3:  # the third is the first whose coefficients are independent of the first two's
        (_, _, x), (_, _, y) = kept
        normal = (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])
        kept.append(next(c for c in ranked[2:] if _dot(normal, c[2])))
    kept = kept if kept[0][0] < unit else []
    return OptimalSet(tuple(a for _, a, _ in kept), tuple(_exact_norm(ch, n) for n, _, _ in kept), "exhaustive")


def _search(ch: _Checked, budget: int) -> OptimalSet:
    """``successive_minima`` on a channel record: ``_exact_search`` for K <= 3, else LLL and the walk on M's columns."""
    if len(ch.g) <= _EXACT_K:
        return _exact_search(ch)
    lat = _Basis(ch.m)
    w = lat.lll(0.99)
    lat.refresh(0)  # LLL updates b in place, a rounding away from q W, and leaves ortho stale
    vectors, out_norms, nodes = [], [], 0
    for m in range(len(w)):
        coords, nodes = _walk(lat.mu, lat.bb, m, budget, nodes)
        best = None
        for c in coords:  # ranked by (a^T Q a, a) for a = W c, sign-normalized
            a = _signed(tuple(_dot(row, c) for row in w))
            key = (_q_norm(ch, a), a, c)
            best = key if best is None or key < best else best
        n, vec, c = best
        if m == 0 and n >= ch.q[-1]:  # the positive-rate rule of ``_exact_search``
            return OptimalSet(vectors=(), norms=(), method="exhaustive")
        vectors.append(vec)
        out_norms.append(_exact_norm(ch, n))
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
    scored = sorted((_sq_norm(ch, col), _signed(col)) for col in zip(*_Basis(ch.m).lll(delta)))
    return OptimalSet(vectors=tuple(v for _, v in scored), norms=tuple(n for n, _ in scored), method="lll")
