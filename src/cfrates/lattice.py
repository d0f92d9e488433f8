"""Shortest independent coefficient vectors for a channel's Gram matrix.

The optimal coefficient set consists of integer vectors realizing the
successive minima of the lattice whose Gram matrix is G: vector m is the
smallest a^T G a outside the span of vectors 0..m-1, ties broken by the
sign-normalized a.

For K <= 3, the dimensions of every interference-channel effective MAC, the
search is exact at any snr and is one integer kernel, ``_exact_search``: a
greedy reduction (Lagrange for K = 2; Semaev, "A 3-dimensional lattice
reduction algorithm", CaLC 2001, for K = 3) on the entries of the integer
Gram Q, an exact multiple of G, read from its diagonal-plus-rank-one factors
``ch.q`` without building the K x K matrix, gives a Minkowski-reduced basis,
whose {0, +-1} combinations hold every minimum (Nguyen & Stehle, "Low-
dimensional lattice basis reduction revisited", ACM TALG 5(4), 2009).  They
are ranked by exact norms summed from the reduced Gram entries; a vector is
built only for the rows kept and for exact ties.  The node budget,
``BudgetExceeded`` and the LLL fallback apply to K >= 4 only.

For K >= 4 each step is a depth-first walk in the coordinates of a
unimodular basis that starts LLL-reduced and whose leading columns span the
vectors found so far, so a sign rule on the trailing coordinates skips the
span and no independence test is needed.  LLL is integral LLL on the integer
Gram Q (Cohen, *A Course in Computational Algebraic Number Theory*, 1993,
§2.6.7), exact in Python ints, and alone the fast suboptimal fallback when a
node budget runs out.  The walk prunes on the basis's integral Gram-Schmidt
data, exact in Python ints, and takes no radius: its first descent,
nearest-first as in Schnorr-Euchner, sets one and each later leaf shrinks it.

``successive_minima`` and ``transform`` both run ``_search`` on a channel's
checked record (``linalg._channel``).  At every K candidates are ranked by the
exact integer a^T Q a and exact ties by the signed a, the set is empty when the
first reaches U (a^T G a >= snr, exactly), and each norm reported is that
a^T Q a rounded once (``linalg._exact_norm``), the norm the rates use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

from .linalg import GramMatrix, _channel, _Checked, _echelon, _exact_norm, _mantissas, _matrix, _q_matrix, _q_norm

__all__ = ["BudgetExceeded", "OptimalSet", "canonicalize", "candidate_bound", "successive_minima", "lll_reduce"]

DEFAULT_BUDGET = 10_000_000

# Channels of at most this many gains are searched by greedy reduction, with no LLL or walk
_EXACT_K = 3
_DELTA = 0.99  # the Lovasz parameter of the LLL that starts the walk, of the LLL fallback and of lll_reduce's default

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
    return a if a > (0,) * len(a) else tuple(-x for x in a)  # tuples compare at their first nonzero entry


def _gso(g: list[list[int]], lam: list[list[int]], dd: list[int], start: int) -> None:
    """Integral Gram-Schmidt data (Cohen 1993, 2.6.7) of the basis with integer Gram ``g``, from vector ``start`` on, in place.

    dd[i + 1] is the determinant of g's leading (i + 1) x (i + 1) block (dd[0] = 1), so
    |b*_i|^2 = dd[i + 1] / dd[i]; lam[i][j] = dd[j + 1] mu_ij for j < i.  Every division is exact.
    """
    for i in range(start, len(g)):
        row = lam[i]
        for j in range(i + 1):
            u = g[i][j]
            for m in range(j):
                u = (dd[m + 1] * u - row[m] * lam[j][m]) // dd[m]
            if j < i:
                row[j] = u
            else:
                dd[i + 1] = u


def _lll(g: list[list[int]], delta: float) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Integral LLL (Cohen 1993, 2.6.7) of the basis with integer Gram ``g``: the reduced vectors' coordinates u, lam and dd.

    Vector i is size-reduced against i - 1 down to 0, an exact half rounding
    to even as ``round`` does, then exchanged with vector i - 1 unless the
    exact Lovasz test at ``delta`` passes; the vectors u (the columns of a
    unimodular W) keep ``_gso``'s data lam and dd through each step.
    """
    k = len(g)
    num, den = delta.as_integer_ratio()
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    lam, dd = [[0] * i for i in range(k)], [1] + [0] * k
    _gso(g, lam, dd, 0)
    i = 1
    while i < k:
        row = lam[i]
        for j in range(i - 1, -1, -1):
            d = dd[j + 1]
            if 2 * abs(row[j]) > d:  # |mu_ij| > 1/2
                r, rest = divmod(2 * row[j] + d, 2 * d)
                if not rest and r % 2:
                    r -= 1
                u[i] = [x - r * y for x, y in zip(u[i], u[j])]
                row[:j] = [x - r * y for x, y in zip(row, lam[j])]
                row[j] -= r * d
        c = row[i - 1]
        if den * (dd[i + 1] * dd[i - 1] + c * c) >= num * dd[i] * dd[i]:
            i += 1
            continue
        # exchange vectors i - 1 and i; lam[i][i - 1] and the other dd do not change
        u[i - 1], u[i] = u[i], u[i - 1]
        lam[i - 1], lam[i] = row[: i - 1], [*lam[i - 1], c]
        new = (dd[i - 1] * dd[i + 1] + c * c) // dd[i]
        for lam_l in lam[i + 1 :]:
            t = lam_l[i]
            lam_l[i] = (dd[i + 1] * lam_l[i - 1] - c * t) // dd[i]
            lam_l[i - 1] = (new * t + c * lam_l[i]) // dd[i + 1]
        dd[i] = new
        i = max(i - 1, 1)
    return u, lam, dd


def _walk(lam: list[list[int]], dd: list[int], floor: int, budget: int, nodes: int = 0) -> tuple[int, list, int]:
    """The least x^T Q x over the c with c[floor:] nonzero, one per {c, -c}, and every c that reaches it.

    x = sum_i c_i b_i on ``_gso``'s data lam and dd of the basis b.  With
    dd_l = dd[l], P_l = dd_l ||pi_l(x)||^2 is an integer, pi_l projecting away
    b_0..b_{l-1}: fixed from the last coordinate down, P_k = 0 and P_l =
    (dd_l P_{l+1} + t_l^2) / dd_{l+1}, an exact division, with t_l = dd_{l+1}
    c_l + sum_{j>l} lam[j][l] c_j; a leaf's cost P_0 is x^T Q x.  While the
    fixed coordinates are zero (so the sum is 0) the current one is
    nonnegative, and positive at ``floor``: the representative whose last
    nonzero entry is positive.  Each level walks up, then down, from the
    integer nearest its center -sum_{j>l} lam[j][l] c_j / dd_{l+1}; a side
    stops at the first P_l past dd_l times the limit, as the cost grows away
    from the center (Schnorr-Euchner) and the limit, the least leaf cost, only
    falls from the first leaf, Babai's point.  Each value entered counts one
    node against ``budget`` from ``nodes``.  Returns the least cost, every c
    that reaches it and the new node count.
    """
    k = len(dd) - 1
    c, leaves, limit = [0] * k, [], None

    def descend(level: int, partial: int, tail_zero: bool) -> None:
        nonlocal nodes, limit
        if level < 0:  # a leaf
            if limit is None or partial < limit:
                limit = partial
                leaves.clear()
            leaves.append(tuple(c))
            return
        d, scale = dd[level + 1], dd[level]
        s = sum(lam[j][level] * c[j] for j in range(level + 1, k))
        base, start = scale * partial, (d - 2 * s) // (2 * d)
        sides = [itertools.count(int(level == floor))] if tail_zero else [itertools.count(start), itertools.count(start - 1, -1)]
        for side in sides:
            for v in side:
                cost = (base + (d * v + s) ** 2) // d
                if limit is not None and cost > scale * limit:
                    break
                nodes += 1
                if nodes > budget:
                    raise BudgetExceeded(f"enumeration exceeded {budget} nodes")
                c[level] = v
                descend(level - 1, cost, tail_zero and v == 0)

    descend(k - 1, 0, True)
    return limit, leaves, nodes


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
    a^T G a at every K.  For K >= 4 BudgetExceeded is raised when the K
    enumeration trees together grow past ``budget`` nodes; callers may fall
    back to ``lll_reduce``.
    Returns an empty set when even the shortest vector has a^T G a >= snr
    exactly (no positive rate).  A negative ``budget``, or a Gram with no
    channel record (built by hand or ``dataclasses.replace``), is a ValueError.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if gram._checked is None:
        raise ValueError("successive_minima needs a Gram built by gram_effective, gram_plain or ChannelSpec.gram")
    return _search(gram._checked, budget)


# The {0, +-1} combinations x of three basis vectors with a positive first nonzero entry, the last entry
# varying slowest, so that the first (3^k - 1) / 2 are those of the first k vectors
_COMBOS = [x[::-1] for x in itertools.product((0, 1, -1), repeat=3) if x[::-1] > (0, 0, 0)]


def _exact_search(ch: _Checked) -> OptimalSet:
    """``_search`` for K <= 3: the successive minima from a greedy reduction of Z^K under the integer Gram Q.

    The reduction reads Q's entries from its factors (``ch.q``): n_i = D B_i
    - S BG_i^2 and d_ij = -S BG_i BG_j.  K = 2 is Lagrange's reduction.  For
    K = 3 (Semaev 2001; Nguyen & Stehle 2009), until the last vector stops
    shrinking below the second: Lagrange-reduce the first two, subtract from
    the last its closest vector in their span, and sort by norm.  That closest
    vector is a corner of the cell of the exact solution of the 2x2 Gram
    system, since a reduced planar basis splits the plane into non-obtuse
    triangles.  In dimension <= 4 such a basis is Minkowski-reduced, and
    every minimum lies among its {0, +-1} combinations.  Those up to the
    last basis norm are ranked by exact a^T Q a, summed from the reduced
    Gram entries, and exact ties by the signed a = x U, built only for them
    and for the rows kept; each is kept when independent of those kept
    before it.  Norms are ``_exact_norm``'s; the set is empty when the first
    a^T Q a reaches U (a^T G a >= snr, exactly), so a kept norm may round to
    snr (rate 0.0).
    """
    bm, bgm, d, s, _, limit = ch.q
    k, pad = len(bm), [0] * (3 - len(bm))  # a missing vector has zero entries
    n0, n1, n2 = [d * b - s * x * x for b, x in zip(bm, bgm)] + pad
    g0, g1, g2 = bgm + pad
    d01, d02, d12 = -s * g0 * g1, -s * g0 * g2, -s * g1 * g2
    u0, u1, u2 = [e[:k] for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    while k > 1:
        while True:  # Lagrange: reduce u1 by the rounded d01 / n0, then swap while it is the shorter
            t = (2 * d01 + n0) // (2 * n0)
            if t:
                n1 += t * (t * n0 - 2 * d01)
                d01 -= t * n0
                d12 -= t * d02
                u1 = [x - t * y for x, y in zip(u1, u0)]
            if n1 >= n0:
                break
            n0, n1, u0, u1, d02, d12 = n1, n0, u1, u0, d12, d02
        if k == 2:
            break
        det = n0 * n1 - d01 * d01
        f0, f1 = (n1 * d02 - d01 * d12) // det, (n0 * d12 - d01 * d02) // det
        change = None
        for y0 in (f0, f0 + 1):  # |u2 - y0 u0 - y1 u1|^2 - n2 at each corner, the least (change, y0, y1)
            for y1 in (f1, f1 + 1):
                c = y0 * (y0 * n0 + 2 * (y1 * d01 - d02)) + y1 * (y1 * n1 - 2 * d12)
                if change is None or c < change:
                    change, z0, z1 = c, y0, y1
        n2 += change
        d02, d12 = d02 - z0 * n0 - z1 * d01, d12 - z0 * d01 - z1 * n1
        u2 = [x - z0 * a - z1 * b for x, a, b in zip(u2, u0, u1)]
        if n2 >= n1:
            break
        # the last vector moves before the second, or before the first
        if n2 >= n0:
            n1, n2, d01, d02, u1, u2 = n2, n1, d02, d01, u2, u1
        else:
            n0, n1, n2, d01, d02, d12, u0, u1, u2 = n2, n0, n1, d02, d12, d01, u2, u0, u1
    if n0 >= limit:  # a^T G a >= snr for every a
        return OptimalSet(vectors=(), norms=(), method="exhaustive")
    e01, e02, e12 = 2 * d01, 2 * d02, 2 * d12
    p, m, top = n0 + n1 + e01, n0 + n1 - e01, (n0, n1, n2)[k - 1]
    norms = (n0, n1, p, m, n2, n0 + n2 + e02, n1 + n2 + e12, p + n2 + e02 + e12, m + n2 + e02 - e12,
             n0 + n2 - e02, n1 + n2 - e12, p + n2 - e02 - e12, m + n2 - e02 + e12)  # in _COMBOS' order
    ranked = [c for c in zip(norms, _COMBOS[: (3**k - 1) // 2]) if c[0] <= top]
    ranked.sort()

    def signed(x):  # a = x U, sign-normalized
        return _signed(tuple([x[0] * a + x[1] * b + x[2] * c for a, b, c in zip(u0, u1, u2)]))

    tied = {c[0] for c, next_c in zip(ranked, ranked[1:]) if c[0] == next_c[0]}
    if tied:  # exact ties are ranked by signed a, built only for them
        ranked.sort(key=lambda c: (c[0], signed(c[1]) if c[0] in tied else ()))
    kept = ranked[:2]
    if k == 3:  # the third is the first whose coefficients are independent of the first two's
        (_, y), (_, z) = kept
        normal = (y[1] * z[2] - y[2] * z[1], y[2] * z[0] - y[0] * z[2], y[0] * z[1] - y[1] * z[0])
        kept.append(next(c for c in ranked[2:] if _dot(normal, c[1])))
    return OptimalSet(tuple([signed(x) for _, x in kept]), tuple([_exact_norm(ch, n) for n, _ in kept]), "exhaustive")


def _search(ch: _Checked, budget: int) -> OptimalSet:
    """``successive_minima`` on a channel record: ``_exact_search`` for K <= 3, else LLL on Q and the walk.

    Each step's norm is the walk's least cost, the exact a^T Q a, and its row
    the least signed a = W c among the c that reach it.
    """
    if len(ch.g) <= _EXACT_K:
        return _exact_search(ch)
    q = _q_matrix(ch)
    u, lam, dd = _lll(q, _DELTA)
    w = [list(row) for row in zip(*u)]
    vectors, out_norms, nodes = [], [], 0
    for m in range(len(w)):
        n, coords, nodes = _walk(lam, dd, m, budget, nodes)
        if m == 0 and n >= ch.q[-1]:  # the positive-rate rule of ``_exact_search``
            return OptimalSet(vectors=(), norms=(), method="exhaustive")
        vec, c = min((_signed(tuple(_dot(row, c) for row in w)), c) for c in coords)  # exact ties ranked by signed a = W c
        vectors.append(vec)
        out_norms.append(_exact_norm(ch, n))
        if m + 1 < len(w) and _fold(w, m, c):  # w is not read after the last step
            cols = list(zip(*w))
            qw = [[_dot(row, v) for row in q] for v in cols]  # the columns Q w_j
            _gso([[_dot(col, x) for x in qw] for col in cols], lam, dd, m)  # of the Gram W^T Q W, from vector m on
    return OptimalSet(vectors=tuple(vectors), norms=tuple(out_norms), method="exhaustive")


def lll_reduce(basis: np.ndarray, delta: float = _DELTA) -> OptimalSet:
    """Suboptimal coefficient set from an LLL reduction of ``basis``.

    The rows of ``basis`` (for a Gram G, the Cholesky factor from
    ``cholesky``) span the lattice; ``_lll`` runs on the integer Gram of
    their mantissas, and a's norm |B^T a|^2 is exact, rounded once.  The
    norms upper bound the squared successive minima, hence the rates derived
    from them lower bound the optimal computation rates.  ValueError unless
    ``basis`` is a finite, full-rank square matrix, or when a norm overflows.
    """
    try:  # as_integer_ratio, in _mantissas, refuses inf and nan
        rows = [list(map(float, row)) for row in _matrix(basis, "basis must be a finite square matrix", square=True)]
        flat, scale = _mantissas(tuple(itertools.chain(*rows)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError("basis must be a finite square matrix") from exc
    k = len(rows)
    ints = [flat[i : i + k] for i in range(0, k * k, k)]
    if len(_echelon([row[:] for row in ints], k)) != k:
        raise ValueError("basis must be full rank")
    if not (0.25 < delta <= 1.0):
        raise ValueError("delta must lie in (1/4, 1]")

    g = [[_dot(u, v) for v in ints] for u in ints]
    scored = sorted((_dot(a, [_dot(row, a) for row in g]), _signed(tuple(a))) for a in _lll(g, delta)[0])
    try:
        return OptimalSet(tuple(v for _, v in scored), tuple(n / (scale * scale) for n, _ in scored), "lll")
    except OverflowError:
        raise ValueError("LLL norm |B^T a|^2 overflows floating point") from None


def _lll_set(ch: _Checked) -> OptimalSet:
    """``lll_reduce`` on the integer Gram Q of a channel record, ranked by exact a^T Q a, with ``_exact_norm`` norms."""
    scored = sorted((_q_norm(ch, a), _signed(tuple(a))) for a in _lll(_q_matrix(ch), _DELTA)[0])
    return OptimalSet(vectors=tuple(v for _, v in scored), norms=tuple(_exact_norm(ch, n) for n, _ in scored), method="lll")
