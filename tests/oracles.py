"""Exact answers for the tests: one oracle per layer, in Fractions and Python ints.

Each oracle reads only what a user could hand in: a channel record's float
inputs (``gains``, ``weights_sq``, ``snr``) and the integer rows under test.
None reads the integer factors or the search state that ``cfrates`` keeps, so
an error there cannot cancel out here.

- ``den``, ``gram`` and ``norm``: the channel, as exact rationals.
- ``certify``: the search.  Row m must be the least (exact a^T G a, signed
  a) outside the span of rows 0..m-1, each norm the exact one rounded once.
- ``assert_lll_reduced``: LLL, from the integral Gram-Schmidt data of W^T g W.
- ``mod_p_lift``: the lift of one triangularization order modulo its prime.
- ``rank``, ``det``, ``solve`` and ``matmul``: exact linear algebra, on one
  Gaussian elimination with no division, and Fractions only in a solution.
"""

import itertools
import math
from fractions import Fraction
from operator import mul


def den(ch) -> Fraction:
    """den = 1 + snr g^T B g from a channel record's float inputs."""
    return 1 + Fraction(ch.snr) * sum(Fraction(w) * Fraction(x) ** 2 for w, x in zip(ch.weights_sq, ch.gains))


def gram(ch) -> list[list[Fraction]]:
    """G = snr (B - snr B g g^T B / den) from a channel record's float inputs."""
    snr, b = Fraction(ch.snr), [Fraction(x) for x in ch.weights_sq]
    bg = [w * Fraction(x) for w, x in zip(b, ch.gains)]
    t = snr * snr / den(ch)
    g = [[-tx * y for y in bg] for tx in [t * x for x in bg]]
    for i, w in enumerate(b):
        g[i][i] += snr * w
    return g


def norm(ch, a) -> Fraction:
    """a^T G a from a channel record's float inputs: snr (a^T B a - snr (g^T B a)^2 / den)."""
    snr, b = Fraction(ch.snr), [Fraction(x) for x in ch.weights_sq]
    cross = sum(w * Fraction(x) * y for w, x, y in zip(b, ch.gains, a))
    return snr * (sum(w * y * y for w, y in zip(b, a)) - snr * cross * cross / den(ch))


def _rows(mat) -> list[list]:
    return mat.tolist() if hasattr(mat, "tolist") else [list(row) for row in mat]


def _eliminate(rows) -> tuple[list[list], list[int], Fraction]:
    """Gaussian elimination with no division: a row echelon form, its pivot columns and the determinant over it.

    Each row below a pivot p with entry f in its column becomes p times itself
    minus f times the pivot row, which multiplies the determinant by p.
    """
    m = _rows(rows)
    cols, num, den = [], 1, 1
    for col in range(len(m[0]) if m else 0):
        r = len(cols)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv], num = m[piv], m[r], -num
        p = m[r][col]
        num *= p
        for i in range(r + 1, len(m)):
            if f := m[i][col]:
                m[i] = [p * x - f * y for x, y in zip(m[i], m[r])]
                den *= p
        cols.append(col)
    return m, cols, Fraction(num, den)


def rank(rows) -> int:
    return len(_eliminate(rows)[1])


def det(rows) -> Fraction:
    """Determinant of a square matrix."""
    m, cols, factor = _eliminate(rows)
    return factor if len(cols) == len(m) else Fraction(0)


def solve(system, rhs) -> list[Fraction] | None:
    """A rational x with system x = rhs, free unknowns zero, or None when there is none."""
    n = len(system[0]) if len(system) else 0
    m, cols, _ = _eliminate([[*row, b] for row, b in zip(_rows(system), rhs)])
    if cols and cols[-1] == n:  # a pivot in the right-hand side: 0 = 1
        return None
    x = [Fraction(0)] * n
    for row, col in zip(m[len(cols) - 1 :: -1], cols[::-1]):  # back substitution
        x[col] = (row[-1] - sum(y * z for y, z in zip(row[col + 1 : n], x[col + 1 :]))) / Fraction(row[col])
    return x


def matmul(left, right) -> tuple[tuple, ...]:
    """left @ right, exact, as a tuple of row tuples."""
    cols = list(zip(*_rows(right)))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in _rows(left))


def gram_of(g, vectors) -> list[list[int]]:
    """W^T g W for the integer Gram ``g`` and W with the integer coordinate ``vectors`` as columns."""
    vectors = [list(v) for v in vectors]
    gv = [[sum(map(mul, row, v)) for row in g] for v in vectors]
    return [[sum(map(mul, u, w)) for w in gv] for u in vectors]


def assert_lll_reduced(g, u, delta=Fraction(99, 100)) -> None:
    """The integer vectors ``u`` form a unimodular W, and the basis with Gram W^T g W is size-reduced and meets Lovasz at ``delta``.

    On the integral Gram-Schmidt data, with mu_ij = lam[i][j] / dd[j + 1] and
    |b*_i|^2 = dd[i + 1] / dd[i]: |mu_ij| <= 1/2 is 2 |lam[i][j]| <= dd[j + 1],
    and |b*_i|^2 >= (delta - mu_i,i-1^2) |b*_i-1|^2 is, times dd[i] dd[i - 1],
    dd[i + 1] dd[i - 1] >= delta dd[i]^2 - lam[i][i - 1]^2.
    """
    assert all(type(x) is int for vec in u for x in vec)
    assert abs(det(u)) == 1
    dd, lam = _integral_gso(gram_of(g, u))
    num, den = delta.numerator, delta.denominator
    assert all(2 * abs(x) <= dd[j + 1] for row in lam for j, x in enumerate(row))
    assert all(den * dd[i + 1] * dd[i - 1] >= num * dd[i] ** 2 - den * lam[i][i - 1] ** 2 for i in range(1, len(u)))


def mod_p_lift(a, lower, pi) -> tuple:
    """(p, L mod p, L A mod p, row denominators, lemma bound) for the Fraction rows ``lower`` of order ``pi`` of A = ``a``.

    Row i of L times q_i, the lcm of its denominators, is an integer row l_i;
    p is the least prime dividing no q_i and no (l_i A)_{pi_i}, and row i of
    L mod p and of L A mod p is l_i and l_i A times q_i^-1 mod p.
    """
    rows = _rows(a)
    k = len(rows)
    denoms = [math.lcm(*(x.denominator for x in row)) for row in lower]
    scaled = [[x.numerator * (q // x.denominator) for x in row] for row, q in zip(lower, denoms)]
    tilde = matmul(scaled, rows)
    units = denoms + [tilde[i][pi[i]] for i in range(k)]
    primes = (p for p in itertools.count(2) if all(p % f for f in range(2, math.isqrt(p) + 1)))
    p = next(p for p in primes if all(x % p for x in units))
    inverses = [pow(q, -1, p) for q in denoms]
    a_max = max(1, *(abs(x) for row in rows for x in row))
    bound = k * math.factorial(k) ** 2 * (k * a_max) ** (2 * k) * a_max
    lower_p, tilde_p = ([[x * inv % p for x in row] for row, inv in zip(m, inverses)] for m in (scaled, tilde))
    return p, lower_p, tilde_p, tuple(denoms), bound


def _integer_gram(ch) -> tuple[list[list[int]], int]:
    """(M, scale): M = scale G is integral, scale the lcm of the denominators of ``gram(ch)``."""
    g = gram(ch)
    scale = math.lcm(*(x.denominator for row in g for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in g], scale


def _quad(mat, a) -> int:
    return sum(map(mul, a, [sum(map(mul, row, a)) for row in mat]))


def _signed(a: tuple) -> tuple:
    return a if a > (0,) * len(a) else tuple(-x for x in a)


def _integral_gso(r) -> tuple[list[int], list[list[int]]]:
    """(dd, lam) of the positive definite integer Gram ``r``: dd[i] its leading i x i minor, lam[i][j] = dd[j + 1] mu_ij.

    Cohen, *A Course in Computational Algebraic Number Theory*, 2.6.7; every
    division is checked exact.
    """
    k = len(r)
    dd, lam = [1] + [0] * k, [[0] * i for i in range(k)]
    for i in range(k):
        for j in range(i + 1):
            u = r[i][j]
            for l in range(j):
                u, rest = divmod(dd[l + 1] * u - lam[i][l] * lam[j][l], dd[l])
                assert not rest
            if j < i:
                lam[i][j] = u
            else:
                dd[i + 1] = u
    assert all(x > 0 for x in dd)
    return dd, lam


def _outside(mat, rows, dd, lam, m: int, limit: int):
    """Every (a^T M a, signed a) with a^T M a <= ``limit`` outside the span of ``rows[:m]``, lazily.

    ``rows`` span Z^K, so a = c A is outside that span iff some c_j != 0,
    j >= m.  The c are fixed from the last coordinate down (Fincke-Pohst) on
    dd and lam, the integral Gram-Schmidt data of R = A M A^T, where
    P_l = dd[l] |pi_l(a)|^2 is an integer: P_l = (dd[l] P_{l+1} + t^2) /
    dd[l + 1], t = dd[l + 1] c_l + sum_{j>l} lam[j][l] c_j.  Each level's
    range is widened by one on each side and each value kept only if
    P_l <= dd[l] limit, that is t^2 <= dd[l] (dd[l + 1] limit - P_{l+1});
    each division is checked exact, and each leaf's cost is a^T M a, checked
    equal to P_0.  One c of each {c, -c} is walked: the one whose last nonzero
    entry is positive.
    """
    k, c = len(rows), [0] * len(rows)
    cols = [[lam[j][level] for j in range(level + 1, k)] for level in range(k)]

    def descend(level: int, partial: int, tail_zero: bool):
        if level < m and tail_zero:
            return  # c[m:] = 0: in the span of rows[:m]
        if level < 0:
            a = tuple(sum(x * row[j] for x, row in zip(c, rows)) for j in range(k))
            assert _quad(mat, a) == partial <= limit
            yield partial, _signed(a)
            return
        e, d = dd[level], dd[level + 1]
        s = sum(map(mul, cols[level], c[level + 1 :]))
        room = e * (d * limit - partial)  # P_l <= dd[l] limit iff t^2 <= room
        if room < 0:
            return
        h = math.isqrt(room)
        for v in range(0 if tail_zero else -((h + s) // d) - 1, (h - s) // d + 2):
            t = d * v + s
            if t * t <= room:
                cost, rest = divmod(e * partial + t * t, d)
                assert not rest
                c[level] = v
                yield from descend(level - 1, cost, tail_zero and v == 0)
        c[level] = 0

    return descend(k - 1, 0, True)


def certify(ch, vectors, norms) -> list[Fraction]:
    """Check that ``vectors`` are the successive minima of ch's lattice and ``norms`` their a^T G a; returns the exact norms.

    Each vector must be signed (first nonzero entry positive), vector m the
    least (exact a^T G a, signed a) outside the span of vectors 0..m-1, and its norm the exact one rounded once.  The first must
    lie below snr; an empty set must have no vector with a^T G a below snr.
    The rows span Z^K when det(A M A^T) = det(M).
    """
    mat, scale = _integer_gram(ch)
    k, below = len(mat), math.ceil(Fraction(ch.snr) * scale) - 1  # a^T G a < snr iff a^T M a <= below
    if not len(vectors):
        unit = [[int(i == j) for j in range(k)] for i in range(k)]
        assert not len(norms) and next(_outside(mat, unit, *_integral_gso(mat), 0, below), None) is None
        return []
    rows = [[int(x) for x in a] for a in vectors]
    assert len(rows) == k and all(tuple(a) == _signed(tuple(a)) for a in rows)  # first nonzero entry positive
    dd, lam = _integral_gso(gram_of(mat, rows))
    assert dd[k] == _integral_gso(mat)[0][k]
    exact = [_quad(mat, a) for a in rows]
    assert exact[0] <= below
    assert tuple(norms) == tuple(float(Fraction(n, scale)) for n in exact)
    for m, (a, n) in enumerate(zip(rows, exact)):  # row m is outside the span of rows[:m], so it is the least if none is less
        for point in _outside(mat, rows, dd, lam, m, n):
            assert point >= (n, tuple(a)), (ch, m, point)
    return [Fraction(n, scale) for n in exact]
