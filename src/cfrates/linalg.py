"""Small exact and floating-point matrix kernels shared across the package.

Vector and matrix inputs are read by ``_vector`` and ``_matrix`` (arrays through
``tolist()``), so the kernels run on Python floats and ints and numpy loads only
in views that return arrays.  A channel is one ``ChannelSpec``, checked once on
construction, which keeps g, b_sq and snr as floats and the integer factors of
its Gram, den = 1 + snr g^T B g among them; its Grams keep it, and each public
function of a raw channel is a view over one.  ``gram()`` and the LLL fallback
read the integer Gram Q (``_q_matrix``), an exact multiple of G; the K >= 4
walk reads W^T Q W (``_q_gram``), the K <= 3 search Q's entries, from the
factors.  Every noise norm a^T G a is ``_sq_norm`` of the channel, the exact
a^T Q a from two integer dot products, rounded once, so nothing cancels at any
snr or K; the log-determinant and the MAC sum capacity are ``_log2_ratio`` of
one integer ratio of the factors.  Exact paths (rank, span solve, span
membership) take integer matrices and share one fraction-free (Bareiss)
elimination over Python ints; rationals appear only in their solutions and in
``RationalMatrix``.

All logarithms are base 2; SNR is linear here (dB conversion happens at the
CLI boundary).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import mul

__all__ = [
    "GramMatrix", "RationalMatrix", "gram_plain", "gram_effective", "cholesky",
    "sylvester_logdet", "exact_rank", "exact_solve_in_span", "RationalSpan",
]


@dataclass(frozen=True)
class GramMatrix:
    """Gram matrix of the coefficient-selection lattice of one channel.

    ``a @ entries @ a`` is the minimal effective noise variance achievable
    when decoding the integer combination ``a``.  ``snr`` rides along because
    both the positive-rate sphere and the rate formula are relative to it.
    Equality and hashing compare the entries, as nested tuples, and snr.
    ``_spec``, outside init, repr, equality and hash, keeps the
    ``ChannelSpec``, and so its integer Gram, for ``successive_minima``; a
    Gram built by hand or ``dataclasses.replace`` has none.
    """

    entries: np.ndarray
    snr: float
    _spec: ChannelSpec | None = field(default=None, init=False, repr=False, compare=False)

    def _key(self) -> tuple:
        return tuple(map(tuple, self.entries.tolist())), self.snr

    def __eq__(self, other) -> bool:
        return isinstance(other, GramMatrix) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _listed(values) -> list:
    """``values`` as a list, an array read through ``tolist()``; TypeError for text, which would list its characters."""
    if isinstance(values, (str, bytes)):
        raise TypeError("text is not a vector")
    return list(values.tolist() if hasattr(values, "tolist") else values)


def _vector(values, message: str) -> tuple[float, ...]:
    """The entries of a 1-D input as floats; ValueError(message) unless 1-D."""
    try:
        return tuple(map(float, _listed(values)))
    except TypeError:
        raise ValueError(message) from None


def _matrix(values, message: str, square: bool = False) -> list[list]:
    """The rows of a 2-D input as lists of one length (a list row kept as is), square if ``square``; else ValueError(message)."""
    try:
        rows = [row if type(row) is list else _listed(row) for row in _listed(values)]
    except TypeError:
        raise ValueError(message) from None
    widths = set(map(len, rows)) or set(getattr(values, "shape", ())[1:2])  # an array with no rows keeps its width
    if len(widths) > 1 or (square and widths != {len(rows)}) or not {list, tuple}.isdisjoint(map(type, chain(*rows))):
        raise ValueError(message)
    return rows


@dataclass(frozen=True)
class ChannelSpec:
    """One checked channel: gains, linear snr and squared effective weights.

    ``weights_sq`` None means unit weights (a plain MAC); effective MACs carry
    the diagonal of their weight matrix.  Construction raises ValueError unless
    the gains are a nonempty finite 1-D vector, snr is a positive finite real
    number, and the weights match the gains in length and are positive and
    finite.  Gains and weights are stored as tuples of floats and snr as a
    float, so equality and hashing compare values whatever the input type;
    ``q``, the integer factors of the Gram (``_integer_gram``), is outside
    init, repr, equality and hash.
    """

    gains: tuple[float, ...]
    snr: float
    weights_sq: tuple[float, ...]
    q: tuple[list[int], list[int], int, int, int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = _vector(self.gains, "channel gains must be a nonempty 1-D vector")
        if not g:
            raise ValueError("channel gains must be a nonempty 1-D vector")
        if not all(map(math.isfinite, g)):
            raise ValueError("channel gains must be finite")
        if not (isinstance(self.snr, (float, numbers.Real)) and math.isfinite(self.snr) and self.snr > 0):  # floats skip the slow ABC test
            raise ValueError(f"snr must be positive and finite, got {self.snr!r}")
        b_sq = (1.0,) * len(g) if self.weights_sq is None else _vector(self.weights_sq, "weights must match the gain vector length")
        if len(b_sq) != len(g):
            raise ValueError("weights must match the gain vector length")
        if not all(0 < x < math.inf for x in b_sq):
            raise ValueError("effective weights must be positive and finite")
        for name, value in (("gains", g), ("snr", float(self.snr)), ("weights_sq", b_sq)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "q", _integer_gram(self))

    @classmethod
    def plain(cls, h, snr: float) -> "ChannelSpec":
        return cls(h, snr, None)

    @classmethod
    def effective(cls, g, b_sq, snr: float) -> "ChannelSpec":
        return cls(g, snr, b_sq)

    @property
    def dim(self) -> int:
        return len(self.gains)

    def gram(self) -> GramMatrix:
        return _gram(self)


def _mantissas(values: tuple[float, ...]) -> tuple[list[int], int]:
    """``(n, d)`` with values[i] = n[i] / d exactly: integer mantissas over one power of two d."""
    ratios = [x.as_integer_ratio() for x in values]  # each denominator is a power of two
    d = max([r[1] for r in ratios])
    return [n * (d // e) for n, e in ratios], d


def _integer_gram(ch: ChannelSpec) -> tuple[list[int], list[int], int, int, int, int, int]:
    """(B, BG, D, S, ds, dg, U): the factors of Q = D diag(B) - S (BG)(BG)^T, an exact positive multiple of the channel's Gram.

    G, B and S are the integer mantissas of g, b_sq and snr over powers of two
    (``_mantissas``): g = G / dg, b = B / db and snr = S / ds, and BG is their
    elementwise product B_i G_i.  D = ds dg^2 db + S sum G_i (BG)_i is
    ds dg^2 db times the exact den = 1 + snr g^T B g, so by Woodbury the Gram
    snr (B - snr B g g^T B / den) is snr / (db D) times Q, with no rounding
    from the float inputs: for n = a^T Q a, a^T G a = S n / (ds U), and
    U = db D is the n at which a^T G a = snr.
    """
    (gm, dg), (bm, db), (s, ds) = _mantissas(ch.gains), _mantissas(ch.weights_sq), ch.snr.as_integer_ratio()
    bgm = list(map(mul, bm, gm))
    d = ds * dg * dg * db + s * sum(map(mul, gm, bgm))
    return bm, bgm, d, s, ds, dg, db * d


def _q_gram(ch: ChannelSpec, m, t) -> list[list[int]]:
    """W^T Q W = D m - S t t^T as rows, from Q's factors: m = W^T diag(B) W and t = W^T (BG), K^2 big-int products."""
    _, _, d, s, _, _, _ = ch.q
    return [[d * x - s * ti * tj for x, tj in zip(row, t)] for row, ti in zip(m, t)]


def _q_matrix(ch: ChannelSpec) -> list[list[int]]:
    """Q = D diag(B) - S (BG)(BG)^T, ``_q_gram`` of the unit basis: the integer Gram that ``gram()`` and ``_lll_set`` read."""
    bm, bgm = ch.q[:2]
    return _q_gram(ch, [[b * (i == j) for j in range(len(bm))] for i, b in enumerate(bm)], bgm)


def _q_norm(ch: ChannelSpec, a) -> int:
    """a^T Q a for an integer ``a``: D sum B_i a_i^2 - S (BG . a)^2, over Python ints."""
    bm, bgm, d, s, _, _, _ = ch.q
    return d * sum(map(mul, bm, [x * x for x in a])) - s * sum(map(mul, bgm, a)) ** 2


def _exact_norm(ch: ChannelSpec, n: int) -> float:
    """a^T G a for n = a^T Q a: S n / (ds U), an int / int true division, which Python rounds correctly; ValueError past the float range."""
    _, _, _, s, ds, _, u = ch.q
    try:
        norm = s * n / (ds * u)
    except OverflowError:
        raise ValueError("noise norm a^T G a overflows floating point; gains, weights or snr are too large") from None
    if not norm:
        raise ValueError("noise norm a^T G a underflows floating point; snr or the weights are too small")
    return norm


def _sq_norm(ch: ChannelSpec, a) -> float:
    """a^T G a for an integer ``a``, every noise norm reported: ``_exact_norm`` of ``_q_norm``, at any K and snr."""
    return _exact_norm(ch, _q_norm(ch, a))


def gram_plain(h, snr: float) -> GramMatrix:
    """Gram matrix for a plain MAC: the effective MAC with unit weights.

    G = snr * (I - snr * h h^T / (1 + snr * ||h||^2)), the inverse of
    (snr^-1 I + h h^T).
    """
    return _gram(ChannelSpec(h, snr, None))


def gram_effective(g, b_sq, snr: float) -> GramMatrix:
    """Gram matrix for an effective MAC with gains ``g`` and squared weights.

    ``b_sq`` holds the diagonal of the effective weight matrix B (None: unit
    weights).  Equals the inverse of (snr^-1 B^-1 + g g^T) via Woodbury:

        G = snr * (B - snr * B g g^T B / (1 + snr * g^T B g))

    Each entry is S Q_ij / (ds U) (``_integer_gram``), exact and rounded once;
    ValueError when one overflows or a nonzero one rounds to 0.
    """
    return _gram(ChannelSpec(g, snr, b_sq))


def _gram(ch: ChannelSpec) -> GramMatrix:
    """``gram_effective`` of a ``ChannelSpec``, keeping it."""
    import numpy as np
    _, _, _, s, ds, _, u = ch.q
    q = _q_matrix(ch)
    try:
        entries = [[s * x / (ds * u) for x in row] for row in q]
    except OverflowError:
        raise ValueError("Gram matrix overflows floating point; gains, weights or snr are too large") from None
    if any(x and not y for q_row, row in zip(q, entries) for x, y in zip(q_row, row)):
        raise ValueError("Gram matrix underflows floating point; snr or the weights are too small")
    gram = GramMatrix(entries=np.array(entries), snr=ch.snr)
    object.__setattr__(gram, "_spec", ch)
    return gram


def cholesky(gram) -> np.ndarray:
    """Lower-triangular R with R R^T = (G + G^T) / 2; rows of R form a basis with Gram G.

    Raises ValueError when G is not a positive definite square matrix: every
    pivot must be positive and finite, which also rejects NaN entries.
    """
    rows = _matrix(gram.entries if isinstance(gram, GramMatrix) else gram, "matrix must be square", square=True)
    rows, r = [list(map(float, row)) for row in rows], []
    for i, row in enumerate(rows):
        ri: list[float] = []
        for j, rj in enumerate(r):
            ri.append((0.5 * (row[j] + rows[j][i]) - sum(map(mul, ri, rj))) / rj[j])
        pivot = row[i] - sum(map(mul, ri, ri))
        if not 0.0 < pivot < math.inf:
            raise ValueError("matrix is not positive definite")
        r.append([*ri, math.sqrt(pivot)] + [0.0] * (len(rows) - 1 - i))
    import numpy as np
    return np.array(r, dtype=float).reshape(len(rows), len(rows))


def sylvester_logdet(gains, snr: float, b_sq=None) -> float:
    """log2 of the squared determinant of the lattice basis.

    Plain MAC: K*log2(snr) - log2(1 + snr*||h||^2).  With squared weights it
    picks up det(B): log2(snr^K det B / (1 + snr g^T B g)), the exact ratio
    S^K dg^2 prod B_i / ((ds db)^(K-1) D) (db = U / D) rounded once.
    """
    bm, _, d, s, ds, dg, u = ChannelSpec(gains, snr, b_sq).q
    return _log2_ratio(s ** len(bm) * dg * dg * math.prod(bm), (ds * (u // d)) ** (len(bm) - 1) * d)


def _log2_ratio(n, d) -> float:
    """log2(n / d) for positive n and d: log2 of the rounded ratio while it is a positive finite float, else a difference of logs."""
    try:
        ratio = n / d  # int / int is correctly rounded, and raises OverflowError past the float range
    except OverflowError:
        ratio = math.inf
    return math.log2(ratio) if 0 < ratio < math.inf else math.log2(n) - math.log2(d)


# ---------------------------------------------------------------------------
# exact rational arithmetic
# ---------------------------------------------------------------------------


def _int_rows(entries: list[list]) -> list[list[int]]:
    """``_matrix``'s rows as Python ints; ``[]`` is the matrix with no rows.  ValueError unless every entry is an integer."""
    try:  # int() refuses nan and +-inf
        rows = [list(map(int, row)) for row in entries]
    except (ValueError, OverflowError):
        rows = None
    if rows != entries:
        raise ValueError("exact routines require integer entries")
    return rows


def _echelon(rows: list[list[int]], n_cols: int) -> list[int]:
    """Fraction-free (Bareiss) row-echelon form of ``rows``, in place.

    Pivots are searched in the first ``n_cols`` columns, leftmost first, with
    row swaps; later columns (an augmented right-hand side) are carried along.
    Every intermediate entry is a minor of the input, so each division by the
    previous pivot is an exact integer division.  Returns the pivot columns;
    row r is the pivot row of the r-th of them, and rows past the rank are
    zero in the first ``n_cols`` columns.
    """
    n_rows = len(rows)
    width = len(rows[0]) if n_rows else 0
    pivots: list[int] = []
    prev = 1
    for col in range(n_cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, n_rows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, n_rows):
            row = rows[r]
            for c in range(col + 1, width):
                row[c] = (row[c] * top[col] - row[col] * top[c]) // prev
            row[col] = 0
        prev = top[col]
        pivots.append(col)
        if rank + 1 == n_rows:
            break
    return pivots


def exact_rank(mat) -> int:
    """Rank of an integer matrix over the rationals: its number of pivots."""
    rows = _int_rows(_matrix(mat, "expected a 2-D matrix"))
    return len(_echelon(rows, len(rows[0]) if rows else 0))


def _solve_scaled(aug: list[list[int]], rhs: list[int]) -> tuple[int, list[int]] | None:
    """``(d, d * x)`` for ``aug @ x = rhs`` (rows consumed), or None when infeasible.

    Free coordinates of x are zero.  d is the last pivot of the fraction-free
    elimination of the augmented matrix (1 without pivots), the pivot minor's
    determinant up to sign, so by Cramer's rule the integer back-substitution
    divides exactly.
    """
    n_cols = len(aug[0]) if aug else 0
    for row, x in zip(aug, rhs):
        row.append(x)
    pivots = _echelon(aug, n_cols)
    if any(row[n_cols] != 0 for row in aug[len(pivots) :]):
        return None
    d = aug[len(pivots) - 1][pivots[-1]] if pivots else 1
    scaled = [0] * n_cols
    for i in reversed(range(len(pivots))):
        row = aug[i]
        scaled[pivots[i]] = (d * row[n_cols] - sum(row[c] * scaled[c] for c in pivots[i + 1 :])) // row[pivots[i]]
    return d, scaled


def exact_solve_in_span(mat, rhs) -> list[Fraction] | None:
    """Exact rational solution of ``mat @ x = rhs`` or None when infeasible.

    Entries must be integers (ValueError otherwise).  ``mat`` may be rank
    deficient; free coordinates are set to zero.
    """
    aug = _int_rows(_matrix(mat, "expected a 2-D matrix"))
    (b,) = _int_rows(_matrix([rhs], "expected a 2-D matrix"))
    if len(aug) != len(b):
        raise ValueError("matrix and right-hand side sizes differ")
    solved = _solve_scaled(aug, b)
    return None if solved is None else [Fraction(x, solved[0]) for x in solved[1]]


class RationalSpan:
    """Incrementally maintained row space of integer vectors over the rationals.

    Used for exact greedy independence tests: ``try_add`` keeps a vector only
    if it raises the rank of the stored rows.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: list[list[int]] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def try_add(self, vec) -> bool:
        (v,) = _int_rows(_matrix([vec], "expected a 2-D matrix"))
        if len(v) != self.dim:
            raise ValueError("vector has wrong length")
        if exact_rank([*self._rows, v]) == self.rank:
            return False
        self._rows.append(v)
        return True


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable matrix of exact rationals (reduced Fractions)."""

    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        return cls(tuple(tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, idx: tuple[int, int]) -> Fraction:
        return self.entries[idx[0]][idx[1]]

    def matmul(self, other) -> "RationalMatrix":
        if not isinstance(other, RationalMatrix):
            other = RationalMatrix.from_rows(_matrix(other, "incompatible shapes"))
        rows_b = other.entries
        n_inner = len(rows_b)
        if self.cols != n_inner:
            raise ValueError("incompatible shapes")
        n_cols = len(rows_b[0])
        out = []
        for row in self.entries:
            out.append([sum(row[k] * rows_b[k][j] for k in range(n_inner)) for j in range(n_cols)])
        return RationalMatrix.from_rows(out)
