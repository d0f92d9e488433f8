"""Small exact and floating-point matrix kernels shared across the package.

Every channel input (gains, snr, squared weights) is checked in one place,
``_channel``, which returns one record (g, b_sq, B g, 1 + snr g^T B g); a
``ChannelSpec`` keeps it, so a transform checks its channel once.  Every noise
norm a^T G a is ``_sq_norm`` of the channel's ``_embedding`` M, a sum of
squares by Lagrange's identity, so nothing cancels at any snr; the Gram matrix
is M^T M and the search reduces M's columns.  Exact paths (rank, span solve,
span membership) take integer matrices and share one fraction-free (Bareiss)
elimination over Python ints; rationals appear only in their solutions and in
``RationalMatrix``.

All logarithms are base 2; SNR is linear here (dB conversion happens at the
CLI boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import NamedTuple

import numpy as np

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
    ``_emb``, outside init, repr, equality and hash, keeps the channel's M for
    ``successive_minima``; a Gram built by hand or ``dataclasses.replace`` has none.
    """

    entries: np.ndarray
    snr: float
    _emb: _Embedding | None = field(default=None, init=False, repr=False, compare=False)

    def _key(self) -> tuple:
        return tuple(map(tuple, self.entries.tolist())), self.snr

    def __eq__(self, other) -> bool:
        return isinstance(other, GramMatrix) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


class _Checked(NamedTuple):
    """One checked channel: gains, squared weights (arrays), B g (Python floats) and 1 + snr g^T B g."""

    g: np.ndarray
    b_sq: np.ndarray
    bg: tuple[float, ...]
    denom: float


def _channel(gains, snr: float, b_sq=None) -> _Checked:
    """The checked record ``(g, b_sq, B g, 1 + snr * g^T B g)`` of a channel.

    ``b_sq`` None means unit weights (a plain MAC).  Raises ValueError unless
    the gains are a nonempty finite 1-D vector, snr is positive and finite, the
    weights match the gains in length and are positive and finite, and the
    denominator is finite.
    """
    g = np.asarray(gains, dtype=float)
    if g.ndim != 1 or g.size < 1:
        raise ValueError("channel gains must be a nonempty 1-D vector")
    # checks on Python floats: a numpy reduction costs more on these short vectors
    if not all(map(math.isfinite, g.tolist())):
        raise ValueError("channel gains must be finite")
    if not (math.isfinite(snr) and snr > 0):
        raise ValueError(f"snr must be positive and finite, got {snr!r}")
    b_sq = np.ones(g.size) if b_sq is None else np.asarray(b_sq, dtype=float)
    if b_sq.shape != g.shape:
        raise ValueError("weights must match the gain vector length")
    if not all(0 < x < math.inf for x in b_sq.tolist()):
        raise ValueError("effective weights must be positive and finite")
    with np.errstate(over="ignore"):
        bg = b_sq * g
        denom = 1.0 + snr * float(g @ bg)
    if not math.isfinite(denom):
        raise ValueError("1 + snr g^T B g overflows floating point; gains or snr are too large")
    return _Checked(g, b_sq, tuple(bg.tolist()), denom)


class _Embedding(NamedTuple):
    """M with ||M a||^2 = a^T G a: rows sqrt(diag[i]) e_i, then c (x_j e_i - x_i e_j) per pair.

    A pair is (i, j, c, x_j, x_i) with each x as its ``_split`` halves;
    ``basis`` holds M's columns on floats, the basis that LLL and the walk reduce.
    """

    basis: list[list[float]]
    diag: tuple[float, ...]
    pairs: tuple[tuple, ...]


def _split(x: float) -> tuple[float, float]:
    """``(hi, lo)``, hi + lo = x, with 26 bits in hi: hi * n is exact for an integer |n| < 2^27."""
    m, e = math.frexp(x)
    hi = math.ldexp(math.trunc(m * 67108864.0), e - 26)
    return hi, x - hi


def _embedding(ch: _Checked, snr: float) -> _Embedding:
    """The channel's M: rows sqrt(snr b_i / den) e_i and snr sqrt(b_i b_j / den) (g_j e_i - g_i e_j), i < j.

    With den = 1 + snr g^T B g, Lagrange's identity makes ||M a||^2 =
    snr (a^T B a + snr sum_{i<j} b_i b_j (a_i g_j - a_j g_i)^2) / den = a^T G a,
    a sum of squares.  Raises ValueError when a squared column norm (a
    diagonal entry of G) overflows or underflows to zero.
    """
    snr, den = float(snr), ch.denom
    g, b_sq = ch.g.tolist(), ch.b_sq.tolist()
    k = len(g)
    diag = tuple([snr * b / den for b in b_sq])
    basis = [[0.0] * (k * (k + 1) // 2) for _ in g]
    root, scale, parts = [math.sqrt(b) for b in b_sq], snr / math.sqrt(den), [_split(x) for x in g]
    pairs, r = [], k
    for i, (col, d, gi) in enumerate(zip(basis, diag, g)):
        col[i] = math.sqrt(d)
        for j in range(i + 1, k):
            c = scale * root[i] * root[j]
            pairs.append((i, j, c, *parts[j], *parts[i]))
            col[r], basis[j][r] = c * g[j], -c * gi
            r += 1
    norms = [sum(map(mul, col, col)) for col in basis]
    if not all(map(math.isfinite, norms)):
        raise ValueError("Gram matrix overflows floating point; gains or snr are too large")
    if not all(norms):
        raise ValueError("Gram matrix underflows floating point; snr is too small")
    return _Embedding(basis, diag, tuple(pairs))


def _sq_norm(emb: _Embedding, a) -> float:
    """||M a||^2 = a^T G a for an integer ``a``: every noise norm, searched or reported.

    Each term is a square and a_i g_j - a_j g_i sums exact products of
    ``_split`` halves, so for |a_i| < 2^27 the result is within (K^2 + 10)
    eps of a^T G a (from the float inputs), relative, at any snr.
    """
    total = sum(map(mul, emb.diag, [x * x for x in a]))
    for i, j, c, hj, lj, hi, li in emb.pairs:
        ai, aj = a[i], a[j]
        v = c * ((hj * ai - hi * aj) + (lj * ai - li * aj))
        total += v * v
    return total


def gram_plain(h, snr: float) -> GramMatrix:
    """Gram matrix for a plain MAC: the effective MAC with unit weights.

    G = snr * (I - snr * h h^T / (1 + snr * ||h||^2)), the inverse of
    (snr^-1 I + h h^T).
    """
    return gram_effective(h, None, snr)


def gram_effective(g, b_sq, snr: float) -> GramMatrix:
    """Gram matrix for an effective MAC with gains ``g`` and squared weights.

    ``b_sq`` holds the diagonal of the effective weight matrix B (None: unit
    weights).  Equals the inverse of (snr^-1 B^-1 + g g^T) via Woodbury:

        G = snr * (B - snr * B g g^T B / (1 + snr * g^T B g))

    Evaluated as M^T M (``_embedding``), whose entries sum products of one
    sign, so nothing cancels.  Raises ValueError when G overflows.
    """
    return _gram(_channel(g, snr, b_sq), snr)


def _gram(ch: _Checked, snr: float) -> GramMatrix:
    """``gram_effective`` of a checked channel record, keeping its M."""
    cols = (emb := _embedding(ch, snr)).basis
    gram = GramMatrix(entries=np.array([[sum(map(mul, u, v)) for v in cols] for u in cols]), snr=float(snr))
    object.__setattr__(gram, "_emb", emb)
    return gram


def cholesky(gram) -> np.ndarray:
    """Lower-triangular R with R R^T = (G + G^T) / 2; rows of R form a basis with Gram G.

    Raises ValueError when G is not a positive definite square matrix: every
    pivot must be positive and finite, which also rejects NaN entries.
    """
    g = gram.entries if isinstance(gram, GramMatrix) else np.asarray(gram, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("matrix must be square")
    rows, r = g.tolist(), []
    for i, row in enumerate(rows):
        ri: list[float] = []
        for j, rj in enumerate(r):
            ri.append((0.5 * (row[j] + rows[j][i]) - sum(map(mul, ri, rj))) / rj[j])
        pivot = row[i] - sum(map(mul, ri, ri))
        if not 0.0 < pivot < math.inf:
            raise ValueError("matrix is not positive definite")
        r.append([*ri, math.sqrt(pivot)] + [0.0] * (len(rows) - 1 - i))
    return np.array(r, dtype=float).reshape(g.shape)


def sylvester_logdet(gains, snr: float, b_sq=None) -> float:
    """log2 of the squared determinant of the lattice basis.

    Plain MAC: K*log2(snr) - log2(1 + snr*||h||^2).  With squared weights
    ``b_sq`` the determinant identity picks up det(B):
    L*log2(snr) + log2(det B) - log2(1 + snr * g^T B g).
    """
    return _logdet(_channel(gains, snr, b_sq), snr)


def _logdet(ch: _Checked, snr: float) -> float:
    """``sylvester_logdet`` of a checked channel record."""
    return ch.g.size * math.log2(snr) + float(np.sum(np.log2(ch.b_sq))) - math.log2(ch.denom)


# ---------------------------------------------------------------------------
# exact rational arithmetic
# ---------------------------------------------------------------------------


def _int_rows(mat) -> list[list[int]]:
    """Rows of ``mat`` as Python ints; ``[]`` is the matrix with no rows."""
    arr = np.asarray(mat)
    if arr.ndim != 2 and arr.shape != (0,):
        raise ValueError("expected a 2-D matrix")
    rows = []
    for row in arr.tolist():
        out = []
        for x in row:
            xi = int(x)
            if xi != x:
                raise ValueError("exact routines require integer entries")
            out.append(xi)
        rows.append(out)
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
    rows = _int_rows(mat)
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
    aug = _int_rows(mat)
    (b,) = _int_rows([rhs])
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
        (v,) = _int_rows([vec])
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
            other = RationalMatrix.from_rows(np.asarray(other).tolist())
        rows_b = other.entries
        n_inner = len(rows_b)
        if self.cols != n_inner:
            raise ValueError("incompatible shapes")
        n_cols = len(rows_b[0])
        out = []
        for row in self.entries:
            out.append([sum(row[k] * rows_b[k][j] for k in range(n_inner)) for j in range(n_cols)])
        return RationalMatrix.from_rows(out)
