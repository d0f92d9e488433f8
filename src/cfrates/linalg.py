"""Small exact and floating-point matrix kernels shared across the package.

Floating paths use Woodbury closed forms, so the inverse square root of the
coefficient-selection lattice basis is never materialized; only quadratic
forms and a Cholesky factor are needed.  Every channel input (gains, snr,
squared weights) is checked in one place, ``_channel``, which returns one
record (g, b_sq, B g, 1 + snr g^T B g) that the Gram matrix, the rates, the
determinant and the search bound share; ``ChannelSpec`` keeps it, so a
transform checks its channel once.  The Gram rows (bit-equal to the numpy
expression, entry by entry) and their Cholesky factor are Python lists, which
the public ``gram_effective`` and ``cholesky`` wrap in arrays.  g^T B g stays
a numpy dot: on short vectors that dot is a fused multiply-add chain, which a
Python sum does not reproduce.  Exact paths (rank, span solve, span
membership) take integer matrices and share one fraction-free (Bareiss)
elimination over Python ints, so they are never subject to tolerance
artifacts; rationals appear only in the solutions they return and in
``RationalMatrix``.

All logarithms are base 2; SNR is linear here (dB conversion happens at the
CLI boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple

import numpy as np

__all__ = [
    "GramMatrix",
    "RationalMatrix",
    "gram_plain",
    "gram_effective",
    "cholesky",
    "sylvester_logdet",
    "exact_rank",
    "exact_solve_in_span",
    "RationalSpan",
]


@dataclass(frozen=True)
class GramMatrix:
    """Gram matrix of the coefficient-selection lattice of one channel.

    ``a @ entries @ a`` is the minimal effective noise variance achievable
    when decoding the integer combination ``a``.  ``snr`` rides along because
    both the positive-rate sphere and the rate formula are relative to it.
    """

    entries: np.ndarray
    snr: float

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


class _Checked(NamedTuple):
    """One checked channel: gains, squared weights, B g and 1 + snr g^T B g."""

    g: np.ndarray
    b_sq: np.ndarray
    bg: np.ndarray
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
    return _Checked(g, b_sq, bg, denom)


def _gram_rows(ch: _Checked, snr: float) -> list[list[float]]:
    """Rows of snr * (B - snr * B g g^T B / (1 + snr * g^T B g)) on Python floats.

    Each entry takes the same elementwise operations, in the same order, as
    the numpy expression, so the rows are bit-equal to it.  Raises ValueError
    when an entry overflows.
    """
    snr, b_sq, bg, denom = float(snr), ch.b_sq.tolist(), ch.bg.tolist(), ch.denom
    rows = [
        [snr * ((b_sq[i] if i == j else 0.0) - snr * (x * y) / denom) for j, y in enumerate(bg)]
        for i, x in enumerate(bg)
    ]
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ValueError("Gram matrix overflows floating point; gains or snr are too large")
    return rows


def _cholesky_rows(g) -> list[list[float]]:
    """Lower-triangular R, as rows, with R R^T = (G + G^T) / 2.

    Raises ValueError unless every pivot is positive and finite, which also
    rejects NaN entries.
    """
    r: list[list[float]] = []
    k = len(g)
    for i, row in enumerate(g):
        ri: list[float] = []
        for j, rj in enumerate(r):
            ri.append((0.5 * (row[j] + g[j][i]) - sum(map(mul, ri, rj))) / rj[j])
        pivot = row[i] - sum(map(mul, ri, ri))
        if not 0.0 < pivot < math.inf:
            raise ValueError("matrix is not positive definite")
        ri.append(math.sqrt(pivot))
        ri += [0.0] * (k - 1 - i)
        r.append(ri)
    return r


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

    Raises ValueError when G overflows to a non-finite entry.
    """
    return GramMatrix(entries=np.array(_gram_rows(_channel(g, snr, b_sq), snr)), snr=float(snr))


def cholesky(gram) -> np.ndarray:
    """Lower-triangular R with R R^T = G; rows of R form a basis with Gram G.

    Raises ValueError when G is not a positive definite square matrix.
    """
    g = gram.entries if isinstance(gram, GramMatrix) else np.asarray(gram, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("matrix must be square")
    return np.array(_cholesky_rows(g.tolist()), dtype=float).reshape(g.shape)


def sylvester_logdet(gains, snr: float, b_sq=None) -> float:
    """log2 of the squared determinant of the lattice basis.

    Plain MAC: K*log2(snr) - log2(1 + snr*||h||^2).  With squared weights
    ``b_sq`` the determinant identity picks up det(B):
    L*log2(snr) + log2(det B) - log2(1 + snr * g^T B g).
    """
    g, b_sq, _, denom = _channel(gains, snr, b_sq)
    return g.size * math.log2(snr) + float(np.sum(np.log2(b_sq))) - math.log2(denom)


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
