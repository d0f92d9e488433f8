"""Small exact and floating-point matrix kernels shared across the package.

Floating paths use 64-bit numpy arrays and Woodbury closed forms, so the
inverse square root of the coefficient-selection lattice basis is never
materialized; only quadratic forms and a Cholesky factor are needed.  Exact
paths (rank, span membership, rational matrices) run over arbitrary-precision
rationals so integer matrices are never subject to tolerance artifacts.

All logarithms are base 2; SNR is linear here (dB conversion happens at the
CLI boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    ``source`` tags whether the matrix came from a plain or an effective MAC.
    """

    entries: np.ndarray
    snr: float
    source: str

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def quadratic_form(self, a) -> float:
        a = np.asarray(a, dtype=float)
        return float(a @ self.entries @ a)


def _check_channel(gains: np.ndarray, snr: float) -> None:
    if gains.ndim != 1 or gains.size < 1:
        raise ValueError("channel gains must be a nonempty 1-D vector")
    if not np.all(np.isfinite(gains)):
        raise ValueError("channel gains must be finite")
    if not (math.isfinite(snr) and snr > 0):
        raise ValueError(f"snr must be positive and finite, got {snr!r}")


def gram_plain(h, snr: float) -> GramMatrix:
    """Gram matrix for a plain MAC with gains ``h`` at linear ``snr``.

    Equals the inverse of (snr^-1 I + h h^T), evaluated through the Woodbury
    identity so no explicit inversion is performed:

        G = snr * (I - snr * h h^T / (1 + snr * ||h||^2))
    """
    h = np.asarray(h, dtype=float)
    _check_channel(h, snr)
    k = h.size
    outer = np.outer(h, h)
    g = snr * (np.eye(k) - snr * outer / (1.0 + snr * float(h @ h)))
    return GramMatrix(entries=g, snr=float(snr), source="plain-MAC")


def gram_effective(g, b_sq, snr: float) -> GramMatrix:
    """Gram matrix for an effective MAC with gains ``g`` and squared weights.

    ``b_sq`` holds the diagonal of the effective weight matrix B.  Equals the
    inverse of (snr^-1 B^-1 + g g^T) via Woodbury:

        G = snr * (B - snr * B g g^T B / (1 + snr * g^T B g))
    """
    g = np.asarray(g, dtype=float)
    b_sq = np.asarray(b_sq, dtype=float)
    _check_channel(g, snr)
    if b_sq.shape != g.shape:
        raise ValueError("weights must match the gain vector length")
    if not np.all(b_sq > 0):
        raise ValueError("effective weights must be positive")
    bg = b_sq * g
    gram = snr * (np.diag(b_sq) - snr * np.outer(bg, bg) / (1.0 + snr * float(g @ bg)))
    return GramMatrix(entries=gram, snr=float(snr), source="effective-MAC")


def cholesky(gram) -> np.ndarray:
    """Lower-triangular R with R R^T = G; rows of R form a basis with Gram G.

    Raises ValueError when G is not positive definite.
    """
    g = gram.entries if isinstance(gram, GramMatrix) else np.asarray(gram, dtype=float)
    g = 0.5 * (g + g.T)
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite") from exc


def sylvester_logdet(gains, snr: float, b_sq=None) -> float:
    """log2 of the squared determinant of the lattice basis.

    Plain MAC: K*log2(snr) - log2(1 + snr*||h||^2).  With squared weights
    ``b_sq`` the determinant identity picks up det(B):
    L*log2(snr) + log2(det B) - log2(1 + snr * g^T B g).
    """
    gains = np.asarray(gains, dtype=float)
    _check_channel(gains, snr)
    k = gains.size
    if b_sq is None:
        b_sq = np.ones(k)
    else:
        b_sq = np.asarray(b_sq, dtype=float)
        if not np.all(b_sq > 0):
            raise ValueError("effective weights must be positive")
    quad = float(gains @ (b_sq * gains))
    return k * math.log2(snr) + float(np.sum(np.log2(b_sq))) - math.log2(1.0 + snr * quad)


# ---------------------------------------------------------------------------
# exact rational arithmetic
# ---------------------------------------------------------------------------


def _int_rows(mat) -> list[list[int]]:
    arr = np.asarray(mat)
    if arr.ndim != 2:
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


def exact_rank(mat) -> int:
    """Rank of an integer matrix over the rationals.

    Fraction-free (Bareiss) elimination with row swaps; every intermediate
    entry is a minor of the input, so divisions are exact integer divisions.
    """
    rows = _int_rows(mat)
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    rank = 0
    prev = 1
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, n_rows):
            for c in range(col + 1, n_cols):
                rows[r][c] = (rows[r][c] * rows[rank][col] - rows[r][col] * rows[rank][c]) // prev
            rows[r][col] = 0
        prev = rows[rank][col]
        rank += 1
        if rank == n_rows:
            break
    return rank


def _fraction_rows(mat) -> list[list[Fraction]]:
    out = []
    for row in mat:
        out.append([x if isinstance(x, Fraction) else Fraction(x) for x in row])
    return out


def exact_solve_in_span(mat, rhs) -> list[Fraction] | None:
    """Exact rational solution of ``mat @ x = rhs`` or None when infeasible.

    ``mat`` may be rank deficient; free coordinates are set to zero.  Entries
    may be ints or Fractions.
    """
    a = _fraction_rows(mat)
    b = [x if isinstance(x, Fraction) else Fraction(x) for x in rhs]
    n_rows = len(a)
    if n_rows != len(b):
        raise ValueError("matrix and right-hand side sizes differ")
    n_cols = len(a[0]) if n_rows else 0
    aug = [a[i] + [b[i]] for i in range(n_rows)]

    pivot_cols: list[int] = []
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(n_rows):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [vi - f * vr for vi, vr in zip(aug[i], aug[r])]
        pivot_cols.append(col)
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if aug[i][n_cols] != 0:
            return None
    x = [Fraction(0)] * n_cols
    for i, col in enumerate(pivot_cols):
        x[col] = aug[i][n_cols]
    return x


class RationalSpan:
    """Incrementally maintained row space over the rationals.

    Used for exact greedy independence tests: ``try_add`` reduces a vector
    against the stored reduced rows and keeps it only if a nonzero remainder
    survives.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: list[tuple[int, list[Fraction]]] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def try_add(self, vec) -> bool:
        v = [x if isinstance(x, Fraction) else Fraction(int(x)) for x in vec]
        if len(v) != self.dim:
            raise ValueError("vector has wrong length")
        for pivot_col, row in self._rows:
            if v[pivot_col] != 0:
                f = v[pivot_col]
                v = [vi - f * ri for vi, ri in zip(v, row)]
        pivot = next((i for i, x in enumerate(v) if x != 0), None)
        if pivot is None:
            return False
        inv = 1 / v[pivot]
        self._rows.append((pivot, [x * inv for x in v]))
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
        rows_b = other.entries if isinstance(other, RationalMatrix) else _fraction_rows(np.asarray(other).tolist())
        n_inner = len(rows_b)
        if self.cols != n_inner:
            raise ValueError("incompatible shapes")
        n_cols = len(rows_b[0])
        out = []
        for row in self.entries:
            out.append([sum(row[k] * rows_b[k][j] for k in range(n_inner)) for j in range(n_cols)])
        return RationalMatrix.from_rows(out)
