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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import GramMatrix, cholesky

__all__ = [
    "BudgetExceeded",
    "OptimalSet",
    "canonicalize",
    "candidate_bound",
    "successive_minima",
    "lll_reduce",
]

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
    arr = np.asarray(a, dtype=np.int64).copy()
    nz = np.nonzero(arr)[0]
    if nz.size == 0:
        raise ValueError("zero vector has no canonical form")
    if arr[nz[0]] < 0:
        arr = -arr
    return arr


def candidate_bound(gains, snr: float, b_sq=None) -> float:
    """Squared-norm bound below which integer vectors can yield positive rate.

    Returns 1 + snr*||h||^2 for a plain MAC, or 1 + snr * g^T B g with squared
    weights ``b_sq``.
    """
    gains = np.asarray(gains, dtype=float)
    if b_sq is None:
        b_sq = np.ones_like(gains)
    else:
        b_sq = np.asarray(b_sq, dtype=float)
    return 1.0 + snr * float(gains @ (b_sq * gains))


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


def _enumerate_half_sphere(
    r_upper: np.ndarray, radius_sq: float, floor: int, budget: int, nodes: int = 0
) -> tuple[list[tuple[int, ...]], int]:
    """All integer c with ||R c||^2 <= radius_sq and c[floor:] nonzero, one per {c, -c}.

    ``r_upper`` is upper triangular, so coordinates are fixed from the last
    index downward; while every fixed coordinate is zero the current one is
    restricted to be nonnegative, and at index ``floor`` to be positive.  That
    keeps exactly the representative whose last nonzero entry is positive and
    skips every c with c[floor:] == 0.  Every integer tried at any level
    counts against ``budget``, starting from ``nodes``; returns the points and
    the new node count.  Pure-Python recursion: the candidate volume, not
    numpy dispatch, should dominate.
    """
    q = [[float(x) for x in row] for row in np.asarray(r_upper)]
    k = len(q)
    slack = _RADIUS_SLACK * radius_sq
    a = [0] * k
    found: list[tuple[int, ...]] = []

    def descend(level: int, remaining: float, tail_zero: bool) -> None:
        nonlocal nodes
        row = q[level]
        diag = row[level]
        acc = 0.0
        for j in range(level + 1, k):
            acc += row[j] * a[j]
        center = -acc / diag
        half_width = math.sqrt(remaining if remaining > 0.0 else 0.0) / diag
        lo = math.ceil(center - half_width - 1e-12)
        hi = math.floor(center + half_width + 1e-12)
        if tail_zero:
            lo = max(lo, int(level == floor))
        nodes += max(0, hi - lo + 1)
        if nodes > budget:
            raise BudgetExceeded(f"enumeration exceeded {budget} nodes")
        for v in range(lo, hi + 1):
            step = diag * (v - center)
            cost = step * step
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


def _fold(w: np.ndarray, m: int, c: tuple[int, ...]) -> None:
    """Turn column m of the unimodular ``w`` into the direction of ``c[m:]``.

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
        wm, wj = w[:, m].copy(), w[:, j].copy()
        w[:, m] = (x // d) * wm + (y // d) * wj
        w[:, j] = p * wj - q * wm
        x = d


def successive_minima(gram: GramMatrix, budget: int = DEFAULT_BUDGET) -> OptimalSet:
    """Optimal coefficient set: K independent vectors with minimal G-norms.

    Vector m is the smallest lattice vector outside the span of vectors
    0..m-1, ranked by a^T G a with ties broken lexicographically on the
    canonicalized entries.  Step m enumerates the integer coordinates c of a
    unimodular basis W (a = W c) whose first m columns span the vectors found
    so far, skipping every c with c[m:] == 0.  Returns an empty set when even
    the shortest lattice vector has a^T G a >= snr, i.e. no combination has
    positive rate.  Raises BudgetExceeded when the K enumeration trees
    together grow past ``budget`` nodes; callers may fall back to
    ``lll_reduce``.
    """
    g = gram.entries
    k = gram.dim
    q = cholesky(gram).T
    w = _lll_coords(q, 0.99)
    # The m+1 shortest LLL vectors are independent, so the (m+1)-th smallest
    # LLL norm bounds the (m+1)-th minimum whatever the snr.
    basis = q @ w
    radii = np.sort(np.einsum("ij,ij->j", basis, basis)) * (1.0 + _RADIUS_SLACK)

    vectors: list[tuple[int, ...]] = []
    out_norms: list[float] = []
    nodes = 0
    for m in range(k):
        r = np.linalg.qr(q @ w, mode="r")
        r *= np.sign(np.diag(r))[:, None]  # ||r c|| = ||q w c||, positive diagonal
        coords, nodes = _enumerate_half_sphere(r, radii[m], m, budget, nodes)
        if not coords:
            raise RuntimeError("search sphere missed a successive minimum")
        cand = np.array(coords, dtype=np.int64) @ w.T
        # canonical sign: flip rows whose first nonzero entry is negative
        first_nonzero = (cand != 0).argmax(axis=1)
        cand *= np.sign(cand[np.arange(cand.shape[0]), first_nonzero])[:, None]
        norms = np.einsum("ij,ij->i", cand @ g, cand)
        best = np.lexsort(tuple(cand[:, col] for col in range(k - 1, -1, -1)) + (norms,))[0]
        if m == 0 and norms[best] >= gram.snr:
            return OptimalSet(vectors=(), norms=(), method="exhaustive")
        vectors.append(tuple(int(x) for x in cand[best]))
        out_norms.append(float(norms[best]))
        _fold(w, m, coords[best])
    return OptimalSet(vectors=tuple(vectors), norms=tuple(out_norms), method="exhaustive")


def _lll_coords(basis: np.ndarray, delta: float) -> np.ndarray:
    """LLL-reduce the columns of ``basis``; return integer coordinates U.

    The reduced basis is basis @ U with U unimodular.  Standard size
    reduction plus Lovasz condition with parameter ``delta``.
    """
    b = basis.astype(float).copy()
    k = b.shape[1]
    u = np.eye(k, dtype=np.int64)

    ortho = np.zeros_like(b)
    mu = np.zeros((k, k))

    def update_gs(start: int) -> None:
        for i in range(start, k):
            ortho[:, i] = b[:, i]
            for j in range(i):
                denom = float(ortho[:, j] @ ortho[:, j])
                mu[i, j] = float(b[:, i] @ ortho[:, j]) / denom if denom > 0 else 0.0
                ortho[:, i] -= mu[i, j] * ortho[:, j]

    update_gs(0)
    i = 1
    while i < k:
        for j in range(i - 1, -1, -1):
            if abs(mu[i, j]) > 0.5:
                r = round(mu[i, j])
                b[:, i] -= r * b[:, j]
                u[:, i] -= r * u[:, j]
                update_gs(i)
        lhs = float(ortho[:, i] @ ortho[:, i])
        rhs = (delta - mu[i, i - 1] ** 2) * float(ortho[:, i - 1] @ ortho[:, i - 1])
        if lhs >= rhs:
            i += 1
        else:
            b[:, [i - 1, i]] = b[:, [i, i - 1]]
            u[:, [i - 1, i]] = u[:, [i, i - 1]]
            update_gs(i - 1)
            i = max(i - 1, 1)
    return u


def lll_reduce(basis: np.ndarray, delta: float = 0.99) -> OptimalSet:
    """Suboptimal coefficient set from an LLL-reduced lattice basis.

    ``basis`` is the lower-triangular Cholesky factor of the Gram matrix; the
    columns of its transpose span the lattice.  The returned norms upper
    bound the squared successive minima, hence the rates derived from them
    lower bound the optimal computation rates.
    """
    basis = np.asarray(basis, dtype=float)
    k = basis.shape[0]
    if basis.shape != (k, k):
        raise ValueError("basis must be square")
    if np.linalg.matrix_rank(basis) != k:
        raise ValueError("basis must be full rank")
    if not (0.25 < delta <= 1.0):
        raise ValueError("delta must lie in (1/4, 1]")

    gram = basis @ basis.T
    coords = _lll_coords(basis.T, delta)
    scored = []
    for col in range(k):
        vec = canonicalize(coords[:, col])
        scored.append((float(vec @ gram @ vec), tuple(int(x) for x in vec)))
    scored.sort()
    return OptimalSet(
        vectors=tuple(vec for _, vec in scored),
        norms=tuple(norm for norm, _ in scored),
        method="lll",
    )
