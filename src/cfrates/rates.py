"""Computation-rate formulas for integer-combination decoding.

Everything here is closed form: the MMSE scaling coefficient, the resulting
effective noise variance, and the rate 0.5*log2(snr/sigma2).  A plain MAC is
the special case of an effective MAC with unit weights, so each function takes
an optional ``b_sq`` vector of squared effective weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ComputationResult",
    "effective_variance",
    "optimal_beta",
    "comp_rate",
]


@dataclass(frozen=True)
class ComputationResult:
    """One decoded integer combination: coefficients, MMSE scale, noise, rate.

    ``r_comp`` is signed; callers that need the nonnegative version clamp it
    themselves.
    """

    a: tuple[int, ...]
    beta: float
    sigma2_eff: float
    r_comp: float


def _prepare(gains, a, snr: float, b_sq):
    gains = np.asarray(gains, dtype=float)
    a = np.asarray(a, dtype=float)
    if gains.shape != a.shape:
        raise ValueError("coefficient vector must match the gain vector length")
    if not (math.isfinite(snr) and snr > 0):
        raise ValueError(f"snr must be positive and finite, got {snr!r}")
    if b_sq is None:
        b_sq = np.ones_like(gains)
    else:
        b_sq = np.asarray(b_sq, dtype=float)
        if b_sq.shape != gains.shape:
            raise ValueError("weights must match the gain vector length")
        if not np.all(b_sq > 0):
            raise ValueError("effective weights must be positive")
    return gains, a, b_sq


def effective_variance(gains, a, beta: float, snr: float, b_sq=None) -> float:
    """Noise variance of decoding combination ``a`` with scale ``beta``:

    snr * sum((beta*g - a)^2 * b_sq) + beta^2
    """
    gains, a, b_sq = _prepare(gains, a, snr, b_sq)
    mismatch = beta * gains - a
    return snr * float(mismatch @ (b_sq * mismatch)) + beta * beta


def optimal_beta(gains, a, snr: float, b_sq=None) -> float:
    """MMSE scaling coefficient: snr * g^T B a / (1 + snr * g^T B g)."""
    gains, a, b_sq = _prepare(gains, a, snr, b_sq)
    bg = b_sq * gains
    return snr * float(bg @ a) / (1.0 + snr * float(gains @ bg))


def comp_rate(gains, a, snr: float, b_sq=None) -> ComputationResult:
    """Best achievable rate for decoding combination ``a``.

    The minimal variance has the Woodbury closed form
    snr * (a^T B a - snr*(g^T B a)^2 / (1 + snr * g^T B g)) and matches the
    quadratic form of the channel's Gram matrix.  Raises RuntimeError when
    float cancellation leaves that variance nonpositive.
    """
    gains, a_arr, b_sq = _prepare(gains, a, snr, b_sq)
    if not np.any(a_arr):
        raise ValueError("coefficient vector must be nonzero")
    bg = b_sq * gains
    denom = 1.0 + snr * float(gains @ bg)
    cross = float(bg @ a_arr)
    sigma2 = snr * (float(a_arr @ (b_sq * a_arr)) - snr * cross * cross / denom)
    if not sigma2 > 0:
        raise RuntimeError(f"effective noise variance cancelled to {sigma2!r}; snr is too high for float arithmetic")
    beta = snr * cross / denom
    rate = 0.5 * math.log2(snr / sigma2)
    coeffs = tuple(int(x) for x in np.asarray(a).tolist())
    return ComputationResult(a=coeffs, beta=beta, sigma2_eff=sigma2, r_comp=rate)
