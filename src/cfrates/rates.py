"""Computation-rate formulas for integer-combination decoding.

Everything here is closed form: the MMSE scaling coefficient, the resulting
effective noise variance, and the rate 0.5*log2(snr/sigma2).  A plain MAC is
the special case of an effective MAC with unit weights, so each function takes
an optional ``b_sq`` vector of squared effective weights.  The channel is
checked, and 1 + snr g^T B g computed, by ``linalg._channel``; only the
coefficient vector is checked here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _channel

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
    g, b_sq, bg, denom = _channel(gains, snr, b_sq)
    a = np.asarray(a, dtype=float)
    if a.shape != g.shape:
        raise ValueError("coefficient vector must match the gain vector length")
    return g, a, b_sq, bg, denom


def effective_variance(gains, a, beta: float, snr: float, b_sq=None) -> float:
    """Noise variance of decoding combination ``a`` with scale ``beta``:

    snr * sum((beta*g - a)^2 * b_sq) + beta^2
    """
    gains, a, b_sq, _, _ = _prepare(gains, a, snr, b_sq)
    mismatch = beta * gains - a
    return snr * float(mismatch @ (b_sq * mismatch)) + beta * beta


def optimal_beta(gains, a, snr: float, b_sq=None) -> float:
    """MMSE scaling coefficient: snr * g^T B a / (1 + snr * g^T B g)."""
    _, a, _, bg, denom = _prepare(gains, a, snr, b_sq)
    return snr * float(bg @ a) / denom


def comp_rate(gains, a, snr: float, b_sq=None) -> ComputationResult:
    """Best achievable rate for decoding combination ``a``.

    The minimal variance has the Woodbury closed form
    snr * (a^T B a - snr*(g^T B a)^2 / (1 + snr * g^T B g)) and matches the
    quadratic form of the channel's Gram matrix.  Raises ValueError unless
    ``a`` is a nonzero integer vector, and RuntimeError when float
    cancellation leaves that variance nonpositive.
    """
    _, a_arr, b_sq, bg, denom = _prepare(gains, a, snr, b_sq)
    coeffs = a_arr.tolist()
    if not all(x.is_integer() for x in coeffs):
        raise ValueError("coefficient vector must be integer")
    if not any(coeffs):
        raise ValueError("coefficient vector must be nonzero")
    cross = float(bg @ a_arr)
    sigma2 = snr * (float(a_arr @ (b_sq * a_arr)) - snr * cross * cross / denom)
    if not sigma2 > 0:
        raise RuntimeError(f"effective noise variance cancelled to {sigma2!r}; snr is too high for float arithmetic")
    beta = snr * cross / denom
    rate = 0.5 * math.log2(snr / sigma2)
    return ComputationResult(a=tuple(map(int, coeffs)), beta=beta, sigma2_eff=sigma2, r_comp=rate)
