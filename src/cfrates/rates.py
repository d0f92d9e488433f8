"""Computation-rate formulas for integer-combination decoding.

Everything here is closed form: the MMSE scaling coefficient, the resulting
effective noise variance, and the rate 0.5*log2(snr/sigma2).  A plain MAC is
the special case of an effective MAC with unit weights, so each function takes
an optional ``b_sq`` vector of squared effective weights.  The channel is
checked, and 1 + snr g^T B g computed, by ``linalg._channel``; only the
coefficient vector is checked here.  ``comp_rate`` checks its inputs and calls
``_rate`` on the checked record, which ``transform`` calls directly for each
row of a channel it has checked once.  The dot products g^T B a and a^T B a
stay numpy: on short vectors numpy's dot is a fused multiply-add chain, which
a Python sum does not reproduce, and the rates must not move in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _channel, _Checked

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


def _prepare(gains, a, snr: float, b_sq) -> tuple[_Checked, np.ndarray]:
    ch = _channel(gains, snr, b_sq)
    a = np.asarray(a, dtype=float)
    if a.shape != ch.g.shape:
        raise ValueError("coefficient vector must match the gain vector length")
    return ch, a


def effective_variance(gains, a, beta: float, snr: float, b_sq=None) -> float:
    """Noise variance of decoding combination ``a`` with scale ``beta``:

    snr * sum((beta*g - a)^2 * b_sq) + beta^2
    """
    ch, a = _prepare(gains, a, snr, b_sq)
    mismatch = beta * ch.g - a
    return snr * float(mismatch @ (ch.b_sq * mismatch)) + beta * beta


def optimal_beta(gains, a, snr: float, b_sq=None) -> float:
    """MMSE scaling coefficient: snr * g^T B a / (1 + snr * g^T B g)."""
    ch, a = _prepare(gains, a, snr, b_sq)
    return snr * float(ch.bg @ a) / ch.denom


def comp_rate(gains, a, snr: float, b_sq=None) -> ComputationResult:
    """Best achievable rate for decoding combination ``a``.

    The minimal variance has the Woodbury closed form
    snr * (a^T B a - snr*(g^T B a)^2 / (1 + snr * g^T B g)) and matches the
    quadratic form of the channel's Gram matrix.  Raises ValueError unless
    ``a`` is a nonzero integer vector, and RuntimeError when float
    cancellation leaves that variance nonpositive.
    """
    ch, a_arr = _prepare(gains, a, snr, b_sq)
    coeffs = a_arr.tolist()
    if not all(x.is_integer() for x in coeffs):
        raise ValueError("coefficient vector must be integer")
    if not any(coeffs):
        raise ValueError("coefficient vector must be nonzero")
    return _rate(ch, snr, tuple(map(int, coeffs)))


def _rate(ch: _Checked, snr: float, a: tuple[int, ...]) -> ComputationResult:
    """``comp_rate`` for a checked channel record and a nonzero integer vector ``a``."""
    _, b_sq, bg, denom = ch
    a_arr = np.array(a, dtype=float)
    cross = float(bg @ a_arr)
    sigma2 = snr * (float(a_arr @ (b_sq * a_arr)) - snr * cross * cross / denom)
    if not sigma2 > 0:
        raise RuntimeError(f"effective noise variance cancelled to {sigma2!r}; snr is too high for float arithmetic")
    beta = snr * cross / denom
    rate = 0.5 * math.log2(snr / sigma2)
    return ComputationResult(a=a, beta=beta, sigma2_eff=sigma2, r_comp=rate)
