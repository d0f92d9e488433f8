"""Computation-rate formulas for integer-combination decoding.

Everything here is closed form: the MMSE scaling coefficient, the resulting
effective noise variance, and the rate 0.5*log2(snr/sigma2).  A plain MAC is
the special case of an effective MAC with unit weights, so each function takes
an optional ``b_sq`` vector of squared effective weights.  The channel is
checked by building one ``linalg.ChannelSpec``, and each public function here
is a view over it; only the coefficient vector is checked here.  The noise
variance is ``linalg._sq_norm`` of the channel, as the search reports it, and
beta one integer ratio of the channel's factors, each exact and rounded once:
``comp_rate`` computes both, ``transform`` passes each row's norm to ``_rate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .linalg import ChannelSpec, _log2_ratio, _mantissas, _sq_norm, _vector

__all__ = ["ComputationResult", "effective_variance", "optimal_beta", "comp_rate"]


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


def _prepare(gains, a, snr: float, b_sq) -> tuple[ChannelSpec, tuple[float, ...]]:
    ch = ChannelSpec(gains, snr, b_sq)
    a = _vector(a, "coefficient vector must match the gain vector length")
    if len(a) != ch.dim:
        raise ValueError("coefficient vector must match the gain vector length")
    return ch, a


def effective_variance(gains, a, beta: float, snr: float, b_sq=None) -> float:
    """Noise variance of decoding combination ``a`` with scale ``beta``:

    snr * sum((beta*g - a)^2 * b_sq) + beta^2
    """
    ch, a = _prepare(gains, a, snr, b_sq)
    mismatch = [beta * g - x for g, x in zip(ch.gains, a)]
    try:
        return ch.snr * math.fsum(m * (b * m) for m, b in zip(mismatch, ch.weights_sq)) + beta * beta
    except OverflowError:  # fsum's partial sums overflowed; every term is nonnegative
        return math.inf


def optimal_beta(gains, a, snr: float, b_sq=None) -> float:
    """MMSE scaling coefficient: snr * g^T B a / (1 + snr * g^T B g), exact and rounded once; ValueError for a non-finite a or beta."""
    ch, a = _prepare(gains, a, snr, b_sq)
    try:
        return _beta(ch, *_mantissas(a))
    except OverflowError:  # an infinite entry of a, or beta past the float range; a nan entry is a ValueError
        raise ValueError("beta is not finite; a, gains, weights or snr are too large") from None


def _beta(ch: ChannelSpec, a, scale: int = 1) -> float:
    """``optimal_beta`` of a ``ChannelSpec`` at integers ``a`` over ``scale``: S dg (BG . a) / (D scale), one int / int true division."""
    _, bgm, d, s, _, dg, _ = ch.q
    return s * dg * sum(map(mul, bgm, a)) / (d * scale)


def comp_rate(gains, a, snr: float, b_sq=None) -> ComputationResult:
    """Best achievable rate for decoding combination ``a``.

    The minimal variance is a^T G a, the Woodbury closed form
    snr * (a^T B a - snr*(g^T B a)^2 / (1 + snr * g^T B g)), evaluated by
    ``linalg._sq_norm`` exactly and rounded once.  Raises ValueError unless
    ``a`` is a nonzero integer vector, or when the variance overflows or
    underflows the floats.
    """
    ch, coeffs = _prepare(gains, a, snr, b_sq)
    if not all(x.is_integer() for x in coeffs):
        raise ValueError("coefficient vector must be integer")
    if not any(coeffs):
        raise ValueError("coefficient vector must be nonzero")
    a = tuple(map(int, coeffs))
    return _rate(ch, a, _sq_norm(ch, a))


def _rate(ch: ChannelSpec, a: tuple[int, ...], sigma2: float) -> ComputationResult:
    """``comp_rate`` for a ``ChannelSpec``, a nonzero integer ``a`` and its ``_sq_norm`` ``sigma2`` (positive, finite)."""
    return ComputationResult(a=a, beta=_beta(ch, a), sigma2_eff=sigma2, r_comp=0.5 * _log2_ratio(ch.snr, sigma2))
