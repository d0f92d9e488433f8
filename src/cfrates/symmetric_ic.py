"""Achievable rates and capacity bounds for the symmetric K-user channel.

Every receiver sees its own signal plus ``g`` times the sum of the other
K-1 codewords.  Because all interferers arrive with one common gain, a
common-codebook scheme folds them into a single effective user, and the
whole problem reduces to effective MACs:

* single layer: an effective two-user MAC with gains (1, g) and squared
  weights (1, K-1); the symmetric rate is the second computation rate.
* layered (lattice Han-Kobayashi): each user splits power between a public
  and a private codeword; folding the far private codewords into the noise
  leaves an effective three-user MAC whose second plus third computation
  rates are achievable.

Closed-form lower bounds per interference regime, the two-user style upper
bounds, the generalized degrees-of-freedom curve, and a TDMA baseline round
out the toolkit.  ``report`` bundles all of it for one channel point.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .outage import in_outage
from .transform import ChannelSpec, transform

__all__ = [
    "SymmetricIcSpec",
    "RegimeReport",
    "regime_name",
    "effective_two_user",
    "single_layer_rate",
    "treat_as_noise_rate",
    "hk_rate",
    "hk_rate_default",
    "hk_rate_optimized",
    "upper_bound",
    "upper_bound_loose",
    "closed_form_lower",
    "gdof",
    "tdma_rate",
    "report",
]

REGIMES = ("noisy", "weak", "moderately-weak", "strong", "very-strong")

# float(2/3) rounds below the real 2/3, so every representable alpha up to and
# including it lies mathematically inside [1/2, 2/3); "<=" is the faithful
# float test for that half-open branch.
_TWO_THIRDS = 2.0 / 3.0


def _log2p(x: float) -> float:
    """log2 clamped at zero (the log-plus of the bound statements)."""
    return max(0.0, math.log2(x)) if x > 0 else 0.0


def _check_users(users, least: int) -> None:
    """ValueError unless ``users`` is an integer (``numbers.Integral``: numpy ints pass, 3.0 and nan do not) of at least ``least``."""
    if not (isinstance(users, numbers.Integral) and users >= least):
        raise ValueError(f"need an integer number of users, at least {least}")


@dataclass(frozen=True)
class SymmetricIcSpec:
    """Symmetric interference channel instance: K users, cross gain, snr."""

    users: int
    cross_gain: float
    snr: float

    def __post_init__(self):
        _check_users(self.users, 2)
        if not (isinstance(self.cross_gain, (float, numbers.Real)) and math.isfinite(self.cross_gain) and self.cross_gain >= 0):
            raise ValueError("cross gain must be nonnegative and finite")
        if not (isinstance(self.snr, (float, numbers.Real)) and math.isfinite(self.snr) and self.snr > 0):  # as in ChannelSpec
            raise ValueError("snr must be positive and finite")

    @property
    def inr(self) -> float:
        """g^2 snr; ValueError where (K-1) g^2 snr, the interference a receiver sees, overflows the floats."""
        if (self.users - 1) * self.cross_gain * self.cross_gain * self.snr == math.inf:
            raise ValueError("(K-1) g^2 snr overflows floating point; cross gain or snr are too large")
        return self.cross_gain * self.cross_gain * self.snr

    @property
    def alpha(self) -> float:
        """Interference level log(inr)/log(snr); -inf at zero cross gain."""
        if self.snr == 1.0:
            raise ValueError("interference level is undefined at snr == 1")
        if self.inr == 0.0:
            return -math.inf
        return math.log(self.inr) / math.log(self.snr)


def regime_name(spec: SymmetricIcSpec) -> str:
    a = spec.alpha
    if a < 0.5:
        return "noisy"
    if a <= _TWO_THIRDS:
        return "weak"
    if a < 1.0:
        return "moderately-weak"
    if a < 2.0:
        return "strong"
    return "very-strong"


def effective_two_user(spec: SymmetricIcSpec) -> ChannelSpec:
    """Effective MAC of the single-layer scheme: gains (1, g), weights (1, K-1)."""
    return ChannelSpec.effective(
        g=(1.0, spec.cross_gain),
        b_sq=(1.0, float(spec.users - 1)),
        snr=spec.snr,
    )


def single_layer_rate(spec: SymmetricIcSpec, method: str = "auto") -> float:
    """Symmetric rate of the common-codebook scheme (signed).

    Equals the second computation rate of the effective two-user MAC: both
    the desired codeword and the aligned interference must be resolvable.
    """
    t = transform(effective_two_user(spec), method=method)
    return t.rates[1]


def treat_as_noise_rate(spec: SymmetricIcSpec) -> float:
    """Rate of decoding the desired codeword with all interference as noise; ValueError where ``spec.inr`` refuses."""
    k, g, snr, _ = spec.users, spec.cross_gain, spec.snr, spec.inr
    return 0.5 * math.log2(1.0 + snr / (1.0 + (k - 1) * g * g * snr))


def _hk_channel(spec: SymmetricIcSpec, gamma: float) -> ChannelSpec:
    """Effective three-user MAC of the layered scheme at power split gamma.

    gamma scales the private codeword; the K-1 private interferers are folded
    into the noise, which rescales all remaining gains by
    kappa = 1/sqrt(1 + snr*g^2*gamma^2*(K-1)).
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    k, g, snr = spec.users, spec.cross_gain, spec.snr
    kappa = 1.0 / math.sqrt(1.0 + snr * g * g * gamma * gamma * (k - 1))
    public = math.sqrt(1.0 - gamma * gamma)
    gains = (kappa * public, kappa * gamma, kappa * g * public)
    return ChannelSpec.effective(g=gains, b_sq=(1.0, 1.0, float(k - 1)), snr=snr)


def hk_rate(spec: SymmetricIcSpec, gamma: float, method: str = "auto") -> float:
    """Layered-scheme symmetric rate at a given power split: R_comp2 + R_comp3."""
    t = transform(_hk_channel(spec, gamma), method=method)
    return t.rates[1] + t.rates[2]


def hk_rate_default(spec: SymmetricIcSpec, method: str = "auto") -> float:
    """Layered rate with the private power at noise level: gamma^2 = 1/(g^2 snr).

    Requires inr > 1; the resulting gains are
    (sqrt((inr-1)/(K*inr)), sqrt(1/(K*inr)), g*sqrt((inr-1)/(K*inr))).
    """
    if spec.inr <= 1.0:
        raise ValueError("layered scheme needs g^2 * snr > 1")
    return hk_rate(spec, math.sqrt(1.0 / spec.inr), method=method)


def hk_rate_optimized(spec: SymmetricIcSpec, n_gamma: int = 64, method: str = "auto") -> float:
    """Layered rate maximized over a log-spaced gamma grid of ``n_gamma`` points (plus the default); ValueError unless an integer >= 2."""
    if not isinstance(n_gamma, numbers.Integral):
        raise ValueError(f"n_gamma must be an integer, got {n_gamma!r}")
    if not n_gamma >= 2:
        raise ValueError(f"n_gamma must be at least 2, got {n_gamma!r}")
    lo, hi = 1e-3, 1.0 - 1e-6
    step = (hi / lo) ** (1.0 / (n_gamma - 1))
    gammas = [lo * step**i for i in range(n_gamma)]
    if spec.inr > 1.0:
        gammas.append(math.sqrt(1.0 / spec.inr))
    return max(hk_rate(spec, gamma, method=method) for gamma in gammas)


def upper_bound(spec: SymmetricIcSpec) -> float:
    """Two-user genie upper bound on the symmetric capacity (tight form)."""
    snr, inr, a = spec.snr, spec.inr, spec.alpha
    if a <= _TWO_THIRDS:
        return 0.5 * math.log2(1.0 + inr + snr / (1.0 + inr))
    if a < 1.0:
        return 0.25 * math.log2(1.0 + snr) + 0.25 * math.log2(1.0 + snr / (1.0 + inr))
    if a < 2.0:
        return 0.25 * math.log2(1.0 + snr + inr)
    return 0.5 * math.log2(1.0 + snr)


def upper_bound_loose(spec: SymmetricIcSpec) -> float:
    """Relaxed per-regime upper bound (at most ~1 bit above the tight form)."""
    snr, inr, a = spec.snr, spec.inr, spec.alpha
    if a < 0.5:
        return 0.5 * math.log2(1.0 + snr / (1.0 + inr)) + 1.0
    if a <= _TWO_THIRDS:
        return 0.5 * _log2p(inr) + 1.0
    if a < 1.0:
        return 0.5 * _log2p(snr / math.sqrt(inr)) + 1.0
    if a < 2.0:
        return 0.25 * _log2p(inr) + 1.0
    return 0.5 * math.log2(1.0 + snr)


def closed_form_lower(spec: SymmetricIcSpec, c: float) -> float:
    """Per-regime closed-form achievable rate with gap parameter ``c``.

    Off the regime's outage set these rates are achievable; the strong and
    moderately-weak expressions trade the constant gap against the outage
    measure through ``c``.
    """
    if not c > 0:
        raise ValueError("gap parameter c must be positive")
    k, snr, inr, a = spec.users, spec.snr, spec.inr, spec.alpha
    if a < 0.5:
        return 0.5 * math.log2(1.0 + snr / (1.0 + inr)) - 0.5 * math.log2(k - 1)
    if a <= _TWO_THIRDS:
        return 0.5 * _log2p(inr) - 3.5 - math.log2(k)
    if a < 1.0:
        return 0.5 * _log2p(snr / math.sqrt(inr)) - c - 8.0 - math.log2(k)
    if a < 2.0:
        return 0.25 * _log2p(inr) - 0.5 * c - 3.0
    return 0.5 * math.log2(1.0 + snr) - 1.0


def gdof(alpha: float, users: int) -> float:
    """Generalized degrees-of-freedom per user at interference level alpha.

    Piecewise linear with a singularity at alpha == 1, where the value drops
    to 1/K.  ValueError unless alpha is nonnegative and ``users`` an integer
    of at least 2.
    """
    if not alpha >= 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha!r}")
    _check_users(users, 2)
    if alpha < 0.5:
        return 1.0 - alpha
    if alpha <= _TWO_THIRDS:
        return alpha
    if alpha < 1.0:
        return 1.0 - alpha / 2.0
    if alpha == 1.0:
        return 1.0 / users
    if alpha < 2.0:
        return alpha / 2.0
    return 1.0


def tdma_rate(spec_or_users, snr: float | None = None) -> float:
    """Time-division baseline: (1/K) * 0.5*log2(1 + K*snr).

    Each user transmits a 1/K fraction of the time with a K-fold power boost
    (same average power).  ValueError unless a user count is an integer of at
    least 1 and snr is positive and finite.
    """
    if isinstance(spec_or_users, SymmetricIcSpec):
        users, snr = spec_or_users.users, spec_or_users.snr
    else:
        _check_users(spec_or_users, 1)
        users = int(spec_or_users)
        if snr is None:
            raise ValueError("snr required when passing a user count")
    if not 0 < snr < math.inf:
        raise ValueError(f"snr must be positive and finite, got {snr!r}")
    return 0.5 * math.log2(1.0 + users * snr) / users


@dataclass(frozen=True)
class RegimeReport:
    """All per-point quantities for one (K, g, snr) instance.

    ``r_hk`` is None where the layered scheme is inapplicable (inr <= 1).
    ``r_best`` is the best achievable rate among the schemes, TDMA included.
    ``method`` records 'lll' if any coefficient search fell back from
    exhaustive enumeration.
    """

    regime: str
    alpha: float
    r_single: float
    r_noise: float
    r_hk: float | None
    r_tdma: float
    r_best: float
    lower_closed: float
    upper_tight: float
    upper_loose: float
    in_outage: bool
    method: str


def report(spec: SymmetricIcSpec, c: float = 2.0, method: str = "auto") -> RegimeReport:
    """Evaluate every scheme and bound at one channel point."""
    t_single = transform(effective_two_user(spec), method=method)
    r_single = t_single.rates[1]
    methods = {t_single.method}

    r_hk: float | None = None
    if spec.inr > 1.0:
        t_hk = transform(_hk_channel(spec, math.sqrt(1.0 / spec.inr)), method=method)
        r_hk = t_hk.rates[1] + t_hk.rates[2]
        methods.add(t_hk.method)

    r_noise = treat_as_noise_rate(spec)
    r_tdma = tdma_rate(spec)
    achievable = [r_single, r_noise, r_tdma] + ([r_hk] if r_hk is not None else [])
    outage = (
        in_outage(spec.cross_gain, spec.snr, c) if spec.cross_gain > 0 and spec.snr > 1 else False
    )
    return RegimeReport(
        regime=regime_name(spec),
        alpha=spec.alpha,
        r_single=r_single,
        r_noise=r_noise,
        r_hk=r_hk,
        r_tdma=r_tdma,
        r_best=max(achievable),
        lower_closed=closed_form_lower(spec, c),
        upper_tight=upper_bound(spec),
        upper_loose=upper_bound_loose(spec),
        in_outage=outage,
        method="lll" if "lll" in methods else "exhaustive",
    )
