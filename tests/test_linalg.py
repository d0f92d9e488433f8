"""Exact and floating kernels: Woodbury Gram matrices, Cholesky, rank."""

import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from cfrates.linalg import (
    GramMatrix,
    RationalMatrix,
    RationalSpan,
    _sq_norm,
    cholesky,
    exact_rank,
    exact_solve_in_span,
    gram_effective,
    gram_plain,
    sylvester_logdet,
)
from cfrates.rates import comp_rate, effective_variance, optimal_beta
from cfrates.transform import ChannelSpec, pseudo_triangularize, sum_rate_bounds, transform


def quad(gram: GramMatrix, a) -> float:
    a = np.asarray(a, dtype=float)
    return float(a @ gram.entries @ a)


class TestGramPlain:
    def test_scalar_woodbury_identity(self):
        for snr in (0.5, 1.0, 31.6227766, 1e4):
            g = gram_plain([1.0], snr)
            assert quad(g, [1]) == pytest.approx(snr / (1 + snr), rel=1e-12)

    def test_reference_two_user_rate(self):
        # h=[sqrt 5, 1] at 15 dB: best combination decodes at ~2.409 bits
        snr = 10**1.5
        g = gram_plain([math.sqrt(5), 1.0], snr)
        sigma2 = quad(g, [2, 1])
        assert 0.5 * math.log2(snr / sigma2) == pytest.approx(2.409, abs=2e-3)

    def test_matches_direct_inverse(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            k = int(rng.integers(1, 5))
            h = rng.normal(size=k)
            snr = 10 ** rng.uniform(-1, 3)
            a = rng.integers(-5, 6, size=k)
            direct = np.linalg.inv(np.eye(k) / snr + np.outer(h, h))
            expected = float(a @ direct @ a)
            assert quad(gram_plain(h, snr), a) == pytest.approx(expected, rel=1e-9)

    def test_explicit_two_by_two_inverse(self):
        h = np.array([1.0, 1.5])
        snr = 100.0
        rng = np.random.default_rng(2)
        direct = np.linalg.inv(np.eye(2) / snr + np.outer(h, h))
        g = gram_plain(h, snr)
        for _ in range(50):
            a = rng.integers(-10, 11, size=2)
            assert quad(g, a) == pytest.approx(float(a @ direct @ a), rel=1e-9, abs=1e-12)

    def test_closed_form_beta_grid(self):
        # closed form must match a dense brute-force scan over the scale beta
        rng = np.random.default_rng(3)
        betas = np.linspace(-4.0, 4.0, 200_001)
        for _ in range(25):
            k = int(rng.integers(1, 4))
            h = rng.normal(size=k)
            snr = 10 ** rng.uniform(-0.5, 1.5)
            a = rng.integers(-3, 4, size=k)
            if not a.any():
                a[0] = 1
            mism = betas[:, None] * h[None, :] - a[None, :]
            grid_min = float(np.min(snr * np.sum(mism**2, axis=1) + betas**2))
            closed = quad(gram_plain(h, snr), a)
            assert closed <= grid_min + 1e-9
            step = betas[1] - betas[0]
            curvature = 1.0 + snr * float(h @ h)
            assert grid_min - closed <= curvature * step**2 + 1e-9

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            gram_plain([np.inf, 1.0], 10.0)
        with pytest.raises(ValueError, match="underflows"):  # den = 1e401 is exact, but G_11 = 1.1e-399 is below the floats
            gram_plain([1e200, 1.0], 10.0)
        with pytest.raises(ValueError):
            gram_plain([1.0], 0.0)
        with pytest.raises(ValueError):
            gram_plain([1.0], -3.0)

    def test_symmetry_and_positive_definiteness(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            g = gram_plain(rng.normal(size=k), 10 ** rng.uniform(-1, 4))
            asym = np.max(np.abs(g.entries - g.entries.T)) / np.max(np.abs(g.entries))
            assert asym < 1e-12
            assert np.all(np.linalg.eigvalsh(g.entries) > 0)


class TestGramEffective:
    def test_unit_weights_reduce_to_plain(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            h = rng.normal(size=k)
            snr = 10 ** rng.uniform(-1, 3)
            plain = gram_plain(h, snr).entries
            eff = gram_effective(h, np.ones(k), snr).entries
            np.testing.assert_allclose(eff, plain, rtol=1e-12, atol=1e-12)

    def test_interference_combination_closed_form(self):
        # gains (1, g), squared weights (1, K-1), a=(0,1):
        # sigma2 = snr*(K-1)*(1+snr) / (1+snr+(K-1)*g^2*snr)
        for k, g, snr in [(3, 2.0, 10.0), (5, 0.7, 100.0), (2, 3.0, 31.6227766)]:
            gram = gram_effective([1.0, g], [1.0, k - 1.0], snr)
            expected = snr * (k - 1) * (1 + snr) / (1 + snr + (k - 1) * g * g * snr)
            assert quad(gram, [0, 1]) == pytest.approx(expected, rel=1e-12)

    def test_matches_direct_inverse_three_user(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            g = rng.normal(size=3)
            b_sq = rng.uniform(1.0, 5.0, size=3)
            snr = 10 ** rng.uniform(-1, 3)
            a = rng.integers(-4, 5, size=3)
            direct = np.linalg.inv(np.diag(1.0 / b_sq) / snr + np.outer(g, g))
            gram = gram_effective(g, b_sq, snr)
            assert quad(gram, a) == pytest.approx(float(a @ direct @ a), rel=1e-9, abs=1e-12)

    def test_entries_match_exact_rationals_at_high_snr(self):
        """G = M^T M sums products of one sign, so every entry is exact to a few eps at any snr.

        The Woodbury form snr (B - snr B g g^T B / den) cancels on the
        diagonal: its error there grows like eps * snr g^T B g.
        """
        rng = np.random.default_rng(11)
        for _ in range(60):
            k = int(rng.integers(1, 6))
            g, b_sq, snr = rng.normal(size=k), rng.uniform(0.25, 4, size=k), 10 ** rng.uniform(0, 15)
            s, gf, bf = Fraction(snr), [Fraction(x) for x in g], [Fraction(x) for x in b_sq]
            den = 1 + s * sum(b * x * x for b, x in zip(bf, gf))
            got = gram_effective(g, b_sq, snr).entries
            for i in range(k):
                for j in range(k):
                    exact = s * ((bf[i] if i == j else 0) - s * bf[i] * gf[i] * bf[j] * gf[j] / den)
                    assert abs(Fraction(got[i, j]) - exact) <= 8 * k * np.finfo(float).eps * abs(exact)

    def test_compares_and_hashes(self):
        a, b = gram_plain([1.0, 2.0], 10.0), gram_plain([1.0, 2.0], 10.0)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != gram_plain([1.0, 2.0], 11.0)
        assert a != GramMatrix(a.entries, 11.0)  # equal entries, unequal snr
        assert a != gram_plain([1.0, 2.5], 10.0)
        assert a != "gram"

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            gram_effective([1.0, 2.0], [1.0, 0.0], 10.0)
        with pytest.raises(ValueError):
            gram_effective([1.0, 2.0], [1.0, -2.0], 10.0)


# (id, gains, snr, squared weights or None, expected message)
MALFORMED_CHANNELS = [
    ("empty-gains", [], 10.0, None, "nonempty 1-D vector"),
    ("2d-gains", [[1.0, 2.0]], 10.0, None, "nonempty 1-D vector"),
    ("text-gains", "25", 10.0, None, "nonempty 1-D vector"),  # not the gains (2.0, 5.0)
    ("bytes-gains", b"25", 10.0, None, "nonempty 1-D vector"),
    ("nan-gain", [math.nan, 1.0], 10.0, None, "gains must be finite"),
    ("inf-gain", [1.0, math.inf], 10.0, None, "gains must be finite"),
    ("nan-weight", [1.0, 2.0], 10.0, [1.0, math.nan], "weights must be positive and finite"),
    ("zero-weight", [1.0, 2.0], 10.0, [1.0, 0.0], "weights must be positive and finite"),
    ("negative-weight", [1.0, 2.0], 10.0, [-2.0, 1.0], "weights must be positive and finite"),
    ("inf-weight", [1.0, 2.0], 10.0, [math.inf, 1.0], "weights must be positive and finite"),
    ("long-weights", [1.0, 2.0], 10.0, [1.0, 1.0, 1.0], "weights must match the gain vector length"),
    ("broadcast-weight", [1.0, 2.0], 10.0, [2.0], "weights must match the gain vector length"),
    ("text-weights", [1.0, 2.0], 10.0, "11", "weights must match the gain vector length"),
    ("zero-snr", [1.0, 2.0], 0.0, None, "snr must be positive and finite"),
    ("negative-snr", [1.0, 2.0], -1.0, None, "snr must be positive and finite"),
    ("nan-snr", [1.0, 2.0], math.nan, None, "snr must be positive and finite"),
    ("inf-snr", [1.0, 2.0], math.inf, None, "snr must be positive and finite"),
    ("text-snr", [1.0, 2.0], "10", None, "snr must be positive and finite"),  # math.isfinite raised TypeError
    ("none-snr", [1.0, 2.0], None, None, "snr must be positive and finite"),
    ("list-snr", [1.0, 2.0], [10.0], None, "snr must be positive and finite"),
]


def q_den(ch) -> Fraction:
    """den = 1 + snr g^T B g as the record's integer factors hold it: D / (ds dg^2 db), with db = U / D."""
    _, _, d, _, ds, dg, u = ch.q
    return Fraction(d, ds * dg * dg * (u // d))


def exact_den(gains, snr, b_sq) -> Fraction:
    """den = 1 + snr g^T B g in rationals from the float inputs (unit weights for None)."""
    b_sq = [1.0] * len(gains) if b_sq is None else b_sq
    return 1 + Fraction(snr) * sum(Fraction(b) * Fraction(g) ** 2 for g, b in zip(gains, b_sq))


def _ones(gains):
    return np.ones(np.shape(gains))


# every public entry point that takes a channel, as f(gains, snr, b_sq)
CHANNEL_ENTRY_POINTS = {
    "gram_effective": lambda g, snr, b: gram_effective(g, b, snr),
    "gram_plain": lambda g, snr, b: gram_plain(g, snr),
    "sylvester_logdet": sylvester_logdet,
    "candidate_bound": lambda g, snr, b: q_den(ChannelSpec(g, snr, b)),  # the bound 1 + snr g^T B g
    "effective_variance": lambda g, snr, b: effective_variance(g, _ones(g), 0.5, snr, b),
    "optimal_beta": lambda g, snr, b: optimal_beta(g, _ones(g), snr, b),
    "comp_rate": lambda g, snr, b: comp_rate(g, _ones(g), snr, b),
    "ChannelSpec": lambda g, snr, b: ChannelSpec(g, snr, _ones(g) if b is None else b),
    "ChannelSpec.plain": lambda g, snr, b: ChannelSpec.plain(g, snr),
}
PLAIN_ENTRY_POINTS = ("gram_plain", "ChannelSpec.plain")  # these take no weights


@pytest.mark.parametrize(
    "entry, gains, snr, b_sq, message",
    [
        pytest.param(entry, gains, snr, b_sq, message, id=f"{entry}-{case}")
        for entry in CHANNEL_ENTRY_POINTS
        for case, gains, snr, b_sq, message in MALFORMED_CHANNELS
        if not (entry in PLAIN_ENTRY_POINTS and b_sq is not None)
    ],
)
def test_malformed_channel_rejected_by_every_entry_point(entry, gains, snr, b_sq, message):
    with pytest.raises(ValueError, match=message):
        CHANNEL_ENTRY_POINTS[entry](gains, snr, b_sq)


# (id, gains, snr, squared weights or None): 1 + snr g^T B g is not finite
OVERFLOWING_CHANNELS = [
    ("gains", [1e200, 1.0], 10.0, None),
    ("weights", [1e100, 1.0], 10.0, [1e200, 1.0]),
    ("snr", [1e150, 1.0], 1e10, None),
]
GRAM_ENTRY_POINTS = ("gram_effective", "gram_plain")


@pytest.mark.parametrize(
    "entry, gains, snr, b_sq",
    [
        pytest.param(entry, gains, snr, b_sq, id=f"{entry}-{case}")
        for entry in CHANNEL_ENTRY_POINTS
        for case, gains, snr, b_sq in OVERFLOWING_CHANNELS
        if not (entry in PLAIN_ENTRY_POINTS and b_sq is not None)
    ],
)
def test_overflowing_denominator_rejected_without_warning(entry, gains, snr, b_sq):
    """A den past the float range, once refused by every entry point, is no refusal: den is exact in the record's integers.

    Each entry point answers, with no warning, but the Grams of the "gains"
    channel: their first entry, about 1e-399, underflows and is refused.
    """
    call = CHANNEL_ENTRY_POINTS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if entry in GRAM_ENTRY_POINTS and gains[0] == 1e200:
            with pytest.raises(ValueError, match="Gram matrix underflows"):
                call(gains, snr, b_sq)
        else:
            call(gains, snr, b_sq)
    assert q_den(ChannelSpec(gains, snr, b_sq)) == exact_den(gains, snr, b_sq)


@pytest.mark.parametrize("gains, snr, b_sq", [pytest.param(*c[1:], id=c[0]) for c in OVERFLOWING_CHANNELS[1:]])
def test_rate_sum_reaches_the_capacity_past_the_float_den(gains, snr, b_sq):
    """Each of these channels has a second minimum with tiny noise, so its rate sum is the sum capacity 0.5 log2(den / det B)."""
    b_sq = [1.0] * len(gains) if b_sq is None else b_sq
    capacity = exact_den(gains, snr, b_sq) / math.prod(map(Fraction, b_sq))
    bounds = sum_rate_bounds(transform(ChannelSpec(gains, snr, b_sq)))
    exact = 0.5 * (math.log2(capacity.numerator) - math.log2(capacity.denominator))
    assert abs(bounds.total - exact) <= 1e-9 and abs(bounds.upper - exact) <= 1e-9


def seeded_channels(seed: int, count: int):
    """``count`` channels as (gains, snr, squared weights or None), K = 2..8 at -10..300 dB, every other one weighted."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = int(rng.integers(2, 9))
        b_sq = rng.uniform(0.25, 4.0, size=k).tolist() if i % 2 else None
        yield rng.normal(size=k).tolist(), float(10 ** rng.uniform(-1, 30)), b_sq


def test_beta_of_every_row_is_the_exact_value_rounded_once():
    """beta = snr g^T B a / den for each transform row, against ``Fraction`` arithmetic on the float inputs."""
    for gains, snr, b_sq in seeded_channels(31, 60):
        for r in transform(ChannelSpec(gains, snr, b_sq)).results:
            cross = sum(Fraction(b) * Fraction(g) * a for g, b, a in zip(gains, b_sq or [1.0] * len(gains), r.a))
            assert r.beta == float(Fraction(snr) * cross / exact_den(gains, snr, b_sq)), (gains, snr, b_sq, r.a)


def _log2_decimal(x: Fraction) -> Decimal:
    return (Decimal(x.numerator).ln() - Decimal(x.denominator).ln()) / Decimal(2).ln()


def test_capacity_and_log_determinant_within_an_ulp_of_60_digits():
    """upper = 0.5 log2(den / det B) and the log-determinant log2(snr^K det B / den), each log2 of one exact ratio rounded once.

    Each is off the 60-digit value by the ratio's rounding, at most 2^-53 / ln 2
    in log2, and log2's own error, about an ulp: 2^-52 + 2 ulp bounds both.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        for gains, snr, b_sq in seeded_channels(37, 80):
            ratio = exact_den(gains, snr, b_sq) / math.prod(map(Fraction, b_sq or [1.0]))
            logdet = sylvester_logdet(gains, snr, b_sq)
            assert abs(Decimal(logdet) - _log2_decimal(Fraction(snr) ** len(gains) / ratio)) <= Decimal(2**-52 + 2 * math.ulp(logdet))
            try:
                upper = sum_rate_bounds(transform(ChannelSpec(gains, snr, b_sq))).upper
            except ValueError:  # no positive-rate set at this draw
                continue
            assert abs(Decimal(upper) - _log2_decimal(ratio) / 2) <= Decimal(2**-52 + 2 * math.ulp(upper)), (gains, snr, b_sq)


def exact_sq_norm(g, b_sq, snr, a) -> Fraction:
    """a^T G a in rationals from the float inputs: snr (a^T B a - snr (g^T B a)^2 / (1 + snr g^T B g))."""
    s, gf, bf = Fraction(snr), [Fraction(x) for x in g], [Fraction(x) for x in b_sq]
    den = 1 + s * sum(b * x * x for b, x in zip(bf, gf))
    cross = sum(b * x * y for b, x, y in zip(bf, gf, a))
    return s * (sum(b * y * y for b, y in zip(bf, a)) - s * cross * cross / den)


def test_overflowing_gram_entry_rejected_by_transform():
    # g^T B g underflows, so the denominator is 1, but snr * b_sq overflows: the one
    # norm, 1e400, is past snr (exactly, on Q), and M's column is past the float range
    channel = ChannelSpec.effective([1e-300], [1e200], 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no full positive-rate coefficient set"):
            transform(channel)
        with pytest.raises(ValueError, match="Gram matrix overflows"):
            channel.gram()


def test_underflowing_gram_entry_rejected():
    # snr * b_sq / den underflows to zero: the least norm rounds to 0, and M's basis would lose a column
    channel = ChannelSpec.effective([1.0, 2.0], [1e-300, 1.0], 1e-300)
    with pytest.raises(ValueError, match=r"noise norm a\^T G a underflows floating point"):
        transform(channel)
    with pytest.raises(ValueError, match="Gram matrix underflows"):
        channel.gram()


def test_norm_past_the_float_range_is_refused():
    """A K <= 3 norm the floats cannot hold is a ValueError naming the overflow, from ``transform`` and ``comp_rate``.

    The first norm, about 1, has positive rate; the second is snr b_2 = 1e400.
    """
    gains, b_sq, snr = (1.0, 1e-300), (1.0, 1e200), 1e200
    with pytest.raises(ValueError, match=r"noise norm a\^T G a overflows floating point"):
        transform(ChannelSpec.effective(gains, b_sq, snr))
    with pytest.raises(ValueError, match=r"noise norm a\^T G a overflows floating point"):
        comp_rate(gains, [0, 1], snr, b_sq)
    assert comp_rate(gains, [1, 0], snr, b_sq).sigma2_eff == float(exact_sq_norm(gains, b_sq, snr, [1, 0]))


def exact_gram(g, b_sq, snr) -> list[list[Fraction]]:
    """G = snr (B - snr B g g^T B / (1 + snr g^T B g)) in rationals from the float inputs."""
    s, gf, bf = Fraction(snr), [Fraction(x) for x in g], [Fraction(x) for x in b_sq]
    den = 1 + s * sum(b * x * x for b, x in zip(bf, gf))
    bg = [b * x for b, x in zip(bf, gf)]
    return [[s * (bf[i] * (i == j) - s * bg[i] * bg[j] / den) for j in range(len(gf))] for i in range(len(gf))]


@pytest.mark.parametrize("method", ["auto", "exhaustive", "lll"])
@pytest.mark.parametrize(
    "gains, snr",
    [
        # a float LLL's exchange multiplied two squared lengths of about 1e-183 and divided by zero here
        ((3.9e102, 8.5e102), 10**-182.1),
        ((3.9e102, 8.5e102, 1.42e102), 10**-182.1),
        ((3.9e102, 8.5e102, 1.42e102, -6.42e102), 10**-182.1),
        # squared lengths of 2.5e-309, below the normal floats
        ((1e154,) * 4, 0.1),
        # a float LLL's exchange overflowed to inf here and never stopped
        ((1.0, 2.5, 0.7, 1.3), 1e160),
    ],
    ids=["K=2", "K=3", "K=4", "1e154", "1600dB"],
)
def test_gram_floats_cannot_orthogonalize_is_refused(gains, snr, method):
    """Channels whose Gram a float orthogonalization could not handle are answered exactly.

    LLL and the searches run on the integer Gram Q, so every norm is the
    exact a^T G a rounded once and every ``gram()`` entry the exact G_ij
    rounded once.  The K >= 4 walk, exact too, answers each within its budget.
    """
    channel = ChannelSpec.plain(gains, snr)
    t = transform(channel, method, budget=100_000)
    assert t.method == ("lll" if method == "lll" else "exhaustive")
    assert [r.sigma2_eff for r in t.results] == [float(exact_sq_norm(gains, channel.weights_sq, snr, r.a)) for r in t.results]
    assert channel.gram().entries.tolist() == [[float(x) for x in row] for row in exact_gram(gains, channel.weights_sq, snr)]


def test_k_ge_4_comp_rate_needs_no_m():
    """``comp_rate`` reads only the integer factors of Q at any K, here on a K = 4 channel at 1600 dB."""
    gains, snr = (1.0, 2.5, 0.7, 1.3), 1e160
    assert comp_rate(gains, [1, 0, 0, 0], snr).sigma2_eff == 8.939554612937433e159
    assert 8.939554612937433e159 == float(exact_sq_norm(gains, (1.0,) * 4, snr, [1, 0, 0, 0]))


@pytest.mark.parametrize("method", ["lll", "auto"])
def test_lll_rows_at_high_snr_are_exactly_rounded(method):
    """LLL rows, and ``auto``'s exhaustive rows, on the integer Gram, each norm the exact a^T G a rounded once.

    At 300 dB the equal gains give (1, 1, 1, 1) and three unit vectors, where
    a float LLL returned entries near 1e14; ``auto``, which fell back to LLL
    there while its walk pruned in floats, now walks them exactly, with the
    tied unit vectors ranked by signed a.  At 1600 dB unequal gains give rows
    with entries past 2^27.
    """
    equal, unequal = ChannelSpec.plain([1, 1, 1, 1], 1e30), ChannelSpec.plain([1, 2.5, 0.7, 1.3], 1e160)
    searched = "lll" if method == "lll" else "exhaustive"
    t = transform(equal, method)
    assert t.method == searched and t.results[0].a == (1, 1, 1, 1)
    assert all(sorted(r.a) == [0, 0, 0, 1] for r in t.results[1:])
    if method == "auto":
        assert [r.a for r in t.results[1:]] == [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0)]
    far = transform(unequal, method, budget=10_000)
    assert far.method == searched and max(abs(x) for r in far.results for x in r.a) > 2**27
    for channel, rows in ((equal, t), (unequal, far)):
        exact = [float(exact_sq_norm(channel.gains, channel.weights_sq, channel.snr, r.a)) for r in rows.results]
        assert [r.sigma2_eff for r in rows.results] == exact


def test_sq_norm_is_the_lagrange_form_exactly_rounded():
    """``_sq_norm`` of a channel record is a^T G a rounded once at every K, without M, from 0 to 300 dB, |a_i| up to 2^40."""
    rng = np.random.default_rng(12)
    for k in range(1, 9):
        for _ in range(25):
            g, b_sq, snr = rng.normal(size=k), rng.uniform(0.25, 4, size=k), 10 ** rng.uniform(0, 30)
            ch = ChannelSpec(g, snr, b_sq)
            bound = 2 ** int(rng.integers(1, 41))
            a = [int(x) for x in rng.integers(-bound, bound + 1, size=k)]
            a[0] = a[0] or 1
            assert _sq_norm(ch, a) == float(exact_sq_norm(g.tolist(), b_sq.tolist(), snr, a)) and "m" not in ch.__dict__


def spd_matrices(seed, n):
    """Seeded plain and weighted Grams (K=1..8, -10..60 dB) and random SPD matrices."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        k = int(rng.integers(1, 9))
        if i % 3 == 2:
            m = rng.normal(size=(k, k))
            yield m @ m.T + 1e-3 * np.eye(k)
        else:
            b_sq = rng.uniform(0.5, 4, size=k) if i % 3 else None
            yield gram_effective(rng.normal(size=k), b_sq, 10 ** rng.uniform(-1, 6)).entries


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky(np.eye(3)), np.eye(3))

    def test_hand_two_by_two(self):
        r = cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]))
        expected = np.array([[math.sqrt(2), 0.0], [1 / math.sqrt(2), math.sqrt(1.5)]])
        np.testing.assert_allclose(r, expected, rtol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            gram = gram_plain(rng.normal(size=k), 10 ** rng.uniform(-1, 4))
            r = cholesky(gram)
            err = np.linalg.norm(r @ r.T - gram.entries) / np.linalg.norm(gram.entries)
            assert err <= 1e-10
            assert np.allclose(r, np.tril(r))

    def test_not_positive_definite(self):
        with pytest.raises(ValueError, match="positive definite"):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("seed", [8, 9, 10])
    def test_lower_triangular_positive_diagonal(self, seed):
        for gram in spd_matrices(seed, 120):
            r = cholesky(gram)
            assert np.array_equal(r, np.tril(r))
            assert np.all(np.diag(r) > 0)
            assert np.max(np.abs(r @ r.T - gram)) <= 1e-12 * np.max(np.abs(gram))

    def test_symmetrizes_its_input(self):
        symmetrized = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert cholesky(np.array([[4.0, 3.0], [1.0, 3.0]])).tolist() == symmetrized.tolist()

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1.0, 2.0], [2.0, 1.0]],
            [[-1.0]],
            [[math.nan]],
            [[1.0, math.nan], [math.nan, 1.0]],
            [[1.0, 0.0], [0.0, math.nan]],
            [[0.0, 0.0], [0.0, 1.0]],
            [[1.0, 1.0], [1.0, 1.0]],
        ],
        ids=["indefinite", "negative", "nan", "nan-off-diagonal", "nan-last", "zero-first-pivot", "zero-last-pivot"],
    )
    def test_rejected(self, matrix):
        with pytest.raises(ValueError, match="positive definite"):
            cholesky(np.array(matrix))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            cholesky(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "matrix",
        [np.ones((0, 2)), [], ["12", "34"], [b"12", b"34"], "1", [[1.0], [1.0, 2.0]]],
        ids=["0x2", "no-rows-no-width", "text-rows", "bytes-rows", "text", "ragged"],
    )
    def test_malformed_rejected(self, matrix):
        # text rows are not rows of digits; an array with no rows keeps its width, and [] has none
        with pytest.raises(ValueError, match="square"):
            cholesky(matrix)

    def test_empty(self):
        assert cholesky(np.ones((0, 0))).shape == (0, 0)


class TestSylvesterLogdet:
    def test_scalar(self):
        assert sylvester_logdet([1.0], 1.0) == pytest.approx(math.log2(0.5), rel=1e-12)

    def test_plain_formula(self):
        h = [math.sqrt(5), 1.0]
        snr = 10**1.5
        expected = 2 * math.log2(snr) - math.log2(1 + 6 * snr)
        assert sylvester_logdet(h, snr) == pytest.approx(expected, rel=1e-12)

    def test_effective_against_slogdet(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            ell = int(rng.integers(1, 5))
            g = rng.normal(size=ell)
            b_sq = rng.uniform(1.0, 4.0, size=ell)
            snr = 10 ** rng.uniform(-1, 3)
            mat = np.diag(1.0 / b_sq) / snr + np.outer(g, g)
            _, logdet = np.linalg.slogdet(mat)
            expected = -logdet / math.log(2)
            assert sylvester_logdet(g, snr, b_sq) == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestExactRank:
    def test_identity(self):
        for k in (1, 2, 5):
            assert exact_rank(np.eye(k, dtype=int)) == k

    def test_reference_matrix(self):
        assert exact_rank([[2, 1], [3, 1]]) == 2

    def test_dependent_rows(self):
        assert exact_rank([[1, 2], [2, 4]]) == 1

    def test_against_float_rank(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            mat = rng.integers(-10, 11, size=(m, n))
            assert exact_rank(mat) == np.linalg.matrix_rank(mat, tol=1e-8)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            exact_rank([[0.5, 1.0], [1.0, 2.0]])


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "entry, args",
    [
        (exact_rank, lambda x: ([[x, 2]],)),
        (exact_solve_in_span, lambda x: ([[x, 1]], [1])),
        (pseudo_triangularize, lambda x: ([[x, 2], [1, 1]],)),
    ],
    ids=["exact_rank", "exact_solve_in_span", "pseudo_triangularize"],
)
def test_exact_routines_refuse_non_finite_entries(entry, args, value):
    # an infinite entry raised OverflowError from int(); nan already gave ValueError
    with pytest.raises(ValueError, match="exact routines require integer entries"):
        entry(*args(value))


def fraction_solve_reference(mat, rhs):
    """Reference: Gauss-Jordan over Fractions, free unknowns set to zero."""
    n_rows = len(mat)
    n_cols = len(mat[0]) if n_rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(mat, rhs)]
    pivot_cols = []
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        aug[r] = [v / aug[r][col] for v in aug[r]]
        for i in range(n_rows):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [vi - f * vr for vi, vr in zip(aug[i], aug[r])]
        pivot_cols.append(col)
        r += 1
    if any(aug[i][n_cols] != 0 for i in range(r, n_rows)):
        return None
    x = [Fraction(0)] * n_cols
    for i, col in enumerate(pivot_cols):
        x[col] = aug[i][n_cols]
    return x


def seeded_systems(seed, n):
    """Integer systems up to 7 x 7: half sparsified, a third with a dependent
    row, half with a right-hand side drawn independently of the matrix."""
    rng = np.random.default_rng(seed)
    for t in range(n):
        m, k = (int(v) for v in rng.integers(1, 8, size=2))
        a = rng.integers(-5, 6, size=(m, k))
        if t % 2:
            a = a * (rng.random((m, k)) < 0.5)
        if m > 1 and t % 3 == 0:
            i, j = rng.choice(m, 2, replace=False)
            a[i] = rng.integers(-2, 3) * a[j]
        b = a @ rng.integers(-5, 6, size=k) if t % 4 < 2 else rng.integers(-9, 10, size=m)
        yield a.tolist(), b.tolist()


class TestExactSolve:
    def test_in_span(self):
        sol = exact_solve_in_span([[2, 0], [0, 3]], [4, 9])
        assert sol == [Fraction(2), Fraction(3)]

    def test_rank_deficient_consistent(self):
        sol = exact_solve_in_span([[1, 2], [2, 4]], [3, 6])
        assert sol is not None
        assert sol[0] + 2 * sol[1] == 3

    def test_not_in_span(self):
        assert exact_solve_in_span([[1, 2], [2, 4]], [1, 3]) is None

    def test_empty_system(self):
        assert exact_solve_in_span([], []) == []

    def test_random_consistency(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            mat = rng.integers(-5, 6, size=(m, n))
            x = rng.integers(-5, 6, size=n)
            rhs = mat @ x
            sol = exact_solve_in_span(mat, rhs)
            assert sol is not None
            check = [sum(Fraction(int(mat[i, j])) * sol[j] for j in range(n)) for i in range(m)]
            assert check == [Fraction(int(v)) for v in rhs]

    def test_matches_fraction_reference(self):
        outcomes = set()
        for mat, rhs in seeded_systems(11, 3000):
            sol = exact_solve_in_span(mat, rhs)
            assert sol == fraction_solve_reference(mat, rhs)
            outcomes.add(sol is None)
        assert outcomes == {True, False}

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            exact_solve_in_span([[Fraction(1, 2)]], [1])
        with pytest.raises(ValueError):
            exact_solve_in_span([[1]], [0.5])


class TestRationalHelpers:
    def test_span_detects_dependence(self):
        span = RationalSpan(3)
        assert span.try_add([1, 0, 1])
        assert span.try_add([0, 1, 1])
        assert not span.try_add([2, 3, 5])
        assert span.try_add([0, 0, 1])
        assert span.rank == 3

    def test_span_agrees_with_rank_growth(self):
        for mat, _ in seeded_systems(12, 500):
            span = RationalSpan(len(mat[0]))
            for i, row in enumerate(mat):
                assert span.try_add(row) == (exact_rank(mat[: i + 1]) > exact_rank(mat[:i]))
            assert span.rank == exact_rank(mat)

    def test_span_rejects_non_integer(self):
        with pytest.raises(ValueError):
            RationalSpan(1).try_add([0.5])

    def test_rational_matrix_matmul(self):
        left = RationalMatrix.from_rows([[1, 0], [Fraction(-3, 2), 1]])
        product = left.matmul([[2, 1], [3, 1]])
        assert product.entries == ((Fraction(2), Fraction(1)), (Fraction(0), Fraction(-1, 2)))
