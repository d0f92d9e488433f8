"""Transform assembly, sum-rate sandwich, triangularization, mod-p lift."""

import dataclasses
import hashlib
import importlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfrates import cli, linalg, symmetric_ic
from cfrates.lattice import BudgetExceeded, _dot, _lll, successive_minima
from cfrates.linalg import RationalMatrix, RationalSpan, _channel, exact_rank, sylvester_logdet
from cfrates.rates import comp_rate
from cfrates.transform import (
    ChannelSpec,
    PseudoTriangularization,
    mod_p_lift,
    pseudo_triangularize,
    rate_allocation,
    sum_rate_bounds,
    transform,
)


def frac_rows(mat):
    return [[Fraction(x) for x in row] for row in mat]


def ref_solve(system, rhs):
    """Independent rational solver: straight row reduction over Fractions.

    Free unknowns are zero; None when the system is infeasible.
    """
    rows = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(system, rhs)]
    n_rows = len(rows)
    n_cols = len(system[0]) if system else 0
    pivots = []
    for col in range(n_cols):
        r = len(pivots)
        piv = next((i for i in range(r, n_rows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(n_rows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    if any(rows[i][-1] != 0 for i in range(len(pivots), n_rows)):
        return None
    x = [Fraction(0)] * n_cols
    for i, col in enumerate(pivots):
        x[col] = rows[i][-1] / rows[i][col]
    return x


def pi_feasible_oracle(a, pi):
    k = len(a)
    for i in range(1, k):
        system = [[a[m][pi[j]] for m in range(i)] for j in range(i)]
        rhs = [-a[i][pi[j]] for j in range(i)]
        if ref_solve(system, rhs) is None:
            return False
    return True


def greedy_pi_reference(a):
    """One feasible column order from rational elimination with column pivoting."""
    k = len(a)
    work = frac_rows(a)
    pi = []
    for i in range(k):
        col = next(c for c in range(k) if c not in pi and work[i][c] != 0)
        pi.append(col)
        for r in range(i + 1, k):
            f = work[r][col] / work[i][col]
            work[r] = [x - f * y for x, y in zip(work[r], work[i])]
    return tuple(pi)


def triangularize_reference(a, pi):
    """Solve every row of pi independently; None when some row is infeasible."""
    k = len(a)
    lower = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for i in range(1, k):
        x = ref_solve([[a[m][pi[j]] for m in range(i)] for j in range(i)], [-a[i][pi[j]] for j in range(i)])
        if x is None:
            return None
        lower[i][:i] = x
    lower = RationalMatrix.from_rows(lower)
    return pi, lower.entries, lower.matmul(a).entries


def brute_force_reference(a, enumerate_limit=8):
    """(pi, L, L A) for every feasible permutation, or for the greedy one beyond the limit."""
    rows = np.asarray(a).tolist()
    if len(rows) > enumerate_limit:
        return [triangularize_reference(rows, greedy_pi_reference(rows))]
    found = (triangularize_reference(rows, pi) for pi in itertools.permutations(range(len(rows))))
    return [out for out in found if out is not None]


def is_prime(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def mod_p_lift_reference(a, pt):
    """(p, L mod p, L A mod p, row denominators, lemma bound) from the Fraction rows of ``pt``.

    Each row of L is rescaled by the lcm of its denominators in Fraction
    arithmetic, and L A mod p is an object-dtype matrix product.
    """
    a = np.asarray(a)
    k, pi = a.shape[0], pt.pi
    denoms = [math.lcm(*(x.denominator for x in row)) for row in pt.lower.entries]
    scaled_lower = [[x * q for x in row] for row, q in zip(pt.lower.entries, denoms)]
    assert all(x.denominator == 1 for row in scaled_lower for x in row)
    diag_scaled = [pt.a_tilde[i, pi[i]] * denoms[i] for i in range(k)]
    assert all(d.denominator == 1 for d in diag_scaled)
    units = denoms + [int(d) for d in diag_scaled]
    p = next(p for p in itertools.count(2) if is_prime(p) and all(x % p for x in units))
    inverses = [pow(q, -1, p) for q in denoms]
    lower_p = np.array([[int(x) * inv % p for x in row] for row, inv in zip(scaled_lower, inverses)], dtype=np.int64)
    a_tilde_p = ((lower_p @ np.array(a.tolist(), dtype=object)) % p).astype(np.int64)
    a_max = max(1, int(np.max(np.abs(a))))
    bound = k * math.factorial(k) ** 2 * (k * a_max) ** (2 * k) * a_max
    return p, lower_p.tolist(), a_tilde_p.tolist(), tuple(denoms), bound


def lift_tuple(lift):
    return lift.p, lift.lower_mod_p.tolist(), lift.a_tilde_mod_p.tolist(), lift.row_denominators, lift.lemma_bound


def as_tuples(pts):
    return [(pt.pi, pt.lower.entries, pt.a_tilde.entries) for pt in pts]


def seeded_full_rank(rng, k, sparse):
    """Random full-rank integer matrix; sparse ones often have singular leading blocks."""
    while True:
        a = rng.integers(-3, 4, size=(k, k))
        if sparse:
            a = a * (rng.random((k, k)) < 0.5)
        if exact_rank(a) == k:
            return a


# transform(ChannelSpec.plain(np.random.default_rng(7).normal(size=7), 1e3)).matrix
TRANSFORM_K7 = np.array(
    [
        [0, 1, -1, -4, -2, -4, 0],
        [0, 2, -2, -6, -3, -7, 0],
        [0, 1, -1, -3, -1, -3, 0],
        [0, 1, -1, -2, -1, -2, 0],
        [0, 3, -3, -10, -5, -11, 1],
        [0, 1, 0, -2, -1, -2, 0],
        [1, 0, 0, 0, 0, 0, 0],
    ]
)

EXAMPLE_A = np.array([[2, 1], [3, 1]])

DENSE_K8 = np.random.default_rng(5).integers(-3, 4, (8, 8))
DENSE_K8_ORDERS = 24192
# sha256 over every order's pi, L entries, p, L mod p and L A mod p, computed
# with the Fraction-based lift that mod_p_lift_reference copies
DENSE_K8_DIGEST = "d61143e94e6294c54626d432452e2c28314ff74d5eb3c73f0869d1f3b771d4ff"

# sha256 over the whole `cfrates rates` pipeline on default_rng(13) plain
# MACs, 8 per K for K=2..6 at 10-40 dB: the transform rows with 17-digit beta,
# sigma2 and rate, the sum-rate bounds, and for every order its pi, L, p, both
# lifted row sets and its allocation
PIPELINE_DIGEST = "f9d076c3e88759186397574ecd69c5885971b3583fa553af2a2e606059ee7764"


@st.composite
def full_rank_matrices(draw):
    k = draw(st.integers(2, 6))
    a = np.array(draw(st.lists(st.lists(st.integers(-4, 4), min_size=k, max_size=k), min_size=k, max_size=k)))
    assume(exact_rank(a) == k)
    return a


class TestTransform:
    def test_reference_two_user(self):
        t = transform(ChannelSpec.plain([math.sqrt(5), 1.0], 10**1.5))
        assert t.matrix.tolist() == [[2, 1], [3, 1]]
        assert t.rates[0] == pytest.approx(2.409, abs=2e-3)
        assert t.rates[1] == pytest.approx(1.372, abs=2e-3)
        assert t.method == "exhaustive"

    def test_decoupled_gives_identity(self):
        t = transform(ChannelSpec.plain([1.0, 0.0], 100.0))
        assert t.matrix.tolist() == [[1, 0], [0, 1]]

    def test_three_user_rank_and_order(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            t = transform(ChannelSpec.plain(rng.normal(size=3), 10 ** rng.uniform(0, 3)))
            assert exact_rank(t.matrix) == 3
            assert all(a >= b - 1e-12 for a, b in zip(t.rates, t.rates[1:]))
            for res, row in zip(t.results, t.matrix):
                assert res.a == tuple(row.tolist())

    def test_lll_method(self):
        t = transform(ChannelSpec.plain([math.sqrt(5), 1.0], 10**1.5), method="lll")
        assert t.method == "lll"
        assert t.matrix.tolist() == [[2, 1], [3, 1]]

    def test_auto_falls_back_on_budget(self):
        ch = ChannelSpec.plain([1.0, 0.62, 0.34, 0.21], 1e3)
        t = transform(ch, method="auto", budget=3)
        assert t.method == "lll"
        with pytest.raises(BudgetExceeded):
            transform(ch, method="exhaustive", budget=3)

    def test_no_positive_rate_set_rejected(self):
        with pytest.raises(ValueError, match="positive-rate"):
            transform(ChannelSpec.plain([0.0, 0.0], 5.0))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            transform(ChannelSpec.plain([1.0], 10.0), method="fastest")

    @pytest.mark.parametrize("method", ["auto", "exhaustive", "lll"])
    def test_negative_budget_rejected(self, method):
        ch = ChannelSpec.plain([1.0, 0.62, 0.34, 0.21], 1e3)
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            transform(ch, method=method, budget=-5)

    def test_zero_budget(self):
        ch = ChannelSpec.plain([1.0, 0.62, 0.34, 0.21], 1e3)
        assert transform(ch, budget=0).method == "lll"
        with pytest.raises(BudgetExceeded, match="exceeded 0 nodes"):
            transform(ch, method="exhaustive", budget=0)

    def test_200_db_near_ties_fit_a_small_budget(self):
        # every (k, k+1) costs 5e19 + (2k+1)^2/4 in step 1, the same in floats
        # for thousands of k; K = 2 searches exactly, with no budget
        t = transform(ChannelSpec.plain([1.0, 1.0], 1e20), "exhaustive", budget=10_000)
        assert [r.a for r in t.results] == [(1, 1), (0, 1)]

    def test_level_past_the_float_resolution_is_walked_exactly(self):
        # the first minimum (1, 1, 1, 1) has norm about 1 and the others about
        # snr = 1e30, where a float cost's ulp is about 1e14: at step 2 the level
        # along it held about 1e15 integers for a float walk.  On the exact
        # projected norms each level holds a few, and the unit vectors tie exactly
        ch = ChannelSpec.plain([1.0] * 4, 1e30)
        t = transform(ch, "exhaustive", budget=100)
        assert [r.a for r in t.results] == [(1, 1, 1, 1), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0)]
        assert [r.sigma2_eff for r in t.results] == [float(exact_norm(ch, r.a)) for r in t.results]
        assert exact_norm(ch, (0, 0, 0, 1)) < exact_norm(ch, (1, 1, 1, 0))
        assert transform(ch).method == "exhaustive"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 5),
    gain_exp=st.floats(-300.0, 300.0),
    snr_exp=st.floats(-330.0, 300.0),
    seed=st.integers(0, 2**32 - 1),
    weighted=st.booleans(),
    method=st.sampled_from(["auto", "exhaustive", "lll"]),
)
def test_returns_or_refuses_across_the_float_range(k, gain_exp, snr_exp, seed, weighted, method):
    """Gains of 1e-300 to 1e300 and snr of 1e-330 to 1e300: a transform, ValueError or BudgetExceeded, nothing else."""
    rng = np.random.default_rng(seed)
    b_sq = 10 ** rng.uniform(-20.0, 20.0, size=k) if weighted else np.ones(k)
    try:
        transform(ChannelSpec.effective(rng.normal(size=k) * 10**gain_exp, b_sq, 10**snr_exp), method, budget=10_000)
    except (ValueError, BudgetExceeded):
        pass


def test_walk_answers_across_the_float_range():
    """K = 4..6, gains 1e+-150, snr 1e+-100, weights 1e+-20: the exhaustive walk answers, or refuses the channel.

    The walk prunes on exact integers, so no Gram-Schmidt length is out of its
    range and no level finer than it resolves; a ValueError can only be a
    channel or norm refusal.  Each answered norm is the exact a^T G a rounded
    once.  No draw exceeds the 100,000-node budget: the walk counts only the
    values it enters.  A walk that pruned in floats exceeded it on 229 of
    these 300 channels and answered 59; one that charged each level's whole
    range before trying a value exceeded it on 17.
    """
    rng = np.random.default_rng(4)
    answered = 0
    for _ in range(300):
        k = int(rng.integers(4, 7))
        g = rng.normal(size=k) * 10 ** rng.uniform(-150, 150)
        b_sq, snr = 10 ** rng.uniform(-20, 20, size=k), 10 ** rng.uniform(-100, 100)
        try:
            channel = ChannelSpec.effective(g, b_sq, snr)
            t = transform(channel, "exhaustive", budget=100_000)
        except ValueError as exc:
            assert any(x in str(exc) for x in ("overflows floating point", "underflows floating point", "positive-rate")), exc
            continue
        assert [r.sigma2_eff for r in t.results] == [float(exact_norm(channel, r.a)) for r in t.results]
        answered += 1
    assert answered >= 260


def test_lengths_past_the_float_range_reach_the_norm_check():
    # the Gram-Schmidt lengths span about 2^2000: LLL and the walk on Q are exact, and only a
    # norm the floats cannot hold, about snr b_1 = 1e310, is refused
    channel = ChannelSpec.effective((1e-300, 1, 1, 1), (1e300, 1e-300, 1, 1), 1e10)
    for method in ("auto", "exhaustive"):
        with pytest.raises(ValueError, match=r"noise norm a\^T G a overflows floating point"):
            transform(channel, method)


@st.composite
def channels(draw):
    """Plain and weighted channels, K=1..6, -10..60 dB, every gain away from zero."""
    k = draw(st.integers(1, 6))
    gains = draw(st.lists(st.floats(-4.0, 4.0).filter(lambda x: abs(x) >= 0.05), min_size=k, max_size=k))
    weights = draw(st.one_of(st.just([1.0] * k), st.lists(st.floats(0.25, 4.0), min_size=k, max_size=k)))
    snr = 10 ** (draw(st.floats(-10.0, 60.0)) / 10)
    return ChannelSpec.effective(gains, weights, snr)


class TestCheckedChannel:
    """A transform checks its channel once and builds its rows on the stored record."""

    @pytest.mark.parametrize("method", ["auto", "lll"])
    @settings(max_examples=120, deadline=None)
    @given(ch=channels())
    def test_rows_match_comp_rate_exactly(self, method, ch):
        try:
            t = transform(ch, method=method)
        except ValueError as exc:  # a weighted channel at low snr may have no positive-rate vector
            assert "positive-rate" in str(exc)
            assume(False)
        rows = t.matrix.tolist()
        assert t.results == tuple(comp_rate(ch.gains, v, ch.snr, ch.weights_sq) for v in rows)

    @settings(max_examples=60, deadline=None)
    @given(ch=channels())
    def test_record_is_outside_equality_hash_and_repr(self, ch):
        twin = ChannelSpec(ch.gains, ch.snr, ch.weights_sq)
        assert twin == ch and hash(twin) == hash(ch)
        assert repr(ch) == f"ChannelSpec(gains={ch.gains!r}, snr={ch.snr!r}, weights_sq={ch.weights_sq!r})"
        assert [f.name for f in dataclasses.fields(ch) if f.init or f.compare or f.repr] == ["gains", "snr", "weights_sq"]
        assert ch != ChannelSpec(ch.gains, 2 * ch.snr, ch.weights_sq)

    @settings(max_examples=60, deadline=None)
    @given(ch=channels())
    def test_replace_rebuilds_the_record(self, ch):
        moved = dataclasses.replace(ch, snr=2 * ch.snr)
        assert moved == ChannelSpec(ch.gains, 2 * ch.snr, ch.weights_sq)
        assert moved._checked.denom == _channel(ch.gains, 2 * ch.snr, ch.weights_sq).denom
        assert moved._checked.denom != ch._checked.denom
        with pytest.raises(ValueError, match="snr must be positive"):
            dataclasses.replace(ch, snr=-1.0)

    def test_m_is_built_once_per_channel(self, monkeypatch):
        """``transform``, two ``gram()`` calls, the bounds and the Gram search share one record and one integer Gram."""
        calls = []
        build = linalg._integer_gram

        def counting_build(ch):
            calls.append(ch)
            return build(ch)

        monkeypatch.setattr(linalg, "_integer_gram", counting_build)
        for ch in (ChannelSpec.effective((0.7, -1.3, 0.4), (1.0, 2.5, 0.6), 10**2.5), ChannelSpec.plain((1.0, 0.62, 0.34, 0.21), 1e3)):
            calls.clear()
            t = transform(ch)
            grams = ch.gram(), ch.gram()
            assert all(gram._checked is ch._checked for gram in grams)
            assert successive_minima(grams[0]).vectors == tuple(r.a for r in t.results)
            sum_rate_bounds(t)
            transform(ch, "lll")
            assert calls == [ch._checked]


def exact_norm(ch, a):
    """a^T G a in rationals from the float inputs: snr (a^T B a - snr (g^T B a)^2 / (1 + snr g^T B g))."""
    snr, g, b = Fraction(ch.snr), [Fraction(x) for x in ch.gains], [Fraction(x) for x in ch.weights_sq]
    cross = sum(w * x * y for w, x, y in zip(b, g, a))
    den = 1 + snr * sum(w * x * x for w, x in zip(b, g))
    return snr * (sum(w * y * y for w, y in zip(b, a)) - snr * cross * cross / den)


@pytest.mark.parametrize("snr_db", [25, 45, 100, 300, 1000, 3000])
def test_k_le_3_builds_no_m_and_rounds_each_norm_once(monkeypatch, snr_db):
    """Each row's sigma2 in K <= 3 ``transform`` and ``report`` is the exact a^T G a rounded once, from 25 to 3000 dB."""
    seen = []

    def recording(channel, *args, **kwargs):
        seen.append((channel, transform(channel, *args, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(symmetric_ic, "transform", recording)
    snr = 10 ** (snr_db / 10)
    for k, g in itertools.product((2, 3, 5), (snr**-0.25 / 2, 0.7, 2.0, 1e3)):
        symmetric_ic.report(symmetric_ic.SymmetricIcSpec(k, g, snr))
    for h in ([1.0], [1.0, 2.5], [0.9, -1.3, 0.4]):
        recording(ChannelSpec.plain(h, snr))
    assert len(seen) >= 12 + 3
    for channel, t in seen:
        assert [r.sigma2_eff for r in t.results] == [float(exact_norm(channel, r.a)) for r in t.results]


@pytest.mark.parametrize("k", [1, 4], ids=["K=1", "K=4"])
def test_norm_that_rounds_to_snr_is_kept_at_rate_0(k):
    # a^T G a = 1 - 1e-20 / (1 + k 1e-20) < snr = 1 exactly, so each row is kept, though its norm rounds to 1.0;
    # K = 4 searches by the walk, with the same integer positive-rate test as K = 1
    rows = transform(ChannelSpec.plain([1e-10] * k, 1.0)).results
    assert {row.a for row in rows} == {tuple(int(i == j) for j in range(k)) for i in range(k)} and len(rows) == k
    assert all(row.sigma2_eff == 1.0 and row.r_comp == 0.0 for row in rows)


def sphere_points(mu, bb, radius_sq, budget):
    """Every integer c != 0 with ||R c||^2 <= radius_sq, one per {c, -c}; BudgetExceeded past ``budget`` integers tried.

    A fixed-radius Fincke-Pohst walk on Gram-Schmidt data (mu, bb),
    ||R c||^2 = sum_i bb[i] (c_i + sum_{j>i} mu[j][i] c_j)^2, fixed from the
    last coordinate down; while the fixed ones are zero the current one must
    be nonnegative, and positive at coordinate 0.
    """
    k = len(bb)
    a, found, nodes = [0] * k, [], 0

    def descend(level, remaining, tail_zero):
        nonlocal nodes
        center = -sum(mu[j][level] * a[j] for j in range(level + 1, k))
        half = math.sqrt(max(remaining, 0.0) / bb[level])
        lo, hi = math.ceil(center - half), math.floor(center + half)
        if tail_zero:
            lo = max(lo, int(level == 0))
        nodes += max(0, hi - lo + 1)
        if nodes > budget:
            raise BudgetExceeded(f"enumeration exceeded {budget} nodes")
        for v in range(lo, hi + 1):
            cost = bb[level] * (v - center) ** 2
            if cost <= remaining:
                a[level] = v
                if level == 0:
                    found.append(tuple(a))
                else:
                    descend(level - 1, remaining - cost, tail_zero and v == 0)
        a[level] = 0

    descend(k - 1, radius_sq, True)
    return found


def exact_minima(ch, radius_sq, budget=100_000):
    """Exact squared successive minima up to ``radius_sq``, or None past ``budget`` nodes.

    The candidates are every lattice point in the sphere, found on the basis
    that ``_lll`` reduces exactly on the channel's integer Gram Q, whose
    Gram-Schmidt data are turned into G's units, each rounded once;
    ``radius_sq`` carries a slack wider than the sphere walk's float
    rounding, so the sphere holds every point whose exact norm is below the
    radius.  They are ranked by exact norm and kept greedily when
    independent of those kept.
    """
    u, lam, dd = _lll(linalg._q_matrix(ch._checked), 0.99)
    w = list(zip(*u))
    _, _, _, s, ds, u = ch._checked.q
    mu = [[x / d for x, d in zip(row, dd[1:])] for row in lam]
    bb = [s * b / (ds * u * a) for a, b in zip(dd, dd[1:])]  # |b*_i|^2 = S (dd[i+1] / dd[i]) / (ds U) in G's units
    try:
        coords = sphere_points(mu, bb, radius_sq, budget)
    except BudgetExceeded:
        return None
    span, minima = RationalSpan(ch.dim), []
    for norm, vec in sorted((exact_norm(ch, a), a) for a in (tuple(_dot(row, c) for row in w) for c in coords)):
        if span.try_add(vec):
            minima.append(norm)
    return minima


class TestHighSnrExactNorms:
    """60-160 dB: each noise norm is a^T G a to 1e-12 and each vector a successive minimum."""

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(2, 5),
        snr_db=st.floats(60.0, 160.0),
        seed=st.integers(0, 2**32 - 1),
        weighted=st.booleans(),
    )
    def test_against_exact_rationals(self, k, snr_db, seed, weighted):
        # gains from a seeded generator: hypothesis's favourite floats (1.0, 2.0, ...) are
        # rationally related, whose spheres hold too many points for the oracle's budget
        rng = np.random.default_rng(seed)
        b_sq = rng.uniform(0.25, 4.0, size=k) if weighted else np.ones(k)
        ch = ChannelSpec.effective(rng.normal(size=k), b_sq, 10 ** (snr_db / 10))
        t = transform(ch, method="exhaustive")
        exact = [exact_norm(ch, r.a) for r in t.results]
        for r, x in zip(t.results, exact):
            assert abs(Fraction(r.sigma2_eff) - x) <= 1e-12 * x, r
        # the sphere allows 8 eps sqrt(den) relative (den = 1 + snr g^T B g), far wider
        # than the rounding of a walk on mu and bb that are each rounded once
        radius = max(r.sigma2_eff for r in t.results) * (1 + 1e-12 + 8 * 2**-52 * math.sqrt(ch._checked.denom))
        minima = exact_minima(ch, radius)
        assume(minima is not None)
        assert len(minima) == k
        for x, m in zip(exact, minima):
            assert x <= m * (1 + Fraction(1, 10**12))


class TestSumRateBounds:
    def test_reference_ratio(self):
        t = transform(ChannelSpec.plain([math.sqrt(5), 1.0], 10**1.5))
        bounds = sum_rate_bounds(t)
        assert bounds.total / bounds.upper == pytest.approx(0.998, abs=2e-3)
        assert bounds.lower <= bounds.total <= bounds.upper

    def test_single_user_collapses(self):
        t = transform(ChannelSpec.plain([1.3], 50.0))
        bounds = sum_rate_bounds(t)
        assert bounds.lower == pytest.approx(bounds.upper, rel=1e-12)
        assert bounds.total == pytest.approx(bounds.upper, rel=1e-12)

    def test_random_sandwich(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            k = int(rng.integers(2, 4))
            t = transform(ChannelSpec.plain(rng.normal(size=k), 10 ** rng.uniform(0, 4)))
            bounds = sum_rate_bounds(t)
            assert bounds.lower - 1e-9 <= bounds.total <= bounds.upper + 1e-9

    def test_150_db_sandwich(self):
        # the float Woodbury form put this rate sum 0.4% above the sum capacity
        bounds = sum_rate_bounds(transform(ChannelSpec.plain([0.3, -0.7, 1.1], 10**15)))
        assert bounds.lower <= bounds.total <= bounds.upper + 1e-9

    def test_effective_sandwich(self):
        rng = np.random.default_rng(24)
        checked = 0
        for _ in range(150):
            k = int(rng.integers(2, 4))
            ch = ChannelSpec.effective(
                rng.normal(size=k), rng.integers(1, 5, size=k).astype(float), 10 ** rng.uniform(0, 3)
            )
            try:
                bounds = sum_rate_bounds(transform(ch))
            except ValueError:
                continue  # no positive-rate set at this draw; nothing to sandwich
            checked += 1
            assert bounds.lower - 1e-9 <= bounds.total <= bounds.upper + 1e-9
        assert checked >= 100

    @pytest.mark.parametrize("b_sq", [None, (1.0, 2.5, 0.6)])
    def test_log_determinant_from_the_checked_record(self, b_sq, monkeypatch):
        """The bounds check no channel again and match ``sylvester_logdet`` bit for bit."""
        gains, snr = (0.7, -1.3, 0.4), 10**2.5
        ch = ChannelSpec.plain(gains, snr) if b_sq is None else ChannelSpec.effective(gains, b_sq, snr)
        t = transform(ch)
        upper = 0.5 * (3 * math.log2(snr) - sylvester_logdet(gains, snr, b_sq))
        for module in ("cfrates.linalg", "cfrates.transform"):
            monkeypatch.setattr(importlib.import_module(module), "_channel", None)
        bounds = sum_rate_bounds(t)
        assert bounds.upper == upper
        assert bounds.lower == upper - 1.5 * math.log2(3)

    def test_lll_transform_warns(self):
        t = transform(ChannelSpec.plain([1.0, 1.7], 100.0), method="lll")
        with pytest.warns(UserWarning):
            sum_rate_bounds(t)


def assert_steps_in_normal_form(a):
    """Every step of every order is q_S times row i of L and of L A, primitive, with q > 0.

    L A is recomputed here from A, and L against ``ref_solve`` once per step.
    """
    rows = np.asarray(a).tolist()
    k = len(rows)
    solved = set()
    for pt in pseudo_triangularize(a):
        for i, s in enumerate(pt.steps):
            q, lower, tilde = s.q, s.lower_int, s.tilde_int
            assert q > 0 and lower[i] == q and not any(lower[i + 1 :])
            assert math.gcd(*lower) == 1
            assert tilde == tuple(sum(lower[m] * rows[m][c] for m in range(k)) for c in range(k))
            assert not any(tilde[c] for c in pt.pi[:i]) and tilde[pt.pi[i]] != 0
            if id(s) not in solved:
                solved.add(id(s))
                cols = pt.pi[:i]
                x = ref_solve([[rows[m][c] for m in range(i)] for c in cols], [-rows[i][c] for c in cols])
                assert [Fraction(lower[m], q) for m in range(i)] == x


class TestPseudoTriangularize:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(full_rank_matrices())
    def test_steps_in_normal_form(self, a):
        assert_steps_in_normal_form(a)

    def test_greedy_steps_in_normal_form(self):
        rng = np.random.default_rng(26)
        a = rng.integers(-3, 4, size=(9, 9))
        while exact_rank(a) != 9:
            a = rng.integers(-3, 4, size=(9, 9))
        assert_steps_in_normal_form(a)

    def test_reference_matrix_both_orders(self):
        pts = pseudo_triangularize(EXAMPLE_A)
        assert [pt.pi for pt in pts] == [(0, 1), (1, 0)]

        first = pts[0]
        assert first.lower.entries == ((Fraction(1), Fraction(0)), (Fraction(-3, 2), Fraction(1)))
        assert first.a_tilde.entries == ((Fraction(2), Fraction(1)), (Fraction(0), Fraction(-1, 2)))

        second = pts[1]
        assert second.lower.entries == ((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(1)))
        assert second.a_tilde.entries == ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(0)))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_identity_admits_only_identity_order(self, k):
        pts = pseudo_triangularize(np.eye(k, dtype=int))
        assert len(pts) == 1
        assert pts[0].pi == tuple(range(k))
        assert pts[0].lower.entries == tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(k)) for i in range(k)
        )

    def test_random_full_rank_pattern_and_certificates(self):
        rng = np.random.default_rng(25)
        done = 0
        while done < 30:
            a = rng.integers(-4, 5, size=(3, 3))
            if exact_rank(a) != 3:
                continue
            done += 1
            pts = pseudo_triangularize(a)
            assert len(pts) >= 1
            feasible = {pt.pi for pt in pts}
            rows = frac_rows(a)
            for pt in pts:
                product = pt.lower.matmul(a)
                assert product.entries == pt.a_tilde.entries
                for i in range(3):
                    for j in range(i):
                        assert pt.a_tilde[i, pt.pi[j]] == 0
                    assert pt.a_tilde[i, pt.pi[i]] != 0
            # every rejected permutation must fail the row-feasibility oracle
            for pi in itertools.permutations(range(3)):
                assert (pi in feasible) == pi_feasible_oracle(rows, pi)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            pseudo_triangularize([[1, 2], [2, 4]])

    @pytest.mark.parametrize("a", [np.zeros((0, 0), int), np.zeros((0,), int), np.zeros((2, 0), int), 3, [[1, 2, 3]]])
    def test_empty_or_non_square_rejected(self, a):
        with pytest.raises(ValueError, match="nonempty square matrix"):
            pseudo_triangularize(a)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integer entries"):
            pseudo_triangularize([[1.5, 0], [0, 1]])
        assert as_tuples(pseudo_triangularize([[2.0, 1.0], [3.0, 1.0]])) == as_tuples(pseudo_triangularize(EXAMPLE_A))

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 8])
    def test_orders_through_a_column_set_share_its_step(self, k):
        """One step object per column set, holding exactly the primes of the orders through it.

        K=3..6 run on seeded dense and sparse matrices, K=8 on the dense one.
        """
        if k == 8:
            matrices = [DENSE_K8]
        else:
            rng = np.random.default_rng(300 + k)
            matrices = [seeded_full_rank(rng, k, sparse) for sparse in (False, True) for _ in range(4)]
        for a in matrices:
            pts = pseudo_triangularize(a)
            by_set, primes = {}, {}
            for pt in pts:
                p = mod_p_lift(a, pt).p
                for i, s in enumerate(pt.steps):
                    assert by_set.setdefault(frozenset(pt.pi[:i]), s) is s
                    primes.setdefault(id(s), set()).add(p)
            assert len({id(s) for s in by_set.values()}) == len(by_set)
            for s in by_set.values():
                assert set(s.mod_p) == primes[id(s)]

    def test_large_k_greedy_single_order(self):
        rng = np.random.default_rng(26)
        a = rng.integers(-3, 4, size=(9, 9))
        while exact_rank(a) != 9:
            a = rng.integers(-3, 4, size=(9, 9))
        pts = pseudo_triangularize(a)
        assert len(pts) == 1
        pt = pts[0]
        assert sorted(pt.pi) == list(range(9))
        assert pt.lower.matmul(a).entries == pt.a_tilde.entries

    @pytest.mark.parametrize("k,count", [(2, 40), (3, 40), (4, 20), (5, 4), (6, 1)])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_matches_brute_force(self, k, count, sparse):
        rng = np.random.default_rng(100 * k + sparse)
        for _ in range(count):
            a = seeded_full_rank(rng, k, sparse)
            assert as_tuples(pseudo_triangularize(a)) == brute_force_reference(a)

    @pytest.mark.parametrize("k,limit", [(5, 3), (9, 8)])
    def test_greedy_matches_brute_force(self, k, limit):
        rng = np.random.default_rng(k)
        for sparse in (False, True):
            a = seeded_full_rank(rng, k, sparse)
            assert as_tuples(pseudo_triangularize(a, limit)) == brute_force_reference(a, limit)

    def test_wrong_row_reduction_is_runtime_error(self, monkeypatch, capsys):
        """An exact-invariant guard raises RuntimeError, which the CLI reports as an error.

        The injected reduction returns e_i unreduced; L A is recomputed from A,
        so the guard sees the column it failed to eliminate.
        """
        module = importlib.import_module("cfrates.transform")
        monkeypatch.setattr(module, "_reduce", lambda cols, path, pi: tuple(int(c == len(pi)) for c in range(len(cols))))
        with pytest.raises(RuntimeError, match="eliminated entry is nonzero"):
            pseudo_triangularize(EXAMPLE_A)
        assert cli.main(["rates", "--h", "2.2360679,1", "--snr-db", "15"]) == 1
        assert "error: eliminated entry is nonzero" in capsys.readouterr().err

    def test_transform_k7_enumerates_all_orders(self):
        rows = TRANSFORM_K7.tolist()
        got = as_tuples(pseudo_triangularize(TRANSFORM_K7))
        pis = [pi for pi, _, _ in got]
        assert len(pis) > 1 and pis == sorted(set(pis))
        assert got == [triangularize_reference(rows, pi) for pi in pis]
        for pi in itertools.permutations(range(7)):
            if pi not in pis:
                assert triangularize_reference(rows, pi) is None


class TestModPLift:
    def test_reference_lift(self):
        pts = pseudo_triangularize(EXAMPLE_A)
        lift = mod_p_lift(EXAMPLE_A, pts[0])
        assert lift.row_denominators == (1, 2)
        assert lift.a_tilde_mod_p[1, pts[0].pi[0]] == 0
        assert lift.a_tilde_mod_p[1, pts[0].pi[1]] % lift.p != 0
        # replay the product independently
        replay = (lift.lower_mod_p @ EXAMPLE_A) % lift.p
        np.testing.assert_array_equal(replay, lift.a_tilde_mod_p)
        assert np.array_equal(np.diag(lift.lower_mod_p), np.ones(2))

    def test_identity_lift_is_identity(self):
        pts = pseudo_triangularize(np.eye(3, dtype=int))
        lift = mod_p_lift(np.eye(3, dtype=int), pts[0])
        np.testing.assert_array_equal(lift.lower_mod_p, np.eye(3))
        assert lift.row_denominators == (1, 1, 1)

    def test_random_pattern_oracle(self):
        rng = np.random.default_rng(27)
        done = 0
        while done < 20:
            a = rng.integers(-4, 5, size=(3, 3))
            if exact_rank(a) != 3:
                continue
            done += 1
            for pt in pseudo_triangularize(a):
                lift = mod_p_lift(a, pt)
                replay = (lift.lower_mod_p.astype(object) @ a) % lift.p
                np.testing.assert_array_equal(replay.astype(np.int64), lift.a_tilde_mod_p)
                for i in range(3):
                    for j in range(i):
                        assert lift.a_tilde_mod_p[i, pt.pi[j]] == 0
                    assert lift.a_tilde_mod_p[i, pt.pi[i]] != 0
                assert np.all(np.diag(lift.lower_mod_p) == 1)
                assert np.all((lift.lower_mod_p >= 0) & (lift.lower_mod_p < lift.p))

    @pytest.mark.parametrize("k,count", [(2, 40), (3, 40), (4, 20), (5, 4), (6, 1)])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_matches_fraction_reference(self, k, count, sparse):
        rng = np.random.default_rng(100 * k + sparse)
        for _ in range(count):
            a = seeded_full_rank(rng, k, sparse)
            for pt in pseudo_triangularize(a):
                assert lift_tuple(mod_p_lift(a, pt)) == mod_p_lift_reference(a, pt)

    def test_transform_k7_matches_fraction_reference(self):
        for pt in pseudo_triangularize(TRANSFORM_K7):
            assert lift_tuple(mod_p_lift(TRANSFORM_K7, pt)) == mod_p_lift_reference(TRANSFORM_K7, pt)

    def test_dense_k8_digest(self):
        pts = pseudo_triangularize(DENSE_K8)
        digest = hashlib.sha256()
        for pt in pts:
            lift = mod_p_lift(DENSE_K8, pt)
            fields = [
                *pt.pi,
                *(x for row in pt.lower.entries for x in row),
                lift.p,
                *lift.lower_mod_p.ravel().tolist(),
                *lift.a_tilde_mod_p.ravel().tolist(),
            ]
            digest.update((",".join(map(str, fields)) + "\n").encode())
        assert len(pts) == DENSE_K8_ORDERS
        assert digest.hexdigest() == DENSE_K8_DIGEST

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(full_rank_matrices())
    def test_smallest_prime_clearing_the_units(self, a):
        k = len(a)
        rows = a.tolist()
        # The oracle of a row of L depends only on its Fraction entries (and p),
        # which orders through one column set share: build it once per row.
        scaled = {}  # row of L -> its denominator lcm q and q (L A)_i, in integers
        lifted = {}  # (row of L, p) -> L_i mod p and (L A)_i mod p
        primes = {}  # p -> the primes below p
        for pt in pseudo_triangularize(a):
            lift = mod_p_lift(a, pt)
            p = lift.p
            lower = pt.lower.entries
            for row in lower:
                if row not in scaled:
                    q = math.lcm(*(x.denominator for x in row))
                    scaled[row] = q, [int(sum(row[m] * rows[m][c] for m in range(k)) * q) for c in range(k)]
                if (row, p) not in lifted:
                    q = scaled[row][0]
                    row_p = [int(x * q) * pow(q, -1, p) % p for x in row]
                    lifted[row, p] = row_p, [sum(row_p[m] * rows[m][c] for m in range(k)) % p for c in range(k)]
            denoms = [scaled[row][0] for row in lower]
            diag = [scaled[row][1][c] for row, c in zip(lower, pt.pi)]
            units = denoms + diag
            if p not in primes:
                primes[p] = [f for f in range(2, p) if is_prime(f)]
            assert is_prime(p) and all(u % p for u in units)
            assert all(any(u % f == 0 for u in units) for f in primes[p])
            assert lift.row_denominators == tuple(denoms)
            assert lift.lower_mod_p.tolist() == [lifted[row, p][0] for row in lower]
            assert lift.a_tilde_mod_p.tolist() == [lifted[row, p][1] for row in lower]

    def test_other_matrix_rejected(self):
        for other in ([[1, 1], [1, 2]], np.eye(3, dtype=int)):
            pt = pseudo_triangularize(other)[0]
            with pytest.raises(ValueError, match="not the one"):
                mod_p_lift(EXAMPLE_A, pt)

    def test_empty_matrix_rejected(self):
        pt = pseudo_triangularize(EXAMPLE_A)[0]
        with pytest.raises(ValueError, match="not the one"):
            mod_p_lift(np.zeros((0, 0), int), pt)
        empty = PseudoTriangularization(pi=(), steps=())
        with pytest.raises(ValueError, match="not the one"):
            mod_p_lift(np.zeros((0, 0), int), empty)

    def test_lost_zero_is_runtime_error(self):
        pt = pseudo_triangularize(EXAMPLE_A)[0]
        broken = dataclasses.replace(pt.steps[1], lower_int=(1, 1), mod_p={})
        with pytest.raises(RuntimeError, match="lost a zero"):
            mod_p_lift(EXAMPLE_A, dataclasses.replace(pt, steps=(pt.steps[0], broken)))

    def test_lemma_bound_formula(self):
        pts = pseudo_triangularize(EXAMPLE_A)
        lift = mod_p_lift(EXAMPLE_A, pts[0])
        a_max = 3
        assert lift.lemma_bound == 2 * math.factorial(2) ** 2 * (2 * a_max) ** 4 * a_max


class TestEqualityAndViews:
    """Orders and lifts keep integer rows; ``Fraction`` and ndarray views are built on first read."""

    VIEWS = {"pt": ("lower", "a_tilde"), "step": ("lower", "tilde"), "lift": ("lower_mod_p", "a_tilde_mod_p")}

    def test_transform_equality_and_hash(self):
        """Transforms compare and hash by their results, channel and method; the matrix is a view of the rows."""
        ch = ChannelSpec.plain([0.9, -1.3, 0.4], 10**2.5)
        first, second = transform(ch), transform(ch)
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1
        assert first != transform(ChannelSpec.plain([0.9, -1.3, 0.4], 10**3))
        assert first != dataclasses.replace(first, method="lll")
        assert first.matrix.dtype == np.int64 and first.matrix.tolist() == [list(r.a) for r in first.results]
        for name in ("matrix", "rates", "_cols"):
            assert getattr(first, name) is getattr(first, name)
        assert first.rates == tuple(r.r_comp for r in first.results)
        assert first._cols == first.matrix.T.tolist()

    def test_lift_equality_and_hash(self):
        pt = pseudo_triangularize(EXAMPLE_A)[0]
        first, second = mod_p_lift(EXAMPLE_A, pt), mod_p_lift(EXAMPLE_A, pseudo_triangularize(EXAMPLE_A)[0])
        assert first == second and hash(first) == hash(second)
        assert first != mod_p_lift(EXAMPLE_A, pseudo_triangularize(EXAMPLE_A)[1])

    def test_equal_orders_from_one_matrix(self):
        for a in (EXAMPLE_A, DENSE_K8[:5, :5]):
            first, second = pseudo_triangularize(a), pseudo_triangularize(a)
            assert first == second
            assert [hash(pt) for pt in first] == [hash(pt) for pt in second]
            assert len(set(first)) == len(first)

    def test_same_order_of_different_matrices_differs(self):
        """pi alone does not make two orders equal: L and L A are compared too."""
        ours = next(pt for pt in pseudo_triangularize(EXAMPLE_A) if pt.pi == (0, 1))
        identity = next(pt for pt in pseudo_triangularize(np.eye(2, dtype=int)) if pt.pi == (0, 1))
        assert ours != identity
        rescaled = next(pt for pt in pseudo_triangularize(2 * EXAMPLE_A) if pt.pi == (0, 1))
        assert ours.lower == rescaled.lower and ours != rescaled  # same L, different L A

    def built_views(self, pts, lifts):
        objs = [("pt", pt) for pt in pts] + [("step", s) for pt in pts for s in pt.steps]
        objs += [("lift", lift) for lift in lifts]
        return [(kind, name) for kind, obj in objs for name in self.VIEWS[kind] if name in vars(obj)]

    def test_rates_sequence_builds_no_view(self):
        """``cfrates rates`` reads only pi and p, so no view is built; a view read twice is one object."""
        t = transform(ChannelSpec.plain([0.9, -1.3, 0.4, 1.1], 10**2.5))
        pts = pseudo_triangularize(t.matrix)
        lifts = []
        for pt in pts:
            rate_allocation(t, pt)
            lifts.append(mod_p_lift(t.matrix, pt))
            assert lifts[-1].p > 1
        assert len(pts) > 1 and self.built_views(pts, lifts) == []
        for kind, obj in [("pt", pts[-1]), ("step", pts[-1].steps[-1]), ("lift", lifts[-1])]:
            for name in self.VIEWS[kind]:
                assert getattr(obj, name) is getattr(obj, name)
        assert pts[-1].lower.entries == tuple(s.lower for s in pts[-1].steps)
        assert lifts[-1].lower_mod_p.dtype == np.int64 and lifts[-1].lower_mod_p.tolist() == list(
            map(list, lifts[-1].lower_rows)
        )


def pipeline_lines(rng, macs_per_k):
    """The digest's lines, one per MAC then one per order, in 17-digit text."""

    def text(fields):
        return ",".join(format(x, ".17g") if isinstance(x, float) else str(x) for x in fields)

    for k in range(2, 7):
        for _ in range(macs_per_k):
            snr_db = float(rng.uniform(10, 40))
            h = rng.normal(size=k)
            t = transform(ChannelSpec.plain(h, 10 ** (snr_db / 10)))
            bounds = sum_rate_bounds(t)
            rows = [x for r in t.results for x in (*r.a, r.beta, r.sigma2_eff, r.r_comp)]
            yield text([k, snr_db, *h.tolist(), t.method, *rows, bounds.lower, bounds.total, bounds.upper])
            for pt in pseudo_triangularize(t.matrix):
                lift = mod_p_lift(t.matrix, pt)
                lifted = [x for block in (lift.lower_rows, lift.a_tilde_rows) for row in block for x in row]
                lower = [x for row in pt.lower.entries for x in row]
                yield text([*pt.pi, *lower, lift.p, *lifted, *rate_allocation(t, pt)])


def test_rates_pipeline_digest():
    digest = hashlib.sha256()
    for line in pipeline_lines(np.random.default_rng(13), 8):
        digest.update((line + "\n").encode())
    assert digest.hexdigest() == PIPELINE_DIGEST


class TestRateAllocation:
    def test_reference_allocations(self):
        t = transform(ChannelSpec.plain([math.sqrt(5), 1.0], 10**1.5))
        pts = pseudo_triangularize(t.matrix)
        by_pi = {pt.pi: rate_allocation(t, pt) for pt in pts}
        assert by_pi[(0, 1)][0] == pytest.approx(2.409, abs=2e-3)
        assert by_pi[(0, 1)][1] == pytest.approx(1.372, abs=2e-3)
        assert by_pi[(1, 0)][0] == pytest.approx(1.372, abs=2e-3)
        assert by_pi[(1, 0)][1] == pytest.approx(2.409, abs=2e-3)

    def test_single_user(self):
        t = transform(ChannelSpec.plain([2.0], 10.0))
        pts = pseudo_triangularize(t.matrix)
        assert rate_allocation(t, pts[0]) == (t.rates[0],)

    def test_order_of_another_matrix_rejected(self):
        """An order must come from the transform's own matrix, as for ``mod_p_lift``."""
        t = transform(ChannelSpec.plain([0.9, -1.3, 0.4], 10**2.5))
        assert t.matrix.tolist() != np.eye(3, dtype=int).tolist()
        for pt in (pseudo_triangularize(np.eye(3, dtype=int))[0], pseudo_triangularize(EXAMPLE_A)[0]):
            with pytest.raises(ValueError, match="not the one"):
                rate_allocation(t, pt)
        with pytest.raises(ValueError, match="not the one"):
            rate_allocation(t, PseudoTriangularization(pi=(), steps=()))
        # an order of an equal matrix from another call is accepted
        assert len(rate_allocation(t, pseudo_triangularize(t.matrix.tolist())[0])) == 3

    def test_sum_is_order_invariant(self):
        rng = np.random.default_rng(28)
        for _ in range(30):
            t = transform(ChannelSpec.plain(rng.normal(size=3), 10 ** rng.uniform(0.5, 3)))
            total = sum(t.rates)
            for pt in pseudo_triangularize(t.matrix):
                assert sum(rate_allocation(t, pt)) == pytest.approx(total, rel=1e-12)
