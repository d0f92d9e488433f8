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
from cfrates.lattice import DEFAULT_BUDGET, BudgetExceeded, successive_minima
from cfrates.linalg import sylvester_logdet
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

import oracles


def frac_rows(mat):
    return [[Fraction(x) for x in row] for row in mat]


def pi_feasible_oracle(a, pi):
    k = len(a)
    for i in range(1, k):
        system = [[a[m][pi[j]] for m in range(i)] for j in range(i)]
        rhs = [-a[i][pi[j]] for j in range(i)]
        if oracles.solve(system, rhs) is None:
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
        x = oracles.solve([[a[m][pi[j]] for m in range(i)] for j in range(i)], [-a[i][pi[j]] for j in range(i)])
        if x is None:
            return None
        lower[i][:i] = x
    return pi, tuple(map(tuple, lower)), oracles.matmul(lower, a)


def brute_force_reference(a, enumerate_limit=8):
    """(pi, L, L A) for every feasible permutation, or for the greedy one beyond the limit."""
    rows = np.asarray(a).tolist()
    if len(rows) > enumerate_limit:
        return [triangularize_reference(rows, greedy_pi_reference(rows))]
    found = (triangularize_reference(rows, pi) for pi in itertools.permutations(range(len(rows))))
    return [out for out in found if out is not None]


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
        if oracles.rank(a) == k:
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
# with the earlier Fraction-based lift, whose answers oracles.mod_p_lift gives
DENSE_K8_DIGEST = "d61143e94e6294c54626d432452e2c28314ff74d5eb3c73f0869d1f3b771d4ff"

# sha256 over the whole `cfrates rates` pipeline on default_rng(13) plain
# MACs, 8 per K for K=2..6 at 10-40 dB: the transform rows with 17-digit beta,
# sigma2 and rate, the sum-rate bounds, and for every order its pi, L, p, both
# lifted row sets and its allocation; beta and the bounds are exact ratios
# rounded once
PIPELINE_DIGEST = "8d3d9f48f369dac192c59e0bae78c667d4cb2169322ffd5e644a2b4741ceb5ea"


@st.composite
def full_rank_matrices(draw):
    k = draw(st.integers(2, 6))
    a = np.array(draw(st.lists(st.lists(st.integers(-4, 4), min_size=k, max_size=k), min_size=k, max_size=k)))
    assume(oracles.rank(a) == k)
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
            assert oracles.rank(t.matrix) == 3
            assert all(a >= b - 1e-12 for a, b in zip(t.rates, t.rates[1:]))
            for res, row in zip(t.results, t.matrix):
                assert res.a == tuple(row.tolist())

    def test_rows_have_full_rank_on_every_path(self):
        """Each search's rows are independent by construction; ``transform`` does not eliminate them again.

        K = 1..8, plain and weighted channels, -10..300 dB, through the K <= 3 kernel and the K >= 4 walk
        (``auto``), LLL (``lll``) and the LLL fallback (``auto`` at ``budget=0``, K >= 4).
        """
        rng = np.random.default_rng(30)
        checked = 0
        for k in range(1, 9):
            for weighted in (False, True):
                for snr_db in rng.uniform(-10.0, 300.0, size=4):
                    b_sq = 10 ** rng.uniform(-1.0, 1.0, size=k) if weighted else np.ones(k)
                    ch = ChannelSpec.effective(rng.normal(size=k), b_sq, 10 ** (snr_db / 10))
                    for method, budget in (("auto", DEFAULT_BUDGET), ("lll", DEFAULT_BUDGET), ("auto", 0)):
                        try:
                            t = transform(ch, method, budget)
                        except ValueError as exc:
                            assert "positive-rate" in str(exc)
                            continue
                        assert t.method == ("lll" if method == "lll" or (budget == 0 and k >= 4) else "exhaustive")
                        assert oracles.rank(t.matrix) == k
                        checked += 1
        assert checked >= 180

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

    @pytest.mark.parametrize("method", ["auto", "exhaustive", "lll"])
    @pytest.mark.parametrize("budget", [float("nan"), "10", None, 2.5, 100.0])
    def test_non_integer_budget_rejected(self, method, budget):
        # nan once compared false with every node count, so a search ran with no budget; text and None raised
        # TypeError from the comparison, and 2.5 was taken as a budget
        ch = ChannelSpec.plain([1.0, 0.62, 0.34, 0.21], 1e3)
        with pytest.raises(ValueError, match="budget must be nonnegative and integral"):
            transform(ch, method=method, budget=budget)

    def test_numpy_integer_budget(self):
        ch = ChannelSpec.plain([1.0, 0.62, 0.34, 0.21], 1e3)
        assert transform(ch, "exhaustive", budget=np.int64(10_000)) == transform(ch, "exhaustive")

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
        assert [r.sigma2_eff for r in t.results] == [float(oracles.norm(ch, r.a)) for r in t.results]
        assert oracles.norm(ch, (0, 0, 0, 1)) < oracles.norm(ch, (1, 1, 1, 0))
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
        assert [r.sigma2_eff for r in t.results] == [float(oracles.norm(channel, r.a)) for r in t.results]
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
        assert moved.q == ChannelSpec(ch.gains, 2 * ch.snr, ch.weights_sq).q
        assert oracles.den(moved) != oracles.den(ch)
        with pytest.raises(ValueError, match="snr must be positive"):
            dataclasses.replace(ch, snr=-1.0)

    def test_m_is_built_once_per_channel(self, monkeypatch):
        """``transform``, two ``gram()`` calls, the bounds and the Gram search share one ``ChannelSpec`` and one integer Gram."""
        calls = []
        build = linalg._integer_gram

        def counting_build(ch):
            calls.append(ch)
            return build(ch)

        monkeypatch.setattr(linalg, "_integer_gram", counting_build)
        for gains, b_sq, snr in (((0.7, -1.3, 0.4), (1.0, 2.5, 0.6), 10**2.5), ((1.0, 0.62, 0.34, 0.21), None, 1e3)):
            calls.clear()
            ch = ChannelSpec(gains, snr, b_sq)
            t = transform(ch)
            grams = ch.gram(), ch.gram()
            assert all(gram._spec is ch for gram in grams)
            assert successive_minima(grams[0]).vectors == tuple(r.a for r in t.results)
            sum_rate_bounds(t)
            transform(ch, "lll")
            assert len(calls) == 1 and calls[0] is ch

    @pytest.mark.parametrize("kind", [list, tuple, np.array])
    def test_equality_and_hash_compare_values(self, kind):
        """A spec built from lists, tuples or arrays equals and hashes as ``plain``'s, and so does its transform."""
        plain = ChannelSpec.plain([1.0, 2.0], 10.0)
        spec = ChannelSpec(gains=kind([1.0, 2.0]), snr=10.0, weights_sq=kind([1.0, 1.0]))
        assert spec == plain and hash(spec) == hash(plain)
        assert spec.gains == (1.0, 2.0) and spec.weights_sq == (1.0, 1.0) and type(spec.snr) is float
        assert transform(spec) == transform(plain) and hash(transform(spec)) == hash(transform(plain))
        assert ChannelSpec(kind([1, 2]), np.float64(10), None) == plain
        assert {spec: 1}[plain] == 1


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
        assert [r.sigma2_eff for r in t.results] == [float(oracles.norm(channel, r.a)) for r in t.results]


@pytest.mark.parametrize("k", [1, 4], ids=["K=1", "K=4"])
def test_norm_that_rounds_to_snr_is_kept_at_rate_0(k):
    # a^T G a = 1 - 1e-20 / (1 + k 1e-20) < snr = 1 exactly, so each row is kept, though its norm rounds to 1.0;
    # K = 4 searches by the walk, with the same integer positive-rate test as K = 1
    rows = transform(ChannelSpec.plain([1e-10] * k, 1.0)).results
    assert {row.a for row in rows} == {tuple(int(i == j) for j in range(k)) for i in range(k)} and len(rows) == k
    assert all(row.sigma2_eff == 1.0 and row.r_comp == 0.0 for row in rows)


class TestHighSnrExactNorms:
    """60-160 dB: each noise norm is the exact a^T G a rounded once and each vector a successive minimum."""

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(2, 5),
        snr_db=st.floats(60.0, 160.0),
        seed=st.integers(0, 2**32 - 1),
        weighted=st.booleans(),
    )
    def test_against_exact_rationals(self, k, snr_db, seed, weighted):
        rng = np.random.default_rng(seed)
        b_sq = rng.uniform(0.25, 4.0, size=k) if weighted else np.ones(k)
        ch = ChannelSpec.effective(rng.normal(size=k), b_sq, 10 ** (snr_db / 10))
        t = transform(ch, method="exhaustive")
        assert len(oracles.certify(ch, [r.a for r in t.results], [r.sigma2_eff for r in t.results])) == k


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
        """The bounds check no channel again; upper and ``sylvester_logdet`` are log2 of exact ratios rounded once, bit for bit.

        upper is 0.5 log2(den / det B) and the log-determinant log2(snr^3 det B / den).
        """
        gains, snr = (0.7, -1.3, 0.4), 10**2.5
        ch = ChannelSpec.plain(gains, snr) if b_sq is None else ChannelSpec.effective(gains, b_sq, snr)
        t = transform(ch)
        ratio = oracles.den(ch) / math.prod(map(Fraction, ch.weights_sq))
        upper = 0.5 * math.log2(float(ratio))
        assert sylvester_logdet(gains, snr, b_sq) == math.log2(float(Fraction(snr) ** 3 / ratio))

        def refuse(*args):
            raise AssertionError("a channel was checked again")

        monkeypatch.setattr(ChannelSpec, "__post_init__", refuse)
        monkeypatch.setattr(linalg, "_vector", refuse)
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
                x = oracles.solve([[rows[m][c] for m in range(i)] for c in cols], [-rows[i][c] for c in cols])
                assert [Fraction(lower[m], q) for m in range(i)] == x


class TestPseudoTriangularize:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(full_rank_matrices())
    def test_steps_in_normal_form(self, a):
        assert_steps_in_normal_form(a)

    def test_greedy_steps_in_normal_form(self):
        rng = np.random.default_rng(26)
        a = rng.integers(-3, 4, size=(9, 9))
        while oracles.rank(a) != 9:
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
            if oracles.rank(a) != 3:
                continue
            done += 1
            pts = pseudo_triangularize(a)
            assert len(pts) >= 1
            feasible = {pt.pi for pt in pts}
            rows = frac_rows(a)
            for pt in pts:
                assert oracles.matmul(pt.lower.entries, a) == pt.a_tilde.entries
                for i in range(3):
                    for j in range(i):
                        assert pt.a_tilde[i, pt.pi[j]] == 0
                    assert pt.a_tilde[i, pt.pi[i]] != 0
            # every rejected permutation must fail the row-feasibility oracle
            for pi in itertools.permutations(range(3)):
                assert (pi in feasible) == pi_feasible_oracle(rows, pi)

    def test_singular_rejected(self):
        """The walk decides the rank: singular matrices at K = 1..9 (K = 9 takes the greedy branch)."""
        rng = np.random.default_rng(30)
        matrices = [[[0]], [[1, 2], [2, 4]], [[1, 0, 2], [3, 0, 1], [2, 0, 5]]]
        for k in range(2, 10):
            for dependent in sorted({0, k // 2, k - 1}):  # a row that is an integer combination of the others
                a = rng.integers(-3, 4, size=(k, k))
                a[dependent] = rng.integers(-2, 3, size=k - 1) @ np.delete(a, dependent, axis=0)
                matrices.append(a)
        for a in matrices:
            assert oracles.rank(a) < len(a)
            with pytest.raises(ValueError, match="^matrix must be full rank$"):
                pseudo_triangularize(a)

    def test_singular_rejected_within_k_reductions(self, monkeypatch):
        # rows 0..6 of DENSE_K8 are independent and row 7 is not, so the first descent reaches row 7
        # and finds its row of L A zero: one _reduce per row, and no order or other prefix is tried
        module = importlib.import_module("cfrates.transform")
        reduce, calls = module._reduce, []
        monkeypatch.setattr(module, "_reduce", lambda *args: calls.append(args) or reduce(*args))
        a = DENSE_K8.copy()
        a[7] = a[1] - 2 * a[4] + a[6]
        with pytest.raises(ValueError, match="^matrix must be full rank$"):
            pseudo_triangularize(a)
        assert len(calls) == 8

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
        while oracles.rank(a) != 9:
            a = rng.integers(-3, 4, size=(9, 9))
        pts = pseudo_triangularize(a)
        assert len(pts) == 1
        pt = pts[0]
        assert sorted(pt.pi) == list(range(9))
        assert oracles.matmul(pt.lower.entries, a) == pt.a_tilde.entries

    @pytest.mark.parametrize("k,count", [(2, 40), (3, 40), (4, 20), (5, 4), (6, 1)])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_matches_brute_force(self, k, count, sparse):
        rng = np.random.default_rng(100 * k + sparse)
        for _ in range(count):
            a = seeded_full_rank(rng, k, sparse)
            assert as_tuples(pseudo_triangularize(a)) == brute_force_reference(a)

    @pytest.mark.parametrize("k,limit", [(5, 3), (9, 8)])
    def test_greedy_matches_brute_force(self, k, limit, monkeypatch):
        # the K > limit branch at K = 5, under a lowered limit, and at K = 9 under the module's own
        monkeypatch.setattr(importlib.import_module("cfrates.transform"), "_ENUMERATE_LIMIT", limit)
        rng = np.random.default_rng(k)
        for sparse in (False, True):
            a = seeded_full_rank(rng, k, sparse)
            assert as_tuples(pseudo_triangularize(a)) == brute_force_reference(a, limit)

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
            if oracles.rank(a) != 3:
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
                assert lift_tuple(mod_p_lift(a, pt)) == oracles.mod_p_lift(a, pt.lower.entries, pt.pi)

    def test_transform_k7_matches_fraction_reference(self):
        for pt in pseudo_triangularize(TRANSFORM_K7):
            assert lift_tuple(mod_p_lift(TRANSFORM_K7, pt)) == oracles.mod_p_lift(TRANSFORM_K7, pt.lower.entries, pt.pi)

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
        # p is the least prime that divides no row denominator q_i and no q_i (L A)_{i, pi_i}
        for pt in pseudo_triangularize(a):
            assert lift_tuple(mod_p_lift(a, pt)) == oracles.mod_p_lift(a, pt.lower.entries, pt.pi)

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

    @pytest.mark.parametrize(
        "a",
        [
            EXAMPLE_A,
            EXAMPLE_A.astype(float),
            [(2, 1), (3, 1)],
            ((2, 1), (3, 1)),
            [np.array([2, 1]), (3.0, 1.0)],
            EXAMPLE_A + 1,
            [[2, 1], [3, 1.5]],
            [2, 1],
            [[2, 1], [3]],
            [[2, 1, 0], [3, 1, 0]],
            "21 31",
            [b"21", b"31"],
            EXAMPLE_A[None],
            [[[2], [1]], [[3], [1]]],
            np.zeros((0, 2), int),
            [],
        ],
        ids=[
            "int-array", "float-array", "tuple-rows", "tuple-of-tuples", "mixed-rows", "other-values", "non-integer",
            "vector", "ragged", "wide", "text", "bytes-rows", "3-d-array", "3-d-lists", "empty-array", "empty-list",
        ],
    )
    def test_row_read_accepts_what_the_matrix_check_did(self, a):
        # the plain row read accepts exactly the inputs whose _matrix rows equal the source rows, and
        # refuses the rest with the same ValueError
        pt = pseudo_triangularize(EXAMPLE_A)[0]
        message = "matrix is not the one the triangularization was built from"
        try:
            accepted = linalg._matrix(a, message) == EXAMPLE_A.tolist()
        except ValueError:
            accepted = False
        if accepted:
            assert mod_p_lift(a, pt) == mod_p_lift(EXAMPLE_A, pt)
        else:
            with pytest.raises(ValueError, match=f"^{message}$"):
                mod_p_lift(a, pt)

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
