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

from cfrates import cli
from cfrates.linalg import RationalMatrix, _channel, exact_rank
from cfrates.rates import comp_rate
from cfrates.transform import (
    ChannelSpec,
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
        ch = ChannelSpec.plain([1.0, 0.62, 0.34], 1e3)
        t = transform(ch, method="auto", budget=3)
        assert t.method == "lll"
        from cfrates.lattice import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            transform(ch, method="exhaustive", budget=3)

    def test_no_positive_rate_set_rejected(self):
        with pytest.raises(ValueError, match="positive-rate"):
            transform(ChannelSpec.plain([0.0, 0.0], 5.0))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            transform(ChannelSpec.plain([1.0], 10.0), method="fastest")


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

    def test_lll_transform_warns(self):
        t = transform(ChannelSpec.plain([1.0, 1.7], 100.0), method="lll")
        with pytest.warns(UserWarning):
            sum_rate_bounds(t)


class TestPseudoTriangularize:
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

    def test_wrong_row_solve_is_runtime_error(self, monkeypatch, capsys):
        """An exact-invariant guard raises RuntimeError, which the CLI reports as an error."""
        module = importlib.import_module("cfrates.transform")
        monkeypatch.setattr(module, "_solve_scaled", lambda aug, rhs: (1, [0] * len(rhs)))
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

    @settings(max_examples=40, deadline=None)
    @given(full_rank_matrices())
    def test_smallest_prime_clearing_the_units(self, a):
        k = len(a)
        rows = a.tolist()
        for pt in pseudo_triangularize(a):
            lift = mod_p_lift(a, pt)
            lower = pt.lower.entries
            denoms = [math.lcm(*(x.denominator for x in row)) for row in lower]
            diag = [sum(lower[i][m] * rows[m][pt.pi[i]] for m in range(k)) * denoms[i] for i in range(k)]
            units = [int(x) for x in denoms + diag]
            p = lift.p
            assert is_prime(p) and all(u % p for u in units)
            assert all(any(u % f == 0 for u in units) for f in range(2, p) if is_prime(f))
            assert lift.row_denominators == tuple(denoms)
            lower_p = [[int(x * q) * pow(q, -1, p) % p for x in row] for row, q in zip(lower, denoms)]
            assert lift.lower_mod_p.tolist() == lower_p
            tilde_p = [[sum(lower_p[i][m] * rows[m][c] for m in range(k)) % p for c in range(k)] for i in range(k)]
            assert lift.a_tilde_mod_p.tolist() == tilde_p

    def test_other_matrix_rejected(self):
        for other in ([[1, 1], [1, 2]], np.eye(3, dtype=int)):
            pt = pseudo_triangularize(other)[0]
            with pytest.raises(ValueError, match="not the one"):
                mod_p_lift(EXAMPLE_A, pt)

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

    def test_sum_is_order_invariant(self):
        rng = np.random.default_rng(28)
        for _ in range(30):
            t = transform(ChannelSpec.plain(rng.normal(size=3), 10 ** rng.uniform(0.5, 3)))
            total = sum(t.rates)
            for pt in pseudo_triangularize(t.matrix):
                assert sum(rate_allocation(t, pt)) == pytest.approx(total, rel=1e-12)
