"""Transform assembly, sum-rate sandwich, triangularization, mod-p lift."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cfrates.linalg import RationalMatrix, exact_rank, exact_solve_in_span
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


def ref_solvable(system, rhs):
    """Independent feasibility oracle: straight rational row reduction."""
    rows = [list(r) + [b] for r, b in zip(system, rhs)]
    n_rows = len(rows)
    n_cols = len(system[0]) if system else 0
    r = 0
    for col in range(n_cols):
        piv = next((i for i in range(r, n_rows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(n_rows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return all(rows[i][-1] == 0 for i in range(r, n_rows))


def pi_feasible_oracle(a, pi):
    k = len(a)
    for i in range(1, k):
        system = [[Fraction(a[m][pi[j]]) for m in range(i)] for j in range(i)]
        rhs = [Fraction(-a[i][pi[j]]) for j in range(i)]
        if not ref_solvable(system, rhs):
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
        x = exact_solve_in_span([[a[m][pi[j]] for m in range(i)] for j in range(i)], [-a[i][pi[j]] for j in range(i)])
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
