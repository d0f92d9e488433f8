"""Coefficient search: one minimum at a time outside the found span, LLL fallback."""

import math

import numpy as np
import pytest

from cfrates.lattice import (
    BudgetExceeded,
    canonicalize,
    candidate_bound,
    lll_reduce,
    successive_minima,
)
from cfrates.linalg import RationalSpan, cholesky, exact_rank, gram_effective, gram_plain
from cfrates.symmetric_ic import SymmetricIcSpec, _hk_channel


def cube_minima(gram, bound_sq):
    """Independent oracle: rank every vector of the full cube, pick greedily."""
    g = gram.entries
    k = gram.dim
    r = math.ceil(math.sqrt(bound_sq))
    axes = [np.arange(-r, r + 1)] * k
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
    grid = grid[grid.any(axis=1)]
    first = (grid != 0).argmax(axis=1)
    grid = grid[grid[np.arange(grid.shape[0]), first] > 0]
    norms = np.einsum("ij,ij->i", grid @ g, grid)
    order = np.lexsort(tuple(grid[:, c] for c in range(k - 1, -1, -1)) + (norms,))
    if norms[order[0]] >= gram.snr:
        return (), ()
    span = RationalSpan(k)
    vecs, out = [], []
    for idx in order:
        vec = tuple(int(x) for x in grid[idx])
        if span.try_add(vec):
            vecs.append(vec)
            out.append(float(norms[idx]))
            if len(vecs) == k:
                break
    return tuple(vecs), tuple(out)


def greedy_minima(gram):
    """Reference: the sort-then-greedy search that successive_minima replaced.

    Enumerate every lattice point (one per +-pair) in the sphere of the
    largest LLL norm, rank all of them by (a^T G a, canonical lex), and keep
    each one that is exactly independent of those kept.
    """
    g, k = gram.entries, gram.dim
    chol = cholesky(gram)
    q = chol.T
    radius_sq = max(lll_reduce(chol).norms) * (1.0 + 1e-9)
    slack = 1e-9 * radius_sq
    a, found = [0] * k, []

    def descend(level, remaining, tail_zero):
        diag = q[level, level]
        center = -sum(q[level, j] * a[j] for j in range(level + 1, k)) / diag
        half_width = math.sqrt(max(remaining, 0.0)) / diag
        lo = math.ceil(center - half_width - 1e-12)
        hi = math.floor(center + half_width + 1e-12)
        for v in range(max(lo, 0) if tail_zero else lo, hi + 1):
            cost = (diag * (v - center)) ** 2
            if cost > remaining + slack:
                continue
            a[level] = v
            if level > 0:
                descend(level - 1, remaining - cost, tail_zero and v == 0)
            elif not (tail_zero and v == 0):
                found.append(tuple(a))
        a[level] = 0

    descend(k - 1, radius_sq, True)
    cand = np.array(found, dtype=np.int64)
    first_nonzero = (cand != 0).argmax(axis=1)
    cand *= np.sign(cand[np.arange(cand.shape[0]), first_nonzero])[:, None]
    norms = np.einsum("ij,ij->i", cand @ g, cand)
    order = np.lexsort(tuple(cand[:, col] for col in range(k - 1, -1, -1)) + (norms,))
    if norms[order[0]] >= gram.snr:
        return (), ()
    span, vecs, out = RationalSpan(k), [], []
    for idx in order:
        vec = tuple(int(x) for x in cand[idx])
        if span.try_add(vec):
            vecs.append(vec)
            out.append(float(norms[idx]))
            if len(vecs) == k:
                break
    return tuple(vecs), tuple(out)


def random_grams(seed, n, k_range, db_max):
    """Seeded plain and effective Grams, snr uniform in dB on [0, db_max]."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        k = int(rng.integers(k_range[0], k_range[1] + 1))
        snr = 10 ** (rng.uniform(0, db_max) / 10)
        g = rng.normal(size=k)
        yield gram_effective(g, rng.uniform(0.5, 4, size=k), snr) if rng.integers(0, 2) else gram_plain(g, snr)


class TestCanonicalize:
    def test_flips_leading_negative(self):
        assert canonicalize([-2, 1]).tolist() == [2, -1]
        assert canonicalize([0, -1, 3]).tolist() == [0, 1, -3]
        assert canonicalize([3, -1]).tolist() == [3, -1]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            canonicalize([0, 0])


class TestCandidateBound:
    def test_scalar(self):
        assert candidate_bound([1.0], 3.0) == pytest.approx(4.0, rel=1e-15)

    def test_reference_channel(self):
        got = candidate_bound([math.sqrt(5), 1.0], 10**1.5)
        assert got == pytest.approx(1 + 6 * 10**1.5, rel=1e-12)

    def test_effective(self):
        assert candidate_bound([1.0, 2.0], 10.0, [1.0, 2.0]) == pytest.approx(91.0, rel=1e-12)


class TestSuccessiveMinima:
    def test_reference_two_user(self):
        gram = gram_plain([math.sqrt(5), 1.0], 10**1.5)
        opt = successive_minima(gram)
        assert opt.vectors == ((2, 1), (3, 1))
        rates = [0.5 * math.log2(gram.snr / n) for n in opt.norms]
        assert rates[0] == pytest.approx(2.409, abs=2e-3)
        assert rates[1] == pytest.approx(1.372, abs=2e-3)

    def test_decoupled_coordinates(self):
        opt = successive_minima(gram_plain([1.0, 0.0], 1e4))
        assert opt.vectors == ((1, 0), (0, 1))

    def test_three_user_against_cube(self):
        h = np.array([1.0, 0.7, 0.3])
        snr = 100.0
        gram = gram_plain(h, snr)
        opt = successive_minima(gram)
        vecs, norms = cube_minima(gram, candidate_bound(h, snr))
        assert opt.vectors == vecs
        assert opt.norms == pytest.approx(norms, rel=1e-12)
        assert max(abs(x) for vec in vecs for x in vec) <= 15

    def test_random_instances_match_cube(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            k = int(rng.integers(2, 4))
            h = rng.normal(size=k) * (10 ** rng.uniform(-0.5, 0.5))
            snr = 10 ** rng.uniform(0, 2)
            gram = gram_plain(h, snr)
            opt = successive_minima(gram)
            vecs, norms = cube_minima(gram, candidate_bound(h, snr))
            assert opt.vectors == vecs
            assert opt.norms == pytest.approx(norms, rel=1e-12)

    def test_invariants_hold(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            gram = gram_plain(rng.normal(size=k), 10 ** rng.uniform(0, 3))
            opt = successive_minima(gram)
            assert len(opt) == k
            assert exact_rank(opt.matrix) == k
            assert all(a <= b + 1e-15 for a, b in zip(opt.norms, opt.norms[1:]))
            for vec in opt.vectors:
                nz = next(x for x in vec if x != 0)
                assert nz > 0

    def test_scaling_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            k = int(rng.integers(2, 4))
            h = rng.normal(size=k)
            snr = 10 ** rng.uniform(0.5, 2)
            c = 10 ** rng.uniform(-0.5, 0.5)
            base = successive_minima(gram_plain(h, snr))
            scaled = successive_minima(gram_plain(c * h, snr / (c * c)))
            assert base.vectors == scaled.vectors
            # norms scale exactly by 1/c^2
            ratio = np.array(scaled.norms) / np.array(base.norms)
            np.testing.assert_allclose(ratio, 1 / c**2, rtol=1e-9)

    def test_all_rates_nonpositive_gives_empty(self):
        opt = successive_minima(gram_plain([0.0, 0.0], 5.0))
        assert opt.vectors == ()
        assert opt.norms == ()

    @pytest.mark.parametrize(
        "seed, n, k_range, db_max", [(31, 400, (2, 5), 60.0), (32, 12, (6, 8), 40.0)]
    )
    def test_matches_sort_then_greedy(self, seed, n, k_range, db_max):
        for gram in random_grams(seed, n, k_range, db_max):
            vecs, norms = greedy_minima(gram)
            opt = successive_minima(gram)
            assert opt.vectors == vecs, (gram.dim, gram.snr)
            # the batch product cand @ g rounds differently with the row count
            assert opt.norms == pytest.approx(norms, rel=1e-9)

    def test_layered_channel_needs_few_nodes(self):
        # K=3 at 45 dB: the plane of the first two minima holds tens of
        # thousands of points inside the last minimum's sphere; searching one
        # minimum at a time outside the found span never visits them
        spec = SymmetricIcSpec(3, 177.82794100389228, 10**4.5)
        gram = _hk_channel(spec, math.sqrt(1.0 / spec.inr)).gram()
        assert successive_minima(gram, budget=1000) == successive_minima(gram)
        assert successive_minima(gram).vectors == greedy_minima(gram)[0]

    def test_missed_minimum_is_a_runtime_error(self, monkeypatch):
        # spheres shrunk below the LLL norms hold no candidate
        monkeypatch.setattr("cfrates.lattice._RADIUS_SLACK", -0.5)
        with pytest.raises(RuntimeError, match="missed a successive minimum"):
            successive_minima(gram_plain([1.0, 0.62, 0.34], 1e3))

    def test_budget_exceeded(self):
        gram = gram_plain([1.0, 0.62, 0.34], 1e3)
        with pytest.raises(BudgetExceeded):
            successive_minima(gram, budget=3)


class TestLll:
    def test_identity_basis(self):
        opt = lll_reduce(np.eye(3))
        assert sorted(opt.vectors) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        assert opt.norms == (1.0, 1.0, 1.0)

    def test_reference_channel_matches_exhaustive(self):
        gram = gram_plain([math.sqrt(5), 1.0], 10**1.5)
        exact = successive_minima(gram)
        reduced = lll_reduce(cholesky(gram))
        assert reduced.vectors == exact.vectors
        assert reduced.norms == pytest.approx(exact.norms, rel=1e-12)

    def test_lovasz_condition_holds(self):
        rng = np.random.default_rng(20)
        delta = 0.99
        for _ in range(50):
            gram = gram_plain(rng.normal(size=4), 10 ** rng.uniform(0, 3))
            chol = cholesky(gram)
            from cfrates.lattice import _lll_coords

            coords = _lll_coords(chol.T, delta)
            basis = chol.T @ coords
            ortho = np.zeros_like(basis)
            mu = np.zeros((4, 4))
            for i in range(4):
                ortho[:, i] = basis[:, i]
                for j in range(i):
                    mu[i, j] = float(basis[:, i] @ ortho[:, j]) / float(ortho[:, j] @ ortho[:, j])
                    ortho[:, i] -= mu[i, j] * ortho[:, j]
            for i in range(1, 4):
                lhs = float(ortho[:, i] @ ortho[:, i])
                rhs = (delta - mu[i, i - 1] ** 2) * float(ortho[:, i - 1] @ ortho[:, i - 1])
                assert lhs >= rhs - 1e-9 * abs(rhs)

    def test_exhaustive_dominates(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            weighted = bool(rng.integers(0, 2))
            g = rng.normal(size=k)
            snr = 10 ** rng.uniform(0, 3)
            gram = (
                gram_effective(g, rng.uniform(1, 4, size=k), snr) if weighted else gram_plain(g, snr)
            )
            exact = successive_minima(gram)
            reduced = lll_reduce(cholesky(gram))
            for a, b in zip(exact.norms, reduced.norms):
                assert a <= b * (1 + 1e-12)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            lll_reduce(np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            lll_reduce(np.eye(2), delta=0.2)
