"""Coefficient search: one minimum at a time outside the found span, LLL fallback."""

import copy
import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfrates.lattice
import cfrates.linalg
from cfrates.lattice import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    _dot,
    _fold,
    _gso,
    _lll,
    _search,
    _start,
    _walk,
    canonicalize,
    lll_reduce,
    successive_minima,
)
from cfrates.linalg import GramMatrix, _mantissas, _q_gram, _q_matrix, cholesky, gram_effective, gram_plain
from cfrates.symmetric_ic import SymmetricIcSpec, _hk_channel, effective_two_user, report
from cfrates.transform import ChannelSpec, transform

import oracles


def cube_minima(gram, bound_sq):
    """Brute force: rank every vector of the full cube, keep each one that raises the rank."""
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
    vecs, out = [], []
    for idx in order:
        vec = tuple(int(x) for x in grid[idx])
        if oracles.rank([*vecs, vec]) > len(vecs):
            vecs.append(vec)
            out.append(float(norms[idx]))
            if len(vecs) == k:
                break
    return tuple(vecs), tuple(out)


def mantissa_gram(rows):
    """(g, d): the integer Gram of float rows' mantissas over one power of two d, as ``lll_reduce`` builds it; g = d^2 rows rows^T."""
    flat, d = _mantissas(tuple(x for row in rows for x in row))
    k = len(rows)
    ints = [flat[i * k : (i + 1) * k] for i in range(k)]
    return [[_dot(u, v) for v in ints] for u in ints], d


def certify_searches(cases):
    """``oracles.certify`` on ``_search``'s answer for each channel record; returns (empty sets, sets with an exact tie)."""
    empty = tied = 0
    for ch in cases:
        opt = _search(ch, DEFAULT_BUDGET)
        assert opt.method == "exhaustive"
        exact = oracles.certify(ch, opt.vectors, opt.norms)
        empty += not exact
        tied += len(set(exact)) < len(exact)
    return empty, tied


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
        assert canonicalize([1 - 2**63, 1]).tolist() == [2**63 - 1, -1]
        assert canonicalize([1, -(2**63)]).tolist() == [1, -(2**63)]
        assert canonicalize([-1, 2**63]).tolist() == [1, -(2**63)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            canonicalize([0, 0])

    @pytest.mark.parametrize("vec", [[-0.5, 1], [1.5, -2], [np.nan, 1], [1, np.inf], [-np.inf, 2]])
    def test_non_integer_rejected(self, vec):
        with pytest.raises(ValueError, match="must be integer"):
            canonicalize(vec)

    @pytest.mark.parametrize("vec", [[1e20, 1], [2**70, 1], [10**400, 1], [-(2**63), 1], [1, 2**63]])
    def test_entries_past_int64_rejected(self, vec):
        # the canonical form must fit: [-2^63, 1] becomes [2^63, -1], which does not
        with pytest.raises(ValueError, match="fit int64"):
            canonicalize(vec)

    def test_integer_valued_floats_accepted(self):
        got = canonicalize([-2.0, 1.0, 0.0])
        assert got.dtype == np.int64
        assert got.tolist() == [2, -1, 0]
        assert canonicalize(np.array([0.0, -3.0])).tolist() == [0, 3]


class TestCandidateBound:
    """The squared-norm bound den = 1 + snr g^T B g below which vectors can have positive rate, exact in ``q`` as D / (ds dg^2 db)."""

    @staticmethod
    def q_den(ch) -> Fraction:
        _, _, d, _, ds, dg, u = ch.q
        return Fraction(d, ds * dg * dg * (u // d))  # db = U / D

    def test_scalar(self):
        assert self.q_den(ChannelSpec.plain([1.0], 3.0)) == 4

    def test_reference_channel(self):
        ch = ChannelSpec.plain([math.sqrt(5), 1.0], 10**1.5)
        assert self.q_den(ch) == oracles.den(ch)
        assert float(self.q_den(ch)) == pytest.approx(1 + 6 * 10**1.5, rel=1e-12)

    def test_effective(self):
        assert self.q_den(ChannelSpec([1.0, 2.0], 10.0, [1.0, 2.0])) == 91


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
        vecs, norms = cube_minima(gram, float(oracles.den(gram._spec)))
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
            vecs, norms = cube_minima(gram, float(oracles.den(gram._spec)))
            assert opt.vectors == vecs
            assert opt.norms == pytest.approx(norms, rel=1e-12)
            oracles.certify(gram._spec, vecs, opt.norms)  # the certificate accepts the brute force's answer

    def test_invariants_hold(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            gram = gram_plain(rng.normal(size=k), 10 ** rng.uniform(0, 3))
            opt = successive_minima(gram)
            assert len(opt) == k
            assert oracles.rank(opt.matrix) == k
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
        "seed, n, k_range, db_max", [(31, 400, (2, 5), 60.0), (32, 12, (6, 8), 40.0), (41, 300, (2, 5), 100.0), (42, 30, (6, 8), 100.0)]
    )
    def test_equals_the_exact_minima(self, seed, n, k_range, db_max):
        # plain and effective Grams, each answer certified on the channel the Gram carries
        for gram in random_grams(seed, n, k_range, db_max):
            opt = successive_minima(gram)
            oracles.certify(gram._spec, opt.vectors, opt.norms)

    def test_layered_channel_needs_few_nodes(self):
        # K=3 at 45 dB: the plane of the first two minima holds tens of
        # thousands of points inside the last minimum's sphere; searching one
        # minimum at a time outside the found span never visits them
        spec = SymmetricIcSpec(3, 177.82794100389228, 10**4.5)
        gram = _hk_channel(spec, math.sqrt(1.0 / spec.inr)).gram()
        assert successive_minima(gram, budget=1000) == successive_minima(gram)
        opt = successive_minima(gram)
        oracles.certify(gram._spec, opt.vectors, opt.norms)

    def test_budget_exceeded(self):
        gram = gram_plain([1.0, 0.62, 0.34, 0.21], 1e3)
        with pytest.raises(BudgetExceeded, match="exceeded 3 nodes"):
            successive_minima(gram, budget=3)

    def test_negative_budget_rejected(self):
        gram = gram_plain([1.0, 0.62, 0.34, 0.21], 1e3)
        for budget in (-1, -5):
            with pytest.raises(ValueError, match="budget must be nonnegative"):
                successive_minima(gram, budget=budget)
        with pytest.raises(BudgetExceeded, match="exceeded 0 nodes"):
            successive_minima(gram, budget=0)

    @pytest.mark.parametrize("budget", [float("nan"), "10", None, 2.5, 100.0])
    def test_non_integer_budget_rejected(self, budget):
        gram = gram_plain([1.0, 0.62, 0.34, 0.21], 1e3)
        with pytest.raises(ValueError, match="budget must be nonnegative and integral"):
            successive_minima(gram, budget=budget)


class TestOneSearchPath:
    """``successive_minima`` searches the channel embedding its Gram carries, as ``transform`` does."""

    def test_high_snr_case_equals_transform(self):
        # K=4 at 138.45 dB: a search on the Cholesky rows of the float Gram
        # returned a second norm 0.44% above the minimum
        h = (-1.0864024691496545, -0.192433217899296, 1.8507945516938518, -0.10718041800746184)
        snr = 10 ** (138.45 / 10)
        t = transform(ChannelSpec.plain(h, snr), "exhaustive")
        opt = successive_minima(gram_plain(h, snr))
        assert opt.vectors == tuple(r.a for r in t.results)
        assert opt.norms == tuple(r.sigma2_eff for r in t.results)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        k=st.integers(2, 5),
        snr_db=st.floats(0.0, 130.0),
        seed=st.integers(0, 2**32 - 1),
        weighted=st.booleans(),
        from_spec=st.booleans(),
    )
    def test_equals_transform(self, k, snr_db, seed, weighted, from_spec):
        # gains from a seeded generator: hypothesis's favourite floats (1.0, 2.0, ...) are
        # rationally related, whose spheres hold too many points for the budget
        rng = np.random.default_rng(seed)
        g, snr = rng.normal(size=k), 10 ** (snr_db / 10)
        if weighted:
            b_sq = rng.uniform(0.25, 4.0, size=k)
            ch, gram = ChannelSpec.effective(g, b_sq, snr), gram_effective(g, b_sq, snr)
        else:
            ch, gram = ChannelSpec.plain(g, snr), gram_plain(g, snr)
        if from_spec:
            gram = ch.gram()
        opt = successive_minima(gram)
        if not opt.vectors:
            with pytest.raises(ValueError, match="positive-rate"):
                transform(ch, "exhaustive")
            return
        t = transform(ch, "exhaustive")
        assert opt.vectors == tuple(r.a for r in t.results)
        assert opt.norms == tuple(r.sigma2_eff for r in t.results)

    def test_gram_without_embedding_is_rejected(self):
        g = gram_plain([1.0, 0.62, 0.34], 1e3)
        hand = GramMatrix(g.entries, g.snr)
        moved = dataclasses.replace(g, snr=2 * g.snr)
        # the channel record is outside equality, hash and repr
        assert hand == g and hash(hand) == hash(g) and repr(hand) == repr(g)
        assert moved == GramMatrix(g.entries, 2 * g.snr) and hash(moved) == hash(GramMatrix(g.entries, 2 * g.snr))
        assert moved != g
        # a bare matrix carries no channel either
        for gram in (hand, moved, np.eye(2), [[1, 0], [0, 1]]):
            with pytest.raises(ValueError, match="gram_effective"):
                successive_minima(gram)


def search_cases():
    """(label, channel record, budget) for seeded channels at 0-140 dB, K=4..8, the dimensions the walk searches.

    The "gram" cases search the records that ``random_grams``' Grams
    carry.  Every third case gets a budget of 4K nodes, so some searches
    raise BudgetExceeded part way.
    """
    for k in range(4, 9):
        for i, gram in enumerate(random_grams(80 + k, 60, (k, k), 140.0)):
            yield f"gram K={k} #{i}", gram._spec, 4 * k if i % 3 == 2 else DEFAULT_BUDGET
        rng = np.random.default_rng(100 + k)
        for i in range(20):
            snr = 10 ** (rng.uniform(0, 140) / 10)
            ch = ChannelSpec(rng.normal(size=k), snr, rng.uniform(0.5, 4, size=k))
            yield f"channel K={k} #{i}", ch, 4 * k if i % 3 == 2 else DEFAULT_BUDGET


class TestRefreshAfterMovingFold:
    """The search refreshes its basis only after a fold that moved ``w``, with unchanged results."""

    def test_every_walk_reads_fresh_data(self, monkeypatch):
        # each walk after a fold that moved W reads the data _gso computes afresh, from dd[0] = D, for the new W^T Q W;
        # a fold that left W as it was (test_fold_reports_a_move) left the data too, and the first walk reads _start's
        # (test_start_is_the_sorted_unit_basis_reduced), so every walk does.  An answer is the exact minima, and a
        # search under a budget of 4K either answers or raises BudgetExceeded
        folds, current = [], {}

        def recording_start(ch):
            current["w"], lam, dd = _start(ch)
            return current["w"], lam, dd

        def recording_fold(w, m, c):
            moved = _fold(w, m, c)
            folds.append((m, len(c), moved))
            return moved

        def checking_walk(lam, dd, m, *args):
            if m and folds[-1][2]:
                k, q = len(dd) - 1, current["q"]
                fresh_lam, fresh_dd = [[0] * i for i in range(k)], [current["d"]] + [0] * k
                _gso(oracles.gram_of(q, zip(*current["w"])), fresh_lam, fresh_dd, 0)
                assert (lam, dd) == (fresh_lam, fresh_dd)
            return _walk(lam, dd, m, *args)

        monkeypatch.setattr(cfrates.lattice, "_start", recording_start)
        monkeypatch.setattr(cfrates.lattice, "_fold", recording_fold)
        monkeypatch.setattr(cfrates.lattice, "_walk", checking_walk)
        kinds = set()
        for label, ch, budget in search_cases():
            current["q"], current["d"] = _q_matrix(ch), ch.q[2]
            try:
                opt = _search(ch, budget)
            except BudgetExceeded:
                kinds.add(BudgetExceeded)
                continue
            oracles.certify(ch, opt.vectors, opt.norms)
            kinds.add("ok")
        assert kinds == {"ok", BudgetExceeded}
        # no fold after the last step, and the moving branch is well covered
        assert all(m + 1 < k for m, k, _ in folds)
        assert sum(moved for _, _, moved in folds) >= 20

    def test_start_is_the_sorted_unit_basis_reduced(self):
        # W is unimodular, W^T Q W is LLL-reduced with _gso's data from dd[0] = D, those data are the plain
        # integral ones (dd[0] = 1) over powers of D, and LLL began from Q's unit basis sorted by Q_ii
        for n, (label, ch, _) in enumerate(search_cases()):
            q, (w, lam, dd), d = _q_matrix(ch), _start(ch), ch.q[2]
            cols = [list(col) for col in zip(*w)]
            g, k = oracles.gram_of(q, cols), len(q)
            fresh_lam, fresh_dd = [[0] * i for i in range(k)], [d] + [0] * k
            _gso(g, fresh_lam, fresh_dd, 0)
            assert (lam, dd) == (fresh_lam, fresh_dd), label
            plain_lam, plain_dd = [[0] * i for i in range(k)], [1] + [0] * k
            _gso(g, plain_lam, plain_dd, 0)
            assert [e * d**l for l, e in enumerate(dd[1:])] == plain_dd[1:], label
            assert [[x * d**j for j, x in enumerate(row)] for row in lam] == plain_lam, label
            if n % 9 == 0:
                oracles.assert_lll_reduced(q, cols)
                order = sorted(range(k), key=lambda i: q[i][i])
                u = _lll([[q[i][j] for j in order] for i in order], 0.99)[0]
                assert cols == [[v[order.index(i)] for i in range(k)] for v in u]

    def test_factor_gram_equals_products_through_q(self):
        # D m - S t t^T, m = W^T diag(B) W and t = W^T (BG), equals W^T Q W through the K x K Q, for unimodular and
        # arbitrary integer W
        rng = np.random.default_rng(9)
        for _, ch, _ in itertools.islice(search_cases(), 0, None, 5):
            k, (bm, bgm) = ch.dim, ch.q[:2]
            for cols in (list(zip(*_start(ch)[0])), rng.integers(-9, 10, size=(k, k)).tolist()):
                m = [[sum(b * x * y for b, x, y in zip(bm, u, v)) for v in cols] for u in cols]
                assert _q_gram(ch, m, [_dot(bgm, v) for v in cols]) == oracles.gram_of(_q_matrix(ch), cols)

    def test_fold_reports_a_move(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            m = int(rng.integers(0, k))
            c = tuple(int(x) for x in rng.integers(-3, 4, size=k))
            if c[m] == 0 and not any(c[m + 1 :]):
                continue  # c[m:] must be nonzero, as for every point the walk returns
            w = [[int(i == j) for j in range(k)] for i in range(k)]
            before = copy.deepcopy(w)
            assert _fold(w, m, c) == (w != before)


def exact_search_cases():
    """Channel records with K <= 3, 25-300 dB: interference-channel effective MACs, random MACs and exact ties.

    The single-layer and layered MACs take log-uniform gains over
    [snr^-1/4 / 4, 2 sqrt(snr)) and K in {2, 3, 5}; the random ones are
    weighted, K = 2, 3; the plain [1, 1], [1, 2], [2, 1, 1], [1, 1, 1] and
    [sqrt 5, 1] tie exactly, here also at 10 dB.  Then come weighted integer
    channels, K = 2, 3, gains in {-2..2}, weights in {1..4}, integer snr or
    10/25/80/300 dB, whose {0, +-1} combinations tie exactly: two- and
    three-way, at the first minimum and at later ones, and with candidates
    that are skipped as dependent.  Last come the K <= 3 channels of the
    seeded walk cases at 0-140 dB.
    """
    rng = np.random.default_rng(7)
    for db in (25, 45, 60, 100, 140, 160, 200, 250, 300):
        snr = 10 ** (db / 10)
        for g in np.exp(rng.uniform(math.log(snr**-0.25 / 4), math.log(2 * math.sqrt(snr)), 5)):
            spec = SymmetricIcSpec(int(rng.choice([2, 3, 5])), float(g), snr)
            yield effective_two_user(spec)
            if spec.inr > 1:
                yield _hk_channel(spec, math.sqrt(1 / spec.inr))
        for k in (2, 3):
            yield ChannelSpec(rng.normal(size=k), snr, rng.uniform(0.25, 4, size=k))
    for h in ([1, 1], [1, 2], [2, 1, 1], [1, 1, 1], [math.sqrt(5), 1]):
        for db in (10, 25, 40, 80, 160, 300):
            yield ChannelSpec.plain(h, 10 ** (db / 10))
    rng = np.random.default_rng(26)
    for _ in range(200):
        k = int(rng.integers(2, 4))
        g, b = rng.integers(-2, 3, size=k), rng.integers(1, 5, size=k)
        snr = float(rng.integers(1, 21)) if rng.integers(0, 2) else 10 ** (int(rng.choice([10, 25, 80, 300])) / 10)
        if g.any():
            yield ChannelSpec(g.tolist(), snr, b.tolist())
    for k in (2, 3):
        for gram in random_grams(80 + k, 30, (k, k), 140.0):
            yield gram._spec


def walk_cases():
    """Channel records with K = 4..8, 10-300 dB, for the walk: random MACs and exact ties.

    The random ones are plain and weighted at 10-300 dB.  The plain [1, 1, 1, 1],
    [2, 1, 1, 1], [1, 1, 1, 1, 1] and [2, 2, 1, 1, 1, 1] have minima that tie
    exactly, at every snr; so do many of the weighted integer channels that
    follow: gains in {-2..2}, weights in {1..4}, integer snr or 10/25/80/300 dB.
    Last come plain and weighted K = 7 and 8 MACs at 10/80/160 dB, so every
    dimension up to ``_ENUMERATE_LIMIT`` is covered.
    """
    rng = np.random.default_rng(27)
    for db in (10, 25, 45, 80, 120, 160, 200, 250, 300):
        snr = 10 ** (db / 10)
        for k in (4, 5, 6):
            yield ChannelSpec.plain(rng.normal(size=k), snr)
            yield ChannelSpec(rng.normal(size=k), snr, rng.uniform(0.25, 4, size=k))
    for h in ([1, 1, 1, 1], [2, 1, 1, 1], [1, 1, 1, 1, 1], [2, 2, 1, 1, 1, 1]):
        for db in (10, 40, 160, 300):
            yield ChannelSpec.plain(h, 10 ** (db / 10))
    rng = np.random.default_rng(28)
    for _ in range(40):
        k = int(rng.integers(4, 7))
        g, b = rng.integers(-2, 3, size=k), rng.integers(1, 5, size=k)
        snr = float(rng.integers(1, 21)) if rng.integers(0, 2) else 10 ** (int(rng.choice([10, 25, 80, 300])) / 10)
        if g.any():
            yield ChannelSpec(g.tolist(), snr, b.tolist())
    rng = np.random.default_rng(29)
    for db in (10, 80, 160):
        for k in (7, 8):
            yield ChannelSpec.plain(rng.normal(size=k), 10 ** (db / 10))
            yield ChannelSpec(rng.normal(size=k), 10 ** (db / 10), rng.uniform(0.25, 4, size=k))


# (channel, n): the search walks enter n values in all, so it answers under a budget of n and raises under n - 1
PINNED_NODE_COUNTS = [
    (ChannelSpec.plain([0.3, -1.2, 0.8, 1.5], 10**2.0), 16),
    (ChannelSpec([0.7, -0.4, 1.3, 0.9, -1.1], 10**6.0, [1.5, 0.5, 2.0, 1.0, 3.0]), 26),
    (ChannelSpec.plain([1.1, -0.6, 0.4, 1.7, -0.9, 0.3], 10**16.0), 54),
    (ChannelSpec([0.5, 1.2, -0.8, 0.6, -1.4, 0.9, 0.2], 10**10.0, [2.5, 1.0, 0.75, 1.25, 3.5, 0.5, 2.0]), 71),
    (ChannelSpec.plain([0.3, -1.2, 0.8, 1.5, -0.4, 0.9, 1.1, -0.7], 10**30.0), 153),
    (ChannelSpec.plain([0.83, -1.27, 0.41, 1.59, -0.66, 0.97, 1.13, -0.29], 10**30.0), 124),
    (ChannelSpec([1.3, -0.2, 0.9, -1.6, 0.4, 0.8, -0.5, 1.0], 10**4.0, [0.5, 2.0, 1.5, 1.0, 3.0, 0.25, 1.75, 2.5]), 98),
]


class TestExactWalk:
    """K = 4..8: the integer walk gives the exact successive minima, ties included, from 10 to 300 dB."""

    def test_equals_the_exact_minima(self):
        """As for K <= 3: vector m is the least (exact norm, signed a) outside the span of vectors 0..m-1."""
        empty, tied = certify_searches(walk_cases())
        assert empty == 0 and tied >= 20

    def test_far_shorter_first_minimum_fits_a_small_budget(self):
        # the CLI tests' FALLBACK_ARGS channel: its first minimum is about 1e134 times shorter than the
        # others, and a walk that charged each level's whole range before trying it exceeded 10M nodes
        g = [3.812245313001031e89, 1.127565542431324e90, 2.0273245928995462e90, -2.2212917830164186e90]
        channel = ChannelSpec.effective(g, [0.00218, 0.000325, 5.44e19, 1.81e-14], 10**2.8)
        t = transform(channel, "exhaustive", budget=100)
        assert certify_searches([channel]) == (0, 0)
        assert tuple(r.a for r in t.results) == _search(channel, DEFAULT_BUDGET).vectors

    def test_budget_is_the_count_of_values_entered(self, monkeypatch):
        # a search whose walks enter n values in all answers under a budget of n and raises under n - 1
        totals = []

        def recording_walk(*args):
            least, coords, nodes = _walk(*args)
            totals.append(nodes)
            return least, coords, nodes

        monkeypatch.setattr(cfrates.lattice, "_walk", recording_walk)
        for ch in itertools.islice(walk_cases(), 0, None, 7):
            totals.clear()
            opt = _search(ch, DEFAULT_BUDGET)
            n = totals[-1]
            assert _search(ch, n) == opt
            with pytest.raises(BudgetExceeded, match=f"exceeded {n - 1} nodes"):
                _search(ch, n - 1)

    @pytest.mark.parametrize("ch, n", PINNED_NODE_COUNTS, ids=lambda x: f"K={x.dim}" if isinstance(x, ChannelSpec) else str(x))
    def test_pinned_node_counts(self, ch, n):
        # K = 4..8 at 20-300 dB, plain and weighted: the prune rule must enter exactly these values
        opt = _search(ch, n)
        assert len(opt) == ch.dim and opt == _search(ch, DEFAULT_BUDGET)
        with pytest.raises(BudgetExceeded, match=f"exceeded {n - 1} nodes"):
            _search(ch, n - 1)


class TestExactSearch:
    """K <= 3: the greedy-reduced basis gives the exact successive minima, ties included, at any snr."""

    def test_equals_the_exact_minima(self):
        """Vector m is the least (exact norm, signed a) outside the span of vectors 0..m-1; its norm is the exact one rounded once."""
        assert certify_searches(exact_search_cases())[0] < 5

    def test_high_snr_ties(self):
        # thousands of (k, k + 1) tie (1, 1) to within a few ulps here; only exact norms rank them
        for snr in (1e20, 1e30):
            assert _search(ChannelSpec.plain([1.0, 1.0], snr), 0).vectors == ((1, 1), (0, 1))

    def test_never_builds_the_k_by_k_gram(self, monkeypatch):
        # the kernel reads Q's entries from its factors; only LLL, the K >= 4 walk and gram() build a K x K Gram
        def refuse(*args):
            raise AssertionError("a K x K Gram was built")

        for name in ("_q_matrix", "_q_gram"):
            monkeypatch.setattr(cfrates.lattice, name, refuse)
            monkeypatch.setattr(cfrates.linalg, name, refuse)
        for h in ([2.0], [1.0, 2.5], [0.3, -0.7, 1.1]):
            for method in ("auto", "exhaustive"):
                assert transform(ChannelSpec.plain(h, 1e3), method).method == "exhaustive"
        assert report(SymmetricIcSpec(3, 2.0, 10**2.5)).method == "exhaustive"

    def test_needs_no_budget(self):
        # a walk exceeds a small budget on these; K <= 3 searches use none
        for ch in (ChannelSpec.plain([1.0, 0.62, 0.34], 1e3), ChannelSpec.plain([1.0, 1.0], 1e30)):
            assert _search(ch, 0) == _search(ch, DEFAULT_BUDGET)
            assert transform(ch, "exhaustive", budget=0).method == "exhaustive"


class TestCertificate:
    """``oracles.certify`` itself: it refuses rows that are not the exact minima, and norms not rounded once from them."""

    def test_refuses_other_answers(self):
        checked = 0
        for ch in itertools.chain(itertools.islice(exact_search_cases(), 0, None, 8), itertools.islice(walk_cases(), 0, None, 4)):
            opt = _search(ch, DEFAULT_BUDGET)
            if not opt.vectors:
                continue
            rows, norms = list(opt.vectors), list(opt.norms)
            longer = tuple(canonicalize([x + y for x, y in zip(rows[-1], rows[0])]).tolist())
            wrong = [
                (rows[1::-1] + rows[2:], norms[1::-1] + norms[2:]),  # the first two in the wrong order
                (rows, [math.nextafter(norms[0], math.inf), *norms[1:]]),  # a norm one ulp off
                ([tuple(-x for x in rows[0])] + rows[1:], norms),  # the first row with its sign flipped
                (rows[:-1] + [longer], norms[:-1] + [float(oracles.norm(ch, longer))]),  # a longer last row
                ((), ()),  # no set, where one has positive rate
            ]
            for vectors, wrong_norms in wrong:
                with pytest.raises(AssertionError):
                    oracles.certify(ch, vectors, wrong_norms)
            checked += 1
        assert checked >= 70


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
        # LLL on each channel's integer Gram Q, as transform's LLL runs it
        rng = np.random.default_rng(20)
        for _ in range(50):
            q = _q_matrix(gram_plain(rng.normal(size=4), 10 ** rng.uniform(0, 3))._spec)
            oracles.assert_lll_reduced(q, _lll(q, 0.99)[0])

    @pytest.mark.parametrize("seed, n, k_range", [(41, 300, (2, 5)), (42, 30, (6, 8))])
    def test_rows_are_the_reduced_basis_ranked(self, seed, n, k_range):
        # on the Cholesky rows of 0-100 dB Grams: the rows are the signed LLL-reduced basis of their mantissas' Gram g,
        # ranked by the exact |B^T a|^2 = a^T g a / d^2, each norm rounded once
        for gram in random_grams(seed, n, k_range, 100.0):
            rows = cholesky(gram).tolist()
            g, d = mantissa_gram(rows)
            u = _lll(g, 0.99)[0]
            oracles.assert_lll_reduced(g, u)
            ranked = sorted((oracles.gram_of(g, [a])[0][0], tuple(canonicalize(a).tolist())) for a in u)
            opt = lll_reduce(np.array(rows))
            assert opt.vectors == tuple(a for _, a in ranked), (gram.dim, gram.snr)
            assert opt.norms == tuple(float(Fraction(x, d * d)) for x, _ in ranked)

    @pytest.mark.parametrize("seed, n, k_range", [(43, 100, (2, 5)), (44, 30, (6, 8))])
    def test_unimodular_size_reduced_lovasz(self, seed, n, k_range):
        # LLL on the integer Gram of the Cholesky rows' mantissas, as lll_reduce runs it
        for gram in random_grams(seed, n, k_range, 60.0):
            g, _ = mantissa_gram(cholesky(gram).tolist())
            oracles.assert_lll_reduced(g, _lll(g, 0.99)[0])

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

    @pytest.mark.parametrize(
        "basis",
        [
            np.float64(2.0),
            [1.0, 2.0],
            np.ones((2, 3)),
            np.ones((2, 2, 2)),
            [[1.0, math.nan], [0.0, 1.0]],
            [[math.inf, 0.0], [0.0, 1.0]],
            [[1.0], [1.0, 2.0]],
            "basis",
            [[1j, 0.0], [0.0, 1.0]],
            ["12", "34"],
            [b"12", b"34"],
            np.ones((0, 2)),
        ],
        ids=["scalar", "vector", "2x3", "2x2x2", "nan", "inf", "ragged", "string", "complex", "text-rows", "bytes-rows", "0x2"],
    )
    def test_malformed_basis_rejected(self, basis):
        # rejected before LLL starts: a float LLL on NaN would never stop
        with pytest.raises(ValueError, match="finite square matrix"):
            lll_reduce(basis)

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            lll_reduce(np.eye(2), delta=0.2)


class TestLazyGramSchmidt:
    """``_lll`` keeps its integral Gram-Schmidt data exact through every size reduction and exchange.

    What must hold is the result, checked exactly from the Gram and W:
    W is unimodular, and the reduced basis is size-reduced and meets the
    Lovasz condition at delta = 99/100; the data ``_lll`` returns are those
    that ``_gso`` computes afresh from the reduced vectors' Gram W^T g W.
    """

    def reduced_basis(self, g, lead=1):
        u, lam, dd = _lll(g, 0.99, lead)
        oracles.assert_lll_reduced(g, u)
        fresh_lam, fresh_dd = [[0] * i for i in range(len(g))], [lead] + [0] * len(g)
        _gso(oracles.gram_of(g, u), fresh_lam, fresh_dd, 0)
        assert (lam, dd) == (fresh_lam, fresh_dd)
        return u

    @pytest.mark.parametrize("k", range(2, 9))
    def test_channel_bases(self, k):
        for gram in random_grams(60 + k, 40, (k, k), 60.0):
            self.reduced_basis(mantissa_gram(cholesky(gram).tolist())[0])
            q = _q_matrix(gram._spec)
            # from dd[0] = D, as _lll_set runs it, the data lose their powers of D and LLL takes the same steps
            assert self.reduced_basis(q, gram._spec.q[2]) == self.reduced_basis(q)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_integer_bases(self, k):
        rng = np.random.default_rng(70 + k)
        done = 0
        while done < 40:
            basis = rng.integers(-20, 21, size=(k, k))
            if oracles.rank(basis) != k:
                continue
            rows = basis.tolist()
            self.reduced_basis([[_dot(u, v) for v in rows] for u in rows])
            done += 1
