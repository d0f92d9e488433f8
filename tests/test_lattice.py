"""Coefficient search: one minimum at a time outside the found span, LLL fallback."""

import copy
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfrates.lattice
from cfrates.lattice import (
    _RADIUS_SLACK,
    DEFAULT_BUDGET,
    BudgetExceeded,
    OptimalSet,
    _Basis,
    _dot,
    _enumerate_half_sphere,
    _fold,
    _search,
    _signed,
    canonicalize,
    candidate_bound,
    lll_reduce,
    successive_minima,
)
from cfrates.linalg import (
    GramMatrix,
    RationalSpan,
    _channel,
    _embedding,
    _sq_norm,
    cholesky,
    exact_rank,
    gram_effective,
    gram_plain,
)
from cfrates.symmetric_ic import SymmetricIcSpec, _hk_channel
from cfrates.transform import ChannelSpec, transform


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


def numpy_lll_coords(basis, delta):
    """Reference: the numpy LLL that the Python-float one replaced, on the columns of ``basis``."""
    b = basis.astype(float).copy()
    k = b.shape[1]
    u = np.eye(k, dtype=np.int64)
    ortho = np.zeros_like(b)
    mu = np.zeros((k, k))

    def update_gs(start):
        for i in range(start, k):
            ortho[:, i] = b[:, i]
            for j in range(i):
                denom = float(ortho[:, j] @ ortho[:, j])
                mu[i, j] = float(b[:, i] @ ortho[:, j]) / denom if denom > 0 else 0.0
                ortho[:, i] -= mu[i, j] * ortho[:, j]

    update_gs(0)
    i = 1
    while i < k:
        for j in range(i - 1, -1, -1):
            if abs(mu[i, j]) > 0.5:
                r = round(mu[i, j])
                b[:, i] -= r * b[:, j]
                u[:, i] -= r * u[:, j]
                update_gs(i)
        lhs = float(ortho[:, i] @ ortho[:, i])
        rhs = (delta - mu[i, i - 1] ** 2) * float(ortho[:, i - 1] @ ortho[:, i - 1])
        if lhs >= rhs:
            i += 1
        else:
            b[:, [i - 1, i]] = b[:, [i, i - 1]]
            u[:, [i - 1, i]] = u[:, [i, i - 1]]
            update_gs(i - 1)
            i = max(i - 1, 1)
    return u


def numpy_lll_reduce(basis, delta=0.99):
    """Reference: the numpy ``lll_reduce``, with norms from ``basis @ basis.T``."""
    gram = basis @ basis.T
    coords = numpy_lll_coords(basis.T, delta)
    vecs = [canonicalize(coords[:, col]) for col in range(basis.shape[0])]
    scored = sorted((float(v @ gram @ v), tuple(int(x) for x in v)) for v in vecs)
    return tuple(v for _, v in scored), tuple(n for n, _ in scored)


def numpy_search(gram):
    """Reference: the numpy search that the Python-float core replaced.

    numpy LLL, ``np.linalg.qr`` of q W at every step, a walk over the rows of
    that R, ``einsum`` norms and a ``lexsort`` ranking of the candidates.
    """
    g, k = gram.entries, gram.dim
    q = cholesky(gram).T
    w = numpy_lll_coords(q, 0.99)
    basis = q @ w
    radii = np.sort(np.einsum("ij,ij->j", basis, basis)) * (1.0 + 1e-9)
    vecs, out = [], []
    for m in range(k):
        r = np.linalg.qr(q @ w, mode="r")
        r = (r * np.sign(np.diag(r))[:, None]).tolist()
        slack, a, coords = 1e-9 * radii[m], [0] * k, []

        def descend(level, remaining, tail_zero):
            diag = r[level][level]
            center = -sum(r[level][j] * a[j] for j in range(level + 1, k)) / diag
            half_width = math.sqrt(max(remaining, 0.0)) / diag
            lo = math.ceil(center - half_width - 1e-12)
            hi = math.floor(center + half_width + 1e-12)
            for v in range(max(lo, int(level == m)) if tail_zero else lo, hi + 1):
                cost = (diag * (v - center)) ** 2
                if cost > remaining + slack:
                    continue
                a[level] = v
                if level == 0:
                    coords.append(tuple(a))
                else:
                    descend(level - 1, remaining - cost, tail_zero and v == 0)
            a[level] = 0

        descend(k - 1, radii[m], True)
        cand = np.array(coords, dtype=np.int64) @ w.T
        first_nonzero = (cand != 0).argmax(axis=1)
        cand *= np.sign(cand[np.arange(cand.shape[0]), first_nonzero])[:, None]
        norms = np.einsum("ij,ij->i", cand @ g, cand)
        best = np.lexsort(tuple(cand[:, col] for col in range(k - 1, -1, -1)) + (norms,))[0]
        if m == 0 and norms[best] >= gram.snr:
            return (), ()
        vecs.append(tuple(int(x) for x in cand[best]))
        out.append(float(norms[best]))
        # fold column m of w into the direction of c[m:] by extended-gcd column steps
        c = coords[best]
        x = c[m]
        for j in range(m + 1, k):
            if c[j]:
                d, p, s, d1, p1, s1 = x, 1, 0, c[j], 0, 1
                while d1:
                    t = d // d1
                    d, p, s, d1, p1, s1 = d1, p1, s1, d - t * d1, p - t * p1, s - t * s1
                wm, wj = w[:, m].copy(), w[:, j].copy()
                w[:, m] = (x // d) * wm + (c[j] // d) * wj
                w[:, j] = p * wj - s * wm
                x = d
    return tuple(vecs), tuple(out)


def refresh_every_step_search(emb, snr, budget):
    """Reference: ``_search`` refreshing its basis at every step.

    It recomputes the basis and its Gram-Schmidt data before step 0, takes
    the radii after that, then refreshes from column m-1 at every step m >= 1,
    and folds after every step, the last one included.  The walk is looked up
    on the module, as ``_search`` does, so a test can record what each step
    walks.
    """
    lat = _Basis(emb.basis)
    w = lat.lll(0.99)
    lat.refresh(0)
    radii = sorted(_dot(v, v) for v in lat.b)
    vectors, out_norms, nodes = [], [], 0
    for m in range(len(w)):
        if m:
            lat.refresh(m - 1)
        walk = cfrates.lattice._enumerate_half_sphere
        coords, nodes = walk(lat.mu, lat.bb, radii[m] * (1.0 + _RADIUS_SLACK), m, budget, nodes)
        if not coords:
            raise RuntimeError("search sphere missed a successive minimum")
        cands = [_signed(tuple(_dot(row, c) for row in w)) for c in coords]
        norm, vec, c = min((_sq_norm(emb, a), a, c) for a, c in zip(cands, coords))
        if m == 0 and norm >= snr:
            return OptimalSet(vectors=(), norms=(), method="exhaustive")
        vectors.append(vec)
        out_norms.append(norm)
        _fold(w, m, c)
    return OptimalSet(vectors=tuple(vectors), norms=tuple(out_norms), method="exhaustive")


def assert_norms_close(got, ref, vectors, gram_entries):
    """Norms equal to 1e-9 relative, or within the rounding of two float a^T G a.

    A float a^T G a is within about 2K eps |a|^T |G| |a| of its exact value
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3).  Above
    about 60 dB that bound exceeds 1e-9 of the norm, and two evaluations that
    sum in different orders (numpy's BLAS and Python floats) may differ by
    twice the bound.
    """
    k = len(gram_entries)
    for vec, x, y in zip(vectors, got, ref):
        a = np.abs(np.array(vec, dtype=float))
        bound = 4 * k * np.finfo(float).eps * float(a @ np.abs(gram_entries) @ a)
        assert abs(x - y) <= 1e-9 * abs(y) + bound, (vec, x, y)


def exact_det(rows):
    """Determinant of an integer matrix by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((i for i in range(col, len(m)) if m[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            f = m[i][col] / m[col][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return det


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

    @pytest.mark.parametrize("vec", [[-0.5, 1], [1.5, -2], [np.nan, 1], [1, np.inf], [-np.inf, 2]])
    def test_non_integer_rejected(self, vec):
        with pytest.raises(ValueError, match="must be integer"):
            canonicalize(vec)

    def test_integer_valued_floats_accepted(self):
        got = canonicalize([-2.0, 1.0, 0.0])
        assert got.dtype == np.int64
        assert got.tolist() == [2, -1, 0]
        assert canonicalize(np.array([0.0, -3.0])).tolist() == [0, 3]


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

    @pytest.mark.parametrize("seed, n, k_range", [(41, 300, (2, 5)), (42, 30, (6, 8))])
    def test_matches_numpy_search(self, seed, n, k_range):
        # plain and effective Grams at 0-100 dB
        for gram in random_grams(seed, n, k_range, 100.0):
            vecs, norms = numpy_search(gram)
            opt = successive_minima(gram)
            assert opt.vectors == vecs, (gram.dim, gram.snr)
            assert_norms_close(opt.norms, norms, vecs, gram.entries)

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

    def test_negative_budget_rejected(self):
        gram = gram_plain([1.0, 0.62, 0.34], 1e3)
        for budget in (-1, -5):
            with pytest.raises(ValueError, match="budget must be nonnegative"):
                successive_minima(gram, budget=budget)
        with pytest.raises(BudgetExceeded, match="exceeded 0 nodes"):
            successive_minima(gram, budget=0)


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
        # the embedding is outside equality, hash and repr
        assert hand == g and hash(hand) == hash(g) and repr(hand) == repr(g)
        assert moved == GramMatrix(g.entries, 2 * g.snr) and hash(moved) == hash(GramMatrix(g.entries, 2 * g.snr))
        assert moved != g
        for gram in (hand, moved):
            with pytest.raises(ValueError, match="gram_effective"):
                successive_minima(gram)


def search_cases():
    """(label, embedding, snr, budget) for seeded channels at 0-140 dB, K=2..8.

    The "gram" cases search the embeddings that ``random_grams``' Grams
    carry.  Every third case gets a budget of 4K nodes, so some searches
    raise BudgetExceeded part way; the highest snrs can miss a minimum.
    """
    for k in range(2, 9):
        for i, gram in enumerate(random_grams(80 + k, 60, (k, k), 140.0)):
            yield f"gram K={k} #{i}", gram._emb, gram.snr, 4 * k if i % 3 == 2 else DEFAULT_BUDGET
        rng = np.random.default_rng(100 + k)
        for i in range(20):
            snr = 10 ** (rng.uniform(0, 140) / 10)
            emb = _embedding(_channel(rng.normal(size=k), snr, rng.uniform(0.5, 4, size=k)), snr)
            yield f"channel K={k} #{i}", emb, snr, 4 * k if i % 3 == 2 else DEFAULT_BUDGET


def outcome(search, *args):
    try:
        return search(*args)
    except (BudgetExceeded, RuntimeError) as exc:
        return type(exc), str(exc)


class TestRefreshAfterMovingFold:
    """The search refreshes its basis only after a fold that moved ``w``, with unchanged results."""

    def test_matches_refresh_every_step(self, monkeypatch):
        folds, walks = [], []

        def recording_fold(w, m, c):
            moved = _fold(w, m, c)
            folds.append((m, len(c), moved))
            return moved

        def recording_walk(mu, bb, *args):
            walks.append(copy.deepcopy((mu, bb, args)))
            return _enumerate_half_sphere(mu, bb, *args)

        monkeypatch.setattr(cfrates.lattice, "_fold", recording_fold)
        monkeypatch.setattr(cfrates.lattice, "_enumerate_half_sphere", recording_walk)
        kinds = set()
        for label, emb, snr, budget in search_cases():
            walks.clear()
            ref = outcome(refresh_every_step_search, emb, snr, budget)
            ref_walks = walks[:]
            walks.clear()
            assert outcome(_search, emb, snr, budget) == ref, label
            # every step walks the same triangular factor, bit for bit
            assert walks == ref_walks, label
            kinds.add(ref[0] if isinstance(ref, tuple) else "ok")
        assert {"ok", BudgetExceeded} <= kinds
        # no fold after the last step, and the moving branch is well covered
        assert all(m + 1 < k for m, k, _ in folds)
        assert sum(moved for _, _, moved in folds) >= 20

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
            coords = _Basis(chol.tolist()).lll(delta)
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

    @pytest.mark.parametrize("seed, n, k_range", [(41, 300, (2, 5)), (42, 30, (6, 8))])
    def test_matches_numpy_lll(self, seed, n, k_range):
        for gram in random_grams(seed, n, k_range, 100.0):
            chol = cholesky(gram)
            vecs, norms = numpy_lll_reduce(chol)
            opt = lll_reduce(chol)
            assert opt.vectors == vecs, (gram.dim, gram.snr)
            assert_norms_close(opt.norms, norms, vecs, chol @ chol.T)

    @pytest.mark.parametrize("seed, n, k_range", [(43, 100, (2, 5)), (44, 30, (6, 8))])
    def test_unimodular_size_reduced_lovasz(self, seed, n, k_range):
        delta = 0.99
        for gram in random_grams(seed, n, k_range, 60.0):
            basis = cholesky(gram).T
            u = _Basis(basis.T.tolist()).lll(delta)
            assert all(type(x) is int for row in u for x in row)
            assert abs(exact_det(u)) == 1
            r = np.linalg.qr(basis @ np.array(u, dtype=float), mode="r")
            mu = r / np.diag(r)[:, None]  # mu[j, i] = <b_i, b*_j> / |b*_j|^2 for j < i
            assert np.all(np.abs(np.triu(mu, 1)) <= 0.5 + 1e-6)
            sq = np.diag(r) ** 2
            for i in range(1, gram.dim):
                assert sq[i] >= (delta - mu[i - 1, i] ** 2) * sq[i - 1] * (1 - 1e-9)

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
        ],
        ids=["scalar", "vector", "2x3", "2x2x2", "nan", "inf", "ragged", "string", "complex"],
    )
    def test_malformed_basis_rejected(self, basis):
        # rejected before LLL starts: a float LLL on NaN would never stop
        with pytest.raises(ValueError, match="finite square matrix"):
            lll_reduce(basis)

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            lll_reduce(np.eye(2), delta=0.2)


class TestLazyGramSchmidt:
    """LLL computes each Gram-Schmidt row when it first reaches it and then updates it in place.

    What must hold is the result: W is unimodular, and the Gram-Schmidt data
    of q W that ``refresh(0)`` rebuilds are size-reduced and meet the Lovasz
    condition at delta = 0.99.
    """

    DELTA = 0.99

    def reduced_basis(self, rows):
        lat = _Basis(rows)
        w = lat.lll(self.DELTA)
        assert all(type(x) is int for row in w for x in row)
        assert abs(exact_det(w)) == 1
        lat.refresh(0)
        k = len(rows)
        assert all(abs(lat.mu[i][j]) <= 0.5 + 1e-9 for i in range(k) for j in range(i))
        for i in range(1, k):
            c = lat.mu[i][i - 1]
            assert lat.bb[i] >= (self.DELTA - c * c) * lat.bb[i - 1] * (1 - 1e-9)
        return w

    @pytest.mark.parametrize("k", range(2, 9))
    def test_channel_bases(self, k):
        for gram in random_grams(60 + k, 40, (k, k), 60.0):
            self.reduced_basis(cholesky(gram).tolist())

    @pytest.mark.parametrize("k", range(2, 9))
    def test_integer_bases(self, k):
        """On integer bases both conditions are checked exactly, in Fractions from the basis and W."""
        rng = np.random.default_rng(70 + k)
        done = 0
        while done < 40:
            basis = rng.integers(-20, 21, size=(k, k))
            if exact_rank(basis) != k:
                continue
            w = self.reduced_basis(basis.astype(float).tolist())
            rows = basis.tolist()
            vecs = [[Fraction(_dot(col, column)) for column in zip(*rows)] for col in zip(*w)]  # q W, exactly
            ortho, bb = [], []
            for i, v in enumerate(vecs):
                mu = [_dot(v, o) / n for o, n in zip(ortho, bb)]
                assert all(abs(x) <= Fraction(1, 2) for x in mu)
                o = v
                for x, oj in zip(mu, ortho):
                    o = [a - x * b for a, b in zip(o, oj)]
                ortho.append(o)
                bb.append(_dot(o, o))
                if i:
                    assert bb[i] >= (Fraction(99, 100) - mu[i - 1] ** 2) * bb[i - 1]
            done += 1
