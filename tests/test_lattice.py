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
    OptimalSet,
    _dot,
    _fold,
    _gso,
    _lll,
    _search,
    _signed,
    _start,
    _walk,
    canonicalize,
    lll_reduce,
    successive_minima,
)
from cfrates.linalg import (
    GramMatrix,
    RationalSpan,
    _mantissas,
    _q_gram,
    _q_matrix,
    _q_norm,
    _sq_norm,
    cholesky,
    exact_rank,
    gram_effective,
    gram_plain,
)
from cfrates.symmetric_ic import SymmetricIcSpec, _hk_channel, effective_two_user, report
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


def refresh_every_step_search(ch, budget):
    """Reference: ``_search`` rebuilding its Gram-Schmidt data at every step.

    It starts from ``_search``'s basis (``_start``), reruns ``_gso`` on
    W^T Q W, formed through the K x K Q, from vector m-1 at every step
    m >= 1, and folds after every step, the last one included.  The walk is
    looked up on the module, as ``_search`` does, so a test can record what
    each step walks.
    """
    q = _q_matrix(ch)
    w, lam, dd = _start(ch)
    vectors, out_norms, nodes = [], [], 0
    for m in range(len(w)):
        if m:
            _gso(gram_of(q, zip(*w)), lam, dd, m - 1)
        least, coords, nodes = cfrates.lattice._walk(lam, dd, m, budget, nodes)
        cands = [_signed(tuple(_dot(row, c) for row in w)) for c in coords]
        norms = [_q_norm(ch, a) for a in cands]
        assert set(norms) == {least}  # the walk's least cost is the exact a^T Q a of every point it returns
        n, vec, c = min(zip(norms, cands, coords))
        if m == 0 and n >= ch.q[-1]:  # a^T G a >= snr, exactly
            return OptimalSet(vectors=(), norms=(), method="exhaustive")
        vectors.append(vec)
        out_norms.append(_sq_norm(ch, vec))
        _fold(w, m, c)
    return OptimalSet(vectors=tuple(vectors), norms=tuple(out_norms), method="exhaustive")


def gram_of(g, vectors):
    """The Gram of integer coordinate ``vectors`` under the integer Gram ``g``: W^T g W for W with those columns."""
    vectors = [list(v) for v in vectors]
    return [[_dot(u, [_dot(row, v) for row in g]) for v in vectors] for u in vectors]


def mantissa_gram(rows):
    """The integer Gram of float rows' mantissas over one power of two, as ``lll_reduce`` builds it."""
    flat, _ = _mantissas(tuple(x for row in rows for x in row))
    k = len(rows)
    ints = [flat[i * k : (i + 1) * k] for i in range(k)]
    return [[_dot(u, v) for v in ints] for u in ints]


def assert_lll_reduced(g, u, delta=Fraction(99, 100)):
    """The coordinate vectors ``u`` form a unimodular W, and the basis with Gram W^T g W is size-reduced and meets Lovasz at ``delta``, in Fractions."""
    assert all(type(x) is int for vec in u for x in vec)
    assert abs(exact_det(u)) == 1
    k, gw = len(u), [[Fraction(x) for x in row] for row in gram_of(g, u)]
    mu, bb = [[Fraction(0)] * k for _ in range(k)], []
    for i in range(k):
        for j in range(i):
            mu[i][j] = (gw[i][j] - sum(mu[j][m] * mu[i][m] * bb[m] for m in range(j))) / bb[j]
        bb.append(gw[i][i] - sum(mu[i][m] ** 2 * bb[m] for m in range(i)))
    assert all(abs(mu[i][j]) <= Fraction(1, 2) for i in range(k) for j in range(i))
    assert all(bb[i] >= (delta - mu[i][i - 1] ** 2) * bb[i - 1] for i in range(1, k))


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


def exact_den(ch) -> Fraction:
    """den = 1 + snr g^T B g in rationals from a channel record's float inputs."""
    return 1 + Fraction(ch.snr) * sum(Fraction(b) * Fraction(g) ** 2 for g, b in zip(ch.gains, ch.weights_sq))


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
        assert self.q_den(ch) == exact_den(ch)
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
        vecs, norms = cube_minima(gram, float(exact_den(gram._spec)))
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
            vecs, norms = cube_minima(gram, float(exact_den(gram._spec)))
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
        for gram in (hand, moved):
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


def outcome(search, *args):
    try:
        return search(*args)
    except BudgetExceeded as exc:
        return type(exc), str(exc)


class TestRefreshAfterMovingFold:
    """The search refreshes its basis only after a fold that moved ``w``, with unchanged results."""

    def test_matches_refresh_every_step(self, monkeypatch):
        folds, walks = [], []

        def recording_fold(w, m, c):
            moved = _fold(w, m, c)
            folds.append((m, len(c), moved))
            return moved

        def recording_walk(lam, dd, *args):
            walks.append(copy.deepcopy((lam, dd, args)))
            return _walk(lam, dd, *args)

        monkeypatch.setattr(cfrates.lattice, "_fold", recording_fold)
        monkeypatch.setattr(cfrates.lattice, "_walk", recording_walk)
        kinds = set()
        for label, ch, budget in search_cases():
            walks.clear()
            ref = outcome(refresh_every_step_search, ch, budget)
            ref_walks = walks[:]
            walks.clear()
            assert outcome(_search, ch, budget) == ref, label
            # every step walks the same integral Gram-Schmidt data
            assert walks == ref_walks, label
            kinds.add(ref[0] if isinstance(ref, tuple) else "ok")
        assert {"ok", BudgetExceeded} <= kinds
        # no fold after the last step, and the moving branch is well covered
        assert all(m + 1 < k for m, k, _ in folds)
        assert sum(moved for _, _, moved in folds) >= 20

    def test_start_is_the_sorted_unit_basis_reduced(self):
        # W is unimodular, W^T Q W is LLL-reduced with _gso's data from dd[0] = D, those data are the plain
        # integral ones (dd[0] = 1) over powers of D, and LLL began from Q's unit basis sorted by Q_ii
        for n, (label, ch, _) in enumerate(search_cases()):
            q, (w, lam, dd), d = _q_matrix(ch), _start(ch), ch.q[2]
            cols = [list(col) for col in zip(*w)]
            g, k = gram_of(q, cols), len(q)
            fresh_lam, fresh_dd = [[0] * i for i in range(k)], [d] + [0] * k
            _gso(g, fresh_lam, fresh_dd, 0)
            assert (lam, dd) == (fresh_lam, fresh_dd), label
            plain_lam, plain_dd = [[0] * i for i in range(k)], [1] + [0] * k
            _gso(g, plain_lam, plain_dd, 0)
            assert [e * d**l for l, e in enumerate(dd[1:])] == plain_dd[1:], label
            assert [[x * d**j for j, x in enumerate(row)] for row in lam] == plain_lam, label
            if n % 9 == 0:
                assert_lll_reduced(q, cols)
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
                assert _q_gram(ch, m, [_dot(bgm, v) for v in cols]) == gram_of(_q_matrix(ch), cols)

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


def exact_gram(ch):
    """snr (B - snr B g g^T B / den) over Fractions, from a channel record's float inputs."""
    snr, g, b = Fraction(ch.snr), [Fraction(x) for x in ch.gains], [Fraction(x) for x in ch.weights_sq]
    bg = [x * y for x, y in zip(b, g)]
    den = 1 + snr * sum(x * y for x, y in zip(g, bg))
    return [[snr * (b[i] * (i == j) - snr * bg[i] * bg[j] / den) for j in range(len(g))] for i in range(len(g))]


def least_outside(ch, rows, m, limit):
    """The least (exact a^T G a, signed a) of norm <= ``limit`` outside the span of ``rows[:m]``, or None.

    ``rows`` must span Z^K (|det| = 1), so in their coordinates c the vectors
    outside that span are those with some c_j != 0, j >= m.  They are
    enumerated level by level from the last coordinate on the exact
    Gram-Schmidt data of R = A G A^T, each level's range widened by one and
    each cost checked exactly: independent of the search under test.
    """
    k = len(rows)
    assert abs(exact_det(rows)) == 1
    g = exact_gram(ch)
    gv = [[sum(g[i][j] * v[j] for j in range(k)) for v in rows] for i in range(k)]  # the columns G v
    r = [[sum(u[i] * gv[i][col] for i in range(k)) for col in range(k)] for u in rows]
    mu, d = [[Fraction(0)] * k for _ in range(k)], []
    for i in range(k):
        for j in range(i):
            mu[i][j] = (r[i][j] - sum(mu[i][l] * mu[j][l] * d[l] for l in range(j))) / d[j]
        d.append(r[i][i] - sum(mu[i][l] ** 2 * d[l] for l in range(i)))
    c, found = [0] * k, []

    def descend(level, partial):
        if level < m and not any(c[m:]):
            return  # in the span of rows[:m]
        if level < 0:
            found.append((partial, _signed(tuple(_dot(c, col) for col in zip(*rows)))))
            return
        center = -sum(mu[j][level] * c[j] for j in range(level + 1, k))
        half = math.isqrt(math.floor((limit - partial) / d[level])) + 1
        for v in range(math.floor(center) - half, math.ceil(center) + half + 1):
            cost = partial + d[level] * (v - center) ** 2
            if cost <= limit:
                c[level] = v
                descend(level - 1, cost)
        c[level] = 0

    descend(k - 1, Fraction(0))
    return min(found, default=None)


def certify(cases):
    """Check ``_search`` on each channel record against ``least_outside``; returns (empty sets, sets with an exact tie).

    Vector m must be the least (exact norm, signed a) outside the span of
    vectors 0..m-1, and its norm the exact one rounded once; an empty set
    must have no vector with a^T G a below snr.
    """
    empty = tied = 0
    for ch in cases:
        opt = _search(ch, DEFAULT_BUDGET)
        assert opt.method == "exhaustive"
        rows = opt.vectors
        if not rows:  # no vector has a^T G a below snr
            unit = [tuple(int(i == j) for j in range(len(ch.gains))) for i in range(len(ch.gains))]
            least = least_outside(ch, unit, 0, Fraction(ch.snr))
            assert least is None or least[0] >= Fraction(ch.snr)
            empty += 1
            continue
        exact = exact_gram(ch)
        norms = [sum(x * exact[i][j] * y for i, x in enumerate(a) for j, y in enumerate(a)) for a in rows]
        assert opt.norms == tuple(map(float, norms))
        for m, (a, norm) in enumerate(zip(rows, norms)):
            assert least_outside(ch, rows, m, norm) == (norm, a), (ch.gains, ch.weights_sq, ch.snr, m)
        tied += len(set(norms)) < len(norms)
    return empty, tied


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
        empty, tied = certify(walk_cases())
        assert empty == 0 and tied >= 20

    def test_far_shorter_first_minimum_fits_a_small_budget(self):
        # the CLI tests' FALLBACK_ARGS channel: its first minimum is about 1e134 times shorter than the
        # others, and a walk that charged each level's whole range before trying it exceeded 10M nodes
        g = [3.812245313001031e89, 1.127565542431324e90, 2.0273245928995462e90, -2.2212917830164186e90]
        channel = ChannelSpec.effective(g, [0.00218, 0.000325, 5.44e19, 1.81e-14], 10**2.8)
        t = transform(channel, "exhaustive", budget=100)
        assert certify([channel]) == (0, 0)
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
        assert certify(exact_search_cases())[0] < 5

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
            assert_lll_reduced(q, _lll(q, 0.99)[0])

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
        # LLL on the integer Gram of the Cholesky rows' mantissas, as lll_reduce runs it
        for gram in random_grams(seed, n, k_range, 60.0):
            g = mantissa_gram(cholesky(gram).tolist())
            assert_lll_reduced(g, _lll(g, 0.99)[0])

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

    What must hold is the result, checked in Fractions from the Gram and W:
    W is unimodular, and the reduced basis is size-reduced and meets the
    Lovasz condition at delta = 99/100; the data ``_lll`` returns are those
    that ``_gso`` computes afresh from the reduced vectors' Gram W^T g W.
    """

    def reduced_basis(self, g, lead=1):
        u, lam, dd = _lll(g, 0.99, lead)
        assert_lll_reduced(g, u)
        fresh_lam, fresh_dd = [[0] * i for i in range(len(g))], [lead] + [0] * len(g)
        _gso(gram_of(g, u), fresh_lam, fresh_dd, 0)
        assert (lam, dd) == (fresh_lam, fresh_dd)
        return u

    @pytest.mark.parametrize("k", range(2, 9))
    def test_channel_bases(self, k):
        for gram in random_grams(60 + k, 40, (k, k), 60.0):
            self.reduced_basis(mantissa_gram(cholesky(gram).tolist()))
            q = _q_matrix(gram._spec)
            # from dd[0] = D, as _lll_set runs it, the data lose their powers of D and LLL takes the same steps
            assert self.reduced_basis(q, gram._spec.q[2]) == self.reduced_basis(q)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_integer_bases(self, k):
        rng = np.random.default_rng(70 + k)
        done = 0
        while done < 40:
            basis = rng.integers(-20, 21, size=(k, k))
            if exact_rank(basis) != k:
                continue
            rows = basis.tolist()
            self.reduced_basis([[_dot(u, v) for v in rows] for u in rows])
            done += 1
