import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctqw_search import (
    DisconnectedGraphError,
    Graph,
    InvalidInputError,
    InvalidParameterError,
    MarkedState,
    NumericError,
    certify_family,
    complete,
    complete_minus_disjoint_edges,
    eig_sym,
    fwht,
    hypercube,
    hypercube_eigenbasis,
    laplacian,
    laplacian_decomposition,
    laplacian_eigenvalues,
    laplacian_extremes,
    laplacian_solve,
    linalg,
    paley,
    regular_multipartite,
    search_params,
    uniform_state,
)
from conftest import (
    DEGENERATE_FAMILIES,
    basis_eigenvalues,
    basis_overlaps,
    cycle_graph,
    evolve,
    path_graph,
    random_connected_graph,
    sparse_random_graph,
    transform_level_masses,
)


class TestEigSym:
    def test_identity(self):
        d = eig_sym(np.eye(3))
        np.testing.assert_allclose(d.eigenvalues, [1, 1, 1])

    def test_triangle_laplacian(self):
        # characteristic polynomial of the K_3 Laplacian: lam*(lam-3)^2
        d = eig_sym(laplacian(complete(3)))
        np.testing.assert_allclose(d.eigenvalues, [3, 3, 0], atol=1e-12)

    def test_three_bit_hypercube_laplacian(self):
        d = eig_sym(laplacian(hypercube(3)))
        np.testing.assert_allclose(d.eigenvalues, [6, 4, 4, 4, 2, 2, 2, 0], atol=1e-12)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite(self, value):
        # so every decomposition it gives has finite eigenvalues to group
        m = np.eye(3)
        m[0, 1] = m[1, 0] = value
        with pytest.raises(InvalidInputError, match="non-finite"):
            eig_sym(m)
        with pytest.raises(InvalidInputError, match="non-finite"):
            laplacian_eigenvalues(m)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 16, 64, 256):
            m = rng.standard_normal((n, n))
            m = (m + m.T) / 2
            d = eig_sym(m)
            recon = d.eigenvectors @ np.diag(d.eigenvalues) @ d.eigenvectors.T
            scale = np.max(np.abs(m))
            assert np.max(np.abs(recon - m)) <= 1e-8 * scale

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((40, 40))
        m = (m + m.T) / 2
        d = eig_sym(m)
        resid = m @ d.eigenvectors - d.eigenvectors * d.eigenvalues
        assert np.max(np.abs(resid)) <= 1e-9 * np.max(np.abs(m))
        gram = d.eigenvectors.T @ d.eigenvectors
        assert np.max(np.abs(gram - np.eye(40))) <= 1e-10

    def test_sorted_non_increasing(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((17, 17))
        m = (m + m.T) / 2
        lam = eig_sym(m).eigenvalues
        assert np.all(np.diff(lam) <= 0)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((12, 12))
        m = (m + m.T) / 2
        d1 = eig_sym(m)
        d2 = eig_sym(m.copy())
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_rejects_non_symmetric(self):
        with pytest.raises(InvalidInputError):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            eig_sym(np.zeros((2, 3)))


class TestLaplacianDecomposition:
    def test_zero_is_exact_and_uniform(self):
        d = laplacian_decomposition(laplacian(complete(5)))
        assert d.eigenvalues[-1] == 0.0
        np.testing.assert_array_equal(d.eigenvectors[:, -1], np.full(5, 1 / math.sqrt(5)))

    def test_other_modes_are_orthogonal_to_uniform(self):
        # eigh leaves an eigenvector of the 98-vertex path, kappa ~ N**2, a
        # component of 546 eps along the uniform vector s; projected out,
        # what remains is the rounding of an N-term sum, and the basis stays
        # orthonormal, both within N*eps
        n = 98
        d = laplacian_decomposition(laplacian(Graph.from_edges(n, [(i, i + 1)
                                                                  for i in range(n - 1)])))
        v = d.eigenvectors
        tol = n * np.finfo(float).eps
        assert np.abs(v[:, -1] @ v[:, :-1]).max() <= tol
        assert np.abs(v.T @ v - np.eye(n)).max() <= tol

    def test_disconnected_raises(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            laplacian_decomposition(laplacian(g))

    def test_non_laplacian_raises(self):
        with pytest.raises(InvalidInputError):
            laplacian_decomposition(np.eye(3))


class TestLaplacianEigenvalues:
    def test_match_decomposition(self):
        rng = np.random.default_rng(3)
        graphs = DEGENERATE_FAMILIES + [random_connected_graph(rng, n, 0.2)
                                        for n in (2, 3, 17, 60)]
        for g in graphs:
            q = laplacian(g)
            lam = laplacian_eigenvalues(q)
            want = laplacian_decomposition(q).eigenvalues
            assert lam[-1] == 0.0
            assert np.all(np.diff(lam) <= 0.0)
            np.testing.assert_allclose(lam, want, rtol=0.0,
                                       atol=64 * np.finfo(float).eps * g.n_vertices * want[0])

    def test_disconnected_raises(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            laplacian_eigenvalues(laplacian(g))

    def test_non_laplacian_raises(self):
        with pytest.raises(InvalidInputError):
            laplacian_eigenvalues(np.eye(3))

    def test_rejects_non_symmetric(self):
        with pytest.raises(InvalidInputError):
            laplacian_eigenvalues(np.array([[1.0, -1.0], [0.0, 0.0]]))


class TestLaplacianSolve:
    @pytest.mark.parametrize("g", [complete(7), paley(29), hypercube(5),
                                   Graph.from_edges(40, [(v, v + 1) for v in range(39)]),
                                   Graph.from_edges(30, [(0, v) for v in range(1, 30)])])
    def test_matches_lu(self, g):
        rng = np.random.default_rng(8)
        b = rng.standard_normal(g.n_vertices)
        b -= b.mean()
        x = laplacian_solve(g.n_vertices, g.edges, b)
        # Q^+ b from an LU solve of (Q + J/N) x = b: J/N adds 1 on the
        # uniform vector and nothing on its complement, where b lies
        want = np.linalg.solve(laplacian(g) + 1.0 / g.n_vertices, b)
        np.testing.assert_allclose(x, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
        assert abs(x.sum()) <= 1e-12 * np.abs(x).sum()

    def test_backward_error(self):
        g = random_connected_graph(np.random.default_rng(5), 80, 0.1)
        b = np.zeros(80)
        b[[3, 9]] = (1.0, -1.0)
        x = laplacian_solve(80, g.edges, b)
        d_max = laplacian(g).diagonal().max()
        bound = linalg.CG_BACKWARD_ERROR * np.finfo(float).eps * (
            2 * d_max * np.linalg.norm(x) + np.linalg.norm(b))
        assert np.linalg.norm(b - laplacian(g) @ x) <= 4 * bound

    def test_iteration_cap(self, monkeypatch):
        # a 100-vertex path needs about 100 steps; allow 5
        monkeypatch.setattr(linalg, "CG_STEPS_PER_VERTEX", 0.05)
        b = np.zeros(100)
        b[[0, 99]] = (1.0, -1.0)
        with pytest.raises(NumericError, match="5 steps"):
            laplacian_solve(100, np.array([(v, v + 1) for v in range(99)]), b)

    @pytest.mark.parametrize("b", [np.zeros(3), np.array([1.0, np.nan, -1.0, 0.0])])
    def test_rejects_bad_right_hand_side(self, b):
        with pytest.raises(InvalidInputError):
            laplacian_solve(4, complete(4).edges, b)


@st.composite
def connected_graphs(draw):
    """Connected simple graphs of 2 to 200 vertices: paths, cycles, stars,
    complete bipartite graphs, random recursive trees, and random trees
    with extra random edges."""
    kind = draw(st.sampled_from(["path", "cycle", "star", "bipartite", "tree", "tree+"]))
    n = draw(st.integers(3 if kind == "cycle" else 2, 200))
    if kind == "path":
        edges = [(v, v + 1) for v in range(n - 1)]
    elif kind == "cycle":
        edges = [(v, (v + 1) % n) for v in range(n)]
    elif kind == "star":
        edges = [(0, v) for v in range(1, n)]
    elif kind == "bipartite":
        a = draw(st.integers(1, n - 1))
        edges = [(u, v) for u in range(a) for v in range(a, n)]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        edges = {(int(rng.integers(v)), v) for v in range(1, n)}
        if kind == "tree+":
            extra = draw(st.integers(1, 4 * n))
            edges |= {tuple(sorted(p)) for p in rng.integers(0, n, size=(extra, 2)).tolist()
                      if p[0] != p[1]}
    return Graph.from_edges(n, edges)


def assert_zero_rule_margins(q):
    """The computed zero mode within a tenth of ``linalg._level_tol`` and
    lambda_2 past ten times it, from both dense solvers."""
    for lam in (np.linalg.eigvalsh(q)[::-1], eig_sym(q).eigenvalues):
        tol = linalg._level_tol(float(lam[0]), lam.size)
        assert abs(lam[-1]) <= tol / 10
        assert lam[-2] >= 10 * tol


class TestZeroRule:
    @settings(max_examples=150, deadline=None)
    @given(connected_graphs())
    def test_margins_on_small_graphs(self, g):
        assert_zero_rule_margins(laplacian(g))

    @pytest.mark.parametrize("n, p", [(2, 0.5), (3, 0.0), (17, 0.05), (60, 0.2),
                                      (120, 0.02), (200, 0.01), (200, 0.5), (200, 0.95)])
    def test_margins_on_random_graphs(self, n, p):
        assert_zero_rule_margins(laplacian(random_connected_graph(np.random.default_rng(n), n, p)))

    @pytest.mark.parametrize("build", [
        lambda: complete(1024), lambda: hypercube(10), lambda: paley(1021),
        lambda: regular_multipartite(32, 32), lambda: complete_minus_disjoint_edges(1024, 512),
    ], ids=["complete", "hypercube", "paley", "multipartite", "complete-minus"])
    def test_margins_on_dense_families(self, build):
        assert_zero_rule_margins(laplacian(build()))

    @pytest.mark.parametrize("lam", [[3.0, 2.0, math.nan], [math.nan, 1.0, 0.0],
                                     [math.inf, 1.0, 0.0], [2.0, -math.inf, 0.0]])
    def test_refuses_non_finite(self, lam):
        with pytest.raises(InvalidInputError, match="finite"):
            linalg._snap_zero_mode(np.array(lam))


class TestLaplacianExtremes:
    @settings(max_examples=150, deadline=None)
    @given(connected_graphs())
    def test_matches_dense_spectrum(self, g):
        ritz = laplacian_extremes(g.n_vertices, g.edges)
        lam = laplacian_eigenvalues(laplacian(g))
        if not ritz.converged:
            assert ritz.steps == linalg.LANCZOS_MAX_BASIS
            return
        tol = 1e-10 * lam[0]
        assert abs(ritz.theta_max - lam[0]) <= tol
        assert abs(ritz.theta_min - lam[-2]) <= tol
        # the bounds the proof rests on, up to the dense solver's own error
        dense_error = 64 * np.finfo(float).eps * g.n_vertices * lam[0]
        assert ritz.rho_max - ritz.delta <= lam[0] + dense_error
        assert ritz.rho_min + ritz.delta >= lam[-2] - dense_error

    @pytest.mark.parametrize("n, degree", [(1600, 8), (1000, 16)])
    def test_benchmark_shapes_converge_under_the_cap(self, n, degree):
        g = sparse_random_graph(np.random.default_rng(n), n, degree)
        ritz = laplacian_extremes(n, g.edges)
        assert ritz.converged
        assert ritz.steps < linalg.LANCZOS_MAX_BASIS
        lam = laplacian_eigenvalues(laplacian(g))
        np.testing.assert_allclose([ritz.theta_max, ritz.theta_min], lam[[0, -2]],
                                   rtol=0.0, atol=1e-10 * lam[0])

    def test_basis_cap(self, monkeypatch):
        # the low end of a 100-vertex path needs about 100 steps; allow 16
        monkeypatch.setattr(linalg, "LANCZOS_MAX_BASIS", 16)
        ritz = laplacian_extremes(100, np.array([(v, v + 1) for v in range(99)]))
        assert (ritz.steps, ritz.converged) == (16, False)
        # unconverged Ritz values still bound the spectrum from inside
        assert ritz.rho_max <= 2 - 2 * math.cos(99 * math.pi / 100) + ritz.delta
        assert ritz.rho_min >= 2 - 2 * math.cos(math.pi / 100) - ritz.delta

    @pytest.mark.parametrize("g, steps", [(complete(64), 1), (regular_multipartite(8, 8), 2),
                                          (paley(61), 2), (hypercube(6), 6),
                                          (cycle_graph(50), 25), (cycle_graph(64), 32),
                                          (cycle_graph(200), 100)])
    def test_breakdown_is_exact(self, g, steps):
        # an invariant Krylov space stops the run at its breakdown, where
        # both extremes are exact, without dividing by the rounding left; a
        # cycle's rounding at its breakdown grows with the step count
        ritz = laplacian_extremes(g.n_vertices, g.edges)
        assert (ritz.steps, ritz.converged) == (steps, True)
        lam = laplacian_eigenvalues(laplacian(g))
        np.testing.assert_allclose([ritz.theta_max, ritz.theta_min], lam[[0, -2]],
                                   rtol=0.0, atol=1e-10 * lam[0])

    def test_one_schedule_with_the_krylov_basis(self, monkeypatch):
        # both runs are looked at by the one driver: at the same steps, each
        # from one eig_sym of the Jacobi matrix
        sizes = []
        decompose = linalg.eig_sym
        monkeypatch.setattr(linalg, "eig_sym",
                            lambda m: sizes.append(len(m)) or decompose(m))
        g = path_graph(200)
        laplacian_extremes(200, g.edges)
        extremes = sizes.copy()
        sizes.clear()
        basis = linalg.KrylovBasis(laplacian(g), lambda *decision: False)
        basis.level_masses(np.array([0]), np.array([1.0]))
        assert sizes[-1] == 200  # the rule never settled: the dense route
        krylov = sizes[:-1]
        schedule = [1, 2, 4, 8]
        while schedule[-1] < 64:
            schedule.append(schedule[-1] + max(8, schedule[-1] // 8))
        assert krylov == schedule
        assert extremes[:len(krylov)] == krylov

    def test_krylov_basis_breaks_down_on_a_cycle(self):
        # the quadrature of a state on the 50-cycle is exact at its 25
        # levels, with dense Laplacian products
        looks = []

        def exact_only(levels, masses, exact, budget):
            looks.append((levels.size - 1, exact))
            return exact

        state = MarkedState.uniform_over(50, [0, 1, 2])
        basis = linalg.KrylovBasis(laplacian(cycle_graph(50)), exact_only)
        levels, _ = basis.level_masses(state.vertices, state.values)
        assert looks[-1] == (25, True) and levels.size == 26

    def test_deterministic(self):
        g = random_connected_graph(np.random.default_rng(4), 60, 0.1)
        assert laplacian_extremes(60, g.edges) == laplacian_extremes(60, g.edges)

    def test_needs_two_vertices(self):
        with pytest.raises(InvalidInputError):
            laplacian_extremes(1, np.zeros((0, 2), dtype=np.int64))


class TestFwht:
    def test_matches_parity_matrix(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3, 4):
            size = 1 << n
            v = rng.standard_normal(size)
            direct = np.array(
                [
                    sum((-1) ** ((x & z).bit_count() % 2) * v[x] for x in range(size))
                    for z in range(size)
                ]
            )
            np.testing.assert_allclose(fwht(v), direct, atol=1e-12)

    def test_bit_identical_to_radix2(self):
        # even and odd log2(N): two butterfly levels per pass, plus one
        # radix-2 pass, leave every operation and its order unchanged; so do
        # the transposed stage, the blocks and the column-slice passes, run
        # here up to two radix-4 passes past the largest block
        rng = np.random.default_rng(3)
        for k in range(linalg.FWHT_BLOCK_BITS + 5):
            v = rng.standard_normal(1 << k)
            before = v.copy()
            assert np.array_equal(fwht(v), fwht_radix2(v)), k
            assert np.array_equal(v, before)
        strided = rng.standard_normal(1 << 18)[::2]
        assert np.array_equal(fwht(strided), fwht_radix2(strided))
        ints = [int(x) for x in rng.integers(-9, 10, 1 << 10)]
        assert np.array_equal(fwht(ints), fwht_radix2(ints))
        # all-zero blocks skip their passes: 2**17 and 2**18 are four blocks
        # each, here occupied by pair vectors, one random block at a time,
        # and blocks whose only entries other than +0.0 are -0.0, a NaN, an
        # infinity or a subnormal
        sparse = []
        for k in (17, 18):
            size = 1 << k
            block = size >> 2
            for m in range(1, k + 1):
                v = np.zeros(size)
                v[[0, (1 << m) - 1]] = 1.0
                sparse.append(v)
            for i in range(0, size, block):
                v = np.zeros(size)
                v[i:i + block] = rng.standard_normal(block)
                sparse.append(v)
                for special in (-0.0, math.nan, math.inf, 5e-324):
                    v = np.zeros(size)
                    v[i + 7] = special
                    sparse.append(v)
                v = np.zeros(size)
                v[i:i + block] = -0.0
                sparse.append(v)
        spread = np.zeros(1 << 19)
        spread[1 << 17:1 << 18] = rng.standard_normal(1 << 17)
        sparse.append(spread[::2])  # a strided view whose block 1 is occupied
        with np.errstate(invalid="ignore"):  # inf - inf
            for v in sparse:
                got, want = fwht(v), fwht_radix2(v)
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_zero_blocks_skip_their_passes(self, monkeypatch):
        # 2**18 floats are four blocks: each block other than +0.0 takes two
        # passes (transposed and direct), then four column-slice passes run
        # past the block whatever the input
        walsh_rows, calls = linalg._walsh_rows, []

        def counted(x, buf):
            calls.append(x.shape)
            walsh_rows(x, buf)

        monkeypatch.setattr(linalg, "_walsh_rows", counted)
        v = np.zeros(1 << 18)
        v[[0, 5]] = 1.0
        fwht(v)
        occupied = len(calls)
        calls.clear()
        fwht(np.ones(1 << 18))
        assert (occupied, len(calls)) == (2 + 4, 8 + 4)

    def test_rejects_non_power_of_two(self):
        for size in (0, 3, 6, 12, 1000):
            with pytest.raises(InvalidInputError):
                fwht(np.zeros(size))

    @pytest.mark.parametrize("vec", [np.arange(16.0).reshape(4, 4), np.array(2.0),
                                     np.zeros((1, 8)), [[1.0, 2.0]]])
    def test_rejects_non_vector(self, vec):
        with pytest.raises(InvalidInputError, match="vector"):
            fwht(vec)


def fwht_radix2(vec):
    """One butterfly level per pass: the reference transform."""
    a = np.array(vec, dtype=float)
    h = 1
    while h < a.size:
        a = a.reshape(-1, 2 * h)
        left = a[:, :h].copy()
        right = a[:, h:].copy()
        a[:, :h] = left + right
        a[:, h:] = left - right
        a = a.reshape(-1)
        h *= 2
    return a


def walsh_matrix(n):
    """Entry (x, z) is (-1)**popcount(x & z) / sqrt(2**n): column z is the
    parity eigenvector of the hypercube Laplacian with eigenvalue 2*popcount(z)."""
    idx = np.arange(1 << n, dtype=np.uint64)
    parity = np.bitwise_count(idx[:, None] & idx[None, :]) % 2
    return (1.0 - 2.0 * parity) / math.sqrt(1 << n)


class TestHypercubeEigenbasis:
    def test_one_bit_vectors(self):
        basis = hypercube_eigenbasis(1)
        root = 1 / math.sqrt(2)
        np.testing.assert_array_equal(basis_eigenvalues(basis), [0.0, 2.0])
        np.testing.assert_allclose(walsh_matrix(1), [[root, root], [root, -root]])
        # overlaps of vertex x are entry x of every eigenvector
        for x in range(2):
            np.testing.assert_allclose(basis_overlaps(basis, np.eye(2)[x]), walsh_matrix(1)[x])

    def test_parity_sign_example(self):
        # x = 0b101 shares two set bits with z = 0b111: even parity, plus sign
        basis = hypercube_eigenbasis(3)
        assert basis_overlaps(basis, np.eye(8)[0b101])[0b111] == pytest.approx(1 / math.sqrt(8))
        assert walsh_matrix(3)[0b101, 0b111] == pytest.approx(1 / math.sqrt(8))

    def test_matches_dense_eigenspaces(self, dense_hypercube):
        for n in range(1, 7):
            basis = hypercube_eigenbasis(n)
            dense = dense_hypercube(n)
            walsh = walsh_matrix(n)
            for j in range(n + 1):
                block = np.isclose(basis_eigenvalues(basis), 2 * j)
                proj_analytic = walsh[:, block] @ walsh[:, block].T
                dense_block = np.isclose(dense.eigenvalues, 2 * j, atol=1e-9)
                vectors = dense.eigenvectors[:, dense_block]
                proj_dense = vectors @ vectors.T
                assert np.max(np.abs(proj_analytic - proj_dense)) <= 1e-10

    def test_size_bound_is_the_basis_own(self):
        # the one owner of the 2**n bound, whose message the CLI prints
        with pytest.raises(InvalidParameterError,
                           match=r"^hypercube needs 1 to 22 coordinates, got 23$"):
            hypercube_eigenbasis(linalg.MAX_BASIS_BITS + 1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_domain_is_the_family_check(self, n):
        raised = set()
        for call in (hypercube_eigenbasis, hypercube, partial(certify_family, "hypercube")):
            with pytest.raises(InvalidParameterError) as info:
                call(n)
            raised.add((type(info.value), str(info.value)))
        assert raised == {(InvalidParameterError, f"hypercube needs n >= 1, got {n}")}

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 14), st.integers(0, 2**32 - 1), st.booleans(), st.floats(-15.0, 0.0))
    def test_transform_masses_match_the_grouping(self, n_bits, seed, dense, log_scale):
        # every level within c*sqrt(N)*eps of the total mass, c = 8, of the
        # bincount grouping over Hamming weights: odd and even n, a sparse or
        # a full support, signed values, squares down to 1e-30
        rng = np.random.default_rng(seed)
        n = 1 << n_bits
        size = n if dense else int(rng.integers(1, min(n, 64) + 1))
        support = np.sort(rng.choice(n, size, replace=False))
        values = rng.standard_normal(size) * 10.0**log_scale
        w = np.zeros(n)
        w[support] = values
        levels, masses = hypercube_eigenbasis(n_bits).transform_masses(support, values)
        want = transform_level_masses(n_bits, w)
        np.testing.assert_array_equal(levels, 2.0 * np.arange(n_bits, -1, -1))
        assert masses.shape == want.shape
        tol = 8 * math.sqrt(n) * np.finfo(float).eps * want.sum()
        assert np.abs(masses - want).max() <= tol

    def test_transform_masses_keep_nothing_of_size_n(self):
        # the transform's input and result, 16*N bytes, and its cache-sized
        # buffers at the peak; no popcount index is built or kept
        n_bits = 20
        basis = hypercube_eigenbasis(n_bits)
        support, values = np.array([0, (1 << n_bits) - 1]), np.full(2, 1 / math.sqrt(2))
        tracemalloc.start()
        try:
            basis.transform_masses(support, values)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 18 << n_bits
        assert held < 1 << n_bits

    def test_overlaps_match_matrix(self):
        rng = np.random.default_rng(8)
        basis = hypercube_eigenbasis(4)
        v = rng.standard_normal(16)
        np.testing.assert_allclose(basis_overlaps(basis, v), walsh_matrix(4).T @ v, atol=1e-12)


class TestEvolve:
    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((9, 9))
        m = (m + m.T) / 2
        v = rng.standard_normal(9)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(evolve(eig_sym(m), v, 0.0), v, atol=1e-12)

    def test_identity_hamiltonian_is_global_phase(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v)
        out = evolve(eig_sym(np.eye(8)), v, 1.7)
        np.testing.assert_allclose(np.abs(out), np.abs(v), atol=1e-12)
        np.testing.assert_allclose(out, np.exp(-1.7j) * v, atol=1e-12)

    def test_square_block_evolves_column_by_column(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((7, 7))
        d = eig_sym((m + m.T) / 2)
        block = rng.standard_normal((7, 7))
        out = evolve(d, block, 0.9)
        for j in range(7):
            np.testing.assert_allclose(out[:, j], evolve(d, block[:, j], 0.9), atol=1e-12)

    def test_two_vertex_search_reaches_oracle_peak(self):
        # 2x2 closed-form oracle: H = gamma_c*Q - |0><0| has eigenpairs whose
        # aligned-phase amplitude bound (|u_1| + |u_2|)**2 gives the exact
        # peak probability; the first period must realize it.
        g = complete(2)
        w = MarkedState.single(2, 0)
        params = search_params(laplacian_decomposition(laplacian(g)), w)
        h = params.gamma_c * laplacian(g) - np.outer(w.weights, w.weights)
        tr, det = np.trace(h), np.linalg.det(h)
        disc = math.sqrt(tr * tr - 4 * det)
        mu = np.array([(tr + disc) / 2, (tr - disc) / 2])
        vecs = []
        for m_k in mu:
            v = np.array([h[0, 1], m_k - h[0, 0]])
            vecs.append(v / np.linalg.norm(v))
        s = uniform_state(2)
        u = np.array([(vec @ w.weights) * (vec @ s) for vec in vecs])
        oracle_peak = float(np.sum(np.abs(u))) ** 2
        assert oracle_peak == pytest.approx(0.9, abs=1e-12)

        decomp_h = eig_sym(h)
        period = 2 * math.pi / (mu[0] - mu[1])
        times = np.linspace(0.0, period, 4001)
        probs = [abs(w.weights @ evolve(decomp_h, s, t)) ** 2 for t in times]
        assert max(probs) >= oracle_peak - 1e-6
        # periodicity of the two-level dynamics
        assert probs[0] == pytest.approx(probs[-1], abs=1e-9)

    def test_unitary(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((20, 20))
        m = (m + m.T) / 2
        d = eig_sym(m)
        v = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        v /= np.linalg.norm(v)
        for t in (0.3, 2.0, 17.5):
            assert abs(np.linalg.norm(evolve(d, v, t)) - 1.0) <= 1e-10

    def test_group_property(self):
        rng = np.random.default_rng(14)
        m = rng.standard_normal((15, 15))
        m = (m + m.T) / 2
        d = eig_sym(m)
        v = rng.standard_normal(15)
        v /= np.linalg.norm(v)
        one_step = evolve(d, evolve(d, v, 0.7), 1.9)
        combined = evolve(d, v, 2.6)
        np.testing.assert_allclose(one_step, combined, atol=1e-9)
