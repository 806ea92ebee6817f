import decimal
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctqw_search import cli, linalg
from ctqw_search import (
    DegenerateStateError,
    DisconnectedGraphError,
    Graph,
    HypercubeEigenbasis,
    InvalidInputError,
    InvalidParameterError,
    MarkedState,
    NumericError,
    OrthogonalStateError,
    PoleError,
    amplitude_approx,
    complete,
    complete_minus_disjoint_edges,
    eig_sym,
    f_of_mu,
    graph_search_params,
    hypercube,
    hypercube_eigenbasis,
    laplacian,
    laplacian_decomposition,
    paley,
    regular_multipartite,
    run_hypercube,
    search,
    search_params,
    solve_mu,
    uniform_state,
)
from conftest import (
    DEGENERATE_FAMILIES,
    amplitude_exact_sum,
    basis_eigenvalues,
    basis_overlaps,
    evolve,
    outside_pole_guard,
    overlaps,
    path_graph,
    random_connected_graph,
    random_marked_state,
    transform_level_masses,
)


def coupled_instance(g, seed, p_n=None):
    """Dense decomposition, state, parameters, and Hamiltonian eigendata."""
    decomp = laplacian_decomposition(laplacian(g))
    rng = np.random.default_rng(seed)
    state = random_marked_state(rng, g.n_vertices, p_n=p_n)
    params = search_params(decomp, state)
    h = params.gamma_c * laplacian(g) - np.outer(state.weights, state.weights)
    return decomp, state, params, eig_sym(h)


class TestMarkedState:
    def test_phase_flip(self):
        state = MarkedState.from_weights([-1.0, 0.0, 0.0])
        assert state.weights[0] == 1.0

    def test_norm_validation(self):
        with pytest.raises(InvalidInputError):
            MarkedState(np.array([1.0, 1.0]))

    def test_empty_support(self):
        with pytest.raises(InvalidInputError):
            MarkedState.from_weights([0.0, 0.0])

    @pytest.mark.parametrize("scale", [1e200, 1e308, 1e-300, 1e-320])
    def test_from_weights_at_any_finite_scale(self, scale):
        assert np.array_equal(MarkedState.from_weights([scale, scale, 0.0, 0.0]).weights,
                              MarkedState.pair(4, 0, 1).weights)
        assert np.array_equal(MarkedState.from_weights([0.0, -scale, 0.0]).weights,
                              MarkedState.single(3, 1).weights)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_from_weights_refuses_non_finite(self, bad):
        with pytest.raises(InvalidInputError, match="non-finite"):
            MarkedState.from_weights([bad, 1.0, 0.0])

    def test_factories(self):
        assert MarkedState.single(4, 2).support == (2,)
        assert MarkedState.pair(4, 0, 3).support == (0, 3)
        assert MarkedState.uniform_over(4, [1, 2, 3]).support == (1, 2, 3)
        np.testing.assert_allclose(
            MarkedState.uniform_over(4, [1, 2]).weights[1], 1 / math.sqrt(2)
        )

    @pytest.mark.parametrize("make", [
        lambda: MarkedState.from_mapping(3, {1.5: 1.0}),
        lambda: MarkedState.uniform_over(3, [0.9, 2]),
        lambda: MarkedState.from_mapping(3.0, {1: 1.0}),
        lambda: MarkedState.single(3, "1"),
        lambda: MarkedState.pair(4, 0, np.float64(3.0))])
    def test_non_integer_vertex_or_dimension_refused(self, make):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            make()

    def test_numpy_integers_accepted(self):
        state = MarkedState.uniform_over(np.int64(4), [np.int32(3), np.uint8(1)])
        assert type(state.n) is int and state.n == 4
        assert state.support == (1, 3)

    def test_constructors_build_one_state(self, tmp_path):
        # the mapping, dense-weights and state-file constructors
        state_file = tmp_path / "state.txt"
        state_file.write_text("1 0.6\n5 -0.8\n")
        built = [MarkedState.from_mapping(8, {1: 0.6, 5: -0.8}),
                 MarkedState.from_weights([0, 0.6, 0, 0, 0, -0.8, 0, 0]),
                 cli._load_state(str(state_file), 8)]
        for state in built:
            assert state.n == 8
            assert state.vertices.tolist() == [1, 5]
            assert state.values.tolist() == built[0].values.tolist()


@st.composite
def sparse_weights(draw, max_n=64):
    """Dimension n, distinct vertices and their nonzero weights, mostly
    positive, at scales from 1e-3 to 1e3."""
    n = draw(st.integers(1, max_n))
    verts = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 24), unique=True))
    size = len(verts)
    magnitudes = draw(st.lists(st.floats(1e-3, 1e3), min_size=size, max_size=size))
    signs = draw(st.lists(st.sampled_from([1.0, 1.0, 1.0, -1.0]), min_size=size,
                          max_size=size))
    return n, verts, [m * s for m, s in zip(magnitudes, signs)]


def dense_vector(n, verts, weights):
    w = np.zeros(n)
    w[verts] = weights
    return w


# every constructor's refusals: exception type and exact message
REFUSALS = [
    (lambda: MarkedState(np.array([])), InvalidInputError,
     "marked state must be a non-empty vector"),
    (lambda: MarkedState(np.ones((2, 2)) / 2), InvalidInputError,
     "marked state must be a non-empty vector"),
    (lambda: MarkedState([math.nan, 1.0, 0.0]), InvalidInputError,
     "marked state has non-finite amplitudes"),
    (lambda: MarkedState([0.0, -math.inf]), InvalidInputError,
     "marked state has non-finite amplitudes"),
    (lambda: MarkedState(np.zeros(4)), InvalidInputError,
     "marked state norm deviates from 1 by 1.000e+00"),
    (lambda: MarkedState([0.6, 0.8, 0.1]), InvalidInputError,
     "marked state norm deviates from 1 by 4.988e-03"),
    (lambda: MarkedState.from_weights([]), InvalidInputError, "marked state has empty support"),
    (lambda: MarkedState.from_weights([0.0, 0.0]), InvalidInputError,
     "marked state has empty support"),
    (lambda: MarkedState.from_weights([0.0, math.nan]), InvalidInputError,
     "marked state has non-finite amplitudes"),
    (lambda: MarkedState.from_weights(np.ones((2, 2))), InvalidInputError,
     "marked state must be a non-empty vector"),
    (lambda: MarkedState.from_weights(np.zeros((2, 2))), InvalidInputError,
     "marked state has empty support"),
    (lambda: MarkedState([1.0, 1.0]), InvalidInputError,
     "marked state norm deviates from 1 by 4.142e-01"),
    (lambda: MarkedState.from_mapping(4, {}), InvalidInputError,
     "marked state has empty support"),
    (lambda: MarkedState.from_mapping(4, {0: 1.0, 4: 1.0}), InvalidInputError,
     "vertex 4 out of range for dimension 4"),
    (lambda: MarkedState.from_mapping(4, {-1: 1.0}), InvalidInputError,
     "vertex -1 out of range for dimension 4"),
    (lambda: MarkedState.from_mapping(4, {1: math.nan}), InvalidInputError,
     "marked state has non-finite amplitudes"),
    (lambda: MarkedState.from_mapping(4, {3: -math.inf, 1: 1.0}), InvalidInputError,
     "marked state has non-finite amplitudes"),
    (lambda: MarkedState.from_mapping(4, {1: 0.0, 2: 0.0}), InvalidInputError,
     "marked state has empty support"),
    (lambda: MarkedState.single(8, 8), InvalidInputError, "vertex 8 out of range for dimension 8"),
    (lambda: MarkedState.pair(8, 3, 3), InvalidParameterError,
     "pair state needs two distinct vertices, got 3 twice"),
    (lambda: MarkedState.pair(8, -2, 3), InvalidInputError,
     "vertex -2 out of range for dimension 8"),
    (lambda: MarkedState.uniform_over(8, [1, 2, 1]), InvalidParameterError,
     "marked vertices contain repeats: [1, 2, 1]"),
    (lambda: MarkedState.uniform_over(8, []), InvalidInputError,
     "marked state has empty support"),
]


class TestSparseState:
    @settings(max_examples=200, deadline=None)
    @given(sparse_weights())
    def test_dense_and_mapping_constructors_agree(self, case):
        n, verts, weights = case
        mapped = MarkedState.from_mapping(n, dict(zip(verts, weights)))
        built = MarkedState.from_weights(dense_vector(n, verts, weights))
        assert mapped.support == built.support == tuple(sorted(verts))
        np.testing.assert_array_max_ulp(mapped.weights, built.weights, maxulp=1)
        for state in (mapped, built):
            assert state.n == n and state.vertices.dtype == np.int64
            np.testing.assert_array_equal(state.weights[state.vertices], state.values)
            assert not (state.vertices.flags.writeable or state.values.flags.writeable
                        or state.weights.flags.writeable)
        # presets: bit for bit
        preset = MarkedState.uniform_over(n, verts)
        indicator = MarkedState.from_weights(dense_vector(n, verts, 1.0))
        assert np.array_equal(preset.weights, indicator.weights)

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from([None, False, True]), st.data())
    def test_search_params_match_dense_vector_route(self, transform, data):
        # None: a dense decomposition; False/True: the hypercube basis with the
        # kernel or the transform route forced
        if transform is None:
            n, verts, weights = data.draw(sparse_weights(max_n=40))
            g = random_connected_graph(np.random.default_rng(n), max(n, 2), 0.3)
            basis = laplacian_decomposition(laplacian(g))
            state = MarkedState.from_mapping(basis.n, dict(zip(verts, weights)))
            dense = basis.levels(basis.overlaps(state.weights))
        else:
            n, verts, weights = data.draw(sparse_weights(max_n=256))
            n_bits = max(n - 1, 1).bit_length()
            basis = hypercube_eigenbasis(n_bits)
            state = MarkedState.from_mapping(basis.n, dict(zip(verts, weights)))
            dense = (2.0 * np.arange(n_bits, -1, -1),
                     transform_level_masses(n_bits, state.weights))
        try:
            want = search._level_params(*dense)
        except (OrthogonalStateError, DegenerateStateError) as exc:
            with pytest.raises(type(exc)):
                search_params(basis, state)
            return
        with pytest.MonkeyPatch.context() as mp:
            if transform is not None:
                mp.setattr(HypercubeEigenbasis, "_transform_cheaper",
                           lambda self, r: transform)
            got = search_params(basis, state)
        np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
        np.testing.assert_allclose(got.a_k, want.a_k, rtol=0, atol=1e-12)
        for key in ("p_n", "gamma_c", "beta"):
            assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-12)

    @pytest.mark.parametrize("build, error, message", REFUSALS)
    def test_refusals_keep_type_and_message(self, build, error, message):
        with pytest.raises(error) as caught:
            build()
        assert type(caught.value) is error and str(caught.value) == message


class TestOverlaps:
    def test_uniform_state_hits_zero_mode_only(self):
        g = complete(5)
        decomp = laplacian_decomposition(laplacian(g))
        state = MarkedState(uniform_state(5))
        p = overlaps(decomp, state)
        assert p[-1] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(p[:-1], 0.0, atol=1e-12)

    def test_single_vertex_uniform_overlap(self):
        for n in (2, 5, 8):
            decomp = laplacian_decomposition(laplacian(complete(n)))
            p = overlaps(decomp, MarkedState.single(n, 0))
            assert p[-1] == pytest.approx(1 / math.sqrt(n), abs=1e-12)

    def test_antipodal_pair_kills_odd_parity(self):
        for n in (2, 3, 4, 6):
            size = 1 << n
            basis = hypercube_eigenbasis(n)
            p = overlaps(basis, MarkedState.pair(size, 0, size - 1))
            odd = np.bitwise_count(np.arange(size, dtype=np.uint64)) % 2 == 1
            np.testing.assert_allclose(p[odd], 0.0, atol=1e-12)

    def test_normalization(self):
        rng = np.random.default_rng(21)
        for g in (complete(6), paley(13), hypercube(4)):
            decomp = laplacian_decomposition(laplacian(g))
            for _ in range(10):
                state = random_marked_state(rng, g.n_vertices)
                p = overlaps(decomp, state)
                assert np.sum(p**2) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        decomp = laplacian_decomposition(laplacian(complete(4)))
        with pytest.raises(InvalidInputError):
            overlaps(decomp, MarkedState.single(5, 0))


    def test_blocks_of_columns(self):
        decomp = laplacian_decomposition(laplacian(paley(13)))
        rng = np.random.default_rng(5)
        block = np.stack([random_marked_state(rng, 13).weights for _ in range(4)], axis=1)
        p = decomp.overlaps(block)
        levels, masses = decomp.levels(p)
        assert p.shape == (13, 4) and masses.shape == (levels.size, 4)
        for j in range(4):
            np.testing.assert_allclose(p[:, j], decomp.overlaps(block[:, j]), atol=1e-14)
            support = np.flatnonzero(block[:, j])
            np.testing.assert_allclose(
                masses[:, j], decomp.level_masses(support, block[support, j])[1], atol=1e-14)
        for shape in [(), (12,), (14,), (12, 4), (4, 13), (13, 2, 2), (13, 1, 1)]:
            with pytest.raises(InvalidInputError):
                decomp.overlaps(np.zeros(shape))
        # the exact amplitude pairs two vectors, not a vector with a block
        s = uniform_state(13)
        for w in (block[:, :1], np.eye(13)):
            with pytest.raises(InvalidInputError):
                amplitude_exact_sum(decomp, w, s, 0.5)


class TestSearchParams:
    def test_single_vertex_complete_closed_form(self):
        # all nonzero eigenvalues equal N, so the sums collapse
        for n in (4, 8, 16):
            decomp = laplacian_decomposition(laplacian(complete(n)))
            params = search_params(decomp, MarkedState.single(n, 0))
            assert params.gamma_c == pytest.approx((1 - 1 / n) / n, abs=1e-12)
            assert params.beta**2 == pytest.approx((1 - 1 / n) / n**2, abs=1e-12)
            assert params.envelope == pytest.approx(math.sqrt(1 - 1 / n), abs=1e-12)
            assert params.t_opt == pytest.approx(
                math.pi * params.beta / (2 * params.gamma_c * params.p_n), abs=1e-12
            )

    def test_pair_distance_one_on_sixteen_bits(self):
        basis = hypercube_eigenbasis(16)
        params = search_params(basis, MarkedState.pair(1 << 16, 0, 1))
        assert params.envelope == pytest.approx(0.9418, abs=2e-3)

    def test_uniform_state_is_degenerate(self):
        decomp = laplacian_decomposition(laplacian(complete(6)))
        with pytest.raises(DegenerateStateError):
            search_params(decomp, MarkedState(uniform_state(6)))

    def test_zero_sum_state_is_orthogonal(self):
        decomp = laplacian_decomposition(laplacian(complete(4)))
        state = MarkedState.from_weights([1.0, -1.0, 0.0, 0.0])
        with pytest.raises(OrthogonalStateError):
            search_params(decomp, state)

    def test_mu_antisymmetry_and_envelope_bound(self):
        rng = np.random.default_rng(33)
        for g in (complete(8), paley(13), complete_minus_disjoint_edges(10, 5)):
            decomp = laplacian_decomposition(laplacian(g))
            for _ in range(5):
                params = search_params(decomp, random_marked_state(rng, g.n_vertices))
                assert params.mu1 == -params.mu2
                assert params.envelope <= 1.0 + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_envelope_cauchy_schwarz_property(self, seed):
        g = paley(13)
        decomp = laplacian_decomposition(laplacian(g))
        state = random_marked_state(np.random.default_rng(seed), 13)
        params = search_params(decomp, state)
        assert params.envelope <= 1.0 + 1e-12
        assert params.reduced_envelope <= 1.0 + 1e-12
        assert np.sum(params.a_k) == pytest.approx(1.0, abs=1e-10)


def per_eigenvector_sums(basis, state):
    """p_n, gamma_c and beta summed over every eigenvector, one term each;
    the zero mode is the eigenvector of the smallest eigenvalue."""
    p = basis_overlaps(basis, state.weights)
    lam = np.asarray(basis_eigenvalues(basis))
    zero = int(np.argmin(lam))
    rest = np.delete(p**2, zero)
    lam_rest = np.delete(lam, zero)
    return (float(p[zero]), float(np.sum(rest / lam_rest)),
            math.sqrt(float(np.sum(rest / lam_rest**2))))


BASES = st.one_of(
    st.sampled_from(DEGENERATE_FAMILIES),
    st.builds(random_connected_graph, st.integers(0, 2**32 - 1).map(np.random.default_rng),
              st.integers(2, 24), st.floats(0.0, 0.5)),
).map(lambda g: laplacian_decomposition(laplacian(g))) | st.builds(
    hypercube_eigenbasis, st.integers(1, 8))


class TestLevels:
    @settings(max_examples=80, deadline=None)
    @given(BASES, st.integers(0, 2**32 - 1))
    def test_grouped_params_match_per_eigenvector_sums(self, basis, seed):
        rng = np.random.default_rng(seed)
        state = random_marked_state(rng, basis.n, support=int(rng.integers(1, basis.n + 1)))
        params = search_params(basis, state)
        p_n, gamma_c, beta = per_eigenvector_sums(basis, state)
        assert params.p_n == pytest.approx(p_n, rel=1e-12)
        assert params.gamma_c == pytest.approx(gamma_c, rel=1e-12)
        assert params.beta == pytest.approx(beta, rel=1e-12)
        # distinct levels in decreasing order, the zero level last
        assert np.all(np.diff(params.eigenvalues) < 0)
        assert params.eigenvalues[-1] == 0.0
        assert np.sum(params.a_k) == pytest.approx(1.0, abs=1e-12)
        # grouping leaves the secular function and its roots unchanged
        grouped = solve_mu(params.overlaps, params.eigenvalues, params.gamma_c)
        full = solve_mu(basis_overlaps(basis, state.weights), basis_eigenvalues(basis),
                        params.gamma_c)
        np.testing.assert_allclose(grouped, full, rtol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.booleans())
    def test_pair_kernel_masses_match_transform(self, n, seed, signed):
        rng = np.random.default_rng(seed)
        support = int(rng.integers(1, (1 << n) + 1))
        state = random_marked_state(rng, 1 << n, support=support)
        if not signed:
            state = MarkedState.from_weights(np.abs(state.weights))
        params = run_hypercube(n, state, steps=2).params
        np.testing.assert_array_equal(params.eigenvalues, 2.0 * np.arange(n, -1, -1))
        np.testing.assert_allclose(params.a_k, transform_level_masses(n, state.weights),
                                   rtol=0, atol=1e-12)
        basis_params = search_params(hypercube_eigenbasis(n), state)
        assert params.gamma_c == pytest.approx(basis_params.gamma_c, rel=1e-12)
        assert params.beta == pytest.approx(basis_params.beta, rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans())
    def test_kernel_and_transform_routes_match_dense(self, dense_hypercube, n, seed, wide):
        # each route forced in turn on supports either side of r**2 = N*log2(N)
        rng = np.random.default_rng(seed)
        pairs_bound = math.isqrt(n << n)
        support = int(rng.integers(pairs_bound + 1, (1 << n) + 1) if wide and
                      pairs_bound < 1 << n else rng.integers(1, pairs_bound + 1))
        states = [random_marked_state(rng, 1 << n, support=support)]
        # signed weights whose pair sums cancel, the last one to p_n = 3.75e-5
        states += [MarkedState.from_mapping(1 << k, amplitudes) for k, amplitudes in (
            (5, {0: 0.6, 1: 0.8}), (5, {0: 0.6, 5: -0.8}),
            (7, {3: 0.5, 40: -0.2, 77: 0.7, 127: 0.4}),
            (6, {1: 0.5, 2: 0.5, 12: -0.5, 7: -0.4997})) if k == n]
        for state in states:
            dense = search_params(dense_hypercube(n), state)
            routes = []
            for transform in (False, True):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(HypercubeEigenbasis, "_transform_cheaper",
                               lambda self, r, transform=transform: transform)
                    routes.append(search_params(hypercube_eigenbasis(n), state))
            kernel, transform = routes
            for params, other in ((kernel, transform), (kernel, dense), (transform, dense)):
                np.testing.assert_allclose(params.eigenvalues, other.eigenvalues,
                                           rtol=0, atol=1e-10)
                np.testing.assert_allclose(params.a_k, other.a_k, rtol=0, atol=1e-10)
                for key in ("p_n", "gamma_c", "beta"):
                    assert getattr(params, key) == pytest.approx(getattr(other, key),
                                                                 rel=1e-10)

    def test_pair_kernel_overlaps_finite(self):
        # odd levels of an antipodal pair have zero mass; the pair kernel
        # returns it with rounding of either sign
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in range(3, 17):
                size = 1 << n
                for state in (MarkedState.pair(size, 0, size - 1),
                              MarkedState.uniform_over(size, [0, 3, 5, 6])):
                    params = run_hypercube(n, state, steps=2).params
                    assert np.all(np.isfinite(params.overlaps))
                    assert np.all(params.overlaps >= 0.0)


def star_graph(n):
    return Graph.from_edges(n, [(0, v) for v in range(1, n)])


def barbell_graph(k, m):
    """Two k-cliques joined by a path of m vertices."""
    clique = [(u, v) for u in range(k) for v in range(u + 1, k)]
    far = k + m
    bridge = [(v, v + 1) for v in range(k - 1, far)]
    return Graph.from_edges(2 * k + m, clique + bridge + [(far + u, far + v) for u, v in clique])


SOLVE_GRAPHS = st.one_of(
    st.builds(random_connected_graph, st.integers(0, 2**32 - 1).map(np.random.default_rng),
              st.integers(2, 40), st.floats(0.0, 0.5)),
    st.builds(path_graph, st.integers(2, 120)),
    st.builds(star_graph, st.integers(2, 60)),
    st.builds(barbell_graph, st.integers(2, 12), st.integers(0, 30)),
    st.sampled_from(DEGENERATE_FAMILIES),
)


class TestGraphSearchParams:
    """The conjugate-gradient route against the dense ``search_params`` and an
    LU solve of (Q + J/N) x = w - p_n s, to 1e-10 relative, or 16*kappa*eps
    where kappa = lambda_max/lambda_2 makes that the larger."""

    @settings(max_examples=150, deadline=None)
    @given(SOLVE_GRAPHS, st.integers(0, 2**32 - 1), st.sampled_from([None, 1, 2, 5]))
    # p_n**2 = 0.99988: the dense overlaps hold this only with the uniform
    # vector projected out of the nonzero eigenvectors
    @example(path_graph(98), 142034625, None)
    def test_matches_dense_and_lu(self, g, seed, support):
        n = g.n_vertices
        rng = np.random.default_rng(seed)
        state = random_marked_state(rng, n, support=support)
        q = laplacian(g)
        decomp = laplacian_decomposition(q)
        kappa = decomp.eigenvalues[0] / decomp.eigenvalues[-2]
        tol = max(1e-10, 16 * kappa * np.finfo(float).eps)
        try:
            want = search_params(decomp, state)
        except (OrthogonalStateError, DegenerateStateError) as exc:
            with pytest.raises(type(exc)):
                graph_search_params(g, state)
            return
        got = graph_search_params(g, state)
        assert got.eigenvalues is None and got.overlaps is None
        for name in ("p_n", "gamma_c", "beta", "envelope", "t_opt", "mu1", "mu2"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=tol, abs=0.0), name
        w = state.weights
        x = np.linalg.solve(q + 1.0 / n, w - got.p_n * uniform_state(n))
        assert got.gamma_c == pytest.approx(w @ x, rel=tol, abs=0.0)
        assert got.beta == pytest.approx(np.linalg.norm(x), rel=tol, abs=0.0)

    def test_two_vertices(self):
        params = graph_search_params(complete(2), MarkedState.single(2, 0))
        # w - p_n s = (1/2, -1/2) in the level 2: x = (1/4, -1/4)
        assert params.p_n == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert params.gamma_c == pytest.approx(0.25, rel=1e-15)
        assert params.beta == pytest.approx(math.sqrt(2) / 4, rel=1e-15)

    def test_one_vertex_is_degenerate(self):
        with pytest.raises(DegenerateStateError):
            graph_search_params(Graph.from_edges(1, []), MarkedState.single(1, 0))

    def test_domain_errors(self):
        g = path_graph(6)
        with pytest.raises(OrthogonalStateError):
            graph_search_params(g, MarkedState.from_mapping(6, {0: 1.0, 3: -1.0}))
        with pytest.raises(DegenerateStateError):
            graph_search_params(g, MarkedState.uniform_over(6, range(6)))
        with pytest.raises(DisconnectedGraphError):
            graph_search_params(Graph.from_edges(4, [(0, 1), (2, 3)]), MarkedState.single(4, 0))

    def test_rejects_malformed_graph_and_dimension(self):
        with pytest.raises(InvalidInputError):
            graph_search_params(Graph.from_edges(3, [(0, 1), (1, 1), (1, 2)]),
                                MarkedState.single(3, 0))
        with pytest.raises(InvalidInputError):
            graph_search_params(path_graph(4), MarkedState.single(5, 0))


class TestSecularFunction:
    def test_pure_zero_mode(self):
        # single unit overlap on the zero eigenvalue: f(mu) = -1/mu
        p = np.array([0.0, 1.0])
        lam = np.array([3.0, 0.0])
        assert f_of_mu(-1.0, p, lam, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert f_of_mu(2.0, p, lam, 1.0) == pytest.approx(-0.5, abs=1e-14)

    def test_eigencondition_at_coupled_eigenvalues(self):
        _, state, params, decomp_h = coupled_instance(paley(13), seed=1)
        coupling = (decomp_h.eigenvectors.T @ state.weights) ** 2
        checked = 0
        for mu_k, r_k in zip(decomp_h.eigenvalues, coupling):
            if r_k < 1e-4:
                continue  # eigenvector orthogonal to the marked state: pole, not root
            value = f_of_mu(mu_k, params.overlaps, params.eigenvalues, params.gamma_c)
            assert value == pytest.approx(1.0, abs=1e-8)
            checked += 1
        assert checked >= 3

    def test_strictly_increasing_between_poles(self):
        _, _, params, _ = coupled_instance(complete_minus_disjoint_edges(8, 2), seed=2)
        # cluster numerically-degenerate eigenvalues into single poles
        poles = np.unique(np.round(params.gamma_c * params.eigenvalues, 9))
        for lo, hi in zip(poles[:-1], poles[1:]):
            grid = np.linspace(lo, hi, 13)[1:-1]
            values = [
                f_of_mu(mu, params.overlaps, params.eigenvalues, params.gamma_c)
                for mu in grid
            ]
            assert np.all(np.diff(values) > 0)

    def test_pole_raises(self):
        p = np.array([0.6, 0.8])
        lam = np.array([2.0, 0.0])
        with pytest.raises(PoleError):
            f_of_mu(2.0, p, lam, 1.0)

    def test_array_matches_scalar_calls(self):
        _, _, params, _ = coupled_instance(paley(13), seed=3)
        args = (params.overlaps, params.eigenvalues, params.gamma_c)
        mu = np.linspace(-0.9, 0.9, 24).reshape(4, 6) * params.gamma_c * params.eigenvalues[0]
        values = f_of_mu(mu, *args)
        assert values.shape == mu.shape
        np.testing.assert_array_equal(values, [[f_of_mu(float(m), *args) for m in row]
                                               for row in mu])
        assert type(f_of_mu(0.1, *args)) is float
        assert type(f_of_mu(np.float64(0.1), *args)) is float

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_array_with_non_finite_element(self, bad):
        with pytest.raises(InvalidParameterError):
            f_of_mu(np.array([0.5, bad, -0.5]), np.array([0.6, 0.8]), np.array([2.0, 0.0]), 1.0)

    def test_array_with_element_at_pole(self):
        # 2 + 1e-16 lies inside the guard of the pole at 2; 0 is the zero pole
        for pole in (2.0, 2.0 + 1e-16, 0.0):
            with pytest.raises(PoleError):
                f_of_mu(np.array([0.5, pole, -0.5]), np.array([0.6, 0.8]), np.array([2.0, 0.0]),
                        1.0)


def reference_secular(mu, p, lam, rate):
    """The secular sum as f_of_mu computed it before the prepared form: the
    same terms in the same order, each tested against the pole guard."""
    m = np.asarray(mu, dtype=float)
    active = p * p > search.NEGLIGIBLE_OVERLAP_SQ
    poles = rate * lam
    den = poles[active] - m[..., None]
    reach = np.maximum(max(abs(poles).max(), 1e-300), abs(m))[..., None]
    if (abs(den) < search.POLE_GUARD * reach).any():
        raise PoleError(f"mu = {mu} hits a pole")
    return (p[active] ** 2 / den).sum(axis=-1)


class TestSecularForm:
    """The prepared form, as the solver calls it, against f_of_mu and the
    arithmetic f_of_mu had before it: equal bit for bit, and f_of_mu refusing
    the same mu (the form itself tests no pole guard)."""

    @settings(max_examples=100, deadline=None)
    @given(BASES, st.integers(0, 2**32 - 1), st.booleans(), st.floats(-3.0, 3.0),
           st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=12))
    def test_matches_f_of_mu_bit_for_bit(self, basis, seed, grouped, log_rate, fractions):
        rng = np.random.default_rng(seed)
        state = random_marked_state(rng, basis.n, support=int(rng.integers(1, basis.n + 1)))
        params = search_params(basis, state)
        if grouped:
            p, lam = params.overlaps, params.eigenvalues
        else:  # one pole per eigenvector, some of them without mass
            p, lam = basis_overlaps(basis, state.weights), basis_eigenvalues(basis)
        rate = params.gamma_c * 10.0**log_rate
        form = search._SecularForm(p, lam, rate)
        # mu up to 1.5 times the top pole on either side, 0 (a pole) included
        mu = np.array(fractions) * rate * float(np.max(lam))
        want = []
        for m in mu:
            try:
                want.append(float(reference_secular(m, p, lam, rate)))
            except PoleError:
                want.append(None)
        if None in want:
            with pytest.raises(PoleError):
                f_of_mu(mu, p, lam, rate)
        else:
            assert np.array_equal(form(mu), want)
            assert np.array_equal(f_of_mu(mu, p, lam, rate), want)
            assert np.array_equal(form(mu.reshape(1, -1)), [want])
        for m, value in zip(mu, want):
            calls = (lambda: f_of_mu(float(m), p, lam, rate),
                     lambda: f_of_mu(np.float64(m), p, lam, rate),
                     lambda: f_of_mu(np.array(m), p, lam, rate))
            if value is None:
                for call in calls:
                    with pytest.raises(PoleError):
                        call()
            else:
                for call in (lambda: form(float(m)),) + calls:
                    got = call()
                    assert type(got) is float and np.array_equal(got, value)

    @settings(max_examples=40, deadline=None)
    @given(BASES, st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0), st.floats(-0.9, 0.9))
    def test_refuses_mu_in_the_pole_guard(self, basis, seed, log_rate, offset):
        rng = np.random.default_rng(seed)
        params = search_params(basis, random_marked_state(rng, basis.n))
        p, lam, rate = params.overlaps, params.eigenvalues, params.gamma_c * 10.0**log_rate
        form = search._SecularForm(p, lam, rate)
        pole = rate * float(rng.choice(lam[p * p > search.NEGLIGIBLE_OVERLAP_SQ]))
        mu = pole + offset * search.POLE_GUARD * form.scale
        with pytest.raises(PoleError):
            reference_secular(mu, p, lam, rate)
        for call in (lambda: f_of_mu(mu, p, lam, rate),
                     lambda: f_of_mu(np.array([mu, 0.5 * pole]), p, lam, rate)):
            with pytest.raises(PoleError):
                call()
        assert form.guarded(mu) and form.guarded(np.array([mu])).all()


class TestSolveMu:
    def test_roots_are_hamiltonian_eigenvalues(self):
        for g, seed in ((paley(13), 3), (complete(12), 4), (hypercube(4), 5)):
            _, _, params, decomp_h = coupled_instance(g, seed=seed)
            mu_pos, mu_neg = solve_mu(params.overlaps, params.eigenvalues, params.gamma_c)
            assert mu_pos > 0 > mu_neg
            for root in (mu_pos, mu_neg):
                assert np.min(np.abs(decomp_h.eigenvalues - root)) <= 1e-8

    def test_approximation_small_overlap(self):
        for g, seed in ((paley(29), 6), (complete(32), 7)):
            _, _, params, _ = coupled_instance(g, seed=seed, p_n=0.05)
            mu_pos, mu_neg = solve_mu(params.overlaps, params.eigenvalues, params.gamma_c)
            assert abs(mu_pos - params.mu1) / mu_pos <= 0.05
            assert abs(mu_neg - params.mu2) / abs(mu_neg) <= 0.05

    def test_complete_graph_sign_symmetry(self):
        # on K_N the secular equation is the quadratic
        # mu**2 + mu*p_n**2 - p_n**2*(1 - p_n**2) = 0, so the exact roots sum
        # to -p_n**2 (Vieta) and the relative asymmetry is about p_n; the
        # approximants are antisymmetric by construction
        for seed in range(3):
            _, _, params, _ = coupled_instance(complete(64), seed=seed, p_n=0.01)
            mu_pos, mu_neg = solve_mu(params.overlaps, params.eigenvalues, params.gamma_c)
            assert mu_pos + mu_neg == pytest.approx(-params.p_n**2, rel=1e-9)
            assert abs(mu_pos + mu_neg) / mu_pos <= 0.011
            assert params.mu1 == -params.mu2

    def test_coupling_weights_match_secular_derivative(self):
        _, state, params, decomp_h = coupled_instance(paley(13), seed=8, p_n=0.07)
        mu_pos, mu_neg = solve_mu(params.overlaps, params.eigenvalues, params.gamma_c)
        coupling = (decomp_h.eigenvectors.T @ state.weights) ** 2
        for root in (mu_pos, mu_neg):
            den = params.gamma_c * params.eigenvalues - root
            f_prime = float(np.sum(params.a_k / den**2))
            k = int(np.argmin(np.abs(decomp_h.eigenvalues - root)))
            assert 1.0 / f_prime == pytest.approx(coupling[k], abs=1e-7)


def bisection_solve_mu(overlaps, eigenvalues, jump_rate):
    """Reference secular roots: geometric bracket expansion, then bisection
    to relative width 1e-15, each step one evaluation of ``f_of_mu``."""
    p = np.asarray(overlaps, dtype=float)
    lam = np.asarray(eigenvalues, dtype=float)
    a = p**2
    lam_top = float(lam.max())
    zero = lam <= linalg._level_tol(lam_top, lam.size)
    active = (~zero) & (a > search.NEGLIGIBLE_OVERLAP_SQ)

    def f(mu):
        return f_of_mu(mu, p, lam, jump_rate)

    def bisect(lo, hi):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if f(mid) < 1.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-15 * abs(mid):
                break
        return 0.5 * (lo + hi)

    def expand(x, done, step):
        for _ in range(200):
            if done(x):
                return x
            x = step(x)
        raise AssertionError("reference failed to bracket a root")

    pole = jump_rate * float(lam[active].min())
    eps = 1e-14 * jump_rate * lam_top
    lo = expand(eps, lambda x: f(x) < 1.0, lambda x: x * 1e-3)
    hi = expand(pole - eps, lambda x: x > lo and f(x) > 1.0, lambda x: pole - (pole - x) * 0.5)
    mu_pos = bisect(lo, hi)
    hi = expand(-eps, lambda x: f(x) > 1.0, lambda x: x * 1e-3)
    lo = expand(-10.0 * jump_rate * lam_top, lambda x: f(x) < 1.0, lambda x: x * 2.0)
    return mu_pos, bisect(lo, hi)


def exact_roots_next_to_zero(overlaps, eigenvalues, jump_rate):
    """The roots of f = 1 next to 0 by bisection in 40-digit decimal
    arithmetic on the float inputs, taken as exact."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        terms = [(Decimal(float(p)) ** 2, Decimal(float(jump_rate)) * Decimal(float(lam)))
                 for p, lam in zip(overlaps, eigenvalues) if p != 0.0]

        def bisect(lo, hi):  # f - 1 < 0 at lo and > 0 at hi
            for _ in range(200):
                mid = (lo + hi) / 2
                if sum(a / (d - mid) for a, d in terms) < 1:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2

        pole = min(d for a, d in terms if d > 0 and a > search.NEGLIGIBLE_OVERLAP_SQ)
        return bisect(Decimal(0), pole), bisect(-sum(a for a, _ in terms), Decimal(0))


def split_level(overlaps, eigenvalues, k, rel_gap, share):
    """Split nonzero level k into two poles a relative ``rel_gap`` apart,
    the lower one taking ``share`` of its mass."""
    mass = overlaps[k] ** 2
    lam = np.insert(eigenvalues, k + 1, eigenvalues[k] * (1.0 - rel_gap))
    p = np.insert(overlaps, k + 1, math.sqrt(mass * share))
    p[k] = math.sqrt(mass * (1.0 - share))
    return p, lam


EPS = float(np.finfo(float).eps)


def bisection(func, lo, hi):
    """Root of an increasing function on (lo, hi) to the float resolution."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        lo, hi = (mid, hi) if func(mid) < 0.0 else (lo, mid)


def conditioned_tol(overlaps, eigenvalues, jump_rate, mu):
    """1e-10 of |mu| plus 16 eps times the condition of the root mu of
    f = 1 under the rounding of f: sum |a_k/(rate*lam_k - mu)| + 1 over f'."""
    a = np.asarray(overlaps) ** 2
    keep = a > search.NEGLIGIBLE_OVERLAP_SQ
    den = jump_rate * np.asarray(eigenvalues)[keep] - mu
    terms = a[keep] / den
    return 1e-10 * abs(mu) + 16 * EPS * (np.sum(np.abs(terms)) + 1.0) / np.sum(terms / den)


def assert_roots_match_references(p, lam, rate):
    """solve_mu against the bisection reference and against eigvalsh."""
    roots = solve_mu(p, lam, rate)
    try:
        want = bisection_solve_mu(p, lam, rate)
    except PoleError:  # the reference stops farther from the poles
        want = None
    if want is not None:
        for got, ref in zip(roots, want):
            assert abs(got - ref) <= conditioned_tol(p, lam, rate, ref)
    # the one negative and the smallest positive eigenvalue of the rank-one
    # matrix, to 1e-10 of the larger of its two terms (forming the matrix
    # rounds at that scale, which cancellation can leave far above its norm)
    keep = p**2 > search.NEGLIGIBLE_OVERLAP_SQ
    ev = np.linalg.eigvalsh(np.diag(rate * lam[keep]) - np.outer(p[keep], p[keep]))
    tol = 1e-10 * max(rate * float(np.max(lam)), float(np.sum(p**2)))
    assert abs(roots[1] - ev[0]) <= tol
    assert abs(roots[0] - ev[1]) <= tol


# a root, then points from a ulp to a millionth of it away, four a decade
ROOT_OFFSETS = np.concatenate([[0.0], 10.0 ** np.arange(-15.5, -5.9, 0.25),
                               -(10.0 ** np.arange(-15.5, -5.9, 0.25))])


def assert_root_check_decides_as_full_bound(p, lam, rate):
    """solve_mu's root check, which tries the bracketing poles' bound before
    ``_SecularForm.residual_bound``, accepts and refuses each root it checks,
    and points near it, as the full bound alone does."""
    checks = []
    check_root = search._check_root

    def recording(form, mu, f, bracket):
        checks.append((form, mu, bracket))
        return check_root(form, mu, f, bracket)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_check_root", recording)
        solve_mu(p, lam, rate)
    for form, root, bracket in checks:
        for x in (root * (1.0 + ROOT_OFFSETS)).tolist():
            if form.guarded(x):
                continue
            f = form(x)
            refused = abs(f - 1.0) > form.residual_bound(x, 2.0 * EPS * abs(x))
            try:
                check_root(form, x, f, bracket)
            except NumericError:
                assert refused
            else:
                assert not refused


def record_solver_steps(monkeypatch) -> list[tuple[float, bool]]:
    """Record each scalar evaluation of the prepared secular form, one per
    solver step, as (mu, whether the form holds the pole 0): the bracketing
    steps' form does, the polish's form in units of P does not.  The check
    of the returned roots, one array evaluation, is not recorded."""
    steps = []
    evaluate = search._SecularForm.__call__

    def recording(form, x):
        if not isinstance(x, np.ndarray):
            steps.append((x, bool((form.d == 0.0).any())))
        return evaluate(form, x)

    monkeypatch.setattr(search._SecularForm, "__call__", recording)
    return steps


ACCEPTANCE_POOL = [
    paley(13), paley(17), paley(29), complete(16), complete(32),
    complete_minus_disjoint_edges(12, 3), complete_minus_disjoint_edges(10, 5),
    regular_multipartite(4, 4), regular_multipartite(3, 4), hypercube(4), hypercube(5),
]


class TestSolveMuMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(BASES, st.integers(0, 2**32 - 1), st.booleans(), st.floats(-8.0, math.log10(0.99)),
           st.floats(-3.0, 3.0), st.floats(0.25, 4.0),
           st.one_of(st.none(), st.tuples(st.floats(-14.0, -3.0), st.floats(0.01, 0.99))),
           st.one_of(st.none(), st.floats(-19.0, -3.0)))
    def test_roots_match_bisection_and_eigvalsh(self, basis, seed, grouped, log_p_n,
                                                log_rate, scale, split, log_low_mass):
        rng = np.random.default_rng(seed)
        state = random_marked_state(rng, basis.n, p_n=10.0**log_p_n)
        params = search_params(basis, state)
        if grouped:
            p, lam = params.overlaps, params.eigenvalues
        else:
            p, lam = basis_overlaps(basis, state.weights), basis_eigenvalues(basis)
        p = np.array(p, dtype=float) * scale  # overlaps of a state of norm `scale`
        lam = np.asarray(lam)
        nonzero = np.flatnonzero(lam > 0.0)
        if split is not None:
            p, lam = split_level(p, lam, int(rng.choice(nonzero)), 10.0**split[0], split[1])
        if log_low_mass is not None:
            # a small mass on the lowest active pole
            active = np.flatnonzero((lam > 0.0) & (p**2 > search.NEGLIGIBLE_OVERLAP_SQ))
            p[active[np.argmin(lam[active])]] = math.sqrt(10.0**log_low_mass)
        with outside_pole_guard():
            assert_roots_match_references(p, lam, params.gamma_c * 10.0**log_rate)
            assert_root_check_decides_as_full_bound(p, lam, params.gamma_c * 10.0**log_rate)

    @pytest.mark.parametrize("masses, levels", [
        ([1.0 - 1e-16, 1e-16], [1.0, 0.0]),  # roots about 1e-8 from the pole 0
        ([0.7, 1e-16, 0.3], [1.5, 1.0, 0.0]),  # a tiny mass on the pole P
    ])
    def test_roots_near_guarded_poles(self, masses, levels):
        # Brent's first steps land within f_of_mu's pole guard here unless
        # they are kept out of it
        with outside_pole_guard():
            assert_roots_match_references(np.sqrt(masses), np.array(levels), 1.0)

    def test_total_mass_within_the_pole_guard(self):
        # the whole bracket (-A, 0) lies within 2 * POLE_GUARD * rate*lambda_max
        # of the pole 0, so no clamp keeps the solver's first point, -A/2, out
        # of the guard; f is exact there, and the roots match 40 digits
        for mass in (1e-17, 1e-15, 5e-15):
            for rate in (1.0, 1e3):
                p, lam = np.sqrt([0.9 * mass, 0.1 * mass]), np.array([9.0, 0.0])
                with outside_pole_guard():
                    roots = solve_mu(p, lam, rate)
                for got, want in zip(roots, exact_roots_next_to_zero(p, lam, rate)):
                    assert got == pytest.approx(float(want), rel=1e-15)

    def test_tiny_uniform_overlap_at_critical_rate(self):
        rng = np.random.default_rng(41)
        decomp = laplacian_decomposition(laplacian(paley(13)))
        for p_n in (1e-8, 1e-7, 1e-6):
            params = search_params(decomp, random_marked_state(rng, 13, p_n=p_n))
            assert_roots_match_references(params.overlaps, params.eigenvalues, params.gamma_c)

    def test_evaluations_per_root(self, monkeypatch):
        evaluated = record_solver_steps(monkeypatch)
        rng = np.random.default_rng(17)
        pool = ACCEPTANCE_POOL + [random_connected_graph(rng, int(rng.integers(3, 40)),
                                                         float(rng.uniform(0.0, 0.5)))
                                  for _ in range(10)]
        per_root = []
        for g in pool:
            decomp = laplacian_decomposition(laplacian(g))
            for p_n in (None, 0.3, 0.05, 1e-3, 1e-8):
                state = random_marked_state(rng, g.n_vertices, p_n=p_n)
                params = search_params(decomp, state)
                evaluated.clear()
                solve_mu(params.overlaps, params.eigenvalues, params.gamma_c)
                # each root evaluates f only on its own side of zero
                per_root += [sum(mu > 0.0 for mu, _ in evaluated),
                             sum(mu < 0.0 for mu, _ in evaluated)]
        # every step, of the bracketing solver or the polish, is one
        # evaluation of the prepared form; the old bisection solver needs
        # about 57 per root
        assert min(per_root) >= 1
        assert np.mean(per_root) <= 8.0
        assert max(per_root) <= 16

    @settings(max_examples=60, deadline=None)
    @given(BASES, st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
    def test_first_steps_follow_the_model(self, basis, seed, log_rate):
        # each root is first evaluated at the middle of its bracket, (0, P)
        # or (-A, 0), and then at the root of the model that keeps the
        # bracketing poles and the next pole up with their exact masses and
        # fits a constant to the first value
        rng = np.random.default_rng(seed)
        state = random_marked_state(rng, basis.n, support=int(rng.integers(1, basis.n + 1)))
        params = search_params(basis, state)
        rate = params.gamma_c * 10.0**log_rate
        a, levels = params.a_k, params.eigenvalues
        poles = rate * levels[a > search.NEGLIGIBLE_OVERLAP_SQ][::-1]
        masses = a[a > search.NEGLIGIBLE_OVERLAP_SQ][::-1]
        outer = poles[2] if poles.size > 2 else 2.0 * poles[1]
        a_outer = masses[2] if poles.size > 2 else 0.0
        with pytest.MonkeyPatch.context() as mp:
            recorded = record_solver_steps(mp)
            solve_mu(params.overlaps, levels, rate)
        # not the refinement next to zero, in units of P
        evaluated = [mu for mu, bracketing in recorded if bracketing]
        brackets = [((0.0, poles[1]), (masses[0], masses[1]), outer, a_outer),
                    ((-float(np.sum(a)), 0.0), (0.0, masses[0]), poles[1], masses[1])]
        for sign, ((lower, upper), (a_lower, a_upper), d, a_d) in zip((1.0, -1.0), brackets):
            steps = [mu for mu in evaluated if sign * mu > 0.0]
            x = 0.5 * (lower + upper)
            assert steps[0] == x
            if len(steps) == 1:
                continue
            g = f_of_mu(x, params.overlaps, levels, rate) - 1.0

            def model(mu, c=g - a_lower / (lower - x) - a_upper / (upper - x) - a_d / (d - x)):
                at_lower = a_lower / (lower - mu) if a_lower else 0.0
                return at_lower + a_upper / (upper - mu) + a_d / (d - mu) + c

            lo, hi = (lower, x) if g > 0.0 else (x, upper)
            # without a lower pole the model may stay positive on (-A, 0)
            root = bisection(model, lower, upper) if a_lower or model(lower) < 0.0 else lower
            want = [root] if lo < root < hi else [0.5 * (lo + hi)]
            if min(abs(root - lo), abs(root - hi)) <= 4.0 * EPS * max(abs(lo), abs(hi)):
                want = [root, 0.5 * (lo + hi)]  # rounding decides which side it falls on
            assert any(steps[1] == pytest.approx(w, rel=1e-9, abs=1e-12 * abs(x)) for w in want)

    @pytest.mark.parametrize("graph_seed, state_seed", [
        (13, 11), (35, 8), (88, 17), (116, 1), (119, 7), (150, 18), (175, 16), (216, 12),
        (236, 1), (323, 7)])
    def test_small_mass_on_lowest_pole(self, graph_seed, state_seed, monkeypatch):
        # a small mass on the smallest pole P and a root a few percent below
        # it: Brent's method on a pole-free form took 15 or 16 evaluations
        # here, alternating interpolation and bisection
        rng = np.random.default_rng(graph_seed)
        n = int(rng.integers(3, 40))
        g = random_connected_graph(rng, n, float(rng.uniform(0.0, 0.5)))
        params = search_params(laplacian_decomposition(laplacian(g)),
                               random_marked_state(np.random.default_rng(state_seed), n))
        k = np.flatnonzero(params.a_k[:-1] > search.NEGLIGIBLE_OVERLAP_SQ)[-1]
        pole = params.gamma_c * params.eigenvalues[k]
        assert 6e-4 <= params.a_k[k] <= 2e-3 and 0.2 <= params.a_k[-1] <= 0.7
        evaluated = record_solver_steps(monkeypatch)
        mu_pos, _ = solve_mu(params.overlaps, params.eigenvalues, params.gamma_c)
        assert 0.02 <= (pole - mu_pos) / pole <= 0.07
        assert sum(mu > 0.0 for mu, _ in evaluated) <= 10

    def test_stalled_model_checks_the_residual(self):
        # a level split 4e-15 apart; the bracket's lower pole is the split's
        # upper part, of mass 2e-17, so the model, which keeps only that part
        # and the pole above, stalls at 0.29407 where f - 1 = +0.025: the
        # residual sends the solver on by bisection to the root 0.2938470
        levels = np.array([0.0, 1.4638508427108186, 1.838660184389626, 1.8386601843896304,
                           3.1880207894266777, 3.6264196152860344])
        masses = np.array([4.2828189466052012e-03, 1.0598783734338599e-01,
                           4.6356677337655597e-02, 2.1032233079303015e-17,
                           4.4160437051453522e-01, 4.0176829585781809e-01])
        p, rate = np.sqrt(masses), 0.14649562091369062
        poles = rate * levels
        mu = search._secular_roots(search._SecularForm(p, levels, rate), poles[3], poles[4],
                                   masses[3], masses[4], poles[5], masses[5])
        want = bisection(lambda x: f_of_mu(x, p, levels, rate) - 1.0, poles[3], poles[4])
        assert abs(mu - want) <= conditioned_tol(p, levels, rate, want)

    @pytest.mark.parametrize("p_n", [1e-8, 1e-6, 1e-4])
    def test_roots_next_to_zero_at_the_critical_rate(self, p_n):
        # their distance sets the search dynamics; f - 1 rounds at eps near 0
        # while they lie about p_n apart, so each alone holds only about
        # eps/p_n of relative precision, but their distance must hold full
        # precision against 40-digit arithmetic on the same float inputs
        rng = np.random.default_rng(29)
        for g in DEGENERATE_FAMILIES[:5] + [random_connected_graph(rng, 30, 0.2)]:
            params = search_params(laplacian_decomposition(laplacian(g)),
                                   random_marked_state(rng, g.n_vertices, p_n=p_n))
            p, lam, rate = params.overlaps, params.eigenvalues, params.gamma_c
            mu_pos, mu_neg = solve_mu(p, lam, rate)
            want = exact_roots_next_to_zero(p, lam, rate)
            assert abs((mu_pos - mu_neg) - float(want[0] - want[1])) <= 1e-13 * (mu_pos - mu_neg)

    def test_negative_root_at_tiny_rate(self):
        # f(-A) - 1 is of order rate*lambda/A, so rounding gives it either
        # sign at rate 1e-18*gamma_c; the root is then -A to within rounding
        rng = np.random.default_rng(23)
        for g in DEGENERATE_FAMILIES:
            decomp = laplacian_decomposition(laplacian(g))
            for _ in range(20):
                params = search_params(decomp, random_marked_state(rng, g.n_vertices))
                rate = 1e-18 * params.gamma_c
                mu_pos, mu_neg = solve_mu(params.overlaps, params.eigenvalues, rate)
                assert mu_neg == pytest.approx(-np.sum(params.a_k), rel=1e-12)
                assert 0.0 < mu_pos < rate * params.eigenvalues[-2]

    def test_iteration_cap(self, monkeypatch):
        params = search_params(laplacian_decomposition(laplacian(paley(13))),
                               MarkedState.single(13, 0))
        monkeypatch.setattr(search, "MAX_SECULAR_STEPS", 2)
        with pytest.raises(NumericError, match="not converged"):
            solve_mu(params.overlaps, params.eigenvalues, params.gamma_c)


class TestRootCheck:
    """solve_mu verifies its two roots with one f_of_mu call on both."""

    @pytest.fixture
    def f_of_mu_calls(self, monkeypatch):
        calls = []

        def counting(mu, *args):
            calls.append(np.array(mu))
            return f_of_mu(mu, *args)

        monkeypatch.setattr(search, "f_of_mu", counting)
        return calls

    def test_refuses_a_root_off_by_a_millionth(self, monkeypatch):
        params = search_params(laplacian_decomposition(laplacian(paley(13))),
                               MarkedState.single(13, 0))
        polish = search._polish
        monkeypatch.setattr(search, "_polish", lambda mu, form: polish(mu, form) * (1.0 + 1e-6))
        with pytest.raises(NumericError, match="rounding bound"):
            solve_mu(params.overlaps, params.eigenvalues, params.gamma_c)

    def test_one_f_of_mu_call_per_solve(self, f_of_mu_calls):
        rng = np.random.default_rng(31)
        for g in ACCEPTANCE_POOL:
            decomp = laplacian_decomposition(laplacian(g))
            for p_n in (None, 0.05, 1e-8):
                params = search_params(decomp, random_marked_state(rng, g.n_vertices, p_n=p_n))
                f_of_mu_calls.clear()
                roots = solve_mu(params.overlaps, params.eigenvalues, params.gamma_c)
                assert len(f_of_mu_calls) == 1
                assert np.array_equal(f_of_mu_calls[0], roots)

    def test_root_in_the_pole_guard_goes_unchecked(self, f_of_mu_calls):
        # below the critical rate with a_0 = 1e-17 the positive root, about
        # a_0 / (sum_k a_k/(rate*lambda_k) - 1) = 1.3e-20, lies within
        # f_of_mu's guard of the pole 0
        p, lam = np.sqrt([0.5, 0.5 - 1e-17, 1e-17]), np.array([2.0, 1.0, 0.0])
        mu_pos, mu_neg = solve_mu(p, lam, 1e-3)
        assert len(f_of_mu_calls) == 1 and np.array_equal(f_of_mu_calls[0], [mu_neg])
        with pytest.raises(PoleError):
            f_of_mu(mu_pos, p, lam, 1e-3)
        want = exact_roots_next_to_zero(p, lam, 1e-3)
        assert mu_pos == pytest.approx(float(want[0]), rel=1e-10)
        assert mu_neg == pytest.approx(float(want[1]), rel=1e-10)


class TestSolveMuInputs:
    """Bad inputs raise before any evaluation of the secular function."""

    @pytest.fixture
    def paley_params(self, monkeypatch):
        def evaluated(*args):
            raise AssertionError("secular function evaluated")

        params = search_params(laplacian_decomposition(laplacian(paley(13))),
                               MarkedState.single(13, 0))
        monkeypatch.setattr(search._SecularForm, "__call__", evaluated)
        return params

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rate_not_finite_positive(self, paley_params, rate):
        p = paley_params
        with pytest.raises(InvalidParameterError):
            solve_mu(p.overlaps, p.eigenvalues, rate)
        with pytest.raises(InvalidParameterError):
            f_of_mu(0.1, p.overlaps, p.eigenvalues, rate)

    def test_shape_mismatch(self, paley_params):
        p = paley_params
        with pytest.raises(InvalidInputError):
            solve_mu(p.overlaps[:-1], p.eigenvalues, p.gamma_c)
        with pytest.raises(InvalidInputError):
            f_of_mu(0.1, p.overlaps, p.eigenvalues[1:], p.gamma_c)

    def test_negative_eigenvalues(self, paley_params):
        p = paley_params
        for lam in (-p.eigenvalues, np.append(p.eigenvalues[:-1], -1.0)):
            with pytest.raises(InvalidInputError, match="negative"):
                solve_mu(p.overlaps, lam, p.gamma_c)

    def test_non_finite_overlaps(self, paley_params):
        p = paley_params
        with pytest.raises(InvalidInputError):
            solve_mu(np.append(p.overlaps[:-1], math.nan), p.eigenvalues, p.gamma_c)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_f_of_mu_non_finite_mu(self, mu):
        with pytest.raises(InvalidParameterError):
            f_of_mu(mu, np.array([0.6, 0.8]), np.array([2.0, 0.0]), 1.0)


class TestAmplitudes:
    def test_approx_endpoints(self):
        _, _, params, _ = coupled_instance(complete(8), seed=10)
        assert amplitude_approx(params, 0.0) == 0.0
        assert amplitude_approx(params, params.t_opt) == pytest.approx(
            params.envelope, abs=1e-12
        )

    def test_approx_matches_exact_at_peak_on_hypercube(self):
        g = hypercube(6)
        decomp = laplacian_decomposition(laplacian(g))
        w = MarkedState.single(64, 0)
        params = search_params(decomp, w)
        h = params.gamma_c * laplacian(g) - np.outer(w.weights, w.weights)
        exact = abs(
            amplitude_exact_sum(eig_sym(h), w.weights, uniform_state(64), params.t_opt)
        )
        approx = float(amplitude_approx(params, params.t_opt))
        assert abs(approx - exact) / exact <= 0.10

    def test_exact_sum_at_time_zero_is_p_n(self):
        _, state, params, decomp_h = coupled_instance(paley(13), seed=11)
        amp = amplitude_exact_sum(
            decomp_h, state.weights, uniform_state(13), 0.0
        )
        assert amp.real == pytest.approx(params.p_n, abs=1e-10)
        assert amp.imag == pytest.approx(0.0, abs=1e-12)

    def test_exact_sum_agrees_with_evolution(self):
        rng = np.random.default_rng(12)
        for g, seed in ((complete(9), 13), (paley(17), 14)):
            _, state, _, decomp_h = coupled_instance(g, seed=seed)
            s = uniform_state(g.n_vertices)
            for t in rng.uniform(0, 20, size=5):
                via_sum = amplitude_exact_sum(decomp_h, state.weights, s, t)
                via_evolve = complex(state.weights @ evolve(decomp_h, s, t))
                assert abs(via_sum - via_evolve) <= 1e-10

    def test_magnitude_bounded_by_one(self):
        _, state, _, decomp_h = coupled_instance(complete(16), seed=15)
        times = np.linspace(0, 50, 101)
        amps = amplitude_exact_sum(
            decomp_h, state.weights, uniform_state(16), times
        )
        assert np.all(np.abs(amps) <= 1.0 + 1e-12)
