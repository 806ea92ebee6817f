import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctqw_search import (
    DisconnectedGraphError,
    Graph,
    InvalidInputError,
    InvalidParameterError,
    MarkedState,
    complete,
    eig_sym,
    hypercube,
    hypercube_eigenbasis,
    laplacian,
    laplacian_decomposition,
    paley,
    regular_multipartite,
    run,
    run_hypercube,
    search_params,
    solve_mu,
    uniform_state,
)
from ctqw_search import linalg, search, simulate
from ctqw_search.search import _level_params
from conftest import (
    DEGENERATE_FAMILIES,
    amplitude_exact_sum,
    evolve,
    hamiltonian,
    compare,
    outside_pole_guard,
    path_graph,
    random_connected_graph,
    random_marked_state,
    transform_level_masses,
)


def instance(g, state):
    decomp = laplacian_decomposition(laplacian(g))
    return search_params(decomp, state)


def oracle_amplitudes(g, w, trace):
    """|<w| exp(-iHt) |s>| on the trace grid from a dense decomposition of H."""
    decomp_h = eig_sym(hamiltonian(g, trace.jump_rate, w))
    return np.abs(amplitude_exact_sum(decomp_h, w.weights, uniform_state(g.n_vertices),
                                      trace.times))


class TestHamiltonian:
    def test_two_vertex_assembly(self):
        h = hamiltonian(complete(2), 1.0, MarkedState.single(2, 0))
        np.testing.assert_array_equal(h, [[0.0, -1.0], [-1.0, 1.0]])

    def test_trace_identity(self):
        for g, rate in ((complete(5), 0.3), (hypercube(3), 0.11)):
            w = MarkedState.single(g.n_vertices, 1)
            h = hamiltonian(g, rate, w)
            assert np.trace(h) == pytest.approx(rate * g.degrees().sum() - 1.0, abs=1e-12)

    def test_secular_roots_are_eigenvalues(self):
        g = complete(12)
        w = MarkedState.uniform_over(12, [0, 3, 7])
        params = instance(g, w)
        h = hamiltonian(g, params.gamma_c, w)
        spectrum = eig_sym(h).eigenvalues
        for root in solve_mu(params.overlaps, params.eigenvalues, params.gamma_c):
            assert np.min(np.abs(spectrum - root)) <= 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            hamiltonian(complete(3), 1.0, MarkedState.single(4, 0))

    def test_bad_rate(self):
        with pytest.raises(InvalidParameterError):
            hamiltonian(complete(3), 0.0, MarkedState.single(3, 0))

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate(self, rate):
        with pytest.raises(InvalidParameterError):
            hamiltonian(complete(4), rate, MarkedState.single(4, 0))


class TestRun:
    def test_complete_64_peak(self):
        g = complete(64)
        w = MarkedState.single(64, 0)
        trace = run(g, w)
        params = instance(g, w)
        assert trace.peak_probability >= 1 - 2 / 64
        assert abs(trace.peak_time - params.t_opt) / params.t_opt <= 0.10

    def test_hypercube_single_vertex_peak(self):
        g = hypercube(6)
        w = MarkedState.single(64, 0)
        trace = run(g, w)
        params = instance(g, w)
        assert abs(trace.peak_probability - params.envelope**2) <= 0.10 * params.envelope**2
        assert abs(trace.peak_time - params.t_opt) / params.t_opt <= 0.10

    def test_zero_horizon_single_point(self):
        g = complete(8)
        w = MarkedState.single(8, 2)
        trace = run(g, w, t_max=0.0)
        params = instance(g, w)
        assert trace.times.shape == (1,)
        assert trace.amplitudes[0] == pytest.approx(params.p_n, abs=1e-10)
        assert trace.peak_time == 0.0

    def test_amplitude_starts_at_uniform_overlap(self):
        g = hypercube(4)
        w = MarkedState.pair(16, 0, 5)
        trace = run(g, w)
        params = instance(g, w)
        assert trace.amplitudes[0] == pytest.approx(params.p_n, abs=1e-10)
        assert np.all(trace.amplitudes >= 0.0)
        assert np.all(trace.amplitudes <= 1.0 + 1e-12)

    def test_explicit_rate_and_grid(self):
        trace = run(complete(6), MarkedState.single(6, 0), jump_rate=0.05,
                    t_max=4.0, steps=17)
        assert trace.jump_rate == 0.05
        assert trace.times.shape == (17,)
        assert trace.times[-1] == 4.0

    def test_invalid_steps(self):
        with pytest.raises(InvalidParameterError):
            run(complete(4), MarkedState.single(4, 0), steps=1)

    @pytest.mark.parametrize("kwargs", [
        {"t_max": math.nan}, {"t_max": math.inf},
        {"jump_rate": math.nan}, {"jump_rate": math.inf}])
    def test_non_finite_rate_or_horizon(self, kwargs):
        with pytest.raises(InvalidParameterError):
            run(complete(8), MarkedState.single(8, 0), **kwargs)
        with pytest.raises(InvalidParameterError):
            run_hypercube(6, MarkedState.single(64, 0), **kwargs)

    def test_invalid_graph_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            run(g, MarkedState.single(4, 0))

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2), (1, 2)], [(0, 1), (1, 2), (2, 2)]])
    def test_malformed_graph_rejected(self, edges):
        with pytest.raises(InvalidInputError):
            run(Graph.from_edges(3, edges), MarkedState.single(3, 0))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.sampled_from(DEGENERATE_FAMILIES),
                     st.builds(random_connected_graph,
                               st.integers(0, 2**32 - 1).map(np.random.default_rng),
                               st.integers(2, 24), st.floats(0.0, 0.5))),
           st.integers(0, 2**32 - 1),
           st.one_of(st.just("critical"), st.floats(0.01, 2.0)))
    def test_matches_dense_oracle(self, g, seed, jump_rate):
        rng = np.random.default_rng(seed)
        n = g.n_vertices
        w = random_marked_state(rng, n, support=int(rng.integers(1, n + 1)))
        trace = run(g, w, jump_rate, steps=64)
        np.testing.assert_allclose(trace.amplitudes, oracle_amplitudes(g, w, trace),
                                   rtol=0, atol=1e-10)

    def test_norm_conserved_along_trace(self):
        g = complete(10)
        w = MarkedState.uniform_over(10, [0, 4])
        params = instance(g, w)
        decomp_h = eig_sym(hamiltonian(g, params.gamma_c, w))
        s = uniform_state(10)
        for t in np.linspace(0, 2 * params.t_opt, 33):
            assert abs(np.linalg.norm(evolve(decomp_h, s, t)) - 1.0) <= 1e-9

    def test_time_reversal_symmetry(self):
        # real symmetric H: amplitude magnitudes at t and -t coincide
        g = hypercube(3)
        w = MarkedState.single(8, 3)
        params = instance(g, w)
        decomp_h = eig_sym(hamiltonian(g, params.gamma_c, w))
        s = uniform_state(8)
        for t in (0.7, 2.2, 9.1):
            forward = amplitude_exact_sum(decomp_h, w.weights, s, t)
            backward = amplitude_exact_sum(decomp_h, w.weights, s, -t)
            assert abs(forward) == pytest.approx(abs(backward), abs=1e-12)

    def test_first_peak_near_optimal_time_on_certified_graphs(self):
        from ctqw_search import paley, regular_multipartite

        for g in (complete(32), paley(29), regular_multipartite(4, 4)):
            w = MarkedState.single(g.n_vertices, 0)
            trace = run(g, w)
            params = instance(g, w)
            assert 0.5 * params.t_opt < trace.peak_time < 1.5 * params.t_opt


class TestRunHypercube:
    def test_matches_dense_path(self):
        rng = np.random.default_rng(7)
        for n, w in ((4, MarkedState.single(16, 5)),
                     (5, MarkedState.pair(32, 3, 28)),
                     (6, MarkedState.uniform_over(64, [1, 2, 12])),
                     (7, random_marked_state(rng, 128, support=5))):
            reduced = run_hypercube(n, w, steps=64)
            np.testing.assert_allclose(reduced.amplitudes,
                                       oracle_amplitudes(hypercube(n), w, reduced),
                                       rtol=0, atol=1e-10)
            grouped = run(hypercube(n), w, steps=64)
            np.testing.assert_allclose(reduced.amplitudes, grouped.amplitudes, atol=1e-12)
            assert reduced.peak_time == pytest.approx(grouped.peak_time, rel=1e-6)

    def test_large_antipodal_pair_peak(self):
        n = 16
        w = MarkedState.pair(1 << n, 0, (1 << n) - 1)
        trace = run_hypercube(n, w, steps=2048)
        params = search_params(hypercube_eigenbasis(n), w)
        peak_amp = math.sqrt(trace.peak_probability)
        assert abs(peak_amp - params.envelope) / params.envelope <= 0.10
        assert params.envelope == pytest.approx(0.9498, abs=2e-3)

    def test_weighted_support(self):
        # the last state has uniform overlap 3.75e-5: its level-0 mass must not
        # come from a cancelling pair sum
        for n, amplitudes in ((5, {0: 0.6, 1: 0.8}), (5, {0: 0.6, 5: -0.8}),
                              (7, {3: 0.5, 40: -0.2, 77: 0.7, 127: 0.4}),
                              (6, {1: 0.5, 2: 0.5, 12: -0.5, 7: -0.4997})):
            w = MarkedState.from_mapping(1 << n, amplitudes)
            for jump_rate in ("critical", 0.3):
                reduced = run_hypercube(n, w, jump_rate, steps=48)
                np.testing.assert_allclose(reduced.amplitudes,
                                           oracle_amplitudes(hypercube(n), w, reduced),
                                           rtol=0, atol=1e-10)


    def test_wide_support_in_bounded_memory(self):
        # 1000**2 support pairs, under N*log2(N), go through the distance
        # histogram in four blocks
        n, rng = 16, np.random.default_rng(12)
        weights = np.zeros(1 << n)
        weights[rng.choice(1 << n, 1000, replace=False)] = rng.standard_normal(1000)
        w = MarkedState.from_weights(weights)
        tracemalloc.start()
        try:
            params = run_hypercube(n, w, steps=64).params
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        np.testing.assert_allclose(params.a_k, transform_level_masses(n, w.weights),
                                   rtol=0, atol=1e-12)

    def test_full_support_takes_the_transform(self, monkeypatch):
        # 4096**2 pairs exceed N*log2(N): the masses come from the transform
        def refuse(*args):
            raise AssertionError("pair histogram on a full support")

        monkeypatch.setattr(linalg, "_distance_histogram", refuse)
        w = MarkedState.from_weights(np.random.default_rng(12).standard_normal(1 << 12))
        params = run_hypercube(12, w, steps=64).params
        np.testing.assert_allclose(params.a_k, transform_level_masses(12, w.weights),
                                   rtol=0, atol=1e-12)


class TestOneDecomposition:
    def test_eig_sym_calls(self, monkeypatch):
        # run takes its levels from eig_sym of m x m Jacobi matrices, m < N,
        # and decomposes the N x N Laplacian once only when Lanczos cannot
        # settle; run_hypercube decomposes nothing
        calls = []

        def counting(matrix):
            calls.append(matrix.shape[0])
            return eig_sym(matrix)

        for module in (linalg, search, simulate):  # every name a call could go through
            monkeypatch.setattr(module, "eig_sym", counting, raising=False)
        rng = np.random.default_rng(5)
        for g in (complete(16), hypercube(4), paley(29), random_connected_graph(rng, 60, 0.1)):
            calls.clear()
            run(g, random_marked_state(rng, g.n_vertices, support=3))
            assert calls and max(calls) < g.n_vertices
        # a path's optimal time asks for more Lanczos steps than its budget
        calls.clear()
        run(path_graph(200), MarkedState.single(200, 0))
        assert calls.count(200) == 1 and max(calls) == 200
        calls.clear()
        run_hypercube(6, MarkedState.pair(64, 0, 5))
        run_hypercube(6, MarkedState.from_weights(rng.standard_normal(64)))
        assert calls == []


def star_of_stars():
    """A vertex joined to three centres of five leaves each: 19 vertices,
    with a Laplacian level 1 of multiplicity 12 beside simple ones."""
    edges = [(0, c) for c in (1, 2, 3)]
    edges += [(c, 4 + 5 * (c - 1) + i) for c in (1, 2, 3) for i in range(5)]
    return Graph.from_edges(19, edges)


def dense_laplacian_calls(monkeypatch):
    """The sizes of the Laplacians ``laplacian_decomposition`` decomposes
    from here on: the Krylov basis's dense route."""
    calls = []
    decompose = linalg.laplacian_decomposition

    def counting(q):
        calls.append(q.shape[0])
        return decompose(q)

    monkeypatch.setattr(linalg, "laplacian_decomposition", counting)
    return calls


class TestKrylovRoute:
    """``run`` against the dense route: the Laplacian decomposition's search
    parameters and reduced trace, and the amplitudes of eig_sym of H."""

    def check(self, g, state, rate, t_max, steps=64):
        dense = instance(g, state)
        rate = dense.gamma_c * rate
        horizon = None if t_max is None else t_max * dense.t_opt
        trace = run(g, state, rate, horizon, steps)
        params = trace.params
        # p_n = sum(w)/sqrt(N) is rounded at eps * sum|w| in either route, a
        # large relative error for a small p_n, which t_opt divides by
        cond = 8.0 * np.finfo(float).eps * np.abs(state.values).sum() / state.values.sum()
        for name, rtol in (("gamma_c", 1e-10), ("beta", 1e-10), ("t_opt", 1e-10 + cond)):
            got, want = getattr(params, name), getattr(dense, name)
            assert abs(got - want) <= rtol * want, name
        reference = simulate._reduced_trace(rate, dense, horizon, steps)
        np.testing.assert_allclose(trace.times, reference.times, rtol=1e-10 + cond, atol=0)
        # 1e-10 plus the phase rounding of H, eps * ||H|| per unit time, which
        # passes p_n = 1e-8 near the critical rate a part in 1e7 by t_opt
        slack = 4.0 * np.finfo(float).eps * max(rate * dense.eigenvalues[0], 1.0)
        peak_time = max(trace.peak_time, reference.peak_time)
        assert (abs(trace.peak_probability - reference.peak_probability)
                <= 1e-10 + slack * peak_time)
        assert np.all(np.abs(trace.amplitudes - oracle_amplitudes(g, state, trace))
                      <= 1e-10 + slack * trace.times)
        return trace

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(st.sampled_from(DEGENERATE_FAMILIES),
                     st.builds(random_connected_graph,
                               st.integers(0, 2**32 - 1).map(np.random.default_rng),
                               st.integers(3, 200), st.floats(0.0, 0.3))),
           st.integers(0, 2**32 - 1), st.floats(-8.0, math.log10(0.99)), st.floats(-3.0, 3.0),
           st.one_of(st.none(), st.floats(0.0, 50.0)))
    # breakdown: one step on the complete graph, two on the multipartite one
    @example(complete(40), 1, -1.0, 0.0, None)
    @example(regular_multipartite(4, 10), 2, -0.5, 0.0, 3.0)
    # convergence before the budget, and the dense route for a path whose
    # optimal time asks for more steps than it has
    @example(random_connected_graph(np.random.default_rng(3), 200, 0.05), 4, -0.3, 0.0, None)
    @example(random_connected_graph(np.random.default_rng(5), 200, 0.1), 6, -1.0, 0.5, 2.0)
    @example(path_graph(120), 7, -1.0, 0.0, None)
    # trees, whose beta converges slowly: the quadrature of the decision
    # before the one taken, or a stop tolerance 1e4 times looser, misses
    # gamma_c or beta by more than 1e-10 here
    @example(random_connected_graph(np.random.default_rng(896198823), 63, 3.556727354963041e-05),
             2828720907, -0.9915482831391627, -1.9522000382918212, None)
    @example(random_connected_graph(np.random.default_rng(4180299864), 66, 0.006607430158958739),
             109568983, -0.6152627937846218, -0.9375965139450191, 0.18470999407708077)
    @example(random_connected_graph(np.random.default_rng(265740349), 180, 0.003001930865902718),
             1010353087, -0.3356172935863031, -0.8729426463979513, None)
    @example(random_connected_graph(np.random.default_rng(1002226460), 141, 0.0015418340902122042),
             3837072417, -0.10700725313816473, -0.16974888829502044, None)
    def test_matches_dense_route(self, g, seed, log_p_n, log_rate, t_max):
        state = random_marked_state(np.random.default_rng(seed), g.n_vertices,
                                    p_n=10.0**log_p_n)
        self.check(g, state, 10.0**log_rate, t_max)

    @pytest.mark.parametrize("g, steps", [(complete(64), 1), (regular_multipartite(8, 8), 2),
                                          (paley(61), 2)])
    def test_breakdown_is_exact(self, monkeypatch, g, steps):
        # an invariant Krylov space ends the quadrature: one node per level
        # the state reaches, with no dense decomposition
        dense = dense_laplacian_calls(monkeypatch)
        trace = self.check(g, MarkedState.single(g.n_vertices, 0), 1.0, None)
        assert trace.params.eigenvalues.size == steps + 1
        assert dense == []

    @pytest.mark.parametrize("g, rate", [(regular_multipartite(8, 64), 5.0), (paley(101), 20.0),
                                         (regular_multipartite(4, 10), 50.0)])
    def test_fast_rate_breakdown_takes_the_quadrature(self, monkeypatch, g, rate):
        # the first look leaves the step estimate alone: these spaces break
        # down at the second step, however fast the walk
        dense = dense_laplacian_calls(monkeypatch)
        state = MarkedState.single(g.n_vertices, 0)
        trace = self.check(g, state, rate / instance(g, state).gamma_c, None)
        assert trace.params.eigenvalues.size == 3
        assert dense == []

    def test_converged_and_fallback_routes(self, monkeypatch):
        dense = dense_laplacian_calls(monkeypatch)
        g = random_connected_graph(np.random.default_rng(3), 200, 0.05)
        trace = self.check(g, random_marked_state(np.random.default_rng(4), 200, p_n=0.5),
                           1.0, None)
        assert dense == [] and 2 < trace.params.eigenvalues.size < 200
        self.check(path_graph(120), MarkedState.single(120, 0), 1.0, None)
        assert dense == [120]


def oracle_trace(levels, c, rate, times):
    """|<c| exp(-iHt) |s>| for H = rate*diag(levels) - c c^T from eig_sym, and
    the phase error its eigenvalues, rounded at eps*||H||, allow by time t."""
    h = rate * np.diag(levels) - np.outer(c, c)
    decomp = eig_sym(h)
    u = decomp.overlaps(c) * decomp.eigenvectors[-1]
    slack = 4.0 * np.finfo(float).eps * max(rate * levels[0], c @ c) * np.abs(u).sum()
    return np.abs(np.exp(-1j * np.outer(times, decomp.eigenvalues)) @ u), slack * times


class TestReducedTrace:
    @settings(max_examples=120, deadline=None)
    @given(st.one_of(st.sampled_from(DEGENERATE_FAMILIES),
                     st.builds(random_connected_graph,
                               st.integers(0, 2**32 - 1).map(np.random.default_rng),
                               st.integers(3, 200), st.floats(0.01, 0.3))),
           st.integers(0, 2**32 - 1), st.floats(-8.0, math.log10(0.99)), st.floats(-3.0, 3.0),
           st.one_of(st.none(), st.tuples(st.floats(-14.0, -3.0), st.floats(0.01, 0.99))),
           st.one_of(st.none(), st.floats(-19.0, -3.0)))
    # a level split 1e-14 apart merges: at its lowest level the trace missed
    # by 2.8e-8 at p_n = 1e-8
    @example(random_connected_graph(np.random.default_rng(0), 3, 0.03125), 3, -8.0,
             1.192092896e-07, (-14.0, 0.0625), None)
    def test_matches_reduced_eig_sym(self, g, seed, log_p_n, log_rate, split, log_low_mass):
        rng = np.random.default_rng(seed)
        state = random_marked_state(rng, g.n_vertices, p_n=10.0**log_p_n)
        params = instance(g, state)
        rate = params.gamma_c * 10.0**log_rate
        with outside_pole_guard():
            run(g, state, rate, steps=8)
        levels, masses = np.array(params.eigenvalues), np.array(params.a_k)
        k = int(rng.integers(0, levels.size - 1))  # a nonzero level
        if split is not None:  # into two poles a relative 10**split[0] apart
            levels = np.insert(levels, k + 1, levels[k] * (1.0 - 10.0**split[0]))
            masses = np.insert(masses, k + 1, masses[k] * split[1])
            masses[k] *= 1.0 - split[1]
        if log_low_mass is not None:
            masses[k] = 10.0**log_low_mass
            masses[:-1] *= (1.0 - masses[-1]) / masses[:-1].sum()
        params = _level_params(levels, masses)
        with outside_pole_guard():
            trace = simulate._reduced_trace(rate, params, None, 64)
        oracle, slack = oracle_trace(levels, params.overlaps, rate, trace.times)
        # 1e-10 plus the oracle's own phase rounding, which exceeds 1e-10 only
        # past t ~ 1e5/||H||, that is for p_n below about 1e-4
        assert np.all(np.abs(trace.amplitudes - oracle) <= 1e-10 + slack)
        # the weights sum to p_n
        assert abs(trace.amplitudes[0] - params.p_n) <= 1e-12

    @pytest.mark.parametrize("offset", [0.0, 1e-15, 1e-13])
    def test_massless_level_chains_no_massive_ones(self, offset):
        # a level of mass ~0 just below a heavy one, as a Gauss quadrature
        # gives beside a large eigenspace, joins the level below it; the heavy
        # one must not join that group through it
        params = instance(star_of_stars(), MarkedState.single(19, 4))
        levels, masses = np.array(params.eigenvalues), np.array(params.a_k)
        k = int(np.argmax(masses[:-1]))
        levels = np.insert(levels, k + 1, levels[k] * (1.0 - offset))
        masses = np.insert(masses, k + 1, 1e-25)
        params = _level_params(levels, masses)
        for rate in (params.gamma_c, 0.01 * params.gamma_c):
            trace = simulate._reduced_trace(rate, params, None, 64)
            oracle, slack = oracle_trace(levels, params.overlaps, rate, trace.times)
            assert np.all(np.abs(trace.amplitudes - oracle) <= 1e-10 + slack)

    def test_roots_evaluated_while_live(self, monkeypatch):
        # 20 levels split 1e-13 to 1e-6 apart and 10 masses down to 1e-19:
        # some model steps stall there and take the full residual bound
        rng = np.random.default_rng(5)
        g = random_connected_graph(rng, 150, 0.05)
        state = random_marked_state(rng, g.n_vertices, p_n=0.1)
        params = instance(g, state)
        levels, masses = np.array(params.eigenvalues), np.array(params.a_k)
        for k in rng.choice(levels.size - 1, 20, replace=False):
            share = rng.uniform(0.01, 0.99)
            levels = np.insert(levels, k + 1, levels[k] * (1.0 - 10.0 ** rng.uniform(-13, -6)))
            masses = np.insert(masses, k + 1, masses[k] * share)
            masses[k] *= 1.0 - share
        masses[rng.choice(levels.size - 1, 10, replace=False)] = 10.0 ** rng.uniform(-19, -3, 10)
        masses[:-1] *= (1.0 - masses[-1]) / masses[:-1].sum()
        params = _level_params(levels, masses)

        evaluated = []  # ("f" or "bound", number of roots) per array call
        evaluate = search._SecularForm.__call__
        bound = search._SecularForm.residual_bound
        solve = simulate._secular_roots

        def recording(form, x):
            if (form.d == 0.0).any():  # not the polish's form in units of P
                evaluated.append(("f", x.size))
            return evaluate(form, x)

        def recording_bound(form, x, tol):
            evaluated.append(("bound", x.size))
            return bound(form, x, tol)

        def trace():
            roots = []
            monkeypatch.setattr(simulate, "_secular_roots",
                                lambda *args: roots.append(solve(*args)) or roots[-1])
            amplitudes = simulate._reduced_trace(0.7 * params.gamma_c, params, None, 64).amplitudes
            return np.concatenate(roots), amplitudes

        monkeypatch.setattr(search._SecularForm, "__call__", recording)
        monkeypatch.setattr(search._SecularForm, "residual_bound", recording_bound)
        roots, amplitudes = trace()
        f_sizes = [n for kind, n in evaluated if kind == "f"]
        assert f_sizes[0] == roots.size  # one block
        assert all(a >= b for a, b in zip(f_sizes, f_sizes[1:]))
        live = 0
        for kind, n in evaluated:  # each bound only at roots of its step
            live = n if kind == "f" else live
            assert n <= live
        assert "bound" in dict(evaluated)
        assert sum(n for _, n in evaluated) < len(f_sizes) * roots.size
        # evaluating every root at every step, as the live ones, changes no bit
        monkeypatch.setattr(search, "_at",
                            lambda mask, func, old, *args: np.where(mask, func(*args), old))
        all_roots, all_amplitudes = trace()
        assert np.array_equal(all_roots, roots)
        assert np.array_equal(all_amplitudes, amplitudes)

    @pytest.fixture(scope="class")
    def wide_params(self):
        """A random connected graph of 300-400 vertices: hundreds of levels."""
        rng = np.random.default_rng(2)
        g = random_connected_graph(rng, int(rng.integers(300, 401)), 0.02)
        params = instance(g, random_marked_state(rng, g.n_vertices))
        assert params.eigenvalues.size >= 200
        return params

    @pytest.mark.parametrize("steps", [2, 3, 17, 1000, 1024, 1025])
    def test_grid_sizes_match_oracle(self, wide_params, steps):
        # rows of b = ceil(sqrt(steps)) points: one row (2), a short last
        # row (3, 17, 1000), a square (1024) and one point past it (1025)
        small = instance(complete(9), MarkedState.pair(9, 0, 4))
        for params in (wide_params, small):
            for rate in (params.gamma_c, 3.0 * params.gamma_c):
                trace = simulate._reduced_trace(rate, params, None, steps)
                assert np.array_equal(trace.times, np.linspace(0.0, 2.0 * params.t_opt, steps))
                oracle, slack = oracle_trace(params.eigenvalues, params.overlaps, rate,
                                             trace.times)
                assert np.all(np.abs(trace.amplitudes - oracle) <= 1e-10 + slack)

    def test_zero_horizon_matches_oracle(self, wide_params):
        trace = simulate._reduced_trace(wide_params.gamma_c, wide_params, 0.0, 1024)
        assert np.array_equal(trace.times, [0.0])
        oracle, _ = oracle_trace(wide_params.eigenvalues, wide_params.overlaps,
                                 wide_params.gamma_c, trace.times)
        assert abs(trace.amplitudes[0] - oracle[0]) <= 1e-10
        assert abs(trace.amplitudes[0] - wide_params.p_n) <= 1e-12


class TestCompare:
    def test_deviation_shrinks_with_size_on_complete_graphs(self):
        rms = []
        for n in (8, 16, 32, 64):
            w = MarkedState.single(n, 0)
            g = complete(n)
            trace = run(g, w)
            report = compare(trace, instance(g, w))
            rms.append(report.rms_deviation)
        assert all(a > b for a, b in zip(rms, rms[1:]))

    def test_peak_deviations_small_on_large_complete_graph(self):
        g = complete(64)
        w = MarkedState.single(64, 0)
        trace = run(g, w)
        report = compare(trace, instance(g, w))
        assert report.peak_time_rel_dev <= 0.10
        assert report.peak_value_rel_dev <= 0.10

    def test_rate_mismatch(self):
        g = complete(8)
        w = MarkedState.single(8, 0)
        params = instance(g, w)
        trace = run(g, w, jump_rate=2 * params.gamma_c)
        with pytest.raises(InvalidInputError):
            compare(trace, params)

    def test_single_point_trace_rejected(self):
        g = complete(8)
        w = MarkedState.single(8, 0)
        trace = run(g, w, t_max=0.0)
        with pytest.raises(InvalidInputError):
            compare(trace, instance(g, w))


class TestCsvExport:
    def test_format(self):
        trace = run(complete(4), MarkedState.single(4, 0), steps=5)
        lines = trace.to_csv().splitlines()
        assert lines[0] == "t,amplitude,probability"
        assert len(lines) == 6
        t, amp, prob = (float(x) for x in lines[3].split(","))
        assert t == pytest.approx(trace.times[2], rel=1e-11)
        assert amp == pytest.approx(trace.amplitudes[2], rel=1e-11)
        assert prob == pytest.approx(amp * amp, rel=1e-10)
