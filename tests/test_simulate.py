import math

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
    amplitude_exact_sum,
    compare,
    complete,
    complete_minus_disjoint_edges,
    eig_sym,
    evolve,
    hamiltonian,
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
from conftest import random_marked_state

# degenerate spectra: every family here has repeated Laplacian levels
DEGENERATE_FAMILIES = [complete(9), regular_multipartite(3, 4),
                       complete_minus_disjoint_edges(10, 3), paley(13), paley(29)]
DEGENERATE_FAMILIES += [hypercube(n) for n in range(3, 7)]


def instance(g, state):
    decomp = laplacian_decomposition(laplacian(g))
    return search_params(decomp, state)


def oracle_amplitudes(g, w, trace):
    """|<w| exp(-iHt) |s>| on the trace grid from a dense decomposition of H."""
    decomp_h = eig_sym(hamiltonian(g, trace.jump_rate, w))
    return np.abs(amplitude_exact_sum(decomp_h, w.weights, uniform_state(g.n_vertices),
                                      trace.times))


def random_connected_graph(rng, n, p):
    """A random recursive spanning tree plus each other edge with probability p."""
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return Graph.from_edges(n, edges)


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
        from ctqw_search import amplitude_exact_sum

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

    def test_digest_mismatch(self):
        g = complete(8)
        trace = run(g, MarkedState.single(8, 0))
        other = instance(g, MarkedState.single(8, 1))
        with pytest.raises(InvalidInputError):
            compare(trace, other)

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
