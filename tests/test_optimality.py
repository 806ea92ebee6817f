import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctqw_search import optimality
from ctqw_search import (
    OPTIMALITY_THRESHOLD,
    DisconnectedGraphError,
    FloatRangeError,
    Graph,
    InvalidInputError,
    InvalidParameterError,
    MarkedState,
    SrgParams,
    certify,
    certify_family,
    complete,
    complete_minus_disjoint_edges,
    hypercube,
    laplacian,
    laplacian_decomposition,
    laplacian_eigenvalues,
    paley,
    regular_multipartite,
    search_params,
    stress_random_states,
    uniform_state,
)
from ctqw_search.graphs import FAMILIES
from ctqw_search.linalg import LanczosExtremes
from ctqw_search.optimality import prove_not_certified
from ctqw_search.search import _phased_states as phased_states
from conftest import DEGENERATE_FAMILIES, random_connected_graph

INV_SQRT2 = 1 / math.sqrt(2)

GRAPHS = st.one_of(
    st.sampled_from([g for g in DEGENERATE_FAMILIES if g.n_vertices <= 40]),
    st.builds(random_connected_graph, st.integers(0, 2**32 - 1).map(np.random.default_rng),
              st.integers(2, 24), st.floats(0.0, 0.5)))


def stress_oracle(decomp, trials, seed):
    """The states of ``stress_random_states`` and their envelopes, reduced
    envelopes and exact and approximate variance margins, one trial at a time
    through ``MarkedState`` and ``search_params``."""
    n = decomp.n
    rng = np.random.default_rng(seed)
    s = uniform_state(n)
    theta = certify(decomp.eigenvalues).theta
    states, rows = [], []
    for _ in range(trials):
        g = rng.standard_normal(n)
        g -= (s @ g) * s
        norm = np.linalg.norm(g)
        while norm < 1e-12:
            g = rng.standard_normal(n)
            g -= (s @ g) * s
            norm = np.linalg.norm(g)
        g /= norm
        c = rng.uniform(1.0 / math.sqrt(n), 1.0)
        state = MarkedState(math.sqrt(1.0 - c * c) * g + c * s)
        params = search_params(decomp, state)
        a = params.a_k[:-1]
        mass = float(a.sum())
        spread = float(np.sum(a * (1.0 / params.eigenvalues[:-1] - params.gamma_c / mass) ** 2))
        states.append(state.weights)
        rows.append((params.envelope, params.reduced_envelope, spread - theta**2 * mass,
                     (params.beta**2 - params.gamma_c**2) - theta**2))
    return np.stack(states, axis=1), np.array(rows).T


def certify_graph(g):
    return certify(laplacian_eigenvalues(laplacian(g)))


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes, family="petersen")


# small parameters of every named family and the graph of each, for the
# dense route; srg is checked on the Petersen graph and on Paley(29).  The
# parameters outside each domain are refused alike by its builder (by
# ``SrgParams`` for srg) and by ``certify_family``.
TABLE_CASES = {
    "complete": [(n,) for n in range(-1, 13)],
    "hypercube": [(n,) for n in range(-1, 7)],
    "complete-minus": [(n, l) for n in range(-1, 13) for l in range(-1, n // 2 + 2)],
    "paley": [(q,) for q in range(-1, 30)],
    "multipartite": [(m, k) for m in range(-1, 6) for k in range(-1, 5)],
    "srg": [(10, 3, 0, 1), (29, 14, 6, 7),
            (1, 5, 10, 6), (-1, 0, 0, 0), (9, 4, 0, 3), (29, 14, 6, 6)],
}
SRG_GRAPHS = {(10, 3, 0, 1): petersen, (29, 14, 6, 7): lambda: paley(29)}


class TestFamilyTable:
    """Each family's builder and ``certify_family`` accept the same
    parameters, and on them ``certify_family`` certifies what the dense route
    certifies from the graph the builder builds."""

    def test_every_entry_is_covered(self):
        assert set(TABLE_CASES) == set(FAMILIES)

    @pytest.mark.parametrize("name", sorted(TABLE_CASES))
    def test_matches_dense_route(self, name):
        build = FAMILIES[name][0]
        for params in TABLE_CASES[name]:
            try:
                if build:
                    g = build(*params)
                else:
                    SrgParams(*params)
                    g = SRG_GRAPHS[params]()
            except InvalidParameterError as refused:
                with pytest.raises(type(refused)) as raised:
                    certify_family(name, *params)
                assert str(raised.value) == str(refused), (name, params)
                continue
            try:
                dense = certify_graph(g)
            except DisconnectedGraphError:
                with pytest.raises(DisconnectedGraphError):
                    certify_family(name, *params)
                continue
            closed = certify_family(name, *params)
            for field in ("lambda_max", "lambda_min_nonzero", "ratio"):
                assert getattr(closed, field) == pytest.approx(
                    getattr(dense, field), rel=1e-12), (name, params, field)
            # theta is a difference of reciprocals: 0 for the complete graph
            assert closed.theta == pytest.approx(
                dense.theta, rel=1e-12, abs=1e-12 / dense.lambda_min_nonzero), (name, params)
            assert closed.verdict == dense.verdict, (name, params)

    def test_levels_past_float_range(self):
        for params in [("complete-minus", 10**400, 1), ("multipartite", 10**400, 2),
                       ("hypercube", 10**308),
                       # the complete bipartite graph as an SRG
                       ("srg", 2 * 10**400, 10**400, 0, 10**400)]:
            with pytest.raises(FloatRangeError):
                certify_family(*params)


class TestCertify:
    def test_threshold_constant(self):
        assert OPTIMALITY_THRESHOLD == pytest.approx(1.7071067811865475, abs=1e-15)

    def test_complete_graphs_have_unit_ratio(self):
        for n in (2, 5, 9):
            report = certify_graph(complete(n))
            assert report.ratio == pytest.approx(1.0, abs=1e-12)
            assert report.theta == pytest.approx(0.0, abs=1e-12)
            assert report.certified

    def test_balanced_bipartite_not_certified(self):
        for k in (2, 3, 4):
            report = certify_graph(regular_multipartite(2, k))
            assert report.ratio == pytest.approx(2.0, abs=1e-9)
            assert not report.certified

    def test_singleton_blocks_are_complete(self):
        # multipartite(m, 1) is K_m; the middle eigenvalue has multiplicity 0
        report = certify_graph(regular_multipartite(2, 1))
        assert report.ratio == pytest.approx(1.0, abs=1e-9)
        assert report.certified
        assert certify_family("multipartite", 2, 1).verdict == report.verdict

    def test_hypercubes_not_certified_past_one_bit(self):
        assert certify_graph(hypercube(1)).certified
        for n in (2, 3, 5):
            report = certify_graph(hypercube(n))
            assert report.ratio == pytest.approx(n, abs=1e-9)
            assert not report.certified

    @pytest.mark.parametrize("levels", [[3.0, 2.0, math.nan], [math.nan, 1.0, 0.0],
                                        [math.inf, 1.0, 0.0]])
    def test_non_finite_levels_raise(self, levels):
        with pytest.raises(InvalidInputError):
            certify(levels)

    @pytest.mark.parametrize("n", [10**15, 10**200], ids=["1e15", "1e200"])
    def test_exact_levels_at_any_ratio(self, n):
        report = certify_family("hypercube", n)
        assert (report.lambda_min_nonzero, report.verdict) == (2.0, optimality.NOT_CERTIFIED)
        assert report.ratio == pytest.approx(n, rel=1e-15)
        with pytest.raises(DisconnectedGraphError):
            certify([2.0 * n, 2.0, 0.0])  # as computed floats, 2 is a rounded zero

    @pytest.mark.parametrize("levels, error", [
        ([3, 2, Fraction(1, 10**20)], InvalidInputError), ([3, 0, 0], DisconnectedGraphError)])
    def test_exact_levels_take_no_tolerance(self, levels, error):
        with pytest.raises(error):
            certify(levels)

    def test_leaves_its_levels_as_they_are(self):
        lam = np.array([4.0, 2.0, 1e-16])
        assert certify(lam).ratio == 2.0
        assert lam[-1] == 1e-16

    def test_disconnected_raises(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        decomp = None
        from ctqw_search import eig_sym

        decomp = eig_sym(laplacian(g))
        with pytest.raises(DisconnectedGraphError):
            certify(decomp.eigenvalues)


def ritz(rho_max, rho_min, delta, converged=True):
    return LanczosExtremes(theta_max=rho_max, theta_min=rho_min, rho_max=rho_max,
                           rho_min=rho_min, delta=delta, steps=8, converged=converged)


class TestProveNotCertified:
    @pytest.mark.parametrize("g", [
        hypercube(5), petersen(), regular_multipartite(2, 4),
        Graph.from_edges(7, [(v, (v + 1) % 7) for v in range(7)]),
        random_connected_graph(np.random.default_rng(11), 60, 0.1)])
    def test_matches_dense_route(self, g):
        report = prove_not_certified(g.n_vertices, g.edges)
        dense = certify_graph(g)
        assert report.verdict == dense.verdict == "not-certified"
        for field in ("lambda_max", "lambda_min_nonzero", "theta", "ratio", "threshold"):
            assert getattr(report, field) == pytest.approx(getattr(dense, field), rel=1e-10)

    @pytest.mark.parametrize("g", [complete(2), complete(6), paley(29),
                                   regular_multipartite(3, 3)])
    def test_certified_graphs_prove_nothing(self, g):
        assert certify_graph(g).certified
        assert prove_not_certified(g.n_vertices, g.edges) is None

    def test_single_vertex_proves_nothing(self):
        assert prove_not_certified(1, np.zeros((0, 2), dtype=np.int64)) is None

    @pytest.mark.parametrize("extremes, proven", [
        # the ratio passes the threshold by more than the rounding bound
        (ritz(1.71, 1.0, 1e-3), True),
        # by less than the rounding bound, on either quotient
        (ritz(1.71, 1.0, 2e-3), False),
        (ritz(OPTIMALITY_THRESHOLD * (1 + 1e-15), 1.0, 1e-12), False),
        # under the threshold
        (ritz(1.5, 1.0, 0.0), False),
        # past it, but unconverged
        (ritz(4.0, 1.0, 0.0, converged=False), False)])
    def test_verdict_needs_the_margin(self, monkeypatch, extremes, proven):
        monkeypatch.setattr(optimality, "laplacian_extremes", lambda n, edges: extremes)
        report = prove_not_certified(4, complete(4).edges)
        if proven:
            assert (report.lambda_max, report.lambda_min_nonzero) == (extremes.theta_max,
                                                                      extremes.theta_min)
            assert report.verdict == "not-certified"
        else:
            assert report is None


class TestInducedComplete:
    def test_boundary(self):
        assert certify_family("complete-minus", 4, 1).ratio == pytest.approx(2.0)
        assert not certify_family("complete-minus", 4, 1).certified
        assert certify_family("complete-minus", 5, 1).ratio == pytest.approx(5 / 3)
        assert certify_family("complete-minus", 5, 1).certified

    def test_figure_graph(self):
        report = certify_family("complete-minus", 10, 5)
        assert report.ratio == pytest.approx(1.25)
        assert report.certified

    def test_no_deletion_is_complete(self):
        report = certify_family("complete-minus", 7, 0)
        assert report.ratio == pytest.approx(1.0)

    def test_k2_minus_edge_disconnects(self):
        with pytest.raises(DisconnectedGraphError):
            certify_family("complete-minus", 2, 1)

    def test_matches_eigensolver_verdicts(self):
        for n in range(4, 21):
            for l in range(0, n // 2 + 1):
                closed = certify_family("complete-minus", n, l)
                constructed = certify_graph(complete_minus_disjoint_edges(n, l))
                assert closed.verdict == constructed.verdict
                assert closed.ratio == pytest.approx(constructed.ratio, abs=1e-8)


class TestSrg:
    def test_paper_parameters_certified(self):
        report = certify_family("srg", 29, 14, 6, 7)
        assert report.ratio == pytest.approx(1.456, abs=1e-3)
        assert report.certified

    def test_petersen_not_certified(self):
        report = certify_family("srg", 10, 3, 0, 1)
        assert report.lambda_max == pytest.approx(5.0)
        assert report.lambda_min_nonzero == pytest.approx(2.0)
        assert report.ratio == pytest.approx(2.5)
        assert not report.certified

    def test_matches_paley_construction(self):
        closed = certify_family("srg", 29, 14, 6, 7)
        constructed = certify_graph(paley(29))
        assert closed.verdict == constructed.verdict
        assert closed.lambda_max == pytest.approx(constructed.lambda_max, abs=1e-8)
        assert closed.lambda_min_nonzero == pytest.approx(
            constructed.lambda_min_nonzero, abs=1e-8
        )

    def test_matches_petersen_construction(self):
        constructed = certify_graph(petersen())
        closed = certify_family("srg", 10, 3, 0, 1)
        assert closed.verdict == constructed.verdict
        assert closed.ratio == pytest.approx(constructed.ratio, abs=1e-8)

    def test_disconnected_parameters(self):
        # two disjoint triangles form an SRG with c = 0
        with pytest.raises(DisconnectedGraphError):
            certify_family("srg", 6, 2, 1, 0)


class TestMultipartite:
    def test_two_blocks_not_certified(self):
        assert not certify_family("multipartite", 2, 3).certified

    def test_three_blocks_certified(self):
        for k in (2, 3, 5):
            report = certify_family("multipartite", 3, k)
            assert report.ratio == pytest.approx(1.5)
            assert report.certified
        assert certify_family("multipartite", 3, 1).ratio == pytest.approx(1.0)

    def test_figure_graph(self):
        report = certify_family("multipartite", 4, 4)
        assert report.lambda_max == pytest.approx(16.0)
        assert report.lambda_min_nonzero == pytest.approx(12.0)
        assert report.certified

    def test_matches_eigensolver_verdicts(self):
        for m in range(2, 9):
            for k in range(1, 5):
                closed = certify_family("multipartite", m, k)
                constructed = certify_graph(regular_multipartite(m, k))
                assert closed.verdict == constructed.verdict
                assert closed.ratio == pytest.approx(constructed.ratio, abs=1e-8)


class TestStress:
    def test_complete_graph_reduced_envelope_is_one(self):
        decomp = laplacian_decomposition(laplacian(complete(8)))
        stats = stress_random_states(decomp, trials=200, seed=7)
        assert stats.min_reduced_envelope == pytest.approx(1.0, abs=1e-10)
        assert stats.mean_reduced_envelope == pytest.approx(1.0, abs=1e-10)

    def test_certified_graphs_meet_envelope_floor(self):
        for g in (paley(29), complete_minus_disjoint_edges(10, 5), regular_multipartite(4, 4)):
            decomp = laplacian_decomposition(laplacian(g))
            stats = stress_random_states(decomp, trials=300, seed=11)
            assert stats.min_reduced_envelope >= INV_SQRT2 - 0.01

    def test_exact_variance_bound_is_theorem(self):
        for g in (paley(13), hypercube(4), regular_multipartite(3, 3)):
            decomp = laplacian_decomposition(laplacian(g))
            stats = stress_random_states(decomp, trials=200, seed=3)
            assert stats.variance_margin_exact_max <= 1e-15

    def test_raw_envelope_decays_with_uniform_overlap(self):
        # gamma/beta <= sqrt(1 - p_n**2), so raw envelopes dip below the
        # certificate floor whenever the overlap mixing is strong
        decomp = laplacian_decomposition(laplacian(paley(29)))
        stats = stress_random_states(decomp, trials=500, seed=5)
        assert stats.min_envelope < INV_SQRT2
        assert stats.min_reduced_envelope >= INV_SQRT2

    def test_seed_determinism(self):
        decomp = laplacian_decomposition(laplacian(paley(13)))
        a = stress_random_states(decomp, trials=50, seed=42)
        b = stress_random_states(decomp, trials=50, seed=42)
        assert a.min_envelope == b.min_envelope
        assert a.mean_reduced_envelope == b.mean_reduced_envelope
        assert np.array_equal(a.histogram_counts, b.histogram_counts)

    def test_histogram_accounts_for_all_trials(self):
        decomp = laplacian_decomposition(laplacian(complete(6)))
        stats = stress_random_states(decomp, trials=64, seed=1)
        assert int(stats.histogram_counts.sum()) == 64

    def test_invalid_trials(self):
        decomp = laplacian_decomposition(laplacian(complete(4)))
        for trials in (0, -3, 2.5, 3.0, True, False, "10", None, np.float64(4.0)):
            with pytest.raises(InvalidParameterError):
                stress_random_states(decomp, trials=trials, seed=0)
        stats = stress_random_states(decomp, trials=np.int64(5), seed=np.uint32(3))
        assert stats.trials == 5 and type(stats.trials) is int

    def test_invalid_seed(self):
        decomp = laplacian_decomposition(laplacian(complete(4)))
        for seed in (-1, 1.5, True, "1", None, np.int64(-2)):
            with pytest.raises(InvalidParameterError):
                stress_random_states(decomp, trials=3, seed=seed)

    def test_memory_stays_per_block(self):
        decomp = laplacian_decomposition(laplacian(paley(101)))
        stress_random_states(decomp, trials=1, seed=2)
        peaks = []
        for trials in (400, 4000):
            tracemalloc.start()
            try:
                stress_random_states(decomp, trials=trials, seed=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0] + 65536, peaks

    @pytest.mark.parametrize("layout", ["one column", "divisor", "non-divisor"])
    @settings(max_examples=30, deadline=None)
    @given(GRAPHS, st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 4),
           st.integers(0, 5))
    def test_blocks_match_per_trial_oracle(self, layout, g, seed, columns, blocks, extra):
        trials = columns * blocks + {"one column": extra,
                                     "divisor": 0,
                                     "non-divisor": 1 + extra % (columns - 1)}[layout]
        if layout == "one column":
            columns = 1
        decomp = laplacian_decomposition(laplacian(g))
        evaluated = []

        def recorded(w):
            evaluated.append(phased_states(w).copy())
            return evaluated[-1]

        with (mock.patch.object(optimality, "STRESS_BLOCK", columns * g.n_vertices),
              mock.patch.object(optimality, "_phased_states", recorded)):
            stats = stress_random_states(decomp, trials=trials, seed=seed)
        states, (envelope, reduced, exact, approx) = stress_oracle(decomp, trials, seed)
        assert [w.shape[1] for w in evaluated[:-1]] == [columns] * (len(evaluated) - 1)
        assert np.array_equal(np.concatenate(evaluated, axis=1), states)
        assert stats.trials == trials
        for got, want in ((stats.min_envelope, envelope.min()),
                          (stats.mean_envelope, envelope.mean()),
                          (stats.min_reduced_envelope, reduced.min()),
                          (stats.mean_reduced_envelope, reduced.mean()),
                          (stats.variance_margin_exact_max, exact.max()),
                          (stats.variance_margin_approx_max, approx.max())):
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
        counts, edges = np.histogram(np.clip(reduced, 0.0, 1.0), bins=20, range=(0.0, 1.0))
        np.testing.assert_array_equal(stats.histogram_edges, edges)
        assert int(stats.histogram_counts.sum()) == trials
        if np.abs(reduced[:, None] - edges[1:-1]).min() > 1e-12:
            np.testing.assert_array_equal(stats.histogram_counts, counts)


class TestVarianceIdentity:
    def test_random_configurations(self):
        # spread of reciprocal eigenvalues about their normalized mean never
        # exceeds theta**2 times the non-uniform mass
        rng = np.random.default_rng(19)
        for _ in range(50):
            lam = np.sort(rng.uniform(0.5, 10.0, size=12))[::-1]
            a = rng.dirichlet(np.ones(13))
            rest = a[:-1]
            mass = rest.sum()
            theta = 1 / lam[-1] - 1 / lam[0]
            mean = np.sum(rest / lam) / mass
            spread = np.sum(rest * (1 / lam - mean) ** 2)
            assert spread <= theta**2 * mass + 1e-15
