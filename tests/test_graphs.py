import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctqw_search import graphs
from ctqw_search import (
    Graph,
    InvalidInputError,
    InvalidParameterError,
    SrgParams,
    complete,
    complete_minus_disjoint_edges,
    export_dot,
    format_edge_list,
    hypercube,
    laplacian,
    laplacian_decomposition,
    paley,
    parse_dot,
    parse_edge_list,
    regular_multipartite,
    validate,
)
from conftest import cycle_union

ALL_FAMILY_GRAPHS = [
    complete(2),
    complete(3),
    complete(10),
    hypercube(1),
    hypercube(2),
    hypercube(3),
    hypercube(6),
    complete_minus_disjoint_edges(4, 0),
    complete_minus_disjoint_edges(6, 2),
    complete_minus_disjoint_edges(10, 5),
    paley(5),
    paley(13),
    paley(29),
    regular_multipartite(2, 1),
    regular_multipartite(3, 2),
    regular_multipartite(4, 4),
]


def sorted_eigenvalues(g):
    return np.sort(np.linalg.eigvalsh(laplacian(g)))[::-1]


class TestComplete:
    def test_smallest(self):
        g = complete(2)
        assert g.edges.tolist() == [[0, 1]]

    def test_triangle(self):
        g = complete(3)
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_edge_count(self):
        assert len(complete(10).edges) == math.comb(10, 2)

    def test_too_small(self):
        with pytest.raises(InvalidParameterError):
            complete(1)


class TestHypercube:
    def test_one_bit_is_single_edge(self):
        assert hypercube(1).edges.tolist() == complete(2).edges.tolist()

    def test_two_bits_is_four_cycle(self):
        g = hypercube(2)
        assert g.n_vertices == 4
        assert set(map(tuple, g.edges.tolist())) == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_three_bits_counts(self):
        g = hypercube(3)
        assert g.n_vertices == 8
        assert len(g.edges) == 3 * 2**2

    def test_adjacency_is_single_bit_flip(self):
        g = hypercube(4)
        for u, v in g.edges:
            assert (u ^ v).bit_count() == 1

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            hypercube(0)


class TestCompleteMinus:
    def test_zero_deletions(self):
        assert (complete_minus_disjoint_edges(4, 0).edges.tolist()
                == complete(4).edges.tolist())

    def test_figure_graph_edge_count(self):
        assert len(complete_minus_disjoint_edges(10, 5).edges) == 40

    def test_spectrum_n6_l2(self):
        lam = sorted_eigenvalues(complete_minus_disjoint_edges(6, 2))
        np.testing.assert_allclose(lam, [6, 6, 6, 4, 4, 0], atol=1e-9)

    def test_spectrum_closed_form_sweep(self):
        for n in range(5, 21):
            for l in range(0, n // 2 + 1):
                g = complete_minus_disjoint_edges(n, l)
                expected = np.array([n] * (n - l - 1) + [n - 2] * l + [0], dtype=float)
                np.testing.assert_allclose(sorted_eigenvalues(g), expected, atol=1e-9)

    def test_too_many_deletions(self):
        with pytest.raises(InvalidParameterError):
            complete_minus_disjoint_edges(5, 3)


class TestPaley:
    def test_five_cycle(self):
        g = paley(5)
        assert set(map(tuple, g.edges.tolist())) == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}

    def test_degrees(self):
        g = paley(13)
        assert np.all(g.degrees() == 6)

    def test_srg_parameters_29(self):
        # count common neighbors over all pairs: adjacent -> a, non-adjacent -> c
        g = paley(29)
        adj = g.adjacency()
        common = adj @ adj
        for u in range(29):
            for v in range(u + 1, 29):
                assert common[u, v] == (6 if adj[u, v] else 7)

    def test_spectrum_closed_form(self):
        for q in (5, 13, 17, 29):
            k = (q - 1) // 2
            lam_hi = k + (1 + math.sqrt(q)) / 2
            lam_lo = k + (1 - math.sqrt(q)) / 2
            expected = np.sort(
                np.array([lam_hi] * k + [lam_lo] * k + [0.0])
            )[::-1]
            np.testing.assert_allclose(sorted_eigenvalues(paley(q)), expected, atol=1e-9)

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidParameterError):
            paley(9)  # not prime
        with pytest.raises(InvalidParameterError):
            paley(7)  # 3 mod 4


class TestMultipartite:
    def test_two_singletons(self):
        assert regular_multipartite(2, 1).edges.tolist() == [[0, 1]]

    def test_figure_graph_spectrum(self):
        lam = sorted_eigenvalues(regular_multipartite(4, 4))
        assert set(np.round(lam, 9)) == {16.0, 12.0, 0.0}

    def test_octahedron_spectrum(self):
        lam = sorted_eigenvalues(regular_multipartite(3, 2))
        np.testing.assert_allclose(lam, [6, 6, 4, 4, 4, 0], atol=1e-9)

    def test_value_set_sweep(self):
        for m in range(2, 6):
            for k in range(1, 4):
                lam = sorted_eigenvalues(regular_multipartite(m, k))
                values = {round(x, 9) for x in lam}
                assert values <= {float(m * k), float((m - 1) * k), 0.0}

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            regular_multipartite(1, 3)


class TestLaplacian:
    def test_single_edge(self):
        np.testing.assert_array_equal(
            laplacian(complete(2)), [[1.0, -1.0], [-1.0, 1.0]]
        )

    def test_four_cycle(self):
        q = laplacian(hypercube(2))
        assert np.all(np.diag(q) == 2.0)
        for u, v in hypercube(2).edges:
            assert q[u, v] == -1.0

    def test_zero_row_sums_all_families(self):
        for g in ALL_FAMILY_GRAPHS:
            np.testing.assert_allclose(laplacian(g).sum(axis=1), 0.0, atol=1e-12)

    def test_dense_limit_is_checked_before_allocating(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_PAIR_VERTICES", 8)
        assert laplacian(Graph.from_edges(8, [(0, 1)])).shape == (8, 8)
        for build in (Graph.adjacency, laplacian):
            with pytest.raises(InvalidParameterError,
                               match="^graph with 9 vertices exceeds the dense limit 8$"):
                build(Graph.from_edges(9, [(0, 1)]))

    def test_order_far_past_the_dense_limit(self):
        with pytest.raises(InvalidParameterError, match="exceeds the dense limit 4096$"):
            laplacian(Graph.from_edges(10**12, [(0, 1)]))

    def test_hypercube_spectrum_matches_binomial_multiplicities(self, dense_hypercube):
        for n in range(1, 11):
            expected = np.sort(
                np.concatenate([[2.0 * j] * math.comb(n, j) for j in range(n + 1)])
            )[::-1]
            np.testing.assert_allclose(
                dense_hypercube(n).eigenvalues, expected, atol=1e-9
            )


class TestValidate:
    def test_families_are_valid(self):
        for g in ALL_FAMILY_GRAPHS:
            assert validate(g) == []

    def test_disconnected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert any("disconnected" in d for d in validate(g))

    def test_self_loop(self):
        g = Graph.from_edges(2, [(0, 0), (0, 1)])
        assert any("self-loop" in d for d in validate(g))

    def test_duplicate_edge(self):
        g = Graph.from_edges(2, [(0, 1), (1, 0)])
        assert any("duplicate" in d for d in validate(g))

    def test_out_of_range(self):
        g = Graph.from_edges(2, [(0, 5)])
        assert any("out of range" in d for d in validate(g))

    @pytest.mark.parametrize("edges, want", [
        ([(0, 1)], ["disconnected"]),
        ([(0, 1), (0, 1)], ["edge (0,1): duplicate", "disconnected"])])
    def test_order_past_the_edges_builds_nothing_of_its_size(self, edges, want):
        # fewer than n - 1 edges cannot connect n vertices
        g = Graph.from_edges(10**12, edges)
        tracemalloc.start()
        try:
            diagnostics = validate(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diagnostics == want
        assert peak < 1 << 20


class TestIndicesAreIntegers:
    @pytest.mark.parametrize("n, edges", [
        (3, [(0.7, 1.9)]),
        (3, [("0", "1")]),
        (3.7, [(0, 1)]),
        ("3", [(0, 1)]),
        (3, np.array([[0.0, 1.0]])),
        (3, [(0, 1), (1, 2.0)])])
    def test_non_integer_refused(self, n, edges):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            Graph.from_edges(n, edges)

    @pytest.mark.parametrize("edges", [
        [(0, 2**63)], [(-1, 2**63)], [(0, 2**70)], np.array([[0, 2**63]], dtype=np.uint64)])
    def test_past_int64_keeps_its_message(self, edges):
        with pytest.raises(InvalidInputError, match="beyond the 64-bit range"):
            Graph.from_edges(3, edges)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint16, np.uint64])
    def test_numpy_integers_accepted(self, dtype):
        g = Graph.from_edges(np.int64(3), np.array([[2, 1], [0, 1]], dtype=dtype))
        assert type(g.n_vertices) is int and g.n_vertices == 3
        assert g.edges.dtype == np.int64 and g.edges.tolist() == [[0, 1], [1, 2]]
        assert Graph.from_edges(3, [(np.int32(2), 1), (0, 1)]) == g
        assert Graph.from_edges(3, []).edges.shape == (0, 2)

    def test_integer_arrays_are_not_read_entry_by_entry(self, monkeypatch):
        index = graphs._index

        def whole_counts_only(value, what):
            assert what != "vertex index", "an integer edge array was read entry by entry"
            return index(value, what)

        monkeypatch.setattr(graphs, "_index", whole_counts_only)
        for g in ALL_FAMILY_GRAPHS:
            assert parse_edge_list(format_edge_list(g)) == g
            assert parse_dot(export_dot(g)) == g


class TestSerialization:
    def test_dot_contains_edge(self):
        text = export_dot(complete(2))
        assert "0 -- 1;" in text

    def test_dot_round_trip_all_families(self):
        for g in ALL_FAMILY_GRAPHS:
            assert parse_dot(export_dot(g)) == g

    def test_edge_list_round_trip_all_families(self):
        for g in ALL_FAMILY_GRAPHS:
            assert parse_edge_list(format_edge_list(g)) == g

    @pytest.mark.parametrize("export", [format_edge_list, export_dot])
    def test_peak_memory_is_a_small_multiple_of_the_text(self, export):
        # formatted a block of rows at a time: 4.2 and 2.8 times the text of
        # complete(1024), where formatting every row at once peaked at 24.6
        # and 14.4 times
        g = complete(1024)
        tracemalloc.start()
        try:
            text = export(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(g.edges) > 4 * graphs.EXPORT_BLOCK
        assert peak <= 8 * len(text)

    @pytest.mark.parametrize("text", ["digraph G {\n0 -- 1;\n1 -- 2;\n}",
                                      "strict graph G {\n0 -- 1;\n}", "junk graph G {\n0;\n}"])
    def test_dot_header_only_after_whitespace(self, text):
        with pytest.raises(InvalidParameterError, match="not a DOT graph"):
            parse_dot(text)
        assert parse_dot(" \n\t" + text[text.index("graph"):]).n_vertices > 0

    def test_edge_list_comments_and_inferred_size(self):
        g = parse_edge_list("# a comment\n0 1\n1 2  # trailing\n")
        assert g.n_vertices == 3
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_edge_list_bad_line(self):
        with pytest.raises(InvalidParameterError):
            parse_edge_list("0 1 2\n")


class TestSrgParams:
    def test_delta(self):
        assert SrgParams(29, 14, 6, 7).delta == 29

    def test_petersen_feasible(self):
        assert SrgParams(10, 3, 0, 1).delta == 9

    def test_infeasible(self):
        with pytest.raises(InvalidParameterError):
            SrgParams(29, 14, 6, 6)

    @pytest.mark.parametrize("params", [
        (10, 3, 0, 1), (29, 14, 6, 7), (16, 5, 0, 2), (16, 6, 2, 2), (27, 10, 1, 5),
        # complete multipartite K_{m x s}: (ms, (m-1)s, (m-2)s, (m-1)s)
        (8, 4, 0, 4), (12, 8, 4, 8), (20, 15, 10, 15),
        # disjoint cliques: c = 0
        (6, 2, 1, 0), (12, 3, 2, 0)])
    def test_feasible(self, params):
        SrgParams(*params)

    def test_every_paley_order_is_feasible(self):
        for q in range(5, 2000, 4):
            if graphs._is_prime(q):
                SrgParams(q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4)

    @pytest.mark.parametrize("params", [
        # orders, degrees and common neighbours out of range
        (1, 5, 10, 6), (3, 3, 3, 3), (5, 4, 4, 4), (10, 3, 3, 0), (6, 2, 0, 3),
        # k(k-a-1) = (n-k-1)c holds, the multiplicities are not integers
        (9, 4, 0, 3), (7, 3, 1, 1), (4, 2, 1, 0)])
    def test_no_graph_has_these(self, params):
        with pytest.raises(InvalidParameterError, match="infeasible SRG"):
            SrgParams(*params)


class TestPrimality:
    def test_matches_trial_division(self):
        primes = [q for q in range(2, 20000)
                  if all(q % d for d in range(2, math.isqrt(q) + 1))]
        assert [q for q in range(20000) if graphs._is_prime(q)] == primes

    # the least strong pseudoprimes to the first 2, 4, 9 and 12 prime bases
    @pytest.mark.parametrize("q", [1373653, 3215031751, 3825123056546413051,
                                   318665857834031151167461])
    def test_strong_pseudoprimes_are_composite(self, q):
        assert not graphs._is_prime(q)

    def test_bound_is_the_least_pseudoprime_to_all_bases(self):
        q = graphs.PRIME_TEST_LIMIT
        assert q == 1287836182261 * 2575672364521
        assert graphs._is_prime(q)

    @pytest.mark.parametrize("q", [4129, 100049, 2**61 - 1, 10**24 + 7])
    def test_large_primes(self, q):
        assert graphs._is_prime(q)

    def test_paley_order_past_the_test_bound(self):
        with pytest.raises(InvalidParameterError, match="primality"):
            graphs._check_paley(graphs.PRIME_TEST_LIMIT + 4)

    def test_paley_graph_checks_the_pair_budget_first(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("paley tested primality or allocated past the pair budget")

        monkeypatch.setattr(graphs, "_is_prime", refuse)
        monkeypatch.setattr(graphs, "_rows", refuse)
        with pytest.raises(InvalidParameterError, match="pair budget"):
            paley(4129)


# --- Loop reference implementations -----------------------------------------
# The tuple-and-loop graph core the array core replaced, kept as the oracle.

def reference_from_edges(edges):
    return tuple(sorted((min(u, v), max(u, v)) for u, v in edges))


def reference_adjacency(n, edges):
    a = np.zeros((n, n))
    for u, v in edges:
        if u != v:
            a[u, v] = 1.0
            a[v, u] = 1.0
    return a


def reference_laplacian(n, edges):
    a = reference_adjacency(n, edges)
    return np.diag(a.sum(axis=1)) - a


def reference_validate(n, edges):
    diagnostics = []
    if n < 1:
        return ["graph has no vertices"]
    out_of_range = False
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            diagnostics.append(f"edge ({u},{v}): vertex index out of range")
            out_of_range = True
            continue
        if u == v:
            diagnostics.append(f"edge ({u},{v}): self-loop")
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            diagnostics.append(f"edge ({u},{v}): duplicate")
        seen.add(key)
    if not out_of_range and not reference_connected(n, seen):
        diagnostics.append("disconnected")
    return diagnostics


def reference_connected(n, edges):
    neighbors = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for v in neighbors[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == n


def outcome(func, *args):
    """Result of ``func``, or the type of the exception it raised."""
    try:
        return func(*args)
    except IndexError:
        return IndexError


@st.composite
def malformed_edge_lists(draw):
    """Vertex count 0-12 and edges with negative and out-of-range indices,
    self-loops, repeats in either orientation and disconnected parts."""
    n = draw(st.integers(0, 12))
    vertex = st.one_of(st.integers(0, max(n - 1, 0)), st.integers(-2, n + 2))
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=30))
    if draw(st.booleans()):  # a spanning path, so that connected graphs occur
        edges += [(i, i + 1) for i in range(n - 1)]
    if edges:
        repeats = draw(st.lists(st.sampled_from(edges), max_size=6))
        edges += [(v, u) if flip else (u, v)
                  for (u, v), flip in zip(repeats, draw(st.lists(st.booleans(),
                                                                 min_size=len(repeats),
                                                                 max_size=len(repeats))))]
    return n, draw(st.permutations(edges))


def brute_force_edges(n, adjacent):
    return [[u, v] for u in range(n) for v in range(u + 1, n) if adjacent(u, v)]


class TestArrayCoreMatchesLoopOracle:
    @settings(max_examples=400, deadline=None)
    @given(malformed_edge_lists())
    def test_random_edge_lists(self, case):
        n, edges = case
        g = Graph.from_edges(n, edges)
        canon = reference_from_edges(edges)
        assert g.edges.tolist() == [list(e) for e in canon]
        assert validate(g) == reference_validate(n, canon)
        expected = outcome(reference_laplacian, n, canon)
        got = outcome(laplacian, g)
        if expected is IndexError:
            assert got is IndexError
        else:
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("n", [2, 3, 7, 16])
    def test_complete(self, n):
        assert complete(n).edges.tolist() == brute_force_edges(n, lambda u, v: True)

    @pytest.mark.parametrize("bits", [1, 2, 3, 5, 7])
    def test_hypercube(self, bits):
        assert hypercube(bits).edges.tolist() == brute_force_edges(
            1 << bits, lambda u, v: (u ^ v).bit_count() == 1)

    @pytest.mark.parametrize("n,l", [(4, 0), (5, 2), (6, 3), (11, 4), (20, 7)])
    def test_complete_minus(self, n, l):
        removed = {(2 * i, 2 * i + 1) for i in range(l)}
        assert complete_minus_disjoint_edges(n, l).edges.tolist() == brute_force_edges(
            n, lambda u, v: (u, v) not in removed)

    @pytest.mark.parametrize("q", [5, 13, 17, 29, 101])
    def test_paley(self, q):
        # Euler's criterion: x is a nonzero square mod q iff x**((q-1)/2) = 1
        assert paley(q).edges.tolist() == brute_force_edges(
            q, lambda u, v: pow(v - u, (q - 1) // 2, q) == 1)

    @pytest.mark.parametrize("m,k", [(2, 1), (3, 2), (4, 4), (5, 3), (2, 9)])
    def test_multipartite(self, m, k):
        assert regular_multipartite(m, k).edges.tolist() == brute_force_edges(
            m * k, lambda u, v: u // k != v // k)

    def test_long_path_connectivity(self):
        n = 4096
        path = [(i, i + 1) for i in range(n - 1)]
        assert validate(Graph.from_edges(n, path)) == []
        del path[n // 2]
        assert validate(Graph.from_edges(n, path)) == ["disconnected"]

    def test_edges_read_only(self):
        empty = Graph.from_edges(3, [])
        assert empty.edges.shape == (0, 2)
        assert empty.edges.dtype == np.int64
        assert not empty.edges.flags.writeable
        g = complete(3)
        with pytest.raises(ValueError):
            g.edges[0, 0] = 2

    def test_input_containers(self):
        pairs = [(2, 0), (1, 2), (0, 1)]
        expected = [[0, 1], [0, 2], [1, 2]]
        for edges in (pairs, set(pairs), tuple(pairs), iter(pairs), np.array(pairs)):
            assert Graph.from_edges(3, edges).edges.tolist() == expected

    def test_value_equality_unhashable(self):
        assert Graph.from_edges(3, [(1, 0), (2, 1)]) == Graph.from_edges(3, [(0, 1), (1, 2)])
        assert complete(3) != Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])  # family
        assert Graph.from_edges(3, [(0, 1)]) != Graph.from_edges(3, [(0, 1), (1, 2)])
        assert Graph.from_edges(3, [(0, 1)]) != Graph.from_edges(3, [(0, 2)])
        with pytest.raises(TypeError):
            hash(complete(3))


# --- Family rows against the pair mask ----------------------------------------
# The builders once filtered every pair u < v (np.triu_indices) by a
# predicate; those rows are the oracle for the per-row bounds.

def pair_mask_rows(n, adjacent):
    u, v = np.triu_indices(n, 1)
    return np.stack([u, v], axis=1)[adjacent(u, v)]


def assert_pair_mask_graph(g, n, adjacent, family):
    assert (g.n_vertices, g.family, g.edges.dtype) == (n, family, np.int64)
    assert np.array_equal(g.edges, pair_mask_rows(n, adjacent))


PALEY_ORDERS = [q for q in range(5, 200, 4) if graphs._is_prime(q)] + [1009]


class TestBuildersMatchPairMask:
    @pytest.mark.parametrize("n", range(2, 41))
    def test_complete(self, n):
        assert_pair_mask_graph(complete(n), n, lambda u, v: u < v, f"complete{{{n}}}")

    @pytest.mark.parametrize("n", range(2, 40))
    def test_complete_minus(self, n):
        for l in range(n // 2 + 1):
            assert_pair_mask_graph(
                complete_minus_disjoint_edges(n, l), n,
                lambda u, v: ~((v == u + 1) & (u % 2 == 0) & (u < 2 * l)),
                f"complete_minus{{{n},{l}}}")

    @pytest.mark.parametrize("m", range(2, 7))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_multipartite(self, m, k):
        assert_pair_mask_graph(regular_multipartite(m, k), m * k,
                               lambda u, v: u // k != v // k, f"multipartite{{{m},{k}}}")

    @pytest.mark.parametrize("q", PALEY_ORDERS)
    def test_paley(self, q):
        is_residue = np.zeros(q, dtype=bool)
        is_residue[np.arange(1, q) ** 2 % q] = True
        assert_pair_mask_graph(paley(q), q, lambda u, v: is_residue[(u - v) % q],
                               f"paley{{{q}}}")

    # the builds peak at about 2.1 times their edge array; filtering every
    # pair by a mask peaked at 3.2 to 5.2 times
    @pytest.mark.parametrize("build", [lambda: complete(1024),
                                       lambda: regular_multipartite(16, 64),
                                       lambda: paley(1009)],
                             ids=["complete", "multipartite", "paley"])
    def test_peak_memory_is_a_small_multiple_of_the_edges(self, build):
        tracemalloc.start()
        try:
            g = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * g.edges.nbytes


# --- Connectivity by degrees against union-find -------------------------------

def union_find_connected(n, edges):
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n
    for a, b in edges:
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return components == 1


@st.composite
def dense_graphs(draw):
    """In-range edges of a random graph of any density, of two disjoint
    cliques, or of a Paley graph, whose minimum degree is (n - 1)/2 exactly,
    maybe less one edge; relabelled, and maybe with every edge listed twice
    and a self-loop."""
    kind = draw(st.sampled_from(["random", "two cliques", "paley"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        n = draw(st.integers(1, 24))
        u, v = np.triu_indices(n, 1)
        keep = rng.random(u.size) < draw(st.floats(0, 1))
        edges = list(zip(u[keep].tolist(), v[keep].tolist()))
    elif kind == "two cliques":
        a, b = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        n = a + b
        edges = [(x, y) for lo, hi in ((0, a), (a, n))
                 for x in range(lo, hi) for y in range(x + 1, hi)]
    else:
        n = draw(st.sampled_from([5, 13, 17]))
        edges = paley(n).edges.tolist()
        if draw(st.booleans()):
            del edges[draw(st.integers(0, len(edges) - 1))]
    label = rng.permutation(n).tolist()
    edges = [(label[x], label[y]) for x, y in edges]
    if draw(st.booleans()):
        edges += edges
    if draw(st.booleans()):
        loop = draw(st.integers(0, n - 1))
        edges.append((loop, loop))
    return n, edges


def union_find_validate(n, edges):
    """``reference_validate`` with its connectivity decided by union-find."""
    expected = [d for d in reference_validate(n, reference_from_edges(edges))
                if d != "disconnected"]
    if not union_find_connected(n, edges):
        expected.append("disconnected")
    return expected


class TestConnectivityByDegrees:
    @settings(max_examples=300, deadline=None)
    @given(dense_graphs())
    def test_validate_matches_union_find(self, case):
        n, edges = case
        assert validate(Graph.from_edges(n, edges)) == union_find_validate(n, edges)

    # minimum degree (n - 1)/2 exactly (C5 and Paley(13)), and above it
    @pytest.mark.parametrize("g", [paley(5), paley(13), complete(40),
                                   regular_multipartite(8, 64),
                                   complete_minus_disjoint_edges(10, 5)],
                             ids=["paley5", "paley13", "complete", "multipartite",
                                  "complete_minus"])
    def test_degree_bound_takes_no_search(self, monkeypatch, g):
        def refuse(*args):
            raise AssertionError("a graph within the degree bound was searched")

        monkeypatch.setattr(graphs, "_connected", refuse)
        assert validate(g) == []

    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_repeated_edges_do_not_prove_connectivity(self, m):
        """Two disjoint K_m listed twice: their counted degrees 2(m - 1) pass
        the bound, their true ones m - 1 do not."""
        clique = [(x, y) for x in range(m) for y in range(x + 1, m)]
        edges = clique + [(x + m, y + m) for x, y in clique]
        assert validate(Graph.from_edges(2 * m, edges)) == ["disconnected"]
        diagnostics = validate(Graph.from_edges(2 * m, edges + edges))
        assert diagnostics[-1] == "disconnected"
        assert len(diagnostics) == len(edges) + 1
        assert all(d.endswith("duplicate") for d in diagnostics[:-1])


def random_tree(rng, n, reach):
    """A random tree on 0..n-1, each vertex x > 0 joined to one of the
    ``reach`` vertices before it: a path for reach 1, shallower as it grows."""
    return [(int(rng.integers(max(x - reach, 0), x)), x) for x in range(1, n)]


def shuffled_path(rng, n):
    """The edges of a path through a random permutation of 0..n-1, and that
    permutation."""
    label = rng.permutation(n)
    return np.stack([label[:-1], label[1:]], axis=1), label


@st.composite
def long_diameter_graphs(draw):
    """Edges of a path, a cycle, a caterpillar, a random tree, a forest of
    trees each maybe closed by one more edge, or a path beside a cycle (n - 1
    edges, so disconnected past the edge-count rule); relabelled, and maybe
    with repeated edges and a self-loop."""
    kind = draw(st.sampled_from(["path", "cycle", "caterpillar", "tree", "forest",
                                 "path + cycle"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 400))
    if kind == "path":
        edges = random_tree(rng, n, 1)
    elif kind == "cycle":
        n = max(n, 3)
        edges = random_tree(rng, n, 1) + [(0, n - 1)]
    elif kind == "caterpillar":
        spine = draw(st.integers(1, n))
        edges = random_tree(rng, spine, 1)
        edges += [(int(rng.integers(spine)), x) for x in range(spine, n)]
    elif kind == "tree":
        edges = random_tree(rng, n, draw(st.integers(1, n)))
    elif kind == "forest":
        cuts = sorted(set(draw(st.lists(st.integers(1, n), max_size=5))) | {n})
        edges, start = [], 0
        for stop in cuts:
            size = stop - start
            edges += [(a + start, b + start) for a, b in random_tree(rng, size, size)]
            if size >= 3 and draw(st.booleans()):
                a, b = sorted(rng.choice(size, 2, replace=False).tolist())
                if b > a + 1:
                    edges.append((a + start, b + start))
            start = stop
    else:
        n = max(n, 4)
        split = draw(st.integers(1, n - 3))
        edges = random_tree(rng, split, 1)
        edges += [(x, x + 1) for x in range(split, n - 1)] + [(split, n - 1)]
    label = rng.permutation(n).tolist()
    edges = [(label[x], label[y]) for x, y in edges]
    if edges and draw(st.booleans()):
        edges += draw(st.lists(st.sampled_from(edges), min_size=1, max_size=5))
    if draw(st.booleans()):
        loop = draw(st.integers(0, n - 1))
        edges.append((loop, loop))
    return n, edges


class TestConnectivityOfLongDiameters:
    """Graphs far below the degree bound, whose diameter grows with their
    order, go through the label passes of ``_connected``."""

    @settings(max_examples=300, deadline=None)
    @given(long_diameter_graphs())
    def test_validate_matches_union_find(self, case):
        n, edges = case
        assert validate(Graph.from_edges(n, edges)) == union_find_validate(n, edges)

    def test_path_beside_a_cycle_reaches_the_passes(self, monkeypatch):
        # n - 1 edges and minimum degree 1: neither shortcut decides it
        calls = []
        connected = graphs._connected

        def counted(*args):
            calls.append(args[0])
            return connected(*args)

        monkeypatch.setattr(graphs, "_connected", counted)
        edges = [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (3, 6)]
        assert validate(Graph.from_edges(7, edges)) == ["disconnected"]
        assert calls == [7]

    # the breadth-first search took a round of numpy calls per level, about
    # 1 s per 100,000 path vertices; the label passes take about 50 ms here
    def test_shuffled_path_of_300000_vertices(self):
        n = 300_000
        edges, label = shuffled_path(np.random.default_rng(300), n)
        g = Graph.from_edges(n, edges)
        start = time.perf_counter()
        assert validate(g) == []
        assert time.perf_counter() - start < 1.0
        # the tail past the middle closed into a cycle: n - 1 edges, two parts
        edges[n // 2] = label[n // 2 + 1], label[-1]
        g = Graph.from_edges(n, edges)
        start = time.perf_counter()
        assert validate(g) == ["disconnected"]
        assert time.perf_counter() - start < 1.0

    def test_peak_memory_is_a_small_multiple_of_the_edges(self):
        # an 8-regular graph of 100,000 vertices: the label passes peak at
        # about 2.4 times its edge array, the breadth-first search's CSR
        # arrays and frontier at about 4 times
        g = cycle_union(np.random.default_rng(8), 100_000, 4)
        tracemalloc.start()
        try:
            diagnostics = validate(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diagnostics == []
        assert peak < 3 * g.edges.nbytes


class TestDegreeCount:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 30), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_sorted_column_counts_match_bincount(self, n, density, seed):
        # random canonical graphs, isolated vertices and E = 0 included
        rng = np.random.default_rng(seed)
        u, v = np.triu_indices(n, 1)
        keep = rng.random(u.size) < density
        g = Graph.from_edges(n, list(zip(u[keep].tolist(), v[keep].tolist())))
        want = np.bincount(g.edges.ravel(), minlength=n)
        np.testing.assert_array_equal(graphs._degrees(n, *g.edges.T), want)

    def test_no_edges(self):
        g = Graph.from_edges(5, [])
        np.testing.assert_array_equal(graphs._degrees(5, *g.edges.T), np.zeros(5))


class TestDegrees:
    @settings(max_examples=300, deadline=None)
    @given(malformed_edge_lists())
    def test_adjacency_row_sums(self, case):
        n, edges = case
        g = Graph.from_edges(n, edges)
        if all(0 <= x < n for e in edges for x in e):
            np.testing.assert_array_equal(g.degrees(), reference_adjacency(n, edges).sum(axis=1))
        else:
            with pytest.raises(IndexError):
                g.degrees()

    def test_repeats_once_and_loops_never(self):
        g = Graph.from_edges(4, [(0, 0), (1, 0), (0, 1), (1, 2), (2, 1), (2, 1), (3, 3)])
        assert g.degrees().tolist() == [1.0, 2.0, 1.0, 0.0]
        np.testing.assert_array_equal(g.degrees(), g.adjacency().sum(axis=1))


# --- The readers of graph text against line loops -----------------------------

TEXT_PIECES = st.sampled_from([
    "0", "1", "2", "17", "007", "99999999999999999999", " ", "\t", "\n", "\r", "\r\n",
    "\x0b", "\x1c", "\x1f", "\x85", "\u2028", "--", "-", ";", "#", "# vertices: 5",
    "# family: x", "#vertices:3", "# vertices: ٣", "1 2", "3 -- 4;", "5;", "+1", "-3",
    "1_0", "é", "٣", "}"])
# pieces of text inside the language of both formats but for the comment
LANGUAGE_PIECES = st.sampled_from([
    "0", "17", "007", " ", "\t", "\n", "\r", "\r\n", "\n1 2\n", "\n3 -- 4;\n", "\n5;\n",
    "\n# vertices: 5\n", "\n# family: x\n", "# généré\x0b1 2"])
TEXTS = st.one_of(st.lists(TEXT_PIECES, max_size=30),
                  st.lists(LANGUAGE_PIECES, max_size=30)).map("".join)

# The documented language, line by line: lines end at '\n', '\r\n' or '\r';
# indices are ASCII decimal numbers of at most 18 digits, separated by spaces
# and tabs.
LINE_BREAK = re.compile(r"\r\n|\r|\n")
NUMBER = r"[0-9]{1,18}"
EDGE_LIST_LINE = re.compile(rf"[ \t]*(?:{NUMBER}[ \t]+{NUMBER}[ \t]*)?")
DOT_LINE = re.compile(rf"[ \t]*(?:{NUMBER}(?:[ \t]*--[ \t]*{NUMBER})?;?[ \t]*)?")
DOT_EDGE = re.compile(r"^(\d+)\s*--\s*(\d+);?$")
DOT_VERTEX = re.compile(r"^(\d+);?$")


def first_refused(text, line_language, strip_comment=False):
    """The first line of ``text`` outside ``line_language``, or None."""
    for raw in LINE_BREAK.split(text):
        if not line_language.fullmatch(raw.split("#", 1)[0] if strip_comment else raw):
            return raw
    return None


def edge_list_lines(text):
    """Edge-list text read line by line, each number by ``int``."""
    n_declared = family = None
    edges = []
    for raw in LINE_BREAK.split(text):
        comment = raw.split("#", 1)
        if len(comment) == 2:
            n_declared, family = graphs._directive(comment[1], n_declared, family)
        line = comment[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidParameterError(f"bad edge-list line: {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if n_declared is None:
        if not edges:
            raise InvalidParameterError("edge list is empty and declares no vertex count")
        n_declared = max(max(u, v) for u, v in edges) + 1
    return Graph.from_edges(n_declared, edges, family=family)


def dot_lines(body):
    """Order and edges of a DOT body read line by line, each number by ``int``."""
    vertices = set()
    edges = []
    for raw in LINE_BREAK.split(body):
        line = raw.strip()
        if not line:
            continue
        edge = DOT_EDGE.match(line)
        if edge:
            u, v = int(edge.group(1)), int(edge.group(2))
            vertices.update((u, v))
            edges.append((u, v))
            continue
        vertex = DOT_VERTEX.match(line)
        if vertex:
            vertices.add(int(vertex.group(1)))
            continue
        raise InvalidParameterError(f"unsupported DOT line: {line!r}")
    if not vertices:
        raise InvalidParameterError("DOT graph has no vertices")
    return max(vertices) + 1, edges


def parse_outcome(func, *args):
    """(order, edges, family) of the parsed graph, or the error raised."""
    try:
        result = func(*args)
        if not isinstance(result, Graph):
            result = Graph.from_edges(*result)
    except (InvalidParameterError, InvalidInputError) as exc:
        return type(exc), str(exc)
    return result.n_vertices, result.edges.tolist(), result.family


class TestParseScanMatchesLineLoop:
    """Inside the documented language each reader gives the line loop's graph;
    outside it, it refuses naming the first line outside the language."""

    @settings(max_examples=500, deadline=None)
    @given(TEXTS)
    @example("1_0 2")
    @example("# généré\n0 1")
    @example("# a\x0b1 2\n")
    def test_edge_list(self, text):
        refused = first_refused(text, EDGE_LIST_LINE, strip_comment=True)
        if refused is None:
            assert (parse_outcome(parse_edge_list, text)
                    == parse_outcome(edge_list_lines, text))
        else:
            assert parse_outcome(parse_edge_list, text) == (
                InvalidParameterError, f"bad edge-list line: {refused!r}")

    @settings(max_examples=500, deadline=None)
    @given(TEXTS)
    @example("1 -- 2 ;")
    @example("1--2;")
    @example("3;\r\n4 -- 5")
    @example(";")
    @example("1 -- 2 -- 3")
    @example("0 -- 1234567890123456789\n")
    @example("0;\n1 -- 0;")
    def test_dot_body(self, body):
        text = "graph G {" + body + "}"
        refused = first_refused(body, DOT_LINE)
        if refused is None:
            assert parse_outcome(parse_dot, text) == parse_outcome(dot_lines, body)
        else:
            assert parse_outcome(parse_dot, text) == (
                InvalidParameterError, f"unsupported DOT line: {refused.strip()!r}")

    def test_reader_peak_memory_is_a_small_multiple_of_the_text(self):
        # a 100,000-vertex edge list read as one integer array: the numbers'
        # lines and values, built a digit position at a time, not arrays per
        # character or per digit
        g = cycle_union(np.random.default_rng(100), 100000, 4)
        text = format_edge_list(g)
        tracemalloc.start()
        try:
            parsed = parse_edge_list(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == g
        assert peak < 16 * len(text)

    def test_errors_keep_their_wording(self):
        with pytest.raises(InvalidParameterError, match=r"bad edge-list line: '1 2 3'"):
            parse_edge_list("0 1\n1 2 3\n")
        with pytest.raises(InvalidParameterError, match=r"unsupported DOT line: '1 - 2'"):
            parse_dot("graph G {\n0;\n1 - 2\n}")
