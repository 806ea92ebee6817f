import math

import numpy as np
import pytest

from ctqw_search import (
    Graph,
    MarkedState,
    complete,
    complete_minus_disjoint_edges,
    fwht,
    hypercube,
    laplacian,
    laplacian_decomposition,
    paley,
    regular_multipartite,
)

# degenerate spectra: every family here has repeated Laplacian levels
DEGENERATE_FAMILIES = [complete(9), regular_multipartite(3, 4),
                       complete_minus_disjoint_edges(10, 3), paley(13), paley(29)]
DEGENERATE_FAMILIES += [hypercube(n) for n in range(3, 7)]


@pytest.fixture(scope="session")
def dense_hypercube():
    """Cached dense decompositions of hypercube Laplacians, keyed by bit count."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = laplacian_decomposition(laplacian(hypercube(n)))
        return cache[n]

    return get


def random_marked_state(rng, n, p_n=None, support=None):
    """Random real marked state; optionally pin the uniform overlap or support size."""
    if support is not None:
        support = min(support, n)
        verts = rng.choice(n, size=support, replace=False)
        weights = np.zeros(n)
        weights[verts] = rng.standard_normal(support)
        while np.linalg.norm(weights) < 1e-9 or abs(weights.sum()) < 1e-9:
            weights[verts] = rng.standard_normal(support)
        return MarkedState.from_weights(weights)
    s = np.full(n, 1.0 / math.sqrt(n))
    g = rng.standard_normal(n)
    g -= (s @ g) * s
    g /= np.linalg.norm(g)
    c = rng.uniform(1.0 / math.sqrt(n), 1.0) if p_n is None else p_n
    return MarkedState(math.sqrt(1.0 - c * c) * g + c * s)


def random_connected_graph(rng, n, p):
    """A random recursive spanning tree plus each other edge with probability p."""
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return Graph.from_edges(n, edges)


def sparse_random_graph(rng, n, degree):
    """A random recursive spanning tree plus uniform random edges, up to
    n*degree/2 edges: the shape of the benchmark's edge-list graphs."""
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    while len(edges) < n * degree // 2:
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.add((u, v))
    return Graph.from_edges(n, edges)


def transform_level_masses(n_bits, weights):
    """Level masses of a hypercube state from its Walsh transform, grouped by
    Hamming weight and listed for levels 2n, ..., 2, 0."""
    p = fwht(weights) / math.sqrt(1 << n_bits)
    weight = np.bitwise_count(np.arange(1 << n_bits, dtype=np.uint64)).astype(np.intp)
    return np.bincount(weight, weights=p**2, minlength=n_bits + 1)[::-1]
