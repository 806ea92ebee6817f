import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from ctqw_search import (
    Graph,
    HypercubeEigenbasis,
    InvalidInputError,
    InvalidParameterError,
    MarkedState,
    amplitude_approx,
    complete,
    complete_minus_disjoint_edges,
    fwht,
    hypercube,
    laplacian,
    laplacian_decomposition,
    paley,
    regular_multipartite,
    search,
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


def path_graph(n):
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def cycle_graph(n):
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def sparse_random_graph(rng, n, degree):
    """A random recursive spanning tree plus uniform random edges, up to
    n*degree/2 edges: the shape of the benchmark's edge-list graphs."""
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    while len(edges) < n * degree // 2:
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.add((u, v))
    return Graph.from_edges(n, edges)


@contextmanager
def outside_pole_guard():
    """Assert, at every evaluation of the prepared secular form, that no point
    lies in its pole guard: the form tests none, and the solver's clamp
    (``_secular_roots``) and the polish's small steps next to 0 must keep
    their iterates out of it.  The one point no clamp can move is the first,
    the middle -A/2 of a bracket (-A, 0) whose whole mass A lies within twice
    the guard; f rounds there as anywhere, the pole 0 being exact."""
    evaluate = search._SecularForm.__call__

    def checked(form, x):
        narrow = (np.asarray(x) < 0.0) & (form.p @ form.p < 2.0 * search.POLE_GUARD * form.scale)
        assert not (form.guarded(x) & ~narrow).any(), (
            f"secular form evaluated at {x} in its pole guard")
        return evaluate(form, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search._SecularForm, "__call__", checked)
        yield


# Dense routes no production code takes, kept as the oracles the library's
# spectral and reduced routes are tested against.

def hamming_weights(n_bits):
    """popcount(z) of every index z of 2**n_bits."""
    return np.bitwise_count(np.arange(1 << n_bits, dtype=np.uint64)).astype(np.intp)


def transform_level_masses(n_bits, weights):
    """Level masses of a hypercube state from its Walsh transform, grouped by
    Hamming weight and listed for levels 2n, ..., 2, 0."""
    p = fwht(weights) / math.sqrt(1 << n_bits)
    return np.bincount(hamming_weights(n_bits), weights=p**2, minlength=n_bits + 1)[::-1]


def basis_eigenvalues(basis):
    """One eigenvalue per eigenvector: a dense decomposition's own, or
    2*popcount(z) for every Walsh index z of a hypercube basis."""
    if isinstance(basis, HypercubeEigenbasis):
        return 2.0 * hamming_weights(basis.n_bits)
    return basis.eigenvalues


def basis_overlaps(basis, vec):
    """Coefficients of the dense vector ``vec`` in every eigenvector: a dense
    decomposition's ``overlaps``, or the Walsh transform over sqrt(N), entry z
    the overlap with the parity vector (-1)**popcount(x & z) / sqrt(N)."""
    if isinstance(basis, HypercubeEigenbasis):
        vec = np.asarray(vec)
        if vec.shape != (basis.n,):
            raise InvalidInputError(
                f"vector has shape {vec.shape}, expected ({basis.n},)"
            )
        return fwht(vec) / math.sqrt(basis.n)
    return basis.overlaps(vec)


def overlaps(basis, state):
    """Eigenbasis overlaps of the marked state, one entry per eigenvector."""
    search._check_dimension(basis, state)
    return basis_overlaps(basis, state.weights)


def hamiltonian(g, jump_rate, w):
    """Search Hamiltonian: jump_rate * Laplacian minus the marked projector."""
    if not 0.0 < jump_rate < math.inf:
        raise InvalidParameterError(f"jump rate must be positive and finite, got {jump_rate}")
    if w.n != g.n_vertices:
        raise InvalidInputError(
            f"marked state has dimension {w.n}, graph has {g.n_vertices} vertices"
        )
    return jump_rate * laplacian(g) - np.outer(w.weights, w.weights)


def evolve(decomp, vec, t):
    """Apply exp(-iHt) to ``vec``, an (N,) vector or each column of an (N, k)
    block, using the eigendecomposition of H."""
    coeffs = decomp.overlaps(vec)
    phases = np.exp(-1j * decomp.eigenvalues * t)
    return decomp.eigenvectors @ (phases * coeffs.T).T


def amplitude_exact_sum(decomp_h, w, s, t):
    """Exact detection amplitude <w| exp(-iHt) |s> as a spectral sum."""
    if isinstance(w, MarkedState):
        w = w.weights
    if np.ndim(w) != 1 or np.ndim(s) != 1:
        raise InvalidInputError(
            f"amplitude needs two vectors, got shapes {np.shape(w)} and {np.shape(s)}")
    u = decomp_h.overlaps(w) * decomp_h.overlaps(s)
    t_arr = np.asarray(t, dtype=float)
    phases = np.exp(-1j * np.multiply.outer(t_arr, decomp_h.eigenvalues))
    result = phases @ u
    if t_arr.ndim == 0:
        return complex(result)
    return result


# The deviation of a trace from the sinusoidal approximation, which no
# production route computes (the CLI's peak_deviation is its own).

@dataclass(frozen=True)
class DeviationReport:
    """Grid deviations between an exact trace and the sinusoidal approximation."""

    max_abs_deviation: float
    rms_deviation: float
    peak_time_rel_dev: float
    peak_value_rel_dev: float


def compare(trace, params):
    """Deviations of an exact trace from the sinusoidal approximation.

    The trace must come from the same marked state at the critical jump rate,
    where the approximation is defined.
    """
    if trace.state_digest != params.state_digest:
        raise InvalidInputError("trace and parameters describe different marked states")
    if abs(trace.jump_rate - params.gamma_c) > 1e-9 * max(params.gamma_c, 1e-300):
        raise InvalidInputError(
            f"trace ran at jump rate {trace.jump_rate}, parameters require the "
            f"critical rate {params.gamma_c}"
        )
    if trace.times.size < 2:
        raise InvalidInputError("trace has fewer than two grid points")
    dev = np.abs(trace.amplitudes - amplitude_approx(params, trace.times))
    peak_amp = math.sqrt(trace.peak_probability)
    return DeviationReport(
        max_abs_deviation=float(dev.max()),
        rms_deviation=float(math.sqrt(np.mean(dev**2))),
        peak_time_rel_dev=abs(trace.peak_time - params.t_opt) / params.t_opt,
        peak_value_rel_dev=abs(peak_amp - params.envelope) / params.envelope,
    )
