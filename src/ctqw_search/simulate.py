"""Exact search dynamics: time evolution of the uniform state in the reduced
rank-one basis, peak location, and deviation against the sinusoidal
approximation.  ``hamiltonian`` assembles the dense search Hamiltonian, the
oracle the reduced dynamics are tested against."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .graphs import Graph, _check_graph, laplacian
from .closed_forms import krawtchouk
from .linalg import eig_sym, hypercube_eigenbasis, laplacian_decomposition
from .search import MarkedState, SearchParameters, search_params

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class EvolutionTrace:
    """Detection amplitude |<w|psi(t)>| on a uniform time grid.

    ``peak_time`` refines the grid argmax by golden-section search, so the
    peak need not coincide with a grid point.  ``params`` are the search
    parameters of the instance the trace was computed from.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    peak_time: float
    peak_probability: float
    jump_rate: float
    params: SearchParameters

    def __post_init__(self):
        self.times.setflags(write=False)
        self.amplitudes.setflags(write=False)

    @property
    def state_digest(self) -> str:
        return self.params.state_digest

    def to_csv(self) -> str:
        lines = ["t,amplitude,probability"]
        for t, amp in zip(self.times, self.amplitudes):
            lines.append(f"{t:.12g},{amp:.12g},{amp * amp:.12g}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DeviationReport:
    """Grid deviations between an exact trace and the sinusoidal approximation."""

    max_abs_deviation: float
    rms_deviation: float
    peak_time_rel_dev: float
    peak_value_rel_dev: float


def hamiltonian(g: Graph, jump_rate: float, w: MarkedState) -> np.ndarray:
    """Search Hamiltonian: jump_rate * Laplacian minus the marked projector."""
    if jump_rate <= 0.0:
        raise InvalidParameterError(f"jump rate must be positive, got {jump_rate}")
    if w.n != g.n_vertices:
        raise InvalidInputError(
            f"marked state has dimension {w.n}, graph has {g.n_vertices} vertices"
        )
    return jump_rate * laplacian(g) - np.outer(w.weights, w.weights)


def run(g: Graph, w: MarkedState, jump_rate: float | str = "critical",
        t_max: float | None = None, steps: int = 1024) -> EvolutionTrace:
    """Evolve the uniform state under the search Hamiltonian and trace the
    marked-state amplitude.

    One dense decomposition of the Laplacian gives the search parameters; the
    dynamics then run in the span of the eigenspace components of the marked
    state, whose dimension is the number of distinct Laplacian levels.  Levels
    closer than lambda_max * N * eps are merged into one.

    ``jump_rate="critical"`` resolves to the critical rate of the instance;
    ``t_max`` defaults to twice the optimal time.  ``t_max=0`` produces the
    single-point trace at t = 0.
    """
    _check_graph(g)
    params = search_params(laplacian_decomposition(laplacian(g)), w)
    rate = _resolve_rate(jump_rate, params)
    lam = params.eigenvalues
    tol = lam[0] * lam.size * np.finfo(float).eps
    # levels are sorted non-increasing; the zero mode always stands alone
    starts = np.union1d(np.flatnonzero(lam[:-1] - lam[1:] > tol) + 1, [0, lam.size - 1])
    masses = np.add.reduceat(params.a_k, starts)
    return _reduced_trace(lam[starts], masses, starts.size - 1, rate, params,
                          t_max, steps)


def run_hypercube(n_bits: int, w: MarkedState,
                  jump_rate: float | str = "critical",
                  t_max: float | None = None, steps: int = 1024) -> EvolutionTrace:
    """Exact hypercube dynamics without dense diagonalization.

    The Hamiltonian acts on the span of the components of the marked state in
    the n+1 Laplacian eigenspaces (level 2j for Hamming weight j), so the
    evolution reduces to an eigenproblem of order n+1.  The mass of level
    j >= 1 is (1/N) * sum_d h_d * K_j(d), where h_d sums w_a * w_b over support
    pairs at Hamming distance d and K_j is the Krawtchouk kernel.  Level 0
    takes p_n**2 from the transform overlap instead: as a pair sum, (sum w)**2/N
    cancels when the uniform overlap is small.
    """
    params = search_params(hypercube_eigenbasis(n_bits), w)
    rate = _resolve_rate(jump_rate, params)
    support = np.array(w.support, dtype=np.uint64)
    wv = w.weights[support]
    dist = np.bitwise_count(support[:, None] ^ support[None, :])
    h = np.bincount(dist.ravel(), weights=np.outer(wv, wv).ravel(), minlength=n_bits + 1)
    ds = np.flatnonzero(h)
    kernel = np.array([[krawtchouk(n_bits, j, int(d)) for d in ds]
                       for j in range(1, n_bits + 1)], dtype=float)
    masses = np.concatenate([[params.p_n**2], kernel @ h[ds] / w.n])
    return _reduced_trace(2.0 * np.arange(n_bits + 1), masses, 0, rate, params,
                          t_max, steps)


def compare(trace: EvolutionTrace, params: SearchParameters) -> DeviationReport:
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
    rate = params.gamma_c * params.p_n / params.beta
    approx = params.envelope * np.abs(np.sin(rate * trace.times))
    dev = np.abs(trace.amplitudes - approx)
    peak_amp = math.sqrt(trace.peak_probability)
    return DeviationReport(
        max_abs_deviation=float(dev.max()),
        rms_deviation=float(math.sqrt(np.mean(dev**2))),
        peak_time_rel_dev=abs(trace.peak_time - params.t_opt) / params.t_opt,
        peak_value_rel_dev=abs(peak_amp - params.envelope) / params.envelope,
    )


def _resolve_rate(jump_rate: float | str, params: SearchParameters) -> float:
    if isinstance(jump_rate, str):
        if jump_rate != "critical":
            raise InvalidParameterError(
                f"jump rate must be a positive number or 'critical', got {jump_rate!r}"
            )
        return params.gamma_c
    rate = float(jump_rate)
    if not 0.0 < rate < math.inf:
        raise InvalidParameterError(f"jump rate must be positive and finite, got {rate}")
    return rate


def _reduced_trace(levels: np.ndarray, masses: np.ndarray, zero: int, rate: float,
                   params: SearchParameters, t_max: float | None,
                   steps: int) -> EvolutionTrace:
    """Trace in the basis P_k w / c_k, c_k = sqrt(mass_k): there H is
    rate * diag(levels) - c c^T, w is c and s the zero-level basis vector."""
    c = np.sqrt(np.maximum(masses, 0.0))
    decomp = eig_sym(rate * np.diag(levels) - np.outer(c, c))
    u = decomp.overlaps(c) * decomp.eigenvectors[zero]
    return _trace_from_modes(decomp.eigenvalues, u, rate, params, t_max, steps)


def _trace_from_modes(mu: np.ndarray, u: np.ndarray, rate: float,
                      params: SearchParameters,
                      t_max: float | None, steps: int) -> EvolutionTrace:
    if t_max is None:
        t_max = 2.0 * params.t_opt
    if not 0.0 <= t_max < math.inf:
        raise InvalidParameterError(f"t_max must be non-negative and finite, got {t_max}")
    if t_max > 0.0 and steps < 2:
        raise InvalidParameterError(f"need at least 2 grid points, got {steps}")

    def amplitude(t: float) -> float:
        return abs(complex(np.exp(-1j * mu * t) @ u))

    times = np.linspace(0.0, t_max, steps if t_max > 0.0 else 1)
    amps = np.abs(np.exp(-1j * np.outer(times, mu)) @ u)
    peak_index = int(np.argmax(amps))
    lo = times[max(peak_index - 1, 0)]
    hi = times[min(peak_index + 1, times.size - 1)]
    peak_time = _golden_max(amplitude, lo, hi, tol=1e-9 * params.t_opt)
    peak_amp = amplitude(peak_time)
    # the refined peak can only improve on the grid argmax
    if peak_amp < amps[peak_index]:
        peak_time = float(times[peak_index])
        peak_amp = float(amps[peak_index])
    return EvolutionTrace(
        times=times,
        amplitudes=amps,
        peak_time=peak_time,
        peak_probability=peak_amp * peak_amp,
        jump_rate=rate,
        params=params,
    )


def _golden_max(func, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1 = func(x1)
    f2 = func(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = func(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = func(x1)
    return 0.5 * (lo + hi)
