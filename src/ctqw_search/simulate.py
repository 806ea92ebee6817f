"""Exact search dynamics: time evolution of the uniform state in the reduced
rank-one basis, on a graph's Gauss quadrature of the marked state's spectral
measure (Lanczos, with the dense decomposition only when the quadrature
cannot settle) or on the hypercube's levels, and the peak location."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .graphs import Graph, _check_graph, laplacian
from .linalg import KrylovBasis, hypercube_eigenbasis
from .search import (NEGLIGIBLE_OVERLAP_SQ, POLE_GUARD, MarkedState, SearchParameters,
                     _level_params, _SecularForm, _secular_roots, search_params)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Budget of time-grid points times reduced levels, the phase products of a
# trace, and of secular roots per block times levels: the N-wide temporaries
# of a root block (the pole distances in the secular steps and the weights)
# hold one float per cell, 32 MiB.
MAX_TRACE_CELLS = 1 << 22
PRECISION_LIMIT = 2.0**53
# The quadrature of ``run`` is taken when gamma_c and beta moved by at most
# KRYLOV_TOL, relative, and the trace by at most KRYLOV_TOL plus its phase
# rounding, since the last decision.
KRYLOV_TOL = 1e-12
# Lanczos steps a trace needs per radian of rate * lambda_max * t_max: the
# Krylov error of exp(-iHt)s starts to fall once m passes about a quarter of
# it (Hochbruck and Lubich, SIAM J. Numer. Anal. 34, 1997); random graphs of
# 800 and 1000 vertices reached KRYLOV_TOL at 0.55 to 0.6 of it.
KRYLOV_STEPS_PER_RADIAN = 0.5


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


def run(g: Graph, w: MarkedState, jump_rate: float | str = "critical",
        t_max: float | None = None, steps: int = 1024) -> EvolutionTrace:
    """Evolve the uniform state under the search Hamiltonian and trace the
    marked-state amplitude.

    The dynamics run in the span of the uniform state s and the Krylov space
    of the Laplacian Q from b = w - p_n*s, the whole orbit of s under H =
    rate*Q - w w'.  Lanczos on the dense Q from b (``linalg.KrylovBasis``)
    gives the m-node Gauss rule of b's spectral measure; with the zero level
    at mass p_n**2 it reaches ``search_params`` as the state's levels and
    masses, and the reduced trace runs on them.  Each look (``_krylov_rule``)
    runs the trace's admission checks on the quadrature, so a refused trace
    pays no dense decomposition.  The rule is taken when the Krylov space is
    invariant, or when gamma_c, beta and the trace on the requested grid
    have settled to ``KRYLOV_TOL`` between two looks.  Only a measure that
    cannot settle within the step budget, which the rule foresees from rate
    * lambda_max * t_max from the second look on, takes the dense
    decomposition of the same Q.

    ``jump_rate="critical"`` resolves to the critical rate of the instance;
    ``t_max`` defaults to twice the optimal time.  ``t_max=0`` produces the
    single-point trace at t = 0.
    """
    _check_graph(g)
    basis = KrylovBasis(laplacian(g), _krylov_rule(jump_rate, t_max, steps))
    params = search_params(basis, w)
    return _reduced_trace(_resolve_rate(jump_rate, params), params, t_max, steps)


def _krylov_rule(jump_rate: float | str, t_max: float | None, steps: int):
    """The ``settled(levels, masses, exact, budget)`` of ``run``'s Krylov basis.

    Each look takes the quadrature's search parameters and runs the trace's
    admission checks on them (``_admit``), in the dense route's order.  The
    dense route, with at least m + 1 levels and lambda_max at least the top
    node theta_m, refuses the same, but for the lower end of the precision
    window: a rate within a factor theta_settled/theta_m of 2**-53/lambda_max
    may be refused.  An exact quadrature is taken.  From the second look on
    (strongly regular and complete multipartite graphs break down at m = 2),
    the rule gives up (None) when ``KRYLOV_STEPS_PER_RADIAN`` * rate *
    lambda_max * t_max, from the quadrature, exceeds the budget.  It takes
    the quadrature when gamma_c and beta moved by at most ``KRYLOV_TOL``,
    relative, since the last look, and the trace on the requested grid
    (``_krylov_amplitudes``) by at most ``KRYLOV_TOL`` plus its phase rounding."""
    previous = None

    def settled(levels: np.ndarray, masses: np.ndarray, exact: bool,
                budget: int) -> bool | None:
        nonlocal previous
        params = _level_params(levels, masses, "")
        rate = _resolve_rate(jump_rate, params)
        horizon, points = _admit(rate, params, t_max, steps)
        if exact:
            return True
        if levels.size > 2 and (
                KRYLOV_STEPS_PER_RADIAN * rate * float(levels[0]) * horizon > budget):
            return None
        amplitudes, rounding = _krylov_amplitudes(rate, levels, masses, horizon, points)
        earlier, previous = previous, (params.gamma_c, params.beta, amplitudes)
        return earlier is not None and (
            all(abs(new - old) <= KRYLOV_TOL * new for new, old in zip(previous, earlier[:2]))
            and float(np.abs(amplitudes - earlier[2]).max()) <= KRYLOV_TOL + rounding)

    return settled


def _krylov_amplitudes(rate: float, levels: np.ndarray, masses: np.ndarray, horizon: float,
                       points: int) -> tuple[np.ndarray, float]:
    """|<c| exp(-iHt) |s>| on the grid of ``points`` points over [0, horizon]
    for H = rate*diag(levels) - c c', c the roots of the masses and s the
    zero level, from ``eigh`` of H; and the rounding of its phases by the
    last time, 4 * eps * max|mu| * horizon."""
    c = np.sqrt(masses)
    mu, x = np.linalg.eigh(rate * np.diag(levels) - np.outer(c, c))
    amplitudes = np.abs(_phase_sums(mu, (c @ x) * x[-1], horizon, points))
    return amplitudes, 4.0 * float(np.finfo(float).eps * abs(mu).max()) * horizon


def run_hypercube(n_bits: int, w: MarkedState,
                  jump_rate: float | str = "critical",
                  t_max: float | None = None, steps: int = 1024) -> EvolutionTrace:
    """Exact hypercube dynamics without dense diagonalization.

    The evolution reduces to the n+1 Laplacian levels (2j for Hamming weight
    j), whose masses ``search_params`` takes from the analytic eigenbasis:
    by the Krawtchouk kernel, O(r**2 + n**2) for r support vertices, or by the
    Walsh transform, O(N log N), whichever costs less.
    """
    params = search_params(hypercube_eigenbasis(n_bits), w)
    return _reduced_trace(_resolve_rate(jump_rate, params), params, t_max, steps)


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


def _reduced_trace(rate: float, params: SearchParameters, t_max: float | None,
                   steps: int) -> EvolutionTrace:
    """Trace in the basis P_k w / c_k, c_k = ||P_k w||, where H is rate *
    diag(levels) - c c^T, w is c and s is e_0: with eigenvectors c/(rate*levels
    - mu_j) at the secular roots mu_j, <c|exp(-iHt)|s> = sum_j u_j*exp(-i*mu_j*t)
    for u_j = -c_0/(mu_j*f'(mu_j)), on the grid of ``_phase_sums``."""
    t_max, points = _admit(rate, params, t_max, steps)
    # levels from 0 up; one without mass joins the one below, and one with
    # mass within twice the solver's clamp of the massive one below joins
    # that one's group, leaving an eigenvalue of weight 0 (the room the clamp
    # needs to keep the form out of its pole guard); the group sits at the
    # mass-weighted mean of its massive levels, exact to first order in their
    # spread, so that late phases do not drift by spread * t, and a level
    # alone keeps its value.  The gap is taken between massive levels, so a
    # massless level (a Gauss node of weight ~0 beside a heavy one) chains
    # no two massive levels together.
    lam, masses = params.eigenvalues[::-1], params.overlaps[::-1] ** 2
    massive = np.flatnonzero(masses > NEGLIGIBLE_OVERLAP_SQ)
    first = massive[np.diff(lam[massive], prepend=-np.inf) > 4.0 * POLE_GUARD * lam[-1]]
    weight = np.where(masses > NEGLIGIBLE_OVERLAP_SQ, masses, 0.0)
    start = np.zeros(lam.size, dtype=np.intp)
    start[first] = first
    spread = weight * (lam - lam[np.maximum.accumulate(start)])
    lam = lam[first] + np.add.reduceat(spread, first) / np.add.reduceat(weight, first)
    masses = np.add.reduceat(masses, first)
    poles, c = rate * lam, np.sqrt(masses)
    mu, u = np.empty((2, poles.size))
    form = _SecularForm(c, lam, rate)
    # root j lies between poles j-1 (or -A) and j; its outer pole is the nearer
    # of poles j+1 and j-2 (a massless point above when neither exists)
    lower, a_lower = np.append(-float(c @ c), poles[:-1]), np.append(0.0, masses[:-1])
    outer, a_outer = np.append(poles[1:], 2.0 * poles[-1]), np.append(masses[1:], 0.0)
    below = np.append([-np.inf, -np.inf], poles[:-2])
    use_below = lower - below < outer - poles
    outer = np.where(use_below, below, outer)
    a_outer = np.where(use_below, np.append([0.0, 0.0], masses[:-2]), a_outer)
    for i in range(0, poles.size, MAX_TRACE_CELLS // poles.size):
        j = slice(i, i + MAX_TRACE_CELLS // poles.size)
        mu[j] = _secular_roots(form, lower[j], poles[j], a_lower[j], masses[j], outer[j],
                               a_outer[j])
        with np.errstate(divide="ignore"):  # a root at its pole has weight 0
            u[j] = -c[0] / (mu[j] * (masses / (poles - mu[j, None]) ** 2).sum(axis=1))

    def amplitude(t: float) -> float:
        return abs(complex(np.exp(-1j * mu * t) @ u))

    times = np.linspace(0.0, t_max, points)
    amps = np.abs(_phase_sums(mu, u, t_max, points))
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


def _admit(rate: float, params: SearchParameters, t_max: float | None,
           steps: int) -> tuple[float, int]:
    """The horizon and grid points of a trace on ``params``' levels at
    ``rate``: t_max, or twice the optimal time for None, after refusing a bad
    t_max or step count, grid points times levels past ``MAX_TRACE_CELLS``,
    and a walk past float precision."""
    if t_max is None:
        t_max = 2.0 * params.t_opt
    if not 0.0 <= t_max < math.inf:
        raise InvalidParameterError(f"t_max must be non-negative and finite, got {t_max}")
    if t_max > 0.0 and steps < 2:
        raise InvalidParameterError(f"need at least 2 grid points, got {steps}")
    points = steps if t_max > 0.0 else 1
    levels = params.eigenvalues
    if points * levels.size > MAX_TRACE_CELLS:
        raise InvalidParameterError(
            f"{points} grid points times {levels.size} levels exceed the trace budget "
            f"of {MAX_TRACE_CELLS} cells"
        )
    # |mu| <= walk + 1; past 2**53 the marked projector (norm 1) drops below
    # the rounding of H, and phases mu * t keep no digits; below 2**-53 the
    # walk drops below the rounding of the projector
    walk = rate * float(levels[0])
    if not (1.0 / PRECISION_LIMIT <= walk and (walk + 1.0) * max(t_max, 1.0) <= PRECISION_LIMIT):
        raise InvalidParameterError(
            f"jump rate {rate:g} with t_max {t_max:g} exceeds float precision: rate * "
            f"lambda_max must lie within 2**-53 to 2**53, and |mu| * t_max below 2**53"
        )
    return t_max, points


def _phase_sums(mu: np.ndarray, u: np.ndarray, t_max: float, points: int) -> np.ndarray:
    """sum_j u_j * exp(-i*mu_j*t_k) on the grid t_k = k*dt of ``points``
    points over [0, t_max].  With k = b*i + r and b = ceil(sqrt(points)),
    exp(-i*mu*t_k) = exp(-i*mu*b*i*dt) * exp(-i*mu*r*dt), so 2b rows of L
    phases, the head rows i scaled by u, give every sum from one complex
    product, head @ tail^T, in place of points*L exponentials."""
    b = math.isqrt(points - 1) + 1  # ceil(sqrt(points))
    dt = t_max / max(points - 1, 1)
    head = np.exp(-1j * np.outer(np.arange(0, points, b) * dt, mu)) * u
    tail = np.exp(-1j * np.outer(np.arange(b) * dt, mu))
    return (head @ tail.T).ravel()[:points]


def _golden_max(func, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    # at late times the float spacing of hi can exceed tol: the interval
    # would stop shrinking short of it
    tol = max(tol, 4.0 * math.ulp(hi))
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
