"""Spectral certificate for optimal search of arbitrary marked states, with
closed-form certification of the named graph families."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import FloatRangeError, InvalidParameterError
from .graphs import _family
from .linalg import SpectralDecomposition, _snap_zero_mode, laplacian_extremes
from .search import _level_sums, _phased_states, uniform_state

# A ratio of extreme nonzero Laplacian eigenvalues at or below this threshold
# guarantees envelope >= 1/sqrt(2) for every admissible marked state.
OPTIMALITY_THRESHOLD = 1.0 + 1.0 / math.sqrt(2.0)

# Floats per array of one block of stress states: 256 KiB, max(1, 2**15 // N)
# states.
STRESS_BLOCK = 1 << 15
HISTOGRAM_BINS = 20

CERTIFIED = "certified"
NOT_CERTIFIED = "not-certified"


@dataclass(frozen=True)
class OptimalityReport:
    """Extreme nonzero Laplacian eigenvalues and the certificate verdict."""

    lambda_max: float
    lambda_min_nonzero: float
    theta: float
    ratio: float
    threshold: float
    verdict: str

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED


def certify(levels) -> OptimalityReport:
    """Certificate from Laplacian levels, non-increasing with the zero level
    last: a spectrum as ``laplacian_eigenvalues`` or ``eig_sym`` gives it, or
    the distinct levels of a closed form as exact numbers (ints or
    fractions), rounded to floats here.  The zero level is decided on a copy
    by ``linalg._snap_zero_mode``, the rule every Laplacian spectrum of the
    package passes.  Exact levels carry no rounding, so they take the rule
    with tolerance 0: their last must be 0 and the one before it positive,
    however large their ratio (a hypercube's is its dimension).

    Raises
    ------
    FloatRangeError
        If a level lies past the float range.
    InvalidParameterError
        If fewer than two levels are given.
    InvalidInputError
        If a level is not finite, or the last is not zero within the level
        tolerance (not a Laplacian).
    DisconnectedGraphError
        If the second to last level is zero within it too.
    """
    try:
        lam = np.array(levels, dtype=float)
    except OverflowError as exc:
        raise FloatRangeError("Laplacian levels lie past the float range") from exc
    if lam.ndim != 1 or lam.size < 2:
        raise InvalidParameterError("certificate needs at least two vertices")
    _snap_zero_mode(lam, exact=all(isinstance(x, numbers.Rational) for x in levels))
    lambda_max, lambda_min_nonzero = float(lam[0]), float(lam[-2])
    ratio = lambda_max / lambda_min_nonzero
    return OptimalityReport(
        lambda_max=lambda_max,
        lambda_min_nonzero=lambda_min_nonzero,
        theta=1.0 / lambda_min_nonzero - 1.0 / lambda_max,
        ratio=ratio,
        threshold=OPTIMALITY_THRESHOLD,
        verdict=CERTIFIED if ratio <= OPTIMALITY_THRESHOLD else NOT_CERTIFIED,
    )


def prove_not_certified(n: int, edges: np.ndarray) -> OptimalityReport | None:
    """The "not-certified" report of a connected simple graph on n vertices
    with (E, 2) ``edges`` when Lanczos on the edges proves it, else None.

    Lanczos (``linalg.laplacian_extremes``) gives mean-free Ritz vectors
    whose Rayleigh quotients, evaluated within delta, satisfy rho_max <=
    lambda_max and rho_min >= lambda_2.  So (rho_max - delta)/(rho_min +
    delta) > ``OPTIMALITY_THRESHOLD`` proves lambda_max/lambda_2 past it, and
    the report is ``certify`` of the converged Ritz values [theta_max,
    theta_min, 0].  Lanczos gives no lower bound on lambda_2, so a ratio within
    the rounding bound of the threshold, or under it, or an iteration that
    stopped unconverged, proves nothing: the caller takes the dense route.
    """
    if n < 2:
        return None
    ritz = laplacian_extremes(n, edges)
    if not ritz.converged or (
            ritz.rho_max - ritz.delta <= OPTIMALITY_THRESHOLD * (ritz.rho_min + ritz.delta)):
        return None
    report = certify([ritz.theta_max, ritz.theta_min, 0.0])
    return None if report.certified else report


def certify_family(name: str, *params: int) -> OptimalityReport:
    """Certificate of a family of ``graphs.FAMILIES`` from the exact levels
    of its parameters, with no graph or eigensolver, so any order whose levels
    fit a float is certified.  An unknown name, a wrong parameter count and
    parameters outside the family's domain (the check its builder runs) raise
    InvalidParameterError; the levels raise as ``certify`` does."""
    _, _, check, levels = _family(name, params)
    check(*params)
    return certify(levels(*params))


@dataclass(frozen=True)
class StressStatistics:
    """Envelope statistics over random marked states with uniform overlap
    at least 1/sqrt(N).

    ``min_reduced_envelope`` is the certificate-bound quantity
    gamma_c/(beta*sqrt(1 - p_n**2)); the raw envelope gamma_c/beta is reported
    alongside because it decays as p_n -> 1 for every graph.  The variance
    margins record how far the spread of reciprocal eigenvalues stays below
    its bound: the exact form is a theorem (margin <= 0 always), the
    approximate form drops the (1 - p_n**2) mass factor and may go positive.
    """

    trials: int
    min_envelope: float
    mean_envelope: float
    min_reduced_envelope: float
    mean_reduced_envelope: float
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray
    variance_margin_exact_max: float
    variance_margin_approx_max: float
    theta: float

    def __post_init__(self):
        self.histogram_counts.setflags(write=False)
        self.histogram_edges.setflags(write=False)


def stress_random_states(decomp: SpectralDecomposition, trials: int,
                         seed: int) -> StressStatistics:
    """Sample random marked states and collect envelope statistics.

    Each state mixes a normalized Gaussian vector orthogonal to the uniform
    state with the uniform state itself, the mixing coefficient drawn uniform
    in [1/sqrt(N), 1] so the uniform overlap meets the search admissibility
    floor.  Every trial draws its Gaussian vector (again while its part
    orthogonal to the uniform state has norm below 1e-12) and then its mixing
    coefficient, in trial order, so a seed fixes every state whatever the
    blocking.  The states are evaluated a block of columns at a time, about
    ``STRESS_BLOCK`` floats each: one eigenvector product, the level masses
    and the sums of ``search_params``, then block minima, sums, maxima and
    histogram counts, so memory stays O(block) for any number of trials.

    Raises
    ------
    InvalidParameterError
        If ``trials`` is not an integer >= 1 or ``seed`` not an integer >= 0
        (bools are refused, numpy integers accepted), or the spectrum is not
        a Laplacian's.
    DisconnectedGraphError
        If the zero eigenvalue repeats.
    """
    trials = _integer("trials", trials, 1)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    n = decomp.n
    s = uniform_state(n)
    theta = certify(decomp.eigenvalues).theta
    columns = max(1, STRESS_BLOCK // n)
    # minimum and sum of (envelope, reduced envelope), maximum of the (exact,
    # approximate) variance margins
    low, total, high = np.full(2, np.inf), np.zeros(2), np.full(2, -np.inf)
    edges = np.histogram_bin_edges([], bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    counts = np.zeros(HISTOGRAM_BINS, dtype=np.intp)
    # one draw buffer for every block and one temporary d for the spread: with
    # more block-sized arrays allocated per block, the heap fragmented and the
    # state-sweep benchmark peaked 2.9 MB higher after equal rounds
    rows = np.empty((min(columns, trials), n))
    for start in range(0, trials, columns):
        states = _phased_states(_draw_states(rng, s, rows[:trials - start]))
        levels, masses = decomp.levels(decomp.overlaps(states))
        p_n, gamma_c, beta = _level_sums(levels, masses)
        envelope = gamma_c / beta
        reduced = envelope / np.sqrt(1.0 - p_n**2)
        # the nonzero levels and their masses; the zero level is last
        a = masses[:-1]
        mass = a.sum(axis=0)
        d = 1.0 / levels[:-1, None] - gamma_c / mass
        d *= d
        d *= a
        spread = d.sum(axis=0)
        margins = (spread - theta**2 * mass, (beta**2 - gamma_c**2) - theta**2)
        low = np.minimum(low, (envelope.min(), reduced.min()))
        total += (envelope.sum(), reduced.sum())
        high = np.maximum(high, [m.max() for m in margins])
        counts += np.histogram(np.clip(reduced, 0.0, 1.0), bins=HISTOGRAM_BINS,
                               range=(0.0, 1.0))[0]
    return StressStatistics(
        trials=trials,
        min_envelope=float(low[0]),
        mean_envelope=float(total[0] / trials),
        min_reduced_envelope=float(low[1]),
        mean_reduced_envelope=float(total[1] / trials),
        histogram_counts=counts,
        histogram_edges=edges,
        variance_margin_exact_max=float(high[0]),
        variance_margin_approx_max=float(high[1]),
        theta=theta,
    )


def _draw_states(rng: np.random.Generator, s: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Fill ``rows`` with the next random states of ``stress_random_states``,
    trial by trial, and return them as the columns of an (N, k) block."""
    n = s.size
    for row in rows:
        g = rng.standard_normal(n)
        g -= (s @ g) * s
        norm = np.linalg.norm(g)
        while norm < 1e-12:
            g = rng.standard_normal(n)
            g -= (s @ g) * s
            norm = np.linalg.norm(g)
        g /= norm
        c = rng.uniform(1.0 / math.sqrt(n), 1.0)
        row[:] = math.sqrt(1.0 - c * c) * g + c * s
    return rows.T


def _integer(name: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidParameterError(f"{name} must be at least {minimum}, got {value}")
    return int(value)
