"""Core search analysis: eigenbasis overlaps, critical jump rate, the secular
function and its roots, and the sinusoidal amplitude approximation."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    DegenerateStateError,
    InvalidInputError,
    InvalidParameterError,
    NumericError,
    OrthogonalStateError,
    PoleError,
)
from .linalg import HypercubeEigenbasis, SpectralDecomposition

Eigenbasis = Union[SpectralDecomposition, HypercubeEigenbasis]

# Squared-amplitude floor below which an overlap is treated as exactly zero.
NEGLIGIBLE_OVERLAP_SQ = 1e-20

# Relative floor under which an eigenvalue counts as the Laplacian zero mode.
ZERO_BRACKET_TOL = 1e-12


@dataclass(frozen=True)
class MarkedState:
    """Unit-norm real amplitudes over vertices, phased so the uniform overlap is >= 0."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InvalidInputError("marked state must be a non-empty vector")
        if not np.all(np.isfinite(w)):
            raise InvalidInputError("marked state has non-finite amplitudes")
        norm_sq = float(w @ w)
        if abs(norm_sq - 1.0) > 1e-10:
            raise InvalidInputError(
                f"marked state norm deviates from 1 by {abs(math.sqrt(norm_sq) - 1):.3e}"
            )
        if not np.any(w != 0.0):
            raise InvalidInputError("marked state has empty support")
        if w.sum() < 0.0:
            w = -w
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_weights(cls, weights, *, normalize: bool = True) -> "MarkedState":
        w = np.asarray(weights, dtype=float)
        if normalize:
            norm = np.linalg.norm(w)
            if norm == 0.0:
                raise InvalidInputError("marked state has empty support")
            w = w / norm
        return cls(w)

    @classmethod
    def from_mapping(cls, n: int, amplitudes: dict[int, float]) -> "MarkedState":
        if not amplitudes:
            raise InvalidInputError("marked state has empty support")
        w = np.zeros(n)
        for v, amp in amplitudes.items():
            if not 0 <= int(v) < n:
                raise InvalidInputError(f"vertex {v} out of range for dimension {n}")
            w[int(v)] = amp
        return cls.from_weights(w)

    @classmethod
    def single(cls, n: int, vertex: int) -> "MarkedState":
        return cls.from_mapping(n, {vertex: 1.0})

    @classmethod
    def pair(cls, n: int, u: int, v: int) -> "MarkedState":
        if u == v:
            raise InvalidParameterError(f"pair state needs two distinct vertices, got {u} twice")
        return cls.from_mapping(n, {u: 1.0, v: 1.0})

    @classmethod
    def uniform_over(cls, n: int, vertices) -> "MarkedState":
        verts = list(vertices)
        if len(set(verts)) != len(verts):
            raise InvalidParameterError(f"marked vertices contain repeats: {verts}")
        return cls.from_mapping(n, {v: 1.0 for v in verts})

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(int(v) for v in np.nonzero(self.weights)[0])

    def digest(self) -> str:
        """Stable identifier of (dimension, amplitudes) for instance matching."""
        h = hashlib.sha256()
        h.update(self.n.to_bytes(8, "little"))
        h.update(np.round(self.weights, 12).tobytes())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class SearchParameters:
    """Derived search quantities for one (graph eigenbasis, marked state) pair.

    ``eigenvalues`` are the distinct Laplacian levels, descending to zero, and
    ``overlaps`` the norms ||P_k w|| of the marked state in each level.
    ``mu1``/``mu2`` are the first-order two-level eigenvalues +-gamma_c*p_n/beta;
    the exact secular roots come from ``solve_mu``.
    """

    eigenvalues: np.ndarray
    overlaps: np.ndarray
    p_n: float
    gamma_c: float
    beta: float
    envelope: float
    t_opt: float
    mu1: float
    mu2: float
    state_digest: str

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.overlaps.setflags(write=False)

    @property
    def a_k(self) -> np.ndarray:
        """Level masses ||P_k w||**2; they sum to 1."""
        return self.overlaps**2

    @property
    def reduced_envelope(self) -> float:
        """Envelope normalized by the non-uniform overlap mass.

        gamma_c / (beta * sqrt(1 - p_n**2)); equals 1 exactly when all nonzero
        eigenvalues coincide, and is the quantity the spectral certificate
        bounds below by 1/sqrt(2).
        """
        return self.envelope / math.sqrt(1.0 - self.p_n**2)


def overlaps(basis: Eigenbasis, state: MarkedState) -> np.ndarray:
    """Eigenbasis overlaps of the marked state, one entry per eigenvector."""
    if state.n != basis.n:
        raise InvalidInputError(
            f"marked state has dimension {state.n}, basis expects {basis.n}"
        )
    return basis.overlaps(state.weights)


def search_params(basis: Eigenbasis, state: MarkedState) -> SearchParameters:
    """Critical jump rate, envelope, optimal time, and two-level eigenvalues.

    Raises
    ------
    OrthogonalStateError
        If the marked state has no overlap with the uniform state.
    DegenerateStateError
        If the marked state is the uniform state itself.
    """
    levels, masses = basis.levels(overlaps(basis, state))
    return _level_params(levels, masses, state.digest())


def _level_params(levels: np.ndarray, masses: np.ndarray,
                  state_digest: str) -> SearchParameters:
    """Search parameters from the distinct Laplacian levels (non-increasing,
    zero last) and the marked state's mass in each."""
    zero_mass = float(masses[-1])
    if zero_mass <= NEGLIGIBLE_OVERLAP_SQ:
        raise OrthogonalStateError("marked state is orthogonal to the uniform state")
    rest = masses[:-1]
    if float(rest.sum()) <= NEGLIGIBLE_OVERLAP_SQ:
        raise DegenerateStateError("marked state equals the uniform state")
    lam_rest = levels[:-1]
    p_n = math.sqrt(zero_mass)
    gamma_c = float(np.sum(rest / lam_rest))
    beta = math.sqrt(float(np.sum(rest / lam_rest**2)))
    envelope = gamma_c / beta
    t_opt = math.pi * beta / (2.0 * gamma_c * p_n)
    mu1 = gamma_c * p_n / beta
    return SearchParameters(
        eigenvalues=levels,
        overlaps=np.sqrt(np.maximum(masses, 0.0)),
        p_n=p_n,
        gamma_c=gamma_c,
        beta=beta,
        envelope=envelope,
        t_opt=t_opt,
        mu1=mu1,
        mu2=-mu1,
        state_digest=state_digest,
    )


def f_of_mu(mu: float, overlaps: np.ndarray, eigenvalues: np.ndarray,
            jump_rate: float) -> float:
    """Secular function sum_j P_j**2 / (jump_rate*lambda_j - mu).

    The zero eigenvalue contributes the -p_n**2/mu pole.  Terms with zero
    overlap are dropped; evaluating at a pole of an active term raises.
    """
    p = np.asarray(overlaps, dtype=float)
    lam = np.asarray(eigenvalues, dtype=float)
    a = p**2
    active = a > NEGLIGIBLE_OVERLAP_SQ
    den = jump_rate * lam[active] - mu
    # guard tighter than the 1e-14 bracket epsilon used by solve_mu
    scale = max(float(np.max(np.abs(jump_rate * lam))), abs(mu), 1e-300)
    if np.any(np.abs(den) < 1e-15 * scale):
        raise PoleError(f"mu = {mu} hits a pole of the secular function")
    return float(np.sum(a[active] / den))


def solve_mu(overlaps: np.ndarray, eigenvalues: np.ndarray,
             jump_rate: float) -> tuple[float, float]:
    """The two secular roots bracketing zero, by bisection.

    Returns (positive root, negative root); both are eigenvalues of the search
    Hamiltonian at the given jump rate.  The positive root lies below the
    smallest active pole; the negative bracket is expanded geometrically until
    it encloses a sign change.
    """
    p = np.asarray(overlaps, dtype=float)
    lam = np.asarray(eigenvalues, dtype=float)
    a = p**2
    lam_top = float(lam.max())
    zero = lam <= ZERO_BRACKET_TOL * max(lam_top, 1.0)
    if float(a[zero].sum()) <= NEGLIGIBLE_OVERLAP_SQ:
        raise OrthogonalStateError("marked state is orthogonal to the uniform state")
    active = (~zero) & (a > NEGLIGIBLE_OVERLAP_SQ)
    if not np.any(active):
        raise DegenerateStateError("marked state equals the uniform state")

    def f(mu: float) -> float:
        return f_of_mu(mu, p, lam, jump_rate)

    pole = jump_rate * float(lam[active].min())
    eps = 1e-14 * jump_rate * lam_top

    lo = eps
    for _ in range(200):
        if f(lo) < 1.0:
            break
        lo *= 1e-3
    else:
        raise NumericError("failed to bracket the positive secular root from below")
    hi = pole - eps
    for _ in range(200):
        if hi > lo and f(hi) > 1.0:
            break
        hi = pole - (pole - hi) * 0.5
    else:
        raise NumericError("failed to bracket the positive secular root from above")
    mu_pos = _bisect(f, lo, hi)

    hi = -eps
    for _ in range(200):
        if f(hi) > 1.0:
            break
        hi *= 1e-3
    else:
        raise NumericError("failed to bracket the negative secular root from above")
    lo = -10.0 * jump_rate * lam_top
    for _ in range(200):
        if f(lo) < 1.0:
            break
        lo *= 2.0
    else:
        raise NumericError("failed to bracket the negative secular root from below")
    mu_neg = _bisect(f, lo, hi)
    return mu_pos, mu_neg


def _bisect(f, lo: float, hi: float) -> float:
    """Bisection on f - 1 over [lo, hi]; runs to full float resolution."""
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


def amplitude_approx(params: SearchParameters, t) -> np.ndarray | float:
    """Sinusoidal amplitude envelope * |sin(gamma_c*p_n*t/beta)|.

    Peaks at the envelope value when t equals the optimal time.
    """
    rate = params.gamma_c * params.p_n / params.beta
    return params.envelope * np.abs(np.sin(rate * np.asarray(t, dtype=float)))


def amplitude_exact_sum(decomp_h: SpectralDecomposition, w: np.ndarray,
                        s: np.ndarray, t):
    """Exact detection amplitude <w| exp(-iHt) |s> as a spectral sum."""
    if isinstance(w, MarkedState):
        w = w.weights
    u = decomp_h.overlaps(w) * decomp_h.overlaps(s)
    t_arr = np.asarray(t, dtype=float)
    phases = np.exp(-1j * np.multiply.outer(t_arr, decomp_h.eigenvalues))
    result = phases @ u
    if t_arr.ndim == 0:
        return complex(result)
    return result


def uniform_state(n: int) -> np.ndarray:
    """The uniform superposition vector."""
    return np.full(n, 1.0 / math.sqrt(n))
