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

# f_of_mu refuses mu within POLE_GUARD * max(|jump_rate*lambda|, |mu|) of an
# active pole.
POLE_GUARD = 1e-15

# Iteration cap of one secular root; Brent's method needs about a dozen.
MAX_SECULAR_STEPS = 200

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


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

    Raises
    ------
    InvalidParameterError
        If ``mu`` is not finite or ``jump_rate`` is not finite and positive.
    InvalidInputError
        If overlaps and eigenvalues are not 1-D arrays of one shape.
    PoleError
        If ``mu`` lies within ``POLE_GUARD * max(|jump_rate*lambda|, |mu|)`` of
        an active pole.
    """
    if not math.isfinite(mu):
        raise InvalidParameterError(f"mu must be finite, got {mu}")
    p, lam = _secular_arrays(overlaps, eigenvalues, jump_rate)
    a = p**2
    active = a > NEGLIGIBLE_OVERLAP_SQ
    den = jump_rate * lam[active] - mu
    scale = max(float(np.max(np.abs(jump_rate * lam))), abs(mu), 1e-300)
    if np.any(np.abs(den) < POLE_GUARD * scale):
        raise PoleError(f"mu = {mu} hits a pole of the secular function")
    return float(np.sum(a[active] / den))


def _secular_arrays(overlaps, eigenvalues, jump_rate) -> tuple[np.ndarray, np.ndarray]:
    """Overlaps and eigenvalues as float arrays, after the checks shared by
    ``f_of_mu`` and ``solve_mu``."""
    if not 0.0 < jump_rate < math.inf:
        raise InvalidParameterError(f"jump rate must be finite and positive, got {jump_rate}")
    p = np.asarray(overlaps, dtype=float)
    lam = np.asarray(eigenvalues, dtype=float)
    if p.ndim != 1 or p.shape != lam.shape or p.size == 0:
        raise InvalidInputError(
            f"overlaps of shape {p.shape} and eigenvalues of shape {lam.shape} "
            "must be non-empty vectors of one length"
        )
    return p, lam


def solve_mu(overlaps: np.ndarray, eigenvalues: np.ndarray,
             jump_rate: float) -> tuple[float, float]:
    """The two secular roots bracketing zero.

    Returns (positive root, negative root); both are eigenvalues of the search
    Hamiltonian ``jump_rate*Q - w w^T`` at the given jump rate.  Eigenvalues at
    most ``ZERO_BRACKET_TOL * max(lambda_max, 1)`` form the zero level, taken
    as exactly 0, with mass ``a_0``; ``P = jump_rate * lambda_min``, with
    lambda_min the smallest nonzero eigenvalue that carries mass, is the
    smallest active pole and ``a_P`` the mass on it; ``A`` is the total mass
    sum(overlaps**2).

    Each root is the zero of a pole-free form of f - 1 on a bracket where it
    changes sign once, found by Brent's method (inverse-quadratic and secant
    steps with a bisection safeguard) to a relative width of 4 eps, or at the
    first point where f_of_mu returns 1 to within one ulp:

    - positive root: ``h+(mu) = mu*(P - mu)*(f(mu) - 1)`` on [0, P], whose
      endpoint values ``h+(0) = -a_0*P`` and ``h+(P) = P*a_P`` need no
      evaluation of f;
    - negative root: ``h-(mu) = mu*(f(mu) - 1)`` on [-A, 0], with
      ``h-(0) = -a_0``; -A bounds the spectrum of the search Hamiltonian from
      below, since ``jump_rate*Q - w w^T >= -||w||**2``.

    Near zero, ``mu*(f(mu) - 1)`` follows its Taylor model
    ``-a_0 + C*x + S*x**2`` in ``x = mu/P``, where, over the nonzero levels,
    ``C = sum_k a_k*P/(rate*lambda_k) - P`` and ``S = sum_k a_k*(P/(rate*lambda_k))**2``.
    Near the critical rate C is small, and the model roots ``x_neg < 0 < x_pos``,
    close to ``-+sqrt(a_0/S)``, form a near-double root when a_0 is small.  The
    iteration therefore runs on ``h+(mu)/(mu/P - x_neg)`` and
    ``h-(mu)/(x_pos - mu/P)``: each divides out the other side's model root,
    keeps the sign and bracket of its form, and is close to linear near its root.

    Every step evaluates ``f_of_mu``, never nearer to the poles 0 and P than
    ``margin = (POLE_GUARD + eps) * jump_rate * lambda_max``: its pole guard
    plus the rounding of ``P - margin``.

    Raises
    ------
    InvalidParameterError
        If ``jump_rate`` is not finite and positive.
    InvalidInputError
        If overlaps and eigenvalues are not non-empty 1-D arrays of one shape,
        hold non-finite values, or an eigenvalue is negative beyond the zero
        tolerance.
    OrthogonalStateError
        If the zero level carries no mass.
    DegenerateStateError
        If no nonzero level carries mass.
    PoleError
        If a root lies within that margin of the pole 0 or P.
    NumericError
        If an iteration has not converged after ``MAX_SECULAR_STEPS`` steps.
    """
    p, lam = _secular_arrays(overlaps, eigenvalues, jump_rate)
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(lam))):
        raise InvalidInputError("overlaps and eigenvalues must be finite")
    a = p**2
    zero_tol = ZERO_BRACKET_TOL * max(float(lam.max()), 1.0)
    if float(lam.min()) < -zero_tol:
        raise InvalidInputError(
            f"eigenvalue {float(lam.min()):.3e} is negative: not a Laplacian spectrum"
        )
    zero = lam <= zero_tol
    a_zero = float(a[zero].sum())
    if a_zero <= NEGLIGIBLE_OVERLAP_SQ:
        raise OrthogonalStateError("marked state is orthogonal to the uniform state")
    active = (~zero) & (a > NEGLIGIBLE_OVERLAP_SQ)
    if not np.any(active):
        raise DegenerateStateError("marked state equals the uniform state")
    lam = np.where(zero, 0.0, lam)
    lam_min = float(lam[active].min())
    pole = jump_rate * lam_min
    a_pole = float(a[active & (lam == lam_min)].sum())

    margin = (POLE_GUARD + _EPS) * max(jump_rate * float(lam.max()), 1e-300)

    def f_minus_one(mu: float) -> float:
        d = f_of_mu(mu, p, lam, jump_rate) - 1.0
        # within one ulp of 1, f's own rounding decides the sign
        return 0.0 if abs(d) <= _EPS else d

    # roots x_neg < 0 < x_pos of -a_0 + C*x + S*x**2, the second-order model
    # of mu*(f(mu) - 1) at mu = x*P
    ratio = pole / (jump_rate * lam[active])
    c = float(a[active] @ ratio) - pole
    s = float(a[active] @ ratio**2)
    d = math.hypot(c, 2.0 * math.sqrt(a_zero * s))
    if c >= 0.0:
        x_neg, x_pos = -(c + d) / (2.0 * s), 2.0 * a_zero / (c + d)
    else:
        x_neg, x_pos = -2.0 * a_zero / (d - c), (d - c) / (2.0 * s)

    mu_pos = _brent(lambda mu: mu * (pole - mu) * f_minus_one(mu) / (mu / pole - x_neg),
                    0.0, a_zero * pole / x_neg, pole, pole * a_pole / (1.0 - x_neg),
                    margin, pole - margin)
    lo = -float(a.sum())
    h_lo = lo * f_minus_one(lo) / (x_pos - lo / pole)
    # f(-A) < 1 exactly; only rounding can make h-(-A) <= 0, and then the
    # root lies within that rounding of -A
    mu_neg = _brent(lambda mu: mu * f_minus_one(mu) / (x_pos - mu / pole), lo, h_lo,
                    0.0, -a_zero / x_pos, lo, -margin) if h_lo > 0.0 else lo
    return mu_pos, mu_neg


def _brent(h, lo: float, h_lo: float, hi: float, h_hi: float,
           safe_lo: float, safe_hi: float) -> float:
    """Zero of h on [lo, hi] given h(lo) < 0 < h(hi) or the reverse, by
    Brent's method, to a bracket of relative width 4 eps or a point where h
    is 0.

    h is evaluated only on [safe_lo, safe_hi]: an iterate outside it moves to
    its nearer end, and PoleError is raised when that end is not inside the
    bracket, so that the root lies outside the window."""
    # cur: best estimate; prev: previous iterate; far: the bracket's other end
    prev, h_prev, cur, h_cur = lo, h_lo, hi, h_hi
    far, h_far = prev, h_prev
    step = last_step = cur - prev
    for _ in range(MAX_SECULAR_STEPS):
        if (h_cur > 0.0) == (h_far > 0.0):
            far, h_far = prev, h_prev
            step = last_step = cur - prev
        if abs(h_far) < abs(h_cur):
            prev, h_prev, cur, h_cur, far, h_far = cur, h_cur, far, h_far, cur, h_cur
        tol = 2.0 * _EPS * abs(cur) + _TINY
        half = 0.5 * (far - cur)
        if abs(half) <= tol or h_cur == 0.0:
            return cur
        if abs(last_step) >= tol and abs(h_prev) > abs(h_cur):
            s = h_cur / h_prev
            if prev == far:  # secant
                num, den = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = h_prev / h_far, h_cur / h_far
                num = s * (2.0 * half * q * (q - r) - (cur - prev) * (r - 1.0))
                den = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if num > 0.0:
                den = -den
            num = abs(num)
            if 2.0 * num < min(3.0 * half * den - abs(tol * den), abs(last_step * den)):
                last_step, step = step, num / den
            else:
                step = last_step = half
        else:
            step = last_step = half
        prev, h_prev = cur, h_cur
        cur = min(max(cur + (step if abs(step) > tol else math.copysign(tol, half)),
                      safe_lo), safe_hi)
        if not min(prev, far) < cur < max(prev, far):
            raise PoleError("secular root too near a pole to evaluate the secular function")
        step = cur - prev
        h_cur = h(cur)
    raise NumericError(f"secular root not converged after {MAX_SECULAR_STEPS} steps")


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
