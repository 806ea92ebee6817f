"""Core search analysis: sparse marked states, the critical jump rate (from
the level masses of an eigenbasis, or from one conjugate-gradient solve on a
general graph), the secular function and its roots, and the sinusoidal
amplitude approximation."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
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
from .graphs import Graph, _check_graph, _index
from .linalg import (HypercubeEigenbasis, KrylovBasis, SpectralDecomposition, _level_tol,
                     laplacian_solve)

Eigenbasis = Union[SpectralDecomposition, HypercubeEigenbasis, KrylovBasis]

# Squared-amplitude floor below which an overlap is treated as exactly zero.
NEGLIGIBLE_OVERLAP_SQ = 1e-20

# f_of_mu refuses mu within POLE_GUARD * max(|jump_rate*lambda|, |mu|) of an
# active pole; the secular solver keeps its iterates twice that far out.
POLE_GUARD = 1e-15

# Iteration cap of one secular root, which needs about ten.
MAX_SECULAR_STEPS = 200

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, init=False, eq=False)
class MarkedState:
    """Unit-norm real amplitudes over n vertices, phased so the uniform
    overlap is >= 0, held sparse: the sorted support ``vertices`` (int64) and
    its nonzero ``values``.  Every constructor but the dense one, and every
    check, costs O(r) for r support vertices; the dense vector ``weights`` is
    built on each access."""

    n: int
    vertices: np.ndarray
    values: np.ndarray

    def __init__(self, weights):
        """The state of the dense vector ``weights``, which must have unit norm.

        Raises
        ------
        InvalidInputError
            If ``weights`` is not a non-empty vector, or is non-finite or off
            unit norm by more than 1e-10.
        """
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InvalidInputError("marked state must be a non-empty vector")
        vertices = np.flatnonzero(w)
        self._set(w.size, vertices, w[vertices])

    def _set(self, n: int, vertices: np.ndarray, values: np.ndarray) -> None:
        values = _phased_states(values)
        vertices.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "values", values)

    @classmethod
    def _sparse(cls, n: int, vertices: np.ndarray, values: np.ndarray) -> "MarkedState":
        """The state with ``values`` on the sorted, distinct ``vertices`` of
        0..n-1, divided by their norm; values that are or become 0 leave the
        support."""
        values = _unit(values)
        if not values.all():
            keep = values != 0.0
            vertices, values = vertices[keep], values[keep]
        state = cls.__new__(cls)
        state._set(n, vertices, values)
        return state

    @classmethod
    def from_weights(cls, weights) -> "MarkedState":
        """The state of ``weights``, divided by their norm (at any finite
        scale, see ``_unit``).

        Raises
        ------
        InvalidInputError
            If a weight is not finite, all are zero, or the weights are not a
            non-empty vector.
        """
        w = np.asarray(weights, dtype=float)
        vertices = np.flatnonzero(w)
        values = w.ravel()[vertices]
        if w.ndim != 1:
            _unit(values)  # a non-finite or zero block is refused as such first
            raise InvalidInputError("marked state must be a non-empty vector")
        return cls._sparse(w.size, vertices, values)

    @classmethod
    def from_mapping(cls, n: int, amplitudes: dict[int, float]) -> "MarkedState":
        """The state of ``amplitudes``, vertex to weight, divided by their norm.

        Raises
        ------
        InvalidInputError
            If the mapping is empty, ``n`` or a vertex is not an integer, a
            vertex lies outside 0..n-1, or a weight is not finite, or all are
            zero.
        """
        if not amplitudes:
            raise InvalidInputError("marked state has empty support")
        n = _index(n, "dimension")
        weights: dict[int, float] = {}
        for v, amp in amplitudes.items():
            v = _index(v, "vertex")
            if not 0 <= v < n:
                raise InvalidInputError(f"vertex {v} out of range for dimension {n}")
            weights[v] = amp
        vertices = np.fromiter(weights, dtype=np.int64, count=len(weights))
        values = np.fromiter(weights.values(), dtype=float, count=len(weights))
        order = np.argsort(vertices)
        return cls._sparse(n, vertices[order], values[order])

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
    def support(self) -> tuple[int, ...]:
        return tuple(self.vertices.tolist())

    @property
    def weights(self) -> np.ndarray:
        """The dense vector of n amplitudes, read-only: an array of n floats,
        built on each access."""
        w = np.zeros(self.n)
        w[self.vertices] = self.values
        w.setflags(write=False)
        return w

    def digest(self) -> str:
        """Stable identifier of (dimension, amplitudes) for instance matching:
        the dimension, the support indices and the support amplitudes rounded
        to 12 decimals, so its cost grows with the support, not the dimension.
        The state is frozen, so it is hashed once."""
        return self._digest

    @cached_property
    def _digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.n.to_bytes(8, "little"))
        h.update(self.vertices.tobytes())
        h.update(self.values.round(12).tobytes())
        return h.hexdigest()[:16]


def _unit(values: np.ndarray) -> np.ndarray:
    """``values`` divided by their norm.  A norm outside (1e-150, 1e150) may
    have over- or underflowed in its squares, so it is taken again of the
    values over their largest magnitude: any finite scale normalizes.

    Raises
    ------
    InvalidInputError
        If a value is not finite, or all are zero.
    """
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(values)
    if not 1e-150 < norm < 1e150:
        scale = np.abs(values).max(initial=0.0)
        if not math.isfinite(scale):
            raise InvalidInputError("marked state has non-finite amplitudes")
        if scale == 0.0:
            raise InvalidInputError("marked state has empty support")
        values = values / scale
        norm = np.linalg.norm(values)
    return values / norm


def _phased_states(w: np.ndarray) -> np.ndarray:
    """Marked-state amplitudes along axis 0, a vector or one state per column
    of a block, checked finite and unit-norm (so none is empty or all zero),
    each negated where its amplitudes sum below zero so that its uniform
    overlap is >= 0.

    Raises
    ------
    InvalidInputError
        If a state is non-finite or off unit norm by more than 1e-10.
    """
    if not np.isfinite(w).all():
        raise InvalidInputError("marked state has non-finite amplitudes")
    norm_sq = np.vecdot(w, w, axis=0)
    if (abs(norm_sq - 1.0) > 1e-10).any():
        deviation = float(np.max(abs(np.sqrt(norm_sq) - 1.0)))
        raise InvalidInputError(f"marked state norm deviates from 1 by {deviation:.3e}")
    flip = w.sum(axis=0) < 0.0
    return w * np.where(flip, -1.0, 1.0) if flip.any() else w


@dataclass(frozen=True)
class SearchParameters:
    """Derived search quantities for one (graph eigenbasis, marked state) pair.

    ``eigenvalues`` are the distinct Laplacian levels, descending to zero, and
    ``overlaps`` the norms ||P_k w|| of the marked state in each level.
    ``mu1``/``mu2`` are the first-order two-level eigenvalues +-gamma_c*p_n/beta;
    the exact secular roots come from ``solve_mu``.
    """

    eigenvalues: np.ndarray | None
    overlaps: np.ndarray | None
    p_n: float
    gamma_c: float
    beta: float
    envelope: float
    t_opt: float
    mu1: float
    mu2: float
    state_digest: str

    def __post_init__(self):
        for levels in (self.eigenvalues, self.overlaps):
            if levels is not None:
                levels.setflags(write=False)

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


def _check_dimension(basis: Eigenbasis, state: MarkedState) -> None:
    if state.n != basis.n:
        raise InvalidInputError(
            f"marked state has dimension {state.n}, basis expects {basis.n}"
        )


def search_params(basis: Eigenbasis, state: MarkedState) -> SearchParameters:
    """Critical jump rate, envelope, optimal time, and two-level eigenvalues.

    The level masses come from ``basis.level_masses`` of the state's support
    and values: grouped overlaps for a dense decomposition; for the
    hypercube, the Krawtchouk kernel on small supports and the Walsh
    transform on wide ones; for a Krylov basis, the Gauss quadrature of the
    state's spectral measure, whose nodes stand for the levels.

    Raises
    ------
    InvalidInputError
        If the marked state's dimension differs from the basis'.
    OrthogonalStateError
        If the marked state has no overlap with the uniform state.
    DegenerateStateError
        If the marked state is the uniform state itself.
    """
    _check_dimension(basis, state)
    levels, masses = basis.level_masses(state.vertices, state.values)
    return _level_params(levels, masses, state.digest())


def _level_params(levels: np.ndarray, masses: np.ndarray,
                  state_digest: str) -> SearchParameters:
    """Search parameters from the distinct Laplacian levels (non-increasing,
    zero last) and the marked state's mass in each."""
    p_n, gamma_c, beta = (float(x) for x in _level_sums(levels, masses))
    return _parameters(p_n, gamma_c, beta, state_digest,
                       levels, np.sqrt(np.maximum(masses, 0.0)))


def _parameters(p_n: float, gamma_c: float, beta: float, state_digest: str,
                levels: np.ndarray | None = None,
                overlaps: np.ndarray | None = None) -> SearchParameters:
    """Search parameters from p_n, gamma_c and beta: the envelope gamma_c/beta,
    t_opt = pi*beta/(2*gamma_c*p_n) and the two-level eigenvalues
    +-gamma_c*p_n/beta."""
    mu1 = gamma_c * p_n / beta
    return SearchParameters(
        eigenvalues=levels,
        overlaps=overlaps,
        p_n=p_n,
        gamma_c=gamma_c,
        beta=beta,
        envelope=gamma_c / beta,
        t_opt=math.pi * beta / (2.0 * gamma_c * p_n),
        mu1=mu1,
        mu2=-mu1,
        state_digest=state_digest,
    )


def graph_search_params(g: Graph, state: MarkedState) -> SearchParameters:
    """Search parameters of a general graph from one conjugate-gradient solve,
    with no eigensolver and nothing of size N*N.

    p_n = s.w for the uniform state s, and with x = Q^+ (w - p_n s) from
    ``laplacian_solve``, gamma_c = w.x = sum_k a_k/lambda_k and beta = ||x||
    = sqrt(sum_k a_k/lambda_k**2): the sums ``search_params`` takes over the
    levels.  No levels are computed, so ``eigenvalues`` and ``overlaps`` of
    the result are None.

    Raises
    ------
    InvalidInputError
        If the graph is malformed (see ``graphs.validate``) or the marked
        state's dimension differs from its order.
    DisconnectedGraphError
        If the graph is disconnected.
    OrthogonalStateError
        If p_n**2 is at most ``NEGLIGIBLE_OVERLAP_SQ``.
    DegenerateStateError
        If ||w - p_n s||**2 is at most ``NEGLIGIBLE_OVERLAP_SQ``.
    NumericError
        If the solve does not converge (see ``laplacian_solve``).
    """
    _check_graph(g)
    n = g.n_vertices
    if state.n != n:
        raise InvalidInputError(f"marked state has dimension {state.n}, graph has {n} vertices")
    w = state.weights
    s = uniform_state(n)
    p_n = float(s @ w)
    b = w - p_n * s
    _check_masses(p_n * p_n, b @ b)
    x = laplacian_solve(n, g.edges, b)
    return _parameters(p_n, float(w @ x), float(np.linalg.norm(x)), state.digest())


def _level_sums(levels: np.ndarray,
               masses: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p_n, gamma_c and beta along axis 0 of the level masses: a vector, or one
    state per column of a block, over the distinct levels (non-increasing,
    zero last).

    p_n = sqrt(a_0), gamma_c = sum_k a_k/lambda_k and beta**2 =
    sum_k a_k/lambda_k**2 over the nonzero levels.

    Raises
    ------
    OrthogonalStateError
        If a state has no mass on the zero level.
    DegenerateStateError
        If a state has no mass on the nonzero levels.
    """
    zero_mass, rest = masses[-1], masses[:-1]
    _check_masses(zero_mass, rest.sum(axis=0))
    lam_rest = levels[:-1].reshape((-1,) + (1,) * (masses.ndim - 1))
    return (np.sqrt(zero_mass), (rest / lam_rest).sum(axis=0),
            np.sqrt((rest / lam_rest**2).sum(axis=0)))


def _check_masses(zero_mass, rest_mass) -> None:
    """Refuse a marked state by its mass on the zero level and its mass on
    the nonzero levels: floats, or arrays of one entry per state.

    Raises
    ------
    OrthogonalStateError
        If a zero-level mass is at most ``NEGLIGIBLE_OVERLAP_SQ``.
    DegenerateStateError
        If a nonzero-level mass is at most ``NEGLIGIBLE_OVERLAP_SQ``.
    """
    # a ufunc and its .any(), several times cheaper than np.any on a scalar
    if np.less_equal(zero_mass, NEGLIGIBLE_OVERLAP_SQ).any():
        raise OrthogonalStateError("marked state is orthogonal to the uniform state")
    if np.less_equal(rest_mass, NEGLIGIBLE_OVERLAP_SQ).any():
        raise DegenerateStateError("marked state equals the uniform state")


def f_of_mu(mu: float | np.ndarray, overlaps: np.ndarray, eigenvalues: np.ndarray,
            jump_rate: float) -> float | np.ndarray:
    """Secular function sum_j P_j**2 / (jump_rate*lambda_j - mu): the checked
    entry to the library's one evaluator, ``_SecularForm``.

    The zero eigenvalue contributes the -p_n**2/mu pole.  Terms with zero
    overlap are dropped; a mu in the pole guard of an active term is refused
    here, the one place that refuses it.  An array of mu is evaluated
    elementwise; a float mu gives a float.

    Raises
    ------
    InvalidParameterError
        If an element of ``mu`` is not finite or ``jump_rate`` is not finite
        and positive.
    InvalidInputError
        If overlaps and eigenvalues are not 1-D arrays of one shape.
    PoleError
        If an element of ``mu`` lies within ``POLE_GUARD * max(|jump_rate*lambda|,
        |mu|)`` of an active pole.
    """
    m = np.asarray(mu, dtype=float)
    if not np.isfinite(m).all():
        raise InvalidParameterError(f"mu must be finite, got {m[~np.isfinite(m)].flat[0]}")
    form = _SecularForm(*_secular_arrays(overlaps, eigenvalues, jump_rate), jump_rate)
    hit = form.guarded(m)
    if hit.any():
        raise PoleError(f"mu = {m[hit].flat[0]} hits a pole of the secular function")
    f = form(m)
    return float(f) if m.ndim == 0 else f


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


class _SecularForm:
    """The secular function f(x) = sum_k a_k/(d_k - x) of overlaps p,
    eigenvalues lam and a jump rate, prepared once for every evaluation of a
    solve: the active masses a_k = p_k**2 (those above
    ``NEGLIGIBLE_OVERLAP_SQ``), their poles d_k = rate*lam_k and the pole
    guard's scale max|rate*lam|.  Neither its arguments nor its points are
    checked: its callers (``f_of_mu``, ``solve_mu``, the reduced trace of
    ``simulate``) check theirs, and keep mu out of the pole guard."""

    def __init__(self, p: np.ndarray, lam: np.ndarray, rate: float):
        poles = rate * lam
        self.p, self.lam, self.rate = p, lam, rate
        self.active = p * p > NEGLIGIBLE_OVERLAP_SQ
        self.a, self.d = p[self.active] ** 2, poles[self.active]
        self.scale = float(max(abs(poles).max(), 1e-300))

    def __call__(self, x):
        """f at x: a float for a float x, elementwise for an array."""
        if isinstance(x, np.ndarray):
            return np.add.reduce(self.a / (self.d - x[..., None]), axis=-1)
        return float(np.add.reduce(self.a / (self.d - x), axis=-1))

    def guarded(self, x):
        """Whether x lies within ``POLE_GUARD * max(scale, |x|)`` of an active
        pole, elementwise over a float or an array."""
        x = np.asarray(x)
        reach = np.maximum(self.scale, abs(x))
        # the nearest pole decides; inf leaves a form without active terms
        return (np.minimum.reduce(abs(self.d - x[..., None]), axis=-1, initial=math.inf)
                < POLE_GUARD * reach)

    def residual_bound(self, x, tol):
        """8 * (eps * (sum_k |a_k/(d_k - x)| + 1) + tol * f'(x)): the rounding
        of f - 1 at x, from its terms and their sum, plus its change over tol,
        the resolution of the root (eps * A, not eps * |x|, for a root next to
        0 found from -A)."""
        terms = self.a / (self.d - np.asarray(x)[..., None])
        slope = (terms * terms / self.a).sum(axis=-1)
        return 8.0 * (_EPS * (abs(terms).sum(axis=-1) + 1.0) + tol * slope)

    @cached_property
    def unit(self) -> tuple[float, float, float, "_SecularForm"]:
        """What ``_polish`` needs, prepared once per form: the smallest active
        nonzero pole P, c0*P, the zero level's mass a_0, and the form of the
        nonzero levels in units of P."""
        p, lam = self.p, self.lam
        nonzero = lam > 0.0
        pole = self.rate * float(lam[nonzero & self.active].min())
        unit = np.where(nonzero, lam * (self.rate / pole), 1.0)  # d_k/P
        scaled = np.where(nonzero, p, 0.0) / np.sqrt(unit)
        p_zero = p[~nonzero]
        c0, a_zero = scaled @ scaled - pole, float(p_zero @ p_zero)  # c0*P
        return pole, c0, a_zero, _SecularForm(scaled, unit, 1.0)


def solve_mu(overlaps: np.ndarray, eigenvalues: np.ndarray,
             jump_rate: float) -> tuple[float, float]:
    """The two secular roots bracketing zero.

    Returns (positive root, negative root), eigenvalues of the search
    Hamiltonian ``jump_rate*Q - w w^T``: the roots of f = 1 below the smallest
    active pole and above -A = -sum(overlaps**2) (``jump_rate*Q - w w^T >= -A``),
    each found by ``_secular_roots`` with a scalar mu on one ``_SecularForm``
    prepared for both.  One ``f_of_mu`` call on both roots then verifies them:
    |f - 1| must lie within the rounding of f at a root resolved to 2 eps.
    Eigenvalues within ``linalg._level_tol`` of lambda_max and the number of
    eigenvalues passed are taken as 0, and their masses summed as the zero
    level's; the eigenvalues may come in any order.

    Raises
    ------
    InvalidParameterError
        If ``jump_rate`` is not finite and positive.
    InvalidInputError
        If overlaps and eigenvalues are not non-empty 1-D arrays of one shape,
        hold non-finite values, or an eigenvalue is negative beyond the zero
        tolerance.
    OrthogonalStateError
        If the zero level's mass is at most ``NEGLIGIBLE_OVERLAP_SQ``.
    DegenerateStateError
        If no nonzero level's mass exceeds it.
    NumericError
        If a root has not converged after ``MAX_SECULAR_STEPS`` steps, or a
        returned root fails the residual check.
    """
    p, lam = _secular_arrays(overlaps, eigenvalues, jump_rate)
    if not (np.isfinite(p).all() and np.isfinite(lam).all()):
        raise InvalidInputError("overlaps and eigenvalues must be finite")
    a = p**2
    zero_tol = _level_tol(float(lam.max()), lam.size)
    if float(lam.min()) < -zero_tol:
        raise InvalidInputError(
            f"eigenvalue {float(lam.min()):.3e} is negative: not a Laplacian spectrum"
        )
    zero = lam <= zero_tol
    a_zero = float(a[zero].sum())
    active = (~zero) & (a > NEGLIGIBLE_OVERLAP_SQ)
    _check_masses(a_zero, float(a[active].sum()))
    lam = np.where(zero, 0.0, lam)
    low = float(lam[active].min())  # the smallest active pole, over jump_rate
    above = lam[active & (lam > low)]
    nxt = float(above.min()) if above.size else 2.0 * low  # the outer pole, massless if none
    a_low, a_nxt = (float(a[active & (lam == level)].sum()) for level in (low, nxt))
    form, pole = _SecularForm(p, lam, jump_rate), jump_rate * low
    roots = np.array([_secular_roots(form, 0.0, pole, a_zero, a_low, jump_rate * nxt, a_nxt),
                      _secular_roots(form, -float(a.sum()), 0.0, 0.0, a_zero, pole, a_low)])
    # f_of_mu refuses a root in its pole guard, which goes unchecked; the
    # massless -A below the negative root adds no term to the bound
    keep = ~form.guarded(roots)
    brackets = compress(((0.0, pole, a_zero, a_low), (-math.inf, 0.0, 0.0, a_zero)), keep)
    checked = roots[keep]
    # plain floats: the check's few operations cost less on them than on
    # numpy scalars
    for mu, f, bracket in zip(checked.tolist(), f_of_mu(checked, p, lam, jump_rate).tolist(),
                              brackets):
        _check_root(form, mu, f, bracket)
    return float(roots[0]), float(roots[1])


def _check_root(form, mu: float, f: float, bracket: tuple) -> None:
    """Refuse a root mu, resolved to 2 eps, where |f - 1| exceeds the rounding
    of f: ``_bracket_bound`` decides a root it clears, the pass over every
    pole of ``_SecularForm.residual_bound`` the rest."""
    tol, residual = 2.0 * _EPS * abs(mu), abs(f - 1.0)
    if residual > _bracket_bound(f, mu, tol, *bracket):
        bound = float(form.residual_bound(mu, tol))
        if residual > bound:
            raise NumericError(f"secular root {mu} leaves f - 1 = {residual:.3e}, "
                               f"above its rounding bound {bound:.3e}")


def _bracket_bound(f, x, tol, lower, upper, a_lower, a_upper):
    """``_SecularForm.residual_bound`` at x from f and the bracketing poles
    alone, elementwise: |f| for the sum of the terms' sizes and the two
    poles' terms of f' for its sum, so never above it but by rounding, and
    about as cheap as f - 1 itself."""
    # divided twice, not squared: a float's ** raises on overflow
    return 8.0 * (_EPS * (abs(f) + 1.0)
                  + tol * (a_lower / (lower - x) / (lower - x)
                           + a_upper / (upper - x) / (upper - x)))


def _choose(cond, yes, no):  # np.where for a scalar condition
    return yes if cond else no


def _at(mask, func, old, *args):
    """old with func(*args) where mask holds, func evaluated there only."""
    new = old.copy()
    new[mask] = func(*(arg[mask] for arg in args))
    return new


def _at_scalar(mask, func, old, *args):  # _at for a scalar
    return func(*args) if mask else old


def _elementwise(x) -> tuple:
    """np.where, all, any and ``_at`` for an array x; for a scalar x their
    plain forms, several times cheaper on one float."""
    if isinstance(x, np.ndarray):
        return np.where, np.ndarray.all, np.ndarray.any, _at
    return _choose, bool, bool, _at_scalar


def _secular_roots(form, lower, upper, a_lower, a_upper, outer, a_outer):
    """Root of f(mu) = 1 between lower and upper, elementwise, f the
    ``_SecularForm`` ``form``: upper is an active pole of mass a_upper, lower
    the next one (or -A = -p @ p, mass 0).  Each step evaluates f at one point
    x per root and moves to the root of a model with the bracketing poles at
    their exact masses plus c + s/(outer - mu) for a pole outer beyond them
    (s = a_outer, then c, s fit to the last two points), or to the bracket's
    midpoint when that root leaves the bracket or moves over half the step
    before last; until f is one ulp from 1, the bracket 4 eps wide or in the
    form's pole guard, or the step below the model root's resolution with
    f - 1 inside ``_SecularForm.residual_bound``; such a step with f - 1
    outside it halves the bracket.  A step evaluates f only at the roots not
    yet done, whose x and f stay as they were.  Roots next to 0 then go to
    ``_polish``.  The form tests no pole guard: the clamp keeps each x at
    least 2 * POLE_GUARD * scale inside its bracket, out of the guard (the
    callers' level spacing leaves it room), but for the first x, -A/2, of a
    bracket (-A, 0) narrower than twice the guard, where f rounds as anywhere
    (the pole 0 is exact) and that step ends the search."""
    pick, every, some, at = _elementwise(lower)
    guard = 2.0 * POLE_GUARD * form.rate * float(form.lam.max())
    edge_lo, edge_hi = lower + guard, upper - guard
    lo, hi, rho_old, done = lower, upper, 0.0, lower != lower
    x = x_old = root = f = 0.5 * (lower + upper)  # the first step sets every f
    step = step_old = span = upper - lower
    for _ in range(MAX_SECULAR_STEPS):
        f = at(pick(done, False, True), form, f, x)
        g = f - 1.0
        lo, hi = pick(g < 0.0, x, lo), pick(g > 0.0, x, hi)
        rho = g - a_lower / (lower - x) - a_upper / (upper - x)
        w = 1.0 / (outer - x)
        dw = w - 1.0 / (outer - x_old)
        s = pick(dw != 0.0, (rho - rho_old) / pick(dw != 0.0, dw, 1.0), a_outer)
        s = pick(s > 0.0, s, 0.0)
        # the model root as its offset v from the bracketing pole beyond it as
        # seen from x (o = 1 for lower): q(v) = v*(a_far/(span - v) + s/(d - v)
        # + c) - a_near, v times the model, is convex with q(0) < 0 < q(v(x)),
        # so Newton's method descends monotonically to it
        up = g < 0.0
        near, o = pick(up, upper, lower), 1.0 - 2.0 * up
        a_near, a_far = pick(up, a_upper, a_lower), pick(up, a_lower, a_upper)
        v, d, c = o * (x - near), o * (outer - near), o * (rho - s * w)
        for _ in range(MAX_SECULAR_STEPS):
            t_far, t_outer = a_far / (span - v), s / (d - v)
            q = v * (t_far + t_outer + c) - a_near
            slope = t_far * span / (span - v) + t_outer * d / (d - v) + c
            dv = pick(q > 0.0, q, 0.0) / pick(slope > 0.0, slope, 1.0)
            v = v - dv
            if every(dv <= 4.0 * _EPS * v):
                break
        x_new = near + o * v
        tol = 2.0 * _EPS * (abs(x) + v)  # the resolution of the model root
        at_x = (abs(g) <= _EPS) | (hi - lo <= 2.0 * tol)
        # a model step below its resolution ends the search only where f - 1
        # is within rounding of 0: a model fitted across a pole it does not
        # hold can stall far from the root, and then the bracket is halved
        stalled = abs(x_new - x) <= tol
        if some(pick(done, False, stalled)):
            bound = _bracket_bound(f, x, tol, lower, upper, a_lower, a_upper)
            full = pick(done, False, stalled & (abs(g) > bound))
            if some(full):
                bound = at(full, form.residual_bound, bound, x, tol)
            stalled = stalled & (abs(g) <= bound)
        at_model = stalled | (hi <= edge_lo) | (lo >= edge_hi)
        root = pick(done, root, pick(at_x, x, x_new))
        done = done | at_x | at_model
        if every(done):
            return _polish(root, form)
        ok = ((lo < x_new) & (x_new < hi) & (tol < abs(x_new - x))
              & (abs(x_new - x) < 0.5 * abs(step_old)))
        x_new = pick(ok, x_new, 0.5 * (lo + hi))
        x_new = pick(x_new < edge_lo, edge_lo, pick(x_new > edge_hi, edge_hi, x_new))
        x_old, rho_old, step_old, step, x = x, rho, step, x_new - x, pick(done, x, x_new)
    raise NumericError(f"secular root not converged after {MAX_SECULAR_STEPS} steps")


def _polish(mu, form):
    """Secular roots within half the smallest active nonzero pole P of 0, by
    Newton's method on f - 1 = c0 - a_0/mu + mu*S(mu), S(mu) = sum_k a_k/(d_k*
    (d_k - mu)) and c0 = sum_k a_k/d_k - 1 over the nonzero poles d_k: c0, where
    the rest of f nearly cancels the 1, is rounded once for both roots next to
    0, so their distance stays exact.  The slope a_0/mu**2 + S(mu) misses under
    |mu|/(P - |mu|) of the true one, so the steps contract.  It runs in units
    of P, y = mu/P, so that no sum overflows however small the rate; S is the
    form's ``unit`` form, prepared once for every root of the form."""
    _, every, some, _ = _elementwise(mu)
    pole, c0, a_zero, unit = form.unit
    near = abs(mu) < 0.5 * pole
    if not some(near):
        return mu
    y = (mu[near] if isinstance(mu, np.ndarray) else mu) / pole
    for _ in range(MAX_SECULAR_STEPS):
        s = unit(y)  # the zero level has no mass here
        step = (c0 - a_zero / y + y * s) / (a_zero / (y * y) + s)
        y = y - step
        # the next step would be below |y|/(1 - |y|) < 2|y| plus |step/y| of this one
        if every(abs(step) * (2.0 * abs(y) + abs(step / y)) <= 4.0 * _EPS * abs(y)):
            break
    if not isinstance(mu, np.ndarray):
        return y * pole
    mu[near] = y * pole
    return mu


def amplitude_approx(params: SearchParameters, t) -> np.ndarray | float:
    """Sinusoidal amplitude envelope * |sin(gamma_c*p_n*t/beta)|.

    Peaks at the envelope value when t equals the optimal time.
    """
    rate = params.gamma_c * params.p_n / params.beta
    return params.envelope * np.abs(np.sin(rate * np.asarray(t, dtype=float)))


def uniform_state(n: int) -> np.ndarray:
    """The uniform superposition vector."""
    return np.full(n, 1.0 / math.sqrt(n))
