"""Dense symmetric spectral decompositions, the analytic hypercube eigenbasis,
the fast Walsh-Hadamard transform, conjugate-gradient solves and Lanczos
extreme eigenvalues on a sparse graph Laplacian, and a vector's Gauss
quadrature from Lanczos on a dense one (``KrylovBasis``).  Both Lanczos runs
are loops over one driver (``_lanczos``), which alone decides when a run is
looked at, detects its breakdown, and solves its Jacobi matrix by
``eig_sym``; each caller keeps only its step cap and its stop rule."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DisconnectedGraphError, InvalidInputError, InvalidParameterError, NumericError
from .graphs import _check_hypercube

SYMMETRY_RTOL = 1e-12
# c of the level tolerance c * N * eps * lambda_max (``_level_tol``).  Over
# thousands of dense spectra of random connected graphs of 2 to 512 vertices,
# the computed zero mode stayed under 0.4 * N * eps * lambda_max and lambda_2
# over 1e9 * N * eps * lambda_max, so c = 8 sits a decade from each.
LEVEL_TOL_FACTOR = 8.0
# Memory budget of anything holding one value per hypercube vertex: a 2**22
# float64 array is 32 MiB.  ``hypercube_eigenbasis`` alone enforces it.
MAX_BASIS_BITS = 22
# Cap, in bits, on the floats per block of the Walsh transform: a 2**16-float
# block, its transposed copy and three quarter-block buffers (1.4 MiB) stay in
# a 2 MiB L2 cache between passes.
FWHT_BLOCK_BITS = 16
# Cap, in bits, on the columns C of a block's transposed stage: at 2**7 or 2**8
# both stages have rows of 2**8 to 2**10 floats, long enough for numpy's loops.
FWHT_COLUMN_BITS = 8
# Conjugate-gradient steps allowed per vertex: exact arithmetic needs at most
# N - 1 steps, rounding on an ill-conditioned Laplacian a few times that.
CG_STEPS_PER_VERTEX = 10
# c of the conjugate-gradient stop ||b - Qx|| <= c * eps * (2*d_max*||x|| + ||b||).
CG_BACKWARD_ERROR = 8.0
# Step cap of ``laplacian_extremes``: N times this many floats of basis, and
# O(N * m**2) flops of reorthogonalization; the extremes of random sparse
# graphs of 1000 to 4000 vertices converge in under 100 steps.
LANCZOS_MAX_BASIS = 256
# Residual ||Qy - rho*y|| <= LANCZOS_RESIDUAL * rho_max of a converged extreme
# Ritz pair, for unit y.
LANCZOS_RESIDUAL = 1e-10
# c of the Krylov breakdown test beta_m <= c * m * sqrt(N) * eps * ||T||: at
# an invariant subspace, families read beta_m at 0.02 to 0.27 and cycles of
# 50 to 200 vertices at 4.5 to 74 times sqrt(N) * eps * ||T||, a rounding
# that grows with m; short of one, every beta_m read at least 4.5e12 times it.
KRYLOV_BREAKDOWN = 8.0
# Lanczos steps a quadrature may take before the dense decomposition, N //
# KRYLOV_BUDGET_DIVISOR but at least KRYLOV_MIN_BUDGET: on random graphs of
# 500 to 2000 vertices, one thread, N/8 steps on the dense Laplacian cost 0.16
# to 0.3 of its dense decomposition.
KRYLOV_BUDGET_DIVISOR = 8
KRYLOV_MIN_BUDGET = 64


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues sorted non-increasing, paired with orthonormal eigenvector columns.

    For a connected-graph Laplacian the zero eigenvalue sits last and its
    eigenvector is the exact uniform vector (see ``laplacian_decomposition``).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @cached_property
    def _level_starts(self) -> np.ndarray:
        """First index of each level: a run of eigenvalues with gaps within
        ``_level_tol``; the last one, a Laplacian's zero mode, stands alone.
        The eigenvalues are finite, as ``eig_sym`` gives them."""
        lam = self.eigenvalues
        tol = _level_tol(float(lam[0]), lam.size)
        return np.union1d(np.flatnonzero(lam[:-1] - lam[1:] > tol) + 1, [0, lam.size - 1])

    def levels(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distinct eigenvalues, non-increasing with the zero mode last, and
        the mass sum(coeffs**2) of the eigenbasis coefficients in each.  Two
        eigenvalues within rounding, ``_level_tol``, are one level.
        """
        starts = self._level_starts
        return self.eigenvalues[starts], np.add.reduceat(coeffs**2, starts)

    def overlaps(self, vec: np.ndarray) -> np.ndarray:
        """Coefficients of ``vec`` in the eigenbasis (one per eigenvector column),
        for an (N,) vector or, column by column, an (N, k) block."""
        vec = np.asarray(vec)
        if vec.ndim not in (1, 2) or vec.shape[0] != self.n:
            raise InvalidInputError(
                f"vector has shape {vec.shape}, expected ({self.n},) or ({self.n}, k)"
            )
        return self.eigenvectors.T @ vec

    def level_masses(self, support: np.ndarray,
                     values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distinct eigenvalues and the mass in each of the vector with
        ``values`` on the sorted, distinct ``support``: its overlaps take only
        the support's rows of the eigenvectors, or the whole matrix when the
        support is every vertex."""
        if support.size == self.n:  # the whole support: the vector itself
            return self.levels(self.overlaps(values))
        return self.levels(values @ self.eigenvectors[support])


def eig_sym(matrix: np.ndarray) -> SpectralDecomposition:
    """Decompose a real symmetric matrix; eigenvalues returned non-increasing.

    Raises
    ------
    InvalidInputError
        If the matrix is not square, not finite or not symmetric to relative
        1e-12.
    NumericError
        If the underlying solver fails to converge.
    """
    m = _symmetric(matrix)
    try:
        lam, vec = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed to converge: {exc}") from exc
    order = np.argsort(-lam, kind="stable")
    return SpectralDecomposition(np.ascontiguousarray(lam[order]),
                                 np.ascontiguousarray(vec[:, order]))


def _symmetric(matrix: np.ndarray) -> np.ndarray:
    """The symmetric part of ``matrix`` as floats, after checking that it is
    square, finite and symmetric to relative 1e-12."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"matrix has shape {m.shape}, expected square")
    scale = np.max(np.abs(m)) if m.size else 0.0
    if not math.isfinite(scale):  # np.max passes nan on
        raise InvalidInputError("matrix has non-finite entries")
    asym = np.max(np.abs(m - m.T)) if m.size else 0.0
    if asym > SYMMETRY_RTOL * max(scale, 1e-300):
        raise InvalidInputError(
            f"matrix is not symmetric: max asymmetry {asym:.3e} at scale {scale:.3e}"
        )
    return (m + m.T) / 2.0


def laplacian_decomposition(q: np.ndarray) -> SpectralDecomposition:
    """Decompose a connected-graph Laplacian, snapping the zero mode exactly.

    The smallest eigenvalue is pinned to 0 and its eigenvector replaced by the
    exact uniform vector s, so downstream formulas that divide by eigenvalues or
    project on the uniform state see no rounding noise.  The other columns
    have s projected out, V <- V - s (s'V), one O(N**2) update: each carries
    an O(eps * kappa) rounding component along s, which a state's overlaps
    would carry, times p_n, into its nonzero levels, the whole of them for a
    state near s.

    Raises
    ------
    DisconnectedGraphError
        If a second eigenvalue lies within the zero tolerance (``_level_tol``).
    InvalidInputError
        If the smallest eigenvalue is not zero within it (not a Laplacian).
    """
    decomp = eig_sym(q)
    lam = decomp.eigenvalues.copy()
    vec = decomp.eigenvectors.copy()
    _snap_zero_mode(lam)
    vec[:, :-1] -= vec[:, :-1].mean(axis=0)  # s (s'V) = each column's mean
    vec[:, -1] = 1.0 / math.sqrt(lam.size)
    return SpectralDecomposition(lam, vec)


def laplacian_eigenvalues(q: np.ndarray) -> np.ndarray:
    """Eigenvalues of a connected-graph Laplacian, non-increasing with the
    zero mode snapped to exactly 0, as ``laplacian_decomposition`` gives them
    but from ``np.linalg.eigvalsh``: no eigenvectors are computed.

    Raises
    ------
    InvalidInputError
        If ``q`` is not square, finite and symmetric, or its smallest eigenvalue is
        not zero within ``_level_tol`` (not a Laplacian).
    DisconnectedGraphError
        If a second eigenvalue lies within the zero tolerance.
    NumericError
        If the underlying solver fails to converge.
    """
    m = _symmetric(q)
    try:
        lam = np.linalg.eigvalsh(m)[::-1].copy()
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue computation failed to converge: {exc}") from exc
    _snap_zero_mode(lam)
    return lam


def _level_tol(lambda_max: float, n: int) -> float:
    """The one zero and level rule: c * N * eps * lambda_max, c =
    ``LEVEL_TOL_FACTOR``, for N computed eigenvalues topped by a finite
    ``lambda_max``.  Two eigenvalues within it are one level, and one within
    it of 0 is the Laplacian zero mode: the rounding of a dense eigensolver on
    a Laplacian grows with N and with lambda_max = ||Q||."""
    return LEVEL_TOL_FACTOR * n * np.finfo(float).eps * lambda_max


def _snap_zero_mode(lam: np.ndarray, *, exact: bool = False) -> None:
    """Pin the last of the non-increasing eigenvalues ``lam`` to exactly 0,
    after checking that they are finite and that it alone is zero within
    ``_level_tol`` of lambda_max = lam[0] and N = lam.size.  ``exact``
    eigenvalues carry no rounding, so their tolerance is 0.

    Raises
    ------
    InvalidInputError
        If an eigenvalue is not finite, or the last is not zero within the
        tolerance (not a graph Laplacian).
    DisconnectedGraphError
        If the second to last is within the tolerance as well.
    """
    if not np.isfinite(lam).all():
        raise InvalidInputError("eigenvalues must be finite")
    tol = 0.0 if exact else _level_tol(float(lam[0]), lam.size)
    if abs(lam[-1]) > tol:
        raise InvalidInputError(
            f"smallest eigenvalue {lam[-1]:.3e} is not zero: not a graph Laplacian"
        )
    if lam.size >= 2 and lam[-2] <= tol:
        raise DisconnectedGraphError("repeated zero eigenvalue")
    lam[-1] = 0.0


def laplacian_solve(n: int, edges: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x = Q^+ b for the Laplacian Q of a connected simple graph on n vertices
    with (E, 2) ``edges``, and b orthogonal to the uniform vector, by
    conjugate gradients in the complement of the uniform vector.

    Q is applied from the edges as the degree scaling minus two scatters, O(E)
    per step, with nothing of size N*N built; the residual is projected
    orthogonal to the uniform vector at every step, and so is x at the end.
    The solve stops on the normwise backward error ||b - Qx|| <= c * eps *
    (2*d_max*||x|| + ||b||), c = ``CG_BACKWARD_ERROR`` and 2*d_max >= ||Q||,
    checked on the true residual: a recurrence residual that passes while the
    true one does not restarts the iteration from the true one.  Each step
    contracts the error by at least (sqrt(k) - 1)/(sqrt(k) + 1), k =
    lambda_max/lambda_2.

    Raises
    ------
    InvalidInputError
        If ``b`` is not a finite (n,) vector.
    NumericError
        If the stop is not reached within ``CG_STEPS_PER_VERTEX * n`` steps.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (n,) or not np.isfinite(b).all():
        raise InvalidInputError(f"right-hand side must be a finite ({n},) vector")
    apply, scale = _edge_laplacian(n, edges)
    b_norm = float(np.linalg.norm(b))
    tol = CG_BACKWARD_ERROR * np.finfo(float).eps
    x = np.zeros(n)
    r = b - b.mean()
    p, rr = r.copy(), float(r @ r)
    steps = int(CG_STEPS_PER_VERTEX * n)
    for _ in range(steps + 1):
        if math.sqrt(rr) <= tol * (scale * np.linalg.norm(x) + b_norm):
            r = b - apply(x)
            r -= r.mean()
            rr = float(r @ r)
            if math.sqrt(rr) <= tol * (scale * np.linalg.norm(x) + b_norm):
                return x - x.mean()
            p = r.copy()
        q = apply(p)
        alpha = rr / float(p @ q)
        x += alpha * p
        r -= alpha * q
        r -= r.mean()
        rr, rr_old = float(r @ r), rr
        p *= rr / rr_old
        p += r
    raise NumericError(
        f"conjugate gradients did not converge in {steps} steps on {n} vertices"
    )


def _edge_laplacian(n: int, edges: np.ndarray):
    """x -> Qx for the Laplacian Q of a simple graph on n vertices with (E, 2)
    ``edges``, applied as the degree scaling minus two scatters, O(E) with
    nothing of size N*N built; and 2*d_max, a bound on ||Q|| and ||D + A||."""
    u, v = np.ascontiguousarray(np.asarray(edges, dtype=np.int64).T)
    degrees = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)

    def apply(x):
        y = degrees * x
        y -= np.bincount(u, weights=x[v], minlength=n)
        y -= np.bincount(v, weights=x[u], minlength=n)
        return y

    return apply, 2.0 * float(degrees.max())


@dataclass(frozen=True)
class LanczosExtremes:
    """The extreme Ritz pairs of a graph Laplacian in the complement of the
    uniform vector (see ``laplacian_extremes``)."""

    theta_max: float
    theta_min: float
    # Rayleigh quotients of the explicit, mean-free Ritz vectors, as evaluated
    rho_max: float
    rho_min: float
    # bound on the rounding error of each evaluated Rayleigh quotient
    delta: float
    steps: int
    converged: bool


def laplacian_extremes(n: int, edges: np.ndarray) -> LanczosExtremes:
    """Largest and smallest eigenvalue of the Laplacian Q of a connected
    simple graph on n >= 2 vertices with (E, 2) ``edges``, restricted to the
    complement s-perp of the uniform vector: lambda_max and lambda_2, by
    Lanczos with Q applied from the edges.

    The start vector is seeded, so the result is deterministic.  The run is
    the library's one driver (``_lanczos``), for at most
    ``LANCZOS_MAX_BASIS`` steps: at each of its looks the extreme Ritz pairs
    come from its ``eig_sym`` of the m x m Jacobi matrix, so no N x N
    eigensolver runs, and the run stops when both extreme Ritz vectors y,
    mean-free and of unit norm, have ||Qy - rho*y|| <= ``LANCZOS_RESIDUAL``
    * rho_max and |theta - rho| within the same bound, where rho = y'Qy is
    evaluated on y itself; or when the driver stops, at a breakdown or at
    the step cap, and ``converged`` is false unless the check passed.

    Each rho is the Rayleigh quotient of a vector of s-perp, so rho_max <=
    lambda_max and rho_min >= lambda_2 whether or not the iteration
    converged, up to the rounding of their evaluation, bounded by
    delta = (2N + d_max + 4) * eps * 2*d_max: each entry of Qy sums at most
    d_max + 2 terms and y'(Qy) N more, |Q| = D + A has norm at most 2*d_max,
    the rounded norm of y is 1 to the rounding of an N-term sum, and the
    rounded mean of y leaves a component along the uniform vector of
    relative size at most (N + 1) * eps, which lowers rho by a second-order
    amount.

    Raises
    ------
    InvalidInputError
        If n < 2.
    """
    if n < 2:
        raise InvalidInputError(f"Lanczos needs at least two vertices, got {n}")
    apply, scale = _edge_laplacian(n, edges)
    v = np.random.default_rng(0).standard_normal(n)
    v -= v.mean()
    v /= np.linalg.norm(v)
    for basis, ritz, _ in _lanczos(apply, v, min(n - 1, LANCZOS_MAX_BASIS)):
        result = _ritz_extremes(apply, basis, ritz, scale)
        if result.converged:
            break
    return result


def _lanczos(apply, start: np.ndarray, size: int):
    """The one Lanczos driver: the recurrence of the symmetric operator
    ``apply`` in the complement of the uniform vector, from the unit,
    mean-free ``start``, for at most ``size`` steps, with the one schedule,
    breakdown rule and Jacobi eigensolve of every run on it.

    After step m, apply(V) = V T + beta_m v_m e_m' for the m basis rows V,
    the m x m Jacobi matrix T and beta_m the norm of the next residual.  The
    run is looked at after steps 1, 2, 4, 8, then every 8, or every m/8 past
    64, and at step ``size``; each look yields V, ``eig_sym`` of T (Ritz
    values non-increasing, Ritz coefficient columns) and ``exact``.  The run
    stops at a breakdown, which is looked at with ``exact`` true: beta_m <=
    ``KRYLOV_BREAKDOWN`` * m * sqrt(N) * eps * ||T||, ||T|| the running
    maximum of |alpha| and beta, or m = N - 1.  The Krylov space is then
    invariant and every Ritz value exact to rounding, and the next vector,
    rounding over beta_m, is never formed.

    Each new vector is orthogonalized twice against the whole basis, then
    its mean is projected out again, without which a spurious Ritz value
    near 0 appears.  The basis view yielded changes at the next step."""
    n = start.size
    basis = np.empty((size, n))
    alpha, beta = np.empty(size), np.empty(size)
    breakdown = KRYLOV_BREAKDOWN * math.sqrt(n) * np.finfo(float).eps
    v, norm, look = start, 0.0, 1
    for j in range(size):
        basis[j] = v
        w = apply(v)
        alpha[j] = v @ w
        w -= alpha[j] * v
        if j:
            w -= beta[j - 1] * basis[j - 1]
        for _ in range(2):
            w -= (basis[:j + 1] @ w) @ basis[:j + 1]
        w -= w.mean()
        beta[j] = np.linalg.norm(w)
        m = j + 1
        norm = max(norm, abs(float(alpha[j])), float(beta[j]))
        exact = beta[j] <= breakdown * m * norm or m == n - 1
        if exact or m == look or m == size:
            t = np.diag(alpha[:m]) + np.diag(beta[:m - 1], 1) + np.diag(beta[:m - 1], -1)
            yield basis[:m], eig_sym(t), exact
            if exact:
                return
            look = 2 * look if look < 8 else look + max(8, m // 8)
        v = w / beta[j]


def _ritz_extremes(apply, basis: np.ndarray, ritz: SpectralDecomposition,
                   scale: float) -> LanczosExtremes:
    """The extreme Ritz pairs of the Lanczos ``basis`` rows and ``ritz``, the
    decomposition of their Jacobi matrix, checked on the explicit Ritz
    vectors."""
    n = basis.shape[1]
    ends = (float(ritz.eigenvalues[0]), float(ritz.eigenvalues[-1]))
    rho, residual = [], []
    for col in (0, -1):
        y = ritz.eigenvectors[:, col] @ basis
        y -= y.mean()
        y /= np.linalg.norm(y)
        qy = apply(y)
        rho.append(float(y @ qy))
        residual.append(float(np.linalg.norm(qy - rho[-1] * y)))
    tol = LANCZOS_RESIDUAL * rho[0]
    converged = all(r <= tol for r in residual) and all(
        abs(a - b) <= tol for a, b in zip(ends, rho))
    return LanczosExtremes(
        theta_max=ends[0], theta_min=ends[1], rho_max=rho[0], rho_min=rho[1],
        delta=float((2 * n + scale / 2 + 4) * np.finfo(float).eps * scale),
        steps=basis.shape[0], converged=converged,
    )


@dataclass(frozen=True)
class KrylovBasis:
    """A connected-graph Laplacian Q, dense, whose ``level_masses`` gives a
    vector's spectral measure by Gauss quadrature from Lanczos, and the
    dense decomposition only when the quadrature cannot settle.

    After m Lanczos steps on the vector's part b orthogonal to the uniform
    vector, the m-node Gauss rule has the Ritz values of the Jacobi matrix T
    as nodes, non-increasing, and ||b||**2 * S[0, k]**2 as weights, S the
    eigenvectors of T; ``level_masses`` appends the zero level with the
    vector's mass on it.  ``settled(levels, masses, exact, budget)`` decides
    on that pair at each look of the driver (``_lanczos``), ``exact``
    telling that it stopped at a breakdown and the rule is exact to
    rounding: True takes the pair, False asks for more steps, and None, a
    measure that cannot settle within ``budget`` steps, takes the dense
    route at once; a request ``settled`` refuses raises, with no dense route.
    """

    laplacian: np.ndarray
    settled: Callable[[np.ndarray, np.ndarray, bool, int], bool | None]

    @property
    def n(self) -> int:
        return self.laplacian.shape[0]

    def level_masses(self, support: np.ndarray,
                     values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gauss nodes and the zero level, with the weights and the zero-level
        mass p_n**2 of the vector with ``values`` on the sorted, distinct
        ``support``: the driver (``_lanczos``) on the Laplacian from b/||b||,
        b = w - p_n*s its part orthogonal to the uniform vector s, for at most
        N // ``KRYLOV_BUDGET_DIVISOR`` steps (at least ``KRYLOV_MIN_BUDGET``,
        at most N - 1), with the nodes and weights from its decomposition of
        the Jacobi matrix at each look.  A vector with b = 0 has the zero
        level alone.  When ``settled`` gives up, or the run ends with no
        quadrature taken, the levels and masses of ``laplacian_decomposition``.
        """
        n = self.n
        w = np.zeros(n)
        w[support] = values
        p_n = float(values.sum()) / math.sqrt(n)
        b = w - w.mean()  # w - p_n*s: s(s'w) is the mean of w
        b_sq = float(b @ b)
        if b_sq == 0.0:
            return np.zeros(1), np.array([p_n * p_n])
        size = min(n - 1, max(KRYLOV_MIN_BUDGET, n // KRYLOV_BUDGET_DIVISOR))
        for _, ritz, exact in _lanczos(self.laplacian.__matmul__, b / math.sqrt(b_sq), size):
            first = ritz.eigenvectors[0]
            levels = np.append(ritz.eigenvalues, 0.0)
            masses = np.append(b_sq * first * first, p_n * p_n)
            verdict = self.settled(levels, masses, exact, size)
            if verdict:
                return levels, masses
            if verdict is None:
                break
        return laplacian_decomposition(self.laplacian).level_masses(support, values)


def fwht(vec: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform of a power-of-two-length vector.

    Entry z of the result is sum_x (-1)**popcount(x & z) * vec[x], computed in
    O(N log N) into a new array; ``vec`` is left as it is.

    Pass schedule: an odd log2(N) takes one radix-2 pass (h = 1) first, then
    every pass at h = h0 * 4**j (h0 = 2 after that pass, else 1) applies two
    radix-2 butterfly levels to blocks of four quarters (a, b, c, d) at stride
    h: ((a+b)+(c+d), (a-b)+(c-d), (a+b)-(c+d), (a-b)-(c-d)).

    Blocking: a schedule point is a span 2h (radix-2) or 4h (radix-4) that a
    pass completes.  The passes up to span B run on one contiguous block of B
    floats at a time, B the largest schedule point up to 2**FWHT_BLOCK_BITS,
    so the block stays in cache between passes.  A block is read as a
    (B/C, C) matrix, C the largest schedule point up to 2**FWHT_COLUMN_BITS:
    the passes up to span C run on a transposed copy, whose rows are B/C
    floats long, and the passes from C to B on the block itself, whose rows
    are C long.  The passes past B run on column slices of the (N/B, B)
    matrix, B floats at a time.  The copy and one scratch buffer of 3B/4
    floats are reused throughout.  A block whose 64-bit patterns are all zero,
    every entry +0.0, skips its passes up to span B and is written as +0.0:
    so a vector with few nonzero blocks, such as a two-vertex state, pays
    those passes only for the blocks it occupies.

    The result is bit for bit the radix-2 transform's: a radix-4 pass is two
    radix-2 levels with each sum and difference kept, and blocking,
    transposing and slicing change only which independent butterflies run in
    one numpy call, never the operands of a butterfly or the order of levels.
    A skipped block is exact too: +0.0 + +0.0 and +0.0 - +0.0 are +0.0, so
    its passes would leave it +0.0 bit for bit.  A block holding -0.0, a NaN,
    an infinity or a subnormal has a nonzero pattern and runs every pass.

    Raises
    ------
    InvalidInputError
        If ``vec`` is not 1-D or its length is not a power of two.
    """
    src = np.asarray(vec, dtype=float)
    if src.ndim != 1:
        raise InvalidInputError(f"transform takes a vector, got shape {src.shape}")
    n = src.size
    if n == 0 or n & (n - 1):
        raise InvalidInputError(f"transform length must be a power of two, got {n}")
    bits = n.bit_length() - 1
    block_bits = _schedule_point(FWHT_BLOCK_BITS, bits)
    col_bits = _schedule_point(FWHT_COLUMN_BITS, block_bits)
    block, cols = 1 << block_bits, 1 << col_bits
    n_blocks = n >> block_bits
    slice_cols = max(block // n_blocks, 1)
    buf = np.empty(3 * max(block, n_blocks * slice_cols) // 4)
    transposed = np.empty((cols, block // cols))
    out = np.empty(n)
    for i in range(0, n, block):
        if not src[i:i + block].view(np.int64).any():
            out[i:i + block] = 0.0
            continue
        np.copyto(transposed, src[i:i + block].reshape(-1, cols).T)
        _walsh_rows(transposed, buf)
        rows = out[i:i + block].reshape(-1, cols)
        np.copyto(rows, transposed.T)
        _walsh_rows(rows, buf)
    if n_blocks > 1:
        blocks = out.reshape(n_blocks, block)
        for j in range(0, block, slice_cols):
            _walsh_rows(blocks[:, j:j + slice_cols], buf)
    return out


def _schedule_point(cap_bits: int, bits: int) -> int:
    """Largest b <= min(cap_bits, bits) of the parity of ``bits``: 2**b is a
    span the Walsh pass schedule of 2**bits reaches."""
    b = min(cap_bits, bits)
    return b - ((bits - b) & 1)


def _walsh_rows(x: np.ndarray, buf: np.ndarray) -> None:
    """Walsh-transform the (L, w) array ``x`` along axis 0 in place, L a power
    of two: one radix-2 pass first if log2(L) is odd, then radix-4 passes,
    with at least 3*L*w/4 floats of ``buf`` as scratch."""
    length, w = x.shape
    h = 1
    if length.bit_length() % 2 == 0:
        pairs = x.reshape(-1, 2, w)
        left = buf[:length // 2 * w].reshape(-1, w)
        np.copyto(left, pairs[:, 0])
        np.add(left, pairs[:, 1], out=pairs[:, 0])
        np.subtract(left, pairs[:, 1], out=pairs[:, 1])
        h = 2
    q = length // 4 * w
    while h < length:
        quarters = x.reshape(-1, 4, h, w)
        a, b, c, d = (quarters[:, j] for j in range(4))
        s0, d0, s1 = (buf[j * q:(j + 1) * q].reshape(a.shape) for j in range(3))
        np.add(a, b, out=s0)
        np.subtract(a, b, out=d0)
        np.add(c, d, out=s1)
        np.subtract(c, d, out=d)
        np.add(s0, s1, out=a)
        np.subtract(s0, s1, out=c)
        np.add(d0, d, out=b)
        np.subtract(d0, d, out=d)
        h *= 4


# Support pairs per block of the hypercube Hamming-distance histogram: each of
# the block's XOR, weight and bin-index arrays takes 2 MiB.
PAIR_BLOCK = 1 << 18


@dataclass(frozen=True)
class HypercubeEigenbasis:
    """Implicit Walsh eigenbasis of the hypercube Laplacian.

    Eigenvalue 2*popcount(z) belongs to the parity vector with entries
    (-1)**popcount(x & z) / sqrt(N); nothing of size N*N is ever materialized,
    a state's level masses come from its support and values
    (``level_masses``), and nothing of size N is built until a transform
    needs it.
    """

    n_bits: int

    @property
    def n(self) -> int:
        return 1 << self.n_bits

    def _level_values(self) -> np.ndarray:
        return 2.0 * np.arange(self.n_bits, -1, -1)

    def transform_masses(self, support: np.ndarray,
                         values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Levels 2n, 2n-2, ..., 0, one per Hamming weight, and the mass in each
        of the vector with ``values`` on ``support``: its squared overlaps,
        from the Walsh transform, O(N log N), summed over the indices of each
        Hamming weight.

        The squared transform, read as a (2**hi, 2**lo) matrix X with hi + lo
        = n, has weight-w mass (1/N) * sum of M[a, c] over a + c = w, where M
        = P_hi' X P_lo and P_b is the (2**b, b+1) one-hot matrix of popcount
        over b bits: two matrix products and n+1 anti-diagonal sums, with
        nothing of size N beyond the transform.  Every term is a square, so
        the grouping is exact up to rounding in any summation order; dividing
        by N, a power of two, adds none.
        """
        vec = np.zeros(self.n)
        vec[support] = values
        coeffs = fwht(vec)
        del vec
        np.square(coeffs, out=coeffs)
        lo = self.n_bits // 2
        hi = self.n_bits - lo
        by_weight = _popcount_one_hot(hi).T @ (
            coeffs.reshape(1 << hi, 1 << lo) @ _popcount_one_hot(lo))
        flipped = by_weight[:, ::-1]  # anti-diagonal a + c = w is offset lo - w
        masses = np.array([flipped.trace(lo - w) for w in range(self.n_bits, -1, -1)])
        return self._level_values(), masses / self.n

    def level_masses(self, support: np.ndarray,
                     values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Levels 2n, ..., 0 and the mass in each of the vector with ``values``
        on the sorted, distinct ``support``, by the cheaper route.

        For r support vertices with r**2 <= N*log2(N), the mass of level j >= 1
        is (1/N) * sum_d h_d * K_j(d), h_d summing vec[a] * vec[b] over support
        pairs at Hamming distance d and K_j the Krawtchouk kernel, and level 0
        has mass (sum vec)**2 / N: O(r**2 + n**2) with nothing of size N built.
        Wider supports take the transform, O(N log N).
        """
        if self._transform_cheaper(support.size):
            return self.transform_masses(support, values)
        from . import closed_forms  # at call time: closed_forms imports this module

        h = _distance_histogram(support.astype(np.uint64), values, self.n_bits)
        ds = np.flatnonzero(h)
        kernel = np.array([[closed_forms.krawtchouk(self.n_bits, j, int(d)) for d in ds]
                           for j in range(self.n_bits, 0, -1)], dtype=float)
        return self._level_values(), np.append(kernel @ h[ds], values.sum() ** 2) / self.n

    def _transform_cheaper(self, r: int) -> bool:
        """Whether r support vertices make more pairs than the N*log2(N) steps
        of a transform."""
        return r * r > self.n_bits * self.n


def _popcount_one_hot(bits: int) -> np.ndarray:
    """The (2**bits, bits+1) matrix with a one at [z, popcount(z)]."""
    weights = np.bitwise_count(np.arange(1 << bits, dtype=np.uint64))
    return (weights[:, None] == np.arange(bits + 1)).astype(float)


def _distance_histogram(support: np.ndarray, wv: np.ndarray, n_bits: int) -> np.ndarray:
    """h_d = sum of wv_a * wv_b over ordered support pairs (a, b) at Hamming
    distance d, accumulated over row blocks of at most PAIR_BLOCK pairs."""
    h = np.zeros(n_bits + 1)
    rows = max(1, PAIR_BLOCK // support.size)
    for i in range(0, support.size, rows):
        dist = np.bitwise_count(support[i:i + rows, None] ^ support[None, :])
        h += np.bincount(dist.ravel(), weights=np.outer(wv[i:i + rows], wv).ravel(),
                         minlength=n_bits + 1)
    return h


def hypercube_eigenbasis(n_bits: int) -> HypercubeEigenbasis:
    """Analytic eigenbasis for the hypercube on 2**n_bits vertices; it allocates
    nothing of size 2**n_bits until a transform needs it.

    Raises
    ------
    InvalidParameterError
        If n_bits is outside the hypercube family's domain (``graphs``' check)
        or exceeds ``MAX_BASIS_BITS``.
    """
    _check_hypercube(n_bits)
    if n_bits > MAX_BASIS_BITS:
        raise InvalidParameterError(
            f"hypercube needs 1 to {MAX_BASIS_BITS} coordinates, got {n_bits}")
    return HypercubeEigenbasis(n_bits)
