"""Dense symmetric spectral decompositions, the analytic hypercube eigenbasis,
and exact eigenbasis-driven time evolution."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DisconnectedGraphError, InvalidInputError, NumericError

SYMMETRY_RTOL = 1e-12
ZERO_EIGENVALUE_TOL = 1e-9
# Memory budget of anything holding one value per hypercube vertex: a 2**22
# float64 array is 32 MiB.
MAX_BASIS_BITS = 22


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
        """First index of each level: a run of eigenvalues with gaps of at most
        lambda_max * N * eps; the last one, a Laplacian's zero mode, stands alone."""
        lam = self.eigenvalues
        tol = lam[0] * lam.size * np.finfo(float).eps
        return np.union1d(np.flatnonzero(lam[:-1] - lam[1:] > tol) + 1, [0, lam.size - 1])

    def levels(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distinct eigenvalues, non-increasing with the zero mode last, and
        the mass sum(coeffs**2) of the eigenbasis coefficients in each."""
        starts = self._level_starts
        return self.eigenvalues[starts], np.add.reduceat(coeffs**2, starts)

    def overlaps(self, vec: np.ndarray) -> np.ndarray:
        """Coefficients of ``vec`` in the eigenbasis (one per eigenvector column)."""
        vec = np.asarray(vec)
        if vec.shape != (self.n,):
            raise InvalidInputError(
                f"vector has shape {vec.shape}, expected ({self.n},)"
            )
        return self.eigenvectors.T @ vec


def eig_sym(matrix: np.ndarray) -> SpectralDecomposition:
    """Decompose a real symmetric matrix; eigenvalues returned non-increasing.

    Raises
    ------
    InvalidInputError
        If the matrix is not square or not symmetric to relative 1e-12.
    NumericError
        If the underlying solver fails to converge.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"matrix has shape {m.shape}, expected square")
    scale = np.max(np.abs(m)) if m.size else 0.0
    asym = np.max(np.abs(m - m.T)) if m.size else 0.0
    if asym > SYMMETRY_RTOL * max(scale, 1e-300):
        raise InvalidInputError(
            f"matrix is not symmetric: max asymmetry {asym:.3e} at scale {scale:.3e}"
        )
    try:
        lam, vec = np.linalg.eigh((m + m.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed to converge: {exc}") from exc
    order = np.argsort(-lam, kind="stable")
    return SpectralDecomposition(np.ascontiguousarray(lam[order]),
                                 np.ascontiguousarray(vec[:, order]))


def laplacian_decomposition(q: np.ndarray) -> SpectralDecomposition:
    """Decompose a connected-graph Laplacian, snapping the zero mode exactly.

    The smallest eigenvalue is pinned to 0 and its eigenvector replaced by the
    exact uniform vector, so downstream formulas that divide by eigenvalues or
    project on the uniform state see no rounding noise.

    Raises
    ------
    DisconnectedGraphError
        If a second eigenvalue lies within the zero tolerance.
    InvalidInputError
        If the smallest eigenvalue is not zero to 1e-9 (not a Laplacian).
    """
    decomp = eig_sym(q)
    lam = decomp.eigenvalues.copy()
    vec = decomp.eigenvectors.copy()
    n = lam.size
    if abs(lam[-1]) > ZERO_EIGENVALUE_TOL:
        raise InvalidInputError(
            f"smallest eigenvalue {lam[-1]:.3e} is not zero: not a graph Laplacian"
        )
    if n >= 2 and lam[-2] <= ZERO_EIGENVALUE_TOL:
        raise DisconnectedGraphError(
            f"repeated zero eigenvalue (second smallest is {lam[-2]:.3e})"
        )
    lam[-1] = 0.0
    vec[:, -1] = 1.0 / math.sqrt(n)
    return SpectralDecomposition(lam, vec)


def evolve(decomp: SpectralDecomposition, vec: np.ndarray, t: float) -> np.ndarray:
    """Apply exp(-iHt) to ``vec`` using the eigendecomposition of H."""
    coeffs = decomp.overlaps(vec)
    phases = np.exp(-1j * decomp.eigenvalues * t)
    return decomp.eigenvectors @ (phases * coeffs)


def fwht(vec: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform of a power-of-two-length vector.

    Entry z of the result is sum_x (-1)**popcount(x & z) * vec[x], computed in
    O(N log N) butterfly passes.
    """
    a = np.array(vec, dtype=float)
    n = a.size
    if n == 0 or n & (n - 1):
        raise InvalidInputError(f"transform length must be a power of two, got {n}")
    h = 1
    while h < n:
        a = a.reshape(-1, 2 * h)
        left = a[:, :h].copy()
        right = a[:, h:].copy()
        a[:, :h] = left + right
        a[:, h:] = left - right
        a = a.reshape(-1)
        h *= 2
    return a


@dataclass(frozen=True)
class HypercubeEigenbasis:
    """Implicit Walsh eigenbasis of the hypercube Laplacian.

    Eigenvalue 2*popcount(z) belongs to the parity vector with entries
    (-1)**popcount(x & z) / sqrt(N); nothing of size N*N is ever materialized,
    and overlaps of arbitrary states are computed by the fast transform.
    """

    n_bits: int
    eigenvalues: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)

    @property
    def n(self) -> int:
        return 1 << self.n_bits

    def levels(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Levels 2n, 2n-2, ..., 0, one per Hamming weight, and the mass
        sum(coeffs**2) of the transform coefficients in each."""
        masses = np.bincount(self.eigenvalues.astype(np.intp), weights=coeffs**2,
                             minlength=2 * self.n_bits + 1)[::-2]
        return 2.0 * np.arange(self.n_bits, -1, -1), masses

    def overlaps(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec)
        if vec.shape != (self.n,):
            raise InvalidInputError(
                f"vector has shape {vec.shape}, expected ({self.n},)"
            )
        return fwht(vec) / math.sqrt(self.n)


def hypercube_eigenbasis(n_bits: int) -> HypercubeEigenbasis:
    """Analytic eigenbasis for the hypercube on 2**n_bits vertices."""
    if n_bits < 1:
        raise InvalidInputError(f"hypercube needs n >= 1, got {n_bits}")
    if n_bits > MAX_BASIS_BITS:
        raise InvalidInputError(f"hypercube basis with n = {n_bits} exceeds the memory budget")
    z = np.arange(1 << n_bits, dtype=np.uint64)
    eigenvalues = 2.0 * np.bitwise_count(z).astype(float)
    return HypercubeEigenbasis(n_bits, eigenvalues)
