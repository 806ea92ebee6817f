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
        """Coefficients of ``vec`` in the eigenbasis (one per eigenvector column),
        for an (N,) vector or, column by column, an (N, k) block."""
        vec = np.asarray(vec)
        if vec.ndim not in (1, 2) or vec.shape[0] != self.n:
            raise InvalidInputError(
                f"vector has shape {vec.shape}, expected ({self.n},) or ({self.n}, k)"
            )
        return self.eigenvectors.T @ vec

    def level_masses(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distinct eigenvalues and the mass of ``vec`` in each, from its
        overlaps; one column of masses per column of an (N, k) block."""
        return self.levels(self.overlaps(vec))


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
    """Apply exp(-iHt) to ``vec``, an (N,) vector or each column of an (N, k)
    block, using the eigendecomposition of H."""
    coeffs = decomp.overlaps(vec)
    phases = np.exp(-1j * decomp.eigenvalues * t)
    return decomp.eigenvectors @ (phases * coeffs.T).T


def fwht(vec: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform of a power-of-two-length vector.

    Entry z of the result is sum_x (-1)**popcount(x & z) * vec[x], computed in
    O(N log N) on a copy; ``vec`` is left as it is.  Each pass applies two
    radix-2 butterfly levels to blocks of four quarters (a, b, c, d):
    ((a+b)+(c+d), (a-b)+(c-d), (a+b)-(c+d), (a-b)-(c-d)), the same operations in
    the same order as two radix-2 passes, so the result is bit for bit theirs;
    an odd log2(N) takes one radix-2 pass first.
    """
    a = np.array(vec, dtype=float)
    n = a.size
    if n == 0 or n & (n - 1):
        raise InvalidInputError(f"transform length must be a power of two, got {n}")
    h = 1
    if n.bit_length() % 2 == 0:
        pairs = a.reshape(-1, 2)
        left = pairs[:, 0].copy()
        np.add(left, pairs[:, 1], out=pairs[:, 0])
        np.subtract(left, pairs[:, 1], out=pairs[:, 1])
        h = 2
    while h < n:
        b = a.reshape(-1, 4, h)
        s0, d0, s1 = b[:, 0] + b[:, 1], b[:, 0] - b[:, 1], b[:, 2] + b[:, 3]
        d1 = np.subtract(b[:, 2], b[:, 3], out=b[:, 3])
        np.add(s0, s1, out=b[:, 0])
        np.subtract(s0, s1, out=b[:, 2])
        np.add(d0, d1, out=b[:, 1])
        np.subtract(d0, d1, out=b[:, 3])
        h *= 4
    return a


# Support pairs per block of the hypercube Hamming-distance histogram: each of
# the block's XOR, weight and bin-index arrays takes 2 MiB.
PAIR_BLOCK = 1 << 18


@dataclass(frozen=True)
class HypercubeEigenbasis:
    """Implicit Walsh eigenbasis of the hypercube Laplacian.

    Eigenvalue 2*popcount(z) belongs to the parity vector with entries
    (-1)**popcount(x & z) / sqrt(N); nothing of size N*N is ever materialized,
    overlaps of arbitrary states are computed by the fast transform, and
    nothing of size N is built until a transform needs it.
    """

    n_bits: int

    @property
    def n(self) -> int:
        return 1 << self.n_bits

    @cached_property
    def _hamming_weights(self) -> np.ndarray:
        """popcount(z) of every index z, as uint8."""
        return np.bitwise_count(np.arange(self.n, dtype=np.uint64))

    @property
    def eigenvalues(self) -> np.ndarray:
        """2*popcount(z) for every index z: an array of N floats, built on each access."""
        return 2.0 * self._hamming_weights

    def _level_values(self) -> np.ndarray:
        return 2.0 * np.arange(self.n_bits, -1, -1)

    def levels(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Levels 2n, 2n-2, ..., 0, one per Hamming weight, and the mass
        sum(coeffs**2) of the transform coefficients in each."""
        masses = np.bincount(self._hamming_weights, weights=coeffs**2,
                             minlength=self.n_bits + 1)[::-1]
        return self._level_values(), masses

    def overlaps(self, vec: np.ndarray) -> np.ndarray:
        return fwht(self._check(vec)) / math.sqrt(self.n)

    def level_masses(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Levels 2n, ..., 0 and the mass of ``vec`` in each, by the cheaper route.

        For r support vertices with r**2 <= N*log2(N), the mass of level j >= 1
        is (1/N) * sum_d h_d * K_j(d), h_d summing vec[a] * vec[b] over support
        pairs at Hamming distance d and K_j the Krawtchouk kernel, and level 0
        has mass (sum vec)**2 / N: O(r**2 + n**2) with nothing of size N built.
        Wider supports take the transform, O(N log N).
        """
        vec = self._check(vec)
        support = np.flatnonzero(vec)
        if self._transform_cheaper(support.size):
            return self.levels(self.overlaps(vec))
        from . import closed_forms  # at call time: closed_forms imports this module

        wv = vec[support]
        h = _distance_histogram(support.astype(np.uint64), wv, self.n_bits)
        ds = np.flatnonzero(h)
        kernel = np.array([[closed_forms.krawtchouk(self.n_bits, j, int(d)) for d in ds]
                           for j in range(self.n_bits, 0, -1)], dtype=float)
        return self._level_values(), np.append(kernel @ h[ds], wv.sum() ** 2) / self.n

    def _transform_cheaper(self, r: int) -> bool:
        """Whether r support vertices make more pairs than the N*log2(N) steps
        of a transform."""
        return r * r > self.n_bits * self.n

    def _check(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec)
        if vec.shape != (self.n,):
            raise InvalidInputError(
                f"vector has shape {vec.shape}, expected ({self.n},)"
            )
        return vec


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
    nothing of size 2**n_bits until a transform needs it."""
    if n_bits < 1:
        raise InvalidInputError(f"hypercube needs n >= 1, got {n_bits}")
    if n_bits > MAX_BASIS_BITS:
        raise InvalidInputError(f"hypercube basis with n = {n_bits} exceeds the memory budget")
    return HypercubeEigenbasis(n_bits)
