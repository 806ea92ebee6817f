"""Closed-form jump-rate and bandwidth sums for marked states on hypercubes.

Every formula here is a finite binomial sum evaluated in the analytic Walsh
eigenbasis where the hypercube Laplacian eigenvalue of index z is
2*popcount(z).  The transform-based ``hypercube_exact`` serves as the oracle
for all closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import DegenerateStateError, InvalidInputError, InvalidParameterError
from .linalg import hypercube_eigenbasis
from .search import MarkedState, _check_dimension, _level_sums


@dataclass(frozen=True)
class PairSpec:
    """Two marked hypercube vertices, identified up to symmetry by their
    coordinate count n and Hamming distance m."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError(f"need n >= 1 coordinates, got {self.n}")
        if self.m == 0:
            raise InvalidParameterError("coincident vertices: a pair state needs distance >= 1")
        if not 1 <= self.m <= self.n:
            raise InvalidParameterError(
                f"Hamming distance must lie in 1..{self.n}, got {self.m}"
            )


@dataclass(frozen=True)
class ClosedFormResult:
    """Closed-form gamma_c and beta with their intermediate binomial sums.

    ``a1``/``a2``/``b1``/``b2`` are the bare sums before the power-of-two
    scaling: pair states scale by 2**(n-1), weight-1 states by 2**n.
    """

    n: int
    m: int
    gamma_c: float
    beta: float
    envelope: float
    a1: float
    a2: float
    b1: float
    b2: float


def antipodal_pair(n: int) -> ClosedFormResult:
    """Uniform state on two antipodal vertices: single-sum closed form.

    This is ``general_pair(n, n)``: at distance m = n the sums a1 and b1 are
    empty, which leaves the even-index binomial sums a2 and b2.
    """
    return general_pair(n, n)


def general_pair(n: int, m: int) -> ClosedFormResult:
    """Uniform state on two vertices at Hamming distance m.

    Of the z-indexed overlap terms only those with an even count of ones on
    the m differing coordinates survive, which collapses the 2**n-term sum to
    the double binomial sums below.  Valid for all m from 1 to n.
    """
    spec = PairSpec(n, m)
    n, m = spec.n, spec.m
    a1 = math.fsum(
        math.comb(n - m, l) * math.comb(m, 2 * p) / (2 * (l + 2 * p))
        for l in range(1, n - m + 1)
        for p in range(0, m // 2 + 1)
    )
    a2 = math.fsum(math.comb(m, 2 * p) / (4 * p) for p in range(1, m // 2 + 1))
    b1 = math.fsum(
        math.comb(n - m, l) * math.comb(m, 2 * p) / (4 * (l + 2 * p) ** 2)
        for l in range(1, n - m + 1)
        for p in range(0, m // 2 + 1)
    )
    b2 = math.fsum(math.comb(m, 2 * p) / (16 * p * p) for p in range(1, m // 2 + 1))
    scale = 2.0 ** (n - 1)
    gamma_c = (a1 + a2) / scale
    beta_sq = (b1 + b2) / scale
    if beta_sq <= 0.0:
        # only n = 1, m = 1: the pair state is the uniform state on K_2
        raise DegenerateStateError("pair state equals the uniform state")
    beta = math.sqrt(beta_sq)
    return ClosedFormResult(n, m, gamma_c, beta, gamma_c / beta, a1, a2, b1, b2)


def weight1_uniform(n: int, m: int) -> ClosedFormResult:
    """Uniform state over the m vertices whose bitmask is a single low bit.

    The overlap kernel is (m - 2p)**2 / m where p counts ones of z among the
    m marked coordinates; the scaling is 2**n.
    """
    if n < 1:
        raise InvalidParameterError(f"need n >= 1 coordinates, got {n}")
    if not 1 <= m <= n:
        raise InvalidParameterError(f"need 1 <= m <= {n} marked coordinates, got {m}")
    a1 = math.fsum(
        math.comb(n - m, l) * math.comb(m, p) * (m - 2 * p) ** 2 / (2 * m * (l + p))
        for l in range(1, n - m + 1)
        for p in range(0, m + 1)
    )
    a2 = math.fsum(
        math.comb(m, p) * (m - 2 * p) ** 2 / (2 * m * p) for p in range(1, m + 1)
    )
    b1 = math.fsum(
        math.comb(n - m, l) * math.comb(m, p) * (m - 2 * p) ** 2
        / (m * (2 * (l + p)) ** 2)
        for l in range(1, n - m + 1)
        for p in range(0, m + 1)
    )
    b2 = math.fsum(
        math.comb(m, p) * (m - 2 * p) ** 2 / (m * (2 * p) ** 2) for p in range(1, m + 1)
    )
    scale = 2.0**n
    gamma_c = (a1 + a2) / scale
    beta = math.sqrt((b1 + b2) / scale)
    return ClosedFormResult(n, m, gamma_c, beta, gamma_c / beta, a1, a2, b1, b2)


def compose_inclusion_exclusion(
    m: int,
    pair_gammas: Mapping[tuple[int, int], float],
    single_gammas: Sequence[float],
    pair_beta_sqs: Mapping[tuple[int, int], float],
    single_beta_sqs: Sequence[float],
) -> tuple[float, float]:
    """gamma_c and beta of a uniform m-vertex state from pair and single sums.

    The pair inputs are the unnormalized interference sums (no 1/2 factor)
    keyed by index pairs (j, l) with j < l over range(m); singles are plain
    per-vertex sums.  Exact identity:

        gamma = (sum_pairs - (m - 2) * sum_singles) / m

    and the same combination for beta**2.
    """
    if m < 2:
        raise InvalidParameterError(f"composition needs m >= 2 vertices, got {m}")
    if len(single_gammas) != m or len(single_beta_sqs) != m:
        raise InvalidInputError(f"expected {m} single-vertex values")
    keys = [(j, l) for j in range(m) for l in range(j + 1, m)]
    for key in keys:
        if key not in pair_gammas or key not in pair_beta_sqs:
            raise InvalidInputError(f"missing pair value for vertices {key}")
    gamma_c = (
        math.fsum(pair_gammas[k] for k in keys)
        - (m - 2) * math.fsum(single_gammas)
    ) / m
    beta_sq = (
        math.fsum(pair_beta_sqs[k] for k in keys)
        - (m - 2) * math.fsum(single_beta_sqs)
    ) / m
    return gamma_c, math.sqrt(beta_sq)


def pair_sums(n: int, u: int, v: int) -> tuple[float, float]:
    """Unnormalized interference sums (gamma_jl, beta_sq_jl) for a vertex pair.

    These feed ``compose_inclusion_exclusion``; they equal twice the pair-state
    closed form, and by translation symmetry depend only on the distance.
    """
    if u == v:
        raise InvalidParameterError("coincident vertices: a pair needs distance >= 1")
    dist = int(u ^ v).bit_count()
    result = general_pair(n, dist)
    return 2.0 * result.gamma_c, 2.0 * result.beta**2


def single_vertex_sums(n: int) -> tuple[float, float]:
    """(gamma_j, beta_sq_j) of any single marked vertex; vertex-independent."""
    result = weight1_uniform(n, 1)
    return result.gamma_c, result.beta**2


def hypercube_exact(n: int, marked: MarkedState) -> tuple[float, float, float]:
    """Exact (gamma_c, beta, p_n) of a marked state via the fast transform.

    O(N log N) whatever the support: the state's support and values are
    scattered into one vector of N = 2**n entries, whose squared Walsh
    transform is summed by Hamming weight
    (``HypercubeEigenbasis.transform_masses``), exact up to rounding in any
    summation order.  This is the oracle against
    which every closed form, and the Krawtchouk route of ``search_params``,
    is checked.
    """
    basis = hypercube_eigenbasis(n)
    _check_dimension(basis, marked)
    p_n, gamma_c, beta = _level_sums(*basis.transform_masses(marked.vertices, marked.values))
    return float(gamma_c), float(beta), float(p_n)


def krawtchouk(n: int, j: int, d: int) -> int:
    """Sum of parities (-1)**popcount(z & mask) over weight-j indices z, where
    popcount(mask) = d; the eigenspace overlap kernel of the hypercube."""
    if not (0 <= j <= n and 0 <= d <= n):
        raise InvalidParameterError(f"need 0 <= j, d <= {n}, got j={j}, d={d}")
    lo = max(0, j - (n - d))
    hi = min(d, j)
    return sum(
        (-1) ** i * math.comb(d, i) * math.comb(n - d, j - i) for i in range(lo, hi + 1)
    )
