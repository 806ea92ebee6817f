"""Independent reference values for checking the package's outputs.

Nothing here imports ``ctqw_search``.  Laplacians are assembled from the
benchmark's own adjacency matrices, search parameters come from one linear
solve with the pseudo-inverse identity, hypercube quantities from Krawtchouk
sums over pairwise Hamming distances, and dynamics from an eigendecomposition
of the search Hamiltonian.

Tolerances are the acceptance tolerances of the test suite, applied relative
to ``max(1, |reference|)`` so that values printed to 12 significant digits
(optimal times reach the thousands on large hypercubes) are not rejected for
rounding.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

TOL_PARAMS = 1e-10    # search parameters: transform oracle against dense pipeline
TOL_PAIR = 1e-9       # pair-table envelope: closed form against the oracle
TOL_SPECTRUM = 1e-7   # eigenvalues, secular roots and peak probabilities
STRESS_FLOOR = 1.0 / math.sqrt(2.0) - 0.01
OPTIMALITY_THRESHOLD = 1.0 + 1.0 / math.sqrt(2.0)


def mismatch(name: str, got: float, want: float, tol: float) -> list[str]:
    """One problem line when ``got`` misses ``want``, else nothing."""
    if math.isfinite(got) and abs(got - want) <= tol * max(1.0, abs(want)):
        return []
    return [f"{name}: got {got!r}, reference {want!r} (tol {tol:g})"]


# --- graphs -----------------------------------------------------------------

def family_adjacency(name: str, params: tuple[int, ...]) -> np.ndarray:
    """Adjacency matrix of a named family, built without the package."""
    if name == "complete":
        (n,) = params
        return np.ones((n, n)) - np.eye(n)
    if name == "paley":
        (q,) = params
        squares = np.zeros(q, dtype=bool)
        squares[(np.arange(1, q) ** 2) % q] = True
        diff = (np.arange(q)[:, None] - np.arange(q)[None, :]) % q
        return squares[diff].astype(float)
    if name == "multipartite":
        m, k = params
        block = np.arange(m * k) // k
        return (block[:, None] != block[None, :]).astype(float)
    if name == "complete-minus":
        n, l = params
        adj = np.ones((n, n)) - np.eye(n)
        idx = np.arange(l)
        adj[2 * idx, 2 * idx + 1] = 0.0
        adj[2 * idx + 1, 2 * idx] = 0.0
        return adj
    raise ValueError(f"no reference for family {name!r}")


def edges_adjacency(n: int, edges: np.ndarray) -> np.ndarray:
    adj = np.zeros((n, n))
    adj[edges[:, 0], edges[:, 1]] = 1.0
    adj[edges[:, 1], edges[:, 0]] = 1.0
    return adj


def edge_set(adj: np.ndarray) -> set[tuple[int, int]]:
    u, v = np.nonzero(np.triu(adj, 1))
    return set(zip(u.tolist(), v.tolist()))


def parse_edge_text(text: str) -> tuple[int | None, set[tuple[int, int]]]:
    """Declared vertex count and canonical edge set of an edge-list file."""
    declared = None
    edges = set()
    for raw in text.splitlines():
        body, _, comment = raw.partition("#")
        if comment.strip().startswith("vertices:"):
            declared = int(comment.split(":", 1)[1])
        if body.strip():
            u, v = (int(x) for x in body.split())
            edges.add((min(u, v), max(u, v)))
    return declared, edges


def marked_vector(n: int, weights: dict[int, float]) -> np.ndarray:
    """Unit marked state, phased so its overlap with the uniform state is >= 0."""
    w = np.zeros(n)
    for v, x in weights.items():
        w[v] = x
    w /= np.linalg.norm(w)
    return -w if w.sum() < 0 else w


def preset_weights(spec: str) -> dict[int, float]:
    """Vertex weights of a CLI state preset (single:, pair:, uniform:)."""
    _, _, rest = spec.partition(":")
    return {int(v): 1.0 for v in rest.split(",")}


# --- dense graphs -----------------------------------------------------------

class DenseReference:
    """Reference quantities of one connected graph from its adjacency matrix."""

    def __init__(self, adj: np.ndarray):
        self.n = adj.shape[0]
        self.q = np.diag(adj.sum(axis=1)) - adj
        self.s = np.full(self.n, 1.0 / math.sqrt(self.n))

    @cached_property
    def _eigh(self):
        return np.linalg.eigh(self.q)

    @property
    def spectrum(self) -> np.ndarray:
        """Laplacian eigenvalues, non-increasing."""
        return self._eigh[0][::-1]

    def params(self, w: np.ndarray) -> dict:
        """Search parameters from (Q + J/N) x = w - p_n s, so x = Q^+ w."""
        return {k: float(v[0]) for k, v in self.params_many(w[:, None]).items()}

    def params_many(self, ws: np.ndarray) -> dict:
        """``params`` for each column of ``ws`` with one factorization."""
        p_n = self.s @ ws
        x = np.linalg.solve(self.q + 1.0 / self.n, ws - np.outer(self.s, p_n))
        gamma_c = np.sum(ws * x, axis=0)
        beta = np.linalg.norm(x, axis=0)
        mu1 = gamma_c * p_n / beta
        return {
            "gamma_c": gamma_c, "beta": beta, "p_n": p_n,
            "envelope": gamma_c / beta,
            "t_opt": math.pi * beta / (2.0 * gamma_c * p_n),
            "mu1": mu1, "mu2": -mu1,
        }

    def certificate(self) -> dict:
        lam = self.spectrum
        lam_max, lam_min = float(lam[0]), float(lam[-2])
        ratio = lam_max / lam_min
        return {
            "lambda_max": lam_max,
            "lambda_min_nonzero": lam_min,
            "theta": 1.0 / lam_min - 1.0 / lam_max,
            "ratio": ratio,
            "threshold": OPTIMALITY_THRESHOLD,
            "verdict": "certified" if ratio <= OPTIMALITY_THRESHOLD else "not-certified",
        }

    def grouped(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distinct Laplacian eigenvalues and the state's mass in each eigenspace."""
        lam, vec = self._eigh
        mass = (vec.T @ w) ** 2
        tol = 1e-9 * max(float(lam[-1]), 1.0)
        starts = np.concatenate(([0], np.nonzero(np.diff(lam) > tol)[0] + 1))
        return lam[starts], np.add.reduceat(mass, starts)

    def roots(self, w: np.ndarray, gamma: float) -> tuple[float, float]:
        """The two secular roots around zero: the smallest eigenvalues of
        gamma*diag(lambda) - c c^T on the grouped spectrum."""
        lam, mass = self.grouped(w)
        keep = mass > 1e-20
        c = np.sqrt(mass[keep])
        mu = np.linalg.eigvalsh(np.diag(gamma * lam[keep]) - np.outer(c, c))
        return float(mu[1]), float(mu[0])

    def dynamics(self, w: np.ndarray, gamma: float) -> "Dynamics":
        mu, vec = np.linalg.eigh(gamma * self.q - np.outer(w, w))
        return Dynamics(mu, (vec.T @ w) * (vec.T @ self.s))


class Dynamics:
    """Detection probability |<w| exp(-iHt) |s>|^2 from H's spectral sum."""

    def __init__(self, mu: np.ndarray, coupling: np.ndarray):
        self.mu = mu
        self.coupling = coupling

    def probability(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.abs(np.exp(-1j * np.outer(t, self.mu)) @ self.coupling) ** 2


# --- hypercubes -------------------------------------------------------------

def krawtchouk_table(n: int) -> np.ndarray:
    """K[j, d] = sum_i (-1)^i C(d, i) C(n-d, j-i), exact in float for n <= 50."""
    table = np.zeros((n + 1, n + 1))
    for d in range(n + 1):
        for j in range(n + 1):
            table[j, d] = sum(
                (-1) ** i * math.comb(d, i) * math.comb(n - d, j - i)
                for i in range(max(0, j - (n - d)), min(d, j) + 1)
            )
    return table


class HypercubeReference:
    """Eigenspace masses of hypercube marked states with no 2^n array."""

    def __init__(self, n_bits: int):
        self.n_bits = n_bits
        self.size = 1 << n_bits
        self.kernel = krawtchouk_table(n_bits)

    def masses(self, weights: dict[int, float]) -> np.ndarray:
        """c_j^2 = ||P_j w||^2 for each Laplacian eigenvalue 2j."""
        verts = list(weights)
        w = np.array([weights[v] for v in verts], dtype=float)
        w /= np.linalg.norm(w)
        if w.sum() < 0:
            w = -w
        dist = np.array([[bin(u ^ v).count("1") for v in verts] for u in verts])
        outer = np.outer(w, w)
        return np.array([
            float(np.sum(outer * self.kernel[j][dist])) for j in range(self.n_bits + 1)
        ]) / self.size

    def params(self, weights: dict[int, float]) -> dict:
        mass = self.masses(weights)
        lam = 2.0 * np.arange(1, self.n_bits + 1)
        p_n = math.sqrt(mass[0])
        gamma_c = float(np.sum(mass[1:] / lam))
        beta = math.sqrt(float(np.sum(mass[1:] / lam**2)))
        mu1 = gamma_c * p_n / beta
        return {
            "gamma_c": gamma_c, "beta": beta, "p_n": p_n,
            "envelope": gamma_c / beta,
            "t_opt": math.pi * beta / (2.0 * gamma_c * p_n),
            "mu1": mu1, "mu2": -mu1,
        }

    def dynamics(self, weights: dict[int, float], gamma: float) -> Dynamics:
        """Exact dynamics on span{P_j w}: H = gamma*diag(2j) - c c^T there, and
        the uniform state is the j = 0 basis vector."""
        mass = self.masses(weights)
        keep = np.nonzero(mass > 1e-20)[0]
        c = np.sqrt(mass[keep])
        mu, vec = np.linalg.eigh(np.diag(gamma * 2.0 * keep) - np.outer(c, c))
        s = (keep == 0).astype(float)
        return Dynamics(mu, (vec.T @ c) * (vec.T @ s))


# --- checks -----------------------------------------------------------------

def check_params(report: dict, ref: dict) -> list[str]:
    problems = []
    for key in ("gamma_c", "beta", "p_n", "envelope", "t_opt", "mu1", "mu2"):
        problems += mismatch(key, float(report[key]), float(ref[key]), TOL_PARAMS)
    return problems


def check_certificate(report: dict, ref: dict) -> list[str]:
    problems = []
    for key in ("lambda_max", "lambda_min_nonzero", "theta", "ratio", "threshold"):
        problems += mismatch(key, float(report[key]), float(ref[key]), TOL_SPECTRUM)
    if report["verdict"] != ref["verdict"]:
        problems.append(f"verdict: got {report['verdict']!r}, reference {ref['verdict']!r}")
    return problems


def check_simulation(summary: dict, ref_params: dict, dynamics: Dynamics,
                     steps: int = 1024) -> list[str]:
    """Peak against the reference dynamics: the probability at the reported
    peak time matches, and no point of the default grid beats it."""
    problems = mismatch("t_opt", summary["t_opt"], ref_params["t_opt"], TOL_PARAMS)
    envelope_sq = ref_params["envelope"] ** 2
    problems += mismatch("envelope_squared", summary["envelope_squared"],
                         envelope_sq, TOL_PARAMS)
    peak = float(summary["peak_probability"])
    at_peak = float(dynamics.probability(summary["peak_time"])[0])
    problems += mismatch("peak_probability", peak, at_peak, TOL_SPECTRUM)
    grid = dynamics.probability(np.linspace(0.0, 2.0 * ref_params["t_opt"], steps))
    if grid.max() > peak + TOL_SPECTRUM:
        problems.append(f"peak_probability {peak!r} below grid maximum {grid.max()!r}")
    problems += mismatch("peak_deviation", summary["peak_deviation"],
                         abs(peak - envelope_sq) / envelope_sq, TOL_PARAMS)
    return problems
