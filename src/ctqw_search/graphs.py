"""Graph families, validation, Laplacian matrices, and text serialization."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraphError, InvalidInputError, InvalidParameterError

# Explicit edge lists are desk scale; past this the analytic eigenbasis and
# the reduced-subspace simulator handle hypercubes without building the graph.
MAX_HYPERCUBE_BITS = 16
# Order bound of the families built from all vertex pairs: at 4096 vertices
# the pair arrays take about 270 MB.
MAX_PAIR_VERTICES = 4096


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph on vertices 0..n_vertices-1 with an optional family tag.

    ``edges`` is a read-only (E, 2) int64 array in canonical order: each row
    ordered (min, max), the rows sorted.  Duplicates and self-loops are kept
    so that ``validate`` can report them; the family generators never produce
    any.  Graphs compare by value and are unhashable.
    """

    n_vertices: int
    edges: np.ndarray
    family: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "edges", _canonical_edges(self.edges))

    @classmethod
    def from_edges(
        cls,
        n_vertices: int,
        edges,
        family: str | None = None,
    ) -> "Graph":
        """Graph from any iterable of vertex pairs (or an (E, 2) array)."""
        return cls(int(n_vertices), edges, family)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n_vertices == other.n_vertices and self.family == other.family
                and np.array_equal(self.edges, other.edges))

    __hash__ = None

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n_vertices, self.n_vertices))
        u, v = self.edges[self.edges[:, 0] != self.edges[:, 1]].T
        a[u, v] = 1.0
        a[v, u] = 1.0
        return a

    def degrees(self) -> np.ndarray:
        return self.adjacency().sum(axis=1)


def _canonical_edges(edges) -> np.ndarray:
    """Copy of ``edges`` as a read-only (E, 2) int64 array, rows ordered
    (min, max) and sorted; the sorts are skipped when already in order."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        arr = np.array(edges, dtype=np.int64)
    except OverflowError as exc:
        raise InvalidInputError("edge list has a vertex index beyond the 64-bit range") from exc
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidInputError(f"edges must be vertex pairs, got an array of shape {arr.shape}")
    if not np.all(arr[:, 0] <= arr[:, 1]):
        arr = np.sort(arr, axis=1)
    u, v = arr[:, 0], arr[:, 1]
    du = np.diff(u)
    if not np.all((du > 0) | ((du == 0) & (np.diff(v) >= 0))):
        arr = arr[np.lexsort((v, u))]
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SrgParams:
    """Strongly-regular-graph parameters (order, degree, common neighbors)."""

    n: int
    k: int
    a: int
    c: int

    def __post_init__(self):
        if min(self.n, self.k, self.a, self.c) < 0:
            raise InvalidParameterError("SRG parameters must be non-negative")
        if self.k * (self.k - self.a - 1) != (self.n - self.k - 1) * self.c:
            raise InvalidParameterError(
                f"infeasible SRG parameters ({self.n},{self.k},{self.a},{self.c}): "
                "k(k-a-1) != (n-k-1)c"
            )
        if self.delta < 0:
            raise InvalidParameterError("SRG discriminant is negative")

    @property
    def delta(self) -> int:
        return (self.a - self.c) ** 2 + 4 * (self.k - self.c)


def complete(n: int) -> Graph:
    """Complete graph on n >= 2 vertices."""
    if n < 2:
        raise InvalidParameterError(f"complete graph needs n >= 2, got {n}")
    return Graph.from_edges(n, _pairs(n), family=f"complete{{{n}}}")


def hypercube(n: int) -> Graph:
    """Hypercube on 2**n vertices; u ~ v iff their bitmasks differ in one bit."""
    if n < 1:
        raise InvalidParameterError(f"hypercube needs n >= 1, got {n}")
    if n > MAX_HYPERCUBE_BITS:
        raise InvalidParameterError(f"hypercube with n = {n} exceeds the memory budget")
    size = 1 << n
    u = np.repeat(np.arange(size, dtype=np.int64), n)
    v = u ^ np.tile(np.int64(1) << np.arange(n, dtype=np.int64), size)
    # each u lists its neighbours u + 2**b (bit b clear) with b ascending: sorted
    up = u < v
    return Graph.from_edges(size, np.stack([u[up], v[up]], axis=1),
                            family=f"hypercube{{{n}}}")


def complete_minus_disjoint_edges(n: int, l: int) -> Graph:
    """Complete graph on n vertices with l disjoint edges {0,1},...,{2l-2,2l-1} removed."""
    if l < 0:
        raise InvalidParameterError(f"edge deletions must be non-negative, got {l}")
    if 2 * l > n:
        raise InvalidParameterError(f"need 2l <= n, got n={n}, l={l}")
    edges = _pairs(n)
    u, v = edges.T
    removed = (v == u + 1) & (u % 2 == 0) & (u < 2 * l)
    return Graph.from_edges(n, edges[~removed], family=f"complete_minus{{{n},{l}}}")


def paley(q: int) -> Graph:
    """Paley graph on a prime q = 1 (mod 4): u ~ v iff u - v is a nonzero square mod q."""
    # bounded before the trial-division primality test and the residue table
    _check_pair_order(q)
    if not _is_prime(q):
        raise InvalidParameterError(f"paley order must be prime, got {q}")
    if q % 4 != 1:
        raise InvalidParameterError(f"paley order must be 1 mod 4, got {q}")
    is_residue = np.zeros(q, dtype=bool)
    is_residue[np.arange(1, q, dtype=np.int64) ** 2 % q] = True
    edges = _pairs(q)
    u, v = edges.T
    return Graph.from_edges(q, edges[is_residue[(u - v) % q]], family=f"paley{{{q}}}")


def regular_multipartite(m: int, k: int) -> Graph:
    """Complete m-partite graph with m blocks of k vertices each."""
    if m < 2:
        raise InvalidParameterError(f"multipartite graph needs m >= 2, got {m}")
    if k < 1:
        raise InvalidParameterError(f"block size must be >= 1, got {k}")
    edges = _pairs(m * k)
    u, v = edges.T
    return Graph.from_edges(m * k, edges[u // k != v // k],
                            family=f"multipartite{{{m},{k}}}")


def _pairs(n: int) -> np.ndarray:
    """All pairs u < v of n vertices as (E, 2) rows in canonical order."""
    _check_pair_order(n)
    return np.stack(np.triu_indices(n, 1), axis=1)


def _check_pair_order(n: int) -> None:
    if n > MAX_PAIR_VERTICES:
        raise InvalidParameterError(
            f"graph with {n} vertices exceeds the pair budget of {MAX_PAIR_VERTICES}"
        )


def laplacian(g: Graph) -> np.ndarray:
    """Positive-semidefinite Laplacian: degree matrix minus adjacency matrix."""
    q = g.adjacency()
    degrees = q.sum(axis=1)
    np.negative(q, out=q)
    q[np.diag_indices(g.n_vertices)] += degrees
    return q


def validate(g: Graph) -> list[str]:
    """Check simplicity and connectivity; return a diagnostic per violation.

    Edge diagnostics come in edge order, one per offending edge: an index out
    of range, else a self-loop, else a repeat of an earlier valid edge.
    """
    n = g.n_vertices
    if n < 1:
        return ["graph has no vertices"]
    u, v = g.edges.T
    # canonical rows: u <= v, and equal rows sit next to each other
    out_of_range = (u < 0) | (v >= n)
    self_loop = ~out_of_range & (u == v)
    duplicate = np.zeros(u.size, dtype=bool)
    duplicate[1:] = (u[1:] == u[:-1]) & (v[1:] == v[:-1])
    duplicate &= ~out_of_range & ~self_loop
    reasons = ("vertex index out of range", "self-loop", "duplicate")
    kind = np.select([out_of_range, self_loop, duplicate], [0, 1, 2], default=-1)
    bad = np.flatnonzero(kind >= 0)
    diagnostics = [
        f"edge ({a},{b}): {reasons[k]}"
        for (a, b), k in zip(g.edges[bad].tolist(), kind[bad].tolist())
    ]
    if not out_of_range.any() and not _connected(n, u, v):
        diagnostics.append("disconnected")
    return diagnostics


def _check_graph(g: Graph) -> None:
    """Raise if ``validate`` reports a violation: a disconnected graph is a
    domain error, any other violation malformed input."""
    diagnostics = validate(g)
    if not diagnostics:
        return
    if any("disconnected" in d for d in diagnostics):
        raise DisconnectedGraphError("; ".join(diagnostics))
    raise InvalidInputError("invalid graph: " + "; ".join(diagnostics))


def _connected(n: int, u: np.ndarray, v: np.ndarray) -> bool:
    """Whether edges (u, v), all within 0..n-1, connect every vertex:
    frontier-at-a-time breadth-first search over a CSR neighbour array."""
    tail = np.concatenate([u, v])
    neighbors = np.concatenate([v, u])[np.argsort(tail)]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=n), out=offsets[1:])
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    slot = np.empty(n, dtype=np.int64)
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        lo, counts = offsets[frontier], offsets[frontier + 1] - offsets[frontier]
        # flat CSR positions of every neighbour of every frontier vertex
        ends = np.cumsum(counts)
        at = np.arange(ends[-1]) + np.repeat(lo - (ends - counts), counts)
        reached = neighbors[at]
        reached = reached[~seen[reached]]
        seen[reached] = True
        # keep one copy of each vertex: the position whose write survived
        slot[reached] = np.arange(reached.size)
        frontier = reached[slot[reached] == np.arange(reached.size)]
    return bool(seen.all())


def export_dot(g: Graph) -> str:
    """Deterministic DOT text: vertices ascending, each edge once."""
    name = g.family or "G"
    lines = [f'graph "{name}" {{']
    lines.extend(f"  {v};" for v in range(g.n_vertices))
    lines.extend(f"  {u} -- {v};" for u, v in g.edges.tolist())
    lines.append("}")
    return "\n".join(lines) + "\n"


_DOT_HEADER = re.compile(r'graph\s+(?:"([^"]*)"|(\w+))?\s*\{')
_DOT_EDGE = re.compile(r"^(\d+)\s*--\s*(\d+);?$")
_DOT_VERTEX = re.compile(r"^(\d+);?$")


def parse_dot(text: str) -> Graph:
    """Parse the DOT subset emitted by ``export_dot``."""
    header = _DOT_HEADER.search(text)
    if header is None:
        raise InvalidParameterError("not a DOT graph")
    name = header.group(1) or header.group(2)
    family = name if name and name != "G" else None
    body = text[header.end():]
    close = body.rfind("}")
    if close < 0:
        raise InvalidParameterError("unterminated DOT graph")
    vertices: set[int] = set()
    edges: list[tuple[int, int]] = []
    for raw in body[:close].splitlines():
        line = raw.strip()
        if not line:
            continue
        edge = _DOT_EDGE.match(line)
        if edge:
            u, v = int(edge.group(1)), int(edge.group(2))
            vertices.update((u, v))
            edges.append((u, v))
            continue
        vertex = _DOT_VERTEX.match(line)
        if vertex:
            vertices.add(int(vertex.group(1)))
            continue
        raise InvalidParameterError(f"unsupported DOT line: {line!r}")
    if not vertices:
        raise InvalidParameterError("DOT graph has no vertices")
    return Graph.from_edges(max(vertices) + 1, edges, family=family)


def format_edge_list(g: Graph) -> str:
    """Edge-list text: one 'u v' pair per line, with header comments."""
    lines = [f"# vertices: {g.n_vertices}"]
    if g.family:
        lines.append(f"# family: {g.family}")
    lines.extend(f"{u} {v}" for u, v in g.edges.tolist())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text; '#' starts a comment, vertex count from the header
    comment when present, otherwise max index + 1."""
    n_declared: int | None = None
    family: str | None = None
    edges: list[tuple[int, int]] = []
    for raw in text.splitlines():
        comment = raw.split("#", 1)
        if len(comment) == 2:
            directive = comment[1].strip()
            header = re.match(r"vertices:\s*(\d+)$", directive)
            if header:
                n_declared = int(header.group(1))
            header = re.match(r"family:\s*(\S+)$", directive)
            if header:
                family = header.group(1)
        line = comment[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidParameterError(f"bad edge-list line: {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InvalidParameterError(f"bad edge-list line: {raw!r}") from exc
        edges.append((u, v))
    if n_declared is None:
        if not edges:
            raise InvalidParameterError("edge list is empty and declares no vertex count")
        n_declared = max(max(u, v) for u, v in edges) + 1
    return Graph.from_edges(n_declared, edges, family=family)


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True
