"""Graph families, validation, Laplacian matrices, and text serialization."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraphError, InvalidInputError, InvalidParameterError

# Explicit edge lists are desk scale; past this the analytic eigenbasis and
# the reduced-subspace simulator handle hypercubes without building the graph.
MAX_HYPERCUBE_BITS = 16


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 0..n_vertices-1 with an optional family tag.

    Edges are stored canonically: each pair ordered (min, max), the whole
    sequence sorted.  Duplicates and self-loops are representable so that
    ``validate`` can report them; the family generators never produce any.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    family: str | None = None

    @classmethod
    def from_edges(
        cls,
        n_vertices: int,
        edges,
        family: str | None = None,
    ) -> "Graph":
        canon = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
        return cls(int(n_vertices), canon, family)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n_vertices, self.n_vertices))
        for u, v in self.edges:
            if u != v:
                a[u, v] = 1.0
                a[v, u] = 1.0
        return a

    def degrees(self) -> np.ndarray:
        return self.adjacency().sum(axis=1)


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
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, edges, family=f"complete{{{n}}}")


def hypercube(n: int) -> Graph:
    """Hypercube on 2**n vertices; u ~ v iff their bitmasks differ in one bit."""
    if n < 1:
        raise InvalidParameterError(f"hypercube needs n >= 1, got {n}")
    if n > MAX_HYPERCUBE_BITS:
        raise InvalidParameterError(f"hypercube with n = {n} exceeds the memory budget")
    size = 1 << n
    edges = [(u, u ^ (1 << b)) for u in range(size) for b in range(n) if u < u ^ (1 << b)]
    return Graph.from_edges(size, edges, family=f"hypercube{{{n}}}")


def complete_minus_disjoint_edges(n: int, l: int) -> Graph:
    """Complete graph on n vertices with l disjoint edges {0,1},...,{2l-2,2l-1} removed."""
    if l < 0:
        raise InvalidParameterError(f"edge deletions must be non-negative, got {l}")
    if 2 * l > n:
        raise InvalidParameterError(f"need 2l <= n, got n={n}, l={l}")
    removed = {(2 * i, 2 * i + 1) for i in range(l)}
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in removed
    ]
    return Graph.from_edges(n, edges, family=f"complete_minus{{{n},{l}}}")


def paley(q: int) -> Graph:
    """Paley graph on a prime q = 1 (mod 4): u ~ v iff u - v is a nonzero square mod q."""
    if not _is_prime(q):
        raise InvalidParameterError(f"paley order must be prime, got {q}")
    if q % 4 != 1:
        raise InvalidParameterError(f"paley order must be 1 mod 4, got {q}")
    residues = {(x * x) % q for x in range(1, q)}
    edges = [
        (u, v)
        for u in range(q)
        for v in range(u + 1, q)
        if (u - v) % q in residues
    ]
    return Graph.from_edges(q, edges, family=f"paley{{{q}}}")


def regular_multipartite(m: int, k: int) -> Graph:
    """Complete m-partite graph with m blocks of k vertices each."""
    if m < 2:
        raise InvalidParameterError(f"multipartite graph needs m >= 2, got {m}")
    if k < 1:
        raise InvalidParameterError(f"block size must be >= 1, got {k}")
    size = m * k
    edges = [
        (u, v)
        for u in range(size)
        for v in range(u + 1, size)
        if u // k != v // k
    ]
    return Graph.from_edges(size, edges, family=f"multipartite{{{m},{k}}}")


def laplacian(g: Graph) -> np.ndarray:
    """Positive-semidefinite Laplacian: degree matrix minus adjacency matrix."""
    a = g.adjacency()
    return np.diag(a.sum(axis=1)) - a


def validate(g: Graph) -> list[str]:
    """Check simplicity and connectivity; return a diagnostic per violation."""
    diagnostics: list[str] = []
    if g.n_vertices < 1:
        return ["graph has no vertices"]
    out_of_range = False
    seen: set[tuple[int, int]] = set()
    for u, v in g.edges:
        if not (0 <= u < g.n_vertices and 0 <= v < g.n_vertices):
            diagnostics.append(f"edge ({u},{v}): vertex index out of range")
            out_of_range = True
            continue
        if u == v:
            diagnostics.append(f"edge ({u},{v}): self-loop")
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            diagnostics.append(f"edge ({u},{v}): duplicate")
        seen.add(key)
    if not out_of_range and not _connected(g.n_vertices, seen):
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


def _connected(n: int, edges: set[tuple[int, int]]) -> bool:
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for v in neighbors[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == n


def export_dot(g: Graph) -> str:
    """Deterministic DOT text: vertices ascending, each edge once."""
    name = g.family or "G"
    lines = [f'graph "{name}" {{']
    lines.extend(f"  {v};" for v in range(g.n_vertices))
    lines.extend(f"  {u} -- {v};" for u, v in g.edges)
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
    lines.extend(f"{u} {v}" for u, v in g.edges)
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
