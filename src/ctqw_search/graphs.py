"""Graph families, validation, Laplacian matrices, and text serialization."""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DisconnectedGraphError, InvalidInputError, InvalidParameterError

# Explicit edge lists are desk scale; past this the analytic eigenbasis and
# the reduced-subspace simulator handle hypercubes without building the graph.
MAX_HYPERCUBE_BITS = 16
# Order bound of the families built from vertex pairs (complete,
# complete-minus, multipartite, Paley): complete(4096) peaks at about 272 MB
# by tracemalloc, 2.1 times its 128-MB edge array.  Its square, the floats of
# a 4096 x 4096 Laplacian (128 MiB), is the one budget of arrays that grow
# faster than the edges: ``Graph.adjacency`` refuses an order past it, and
# ``linalg._lanczos`` a basis of more floats than its square.
MAX_PAIR_VERTICES = 4096
# Miller-Rabin with the first 13 primes as bases is deterministic below this
# bound (Sorenson and Webster, Math. Comp. 86, 2017).
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981
_PRIME_TEST_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Edge rows formatted per block of exported text: a block's rows as Python
# ints and lines take about 10 MB; formatting every row at once peaked at
# 24.6 times the text of complete(1024), and a 4096-vertex export at 1.9 GB.
EXPORT_BLOCK = 1 << 16


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
        object.__setattr__(self, "n_vertices", _index(self.n_vertices, "vertex count"))
        object.__setattr__(self, "edges", _canonical_edges(self.edges))

    @classmethod
    def from_edges(
        cls,
        n_vertices: int,
        edges,
        family: str | None = None,
    ) -> "Graph":
        """Graph from any iterable of vertex pairs (or an (E, 2) array)."""
        return cls(n_vertices, edges, family)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n_vertices == other.n_vertices and self.family == other.family
                and np.array_equal(self.edges, other.edges))

    __hash__ = None

    def adjacency(self) -> np.ndarray:
        """The N x N adjacency matrix, the only array of N**2 entries a graph
        builds: refused past ``MAX_PAIR_VERTICES`` vertices before it is
        allocated."""
        if self.n_vertices > MAX_PAIR_VERTICES:
            raise InvalidParameterError(f"graph with {self.n_vertices} vertices exceeds the "
                                        f"dense limit {MAX_PAIR_VERTICES}")
        a = np.zeros((self.n_vertices, self.n_vertices))
        u, v = self.edges[self.edges[:, 0] != self.edges[:, 1]].T
        a[u, v] = 1.0
        a[v, u] = 1.0
        return a

    def degrees(self) -> np.ndarray:
        """Row sums of ``adjacency`` in O(E): a repeated edge counts once, a
        self-loop not at all.  Raises IndexError on an index out of range."""
        u, v = self.edges.T
        if u.size and (u[0] < 0 or v.max() >= self.n_vertices):
            raise IndexError(f"edge index out of range for {self.n_vertices} vertices")
        keep = u != v
        keep &= ~_repeats(u, v)
        return np.bincount(self.edges[keep].ravel(), minlength=self.n_vertices).astype(float)


def _index(value, what: str) -> int:
    """``value`` as a Python int, if it is an integer (``operator.index``)."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise InvalidInputError(f"{what} must be an integer, got {value!r}") from exc


def _canonical_edges(edges) -> np.ndarray:
    """Copy of ``edges`` as a read-only (E, 2) int64 array, rows ordered
    (min, max) and sorted; the sorts are skipped when already in order.

    Edges whose array dtype casts safely to int64 are copied as they are;
    otherwise each entry must be an integer (``operator.index``), as Python
    ints past int64, which infer a float or object array, are."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    arr = np.asarray(edges)
    try:
        if arr.size and not np.can_cast(arr.dtype, np.int64):
            arr = np.array([_index(x, "vertex index") for x in np.array(edges, dtype=object).flat],
                           dtype=np.int64).reshape(arr.shape)
        arr = np.array(arr, dtype=np.int64)
    except OverflowError as exc:
        raise InvalidInputError("edge list has a vertex index beyond the 64-bit range") from exc
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidInputError(f"edges must be vertex pairs, got an array of shape {arr.shape}")
    if not np.all(arr[:, 0] <= arr[:, 1]):
        arr = np.sort(arr, axis=1)
    u, v = arr[:, 0], arr[:, 1]
    in_order = v[1:] >= v[:-1]
    in_order &= u[1:] == u[:-1]
    in_order |= u[1:] > u[:-1]
    if not in_order.all():
        arr = arr[np.lexsort((v, u))]
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SrgParams:
    """Strongly-regular-graph parameters (order, degree, common neighbors of
    adjacent and of non-adjacent vertices).

    Feasible parameters have 0 <= a < k < n, 0 <= c <= k and k(k-a-1) =
    (n-k-1)c, and the two adjacency eigenvalues besides k have multiplicities
    f, g = ((n-1) -+ (2k + (n-1)(a-c))/sqrt(delta))/2 that are non-negative
    integers.  c = 0 is a disjoint union of cliques, which these admit.
    """

    n: int
    k: int
    a: int
    c: int

    def __post_init__(self):
        n, k, a, c = self.n, self.k, self.a, self.c
        if min(n, k, a, c) < 0:
            raise InvalidParameterError("SRG parameters must be non-negative")
        if not (a < k < n and c <= k):
            raise InvalidParameterError(
                f"infeasible SRG parameters ({n},{k},{a},{c}): need a < k < n and c <= k"
            )
        if k * (k - a - 1) != (n - k - 1) * c:
            raise InvalidParameterError(
                f"infeasible SRG parameters ({n},{k},{a},{c}): k(k-a-1) != (n-k-1)c"
            )
        # delta > 0 here; f - g = -(2k + (n-1)(a-c))/sqrt(delta)
        spread, root = 2 * k + (n - 1) * (a - c), math.isqrt(self.delta)
        if root * root != self.delta:
            integral = spread == 0 and (n - 1) % 2 == 0
        else:
            integral = spread % root == 0 and abs(spread // root) <= n - 1 and (
                (n - 1 - spread // root) % 2 == 0)
        if not integral:
            raise InvalidParameterError(
                f"infeasible SRG parameters ({n},{k},{a},{c}): "
                "eigenvalue multiplicities are not non-negative integers"
            )

    @property
    def delta(self) -> int:
        return (self.a - self.c) ** 2 + 4 * (self.k - self.c)


def complete(n: int) -> Graph:
    """Complete graph on n >= 2 vertices."""
    _check_complete(n)
    _check_pair_order(n)
    return Graph.from_edges(n, _rows(np.arange(1, n + 1)), family=f"complete{{{n}}}")


def hypercube(n: int) -> Graph:
    """Hypercube on 2**n vertices; u ~ v iff their bitmasks differ in one bit."""
    _check_hypercube(n)
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
    """Complete graph on n >= 2 vertices with l disjoint edges {0,1},...,{2l-2,2l-1} removed."""
    _check_complete_minus(n, l)
    _check_pair_order(n)
    # the deleted edge {2i, 2i+1} is row 2i's first
    lo = np.arange(1, n + 1)
    lo[: 2 * l : 2] += 1
    return Graph.from_edges(n, _rows(lo), family=f"complete_minus{{{n},{l}}}")


def paley(q: int) -> Graph:
    """Paley graph on a prime q = 1 (mod 4): u ~ v iff u - v is a nonzero square mod q."""
    _check_pair_order(q)
    _check_paley(q)
    is_residue = np.zeros(q, dtype=bool)
    is_residue[np.arange(1, q, dtype=np.int64) ** 2 % q] = True
    # -1 is a square mod q = 1 (mod 4), so row u holds v = u + d for the
    # nonzero squares d that keep v below q
    edges = _rows(np.arange(q), np.flatnonzero(is_residue))
    return Graph.from_edges(q, edges, family=f"paley{{{q}}}")


def regular_multipartite(m: int, k: int) -> Graph:
    """Complete m-partite graph with m blocks of k vertices each."""
    _check_multipartite(m, k)
    _check_pair_order(m * k)
    # row u's neighbours above it start at the next block
    lo = np.repeat(np.arange(k, m * k + 1, k), k)
    return Graph.from_edges(m * k, _rows(lo), family=f"multipartite{{{m},{k}}}")


def _check_complete(n: int) -> None:
    if n < 2:
        raise InvalidParameterError(f"complete graph needs n >= 2, got {n}")


def _check_hypercube(n: int) -> None:
    if n < 1:
        raise InvalidParameterError(f"hypercube needs n >= 1, got {n}")


def _check_complete_minus(n: int, l: int) -> None:
    if n < 2:
        raise InvalidParameterError(f"complete-minus graph needs n >= 2, got {n}")
    if l < 0:
        raise InvalidParameterError(f"edge deletions must be non-negative, got {l}")
    if 2 * l > n:
        raise InvalidParameterError(f"need 2l <= n, got n={n}, l={l}")


def _check_paley(q: int) -> None:
    if q >= PRIME_TEST_LIMIT:
        raise InvalidParameterError(
            f"paley order {q} is past the primality test's bound {PRIME_TEST_LIMIT}"
        )
    if not _is_prime(q):
        raise InvalidParameterError(f"paley order must be prime, got {q}")
    if q % 4 != 1:
        raise InvalidParameterError(f"paley order must be 1 mod 4, got {q}")


def _check_multipartite(m: int, k: int) -> None:
    if m < 2:
        raise InvalidParameterError(f"multipartite graph needs m >= 2, got {m}")
    if k < 1:
        raise InvalidParameterError(f"block size must be >= 1, got {k}")


def _srg_levels(n: int, k: int, a: int, c: int) -> list:
    """Laplacian levels k - (a-c -+ sqrt(delta))/2 and 0 of a strongly
    regular graph, the root taken to 2**-64 in exact arithmetic so that
    ``certify`` rounds each level once."""
    half_root = Fraction(math.isqrt(((a - c) ** 2 + 4 * (k - c)) << 128), 1 << 65)
    middle = k - Fraction(a - c, 2)
    return [middle + half_root, middle - half_root, 0]


# name -> (builder, parameter names, domain check, exact Laplacian levels
# lambda_max, lambda_2 and 0 of in-domain parameters).  Each builder runs its
# family's check; srg names parameters that no builder builds.  The entries
# are plain tuples: the benchmark's tracer rebinds functions held in those.
FAMILIES = {
    "complete": (complete, ("n",), _check_complete, lambda n: [n, n, 0]),
    "hypercube": (hypercube, ("n",), _check_hypercube, lambda n: [2 * n, 2, 0]),
    # l >= 1 deleted edges add the level n - 2; l = 0 is the complete graph
    "complete-minus": (complete_minus_disjoint_edges, ("n", "l"), _check_complete_minus,
                       lambda n, l: [n, n - 2 if l else n, 0]),
    # the strongly regular graph (q, (q-1)/2, (q-5)/4, (q-1)/4)
    "paley": (paley, ("q",), _check_paley,
              lambda q: _srg_levels(q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4)),
    # singleton blocks (k = 1) are the complete graph: the level (m-1)k has
    # multiplicity m(k-1) = 0
    "multipartite": (regular_multipartite, ("m", "k"), _check_multipartite,
                     lambda m, k: [m * k, (m - 1) * k if k > 1 else m * k, 0]),
    "srg": (None, ("n", "k", "a", "c"), SrgParams, _srg_levels),
}


def _family(name: str, params) -> tuple:
    """The ``FAMILIES`` entry of ``name``, refused unless it takes as many
    parameters as ``params`` holds."""
    if name not in FAMILIES:
        raise InvalidParameterError(
            f"unknown family {name!r}; choose from {', '.join(FAMILIES)}"
        )
    entry = FAMILIES[name]
    if len(params) != len(entry[1]):
        raise InvalidParameterError(
            f"family {name} takes parameters {' '.join(entry[1])}, got {len(params)}"
        )
    return entry


def _rows(lo: np.ndarray, gaps: np.ndarray | None = None) -> np.ndarray:
    """Rows (u, lo[u] + d) of each u < n = lo.size, as an (E, 2) int64 array:
    d runs over the ascending ``gaps`` (0, 1, 2, ... if None) while
    lo[u] + d < n.  In canonical order when every lo[u] + d > u."""
    n = lo.size
    counts = n - lo if gaps is None else np.searchsorted(gaps, n - lo)
    ends = np.cumsum(counts)
    edges = np.empty((counts.sum(), 2), dtype=np.int64)
    edges[:, 0] = np.repeat(np.arange(n), counts)
    # position of each row within its u's run
    d = np.arange(edges.shape[0])
    d -= np.repeat(ends - counts, counts)
    edges[:, 1] = d if gaps is None else gaps[d]
    edges[:, 1] += np.repeat(lo, counts)
    return edges


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

    A simple graph whose minimum degree d has 2d >= n - 1 is connected (Dirac,
    Proc. London Math. Soc. 2, 1952): two non-adjacent vertices have 2d > n - 2
    neighbours among the other n - 2 vertices, so they share one.  A graph of
    fewer than n - 1 edges is disconnected, decided before anything of size n
    is built, so a declared order far past the edges costs O(E).  Every other
    graph goes through the label passes of ``_connected``: at most one more
    than the largest eccentricity of a component's least vertex, and
    O(log N) on a path.
    """
    n = g.n_vertices
    if n < 1:
        return ["graph has no vertices"]
    u, v = g.edges.T
    # canonical rows: u <= v with u ascending, so u[0] is the least index
    in_range = u.size == 0 or (u[0] >= 0 and v.max() < n)
    self_loop = u == v
    duplicate = _repeats(u, v)
    too_few = n > u.size + 1
    if in_range and not (self_loop | duplicate).any():
        if too_few:
            return ["disconnected"]
        if 2 * _degrees(n, u, v).min() >= n - 1:
            return []
        return [] if _connected(n, u, v) else ["disconnected"]
    out_of_range = (u < 0) | (v >= n)
    bad = np.flatnonzero(out_of_range | self_loop | duplicate)
    reasons = ("vertex index out of range", "self-loop", "duplicate")
    kind = np.select([out_of_range[bad], self_loop[bad], duplicate[bad]], [0, 1, 2])
    diagnostics = [
        f"edge ({a},{b}): {reasons[k]}"
        for (a, b), k in zip(g.edges[bad].tolist(), kind.tolist())
    ]
    if in_range and (too_few or not _connected(n, u, v)):
        diagnostics.append("disconnected")
    return diagnostics


def _degrees(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vertex degrees of canonical edges (u, v), all within 0..n-1: u is
    sorted, so its counts are the steps of ``searchsorted``, O(n log E), and
    only the v column needs a ``bincount``."""
    return np.diff(np.searchsorted(u, np.arange(n + 1))) + np.bincount(v, minlength=n)


def _repeats(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Mask of the canonical rows (u, v) equal to the row before them."""
    repeat = np.zeros(u.size, dtype=bool)
    repeat[1:] = u[1:] == u[:-1]
    repeat[1:] &= v[1:] == v[:-1]
    return repeat


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
    """Whether canonical edges (u, v), all within 0..n-1, connect every
    vertex: label passes of hooking and pointer jumping (Shiloach and
    Vishkin, J. Algorithms 3, 1982).

    Every label is a root, a vertex labelled by itself.  A pass hooks each
    root to the smallest root across its edges, then jumps pointers until
    every label is a root again.  Labels only fall, and after k passes a
    vertex's label is at most the smallest index within distance k of it.
    So a connected graph takes at most the eccentricity of vertex 0 in
    passes, as many as a breadth-first search from it takes levels, and a
    disconnected one at most one pass more than the largest eccentricity of
    a component's least vertex.  On a path only the local minima of the
    labels stay roots, so the components at least halve every pass.
    """
    label = np.arange(n)
    while label.any():
        lu, lv = label[u], label[v]
        hooked = label.copy()
        # a root r has hooked[r] = r at the start, so hooks only fall
        np.minimum.at(hooked, lu, lv)
        np.minimum.at(hooked, lv, lu)
        jumped = hooked[hooked]
        while not np.array_equal(jumped, hooked):
            hooked, jumped = jumped, jumped[jumped]
        if np.array_equal(hooked, label):
            return False
        label = hooked
    return True


def export_dot(g: Graph) -> str:
    """Deterministic DOT text: vertices ascending, each edge once."""
    name = g.family or "G"
    lines = [f'graph "{name}" {{']
    lines.extend(f"  {v};" for v in range(g.n_vertices))
    lines.extend(_edge_blocks(g.edges, "  {} -- {};"))
    return "\n".join(lines + ["}", ""])


def _edge_blocks(edges: np.ndarray, line: str) -> list[str]:
    """``line`` formatted with each (u, v) row of ``edges``, joined by
    newlines ``EXPORT_BLOCK`` rows at a time: only one block's rows are ever
    Python objects."""
    return ["\n".join([line.format(u, v) for u, v in edges[i:i + EXPORT_BLOCK].tolist()])
            for i in range(0, len(edges), EXPORT_BLOCK)]


# After whitespace only, as the CLI's test for a DOT file has it.
_DOT_HEADER = re.compile(r'\s*graph\s+(?:"([^"]*)"|(\w+))?\s*\{')
# A body whose every line, split at each '\r' and '\n', is blank, 'v' or
# 'u -- v' in ASCII digits, spaces and tabs, the last two optionally ended by
# ';' right after the last digit.
_DOT_LINE = r"[ \t]*(?:[0-9]+(?:[ \t]*--[ \t]*[0-9]+)?;?[ \t]*)?"
_DOT_BODY = re.compile(rf"{_DOT_LINE}(?:[\r\n]{_DOT_LINE})*")
_DASH_SEMI_TO_SPACE = str.maketrans("-;", "  ")


def parse_dot(text: str) -> Graph:
    """Parse the DOT subset emitted by ``export_dot``.

    Only whitespace may precede the 'graph NAME {' header.  The body between
    its '{' and the last '}' holds lines ended by '\\n', '\\r\\n' or '\\r', each
    blank, 'v' or 'u -- v', optionally ended by ';' right after the last
    digit, with spaces and tabs around the tokens; indices are ASCII decimal
    numbers of at most 18 digits.  The order is the largest index + 1; a body
    without a vertex is refused.  Any other text is refused, naming its first
    bad line.
    """
    header = _DOT_HEADER.match(text)
    if header is None:
        raise InvalidParameterError("not a DOT graph")
    name = header.group(1) or header.group(2)
    family = name if name and name != "G" else None
    body = text[header.end():]
    close = body.rfind("}")
    if close < 0:
        raise InvalidParameterError("unterminated DOT graph")
    body = body[:close]
    scan = None
    if _DOT_BODY.fullmatch(body):
        scan = _scan_numbers(body.translate(_DASH_SEMI_TO_SPACE))
    if scan is None:
        line = _first_refused(body, lambda line: re.fullmatch(_DOT_LINE, line)
                              and not re.search("[0-9]{19}", line))
        raise InvalidParameterError(f"unsupported DOT line: {line.strip()!r}")
    line, values = scan
    if values.size == 0:
        raise InvalidParameterError("DOT graph has no vertices")
    per_line = np.bincount(line)
    edges = values[np.repeat(per_line == 2, per_line)].reshape(-1, 2)
    return Graph.from_edges(int(values.max()) + 1, edges, family=family)


def format_edge_list(g: Graph) -> str:
    """Edge-list text: one 'u v' pair per line, with header comments."""
    lines = [f"# vertices: {g.n_vertices}"]
    if g.family:
        lines.append(f"# family: {g.family}")
    lines.extend(_edge_blocks(g.edges, "{} {}"))
    return "\n".join(lines + [""])


# A comment: from a '#' to the end of its line.
_COMMENT = re.compile(r"#([^\n\r]*)")


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text.

    Lines end at '\\n', '\\r\\n' or '\\r'.  A comment runs from '#' to the end
    of its line and may hold any text; '# vertices: N' declares the order and
    '# family: NAME' the family tag, N in ASCII digits.  Every line, its
    comment removed, is blank or holds two vertex indices, ASCII decimal
    numbers of at most 18 digits, with spaces and tabs around them.  Without a
    declared order it is the largest index + 1.  Any other text is refused,
    naming its first bad line.
    """
    n_declared = family = None
    for comment in _COMMENT.finditer(text):
        n_declared, family = _directive(comment.group(1), n_declared, family)
    scan = _scan_numbers(_COMMENT.sub("", text))
    per_line = None if scan is None else np.bincount(scan[0], minlength=1)
    if per_line is None or not ((per_line == 0) | (per_line == 2)).all():
        raw = _first_refused(text, lambda raw: re.fullmatch(
            r"[ \t]*(?:[0-9]{1,18}[ \t]+[0-9]{1,18}[ \t]*)?", raw.split("#", 1)[0]))
        raise InvalidParameterError(f"bad edge-list line: {raw!r}")
    values = scan[1]
    if n_declared is None:
        if values.size == 0:
            raise InvalidParameterError("edge list is empty and declares no vertex count")
        n_declared = int(values.max()) + 1
    return Graph.from_edges(n_declared, values.reshape(-1, 2), family=family)


def _directive(comment: str, n_declared: int | None,
               family: str | None) -> tuple[int | None, str | None]:
    """The vertex count and family after an edge-list comment (the text after
    its '#'): 'vertices: N' and 'family: NAME' set them."""
    directive = comment.strip()
    header = re.match(r"vertices:\s*([0-9]+)$", directive)
    if header:
        n_declared = int(header.group(1))
    header = re.match(r"family:\s*(\S+)$", directive)
    if header:
        family = header.group(1)
    return n_declared, family


# The one line break of every text format: '\n', '\r\n' or '\r'.
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


def _first_refused(text: str, accepts) -> str:
    """The first line of ``text``, split at each ``_LINE_BREAK``, that
    ``accepts`` refuses; only refused text is split."""
    return next(line for line in _LINE_BREAK.split(text) if not accepts(line))


def _scan_numbers(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The unsigned decimal numbers of ASCII ``text``, vectorized: a pass over
    the characters, then at most 18 over the numbers.

    Returns the line of each number (a count of the '\\n' and '\\r' before
    it) and its value as int64; or None if ``text`` is not ASCII, holds a
    character other than digits, ' ', '\\t', '\\n' and '\\r', or holds a
    number of more than 18 digits.
    """
    if not text.isascii():
        return None
    chars = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    digit = (chars >= ord("0")) & (chars <= ord("9"))
    breaks = (chars == ord("\n")) | (chars == ord("\r"))
    if not (digit | breaks | (chars == ord(" ")) | (chars == ord("\t"))).all():
        return None
    # the per-character arrays are dropped as soon as they are used: with
    # the per-number ones, they are the reader's peak memory
    zero = np.int8(0)  # a Python 0 would widen the steps to int64
    step = np.diff(digit.view(np.int8), prepend=zero, append=zero)
    del digit
    starts = np.flatnonzero(step == 1)
    lengths = np.flatnonzero(step == -1)  # the ends, made lengths in place
    del step
    lengths -= starts
    longest = lengths.max(initial=0)
    if longest > 18:  # 18 digits stay below 2**63
        return None
    line = np.searchsorted(np.flatnonzero(breaks), starts)
    del breaks
    # Horner's rule, a digit position at a time, over the numbers that reach it
    values = np.zeros(starts.size, dtype=np.int64)
    for k in range(longest):
        live = np.flatnonzero(lengths > k)
        values[live] = values[live] * 10 + (chars[starts[live] + k] - ord("0"))
    return line, values


def _is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin primality of 0 <= q < ``PRIME_TEST_LIMIT``."""
    if q < 2:
        return False
    for p in _PRIME_TEST_BASES:
        if q % p == 0:
            return q == p
    # q - 1 = d * 2**r with d odd
    r = ((q - 1) & (1 - q)).bit_length() - 1
    d = (q - 1) >> r
    for base in _PRIME_TEST_BASES:
        x = pow(base, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(r - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True
