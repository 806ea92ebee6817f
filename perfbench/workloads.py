"""Seeded inputs and the fixed operation list of each workload.

Every workload is a list of operations that one client runs in order, each
after the previous one returns (a closed loop).  CLI operations call
``ctqw_search.cli.main(argv)`` in-process with stdout captured; the package
sees only argv and the graph and state files written here.  The seed picks
marked vertices, weights and random edges; instance sizes and the operation
count do not depend on it.

Why these workloads:

- families-dense: the generated dense families, where Python edge handling
  (build, ``validate``, adjacency) and the three ``eig_sym`` calls per
  ``simulate`` do most of the work.
- edgelist-general: random sparse graphs read from edge-list and DOT files
  and a family written with ``family --output``; dense ``eigh`` does most of
  the work and no closed form applies.
- hypercube-analytic: no graph and no N x N matrix; the fast Walsh-Hadamard
  transform over 2^n vectors, the Krawtchouk loop of ``run_hypercube`` and
  the closed forms do the work.
- state-sweep: library calls only; one decomposition per graph serves many
  ``search_params``/``solve_mu`` queries and ``stress_random_states``.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import ctqw_search as cs
from ctqw_search import cli

import reference as ref

NAMES = ("families-dense", "edgelist-general", "hypercube-analytic", "state-sweep")


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


@dataclass
class Op:
    """One operation: ``call`` is timed; ``keep`` reduces its result to what
    ``check`` needs, untimed; ``check`` returns a list of problems; ``shape``
    names the instance sizes, which no seed changes."""

    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    shape: tuple
    keep: Callable[[Any], Any] = lambda result: result


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # traced functions that must record calls on this workload
    required: tuple[str, ...]


def build(name: str, seed: int, work: Path, smoke: bool = False) -> Workload:
    """Generate the inputs of a workload under ``work`` and its operation list."""
    builders = {
        "families-dense": families_dense,
        "edgelist-general": edgelist_general,
        "hypercube-analytic": hypercube_analytic,
        "state-sweep": state_sweep,
    }
    work.mkdir(parents=True, exist_ok=True)
    return builders[name](np.random.default_rng(seed), work, smoke)


# --- CLI operations ---------------------------------------------------------

def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_op(kind: str, argv: list[str], shape: tuple,
           judge: Callable[[str], list[str]]) -> Op:
    def check(result: CliResult) -> list[str]:
        if result.code != 0:
            return [f"exit code {result.code}: {result.err.strip()}"]
        try:
            return judge(result.out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]

    return Op(kind, " ".join(argv), lambda: run_cli(argv), check, shape)


def analyze_op(graph: str, state: str, shape: tuple, params: Callable[[], dict]) -> Op:
    return cli_op("analyze", ["analyze", graph, state, "--json"], shape,
                  lambda out: ref.check_params(json.loads(out), params()))


def certify_op(graph: str, shape: tuple, dense: Callable[[], ref.DenseReference]) -> Op:
    return cli_op("certify", ["certify", graph, "--json"], shape,
                  lambda out: ref.check_certificate(json.loads(out), dense().certificate()))


def simulate_op(graph: str, state: str, shape: tuple,
                params: Callable[[], dict], dynamics: Callable[[float], ref.Dynamics]) -> Op:
    def judge(out: str) -> list[str]:
        p = params()
        return ref.check_simulation(json.loads(out), p, dynamics(p["gamma_c"]))

    return cli_op("simulate", ["simulate", graph, state], shape, judge)


# --- seeded inputs ----------------------------------------------------------

def distinct_vertices(rng, n: int, k: int) -> list[int]:
    chosen: list[int] = []
    while len(chosen) < k:
        v = int(rng.integers(0, n))
        if v not in chosen:
            chosen.append(v)
    return chosen


def preset(kind: str, vertices: list[int]) -> str:
    return f"{kind}:" + ",".join(str(v) for v in vertices)


def state_preset(rng, n: int, support: int) -> str:
    kind = {1: "single", 2: "pair"}.get(support, "uniform")
    return preset(kind, distinct_vertices(rng, n, support))


def positive_weights(rng, n: int, support: int) -> dict[int, float]:
    verts = distinct_vertices(rng, n, support)
    w = rng.uniform(0.5, 1.5, size=support)
    w /= np.linalg.norm(w)
    return dict(zip(verts, w.tolist()))


def write_state_file(path: Path, weights: dict[int, float]) -> str:
    path.write_text("# vertex weight\n" + "".join(f"{v} {x!r}\n" for v, x in weights.items()))
    return str(path)


def sparse_connected_edges(rng, n: int, degree: int) -> np.ndarray:
    """Random spanning tree plus uniform random edges up to n*degree/2 edges."""
    target = n * degree // 2
    order = rng.permutation(n)
    parents = order[rng.integers(0, np.arange(1, n))]
    edges = {(min(u, v), max(u, v)) for u, v in zip(order[1:].tolist(), parents.tolist())}
    while len(edges) < target:
        for u, v in rng.integers(0, n, size=(target, 2)).tolist():
            if u != v:
                edges.add((min(u, v), max(u, v)))
            if len(edges) == target:
                break
    return np.array(sorted(edges))


def write_graph(path: Path, n: int, edges: np.ndarray, rng) -> str:
    """Edge-list or DOT file (by suffix), edges shuffled and randomly oriented."""
    order = rng.permutation(len(edges))
    flip = rng.random(len(edges)) < 0.5
    pairs = [(v, u) if f else (u, v) for (u, v), f in zip(edges[order].tolist(), flip.tolist())]
    if path.suffix == ".dot":
        lines = ["graph G {"] + [f"  {v};" for v in range(n)]
        lines += [f"  {u} -- {v};" for u, v in pairs] + ["}"]
    else:
        lines = [f"# vertices: {n}"] + [f"{u} {v}" for u, v in pairs]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# --- families-dense ---------------------------------------------------------

def families_dense(rng, work: Path, smoke: bool) -> Workload:
    k = 3 if smoke else 6
    # (family, parameters, [(subcommand, marked-state support)])
    plan = [
        ("complete", (16,) if smoke else (512,),
         [("analyze", k), ("certify", 0), ("simulate", 1)]),
        ("multipartite", (3, 4) if smoke else (8, 64),
         [("analyze", 2), ("certify", 0), ("simulate", k)]),
        ("paley", (13,) if smoke else (1009,), [("analyze", 1)]),
        ("complete-minus", (12, 3) if smoke else (1024, 100),
         [("analyze", 2), ("certify", 0)]),
    ]
    ops = []
    for family, params, commands in plan:
        spec = f"{family}:" + ",".join(map(str, params))
        dense = functools.cache(
            lambda family=family, params=params: ref.DenseReference(
                ref.family_adjacency(family, params)))
        n = dense_order(family, params)
        for command, support in commands:
            shape = (command, spec, support)
            if command == "certify":
                ops.append(certify_op(spec, shape, dense))
                continue
            state = state_preset(rng, n, support)
            w = ref.marked_vector(n, ref.preset_weights(state))
            params_ref = functools.cache(lambda dense=dense, w=w: dense().params(w))
            if command == "analyze":
                ops.append(analyze_op(spec, state, shape, params_ref))
            else:
                ops.append(simulate_op(spec, state, shape, params_ref,
                                       lambda g, dense=dense, w=w: dense().dynamics(w, g)))
    return Workload("families-dense", ops, (
        "graphs.complete", "graphs.paley", "graphs.regular_multipartite",
        "graphs.complete_minus_disjoint_edges", "graphs.validate", "graphs.laplacian",
        "linalg.eig_sym", "search.search_params", "optimality.certify", "simulate.run",
        "cli.cmd_analyze", "cli.cmd_certify", "cli.cmd_simulate"))


def dense_order(family: str, params: tuple[int, ...]) -> int:
    return params[0] * params[1] if family == "multipartite" else params[0]


# --- edgelist-general -------------------------------------------------------

def edgelist_general(rng, work: Path, smoke: bool) -> Workload:
    # (file name, vertices, average degree, marked support, subcommands)
    plan = [
        ("g1.edges", 40 if smoke else 1600, 4 if smoke else 8, 1, ("analyze", "certify")),
        ("g2.dot", 30 if smoke else 1000, 6 if smoke else 16, 12 if not smoke else 4,
         ("analyze", "certify", "simulate")),
        ("g3.edges", 24 if smoke else 800, 6 if smoke else 20, 5 if smoke else 40,
         ("simulate",)),
    ]
    ops = []
    for filename, n, degree, support, commands in plan:
        edges = sparse_connected_edges(rng, n, degree)
        graph = write_graph(work / filename, n, edges, rng)
        weights = positive_weights(rng, n, support)
        state = write_state_file(work / f"{filename}.state", weights)
        dense = functools.cache(
            lambda n=n, edges=edges: ref.DenseReference(ref.edges_adjacency(n, edges)))
        w = ref.marked_vector(n, weights)
        params_ref = functools.cache(lambda dense=dense, w=w: dense().params(w))
        for command in commands:
            shape = (command, filename, n, len(edges), support)
            if command == "analyze":
                ops.append(analyze_op(graph, state, shape, params_ref))
            elif command == "certify":
                ops.append(certify_op(graph, shape, dense))
            else:
                ops.append(simulate_op(graph, state, shape, params_ref,
                                       lambda g, dense=dense, w=w: dense().dynamics(w, g)))

    q = 13 if smoke else 401
    exported = work / f"paley{q}.edges"
    family_ref = functools.cache(lambda: ref.family_adjacency("paley", (q,)))

    def judge_export(out: str) -> list[str]:
        declared, edges = ref.parse_edge_text(exported.read_text())
        want = ref.edge_set(family_ref())
        problems = [] if declared == q else [f"declared {declared} vertices, want {q}"]
        if edges != want:
            problems.append(f"exported {len(edges)} edges, {len(edges ^ want)} differ")
        if f"edges={len(want)}" not in out:
            problems.append(f"summary line {out.strip()!r} misses edges={len(want)}")
        return problems

    ops.append(cli_op("family", ["family", "paley", str(q), "--output", str(exported)],
                      ("family", "paley", q), judge_export))
    weights = positive_weights(rng, q, 3)
    state = write_state_file(work / "paley.state", weights)
    w = ref.marked_vector(q, weights)
    ops.append(analyze_op(str(exported), state, ("analyze", "paley-file", q, 3),
                          functools.cache(
                              lambda: ref.DenseReference(family_ref()).params(w))))
    return Workload("edgelist-general", ops, (
        "graphs.parse_dot", "graphs.parse_edge_list", "graphs.format_edge_list",
        "graphs.paley", "graphs.validate", "graphs.laplacian", "linalg.eig_sym",
        "simulate.run", "cli.cmd_family", "cli.cmd_analyze", "cli.cmd_certify",
        "cli.cmd_simulate"))


# --- hypercube-analytic -----------------------------------------------------

def hypercube_analytic(rng, work: Path, smoke: bool) -> Workload:
    wide = 3 if smoke else 22
    # (subcommand, coordinates, marked support)
    plan = [("analyze", 4, 2), ("analyze", 5, 1), ("analyze", 6, wide),
            ("simulate", 4, wide), ("simulate", 5, 2), ("simulate", 6, 1)] if smoke else [
            ("analyze", 16, 2), ("analyze", 20, 1), ("analyze", 22, wide),
            ("simulate", 16, wide), ("simulate", 18, 2), ("simulate", 20, 1)]
    cubes = {}
    ops = []
    for command, n_bits, support in plan:
        cube = cubes.setdefault(n_bits, functools.cache(
            lambda n_bits=n_bits: ref.HypercubeReference(n_bits)))
        state = state_preset(rng, 1 << n_bits, support)
        weights = ref.preset_weights(state)
        params_ref = functools.cache(lambda cube=cube, weights=weights: cube().params(weights))
        spec = f"hypercube:{n_bits}"
        shape = (command, n_bits, support)
        if command == "analyze":
            ops.append(analyze_op(spec, state, shape, params_ref))
        else:
            ops.append(simulate_op(spec, state, shape, params_ref,
                                   lambda g, cube=cube, weights=weights:
                                   cube().dynamics(weights, g)))
    for bits in (4, 5) if smoke else (16, 20):
        ops.append(cli_op("pair_table", ["pair-table", "--bits", str(bits)],
                          ("pair_table", bits), functools.partial(judge_pair_table, bits)))
    return Workload("hypercube-analytic", ops, (
        "linalg.fwht", "linalg.hypercube_eigenbasis", "search.search_params",
        "closed_forms.krawtchouk", "closed_forms.hypercube_exact",
        "closed_forms.general_pair", "simulate.run_hypercube", "cli.cmd_analyze",
        "cli.cmd_simulate", "cli.cmd_pair_table"))


def judge_pair_table(bits: int, out: str) -> list[str]:
    lines = out.strip().splitlines()
    if lines[0] != "m,envelope_closed_form,envelope_oracle,abs_diff" or len(lines) != bits + 1:
        return [f"pair table has header {lines[0]!r} and {len(lines) - 1} rows"]
    cube = ref.HypercubeReference(bits)
    problems = []
    for m, row in enumerate(lines[1:], start=1):
        col_m, closed, oracle, diff = row.split(",")
        want = cube.params({0: 1.0, (1 << m) - 1: 1.0})["envelope"]
        if int(col_m) != m:
            problems.append(f"row {m} labelled {col_m}")
        if not float(diff) <= ref.TOL_PAIR:
            problems.append(f"m={m}: abs_diff {diff} above {ref.TOL_PAIR:g}")
        problems += ref.mismatch(f"m={m} closed form", float(closed), want, ref.TOL_PAIR)
        problems += ref.mismatch(f"m={m} oracle", float(oracle), want, ref.TOL_PAIR)
    return problems


# --- state-sweep ------------------------------------------------------------

def state_sweep(rng, work: Path, smoke: bool) -> Workload:
    # each decomposition serves 400 solve_mu and 1400 search_params calls
    states_per_graph = 6 if smoke else 400
    trials = 20 if smoke else 1000
    sparse_n, sparse_degree = (30, 4) if smoke else (400, 10)
    sparse_edges = sparse_connected_edges(rng, sparse_n, sparse_degree)
    graphs = [
        ("paley", (13,) if smoke else (401,)),
        ("complete-minus", (12, 3) if smoke else (600, 100)),
        ("multipartite", (3, 4) if smoke else (6, 80)),
        ("sparse", (sparse_n, sparse_degree)),
    ]
    ops = []
    for family, params in graphs:
        if family == "sparse":
            g = cs.Graph.from_edges(sparse_n, sparse_edges.tolist())
            adjacency = functools.partial(ref.edges_adjacency, sparse_n, sparse_edges)
        else:
            g = {"paley": cs.paley, "complete-minus": cs.complete_minus_disjoint_edges,
                 "multipartite": cs.regular_multipartite}[family](*params)
            adjacency = functools.partial(ref.family_adjacency, family, params)
        dense = functools.cache(lambda adjacency=adjacency: ref.DenseReference(adjacency()))
        n = g.n_vertices
        slot: dict[str, Any] = {}
        ops.append(Op("decompose", f"laplacian_decomposition {family}{params}",
                      functools.partial(decompose, g, slot),
                      functools.partial(check_spectrum, dense), ("decompose", family, n),
                      keep=lambda d: d.eigenvalues.copy()))
        ws = [sweep_state(rng, n, i) for i in range(states_per_graph)]
        batch = functools.cache(
            lambda dense=dense, ws=tuple(ws): dense().params_many(np.stack(ws, axis=1)))
        for i, w in enumerate(ws):
            digest = hashlib.sha1(w.tobytes()).hexdigest()[:8]
            ops.append(Op("secular", f"search_params+solve_mu {family}{params} state {digest}",
                          functools.partial(query, slot, cs.MarkedState(w)),
                          functools.partial(check_query, dense, batch, w, i),
                          ("secular", family, n, int(np.count_nonzero(w)))))
        ops.append(Op("stress", f"stress_random_states {family}{params}",
                      functools.partial(stress, slot, trials, int(rng.integers(2**31))),
                      functools.partial(check_stress, dense, trials),
                      ("stress", family, n, trials)))
    return Workload("state-sweep", ops, (
        "graphs.laplacian", "linalg.laplacian_decomposition", "linalg.eig_sym",
        "search.search_params", "search.solve_mu", "search.f_of_mu",
        "optimality.stress_random_states", "optimality.certify"))


def sweep_state(rng, n: int, i: int) -> np.ndarray:
    """Marked states cycling through supports 1, 2, 3, 5, 8 and a dense state
    whose uniform overlap lies in [1/sqrt(N), 0.9]."""
    support = (1, 2, 3, 5, 8, n)[i % 6]
    if support < n:
        weights = positive_weights(rng, n, support)
        return ref.marked_vector(n, weights)
    s = np.full(n, 1.0 / math.sqrt(n))
    g = rng.standard_normal(n)
    g -= (s @ g) * s
    g /= np.linalg.norm(g)
    c = rng.uniform(1.0 / math.sqrt(n), 0.9)
    return math.sqrt(1.0 - c * c) * g + c * s


def decompose(g, slot: dict):
    slot["decomp"] = cs.laplacian_decomposition(cs.laplacian(g))
    return slot["decomp"]


def query(slot: dict, state) -> tuple[float, ...]:
    params = cs.search_params(slot["decomp"], state)
    mu_pos, mu_neg = cs.solve_mu(params.overlaps, params.eigenvalues, params.gamma_c)
    return (params.gamma_c, params.beta, params.p_n, mu_pos, mu_neg)


def stress(slot: dict, trials: int, seed: int):
    return cs.stress_random_states(slot["decomp"], trials=trials, seed=seed)


def check_spectrum(dense, eigenvalues: np.ndarray) -> list[str]:
    want = dense().spectrum
    err = float(np.max(np.abs(eigenvalues - want)))
    if err <= ref.TOL_SPECTRUM * max(1.0, float(want[0])) and eigenvalues[-1] == 0.0:
        return []
    return [f"spectrum off by {err:.3e}, zero mode {eigenvalues[-1]!r}"]


def check_query(dense, batch, w: np.ndarray, i: int, result: tuple) -> list[str]:
    want = batch()
    problems = []
    for name, got in zip(("gamma_c", "beta", "p_n"), result):
        problems += ref.mismatch(name, got, float(want[name][i]), ref.TOL_PARAMS)
    mu_pos, mu_neg = dense().roots(w, float(want["gamma_c"][i]))
    problems += ref.mismatch("mu_pos", result[3], mu_pos, ref.TOL_SPECTRUM)
    problems += ref.mismatch("mu_neg", result[4], mu_neg, ref.TOL_SPECTRUM)
    return problems


def check_stress(dense, trials: int, stats) -> list[str]:
    cert = dense().certificate()
    problems = ref.mismatch("theta", stats.theta, cert["theta"], ref.TOL_SPECTRUM)
    if stats.trials != trials or int(stats.histogram_counts.sum()) != trials:
        problems.append(f"{stats.trials} trials, histogram holds "
                        f"{int(stats.histogram_counts.sum())}, want {trials}")
    if not 0.0 < stats.min_envelope <= stats.mean_envelope <= 1.0 + 1e-12:
        problems.append(f"envelopes out of order: min {stats.min_envelope}, "
                        f"mean {stats.mean_envelope}")
    # the exact variance bound is a theorem; only rounding may exceed zero
    if stats.variance_margin_exact_max > ref.TOL_PARAMS:
        problems.append(f"exact variance margin {stats.variance_margin_exact_max:.3e} > 0")
    if cert["verdict"] == "certified" and stats.min_reduced_envelope < ref.STRESS_FLOOR:
        problems.append(f"certified graph has reduced envelope {stats.min_reduced_envelope}")
    return problems
