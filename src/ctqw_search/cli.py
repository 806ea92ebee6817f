"""Command-line interface: family generation, instance analysis, optimality
certification, pair-distance tables, and exact simulation.

Exit codes: 0 success, 1 usage error, 2 domain error (degenerate state,
disconnected graph), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import graphs as graphs_mod
from .errors import (
    DegenerateStateError,
    DisconnectedGraphError,
    InvalidInputError,
    InvalidParameterError,
    NumericError,
    OrthogonalStateError,
    PoleError,
)
# ``validate`` stays importable as ``cli.validate``: the benchmark's self-test
# checks through it that a tracer rebinds by-name imports.
from .graphs import Graph, SrgParams, _check_graph, laplacian, validate  # noqa: F401
from .closed_forms import general_pair, hypercube_exact
from .linalg import hypercube_eigenbasis, laplacian_decomposition
from .optimality import (
    OptimalityReport,
    certify,
    certify_induced_complete,
    certify_multipartite,
    certify_srg,
)
from .search import MarkedState, search_params
from .simulate import run, run_hypercube

# family name -> (constructor, parameter names)
FAMILIES = {
    "complete": (graphs_mod.complete, ("n",)),
    "hypercube": (graphs_mod.hypercube, ("n",)),
    "complete-minus": (graphs_mod.complete_minus_disjoint_edges, ("n", "l")),
    "paley": (graphs_mod.paley, ("q",)),
    "multipartite": (graphs_mod.regular_multipartite, ("m", "k")),
}

DENSE_LIMIT = 4096


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> float:
    """Round to 12 significant digits; the JSON literal then round-trips."""
    return float(f"{x:.12g}")


def _family_graph(name: str, params: list[int]) -> Graph:
    if name not in FAMILIES:
        raise InvalidParameterError(
            f"unknown family {name!r}; choose from {', '.join(sorted(FAMILIES))}"
        )
    ctor, names = FAMILIES[name]
    if len(params) != len(names):
        raise InvalidParameterError(
            f"family {name} takes parameters {' '.join(names)}, got {len(params)}"
        )
    return ctor(*params)


def _parse_family_spec(spec: str) -> tuple[str, list[int]]:
    name, _, rest = spec.partition(":")
    try:
        params = [int(p) for p in rest.split(",")] if rest else []
    except ValueError as exc:
        raise InvalidParameterError(f"bad family parameters in {spec!r}") from exc
    return name, params


def _load_graph(spec: str) -> Graph:
    """Family:params form when a colon is present, otherwise a file path."""
    if ":" in spec:
        name, params = _parse_family_spec(spec)
        return _family_graph(name, params)
    try:
        text = Path(spec).read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read graph file {spec!r}: {exc}") from exc
    if text.lstrip().startswith("graph"):
        return graphs_mod.parse_dot(text)
    return graphs_mod.parse_edge_list(text)


def _load_state(spec: str, n: int) -> MarkedState:
    kind, _, rest = spec.partition(":")
    if kind in ("single", "pair", "uniform") and rest:
        try:
            verts = [int(p) for p in rest.split(",")]
        except ValueError as exc:
            raise InvalidParameterError(f"bad vertex list in state preset {spec!r}") from exc
        count = {"single": 1, "pair": 2}.get(kind, len(verts))
        if len(verts) != count:
            raise InvalidParameterError(f"{kind} preset takes {count} vertices, got {spec!r}")
        return MarkedState.uniform_over(n, verts)
    if ":" in spec:
        raise InvalidParameterError(f"unknown state preset {spec!r}")
    try:
        text = Path(spec).read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read state file {spec!r}: {exc}") from exc
    return _parse_state_file(text, n)


def _parse_state_file(text: str, n: int) -> MarkedState:
    weights = np.zeros(n)
    seen = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidInputError(f"bad state line: {raw!r}")
        try:
            vertex = int(parts[0])
            weight = float(parts[1])
        except ValueError as exc:
            raise InvalidInputError(f"bad state line: {raw!r}") from exc
        if not 0 <= vertex < n:
            raise InvalidInputError(f"vertex {vertex} out of range for {n} vertices")
        weights[vertex] = weight
        seen = True
    if not seen or not np.any(weights != 0.0):
        raise InvalidInputError("state file has no nonzero weight")
    norm = float(np.linalg.norm(weights))
    if abs(norm - 1.0) > 1e-6:
        print(
            f"warning: state norm {norm:.9g} deviates from 1; normalizing",
            file=sys.stderr,
        )
    return MarkedState.from_weights(weights)


def _hypercube_instance(g_spec: str, state_spec: str):
    """Analytic basis and marked state of a ``hypercube:n`` spec, else None.

    The analytic basis is exact and the only option past dense scale; building
    it first bounds n before the state is allocated.
    """
    if ":" not in g_spec:
        return None
    name, params = _parse_family_spec(g_spec)
    if name != "hypercube":
        return None
    if len(params) != 1:
        raise InvalidParameterError("hypercube takes one parameter")
    basis = hypercube_eigenbasis(params[0])
    return basis, _load_state(state_spec, basis.n)


def _dense_graph(g_spec: str) -> Graph:
    g = _load_graph(g_spec)
    if g.n_vertices > DENSE_LIMIT:
        raise InvalidParameterError(
            f"graph with {g.n_vertices} vertices exceeds the dense limit {DENSE_LIMIT}"
        )
    return g


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {str(path)!r}: {exc}") from exc


def _analysis_report(g_spec: str, state_spec: str) -> dict:
    hypercube = _hypercube_instance(g_spec, state_spec)
    if hypercube:
        return _params_dict(search_params(*hypercube))
    g = _dense_graph(g_spec)
    _check_graph(g)
    decomp = laplacian_decomposition(laplacian(g))
    return _params_dict(search_params(decomp, _load_state(state_spec, g.n_vertices)))


def _params_dict(p) -> dict:
    return {
        "gamma_c": _fmt(p.gamma_c),
        "beta": _fmt(p.beta),
        "p_n": _fmt(p.p_n),
        "envelope": _fmt(p.envelope),
        "t_opt": _fmt(p.t_opt),
        "mu1": _fmt(p.mu1),
        "mu2": _fmt(p.mu2),
    }


def _report_dict(r: OptimalityReport) -> dict:
    return {
        "lambda_max": _fmt(r.lambda_max),
        "lambda_min_nonzero": _fmt(r.lambda_min_nonzero),
        "theta": _fmt(r.theta),
        "ratio": _fmt(r.ratio),
        "threshold": _fmt(r.threshold),
        "verdict": r.verdict,
    }


def _print_report(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for key, value in report.items():
            print(f"{key} = {value}")


def _slug(tag: str) -> str:
    return tag.replace("{", "_").replace("}", "").replace(",", "_")


def cmd_family(args) -> int:
    g = _family_graph(args.family, args.params)
    if args.out == "dot":
        text = graphs_mod.export_dot(g)
        suffix = ".dot"
    else:
        text = graphs_mod.format_edge_list(g)
        suffix = ".edges"
    path = Path(args.output) if args.output else Path(_slug(g.family or "graph") + suffix)
    _write_text(path, text)
    print(f"n_vertices={g.n_vertices} edges={len(g.edges)} family={g.family} path={path}")
    return 0


def cmd_analyze(args) -> int:
    report = _analysis_report(args.graph, args.state)
    _print_report(report, args.json)
    return 0


def _parse_grid_spec(specs: list[str], names: tuple[str, ...]) -> dict[str, range]:
    grid: dict[str, range] = {}
    for spec in specs:
        name, eq, rest = spec.partition("=")
        if not eq:
            raise InvalidParameterError(f"bad grid spec {spec!r}, expected name=a..b")
        lo, dots, hi = rest.partition("..")
        try:
            lo_i = int(lo)
            hi_i = int(hi) if dots else lo_i
        except ValueError as exc:
            raise InvalidParameterError(f"bad grid spec {spec!r}") from exc
        if name not in names:
            raise InvalidParameterError(
                f"grid parameter {name!r} is not one of {', '.join(names)}"
            )
        grid[name] = range(lo_i, hi_i + 1)
    for name in names:
        if name not in grid:
            raise InvalidParameterError(f"grid is missing parameter {name!r}")
    return grid


_CLOSED_FORM_CERTIFIERS = {
    "complete-minus": (certify_induced_complete, ("n", "l")),
    "multipartite": (certify_multipartite, ("m", "k")),
}


def cmd_certify(args) -> int:
    target = args.target
    head = target[0]
    extra = target[1:]
    if args.grid:
        if head not in _CLOSED_FORM_CERTIFIERS:
            raise InvalidParameterError(
                f"--grid supports {', '.join(_CLOSED_FORM_CERTIFIERS)}, got {head!r}"
            )
        certifier, names = _CLOSED_FORM_CERTIFIERS[head]
        grid = _parse_grid_spec(args.grid, names)
        print(",".join(names) + ",ratio,verdict")
        for first in grid[names[0]]:
            for second in grid[names[1]]:
                try:
                    report = certifier(first, second)
                except (InvalidParameterError, DisconnectedGraphError):
                    continue
                print(f"{first},{second},{_fmt(report.ratio)},{report.verdict}")
        return 0

    if head == "srg" or head.startswith("srg:"):
        values = (
            _parse_family_spec(head)[1] if ":" in head
            else _int_params(head, extra, 4)
        )
        if len(values) != 4:
            raise InvalidParameterError(f"srg takes 4 integer parameters, got {len(values)}")
        report = certify_srg(SrgParams(*values))
    else:
        if ":" in head:
            name, params = _parse_family_spec(head)
        elif head in FAMILIES:
            name = head
            params = _int_params(head, extra, len(FAMILIES[head][1]))
        else:
            name, params = None, []
        if name in _CLOSED_FORM_CERTIFIERS:
            certifier, _ = _CLOSED_FORM_CERTIFIERS[name]
            report = certifier(*params)
        else:
            g = _family_graph(name, params) if name else _load_graph(head)
            _check_graph(g)
            report = certify(laplacian_decomposition(laplacian(g)))
    _print_report(_report_dict(report), args.json)
    return 0


def _int_params(name: str, raw: list[str], count: int) -> list[int]:
    if len(raw) != count:
        raise InvalidParameterError(f"{name} takes {count} integer parameters, got {len(raw)}")
    try:
        return [int(p) for p in raw]
    except ValueError as exc:
        raise InvalidParameterError(f"bad integer parameter for {name}: {raw}") from exc


def cmd_pair_table(args) -> int:
    bits = args.bits
    if bits < 2:
        raise InvalidParameterError(f"pair table needs at least 2 coordinates, got {bits}")
    size = 1 << bits
    lines = ["m,envelope_closed_form,envelope_oracle,abs_diff"]
    for m in range(1, bits + 1):
        closed = general_pair(bits, m).envelope
        state = MarkedState.pair(size, 0, (1 << m) - 1)
        gamma_c, beta, _ = hypercube_exact(bits, state)
        oracle = gamma_c / beta
        lines.append(f"{m},{closed:.12g},{oracle:.12g},{abs(closed - oracle):.12g}")
    text = "\n".join(lines) + "\n"
    if args.output:
        _write_text(args.output, text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_simulate(args) -> int:
    if args.steps < 2:
        raise InvalidParameterError(f"need at least 2 grid points, got {args.steps}")
    rate = args.gamma
    if rate != "critical":
        try:
            rate = float(rate)
        except ValueError as exc:
            raise InvalidParameterError(
                f"--gamma must be 'critical' or a number, got {args.gamma!r}"
            ) from exc

    hypercube = _hypercube_instance(args.graph, args.state)
    if hypercube:
        basis, state = hypercube
        trace = run_hypercube(basis.n_bits, state, rate, args.tmax, args.steps)
    else:
        g = _dense_graph(args.graph)
        trace = run(g, _load_state(args.state, g.n_vertices), rate, args.tmax, args.steps)

    if args.csv:
        _write_text(args.csv, trace.to_csv())
    envelope_sq = trace.params.envelope**2
    summary = {
        "peak_time": _fmt(trace.peak_time),
        "peak_probability": _fmt(trace.peak_probability),
        "t_opt": _fmt(trace.params.t_opt),
        "envelope_squared": _fmt(envelope_sq),
        "peak_deviation": _fmt(abs(trace.peak_probability - envelope_sq) / envelope_sq),
    }
    print(json.dumps(summary, indent=2))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="ctqw-search", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="generate a graph family and write it to a file")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--out", choices=("edgelist", "dot"), default="edgelist")
    p.add_argument("--output", help="output path (defaults to a name derived from the family)")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("analyze", help="critical rate, envelope, and optimal time of an instance")
    p.add_argument("graph", help="family:params or a graph file path")
    p.add_argument("state", help="single:V | pair:U,V | uniform:V1,...,Vk | state file path")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("certify", help="spectral optimality certificate")
    p.add_argument("target", nargs="+",
                   help="family name with parameters, family:params, srg n k a c, or a file path")
    p.add_argument("--grid", nargs="+", metavar="NAME=A..B",
                   help="sweep closed-form parameters and emit CSV rows")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("pair-table",
                       help="two-vertex envelope vs Hamming distance: closed form against the transform oracle")
    p.add_argument("--bits", type=int, default=16, help="hypercube coordinate count (default 16)")
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_pair_table)

    p = sub.add_parser("simulate", help="exact evolution trace and peak summary")
    p.add_argument("graph", help="family:params or a graph file path")
    p.add_argument("state", help="single:V | pair:U,V | uniform:V1,...,Vk | state file path")
    p.add_argument("--gamma", default="critical", help="jump rate: 'critical' or a number")
    p.add_argument("--tmax", type=float, default=None, help="grid end time (default twice the optimal time)")
    p.add_argument("--steps", type=int, default=1024, help="grid point count (default 1024)")
    p.add_argument("--csv", help="write the trace CSV here")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvalidParameterError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DegenerateStateError, OrthogonalStateError, DisconnectedGraphError,
            PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
