"""Command-line interface: family generation, instance analysis, optimality
certification, pair-distance tables, and exact simulation.

Exit codes: 0 success, 1 usage error, 2 domain error (degenerate state,
disconnected graph), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
from pathlib import Path

from . import graphs as graphs_mod
from .errors import (
    DegenerateStateError,
    DisconnectedGraphError,
    FloatRangeError,
    InvalidInputError,
    InvalidParameterError,
    NumericError,
    OrthogonalStateError,
    PoleError,
)
# ``validate`` and ``FAMILIES`` stay importable as ``cli.validate`` and
# ``cli.FAMILIES``: the benchmark's self-test checks through them that a
# tracer rebinds by-name imports and the family table.
from .graphs import (  # noqa: F401
    FAMILIES, Graph, _LINE_BREAK, _check_graph, _family, laplacian, validate)
from .closed_forms import general_pair, hypercube_exact
from .linalg import hypercube_eigenbasis, laplacian_eigenvalues
from .optimality import OptimalityReport, certify, certify_family, prove_not_certified
from .search import MarkedState, graph_search_params, search_params
from .simulate import run, run_hypercube

# rows of a --grid sweep, which are collected before any is printed
GRID_LIMIT = 1 << 16

# An integer argument, parameter or state-file vertex: an optional '-' and
# ASCII digits, the digits the graph readers read.
_INTEGER = re.compile("-?[0-9]+")
# A real argument or state-file weight: an optional '-', ASCII digits with an
# optional point and exponent, as ``repr`` writes a float, or inf, infinity
# or nan in any case, which the range checks then refuse.
_REAL = re.compile(r"-?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|(?i:inf|infinity|nan))")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> float:
    """Round to 12 significant digits; the JSON literal then round-trips."""
    return float(f"{x:.12g}")


def _ints(texts: list[str], what: str) -> list[int]:
    """Each of ``texts`` as an int in the ``_INTEGER`` grammar, else refused
    as a bad ``what``."""
    try:
        if all(map(_INTEGER.fullmatch, texts)):
            return [int(t) for t in texts]
    except ValueError:  # past the digit limit of int()
        pass
    raise InvalidParameterError(f"bad {what}")


def _real(text: str, what: str) -> float:
    """``text`` as a float in the ``_REAL`` grammar, else refused as a bad
    ``what``."""
    if _REAL.fullmatch(text):
        return float(text)
    raise InvalidParameterError(f"bad {what}")


def _parse_family_spec(spec: str) -> tuple[str, list[int]]:
    name, _, rest = spec.partition(":")
    return name, _ints(rest.split(",") if rest else [], f"family parameters in {spec!r}")


def _graph(spec: str) -> Graph:
    """Family:params form when a colon is present, otherwise a file path.
    The family builders refuse an order past their own budget before they
    allocate; a file of any order is read, and each route refuses only what
    it would allocate (``Graph.adjacency``, ``linalg._lanczos``)."""
    if ":" in spec:
        name, params = _parse_family_spec(spec)
        build = _family(name, params)[0]
        if build is None:
            raise InvalidParameterError(f"{name} parameters build no graph; certify them")
        return build(*params)
    text = _read_text(spec, "graph")
    if text.lstrip().startswith("graph"):
        return graphs_mod.parse_dot(text)
    return graphs_mod.parse_edge_list(text)


def _load_state(spec: str, n: int) -> MarkedState:
    kind, _, rest = spec.partition(":")
    if kind in ("single", "pair", "uniform") and rest:
        verts = _ints(rest.split(","), f"vertex list in state preset {spec!r}")
        count = {"single": 1, "pair": 2}.get(kind, len(verts))
        if len(verts) != count:
            raise InvalidParameterError(f"{kind} preset takes {count} vertices, got {spec!r}")
        return MarkedState.uniform_over(n, verts)
    if ":" in spec:
        raise InvalidParameterError(f"unknown state preset {spec!r}")
    return _parse_state_file(_read_text(spec, "state"), n)


def _read_text(path: str, kind: str) -> str:
    """The UTF-8 text of a ``kind`` file; an unreadable or undecodable file
    is refused as input."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {kind} file {path!r}: {exc}") from exc


def _parse_state_file(text: str, n: int) -> MarkedState:
    """The marked state of a state file's ``vertex weight`` lines, normalized
    with a warning when the weights' norm deviates from 1 by more than 1e-6.
    Lines end at a graph file's ``_LINE_BREAK``; spaces and tabs separate
    the fields."""
    amplitudes: dict[int, float] = {}
    for raw in _LINE_BREAK.split(text):
        line = raw.split("#", 1)[0].strip(" \t")
        if not line:
            continue
        parts = re.split("[ \t]+", line)
        try:  # a line of other than two fields fails the unpacking
            [vertex] = _ints(parts[:-1], f"state line: {raw!r}")
            weight = _real(parts[-1], f"state line: {raw!r}")
        except ValueError as exc:
            raise InvalidParameterError(f"bad state line: {raw!r}") from exc
        if vertex in amplitudes:
            raise InvalidInputError(f"vertex {vertex} appears twice in the state file")
        amplitudes[vertex] = weight
    state = MarkedState.from_mapping(n, amplitudes)
    norm = math.hypot(*amplitudes.values())  # scaled: no finite weight over- or underflows
    if abs(norm - 1.0) > 1e-6:
        print(
            f"warning: state norm {norm:.9g} deviates from 1; normalizing",
            file=sys.stderr,
        )
    return state


def _hypercube_instance(g_spec: str, state_spec: str):
    """Eigenbasis and marked state of a ``hypercube:n`` spec, else None.

    Hypercubes take the analytic path, exact and the only option past dense
    scale; the eigenbasis, which bounds n, is built first, and the state is
    read sparse, its vertices checked against 2**n in O(r) for r support
    vertices.
    """
    if ":" not in g_spec:
        return None
    name, params = _parse_family_spec(g_spec)
    if name != "hypercube":
        return None
    _family(name, params)  # the parameter count
    basis = hypercube_eigenbasis(*params)
    return basis, _load_state(state_spec, basis.n)


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {str(path)!r}: {exc}") from exc


def _analysis_report(g_spec: str, state_spec: str) -> dict:
    hypercube = _hypercube_instance(g_spec, state_spec)
    if hypercube:
        return _params_dict(search_params(*hypercube))
    g = _graph(g_spec)
    return _params_dict(graph_search_params(g, _load_state(state_spec, g.n_vertices)))


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
    g = _graph(f"{args.family}:{','.join(args.params)}")
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
        bounds = _ints([lo, hi] if dots else [lo], f"grid spec {spec!r}")
        if name not in names:
            raise InvalidParameterError(
                f"grid parameter {name!r} is not one of {', '.join(names)}"
            )
        grid[name] = range(bounds[0], bounds[-1] + 1)
    for name in names:
        if name not in grid:
            raise InvalidParameterError(f"grid is missing parameter {name!r}")
    return grid


def cmd_certify(args) -> int:
    """A family or srg certifies from its parameters (``certify_family``),
    with no graph or eigensolver.  A file is proven "not-certified" by
    Lanczos on its edges when it can be, up to the Lanczos limit of 65,536
    vertices; otherwise it certifies from its dense spectrum, up to the
    dense limit of 4096 (``Graph.adjacency``)."""
    head, *extra = args.target
    if head in FAMILIES:  # the name p1 p2 ... form
        head, extra = f"{head}:{','.join(extra)}", []
    if extra:
        raise InvalidParameterError(f"unexpected arguments after {head!r}: {' '.join(extra)}")
    # a file path has no colon, so it reads as a name without parameters
    name, params = _parse_family_spec(head)
    if args.grid:
        if params or name not in FAMILIES:
            raise InvalidParameterError(
                f"--grid takes one of {', '.join(FAMILIES)}, got {head!r}"
            )
        names = FAMILIES[name][1]
        grid = _parse_grid_spec(args.grid, names)
        count = math.prod(max(0, r.stop - r.start) for r in grid.values())
        if count > GRID_LIMIT:
            raise InvalidParameterError(f"grid of {count} rows exceeds the budget of {GRID_LIMIT}")
        rows = [",".join(names) + ",ratio,verdict"]
        for values in itertools.product(*(grid[p] for p in names)):
            try:
                report = certify_family(name, *values)
            except FloatRangeError:
                raise
            except (InvalidParameterError, DisconnectedGraphError):
                continue
            rows.append(",".join(map(str, values)) + f",{_fmt(report.ratio)},{report.verdict}")
        print("\n".join(rows))
        return 0

    if ":" in head:
        report = certify_family(name, *params)
    else:
        g = _graph(head)
        _check_graph(g)
        report = (prove_not_certified(g.n_vertices, g.edges)
                  or certify(laplacian_eigenvalues(laplacian(g))))
    _print_report(_report_dict(report), args.json)
    return 0


def cmd_pair_table(args) -> int:
    [bits] = _ints([args.bits], f"--bits {args.bits!r}")
    if bits < 2:
        raise InvalidParameterError(f"pair table needs at least 2 coordinates, got {bits}")
    hypercube_eigenbasis(bits)  # bounds bits before anything of size 2**bits
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
    [steps] = _ints([args.steps], f"--steps {args.steps!r}")
    if steps < 2:
        raise InvalidParameterError(f"need at least 2 grid points, got {steps}")
    rate = args.gamma
    if rate != "critical":
        rate = _real(rate, f"--gamma {rate!r} (not 'critical' or a number)")
    t_max = args.tmax if args.tmax is None else _real(args.tmax, f"--tmax {args.tmax!r}")

    hypercube = _hypercube_instance(args.graph, args.state)
    if hypercube:
        basis, state = hypercube
        trace = run_hypercube(basis.n_bits, state, rate, t_max, steps)
    else:
        g = _graph(args.graph)
        trace = run(g, _load_state(args.state, g.n_vertices), rate, t_max, steps)

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
    p.add_argument("family", help="a family name; srg parameters build no graph")
    p.add_argument("params", nargs="*")
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
                   help="family or srg name with parameters, family:params, or a file path")
    p.add_argument("--grid", nargs="+", metavar="NAME=A..B",
                   help="sweep a family's or srg's parameters and emit CSV rows")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("pair-table",
                       help="two-vertex envelope vs Hamming distance: closed form against the transform oracle")
    p.add_argument("--bits", default="16", help="hypercube coordinate count (default 16)")
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_pair_table)

    p = sub.add_parser("simulate", help="exact evolution trace and peak summary")
    p.add_argument("graph", help="family:params or a graph file path")
    p.add_argument("state", help="single:V | pair:U,V | uniform:V1,...,Vk | state file path")
    p.add_argument("--gamma", default="critical", help="jump rate: 'critical' or a number")
    p.add_argument("--tmax", help="grid end time (default twice the optimal time)")
    p.add_argument("--steps", default="1024", help="grid point count (default 1024)")
    p.add_argument("--csv", help="write the trace CSV here")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, InvalidParameterError, InvalidInputError) as exc:
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
