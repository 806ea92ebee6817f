"""Span tracer that measures the package's layers from outside.

``Tracer.install`` wraps every public function of the seven layer modules and
rebinds every module-level name that points at one, including references held
in module-level dicts such as the CLI's family table, because ``cli``,
``simulate``, ``optimality`` and the package root import functions by name.
Each call records a span (name, parent, start, end, self time) in memory; the
benchmark's own operation spans are the roots.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

PACKAGE = "ctqw_search"
LAYERS = ("graphs", "linalg", "search", "closed_forms", "optimality", "simulate", "cli")

# Functions the per-layer metrics are computed from.  A rename must fail the
# traced run instead of silently reporting zero.
REQUIRED = {
    "graphs": ("complete", "hypercube", "complete_minus_disjoint_edges", "paley",
               "regular_multipartite", "validate", "laplacian", "parse_dot",
               "parse_edge_list", "export_dot", "format_edge_list"),
    "linalg": ("eig_sym", "laplacian_decomposition", "fwht", "hypercube_eigenbasis"),
    "search": ("search_params", "solve_mu", "f_of_mu"),
    "closed_forms": ("krawtchouk", "hypercube_exact", "general_pair"),
    "optimality": ("certify", "stress_random_states"),
    "simulate": ("run", "run_hypercube"),
    "cli": ("main", "cmd_family", "cmd_analyze", "cmd_certify", "cmd_pair_table",
            "cmd_simulate"),
}

BUILD = ("graphs.complete", "graphs.hypercube", "graphs.complete_minus_disjoint_edges",
         "graphs.paley", "graphs.regular_multipartite")
PARSE = ("graphs.parse_dot", "graphs.parse_edge_list")
EXPORT = ("graphs.export_dot", "graphs.format_edge_list")
SUBCOMMANDS = ("family", "analyze", "certify", "pair_table", "simulate")

# Every per-layer metric with its unit, in report order.
LAYER_METRICS = (
    [("graphs.build.s", "s"), ("graphs.validate.s", "s"), ("graphs.laplacian.s", "s"),
     ("graphs.parse.s", "s"), ("graphs.export.s", "s"), ("graphs.edges", "count"),
     ("graphs.validate.calls_per_simulate", "calls/op"),
     ("linalg.eig_sym.s", "s"), ("linalg.eig_sym.calls", "count"),
     ("linalg.eig_sym.n3", "count"), ("linalg.eig_sym.max_n", "count"),
     ("linalg.eig_sym.calls_per_simulate", "calls/op"),
     ("linalg.fwht.s", "s"), ("linalg.fwht.bytes", "bytes"),
     ("search.search_params.s", "s"), ("search.search_params.calls", "count"),
     ("search.solve_mu.s", "s"), ("search.f_of_mu.calls_per_root", "calls/root"),
     ("closed_forms.krawtchouk.s", "s"), ("closed_forms.krawtchouk.calls", "count"),
     ("closed_forms.hypercube_exact.s", "s"), ("closed_forms.general_pair.s", "s"),
     ("simulate.run.self_s", "s"), ("simulate.run_hypercube.self_s", "s"),
     ("optimality.certify.s", "s"), ("optimality.stress_random_states.self_s", "s"),
     ("cli.main.self_s", "s")]
    + [(f"cli.cmd_{cmd}.s", "s") for cmd in SUBCOMMANDS]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("bench.self_s", "s"), ("trace.spans", "count"), ("trace.overhead_pct", "%")]
)


class TracerError(RuntimeError):
    """The package no longer matches what the per-layer metrics measure."""


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.self_time: list[float] = []
        self.size: list[int] = []
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> list:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.self_time.append(0.0)
        self.size.append(0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        idx, covered = frame
        self.start[idx] = t0
        self.end[idx] = t1
        self.self_time[idx] = (t1 - t0) - covered
        if self._stack:
            self._stack[-1][1] += t1 - t0

    @contextmanager
    def span(self, name: str):
        """A root span around one benchmark operation."""
        frame = self._open(self._intern(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, t0, time.perf_counter())

    def _wrap(self, qualname: str, fn):
        nid = self._intern(qualname)
        size_of = _SIZE_HOOKS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(nid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, t0, time.perf_counter())
            if size_of is not None:
                tracer.size[frame[0]] = size_of(result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            public = {
                name: value for name, value in vars(module).items()
                if not name.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__
            }
            missing = [name for name in REQUIRED[layer] if name not in public]
            if missing:
                raise TracerError(
                    f"{module.__name__} lacks traced functions {', '.join(missing)}"
                )
            for name, fn in public.items():
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for module_name, module in list(sys.modules.items()):
            if module_name == PACKAGE or module_name.startswith(PACKAGE + "."):
                self._rebind(vars(module), wrappers)

    def _rebind(self, namespace: dict, wrappers: dict) -> None:
        for key, value in list(namespace.items()):
            replacement = _substitute(value, wrappers)
            if replacement is not value:
                self._restore.append((namespace, key, value))
                namespace[key] = replacement
            elif isinstance(value, dict) and not str(key).startswith("__"):
                self._rebind(value, wrappers)

    def uninstall(self) -> None:
        for namespace, key, value in reversed(self._restore):
            namespace[key] = value
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def mark(self) -> int:
        """Span count so far; a round is the span range between two marks."""
        return len(self.name_id)

    def round_metrics(self, first: int, last: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded in [first, last)."""
        names = self.names
        total: dict[str, float] = {}
        self_sum: dict[str, float] = {}
        calls: dict[str, int] = {}
        root_kind: dict[int, str] = {}
        under_simulate: dict[str, int] = {}
        edges = 0
        n3 = 0.0
        max_n = 0
        fwht_bytes = 0.0
        layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for i in range(first, last):
            name = names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            total[name] = total.get(name, 0.0) + dur
            self_sum[name] = self_sum.get(name, 0.0) + self.self_time[i]
            calls[name] = calls.get(name, 0) + 1
            layer_self[name.split(".", 1)[0]] += self.self_time[i]
            parent = self.parent[i]
            kind = root_kind[i] = (name.split(".", 1)[1] if parent < first
                                   else root_kind[parent])
            if kind == "simulate":
                under_simulate[name] = under_simulate.get(name, 0) + 1
            size = self.size[i]
            if name in BUILD or name in PARSE:
                edges += size
            elif name == "linalg.eig_sym":
                n3 += float(size) ** 3
                max_n = max(max_n, size)
            elif name == "linalg.fwht" and size > 1:
                fwht_bytes += 16.0 * size * math.log2(size)

        def tot(*keys):
            return sum(total.get(k, 0.0) for k in keys)

        def per(count, base):
            return count / base if base else 0.0

        simulates = calls.get("bench.simulate", 0)
        metrics = {
            "graphs.build.s": tot(*BUILD),
            "graphs.validate.s": tot("graphs.validate"),
            "graphs.laplacian.s": tot("graphs.laplacian"),
            "graphs.parse.s": tot(*PARSE),
            "graphs.export.s": tot(*EXPORT),
            "graphs.edges": edges,
            "graphs.validate.calls_per_simulate":
                per(under_simulate.get("graphs.validate", 0), simulates),
            "linalg.eig_sym.s": tot("linalg.eig_sym"),
            "linalg.eig_sym.calls": calls.get("linalg.eig_sym", 0),
            "linalg.eig_sym.n3": n3,
            "linalg.eig_sym.max_n": max_n,
            "linalg.eig_sym.calls_per_simulate":
                per(under_simulate.get("linalg.eig_sym", 0), simulates),
            "linalg.fwht.s": tot("linalg.fwht"),
            # computed: one read and one write of the float64 array per pass
            "linalg.fwht.bytes": fwht_bytes,
            "search.search_params.s": tot("search.search_params"),
            "search.search_params.calls": calls.get("search.search_params", 0),
            "search.solve_mu.s": tot("search.solve_mu"),
            "search.f_of_mu.calls_per_root":
                per(calls.get("search.f_of_mu", 0), 2 * calls.get("search.solve_mu", 0)),
            "closed_forms.krawtchouk.s": tot("closed_forms.krawtchouk"),
            "closed_forms.krawtchouk.calls": calls.get("closed_forms.krawtchouk", 0),
            "closed_forms.hypercube_exact.s": tot("closed_forms.hypercube_exact"),
            "closed_forms.general_pair.s": tot("closed_forms.general_pair"),
            "simulate.run.self_s": self_sum.get("simulate.run", 0.0),
            "simulate.run_hypercube.self_s": self_sum.get("simulate.run_hypercube", 0.0),
            "optimality.certify.s": tot("optimality.certify"),
            "optimality.stress_random_states.self_s":
                self_sum.get("optimality.stress_random_states", 0.0),
            "cli.main.self_s": self_sum.get("cli.main", 0.0),
            "trace.spans": last - first,
        }
        for cmd in SUBCOMMANDS:
            metrics[f"cli.cmd_{cmd}.s"] = tot(f"cli.cmd_{cmd}")
        for layer, value in layer_self.items():
            metrics[f"{layer}.self_s"] = value
        return metrics

    def call_counts(self) -> dict[str, int]:
        """Calls recorded per traced name over the whole run."""
        counts: dict[str, int] = {}
        for nid in self.name_id:
            counts[self.names[nid]] = counts.get(self.names[nid], 0) + 1
        return counts

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV: id, parent, name, start, end, self, size."""
        with gzip.open(path, "wt") as out:
            out.write("id,parent,name,start_s,end_s,self_s,size\n")
            for i, nid in enumerate(self.name_id):
                out.write(f"{i},{self.parent[i]},{self.names[nid]},{self.start[i]:.9f},"
                          f"{self.end[i]:.9f},{self.self_time[i]:.9f},{self.size[i]}\n")


def _substitute(value, wrappers: dict):
    """``value`` with traced functions replaced, or ``value`` itself."""
    if inspect.isfunction(value) and id(value) in wrappers:
        return wrappers[id(value)]
    if isinstance(value, tuple) and any(id(v) in wrappers for v in value):
        return tuple(wrappers.get(id(v), v) for v in value)
    return value


# Size recorded with each span: edges of a built or parsed graph, the order
# of a decomposed matrix, the length of a transformed vector.
_SIZE_HOOKS = {
    **{name: (lambda graph: len(graph.edges)) for name in BUILD + PARSE},
    "linalg.eig_sym": lambda decomp: int(decomp.eigenvalues.size),
    "linalg.fwht": lambda vec: int(vec.size),
}
