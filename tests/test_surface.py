"""The package's public surface: what it exports, what it no longer defines,
and the functions the benchmark's tracer requires of it and calls."""

import ast
import importlib
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ctqw_search
import ctqw_search.cli
from ctqw_search import HypercubeEigenbasis, SpectralDecomposition
from ctqw_search.linalg import KrylovBasis

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# Dense routes kept only as test oracles (``conftest``), not in the library.
ORACLES = ("hamiltonian", "evolve", "amplitude_exact_sum", "overlaps")
# Line-by-line readers of graph text, kept only as the reference of the
# readers' property test (``test_graphs``): each format has one reader.
LINE_LOOPS = ("_edge_list_lines", "_dot_lines")
# The sinusoidal-deviation report, which no production route computes (the
# CLI's peak_deviation is its own), kept only for tests (``conftest``).
TEST_ONLY = ("compare", "DeviationReport")
# Per-family certificates and the CLI's copies of the family table, replaced
# by the one table ``graphs.FAMILIES`` and ``optimality.certify_family``.
FAMILY_CERTIFIERS = ("certify_induced_complete", "certify_hypercube", "certify_paley",
                     "certify_multipartite", "certify_srg")
CLI_FAMILY_COPIES = ("FAMILIES", "BUILDABLE", "_family_entry", "_family_graph")
# The CLI's copies of library size bounds, replaced by the bounds at the
# allocations they protect: ``Graph.adjacency``, ``linalg._lanczos`` and
# ``linalg.hypercube_eigenbasis``.
CLI_BOUND_COPIES = ("DENSE_LIMIT", "_check_bits", "_dense_graph")
# The CSR neighbour offsets of the breadth-first search that ``_connected``
# ran, replaced by its label passes over the edge columns.
GRAPH_SEARCH = ("_row_offsets",)
# The marked state's hash, which only a test oracle read: ``compare`` checks
# the trace's rate and grid, not its state.
STATE_DIGESTS = ("digest", "_digest", "state_digest")


def test_public_surface():
    for name in ctqw_search.__all__:
        assert hasattr(ctqw_search, name), name
    for name in ORACLES:
        assert name not in ctqw_search.__all__ and not hasattr(ctqw_search, name), name
        for module in (ctqw_search.search, ctqw_search.linalg, ctqw_search.simulate):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for name in LINE_LOOPS:
        assert not hasattr(ctqw_search.graphs, name), name
    for name in TEST_ONLY:
        assert name not in ctqw_search.__all__ and not hasattr(ctqw_search, name), name
        assert not hasattr(ctqw_search.simulate, name), name
    # hypercube level masses group the squared transform by two one-hot
    # products, with no popcount index of 2**n entries
    assert not hasattr(ctqw_search.linalg, "_hamming_weights")
    for name in FAMILY_CERTIFIERS:
        assert name not in ctqw_search.__all__ and not hasattr(ctqw_search.optimality, name), name
    assert "certify_family" in ctqw_search.__all__
    # the CLI imports the one table by name (the benchmark's self-test reads
    # it as ``cli.FAMILIES``) and defines none of its own
    body = ast.parse(inspect.getsource(ctqw_search.cli)).body
    defined = {getattr(node, "name", None) for node in body}
    defined |= {target.id for node in body for target in getattr(node, "targets", ())
                if isinstance(target, ast.Name)}
    assert not defined & set(CLI_FAMILY_COPIES)
    assert not defined & set(CLI_BOUND_COPIES)
    for name in GRAPH_SEARCH:
        assert not hasattr(ctqw_search.graphs, name), name
    for name in STATE_DIGESTS:
        for owner in (ctqw_search, ctqw_search.search, ctqw_search.simulate,
                      ctqw_search.MarkedState, ctqw_search.SearchParameters,
                      ctqw_search.EvolutionTrace):
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    assert "state_digest" not in inspect.signature(ctqw_search.SearchParameters).parameters
    assert ctqw_search.cli.FAMILIES is ctqw_search.graphs.FAMILIES
    # every basis answers one level_masses(support, values)
    dense = inspect.signature(SpectralDecomposition.level_masses).parameters
    for basis in (HypercubeEigenbasis, KrylovBasis):
        assert list(inspect.signature(basis.level_masses).parameters.values()) == list(
            dense.values())
    assert list(dense) == ["self", "support", "values"]


def literal(path, name):
    """The literal value assigned to ``name`` at the top level of ``path``,
    read from its syntax tree without running the file."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def workload_required(path):
    """The ``required`` tuple of every ``Workload(...)`` call in ``path``:
    its third positional argument or its ``required`` keyword."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Workload":
            args = node.args[2:3] + [k.value for k in node.keywords if k.arg == "required"]
            found.append(ast.literal_eval(args[0]))
    return found


def test_benchmark_layers_are_public_functions():
    # the tracer wraps every public function a package module defines and
    # refuses to run when one it requires is missing
    required = literal(PERFBENCH / "tracer.py", "REQUIRED")
    names = [f"{layer}.{fn}" for layer, fns in required.items() for fn in fns]
    tuples = workload_required(PERFBENCH / "workloads.py")
    assert len(tuples) == len(json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])
    names += [name for workload in tuples for name in workload]
    for name in names:
        layer, fn = name.split(".")
        module = importlib.import_module(f"ctqw_search.{layer}")
        value = getattr(module, fn, None)
        assert inspect.isfunction(value) and value.__module__ == module.__name__, name
        assert not fn.startswith("_"), name


@pytest.mark.parametrize(
    "workload", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_traced_smoke_run_calls_every_required_layer(workload, tmp_path):
    # a traced run fails when a required layer records no call, and checks
    # every output against the benchmark's own reference; it runs from a copy
    # of perfbench/ beside a link to src/, so that its results files, named by
    # workload, seed and trace only, do not replace those of a full run
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1", "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1])["failed"] == 0
