import contextlib
import io
import json
import math
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctqw_search import fwht, graphs, linalg, optimality, parse_dot, parse_edge_list
from ctqw_search import MarkedState, general_pair, hypercube_exact
from ctqw_search import cli
from ctqw_search.cli import main
from ctqw_search.search import _level_sums
from conftest import sparse_random_graph, transform_level_masses


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFamily:
    def test_paley_dot(self, capsys, tmp_path):
        out_path = tmp_path / "g.dot"
        code, out, _ = run_cli(
            capsys, "family", "paley", "29", "--out", "dot", "--output", str(out_path)
        )
        assert code == 0
        assert "n_vertices=29" in out
        g = parse_dot(out_path.read_text())
        assert g.n_vertices == 29
        assert len(g.edges) == 29 * 14 // 2

    def test_multipartite_edge_list(self, capsys, tmp_path):
        out_path = tmp_path / "g.edges"
        code, out, _ = run_cli(
            capsys, "family", "multipartite", "4", "4", "--output", str(out_path)
        )
        assert code == 0
        g = parse_edge_list(out_path.read_text())
        assert g.n_vertices == 16
        assert len(g.edges) == 96

    def test_invalid_parameter(self, capsys):
        code, _, err = run_cli(capsys, "family", "hypercube", "0")
        assert code == 1
        assert "error" in err

    def test_unknown_family(self, capsys):
        code, _, _ = run_cli(capsys, "family", "petersen", "10")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["family", "complete", "4", "--output"],
        ["pair-table", "--bits", "4", "--output"],
        ["simulate", "complete:4", "single:0", "--csv"]])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, argv):
        code, _, err = run_cli(capsys, *argv, str(tmp_path / "missing" / "x"))
        assert code == 1
        assert len(err.splitlines()) == 1


class TestAnalyze:
    def test_sixteen_bit_pair(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "hypercube:16", "pair:0,1", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["envelope"] == pytest.approx(0.9418, abs=2e-3)

    def test_complete_single_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "complete:8", "single:0", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["envelope"] == pytest.approx(math.sqrt(7 / 8), abs=1e-9)
        assert report["p_n"] == pytest.approx(1 / math.sqrt(8), abs=1e-9)

    def test_uniform_over_everything_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "complete:4", "uniform:0,1,2,3"
        )
        assert code == 2
        assert "uniform" in err

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "paley:13", "single:5", "--json")
        assert code == 0
        report = json.loads(out)
        again = json.loads(json.dumps(report))
        for key, value in report.items():
            assert again[key] == value

    def test_graph_file_input(self, capsys, tmp_path):
        path = tmp_path / "k4.edges"
        path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        code, out, _ = run_cli(capsys, "analyze", str(path), "single:0", "--json")
        assert code == 0
        assert json.loads(out)["envelope"] == pytest.approx(math.sqrt(3 / 4), abs=1e-9)

    def test_state_file_normalization_warning(self, capsys, tmp_path):
        graph = tmp_path / "k4.edges"
        graph.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        state = tmp_path / "w.state"
        state.write_text("# marked\n0 2.0\n1 2.0\n")
        code, out, err = run_cli(capsys, "analyze", str(graph), str(state), "--json")
        assert code == 0
        assert "normalizing" in err
        assert json.loads(out)["p_n"] == pytest.approx(math.sqrt(2) / 2, abs=1e-9)

    @pytest.mark.parametrize("text", ["0 nan\n", "0 inf\n", "0 -inf\n"])
    def test_state_file_refuses_non_finite_weight(self, capsys, tmp_path, text):
        state = tmp_path / "w.state"
        state.write_text(text)
        code, out, err = run_cli(capsys, "analyze", "paley:13", str(state))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("text", ["0 1\n0 2\n", "3 0.6\n1 0.8\n03 0.6\n"])
    def test_state_file_refuses_repeated_vertex(self, capsys, tmp_path, text):
        state = tmp_path / "w.state"
        state.write_text(text)
        code, out, err = run_cli(capsys, "analyze", "paley:13", str(state))
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: vertex {text[0]} appears twice in the state file"]

    @pytest.mark.parametrize("text, preset", [
        ("0 1e200\n1 1e200\n", "pair:0,1"), ("0 1e308\n1 1e308\n", "pair:0,1"),
        ("0 1e-320\n", "single:0")])
    def test_state_file_at_any_finite_scale(self, capsys, tmp_path, text, preset):
        state = tmp_path / "w.state"
        state.write_text(text)
        code, out, err = run_cli(capsys, "analyze", "paley:13", str(state), "--json")
        assert code == 0
        assert "normalizing" in err
        report = json.loads(out)
        want = json.loads(run_cli(capsys, "analyze", "paley:13", preset, "--json")[1])
        assert report == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "/nonexistent/path", "single:0")
        assert code == 1

    @pytest.mark.parametrize("kind", ["graph", "state"])
    def test_undecodable_file_is_refused(self, capsys, tmp_path, kind):
        bad = tmp_path / f"bad.{kind}"
        bad.write_bytes(b"0 1\xff\n")
        graph = tmp_path / "k2.edges"
        graph.write_text("0 1\n")
        argv = ["certify", str(bad)] if kind == "graph" else ["analyze", str(graph), str(bad)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: cannot read {kind} file {str(bad)!r}: 'utf-8' codec can't decode "
            "byte 0xff in position 3: invalid start byte"]

    @pytest.mark.parametrize("line", [
        "1_0 2", "+0 1", "٣ 1", "-1 2", "0 1\x0b1 2", "0 1\x85", "0 1\u20282 3",
        "0 1234567890123456789"])
    def test_edge_list_outside_the_language_names_its_line(self, capsys, tmp_path, line):
        path = tmp_path / "g.edges"
        path.write_text(f"# généré\n0 1\n{line}\n1 2\n", encoding="utf-8")
        assert run_cli(capsys, "certify", str(path)) == (
            1, "", f"error: bad edge-list line: {line!r}\n")

    def test_general_graph_takes_no_eigensolver(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("analyze of a general graph called an eigensolver")

        for module, name in [(linalg, "eig_sym"), (linalg, "laplacian_decomposition"),
                             (linalg, "laplacian_eigenvalues"), (graphs, "laplacian"),
                             (cli, "laplacian"), (np.linalg, "eigh"),
                             (np.linalg, "eigvalsh")]:
            monkeypatch.setattr(module, name, refuse)
        path = tmp_path / "c5.dot"
        path.write_text("graph G {\n" + "".join(f"  {v} -- {(v + 1) % 5};\n"
                                                  for v in range(5)) + "}\n")
        for graph in (str(path), "complete:8", "paley:13"):
            code, out, err = run_cli(capsys, "analyze", graph, "single:0", "--json")
            assert (code, err) == (0, "")
        # the 5-cycle: levels 2 - 2cos(2 pi k/5), each pair carrying mass 2/5
        levels = [2 - 2 * math.cos(2 * math.pi * k / 5) for k in (1, 2)]
        report = json.loads(run_cli(capsys, "analyze", str(path), "single:0", "--json")[1])
        assert report["gamma_c"] == pytest.approx(sum(0.4 / lam for lam in levels), rel=1e-11)

    @pytest.mark.parametrize("text, state", [
        ("0 1\n1 2\n2 3\n", "0 0.5\n1 0.5\n2 -0.5\n3 -0.5\n"),
        ("0 1\n1 2\n2 3\n", "uniform:0,1,2,3"),
        ("0 1\n2 3\n", "single:0"),
        ("# vertices: 1\n", "single:0"),
        ("0 1\n", "uniform:0,1")])
    def test_domain_errors_exit_two(self, capsys, tmp_path, text, state):
        """Orthogonal and degenerate states, a disconnected graph, and the
        one-vertex graph, where every state is the uniform one."""
        path = tmp_path / "g.edges"
        path.write_text(text)
        if ":" not in state:
            (tmp_path / "w.state").write_text(state)
            state = str(tmp_path / "w.state")
        code, out, err = run_cli(capsys, "analyze", str(path), state, "--json")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1

    # K2 minus its edge; the empty and the one-vertex graph are outside the
    # family's domain, as they are outside the complete graph's
    @pytest.mark.parametrize("spec, code, message", [
        ("complete-minus:2,1", 2, "error: disconnected"),
        ("complete-minus:0,0", 1, "error: complete-minus graph needs n >= 2, got 0"),
        ("complete-minus:1,0", 1, "error: complete-minus graph needs n >= 2, got 1")])
    def test_degenerate_complete_minus(self, capsys, spec, code, message):
        assert run_cli(capsys, "analyze", spec, "single:0") == (code, "", message + "\n")

    def test_two_vertices(self, capsys, tmp_path):
        path = tmp_path / "k2.edges"
        path.write_text("0 1\n")
        code, out, _ = run_cli(capsys, "analyze", str(path), "single:1", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["gamma_c"] == pytest.approx(0.25, rel=1e-11)
        assert report["beta"] == pytest.approx(math.sqrt(2) / 4, rel=1e-11)

    def test_iteration_cap_is_numeric_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(linalg, "CG_STEPS_PER_VERTEX", 0.05)
        path = tmp_path / "path.edges"
        path.write_text("".join(f"{v} {v + 1}\n" for v in range(99)))
        code, out, err = run_cli(capsys, "analyze", str(path), "single:0", "--json")
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1
        assert "did not converge" in err


class TestCertify:
    def test_srg(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "srg", "29", "14", "6", "7", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "certified"
        assert report["ratio"] == pytest.approx(1.456, abs=1e-3)

    def test_complete_minus_not_certified(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "complete-minus", "4", "2", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "not-certified"
        assert report["ratio"] == pytest.approx(2.0, abs=1e-9)

    def test_multipartite_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "multipartite", "--grid", "m=2..6", "k=2..4"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,k,ratio,verdict"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 5 * 3
        for m, k, _, verdict in rows:
            assert verdict == ("not-certified" if int(m) == 2 else "certified")

    def test_colon_family_and_file(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "certify", "paley:29", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "certified"
        path = tmp_path / "k33.edges"
        path.write_text("\n".join(f"{u} {v}" for u in range(3) for v in range(3, 6)) + "\n")
        code, out, _ = run_cli(capsys, "certify", str(path), "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "not-certified"

    def test_disconnected_file(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n2 3\n")
        code, _, _ = run_cli(capsys, "certify", str(path))
        assert code == 2

    def test_computes_no_eigenvectors(self, capsys, tmp_path, monkeypatch):
        n, eigh = 6, np.linalg.eigh

        def small_only(a, *args, **kwargs):
            if np.shape(a)[0] >= n:
                raise AssertionError("certify computed N x N eigenvectors")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", small_only)
        path = tmp_path / "c6.edges"
        path.write_text("".join(f"{v} {(v + 1) % n}\n" for v in range(n)))
        code, out, _ = run_cli(capsys, "certify", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["lambda_max"] == pytest.approx(4.0, rel=1e-12)
        assert report["lambda_min_nonzero"] == pytest.approx(1.0, rel=1e-12)

    def test_named_family_past_dense_limit(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "complete:100000", "--json")
        assert code == 0
        report = json.loads(out)
        assert (report["lambda_max"], report["ratio"]) == (100000.0, 1.0)
        assert report["verdict"] == "certified"
        code, out, _ = run_cli(capsys, "certify", "hypercube:16", "--json")
        assert code == 0
        report = json.loads(out)
        assert (report["lambda_max"], report["lambda_min_nonzero"]) == (32.0, 2.0)
        assert (report["ratio"], report["verdict"]) == (16.0, "not-certified")

    @pytest.mark.parametrize("argv, n", [
        (("hypercube:1000000000000000",), 10**15), (("hypercube", str(10**15)), 10**15),
        ((f"hypercube:{10**200}",), 10**200)], ids=["1e15", "1e15-positional", "1e200"])
    def test_hypercube_past_rounding_ratio(self, capsys, argv, n):
        # lambda_2/lambda_max = 1/n is under any rounding rule, but closed-form
        # levels are exact: the graph is connected and simply not certified
        code, out, _ = run_cli(capsys, "certify", *argv, "--json")
        assert code == 0
        report = json.loads(out)
        assert (report["lambda_min_nonzero"], report["verdict"]) == (2.0, "not-certified")
        assert report["ratio"] == pytest.approx(n, rel=1e-15)

    @pytest.mark.parametrize("spec, ratio", [
        ("complete:12", 1.0), ("hypercube:6", 6.0), ("complete-minus:12,3", 1.2),
        ("paley:29", (29 + math.sqrt(29)) / (29 - math.sqrt(29))),
        ("multipartite:5,4", 1.25), ("srg:10,3,0,1", 2.5)])
    def test_family_builds_no_graph(self, capsys, monkeypatch, spec, ratio):
        def refuse(*args, **kwargs):
            raise AssertionError("certify of a named family built a graph or a spectrum")

        for name, (build, *rest) in graphs.FAMILIES.items():
            monkeypatch.setitem(graphs.FAMILIES, name, (build and refuse, *rest))
        for module, attr in [(graphs, "_rows"), (graphs, "laplacian"), (cli, "laplacian"),
                             (linalg, "laplacian_eigenvalues"), (cli, "laplacian_eigenvalues"),
                             (np.linalg, "eigvalsh"), (np.linalg, "eigh")]:
            monkeypatch.setattr(module, attr, refuse)
        code, out, _ = run_cli(capsys, "certify", spec, "--json")
        assert code == 0
        assert json.loads(out)["ratio"] == pytest.approx(ratio, rel=1e-11)

    @pytest.mark.parametrize("q", [4129, 100049])
    def test_paley_past_pair_budget(self, capsys, q):
        code, out, _ = run_cli(capsys, "certify", "paley", str(q), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["ratio"] == pytest.approx((q + math.sqrt(q)) / (q - math.sqrt(q)),
                                                rel=1e-11)
        assert report["verdict"] == "certified"

    # the last satisfies k(k-a-1) = (n-k-1)c but has multiplicities 4 -+ 8/sqrt(13)
    @pytest.mark.parametrize("argv", [["srg", "1", "5", "10", "6"], ["srg:3,3,3,3"],
                                      ["srg:9,4,0,3"]])
    def test_infeasible_srg_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "certify", *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert "infeasible SRG parameters" in err

    def test_srg_disjoint_cliques_are_disconnected(self, capsys):
        code, out, err = run_cli(capsys, "certify", "srg:6,2,1,0")
        assert (code, out, err) == (2, "", "error: repeated zero eigenvalue\n")

    def test_srg_grid(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "srg", "--grid", "n=10", "k=3", "a=0..1",
                               "c=1")
        assert code == 0
        assert out.splitlines() == ["n,k,a,c,ratio,verdict", "10,3,0,1,2.5,not-certified"]

    @pytest.mark.parametrize("argv", [["paley:29", "17"], ["complete:8", "junk"],
                                      ["{file}", "extra"], ["complete", "8", "--grid", "n=2..4"]])
    def test_stray_arguments_are_usage_errors(self, capsys, tmp_path, argv):
        path = tmp_path / "k4.edges"
        path.write_text("".join(f"{u} {v}\n" for u in range(4) for v in range(u + 1, 4)))
        argv = [a.replace("{file}", str(path)) for a in argv]
        code, out, err = run_cli(capsys, "certify", *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1

    def test_file_over_dense_limit_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "path.edges"
        path.write_text("".join(f"{v} {v + 1}\n" for v in range(99999)))
        code, out, err = run_cli(capsys, "certify", str(path))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert "dense limit" in err


def _dense_report(g):
    """The report of the dense route, as ``certify --json`` prints it."""
    spectrum = linalg.laplacian_eigenvalues(graphs.laplacian(g))
    return json.loads(json.dumps(cli._report_dict(optimality.certify(spectrum))))


class TestCertifyFileRoutes:
    """A file is proven "not-certified" by Lanczos on its edges; every other
    file takes the dense spectrum."""

    @pytest.mark.parametrize("g", [
        graphs.Graph.from_edges(5, [(v, (v + 1) % 5) for v in range(5)]),
        sparse_random_graph(np.random.default_rng(300), 300, 8)])
    def test_not_certified_file_takes_no_dense_solver(self, capsys, tmp_path, monkeypatch, g):
        want = _dense_report(g)
        path = tmp_path / "g.edges"
        path.write_text(graphs.format_edge_list(g))

        def refuse(*args, **kwargs):
            raise AssertionError("certify took the dense route")

        for module, attr in [(graphs, "laplacian"), (cli, "laplacian"),
                             (linalg, "laplacian_eigenvalues"), (cli, "laplacian_eigenvalues")]:
            monkeypatch.setattr(module, attr, refuse)

        def small_only(solver):
            def call(a, *args, **kwargs):
                if np.shape(a)[0] >= g.n_vertices:
                    raise AssertionError(f"certify ran an N x N {solver.__name__}")
                return solver(a, *args, **kwargs)
            return call

        for solver in (np.linalg.eigh, np.linalg.eigvalsh):
            monkeypatch.setattr(np.linalg, solver.__name__, small_only(solver))
        code, out, _ = run_cli(capsys, "certify", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report.pop("verdict") == want.pop("verdict") == "not-certified"
        for key, value in want.items():
            assert report[key] == pytest.approx(value, rel=1e-10), key

    @pytest.mark.parametrize("g", [graphs.complete_minus_disjoint_edges(6, 3),
                                   graphs.regular_multipartite(3, 3)])
    def test_certified_file_takes_the_dense_route(self, capsys, tmp_path, monkeypatch, g):
        want = _dense_report(g)
        assert want["verdict"] == "certified"
        path = tmp_path / "g.edges"
        path.write_text(graphs.format_edge_list(g))
        calls = []
        dense = cli.laplacian_eigenvalues
        monkeypatch.setattr(cli, "laplacian_eigenvalues", lambda q: calls.append(q) or dense(q))
        code, out, _ = run_cli(capsys, "certify", str(path), "--json")
        assert code == 0
        assert json.loads(out) == want
        assert len(calls) == 1

    @pytest.mark.parametrize("text, code, message", [
        ("0 1\n2 3\n", 2, "error: disconnected"),
        ("# vertices: 1\n", 1, "error: certificate needs at least two vertices"),
        ("".join(f"{v} {v + 1}\n" for v in range(99999)), 1,
         "error: graph with 100000 vertices exceeds the dense limit 4096")])
    def test_refused_files_keep_exit_code_and_message(self, capsys, tmp_path, text, code,
                                                      message):
        path = tmp_path / "g.edges"
        path.write_text(text)
        assert run_cli(capsys, "certify", str(path)) == (code, "", message + "\n")


class TestPairTable:
    def test_anchor_rows_and_oracle_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "pair-table")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,envelope_closed_form,envelope_oracle,abs_diff"
        assert len(lines) == 17
        rows = {int(line.split(",")[0]): line.split(",") for line in lines[1:]}
        assert float(rows[2][1]) == pytest.approx(0.9374, abs=2e-3)
        assert float(rows[12][1]) == pytest.approx(0.9492, abs=2e-3)
        for row in rows.values():
            assert float(row[3]) < 1e-9

    def test_small_table_to_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, _, _ = run_cli(capsys, "pair-table", "--bits", "4", "--output", str(path))
        assert code == 0
        assert len(path.read_text().strip().splitlines()) == 5

    def test_oracle_past_the_transform_block(self, capsys):
        # 2**17 floats is four of linalg.fwht's blocks, so each oracle
        # transform also runs a pass over column slices of the blocks
        code, out, _ = run_cli(capsys, "pair-table", "--bits", "17")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [int(row[0]) for row in rows] == list(range(1, 18))
        for row in rows:
            assert float(row[3]) <= 1e-9

    @pytest.mark.parametrize("bits, message", [
        pytest.param("1", "pair table needs at least 2 coordinates, got 1", id="1"),
        pytest.param("23", "hypercube needs 1 to 22 coordinates, got 23", id="23"),
        pytest.param("40", "hypercube needs 1 to 22 coordinates, got 40", id="40"),
        pytest.param(str(10**400), f"hypercube needs 1 to 22 coordinates, got {10**400}",
                     id="10**400")])
    def test_bits_outside_budget_is_usage_error(self, capsys, bits, message):
        # the upper bound is the hypercube eigenbasis's own
        assert run_cli(capsys, "pair-table", "--bits", bits) == (1, "", f"error: {message}\n")


class TestSimulate:
    def test_complete_64(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "complete:64", "single:0")
        assert code == 0
        summary = json.loads(out)
        assert summary["peak_probability"] >= 0.96
        assert abs(summary["peak_time"] - summary["t_opt"]) <= 0.1 * summary["t_opt"]

    def test_hypercube_peak_time(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "hypercube:6", "single:0")
        assert code == 0
        summary = json.loads(out)
        assert abs(summary["peak_time"] - summary["t_opt"]) <= 0.1 * summary["t_opt"]

    def test_csv_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "complete:8", "single:0", "--steps", "32",
            "--csv", str(path)
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,amplitude,probability"
        assert len(lines) == 33

    def test_single_step_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "complete:8", "single:0", "--steps", "1")
        assert code == 1

    @pytest.mark.parametrize("name, text, state, code, message", [
        ("g.edges", "0 1\n1 2\n2 3\n", "0 0.5\n1 0.5\n2 -0.5\n3 -0.5\n", 2,
         "marked state is orthogonal to the uniform state"),
        ("g.edges", "0 1\n1 2\n2 3\n", "uniform:0,1,2,3", 2,
         "marked state equals the uniform state"),
        ("g.edges", "# vertices: 1\n", "single:0", 2, "marked state equals the uniform state"),
        ("g.edges", "0 1\n2 3\n", "single:0", 2, "disconnected"),
        ("g.edges", "0 1\n1 2\n1 2\n", "single:0", 1, "invalid graph: edge (1,2): duplicate"),
        ("g.edges", "0 1\n1 x\n", "single:0", 1, "bad edge-list line: '1 x'"),
        ("g.dot", "graph G {\n  0 -- 1;\n  1 -- 1;\n}\n", "single:0", 1,
         "invalid graph: edge (1,1): self-loop")])
    def test_refused_files_keep_exit_code_and_message(self, capsys, tmp_path, name, text,
                                                      state, code, message):
        # the Krylov route refuses what the dense decomposition refused, with
        # the same exit code and line
        path = tmp_path / name
        path.write_text(text)
        if ":" not in state:
            (tmp_path / "w.state").write_text(state)
            state = str(tmp_path / "w.state")
        assert run_cli(capsys, "simulate", str(path), state) == (code, "", f"error: {message}\n")

    @pytest.mark.parametrize("graph, option", [
        ("{file}", ["--gamma", "1e20"]), ("{file}", ["--tmax", "1e300"]),
        ("{file}", ["--steps", "3000000"]), ("multipartite:8,64", ["--tmax", "1e300"])])
    def test_refused_trace_takes_no_dense_route(self, capsys, tmp_path, monkeypatch, graph,
                                                option):
        # a trace past its cell budget or float precision is refused from the
        # quadrature, before any N x N decomposition
        path = tmp_path / "g.edges"
        path.write_text(graphs.format_edge_list(
            sparse_random_graph(np.random.default_rng(300), 300, 8)))
        graph = graph.replace("{file}", str(path))

        def refuse(*args, **kwargs):
            raise AssertionError("simulate took the dense route")

        decompose = linalg.eig_sym

        def small_only(matrix):
            if len(matrix) >= 300:
                raise AssertionError(f"simulate decomposed a {len(matrix)}-row matrix")
            return decompose(matrix)

        monkeypatch.setattr(linalg, "laplacian_decomposition", refuse)
        monkeypatch.setattr(linalg, "eig_sym", small_only)
        code, out, err = run_cli(capsys, "simulate", graph, "single:0", *option)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("graph", ["complete:8", "hypercube:6"])
    @pytest.mark.parametrize("option", [
        ["--tmax", "nan"], ["--tmax", "inf"], ["--gamma", "nan"], ["--gamma", "inf"]])
    def test_non_finite_is_usage_error(self, capsys, graph, option):
        code, out, err = run_cli(capsys, "simulate", graph, "single:0", *option)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("option", [["--steps", "1025"], ["--tmax", "0"]])
    def test_file_grid_edges(self, capsys, tmp_path, option):
        path = tmp_path / "g.edges"
        g = sparse_random_graph(np.random.default_rng(5), 300, 6)
        path.write_text("".join(f"{u} {v}\n" for u, v in g.edges.tolist()))
        code, out, err = run_cli(capsys, "simulate", str(path), "uniform:0,7,11", *option)
        assert (code, err) == (0, "")
        summary = json.loads(out, parse_constant=_reject_constant)
        if option[0] == "--tmax":
            assert summary["peak_time"] == 0.0
            assert summary["peak_probability"] == pytest.approx(3.0 / 300.0, rel=1e-12)

    def test_disconnected_file(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n2 3\n")
        code, _, err = run_cli(capsys, "simulate", str(path), "single:0")
        assert code == 2
        assert "disconnected" in err

    def test_wide_support_matches_analyze(self, capsys, tmp_path):
        weights = np.random.default_rng(3).uniform(0.05, 1.0, 1 << 10)
        state = tmp_path / "wide.state"
        state.write_text("".join(f"{v} {x!r}\n" for v, x in enumerate(weights.tolist())))
        code, out, _ = run_cli(capsys, "simulate", "hypercube:10", str(state))
        assert code == 0
        summary = json.loads(out)
        code, out, _ = run_cli(capsys, "analyze", "hypercube:10", str(state), "--json")
        assert code == 0
        report = json.loads(out)
        assert summary["t_opt"] == pytest.approx(report["t_opt"], rel=1e-10)
        assert summary["envelope_squared"] == pytest.approx(report["envelope"]**2, rel=1e-10)

    def test_full_support_skips_pair_histogram(self, capsys, tmp_path, monkeypatch):
        # 1024**2 support pairs exceed N*log2(N): the level masses come from
        # the Walsh transform, and the O(r**2) histogram is never built
        import ctqw_search.linalg as linalg_mod

        def refuse(*args):
            raise AssertionError("pair histogram on a full support")

        monkeypatch.setattr(linalg_mod, "_distance_histogram", refuse)
        weights = np.random.default_rng(4).uniform(0.05, 1.0, 1 << 10)
        state = tmp_path / "full.state"
        state.write_text("".join(f"{v} {x!r}\n" for v, x in enumerate(weights.tolist())))
        code, out, _ = run_cli(capsys, "simulate", "hypercube:10", str(state))
        assert code == 0
        assert json.loads(out)["peak_probability"] > 0.0

    def test_explicit_gamma(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "complete:8", "single:0", "--gamma", "0.05",
            "--tmax", "5", "--steps", "64"
        )
        assert code == 0
        json.loads(out)

    def test_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "simulate", "hypercube:5", "pair:0,3")
        _, second, _ = run_cli(capsys, "simulate", "hypercube:5", "pair:0,3")
        assert first == second

    def test_hypercube_transforms_only_wide_supports(self, capsys, tmp_path, monkeypatch):
        # analyze and simulate share one cost rule: the pair state's level
        # masses come from the Krawtchouk kernel, a full support's from one
        # transform; pair-table's oracle transforms once per row
        import ctqw_search.linalg as linalg_mod

        calls = []

        def counting(vec):
            calls.append(vec.size)
            return fwht(vec)

        monkeypatch.setattr(linalg_mod, "fwht", counting)
        weights = np.random.default_rng(5).uniform(0.05, 1.0, 1 << 6)
        full = tmp_path / "full.state"
        full.write_text("".join(f"{v} {x!r}\n" for v, x in enumerate(weights.tolist())))
        for command in ("analyze", "simulate"):
            code, _, _ = run_cli(capsys, command, "hypercube:6", "pair:0,3")
            assert code == 0
            assert calls == []
            code, _, _ = run_cli(capsys, command, "hypercube:6", str(full))
            assert code == 0
            assert calls == [1 << 6]
            calls.clear()
        code, _, _ = run_cli(capsys, "pair-table", "--bits", "4")
        assert code == 0
        assert calls == [16] * 4

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    @pytest.mark.parametrize("graph", ["hypercube:0", "hypercube:-1", "hypercube:23",
                                       "hypercube:40"])
    def test_hypercube_outside_budget_is_usage_error(self, capsys, command, graph):
        code, out, err = run_cli(capsys, command, graph, "single:0")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1


class TestSparseHypercubeState:
    """Hypercube states are read sparse: the kernel route builds nothing of
    2**n entries, and the range checks on the support keep their refusals."""

    @pytest.mark.parametrize("argv, n_bits", [
        (["analyze", "hypercube:22",
          "uniform:" + ",".join(str((1 << 21) + 7 * i * i + i) for i in range(22)), "--json"],
         22),
        (["simulate", "hypercube:20", "single:777"], 20)])
    def test_kernel_route_allocates_nothing_of_size_n(self, argv, n_bits):
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1 << n_bits

    def test_pair_table_oracle_is_the_dense_transform(self, capsys, monkeypatch):
        # each row's oracle is one dense 2**bits transform, whose level sums
        # match the conftest grouping to a rounding bound of 8*sqrt(N)*eps
        # relative, and the row prints hypercube_exact's own values
        bits = 12
        calls = []

        def counting(vec):
            calls.append(vec.size)
            return fwht(vec)

        monkeypatch.setattr(linalg, "fwht", counting)
        code, out, _ = run_cli(capsys, "pair-table", "--bits", str(bits))
        assert code == 0
        assert calls == [1 << bits] * bits
        levels = 2.0 * np.arange(bits, -1, -1)
        tol = 8 * math.sqrt(1 << bits) * np.finfo(float).eps
        for m, line in enumerate(out.splitlines()[1:], start=1):
            w = np.zeros(1 << bits)
            w[[0, (1 << m) - 1]] = 1 / math.sqrt(2)
            p_n, gamma_c, beta = (float(x) for x in _level_sums(
                levels, transform_level_masses(bits, w)))
            state = MarkedState.pair(1 << bits, 0, (1 << m) - 1)
            assert np.array_equal(state.weights, w)
            calls.clear()
            exact = hypercube_exact(bits, state)
            assert calls == [1 << bits]
            assert exact == pytest.approx((gamma_c, beta, p_n), rel=tol, abs=0.0)
            closed = general_pair(bits, m).envelope
            oracle = exact[0] / exact[1]
            assert line == f"{m},{closed:.12g},{oracle:.12g},{abs(closed - oracle):.12g}"

    @pytest.mark.parametrize("n_bits", [22, 23])
    @pytest.mark.parametrize("state, message", [
        ("single:{top}", "vertex {top} out of range for dimension {top}"),
        ("single:-1", "vertex -1 out of range for dimension {top}"),
        ("uniform:0,{top}", "vertex {top} out of range for dimension {top}"),
        ("pair:3,3", "marked vertices contain repeats: [3, 3]"),
        ("uniform:5,-1,5", "marked vertices contain repeats: [5, -1, 5]"),
        ("single:nan", "bad vertex list in state preset 'single:nan'"),
        ("file:{top} 1\n", "vertex {top} out of range for dimension {top}"),
        ("file:0 1\n-1 1\n", "vertex -1 out of range for dimension {top}"),
        ("file:3 1\n3 1\n", "vertex 3 appears twice in the state file"),
        ("file:0 nan\n5 1\n", "marked state has non-finite amplitudes"),
        ("file:99999999999999999999 1\n",
         "vertex 99999999999999999999 out of range for dimension {top}")])
    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_state_refusals_at_the_cap(self, capsys, tmp_path, command, n_bits, state,
                                       message):
        top = 1 << n_bits
        if state.startswith("file:"):
            path = tmp_path / "state.txt"
            path.write_text(state[5:].format(top=top))
            state = str(path)
        else:
            state = state.format(top=top)
        if n_bits > linalg.MAX_BASIS_BITS:
            message = f"hypercube needs 1 to 22 coordinates, got {n_bits}"
        assert run_cli(capsys, command, f"hypercube:{n_bits}", state) == (
            1, "", "error: " + message.format(top=top) + "\n")


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_bad_state_preset(self, capsys):
        assert run_cli(capsys, "analyze", "complete:4", "tripod:1")[0] == 1

    def test_vertex_index_beyond_int64(self, capsys, tmp_path):
        path = tmp_path / "huge.edges"
        path.write_text("# vertices: 4\n0 1\n1 99999999999999999999\n")
        code, out, err = run_cli(capsys, "analyze", str(path), "single:0")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["analyze", "complete:100000", "single:0"],
        ["certify", f"complete:{10**400}"],
        # past the bound of the deterministic primality test
        ["certify", "paley", str(10**25 + 1)],
        ["certify", f"hypercube:{10**400}"],
        ["family", "complete", "100000"],
        # grid points times levels past the trace budget, which also bounds
        # the grid's own size
        ["simulate", "complete:8", "single:0", "--steps", "2000000000"],
        # levels past the float range
        ["certify", f"complete-minus:{10**400},1"],
        ["certify", "multipartite", str(10**400), "2"],
        ["certify", "complete-minus", "--grid", f"n={10**400}", "l=1"],
        # a grid past its row budget
        ["certify", "complete", "--grid", "n=2..1000000000"]])
    def test_oversized_instance_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("state", ["single:abc", "single:1,2", "pair:0,x", "uniform:1,b",
                                       "single:1_0", "single:+0", "pair:0,٣", "uniform: 1",
                                       "file:1_0 0.6\n٣ 0.8\n", "file:0 0.6\x0b1 0.8\n",
                                       "file:0 0.6\x851 0.8\n", "file:+0 1\n"])
    def test_bad_preset_vertices(self, capsys, tmp_path, state):
        if state.startswith("file:"):
            path = tmp_path / "w.state"
            path.write_text(state[5:], encoding="utf-8")
            state = str(path)
        code, _, err = run_cli(capsys, "analyze", "complete:12", state)
        assert code == 1
        assert len(err.splitlines()) == 1

    # integers are an optional '-' and ASCII digits wherever the CLI reads one
    @pytest.mark.parametrize("argv, message", [
        (["analyze", "complete:1_2", "single:1_0"], "bad family parameters in 'complete:1_2'"),
        (["certify", "complete:٣"], "bad family parameters in 'complete:٣'"),
        (["certify", "paley:1_3"], "bad family parameters in 'paley:1_3'"),
        (["analyze", "complete:+8", "single:+0"], "bad family parameters in 'complete:+8'"),
        (["certify", "srg", "--grid", "n=1_0", "k=3", "a=0", "c=1"], "bad grid spec 'n=1_0'"),
        (["family", "complete", "1_2"], "bad family parameters in 'complete:1_2'"),
        (["simulate", "complete:8", "single:0", "--steps", "1_6"], "bad --steps '1_6'"),
        (["pair-table", "--bits", "1_6"], "bad --bits '1_6'"),
        (["certify", "complete:" + "1" * 5000], "bad family parameters in 'complete:"
         + "1" * 5000 + "'"),
        (["analyze", "complete:12", "{state}"], "bad state line: '1_0 0.6'"),
        (["certify", "complete:-3"], "complete graph needs n >= 2, got -3")])
    def test_integers_outside_the_grammar(self, capsys, tmp_path, argv, message):
        (tmp_path / "w.state").write_text("1_0 0.6\n٣ 0.8\n", encoding="utf-8")
        argv = [a.replace("{state}", str(tmp_path / "w.state")) for a in argv]
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    # reals are an optional '-', ASCII digits with a point and exponent, or
    # inf/nan, which the range checks refuse with their own messages
    @pytest.mark.parametrize("argv, message", [
        (["simulate", "complete:8", "single:0", "--tmax", "1_0"], "bad --tmax '1_0'"),
        (["simulate", "complete:8", "single:0", "--tmax", "+5"], "bad --tmax '+5'"),
        (["simulate", "complete:8", "single:0", "--tmax", " 5"], "bad --tmax ' 5'"),
        (["simulate", "complete:8", "single:0", "--gamma", "٠.١"],
         "bad --gamma '٠.١' (not 'critical' or a number)"),
        (["simulate", "complete:8", "single:0", "--gamma", "fast"],
         "bad --gamma 'fast' (not 'critical' or a number)"),
        (["simulate", "complete:8", "single:0", "--tmax", "inf"],
         "t_max must be non-negative and finite, got inf"),
        (["simulate", "complete:8", "single:0", "--gamma", "NaN"],
         "jump rate must be positive and finite, got nan"),
        (["analyze", "complete:12", "1 0_0.8\n"], "bad state line: '1 0_0.8'"),
        (["analyze", "complete:12", "1 ٠.٨\n"], "bad state line: '1 ٠.٨'"),
        (["analyze", "complete:12", "1 0.8e\n"], "bad state line: '1 0.8e'")])
    def test_reals_outside_the_grammar(self, capsys, tmp_path, argv, message):
        if "\n" in argv[-1]:
            (tmp_path / "w.state").write_text(argv[-1], encoding="utf-8")
            argv = argv[:-1] + [str(tmp_path / "w.state")]
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    @given(st.floats())
    def test_reals_in_repr_form(self, x):
        # state files are written with {x!r}: every float reads back as itself
        got = cli._real(repr(x), "real")
        if math.isnan(x):  # repr drops a NaN's sign
            assert math.isnan(got)
        else:
            assert (got, math.copysign(1.0, got)) == (x, math.copysign(1.0, x))

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "hypercube:4,5", "single:0"], "hypercube takes parameters n, got 2"),
        (["simulate", "hypercube:4,5", "single:0"], "hypercube takes parameters n, got 2"),
        (["certify", "hypercube:4,5"], "hypercube takes parameters n, got 2"),
        (["certify", "hypercube", "4", "5"], "hypercube takes parameters n, got 2"),
        (["family", "hypercube", "4", "5"], "hypercube takes parameters n, got 2"),
        (["analyze", "complete:4,5", "single:0"], "complete takes parameters n, got 2"),
        (["certify", "srg:10,3,0"], "srg takes parameters n k a c, got 3"),
        (["family", "multipartite", "4"], "multipartite takes parameters m k, got 1")])
    def test_one_message_for_a_wrong_parameter_count(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (1, "", f"error: family {message}\n")


# Sizes are either small and valid or far past every budget, up to past the
# float range; mid-sized ones are valid but slow (a dense 4096-vertex
# decomposition, a 2**22 transform).  About half the instances are small
# valid graphs with states on vertices 0..5, so that runs get past the
# argument checks.
SIZE = st.integers(-2, 64) | st.integers(10**5, 10**18) | st.integers(2**1024, 10**400)
BITS = st.integers(-1, 6) | st.integers(10**5, 10**18)
NUMBER = (st.floats(-1.0, 64.0) | st.floats(1e5, 1e300)
          | st.sampled_from([math.nan, math.inf, -math.inf])).map(repr)


def _params(*values):
    return st.tuples(*values).map(lambda xs: ",".join(map(str, xs)))


VALID_GRAPH = st.sampled_from(["complete:8", "hypercube:4", "paley:13",
                               "multipartite:3,2", "complete-minus:6,1"])
GRAPH = st.one_of(
    _params(SIZE).map("complete:{}".format),
    _params(BITS).map("hypercube:{}".format),
    _params(SIZE, st.integers(-1, 40)).map("complete-minus:{}".format),
    _params(SIZE).map("paley:{}".format),
    _params(st.integers(-1, 8), st.integers(-1, 8)).map("multipartite:{}".format),
    _params(SIZE | BITS).map("petersen:{}".format),
    st.just("missing.edges"),
)


def _states(vertex):
    return st.one_of(
        _params(vertex).map("single:{}".format),
        _params(vertex, vertex).map("pair:{}".format),
        st.lists(vertex, min_size=1, max_size=4).map(
            lambda vs: "uniform:" + ",".join(map(str, vs))),
    )


VALID_STATE = _states(st.integers(0, 5))
STATE = _states(SIZE) | st.just("tripod:1")


# "\udcff" stands for a raw 0xff byte: files are written with surrogateescape
JUNK_LINE = st.sampled_from(["1 2 3", "x y", "7", "1 -- ", "0 1 # note", "--", ";", "\t",
                             "", "1\t2", "+1 2", "# family: f", "99999999999999999999 0",
                             "1_0 2", "٣ 1", "# généré", "\udcff"])


@st.composite
def graph_file(draw):
    """Text, suffix and order n of a small edge-list or DOT file: about two
    in three of them simple, the rest with duplicates in either orientation,
    self-loops and indices out of range; isolated vertices, disconnected
    parts and, in about one file of four, a junk line."""
    n = draw(st.integers(0, 9))
    edges = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                    st.integers(0, max(n - 1, 0))), max_size=8))
    often = st.sampled_from([True, True, False])
    if draw(often):  # a spanning path, so that connected graphs occur
        edges += [(v, v + 1) for v in range(n - 1)]
    if draw(often):
        edges = sorted({(min(e), max(e)) for e in edges if e[0] != e[1]})
    elif edges:
        edges += [(v, u) for u, v in draw(st.lists(st.sampled_from(edges), max_size=3))]
        edges += draw(st.lists(st.tuples(st.integers(-1, n + 2), st.integers(-1, n + 2)),
                               max_size=2))
    dot = draw(st.booleans())
    lines = [f"  {u} -- {v};" if dot else f"{u} {v}" for u, v in draw(st.permutations(edges))]
    if draw(st.sampled_from([False, False, False, True])):
        lines.insert(draw(st.integers(0, len(lines))), draw(JUNK_LINE))
    if dot:
        # vertex lines, possibly past every edge: isolated vertices
        lines = [f"  {v};" for v in range(draw(st.integers(0, n + 2)))] + lines
        close = draw(st.sampled_from(["}\n"] * 5 + [""]))
        return "graph G {\n" + "".join(line + "\n" for line in lines) + close, ".dot", n
    if draw(st.booleans()):
        lines.insert(0, f"# vertices: {draw(st.integers(0, n + 2))}")
    return "".join(line + "\n" for line in lines), ".edges", n


@st.composite
def argv(draw):
    """CLI arguments, and the ``graph_file`` that stands for "{graph}" in
    them, or None."""
    command = draw(st.sampled_from(["family", "analyze", "certify", "pair-table", "simulate"]))
    valid = draw(st.booleans())
    graph = draw(VALID_GRAPH if valid else GRAPH)
    state = draw(VALID_STATE if valid else STATE)
    if command == "family":
        name, _, params = graph.partition(":")
        return ["family", name, *params.split(",")[:2], "--output", "{out}"], None
    if command == "pair-table":
        return ["pair-table", "--bits", str(draw(BITS)), "--output", "{out}"], None
    file = draw(st.none() | graph_file())
    if file:
        graph = "{graph}"
        if valid:
            state = draw(_states(st.integers(0, max(file[2] - 1, 0))))
    if command == "analyze":
        return ["analyze", graph, state, "--json"], file
    if command == "certify":
        return certify_argv(draw, draw(st.just(graph) | _params(SIZE, SIZE, SIZE, SIZE).map(
            "srg:{}".format))), file
    args = ["simulate", graph, state]
    if draw(st.booleans()):
        args += ["--steps", str(draw(SIZE))]
    if draw(st.booleans()):
        args += ["--tmax", draw(NUMBER)]
    if draw(st.booleans()):
        args += ["--gamma", draw(NUMBER | st.sampled_from(["critical", "fast"]))]
    return args, file


def certify_argv(draw, target):
    """``certify`` arguments for a ``name:params`` target, in that form with
    perhaps a stray argument, as ``name p1 p2 ...`` or as a ``--grid`` that
    sweeps each parameter from its given value to up to four past it."""
    name, _, params = target.partition(":")
    params = params.split(",") if params else []
    form = draw(st.sampled_from(["spec", "words", "grid"]))
    if form == "words":
        return ["certify", name, *params, "--json"]
    if form == "spec":
        return ["certify", target, *draw(st.lists(SIZE.map(str), max_size=1)), "--json"]
    names = graphs.FAMILIES[name][1] if name in graphs.FAMILIES else ("n",)
    grid = [f"{p}={lo}..{int(lo) + draw(st.integers(-1, 4))}" for p, lo in zip(names, params)]
    return ["certify", name, "--grid", *grid]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(argv())
    @example((["certify", "{graph}", "--json"], ("0 1\n1_0 2\n1 2\n", ".edges", 3)))
    @example((["certify", "{graph}", "--json"], ("0 1\n٣ 1\n", ".edges", 2)))
    @example((["certify", "{graph}", "--json"], ("# généré\n0 1\n", ".edges", 2)))
    @example((["certify", "{graph}", "--json"], ("graph G {\n# généré\n}\n", ".dot", 0)))
    @example((["certify", "{graph}", "--json"], ("0 1\n\udcff\n", ".edges", 2)))
    @example((["analyze", "complete:1_2", "single:1_0"], None))
    @example((["certify", "complete:٣"], None))
    @example((["certify", "paley:1_3"], None))
    @example((["analyze", "complete:+8", "single:+0"], None))
    @example((["certify", "srg", "--grid", "n=1_0", "k=3", "a=0", "c=1"], None))
    @example((["family", "complete", "1_2", "--output", "{out}"], None))
    @example((["simulate", "complete:8", "single:0", "--steps", "1_6"], None))
    @example((["analyze", "complete:12", "{graph}"], ("1_0 0.6\n٣ 0.8\n", ".state", 0)))
    @example((["analyze", "complete:12", "{graph}"], ("0 0.6\x0b1 0.8\n", ".state", 0)))
    @example((["simulate", "complete:8", "single:0", "--tmax", "1_0", "--gamma", "٠.١"], None))
    @example((["analyze", "complete:12", "{graph}"], ("1 0_0.8\n", ".state", 0)))
    @example((["analyze", "complete:12", "{graph}"], ("1 ٠.٨\n", ".state", 0)))
    # simulate of an orthogonal state, a degenerate state, a disconnected
    # file and malformed ones
    @example((["simulate", "complete:4", "{graph}"],
              ("0 0.5\n1 0.5\n2 -0.5\n3 -0.5\n", ".state", 0)))
    @example((["simulate", "{graph}", "uniform:0,1,2"], ("0 1\n1 2\n", ".edges", 3)))
    @example((["simulate", "{graph}", "single:0"], ("0 1\n2 3\n", ".edges", 4)))
    @example((["simulate", "{graph}", "single:0"], ("0 1\n1 2\n1 2\n", ".edges", 3)))
    @example((["simulate", "{graph}", "single:0", "--gamma", "0.5"],
              ("graph G {\n  0 -- 1;\n  1 -- 1;\n}\n", ".dot", 2)))
    def test_exit_code_one_line_and_strict_json(self, args):
        args, file = args
        with tempfile.TemporaryDirectory() as tmp:
            graph = f"{tmp}/graph{file[1] if file else ''}"
            if file:
                with open(graph, "wb") as handle:
                    handle.write(file[0].encode("utf-8", "surrogateescape"))
            args = [a.replace("{out}", f"{tmp}/out").replace("{graph}", graph) for a in args]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(args)
        assert code in (0, 1, 2, 3)
        assert len(err.getvalue().splitlines()) <= 1
        if code == 0 and "--grid" in args:
            for row in out.getvalue().splitlines()[1:]:
                assert math.isfinite(float(row.split(",")[-2]))
        elif code == 0 and args[0] in ("analyze", "certify", "simulate"):
            json.loads(out.getvalue(), parse_constant=_reject_constant)
