import json
import math

import numpy as np
import pytest

from ctqw_search import parse_dot, parse_edge_list
from ctqw_search.cli import main


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

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "/nonexistent/path", "single:0")
        assert code == 1


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

    @pytest.mark.parametrize("graph", ["complete:8", "hypercube:6"])
    @pytest.mark.parametrize("option", [
        ["--tmax", "nan"], ["--tmax", "inf"], ["--gamma", "nan"], ["--gamma", "inf"]])
    def test_non_finite_is_usage_error(self, capsys, graph, option):
        code, out, err = run_cli(capsys, "simulate", graph, "single:0", *option)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1

    def test_disconnected_file(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n2 3\n")
        code, _, err = run_cli(capsys, "simulate", str(path), "single:0")
        assert code == 2
        assert "disconnected" in err

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


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_bad_state_preset(self, capsys):
        assert run_cli(capsys, "analyze", "complete:4", "tripod:1")[0] == 1

    @pytest.mark.parametrize("state", ["single:abc", "single:1,2", "pair:0,x", "uniform:1,b"])
    def test_bad_preset_vertices(self, capsys, state):
        code, _, err = run_cli(capsys, "analyze", "complete:8", state)
        assert code == 1
        assert len(err.splitlines()) == 1
