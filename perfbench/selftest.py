"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

- smoke: every workload on tiny instances, with --trace 0 and 1 and two
  seeds, prints exactly the metrics BENCHMARK.json names, each with its
  unit, and no operation fails;
- seeds: two seeds give the same operation count and instance sizes, and
  different vertices, weights or edges;
- perturbation: the reference checks flag outputs that are slightly off;
- tracer: it rebinds names imported elsewhere, restores them, and refuses a
  package that lacks a traced function.

Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ctqw_search  # noqa: E402
from ctqw_search import cli, graphs  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)
        print(f"FAIL {message}")


def smoke() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in workloads.NAMES:
        for trace in (0, 1):
            for seed in (1, 2):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
                     "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=300)
                where = f"smoke {name} seed {seed} trace {trace}"
                if proc.returncode != 0:
                    expect(False, f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                       f"{where}: result keys {sorted(result)}")
                expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                       f"{where}: {result['failed']} of {result['attempted']} failed")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                expect(got == wanted[trace], f"{where}: metrics differ from BENCHMARK.json: "
                       f"{sorted(set(got) ^ set(wanted[trace]))}")


def seeds() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        for name in workloads.NAMES:
            runs = [workloads.build(name, seed, Path(tmp) / f"{name}-{seed}")
                    for seed in (1, 2)]
            a, b = ([op.shape for op in run.ops] for run in runs)
            expect(a == b, f"seeds {name}: operation lists differ in size or shape")
            labels = [[op.label for op in run.ops] for run in runs]
            files = [{p.name: p.read_bytes() for p in (Path(tmp) / f"{name}-{seed}").iterdir()}
                     for seed in (1, 2)]
            expect(labels[0] != labels[1] or files[0] != files[1],
                   f"seeds {name}: both seeds generated the same inputs")


def perturbed(op, out):
    """``out`` moved just beyond the acceptance tolerance of its check."""
    if op.kind == "secular":
        return (out[0] + 1e-6,) + out[1:]
    if op.kind == "decompose":
        return out + 1e-5 * max(1.0, float(out[0]))
    if op.kind == "stress":
        return dataclasses.replace(out, theta=out.theta * (1 + 1e-5))
    text = out.out
    if op.kind == "analyze":
        report = json.loads(text)
        report["gamma_c"] += 1e-6
        text = json.dumps(report)
    elif op.kind == "certify":
        report = json.loads(text)
        report["lambda_min_nonzero"] *= 1 + 1e-5
        text = json.dumps(report)
    elif op.kind == "simulate":
        report = json.loads(text)
        report["peak_probability"] -= 1e-5
        text = json.dumps(report)
    elif op.kind == "pair_table":
        lines = text.splitlines()
        lines[1] = ",".join(lines[1].split(",")[:3] + ["1e-8"])
        text = "\n".join(lines) + "\n"
    elif op.kind == "family":
        text = text.replace("edges=", "edges=1")
    return dataclasses.replace(out, out=text)


def perturbation() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        for name in workloads.NAMES:
            for op in workloads.build(name, 3, Path(tmp) / name, smoke=True).ops:
                out = op.keep(op.call())
                problems = op.check(out)
                expect(problems == [], f"perturbation {op.label}: clean output flagged {problems}")
                expect(op.check(perturbed(op, out)) != [],
                       f"perturbation {op.label}: perturbed output passed")
                if isinstance(out, workloads.CliResult):
                    expect(op.check(dataclasses.replace(out, code=3)) != [],
                           f"perturbation {op.label}: exit code 3 passed")


def tracer() -> None:
    original = cli.validate
    t = tracing.Tracer()
    t.install()
    try:
        expect(cli.validate is not original, "tracer: cli.validate not rebound")
        expect(cli.FAMILIES["complete"][0] is graphs.complete
               and hasattr(graphs.complete, "__wrapped__"),
               "tracer: CLI family table not rebound")
        with t.span("bench.analyze"):
            workloads.run_cli(["analyze", "complete:8", "single:0", "--json"])
        counts = t.call_counts()
        expect(counts.get("graphs.validate") == 1 and counts.get("graphs.complete") == 1,
               f"tracer: counted {counts}")
        metrics = t.round_metrics(0, t.mark())
        expect(set(metrics) | {"trace.overhead_pct"} == {n for n, _ in tracing.LAYER_METRICS},
               "tracer: metric names differ from LAYER_METRICS")
        expect(abs(sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS + ("bench",))
                   - (t.end[0] - t.start[0])) < 1e-9,
               "tracer: self times do not add up to the root span")
    finally:
        t.uninstall()
    expect(cli.validate is original, "tracer: cli.validate not restored")

    saved = graphs.validate
    del graphs.validate
    try:
        tracing.Tracer().install()
        expect(False, "tracer: installed on a package without graphs.validate")
    except tracing.TracerError:
        pass
    finally:
        graphs.validate = saved


def main() -> int:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    for check in (tracer, perturbation, seeds, smoke):
        print(f"-- {check.__name__}", flush=True)
        check()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
