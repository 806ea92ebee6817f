"""Benchmark of the ctqw-search CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs one workload's fixed operation list in rounds, a
closed loop with one client, until ``--seconds`` have passed.  Every output
is checked against the independent references in ``reference.py`` after the
timed rounds.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds under the tracer, reports the per-layer metrics
of the traced rounds and the tracing overhead (the median ratio of a traced
round's time to the untraced round before it), and writes every span to
``.perfbench/results/``.  ``--smoke`` swaps in tiny instances.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a readable
report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench" / "results"
SETUP_REPEATS = 5
MIN_ROUNDS = 3
PERCENTILES = (99.9, 99.0, 95.0, 90.0)

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def pin_blas_threads() -> int:
    """Run BLAS on one thread, before numpy loads; returns the CPU count.

    The two CPUs of the reference machine share a core: a second BLAS
    thread spinning between calls slows the Python-bound client thread by
    up to 2x, and by how much changes from run to run.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import ctqw_search, ctqw_search.cli
print(time.perf_counter() - start)
"""


def import_package() -> None:
    """Import ctqw_search from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ctqw_search
        import ctqw_search.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import ctqw_search from {src}: {exc}")
    if Path(ctqw_search.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: imported ctqw_search from {ctqw_search.__file__}, "
                         f"not from {src}")


def import_seconds() -> float:
    """Package import time in a fresh interpreter, as a user of the CLI pays it."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                           capture_output=True, text=True, timeout=120, check=True)
    return float(probe.stdout)


def git_commit() -> str:
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown (not a git checkout)"


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
    }


@dataclass
class Failed:
    """Stands in for the output of an operation that raised."""

    error: str


@dataclass
class Round:
    times: list[float]
    outputs: list
    spans: tuple[int, int] | None = None

    @property
    def total(self) -> float:
        return sum(self.times)


@dataclass
class Phase:
    rounds: list[Round] = field(default_factory=list)

    def wall(self) -> float:
        return statistics.median(r.total for r in self.rounds)


def run_round(ops, tracer=None) -> Round:
    """One pass over the operation list; with a tracer, under its spans."""
    first_span = tracer.mark() if tracer else 0
    times, outputs = [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer:
                with tracer.span("bench." + op.kind):
                    result = op.call()
            else:
                result = op.call()
        except Exception as exc:  # an operation failure is counted, not fatal
            times.append(time.perf_counter() - t0)
            outputs.append(Failed(f"{type(exc).__name__}: {exc}"))
            continue
        times.append(time.perf_counter() - t0)
        outputs.append(op.keep(result))
    return Round(times, outputs, (first_span, tracer.mark()) if tracer else None)


def run_rounds(ops, seconds: float, tracer=None) -> list[Phase]:
    """Repeat the operation list until the time is spent, MIN_ROUNDS at least.

    Without a tracer, one untraced phase.  With one, an untraced and a traced
    phase whose rounds alternate, the tracer installed only for the latter.
    """
    phases = [Phase(), Phase()] if tracer else [Phase()]
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        phases[0].rounds.append(run_round(ops))
        if tracer:
            tracer.install()
            try:
                phases[1].rounds.append(run_round(ops, tracer))
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        if (len(phases[0].rounds) >= MIN_ROUNDS
                and now - start + 0.5 * (now - pass_start) >= seconds):
            return phases


def check_outputs(ops, phases: list[Phase]) -> tuple[int, int, list[str]]:
    """(attempted, failed, sample problems) over every round of every phase."""
    attempted = failed = 0
    samples: list[str] = []
    memo: dict = {}
    for phase in phases:
        for rnd in phase.rounds:
            for i, (op, out) in enumerate(zip(ops, rnd.outputs)):
                attempted += 1
                try:
                    key = (i, out)
                    problems = memo.get(key)
                except TypeError:  # unhashable output
                    key, problems = None, None
                if problems is None:
                    problems = judge(op, out)
                    if key is not None:
                        memo[key] = problems
                if problems:
                    failed += 1
                    if len(samples) < 10:
                        samples.append(f"{op.label}: {'; '.join(problems[:3])}")
    return attempted, failed, samples


def judge(op, out) -> list[str]:
    if isinstance(out, Failed):
        return [out.error]
    try:
        return op.check(out)
    except Exception as exc:  # a check that cannot read the output fails the op
        return [f"check raised {type(exc).__name__}: {exc}"]


def tail(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.4g}"
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")[int(p * 10) - 1]
            text += f", p{p:g} {cut:.4g}"
            break
    return text + f" (n={n})"


def report_phase(label: str, ops, phase: Phase) -> dict:
    """Print the timing breakdown of a phase and return it for the results file."""
    rounds = [r.total for r in phase.rounds]
    print(f"{label} wall_s: {tail(rounds)} s over rounds")
    breakdown = {}
    for kind in dict.fromkeys(op.kind for op in ops):
        members = [i for i, op in enumerate(ops) if op.kind == kind]
        per_round = [sum(rnd.times[i] for i in members) for rnd in phase.rounds]
        breakdown[f"{kind}_s"] = statistics.median(per_round)
        latencies = [rnd.times[i] for rnd in phase.rounds for i in members]
        print(f"  {kind}_s: {breakdown[f'{kind}_s']:.4f} s per round; "
              f"per operation {tail(latencies)} s")
    return {"wall_s": phase.wall(), "rounds": len(rounds), **breakdown}


def set_up(workloads, name: str, seed: int, work: Path, smoke: bool):
    """Import, generate inputs and warm up SETUP_REPEATS times.

    Returns the workload and the seconds of each repeat; their median is
    the set-up time.
    """
    times = []
    for i in range(SETUP_REPEATS):
        imported = import_seconds()
        start = time.perf_counter()
        target = work / f"setup{i}"
        shutil.rmtree(target, ignore_errors=True)
        workload = workloads.build(name, seed, target, smoke)
        for op in workloads.build(name, seed, target / "warmup", smoke=True).ops:
            out = op.call()
            if getattr(out, "code", 0) != 0:
                raise SystemExit(f"perfbench: warm-up {op.label} exited {out.code}: "
                                 f"{out.err.strip()}")
        times.append(imported + time.perf_counter() - start)
    return workload, times


def layer_metrics(tracing, tracer, workload, phases: list[Phase]) -> dict:
    """Medians over the traced rounds of the per-layer metrics, plus the
    tracing overhead: the median over round pairs of the traced round's time
    to that of the untraced round run just before it."""
    untraced, traced = phases
    report_phase("traced", workload.ops, traced)
    counts = tracer.call_counts()
    silent = [name for name in workload.required if not counts.get(name)]
    if silent:
        raise SystemExit(f"perfbench: traced layers recorded no calls on "
                         f"{workload.name}: {', '.join(silent)}")
    per_round: dict[str, list[float]] = {}
    for rnd in traced.rounds:
        for name, value in tracer.round_metrics(*rnd.spans).items():
            per_round.setdefault(name, []).append(value)
    values = {name: statistics.median(v) for name, v in per_round.items()}
    values["trace.overhead_pct"] = 100.0 * (statistics.median(
        t.total / u.total for u, t in zip(untraced.rounds, traced.rounds)) - 1.0)
    print(f"tracing overhead: {values['trace.overhead_pct']:.2f} % of the untraced "
          f"round time (median over {len(traced.rounds)} round pairs)")
    for name, unit in tracing.LAYER_METRICS:
        print(f"  {name}: {values[name]:.6g} {unit}")
    return {name: {"value": values[name], "unit": unit} for name, unit in tracing.LAYER_METRICS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instances")
    args = parser.parse_args(argv)

    nproc = pin_blas_threads()
    import_package()
    import workloads
    import tracer as tracing

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.NAMES)}")
    env = environment(nproc)
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        workload, setup_times = set_up(workloads, args.workload, args.seed, work, args.smoke)
        setup_s = statistics.median(setup_times)
        ops = workload.ops
        tracer = tracing.Tracer() if args.trace else None
        try:
            phases = run_rounds(ops, args.seconds, tracer)
        except tracing.TracerError as exc:
            raise SystemExit(f"perfbench: {exc}")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, problems = check_outputs(ops, phases)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops/round={len(ops)} attempted={attempted} failed={failed}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"setup_s: {setup_s:.4f} s, median of "
          f"{', '.join(f'{t:.4f}' for t in setup_times)} s")
    summary = report_phase("untraced", ops, phases[0])
    for line in problems:
        print(f"FAILED {line}")

    if args.trace:
        metrics = layer_metrics(tracing, tracer, workload, phases)
    else:
        values = {"wall_s": summary["wall_s"], "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"peak_rss_mb: {peak_rss_mb:.1f} MB")

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(RESULTS / f"{stem}-spans.csv.gz")
    (RESULTS / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": env, "setup_s": setup_s, "setup_repeats_s": setup_times,
        "untraced": summary, "metrics": metrics, "attempted": attempted,
        "labels": [op.label for op in ops],
        "round_times_s": [[rnd.times for rnd in phase.rounds] for phase in phases],
        "failed": failed, "problems": problems}, indent=2) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
