#!/usr/bin/env python3
"""Benchmark of the nyfold CLI sweeps: ``recovery``, ``zone-id`` and ``deviation``.

Run from the repository root:

    python3 perfbench/run.py --workload recovery --seed 1 --seconds 55 --trace 0

BENCHMARK.json lists ``recovery`` and ``zone-id`` only: on a 2-core share of
a busy host, two workloads leave room for runs long enough to be steady.
``deviation`` runs on demand; it is the one workload that calls
``SensingOperator.forward``, ``spectral_norm_deviation`` and ``empirical_rip``,
so their per-layer metrics read 0 on the other two.

Every timed run is a fresh ``python -m nyfold.cli EXPERIMENT --config INI
--seed N --out DIR`` process with ``PYTHONPATH=src``, one at a time, with its
BLAS and OpenMP pools on one thread. Each timed run follows a set-up probe;
probe-and-run pairs repeat in a closed loop for as long as the next pair
should still end within ``--seconds`` of the start (at least three pairs), so
both medians cover the whole window. The program sees only the workload's INI
and the seed. Each run's ``results.csv`` is
checked (see workloads.py), and all runs of one invocation must write
byte-identical CSVs.

``--trace 0`` reports the end-to-end metrics:
  run_s        median wall seconds of one CLI process, spawn to exit
  setup_s      median wall seconds of a fresh interpreter that imports the CLI,
               resolves the config and builds every schedule and operator
  peak_rss_mb  median ru_maxrss of the timed CLI processes
``--trace 1`` alternates plain runs with traced in-process runs (traced.py)
for ``--seconds`` (at least two of each) and reports the per-layer metrics of
tracer.py: times are medians over the traced runs, and their exact counts
must repeat from run to run. ``trace.overhead_s`` is the median traced wall
minus the median plain wall.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (runs that exited non-zero or failed a check) and
``metrics``; the lines before it give the machine facts and each metric.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_csv  # noqa: E402

MIN_RUNS = 3
MIN_TRACED = 2
CHILD_TIMEOUT_S = 60.0
# Every child runs its BLAS and OpenMP pools on one thread. With a pool per
# core, OpenBLAS's idle workers spin: on a 2-core Xeon VM a recovery process
# took ~15 s of CPU for ~8.5 s of wall, so its time also hung on any load on
# the other core. On one thread its CPU time equals its wall time.
SINGLE_THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_kb: int
    log: Path


def run_child(argv: list[str], log: Path) -> Child:
    """Run one process from the repo root; time it and read its peak RSS via wait4.

    The parent blocks in waitid without reaping, so a watchdog can still kill
    the child past CHILD_TIMEOUT_S without racing the reap, and no polling
    loop competes with the child for the CPU.
    """
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT)
        # os.kill, not proc.kill: Popen polls (and so reaps) before signalling
        kill = functools.partial(os.kill, proc.pid, signal.SIGKILL)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, kill)
        watchdog.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            kill()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
            _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss, log)


def log_tail(log: Path, lines: int = 5) -> str:
    return " | ".join(log.read_text(errors="replace").splitlines()[-lines:])


class Runner:
    """Runs one workload's processes and keeps the tally of checked runs."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.ini = work / f"{name}.ini"
        self.ini.write_text(self.workload.ini_text(), encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference_csv: bytes | None = None
        self.total_trials = 0
        self.walls: list[float] = []
        self.setup_walls: list[float] = []

    def cli_args(self, out: Path) -> list[str]:
        return [self.workload.experiment, "--config", str(self.ini),
                "--seed", str(self.seed), "--out", str(out)]

    def checked(self, label: str, argv: list[str]) -> Child:
        """Run one CLI process (plain or traced) and check its results.csv."""
        out = self.work / f"out-{self.attempted}"
        child = run_child(argv + self.cli_args(out), self.work / f"{label}-{self.attempted}.log")
        self.attempted += 1
        self.walls.append(child.wall_s)
        problems = []
        if child.code != 0:
            problems.append(f"exit code {child.code}: {log_tail(child.log)}")
        else:
            data = (out / "results.csv").read_bytes()
            problems, self.total_trials = check_csv(self.workload, data.decode("utf-8"))
            if self.reference_csv is None:
                self.reference_csv = data
            elif data != self.reference_csv:
                problems.append("results.csv differs from the first run with this seed")
        if problems:
            self.failed += 1
            self.problems.extend(f"{label} run {self.attempted}: {p}" for p in problems)
        shutil.rmtree(out, ignore_errors=True)
        return child

    def plain_run(self) -> Child:
        return self.checked("timed", [sys.executable, "-m", "nyfold.cli"])

    def traced_run(self) -> tuple[Child, dict | None]:
        spans_path = self.work / f"spans-{self.attempted}.json"
        child = self.checked("traced", [sys.executable, str(HERE / "traced.py"),
                                        str(spans_path)])
        trace = json.loads(spans_path.read_text()) if spans_path.exists() else None
        return child, trace

    def setup_probe(self) -> float:
        child = run_child([sys.executable, str(HERE / "setup_probe.py"),
                           self.workload.experiment, str(self.ini)],
                          self.work / f"setup-{len(self.setup_walls)}.log")
        if child.code != 0:
            raise RuntimeError(f"set-up probe failed: {log_tail(child.log)}")
        self.setup_walls.append(child.wall_s)
        return child.wall_s


def repeat(step, deadline: float, at_least: int) -> list:
    """Call ``step`` at least ``at_least`` times, then while the next call,
    projected from the last one, still ends by ``deadline`` (perf_counter)."""
    results = []
    last = 0.0
    while len(results) < at_least or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        results.append(step())
        last = time.perf_counter() - start
    return results


def end_to_end(runner: Runner, seconds: float) -> dict:
    # a set-up probe before each timed run, so both medians span the whole window
    cycles = repeat(lambda: (runner.setup_probe(), runner.plain_run()),
                    time.perf_counter() + seconds, MIN_RUNS)
    runs = [run for _, run in cycles]
    return {
        "run_s": (statistics.median(c.wall_s for c in runs), "s"),
        "setup_s": (statistics.median(setup for setup, _ in cycles), "s"),
        "peak_rss_mb": (statistics.median(c.maxrss_kb / 1024.0 for c in runs), "MB"),
    }


def per_layer(runner: Runner, seconds: float) -> dict:
    # plain and traced runs alternate, so the overhead compares like with like
    pairs = repeat(lambda: (runner.plain_run(), runner.traced_run()),
                   time.perf_counter() + seconds, MIN_TRACED)
    untraced = statistics.median(plain.wall_s for plain, _ in pairs)
    per_run = []
    for _, (child, trace) in pairs:
        if trace is None:
            runner.problems.append("traced run wrote no spans")
            continue
        metrics, problems = layer_metrics(trace["spans"])
        runner.problems.extend(f"traced run: {p}" for p in problems)
        metrics["cli.import_s"] = (trace["import_s"], "s")
        metrics["trace.overhead_s"] = (child.wall_s - untraced, "s")  # median taken below
        metrics["experiments.trials"] = (runner.total_trials, "count")
        per_run.append(metrics)
    if not per_run:
        raise RuntimeError("no traced run produced spans")
    # counts, points, flop, bytes and ratios are exact: they must repeat
    exact = [k for k, (_, unit) in per_run[0].items() if unit not in ("s", "ms")]
    counts = [{k: m[k][0] for k in exact} for m in per_run]
    if any(c != counts[0] for c in counts[1:]):
        runner.problems.append(f"exact counts differ between traced runs: {counts}")
    return {  # times are medians over the traced runs
        name: (value if name in exact else
               statistics.median(m[name][0] for m in per_run), unit)
        for name, (value, unit) in per_run[0].items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "nyfold" / "cli.py").is_file():
        print(f"perfbench: no nyfold package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        facts = run_child([sys.executable, str(HERE / "machine.py")], work / "machine.log")
        if facts.code != 0:
            print(f"perfbench: cannot import nyfold: {log_tail(facts.log)}", file=sys.stderr)
            return 3
        machine = json.loads(facts.log.read_text().splitlines()[-1])
        runner = Runner(args.workload, args.seed, work)
        try:
            measure = per_layer if args.trace else end_to_end
            metrics = measure(runner, args.seconds)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another invocation is still using it

    print("machine: " + json.dumps(machine))
    print(f"workload {args.workload} ({runner.workload.experiment}), seed {args.seed}, "
          f"trace {args.trace}: {runner.attempted} runs, {runner.failed} failed "
          f"(failed_frac {runner.failed / runner.attempted:.3f})")
    print("  run walls (s): " + " ".join(f"{w:.3f}" for w in runner.walls))
    if runner.setup_walls:
        print("  set-up walls (s): " + " ".join(f"{w:.3f}" for w in runner.setup_walls))
    for problem in runner.problems:
        print(f"  problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
