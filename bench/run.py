#!/usr/bin/env python3
"""polybern benchmark: one workload, a closed loop of fresh CLI processes.

    python3 bench/run.py --workload gf-table --seed 1 --seconds 20 --trace 0

Run from the root of a polybern checkout; the package is imported from its
``src`` directory. The workload's seeded round of command lines runs one
operation at a time, each as a fresh ``python -m polybern`` process, so every
cache starts cold as it does for a user at the shell. Rounds repeat while
another round still fits in ``--seconds``; at least two rounds run. Outputs
are checked against ``reference`` after the timed loop.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each
operation of one round four times in a row, plain, traced through
``trace_shim``, traced, plain, and prints the per-layer metrics (the mean of
the two traced runs, summed over the round) with the tracing overhead (mean
traced minus mean plain wall time); the span files and a per-operation
summary go to ``bench/results/``.

The metric names and units printed are those of ``BENCHMARK.json``. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import trace_shim
import workloads

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_REPS = 9
MIN_ROUNDS = 2
DEADLINE_S = 170.0  # the whole run, set-up and checks included


class Outcome(NamedTuple):
    """What one operation process did."""

    wall: float
    cpu: float
    rc: int
    out: str
    err: str


class Runner:
    """Runs polybern processes from one checkout and accounts their time."""

    def __init__(self, root: Path) -> None:
        self.root = root
        src = root / "src"
        if not (src / "polybern" / "cli.py").is_file():
            raise SystemExit(f"error: no polybern sources under {src}; run from a checkout root")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        self.env = env
        self.started = time.perf_counter()
        found = self.call([sys.executable, "-c", "import polybern.cli; print(polybern.cli.__file__)"])
        if found.rc != 0 or Path(found.out.strip()).resolve() != (src / "polybern" / "cli.py").resolve():
            raise SystemExit(f"error: polybern.cli imports from {found.out.strip() or found.err!r}, not {src}")

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def call(self, cmd: list[str]) -> Outcome:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.remaining()),
            )
            rc, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            rc, out, err = -9, "", "error: timed out at the run deadline"
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        return Outcome(wall, cpu, rc, out, err)

    def setup_s(self) -> float:
        """Median time to start the interpreter and import polybern.cli."""
        cmd = [sys.executable, "-c", "import polybern.cli"]
        return statistics.median(self.call(cmd).wall for _ in range(SETUP_REPS))

    def run(self, op) -> Outcome:
        return self.call([sys.executable, "-m", "polybern", *op.argv])

    def run_traced(self, op, op_id: int, spans: Path) -> Outcome:
        return self.call([sys.executable, str(HERE / "trace_shim.py"),
                          "--out", str(spans), "--op", str(op_id), "--", *op.argv])

    def round(self, ops) -> list[Outcome]:
        """Every operation once, in order; after the deadline the rest time out."""
        return [self.run(op) for op in ops]

    @staticmethod
    def peak_rss_mb() -> float:
        """Highest peak resident set of any child reaped so far (Linux: KiB)."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def tally(ops, rounds: list[list[Outcome]]) -> tuple[bool, int, int, list[str]]:
    """Check every outcome; returns (correct, attempted, failed, problems).

    A failing operation counts in ``failed``. ``correct`` turns false only
    when an operation that is not a known fault fails.
    """
    correct, failed, problems = True, 0, []
    for outcomes in rounds:
        for i, (op, res) in enumerate(zip(ops, outcomes)):
            problem = op.check(res.rc, res.out, res.err)
            if problem is None:
                continue
            failed += 1
            if not op.known_fault:
                correct = False
            if len(problems) < 20:
                tag = "known fault" if op.known_fault else "WRONG"
                problems.append(f"op {i} [{tag}] {op.label()}: {problem}")
    return correct, len(ops) * len(rounds), failed, problems


def end_to_end(rounds: list[list[Outcome]], setup: float, peak: float) -> dict[str, float]:
    """Each operation's median over the rounds, then summed (wall_s, cpu_s),
    their median (op_p50_s) and their maximum (op_max_s)."""
    wall = [statistics.median(r[i].wall for r in rounds) for i in range(len(rounds[0]))]
    cpu = [statistics.median(r[i].cpu for r in rounds) for i in range(len(rounds[0]))]
    return {
        "setup_s": setup,
        "wall_s": sum(wall),
        "cpu_s": sum(cpu),
        "op_p50_s": statistics.median(wall),
        "op_max_s": max(wall),
        "peak_rss_mb": peak,
    }


def span_path(trace_dir: Path, op_id: int, run: int) -> Path:
    return trace_dir / f"op{op_id}.{run}.spans"


def per_layer(ops, plain: list[list[Outcome]], traced: list[list[Outcome]],
              trace_dir: Path) -> tuple[dict, list]:
    """Per-layer metrics of each operation, the mean over its traced runs,
    and their sums over the round with the traced and plain wall times.

    Exits with an error when the shim did not find a function of its
    ``LAYERS`` table (renamed or removed in polybern).
    """
    totals: dict[str, float] = {"trace.wall_s": 0.0, "trace.untraced_wall_s": 0.0}
    per_op = []
    for i, op in enumerate(ops):
        spans = [trace_shim.load(str(span_path(trace_dir, i, run)))
                 for run in range(len(traced)) if span_path(trace_dir, i, run).exists()]
        missing = sorted({name for data in spans for name in data["missing"]})
        if missing:  # their metrics would read 0, which looks like a gain
            raise SystemExit(f"error: functions traced in trace_shim.LAYERS not found in polybern: "
                             f"{', '.join(missing)}")
        summaries = [trace_shim.summarize(data) for data in spans]
        metrics = {name: statistics.mean(s[name] for s in summaries) for name in summaries[0]} if summaries else {}
        wall = statistics.fmean(r[i].wall for r in traced)
        plain_wall = statistics.fmean(r[i].wall for r in plain)
        per_op.append({"op": i, "argv": list(op.argv), "wall_s": wall,
                       "untraced_wall_s": plain_wall, "metrics": metrics})
        for name, value in metrics.items():
            totals[name] = totals.get(name, 0) + value
        totals["trace.wall_s"] += wall
        totals["trace.untraced_wall_s"] += plain_wall
    totals["trace.overhead_s"] = totals["trace.wall_s"] - totals["trace.untraced_wall_s"]
    return totals, per_op


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="polybern benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    with open(root / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    runner = Runner(root)
    ops = workloads.ops_for(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations per round")

    if args.trace:
        trace_dir = RESULTS / f"trace-{args.workload}-seed{args.seed}"
        trace_dir.mkdir(parents=True, exist_ok=True)
        for stale in trace_dir.glob("op*.spans"):
            stale.unlink()
        # plain, traced, traced, plain for each operation in turn: the machine's
        # speed drifts, and this order cancels a drift that is linear in time
        plain: list[list[Outcome]] = [[], []]
        traced: list[list[Outcome]] = [[], []]
        for i, op in enumerate(ops):
            plain[0].append(runner.run(op))
            for run in (0, 1):
                traced[run].append(runner.run_traced(op, i, span_path(trace_dir, i, run)))
            plain[1].append(runner.run(op))
        rounds = plain + traced
        metrics, per_op = per_layer(ops, plain, traced, trace_dir)
        with open(trace_dir / "summary.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "operations": per_op}, fh, indent=1)
        for entry in per_op:
            m = entry["metrics"]
            print(f"op {entry['op']}: traced {entry['wall_s']:.3f} s, untraced {entry['untraced_wall_s']:.3f} s, "
                  f"spans {m.get('trace.spans', 0)}, polylog calls {m.get('polybernoulli.polylog.calls', 0)}: "
                  + " ".join(entry["argv"])[:80])
    else:
        setup = runner.setup_s()
        rounds, start = [], time.perf_counter()
        while True:
            rounds.append(runner.round(ops))
            elapsed = time.perf_counter() - start
            if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
        metrics = end_to_end(rounds, setup, runner.peak_rss_mb())
        for i, op in enumerate(ops):
            walls = [r[i].wall for r in rounds]
            print(f"op {i}: median {statistics.median(walls):.3f} s over {len(walls)} rounds: {op.label()}")

    correct, attempted, failed, problems = tally(ops, rounds)
    for line in problems:
        print(line)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not computed: {', '.join(missing)}", file=sys.stderr)
        return 2
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    for name, entry in result.items():
        print(f"{name}: {entry['value']} {entry['unit']}")
    print(f"attempted {attempted}, failed {failed}, correct {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
