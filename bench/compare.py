#!/usr/bin/env python3
"""Two sets of untraced runs of the same code, and whether they agree.

    python3 bench/compare.py --runs 10                 # every workload
    python3 bench/compare.py --runs 5 --workloads gf-table,series-eval

Run from the root of a checkout. For each workload it runs ``bench/run.py``
``--runs`` times per set for ``run_seconds``, one run at a time, each with
its own seed (set A takes seeds 1..runs, set B the next ``--runs``),
alternating which set goes first. For every end-to-end metric it prints each set's
median and spread, the distance between the first and third quartile as a
share of the median, and the shift of B's median from A's as a share of A's
(signed: positive is worse). A metric agrees when both spreads and the size
of the shift, in either direction, stay within its bound in
``BENCHMARK.json``; the two sets must also fail the same share of
operations. Spreads below a third of the bound are marked ``steady``. The
raw results go to ``bench/results/compare-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(root: Path, config: dict, workload: str, seed: int) -> dict:
    cmd = [sys.executable, *config["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(config["run_seconds"]), "--trace", "0"]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {workload} seed {seed} exited {proc.returncode}: {proc.stderr[-400:]}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["run_s"] = time.perf_counter() - started
    return result


def report(config: dict, workload: str, sets: list[list[dict]]) -> bool:
    ok = True
    shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
    if len(shares) > 1:
        ok = False
    print(f"\n== {workload}: failed share {sorted(shares)}{'' if len(shares) == 1 else '  DIFFERS'}")
    for metric in config["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
        meds = [statistics.median(v) for v in values]
        spreads = [spread(v) for v in values]
        line = f"  {name:12s} bound {bound:.2f}"
        for med, sp in zip(meds, spreads):
            line += f" | median {med:10.4f} spread {sp:.3f}"
        verdict = "steady" if all(sp < bound / 3 for sp in spreads) else "wide"
        if any(sp > bound for sp in spreads):
            verdict, ok = "SPREAD OVER BOUND", False
        sign = 1 if metric["better"] == "lower" else -1
        shift = sign * (meds[1] - meds[0]) / meds[0]
        line += f" | shift {shift:+.3f}"
        if abs(shift) > bound:
            verdict, ok = "SHIFT OVER BOUND", False
        print(f"{line} | {verdict}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run two sets and compare them against the bounds")
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    root = Path.cwd()
    config = json.loads((root / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in config["workloads"]]
    (HERE / "results").mkdir(exist_ok=True)
    all_ok = True
    for workload in names:
        sets: list[list[dict]] = [[], []]
        for i in range(args.runs):
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                seed = 1 + s * args.runs + i
                sets[s].append(run_once(root, config, workload, seed))
                r = sets[s][-1]
                print(f"{workload} set {'AB'[s]} seed {seed}: wall_s {r['metrics']['wall_s']['value']:.3f}"
                      f" failed {r['failed']}/{r['attempted']} correct {r['correct']}"
                      f" (run took {r['run_s']:.1f} s)", flush=True)
        (HERE / "results" / f"compare-{workload}.json").write_text(json.dumps(sets, indent=1))
        all_ok &= report(config, workload, sets)
        all_ok &= all(r["correct"] for runs in sets for r in runs)
    print("\nall agree" if all_ok else "\nNOT all agree")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
