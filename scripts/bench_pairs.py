#!/usr/bin/env python3
"""Compare two source trees on benchmark workloads in alternating pairs.

Each pair runs ``bench/run.py --trace 0`` once in each tree with the same
workload, seed and run length (``run_seconds`` of the change tree's
BENCHMARK.json); the parent runs first in even pairs and the change in odd
ones. ``--workload`` may be given more than once; the workloads run one
after the other. Every run's metrics are printed as it ends. After each
workload, for each end-to-end metric that BENCHMARK.json declares, the
script prints both medians, the quartiles of the parent's runs and their
distance, the ratio of the change's median to the parent's, and in how many
pairs the change was better (ties count for neither side). A metric whose
change median is worse than the parent's by more than its ``bound`` (a
fraction of the parent's median) is flagged ``WORSE``. The script exits 1
if any metric is flagged, if any run reports ``"correct": false`` or a
failed operation, or if a run prints no result.

Usage:
    python scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W \\
        [--workload W2 ...] --seed S --pairs N
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result object of one benchmark run in ``tree``, or None when the
    run printed none."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return result if proc.returncode == 0 else None


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def pair_runs(trees: dict, workload: str, seed: int, pairs: int,
              seconds: float) -> tuple[list, int]:
    """``(runs, bad)``: per complete pair, each side's metric values, and the
    count of runs that failed or printed no result."""
    runs = []
    bad_runs = 0
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            result = run_once(trees[side], workload, seed, seconds)
            if result is None:
                print(f"{workload} pair {pair} {side}: no result", flush=True)
                bad_runs += 1
                continue
            bad_runs += result["failed"] > 0 or not result["correct"]
            got[side] = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{workload} pair {pair} {side}: failed {result['failed']} "
                  + " ".join(f"{k} {v:.6g}" for k, v in got[side].items()),
                  flush=True)
        if len(got) == 2:
            runs.append(got)
    return runs, bad_runs


def summarize(spec: dict, workload: str, seed: int, runs: list) -> list:
    """Print the per-metric comparison of one workload; returns the names
    of the metrics whose change median is worse than the bound allows."""
    print(f"\n{workload}, seed {seed}, {len(runs)} complete pairs")
    print(f"{'metric':<16}{'parent':>12}{'parent q1-q3':>22}{'IQR':>10}"
          f"{'change':>12}{'ratio':>8}{'change wins':>13}")
    worse = []
    for m in spec["end_to_end"] if runs else ():
        name = m["name"]
        par = [r["parent"][name] for r in runs]
        chg = [r["change"][name] for r in runs]
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(sign * (p - c) > 0 for p, c in zip(par, chg))
        q1, q3 = quartiles(par)
        par_med, chg_med = statistics.median(par), statistics.median(chg)
        ratio = chg_med / par_med if par_med else float("nan")
        flag = sign * (chg_med - par_med) > m["bound"] * abs(par_med)
        if flag:
            worse.append(name)
        print(f"{name + ' (' + m['unit'] + ')':<16}{par_med:>12.6g}"
              f"{f'{q1:.6g}-{q3:.6g}':>22}{q3 - q1:>10.4g}"
              f"{chg_med:>12.6g}{ratio:>8.3f}{f'{wins}/{len(runs)}':>13}"
              + (f"  WORSE (bound {m['bound']:g})" if flag else ""))
    return worse


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to compare; repeat for several")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bad_runs = 0
    worse = []
    for workload in args.workload:
        runs, bad = pair_runs(trees, workload, args.seed, args.pairs,
                              spec["run_seconds"])
        bad_runs += bad
        worse += [f"{workload} {name}"
                  for name in summarize(spec, workload, args.seed, runs)]
    status = 0
    if worse:
        print(f"worse than the parent beyond the bound: {', '.join(worse)}",
              file=sys.stderr)
        status = 1
    if bad_runs:
        print(f"{bad_runs} runs failed or printed no result", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
