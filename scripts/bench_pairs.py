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
fraction of the parent's median) is flagged ``WORSE``. One where the change
is better in at least 9 of every 10 pairs and its median beats the parent's
by more than the distance between the parent's quartiles is flagged
``GAIN``. The script exits 1 if any metric is flagged ``WORSE``, if any run
reports ``"correct": false`` or a failed operation, or if a run prints no
result.

``disk_mb`` counts the absolute paths that ``manifest.json`` and
``eval_report.json`` store, so it differs between trees at paths of
different lengths whatever the code does. The script therefore refuses such
a pair: it exits 2, naming both lengths, before it reads BENCHMARK.json or
runs anything.

With ``--out FILE`` (a ``BENCH_<pr>.json`` at the root of the change tree,
by convention) the script also writes, per workload and end-to-end metric,
each side's median and quartiles, the ratio, the change's wins and both
flags, and every complete pair's metric values, with the host, the seed and
the commits of both trees.

Usage:
    python scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W \\
        [--workload W2 ...] --seed S --pairs N [--out BENCH_<pr>.json]
"""

import argparse
import json
import os
import platform
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


def compare(spec: dict, runs: list) -> dict:
    """Per end-to-end metric of BENCHMARK.json: each side's median and
    quartiles, the change/parent median ratio, the change's wins, whether
    its median is worse than the bound allows, and whether it is a gain: at
    least 9 wins in 10 pairs and a median better by more than the parent's
    quartile distance."""
    stats = {}
    for m in spec["end_to_end"] if runs else ():
        name = m["name"]
        par = [r["parent"][name] for r in runs]
        chg = [r["change"][name] for r in runs]
        sign = 1 if m["better"] == "lower" else -1
        par_med, chg_med = statistics.median(par), statistics.median(chg)
        q1, q3 = quartiles(par)
        wins = sum(sign * (p - c) > 0 for p, c in zip(par, chg))
        stats[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": {"median": par_med, "quartiles": (q1, q3)},
            "change": {"median": chg_med, "quartiles": quartiles(chg)},
            "ratio": chg_med / par_med if par_med else float("nan"),
            "change_wins": wins,
            "worse": sign * (chg_med - par_med) > m["bound"] * abs(par_med),
            "gain": (10 * wins >= 9 * len(runs)
                     and sign * (par_med - chg_med) > q3 - q1)}
    return stats


def summarize(workload: str, seed: int, runs: list, stats: dict) -> None:
    """Print the per-metric comparison of one workload."""
    print(f"\n{workload}, seed {seed}, {len(runs)} complete pairs")
    print(f"{'metric':<16}{'parent':>12}{'parent q1-q3':>22}{'IQR':>10}"
          f"{'change':>12}{'ratio':>8}{'change wins':>13}")
    for name, st in stats.items():
        q1, q3 = st["parent"]["quartiles"]
        print(f"{name + ' (' + st['unit'] + ')':<16}{st['parent']['median']:>12.6g}"
              f"{f'{q1:.6g}-{q3:.6g}':>22}{q3 - q1:>10.4g}"
              f"{st['change']['median']:>12.6g}{st['ratio']:>8.3f}"
              f"{str(st['change_wins']) + '/' + str(len(runs)):>13}"
              + (f"  WORSE (bound {st['bound']:g})" if st["worse"] else "")
              + ("  GAIN" if st["gain"] else ""))


def commit(tree: Path) -> str | None:
    """The checked-out commit of ``tree``, or None unless ``tree`` is the
    root of a git checkout (a tree unpacked inside another checkout is
    not)."""
    proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                          cwd=tree, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    lines = proc.stdout.split()
    if proc.returncode != 0 or Path(lines[0]).resolve() != tree:
        return None
    return lines[1]


def host() -> str:
    import numpy

    return (f"{platform.machine()}, {os.cpu_count()} CPUs, Python "
            f"{platform.python_version()}, numpy {numpy.__version__}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to compare; repeat for several")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path,
                        help="also write the medians, quartiles and runs here")
    args = parser.parse_args()

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    lengths = {side: len(str(tree)) for side, tree in trees.items()}
    if lengths["parent"] != lengths["change"]:
        print(f"the trees' paths differ in length (parent {lengths['parent']}, "
              f"change {lengths['change']} characters), which disk_mb would "
              f"count; use paths of equal length", file=sys.stderr)
        return 2
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    bad_runs = 0
    worse = []
    record = {"host": host(), "seed": args.seed, "pairs": args.pairs,
              "run_seconds": spec["run_seconds"],
              "commits": {side: commit(tree) for side, tree in trees.items()},
              "workloads": {}}
    for workload in args.workload:
        runs, bad = pair_runs(trees, workload, args.seed, args.pairs,
                              spec["run_seconds"])
        bad_runs += bad
        stats = compare(spec, runs)
        summarize(workload, args.seed, runs, stats)
        worse += [f"{workload} {name}" for name, st in stats.items() if st["worse"]]
        record["workloads"][workload] = {"failed_runs": bad, "metrics": stats,
                                         "runs": runs}
        if args.out:  # rewritten after each workload, so a cut run keeps its rows
            args.out.write_text(json.dumps(record, indent=1) + "\n")
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
