#!/usr/bin/env python3
"""Run the privacy-budget sweep on the benchmark graph.

Builds the dataset if missing, then trains, synthesizes, and evaluates
run_count times per epsilon. Expect roughly half a minute per run at the
default scale.

Usage:
    python scripts/run_benchmark_sweep.py [--out runs/benchmark_sweep]
        [--epsilons 0.1 0.2 0.4 0.8 1.6 3.2] [--runs 5] [--seed 0]
"""

import argparse
from pathlib import Path

from dprank.datasets import citation_benchmark_graph
from dprank.experiments import ExperimentConfig, run_sweep, summarize
from dprank.graph import write_edge_list


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/benchmark_sweep")
    parser.add_argument("--epsilons", type=float, nargs="+",
                        default=[0.1, 0.2, 0.4, 0.8, 1.6, 3.2])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    data = Path("data/benchmark_2708.tsv")
    if not data.exists():
        data.parent.mkdir(parents=True, exist_ok=True)
        write_edge_list(citation_benchmark_graph(), data)
        print(f"wrote {data}")

    cfg = ExperimentConfig(
        dataset=str(data),
        epsilons=args.epsilons,
        run_count=args.runs,
        master_seed=args.seed,
        out_dir=args.out,
        threads=args.threads,
    )
    out = run_sweep(cfg)
    print(f"sweep written to {out}")
    print(summarize(out))


if __name__ == "__main__":
    main()
