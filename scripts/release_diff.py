#!/usr/bin/env python3
"""Compare the files that ``dprank synth`` releases from two source trees.

The script writes one small input: the 80-node benchmark graph of acceptance
criterion 10, its benchmark labels, and a config of two epsilons, two runs
per epsilon and a tiny train. It runs ``python -m dprank.cli synth`` on it
once per tree, with ``PYTHONPATH=<tree>/src`` and the same master seed, and
then ``python -m dprank.cli eval --downstream --labels`` from each tree on
the parent's synth output. It prints, for each run directory, whether each
released file reads equal or different, the same for ``id_map.csv``, for
``manifest.json`` with its ``config.out_dir`` removed, and for the two eval
reports. A file that only one tree wrote reads missing on the other side.

The script exits 0 whatever differs, since a change may declare an
RNG-stream change; it exits 1 only when a synth or an eval fails.

Usage:
    python scripts/release_diff.py PARENT_TREE CHANGE_TREE
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_FILES = ("embeddings.npy", "synthetic_edges.tsv", "ledger.json",
             "sidecar.json")
CONFIG = {
    "epsilons": [1.6, 3.2],
    "run_count": 2,
    "master_seed": 3,
    "threads": 1,
    "train": {"n_epochs": 2, "batch_nodes": 10, "r_wn": 1, "r_wl": 5, "r": 8,
              "d": 4, "s": 2.0},
}
WRITE_INPUTS = """
import sys
from dprank.datasets import benchmark_labels, citation_benchmark_graph
from dprank.graph import write_edge_list
write_edge_list(citation_benchmark_graph(num_nodes=80, num_edges=170, seed=9),
                sys.argv[1])
with open(sys.argv[2], "w") as fh:
    fh.write("node_id,class_id\\n")
    fh.writelines(f"{node},{cls}\\n"
                  for node, cls in enumerate(benchmark_labels(80, seed=9)))
"""
EVAL_FILES = ("eval_report.json", "eval_report.csv")


def run(tree: Path, args: list, cwd: Path) -> subprocess.CompletedProcess:
    """``python args`` in ``cwd``, with ``tree``'s package first on the
    import path."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True)


def cli(tree: Path, side: str, args: list, cwd: Path):
    """``python -m dprank.cli args`` from ``tree``; exit 1 if it fails."""
    done = run(tree, ["-m", "dprank.cli", *args], cwd)
    if done.returncode:
        sys.exit(f"{args[0]} of the {side} tree failed "
                 f"(exit {done.returncode}):\n{done.stderr}")


def manifest(path: Path) -> dict:
    payload = json.loads(path.read_text())
    payload["config"].pop("out_dir")
    return payload


def verdict(a: Path, b: Path, read=Path.read_bytes) -> str:
    if not a.exists() or not b.exists():
        return "missing in " + ("parent" if not a.exists() else "change")
    return "equal" if read(a) == read(b) else "different"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        dataset, labels = work / "graph.tsv", work / "labels.csv"
        done = run(args.change, ["-c", WRITE_INPUTS, str(dataset), str(labels)],
                   work)
        if done.returncode:
            sys.exit(f"writing the input graph failed:\n{done.stderr}")
        config = work / "config.json"
        config.write_text(json.dumps({"dataset": str(dataset), **CONFIG}))
        parent, change = work / "parent", work / "change"
        for side, out in (("parent", parent), ("change", change)):
            cli(getattr(args, side), side,
                ["synth", "--config", str(config), "--out", str(out)], work)
        for side in ("parent", "change"):
            cli(getattr(args, side), side,
                ["eval", "--original", str(dataset), "--synthetic-dir",
                 str(parent), "--out", str(work / f"{side}-eval"),
                 "--downstream", "--labels", str(labels)], work)

        run_dirs = sorted({d.relative_to(out).as_posix()
                           for out in (parent, change)
                           for d in out.glob("eps_*/run_*")})
        rows = [(f"{d}/{name}", verdict(parent / d / name, change / d / name))
                for d in run_dirs for name in RUN_FILES]
        rows.append(("id_map.csv", verdict(parent / "id_map.csv",
                                           change / "id_map.csv")))
        rows.append(("manifest.json without out_dir",
                     verdict(parent / "manifest.json", change / "manifest.json",
                             read=manifest)))
        rows += [(f"eval/{name}", verdict(work / "parent-eval" / name,
                                          work / "change-eval" / name))
                 for name in EVAL_FILES]
        width = max(len(name) for name, _ in rows)
        for name, outcome in rows:
            print(f"{name:<{width}}  {outcome}")


if __name__ == "__main__":
    main()
