"""Benchmark of the dprank pipeline, driven through its CLI.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` and nothing needs installing. Every input is generated from
``--seed`` by ``dprank.datasets`` and written under ``bench/.work/``. Each
operation is one ``dprank`` CLI invocation in a child process, run serially
and closed-loop (the next starts when the previous one exits), with one
BLAS/OpenMP thread set in the child's environment only.

With ``--trace 0`` operations repeat until ``--seconds`` have passed (at least
one runs) and the end-to-end metrics are medians over them. With
``--trace 1`` one untraced operation runs, then ``bench/traced.py`` drives the
same commands in one process with the module calls wrapped, and the
per-layer metrics come from its spans. Every output is checked; a failed
check counts as a failed operation. The last line of standard output is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MB = 1e6
EPSILON = 3.2
SETUP_REPEATS = 16
OP_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = "1"


@dataclass(frozen=True)
class Workload:
    nodes: int
    edges: int
    train: dict     # TrainConfig overrides; empty means the reference settings
    op: str         # the measured CLI command: "synth" or "eval"


WIDE = {"batch_nodes": 64, "n_epochs": 1}
# Why each workload exists is recorded in bench/README.md and BENCHMARK.json.
WORKLOADS = {
    "synth-ref": Workload(2708, 5429, {}, "synth"),
    "synth-wide": Workload(6000, 12015, WIDE, "synth"),
    "eval-wide": Workload(6000, 12015, WIDE, "eval"),
}


@dataclass
class Inputs:
    graph: Path
    labels: Path
    config: Path
    synth_dir: Path | None = None   # eval-wide: the synth output it evaluates


@dataclass
class Child:
    exit: int
    start_ns: int
    wall_s: float
    peak_rss_mb: float
    cpu_s: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    return env


def environment() -> dict:
    import numpy
    import scipy

    meminfo = Path("/proc/meminfo")
    avail = next((line.split()[1] for line in meminfo.read_text().splitlines()
                  if line.startswith("MemAvailable:")), None) \
        if meminfo.exists() else None
    return {"blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "mem_available_mb": None if avail is None else int(avail) * 1024 / MB}


def spawn(argv: list, env: dict, log: Path) -> Child:
    """Run one child to completion; wall time from spawn to exit, peak RSS
    and CPU time from ``wait4`` on that child."""
    with open(log, "wb") as fh:
        start = time.perf_counter_ns()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=fh,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.perf_counter_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(exit=proc.returncode, start_ns=start, wall_s=(end - start) / 1e9,
                 peak_rss_mb=usage.ru_maxrss * 1024 / MB,
                 cpu_s=usage.ru_utime + usage.ru_stime)


def cli(argv: list, env: dict, log: Path) -> Child:
    return spawn([sys.executable, "-m", "dprank.cli", *argv], env, log)


def synth_argv(inputs: Inputs, out: Path, seed: int) -> list:
    return ["synth", "--config", str(inputs.config), "--out", str(out),
            "--seed", str(seed), "--threads", "1"]


def eval_argv(inputs: Inputs, synth_dir: Path, out: Path) -> list:
    return ["eval", "--original", str(inputs.graph), "--synthetic-dir",
            str(synth_dir), "--out", str(out), "--downstream",
            "--labels", str(inputs.labels)]


def disk_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / MB


def write_inputs(wl: Workload, seed: int, work: Path) -> Inputs:
    """Graph, labels and experiment config, all from ``seed``."""
    import numpy as np
    from dprank.datasets import benchmark_labels, citation_benchmark_graph

    g = citation_benchmark_graph(wl.nodes, wl.edges, seed=seed)
    inputs = Inputs(graph=work / "graph.tsv", labels=work / "labels.csv",
                    config=work / "config.json")
    undirected = g.edges[g.edges[:, 0] < g.edges[:, 1]]
    np.savetxt(inputs.graph, undirected, fmt="%d", delimiter="\t")
    labels = benchmark_labels(wl.nodes, seed=seed)
    inputs.labels.write_text("node_id,class_id\n" + "".join(
        f"{i},{c}\n" for i, c in enumerate(labels.tolist())))
    inputs.config.write_text(json.dumps({
        "dataset": str(inputs.graph), "epsilons": [EPSILON], "run_count": 1,
        "master_seed": seed, "threads": 1, "train": wl.train,
        "out_dir": str(work / "default_out")}))
    return inputs


def train_config(wl: Workload, seed: int):
    from dprank.training import TrainConfig

    return TrainConfig(**{**wl.train, "epsilon": EPSILON, "master_seed": seed})


def op_problems(exit_code: int, wl: Workload, command: str, out: Path,
                seed: int) -> list:
    """Everything wrong with one CLI invocation's outputs."""
    from checks import check_eval, check_synth

    if exit_code != 0:
        return [f"{command} exited with code {exit_code}"]
    if command == "synth":
        return check_synth(out, train_config(wl, seed), wl.nodes)
    return check_eval(out)


def generate(wl: Workload, seed: int, work: Path) -> tuple[Inputs, list]:
    """Write the inputs SETUP_REPEATS // 2 times; returns them and the times."""
    times = []
    for _ in range(SETUP_REPEATS // 2):
        start = time.perf_counter()
        inputs = write_inputs(wl, seed, work)
        times.append(time.perf_counter() - start)
    return inputs, times


def setup(wl: Workload, seed: int, work: Path, env: dict):
    """Generate the inputs; for eval-wide, also run the synth whose output is
    evaluated. Returns the inputs, the generation times, the synth wall time
    (0 when there is none) and the synth's output problems."""
    inputs, times = generate(wl, seed, work)
    if wl.op != "eval":
        return inputs, times, 0.0, []
    inputs.synth_dir = work / "input_synth"
    child = cli(synth_argv(inputs, inputs.synth_dir, seed), env,
                work / "input_synth.log")
    return inputs, times, child.wall_s, op_problems(
        child.exit, wl, "synth", inputs.synth_dir, seed)


def report(problems: list, label: str):
    for p in problems:
        print(f"FAILED {label}: {p}", file=sys.stderr)


def measure(wl: Workload, inputs: Inputs, seed: int, seconds: float,
            env: dict, work: Path, setup_problems: list):
    """Closed-loop serial operations until ``seconds`` have passed."""
    walls, rss, disk = [], [], []
    failed = 0
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        out = work / f"op{len(walls)}"
        argv = (synth_argv(inputs, out, seed) if wl.op == "synth"
                else eval_argv(inputs, inputs.synth_dir, out))
        child = cli(argv, env, work / f"op{len(walls)}.log")
        problems = setup_problems + op_problems(child.exit, wl, wl.op, out, seed)
        report(problems, f"operation {len(walls)}")
        failed += bool(problems)
        walls.append(child.wall_s)
        rss.append(child.peak_rss_mb)
        disk.append(disk_mb(out))
        shutil.rmtree(out, ignore_errors=True)
    metrics = {"wall_s": (statistics.median(walls), "s"),
               "peak_rss_mb": (statistics.median(rss), "MB"),
               "disk_mb": (statistics.median(disk), "MB")}
    print(f"# {len(walls)} operations, wall_s {[round(w, 3) for w in walls]}")
    return len(walls), failed, metrics


def traced(wl: Workload, inputs: Inputs, seed: int, env: dict, work: Path,
           setup_problems: list, spans: Path):
    """One untraced operation, then the traced process, then the checks that
    tie them together: exit codes, output checks, closed-form counts and
    byte-identical outputs."""
    from checks import identical_files, same_synth_outputs

    untraced = work / "untraced"
    traced_synth, traced_eval = work / "traced_synth", work / "traced_eval"
    if wl.op == "synth":
        child = cli(synth_argv(inputs, untraced, seed), env, work / "untraced.log")
        steps = [("synth", traced_synth), ("eval", traced_eval)]
        argvs = [synth_argv(inputs, traced_synth, seed),
                 eval_argv(inputs, traced_synth, traced_eval)]
    else:
        child = cli(eval_argv(inputs, inputs.synth_dir, untraced), env,
                    work / "untraced.log")
        steps = [("eval", traced_eval), ("synth", traced_synth)]
        argvs = [eval_argv(inputs, inputs.synth_dir, traced_eval),
                 synth_argv(inputs, traced_synth, seed)]
    problems = {f"untraced {wl.op}": setup_problems
                + op_problems(child.exit, wl, wl.op, untraced, seed)}

    plan, result_path = work / "plan.json", work / "trace_result.json"
    plan.write_text(json.dumps({"src": str(SRC), "steps": argvs}))
    tracer = spawn([sys.executable, str(BENCH / "traced.py"), "--plan", str(plan),
                    "--out", str(result_path), "--spans", str(spans)],
                   env, work / "traced.log")
    if tracer.exit != 0:
        log = (work / "traced.log").read_text().strip().splitlines()
        raise RuntimeError(f"traced run exited with code {tracer.exit}: "
                           + "\n".join(log[-5:]))
    result = json.loads(result_path.read_text())
    for (command, out), step in zip(steps, result["steps"]):
        problems[f"traced {command}"] = op_problems(step["exit"], wl, command,
                                                    out, seed)

    # counts and byte identity belong to the traced training run
    ref_synth = untraced if wl.op == "synth" else inputs.synth_dir
    problems["traced synth"] += result["problems"] + same_synth_outputs(
        ref_synth, traced_synth)
    if wl.op == "eval":
        problems["traced eval"] += identical_files(
            (untraced / name, traced_eval / name)
            for name in ("eval_report.json", "eval_report.csv"))
    for label, found in problems.items():
        report(found, label)

    first_step_s = (result["steps"][0]["end_ns"] - tracer.start_ns) / 1e9
    metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
    metrics["cli.cpu_s"] = (child.cpu_s, "s")
    metrics["trace.overhead_s"] = (first_step_s - child.wall_s, "s")
    return len(problems), sum(bool(p) for p in problems.values()), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dprank benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dprank" / "__init__.py").is_file():
        print(f"error: no dprank package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    env = child_env()
    print("# environment " + json.dumps(environment(), sort_keys=True))
    work = BENCH / ".work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs, gen_times, synth_s, setup_problems = setup(wl, args.seed, work, env)
        if args.trace:
            spans = BENCH / ".work" / "traces" / f"{args.workload}-seed{args.seed}.json"
            spans.parent.mkdir(exist_ok=True)
            attempted, failed, metrics = traced(wl, inputs, args.seed, env, work,
                                                setup_problems, spans)
        else:
            attempted, failed, metrics = measure(wl, inputs, args.seed,
                                                 args.seconds, env, work,
                                                 setup_problems)
            # the host's speed drifts over minutes; generating half of the
            # inputs after the operations spreads the samples over the run
            gen_times += generate(wl, args.seed, work)[1]
            metrics["setup_s"] = (statistics.median(gen_times) + synth_s, "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
