"""Traced run: drive ``dprank`` CLI commands inside this process and time the
calls into each module from outside.

Usage: python3 bench/traced.py --plan PLAN.json --out RESULT.json --spans SPANS.json

PLAN.json holds ``{"src": <dir holding the dprank package>, "steps": [argv, ...]}``;
each argv is passed to ``dprank.cli.main`` as the CLI would receive it. The
wrappers replace the module attributes that callers resolve at call time, so
the program itself is unchanged. They draw no random numbers, so a traced run
writes the same bytes as an untraced one with the same seed. Spans (name,
start, end, parent) are kept in memory and written to SPANS.json at the end;
RESULT.json receives the per-layer metrics, the exit code and end time of each
step, and every closed-form count that did not match.
"""

from __future__ import annotations

import argparse
import copy
import functools
import importlib
import json
import statistics
import sys
import time
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

MB = 1e6


@dataclass(slots=True)
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    count: float | None = None      # work done, when the layer has a count
    alloc_mb: float | None = None   # tracemalloc peak, for calls wrapped with alloc
    info: dict | None = None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Records nested spans around wrapped calls; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._replays: list[tuple] = []

    def _open(self, name: str) -> Span:
        span = Span(name, 0, parent=self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start_ns = time.perf_counter_ns()
        return span

    def _close(self, span: Span):
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()

    def run(self, name: str, fn, *args):
        span = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def wrap(self, module: str, attr: str, name=None, count=None, info=None,
             alloc: str | None = None):
        """Replace ``module.attr`` (``attr`` may be ``Class.method``) by a
        timing wrapper. A name that no longer exists raises at once, so a
        renamed function can never read as a layer that took no time.

        ``alloc="inline"`` records the tracemalloc peak of the call itself;
        ``alloc="replay"`` re-runs the call in :meth:`replay` instead, for
        calls whose many small Python allocations tracemalloc would slow."""
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, leaf, None)
        if not callable(fn):
            raise LookupError(f"{module}.{attr} no longer exists; "
                              "bench/traced.py must follow the rename")
        span_name = name or f"{module.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if alloc == "replay":
                # generators are copied, never drawn from, so the run's
                # random streams stay untouched
                saved = copy.deepcopy((args, kwargs), memo=_shared(args, kwargs))
            inline = alloc == "inline" and not tracemalloc.is_tracing()
            if inline:
                tracemalloc.start()
            span = tracer._open(span_name(args) if callable(span_name) else span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
                if inline:
                    span.alloc_mb = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
            if alloc == "replay":
                tracer._replays.append((span, fn, saved))
            if count is not None:
                span.count = count(args, result)
            if info is not None:
                span.info = info(args, result)
            return result

        setattr(owner, leaf, traced)
        self._restore.append((owner, leaf, fn))

    def replay(self):
        """Re-run the ``alloc="replay"`` calls under tracemalloc."""
        for span, fn, (args, kwargs) in self._replays:
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                span.alloc_mb = tracemalloc.get_traced_memory()[1] / MB
            finally:
                tracemalloc.stop()
        self._replays.clear()

    def unwrap(self):
        for owner, leaf, fn in reversed(self._restore):
            setattr(owner, leaf, fn)
        self._restore.clear()


def _shared(args, kwargs) -> dict:
    """deepcopy memo that keeps every argument except random generators
    shared with the caller, so a replay copies no large array."""
    return {id(a): a for a in (*args, *kwargs.values())
            if not isinstance(a, np.random.Generator)}


def _train_info(args, result) -> dict:
    g, cfg = args[0], args[1]
    counts = result.scores.counts
    return {"num_nodes": g.num_nodes,
            "min_out_degree": int(g.out_degree.min()),
            "config": cfg.to_dict(),
            "ledger_entries": len(result.ledger.entries),
            "transitions": float(counts.sum()),
            "score_nonzero": int((counts != 0).sum())}


def install(tracer: Tracer):
    """Wrap every call the per-layer metrics are built from."""
    training = "dprank.training"
    tracer.wrap(training, "generate_walk_batch",
                count=lambda a, r: len(r.pairs))
    tracer.wrap(training, "_loss_and_gradients")
    # the embedding update is the call whose parameter list is [V] alone
    tracer.wrap(training, "adam_step",
                name=lambda a: "model.adam_v" if len(a[1]) == 1 else "model.adam_w")
    tracer.wrap(training, "perturb_gradient", count=lambda a, r: a[0].size)
    tracer.wrap(training, "accumulate_scores")
    tracer.wrap(training, "save_checkpoint",
                count=lambda a, r: Path(r).stat().st_size)
    tracer.wrap("dprank.model", "WeightNormalizer.normalize_")
    experiments = "dprank.experiments"
    tracer.wrap(experiments, "train", info=_train_info)
    for attr in ("synth_one_run", "sample_graph", "load_edge_list",
                 "compute_stats", "degree_ks", "link_prediction_auc",
                 "node_classification_f1"):
        tracer.wrap(experiments, attr,
                    alloc="replay" if attr == "sample_graph" else None)
    tracer.wrap(experiments, "default_target_edges", alloc="inline")
    tracer.wrap("dprank.synthesis", "_coverage_edges")
    tracer.wrap("dprank.synthesis", "sample_edges_without_replacement")
    tracer.wrap("dprank.metrics", "_triangles")
    tracer.wrap("dprank.metrics", "shortest_path", alloc="inline")


# span name -> metric, for the plain "total seconds in this call" metrics
TIME_METRICS = {
    "training.generate_walk_batch": "graph.walks_s",
    "experiments.load_edge_list": "graph.load_s",
    "training._loss_and_gradients": "model.grad_s",
    "model.WeightNormalizer.normalize_": "model.normalize_s",
    "model.adam_w": "model.adam_w_s",
    "model.adam_v": "model.adam_v_s",
    "training.perturb_gradient": "privacy.noise_s",
    "experiments.train": "training.train_s",
    "training.accumulate_scores": "training.accumulate_s",
    "training.save_checkpoint": "training.checkpoint_s",
    "experiments.default_target_edges": "synthesis.target_edges_s",
    "experiments.sample_graph": "synthesis.sample_graph_s",
    "synthesis._coverage_edges": "synthesis.coverage_s",
    "synthesis.sample_edges_without_replacement": "synthesis.phase2_s",
    "experiments.compute_stats": "metrics.stats_s",
    "metrics.shortest_path": "metrics.paths_s",
    "metrics._triangles": "metrics.triangles_s",
    "experiments.degree_ks": "metrics.ks_s",
    "experiments.link_prediction_auc": "metrics.auc_s",
    "experiments.node_classification_f1": "metrics.f1_s",
    "experiments.synth_one_run": "experiments.synth_run_s",
}


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end_ns - s.start_ns
    return [(s.end_ns - s.start_ns - c) / 1e9 for s, c in zip(spans, child)]


def iteration_ms(spans: list[Span]) -> list[float]:
    """One training iteration runs from the start of its walk batch to the
    end of its score accumulation."""
    starts = [s.start_ns for s in spans if s.name == "training.generate_walk_batch"]
    ends = [s.end_ns for s in spans if s.name == "training.accumulate_scores"]
    if len(starts) != len(ends):
        raise ValueError(f"{len(starts)} walk batches but {len(ends)} accumulations")
    return [(e - s) / 1e6 for s, e in zip(starts, ends)]


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"{n} samples cannot give a tail with ten beyond it")
    return 100.0 * (n - 10) / n, ordered[n - 11]


def closed_form_problems(train: dict, walk_pairs: int, noise_draws: int,
                         checkpoints: int) -> list[str]:
    """Counts that the training configuration fixes exactly."""
    cfg, n = train["config"], train["num_nodes"]
    t = cfg["n_epochs"] * (n // cfg["batch_nodes"])
    expected = {
        "ledger entries": (train["ledger_entries"], t),
        "graph.walk_pairs": (walk_pairs,
                             t * cfg["batch_nodes"] * cfg["r_wn"] * (cfg["r_wl"] - 1)),
        "privacy.noise_draws": (noise_draws, t * n * cfg["r"]),
        "training.transitions": (train["transitions"],
                                 t * cfg["batch_nodes"] * (cfg["r_wl"] - 1)),
        "checkpoints": (checkpoints, cfg["n_epochs"]),
    }
    problems = [f"{key} = {got}, closed form gives {want}"
                for key, (got, want) in expected.items() if got != want]
    if train["min_out_degree"] < 1:
        problems.append("training graph has dangling nodes; walk counts are not exact")
    return problems


def per_layer(spans: list[Span]) -> tuple[dict, list[str]]:
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    problems = [f"{name} was never called" for name in TIME_METRICS
                if name not in by_name]
    if problems:
        return {}, problems

    def total(name):
        return sum(s.seconds for s in by_name[name])

    def counted(name):
        return sum(s.count for s in by_name[name])

    selfs = self_seconds(spans)

    def self_of(pred):
        return sum(v for s, v in zip(spans, selfs) if pred(s.name))

    (train_span,) = by_name["experiments.train"]  # every plan trains once
    train = train_span.info
    walk_pairs = counted("training.generate_walk_batch")
    noise_draws = counted("training.perturb_gradient")
    checkpoints = by_name["training.save_checkpoint"]
    problems += [f"{s.name} children outlast their parent by {-v:.6f} s"
                 for s, v in zip(spans, selfs) if v < 0]
    problems += closed_form_problems(train, walk_pairs, noise_draws, len(checkpoints))

    iters = iteration_ms(spans)
    tail_pct, tail_ms = tail(iters)
    synthesis_calls = by_name["experiments.default_target_edges"] + \
        by_name["experiments.sample_graph"]
    metrics = {metric: (total(name), "s") for name, metric in TIME_METRICS.items()}
    metrics.update({
        "graph.walk_pairs": (walk_pairs, "count"),
        "privacy.noise_draws": (noise_draws, "count"),
        "training.self_s": (self_of(lambda n: n == "experiments.train"), "s"),
        "training.iter_ms.p50": (statistics.median(iters), "ms"),
        "training.iter_ms.tail": (tail_ms, "ms"),
        "training.iter_ms.tail_pct": (tail_pct, "%"),
        "training.iter_ms.n": (len(iters), "count"),
        "training.transitions": (train["transitions"], "count"),
        "training.score_fill": (train["score_nonzero"] / train["num_nodes"] ** 2, "ratio"),
        "training.checkpoint_mb": (counted("training.save_checkpoint") / MB, "MB"),
        "synthesis.peak_alloc_mb": (max(s.alloc_mb for s in synthesis_calls), "MB"),
        "metrics.paths_peak_alloc_mb": (max(s.alloc_mb for s in by_name["metrics.shortest_path"]), "MB"),
        "experiments.self_s": (self_of(lambda n: n.startswith("cli.")
                                       or n == "experiments.synth_one_run"), "s"),
    })
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text())
    sys.path.insert(0, plan["src"])
    from dprank import cli

    tracer = Tracer()
    install(tracer)
    steps = []
    try:
        for step in plan["steps"]:
            root = len(tracer.spans)
            code = tracer.run(f"cli.{step[0]}", cli.main, step)
            steps.append({"argv": step, "exit": code,
                          "end_ns": tracer.spans[root].end_ns})
    finally:
        tracer.unwrap()
    tracer.replay()  # unwrapped, so the replayed calls record no spans
    metrics, problems = per_layer(tracer.spans)
    Path(args.spans).write_text(json.dumps([asdict(s) for s in tracer.spans]))
    Path(args.out).write_text(json.dumps(
        {"steps": steps, "problems": problems,
         "metrics": {k: {"value": v, "unit": u}
                     for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
