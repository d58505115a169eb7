"""Config-driven experiment runner: synthesis runs, evaluation reports, and
privacy-budget sweeps with reproducible, auditable outputs.

Every output directory carries a manifest (config echo, derived seeds, file
hashes, code version) sufficient to reproduce the run bit for bit. Nothing in
the outputs depends on wall-clock time.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .graph import Graph, load_edge_list, write_edge_list, write_id_map
from .metrics import (GraphStats, build_report, compute_stats, degree_ks,
                      link_prediction_auc, node_classification_f1)
from .privacy import PrivacySpec, gdp_epsilon
from .synthesis import default_target_edges, sample_graph, symmetrize_scores
from .training import TrainConfig, train

MANIFEST_NAME = "manifest.json"
EVAL_COLUMNS = ("epsilon", "run", "metric", "original", "synthetic")
TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)}


class ConfigError(ValueError):
    """Invalid experiment configuration; carries every problem found."""

    def __init__(self, problems):
        super().__init__("invalid config:\n  " + "\n  ".join(problems))
        self.problems = list(problems)


@dataclass
class ExperimentConfig:
    dataset: str
    epsilons: list = field(default_factory=lambda: [3.2])
    run_count: int = 5
    master_seed: int = 0
    out_dir: str = "runs/experiment"
    threads: int = 1
    train: dict = field(default_factory=dict)
    _unknown = ()   # the keys of the file that from_file read and no field takes

    def validate(self, sweep: bool = False) -> Graph:
        """The dataset's graph, or one :class:`ConfigError` naming every
        problem: the file's unknown keys and each per-epsilon train config's
        :meth:`TrainConfig.problems` on the graph; ``sweep`` asks for two
        epsilons."""
        problems = [f"unknown config keys: {self._unknown}"] if self._unknown else []
        # a JSON config can put any type anywhere; the checks below compare
        # and iterate, so they run only on well-typed values
        type_problems = self._type_problems()
        if type_problems:
            raise ConfigError(problems + type_problems)
        if not self.epsilons:
            problems.append("epsilons list must not be empty")
        if sweep and len(self.epsilons) < 2:
            problems.append("a sweep needs at least two epsilon values")
        if not all(math.isfinite(e) and e > 0 for e in self.epsilons):
            problems.append("every epsilon must be positive and finite")
        by_tag = {}
        for e in self.epsilons:
            by_tag.setdefault(_eps_tag(e), []).append(e)
        problems += [f"epsilons {same} would share the run directory {tag}"
                     for tag, same in by_tag.items() if len(same) > 1]
        if self.run_count < 1:
            problems.append("run_count must be >= 1")
        if self.threads < 1:
            problems.append("threads must be >= 1")
        unknown = set(self.train) - TRAIN_KEYS
        if unknown:
            problems.append(f"unknown train config keys: {sorted(unknown)}")
        per_run = sorted({"epsilon", "master_seed"} & set(self.train))
        if per_run:
            problems.append(f"train may not set {per_run}: epsilons and "
                            "master_seed set them per run")
        problems += self.train_config(0).problems().values()
        try:
            g = load_graph(self.dataset)
        except FileNotFoundError:
            problems.append(f"dataset path does not exist: {self.dataset}")
        except (OSError, ValueError) as exc:    # a directory, a malformed line
            problems.append(f"dataset {self.dataset}: {exc}")
        else:
            for e in (e for e in self.epsilons if 0 < e < math.inf):
                cfg = self.train_config(0, epsilon=e)
                problems += cfg.problems(g.num_nodes).values()
        if problems:
            raise ConfigError(list(dict.fromkeys(problems)))
        return g

    def _type_problems(self) -> list:
        def integer(value):
            return isinstance(value, int) and not isinstance(value, bool)

        def path(value):
            return isinstance(value, (str, os.PathLike))

        numbers = isinstance(self.epsilons, list) and all(
            integer(e) or isinstance(e, float) for e in self.epsilons)
        expected = {
            "dataset": ("a path", path(self.dataset)),
            "out_dir": ("a path", path(self.out_dir)),
            "epsilons": ("a list of numbers", numbers),
            "run_count": ("an integer", integer(self.run_count)),
            "master_seed": ("an integer", integer(self.master_seed)),
            "threads": ("an integer", integer(self.threads)),
            "train": ("an object", isinstance(self.train, dict)),
        }
        return [f"{name} must be {kind}, got {getattr(self, name)!r}"
                for name, (kind, ok) in expected.items() if not ok]

    def train_config(self, seed: int, epsilon: float | None = None) -> TrainConfig:
        overrides = {k: v for k, v in self.train.items() if k in TRAIN_KEYS}
        overrides["master_seed"] = seed
        if epsilon is not None:
            overrides["epsilon"] = epsilon
        return TrainConfig(**overrides)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """The config in the JSON object at ``path``, or a :class:`ConfigError`;
        :meth:`validate` names its unknown keys and a missing ``dataset``."""
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:  # also not JSON, not UTF-8
            raise ConfigError([f"config {path}: {exc}"]) from None
        if not isinstance(payload, dict):
            raise ConfigError([f"config must be a JSON object, got {payload!r}"])
        known = {f.name for f in dataclasses.fields(cls)}
        cfg = cls(**{"dataset": None, **{k: payload[k] for k in known & set(payload)}})
        cfg._unknown = sorted(set(payload) - known)
        return cfg


def derive_seed(master_seed: int, run_index: int, purpose: str) -> int:
    """Stable per-run seed from (master, run index, purpose)."""
    digest = hashlib.sha256(
        f"{master_seed}:{run_index}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _json_dump(payload, path: Path):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_graph(path) -> Graph:
    """Undirected graph of the edge list at ``path``: comma-separated if it
    ends in .csv, else tsv."""
    fmt = "csv" if str(path).endswith(".csv") else "tsv"
    return load_edge_list(path, format=fmt, symmetrize=True)


def _eps_tag(epsilon: float) -> str:
    return f"eps_{epsilon:g}"


def synth_one_run(cfg: ExperimentConfig, g: Graph, epsilon: float,
                  run_index: int, out_dir: Path) -> dict:
    """Train once on ``g``, synthesize once, and write the run's released
    artifacts; the weights W stay inside the training checkpoint. Its seeds
    depend on ``run_index`` alone, so they are the same at every epsilon."""
    train_seed = derive_seed(cfg.master_seed, run_index, "train")
    synth_seed = derive_seed(cfg.master_seed, run_index, "synthesis")
    tcfg = cfg.train_config(train_seed, epsilon=epsilon)

    run_dir = out_dir / _eps_tag(epsilon) / f"run_{run_index}"
    ckpt_dir = run_dir / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)

    result = train(g, tcfg, run_dir=ckpt_dir)
    s_sym = symmetrize_scores(result.scores)
    result.scores = None    # the transition buffer is not read again
    target = default_target_edges(s_sym)
    synthetic = sample_graph(s_sym, target_edges=target,
                             rng=np.random.default_rng(synth_seed))

    edges_path = run_dir / "synthetic_edges.tsv"
    write_edge_list(synthetic, edges_path)
    np.save(run_dir / "embeddings.npy", result.theta.v)
    _json_dump(result.ledger.to_dict(), run_dir / "ledger.json")
    sidecar = {
        "epsilon": epsilon,
        "run_index": run_index,
        "train_seed": train_seed,
        "synthesis_seed": synth_seed,
        "target_edges": int(target),
        "num_nodes": synthetic.num_nodes,
        "privacy_spec": result.privacy.to_dict(),
        "depth": result.privacy.min_depth,
    }
    _json_dump(sidecar, run_dir / "sidecar.json")
    return {
        "epsilon": epsilon,
        "run": run_index,
        "dir": str(run_dir.relative_to(out_dir)),
        "train_seed": train_seed,
        "synthesis_seed": synth_seed,
        "target_edges": int(target),
        "edges_sha256": _sha256(edges_path),
    }


def run_synth(cfg: ExperimentConfig) -> Path:
    """Train and synthesize run_count times per epsilon under ``cfg.out_dir``;
    write the manifest. Every config problem is refused before any run
    trains or any directory is written."""
    return _synthesize(cfg, cfg.validate())


def _synthesize(cfg: ExperimentConfig, g: Graph) -> Path:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_id_map(g, out_dir / "id_map.csv")

    jobs = [(cfg, g, epsilon, run_index, out_dir)
            for epsilon in cfg.epsilons for run_index in range(cfg.run_count)]
    workers = min(cfg.threads, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(synth_one_run, *zip(*jobs)))
    else:
        records = [synth_one_run(*job) for job in jobs]

    records.sort(key=lambda rec: (rec["epsilon"], rec["run"]))
    manifest = {
        "kind": "synthesis",
        "version": __version__,
        "config": cfg.to_dict(),
        "num_nodes": g.num_nodes,
        "runs": records,
    }
    _json_dump(manifest, out_dir / MANIFEST_NAME)
    return out_dir


def load_labels(path, g: Graph) -> np.ndarray:
    """Two-column node-id/class-id CSV, remapped onto dense ids when the graph
    was loaded through an id remap.

    Blank and ``#`` lines are skipped. The first remaining row is a header
    when one of its fields is not an integer. Any other row that is not two
    integers, or that labels a node already labelled, raises ValueError with
    its line number."""
    raw = {}
    with open(path) as fh:
        reader = csv.reader(fh)
        first = True
        for row in reader:
            if not row or row[0].strip().startswith("#"):
                continue
            header_allowed, first, values = first, False, None
            try:
                values = [int(field) for field in row]
                node, cls = values  # ValueError unless exactly two
                if node in raw:
                    raise ValueError(f"node {node} is listed twice")
                raw[node] = cls
            except ValueError as exc:
                if not header_allowed or values is not None:
                    raise ValueError(f"{path}:{reader.line_num}: malformed label "
                                     f"row {row!r}: {exc}") from None
    ids = g.original_ids if g.original_ids is not None else np.arange(g.num_nodes)
    labels = np.empty(g.num_nodes, dtype=np.int64)
    missing = 0
    for dense, original in enumerate(ids):
        if int(original) in raw:
            labels[dense] = raw[int(original)]
        else:
            missing += 1
            labels[dense] = -1
    if missing:
        raise ValueError(f"{missing} nodes have no label in {path}")
    return labels


def _synthetic_stats(g: Graph) -> GraphStats:
    """Structural statistics of one run's synthetic graph, in the worker; it
    pickles by name, which ``compute_stats`` under a wrapper would not."""
    return compute_stats(g)


def run_eval(original_path, synthetic_dir, out_dir=None,
             downstream: bool = False, labels_path=None) -> dict[float, dict]:
    """Evaluate every synthetic run in ``synthetic_dir`` against the original
    and return one report per epsilon: the entries of ``eval_report.json``'s
    ``per_epsilon``, keyed by epsilon. With ``downstream`` it also scores
    link prediction and, given ``labels_path``, node classification on each
    run's embeddings; of the manifest's config echo it reads only the
    master seed.

    Reads graphs, sidecars, and embeddings; model checkpoints are never
    touched. Missing runs reduce the aggregate and are reported as warnings
    instead of failing. The classifier gets a fresh load of the embeddings
    as the only reference to them, so that it can free the matrix once it
    has gathered its training rows (see :func:`node_classification_f1`);
    the second read comes from the page cache.
    """
    synthetic_dir = Path(synthetic_dir)
    manifest = json.loads((synthetic_dir / MANIFEST_NAME).read_text())
    master_seed = manifest["config"]["master_seed"]

    original = load_graph(original_path)
    n = original.num_nodes
    labels = (load_labels(labels_path, original)
              if downstream and labels_path else None)
    gaps = []
    privacy_specs = {}
    records = {}    # epsilon -> [(run, stats future, KS, AUC, F1)] per run
    # each synthetic graph is parsed once, here. Its statistics run in one
    # worker process while this one does the rest, including every call whose
    # span bench/traced.py needs, so the outputs are those of a serial run
    pool = ProcessPoolExecutor(max_workers=1)
    try:
        for rec in manifest["runs"]:
            run_dir = synthetic_dir / rec["dir"]
            edges_path = run_dir / "synthetic_edges.tsv"
            if not edges_path.exists():
                gaps.append(f"missing run output: {rec['dir']}")
                continue
            sidecar_path = run_dir / "sidecar.json"
            if rec["epsilon"] not in privacy_specs and sidecar_path.exists():
                privacy_specs[rec["epsilon"]] = json.loads(
                    sidecar_path.read_text())["privacy_spec"]
            synthetic = load_edge_list(edges_path, num_nodes=n)
            stats = pool.submit(_synthetic_stats, synthetic)
            ks = degree_ks(original, synthetic)
            auc = f1 = None
            emb_path = run_dir / "embeddings.npy"
            if downstream and not emb_path.exists():
                gaps.append(f"missing embeddings for downstream: {rec['dir']}")
            elif downstream:
                emb = np.load(emb_path)
                if emb.ndim != 2 or emb.shape[0] != n:
                    raise ValueError(
                        f"{emb_path} has shape {emb.shape}, but the "
                        f"original graph has {n} nodes, one row each")
                rng = np.random.default_rng(
                    derive_seed(master_seed, rec["run"], "evaluation"))
                auc = link_prediction_auc(original, emb, rng=rng)
                del emb
                if labels is not None:
                    f1 = node_classification_f1(np.load(emb_path), labels, rng=rng)
            records.setdefault(rec["epsilon"], []).append(
                (rec["run"], stats, ks, auc, f1))
        if not records:
            raise FileNotFoundError(
                f"no synthetic runs found under {synthetic_dir}")
        original_stats = compute_stats(original)
        original_values = original_stats.as_dict()
        rows = []
        reports = {}
        for epsilon, runs in sorted(records.items()):
            run_ids, futures, ks, auc, f1 = zip(*runs)
            stats = [future.result() for future in futures]
            for run, run_stats, run_ks in zip(run_ids, stats, ks):
                rows.append((epsilon, run, "degree_ks", 0.0, run_ks))
                rows += [(epsilon, run, name, original_values[name], value)
                         for name, value in run_stats.as_dict().items()]
            report = build_report(
                original_stats, stats, list(ks),
                auc_values=[a for a in auc if a is not None] or None,
                f1_values=[f for f in f1 if f is not None] or None)
            report["warnings"] += gaps
            report["privacy_spec"] = privacy_specs.get(epsilon)
            reports[epsilon] = report
    finally:
        pool.shutdown(cancel_futures=True)

    out_dir = Path(out_dir if out_dir is not None else synthetic_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "kind": "evaluation",
        "version": __version__,
        "original_dataset": str(original_path),
        "per_epsilon": {str(eps): rep for eps, rep in reports.items()},
        "gaps": gaps,
    }
    _json_dump(payload, out_dir / "eval_report.json")
    with open(out_dir / "eval_report.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVAL_COLUMNS)
        for row in sorted(rows, key=lambda r: (r[0], r[1], r[2])):
            writer.writerow(row)
    return reports


def run_sweep(cfg: ExperimentConfig) -> Path:
    """``run_synth`` across at least two epsilons, then the structural
    ``run_eval`` of its output; downstream scores come from ``run_eval``
    with ``downstream`` and ``labels_path``. A run's relative error per
    metric is |synthetic - original| / original from ``eval_report.csv``;
    its mean per epsilon is the MRE in ``eval_report.json``."""
    out_dir = _synthesize(cfg, cfg.validate(sweep=True))
    run_eval(cfg.dataset, out_dir)
    return out_dir


def summarize(directory) -> str:
    """Human-readable digest of an eval report or sweep directory."""
    directory = Path(directory)
    report_path = directory / "eval_report.json"
    if not report_path.exists():
        raise FileNotFoundError(f"no eval_report.json under {directory}")
    payload = json.loads(report_path.read_text())
    lines = [f"evaluation of {payload['original_dataset']}"]
    for eps_str, report in sorted(payload["per_epsilon"].items(),
                                  key=lambda kv: float(kv[0])):
        lines.append(f"epsilon = {eps_str}")
        lines.append(f"  {'metric':<16}{'original':>14}{'MRE':>12}")
        for metric, value in report["mre"].items():
            orig = report["original"][metric]
            mre_text = "n/a" if value is None else f"{value:.4f}"
            orig_text = "n/a" if orig is None else f"{orig:.4f}" \
                if isinstance(orig, float) else str(orig)
            lines.append(f"  {metric:<16}{orig_text:>14}{mre_text:>12}")
        lines.append(f"  {'degree_ks':<16}{'':>14}{report['ks_mean']:>12.4f}")
        if report.get("auc"):
            lines.append(f"  AUC: {report['auc']['mean']:.4f} "
                         f"(std {report['auc']['std']:.4f})")
        if report.get("micro_f1"):
            lines.append(f"  Micro-F1: {report['micro_f1']['mean']:.4f} "
                         f"(std {report['micro_f1']['std']:.4f})")
        spec = report.get("privacy_spec")
        if spec:
            gdp = gdp_epsilon(spec["t"], spec["sigma"], spec["delta"])
            lines.append(
                f"  privacy: declared epsilon {spec['epsilon']:g}; the added "
                f"noise gives epsilon {gdp:.4f} at delta {spec['delta']:g} "
                f"under Gaussian DP (mu = sqrt(T)/sigma, T={spec['t']}), if "
                f"S_nabla={spec['s_nabla']:g} is a valid sensitivity")
            bound = PrivacySpec(**spec).step_bound
            per_step = gdp_epsilon(spec["t"],
                                   spec["s_nabla"] * spec["sigma"] / (2 * bound),
                                   spec["delta"])
            lines.append(
                f"  per-step bound: the same noise gives epsilon {per_step:.3g} "
                f"at per-step sensitivity 2 x {bound:.3g} = 2 B M (1/s)^(L+1), "
                f"if each edge's gradient is within M (1/s)^(L+1) at this N "
                f"(acceptance criterion 2 checks it at N <= 500 only)")
        if report["warnings"]:
            lines.append("  warnings: " + "; ".join(report["warnings"]))
    return "\n".join(lines)
