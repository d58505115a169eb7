"""Output checks for the benchmark's operations.

Each check returns a list of problems; an empty list means the outputs are
correct. A problem marks the operation as failed, it never stops the
benchmark. The checks read the files the ``dprank`` CLI wrote and recompute
what they can independently of the code under test (the privacy spec is the
exception: it is re-derived through ``PrivacySpec.derive``, whose output the
sidecar must echo).
"""

from __future__ import annotations

import filecmp
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-12


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * abs(b)


def single_run_dir(out_dir: Path) -> Path:
    """The one run directory a single-epsilon, single-run synth writes."""
    runs = json.loads((out_dir / "manifest.json").read_text())["runs"]
    if len(runs) != 1:
        raise ValueError(f"expected one run in the manifest, found {len(runs)}")
    return out_dir / runs[0]["dir"]


def check_synth(out_dir: Path, train_cfg, num_nodes: int) -> list:
    """Ledger, privacy spec, synthetic graph and embeddings of one synth run."""
    from dprank.privacy import PrivacySpec

    try:
        run_dir = single_run_dir(out_dir)
        ledger = json.loads((run_dir / "ledger.json").read_text())
        sidecar = json.loads((run_dir / "sidecar.json").read_text())
        edges = np.loadtxt(run_dir / "synthetic_edges.tsv", dtype=np.int64,
                           comments="#", ndmin=2)
        emb = np.load(run_dir / "embeddings.npy")
    except (OSError, ValueError, KeyError) as exc:
        return [f"synth outputs unreadable: {exc}"]

    problems = []
    t = train_cfg.iterations(num_nodes)
    entries = ledger["entries"]
    if len(entries) != t:
        problems.append(f"ledger holds {len(entries)} entries, expected T={t}")
    eps_total = math.fsum(e[0] for e in entries)
    delta_total = math.fsum(e[1] for e in entries)
    if not _rel_close(eps_total, train_cfg.epsilon):
        problems.append(f"ledger epsilon total {eps_total!r} != {train_cfg.epsilon!r}")
    if not _rel_close(delta_total, train_cfg.delta):
        problems.append(f"ledger delta total {delta_total!r} != {train_cfg.delta!r}")

    expected_spec = PrivacySpec.derive(
        epsilon=train_cfg.epsilon, delta=train_cfg.delta, s=train_cfg.s,
        s_nabla=train_cfg.s_nabla, t=t, num_nodes=num_nodes,
        gamma=train_cfg.gamma,
        batch_pairs=train_cfg.nominal_batch_pairs()).to_dict()
    if sidecar.get("privacy_spec") != expected_spec:
        problems.append("sidecar privacy_spec differs from PrivacySpec.derive")

    problems += check_graph(edges, num_nodes, sidecar.get("target_edges"))
    if emb.shape != (num_nodes, train_cfg.r) or not np.isfinite(emb).all():
        problems.append(f"embeddings have shape {emb.shape} or non-finite entries")
    return problems


def check_graph(edges: np.ndarray, num_nodes: int, target_edges) -> list:
    """Simple, undirected (both directions stored), exactly ``target_edges``
    undirected edges, every node incident to at least one edge."""
    if edges.ndim != 2 or edges.shape[1] != 2 or len(edges) == 0:
        return [f"synthetic edge list has shape {edges.shape}"]
    if edges.min() < 0 or edges.max() >= num_nodes:
        return ["synthetic graph has node ids outside [0, N)"]
    problems = []
    if np.any(edges[:, 0] == edges[:, 1]):
        problems.append("synthetic graph has self-loops")
    directed = np.unique(edges, axis=0)
    if len(directed) != len(edges):
        problems.append("synthetic graph has duplicate edges")
    reverse = np.unique(edges[:, ::-1], axis=0)
    if not np.array_equal(directed, reverse):
        problems.append("synthetic graph is not symmetric")
    undirected = int(np.sum(directed[:, 0] < directed[:, 1]))
    if undirected != target_edges:
        problems.append(f"synthetic graph has {undirected} edges, "
                        f"target_edges is {target_edges}")
    degree = np.bincount(edges[:, 0], minlength=num_nodes)
    isolated = int(np.sum(degree == 0))
    if isolated:
        problems.append(f"synthetic graph has {isolated} isolated nodes")
    return problems


def check_eval(out_dir: Path) -> list:
    """Finite MRE for every metric defined on the original; AUC and Micro-F1
    in [0, 1]."""
    try:
        payload = json.loads((out_dir / "eval_report.json").read_text())
        (report,) = payload["per_epsilon"].values()
    except (OSError, ValueError, KeyError) as exc:
        return [f"eval report unreadable: {exc}"]

    problems = []
    for name, original in report["original"].items():
        if original in (None, 0):
            continue
        value = report["mre"].get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"MRE of {name} is {value!r}")
    for key in ("auc", "micro_f1"):
        mean = (report.get(key) or {}).get("mean")
        if not isinstance(mean, (int, float)) or not 0.0 <= mean <= 1.0:
            problems.append(f"{key} mean is {mean!r}")
    return problems


def identical_files(pairs) -> list:
    """Byte-compare (reference, candidate) file pairs."""
    problems = []
    for ref, cand in pairs:
        if not (Path(ref).is_file() and Path(cand).is_file()
                and filecmp.cmp(ref, cand, shallow=False)):
            problems.append(f"{Path(cand).name} differs from the untraced run")
    return problems


def same_synth_outputs(ref: Path, cand: Path) -> list:
    """The released artifacts of two synth runs are byte-identical."""
    try:
        pairs = [(single_run_dir(ref) / name, single_run_dir(cand) / name)
                 for name in ("synthetic_edges.tsv", "embeddings.npy")]
    except (OSError, ValueError, KeyError) as exc:
        return [f"cannot compare synth outputs: {exc}"]
    return identical_files(pairs)
