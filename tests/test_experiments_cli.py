import concurrent.futures
import csv
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from oracles import InlineExecutor

import dprank
from dprank import experiments, training
from dprank.cli import main
from dprank.datasets import benchmark_labels, citation_benchmark_graph
from dprank.experiments import (ConfigError, ExperimentConfig, derive_seed,
                                load_labels, run_eval, run_sweep, run_synth)
from dprank.graph import from_edges, load_edge_list, write_edge_list
from dprank.privacy import gdp_epsilon
from dprank.training import TrainConfig


@pytest.fixture
def small_dataset(tmp_path):
    g = citation_benchmark_graph(num_nodes=60, num_edges=130, seed=5)
    path = tmp_path / "graph.tsv"
    write_edge_list(g, path)
    labels = benchmark_labels(60, num_classes=3, seed=5)
    labels_path = tmp_path / "labels.csv"
    with open(labels_path, "w") as fh:
        fh.write("node_id,class_id\n")
        for i, c in enumerate(labels):
            fh.write(f"{i},{c}\n")
    return path, labels_path


def small_config(dataset, out_dir, **overrides):
    base = dict(
        dataset=str(dataset),
        epsilons=[3.2],
        run_count=2,
        master_seed=7,
        out_dir=str(out_dir),
        train=dict(n_epochs=1, batch_nodes=8, r_wn=1, r_wl=4, r=8, d=4, s=2.0),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ----------------------------------------------------------------- config

def test_config_collects_all_problems(tmp_path):
    cfg = ExperimentConfig(dataset=str(tmp_path / "missing.tsv"),
                           epsilons=[], run_count=0,
                           train={"bogus": 1})
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    text = str(err.value)
    assert "does not exist" in text
    assert "must not be empty" in text
    assert "run_count" in text
    assert "bogus" in text
    assert len(err.value.problems) >= 4


def test_config_from_file_rejects_unknown_keys(tmp_path):
    # validate names them, beside the config's other problems
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dataset": "x", "epsilon_list": [1.0]}))
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_file(path).validate()
    assert err.value.problems == ["unknown config keys: ['epsilon_list']",
                                  "dataset path does not exist: x"]


def test_derived_seeds_are_stable_and_distinct():
    a = derive_seed(7, 0, "train")
    assert a == derive_seed(7, 0, "train")
    assert a != derive_seed(7, 1, "train")
    assert a != derive_seed(7, 0, "synthesis")
    assert a != derive_seed(8, 0, "train")


# ------------------------------------------------------------------ synth

def test_synth_writes_runs_and_manifest(small_dataset, tmp_path):
    dataset, _ = small_dataset
    cfg = small_config(dataset, tmp_path / "out")
    out = run_synth(cfg)
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["runs"]) == 2
    for rec in manifest["runs"]:
        run_dir = out / rec["dir"]
        assert (run_dir / "synthetic_edges.tsv").exists()
        assert (run_dir / "sidecar.json").exists()
        assert (run_dir / "ledger.json").exists()
        assert (run_dir / "embeddings.npy").exists()
        sidecar = json.loads((run_dir / "sidecar.json").read_text())
        assert sidecar["privacy_spec"]["epsilon"] == 3.2
        ledger = json.loads((run_dir / "ledger.json").read_text())
        assert len(ledger["entries"]) == ledger["t"]
    assert (out / "id_map.csv").exists()


def test_synth_run_dir_holds_only_what_is_read(small_dataset, tmp_path):
    dataset, _ = small_dataset
    out = run_synth(small_config(dataset, tmp_path / "out", run_count=1))
    run_dir = out / "eps_3.2" / "run_0"
    written = sorted(p.relative_to(run_dir).as_posix()
                     for p in run_dir.rglob("*") if p.is_file())
    assert written == ["checkpoints/checkpoint.npz", "embeddings.npy",
                       "ledger.json", "sidecar.json", "synthetic_edges.tsv"]


def test_synth_rerun_identical_manifest(small_dataset, tmp_path):
    dataset, _ = small_dataset
    out1 = run_synth(small_config(dataset, tmp_path / "a"))
    out2 = run_synth(small_config(dataset, tmp_path / "b"))
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1["config"].pop("out_dir")
    m2["config"].pop("out_dir")
    assert m1 == m2
    assert [r["edges_sha256"] for r in m1["runs"]] \
        == [r["edges_sha256"] for r in m2["runs"]]


def test_synth_epsilon_cross_product(small_dataset, tmp_path):
    dataset, _ = small_dataset
    cfg = small_config(dataset, tmp_path / "out", epsilons=[0.1, 3.2])
    out = run_synth(cfg)
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["runs"]) == 4
    assert (out / "eps_0.1" / "run_0" / "synthetic_edges.tsv").exists()
    assert (out / "eps_3.2" / "run_1" / "synthetic_edges.tsv").exists()
    # run k draws the same seeds at every epsilon, so the epsilon rows of a
    # sweep differ by epsilon alone
    for k in range(2):
        seeds = {"train_seed": derive_seed(7, k, "train"),
                 "synthesis_seed": derive_seed(7, k, "synthesis")}
        records = [rec for rec in manifest["runs"] if rec["run"] == k]
        assert [rec["epsilon"] for rec in records] == [0.1, 3.2]
        for rec in records:
            sidecar = json.loads((out / rec["dir"] / "sidecar.json").read_text())
            assert {key: rec[key] for key in seeds} == seeds
            assert {key: sidecar[key] for key in seeds} == seeds


def test_synth_writes_no_edge_count(small_dataset, tmp_path):
    # node-level DP with a public node set releases N; the number of edges
    # is private, so no JSON or CSV file that synth writes may hold it
    dataset, _ = small_dataset
    out = run_synth(small_config(dataset, tmp_path / "out"))
    counts = {260, 130}     # the 60-node graph's directed and undirected edges

    def numbers(value):
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, list):
            return [n for item in value for n in numbers(item)]
        try:
            return [float(value)]
        except (TypeError, ValueError):
            return []

    searched = []
    for path in sorted(out.rglob("*")):
        if path.suffix == ".json":
            found = numbers(json.loads(path.read_text()))
        elif path.suffix == ".csv":
            found = numbers(list(csv.reader(path.read_text().splitlines())))
        else:
            continue
        searched.append(path.relative_to(out).as_posix())
        assert not counts & set(found), path
    assert json.loads((out / "manifest.json").read_text())["num_nodes"] == 60
    assert len(searched) == 6, searched     # manifest, id map, 2 x (ledger, sidecar)


# ------------------------------------------------------------------- eval

def test_eval_identical_synthetic_gives_zero_errors(small_dataset, tmp_path):
    dataset, _ = small_dataset
    cfg = small_config(dataset, tmp_path / "out", run_count=2)
    out = run_synth(cfg)
    # overwrite the synthetic outputs with the original graph itself
    from dprank.graph import load_edge_list
    original = load_edge_list(dataset, symmetrize=True)
    for rec in json.loads((out / "manifest.json").read_text())["runs"]:
        write_edge_list(original, out / rec["dir"] / "synthetic_edges.tsv")
    report = run_eval(dataset, out)[3.2]
    assert all(v == 0.0 for v in report["mre"].values()
               if v is not None)
    assert all(k == 0.0 for k in report["ks_per_run"])


def test_eval_partial_runs_warns(small_dataset, tmp_path):
    dataset, _ = small_dataset
    cfg = small_config(dataset, tmp_path / "out", run_count=2)
    out = run_synth(cfg)
    rec = json.loads((out / "manifest.json").read_text())["runs"][0]
    (out / rec["dir"] / "synthetic_edges.tsv").unlink()
    report = run_eval(dataset, out)[3.2]
    assert any("missing run output" in w for w in report["warnings"])
    assert len(report["ks_per_run"]) == 1
    payload = json.loads((out / "eval_report.json").read_text())
    assert payload["gaps"]
    # with every run's output gone there is nothing to aggregate
    for rec in json.loads((out / "manifest.json").read_text())["runs"]:
        (out / rec["dir"] / "synthetic_edges.tsv").unlink(missing_ok=True)
    with pytest.raises(FileNotFoundError, match="no synthetic runs found"):
        run_eval(dataset, out)


def test_eval_never_touches_checkpoints(small_dataset, tmp_path):
    dataset, _ = small_dataset
    cfg = small_config(dataset, tmp_path / "out", run_count=1)
    out = run_synth(cfg)
    for ckpt_dir in out.glob("eps_*/run_*/checkpoints"):
        shutil.rmtree(ckpt_dir)
    report = run_eval(dataset, out)[3.2]
    assert report["ks_per_run"]


def test_eval_downstream_scores(small_dataset, tmp_path):
    dataset, labels_path = small_dataset
    out = run_synth(small_config(dataset, tmp_path / "out", run_count=1))
    report = run_eval(dataset, out, downstream=True,
                      labels_path=labels_path)[3.2]
    assert report["auc"] is not None and 0.0 <= report["auc"]["mean"] <= 1.0
    assert report["micro_f1"] is not None
    assert 0.0 <= report["micro_f1"]["mean"] <= 1.0


def test_eval_downstream_peak_memory_holds_one_embedding_matrix(tmp_path):
    # run_eval loads each run's embeddings once, and the classifier sums its
    # normal equations over small blocks of rows, so beside the one matrix
    # it holds only a few (r + 1) x (r + 1) arrays. With r = 1024 these
    # dwarf the graphs; the peak read the matrix plus 2.05 of them
    import tracemalloc
    n, r = 600, 1024
    dataset = tmp_path / "graph.tsv"
    write_edge_list(citation_benchmark_graph(num_nodes=n, num_edges=3 * n,
                                             seed=3), dataset)
    labels_path = tmp_path / "labels.csv"
    labels_path.write_text("node_id,class_id\n" + "".join(
        f"{i},{c}\n" for i, c in enumerate(benchmark_labels(n, seed=3))))
    out = run_synth(ExperimentConfig(
        dataset=str(dataset), run_count=1, out_dir=str(tmp_path / "out"),
        train=dict(n_epochs=1, batch_nodes=60, r_wn=1, r_wl=4, r=r, d=4)))
    # the first eval imports lazily; keep that out of the measured peak
    run_eval(dataset, out, downstream=True, labels_path=labels_path)
    tracemalloc.start()
    try:
        run_eval(dataset, out, downstream=True, labels_path=labels_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * r * 8 + 2.5 * (r + 1) ** 2 * 8


def test_eval_reads_a_manifest_written_with_symmetrize(small_dataset, tmp_path,
                                                       monkeypatch):
    # a run directory written while the config still had keys it has no more
    # evaluates to the same report; a bare eval of one whose config echo asks
    # for downstream scores runs no downstream task and reads no labels
    dataset, _ = small_dataset
    out = run_synth(small_config(dataset, tmp_path / "out", run_count=1))
    reports = run_eval(dataset, out)
    assert reports[3.2]["auc"] is None and reports[3.2]["micro_f1"] is None

    def unreachable(*args, **kwargs):
        raise AssertionError("a bare eval ran a downstream step")

    for name in ("load_labels", "link_prediction_auc", "node_classification_f1"):
        monkeypatch.setattr(experiments, name, unreachable)
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for old_keys in ({"symmetrize": True},
                     {"labels": str(tmp_path / "nowhere.csv"),
                      "downstream": True, "target_edges": 80}):
        manifest_path.write_text(json.dumps(
            {**manifest, "config": {**manifest["config"], **old_keys}}))
        assert run_eval(dataset, out) == reports


def test_eval_returns_what_eval_report_json_holds(small_dataset, tmp_path):
    # one representation of a report: the returned entries are the written
    # ones, with downstream scores, warnings and the privacy spec
    dataset, labels_path = small_dataset
    out = run_synth(small_config(dataset, tmp_path / "out", run_count=1,
                                 epsilons=[1.6, 3.2]))
    (out / "eps_1.6" / "run_0" / "embeddings.npy").unlink()
    reports = run_eval(dataset, out, downstream=True, labels_path=labels_path)
    per_epsilon = json.loads(
        (out / "eval_report.json").read_text())["per_epsilon"]
    assert reports == {float(k): v for k, v in per_epsilon.items()}
    assert reports[3.2]["micro_f1"] is not None
    assert reports[3.2]["privacy_spec"]["epsilon"] == 3.2


def test_eval_parses_each_edge_list_once(small_dataset, tmp_path, monkeypatch):
    # 2 epsilons x 2 runs, one run's graph deleted: the gap is a warning,
    # every present edge list is parsed once and its statistics computed
    # once, all in this process
    dataset, labels_path = small_dataset
    out = run_synth(small_config(dataset, tmp_path / "out",
                                 epsilons=[1.6, 3.2]))
    (out / "eps_3.2" / "run_0" / "synthetic_edges.tsv").unlink()
    calls = Counter()

    def spy(fn):
        def logged(*args, **kwargs):
            calls[fn.__name__, os.getpid()] += 1
            return fn(*args, **kwargs)
        return logged

    monkeypatch.setattr(experiments, "compute_stats",
                        spy(experiments.compute_stats))
    monkeypatch.setattr(experiments, "load_edge_list",
                        spy(experiments.load_edge_list))
    reports = run_eval(dataset, out, downstream=True, labels_path=labels_path)
    assert "missing run output: eps_3.2/run_0" in reports[1.6]["warnings"]
    # the original and the three present runs
    assert calls == {("compute_stats", os.getpid()): 4,
                     ("load_edge_list", os.getpid()): 4}, calls
    assert not multiprocessing.active_children()


def test_eval_error_on_a_bad_edge_list_is_that_of_its_load(small_dataset,
                                                           tmp_path):
    dataset, _ = small_dataset
    out = run_synth(small_config(dataset, tmp_path / "out"))
    edges_path = out / "eps_3.2" / "run_1" / "synthetic_edges.tsv"
    with open(edges_path, "a") as fh:
        fh.write("3\t60\n")     # node 60 of a 60-node graph
    with pytest.raises(IndexError) as direct:
        load_edge_list(edges_path, num_nodes=60)
    with pytest.raises(IndexError) as err:
        run_eval(dataset, out, out_dir=tmp_path / "eval")
    assert str(err.value) == str(direct.value)
    assert not multiprocessing.active_children()


def test_eval_parent_error_leaves_no_process(small_dataset, tmp_path):
    dataset, labels_path = small_dataset
    out = run_synth(small_config(dataset, tmp_path / "out"))
    short = tmp_path / "short_labels.csv"
    short.write_text("".join(labels_path.read_text().splitlines(True)[:-2]))
    with pytest.raises(ValueError, match="have no label"):
        run_eval(dataset, out, downstream=True, labels_path=short)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("shape", [lambda r: (59, r), lambda r: (61, r),
                                   lambda r: (60,)], ids=["59", "61", "1-d"])
def test_eval_refuses_embeddings_without_one_row_per_node(small_dataset,
                                                          tmp_path, shape):
    # no labels: a long file would otherwise be scored without complaint,
    # and a 1-D file of N entries would fail inside numpy
    dataset, _ = small_dataset
    out = run_synth(small_config(dataset, tmp_path / "out", run_count=1))
    emb_path = out / "eps_3.2" / "run_0" / "embeddings.npy"
    emb = np.load(emb_path)
    np.save(emb_path, np.resize(emb, shape(emb.shape[1])))
    with pytest.raises(ValueError, match="embeddings.npy"):
        run_eval(dataset, out, downstream=True)
    assert not multiprocessing.active_children()


def test_load_labels_header_and_comments(tmp_path):
    g = from_edges(3, [(0, 1), (1, 2)])
    path = tmp_path / "labels.csv"
    path.write_text("# classes\nnode_id,class_id\n0,4\n\n1,5\n2,4\n")
    assert load_labels(path, g).tolist() == [4, 5, 4]


@pytest.mark.parametrize("bad_row", ["1", "1,x", "node,class", "1,2,3", "0,2"])
def test_load_labels_rejects_malformed_rows(tmp_path, bad_row):
    # only the first row may be a header; a later bad row, or a second row
    # for node 0, names its line
    g = from_edges(3, [(0, 1), (1, 2)])
    path = tmp_path / "labels.csv"
    path.write_text(f"node_id,class_id\n0,1\n# note\n{bad_row}\n2,0\n")
    with pytest.raises(ValueError, match=r"labels\.csv:4: malformed"):
        load_labels(path, g)


@pytest.mark.parametrize("first_row", ["1,2,3", "7"])
def test_load_labels_first_row_of_integers_is_data(tmp_path, first_row):
    # a header has a field that is not an integer; a first row of integers
    # is data, so it must be a node id and a class id
    g = from_edges(3, [(0, 1), (1, 2)])
    path = tmp_path / "labels.csv"
    path.write_text(f"{first_row}\n0,1\n1,0\n2,1\n")
    with pytest.raises(ValueError, match=r"labels\.csv:1: malformed"):
        load_labels(path, g)


# ------------------------------------------------------------------ sweep

def test_sweep_is_synth_then_eval(small_dataset, tmp_path):
    # a sweep directory holds what synth followed by a structural eval of
    # its output writes, byte for byte; only the manifest's out_dir differs
    dataset, _ = small_dataset
    swept = run_sweep(small_config(dataset, tmp_path / "sweep",
                                   epsilons=[0.4, 3.2]))
    cfg = small_config(dataset, tmp_path / "apart", epsilons=[0.4, 3.2])
    apart = run_synth(cfg)
    run_eval(cfg.dataset, apart)

    names = [sorted(p.relative_to(out).as_posix()
                    for p in out.rglob("*") if p.is_file())
             for out in (swept, apart)]
    assert names[0] == names[1]
    for name in names[0]:
        if name == "manifest.json":
            m_swept, m_apart = (json.loads((out / name).read_text())
                                for out in (swept, apart))
            m_swept["config"].pop("out_dir")
            m_apart["config"].pop("out_dir")
            assert m_swept == m_apart
        else:
            assert (swept / name).read_bytes() == (apart / name).read_bytes(), name


def test_sweep_requires_two_epsilons(small_dataset, tmp_path):
    dataset, _ = small_dataset
    cfg = small_config(dataset, tmp_path / "out", epsilons=[3.2])
    with pytest.raises(ConfigError):
        run_sweep(cfg)


# -------------------------------------------------------------------- cli

def write_config(path, cfg: ExperimentConfig):
    path.write_text(json.dumps(cfg.to_dict()))


def test_cli_synth_and_eval_and_report(small_dataset, tmp_path, capsys):
    dataset, labels_path = small_dataset
    out_dir = tmp_path / "cli_out"
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, small_config(dataset, out_dir, run_count=2))

    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["eval", "--original", str(dataset),
                 "--synthetic-dir", str(out_dir)]) == 0
    assert main(["report", "--dir", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert "triangle_count" in printed
    # the epsilon that the added noise buys, beside the declared one
    report = json.loads((out_dir / "eval_report.json").read_text())
    (entry,) = report["per_epsilon"].values()
    spec = entry["privacy_spec"]
    gdp = gdp_epsilon(spec["t"], spec["sigma"], spec["delta"])
    assert 0 < gdp < spec["epsilon"]
    assert (f"declared epsilon {spec['epsilon']:g}; the added noise gives "
            f"epsilon {gdp:.4f} at delta {spec['delta']:g} under Gaussian DP"
            in printed)
    assert f"if S_nabla={spec['s_nabla']:g} is a valid sensitivity" in printed
    assert "AUC" not in printed and "warnings" not in printed

    # a downstream eval with one run output missing: report prints the AUC,
    # the Micro-F1 and a warnings line naming the missing run
    (out_dir / "eps_3.2" / "run_1" / "synthetic_edges.tsv").unlink()
    eval_args = ["eval", "--original", str(dataset), "--synthetic-dir",
                 str(out_dir), "--downstream", "--labels", str(labels_path)]
    assert main(eval_args) == 0
    assert main(["report", "--dir", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    (entry,) = json.loads(
        (out_dir / "eval_report.json").read_text())["per_epsilon"].values()
    assert (f"  AUC: {entry['auc']['mean']:.4f} "
            f"(std {entry['auc']['std']:.4f})") in printed
    assert (f"  Micro-F1: {entry['micro_f1']['mean']:.4f} "
            f"(std {entry['micro_f1']['std']:.4f})") in printed
    assert "  warnings: missing run output: eps_3.2/run_1" in printed

    # with every run output missing, eval is a runtime error
    (out_dir / "eps_3.2" / "run_0" / "synthetic_edges.tsv").unlink()
    assert main(eval_args) == 2
    assert "error: no synthetic runs found under" in capsys.readouterr().err


def test_cli_csv_dataset_with_sparse_ids(tmp_path):
    # a .csv dataset is read comma-separated; its ids 3, 13, 23, ... are
    # remapped onto 0..N-1, id_map.csv records the remap, and labels keyed
    # by the original ids, in any order, reach the classifier
    g = citation_benchmark_graph(num_nodes=60, num_edges=130, seed=5)
    dataset = tmp_path / "graph.csv"
    dataset.write_text("".join(f"{10 * u + 3},{10 * v + 3}\n"
                               for u, v in g.edges if u < v))
    labels = benchmark_labels(60, num_classes=3, seed=5)
    labels_path = tmp_path / "labels.csv"
    order = np.random.default_rng(0).permutation(60)
    labels_path.write_text("node_id,class_id\n" + "".join(
        f"{10 * k + 3},{labels[k]}\n" for k in order))
    out_dir = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, small_config(dataset, out_dir, run_count=1))

    assert main(["synth", "--config", str(cfg_path)]) == 0
    with open(out_dir / "id_map.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["node_id", "original_id"]] + [
        [str(k), str(10 * k + 3)] for k in range(60)]
    assert main(["eval", "--original", str(dataset), "--synthetic-dir",
                 str(out_dir), "--downstream", "--labels",
                 str(labels_path)]) == 0
    report = json.loads((out_dir / "eval_report.json").read_text())
    (entry,) = report["per_epsilon"].values()
    assert 0.0 <= entry["auc"]["mean"] <= 1.0
    assert 0.0 <= entry["micro_f1"]["mean"] <= 1.0
    assert np.array_equal(
        load_labels(labels_path, experiments.load_graph(dataset)),
        labels)


def test_cli_eval_without_downstream_ignores_the_manifest(small_dataset,
                                                         tmp_path):
    # a bare eval runs no downstream task; --downstream without --labels
    # runs link prediction only, since the flag is where the labels come from
    dataset, _ = small_dataset
    synth_dir = tmp_path / "synth"
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, small_config(dataset, synth_dir, run_count=1))
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["eval", "--original", str(dataset), "--synthetic-dir",
                 str(synth_dir), "--out", str(tmp_path / "bare")]) == 0
    report = json.loads((tmp_path / "bare" / "eval_report.json").read_text())
    (entry,) = report["per_epsilon"].values()
    assert entry["auc"] is None
    assert entry["micro_f1"] is None
    assert main(["eval", "--original", str(dataset), "--synthetic-dir",
                 str(synth_dir), "--out", str(tmp_path / "full"),
                 "--downstream"]) == 0
    report = json.loads((tmp_path / "full" / "eval_report.json").read_text())
    (entry,) = report["per_epsilon"].values()
    assert 0.0 <= entry["auc"]["mean"] <= 1.0
    assert entry["micro_f1"] is None


# runs the CLI in a fresh interpreter, with every scipy import failing when
# the first argument is "block"; exits 1 if a scipy module got loaded
CLI_CHILD = """
import sys
if sys.argv.pop(1) == "block":
    sys.modules["scipy"] = None
from dprank.cli import main
code = main(sys.argv[1:])
sys.exit(code or any(m.split(".")[0] == "scipy" and sys.modules[m] is not None
                     for m in sys.modules))
"""


def run_child_cli(mode, argv):
    src = str(Path(dprank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", CLI_CHILD, mode, *argv],
                          env=env, capture_output=True, text=True)


def test_cli_synth_and_eval_need_no_scipy(small_dataset, tmp_path):
    # with scipy unimportable, synth and eval --downstream exit 0, load no
    # scipy module, and write the bytes of an unblocked run
    dataset, labels_path = small_dataset
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, small_config(dataset, tmp_path / "unused",
                                        run_count=1))
    for mode in ("block", "allow"):
        synth, report = tmp_path / f"synth_{mode}", tmp_path / f"eval_{mode}"
        done = run_child_cli(mode, ["synth", "--config", str(cfg_path),
                                    "--out", str(synth)])
        assert done.returncode == 0, done.stderr
        done = run_child_cli(mode, ["eval", "--original", str(dataset),
                                    "--synthetic-dir", str(synth), "--out",
                                    str(report), "--downstream", "--labels",
                                    str(labels_path)])
        assert done.returncode == 0, done.stderr
    run = Path("eps_3.2") / "run_0"
    released = ["id_map.csv"] + [str(run / name) for name in (
        "synthetic_edges.tsv", "embeddings.npy", "ledger.json",
        "sidecar.json", "checkpoints/checkpoint.npz")]
    for name in released:
        assert ((tmp_path / "synth_block" / name).read_bytes()
                == (tmp_path / "synth_allow" / name).read_bytes()), name
    for name in ("eval_report.json", "eval_report.csv"):
        assert ((tmp_path / "eval_block" / name).read_bytes()
                == (tmp_path / "eval_allow" / name).read_bytes()), name


def test_cli_exit_codes(small_dataset, tmp_path):
    dataset, _ = small_dataset
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"dataset": str(tmp_path / "nope.tsv")}))
    assert main(["synth", "--config", str(bad_cfg)]) == 1
    assert main(["eval", "--original", str(dataset),
                 "--synthetic-dir", str(tmp_path / "missing")]) == 2


def test_cli_exit_code_of_a_gradient_above_the_step_bound(
        small_dataset, tmp_path, monkeypatch, capsys):
    dataset, _ = small_dataset
    real = training._loss_and_gradients

    def loud_gradients(*args):
        loss, grad_rows, grad_w = real(*args)
        return loss, np.full_like(grad_rows, 1e6), grad_w

    monkeypatch.setattr(training, "_loss_and_gradients", loud_gradients)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, small_config(dataset, tmp_path / "out", run_count=1))
    assert main(["synth", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert "privacy overdraft: summed embedding gradient norm" in err
    assert "at epoch 0, iteration 0" in err


def test_report_prints_the_epsilon_at_the_per_step_bound(tmp_path, capsys):
    # the reference spec: 2.07e-6 at twice B M (1/s)^(L+1) = 2 x 0.00381
    spec = TrainConfig().privacy_spec(2708)
    report = {"mre": {}, "original": {}, "ks_mean": 0.0, "warnings": [],
              "privacy_spec": spec.to_dict()}
    (tmp_path / "eval_report.json").write_text(json.dumps(
        {"original_dataset": "graph.tsv", "per_epsilon": {"3.2": report}}))
    assert main(["report", "--dir", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    assert ("per-step bound: the same noise gives epsilon 2.07e-06 at "
            "per-step sensitivity 2 x 0.00381 = 2 B M (1/s)^(L+1)" in printed)
    assert "if each edge's gradient is within M (1/s)^(L+1) at this N" in printed


def test_cli_eval_refuses_labels_without_downstream(small_dataset, tmp_path,
                                                   capsys):
    dataset, labels_path = small_dataset
    synth_dir = tmp_path / "synth"
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, small_config(dataset, synth_dir, run_count=1))
    assert main(["synth", "--config", str(cfg_path)]) == 0
    report_dir = tmp_path / "report"
    assert main(["eval", "--original", str(dataset), "--synthetic-dir",
                 str(synth_dir), "--out", str(report_dir),
                 "--labels", str(labels_path)]) == 1
    assert not report_dir.exists()
    err = capsys.readouterr().err
    assert "--labels" in err and "--downstream" in err


def test_cli_refuses_per_step_budget_of_one(small_dataset, tmp_path, capsys):
    # N = 60 and batch_nodes = 8 give T = 7 iterations, so epsilon 7 is
    # epsilon/T = 1; no run starts, not even the one at epsilon 3.2
    dataset, _ = small_dataset
    out_dir = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, small_config(dataset, out_dir, epsilons=[3.2, 7.0]))
    assert main(["synth", "--config", str(cfg_path)]) == 1
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert "epsilon/T = 7/7 >= 1 at N = 60" in err
    assert "3.2" not in err


def test_cli_refuses_batch_larger_than_graph(small_dataset, tmp_path, capsys):
    # train would refuse it too; synth says so before writing anything
    dataset, _ = small_dataset
    out_dir = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg = small_config(dataset, out_dir, epsilons=[0.5, 1.0])
    cfg.train["batch_nodes"] = 61
    write_config(cfg_path, cfg)
    assert main(["synth", "--config", str(cfg_path)]) == 1
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert err.count("batch_nodes=61 exceeds the node count 60") == 1


@pytest.mark.parametrize("epsilons", [[1.0, 1.0], [1.0, 1.0000001]],
                         ids=["duplicate", "same-6-digits"])
def test_cli_refuses_epsilons_sharing_a_run_directory(small_dataset, tmp_path,
                                                      capsys, epsilons):
    # both would write eps_1/run_k, the later run over the earlier one
    dataset, _ = small_dataset
    out_dir = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, small_config(dataset, out_dir, epsilons=epsilons))
    assert main(["synth", "--config", str(cfg_path)]) == 1
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert f"epsilons {epsilons} would share the run directory eps_1" in err


@pytest.mark.parametrize("override, problem", [
    ({"epsilons": [math.nan]}, "every epsilon must be positive and finite"),
    ({"train": {"eta": math.inf}}, "eta must be finite"),
    ({"train": {"s_nabla": math.inf}}, "s_nabla must be finite"),
    ({"train": {"n_epochs": math.inf}}, "n_epochs must be an integer, got inf"),
    ({"train": {"r": 8.5}}, "r must be an integer, got 8.5"),
    # synthesis takes its edge target from the scores, and eval its
    # downstream task and labels from its flags: none of the three is a
    # config key, whatever its value
    ({"target_edges": 5}, "unknown config keys: ['target_edges']"),
    ({"target_edges": 1771}, "unknown config keys: ['target_edges']"),
    ({"target_edges": 1400}, "unknown config keys: ['target_edges']"),
    ({"downstream": True}, "unknown config keys: ['downstream']"),
    ({"labels": "labels.csv"}, "unknown config keys: ['labels']"),
    ({"train": {"epsilon": 0.5}}, "train may not set ['epsilon']"),
    ({"train": {"master_seed": 9}}, "train may not set ['master_seed']"),
    # a problem of the config and one found on its graph, named together
    ({"run_count": 0, "train": {"batch_nodes": 100}},
     ("run_count must be >= 1", "batch_nodes=100 exceeds the node count 60")),
    # a dataset that does not parse is one more problem of the config
    ({"run_count": 0, "dataset": "malformed.tsv"},
     ("run_count must be >= 1",
      "dataset malformed.tsv: line 3: non-integer node id in 'x y'")),
    # every bad train value is named, each by its field
    ({"train": {"gamma": 2, "s": 0.5}},
     ("gamma must lie in (0, 1), got 2", "s must lie in (1, inf), got 0.5")),
    ({"train": {"r": 0, "s_nabla": -1, "eta": 0}},
     ("r must be >= 1, got 0", "s_nabla must lie in (0, inf), got -1",
      "eta must lie in (0, inf), got 0")),
    ({"train": {"gamma": "y"}}, "gamma must be a number, got 'y'"),
    ({"train": {"bogus": 1, "r": 0}},
     ("unknown train config keys: ['bogus']", "r must be >= 1, got 0")),
    # an unknown key of the file, named with the config's other problems
    ({"bogus": 1, "run_count": 0},
     ("unknown config keys: ['bogus']", "run_count must be >= 1")),
    # a check on the graph runs whenever the train fields it reads are valid
    ({"train": {"r": 0, "batch_nodes": 100}},
     ("r must be >= 1, got 0", "batch_nodes=100 exceeds the node count 60")),
    ({"epsilons": [7.0], "train": {"gamma": 2}},
     ("gamma must lie in (0, 1), got 2", "epsilon/T = 7/7 >= 1 at N = 60")),
    # a graph of one node, named beside the train problems found on it
    ({"dataset": "one_node.tsv", "train": {"gamma": 2, "batch_nodes": 1}},
     ("gamma must lie in (0, 1), got 2", "epsilon/T = 3.2/1 >= 1 at N = 1",
      "training needs at least 2 nodes, the graph has 1")),
    ({"threads": 0}, "threads must be >= 1"),
    # a noise scale S_nabla * sigma that overflows, or whose epsilon/T
    # rounds to 0, would fail in training
    ({"epsilons": [1e-320]}, "noise scale s_nabla * sigma is too large at "
     "epsilon/T = 1e-320/7 and s_nabla = 5.0"),
    ({"epsilons": [5e-324]}, "noise scale s_nabla * sigma is too large at "
     "epsilon/T = 5e-324/7 and s_nabla = 5.0"),
    ({"train": {"s_nabla": 1e308}}, "noise scale s_nabla * sigma is too "
     "large at epsilon/T = 3.2/7 and s_nabla = 1e+308"),
], ids=["epsilon-nan", "eta-inf", "s_nabla-inf", "n_epochs-inf", "r-fractional",
        "target_edges-below-cover", "target_edges-above-simple",
        "target_edges-in-range", "downstream-key", "labels-key",
        "train-epsilon", "train-master_seed", "run_count-and-batch_nodes",
        "run_count-and-malformed-dataset", "train-gamma-and-s",
        "train-r-s_nabla-eta", "train-gamma-str", "train-unknown-and-r",
        "unknown-key-and-run_count", "train-r-and-batch_nodes",
        "train-gamma-and-per-step-budget", "one-node-dataset-and-train-gamma",
        "threads-zero", "epsilon-subnormal", "epsilon-per-step-zero",
        "s_nabla-overflow"])
def test_cli_non_finite_config_values_are_config_errors(small_dataset, tmp_path,
                                                        monkeypatch, capsys,
                                                        override, problem):
    # json reads NaN and Infinity, a count may arrive as a float, and a key
    # or a per-run train value may be out of place; each is refused before
    # anything trains or any directory is made
    dataset, _ = small_dataset
    monkeypatch.chdir(tmp_path)
    Path("malformed.tsv").write_text("0 1\n1 2\nx y\n")
    Path("one_node.tsv").write_text("5 5\n")
    out_dir = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    payload = small_config(dataset, out_dir).to_dict()
    payload["train"].update(override.get("train", {}))
    payload.update({k: v for k, v in override.items() if k != "train"})
    cfg_path.write_text(json.dumps(payload))
    assert main(["synth", "--config", str(cfg_path)]) == 1
    assert not out_dir.exists()
    err = capsys.readouterr().err
    for one in (problem,) if isinstance(problem, str) else problem:
        assert one in err


def noise_config(tmp_path, s_nabla) -> Path:
    """A one-epsilon, one-run config on criterion 10's 80-node graph with
    one epoch of batch 10 (T = 8, B = 300) and the given S_nabla."""
    dataset = tmp_path / "graph.tsv"
    write_edge_list(citation_benchmark_graph(num_nodes=80, num_edges=170,
                                             seed=9), dataset)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dataset": str(dataset), "epsilons": [3.2], "run_count": 1,
        "out_dir": str(tmp_path / "out"),
        "train": {"n_epochs": 1, "batch_nodes": 10, "s_nabla": s_nabla}}))
    return cfg_path


def largest_accepted_s_nabla() -> float:
    """An S_nabla at which NOISE_TAIL noise deviations over B square to just
    below the float maximum, at noise_config's T and B."""
    cfg = TrainConfig(n_epochs=1, batch_nodes=10)
    sigma = dprank.privacy.noise_sigma(cfg.epsilon, cfg.delta, 8)
    return (0.999 * math.sqrt(sys.float_info.max) * cfg.nominal_batch_pairs()
            / (training.NOISE_TAIL * sigma))


def test_cli_refuses_a_noise_scale_whose_adam_square_overflows(tmp_path,
                                                               capsys):
    # S_nabla * sigma is about 1.3e161, finite, but Adam's square of a noise
    # entry over B is not: such a run trained with overflow warnings, exited
    # 0 and released V at its initialization
    assert main(["synth", "--config", str(noise_config(tmp_path, 1e160))]) == 1
    assert not (tmp_path / "out").exists()
    assert ("noise scale s_nabla * sigma is too large at epsilon/T = 3.2/8 and "
            "s_nabla = 1e+160: Adam squares noise entries of up to 64 "
            "s_nabla * sigma / B, B = 300") in capsys.readouterr().err
    # the rule's threshold lies between largest_accepted_s_nabla and 0.3 %
    # above it
    largest = largest_accepted_s_nabla()
    assert TrainConfig(n_epochs=1, batch_nodes=10,
                       s_nabla=largest).problems(80) == {}
    assert "noise" in TrainConfig(n_epochs=1, batch_nodes=10,
                                  s_nabla=1.002 * largest).problems(80)


@pytest.mark.parametrize("scale", ["default", "largest-accepted"])
def test_cli_trains_at_an_accepted_noise_scale(tmp_path, scale):
    # the margin holds: a run just inside the rule trains with no overflow,
    # which the tests' warning filter makes an error in the noise worker too
    s_nabla = 5.0 if scale == "default" else largest_accepted_s_nabla()
    assert main(["synth", "--config", str(noise_config(tmp_path, s_nabla))]) == 0
    v = np.load(tmp_path / "out" / "eps_3.2" / "run_0" / "embeddings.npy")
    assert v.shape == (80, 128) and np.isfinite(v).all()


def test_cli_wrong_typed_config_values_are_config_errors(small_dataset,
                                                         tmp_path, capsys):
    dataset, _ = small_dataset
    out_dir = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    payload = small_config(dataset, out_dir).to_dict()
    good = dict(payload)
    payload.update(dataset=3, out_dir=None, epsilons=3.2, run_count="2",
                   threads=True, train=[], master_seed="3",
                   symmetrize="false")
    cfg_path.write_text(json.dumps(payload))
    assert main(["synth", "--config", str(cfg_path)]) == 1
    assert not out_dir.exists()
    err = capsys.readouterr().err
    for problem in ("dataset must be a path, got 3",
                    "out_dir must be a path, got None",
                    "epsilons must be a list of numbers, got 3.2",
                    "run_count must be an integer, got '2'",
                    "threads must be an integer, got True",
                    "train must be an object, got []",
                    "master_seed must be an integer, got '3'",
                    "unknown config keys: ['symmetrize']"):
        assert problem in err
    cfg_path.write_text(json.dumps({**good, "epsilons": [1.0, "2"]}))
    assert main(["synth", "--config", str(cfg_path)]) == 1
    assert "epsilons must be a list of numbers, got [1.0, '2']" in \
        capsys.readouterr().err
    for seed in (1.5, True):
        cfg_path.write_text(json.dumps({**good, "master_seed": seed}))
        assert main(["synth", "--config", str(cfg_path)]) == 1
        assert f"master_seed must be an integer, got {seed!r}" in \
            capsys.readouterr().err
    cfg_path.write_text(json.dumps([good]))
    assert main(["synth", "--config", str(cfg_path)]) == 1
    assert "config must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("text, problem", [
    ('{"epsilons": [1.0, 2.0]}', "dataset must be a path, got None"),
    ('{"dataset": "graph.tsv", ', "config {path}: Expecting property name"),
    (None, "config {path}: [Errno 2] No such file or directory"),
], ids=["no-dataset", "truncated", "missing-file"])
def test_cli_config_files_that_give_no_config_are_config_errors(
        tmp_path, capsys, text, problem):
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text)
    out_dir = tmp_path / "out"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid config:\n  ")
    assert err.count("\n  ") == 1  # one problem
    assert problem.format(path=cfg_path) in err


def test_cli_flag_overrides(small_dataset, tmp_path):
    dataset, _ = small_dataset
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, small_config(dataset, tmp_path / "ignored",
                                        run_count=1))
    out = tmp_path / "flagged"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out),
                 "--seed", "99"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 99
    assert len(manifest["runs"]) == 1


@pytest.mark.parametrize("argv", [
    ["synth", "--target-edges", "80"],
    ["sweep", "--target-edges", "80"],
    ["sweep", "--downstream"],
], ids=["synth-target-edges", "sweep-target-edges", "sweep-downstream"])
def test_cli_has_no_flag_for_an_experiment_key(tmp_path, capsys, argv):
    # synthesis derives its edge target from the scores, and downstream
    # scores come from eval --downstream; neither is a synth or sweep flag
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--config", str(tmp_path / "cfg.json")] + argv[1:])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in \
        capsys.readouterr().err


def test_cli_sweep_then_report(small_dataset, tmp_path, capsys):
    # dprank sweep is the one sweep: it exits 0, and report prints one
    # block per epsilon, each with its per-step bound line
    dataset, _ = small_dataset
    out_dir = tmp_path / "sweep"
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, small_config(dataset, out_dir, epsilons=[1.6, 3.2],
                                        run_count=1))
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    assert main(["report", "--dir", str(out_dir)]) == 0
    blocks = capsys.readouterr().out.split("\nepsilon = ")[1:]
    assert [block.split("\n", 1)[0] for block in blocks] == ["1.6", "3.2"]
    for block in blocks:
        assert "\n  per-step bound: the same noise gives epsilon " in block


def test_cli_threads_flag_parallel_runs(small_dataset, tmp_path, monkeypatch):
    dataset, _ = small_dataset
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, small_config(dataset, tmp_path / "serial",
                                        run_count=2))
    assert main(["synth", "--config", str(cfg_path)]) == 0
    cfg_path2 = tmp_path / "cfg2.json"
    write_config(cfg_path2, small_config(dataset, tmp_path / "parallel",
                                         run_count=2, threads=2))
    assert main(["synth", "--config", str(cfg_path2)]) == 0
    serial = json.loads((tmp_path / "serial" / "manifest.json").read_text())
    parallel = json.loads((tmp_path / "parallel" / "manifest.json").read_text())
    assert ([r["edges_sha256"] for r in serial["runs"]]
            == [r["edges_sha256"] for r in parallel["runs"]])

    # a pool starts all of its workers at the first submit, so there is at
    # most one worker per run; this stand-in records them and starts none
    pools = []

    class RecordingExecutor(InlineExecutor):
        def __init__(self, max_workers=None):
            pools.append(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingExecutor)
    one = tmp_path / "one.json"
    write_config(one, small_config(dataset, tmp_path / "one", run_count=1))
    assert main(["synth", "--config", str(one), "--threads", "4"]) == 0
    assert pools == []
    two = tmp_path / "two.json"
    write_config(two, small_config(dataset, tmp_path / "two", run_count=2))
    assert main(["synth", "--config", str(two), "--threads", "8"]) == 0
    assert pools == [2]
    assert not multiprocessing.active_children()
