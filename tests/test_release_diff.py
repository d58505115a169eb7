import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "release_diff.py"
RUN_DIRS = [f"eps_{eps}/run_{k}" for eps in ("1.6", "3.2") for k in (0, 1)]


def release_diff(parent, change):
    done = subprocess.run([sys.executable, str(SCRIPT), str(parent), str(change)],
                          capture_output=True, text=True)
    return done.returncode, dict(re.split(r"\s{2,}", line)
                                 for line in done.stdout.splitlines())


def copy_tree(to: Path) -> Path:
    shutil.copytree(ROOT / "src", to / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return to


def test_release_diff_reads_equal_on_one_tree_and_different_seeds(tmp_path):
    a, b = copy_tree(tmp_path / "a"), copy_tree(tmp_path / "b")
    code, outcomes = release_diff(a, b)
    assert code == 0
    assert len(outcomes) == 4 * len(RUN_DIRS) + 4
    assert set(outcomes.values()) == {"equal"}, outcomes

    patched = copy_tree(tmp_path / "patched")
    experiments = patched / "src" / "dprank" / "experiments.py"
    source = experiments.read_text()
    seed_key = 'f"{master_seed}:{run_index}:{purpose}"'
    assert source.count(seed_key) == 1
    experiments.write_text(source.replace(seed_key, seed_key[:-1] + '!"'))
    code, outcomes = release_diff(a, patched)
    assert code == 0
    for run in RUN_DIRS:
        for name in ("embeddings.npy", "synthetic_edges.tsv", "sidecar.json"):
            assert outcomes[f"{run}/{name}"] == "different", (run, name)
        # the ledger depends on epsilon and T alone
        assert outcomes[f"{run}/ledger.json"] == "equal", run
    assert outcomes["id_map.csv"] == "equal"
    assert outcomes["manifest.json without out_dir"] == "different"
    # both trees evaluate the parent's output; the evaluation seed moved the
    # AUC and Micro-F1, and the CSV holds only the structural statistics
    assert outcomes["eval/eval_report.json"] == "different"
    assert outcomes["eval/eval_report.csv"] == "equal"


def test_release_diff_reads_an_eval_change_with_equal_releases(tmp_path):
    a = copy_tree(tmp_path / "a")
    patched = copy_tree(tmp_path / "patched")
    metrics = patched / "src" / "dprank" / "metrics.py"
    source = metrics.read_text()
    # a different held-out edge fraction moves every AUC
    split = "EDGE_TRAIN_FRAC = 0.8"
    assert source.count(split) == 1
    metrics.write_text(source.replace(split, "EDGE_TRAIN_FRAC = 0.7"))
    code, outcomes = release_diff(a, patched)
    assert code == 0
    released = {name: outcome for name, outcome in outcomes.items()
                if not name.startswith("eval/")}
    assert len(released) == 4 * len(RUN_DIRS) + 2
    assert set(released.values()) == {"equal"}, released
    assert outcomes["eval/eval_report.json"] == "different"
    assert outcomes["eval/eval_report.csv"] == "equal"


def test_release_diff_exits_1_when_a_synth_fails(tmp_path):
    change = copy_tree(tmp_path / "change")
    broken = copy_tree(tmp_path / "broken")
    (broken / "src" / "dprank" / "cli.py").write_text("raise SystemExit(2)\n")
    done = subprocess.run([sys.executable, str(SCRIPT), str(broken), str(change)],
                          capture_output=True, text=True)
    assert done.returncode == 1
    assert "synth of the parent tree failed (exit 2)" in done.stderr
    assert done.stdout == ""


def test_release_diff_exits_1_when_an_eval_fails(tmp_path):
    parent = copy_tree(tmp_path / "parent")
    broken = copy_tree(tmp_path / "broken")
    metrics = broken / "src" / "dprank" / "metrics.py"
    metrics.write_text(metrics.read_text() + "\n\ndef node_classification_f1"
                       "(*args, **kwargs):\n    raise RuntimeError('broken')\n")
    done = subprocess.run([sys.executable, str(SCRIPT), str(parent), str(broken)],
                          capture_output=True, text=True)
    assert done.returncode == 1
    assert "eval of the change tree failed (exit 2)" in done.stderr
    assert done.stdout == ""
