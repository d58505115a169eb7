import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def test_bench_pairs_refuses_trees_at_paths_of_different_lengths(tmp_path):
    # disk_mb counts the stored absolute paths, so such a pair would compare
    # path lengths; the script stops before it reads BENCHMARK.json
    parent, change = tmp_path / "p", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change), "--workload",
         "synth-ref", "--seed", "1", "--pairs", "1"],
        capture_output=True, text=True)
    assert done.returncode == 2, done.stderr
    assert (f"parent {len(str(parent))}, change {len(str(change))} characters"
            in done.stderr)
    assert done.stdout == ""
