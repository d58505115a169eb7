import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "count_lines.py"

# 12 lines; code on lines 5, 7, 8, 11 and 12 only
FIXTURE = '''"""A module docstring
on two lines."""

# a comment
def f(x):
    """A function docstring."""
    return (x +  # a trailing comment
            1)


TEXT = """a string used as an expression,
on two lines"""
'''


def test_count_lines_skips_docstrings_comments_and_blank_lines(tmp_path):
    (tmp_path / "pkg").mkdir()
    one = tmp_path / "pkg" / "one.py"
    one.write_text(FIXTURE)
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    two = tmp_path / "two.py"
    two.write_text("x = 1\n\n")
    done = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / "pkg"),
                           str(two)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert [line.split() for line in done.stdout.splitlines()] == [
        ["12", "5", str(one)], ["2", "1", str(two)], ["14", "6", "total"]]
