"""Tests for tools/code_lines.py, the code-line counter."""

import importlib.util
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

import math  # a trailing comment


def area(r):
    """A function docstring."""
    # a comment line
    return (math.pi
            * r ** 2)
'''


def test_counts_statements_and_their_continuations_only():
    # import, def, and the return over two lines
    assert code_lines.code_lines(SNIPPET) == 4


def test_prints_each_module_and_the_total(tmp_path, capsys):
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    code_lines.main([str(path), str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["4", str(path)], ["4", str(path)], ["8", "total"]]


def test_against_a_revision_prints_both_counts_and_the_delta(tmp_path,
                                                             capsys):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                        "-c", "user.email=t@example.com", *args],
                       check=True, capture_output=True)

    kept, added = tmp_path / "kept.py", tmp_path / "added.py"
    kept.write_text(SNIPPET)
    git("init", "-q")
    git("add", "kept.py")
    git("commit", "-q", "-m", "snippet")
    kept.write_text(SNIPPET + "\n\nTAU = 2 * math.pi\n")
    added.write_text(SNIPPET)
    code_lines.main(["--against", "HEAD", str(kept), str(added)])
    lines = capsys.readouterr().out.splitlines()
    # added.py is absent at HEAD, so it counts 0 there
    assert [line.split() for line in lines] == [
        ["4", "5", "+1", str(kept)], ["0", "4", "+4", str(added)],
        ["4", "9", "+5", "total"]]
