"""Regression tests for the ``tools/check_format.py`` formatting gate."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_format.py"

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


def _tracked_tree(root, files):
    """A git repository holding the tool and *files*, all staged."""
    (root / "tools").mkdir()
    shutil.copy(TOOL, root / "tools" / "check_format.py")
    for name, text in files.items():
        (root / name).write_text(text)
    subprocess.run(["git", "init", "-q"], cwd=root, check=True)
    subprocess.run(["git", "add", "-A"], cwd=root, check=True)


def _check(root):
    return subprocess.run([sys.executable, str(root / "tools" / "check_format.py")],
                          cwd=root, capture_output=True, text=True)


def test_tracked_file_deleted_in_working_tree_is_skipped(tmp_path):
    _tracked_tree(tmp_path, {"gone.md": "notes\n", "kept.py": "x = 1\n"})
    (tmp_path / "gone.md").unlink()
    result = _check(tmp_path)
    assert result.returncode == 0, result.stderr
    assert "formatting invariants hold" in result.stdout


def test_violations_in_present_files_still_fail(tmp_path):
    _tracked_tree(tmp_path, {"gone.md": "notes\n", "bad.py": "x = 1   \n"})
    (tmp_path / "gone.md").unlink()
    result = _check(tmp_path)
    assert result.returncode == 1
    assert "bad.py:1: trailing whitespace" in result.stderr
    assert "gone.md" not in result.stderr
