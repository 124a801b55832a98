#!/usr/bin/env python
"""Dependency-free formatting gate for the mechanical invariants.

``ruff format`` owns full layout, but it is a binary dependency the
development image does not always carry (air-gapped boxes), so its check
cannot be the *only* formatting enforcement.  This script gates the
mechanical invariants every tracked Python/TOML/YAML/Markdown file must
satisfy, with nothing beyond the standard library:

* UTF-8 decodable, LF line endings, and a final newline;
* no tab characters in Python source (indentation is spaces);
* no trailing whitespace;
* Python lines at most 99 characters (the ``tool.ruff`` line-length),
  except lines whose overflow is a URL (links do not wrap).

Usage::

    python tools/check_format.py          # check, exit 1 on violations
    python tools/check_format.py --fix    # rewrite the fixable classes

``--fix`` repairs trailing whitespace, CRLF endings, and missing final
newlines in place; decode failures, tabs, and over-long lines are
reported but never auto-edited (they need a human).
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
MAX_LINE = 99
CHECKED_SUFFIXES = {".py", ".toml", ".yml", ".yaml", ".md", ".json"}
#: Machine-generated reference material (paper abstracts, retrieved
#: exemplar snippets) arrives verbatim from external sources — linting it
#: would just fight the generator.
EXCLUDED = {"PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md"}
_URL = re.compile(r"https?://\S+")


def tracked_files() -> List[Path]:
    """Files under git control with a checked suffix (never venvs/artifacts)."""
    listing = subprocess.run(
        ["git", "ls-files"], cwd=REPO_ROOT, check=True,
        capture_output=True, text=True).stdout
    return [REPO_ROOT / name for name in listing.splitlines()
            if Path(name).suffix in CHECKED_SUFFIXES
            and Path(name).name not in EXCLUDED]


def violations(path: Path, data: bytes) -> Iterator[Tuple[int, str]]:
    """``(line_number, message)`` pairs; line 0 flags whole-file problems."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as error:
        yield 0, f"not valid UTF-8: {error}"
        return
    if "\r" in text:
        yield 0, "carriage returns (CRLF or CR line endings)"
    if text and not text.endswith("\n"):
        yield 0, "no newline at end of file"
    is_python = path.suffix == ".py"
    for number, line in enumerate(text.splitlines(), start=1):
        if line != line.rstrip():
            yield number, "trailing whitespace"
        if is_python and "\t" in line:
            yield number, "tab character in Python source"
        if (is_python and len(line) > MAX_LINE
                and not _URL.search(line[MAX_LINE - 20:])):
            yield number, f"line is {len(line)} chars (max {MAX_LINE})"


def fix(data: bytes) -> bytes:
    """The fixable subset: CR endings, trailing whitespace, final newline."""
    text = data.decode("utf-8")
    lines = [line.rstrip() for line in
             text.replace("\r\n", "\n").replace("\r", "\n").split("\n")]
    fixed = "\n".join(lines)
    if fixed and not fixed.endswith("\n"):
        fixed += "\n"
    return fixed.encode("utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fix", action="store_true",
                        help="rewrite fixable violations in place")
    args = parser.parse_args(argv)

    failed = 0
    for path in tracked_files():
        if not path.is_file():
            continue  # deleted in the working tree, not yet staged
        data = path.read_bytes()
        if args.fix:
            repaired = fix(data)
            if repaired != data:
                path.write_bytes(repaired)
                print(f"fixed: {path.relative_to(REPO_ROOT)}")
                data = repaired
        for number, message in violations(path, data):
            failed += 1
            where = f":{number}" if number else ""
            print(f"{path.relative_to(REPO_ROOT)}{where}: {message}",
                  file=sys.stderr)
    if failed:
        print(f"\n{failed} formatting violation(s); run "
              f"`python tools/check_format.py --fix` for the fixable ones",
              file=sys.stderr)
        return 1
    print("formatting invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
