"""The package imports only what ``pyproject.toml`` declares.

A third-party module imported anywhere under ``src/repro`` (function-level
imports included) but missing from ``[project].dependencies`` makes a clean
``pip install .`` fail at import time, while every test run that happens to
have the module installed stays green.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

tomllib = pytest.importorskip("tomllib")
if not hasattr(sys, "stdlib_module_names"):
    pytest.skip("needs sys.stdlib_module_names (Python 3.10+)", allow_module_level=True)


def _declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    names = set()
    for requirement in project["dependencies"]:
        name = requirement.split(";")[0].strip()
        for separator in "<>=!~[ ":
            name = name.split(separator)[0]
        names.add(name.lower().replace("-", "_"))
    return names


def _imported_top_level_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0], node.lineno


def test_every_third_party_import_is_a_declared_dependency():
    declared = _declared_dependencies()
    undeclared = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for module, line in _imported_top_level_modules(path):
            if (module == "repro" or module in sys.stdlib_module_names
                    or module.lower() in declared):
                continue
            undeclared.append(f"{path.relative_to(ROOT)}:{line}: {module}")
    assert not undeclared, "imports missing from [project].dependencies:\n" + "\n".join(
        undeclared)


def test_service_and_ingest_do_not_load_networkx(tmp_path):
    script = (
        "import sys\n"
        "import repro, repro.service, repro.ingest\n"
        "from repro.ingest import FlowCsvSource\n"
        "from repro.topology import abilene_topology\n"
        f"FlowCsvSource({str(tmp_path / 'flows.csv')!r}, network=abilene_topology())\n"
        "print('networkx' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                            capture_output=True, text=True)
    assert result.stdout.strip() == "False"
