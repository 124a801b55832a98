"""Every example script still imports against the current library.

Each ``examples/*.py`` is loaded as a module, so an example that imports a
name the library no longer has fails here instead of in a user's terminal.
The two examples that drive the per-PoP hierarchy end to end also run
their ``main()`` and must report exact parity.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))

#: Examples whose ``main()`` runs here, with the line each must print.
HIERARCHY_EXAMPLES = {
    "distributed_ingestion": ("2-PoP hierarchy:", "exact parity: True"),
    "chaos_run": ("silent leaf:", "pop(s) [1] quarantined"),
}


def _load(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_are_found():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_loads(path):
    assert callable(getattr(_load(path), "main", None))


@pytest.mark.parametrize("stem", sorted(HIERARCHY_EXAMPLES))
def test_hierarchy_example_runs(stem, capsys):
    path = next(path for path in EXAMPLES if path.stem == stem)
    _load(path).main()
    lines = capsys.readouterr().out.splitlines()
    parity = [line for line in lines if "exact parity:" in line]
    assert parity, lines
    assert all("exact parity: True" in line for line in parity), parity
    prefix, expected = HIERARCHY_EXAMPLES[stem]
    (line,) = [line for line in lines if line.startswith(prefix)]
    assert expected in line, line
