"""Every experiment script in scripts/ still imports against the current
cqm: a name renamed or removed in src/cqm fails here, not at the next run of
the script.  Importing runs no script's main."""

import importlib
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", sorted(p.stem for p in SCRIPTS.glob("*.py")))
def test_script_imports(name, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # the scripts import their sibling generator_applies
    assert Path(importlib.import_module(name).__file__).parent == SCRIPTS
