"""scripts/mutants.py stays runnable: the string each of its mutants
replaces occurs exactly once in the current sources.  The mutants
themselves are too slow for Tier-1 (about 6 s each); the script runs them."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants_module():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_string_occurs_once_in_the_sources():
    mutants = _mutants_module()
    assert mutants.MUTANTS
    for m in mutants.MUTANTS:
        assert (mutants.SRC / m.module).read_text().count(m.old) == 1, m.name
