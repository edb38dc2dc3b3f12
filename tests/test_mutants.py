"""scripts/mutants.py stays runnable: the string each of its mutants
replaces occurs exactly once in the current sources, and its CHECKS table
has one entry per verify check.  The mutants themselves are too slow for
Tier-1 (about 6 s each); the script runs them."""

import importlib.util
from pathlib import Path

from cqm.verify import TOLERANCES

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


def test_every_verify_check_has_one_entry_in_the_harness():
    """A check earns its place by the mutants that fail it or by the ROADMAP
    item and scenario that would exercise it; a new check without an entry,
    or an entry naming an unknown mutant, fails here."""
    mutants = _mutants_module()
    assert set(mutants.CHECKS) == set(TOLERANCES)
    known = {m.name for m in mutants.MUTANTS}
    for name, entry in mutants.CHECKS.items():
        assert entry.killed_by or entry.waits_for, name
        assert set(entry.killed_by) <= known, name
