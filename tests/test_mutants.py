import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name, file, old, new", mutants.MUTANTS, ids=[m[0] for m in mutants.MUTANTS])
def test_every_mutant_applies_to_exactly_one_place(name, file, old, new):
    """A row whose old text moved or repeats would mutate nothing, or the
    wrong line, and report a meaningless survivor or kill."""
    assert old != new
    assert mutants.occurrences(file, old) == 1
