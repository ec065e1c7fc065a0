"""The mutation runner of ``tools/mutants.py`` kills a mutant its tests
catch and reports a no-op edit as a survivor."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_a_caught_mutant_dies_and_a_no_op_edit_survives():
    (mutant,) = [m for m in mutants.MUTANTS if m.name == "one-nodal-M-degree-3"]
    # one test of the subset, to keep the three pytest runs short
    tests = ("tests/test_crosscheck.py::test_one_nodal_class_is_the_discriminant_for_every_degree",)
    dies = replace(mutant, tests=tests)
    no_op = mutants.Mutant("no-op", mutant.file, "# H - 3 eta", "# H - 3*eta", "a comment", tests)
    assert mutants.survivors([dies, no_op]) == ["no-op"]


def test_an_old_text_that_does_not_occur_once_is_refused():
    missing = mutants.Mutant("missing", "src/severi/crosscheck.py", "no such text", "", "", ())
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutants.survivors([missing])
