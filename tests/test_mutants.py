"""The mutant list of ``tests/mutants.py`` stays applicable: each mutant's
text occurs exactly once in the file it edits. A rewrite of the code a mutant
targets fails here rather than only when someone runs the script, and so does
a formula written twice, whose second copy the edit would leave intact."""

from pathlib import Path

import pytest

from mutants import MUTANTS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "moits"


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_text_occurs_in_its_file(name):
    file, text, replacement, _ = MUTANTS[name]
    assert (PACKAGE / file).read_text(encoding="utf-8").count(text) == 1
    assert replacement != text
