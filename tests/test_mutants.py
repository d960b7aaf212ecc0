"""The mutant list of ``tests/mutants.py`` stays applicable: each mutant's
text still occurs in the file it edits, so a rewrite of the code a mutant
targets fails here rather than only when someone runs the script."""

from pathlib import Path

import pytest

from mutants import MUTANTS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "moits"


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_text_occurs_in_its_file(name):
    file, text, replacement, _ = MUTANTS[name]
    assert text in (PACKAGE / file).read_text(encoding="utf-8")
    assert replacement != text
