"""The table of `mutation.py` stays in step with the sources it mutates."""

from pathlib import Path

import pytest

from mutation import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_replaces_one_place_that_exists(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.original) == 1
    assert mutant.replacement != mutant.original
    for test in mutant.tests:
        file, _, name = test.partition("::")
        assert f"def {name}(" in (ROOT / file).read_text(), test


def test_mutant_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
