"""The entries of ``tests/mutation_audit.py`` stay current.

The audit itself copies the tree and runs one test per entry, which is
too slow for every run of the suite.  This checks what can go stale
when the code or the tests move on: each old text occurs exactly once
in its file, and each named test is still defined.
"""

import pytest

from mutation_audit import MUTANTS, ROOT, is_stale


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.what)
def test_old_text_occurs_exactly_once(mutant):
    assert not is_stale(mutant)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.what)
def test_named_test_is_defined(mutant):
    path, *classes, name = mutant.test.split("::")
    text = (ROOT / path).read_text()
    assert f"def {name}(" in text
    for cls in classes:
        assert f"class {cls}:" in text
