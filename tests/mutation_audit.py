"""A mutation audit of the fast paths and the input checks.

Each entry names one small change to the library that some test must
notice: a file under ``src/hypoplactic``, an old text that occurs in it
exactly once, the new text, and the id of the test that must fail.
For each entry the audit copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, applies the change to
the copy and runs only the named test there, with a timeout.  The
copy keeps the checkout's own ``src`` off the path, where
``pythonpath = ["src"]`` would otherwise put it first.

Run it from anywhere, with pytest and hypothesis installed::

    python tests/mutation_audit.py

It first runs every named test on an unchanged copy, so that a kill
means the change and not a broken checkout.  Then it prints one line
per entry: ``killed`` (the test failed), ``survived`` (it passed),
``hung`` (it ran past the timeout), ``stale`` (the old text is not
found exactly once) or ``error`` (pytest could not run the test).  It
exits 1 on anything but ``killed``.  Standard library only; pytest
does not collect this file, since its name has no ``test_`` prefix.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60


class Mutant(NamedTuple):
    what: str
    file: str  # relative to src/hypoplactic
    old: str
    new: str
    test: str  # a pytest node id, relative to the repository root


_DEFINITION = "tests/test_operators.py::TestQuasiOperators::test_matches_the_definition"
_SYMBOLS = ("tests/test_graphs.py::TestSerialization::"
            "test_constructor_rejects_a_symbol_that_is_not_an_integer")
_BOUNDARY = ("tests/test_counting.py::TestCountIsoComponents::"
             "test_brute_guard_at_its_boundary")
_UNBUILT = ("tests/test_counting.py::TestCountIsoComponents::"
            "test_unbuilt_power_guard_at_its_boundary")
_FILLINGS = "tests/test_counting.py::TestCountQrt::test_brute_guard_at_its_boundary"
_SPLIT = "tests/test_oracles.py::TestEdgeSplitAgainstQuasiOperator::test_exhaustive"
_SCHENSTED = "tests/test_oracles.py::TestSchenstedAgainstRowInsertFold::test_exhaustive"
_SCHENSTED_LONG = ("tests/test_oracles.py::TestSchenstedAgainstRowInsertFold::"
                   "test_seeded_words_up_to_2000_over_as_many_symbols")

MUTANTS = [
    Mutant(
        "quasi_e acts through an i-inversion",
        "operators.py",
        "return None if has_inversion(u, i) else kashiwara_e(u, i)",
        "return kashiwara_e(u, i)",
        _DEFINITION,
    ),
    Mutant(
        "quasi_f acts through an i-inversion",
        "operators.py",
        "return None if has_inversion(u, i) else kashiwara_f(u, i)",
        "return kashiwara_f(u, i)",
        _DEFINITION,
    ),
    Mutant(
        "quasi_counts counts through an i-inversion",
        "operators.py",
        "return (0, 0) if has_inversion(u, i) else kashiwara_counts(u, i)",
        "return kashiwara_counts(u, i)",
        _DEFINITION,
    ),
    Mutant(
        "verify's laws suite misses a quasi_f that acts through an i-inversion",
        "operators.py",
        "return None if has_inversion(u, i) else kashiwara_f(u, i)",
        "return kashiwara_f(u, i)",
        "tests/test_cli.py::TestVerify::test_all_suites",
    ),
    Mutant(
        "verify's definition line of the quasi operators checks nothing",
        "cli.py",
        "ok_definition &= (quasi_e(w, i), quasi_f(w, i), operators.quasi_counts(w, i)) == (",
        "ok_definition &= True or (",
        "tests/test_cli.py::TestVerify::test_laws_suite_fails_when_quasi_ignores_inversions",
    ),
    Mutant(
        "bracket_reduce lets no i cancel an open i+1",
        "operators.py",
        "            if minus:\n                minus.pop()",
        "            if False:\n                minus.pop()",
        "tests/test_operators.py::TestBracketReduce::test_matches_naive_rewriting",
    ),
    Mutant(
        "RecordingRibbon takes labels that are not 1..N",
        "quasiribbon.py",
        "        if not is_standard(labels):",
        "        if False:",
        "tests/test_quasiribbon.py::TestRecordingRibbon::test_validation",
    ),
    Mutant(
        "RecordingRibbon compares only how many descents it has",
        "quasiribbon.py",
        "if descents != descents_of_composition(shape):",
        "if len(descents) != len(descents_of_composition(shape)):",
        "tests/test_quasiribbon.py::TestRibbonRulesExhaustive::"
        "test_recording_ribbon_on_every_permutation",
    ),
    Mutant(
        "Component checks the symbols of its targets only",
        "graphs.py",
        "for w in (u, *row.values()):",
        "for w in row.values():",
        _SYMBOLS,
    ),
    Mutant(
        "Component checks the symbols of its vertices only",
        "graphs.py",
        "for w in (u, *row.values()):",
        "for w in (u,):",
        _SYMBOLS,
    ),
    Mutant(
        "column_reading reads an argument without columns",
        "young.py",
        "    if columns is None:",
        "    if False:",
        "tests/test_young.py::TestReadingsAndTabloids::test_rejects_an_argument_without_columns",
    ),
    Mutant(
        "the brute component count's word cap sits ten times too high",
        "counting.py",
        "if n ** k > MAX_BRUTE_WORDS:",
        "if n ** k > MAX_BRUTE_WORDS * 10:",
        _BOUNDARY,
    ),
    Mutant(
        "the brute component count refuses a count at its word cap",
        "counting.py",
        "if n ** k > MAX_BRUTE_WORDS:",
        "if n ** k >= MAX_BRUTE_WORDS:",
        _BOUNDARY,
    ),
    Mutant(
        "the brute component count builds the power one bit past the cap's length",
        "counting.py",
        "if n >= 2 and k >= MAX_BRUTE_WORDS.bit_length():",
        "if n >= 2 and k > MAX_BRUTE_WORDS.bit_length():",
        _UNBUILT,
    ),
    Mutant(
        "the brute component count refuses 1^k unbuilt",
        "counting.py",
        "if n >= 2 and k >= MAX_BRUTE_WORDS.bit_length():",
        "if n >= 1 and k >= MAX_BRUTE_WORDS.bit_length():",
        _UNBUILT,
    ),
    Mutant(
        "the brute QRT count refuses a count at its filling cap",
        "counting.py",
        "if fillings > MAX_BRUTE_WORDS:",
        "if fillings >= MAX_BRUTE_WORDS:",
        _FILLINGS,
    ),
    Mutant(
        "the brute QRT count's filling cap sits one too high",
        "counting.py",
        "if fillings > MAX_BRUTE_WORDS:",
        "if fillings > MAX_BRUTE_WORDS + 1:",
        _FILLINGS,
    ),
    Mutant(
        "the brute class size refuses a shape at its weight cap",
        "counting.py",
        "if sum(shape) > MAX_BRUTE_WEIGHT:",
        "if sum(shape) >= MAX_BRUTE_WEIGHT:",
        "tests/test_counting.py::TestNovelliRecursion::test_guard_allows_weight_10",
    ),
    Mutant(
        "a bumped entry stays at its column when the entry left of it equals it",
        "young.py",
        "if row[c - 1] > a:  #",
        "if row[c - 1] >= a:  #",
        _SCHENSTED,
    ),
    Mutant(
        "a bumped entry that passes its column always lands one column left",
        "young.py",
        "                    c -= 1\n"
        "                    if row[c - 1] > a:\n"
        "                        c -= 1\n"
        "                        if row[c - 1] > a:\n"
        "                            c = bisect_right(row, a, 1, c - 1)",
        "                    c -= 1",
        _SCHENSTED_LONG,
    ),
    Mutant(
        "a bumped entry that passes two columns lands two left when the entry there equals it",
        "young.py",
        "                        if row[c - 1] > a:\n",
        "                        if row[c - 1] >= a:\n",
        _SCHENSTED_LONG,
    ),
    Mutant(
        "a bumped entry that passes two columns always lands two columns left",
        "young.py",
        "                        c -= 1\n"
        "                        if row[c - 1] > a:\n"
        "                            c = bisect_right(row, a, 1, c - 1)",
        "                        c -= 1",
        _SCHENSTED_LONG,
    ),
    Mutant(
        "a new tableau's top row opens with a 2, which a 1 bumps",
        "young.py",
        "        rows = [[0]]",
        "        rows = [[2]]",
        _SCHENSTED,
    ),
    Mutant(
        "a new row is not walked by later insertions",
        "young.py",
        "            below.append(row)\n",
        "",
        _SCHENSTED,
    ),
    Mutant(
        "given rows get no opening 0, so their first entries are stripped",
        "young.py",
        "            row.insert(0, 0)",
        "            pass",
        "tests/test_young.py::TestSchenstedInsert::test_bump_step",
    ),
    Mutant(
        "the empty word's tableau keeps an empty top row",
        "young.py",
        "    if not top:\n",
        "    if False:\n",
        "tests/test_young.py::TestRsk::test_empty",
    ),
    Mutant(
        "reverse bumping replaces the rightmost entry at most the bumped one",
        "young.py",
        "c = bisect_left(row, a) - 1",
        "c = bisect_right(row, a) - 1",
        "tests/test_oracles.py::TestRskInverseAgainstRsk::test_exhaustive",
    ),
    Mutant(
        "the sort starts a new row only where the next sorted position is two or more places left",
        "quasiribbon.py",
        "        if h < prev:",
        "        if h + 1 < prev:",
        "tests/test_quasiribbon.py::TestHypoRsk::test_matches_kt_insert_fold",
    ),
    Mutant(
        "the quasi root fills rows as though the shape were a partition",
        "graphs.py",
        "enumerate(shape, start=1) for _ in range(part))",
        "enumerate(sorted(shape), start=1) for _ in range(part))",
        "tests/test_oracles.py::TestRootsAgainstGreedyRaising::test_quasi_exhaustive",
    ),
    Mutant(
        "the bracket scan flags the label below the one whose bracket cancelled",
        "graphs.py",
        "cancelled |= 1 << a\n",
        "cancelled |= 1 << a - 1\n",
        "tests/test_oracles.py::TestBracketScan::test_exhaustive",
    ),
    Mutant(
        "the walk writes a new vertex's raised entry as i, not i + 1",
        "graphs.py",
        "v[pos] = i + 1",
        "v[pos] = i",
        "tests/test_oracles.py::TestPublicConstructor::test_accepts_the_oracle_graph",
    ),
    Mutant(
        "the sorted reader of the edge store visits vertices in visit order",
        "graphs.py",
        "for _, k in sorted(self._keys.items()):",
        "for k in range(len(self._order)):",
        _SPLIT,
    ),
    Mutant(
        "the overlay split reads the mask bit of the label below",
        "graphs.py",
        "(crystal_only if mask >> i & 1 else quasi_edges)",
        "(crystal_only if mask >> i - 1 & 1 else quasi_edges)",
        _SPLIT,
    ),
    Mutant(
        "the class-size recurrence alternates its signs the wrong way",
        "counting.py",
        "(-1) ** (j - i - 1)",
        "(-1) ** (j - i)",
        "tests/test_counting.py::TestClassSize::test_formula_vs_oracle_sweep",
    ),
    Mutant(
        "count_qrt takes the top of its binomial from a one-row shape",
        "counting.py",
        "return comb(n + sum(shape) - len(shape), n - len(shape))",
        "return comb(n + sum(shape) - 1, n - len(shape))",
        "tests/test_counting.py::TestCountQrt::test_matches_component_size",
    ),
    Mutant(
        "factorization_count takes a step from tau to sigma as an ascent",
        "counting.py",
        "by_tau if descent else 0",
        "by_tau if not descent else 0",
        "tests/test_counting.py::TestFactorizationCount::test_matches_shuffle_oracle",
    ),
    Mutant(
        "plac_component_contains_qrw lets a row of Q start above the row under the last",
        "graphs.py",
        "if r != above + 1:",
        "if r > above + 1:",
        "tests/test_graphs.py::TestPlacComponentContainsQrw::test_matches_search_exhaustive",
    ),
]


def source(mutant: Mutant, root: Path = ROOT) -> Path:
    return root / "src" / "hypoplactic" / mutant.file


def is_stale(mutant: Mutant, root: Path = ROOT) -> bool:
    """Whether the old text is not found exactly once in its file."""
    return source(mutant, root).read_text().count(mutant.old) != 1


def _copy(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def _pytest(copy: Path, tests: list[str]) -> subprocess.CompletedProcess:
    """Run ``tests`` in ``copy``, importing the package from the copy only;
    raises TimeoutExpired past the timeout."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def _run(mutant: Mutant) -> str:
    if is_stale(mutant):
        return "stale"
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        _copy(copy)
        path = source(mutant, copy)
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
        try:
            code = _pytest(copy, [mutant.test]).returncode
        except subprocess.TimeoutExpired:
            return "hung"
    return {0: "survived", 1: "killed"}.get(code, "error")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        _copy(Path(tmp))
        try:
            baseline = _pytest(Path(tmp), sorted({m.test for m in MUTANTS}))
        except subprocess.TimeoutExpired:
            print(f"the named tests ran past {TIMEOUT_S} s on the unchanged code")
            return 1
    if baseline.returncode != 0:
        print("the named tests do not all pass on the unchanged code:")
        print(baseline.stdout[-2000:])
        return 1
    tally: dict[str, int] = {}
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcome = _run(mutant)
        tally[outcome] = tally.get(outcome, 0) + 1
        print(f"{outcome:<8} {time.perf_counter() - start:5.1f} s  {mutant.file}: {mutant.what}"
              f"  [{mutant.test}]", flush=True)
    summary = ", ".join(f"{tally.get(k, 0)} {k}"
                        for k in ("killed", "survived", "hung", "stale", "error"))
    print(f"{len(MUTANTS)} mutants: {summary}")
    return 0 if tally.get("killed", 0) == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
