"""Shared enumeration helpers for the test suite."""

import subprocess
import sys
from bisect import bisect_right
from itertools import permutations
from pathlib import Path

from hypoplactic.graphs import CRYSTAL, QUASI_CRYSTAL, explore_component
from hypoplactic.operators import kashiwara_e, quasi_e
from hypoplactic.words import parse_word, words_over

# the nineteen words congruent to 143214, as displayed in the worked example
CLASS_143214 = sorted(
    parse_word(text)
    for text in [
        "143214", "413214", "431214", "432114",
        "143241", "413241", "431241", "432141",
        "143421", "413421", "431421", "432411",
        "144321", "414321", "434121", "434211",
        "441321", "443121", "443211",
    ]
)


def row_insert(rows, a):
    """Oracle for Schensted insertion, one symbol at a time: bump ``a``
    into mutable ``rows``; return the new cell's (row, col)."""
    r = 0
    while True:
        if r == len(rows):
            rows.append([a])
            return r, 0
        row = rows[r]
        if a >= row[-1]:
            row.append(a)
            return r, len(row) - 1
        c = bisect_right(row, a)
        row[c], a = a, row[c]
        r += 1


RAISE = {CRYSTAL: kashiwara_e, QUASI_CRYSTAL: quasi_e}


def greedy_root(w, n, kind):
    """Oracle: apply the first raising operator that acts, from label 1
    again after every step, until none acts."""
    raise_op = RAISE[kind]
    current = w
    raised = True
    while raised:
        raised = False
        for i in range(1, n):
            nxt = raise_op(current, i)
            if nxt is not None:
                current = nxt
                raised = True
                break
    return current


def sweep_root(w, n):
    """Oracle for the crystal root: raise each label in turn to the top
    of its string, and sweep the labels until a sweep raises nothing.
    One bracket scan of label i finds the surviving "-" (the unmatched
    i+1), and e_i applied as often as it acts turns each into i."""
    current = list(w)
    raised = True
    while raised:
        raised = False
        for i in range(1, n):
            minus = []
            for pos, a in enumerate(current):
                if a == i + 1:
                    minus.append(pos)
                elif a == i and minus:
                    minus.pop()
            for pos in minus:
                current[pos] = i
                raised = True
    return tuple(current)


def words_up_to(n, max_len):
    """All words over 1..n of length at most max_len."""
    for length in range(max_len + 1):
        yield from words_over(n, length)


def standard_words(max_len):
    """All standard words of length at most max_len."""
    for length in range(max_len + 1):
        for p in permutations(range(1, length + 1)):
            yield p


def sim_key(w, n):
    """The definition of ~ that ``sim_related`` decides by the theorem:
    u ~ v exactly when ``sim_key(u, n) == sim_key(v, n)``, that is, when
    their quasi-crystal components have equal signatures and the words
    have equal positions in them."""
    component = explore_component(w, n, QUASI_CRYSTAL)
    return component.signature(), component.index_of(w)


def two_in_edges_scan(u, n):
    """A faulty bracket scan with no cancellations: label 1 lowers the
    first symbol of a word that starts with 1 and the second symbol of
    any other, and label 2 lowers the second symbol.  The walk adds one
    unit to the key digit of the lowered position, so from the root 11
    over n = 3 both 11 -1-> 21 -1-> 22 and 11 -2-> 13 -1-> 23 reach the
    key of 22, which then has two in-edges labelled 1."""
    return [-1, 0 if u[0] == 1 else 1, 1] + [-1] * (n - 2), 0


def run_optimized(code):
    """Run ``code`` in a fresh ``python -O``, which strips ``assert``
    statements, with the package importable; return the finished
    process with its text output."""
    src = Path(__file__).resolve().parent.parent / "src"
    prelude = f"import sys; sys.path.insert(0, {str(src)!r})\n"
    return subprocess.run(
        [sys.executable, "-O", "-I", "-c", prelude + code],
        capture_output=True, text=True, timeout=60,
    )
