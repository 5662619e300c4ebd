"""Shared enumeration helpers for the test suite."""

from itertools import permutations

from hypoplactic.graphs import QUASI_CRYSTAL, explore_component
from hypoplactic.words import words_over


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
