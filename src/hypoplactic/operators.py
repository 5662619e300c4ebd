"""Raising and lowering operators on words, in two flavours.

The classical operators act through the bracketing rule: in a word,
each symbol i contributes a "+", each symbol i+1 a "-", and factors
"-+" are cancelled until none remain (factors "+-" survive).  The
raising operator turns the symbol behind the leftmost surviving "-"
into an i; the lowering operator turns the symbol behind the rightmost
surviving "+" into an i+1.

The quasi variants are the classical operators restricted to words
with no i-inversion (an i+1 somewhere left of an i): on a word with
one they are undefined.  On any other word every i stands left of
every i+1, so no "-+" factor cancels: every i survives as a "+" and
every i+1 as a "-".  The classical operators then change the leftmost
i+1, respectively the rightmost i, and (epsilon, phi) are the symbol
counts (|u|_{i+1}, |u|_i), which is how the paper defines the quasi
operators.

Partiality is a value: undefined applications return None.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .words import Word, _check_label, _check_symbols, has_inversion


class BracketReduction(NamedTuple):
    """Surviving "+" and "-" positions after cancelling all "-+" factors.

    Positions are 1-indexed into the source word; every surviving plus
    position precedes every surviving minus position.  Being a named
    tuple, it compares equal to the plain pair of position tuples.
    """

    plus_positions: tuple[int, ...]
    minus_positions: tuple[int, ...]

    @property
    def phi(self) -> int:
        return len(self.plus_positions)

    @property
    def epsilon(self) -> int:
        return len(self.minus_positions)


def bracket_reduce(w: Word, i: int) -> BracketReduction:
    """Cancel "-+" factors in the plus/minus image of ``w``.

    A single left-to-right pass: symbols i+1 open (push), symbols i
    close (pop) when an unmatched i+1 stands to their left, otherwise
    they survive.
    """
    _check_label(i)
    _check_symbols(w)
    plus: list[int] = []
    minus: list[int] = []
    for pos, a in enumerate(w, start=1):
        if a == i:
            if minus:
                minus.pop()
            else:
                plus.append(pos)
        elif a == i + 1:
            minus.append(pos)
    return BracketReduction(tuple(plus), tuple(minus))


def kashiwara_e(w: Word, i: int) -> Optional[Word]:
    """Raise: change the i+1 behind the leftmost surviving "-" into i."""
    red = bracket_reduce(w, i)
    if not red.minus_positions:
        return None
    pos = red.minus_positions[0]
    return w[:pos - 1] + (i,) + w[pos:]


def kashiwara_f(w: Word, i: int) -> Optional[Word]:
    """Lower: change the i behind the rightmost surviving "+" into i+1."""
    red = bracket_reduce(w, i)
    if not red.plus_positions:
        return None
    pos = red.plus_positions[-1]
    return w[:pos - 1] + (i + 1,) + w[pos:]


def kashiwara_counts(w: Word, i: int) -> tuple[int, int]:
    """(epsilon, phi): how often the raising, respectively lowering,
    operator can be applied in a row."""
    red = bracket_reduce(w, i)
    return red.epsilon, red.phi


def quasi_e(u: Word, i: int) -> Optional[Word]:
    """Raise unless ``u`` has an i-inversion: leftmost i+1 becomes i."""
    return None if has_inversion(u, i) else kashiwara_e(u, i)


def quasi_f(u: Word, i: int) -> Optional[Word]:
    """Lower unless ``u`` has an i-inversion: rightmost i becomes i+1."""
    return None if has_inversion(u, i) else kashiwara_f(u, i)


def quasi_counts(u: Word, i: int) -> tuple[int, int]:
    """(epsilon, phi) for the quasi operators: (0, 0) on a word with an
    i-inversion, otherwise the symbol counts (|u|_{i+1}, |u|_i)."""
    return (0, 0) if has_inversion(u, i) else kashiwara_counts(u, i)
