"""Raising and lowering operators on words, in two flavours.

The classical operators act through the bracketing rule: in a word,
each symbol i contributes a "+", each symbol i+1 a "-", and factors
"-+" are cancelled until none remain (factors "+-" survive).  The
raising operator turns the symbol behind the leftmost surviving "-"
into an i; the lowering operator turns the symbol behind the rightmost
surviving "+" into an i+1.

The quasi variants refuse to act at all on a word with an i-inversion
(an i+1 somewhere left of an i); on inversion-free words they change
the leftmost i+1, respectively the rightmost i.  Wherever a quasi
operator is defined it agrees with its classical counterpart.

Partiality is a value: undefined applications return None.

The lowering tables ``kashiwara_lowerings`` and ``quasi_lowerings``
give a word's images under every lowering operator at once, from one
bracket scan of the word that serves both flavours; the per-label
operators remain the definitions.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .words import Word, _check_label, check_alphabet, has_inversion


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
    if has_inversion(u, i):
        return None
    for pos, a in enumerate(u):
        if a == i + 1:
            return u[:pos] + (i,) + u[pos + 1:]
    return None


def quasi_f(u: Word, i: int) -> Optional[Word]:
    """Lower unless ``u`` has an i-inversion: rightmost i becomes i+1."""
    if has_inversion(u, i):
        return None
    for pos in range(len(u) - 1, -1, -1):
        if u[pos] == i:
            return u[:pos] + (i + 1,) + u[pos + 1:]
    return None


def quasi_counts(u: Word, i: int) -> tuple[int, int]:
    """(epsilon, phi) for the quasi operators: (0, 0) on a word with an
    i-inversion, otherwise the symbol counts (|u|_{i+1}, |u|_i)."""
    if has_inversion(u, i):
        return 0, 0
    return (
        sum(1 for a in u if a == i + 1),
        sum(1 for a in u if a == i),
    )


def _bracket_scan(u: Word, n: int) -> tuple[list[int], int]:
    """Bracket every label 1..n-1 of ``u`` in one left-to-right scan.

    Each symbol a is a "+" for label a and a "-" for label a-1, so one
    scan keeps, per label, a count of the "-" still open and the
    position (0-indexed) of the rightmost surviving "+".  Returns these
    positions, indexed by label and -1 where no "+" survives, and a bit
    mask holding 1 << i for each label i whose bracket cancelled a "-+"
    pair.  A cancellation needs an i+1 left of an i, and the first i
    with an i+1 to its left always cancels, so the mask is exactly the
    set of labels for which ``u`` has an i-inversion.  ``u`` must be a
    word over 1..n; every caller has checked it or reached it by
    lowering from a checked root.
    """
    open_minus = [0] * (n + 1)
    plus = [-1] * (n + 1)
    cancelled = 0
    for pos, a in enumerate(u):
        if open_minus[a]:
            open_minus[a] -= 1
            cancelled |= 1 << a
        else:
            plus[a] = pos
        open_minus[a - 1] += 1  # slot 0 takes the unused "-" of each 1
    return plus, cancelled


def _lowerings(u: Word, n: int, quasi: bool) -> dict[int, Word]:
    """The lowering table of ``u`` from one bracket scan; the quasi
    table leaves out the labels whose bracket cancelled a pair.  The
    bound 1 has no labels, so its table is empty."""
    check_alphabet(u, n)
    plus, cancelled = _bracket_scan(u, n)
    skip = cancelled if quasi else 0
    lowered = {}
    for i in range(1, n):
        pos = plus[i]
        if pos >= 0 and not skip >> i & 1:
            lowered[i] = u[:pos] + (i + 1,) + u[pos + 1:]
    return lowered


def kashiwara_lowerings(u: Word, n: int) -> dict[int, Word]:
    """``{i: kashiwara_f(u, i)}`` for every label i in 1..n-1 where the
    operator is defined, by increasing label, from one bracket scan of
    ``u``: f_i changes the rightmost surviving "+" into i+1."""
    return _lowerings(u, n, False)


def quasi_lowerings(u: Word, n: int) -> dict[int, Word]:
    """``{i: quasi_f(u, i)}`` for every label i in 1..n-1 where the
    operator is defined, by increasing label, from one bracket scan of
    ``u``.

    The quasi operator is the Kashiwara operator restricted to words
    with no i-inversion, and those are exactly the labels whose bracket
    cancels nothing; there every i survives as a "+", so the rightmost
    surviving "+" is the last i, which is what quasi_f changes.
    """
    return _lowerings(u, n, True)
