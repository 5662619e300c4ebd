"""Words over the ordered alphabet of positive integers, plus the
composition and partition arithmetic everything else is built on.

Conventions used throughout the package:

* a *word* is a tuple of positive integers; the empty tuple is the
  empty word; positions and symbols are 1-indexed on every public
  surface;
* a *weak composition* is a tuple of non-negative integers stored
  canonically with no trailing zeros, so equality of tuples is equality
  of weak compositions;
* a *composition* is a tuple of strictly positive integers;
* a *partition* is a non-increasing composition.

Words have a compact text form: a plain digit string when every symbol
is an integer in 1..9 ("4323"), comma-separated symbols otherwise
("10,2,11"; error messages quote a word holding 0, a negative symbol or
a non-integer this way too, as "-1,2" or "1.5,2").
A one-symbol word in the comma form carries a trailing comma ("12,"),
so that it does not read back as a digit string; a comma-free string
holding a 0 is rejected rather than read as one large symbol.  The
empty string is the empty word.  Compositions are always written as
comma-separated integers.  Every symbol or part is written in the ASCII
digits 0-9 alone, with optional spaces around it ("1, 2"): signs,
underscores and other scripts' digits are rejected.

The package's input checks live here, one per concept: the private
``_check_symbols``, ``_check_bound``, ``_check_label`` and
``_check_weak_composition``, and ``validate_composition`` and
``check_alphabet``.  No other module tests an input itself, so a bad
input reads the same in every layer.
"""

from __future__ import annotations

from itertools import accumulate, product, zip_longest
from typing import Iterable, Iterator

Word = tuple[int, ...]
Composition = tuple[int, ...]
WeakComposition = tuple[int, ...]


def weight(w: Word) -> WeakComposition:
    """Count how many times each symbol occurs in ``w``.

    The k-th term of the result is the number of symbols k; trailing
    zeros are stripped, so the result is canonical.  A symbol that is
    not a positive integer raises ValueError.
    """
    _check_symbols(w)
    counts = [0] * (max(w, default=0) + 1)  # slot a counts symbol a; slot 0 is unused
    for a in w:
        counts[a] += 1
    return tuple(counts[1:])


def weight_leq(a: WeakComposition, b: WeakComposition) -> bool:
    """Dominance comparison: every prefix sum of ``a`` is at most the
    corresponding prefix sum of ``b`` (missing terms count as 0)."""
    a = _check_weak_composition(a)
    b = _check_weak_composition(b)
    sa = sb = 0
    for x, y in zip_longest(a, b, fillvalue=0):
        sa += x
        sb += y
        if sa > sb:
            return False
    return True


def standardize(w: Word) -> Word:
    """Relabel ``w`` as a standard word.

    The h-th occurrence of a symbol a (scanning left to right) is ranked
    below later occurrences of a and below all occurrences of larger
    symbols; replacing each position by its rank gives a permutation
    that preserves this order.  Standard words are fixed points.  Its
    symbols are checked first, so ("b", "a") is rejected rather than
    ranked by value.
    """
    _check_symbols(w)
    order = sorted(range(len(w)), key=w.__getitem__)  # stable: ties keep position order
    out = [0] * len(w)
    for rank, h in enumerate(order, start=1):
        out[h] = rank
    return tuple(out)


def is_standard(w: Word) -> bool:
    """Whether ``w`` contains each of 1..len(w) exactly once.  Its
    symbols are checked first, so (1.0, 2.0) is rejected rather than
    compared by value."""
    _check_symbols(w)
    return sorted(w) == list(range(1, len(w) + 1))


def _require_standard(w: Word) -> None:
    if not is_standard(w):
        raise ValueError(f"expected a standard word, got {format_word(w)!r}")


def inverse_permutation(w: Word) -> Word:
    """Inverse of a standard word viewed as the permutation h -> w[h]."""
    _require_standard(w)
    inv = [0] * len(w)
    for h, a in enumerate(w, start=1):
        inv[a - 1] = h
    return tuple(inv)


def descent_set(w: Word) -> set[int]:
    """Positions h with w[h] > w[h+1], for a standard word (1-indexed)."""
    _require_standard(w)
    return {h for h in range(1, len(w)) if w[h - 1] > w[h]}


def composition_from_descents(descents: Iterable[int], total: int) -> Composition:
    """The unique composition of weight ``total`` whose proper partial
    sums are exactly ``descents``."""
    ds = sorted(set(descents))
    if any(not 0 < d < total for d in ds):
        raise ValueError(f"descents {ds} out of range for weight {total}")
    if total == 0:
        return ()
    parts = []
    prev = 0
    for d in ds + [total]:
        parts.append(d - prev)
        prev = d
    return tuple(parts)


def descent_composition(w: Word) -> Composition:
    """Composition of weight len(w) encoding the descent set of ``w``."""
    return composition_from_descents(descent_set(w), len(w))


def descents_of_composition(a: Composition) -> tuple[int, ...]:
    """Proper partial sums a[0], a[0]+a[1], ... (the last sum excluded)."""
    return tuple(accumulate(a[:-1]))


def coarser(b: Composition, a: Composition) -> bool:
    """Whether ``b`` arises from ``a`` by merging consecutive parts.

    Equivalently, every proper partial sum of ``b`` is a proper partial
    sum of ``a``.  Both compositions must have the same weight.
    """
    b = validate_composition(b)
    a = validate_composition(a)
    if sum(b) != sum(a):
        raise ValueError("coarser() requires compositions of equal weight")
    return set(descents_of_composition(b)) <= set(descents_of_composition(a))


def coarsenings(a: Composition) -> list[Composition]:
    """All compositions coarser than ``a``, each exactly once.

    The order is deterministic: subsets of the partial-sum set of ``a``
    are visited by descending bitmask, so ``a`` itself comes first and
    the one-part composition comes last.
    """
    a = validate_composition(a)
    ds = descents_of_composition(a)
    total = sum(a)
    out = []
    for mask in range((1 << len(ds)) - 1, -1, -1):
        subset = [d for j, d in enumerate(ds) if mask >> j & 1]
        out.append(composition_from_descents(subset, total))
    return out


def compositions(total: int) -> Iterator[Composition]:
    """All compositions of ``total``, via subsets of {1..total-1}."""
    _check_weak_composition((total,))
    if total == 0:
        yield ()
        return
    for mask in range(1 << (total - 1)):
        descents = [j + 1 for j in range(total - 1) if mask >> j & 1]
        yield composition_from_descents(descents, total)


def max_decreasing_factorization(w: Word) -> list[Word]:
    """Split ``w`` into its maximal strictly decreasing factors."""
    factors: list[list[int]] = []
    for a in w:
        if factors and a < factors[-1][-1]:
            factors[-1].append(a)
        else:
            factors.append([a])
    return [tuple(f) for f in factors]


def has_inversion(w: Word, i: int) -> bool:
    """Whether ``w`` contains a symbol i+1 somewhere left of a symbol i."""
    _check_label(i)
    _check_symbols(w)
    seen_upper = False
    for a in w:
        if a == i + 1:
            seen_upper = True
        elif a == i and seen_upper:
            return True
    return False


def schuetzenberger_involution(w: Word, n: int) -> Word:
    """Reverse ``w`` and replace each symbol a by n-a+1."""
    check_alphabet(w, n)
    return tuple(n - a + 1 for a in reversed(w))


_DIGITS = frozenset("123456789")


def _ascii_integers(text: str) -> tuple[int, ...] | None:
    """The comma-separated integers in ``text``, or None unless every
    part is ASCII digits once its surrounding spaces are stripped."""
    parts = [p.strip() for p in text.split(",")]
    if not all(p.isascii() and p.isdigit() for p in parts):
        return None
    try:
        return tuple(int(p) for p in parts)
    except ValueError:  # a part longer than int() converts
        return None


def parse_word(text: str) -> Word:
    """Parse the shared text form of a word (see module docstring)."""
    text = text.strip()
    if not text:
        return ()
    if all(ch in _DIGITS for ch in text):
        return tuple(int(ch) for ch in text)
    if "," not in text and "0" in text:
        raise ValueError(
            f"cannot parse word {text!r}: 0 is not a symbol and a digit string "
            f"holds one symbol per digit; use the comma form, such as "
            f"{','.join(text)!r}, or {text + ','!r} for a single symbol"
        )
    body = text[:-1] if text.endswith(",") else text
    symbols = _ascii_integers(body)
    if symbols is None:
        raise ValueError(f"cannot parse word {text!r}")
    _check_symbols(symbols)
    return symbols


def format_word(w: Word) -> str:
    if not w:
        return ""
    if all(type(a) is int and 1 <= a <= 9 for a in w):
        return "".join(str(a) for a in w)
    return ",".join(str(a) for a in w) + ("," if len(w) == 1 else "")


def parse_composition(text: str) -> Composition:
    """Parse comma-separated parts; surrounding parentheses are allowed."""
    text = text.strip().strip("()").strip()
    if not text:
        return ()
    parts = _ascii_integers(text)
    if parts is None:
        raise ValueError(f"cannot parse composition {text!r}")
    return validate_composition(parts)


def format_composition(a: Composition) -> str:
    return ",".join(str(p) for p in a)


def is_partition(a: Composition) -> bool:
    """Whether no part of ``a`` is below the next one and every part is
    at least 1; once the parts never increase, the last one decides."""
    for h in range(len(a) - 1):
        if a[h] < a[h + 1]:
            return False
    return not a or a[-1] >= 1


def _check_symbols(w: Word) -> None:
    """The one test of symbols, for a word, row or column: reject a
    one-shot iterator, which this scan would use up, then a symbol that
    is not an integer, then one below 1.  A bool is not an integer here,
    as in ``format_word``."""
    if iter(w) is w:
        raise ValueError("a word must be a sequence, not a one-shot iterator")
    below_one = False
    for a in w:
        if type(a) is not int:
            raise ValueError("entries must be positive integers")
        if a < 1:
            below_one = True
    if below_one:
        raise ValueError(f"word symbols must be positive: {format_word(w)!r}")


def _check_bound(n: int) -> None:
    """Reject an alphabet bound that is not an integer of at least 1:
    the one check of a bound."""
    if type(n) is not int:
        raise ValueError(f"alphabet bound must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("alphabet bound must be at least 1")


def _check_label(i: int) -> None:
    """Reject an operator label that is not an integer of at least 1."""
    if type(i) is not int:
        raise ValueError(f"i must be an integer, got {i!r}")
    if i < 1:
        raise ValueError("i must be at least 1")


def check_alphabet(w: Word, n: int) -> None:
    """Reject a word that is not over 1..n: the one check of a word
    against an alphabet bound."""
    _check_bound(n)
    _check_symbols(w)
    if w and max(w) > n:
        raise ValueError(f"word {format_word(w)!r} has a symbol above {n}")


def validate_composition(shape) -> Composition:
    """Return ``shape`` as a tuple, rejecting parts that are not
    positive integers."""
    shape = tuple(shape)
    for p in shape:
        if type(p) is not int or p < 1:
            raise ValueError("composition parts must be positive integers")
    return shape


def _check_weak_composition(parts) -> WeakComposition:
    """Return ``parts`` as a tuple, rejecting parts that are not
    non-negative integers: the one check of a weak composition, and of
    a total, which is a weak composition of one part."""
    parts = tuple(parts)
    for p in parts:
        if type(p) is not int or p < 0:
            raise ValueError("weak composition parts must be non-negative integers")
    return parts


def words_over(n: int, length: int) -> Iterator[Word]:
    """All words of the given length over 1..n, lexicographically."""
    _check_bound(n)
    return product(range(1, n + 1), repeat=length)


def _next_permutation(a: list[int]) -> bool:
    # Standard in-place step to the lexicographic successor.
    i = len(a) - 2
    while i >= 0 and a[i] >= a[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(a) - 1
    while a[j] <= a[i]:
        j -= 1
    a[i], a[j] = a[j], a[i]
    a[i + 1:] = reversed(a[i + 1:])
    return True


def words_of_weight(gamma: WeakComposition) -> Iterator[Word]:
    """All words with the given weight, in lexicographic order.

    These are the multiset permutations of the multiset containing
    gamma[k-1] copies of each symbol k.
    """
    gamma = _check_weak_composition(gamma)
    symbols = [k for k, count in enumerate(gamma, start=1) for _ in range(count)]
    if not symbols:
        yield ()
        return
    current = symbols[:]  # already sorted ascending, the lex minimum
    while True:
        yield tuple(current)
        if not _next_permutation(current):
            return
