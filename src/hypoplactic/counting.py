"""Exact counting for the hypoplactic world, with brute-force oracles.

Every count here is an exact integer; nothing in this module touches
floating point.  The brute-force routines enumerate words of a fixed
weight (multiset permutations), which is sound because congruent words
always share a weight.  Enumerations refuse oversized inputs with
TooLargeError instead of running unbounded.  A bound n below 1 is
rejected by ``words._check_bound``, never read as an empty alphabet.
"""

from __future__ import annotations

from itertools import accumulate, combinations_with_replacement
from math import comb
from operator import add
from typing import Iterator

from .graphs import CRYSTAL, explore_component
from .quasiribbon import (
    QuasiRibbonTableau,
    _sort_positions,
    is_quasi_ribbon_word,
)
from .words import (
    Composition,
    Word,
    _check_bound,
    _check_weak_composition,
    check_alphabet,
    coarsenings,
    descents_of_composition,
    format_composition,
    is_partition,
    validate_composition,
    words_of_weight,
    words_over,
)
from .young import rsk


class TooLargeError(Exception):
    """Raised when a brute-force enumeration would be unreasonably big."""


MAX_BRUTE_WEIGHT = 10
MAX_BRUTE_WORDS = 200_000


def _checked(shape, n: int, partition: bool = False) -> Composition:
    """The one check of a count's arguments: ``shape`` as a
    composition, and a partition when ``partition`` is set, then the
    alphabet bound ``n``."""
    shape = validate_composition(shape)
    if partition and not is_partition(shape):
        raise ValueError(f"expected a partition, got {shape}")
    _check_bound(n)
    return shape


def _guard_weight(shape: Composition) -> None:
    if sum(shape) > MAX_BRUTE_WEIGHT:
        raise TooLargeError(
            f"weight {sum(shape)} of {format_composition(shape)!r} is beyond "
            f"the brute-force cap of weight {MAX_BRUTE_WEIGHT}"
        )


def multinomial(total: int, parts) -> int:
    """Exact multinomial coefficient total! / (parts[0]! * ...)."""
    parts = _check_weak_composition(parts)
    _check_weak_composition((total,))
    if sum(parts) != total:
        raise ValueError(f"parts {parts} do not sum to {total}")
    result = 1
    remaining = total
    for p in parts:
        result *= comb(remaining, p)
        remaining -= p
    return result


def hypo_class_size(shape: Composition, n: int) -> int:
    """Size of any hypoplactic class whose tableau has the given shape,
    over the alphabet 1..n.

    Novelli's coarsening sum, inverted: with partial sums
    s_0 = 0 < s_1 < ... < s_l of the shape, g_0 = 1 and
    g_j = sum over i < j of (-1)^(j-i-1) * C(s_j, s_i) * g_i, where
    g_j is the class size of the first j parts and the term for i
    merges parts i+1..j into one.  O(l^2) exact integer steps.
    """
    shape = _checked(shape, n)
    if len(shape) > n:
        return 0
    sums = [0, *accumulate(shape)]
    g = [1]
    for j in range(1, len(sums)):
        g.append(sum(
            (-1) ** (j - i - 1) * comb(sums[j], sums[i]) * g[i] for i in range(j)
        ))
    return g[-1]


def hypo_class_members(shape: Composition, n: int) -> list[Word]:
    """The hypoplactic class of the highest-weight word of the given
    shape, listed lexicographically.  Brute force: enumerate all words
    of that weight and keep those of that shape: each has content
    ``shape``, its tableau is (sorted content, its shape), and the class
    tableau has shape ``shape``.  The words are built from a checked
    composition, so their shapes come from the unchecked sort."""
    shape = _checked(shape, n)
    _guard_weight(shape)
    if len(shape) > n:
        return []
    return [u for u in words_of_weight(shape) if _sort_positions(u)[1] == shape]


def hypo_class_size_brute(shape: Composition, n: int) -> int:
    """Oracle for hypo_class_size by direct enumeration."""
    return len(hypo_class_members(shape, n))


def novelli_recursion_check(alpha: Composition, n: int) -> bool:
    """Whether the coarsening sum of class sizes recovers the
    multinomial coefficient of ``alpha``.

    The summand for each coarser shape beta is the size of the class of
    shape beta and content ``alpha``; classes of one shape all have one
    size, so each summand is computed from the class of content beta
    instead.  Class sizes do not depend on the alphabet bound once the
    alphabet covers the content, so the check enumerates over
    max(n, len(alpha)) symbols.
    """
    alpha = _checked(alpha, n)
    _guard_weight(alpha)
    effective_n = max(n, len(alpha))
    total = sum(hypo_class_size_brute(beta, effective_n) for beta in coarsenings(alpha))
    return total == multinomial(sum(alpha), alpha)


def count_qrt(shape: Composition, n: int) -> int:
    """Number of quasi-ribbon tableaux of the given shape with entries
    in 1..n."""
    shape = _checked(shape, n)
    if len(shape) > n:
        return 0
    return comb(n + sum(shape) - len(shape), n - len(shape))


def qr_tableaux_of_shape(shape: Composition, n: int) -> Iterator[QuasiRibbonTableau]:
    """Generate every quasi-ribbon tableau of the given shape over 1..n,
    in lexicographic order of the entries.

    Raising each cell of a multiset over 1..n-l+1, taken in sorted
    order, by the number of row breaks before it gives each tableau of
    a shape with l parts exactly once: the bijection behind
    ``count_qrt``.
    """
    shape = _checked(shape, n)
    row_of_cell = [r for r, part in enumerate(shape) for _ in range(part)]
    for cells in combinations_with_replacement(range(1, n - len(shape) + 2), sum(shape)):
        yield QuasiRibbonTableau(shape, tuple(map(add, cells, row_of_cell)))


def count_qrt_brute(shape: Composition, n: int) -> int:
    """Oracle for count_qrt by exhaustive filling.  The fillings are
    the multisets that ``qr_tableaux_of_shape`` lists, so they are
    counted before any is built and refused above MAX_BRUTE_WORDS."""
    shape = _checked(shape, n)
    _guard_weight(shape)
    size = sum(shape)
    top = n - len(shape) + size  # below size, so no fillings, when len(shape) > n
    fillings = comb(top, size)
    if fillings > MAX_BRUTE_WORDS:
        raise TooLargeError(
            f"C({top}, {size}) = {fillings} fillings is beyond "
            f"the enumeration cap of {MAX_BRUTE_WORDS}"
        )
    return sum(1 for _ in qr_tableaux_of_shape(shape, n))


def count_iso_plac_components_with_qrw(lam: Composition, n: int) -> int:
    """Number of crystal components isomorphic to a shape-``lam``
    component that contain a quasi-ribbon word component."""
    lam = _checked(lam, n, partition=True)
    if not lam:
        return 1
    if sum(lam) - lam[0] + 1 > n:
        return 0
    diffs = [lam[h] - lam[h + 1] for h in range(len(lam) - 1)] + [lam[-1]]
    return multinomial(lam[0], diffs)


def count_iso_plac_components_with_qrw_brute(lam: Composition, n: int) -> int:
    """Oracle: enumerate all words of length |lam| over 1..n, bucket
    them into crystal components by recording tableau, and among the
    shape-``lam`` components (all isomorphic, which is re-checked via
    signatures) count those holding a quasi-ribbon word."""
    lam = _checked(lam, n, partition=True)
    k = sum(lam)
    if n >= 2 and k >= MAX_BRUTE_WORDS.bit_length():  # n^k >= 2^k > MAX_BRUTE_WORDS
        raise TooLargeError(f"{n}^{k} words is beyond the enumeration cap of {MAX_BRUTE_WORDS}")
    if n ** k > MAX_BRUTE_WORDS:
        raise TooLargeError(
            f"{n}^{k} = {n ** k} words is beyond the enumeration cap of {MAX_BRUTE_WORDS}"
        )
    buckets: dict = {}
    for w in words_over(n, k):
        p, q = rsk(w)
        if p.shape != lam:
            continue
        entry = buckets.setdefault(q, {"qrw": False, "witness": w})
        if not entry["qrw"] and is_quasi_ribbon_word(w):
            entry["qrw"] = True
    signatures = {
        explore_component(entry["witness"], n, CRYSTAL).signature()
        for entry in buckets.values()
    }
    if len(signatures) > 1:
        raise AssertionError("same-shape crystal components must be isomorphic")
    return sum(1 for entry in buckets.values() if entry["qrw"])


def factorization_count(w: Word, alpha: Composition, beta: Composition, n: int) -> int:
    """Number of two-factor products congruent to ``w`` whose factors
    are quasi-ribbon words of shapes ``alpha`` and ``beta``.

    The count depends on ``w`` only through its shape gamma: it is the
    coefficient of F_gamma in F_alpha * F_beta, which the shuffle rule
    for fundamental quasi-symmetric functions (Gessel) gives as the
    number of shuffles of sigma and tau with descent composition gamma.
    Here sigma is a permutation of 1..|alpha| with descent composition
    alpha, and tau one of the next |beta| letters with descent
    composition beta.  Why:

    * every quasi-ribbon word of shape alpha has one and the same
      standardization, and there is one such word per content;
    * a word is congruent to ``w`` exactly when it has the weight of
      ``w`` and shape gamma, and the shape is read off the
      standardization, so the products congruent to ``w`` match the
      permutations pi whose first |alpha| values follow the pattern of
      sigma^-1, whose last |beta| values follow that of tau^-1, and
      whose quasi-ribbon shape is gamma;
    * the shape of pi is the descent composition of pi^-1, and
      inverting pi turns these into the shuffles above.

    The shuffles are counted by a dynamic programme over (letters of
    sigma used, letters of tau used, which one came last) in
    O(|alpha| * |beta|) steps.  Every letter of tau exceeds every
    letter of sigma, so a step from sigma to tau is an ascent, a step
    from tau to sigma a descent, and a step within sigma or within tau
    is a descent exactly where that permutation has one.
    """
    check_alphabet(w, n)
    if not is_quasi_ribbon_word(w):
        raise ValueError(f"{w} is not a quasi-ribbon word")
    alpha = validate_composition(alpha)
    beta = validate_composition(beta)
    a, b = sum(alpha), sum(beta)
    if a + b != len(w):
        raise ValueError("factor shapes must split the length of w")
    descents = set(descents_of_composition(_sort_positions(w)[1]))
    left = set(descents_of_composition(alpha))
    right = set(descents_of_composition(beta))
    # ends[i][j]: shuffle prefixes of i letters of sigma and j of tau
    # whose descents agree with gamma so far, ending in sigma, in tau.
    # Every prefix starts after a letter 0 of sigma, below all others.
    ends = [[[0, 0] for _ in range(b + 1)] for _ in range(a + 1)]
    ends[0][0][0] = 1
    for i in range(a + 1):
        for j in range(b + 1):
            by_sigma, by_tau = ends[i][j]
            descent = i + j in descents
            if i < a:
                ends[i + 1][j][0] += (by_sigma if (i in left) == descent else 0) + (
                    by_tau if descent else 0)
            if j < b:
                ends[i][j + 1][1] += (0 if descent else by_sigma) + (
                    by_tau if (j in right) == descent else 0)
    return sum(ends[a][b])

