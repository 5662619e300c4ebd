from collections import Counter
from itertools import combinations, product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoplactic import counting
from hypoplactic.counting import (
    TooLargeError,
    count_iso_plac_components_with_qrw,
    count_iso_plac_components_with_qrw_brute,
    count_qrt,
    count_qrt_brute,
    factorization_count,
    hypo_class_members,
    hypo_class_size,
    hypo_class_size_brute,
    multinomial,
    novelli_recursion_check,
    qr_tableaux_of_shape,
)
from hypoplactic.graphs import QUASI_CRYSTAL, explore_component
from hypoplactic.quasiribbon import (
    QuasiRibbonTableau,
    highest_weight_qrw,
    hypo_congruent,
    hypo_rsk,
)
from hypoplactic.words import (
    coarsenings,
    coarser,
    compositions,
    descent_composition,
    parse_word,
    weight,
    words_over,
)

from helpers import CLASS_143214, words_up_to


class TestMultinomial:
    def test_factorial_oracle(self):
        assert multinomial(6, (2, 1, 1, 2)) == factorial(6) // (2 * 1 * 1 * 2)
        assert multinomial(6, (2, 1, 1, 2)) == 180

    def test_trivial(self):
        assert multinomial(5, (5,)) == 1
        assert multinomial(0, ()) == 1

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            multinomial(5, (2, 2))


def class_size_by_coarsenings(shape, n):
    """Oracle: inclusion-exclusion of multinomials over every coarsening."""
    if len(shape) > n:
        return 0
    return sum(
        (-1) ** (len(shape) - len(beta)) * multinomial(sum(beta), beta)
        for beta in coarsenings(shape)
    )


class TestClassSize:
    def test_worked_examples(self):
        assert hypo_class_size((2, 1, 1, 2), 4) == 19
        assert hypo_class_size((1, 2, 2, 1), 4) == 61

    def test_single_row(self):
        for k in range(1, 8):
            assert hypo_class_size((k,), 1) == 1

    def test_too_many_rows(self):
        assert hypo_class_size((1, 1, 1), 2) == 0

    def test_brute_matches_list(self):
        members = hypo_class_members((2, 1, 1, 2), 4)
        assert parse_word("143214") in members
        assert members == CLASS_143214
        assert hypo_class_size_brute((2, 1, 1, 2), 4) == 19

    def test_brute_trivial(self):
        assert hypo_class_size_brute((1,), 1) == 1
        assert hypo_class_members((1, 1, 1), 2) == []

    def test_brute_matches_formula(self):
        assert hypo_class_size_brute((2, 2), 4) == hypo_class_size((2, 2), 4)

    def test_guard(self):
        with pytest.raises(TooLargeError,
                           match=r"^weight 12 of '6,6' is beyond the brute-force cap of weight 10$"):
            hypo_class_size_brute((6, 6), 4)

    def test_formula_vs_oracle_sweep(self):
        for total in range(1, 6):
            for alpha in compositions(total):
                for n in (3, 4):
                    assert hypo_class_size(alpha, n) == hypo_class_size_brute(alpha, n)

    def test_matches_coarsening_oracle(self):
        for total in range(11):
            for alpha in compositions(total):
                for n in (len(alpha) - 1, len(alpha), len(alpha) + 2):
                    if n >= 1:
                        assert hypo_class_size(alpha, n) == class_size_by_coarsenings(alpha, n)

    def test_two_parts_closed_form(self):
        # every word of weight (a, b) except the sorted one 1^a 2^b
        for a in range(1, 13):
            for b in range(1, 13):
                assert hypo_class_size((a, b), 2) == comb(a + b, a) - 1

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=14).map(tuple))
    def test_novelli_sum(self, alpha):
        # the classes of all coarser shapes partition the words of weight alpha
        n = len(alpha)
        total = sum(hypo_class_size(beta, n) for beta in coarsenings(alpha))
        assert total == multinomial(sum(alpha), alpha)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hypo_class_size((2, 0), 3)
        with pytest.raises(ValueError):
            hypo_class_size((2, 1), 0)

    def test_same_shape_classes_have_same_size(self):
        # enumerate every class over four symbols and bucket by shape
        from collections import defaultdict

        from hypoplactic.words import words_over

        sizes = defaultdict(set)
        for length in range(6):
            classes = defaultdict(int)
            for w in words_over(4, length):
                classes[hypo_rsk(w)[0]] += 1
            for tableau, size in classes.items():
                sizes[tableau.shape].add(size)
        assert all(len(found) == 1 for found in sizes.values())


class TestNovelliRecursion:
    def test_worked_example(self):
        assert novelli_recursion_check((2, 1, 1, 2), 4)

    def test_single_part(self):
        assert novelli_recursion_check((7,), 1)

    def test_two_singletons(self):
        # classes {12} and {21}: 1 + 1 = binom(2;1,1)
        assert hypo_class_size_brute((1, 1), 2) == 1
        assert hypo_class_size_brute((2,), 2) == 1
        assert novelli_recursion_check((1, 1), 2)

    def test_guard(self):
        with pytest.raises(TooLargeError,
                           match=r"^weight 11 of '11' is beyond the brute-force cap of weight 10$"):
            novelli_recursion_check((11,), 1)

    def test_guard_allows_weight_10(self):
        assert hypo_class_size_brute((10,), 1) == 1


class TestCountQrt:
    def test_two_by_two(self):
        assert count_qrt((2, 2), 4) == comb(6, 2) == 15
        assert count_qrt_brute((2, 2), 4) == 15

    def test_too_many_rows(self):
        assert count_qrt((1, 1, 1), 2) == 0
        assert count_qrt_brute((1, 1, 1), 2) == 0

    def test_single_row_single_symbol(self):
        assert count_qrt((5,), 1) == 1

    def test_brute_guard_at_its_boundary(self, monkeypatch):
        """C(6, 4) = 15 fillings of 2,2 over 4: listed under a cap of 15,
        refused with both numbers under a cap of 14.  With more rows than
        symbols there are none, so a cap of 0 refuses nothing."""
        monkeypatch.setattr(counting, "MAX_BRUTE_WORDS", 15)
        assert count_qrt_brute((2, 2), 4) == 15
        monkeypatch.setattr(counting, "MAX_BRUTE_WORDS", 14)
        with pytest.raises(TooLargeError, match=r"^C\(6, 4\) = 15 fillings is beyond "
                                                r"the enumeration cap of 14$"):
            count_qrt_brute((2, 2), 4)
        monkeypatch.setattr(counting, "MAX_BRUTE_WORDS", 0)
        assert count_qrt_brute((1, 1, 1), 2) == 0

    def test_generation_is_valid_and_distinct(self):
        seen = set(qr_tableaux_of_shape((2, 1, 2), 4))
        assert len(seen) == count_qrt((2, 1, 2), 4)
        assert all(t.shape == (2, 1, 2) for t in seen)

    def test_generation_order_and_completeness(self):
        # oracle: every filling over 1..n the constructor accepts, in
        # lexicographic order; there is no alphabet 1..0 to fill from
        for total in range(6):
            for shape in compositions(total):
                with pytest.raises(ValueError, match="alphabet bound must be at least 1"):
                    next(qr_tableaux_of_shape(shape, 0))
                for n in range(1, 4):
                    expected = []
                    for entries in product(range(1, n + 1), repeat=total):
                        try:
                            expected.append(QuasiRibbonTableau(shape, entries))
                        except ValueError:
                            pass
                    assert list(qr_tableaux_of_shape(shape, n)) == expected

    def test_generation_depth_does_not_grow(self):
        # one stack frame per symbol would exceed the recursion limit
        assert next(qr_tableaux_of_shape((5000,), 1)).shape == (5000,)

    def test_matches_component_size(self):
        for shape in [(2, 2), (3, 1), (1, 1, 2), (4,)]:
            component = explore_component(highest_weight_qrw(shape), 4, QUASI_CRYSTAL)
            assert len(component) == count_qrt(shape, 4)


class TestCountIsoComponents:
    def test_single_row(self):
        assert count_iso_plac_components_with_qrw((6,), 1) == 1

    def test_empty_partition_has_the_one_empty_component(self):
        for n in (1, 3):
            assert count_iso_plac_components_with_qrw((), n) == 1
            assert count_iso_plac_components_with_qrw_brute((), n) == 1

    def test_two_by_two(self):
        assert count_iso_plac_components_with_qrw((2, 2), 4) == multinomial(2, (0, 2)) == 1

    def test_guard_case(self):
        assert count_iso_plac_components_with_qrw((2, 1, 1), 2) == 0

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            count_iso_plac_components_with_qrw((1, 2), 3)

    def test_brute_agreement(self):
        for lam, n in [((2, 2), 4), ((2, 1), 3), ((3, 1), 3), ((1, 1, 1), 3), ((4,), 2)]:
            assert count_iso_plac_components_with_qrw_brute(lam, n) == \
                count_iso_plac_components_with_qrw(lam, n)

    def test_brute_guard(self):
        with pytest.raises(TooLargeError, match=r"^5\^12 = 244140625 words is beyond "
                                                r"the enumeration cap of 200000$"):
            count_iso_plac_components_with_qrw_brute((5, 4, 3), 5)

    def test_brute_guard_at_its_boundary(self, monkeypatch):
        """3^4 = 81 words: enumerated under a cap of 81, refused with both
        numbers under a cap of 80."""
        monkeypatch.setattr(counting, "MAX_BRUTE_WORDS", 81)
        assert count_iso_plac_components_with_qrw_brute((2, 1, 1), 3) == \
            count_iso_plac_components_with_qrw((2, 1, 1), 3)
        monkeypatch.setattr(counting, "MAX_BRUTE_WORDS", 80)
        with pytest.raises(TooLargeError, match=r"^3\^4 = 81 words is beyond "
                                                r"the enumeration cap of 80$"):
            count_iso_plac_components_with_qrw_brute((2, 1, 1), 3)

    def test_unbuilt_power_guard_at_its_boundary(self, monkeypatch):
        """Under a cap of 80, of bit length 7: 2^6 = 64 words are
        enumerated, 2^7 is refused unbuilt, and 1^7 = 1 word is no power
        of 2 or more."""
        monkeypatch.setattr(counting, "MAX_BRUTE_WORDS", 80)
        assert count_iso_plac_components_with_qrw_brute((6,), 2) == 1
        assert count_iso_plac_components_with_qrw_brute((7,), 1) == 1
        with pytest.raises(TooLargeError, match=r"^2\^7 words is beyond "
                                                r"the enumeration cap of 80$"):
            count_iso_plac_components_with_qrw_brute((7,), 2)


FORMULAS_AND_ORACLES = [
    hypo_class_size,
    hypo_class_size_brute,
    count_qrt,
    count_qrt_brute,
    count_iso_plac_components_with_qrw,
    count_iso_plac_components_with_qrw_brute,
]


@pytest.mark.parametrize("count", [*FORMULAS_AND_ORACLES, novelli_recursion_check],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("n", [0, -1])
def test_formulas_and_oracles_reject_n_below_one(count, n):
    """Each oracle raises where its formula does, rather than counting
    nothing over an empty alphabet, and before its enumeration cap,
    which weight 11 is past."""
    for shape in [(1,), (11,)]:
        with pytest.raises(ValueError, match="alphabet bound must be at least 1"):
            count(shape, n)


def coarsenings_of(shape, n):
    return coarsenings(shape)


def coarser_than_one_part(shape, n):
    return coarser((1,), shape)


def one_part_coarser_than(shape, n):
    return coarser(shape, (1,))


# The calls that take a composition, each as (shape, n): every count,
# and the coarsening helpers, with the shape in each argument of coarser.
COMPOSITION_CALLS = [*FORMULAS_AND_ORACLES, novelli_recursion_check, coarsenings_of,
                     coarser_than_one_part, one_part_coarser_than]


@pytest.mark.parametrize("count", COMPOSITION_CALLS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("shape", [(2.5,), (2, 1.0), ("a",), (2, True), (1.5, 1.5), (True, 1),
                                   (0, 2), (1, -1, 2)])
def test_formulas_and_oracles_reject_parts_that_are_not_integers(count, shape):
    # a part below 1 is rejected the same way, not read as an empty part
    # or reported as a bad descent
    with pytest.raises(ValueError, match="^composition parts must be positive integers$"):
        count(shape, 3)


def qrt_reading(shape, entries):
    """Reading of the quasi-ribbon tableau of the given shape and
    entries, or None when that filling is not a tableau."""
    try:
        return QuasiRibbonTableau(shape, entries).reading()
    except ValueError:
        return None


def factorizations_by_weight_splits(w, alpha, beta):
    """Oracle: a quasi-ribbon word is fixed by its shape and content,
    and congruent words share a weight, so try one product uv for each
    way of splitting the weight of ``w`` between u and v."""
    wt = weight(w)
    count = 0
    for left in product(*(range(c + 1) for c in wt)):
        if sum(left) != sum(alpha):
            continue
        u = qrt_reading(alpha, [k for k, c in enumerate(left, 1) for _ in range(c)])
        v = qrt_reading(beta, [k for k, (c, l) in enumerate(zip(wt, left), 1)
                               for _ in range(c - l)])
        if u is not None and v is not None and hypo_congruent(w, u + v):
            count += 1
    return count


def permutation_with_descents(alpha):
    """The permutation of 1..|alpha| whose ascending runs have the
    lengths of ``alpha``, each run below the one before."""
    letters = []
    top = sum(alpha) + 1
    for part in alpha:
        top -= part
        letters.extend(range(top, top + part))
    return tuple(letters)


def shuffle_descent_compositions(alpha, beta):
    """Oracle: the descent compositions of all C(a+b, a) shuffles of one
    fixed sigma with descent composition ``alpha`` and one fixed tau on
    the next letters with descent composition ``beta``, counted."""
    sigma = permutation_with_descents(alpha)
    tau = permutation_with_descents(beta)
    assert descent_composition(sigma) == alpha and descent_composition(tau) == beta
    tau = [a + len(sigma) for a in tau]
    size = len(sigma) + len(tau)
    found = Counter()
    for places in combinations(range(size), len(sigma)):
        left, right = iter(sigma), iter(tau)
        found[descent_composition(
            tuple(next(left) if h in places else next(right) for h in range(size))
        )] += 1
    return found


def shape_splits(size):
    """Every (alpha, beta) with |alpha| + |beta| = size."""
    for left_len in range(size + 1):
        for alpha in compositions(left_len):
            for beta in compositions(size - left_len):
                yield alpha, beta


class TestFactorizationCount:
    def test_smallest_case(self):
        assert factorization_count((1, 1), (1,), (1,), 2) == 1

    def test_empty_right_factor(self):
        w = parse_word("1212")
        assert factorization_count(w, (2, 2), (), 2) == 1
        assert factorization_count(w, (4,), (), 2) == 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            factorization_count((4, 3, 3), (2,), (1,), 4)  # not quasi-ribbon
        with pytest.raises(ValueError):
            factorization_count((1, 1), (1,), (2,), 2)  # length mismatch

    @pytest.mark.parametrize("args", [((), (0,), (), 2), ((1, 1), (3, -1), (), 2)])
    def test_rejects_factor_shapes_that_are_not_compositions(self, args):
        with pytest.raises(ValueError, match="composition parts must be positive"):
            factorization_count(*args)

    def test_depends_only_on_shapes(self):
        # equal counts across all quasi-ribbon words sharing a shape
        from collections import defaultdict
        from hypoplactic.quasiribbon import is_quasi_ribbon_word, predicted_shape

        for length in range(1, 6):
            by_shape = defaultdict(list)
            for w in words_up_to(3, length):
                if len(w) == length and is_quasi_ribbon_word(w):
                    by_shape[predicted_shape(w)].append(w)
            for shape, members in by_shape.items():
                for left_len in range(length + 1):
                    for alpha in compositions(left_len):
                        for beta in compositions(length - left_len):
                            counts = {
                                factorization_count(w, alpha, beta, 3)
                                for w in members
                            }
                            assert len(counts) == 1

    def test_counts_all_congruent_products(self):
        # oracle: scan every split of every congruent word
        from hypoplactic.quasiribbon import is_quasi_ribbon_word, predicted_shape

        w = parse_word("2112")
        assert not is_quasi_ribbon_word(w)
        qrw = hypo_rsk(w)[0].reading()
        for alpha in compositions(2):
            for beta in compositions(2):
                expected = 0
                for u in words_up_to(3, 2):
                    for v in words_up_to(3, 2):
                        if len(u) != 2 or len(v) != 2:
                            continue
                        if not (is_quasi_ribbon_word(u) and is_quasi_ribbon_word(v)):
                            continue
                        if predicted_shape(u) != alpha or predicted_shape(v) != beta:
                            continue
                        if hypo_congruent(qrw, u + v):
                            expected += 1
                assert factorization_count(qrw, alpha, beta, 3) == expected


    def test_matches_weight_split_oracle(self):
        from hypoplactic.quasiribbon import is_quasi_ribbon_word

        for n in range(1, 5):
            for length in range(6):
                for w in words_over(n, length):
                    if not is_quasi_ribbon_word(w):
                        continue
                    for alpha, beta in shape_splits(length):
                        assert factorization_count(w, alpha, beta, n) == \
                            factorizations_by_weight_splits(w, alpha, beta)

    def test_matches_shuffle_oracle(self):
        for size in range(8):
            roots = {gamma: highest_weight_qrw(gamma) for gamma in compositions(size)}
            for alpha, beta in shape_splits(size):
                found = shuffle_descent_compositions(alpha, beta)
                for gamma, w in roots.items():
                    assert factorization_count(w, alpha, beta, max(len(gamma), 1)) == \
                        found[gamma]

    def test_product_of_fundamentals_at_n_ones(self):
        # F_alpha F_beta = sum over gamma of count(gamma) F_gamma, and a
        # fundamental F_gamma at n ones counts the QRTs of shape gamma
        for size in range(2, 9):
            roots = {gamma: highest_weight_qrw(gamma) for gamma in compositions(size)}
            for alpha, beta in shape_splits(size):
                if not (alpha and beta):
                    continue
                coefficients = {
                    gamma: factorization_count(w, alpha, beta, len(gamma))
                    for gamma, w in roots.items()
                }
                for n in range(1, 6):
                    assert sum(c * count_qrt(gamma, n) for gamma, c in coefficients.items()) == \
                        count_qrt(alpha, n) * count_qrt(beta, n)


class TestConjugacy:
    """g = n..21 conjugates any two words u and v of equal weight over
    1..n: ug = gv and gu = vg in the hypoplactic monoid."""

    def test_basic_witness(self):
        g = (2, 1)
        assert hypo_congruent((1, 2) + g, g + (2, 1))
        assert hypo_congruent(g + (1, 2), (2, 1) + g)

    def test_equal_words(self):
        g, u = (3, 2, 1), (1, 2, 2)
        assert hypo_congruent(u + g, g + u)
        assert hypo_congruent(g + u, u + g)

    def test_different_weights(self):
        # congruent words share a weight, so nothing conjugates 1 to 2
        g = (2, 1)
        assert not hypo_congruent((1,) + g, g + (2,))
        assert not hypo_congruent(g + (1,), (2,) + g)

    def test_witness_everywhere_small(self):
        g = (3, 2, 1)
        words2 = [w for w in words_up_to(3, 3) if len(w) == 3]
        for u in words2[::2]:
            for v in words2[::2]:
                conjugate = hypo_congruent(u + g, g + v) and hypo_congruent(g + u, v + g)
                assert conjugate == (weight(u) == weight(v))


def xyxy_equals_yxyx(x, y):
    return hypo_congruent(x + y + x + y, y + x + y + x)


class TestIdentity:
    def test_examples(self):
        assert xyxy_equals_yxyx((1,), (2,))
        assert xyxy_equals_yxyx((), (2, 1))

    def test_exhaustive_tiny(self):
        words = list(words_up_to(3, 2))
        for x in words:
            for y in words:
                assert xyxy_equals_yxyx(x, y)
