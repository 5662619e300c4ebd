import math
from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypoplactic.words import (
    coarsenings,
    coarser,
    compositions,
    composition_from_descents,
    descent_composition,
    descent_set,
    descents_of_composition,
    format_word,
    has_inversion,
    inverse_permutation,
    is_partition,
    is_standard,
    max_decreasing_factorization,
    parse_composition,
    parse_word,
    schuetzenberger_involution,
    standardize,
    weight,
    weight_leq,
    words_of_weight,
    words_over,
)

from helpers import standard_words, words_up_to

short_words = st.lists(st.integers(1, 5), max_size=8).map(tuple)


class TestWeight:
    def test_worked_example(self):
        assert weight(parse_word("542164325224")) == (1, 4, 1, 3, 2, 1)

    def test_empty(self):
        assert weight(()) == ()

    def test_single_symbol(self):
        assert weight((1, 1, 1)) == (3,)

    def test_canonical(self):
        # no trailing zeros even when low symbols are missing
        assert weight((3, 3)) == (0, 0, 2)

    @given(short_words, st.randoms())
    def test_invariant_under_permutation(self, w, rng):
        shuffled = list(w)
        rng.shuffle(shuffled)
        assert weight(tuple(shuffled)) == weight(w)


class TestWeightLeq:
    def test_worked_example(self):
        assert weight_leq((1, 4, 1, 3, 2, 1), (5, 3, 2, 2))
        assert not weight_leq((5, 3, 2, 2), (1, 4, 1, 3, 2, 1))

    def test_reflexive(self):
        assert weight_leq((2, 1), (2, 1))

    def test_prefix_sum_failure(self):
        # oracle: compare prefix sums directly
        a, b = (2,), (1, 1)
        prefixes_a = [sum(a[:k]) for k in range(1, 3)]
        prefixes_b = [sum(b[:k]) for k in range(1, 3)]
        assert any(x > y for x, y in zip(prefixes_a, prefixes_b))
        assert not weight_leq(a, b)


class TestStandardize:
    def test_worked_example(self):
        assert standardize(parse_word("243245565")) == parse_word("143256798")

    def test_empty(self):
        assert standardize(()) == ()

    def test_fixes_standard_words(self):
        for w in standard_words(5):
            assert standardize(w) == w

    def test_idempotent_exhaustive(self):
        for w in words_up_to(5, 6):
            s = standardize(w)
            assert standardize(s) == s
            assert is_standard(s)
            assert len(s) == len(w)

    def test_preserves_relative_order(self):
        # subscripted symbols compare by (symbol, occurrence); ranks must agree
        w = (2, 1, 2, 1)
        assert standardize(w) == (3, 1, 4, 2)

    def test_matches_rank_by_symbol_then_position(self):
        for w in words_up_to(3, 6):
            order = sorted(range(len(w)), key=lambda h: (w[h], h))
            ranks = [0] * len(w)
            for rank, h in enumerate(order, start=1):
                ranks[h] = rank
            assert standardize(w) == tuple(ranks)


class TestStandardWords:
    def test_is_standard(self):
        assert is_standard(parse_word("143256798"))
        assert is_standard(())
        assert not is_standard((1, 1))

    def test_inverse_identity(self):
        assert inverse_permutation((1, 2, 3)) == (1, 2, 3)

    def test_inverse_transposition(self):
        assert inverse_permutation((2, 1)) == (2, 1)

    def test_inverse_by_composition_oracle(self):
        w = (4, 2, 1, 3)
        r = inverse_permutation(w)
        # composing the permutations must give the identity
        assert all(r[w[h] - 1] == h + 1 for h in range(len(w)))
        assert r == (3, 2, 4, 1)

    def test_inverse_is_involution(self):
        for w in standard_words(5):
            assert inverse_permutation(inverse_permutation(w)) == w

    def test_rejects_non_standard(self):
        with pytest.raises(ValueError):
            inverse_permutation((1, 1))
        with pytest.raises(ValueError):
            descent_set((2, 2))
        with pytest.raises(ValueError):
            descent_composition((3, 1))


class TestDescents:
    def test_worked_example(self):
        u = parse_word("143256798")
        assert descent_set(u) == {2, 3, 8}
        assert descent_composition(u) == (2, 1, 5, 1)

    def test_monotone_words(self):
        assert descent_set((1, 2, 3)) == set()
        assert descent_composition((1, 2, 3)) == (3,)
        assert descent_set((3, 2, 1)) == {1, 2}

    def test_derived_3241(self):
        assert descent_set((3, 2, 4, 1)) == {1, 3}
        assert descent_composition((3, 2, 4, 1)) == (1, 2, 1)

    @pytest.mark.parametrize("descents, total", [([0], 3), ([3], 3), ([-1], 3), ([1], 0)])
    def test_composition_from_descents_refuses_a_descent_out_of_range(self, descents, total):
        with pytest.raises(ValueError, match="out of range for weight"):
            composition_from_descents(descents, total)

    def test_composition_matches_descents(self):
        for w in standard_words(6):
            alpha = descent_composition(w)
            assert sum(alpha) == len(w)
            assert set(descents_of_composition(alpha)) == descent_set(w)


class TestCoarser:
    def test_coarsening_chain(self):
        chain = [(1, 1), (3, 8), (3, 6, 2), (3, 1, 5, 2)]
        chain[0] = (11,)
        for k in range(len(chain) - 1):
            assert coarser(chain[k], chain[k + 1])

    def test_reflexive(self):
        assert coarser((2, 1, 3), (2, 1, 3))

    def test_derived_failure(self):
        # partial sums of (2,2) are {2}, of (3,1) are {3}
        assert not coarser((2, 2), (3, 1))

    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            coarser((2,), (1, 2))

    def test_partial_order_axioms(self):
        for total in range(7):
            comps = list(compositions(total))
            for a in comps:
                assert coarser(a, a)
                for b in comps:
                    if coarser(a, b) and coarser(b, a):
                        assert a == b
                    for c in comps:
                        if coarser(a, b) and coarser(b, c):
                            assert coarser(a, c)


class TestCoarsenings:
    def test_two_parts(self):
        assert coarsenings((2, 1)) == [(2, 1), (3,)]

    def test_single_part(self):
        assert coarsenings((7,)) == [(7,)]

    def test_three_ones(self):
        result = coarsenings((1, 1, 1))
        assert len(result) == 4
        assert set(result) == {(1, 1, 1), (2, 1), (1, 2), (3,)}

    def test_matches_filter_oracle(self):
        for total in range(1, 7):
            for alpha in compositions(total):
                expected = {b for b in compositions(total) if coarser(b, alpha)}
                listed = coarsenings(alpha)
                assert len(listed) == 2 ** (len(alpha) - 1)
                assert len(set(listed)) == len(listed)
                assert set(listed) == expected


class TestCompositions:
    def test_counts(self):
        assert len(list(compositions(0))) == 1
        for total in range(1, 8):
            comps = list(compositions(total))
            assert len(comps) == 2 ** (total - 1)
            assert len(set(comps)) == len(comps)
            assert all(sum(c) == total for c in comps)

    def test_from_descents_roundtrip(self):
        assert composition_from_descents({2, 3, 8}, 9) == (2, 1, 5, 1)
        assert composition_from_descents([], 0) == ()


class TestIsPartition:
    def test_matches_definition(self):
        """Every tuple of parts in -1..3 up to length 4: no part is below
        the next one and every part is at least 1."""
        for length in range(5):
            for a in product(range(-1, 4), repeat=length):
                expected = all(a[h] >= a[h + 1] for h in range(length - 1)) and all(p >= 1 for p in a)
                assert is_partition(a) == expected


class TestFactorizations:
    def test_worked_example(self):
        w = parse_word("526431454212")
        assert max_decreasing_factorization(w) == [
            (5, 2), (6, 4, 3, 1), (4,), (5, 4, 2, 1), (2,),
        ]

    def test_monotone_words(self):
        assert max_decreasing_factorization((1, 2, 3)) == [(1,), (2,), (3,)]
        assert max_decreasing_factorization((3, 2, 1)) == [(3, 2, 1)]

    def test_concatenation_and_maximality(self):
        for w in words_up_to(3, 6):
            factors = max_decreasing_factorization(w)
            assert tuple(a for f in factors for a in f) == w
            for f in factors:
                assert all(f[k] > f[k + 1] for k in range(len(f) - 1))
            for j in range(len(factors) - 1):
                # the next factor's first symbol cannot extend this factor
                assert factors[j + 1][0] >= factors[j][-1]


class TestInversions:
    def test_examples(self):
        assert has_inversion((3, 1, 2, 3), 2)
        assert not has_inversion((3, 1, 3, 1), 2)
        assert not has_inversion((), 5)

    def test_adjacent_not_required(self):
        assert has_inversion((2, 3, 1), 1)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            has_inversion((1, 2), 0)


class TestSchuetzenberger:
    def test_palindromic_case(self):
        assert schuetzenberger_involution((1, 2, 3), 3) == (1, 2, 3)

    def test_empty_and_single(self):
        assert schuetzenberger_involution((), 4) == ()
        assert schuetzenberger_involution((1,), 4) == (4,)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            schuetzenberger_involution((5,), 4)

    def test_involution_exhaustive(self):
        for w in words_up_to(3, 4):
            assert schuetzenberger_involution(schuetzenberger_involution(w, 3), 3) == w

    @given(st.lists(st.integers(1, 6), max_size=10).map(tuple))
    def test_involution_random(self, w):
        assert schuetzenberger_involution(schuetzenberger_involution(w, 6), 6) == w

    def test_reverses_dominance(self):
        words4 = list(words_up_to(3, 4))
        for u in words4:
            for v in words4:
                if len(u) != len(v) or weight(u) == weight(v):
                    continue
                if weight_leq(weight(u), weight(v)):
                    su = schuetzenberger_involution(u, 3)
                    sv = schuetzenberger_involution(v, 3)
                    assert weight_leq(weight(sv), weight(su))


class TestTextFormat:
    def test_digit_words(self):
        assert parse_word("4323") == (4, 3, 2, 3)
        assert format_word((4, 3, 2, 3)) == "4323"

    def test_empty(self):
        assert parse_word("") == ()
        assert format_word(()) == ""

    def test_large_symbols(self):
        assert parse_word("10,2,11") == (10, 2, 11)
        assert format_word((10, 2, 11)) == "10,2,11"
        assert parse_word(format_word((10,))) == (10,)

    def test_roundtrip(self):
        for w in words_up_to(3, 4):
            assert parse_word(format_word(w)) == w

    def test_large_single_symbol_roundtrip(self):
        assert format_word((12,)) == "12,"
        assert parse_word("12,") == (12,)
        assert parse_word("10,2,11,") == (10, 2, 11)
        for w in [(12,), (10, 2, 11), (10,), (9, 10)]:
            assert parse_word(format_word(w)) == w

    def test_rejects_zero_digit(self):
        # a digit string with a 0 would otherwise read as one large symbol
        with pytest.raises(ValueError, match="4,3,2,0"):
            parse_word("4320")
        with pytest.raises(ValueError, match="comma form"):
            parse_word("10")

    def test_rejects_lone_comma(self):
        for text in [",", "1,,", "12,,"]:
            with pytest.raises(ValueError):
                parse_word(text)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_word("1,x")
        with pytest.raises(ValueError):
            parse_word("0")
        with pytest.raises(ValueError):
            parse_composition("2,0")

    def test_composition_parsing(self):
        assert parse_composition("(2,1,1,2)") == (2, 1, 1, 2)
        assert parse_composition("3") == (3,)
        assert parse_composition("") == ()
        assert parse_composition("2, 1") == (2, 1)

    def test_symbols_are_ascii_digits_only(self):
        assert parse_word("1, 2") == (1, 2)
        assert parse_word(" 10 , 2 ,") == (10, 2)
        # int() alone reads the first three as 3, 3 and 31
        for text in ["+3", "\u0663", "3_1", "1,+2", "1,\u0662", "-1,2", "1" * 5000 + ","]:
            with pytest.raises(ValueError, match="cannot parse word"):
                parse_word(text)

    def test_parts_are_ascii_digits_only(self):
        # int() alone reads the first three as (10,), (2, 1) and (2,)
        for text in ["1_0", "+2,1", "\u0662", "2,-1"]:
            with pytest.raises(ValueError, match="cannot parse composition"):
                parse_composition(text)


class TestWordsOfWeight:
    def test_lexicographic_and_complete(self):
        for gamma in [(2, 1), (1, 0, 2), (3,), (1, 1, 1)]:
            listed = list(words_of_weight(gamma))
            symbols = [k for k, c in enumerate(gamma, start=1) for _ in range(c)]
            expected = sorted(set(permutations(symbols)))
            assert listed == expected
            counts = math.factorial(len(symbols))
            for c in gamma:
                counts //= math.factorial(c)
            assert len(listed) == counts

    def test_empty_weight(self):
        assert list(words_of_weight(())) == [()]


class TestWordsOver:
    def test_lexicographic(self):
        assert list(words_over(2, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert list(words_over(3, 0)) == [()]

    def test_long_words_do_not_recurse(self):
        assert next(words_over(1, 5000)) == (1,) * 5000
