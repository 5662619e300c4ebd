import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypoplactic.operators import (
    bracket_reduce,
    kashiwara_counts,
    kashiwara_e,
    kashiwara_f,
    quasi_counts,
    quasi_e,
    quasi_f,
)
from hypoplactic.quasiribbon import is_quasi_ribbon_word, predicted_shape, qr_tabloid_of
from hypoplactic.words import standardize, weight, weight_leq

from helpers import words_up_to

FLAVOURS = ((kashiwara_e, kashiwara_f), (quasi_e, quasi_f))


def naive_reduction(w, i):
    """Oracle: literally delete adjacent minus-plus pairs until stable."""
    signs = [("+" if a == i else "-", pos) for pos, a in enumerate(w, start=1) if a in (i, i + 1)]
    changed = True
    while changed:
        changed = False
        for k in range(len(signs) - 1):
            if signs[k][0] == "-" and signs[k + 1][0] == "+":
                del signs[k:k + 2]
                changed = True
                break
    plus = tuple(pos for sign, pos in signs if sign == "+")
    minus = tuple(pos for sign, pos in signs if sign == "-")
    return plus, minus


class TestBracketReduce:
    def test_no_minuses(self):
        red = bracket_reduce((1, 1), 1)
        assert (red.phi, red.epsilon) == (2, 0)
        assert red.plus_positions == (1, 2)

    def test_cancelling_pair(self):
        red = bracket_reduce((2, 1), 1)
        assert (red.phi, red.epsilon) == (0, 0)

    def test_retained_pair(self):
        red = bracket_reduce((1, 2), 1)
        assert (red.phi, red.epsilon) == (1, 1)
        assert red.plus_positions == (1,)
        assert red.minus_positions == (2,)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            bracket_reduce((1,), 0)

    def test_immutable_value(self):
        red = bracket_reduce((1, 2, 1), 1)
        again = bracket_reduce((1, 2, 1), 1)
        assert red == again and hash(red) == hash(again)
        assert red != bracket_reduce((1, 1), 1)
        with pytest.raises(AttributeError):
            red.plus_positions = ()

    def test_matches_naive_rewriting(self):
        for w in words_up_to(3, 6):
            for i in (1, 2):
                red = bracket_reduce(w, i)
                assert (red.plus_positions, red.minus_positions) == naive_reduction(w, i)

    def test_pluses_precede_minuses(self):
        for w in words_up_to(3, 6):
            for i in (1, 2):
                red = bracket_reduce(w, i)
                if red.plus_positions and red.minus_positions:
                    assert max(red.plus_positions) < min(red.minus_positions)

    @given(st.lists(st.integers(1, 4), max_size=12).map(tuple), st.integers(1, 3))
    def test_matches_naive_rewriting_random(self, w, i):
        red = bracket_reduce(w, i)
        assert (red.plus_positions, red.minus_positions) == naive_reduction(w, i)


class TestKashiwaraOperators:
    def test_single_letters(self):
        assert kashiwara_e((2,), 1) == (1,)
        assert kashiwara_e((1,), 1) is None
        assert kashiwara_e((3,), 1) is None
        assert kashiwara_f((1,), 1) == (2,)
        assert kashiwara_f((2,), 1) is None

    def test_cancelled_word(self):
        assert kashiwara_e((2, 1), 1) is None
        assert kashiwara_f((2, 1), 1) is None

    def test_rightmost_plus(self):
        assert kashiwara_f((1, 1), 1) == (1, 2)

    def test_counts_match_iteration(self):
        for w in words_up_to(3, 5):
            for i in (1, 2):
                eps, phi = kashiwara_counts(w, i)
                k, cur = 0, w
                while (nxt := kashiwara_e(cur, i)) is not None:
                    k, cur = k + 1, nxt
                assert k == eps
                k, cur = 0, w
                while (nxt := kashiwara_f(cur, i)) is not None:
                    k, cur = k + 1, nxt
                assert k == phi

    def test_counts_examples(self):
        assert kashiwara_counts((1, 2), 1) == (1, 1)
        assert kashiwara_counts((), 3) == (0, 0)
        assert kashiwara_counts((2, 1, 2, 1), 1) == (0, 0)


class TestQuasiOperators:
    def test_raising_blocked_by_inversion(self):
        assert quasi_e((3, 1, 2, 3), 2) is None

    def test_single_letter(self):
        assert quasi_e((2,), 1) == (1,)
        assert quasi_f((1,), 1) == (2,)

    def test_lowering_needs_symbol(self):
        assert quasi_f((3, 1, 3, 1), 2) is None

    def test_raising_inversion_free(self):
        assert quasi_e((3, 1, 3, 1), 2) == (2, 1, 3, 1)

    def test_lowering_rightmost(self):
        assert quasi_f((3, 1, 1, 3), 1) == (3, 1, 2, 3)

    def test_counts(self):
        assert quasi_counts((3, 1, 2, 3), 2) == (0, 0)
        assert quasi_counts((1, 1, 2, 2), 1) == (2, 2)
        assert quasi_counts((), 4) == (0, 0)

    def test_counts_match_iteration(self):
        for w in words_up_to(3, 5):
            for i in (1, 2):
                eps, phi = quasi_counts(w, i)
                k, cur = 0, w
                while (nxt := quasi_e(cur, i)) is not None:
                    k, cur = k + 1, nxt
                assert k == eps
                k, cur = 0, w
                while (nxt := quasi_f(cur, i)) is not None:
                    k, cur = k + 1, nxt
                assert k == phi

    def test_matches_the_definition(self):
        """The paper's definition, read off the word itself: undefined on
        an i-inversion (some i+1 left of some i), otherwise the leftmost
        i+1 falls to i, the rightmost i rises to i+1, and (epsilon, phi)
        are the counts of i+1 and of i."""
        for w in words_up_to(4, 6):
            for i in (1, 2, 3, 4):
                uppers = [p for p, a in enumerate(w) if a == i + 1]
                lowers = [p for p, a in enumerate(w) if a == i]
                if uppers and lowers and uppers[0] < lowers[-1]:
                    assert quasi_e(w, i) is None
                    assert quasi_f(w, i) is None
                    assert quasi_counts(w, i) == (0, 0)
                    continue
                up = w[:uppers[0]] + (i,) + w[uppers[0] + 1:] if uppers else None
                down = w[:lowers[-1]] + (i + 1,) + w[lowers[-1] + 1:] if lowers else None
                assert quasi_e(w, i) == up
                assert quasi_f(w, i) == down
                assert quasi_counts(w, i) == (len(uppers), len(lowers))


class TestOperatorLaws:
    def test_mutually_inverse(self):
        for w in words_up_to(4, 5):
            for i in (1, 2, 3):
                for raise_op, lower_op in FLAVOURS:
                    up = raise_op(w, i)
                    if up is not None:
                        assert lower_op(up, i) == w
                    down = lower_op(w, i)
                    if down is not None:
                        assert raise_op(down, i) == w

    @given(st.lists(st.integers(1, 5), max_size=8).map(tuple), st.integers(1, 4))
    def test_mutually_inverse_random(self, w, i):
        for raise_op, lower_op in FLAVOURS:
            up = raise_op(w, i)
            if up is not None:
                assert lower_op(up, i) == w

    def test_quasi_restricts_classical(self):
        for w in words_up_to(4, 5):
            for i in (1, 2, 3):
                up = quasi_e(w, i)
                if up is not None:
                    assert kashiwara_e(w, i) == up
                down = quasi_f(w, i)
                if down is not None:
                    assert kashiwara_f(w, i) == down

    def test_weight_monotone(self):
        for w in words_up_to(3, 5):
            for i in (1, 2):
                for raise_op, lower_op in FLAVOURS:
                    up = raise_op(w, i)
                    if up is not None:
                        assert weight_leq(weight(w), weight(up))
                        assert weight(w) != weight(up)
                    down = lower_op(w, i)
                    if down is not None:
                        assert weight_leq(weight(down), weight(w))
                        assert weight(down) != weight(w)

    def test_quasi_preserves_standardization(self):
        for w in words_up_to(3, 5):
            for i in (1, 2):
                for op in (quasi_e, quasi_f):
                    out = op(w, i)
                    if out is not None:
                        assert standardize(out) == standardize(w)

    def test_quasi_preserves_quasi_ribbon_words(self):
        for w in words_up_to(3, 5):
            if not is_quasi_ribbon_word(w):
                continue
            for i in (1, 2):
                for op in (quasi_e, quasi_f):
                    out = op(w, i)
                    if out is not None:
                        assert is_quasi_ribbon_word(out)
                        assert predicted_shape(out) == predicted_shape(w)

    def test_classical_preserves_tabloid_shape(self):
        for w in words_up_to(3, 5):
            shape = qr_tabloid_of(w).shape
            for i in (1, 2):
                for op in (kashiwara_e, kashiwara_f):
                    out = op(w, i)
                    if out is not None:
                        assert qr_tabloid_of(out).shape == shape
