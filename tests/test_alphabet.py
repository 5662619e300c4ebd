"""Every public entry point that takes a word and an alphabet bound n
checks the word with ``words.check_alphabet``: a symbol that is not an
integer, below 1 or above n is rejected with a ValueError, before any
work is done.  So is a bound that is not an integer, there and in the
counts, which check n with ``counting._checked``."""

import pytest

from hypoplactic.counting import (
    check_identity_xyxy,
    count_iso_plac_components_with_qrw,
    count_iso_plac_components_with_qrw_brute,
    count_qrt,
    count_qrt_brute,
    factorization_count,
    hypo_class_members,
    hypo_class_size,
    hypo_class_size_brute,
    novelli_recursion_check,
    o_conjugacy_witness,
    qr_tableaux_of_shape,
)
from hypoplactic.graphs import (
    CRYSTAL,
    QUASI_CRYSTAL,
    component_from_json_dict,
    component_to_json_dict,
    crystal_overlay,
    explore_component,
    highest_weight_word,
    plac_component_contains_qrw,
    same_recording_ribbon,
    sim_related,
)
from hypoplactic.operators import kashiwara_lowerings, quasi_lowerings
from hypoplactic.quasiribbon import hypo_congruent, hypoplactic_relations, predicted_shape
from hypoplactic.words import check_alphabet, format_word, schuetzenberger_involution, weight
from hypoplactic.young import plactic_relations

# (name, call taking one word w over the bound n, 2 unless given);
# two-word entry points are called with w in each position.
ENTRY_POINTS = [
    ("check_alphabet", lambda w, n=2: check_alphabet(w, n)),
    ("schuetzenberger_involution", lambda w, n=2: schuetzenberger_involution(w, n)),
    ("highest_weight_word.crystal", lambda w, n=2: highest_weight_word(w, n, CRYSTAL)),
    ("highest_weight_word.quasi", lambda w, n=2: highest_weight_word(w, n, QUASI_CRYSTAL)),
    ("explore_component.crystal", lambda w, n=2: explore_component(w, n, CRYSTAL)),
    ("explore_component.quasi", lambda w, n=2: explore_component(w, n, QUASI_CRYSTAL)),
    ("crystal_overlay", lambda w, n=2: crystal_overlay(w, n)),
    ("plac_component_contains_qrw", lambda w, n=2: plac_component_contains_qrw(w, n)),
    ("sim_related.u", lambda w, n=2: sim_related(w, (1,), n)),
    ("sim_related.v", lambda w, n=2: sim_related((1,), w, n)),
    ("same_recording_ribbon.u", lambda w, n=2: same_recording_ribbon(w, (1,), n)),
    ("same_recording_ribbon.v", lambda w, n=2: same_recording_ribbon((1,), w, n)),
    ("factorization_count", lambda w, n=2: factorization_count(w, (len(w),) if w else (), (), n)),
    ("o_conjugacy_witness.u", lambda w, n=2: o_conjugacy_witness(w, (1,), n)),
    ("o_conjugacy_witness.v", lambda w, n=2: o_conjugacy_witness((1,), w, n)),
    ("check_identity_xyxy.x", lambda w, n=2: check_identity_xyxy(w, (1,), n)),
    ("check_identity_xyxy.y", lambda w, n=2: check_identity_xyxy((1,), w, n)),
]
CALLS = [call for _, call in ENTRY_POINTS]
IDS = [name for name, _ in ENTRY_POINTS]


@pytest.mark.parametrize("call", CALLS, ids=IDS)
@pytest.mark.parametrize("w", [(0,), (1, -3)], ids=str)
def test_rejects_symbols_below_one(call, w):
    with pytest.raises(ValueError, match="word symbols must be positive"):
        call(w)


@pytest.mark.parametrize("call", CALLS, ids=IDS)
def test_rejects_symbols_above_n(call):
    with pytest.raises(ValueError, match="word '13' has a symbol above 2"):
        call((1, 3))


@pytest.mark.parametrize("call", CALLS, ids=IDS)
def test_accepts_words_over_the_bound(call):
    call((2, 1))
    call(())


def listed_qr_tableaux_of_shape(shape, n):
    return list(qr_tableaux_of_shape(shape, n))


# each shape is a partition, as the component counts need
COUNTS = [
    hypo_class_size,
    hypo_class_members,
    hypo_class_size_brute,
    novelli_recursion_check,
    count_qrt,
    count_qrt_brute,
    count_iso_plac_components_with_qrw,
    count_iso_plac_components_with_qrw_brute,
    listed_qr_tableaux_of_shape,
]
NOT_INTEGERS = [2.0, 2.5, "3", None]


@pytest.mark.parametrize("call", CALLS, ids=IDS)
@pytest.mark.parametrize("n", NOT_INTEGERS, ids=repr)
def test_rejects_bound_that_is_not_an_integer(call, n):
    with pytest.raises(ValueError) as excinfo:
        call((2, 1), n)
    assert str(excinfo.value) == f"alphabet bound must be an integer, got {n!r}"


@pytest.mark.parametrize("count", COUNTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("n", NOT_INTEGERS, ids=repr)
def test_counts_reject_bound_that_is_not_an_integer(count, n):
    with pytest.raises(ValueError) as excinfo:
        count((2, 1), n)
    assert str(excinfo.value) == f"n must be an integer, got {n!r}"


# entry points that take a bound but check no word against it: the
# lowering tables accept symbols outside 1..n, and an integer n below 2
# gives them no labels
BOUND_ONLY = [
    ("plactic_relations", plactic_relations),
    ("hypoplactic_relations", hypoplactic_relations),
    ("kashiwara_lowerings", lambda n: kashiwara_lowerings((1, 2), n)),
    ("quasi_lowerings", lambda n: quasi_lowerings((1, 2), n)),
]


@pytest.mark.parametrize("call", [call for _, call in BOUND_ONLY],
                         ids=[name for name, _ in BOUND_ONLY])
@pytest.mark.parametrize("n", NOT_INTEGERS, ids=repr)
def test_bound_only_calls_reject_bound_that_is_not_an_integer(call, n):
    with pytest.raises(ValueError) as excinfo:
        call(n)
    assert str(excinfo.value) == f"alphabet bound must be an integer, got {n!r}"


@pytest.mark.parametrize("relations", [plactic_relations, hypoplactic_relations],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("n", [0, -1])
def test_relations_reject_bound_below_one(relations, n):
    with pytest.raises(ValueError) as excinfo:
        relations(n)
    assert str(excinfo.value) == "alphabet bound must be at least 1"


@pytest.mark.parametrize("n", NOT_INTEGERS, ids=repr)
def test_json_component_rejects_bound_that_is_not_an_integer(n):
    data = component_to_json_dict(explore_component((1, 2), 3, QUASI_CRYSTAL))
    with pytest.raises(ValueError) as excinfo:
        component_from_json_dict({**data, "n": n})
    assert str(excinfo.value) == f"alphabet bound must be an integer, got {n!r}"


def test_rejects_bound_below_one():
    with pytest.raises(ValueError, match="alphabet bound must be at least 1"):
        check_alphabet((), 0)
    with pytest.raises(ValueError, match="alphabet bound must be at least 1"):
        schuetzenberger_involution((), 0)


@pytest.mark.parametrize("w", [(0, 1), (-1, 2), (0,)], ids=str)
def test_weight_rejects_symbols_below_one(w):
    """``weight`` takes no bound, but still rejects a symbol below 1
    rather than miscounting it or failing on an index."""
    with pytest.raises(ValueError, match="word symbols must be positive"):
        weight(w)


@pytest.mark.parametrize("w, quoted", [
    ((-1, 2), "'-1,2'"),
    ((1, -3), "'1,-3'"),
    ((0, 1), "'0,1'"),
    ((0,), "'0,'"),
], ids=str)
def test_messages_quote_non_positive_symbols_in_the_comma_form(w, quoted):
    """A digit string would read as another word ('-12', '1-3') or as
    one that does not parse ('01'), so such words are quoted with commas."""
    assert repr(format_word(w)) == quoted
    for call in (lambda: check_alphabet(w, 3), lambda: weight(w)):
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == f"word symbols must be positive: {quoted}"


@pytest.mark.parametrize("w, text", [
    ((1.5, 2), "1.5,2"),
    ((2.0,), "2.0,"),
    ((1, True), "1,True"),
], ids=str)
def test_formats_symbols_that_are_not_ints_in_the_comma_form(w, text):
    """Only ints 1..9 take the digit form, so (1.5, 2) is not '1.52'."""
    assert format_word(w) == text


@pytest.mark.parametrize("call", [
    weight,
    predicted_shape,
    lambda w: hypo_congruent(w, w),
    lambda w: hypo_congruent(w, (1, 2)),
    lambda w: hypo_congruent((1, 2), w),
    *CALLS,
], ids=[
    "weight", "predicted_shape", "hypo_congruent", "hypo_congruent.u", "hypo_congruent.v", *IDS,
])
@pytest.mark.parametrize("w", [(1.5, 2), (2, 1.0), (2.0,), (1, "2"), (1.5, 0)], ids=str)
def test_rejects_symbols_that_are_not_integers(call, w):
    """The integer error comes first, also when a symbol is below 1."""
    with pytest.raises(ValueError) as excinfo:
        call(w)
    assert str(excinfo.value) == "entries must be positive integers"
