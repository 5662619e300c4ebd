"""Every input check goes through the private checks in ``words``, so
a bad input reads the same whichever layer it reaches first.

A public entry point that takes a word and an alphabet bound n checks
the word with ``words.check_alphabet``: a symbol that is not an
integer, below 1 or above n is rejected with a ValueError, before any
work is done.  An entry point without a bound, such as a tableau
constructor or an insertion, checks its symbols with
``words._check_symbols``.  Every bound that is not an integer of at
least 1 is rejected by ``words._check_bound``, also where no word is
checked against it, and every operator label that is not an integer
of at least 1 by ``words._check_label``; a test below lists each public
callable that takes a bound n."""

import inspect
from functools import reduce

import pytest

import hypoplactic
from hypoplactic import words
from hypoplactic.counting import (
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
from hypoplactic.graphs import (
    CRYSTAL,
    QUASI_CRYSTAL,
    Component,
    component_from_json_dict,
    component_to_json_dict,
    crystal_overlay,
    explore_component,
    highest_weight_word,
    is_highest_weight_hypo,
    plac_component_contains_qrw,
    same_recording_ribbon,
    sim_related,
)
from hypoplactic.operators import (
    bracket_reduce,
    kashiwara_counts,
    kashiwara_e,
    kashiwara_f,
    quasi_counts,
    quasi_e,
    quasi_f,
)
from hypoplactic.quasiribbon import (
    QuasiRibbonTableau,
    QuasiRibbonTabloid,
    RecordingRibbon,
    hypo_congruent,
    hypo_rsk,
    hypoplactic_relations,
    is_quasi_ribbon_word,
    kt_insert,
    predicted_shape,
    qr_tabloid_of,
)
from hypoplactic.words import (
    check_alphabet,
    compositions,
    descent_composition,
    descent_set,
    format_word,
    has_inversion,
    inverse_permutation,
    is_standard,
    schuetzenberger_involution,
    standardize,
    weight,
    weight_leq,
    words_of_weight,
    words_over,
)
from hypoplactic.young import (
    StandardYoungTableau,
    Tabloid,
    YoungTableau,
    is_tableau_word,
    is_yamanouchi,
    plactic_relations,
    rsk,
    schensted_insert,
    tabloid_of,
)

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
]
CALLS = [call for _, call in ENTRY_POINTS]
IDS = [name for name, _ in ENTRY_POINTS]

# (name, call taking one word w and no bound); the fillings take w as
# their one row or column, the one-symbol insertions insert w symbol
# by symbol, and the per-label operators act at label 1
SYMBOLS_ONLY = [
    ("weight", weight),
    ("standardize", standardize),
    ("predicted_shape", predicted_shape),
    ("hypo_congruent", lambda w: hypo_congruent(w, w)),
    ("hypo_congruent.u", lambda w: hypo_congruent(w, (1, 2))),
    ("hypo_congruent.v", lambda w: hypo_congruent((1, 2), w)),
    ("is_yamanouchi", is_yamanouchi),
    ("is_quasi_ribbon_word", is_quasi_ribbon_word),
    ("is_highest_weight_hypo", is_highest_weight_hypo),
    ("YoungTableau", lambda w: YoungTableau([w])),
    ("StandardYoungTableau", lambda w: StandardYoungTableau([w])),
    ("Tabloid", lambda w: Tabloid([w])),
    ("QuasiRibbonTabloid", lambda w: QuasiRibbonTabloid([w])),
    ("QuasiRibbonTableau", lambda w: QuasiRibbonTableau((len(w),), w)),
    ("schensted_insert", lambda w: reduce(schensted_insert, w, YoungTableau())),
    ("kt_insert", lambda w: reduce(kt_insert, w, QuasiRibbonTableau())),
    ("rsk", rsk),
    ("hypo_rsk", hypo_rsk),
    ("has_inversion", lambda w: has_inversion(w, 1)),
    ("bracket_reduce", lambda w: bracket_reduce(w, 1)),
    ("kashiwara_e", lambda w: kashiwara_e(w, 1)),
    ("kashiwara_f", lambda w: kashiwara_f(w, 1)),
    ("kashiwara_counts", lambda w: kashiwara_counts(w, 1)),
    ("quasi_e", lambda w: quasi_e(w, 1)),
    ("quasi_f", lambda w: quasi_f(w, 1)),
    ("quasi_counts", lambda w: quasi_counts(w, 1)),
]
SYMBOL_CALLS = [call for _, call in SYMBOLS_ONLY] + CALLS
SYMBOL_IDS = [name for name, _ in SYMBOLS_ONLY] + IDS


@pytest.mark.parametrize("call", SYMBOL_CALLS, ids=SYMBOL_IDS)
@pytest.mark.parametrize("w", [(0,), (1, -3), (2, -1)], ids=str)
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
NOT_INTEGERS = [2.0, 2.5, "3", None, True]


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
    assert str(excinfo.value) == f"alphabet bound must be an integer, got {n!r}"


# entry points that take a bound but no word
BOUND_ONLY = [
    ("plactic_relations", plactic_relations),
    ("hypoplactic_relations", hypoplactic_relations),
    ("words_over", lambda n: words_over(n, 1)),
]


@pytest.mark.parametrize("call", [call for _, call in BOUND_ONLY],
                         ids=[name for name, _ in BOUND_ONLY])
@pytest.mark.parametrize("n", NOT_INTEGERS, ids=repr)
def test_bound_only_calls_reject_bound_that_is_not_an_integer(call, n):
    with pytest.raises(ValueError) as excinfo:
        call(n)
    assert str(excinfo.value) == f"alphabet bound must be an integer, got {n!r}"


@pytest.mark.parametrize("call", [call for _, call in BOUND_ONLY],
                         ids=[name for name, _ in BOUND_ONLY])
@pytest.mark.parametrize("n", [0, -1])
def test_bound_only_calls_reject_bound_below_one(call, n):
    with pytest.raises(ValueError) as excinfo:
        call(n)
    assert str(excinfo.value) == "alphabet bound must be at least 1"


# entry points that take a component's bound: the constructor checks n
# as it checks the root against it
COMPONENT_BOUND = [
    ("Component", lambda n: Component(QUASI_CRYSTAL, n, (), {(): {}})),
]


@pytest.mark.parametrize("call", [call for _, call in COMPONENT_BOUND],
                         ids=[name for name, _ in COMPONENT_BOUND])
@pytest.mark.parametrize("n", [*NOT_INTEGERS, 0, -1], ids=repr)
def test_component_calls_reject_bound_that_is_not_the_component_bound(call, n):
    with pytest.raises(ValueError, match="^alphabet bound must be"):
        call(n)


def takes_a_bound(obj):
    try:
        return "n" in inspect.signature(obj).parameters
    except ValueError:  # a builtin type, such as an exception, has no signature
        return False


def test_every_public_callable_taking_a_bound_is_listed():
    """A new public function with a bound n must join one of the lists
    above, so that a test checks its bound."""
    listed = {name.split(".")[0] for name in IDS}
    listed |= {f.__name__.removeprefix("listed_") for f in COUNTS}
    listed |= {name for name, _ in BOUND_ONLY + COMPONENT_BOUND}
    public = {name: getattr(hypoplactic, name) for name in dir(hypoplactic)
              if not name.startswith("_")}
    taking_a_bound = {name for name, obj in public.items()
                      if callable(obj) and takes_a_bound(obj)}
    assert taking_a_bound - listed == set()


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


@pytest.mark.parametrize("call", SYMBOL_CALLS, ids=SYMBOL_IDS)
@pytest.mark.parametrize("w", [(1.5, 2), (2, 1.0), (2.0,), (1, "2"), (1.5, 0), ("2",), (True, 2),
                               (2, True)], ids=str)
def test_rejects_symbols_that_are_not_integers(call, w):
    """The integer error comes first, also when a symbol is below 1."""
    with pytest.raises(ValueError) as excinfo:
        call(w)
    assert str(excinfo.value) == "entries must be positive integers"


PER_LABEL = [
    has_inversion,
    bracket_reduce,
    kashiwara_e,
    kashiwara_f,
    kashiwara_counts,
    quasi_e,
    quasi_f,
    quasi_counts,
]


@pytest.mark.parametrize("op", PER_LABEL, ids=lambda f: f.__name__)
@pytest.mark.parametrize("i, message", [
    (0, "i must be at least 1"),
    (1.5, "i must be an integer, got 1.5"),
    (2.0, "i must be an integer, got 2.0"),
    ("1", "i must be an integer, got '1'"),
    (True, "i must be an integer, got True"),
], ids=["0", "1.5", "2.0", "'1'", "True"])
def test_per_label_operators_reject_labels_that_are_not_positive_integers(op, i, message):
    """A label that is not an integer is rejected rather than acting as
    no operator at all."""
    with pytest.raises(ValueError) as excinfo:
        op((1, 2), i)
    assert str(excinfo.value) == message


WEAK_COMPOSITION_CALLS = [
    ("words_of_weight", lambda parts: list(words_of_weight(parts))),
    ("compositions", lambda parts: [list(compositions(p)) for p in parts]),
    ("multinomial.parts", lambda parts: multinomial(3, parts)),
    ("multinomial.total", lambda parts: [multinomial(p, (p,)) for p in parts]),
    ("weight_leq.a", lambda parts: weight_leq(parts, (1,))),
    ("weight_leq.b", lambda parts: weight_leq((1,), parts)),
]


@pytest.mark.parametrize("call", [c for _, c in WEAK_COMPOSITION_CALLS],
                         ids=[name for name, _ in WEAK_COMPOSITION_CALLS])
@pytest.mark.parametrize("parts", [(-1, 2), (1.5,), (2.0, 1), ("1",), (2, -1), (True,)], ids=str)
def test_weak_compositions_reject_parts_that_are_not_non_negative_integers(call, parts):
    """A negative part is not read as an empty one, and a part that is
    not an integer fails with the same ValueError rather than a
    TypeError from the arithmetic."""
    with pytest.raises(ValueError) as excinfo:
        call(parts)
    assert str(excinfo.value) == "weak composition parts must be non-negative integers"


def test_weak_composition_check_runs_once_per_call(monkeypatch):
    calls = []
    check = words._check_weak_composition
    monkeypatch.setattr(words, "_check_weak_composition", lambda parts: calls.append(parts) or check(parts))
    assert len(list(words_of_weight((2, 1, 2)))) == 30
    assert len(list(compositions(5))) == 16
    assert calls == [(2, 1, 2), (5,)]


def one_row_recording_ribbon(w):
    return RecordingRibbon((len(w),), w)


def one_row_recording_ribbon_from_json(w):
    return RecordingRibbon.from_json_dict({"shape": [len(w)], "rows": [list(w)]})


@pytest.mark.parametrize("call", [descent_composition, descent_set, inverse_permutation,
                                  is_standard, one_row_recording_ribbon,
                                  one_row_recording_ribbon_from_json],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("w", [(1.0, 2.0), (2, 1.0), ("1",), (True,)], ids=str)
def test_standard_words_reject_symbols_that_are_not_ints(call, w):
    """A standard word is compared by value with 1..N, which (1.0, 2.0)
    and (True,) would pass; the symbols are checked first, also for the
    labels of a recording ribbon."""
    with pytest.raises(ValueError) as excinfo:
        call(w)
    assert str(excinfo.value) == "entries must be positive integers"


@pytest.mark.parametrize("call", [tabloid_of, qr_tabloid_of, is_tableau_word], ids=lambda f: f.__name__)
@pytest.mark.parametrize("w, quoted", [((0, 1), "'0,1'"), ((3, -1, 2), "'3,-1,2'")], ids=str)
def test_tabloids_of_a_word_quote_the_whole_word(call, w, quoted):
    """The word is checked before it is cut into columns, so the
    message quotes all of it rather than the first bad column."""
    with pytest.raises(ValueError) as excinfo:
        call(w)
    assert str(excinfo.value) == f"word symbols must be positive: {quoted}"


@pytest.mark.parametrize("call", [tabloid_of, qr_tabloid_of, is_tableau_word], ids=lambda f: f.__name__)
def test_tabloids_of_a_word_reject_symbols_that_are_not_integers(call):
    """A symbol that cannot be compared is rejected before the word is
    split into decreasing factors, which compares symbols."""
    with pytest.raises(ValueError, match="^entries must be positive integers$"):
        call((2, "1"))


@pytest.mark.parametrize("call", [
    weight,
    standardize,
    rsk,
    lambda w: has_inversion(w, 1),
    lambda w: kashiwara_counts(w, 1),
], ids=["weight", "standardize", "rsk", "has_inversion", "kashiwara_counts"])
def test_rejects_one_shot_iterators(call):
    """A word is scanned more than once, so an iterator, which the
    symbol check would use up, is rejected rather than read as the
    empty word."""
    with pytest.raises(ValueError) as excinfo:
        call(iter((2, 1)))
    assert str(excinfo.value) == "a word must be a sequence, not a one-shot iterator"
