import random
import tracemalloc
from bisect import bisect_right
from collections import defaultdict
from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypoplactic.counting import qr_tableaux_of_shape
from hypoplactic.quasiribbon import (
    QuasiRibbonTableau,
    QuasiRibbonTabloid,
    RecordingRibbon,
    highest_weight_qrw,
    hypo_congruent,
    hypo_rsk,
    hypo_rsk_inverse,
    hypoplactic_relations,
    is_quasi_ribbon_word,
    kt_insert,
    predicted_shape,
    qr_column_reading,
    qr_tabloid_of,
    slide_up_slide_left,
    standard_ribbon,
)
from hypoplactic.words import compositions, parse_word, weight
from hypoplactic.young import StandardYoungTableau, Tabloid, YoungTableau, plactic_relations, rsk

from helpers import words_up_to

# the worked eleven-cell tableau and its recording ribbon
EQ42 = QuasiRibbonTableau.from_rows([[1, 2, 2], [3], [4, 4, 5, 5, 5], [6, 7]])
EQ44 = RecordingRibbon.from_rows([[1, 2, 9], [8], [3, 4, 6, 7, 11], [5, 10]])
EQ43_TABLOID = QuasiRibbonTabloid(
    [(1,), (5,), (2, 3, 6), (2,), (4,), (5,), (4, 5), (7,)]
)


def kt_fold(w):
    """Oracle: insert ``w`` symbol by symbol with ``kt_insert``, placing
    each step's label at the cut where its symbol lands."""
    t = QuasiRibbonTableau()
    labels = []
    for i, a in enumerate(w, start=1):
        labels.insert(bisect_right(t.entries, a), i)
        t = kt_insert(t, a)
    return t, RecordingRibbon(t.shape, labels)


def recording_ribbons(shape):
    total = sum(shape)
    for perm in permutations(range(1, total + 1)):
        try:
            yield RecordingRibbon(shape, perm)
        except ValueError:
            continue


class TestQuasiRibbonTableau:
    def test_rows_and_shape(self):
        assert EQ42.shape == (3, 1, 5, 2)
        assert EQ42.rows == [(1, 2, 2), (3,), (4, 4, 5, 5, 5), (6, 7)]

    def test_columns(self):
        assert EQ42.columns == [(1,), (2,), (2, 3, 4), (4,), (5,), (5,), (5, 6), (7,)]

    def test_validation(self):
        with pytest.raises(ValueError):
            QuasiRibbonTableau((2,), (2, 1))  # row decreases
        with pytest.raises(ValueError):
            QuasiRibbonTableau((1, 1), (2, 2))  # column not strict
        with pytest.raises(ValueError):
            QuasiRibbonTableau((2,), (1,))  # wrong cell count
        QuasiRibbonTableau((1, 1), (1, 2))

    def test_json_roundtrip(self):
        assert QuasiRibbonTableau.from_json_dict(EQ42.to_json_dict()) == EQ42
        assert EQ42.to_json_dict()["shape"] == [3, 1, 5, 2]

    @pytest.mark.parametrize("cls, rows", [
        (QuasiRibbonTableau, [[1], [2, 3]]),
        (RecordingRibbon, [[3], [1, 2]]),
    ])
    def test_json_refuses_a_shape_field_that_disagrees_with_rows(self, cls, rows):
        cls.from_rows(rows)  # the rows alone are a valid filling
        with pytest.raises(ValueError, match="^shape field disagrees with rows$"):
            cls.from_json_dict({"shape": [2, 1], "rows": rows})

    def test_ascii_staircase(self):
        t, _ = hypo_rsk(parse_word("4323"))
        assert t.ascii() == "2\n3 3\n  4"


class TestRecordingRibbon:
    def test_validation(self):
        RecordingRibbon((1, 2, 1), (3, 2, 4, 1))
        with pytest.raises(ValueError):
            RecordingRibbon((1, 2, 1), (1, 2, 4, 3))  # must decrease at a break
        with pytest.raises(ValueError):
            RecordingRibbon((2,), (2, 1))  # row must increase
        with pytest.raises(ValueError):
            RecordingRibbon((2,), (1, 3))  # not a permutation

    def test_json_marks_standard(self):
        data = EQ44.to_json_dict()
        assert data["standard"] is True
        assert RecordingRibbon.from_json_dict(data) == EQ44

    def test_ascii_staircase(self):
        assert EQ44.ascii() == (
            " 1  2  9\n       8\n       3  4  6  7 11\n                   5 10"
        )
        assert RecordingRibbon().ascii() == "(empty)"


def _path_rows(shape, cells):
    rows = []
    pos = 0
    for part in shape:
        rows.append(cells[pos:pos + part])
        pos += part
    return rows


def _accepts(cls, shape, cells):
    try:
        cls(shape, cells)
    except ValueError:
        return False
    return True


class TestRibbonRulesExhaustive:
    """On every composition of N <= 6, each ribbon constructor accepts
    exactly the fillings that satisfy its rule, written out here row by
    row and not through descents."""

    def test_recording_ribbon_on_every_permutation(self):
        for total in range(7):
            shapes_per_perm = defaultdict(int)
            for shape in compositions(total):
                for labels in permutations(range(1, total + 1)):
                    rows = _path_rows(shape, labels)
                    rule = all(
                        row[c] < row[c + 1] for row in rows for c in range(len(row) - 1)
                    ) and all(rows[h][0] < rows[h - 1][-1] for h in range(1, len(rows)))
                    accepted = _accepts(RecordingRibbon, shape, labels)
                    assert accepted == rule, (shape, labels)
                    shapes_per_perm[labels] += accepted
            # every permutation fills exactly one ribbon: that of its descents
            assert set(shapes_per_perm.values()) == {1}

    def test_quasi_ribbon_tableau_on_every_entry_tuple_over_1_to_3(self):
        for total in range(7):
            for shape in compositions(total):
                for entries in product(range(1, 4), repeat=total):
                    rows = _path_rows(shape, entries)
                    rule = all(
                        entries[i] <= entries[i + 1] for i in range(total - 1)
                    ) and all(rows[h][0] > rows[h - 1][-1] for h in range(1, len(rows)))
                    assert _accepts(QuasiRibbonTableau, shape, entries) == rule, (shape, entries)


class TestQuasiRibbonTabloid:
    def test_shape_of_staircase(self):
        assert EQ43_TABLOID.shape == (3, 1, 5, 2)
        assert qr_tabloid_of((1, 3, 1, 3)).shape == (2, 2)

    def test_shape_spans_the_columns(self):
        """The ribbon of the tabloid's shape, split into columns, has
        the tabloid's column lengths."""
        for w in words_up_to(4, 6):
            tabloid = qr_tabloid_of(w)
            ribbon = standard_ribbon(tabloid.shape)
            assert list(map(len, ribbon.columns)) == list(map(len, tabloid.columns))

    def test_validation(self):
        with pytest.raises(ValueError):
            QuasiRibbonTabloid([(2, 1)])

    def test_ascii_staircase(self):
        assert EQ43_TABLOID.ascii() == "1 5 2\n    3\n    6 2 4 5 4\n            5 7"
        assert QuasiRibbonTabloid().ascii() == "(empty)"

    def test_to_tableau_refuses_a_tabloid_that_is_no_tableau(self):
        with pytest.raises(ValueError, match="^tabloid is not a quasi-ribbon tableau$"):
            qr_tabloid_of((4, 3, 3)).to_tableau()

    def test_tableau_detection(self):
        assert not qr_tabloid_of((4, 3, 3)).is_quasi_ribbon_tableau()
        reading = qr_column_reading(EQ42)
        assert qr_tabloid_of(reading).to_tableau() == EQ42


class TestAcrossClasses:
    def test_repr(self):
        assert repr(QuasiRibbonTableau((2, 1), (1, 2, 3))) == "QuasiRibbonTableau([2, 1], [1, 2, 3])"
        assert repr(RecordingRibbon((2, 1), (2, 3, 1))) == "RecordingRibbon([2, 1], [2, 3, 1])"
        assert repr(QuasiRibbonTabloid([(1, 3), (2,)])) == "QuasiRibbonTabloid([[1, 3], [2]])"

    def test_equality_holds_only_within_one_class(self):
        columns = [(1, 3), (2,)]
        assert Tabloid(columns) != QuasiRibbonTabloid(columns)
        assert QuasiRibbonTabloid(columns) != Tabloid(columns)
        assert QuasiRibbonTableau((1,), (1,)) != RecordingRibbon((1,), (1,))
        assert RecordingRibbon((1,), (1,)) != QuasiRibbonTableau((1,), (1,))
        assert QuasiRibbonTabloid(columns) == QuasiRibbonTabloid(columns)
        assert RecordingRibbon((1,), (1,)) == RecordingRibbon((1,), (1,))


class TestReadings:
    def test_reading_of_tableau(self):
        assert qr_column_reading(EQ42) == parse_word("12432455657")

    def test_reading_of_tabloid(self):
        assert qr_column_reading(EQ43_TABLOID) == parse_word("15632245547")

    def test_single_cell(self):
        assert qr_column_reading(QuasiRibbonTableau((1,), (6,))) == (6,)

    def test_tabloid_of_433(self):
        assert qr_tabloid_of((4, 3, 3)) == QuasiRibbonTabloid([(3, 4), (3,)])

    def test_tabloid_of_monotone(self):
        assert qr_tabloid_of((3, 2, 1)) == QuasiRibbonTabloid([(1, 2, 3)])
        assert qr_tabloid_of((1, 2, 3)) == QuasiRibbonTabloid([(1,), (2,), (3,)])

    def test_reading_roundtrip(self):
        for w in words_up_to(3, 6):
            assert qr_column_reading(qr_tabloid_of(w)) == w


class TestKtInsert:
    def test_worked_run(self):
        t1 = kt_insert(QuasiRibbonTableau(), 4)
        assert (t1.shape, t1.entries) == ((1,), (4,))
        t2 = kt_insert(t1, 3)
        assert (t2.shape, t2.entries) == ((1, 1), (3, 4))
        t3 = kt_insert(t2, 2)
        assert (t3.shape, t3.entries) == ((1, 1, 1), (2, 3, 4))
        t4 = kt_insert(t3, 3)
        assert t4.rows == [(2,), (3, 3), (4,)]

    def test_cell_count_grows(self):
        for w in words_up_to(4, 4):
            t = hypo_rsk(w)[0]
            for a in (1, 2, 3, 4, 5):
                bigger = kt_insert(t, a)
                assert bigger.size == t.size + 1
                assert sorted(bigger.entries) == sorted(t.entries + (a,))

    def test_matches_standardization_route(self):
        # independent oracle: the grown tableau is pinned down by its
        # sorted entry multiset plus the descent-composition shape law
        for w in words_up_to(4, 4):
            t = hypo_rsk(w)[0]
            for a in (1, 2, 3, 4, 5):
                grown = kt_insert(t, a)
                assert grown.entries == tuple(sorted(t.entries + (a,)))
                assert grown.shape == predicted_shape(w + (a,))

    def test_rejects_a_tableau_of_another_class(self):
        for t in (YoungTableau([[1, 1], [2]]), RecordingRibbon((2, 1), (2, 3, 1))):
            with pytest.raises(ValueError, match="^tableau must be a QuasiRibbonTableau$"):
                kt_insert(t, 3)


class TestHypoRsk:
    def test_worked_run_4323(self):
        t, r = hypo_rsk(parse_word("4323"))
        assert t.rows == [(2,), (3, 3), (4,)]
        assert r.rows == [(3,), (2, 4), (1,)]

    def test_empty(self):
        t, r = hypo_rsk(())
        assert t == QuasiRibbonTableau() and r == RecordingRibbon()

    def test_eleven_cell_example(self):
        t, r = hypo_rsk(parse_word("12446553275"))
        assert t == EQ42
        assert r == EQ44

    def test_shapes_agree(self):
        for w in words_up_to(4, 5):
            t, r = hypo_rsk(w)
            assert t.shape == r.shape

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            hypo_rsk((2, 0, 1))

    def test_matches_kt_insert_fold(self):
        for w in words_up_to(4, 6):
            assert hypo_rsk(w) == kt_fold(w)

    @given(st.lists(st.integers(1, 12), max_size=60).map(tuple))
    def test_matches_kt_insert_fold_long(self, w):
        assert hypo_rsk(w) == kt_fold(w)


class TestHypoRskInverse:
    def test_worked_example(self):
        assert hypo_rsk_inverse(EQ42, EQ44) == parse_word("12446553275")

    def test_empty(self):
        assert hypo_rsk_inverse(QuasiRibbonTableau(), RecordingRibbon()) == ()

    def test_roundtrip_4323(self):
        t, r = hypo_rsk(parse_word("4323"))
        assert hypo_rsk_inverse(t, r) == parse_word("4323")

    def test_shape_mismatch(self):
        t, _ = hypo_rsk((1, 2))
        _, r = hypo_rsk((2, 1))
        with pytest.raises(ValueError):
            hypo_rsk_inverse(t, r)

    def test_rejects_arguments_of_the_wrong_type(self):
        t, r = hypo_rsk((2, 1))
        with pytest.raises(ValueError, match="^tableau must be a QuasiRibbonTableau$"):
            hypo_rsk_inverse(r, t)
        with pytest.raises(ValueError, match="^recording ribbon must be a RecordingRibbon$"):
            hypo_rsk_inverse(t, t)

    def test_left_inverse_exhaustive(self):
        for w in words_up_to(4, 5):
            assert hypo_rsk_inverse(*hypo_rsk(w)) == w

    def test_right_inverse_on_all_pairs(self):
        # insertion is onto same-shape pairs: every (T, R) arises
        pair_count = 0
        for total in range(6):
            for shape in compositions(total):
                ribbons = list(recording_ribbons(shape))
                for t in qr_tableaux_of_shape(shape, 4):
                    for r in ribbons:
                        w = hypo_rsk_inverse(t, r)
                        assert hypo_rsk(w) == (t, r)
                        pair_count += 1
        assert pair_count == sum(4 ** k for k in range(6))


class TestQuasiRibbonWords:
    def test_examples(self):
        assert not is_quasi_ribbon_word((4, 3, 3))
        assert is_quasi_ribbon_word(parse_word("12432455657"))
        assert is_quasi_ribbon_word(())

    def test_matches_tabloid_check(self):
        for w in words_up_to(3, 6):
            assert is_quasi_ribbon_word(w) == qr_tabloid_of(w).is_quasi_ribbon_tableau()

    def test_standardization_criterion(self):
        from hypoplactic.words import standardize

        for w in words_up_to(3, 6):
            assert is_quasi_ribbon_word(w) == is_quasi_ribbon_word(standardize(w))

    def test_cross_section(self):
        for w in words_up_to(3, 6):
            if is_quasi_ribbon_word(w):
                assert qr_column_reading(hypo_rsk(w)[0]) == w


class TestPredictedShape:
    def test_examples(self):
        assert predicted_shape(parse_word("4323")) == (1, 2, 1)
        assert predicted_shape(()) == ()
        assert predicted_shape(parse_word("12446553275")) == (3, 1, 5, 2)

    def test_matches_insertion(self):
        for w in words_up_to(4, 5):
            assert predicted_shape(w) == hypo_rsk(w)[0].shape


class TestHypoCongruent:
    def test_examples(self):
        assert hypo_congruent((1, 2, 1, 2), (2, 1, 2, 1))
        assert hypo_congruent((4, 3), (4, 3))
        assert not hypo_congruent((1, 2), (2, 1))

    def test_agrees_with_tableau_equality(self):
        # the characterization and the insertion definition induce the
        # same partition of every length class
        for length in range(7):
            by_characterization = defaultdict(set)
            by_tableau = defaultdict(set)
            for w in words_up_to(4, length):
                if len(w) != length:
                    continue
                by_characterization[(weight(w), predicted_shape(w))].add(w)
                by_tableau[hypo_rsk(w)[0]].add(w)
            assert sorted(by_characterization.values(), key=sorted) == sorted(
                by_tableau.values(), key=sorted
            )

    def test_every_pair_agrees_with_tableau_equality(self):
        """hypo_congruent itself, on every pair of words of one length
        over 1..3 up to length 5."""
        for length in range(6):
            same_length = [(w, hypo_rsk(w)[0]) for w in words_up_to(3, length) if len(w) == length]
            for (u, tu), (v, tv) in product(same_length, repeat=2):
                assert hypo_congruent(u, v) == (tu == tv)

    def test_long_pairs_built_from_the_tableau_reading(self):
        """The reading of a word's tableau is congruent to it.  The
        reading with every symbol raised by one has the same shape and
        other contents; a shuffle of it has the same contents.  The
        reading with one symbol changed, or with two neighbours swapped,
        is congruent exactly when the tableaux still agree."""
        rng = random.Random(1601)
        for length in (100, 1000, 4000):
            for n in (4, length):
                w = tuple(rng.randint(1, n) for _ in range(length))
                t = hypo_rsk(w)[0]
                reading = t.reading()
                assert hypo_congruent(w, reading) and hypo_congruent(reading, w)
                raised = tuple(a + 1 for a in reading)
                assert predicted_shape(raised) == t.shape
                assert not hypo_congruent(w, raised)
                shuffled = tuple(rng.sample(reading, length))
                assert hypo_congruent(w, shuffled) == (hypo_rsk(shuffled)[0] == t)
                for _ in range(20):
                    v = list(reading)
                    i = rng.randrange(length - 1)
                    if rng.random() < 0.5:
                        v[i], v[i + 1] = v[i + 1], v[i]
                    else:
                        v[i] = rng.randint(1, n)
                    v = tuple(v)
                    assert hypo_congruent(w, v) == (hypo_rsk(v)[0] == t)

    def test_memory_does_not_grow_with_the_largest_symbol(self):
        big = (1, 10**7)
        tracemalloc.start()
        try:
            assert hypo_congruent(big, big)
            assert not hypo_congruent(big, big[::-1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestHypoplacticRelations:
    def test_rank_one_empty(self):
        assert hypoplactic_relations(1) == []

    def test_rank_two(self):
        quartic = [p for p in hypoplactic_relations(2) if len(p[0]) == 4]
        assert quartic == [((2, 1, 2, 1), (1, 2, 1, 2))]
        cubic = {frozenset(p) for p in hypoplactic_relations(2) if len(p[0]) == 3}
        assert cubic == {frozenset(p) for p in plactic_relations(2)}

    def test_all_pairs_congruent(self):
        for left, right in hypoplactic_relations(3):
            assert sorted(left) == sorted(right)
            assert hypo_congruent(left, right)


class TestSlideUpSlideLeft:
    def test_worked_p(self):
        t = hypo_rsk(parse_word("1325436768"))[0]
        assert slide_up_slide_left(t) == YoungTableau(
            [[1, 2, 3, 6, 6, 8], [3, 4, 7], [5]]
        )

    def test_worked_q(self):
        t = hypo_rsk(parse_word("1325436768"))[0]
        assert slide_up_slide_left(standard_ribbon(t.shape)) == StandardYoungTableau(
            [[1, 2, 4, 7, 8, 10], [3, 5, 9], [6]]
        )

    def test_single_column(self):
        t = QuasiRibbonTableau((1, 1, 1), (1, 2, 3))
        assert slide_up_slide_left(t) == YoungTableau([[1], [2], [3]])

    def test_agrees_with_classical_insertion(self):
        for total in range(7):
            for shape in compositions(total):
                expected_q = None
                for t in qr_tableaux_of_shape(shape, 4):
                    reading = qr_column_reading(t)
                    p, q = rsk(reading)
                    assert slide_up_slide_left(t) == p
                    if expected_q is None:
                        expected_q = slide_up_slide_left(standard_ribbon(shape))
                    assert expected_q == q

    def test_rejects_a_tableau_of_another_class(self):
        for t in (
            YoungTableau([[1, 1], [2]]),
            RecordingRibbon((2, 1), (2, 3, 1)),
            QuasiRibbonTabloid([(1, 2), (3,)]),
        ):
            with pytest.raises(ValueError, match="^tableau must be a QuasiRibbonTableau$"):
                slide_up_slide_left(t)

    def test_standard_fillings_injective(self):
        images = set()
        for total in range(7):
            for shape in compositions(total):
                images.add(slide_up_slide_left(standard_ribbon(shape)))
        assert len(images) == sum(len(list(compositions(k))) for k in range(7))


class TestHighestWeightWords:
    def test_worked_example(self):
        assert highest_weight_qrw((3, 1, 5, 2)) == parse_word("11321333434")

    def test_single_row(self):
        assert highest_weight_qrw((4,)) == (1, 1, 1, 1)

    def test_two_by_two(self):
        assert highest_weight_qrw((2, 2)) == (1, 2, 1, 2)

    def test_weight_equals_shape(self):
        for total in range(7):
            for shape in compositions(total):
                assert weight(highest_weight_qrw(shape)) == shape
