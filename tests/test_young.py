import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoplactic import young
from hypoplactic.operators import kashiwara_e
from hypoplactic.quasiribbon import QuasiRibbonTableau, RecordingRibbon, qr_column_reading
from hypoplactic.words import parse_word, weight
from hypoplactic.young import (
    StandardYoungTableau,
    Tabloid,
    YoungTableau,
    column_reading,
    is_tableau_word,
    is_yamanouchi,
    plactic_congruent,
    plactic_relations,
    rsk,
    rsk_inverse,
    schensted_insert,
    tabloid_of,
)

from helpers import run_optimized, words_up_to

EQ31_ROWS = [[1, 2, 2, 2, 4], [2, 3, 5], [4, 4], [5, 6]]
EQ33_COLUMNS = [(2, 5), (1, 3, 4, 6), (4,), (1, 2, 4, 5), (2,)]


class TestYoungTableau:
    def test_shape_and_size(self):
        t = YoungTableau(EQ31_ROWS)
        assert t.shape == (5, 3, 2, 2)
        assert t.size == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            YoungTableau([[2, 1]])  # row decreases
        with pytest.raises(ValueError):
            YoungTableau([[1], [1]])  # column not strict
        with pytest.raises(ValueError):
            YoungTableau([[1], [2, 3]])  # row lengths increase
        with pytest.raises(ValueError):
            YoungTableau([[1], []])  # empty row

    def test_standard_validation(self):
        StandardYoungTableau([[1, 2, 4], [3]])
        with pytest.raises(ValueError):
            StandardYoungTableau([[1, 2, 2], [3]])
        with pytest.raises(ValueError):
            StandardYoungTableau([[1, 2, 5], [3]])

    def test_json_roundtrip(self):
        t = YoungTableau(EQ31_ROWS)
        assert YoungTableau.from_json_dict(t.to_json_dict()) == t

    def test_ascii(self):
        assert YoungTableau([[1, 2, 3], [2]]).ascii() == "1 2 3\n2"
        assert YoungTableau().ascii() == "(empty)"


class TestTabloid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Tabloid([(2, 1)])
        with pytest.raises(ValueError):
            Tabloid([()])

    def test_tableau_detection(self):
        assert Tabloid(EQ33_COLUMNS).is_tableau() is False
        assert YoungTableau(EQ31_ROWS).to_tabloid().is_tableau()

    def test_to_tableau_roundtrip(self):
        t = YoungTableau(EQ31_ROWS)
        assert t.to_tabloid().to_tableau() == t

    def test_to_tableau_refuses_a_tabloid_that_is_no_tableau(self):
        for columns in (EQ33_COLUMNS, [(1,), (1, 2)], [(2,), (1,)]):
            with pytest.raises(ValueError, match="^tabloid is not a Young tableau$"):
                Tabloid(columns).to_tableau()

    def test_columns_of_a_tableau_listed_top_to_bottom(self):
        t = YoungTableau([[1, 1, 2], [2, 3], [4]])
        assert t.columns == [(1, 2, 4), (1, 3), (2,)]
        assert YoungTableau().columns == []
        assert t.to_tabloid() == Tabloid(t.columns)
        # read-only, like the columns of every other filling
        with pytest.raises(AttributeError):
            t.columns = []

    def test_json_roundtrip(self):
        t = Tabloid(EQ33_COLUMNS)
        assert Tabloid.from_json_dict(t.to_json_dict()) == t

    def test_ascii_hangs_columns_from_the_top(self):
        assert Tabloid(EQ33_COLUMNS).ascii() == "2 1 4 1 2\n5 3   2\n  4   4\n  6   5"
        assert Tabloid().ascii() == "(empty)"

    def test_repr(self):
        assert repr(Tabloid([(1, 3), (2,)])) == "Tabloid([[1, 3], [2]])"
        assert repr(YoungTableau([[1, 2], [3]])) == "YoungTableau([[1, 2], [3]])"
        assert repr(StandardYoungTableau([[1, 2], [3]])) == "StandardYoungTableau([[1, 2], [3]])"

    def test_standard_tableau_equals_tableau_with_the_same_rows(self):
        assert YoungTableau([[1, 2], [3]]) == StandardYoungTableau([[1, 2], [3]])
        assert StandardYoungTableau([[1, 2], [3]]) == YoungTableau([[1, 2], [3]])


class TestSchenstedInsert:
    def test_bump_step(self):
        # third step of the worked run for 2213
        t = schensted_insert(YoungTableau([[2, 2]]), 1)
        assert t.rows == ((1, 2), (2,))

    def test_append_step(self):
        t = schensted_insert(YoungTableau([[1, 2], [2]]), 3)
        assert t.rows == ((1, 2, 3), (2,))

    def test_into_empty(self):
        assert schensted_insert(YoungTableau(), 7).rows == ((7,),)

    def test_shape_grows_one_cell(self):
        for w in words_up_to(3, 5):
            t = rsk(w)[0]
            for a in (1, 2, 3, 4):
                bigger = schensted_insert(t, a)
                assert bigger.size == t.size + 1
                assert Counter(bigger.entries()) == Counter(t.entries()) + Counter([a])
                # one row grew by exactly one cell
                old = list(t.shape) + [0]
                new = list(bigger.shape) + [0]
                diffs = [n - o for n, o in zip(new, old)]
                assert sorted(diffs, reverse=True)[0] == 1 and sum(diffs) == 1

    @settings(deadline=None)
    @given(
        st.integers(1, 40).flatmap(lambda n: st.tuples(
            st.lists(st.integers(1, n), max_size=60).map(tuple),
            st.lists(st.integers(1, n), max_size=20).map(tuple),
        ))
    )
    def test_into_a_filled_tableau(self, pair):
        """Inserting v symbol by symbol into the tableau of u builds the
        tableau of uv: the loop's column bound holds for rows it did not
        build itself."""
        u, v = pair
        t = rsk(u)[0]
        for a in v:
            t = schensted_insert(t, a)
        assert t == rsk(u + v)[0]

    def test_rejects_a_tableau_of_another_class(self):
        with pytest.raises(ValueError, match="^tableau must be a YoungTableau$"):
            schensted_insert(QuasiRibbonTableau((2, 1), (1, 1, 2)), 3)
        with pytest.raises(ValueError, match="^tableau must be a YoungTableau$"):
            schensted_insert(((1, 1), (2,)), 3)


def assert_bumps_on_from_the_rows_of(u, v):
    """Bumping v into the rows of P(u) builds P(uv), and its insertions
    end where the last |v| insertions of uv do."""
    rows = [list(row) for row in rsk(u)[0].rows]
    whole_rows, whole_ends = young._schensted(u + v)
    assert young._schensted(v, rows) == (whole_rows, whole_ends[len(u):])


class TestSchenstedIntoGivenRows:
    """The bumping loop started on rows it did not build, as a product
    of two tableaux would start it."""

    def test_exhaustive(self):
        """Every split of every word over 1..3 up to length 6."""
        for w in words_up_to(3, 6):
            for k in range(len(w) + 1):
                assert_bumps_on_from_the_rows_of(w[:k], w[k:])

    @settings(deadline=None)
    @given(
        st.integers(1, 400).flatmap(lambda n: st.tuples(
            st.lists(st.integers(1, n), max_size=400).map(tuple),
            st.lists(st.integers(1, n), max_size=200).map(tuple),
        ))
    )
    def test_long_words_over_many_symbols(self, pair):
        assert_bumps_on_from_the_rows_of(*pair)


class TestRsk:
    def test_worked_run_2213(self):
        p, q = rsk(parse_word("2213"))
        assert p == YoungTableau([[1, 2, 3], [2]])
        assert q == StandardYoungTableau([[1, 2, 4], [3]])

    def test_4323_differs_from_2213(self):
        # hand-run of the bumping algorithm: 4 / 34 / 234 / append 3
        p, q = rsk(parse_word("4323"))
        assert p == YoungTableau([[2, 3], [3], [4]])
        assert q == StandardYoungTableau([[1, 4], [2], [3]])
        assert p != rsk(parse_word("2213"))[0]

    def test_empty(self):
        p, q = rsk(())
        assert p == YoungTableau() and q == StandardYoungTableau()

    def test_decreasing_word_gives_column(self):
        p, q = rsk((3, 2, 1))
        assert p == YoungTableau([[1], [2], [3]])
        assert q == StandardYoungTableau([[1], [2], [3]])

    def test_shapes_agree(self):
        for w in words_up_to(3, 5):
            p, q = rsk(w)
            assert p.shape == q.shape

    def test_injective(self):
        seen = {}
        for w in words_up_to(3, 6):
            key = rsk(w)
            assert key not in seen, f"collision between {w} and {seen[key]}"
            seen[key] = w

    def test_cell_mismatch_fails_under_optimize(self):
        """The check that Q has P's shape is a raise, not an ``assert``,
        so ``python -O`` keeps it: a bumping loop that reports the wrong
        end row is refused."""
        result = run_optimized(
            "from hypoplactic import young\n"
            "schensted = young._schensted\n"
            "def wrong_end(w, rows=None):\n"
            "    rows, ends = schensted(w, rows)\n"
            "    ends[-1] = 0\n"
            "    return rows, ends\n"
            "young._schensted = wrong_end\n"
            "young.rsk((2, 1))\n"
        )
        assert result.returncode == 1
        assert "in rsk" in result.stderr
        assert result.stderr.endswith("AssertionError: P and Q grew different cells\n")


class TestRskInverse:
    def test_worked_runs(self):
        for text in ("2213", "4323", "321", ""):
            w = parse_word(text)
            assert rsk_inverse(*rsk(w)) == w

    def test_one_insertion_tableau_two_recording_tableaux(self):
        # Q = 14/2/3: the 4th insertion ended in the top row, so 3 is the
        # last symbol.  Q = 12/3/4: it ended in the bottom row, so 4
        # leaves it, bumps 3 out of the middle row and 2 out of the top.
        P = YoungTableau([[2, 3], [3], [4]])
        assert rsk_inverse(P, StandardYoungTableau([[1, 4], [2], [3]])) == (4, 3, 2, 3)
        assert rsk_inverse(P, StandardYoungTableau([[1, 2], [3], [4]])) == (3, 4, 3, 2)

    def test_rejects_a_recording_tableau_that_is_not_standard(self):
        # Q with a repeated entry would leave an insertion with no end row
        with pytest.raises(ValueError, match="^recording tableau must be a StandardYoungTableau$"):
            rsk_inverse(YoungTableau([[1, 2]]), YoungTableau([[1, 1]]))

    def test_rejects_an_insertion_tableau_that_is_not_a_tableau(self):
        with pytest.raises(ValueError, match="^insertion tableau must be a YoungTableau$"):
            rsk_inverse(((1,), (3,)), StandardYoungTableau([[1], [2]]))


class TestReadingsAndTabloids:
    def test_reading_of_tableau(self):
        assert column_reading(YoungTableau(EQ31_ROWS)) == parse_word("542164325224")

    def test_reading_of_tabloid(self):
        assert column_reading(Tabloid(EQ33_COLUMNS)) == parse_word("526431454212")

    def test_single_cell(self):
        assert column_reading(Tabloid([(3,)])) == (3,)

    @pytest.mark.parametrize("read", [column_reading, qr_column_reading],
                             ids=["column_reading", "qr_column_reading"])
    @pytest.mark.parametrize("t", [RecordingRibbon((2, 1), (2, 3, 1)), [(1, 2)], None],
                             ids=["recording-ribbon", "list", "none"])
    def test_rejects_an_argument_without_columns(self, read, t):
        with pytest.raises(ValueError, match="^expected a YoungTableau, Tabloid, "
                                             "QuasiRibbonTabloid or QuasiRibbonTableau$"):
            read(t)

    def test_tabloid_of_worked_example(self):
        assert tabloid_of(parse_word("526431454212")) == Tabloid(EQ33_COLUMNS)

    def test_tabloid_of_monotone(self):
        assert tabloid_of((3, 2, 1)) == Tabloid([(1, 2, 3)])
        assert tabloid_of((1, 2, 3)) == Tabloid([(1,), (2,), (3,)])

    def test_reading_roundtrip(self):
        for w in words_up_to(3, 6):
            assert column_reading(tabloid_of(w)) == w


class TestTableauWords:
    def test_examples(self):
        assert not is_tableau_word((3, 4, 3))
        assert is_tableau_word(parse_word("542164325224"))
        assert is_tableau_word(())

    def test_cross_section(self):
        # on tableau words, insertion reproduces the tabloid
        for w in words_up_to(4, 6):
            tabloid = tabloid_of(w)
            assert is_tableau_word(w) == tabloid.is_tableau()
            if is_tableau_word(w):
                t = tabloid.to_tableau()
                assert rsk(w)[0] == t
                assert column_reading(t) == w


class TestYamanouchi:
    def test_examples(self):
        assert is_yamanouchi(parse_word("1121"))
        assert not is_yamanouchi(parse_word("1231"))
        assert is_yamanouchi(())

    def test_against_definition(self):
        """Every suffix has a non-increasing ``weight``."""
        for w in words_up_to(4, 7):
            suffixes_ok = all(
                all(x >= y for x, y in zip(weight(w[k:]), weight(w[k:])[1:]))
                for k in range(len(w))
            )
            assert is_yamanouchi(w) == suffixes_ok

    def test_long_descending_word(self):
        w = tuple(range(20000, 0, -1))
        assert is_yamanouchi(w)
        assert is_yamanouchi(w + w)
        assert not is_yamanouchi((20000,) + w)
        assert not is_yamanouchi(w + (2,))

    def test_a_word_shorter_than_its_largest_symbol_allocates_nothing_per_symbol(self):
        tracemalloc.start()
        try:
            assert not is_yamanouchi((1, 10**7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_characterizes_crystal_highest_weight(self):
        for w in words_up_to(3, 5):
            no_raising = all(kashiwara_e(w, i) is None for i in (1, 2))
            assert is_yamanouchi(w) == no_raising

    def test_tableau_word_weight_equals_shape(self):
        for w in words_up_to(3, 5):
            if not is_tableau_word(w):
                continue
            assert is_yamanouchi(w) == (weight(w) == rsk(w)[0].shape)


class TestPlacticCongruence:
    def test_examples(self):
        assert plactic_congruent(parse_word("2213"), parse_word("2231"))
        assert plactic_congruent((1, 2), (1, 2))
        assert not plactic_congruent((1, 2), (2, 1))

    def test_preserved_by_concatenation(self):
        for left, right in plactic_relations(3):
            assert plactic_congruent(left, right)
            for a in (1, 2, 3):
                assert plactic_congruent((a,) + left, (a,) + right)
                assert plactic_congruent(left + (a,), right + (a,))


class TestPlacticRelations:
    def test_rank_one_empty(self):
        assert plactic_relations(1) == []

    def test_rank_two(self):
        pairs = {frozenset(p) for p in plactic_relations(2)}
        assert pairs == {
            frozenset({(2, 1, 2), (2, 2, 1)}),
            frozenset({(2, 1, 1), (1, 2, 1)}),
        }

    def test_schema_shapes(self):
        for left, right in plactic_relations(4):
            assert len(left) == len(right) == 3
            assert sorted(left) == sorted(right)
