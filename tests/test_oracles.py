"""Fast paths against their oracles.

The walk's bracket scan against the per-label bracket reduction and
i-inversions; component exploration against a breadth-first search
that calls one per-label lowering operator per label and vertex;
component sizes against the counts that the insertion correspondences
predict; roots against greedy raising one label at a time, and the
crystal root against the sweep of whole bracket scans; ~, decided
by the theorem, against its definition by explored components;
membership in one quasi component, decided by standardization, against
equal recording ribbons; the split of crystal edges against the quasi
operator of each edge; vertex weights against the characters F_α and s_λ; the
tableaux that insertion builds without checks, and the components that
exploration builds without checks, against the public constructors
that check them; Schensted insertion against a fold of one-symbol
bumping, and the shape of P against Greene's theorem; reverse bumping
against the ``rsk`` round trip both ways; the isomorphism
key ``Component.shape`` against signatures; and the hypoplactic class
picked by insertion shape against whole tableaux.
"""

import random
from collections import Counter, deque
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoplactic import graphs
from hypoplactic.cli import main
from hypoplactic.counting import count_qrt, hypo_class_members, qr_tableaux_of_shape
from hypoplactic.graphs import (
    CRYSTAL,
    QUASI_CRYSTAL,
    Component,
    _bracket_scan,
    component_to_json_dict,
    crystal_overlay,
    explore_component,
    highest_weight_word,
    is_highest_weight_hypo,
    same_recording_ribbon,
    sim_related,
)
from hypoplactic.operators import bracket_reduce, kashiwara_f, quasi_f
from hypoplactic.quasiribbon import (
    QuasiRibbonTableau,
    RecordingRibbon,
    highest_weight_qrw,
    hypo_rsk,
    predicted_shape,
)
from hypoplactic.words import (
    composition_from_descents,
    compositions,
    format_word,
    has_inversion,
    weight,
    words_of_weight,
    words_over,
)
from hypoplactic.young import (
    StandardYoungTableau,
    YoungTableau,
    column_reading,
    is_yamanouchi,
    plactic_congruent,
    rsk,
    rsk_inverse,
    schensted_insert,
)

from helpers import (
    CLASS_143214,
    greedy_root,
    row_insert,
    sim_key,
    sweep_root,
    words_up_to,
)

PER_LABEL = {CRYSTAL: kashiwara_f, QUASI_CRYSTAL: quasi_f}


def words_with_bound(max_n, max_len):
    """(word, n) with n in 1..max_n and the word over 1..n."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(st.lists(st.integers(1, n), max_size=max_len).map(tuple), st.just(n))
    )


def word_pairs(max_n, max_len):
    """(u, v, n) where v is a free word, a rearrangement of u, or the
    reading of u's quasi-ribbon tableau, so congruent pairs are common."""
    def pair_for(case):
        u, n = case
        free = st.lists(st.integers(1, n), max_size=max_len).map(tuple)
        v = st.one_of(free, st.permutations(u).map(tuple), st.just(hypo_rsk(u)[0].reading()))
        return st.tuples(st.just(u), v, st.just(n))
    return words_with_bound(max_n, max_len).flatmap(pair_for)


def lowerings_by_label(lower_op, u, n):
    """Oracle: one per-label operator call for each label 1..n-1."""
    table = {}
    for i in range(1, n):
        v = lower_op(u, i)
        if v is not None:
            table[i] = v
    return table


def explore_by_label(w, n, kind):
    """Oracle: breadth-first search from the root calling the per-label
    lowering operator for every label of every vertex.  Returns the
    out-edges, the visit order and the signature built from them."""
    lower_op = PER_LABEL[kind]
    root = greedy_root(w, n, kind)
    out = {root: {}}
    order = [root]
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for i in range(1, n):
            v = lower_op(u, i)
            if v is not None:
                out[u][i] = v
                if v not in out:
                    out[v] = {}
                    order.append(v)
                    queue.append(v)
    index = {v: k for k, v in enumerate(order)}
    signature = tuple(
        (weight(u), tuple((i, index[v]) for i, v in out[u].items())) for u in order
    )
    return out, order, signature


def hook_content_count(shape, n):
    """Semistandard Young tableaux of a partition shape with entries in
    1..n: the product over cells of (n + content) / hook."""
    conjugate = [sum(1 for part in shape if part > c) for c in range(shape[0])] if shape else []
    count = Fraction(1)
    for r, part in enumerate(shape):
        for c in range(part):
            hook = (part - c - 1) + (conjugate[c] - r - 1) + 1
            count *= Fraction(n + c - r, hook)
    assert count.denominator == 1
    return int(count)


def assert_rebuilt_component_equal(c):
    """Rebuild an explored component, which skips the checks, through
    the public constructor: it must be accepted and equal the original
    in every view, key order of the out-edges included."""
    rebuilt = Component(c.kind, c.n, c.root, c.out)
    assert rebuilt.out == c.out
    assert list(rebuilt.out) == list(c.out)
    assert all(list(rebuilt.out[u]) == list(c.out[u]) for u in c.out)
    assert rebuilt.canonical_order() == c.canonical_order()
    assert all(rebuilt.index_of(v) == c.index_of(v) for v in c.vertices)
    assert rebuilt.vertices == c.vertices
    assert rebuilt.signature() == c.signature()


def assert_component_matches_oracle(w, n, kind):
    c = explore_component(w, n, kind)
    out, order, signature = explore_by_label(w, n, kind)
    assert c.out == out
    assert list(c.out) == list(out)
    assert c.canonical_order() == order
    assert c.signature() == signature
    assert_rebuilt_component_equal(c)
    return c


class TestBracketScan:
    """The walk's one scan per vertex against the per-label definitions.
    For every label i, the position it keeps is the rightmost "+" that
    survives ``bracket_reduce``, which is where f_i acts.  Its mask, the
    labels whose bracket cancelled a "-+" pair, is the set of labels
    with an i-inversion, which is what lets one scan serve both kinds."""

    @staticmethod
    def assert_scan_matches(u, n):
        plus, mask = _bracket_scan(u, n)
        for i in range(1, n):
            survivors = bracket_reduce(u, i).plus_positions
            assert plus[i] == (survivors[-1] - 1 if survivors else -1)
        assert mask == sum(1 << i for i in range(1, n) if has_inversion(u, i))

    def test_exhaustive(self):
        for n in range(1, 6):
            for u in words_up_to(n, 6):
                self.assert_scan_matches(u, n)

    @settings(max_examples=300, deadline=None)
    @given(words_with_bound(8, 12))
    def test_random(self, case):
        self.assert_scan_matches(*case)


class TestExploreAgainstOracle:
    def test_exhaustive(self):
        for n in range(1, 5):
            for w in words_up_to(n, 5):
                for kind in (CRYSTAL, QUASI_CRYSTAL):
                    assert_component_matches_oracle(w, n, kind)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 15, 16])
    def test_key_bit_width_boundaries(self, n):
        """The walk keys a word by n.bit_length() bits per symbol, so the
        top symbol n fills its bits at n = 1, 3, 7 and 15 and opens a new
        bit at n = 2, 4, 8 and 16; words holding n, n-1 and 1 in
        several places cross every digit boundary."""
        m = max(n - 1, 1)
        words = {(n,), (n, 1), (1, n), (n, n), (m, n), (n, m, 1), (1, n, m), (n, 1, n)}
        if n <= 4:
            words.add((n, 1, m, n))
        for w in sorted(words):
            for kind in (CRYSTAL, QUASI_CRYSTAL):
                assert_component_matches_oracle(w, n, kind)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 7).flatmap(
        lambda n: st.tuples(st.lists(st.integers(1, n), max_size=8).map(tuple), st.just(n))
    ))
    def test_random(self, case):
        w, n = case
        for kind in (CRYSTAL, QUASI_CRYSTAL):
            assert_component_matches_oracle(w, n, kind)


class TestComponentSizes:
    def test_quasi_size_is_qrt_count(self):
        for n in range(1, 5):
            for w in words_up_to(n, 5):
                c = explore_component(w, n, QUASI_CRYSTAL)
                assert len(c) == count_qrt(hypo_rsk(w)[0].shape, n)

    def test_crystal_size_is_hook_content(self):
        for n in range(1, 5):
            for w in words_up_to(n, 5):
                c = explore_component(w, n, CRYSTAL)
                assert len(c) == hook_content_count(rsk(w)[0].shape, n)

    def test_hook_content_small_cases(self):
        assert hook_content_count((), 3) == 1
        assert hook_content_count((1,), 4) == 4
        assert hook_content_count((2, 1), 3) == 8
        assert hook_content_count((1, 1, 1, 1), 3) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 7).flatmap(
        lambda n: st.tuples(st.lists(st.integers(1, n), max_size=8).map(tuple), st.just(n))
    ))
    def test_random(self, case):
        w, n = case
        assert len(explore_component(w, n, QUASI_CRYSTAL)) == count_qrt(hypo_rsk(w)[0].shape, n)
        assert len(explore_component(w, n, CRYSTAL)) == hook_content_count(rsk(w)[0].shape, n)


class TestRootsAgainstGreedyRaising:
    def test_quasi_exhaustive(self):
        for n in range(1, 5):
            for w in words_up_to(n, 5):
                root = highest_weight_word(w, n, QUASI_CRYSTAL)
                assert root == greedy_root(w, n, QUASI_CRYSTAL)
                assert is_highest_weight_hypo(root)

    def test_crystal_exhaustive(self):
        for n in range(1, 5):
            for w in words_up_to(n, 5):
                assert highest_weight_word(w, n, CRYSTAL) == greedy_root(w, n, CRYSTAL)

    @settings(max_examples=300, deadline=None)
    @given(words_with_bound(8, 12))
    def test_random(self, case):
        w, n = case
        root = highest_weight_word(w, n, QUASI_CRYSTAL)
        assert root == greedy_root(w, n, QUASI_CRYSTAL)
        assert is_highest_weight_hypo(root)
        assert highest_weight_word(w, n, CRYSTAL) == greedy_root(w, n, CRYSTAL)


def assert_crystal_root_is_the_inverse_of_p_lambda(w, n):
    """The crystal root of ``w`` shares its recording tableau Q, and its
    insertion tableau holds only j in row j, so it is Yamanouchi."""
    root = highest_weight_word(w, n, CRYSTAL)
    P, Q = rsk(root)
    assert Q == rsk(w)[1]
    assert P.rows == tuple((j,) * len(row) for j, row in enumerate(P.rows, start=1))
    assert is_yamanouchi(root)
    return root


class TestCrystalRootByReverseBumping:
    def test_exhaustive(self):
        """Every word over n <= 4 up to length 6."""
        for n in range(1, 5):
            for w in words_up_to(n, 6):
                root = assert_crystal_root_is_the_inverse_of_p_lambda(w, n)
                assert root == sweep_root(w, n)

    @settings(deadline=None)
    @given(words_with_bound(20, 200))
    def test_against_the_sweep(self, case):
        root = assert_crystal_root_is_the_inverse_of_p_lambda(*case)
        assert root == sweep_root(*case)

    def test_builds_no_tableau(self, monkeypatch):
        def refuse(cls, *fields):
            raise AssertionError(f"built a {cls.__name__}")

        monkeypatch.setattr(YoungTableau, "__init__", refuse)
        monkeypatch.setattr(YoungTableau, "_trusted", classmethod(refuse))
        monkeypatch.setattr(StandardYoungTableau, "_trusted", classmethod(refuse))
        # P(31221) has shape (3,1,1) and Q = 134/2/5; reverse bumping
        # 111/2/3 along Q gives 31121
        assert highest_weight_word((3, 1, 2, 2, 1), 3, CRYSTAL) == (3, 1, 1, 2, 1)


class TestSimRelatedAgainstDefinition:
    def test_exhaustive(self):
        for n in range(1, 4):
            keys = {w: sim_key(w, n) for w in words_up_to(n, 4)}
            for u in keys:
                for v in keys:
                    assert sim_related(u, v, n) == (keys[u] == keys[v])

    @settings(max_examples=200, deadline=None)
    @given(word_pairs(5, 6))
    def test_random(self, case):
        u, v, n = case
        assert sim_related(u, v, n) == (sim_key(u, n) == sim_key(v, n))

    def test_symbol_above_the_bound(self):
        with pytest.raises(ValueError, match="word '13' has a symbol above 2"):
            sim_related((1, 3), (2, 1), 2)
        with pytest.raises(ValueError, match="word '3' has a symbol above 2"):
            sim_related((1, 2), (3,), 2)
        # u is checked first
        with pytest.raises(ValueError, match="word '4' has a symbol above 2"):
            sim_related((4,), (3,), 2)
        with pytest.raises(ValueError, match="alphabet bound must be at least 1"):
            sim_related((), (), 0)

    def test_cli_symbol_above_the_bound(self, capsys):
        assert main(["congruent", "13", "21", "-n", "2", "--relation", "sim"]) == 1
        assert "has a symbol above 2" in capsys.readouterr().err


class TestSameRecordingRibbonAgainstDefinition:
    def test_exhaustive(self):
        # Every pair over n <= 3 up to length 4, unequal lengths included.
        for n in range(1, 4):
            ribbons = {w: hypo_rsk(w)[1] for w in words_up_to(n, 4)}
            for u in ribbons:
                for v in ribbons:
                    assert same_recording_ribbon(u, v, n) == (ribbons[u] == ribbons[v])


class TestEdgeSplitAgainstQuasiOperator:
    def test_exhaustive(self):
        """On every crystal component over n <= 4 up to length 5, an
        edge u -i-> v is a quasi edge exactly when quasi_f(u, i) is
        defined, and then it is v; the JSON flags say the same."""
        for n in range(1, 5):
            seen = set()
            for w in words_up_to(n, 5):
                c = explore_component(w, n, CRYSTAL)
                if c.root in seen:
                    continue
                seen.add(c.root)
                quasi_edges, crystal_only = crystal_overlay(w, n)
                assert quasi_edges == sorted(quasi_edges)
                assert crystal_only == sorted(crystal_only)
                assert sorted(quasi_edges + crystal_only) == c.edges
                assert all(quasi_f(u, i) == v for u, i, v in quasi_edges)
                assert all(quasi_f(u, i) is None for u, i, _ in crystal_only)
                flags = {
                    (e["from"], e["label"], e["to"]): e["quasi"]
                    for e in component_to_json_dict(c)["edges"]
                }
                assert flags == {
                    (format_word(u), i, format_word(v)): quasi_f(u, i) is not None
                    for u, i, v in c.edges
                }


def assert_insertion_outputs_pass_public_checks(w):
    """Rebuild each output of ``hypo_rsk`` and ``rsk``, which skip the
    checks, through its public constructor: it must be accepted and equal
    the original, with an equal hash and tuple fields."""
    T, R = hypo_rsk(w)
    P, Q = rsk(w)
    for built, rebuilt, fields in [
        (T, QuasiRibbonTableau(T.shape, T.entries), (T.shape, T.entries)),
        (R, RecordingRibbon(R.shape, R.labels), (R.shape, R.labels)),
        (P, YoungTableau(P.rows), (P.rows, *P.rows)),
        (Q, StandardYoungTableau(Q.rows), (Q.rows, *Q.rows)),
    ]:
        assert type(rebuilt) is type(built)
        assert rebuilt == built and hash(rebuilt) == hash(built)
        assert all(type(field) is tuple for field in fields)


class TestInsertionOutputsAgainstPublicConstructors:
    def test_exhaustive(self):
        """Every word over n <= 4 up to length 6."""
        for w in words_up_to(4, 6):
            assert_insertion_outputs_pass_public_checks(w)

    @settings(deadline=None)
    @given(words_with_bound(50, 300))
    def test_long_words(self, word_and_n):
        assert_insertion_outputs_pass_public_checks(word_and_n[0])

    @pytest.mark.parametrize("insert, w, message", [
        (hypo_rsk, (0, 1), "word symbols must be positive: '0,1'"),
        (hypo_rsk, (2, -1), "word symbols must be positive: '2,-1'"),
        (hypo_rsk, (1.5, 2), "entries must be positive integers"),
        (rsk, (0, 1), "word symbols must be positive: '0,1'"),
        (rsk, (2, -1), "word symbols must be positive: '2,-1'"),
        (rsk, (1.5, 2), "entries must be positive integers"),
    ])
    def test_rejects_symbols_that_are_not_positive_integers(self, insert, w, message):
        with pytest.raises(ValueError) as excinfo:
            insert(w)
        assert str(excinfo.value) == message


def assert_schensted_matches_row_insert_fold(w):
    """P against a fold of one-symbol bumping, and Q against the cell
    that each prefix's P gains; ``schensted_insert`` and
    ``plactic_congruent`` share the loop that ``rsk`` runs."""
    rows = []
    shape = []
    q_cells = {}
    for i, a in enumerate(w, start=1):
        row_insert(rows, a)
        grown = [len(row) for row in rows]
        gained = [
            (r, new - 1) for r, (old, new) in enumerate(zip(shape + [0], grown)) if new != old
        ]
        assert len(gained) == 1
        q_cells[gained[0]] = i
        shape = grown
    P, Q = rsk(w)
    assert P.rows == tuple(map(tuple, rows))
    assert {(r, c): i for r, row in enumerate(Q.rows) for c, i in enumerate(row)} == q_cells
    assert reduce(schensted_insert, w, YoungTableau()) == P
    assert plactic_congruent(w, column_reading(P))
    folded_reverse = []
    for a in reversed(w):
        row_insert(folded_reverse, a)
    assert plactic_congruent(w, w[::-1]) == (folded_reverse == rows)


def longest_increasing(w, strict):
    """Length of the longest weakly (or strictly) increasing
    subsequence of ``w``: the dynamic programme over positions, with the
    best length ending at each symbol kept in a prefix-maximum (Fenwick)
    tree over the symbols."""
    m = max(w, default=0)
    tree = [0] * (m + 1)
    best = 0
    for a in w:
        k, length = a - 1 if strict else a, 0
        while k > 0:
            length = max(length, tree[k])
            k -= k & -k
        length += 1
        best = max(best, length)
        k = a
        while k <= m:
            tree[k] = max(tree[k], length)
            k += k & -k
    return best


class TestSchenstedAgainstRowInsertFold:
    def test_exhaustive(self):
        """Every word over n <= 4 up to length 6."""
        for w in words_up_to(4, 6):
            assert_schensted_matches_row_insert_fold(w)

    @settings(deadline=None)
    @given(st.lists(st.integers(1, 4), max_size=300).map(tuple))
    def test_long_words_over_four_symbols(self, w):
        assert_schensted_matches_row_insert_fold(w)

    @settings(deadline=None)
    @given(st.integers(1, 300).flatmap(
        lambda length: st.lists(st.integers(1, length), min_size=length, max_size=length)
    ).map(tuple))
    def test_long_words_over_as_many_symbols_as_their_length(self, w):
        assert_schensted_matches_row_insert_fold(w)

    def test_seeded_words_up_to_2000_over_as_many_symbols(self):
        """Long enough for bump paths of dozens of rows, where a bumped
        entry's search is bounded by the column it left."""
        rng = random.Random(2023)
        for length in (2, 10, 100, 1000, 2000, *(rng.randint(200, 2000) for _ in range(2))):
            assert_schensted_matches_row_insert_fold(
                tuple(rng.randint(1, length) for _ in range(length))
            )

    @pytest.mark.parametrize("regime", ["small", "large"])
    def test_greene_first_row_and_row_count(self, regime):
        """Greene's theorem: the first row of P is as long as the longest
        weakly increasing subsequence, and P has as many rows as the
        longest strictly decreasing subsequence is long."""
        rng = random.Random(2000)
        for length in (0, 1, 2, 10, 100, 500, 1000, 2000, *(rng.randint(1, 2000) for _ in range(6))):
            n = 4 if regime == "small" else max(length, 1)
            w = tuple(rng.randint(1, n) for _ in range(length))
            P = rsk(w)[0]
            first_row = len(P.rows[0]) if P.rows else 0
            assert first_row == longest_increasing(w, strict=False)
            assert len(P.rows) == longest_increasing(tuple(n + 1 - a for a in w), strict=True)


def partitions(total, largest=None):
    """Every partition of ``total``, parts non-increasing."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest or total), 0, -1):
        for rest in partitions(total - part, part):
            yield (part, *rest)


def semistandard_tableaux(shape, n):
    """Every semistandard Young tableau of a partition shape with
    entries in 1..n, as tuples of rows, filled cell by cell, row by
    row: each entry is at least its left neighbour and greater than the
    entry above it."""
    cells = [(r, c) for r, part in enumerate(shape) for c in range(part)]

    def fill(rows, k):
        if k == len(cells):
            yield tuple(map(tuple, rows))
            return
        r, c = cells[k]
        low = max(rows[r][c - 1] if c else 1, rows[r - 1][c] + 1 if r else 1)
        for a in range(low, n + 1):
            rows[r].append(a)
            yield from fill(rows, k + 1)
            rows[r].pop()

    yield from fill([[] for _ in shape], 0)


def assert_rsk_inverse_round_trip(w):
    P, Q = rsk(w)
    u = rsk_inverse(P, Q)
    assert type(u) is tuple and u == w


class TestRskInverseAgainstRsk:
    def test_exhaustive(self):
        """Every word over n <= 4 up to length 6."""
        for w in words_up_to(4, 6):
            assert_rsk_inverse_round_trip(w)

    @settings(deadline=None)
    @given(st.lists(st.integers(1, 4), max_size=300).map(tuple))
    def test_long_words_over_four_symbols(self, w):
        assert_rsk_inverse_round_trip(w)

    @settings(deadline=None)
    @given(st.integers(1, 300).flatmap(
        lambda length: st.lists(st.integers(1, length), min_size=length, max_size=length)
    ).map(tuple))
    def test_long_words_over_as_many_symbols_as_their_length(self, w):
        assert_rsk_inverse_round_trip(w)

    def test_every_pair_of_one_shape(self):
        """Every pair (P, Q) of one shape with at most 5 cells, P over
        1..3 and Q standard: the word that reverse bumping gives inserts
        to (P, Q) again."""
        pairs = 0
        for total in range(6):
            for shape in partitions(total):
                qs = [StandardYoungTableau(rows) for rows in standard_tableaux(shape)]
                for p_rows in semistandard_tableaux(shape, 3):
                    P = YoungTableau(p_rows)
                    for Q in qs:
                        assert rsk(rsk_inverse(P, Q)) == (P, Q)
                        pairs += 1
        # the words over 1..3 up to length 5, one per pair
        assert pairs == sum(3 ** length for length in range(6))

    @pytest.mark.parametrize("p_rows, q_rows", [
        ([[1, 2]], [[1], [2]]),
        ([[1], [2]], [[1, 2]]),
        ([[1, 1], [2]], [[1, 2, 3]]),
        ([], [[1]]),
        ([[1]], []),
    ])
    def test_rejects_mismatched_shapes(self, p_rows, q_rows):
        with pytest.raises(ValueError, match="^insertion and recording tableau shapes differ$"):
            rsk_inverse(YoungTableau(p_rows), StandardYoungTableau(q_rows))


def explored_components(max_n, max_len):
    """(n, component) for each component, of both kinds, holding a word
    over 1..n of length at most max_len; each component once."""
    for n in range(1, max_n + 1):
        for kind in (CRYSTAL, QUASI_CRYSTAL):
            roots = set()
            for w in words_up_to(n, max_len):
                c = explore_component(w, n, kind)
                if c.root not in roots:
                    roots.add(c.root)
                    yield n, c


def standard_tableaux(shape):
    """Every standard Young tableau of a partition shape, as lists of
    rows, by placing 1, 2, ... in turn at the end of a row."""
    total = sum(shape)

    def fill(rows, k):
        if k > total:
            yield rows
            return
        for r, row in enumerate(rows):
            if len(row) < shape[r] and (r == 0 or len(rows[r - 1]) > len(row)):
                yield from fill(rows[:r] + [row + [k]] + rows[r + 1:], k + 1)

    yield from fill([[] for _ in shape], 1)


def descent_composition(rows):
    """Des(T) as a composition: k is a descent of a standard tableau
    when k+1 stands in a lower row than k."""
    row_of = {k: r for r, row in enumerate(rows) for k in row}
    total = len(row_of)
    return composition_from_descents(
        [k for k in range(1, total) if row_of[k + 1] > row_of[k]], total
    )


class TestCharacters:
    def test_exhaustive(self):
        """On every component over n <= 4 up to length 5, the multiset
        of vertex weights is the character: the contents of the
        quasi-ribbon tableaux of shape α over n (F_α) for a quasi
        component of shape α, and the sum of F_Des(T) over the standard
        Young tableaux T of shape λ (Gessel) for a crystal component of
        shape λ."""
        for n, c in explored_components(4, 5):
            if c.kind == QUASI_CRYSTAL:
                alphas = [predicted_shape(c.root)]
            else:
                alphas = [descent_composition(t) for t in standard_tableaux(rsk(c.root)[0].shape)]
            contents = Counter(
                weight(t.entries) for alpha in alphas for t in qr_tableaux_of_shape(alpha, n)
            )
            assert Counter(weight(v) for v in c.canonical_order()) == contents

    def test_standard_tableaux(self):
        assert len(list(standard_tableaux((3, 2)))) == 5
        assert descent_composition([[1, 2, 4], [3, 5]]) == (2, 2, 1)


class TestPublicConstructor:
    """Explored components rebuilt through the public constructor are
    checked in ``assert_component_matches_oracle``; here, the oracle's
    graphs it must accept and the graphs it must reject."""

    def test_accepts_the_oracle_graph(self):
        """Every component over n <= 3 up to length 4, both kinds, as the
        per-label oracle explores it: the constructor accepts it and
        numbers it as the oracle does.  Nothing here calls
        ``explore_component``, and the constructor's walk stops once it
        finds more vertices than the graph has, so a walk that builds
        wrong words fails here rather than running on."""
        for n in range(1, 4):
            for w in words_up_to(n, 4):
                for kind in (CRYSTAL, QUASI_CRYSTAL):
                    out, order, signature = explore_by_label(w, n, kind)
                    c = Component(kind, n, order[0], out)
                    assert c.out == out
                    assert c.canonical_order() == order
                    assert c.signature() == signature

    def test_out_dict_in_any_order(self):
        c = explore_component((2, 1, 1), 3, CRYSTAL)
        shuffled = {u: dict(reversed(c.out[u].items())) for u in reversed(c.out)}
        assert_rebuilt_component_equal(Component(c.kind, c.n, c.root, shuffled))

    @pytest.mark.parametrize("kind", [CRYSTAL, QUASI_CRYSTAL])
    def test_rejects_edge_that_does_not_lower(self, kind):
        # f_1(1) = 2, so 1 -1-> 2 is an edge of both kinds, but f_1(2)
        # is undefined and 2 -1-> 12 changes the length
        with pytest.raises(ValueError, match=f"out-edges of '2' are not its {kind} lowering edges"):
            Component(kind, 2, (1,), {(1,): {1: (2,)}, (2,): {1: (1, 2)}, (1, 2): {}})

    @pytest.mark.parametrize("kind", [CRYSTAL, QUASI_CRYSTAL])
    def test_rejects_lowering_edge_missing(self, kind):
        with pytest.raises(ValueError, match=f"out-edges of '1' are not its {kind} lowering edges"):
            Component(kind, 2, (1,), {(1,): {}})

    @pytest.mark.parametrize("kind", [CRYSTAL, QUASI_CRYSTAL])
    def test_rejects_root_that_is_not_highest_weight(self, kind):
        # 2 -1-> nothing is its own lowering table, but e_1(2) = 1
        with pytest.raises(ValueError, match="root '2' is not a highest-weight word"):
            Component(kind, 2, (2,), {(2,): {}})

    def test_edges_are_checked_before_the_vertex_set(self):
        # the graph is not reachable, and its edges do not lower either:
        # the walk reads the root's edges before it counts the vertices
        with pytest.raises(ValueError, match="^out-edges of '1' are not its crystal lowering edges$"):
            Component(CRYSTAL, 2, (1,), {(1,): {}, (2, 2): {}})

    def test_walks_no_further_than_the_given_graph(self, monkeypatch):
        # the root's true component has count_qrt((6,), 6) = 462 vertices
        root = (1,) * 6
        scanned = []
        scan = graphs._bracket_scan

        def counting_scan(u, n):
            scanned.append(u)
            return scan(u, n)

        monkeypatch.setattr(graphs, "_bracket_scan", counting_scan)
        with pytest.raises(ValueError, match="out-edges of '111111' are not"):
            Component(QUASI_CRYSTAL, 6, root, {root: {}})
        assert scanned == [root]

    def test_rejects_every_one_step_mutation(self):
        """Every component over n <= 3 up to length 4, both kinds: its
        own graph is accepted, and each graph one step from it is
        rejected: one edge dropped, one edge sent to another vertex of
        the component, one word the root does not reach added with its
        own lowering edges, or one vertex dropped, with or without the
        edges into it."""
        rejected = 0

        def rejects(out):
            nonlocal rejected
            with pytest.raises(ValueError):
                Component(c.kind, n, c.root, out)
            rejected += 1

        for n, c in explored_components(3, 4):
            assert_rebuilt_component_equal(c)
            vertices = c.canonical_order()
            for u, i, v in c.edges:
                out = {x: dict(edges) for x, edges in c.out.items()}
                del out[u][i]
                rejects(out)
                for t in vertices:
                    if t != v:
                        out[u][i] = t
                        rejects(out)
            for w in words_over(n, len(c.root)):
                if w not in c.vertices:
                    rejects({**c.out, w: lowerings_by_label(PER_LABEL[c.kind], w, n)})
            for u in vertices:
                rejects({x: edges for x, edges in c.out.items() if x != u})
                rejects({
                    x: {i: v for i, v in edges.items() if v != u}
                    for x, edges in c.out.items() if x != u
                })
        assert rejected == 5938

    def test_canonical_order_is_a_copy(self):
        c = explore_component((1, 2), 3, QUASI_CRYSTAL)
        assert len(c) == 6
        c.canonical_order().append((9, 9))
        assert len(c) == 6
        assert c.canonical_order() == list(c.out)


class TestShapeIsTheIsomorphismKey:
    def test_exhaustive(self):
        """On every component over n <= 4 up to length 5, both kinds,
        the shape is the quasi-ribbon shape (quasi) or P-shape (crystal)
        of its words, and within one kind and n equal shapes are equal
        signatures and the reverse."""
        shape_of_word = {CRYSTAL: lambda v: rsk(v)[0].shape, QUASI_CRYSTAL: predicted_shape}
        keys = {CRYSTAL: set(), QUASI_CRYSTAL: set()}
        signature_of = {}
        shape_of = {}
        for n, c in explored_components(4, 5):
            assert c.shape == weight(c.root)
            assert all(shape_of_word[c.kind](v) == c.shape for v in c.vertices)
            signature = c.signature()
            assert signature_of.setdefault((c.kind, n, c.shape), signature) == signature
            assert shape_of.setdefault((c.kind, n, signature), c.shape) == c.shape
            keys[c.kind].add((n, c.shape))
        assert (len(keys[CRYSTAL]), len(keys[QUASI_CRYSTAL])) == (52, 79)


def class_members_by_tableau(shape, n):
    """Oracle: the words of weight ``shape`` whose tableau, built by
    ``hypo_rsk``, equals the tableau of the highest-weight quasi-ribbon
    word of that shape."""
    if len(shape) > n:
        return []
    target = hypo_rsk(highest_weight_qrw(shape))[0]
    return [u for u in words_of_weight(shape) if hypo_rsk(u)[0] == target]


class TestClassMembersAgainstTableaux:
    def test_exhaustive(self):
        """Every composition of weight at most 7, the empty one included,
        with l parts, over n in {l - 1, l, l + 2}, each raised to 1 when
        below it: the same list, in the same order."""
        cases = [
            (alpha, n)
            for total in range(8)
            for alpha in compositions(total)
            for n in {max(len(alpha) - 1, 1), max(len(alpha), 1), len(alpha) + 2}
        ]
        assert len(cases) == 376
        for alpha, n in cases:
            assert hypo_class_members(alpha, n) == class_members_by_tableau(alpha, n)

    def test_builds_no_tableau(self, monkeypatch):
        def refuse(cls, *fields):
            raise AssertionError(f"built a {cls.__name__}")

        monkeypatch.setattr(QuasiRibbonTableau, "_trusted", classmethod(refuse))
        monkeypatch.setattr(RecordingRibbon, "_trusted", classmethod(refuse))
        assert hypo_class_members((2, 1, 1, 2), 4) == CLASS_143214
