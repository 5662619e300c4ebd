import json
import tracemalloc
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoplactic import graphs
from hypoplactic.graphs import (
    CRYSTAL,
    QUASI_CRYSTAL,
    Component,
    component_from_json_dict,
    component_to_dot,
    component_to_json_dict,
    crystal_overlay,
    explore_component,
    highest_weight_word,
    is_highest_weight_hypo,
    plac_component_contains_qrw,
    same_recording_ribbon,
    sim_related,
)
from hypoplactic.operators import quasi_e, quasi_f
from hypoplactic.quasiribbon import (
    highest_weight_qrw,
    hypo_rsk,
    is_quasi_ribbon_word,
    slide_up_slide_left,
    standard_ribbon,
)
from hypoplactic.words import (
    compositions,
    format_word,
    max_decreasing_factorization,
    parse_word,
    schuetzenberger_involution,
    weight,
)
from hypoplactic.young import StandardYoungTableau, YoungTableau, is_yamanouchi, rsk

from helpers import sim_key, standard_words, two_in_edges_scan, words_up_to


def quasi_components(n, length):
    """One explored component per quasi-crystal orbit of the length class."""
    seen = set()
    for w in words_up_to(n, length):
        if len(w) != length or w in seen:
            continue
        component = explore_component(w, n, QUASI_CRYSTAL)
        seen |= component.vertices
        yield component


class TestExplore:
    def test_empty_word_isolated(self):
        c = explore_component((), 3, QUASI_CRYSTAL)
        assert c.vertices == {()} and c.root == ()
        assert explore_component((), 2, CRYSTAL).vertices == {()}

    def test_321_crystal_isolated(self):
        c = explore_component((3, 2, 1), 3, CRYSTAL)
        assert c.vertices == {(3, 2, 1)}

    def test_component_of_1212(self):
        c = explore_component((1, 2, 1, 2), 4, QUASI_CRYSTAL)
        assert c.root == (1, 2, 1, 2)
        assert len(c) == 15
        for drawn in ["1212", "1213", "1313", "2323", "3434"]:
            assert parse_word(drawn) in c.vertices
        assert all(is_quasi_ribbon_word(v) for v in c.vertices)

    @pytest.mark.parametrize("call", [
        lambda: explore_component((1,), 2, "plactic"),
        lambda: highest_weight_word((1,), 2, "plactic"),
        lambda: Component("plactic", 2, (1,), {(1,): {}}),
    ], ids=["explore", "highest_weight", "Component"])
    def test_rejects_an_unknown_kind(self, call):
        with pytest.raises(ValueError, match="^unknown graph kind 'plactic'$"):
            call()

    def test_repr_names_kind_bound_root_and_size(self):
        assert repr(explore_component((1, 2), 2, "quasi")) == (
            "Component(kind='quasi-crystal', n=2, root='11', size=3)"
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            explore_component((3,), 2, QUASI_CRYSTAL)

    @pytest.mark.parametrize("kind", [CRYSTAL, QUASI_CRYSTAL])
    def test_walk_invariant_is_an_internal_check(self, monkeypatch, kind):
        """Only a fault of the library can give a vertex two in-edges
        with one label, so the walk reports it as a failed internal
        check, not as a bad input."""
        monkeypatch.setattr(graphs, "_bracket_scan", two_in_edges_scan)
        with pytest.raises(AssertionError, match="^some vertex has two in-edges with one label$"):
            explore_component((1, 1), 3, kind)

    @pytest.mark.parametrize("kind", [CRYSTAL, QUASI_CRYSTAL])
    def test_every_edge_raises_the_walk_key(self, kind):
        """Each edge adds a positive unit to its source's key, so no
        target's key equals the root's and the walk needs no test for an
        edge into the root."""
        for n in range(1, 5):
            seen = set()
            for w in words_up_to(n, 5):
                if w in seen:
                    continue
                c = explore_component(w, n, kind)
                seen |= c.vertices
                for u, _, v in c.edges:
                    assert graphs._key(v, n) > graphs._key(u, n)
                    assert v != c.root

    def test_closure_and_degrees(self):
        from hypoplactic.operators import kashiwara_e, kashiwara_f, quasi_e, quasi_f

        ops = {CRYSTAL: (kashiwara_e, kashiwara_f), QUASI_CRYSTAL: (quasi_e, quasi_f)}
        for kind in (CRYSTAL, QUASI_CRYSTAL):
            raise_op, lower_op = ops[kind]
            for n, w in [(n, w) for n in (3, 4) for w in words_up_to(n, 4)]:
                c = explore_component(w, n, kind)
                assert w in c.vertices
                in_edges = defaultdict(int)
                for u in c.vertices:
                    assert len(u) == len(w)
                    for i in range(1, n):
                        down = lower_op(u, i)
                        up = raise_op(u, i)
                        assert down is None or down in c.vertices
                        assert up is None or up in c.vertices
                        if down is not None:
                            assert c.out[u][i] == down
                for u, i, v in c.edges:
                    in_edges[v, i] += 1
                assert all(count == 1 for count in in_edges.values())


class TestHighestWeight:
    def test_2112_is_its_own_root(self):
        assert highest_weight_word((2, 1, 1, 2), 3, QUASI_CRYSTAL) == (2, 1, 1, 2)

    def test_highest_weight_readings_are_fixed(self):
        for shape in [(2, 2), (3, 1), (1, 1, 2)]:
            w = highest_weight_qrw(shape)
            assert highest_weight_word(w, 4, QUASI_CRYSTAL) == w

    def test_crystal_raising_reaches_yamanouchi(self):
        for w in words_up_to(3, 4):
            top = highest_weight_word(w, 3, CRYSTAL)
            assert is_yamanouchi(top)

    def test_quasi_root_rejects_non_positive_symbols(self):
        with pytest.raises(ValueError, match="symbols must be positive"):
            highest_weight_word((0, 1), 2, QUASI_CRYSTAL)

    def test_roots_match_predicate(self):
        for c in quasi_components(3, 4):
            assert is_highest_weight_hypo(c.root)
            others = [v for v in c.vertices if is_highest_weight_hypo(v)]
            assert others == [c.root]
            assert highest_weight_word(c.root, 3, QUASI_CRYSTAL) == c.root


class TestIsHighestWeightHypo:
    def test_examples(self):
        assert is_highest_weight_hypo((2, 1, 1, 2))
        assert not is_highest_weight_hypo((2,))
        assert is_highest_weight_hypo(parse_word("11321333434"))
        assert is_highest_weight_hypo(())

    def test_suffix_counterexample(self):
        # highest weight does not pass to suffixes
        assert is_highest_weight_hypo((2, 1, 1, 2))
        assert not is_highest_weight_hypo((2, 1, 1, 2)[3:])

    def test_against_quasi_raising(self):
        """The definition: no quasi raising operator e_i acts, for any i
        from 1 to max(w)."""
        for w in words_up_to(4, 7):
            no_raising = all(quasi_e(w, i) is None for i in range(1, max(w, default=0) + 1))
            assert is_highest_weight_hypo(w) == no_raising

    def test_long_descending_word(self):
        w = tuple(range(8000, 0, -1))
        assert is_highest_weight_hypo(w)
        assert not is_highest_weight_hypo(w[:-2] + (1, 2))
        assert not is_highest_weight_hypo(w[:-1])
        assert not is_highest_weight_hypo(tuple(range(1, 8001)))

    def test_a_word_shorter_than_its_largest_symbol_allocates_nothing_per_symbol(self):
        tracemalloc.start()
        try:
            assert not is_highest_weight_hypo((1, 10**7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestSignatures:
    def test_isomorphic_pair(self):
        a = explore_component((1, 2, 1, 2), 4, QUASI_CRYSTAL)
        b = explore_component((2, 1, 2, 1), 4, QUASI_CRYSTAL)
        assert a.signature() == b.signature()
        assert a.vertices != b.vertices

    def test_crystal_isomorphic_pair(self):
        a = explore_component(parse_word("211"), 3, CRYSTAL)
        b = explore_component(parse_word("121"), 3, CRYSTAL)
        assert a.root == parse_word("211") and b.root == parse_word("121")
        assert a.signature() == b.signature()

    def test_isolated_same_weight(self):
        a = explore_component(parse_word("421323"), 4, QUASI_CRYSTAL)
        b = explore_component(parse_word("321423"), 4, QUASI_CRYSTAL)
        assert len(a) == len(b) == 1
        assert weight(parse_word("421323")) == weight(parse_word("321423"))
        assert a.signature() == b.signature()

    def test_non_isomorphic(self):
        a = explore_component((3, 2, 1), 3, CRYSTAL)
        b = explore_component((1, 2, 3), 3, CRYSTAL)
        assert a.signature() != b.signature()


class TestSimRelated:
    def test_worked_pair(self):
        assert sim_key((1, 3, 2, 4), 4) == sim_key((3, 1, 4, 2), 4)
        assert sim_related((1, 3, 2, 4), (3, 1, 4, 2), 4)

    def test_reflexive(self):
        assert sim_related((2, 1, 2), (2, 1, 2), 3)

    def test_different_components(self):
        assert sim_key((1, 2), 2) != sim_key((2, 1), 2)
        assert not sim_related((1, 2), (2, 1), 2)

    def test_matches_congruence_small(self):
        from hypoplactic.quasiribbon import hypo_congruent

        words3 = [w for w in words_up_to(3, 4) if len(w) == 4]
        keys = {w: sim_key(w, 3) for w in words3[::3]}
        for u in keys:
            for v in keys:
                assert (keys[u] == keys[v]) == hypo_congruent(u, v)


class TestSameRecordingRibbon:
    def test_neighbours_share_component(self):
        for w in words_up_to(3, 4):
            for i in (1, 2):
                down = quasi_f(w, i)
                if down is not None:
                    assert same_recording_ribbon(w, down, 3)

    def test_isomorphic_but_distinct(self):
        assert not same_recording_ribbon((1, 2, 1, 2), (2, 1, 2, 1), 4)

    def test_reflexive(self):
        assert same_recording_ribbon((4, 3, 2, 3), (4, 3, 2, 3), 4)

    def test_matches_component_membership(self):
        for length in range(5):
            component_of = {}
            for c in quasi_components(3, length):
                for v in c.vertices:
                    component_of[v] = c.root
            words_here = [w for w in words_up_to(3, length) if len(w) == length]
            ribbons = {w: hypo_rsk(w)[1] for w in words_here}
            for u in words_here:
                for v in words_here:
                    assert (component_of[u] == component_of[v]) == (
                        ribbons[u] == ribbons[v]
                    )


class TestCrystalOverlay:
    def test_2111_decomposition(self):
        component = explore_component(parse_word("2111"), 4, CRYSTAL)
        roots = {highest_weight_word(v, 4, QUASI_CRYSTAL) for v in component.vertices}
        assert roots == {parse_word("2111"), parse_word("2112"), parse_word("2122")}

    def test_quasi_vertices_cover_crystal_component(self):
        for w in words_up_to(3, 4):
            component = explore_component(w, 3, CRYSTAL)
            covered = set()
            for v in component.vertices:
                if v not in covered:
                    covered |= explore_component(v, 3, QUASI_CRYSTAL).vertices
            assert covered == component.vertices

    def test_components_without_extra_edges(self):
        for text in ["1111", "4321"]:
            quasi_edges, dotted = crystal_overlay(parse_word(text), 4)
            assert dotted == []
            quasi = explore_component(parse_word(text), 4, QUASI_CRYSTAL)
            crystal = explore_component(parse_word(text), 4, CRYSTAL)
            assert quasi.vertices == crystal.vertices
            assert set(quasi_edges) == set(quasi.edges)

    def test_edge_partition(self):
        quasi_edges, dotted = crystal_overlay(parse_word("2111"), 4)
        component = explore_component(parse_word("2111"), 4, CRYSTAL)
        assert set(quasi_edges) | set(dotted) == set(component.edges)
        assert not set(quasi_edges) & set(dotted)
        assert all(quasi_f(u, i) == v for u, i, v in quasi_edges)
        assert all(quasi_f(u, i) is None for u, i, _ in dotted)

    def test_isomorphic_quasi_components_in_one_crystal_component(self):
        component = explore_component(parse_word("321211"), 4, CRYSTAL)
        for text in ["321213", "321312", "421323", "321423"]:
            assert parse_word(text) in component.vertices
        a = explore_component(parse_word("321213"), 4, QUASI_CRYSTAL)
        b = explore_component(parse_word("321312"), 4, QUASI_CRYSTAL)
        assert a.vertices != b.vertices
        assert a.signature() == b.signature()
        isolated_a = explore_component(parse_word("421323"), 4, QUASI_CRYSTAL)
        isolated_b = explore_component(parse_word("321423"), 4, QUASI_CRYSTAL)
        assert len(isolated_a) == len(isolated_b) == 1
        assert isolated_a.signature() == isolated_b.signature()


class TestQuasiRibbonComponents:
    def test_shape_class_is_one_component(self):
        # quasi-ribbon words of one shape over three symbols form exactly
        # the component of the highest-weight reading
        for total in range(1, 6):
            for alpha in compositions(total):
                if len(alpha) > 3:
                    continue
                component = explore_component(
                    highest_weight_qrw(alpha), 3, QUASI_CRYSTAL
                )
                from hypoplactic.quasiribbon import predicted_shape
                from hypoplactic.words import words_over

                expected = {
                    w
                    for w in words_over(3, total)
                    if is_quasi_ribbon_word(w) and predicted_shape(w) == alpha
                }
                assert component.vertices == expected


class TestIsomorphismsRestrict:
    def test_quasi_components_correspond(self):
        # the canonical bijection between isomorphic crystal components
        # maps quasi-components onto quasi-components
        for length in range(1, 5):
            by_signature = defaultdict(list)
            seen = set()
            for w in words_up_to(3, length):
                if len(w) != length or w in seen:
                    continue
                c = explore_component(w, 3, CRYSTAL)
                seen |= c.vertices
                by_signature[c.signature()].append(c)
            for group in by_signature.values():
                reference = group[0]
                ref_order = reference.canonical_order()
                for other in group[1:]:
                    other_order = other.canonical_order()
                    mapping = dict(zip(ref_order, other_order))
                    covered = set()
                    for v in reference.vertices:
                        if v in covered:
                            continue
                        quasi = explore_component(v, 3, QUASI_CRYSTAL)
                        covered |= quasi.vertices
                        image = {mapping[u] for u in quasi.vertices}
                        image_component = explore_component(
                            mapping[v], 3, QUASI_CRYSTAL
                        )
                        assert image == image_component.vertices


class TestComponentCountLowerBound:
    def test_lower_bound(self):
        from hypoplactic.counting import count_iso_plac_components_with_qrw

        for w in words_up_to(3, 4):
            lam = rsk(w)[0].shape
            if not lam or sum(lam) - lam[0] + 1 > 3:
                continue
            crystal = explore_component(w, 3, CRYSTAL)
            quasi_count = 0
            covered = set()
            for v in crystal.vertices:
                if v not in covered:
                    covered |= explore_component(v, 3, QUASI_CRYSTAL).vertices
                    quasi_count += 1
            assert quasi_count >= count_iso_plac_components_with_qrw(lam, 3)


def contains_qrw_by_search(w, n):
    """Oracle: try every ribbon shape with at most n rows."""
    q = rsk(w)[1]
    return any(
        len(alpha) <= n and slide_up_slide_left(standard_ribbon(alpha)) == q
        for alpha in compositions(len(w))
    )


class TestPlacComponentContainsQrw:
    def test_negative_example(self):
        assert not plac_component_contains_qrw(parse_word("2211"), 4)

    def test_builds_no_tableau(self, monkeypatch):
        """The verdict is read off the end rows of the insertions."""
        def refuse(*args):
            raise AssertionError("built a tableau")

        monkeypatch.setattr(YoungTableau, "__init__", refuse)
        monkeypatch.setattr(YoungTableau, "_trusted", classmethod(refuse))
        monkeypatch.setattr(StandardYoungTableau, "_trusted", classmethod(refuse))
        assert plac_component_contains_qrw(parse_word("2121"), 4)
        assert not plac_component_contains_qrw(parse_word("2211"), 4)
        assert not plac_component_contains_qrw(parse_word("2121"), 2)  # 3 ribbon rows

    def test_quasi_ribbon_word_component(self):
        assert plac_component_contains_qrw(parse_word("12432455657"), 7)

    def test_2121(self):
        assert plac_component_contains_qrw(parse_word("2121"), 4)

    def test_matches_direct_search(self):
        for w in words_up_to(3, 4):
            component = explore_component(w, 3, CRYSTAL)
            direct = any(is_quasi_ribbon_word(v) for v in component.vertices)
            assert plac_component_contains_qrw(w, 3) == direct

    def test_matches_search_exhaustive(self):
        # the verdict depends on w only through Q, so the oracle runs once
        # per (Q, n)
        verdicts = {}
        for n in (1, 2, 3):
            for w in words_up_to(n, 8):
                key = (rsk(w)[1].rows, n)
                if key not in verdicts:
                    verdicts[key] = contains_qrw_by_search(w, n)
                assert plac_component_contains_qrw(w, n) == verdicts[key]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda m: st.tuples(
            st.lists(st.integers(1, m), max_size=14).map(tuple), st.integers(m, m + 2)
        )
    ))
    def test_matches_search_random(self, case):
        w, n = case
        assert plac_component_contains_qrw(w, n) == contains_qrw_by_search(w, n)

    def test_121_two_rows(self):
        # Q = [[1, 2], [3]] has columns {1, 3} and {2}, which no ribbon has,
        # yet the ribbon of shape (2, 1) slides up and left onto Q
        w = parse_word("121")
        assert rsk(w)[1].rows == ((1, 2), (3,))
        assert plac_component_contains_qrw(w, 2)
        assert contains_qrw_by_search(w, 2)

    def test_ribbon_piece_inside_2121(self):
        component = explore_component(parse_word("2121"), 4, CRYSTAL)
        ribbon_vertices = {v for v in component.vertices if is_quasi_ribbon_word(v)}
        assert parse_word("2132") in ribbon_vertices
        assert ribbon_vertices == explore_component(
            parse_word("2132"), 4, QUASI_CRYSTAL
        ).vertices


def reversed_blocks(alpha):
    """The standard word that reverses, in place, consecutive blocks
    of the lengths in ``alpha``."""
    word, start = [], 0
    for part in alpha:
        word.extend(range(start + part, start, -1))
        start += part
    return tuple(word)


def block_lengths(p):
    return tuple(len(f) for f in max_decreasing_factorization(p))


class TestIntervalReversing:
    """A standard word is a quasi-ribbon word exactly when it reverses,
    in place, the blocks of its maximal decreasing factors."""

    def test_worked_example(self):
        p = parse_word("15432876")
        assert is_quasi_ribbon_word(p)
        assert block_lengths(p) == (1, 4, 3)
        assert reversed_blocks((1, 4, 3)) == p

    def test_identity(self):
        assert is_quasi_ribbon_word((1, 2, 3, 4))
        assert block_lengths((1, 2, 3, 4)) == (1, 1, 1, 1)
        assert reversed_blocks((1, 1, 1, 1)) == (1, 2, 3, 4)

    def test_absent(self):
        assert not is_quasi_ribbon_word((2, 3, 1))
        assert all(reversed_blocks(alpha) != (2, 3, 1) for alpha in compositions(3))

    def test_against_composition_oracle(self):
        found = Counter()
        for p in standard_words(5):
            matches = []
            for alpha in compositions(len(p)):
                start = 0
                good = True
                for part in alpha:
                    for k in range(1, part + 1):
                        if p[start + k - 1] != start + part - k + 1:
                            good = False
                    start += part
                if good:
                    matches.append(alpha)
            assert len(matches) <= 1
            assert is_quasi_ribbon_word(p) == bool(matches)
            if matches:
                assert matches[0] == block_lengths(p)
                found[len(p)] += 1
        assert [found[size] for size in range(1, 6)] == [1, 2, 4, 8, 16]


def involution_reverses_edges(c, n):
    """Whether the Schuetzenberger involution xi maps every edge
    u -i-> v of ``c`` onto an edge xi(v) -(n-i)-> xi(u)."""
    return all(
        quasi_f(schuetzenberger_involution(v, n), n - i) == schuetzenberger_involution(u, n)
        for u, i, v in c.edges
    )


class TestInvolutionEdgeCheck:
    def test_single_edge(self):
        c = explore_component((1,), 2, QUASI_CRYSTAL)
        assert c.edges == [((1,), 1, (2,))]
        assert involution_reverses_edges(c, 2)

    def test_isolated(self):
        c = explore_component((2, 1), 2, QUASI_CRYSTAL)
        assert c.edges == []
        assert involution_reverses_edges(c, 2)

    def test_exhaustive_small(self):
        for length in range(5):
            for c in quasi_components(3, length):
                assert involution_reverses_edges(c, 3)


class TestEdgeOrderAndIndex:
    """The walk numbers vertices by integer keys; every public view still
    lists edges in sorted word order and numbers vertices by word."""

    CASES = [((2, 1, 3, 1), 4, CRYSTAL), ((1, 3, 2, 3), 4, QUASI_CRYSTAL), ((8, 1, 7), 8, CRYSTAL),
             ((16, 1, 15), 16, QUASI_CRYSTAL), ((3, 1), 3, CRYSTAL), ((7, 1, 7), 7, QUASI_CRYSTAL)]

    @pytest.mark.parametrize("w, n, kind", CASES, ids=str)
    def test_edges_json_and_dot_in_sorted_word_order(self, w, n, kind):
        c = explore_component(w, n, kind)
        expected = sorted((u, i, v) for u, edges in c.out.items() for i, v in edges.items())
        assert c.edges == expected
        assert [(parse_word(e["from"]), e["label"], parse_word(e["to"]))
                for e in component_to_json_dict(c)["edges"]] == expected
        arrows = [line for line in component_to_dot(c).splitlines() if "->" in line]
        assert arrows == [
            f'  "{format_word(u)}" -> "{format_word(v)}" [label="{i}"];' for u, i, v in expected
        ]

    @pytest.mark.parametrize("w, n, kind", CASES, ids=str)
    def test_index_of_numbers_vertices_by_visit(self, w, n, kind):
        c = explore_component(w, n, kind)
        assert [c.index_of(v) for v in c.canonical_order()] == list(range(len(c)))

    def test_index_of_rejects_words_outside_the_component(self):
        # over n = 3 a key holds 2 bits per symbol, so keying 15 as if it
        # were over 1..3 would give 1*4 + 5 = 9 = 2*4 + 1, the key of 21
        c = explore_component((2, 1), 3, CRYSTAL)
        assert c.index_of((2, 1)) == 0
        for outside in [(1, 5), (1, 2), (2, 1, 1), (2,), (), (0, 9), (2.5, 1)]:
            with pytest.raises(KeyError):
                c.index_of(outside)


class TestSerialization:
    def test_dot_output(self):
        c = explore_component((1, 2), 2, QUASI_CRYSTAL)
        dot = component_to_dot(c)
        assert dot.startswith("digraph {")
        assert '"12";' in dot
        assert '"12" -> "13"' not in dot  # alphabet bound is 2
        assert '"11" -> "12" [label="1"];' in dot

    def test_dot_overlay_styles(self):
        quasi_edges, dotted = crystal_overlay(parse_word("2111"), 4)
        c = explore_component(parse_word("2111"), 4, CRYSTAL)
        dot = component_to_dot(c, dotted)
        assert "style=dotted" in dot
        solid_lines = [
            line for line in dot.splitlines()
            if "->" in line and "dotted" not in line
        ]
        assert len(solid_lines) == len(quasi_edges)

    def test_json_roundtrip_is_identity(self):
        for text, kind in [("1212", QUASI_CRYSTAL), ("2111", CRYSTAL)]:
            c = explore_component(parse_word(text), 4, kind)
            dumped = json.dumps(component_to_json_dict(c))
            reparsed = component_from_json_dict(json.loads(dumped))
            assert json.dumps(component_to_json_dict(reparsed)) == dumped

    def test_json_rejects_vertex_unreached_from_root(self):
        # 11 and 12 point at each other, so neither is a second root
        data = {
            "kind": QUASI_CRYSTAL,
            "n": 2,
            "root": "1",
            "vertices": ["1", "2", "11", "12"],
            "edges": [
                {"from": "1", "label": 1, "to": "2"},
                {"from": "11", "label": 1, "to": "12"},
                {"from": "12", "label": 1, "to": "11"},
            ],
        }
        # the walk reads 1 and 2 and finds no more
        with pytest.raises(ValueError, match="^vertices are not those the root reaches$"):
            component_from_json_dict(data)

    @staticmethod
    def _json(root, vertices, edges):
        return {
            "kind": QUASI_CRYSTAL,
            "n": 3,
            "root": root,
            "vertices": vertices,
            "edges": [{"from": u, "label": i, "to": v} for u, i, v in edges],
        }

    def test_json_rejects_root_outside_vertices(self):
        data = self._json("3", ["1", "2"], [("1", 1, "2")])
        with pytest.raises(ValueError, match="root is not a vertex"):
            component_from_json_dict(data)

    def test_json_rejects_edge_target_outside_vertices(self):
        # the edge is the root's lowering edge, but the walk finds 2,
        # one vertex more than the graph has
        data = self._json("1", ["1"], [("1", 1, "2")])
        with pytest.raises(ValueError, match="^vertices are not those the root reaches$"):
            component_from_json_dict(data)

    def test_json_rejects_two_in_edges_with_one_label(self):
        # 23 is the 1-target of both 12 and 13; the root's edges are
        # read first, and f_2 does not act on 11
        data = self._json(
            "11",
            ["11", "12", "13", "23"],
            [("11", 1, "12"), ("11", 2, "13"), ("12", 1, "23"), ("13", 1, "23")],
        )
        with pytest.raises(
            ValueError, match="^out-edges of '11' are not its quasi-crystal lowering edges$"
        ):
            component_from_json_dict(data)

    def test_json_rejects_in_edge_to_root(self):
        # f_2(2) = 3, so the edge 2 -2-> 1 is no lowering edge
        data = self._json("1", ["1", "2"], [("1", 1, "2"), ("2", 2, "1")])
        with pytest.raises(
            ValueError, match="^out-edges of '2' are not its quasi-crystal lowering edges$"
        ):
            component_from_json_dict(data)

    def test_json_rejects_edges_of_the_other_kind(self):
        # 11 -1-> 22 is no crystal edge: f_1(11) = 12
        data = {
            "kind": CRYSTAL,
            "n": 2,
            "root": "11",
            "vertices": ["11", "22"],
            "edges": [{"from": "11", "label": 1, "to": "22"}],
        }
        with pytest.raises(ValueError, match="not its crystal lowering edges"):
            component_from_json_dict(data)

    @pytest.mark.parametrize("kind", [CRYSTAL, QUASI_CRYSTAL])
    def test_json_rejects_root_that_is_not_highest_weight(self, kind):
        # {12, 22} is closed under lowering, but e_1(12) = 11
        data = {
            "kind": kind,
            "n": 2,
            "root": "12",
            "vertices": ["12", "22"],
            "edges": [{"from": "12", "label": 1, "to": "22"}],
        }
        with pytest.raises(ValueError, match="not a highest-weight word"):
            component_from_json_dict(data)

    # the quasi-crystal component of 1 over 1..2: 1 -1-> 2
    _ONE_TWO = {
        "kind": QUASI_CRYSTAL,
        "n": 2,
        "root": "1",
        "vertices": ["1", "2"],
        "edges": [{"from": "1", "label": 1, "to": "2"}],
    }

    @pytest.mark.parametrize("label", [1.0, True, "1", None, [1]])
    def test_json_rejects_a_label_that_is_not_an_integer(self, label):
        data = {**self._ONE_TWO, "edges": [{"from": "1", "label": label, "to": "2"}]}
        with pytest.raises(ValueError, match="^i must be an integer"):
            component_from_json_dict(data)

    @pytest.mark.parametrize("label", [1.0, True])
    def test_constructor_rejects_a_label_that_is_not_an_integer(self, label):
        with pytest.raises(ValueError, match="^i must be an integer"):
            Component(QUASI_CRYSTAL, 2, (1,), {(1,): {label: (2,)}, (2,): {}})

    @pytest.mark.parametrize("out", [
        {(1,): {1: (2,)}, (2.0,): {}},
        {(1,): {1: (2.0,)}, (2,): {}},
        {(True,): {1: (2,)}, (2,): {}},
    ], ids=["float-vertex", "float-target", "bool-symbol"])
    def test_constructor_rejects_a_symbol_that_is_not_an_integer(self, out):
        """A dict finds 2.0 and True under the int keys 2 and 1, so only
        a check of the symbols themselves turns these words down."""
        with pytest.raises(ValueError, match="^entries must be positive integers$"):
            Component(QUASI_CRYSTAL, 2, (1,), out)

    def test_json_rejects_two_edges_with_one_source_and_label(self):
        data = {**self._ONE_TWO, "edges": [
            {"from": "1", "label": 1, "to": "1"},
            {"from": "1", "label": 1, "to": "2"},
        ]}
        with pytest.raises(ValueError, match="^two edges leave '1' with label 1$"):
            component_from_json_dict(data)

    def test_json_rejects_a_vertex_listed_twice(self):
        data = {**self._ONE_TWO, "vertices": ["1", "2", "1"]}
        with pytest.raises(ValueError, match="^vertex '1' is listed twice$"):
            component_from_json_dict(data)

    def test_json_rejects_an_edge_from_an_unlisted_vertex(self):
        data = {**self._ONE_TWO, "edges": [
            {"from": "1", "label": 1, "to": "2"},
            {"from": "11", "label": 1, "to": "12"},
        ]}
        with pytest.raises(ValueError, match="^edge from '11', which is not a listed vertex$"):
            component_from_json_dict(data)

    @pytest.mark.parametrize("field", ["root", "from", "to"])
    def test_json_rejects_a_word_that_is_not_a_string(self, field):
        data = {**self._ONE_TWO, "edges": [{"from": "1", "label": 1, "to": "2"}]}
        if field == "root":
            data["root"] = 1
        else:
            data["edges"][0][field] = int(data["edges"][0][field])
        with pytest.raises(ValueError, match="^a word in component JSON must be a string"):
            component_from_json_dict(data)

    @pytest.mark.parametrize("field", ["vertices", "edges"])
    def test_json_rejects_a_string_in_place_of_a_list(self, field):
        data = {**self._ONE_TWO, field: "12"}
        with pytest.raises(ValueError, match="^component vertices and edges must be JSON lists$"):
            component_from_json_dict(data)

    @pytest.mark.parametrize("field", ["kind", "n", "root", "vertices", "edges"])
    def test_json_rejects_a_missing_field(self, field):
        data = {k: v for k, v in self._ONE_TWO.items() if k != field}
        with pytest.raises(ValueError, match="^a component must be a JSON object with fields"):
            component_from_json_dict(data)

    @pytest.mark.parametrize("field", ["from", "label", "to"])
    def test_json_rejects_an_edge_missing_a_field(self, field):
        edge = {k: v for k, v in self._ONE_TWO["edges"][0].items() if k != field}
        with pytest.raises(ValueError, match="^each edge must be a JSON object"):
            component_from_json_dict({**self._ONE_TWO, "edges": [edge]})

    def test_json_quasi_flags(self):
        c = explore_component(parse_word("2111"), 4, CRYSTAL)
        data = component_to_json_dict(c)
        assert data["kind"] == CRYSTAL
        flags = {(e["from"], e["label"], e["to"]): e["quasi"] for e in data["edges"]}
        assert any(flags.values()) and not all(flags.values())
