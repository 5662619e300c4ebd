"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Every comparison is exact; the whole module is budgeted to run
in well under two minutes."""

import random
from collections import defaultdict

from hypoplactic.counting import (
    count_qrt,
    count_qrt_brute,
    hypo_class_members,
    hypo_class_size,
    hypo_class_size_brute,
    novelli_recursion_check,
)
from hypoplactic.graphs import (
    CRYSTAL,
    QUASI_CRYSTAL,
    explore_component,
    highest_weight_word,
    sim_related,
)
from hypoplactic.operators import (
    kashiwara_e,
    kashiwara_f,
    quasi_e,
    quasi_f,
)
from hypoplactic.quasiribbon import (
    QuasiRibbonTableau,
    RecordingRibbon,
    highest_weight_qrw,
    hypo_congruent,
    hypo_rsk,
    hypo_rsk_inverse,
    hypoplactic_relations,
    is_quasi_ribbon_word,
    predicted_shape,
    qr_tabloid_of,
    slide_up_slide_left,
    standard_ribbon,
)
from hypoplactic.words import (
    compositions,
    descent_composition,
    parse_word,
    schuetzenberger_involution,
    standardize,
    weight,
    weight_leq,
    words_over,
)
from hypoplactic.young import (
    StandardYoungTableau,
    YoungTableau,
    plactic_congruent,
    rsk,
)

from helpers import sim_key, words_up_to


def report(number, name, ok):
    print(f"ACCEPTANCE {number:02d} [{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, f"acceptance criterion {number} failed: {name}"


KNOWN_CLASS_143214 = {
    parse_word(text)
    for text in [
        "143214", "413214", "431214", "432114",
        "143241", "413241", "431241", "432141",
        "143421", "413421", "431421", "432411",
        "144321", "414321", "434121", "434211",
        "441321", "443121", "443211",
    ]
}


def test_01_class_size_worked_examples():
    ok = hypo_class_size((2, 1, 1, 2), 4) == 19
    ok &= set(hypo_class_members((2, 1, 1, 2), 4)) == KNOWN_CLASS_143214
    ok &= parse_word("143214") in KNOWN_CLASS_143214
    ok &= hypo_class_size((1, 2, 2, 1), 4) == 61
    report(1, "class-size worked examples (19 and 61)", ok)


def test_02_class_size_formula_vs_oracle():
    ok = True
    for total in range(1, 7):
        for alpha in compositions(total):
            for n in (3, 4, 5):
                ok &= hypo_class_size(alpha, n) == hypo_class_size_brute(alpha, n)
    report(2, "class-size formula equals brute force, |shape| <= 6, n in 3..5", ok)


def test_03_count_qrt():
    ok = True
    for total in range(1, 7):
        for alpha in compositions(total):
            for n in range(1, 6):
                formula = count_qrt(alpha, n)
                ok &= formula == count_qrt_brute(alpha, n)
                if len(alpha) <= n:
                    component = explore_component(
                        highest_weight_qrw(alpha), n, QUASI_CRYSTAL
                    )
                    ok &= formula == len(component)
    report(3, "tableau counting formula vs generation and component size", ok)


def test_04_novelli_recursion():
    ok = all(
        novelli_recursion_check(alpha, 4)
        for total in range(1, 7)
        for alpha in compositions(total)
    )
    report(4, "coarsening sum of class sizes gives the multinomial, |shape| <= 6", ok)


def test_05_central_theorem():
    ok = True
    rng = random.Random(51)
    for length in range(6):
        by_weight = defaultdict(list)
        for w in words_over(3, length):
            by_weight[weight(w)].append(w)
        for group in by_weight.values():
            sim_keys = {w: sim_key(w, 3) for w in group}
            for u in group:
                for v in group:
                    ok &= (sim_keys[u] == sim_keys[v]) == hypo_congruent(u, v)
            # spot-check the pairwise operation against the definition
            for _ in range(3):
                u, v = rng.choice(group), rng.choice(group)
                ok &= sim_related(u, v, 3) == (sim_keys[u] == sim_keys[v])
    report(5, "same position in isomorphic components iff congruent, A_3 len <= 5", ok)


def test_06_recording_ribbon_theorem():
    ok = True
    for length in range(6):
        roots = {}
        ribbons = {}
        for w in words_over(3, length):
            roots[w] = highest_weight_word(w, 3, QUASI_CRYSTAL)
            ribbons[w] = hypo_rsk(w)[1]
        group = list(roots)
        for u in group:
            for v in group:
                ok &= (roots[u] == roots[v]) == (ribbons[u] == ribbons[v])
    report(6, "same component iff same recording ribbon, A_3 len <= 5", ok)


def test_07_rsk_roundtrips():
    ok = True
    for w in words_up_to(4, 5):
        ok &= hypo_rsk_inverse(*hypo_rsk(w)) == w
    seen = {}
    for w in words_up_to(3, 6):
        pair = rsk(w)
        ok &= pair not in seen
        seen[pair] = w
    report(7, "insertion correspondences invert and are injective", ok)


def test_08_golden_values():
    ok = standardize(parse_word("243245565")) == parse_word("143256798")
    ok &= descent_composition(parse_word("143256798")) == (2, 1, 5, 1)
    ok &= weight(parse_word("542164325224")) == (1, 4, 1, 3, 2, 1)

    t, r = hypo_rsk(parse_word("4323"))
    ok &= t == QuasiRibbonTableau.from_rows([[2], [3, 3], [4]])
    ok &= r == RecordingRibbon.from_rows([[3], [2, 4], [1]])

    eq42 = QuasiRibbonTableau.from_rows([[1, 2, 2], [3], [4, 4, 5, 5, 5], [6, 7]])
    eq44 = RecordingRibbon.from_rows([[1, 2, 9], [8], [3, 4, 6, 7, 11], [5, 10]])
    ok &= hypo_rsk_inverse(eq42, eq44) == parse_word("12446553275")
    ok &= hypo_rsk(parse_word("12446553275")) == (eq42, eq44)

    big = hypo_rsk(parse_word("1325436768"))[0]
    ok &= slide_up_slide_left(big) == YoungTableau([[1, 2, 3, 6, 6, 8], [3, 4, 7], [5]])
    ok &= slide_up_slide_left(standard_ribbon(big.shape)) == StandardYoungTableau(
        [[1, 2, 4, 7, 8, 10], [3, 5, 9], [6]]
    )

    ok &= highest_weight_qrw((3, 1, 5, 2)) == parse_word("11321333434")
    ok &= quasi_f(parse_word("3113"), 1) == parse_word("3123")
    ok &= sim_key(parse_word("1324"), 4) == sim_key(parse_word("3142"), 4)
    ok &= sim_related(parse_word("1324"), parse_word("3142"), 4)
    ok &= plactic_congruent(parse_word("2213"), parse_word("2231"))
    report(8, "golden values from the worked examples", ok)


def _operator_laws_hold(w, labels):
    for i in labels:
        for raise_op, lower_op in ((kashiwara_e, kashiwara_f), (quasi_e, quasi_f)):
            up = raise_op(w, i)
            if up is not None:
                if lower_op(up, i) != w:
                    return False
                if not weight_leq(weight(w), weight(up)) or weight(w) == weight(up):
                    return False
            down = lower_op(w, i)
            if down is not None and raise_op(down, i) != w:
                return False
        q_up, q_down = quasi_e(w, i), quasi_f(w, i)
        if q_up is not None:
            if kashiwara_e(w, i) != q_up:
                return False
            if standardize(q_up) != standardize(w):
                return False
        if q_down is not None:
            if kashiwara_f(w, i) != q_down:
                return False
            if standardize(q_down) != standardize(w):
                return False
        shape = qr_tabloid_of(w).shape
        for op in (kashiwara_e, kashiwara_f):
            out = op(w, i)
            if out is not None and qr_tabloid_of(out).shape != shape:
                return False
    return True


def test_09_operator_laws():
    ok = all(_operator_laws_hold(w, (1, 2)) for w in words_up_to(3, 5))
    rng = random.Random(20250810)
    for _ in range(1000):
        w = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 8)))
        ok &= _operator_laws_hold(w, (1, 2, 3, 4))
    report(9, "operator laws, exhaustive small plus 1000 random words", ok)


def _rewrite_neighbours(w, rules):
    for left, right in rules:
        span = len(left)
        for start in range(len(w) - span + 1):
            if w[start:start + span] == left:
                yield w[:start] + right + w[start + span:]


def _congruence_class(w, rules):
    seen = {w}
    stack = [w]
    while stack:
        u = stack.pop()
        for v in _rewrite_neighbours(u, rules):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def test_10_presentation_consistency():
    relations = hypoplactic_relations(3)
    ok = all(hypo_congruent(left, right) for left, right in relations)
    rules = relations + [(right, left) for left, right in relations]
    done = set()
    for w in words_up_to(3, 4):
        if w in done:
            continue
        closure = _congruence_class(w, rules)
        tableau_class = {
            u for u in words_over(3, len(w)) if hypo_rsk(u)[0] == hypo_rsk(w)[0]
        }
        ok &= closure == tableau_class
        done |= closure
    report(10, "defining relations generate exactly tableau equality, A_3 len <= 4", ok)


def test_11_identity():
    small = list(words_up_to(3, 3))
    ok = all(hypo_congruent(x + y + x + y, y + x + y + x) for x in small for y in small)
    report(11, "the four-letter commutation identity holds, A_3 factors len <= 3", ok)


def test_12_structure_checks():
    component = explore_component(parse_word("2111"), 4, CRYSTAL)
    quasi_roots = set()
    covered = set()
    for v in component.vertices:
        if v not in covered:
            quasi = explore_component(v, 4, QUASI_CRYSTAL)
            covered |= quasi.vertices
            quasi_roots.add(quasi.root)
    ok = covered == component.vertices
    ok &= quasi_roots == {parse_word("2111"), parse_word("2112"), parse_word("2122")}

    for w in words_up_to(3, 4):
        crystal = explore_component(w, 3, CRYSTAL)
        qrw_roots = {
            highest_weight_word(v, 3, QUASI_CRYSTAL)
            for v in crystal.vertices
            if is_quasi_ribbon_word(v)
        }
        ok &= len(qrw_roots) <= 1

    seen = set()
    for w in words_up_to(3, 4):
        if w in seen:
            continue
        quasi = explore_component(w, 3, QUASI_CRYSTAL)
        seen |= quasi.vertices
        for u, i, v in quasi.edges:
            image_source = schuetzenberger_involution(v, 3)
            ok &= quasi_f(image_source, 3 - i) == schuetzenberger_involution(u, 3)
    report(12, "component decomposition, unique ribbon piece, involution reversal", ok)
