"""Command-line front door.

Every subcommand is a thin adapter over the library; results are
byte-for-byte what the corresponding library calls produce.  Exit
codes: 0 success, 1 usage or parse error, 2 enumeration guard
violation, 3 oracle mismatch (a formula and its brute-force oracle
disagree, a verify check fails, or an internal check of the library
fails).
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import permutations
from typing import Optional

from . import counting, graphs, operators, quasiribbon, words, young
from .counting import TooLargeError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARD = 2
EXIT_MISMATCH = 3


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hypoplactic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, func, *, n=False, formats=("text", "json"), brute=False, **defaults):
        # Each subcommand declares only the flags its handler reads.
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, **defaults)
        if n:
            p.add_argument("-n", type=int, default=None, help="alphabet bound")
        if formats:
            p.add_argument("--format", choices=formats, default="text", help="output format")
        if brute:
            p.add_argument("--brute", action="store_true", help="also run the brute-force oracle")
        return p

    p = add("insert", "insert a word into a tableau pair", _cmd_insert)
    p.add_argument("word")
    p.add_argument("--kind", choices=["plactic", "hypoplactic"], default="hypoplactic")

    p = add("rsk", "classical insertion (alias for insert --kind plactic)", _cmd_insert,
            kind="plactic")
    p.add_argument("word")

    p = add("component", "explore a (quasi-)crystal component", _cmd_component, n=True,
            formats=("text", "json", "dot"))
    p.add_argument("word")
    p.add_argument("--kind", choices=["crystal", "quasi"], default="quasi")
    p.add_argument("--overlay", action="store_true", help="mark crystal-only edges")

    p = add("congruent", "decide a congruence between two words", _cmd_congruent, n=True)
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--relation", choices=["plac", "hypo", "sim"], default="hypo")

    p = add("highest-weight", "raise a word to its component's root", _cmd_highest_weight,
            n=True)
    p.add_argument("word")
    p.add_argument("--kind", choices=["crystal", "quasi"], default="quasi")

    # Each count sets its formula, its brute-force oracle and its bound
    # when -n is not given; a count without that bound requires -n.
    p = add("classsize", "size of the hypoplactic class of a shape", _cmd_count, n=True,
            brute=True, formula=counting.hypo_class_size, oracle=counting.hypo_class_size_brute,
            bound=lambda shape: max(len(shape), 1))
    p.add_argument("shape")

    p = add("count-qrt", "count quasi-ribbon tableaux of a shape", _cmd_count, n=True,
            brute=True, formula=counting.count_qrt, oracle=counting.count_qrt_brute, bound=None)
    p.add_argument("shape")

    p = add("count-components",
            "count isomorphic crystal components containing quasi-ribbon words", _cmd_count,
            n=True, brute=True, formula=counting.count_iso_plac_components_with_qrw,
            oracle=counting.count_iso_plac_components_with_qrw_brute, bound=None)
    p.add_argument("shape", help="partition")

    p = add("verify", "run built-in consistency checks", _cmd_verify, formats=())
    p.add_argument(
        "--suite",
        choices=["golden", "laws", "counts", "graphs", "all"],
        default="all",
    )

    return parser


def _bound(args, default: Optional[int]) -> int:
    """The alphabet bound: ``-n`` when it is given, else ``default``;
    a command with no default requires ``-n``."""
    if args.n is not None:
        return args.n
    if default is None:
        raise _UsageError("this command requires -n")
    return default


def _cmd_insert(args) -> int:
    w = words.parse_word(args.word)
    if args.kind == "plactic":
        pair = zip("PQ", young.rsk(w))
    else:
        pair = zip("TR", quasiribbon.hypo_rsk(w))
    if args.format == "json":
        print(json.dumps({key: tableau.to_json_dict() for key, tableau in pair}))
    else:
        for key, tableau in pair:
            print(f"{key}:")
            print(tableau.ascii())
    return EXIT_OK


def _cmd_component(args) -> int:
    w = words.parse_word(args.word)
    n = _bound(args, max(w, default=1))
    if args.overlay and args.kind != graphs.CRYSTAL:
        raise _UsageError("--overlay only applies to --kind crystal")
    component = graphs.explore_component(w, n, args.kind)
    if args.format == "json":
        # the JSON form flags the quasi edges whether or not --overlay is given
        print(json.dumps(graphs.component_to_json_dict(component)))
        return EXIT_OK
    if args.format == "dot":
        dotted = graphs._split_edges(component)[1] if args.overlay else []
        sys.stdout.write(graphs.component_to_dot(component, dotted))
    else:
        print(f"kind: {component.kind}")
        print(f"n: {component.n}")
        print(f"root: {words.format_word(component.root)}")
        print(f"vertices: {len(component)}")
        order = component.canonical_order()
        for u, mask, row in component._sorted_rows():
            source = words.format_word(u)
            for i, j in row:
                mark = "  [crystal-only]" if args.overlay and mask >> i & 1 else ""
                print(f"{source} -{i}-> {words.format_word(order[j])}{mark}")
    return EXIT_OK


_RELATIONS = {
    "plac": lambda u, v, n: young.plactic_congruent(u, v),
    "hypo": lambda u, v, n: quasiribbon.hypo_congruent(u, v),
    "sim": graphs.sim_related,
}


def _cmd_congruent(args) -> int:
    u = words.parse_word(args.u)
    v = words.parse_word(args.v)
    n = _bound(args, max(u + v, default=1))
    words.check_alphabet(u, n)
    words.check_alphabet(v, n)
    verdict = _RELATIONS[args.relation](u, v, n)
    extra = {}
    if args.relation == "sim":
        for key, w in (("highest_weight_u", u), ("highest_weight_v", v)):
            extra[key] = words.format_word(graphs.highest_weight_word(w, n, graphs.QUASI_CRYSTAL))
    if args.format == "json":
        print(json.dumps({"congruent": verdict, **extra}))
    else:
        print("true" if verdict else "false")
        for key, value in extra.items():
            print(f"{key}: {value}")
    return EXIT_OK


def _cmd_highest_weight(args) -> int:
    w = words.parse_word(args.word)
    n = _bound(args, max(w, default=1))
    result = graphs.highest_weight_word(w, n, args.kind)
    if args.format == "json":
        print(json.dumps({"highest_weight": words.format_word(result)}))
    else:
        print(words.format_word(result))
    return EXIT_OK


def _cmd_count(args) -> int:
    shape = words.parse_composition(args.shape)
    n = _bound(args, args.bound(shape) if args.bound else None)
    counts = {"formula": args.formula(shape, n)}
    if args.brute:
        counts["brute"] = args.oracle(shape, n)
    if args.format == "json":
        print(json.dumps(counts))
    elif args.brute:
        for key, count in counts.items():
            print(f"{key}: {count}")
    else:
        print(counts["formula"])
    if args.brute and counts["brute"] != counts["formula"]:
        print("oracle mismatch", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _sim_key(w: words.Word, n: int) -> tuple:
    """The definition of ~, which ``graphs.sim_related`` decides by the
    theorem: two words are related when their quasi-crystal components
    have equal signatures and the words have equal positions in them."""
    component = graphs.explore_component(w, n, graphs.QUASI_CRYSTAL)
    return component.signature(), component.index_of(w)


def _verify_golden() -> list[tuple[str, bool]]:
    checks = []
    checks.append((
        "standardize(243245565) = 143256798",
        words.standardize(words.parse_word("243245565")) == words.parse_word("143256798"),
    ))
    checks.append((
        "descent composition of 143256798 is (2,1,5,1)",
        words.descent_composition(words.parse_word("143256798")) == (2, 1, 5, 1),
    ))
    checks.append((
        "weight(542164325224) = (1,4,1,3,2,1)",
        words.weight(words.parse_word("542164325224")) == (1, 4, 1, 3, 2, 1),
    ))
    t, r = quasiribbon.hypo_rsk(words.parse_word("4323"))
    checks.append((
        "insertion pair of 4323",
        t.rows == [(2,), (3, 3), (4,)] and r.rows == [(3,), (2, 4), (1,)],
    ))
    checks.append((
        "f_1(3113) = 3123",
        operators.quasi_f((3, 1, 1, 3), 1) == (3, 1, 2, 3),
    ))
    checks.append((
        "highest-weight word of shape (3,1,5,2)",
        quasiribbon.highest_weight_qrw((3, 1, 5, 2)) == words.parse_word("11321333434"),
    ))
    checks.append((
        "1324 ~ 3142 over 4 symbols",
        _sim_key((1, 3, 2, 4), 4) == _sim_key((3, 1, 4, 2), 4)
        and quasiribbon.hypo_congruent((1, 3, 2, 4), (3, 1, 4, 2)),
    ))
    checks.append((
        "2213 and 2231 share an insertion tableau",
        young.plactic_congruent((2, 2, 1, 3), (2, 2, 3, 1)),
    ))
    return checks


def _verify_laws() -> list[tuple[str, bool]]:
    kashiwara_e, kashiwara_f = operators.kashiwara_e, operators.kashiwara_f
    quasi_e, quasi_f = operators.quasi_e, operators.quasi_f

    ok_inverse = ok_definition = ok_weight = True
    for length in range(5):
        for w in words.words_over(3, length):
            for i in (1, 2):
                for e_op, f_op in ((kashiwara_e, kashiwara_f), (quasi_e, quasi_f)):
                    up = e_op(w, i)
                    if up is not None:
                        ok_inverse &= f_op(up, i) == w
                        ok_weight &= words.weight_leq(words.weight(w), words.weight(up))
                        ok_weight &= words.weight(w) != words.weight(up)
                ups = [p for p, a in enumerate(w) if a == i + 1]
                downs = [p for p, a in enumerate(w) if a == i]
                inversion = ups and downs and ups[0] < downs[-1]  # some i+1 left of some i
                ok_definition &= (quasi_e(w, i), quasi_f(w, i), operators.quasi_counts(w, i)) == (
                    None if inversion or not ups else w[:ups[0]] + (i,) + w[ups[0] + 1:],
                    None if inversion or not downs else w[:downs[-1]] + (i + 1,) + w[downs[-1] + 1:],
                    (0, 0) if inversion else (len(ups), len(downs)),
                )
    return [
        ("raising and lowering are mutually inverse", ok_inverse),
        ("quasi operators are undefined on an i-inversion, else move the leftmost i+1 or rightmost i",
         ok_definition),
        ("raising strictly raises weight", ok_weight),
    ]


def _verify_counts() -> list[tuple[str, bool]]:
    checks = [
        ("class size of (2,1,1,2) is 19", counting.hypo_class_size((2, 1, 1, 2), 4) == 19),
        ("class size of (1,2,2,1) is 61", counting.hypo_class_size((1, 2, 2, 1), 4) == 61),
    ]
    ok = True
    for total in range(1, 5):
        for alpha in words.compositions(total):
            for n in (3, 4):
                ok &= counting.hypo_class_size(alpha, n) == counting.hypo_class_size_brute(alpha, n)
                ok &= counting.count_qrt(alpha, n) == counting.count_qrt_brute(alpha, n)
            ok &= counting.novelli_recursion_check(alpha, 4)
    checks.append(("formulas match oracles up to weight 4", ok))
    return checks


def _verify_graphs() -> list[tuple[str, bool]]:
    checks = []
    component = graphs.explore_component((2, 1, 1, 1), 4, graphs.CRYSTAL)
    roots = {
        graphs.highest_weight_word(v, 4, graphs.QUASI_CRYSTAL)
        for v in component.vertices
    }
    checks.append((
        "crystal component of 2111 splits at 2111, 2112, 2122",
        roots == {(2, 1, 1, 1), (2, 1, 1, 2), (2, 1, 2, 2)},
    ))
    ok_theorem = True
    for length in range(4):
        keys = {w: _sim_key(w, 3) for w in words.words_over(3, length)}
        for u in keys:
            for v in keys:
                ok_theorem &= (keys[u] == keys[v]) == quasiribbon.hypo_congruent(u, v)
    checks.append(("position-in-component relation matches congruence", ok_theorem))

    small = [w for length in range(4) for w in words.words_over(3, length)]
    congruent = quasiribbon.hypo_congruent
    checks.append((
        "xyxy = yxyx for words x, y over 1..3 of length <= 3",
        all(congruent(x + y + x + y, y + x + y + x) for x in small for y in small),
    ))
    g = (3, 2, 1)
    checks.append((
        "g = 321 conjugates u and v of equal weight: ug = gv, gu = vg",
        all(congruent(u + g, g + v) and congruent(g + u, v + g)
            for u in small for v in small if words.weight(u) == words.weight(v)),
    ))

    ok_involution = True
    seen = set()
    for length in range(5):
        for w in words.words_over(3, length):
            if w in seen:
                continue
            component = graphs.explore_component(w, 3, graphs.QUASI_CRYSTAL)
            seen |= component.vertices
            for u, i, v in component.edges:
                image_source = words.schuetzenberger_involution(v, 3)
                image_target = words.schuetzenberger_involution(u, 3)
                ok_involution &= operators.quasi_f(image_source, 3 - i) == image_target
    checks.append((
        "the involution reverses quasi edges: u -i-> v gives xi(v) -(3-i)-> xi(u)",
        ok_involution,
    ))

    ok_blocks = True
    for size in range(7):
        for p in permutations(range(1, size + 1)):
            reversed_blocks, start = [], 0
            for factor in words.max_decreasing_factorization(p):
                reversed_blocks.extend(range(start + len(factor), start, -1))
                start += len(factor)
            ok_blocks &= quasiribbon.is_quasi_ribbon_word(p) == (tuple(reversed_blocks) == p)
    checks.append((
        "a permutation is a quasi-ribbon word iff it reverses its decreasing blocks, N <= 6",
        ok_blocks,
    ))

    ok_roots = True
    for length in range(5):
        for w in words.words_over(3, length):
            top, i = w, 1  # greedy raising: from label 1 again after each step
            while i < 3:
                up = operators.kashiwara_e(top, i)
                top, i = (up, 1) if up is not None else (top, i + 1)
            ok_roots &= graphs.highest_weight_word(w, 3, graphs.CRYSTAL) == top
            ok_roots &= young.rsk_inverse(*young.rsk(w)) == w
    checks.append((
        "crystal roots are kashiwara_e raising and rsk_inverse undoes rsk, words over 1..3 up to length 4",
        ok_roots,
    ))
    return checks


def _cmd_verify(args) -> int:
    suites = {
        "golden": _verify_golden,
        "laws": _verify_laws,
        "counts": _verify_counts,
        "graphs": _verify_graphs,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        for label, ok in suites[name]():
            print(f"{'ok' if ok else 'FAIL'} [{name}] {label}")
            failed |= not ok
    return EXIT_MISMATCH if failed else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
