import doctest
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from hypoplactic import operators, quasiribbon, words, young
from hypoplactic.cli import main

from helpers import two_in_edges_scan


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInsert:
    def test_hypoplactic_text(self, capsys):
        code, out, _ = run(capsys, "insert", "4323")
        assert code == 0
        assert "T:" in out and "R:" in out
        assert "3 3" in out

    def test_plactic_json(self, capsys):
        code, out, _ = run(capsys, "insert", "2213", "--kind", "plactic", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["P"]["rows"] == [[1, 2, 3], [2]]
        assert data["Q"]["rows"] == [[1, 2, 4], [3]]

    def test_rsk_alias(self, capsys):
        code, out, _ = run(capsys, "rsk", "2213", "--format", "json")
        assert code == 0
        assert json.loads(out)["P"]["rows"] == [[1, 2, 3], [2]]

    def test_empty_word(self, capsys):
        code, out, _ = run(capsys, "insert", "")
        assert code == 0
        assert "(empty)" in out

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "insert", "1,x,3")
        assert code == 1
        assert "error" in err

    def test_zero_digit_rejected(self, capsys):
        for argv in (["insert", "4320"], ["rsk", "10"], ["congruent", "4320", "4320"]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert "comma form" in err

    def test_non_ascii_digit_symbols_rejected(self, capsys):
        for text in ["+3", "\u0663", "3_1"]:
            code, out, err = run(capsys, "insert", text)
            assert code == 1 and out == ""
            assert "cannot parse word" in err

    def test_json_matches_library(self, capsys):
        from hypoplactic.quasiribbon import hypo_rsk
        from hypoplactic.words import parse_word

        code, out, _ = run(capsys, "insert", "12446553275", "--format", "json")
        assert code == 0
        data = json.loads(out)
        t, r = hypo_rsk(parse_word("12446553275"))
        assert data["T"] == t.to_json_dict()
        assert data["R"] == r.to_json_dict()


class TestComponent:
    def test_dot(self, capsys):
        from hypoplactic.graphs import QUASI_CRYSTAL, component_to_dot, explore_component

        code, out, _ = run(capsys, "component", "1212", "-n", "4", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph {")
        component = explore_component((1, 2, 1, 2), 4, QUASI_CRYSTAL)
        assert out == component_to_dot(component)
        assert out.count("->") == len(component.edges)

    def test_text_single_node(self, capsys):
        code, out, _ = run(capsys, "component", "321", "-n", "3", "--kind", "crystal")
        assert code == 0
        assert "vertices: 1" in out

    def test_empty_word(self, capsys):
        code, out, _ = run(capsys, "component", "", "-n", "2")
        assert code == 0
        assert "vertices: 1" in out

    def test_json_roundtrip(self, capsys):
        from hypoplactic.graphs import component_from_json_dict, component_to_json_dict

        code, out, _ = run(capsys, "component", "2111", "-n", "4", "--kind", "crystal", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert json.dumps(component_to_json_dict(component_from_json_dict(data))) == \
            json.dumps(data)

    def test_overlay_marks_edges(self, capsys):
        code, out, _ = run(
            capsys, "component", "2111", "-n", "4", "--kind", "crystal",
            "--overlay", "--format", "dot",
        )
        assert code == 0
        assert "style=dotted" in out

    def test_overlay_explores_once(self, capsys, monkeypatch):
        from hypoplactic import graphs

        calls = []
        explore = graphs.explore_component

        def counting_explore(*args):
            calls.append(args)
            return explore(*args)

        monkeypatch.setattr(graphs, "explore_component", counting_explore)
        for fmt, mark in (("text", "[crystal-only]"), ("dot", "style=dotted")):
            calls.clear()
            code, out, _ = run(
                capsys, "component", "2111", "-n", "4", "--kind", "crystal",
                "--overlay", "--format", fmt,
            )
            assert code == 0 and mark in out
            assert len(calls) == 1

    def test_overlay_leaves_json_unchanged(self, capsys, monkeypatch):
        # the JSON form flags quasi edges anyway, so --overlay splits nothing more
        from hypoplactic import graphs

        argv = ("component", "2111", "-n", "4", "--kind", "crystal", "--format", "json")
        plain = run(capsys, *argv)

        def split(component):
            raise AssertionError("split the overlay for the JSON form")

        monkeypatch.setattr(graphs, "_split_edges", split)
        assert run(capsys, *argv, "--overlay") == plain
        assert plain[0] == 0 and '"quasi": false' in plain[1]

    def test_overlay_requires_crystal(self, capsys):
        code, _, err = run(capsys, "component", "2111", "-n", "4", "--overlay")
        assert code == 1

    def test_overlay_refused_before_exploring(self, capsys, monkeypatch):
        from hypoplactic import graphs

        def explore(*args):
            raise AssertionError("explored before refusing --overlay")

        monkeypatch.setattr(graphs, "explore_component", explore)
        code, _, err = run(capsys, "component", "2111", "-n", "4", "--overlay")
        assert code == 1
        assert "--overlay only applies to --kind crystal" in err

    def test_out_of_range_symbol(self, capsys):
        code, _, err = run(capsys, "component", "45", "-n", "3")
        assert code == 1


class TestCongruent:
    def test_plactic(self, capsys):
        code, out, _ = run(capsys, "congruent", "2213", "2231", "--relation", "plac")
        assert code == 0 and out.strip() == "true"

    def test_sim_prints_roots(self, capsys):
        code, out, _ = run(capsys, "congruent", "1324", "3142", "-n", "4", "--relation", "sim")
        assert code == 0
        assert out.splitlines()[0] == "true"
        assert "highest_weight_u" in out

    def test_reflexive(self, capsys):
        code, out, _ = run(capsys, "congruent", "12", "12")
        assert code == 0 and out.strip() == "true"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "congruent", "12", "21", "--format", "json")
        assert (code, json.loads(out)) == (0, {"congruent": False})
        code, out, _ = run(
            capsys, "congruent", "1324", "3142", "-n", "4", "--relation", "sim", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {
            "congruent": True,
            "highest_weight_u": "1212",
            "highest_weight_v": "2121",
        }

    def test_hypo_false(self, capsys):
        code, out, _ = run(capsys, "congruent", "12", "21")
        assert code == 0 and out.strip() == "false"

    @pytest.mark.parametrize("argv, message", [
        (("12", "21", "--relation", "hypo", "-n", "1"), "word '12' has a symbol above 1"),
        (("1", "1", "--relation", "plac", "-n", "0"), "alphabet bound must be at least 1"),
        (("1", "13", "--relation", "sim", "-n", "2"), "word '13' has a symbol above 2"),
    ], ids=["hypo", "plac", "sim"])
    def test_checks_both_words_against_n(self, capsys, argv, message):
        code, out, err = run(capsys, "congruent", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestHighestWeight:
    def test_quasi(self, capsys):
        code, out, _ = run(capsys, "highest-weight", "2112", "-n", "3")
        assert code == 0 and out.strip() == "2112"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "highest-weight", "2113", "-n", "3", "--format", "json")
        assert (code, json.loads(out)) == (0, {"highest_weight": "2112"})

    def test_crystal(self, capsys):
        code, out, _ = run(capsys, "highest-weight", "1231", "-n", "3", "--kind", "crystal")
        assert code == 0
        from hypoplactic.words import parse_word
        from hypoplactic.young import is_yamanouchi

        assert is_yamanouchi(parse_word(out.strip()))


class TestCounts:
    def test_classsize(self, capsys):
        code, out, _ = run(capsys, "classsize", "2,1,1,2", "-n", "4")
        assert code == 0 and out.strip() == "19"

    def test_classsize_brute(self, capsys):
        code, out, _ = run(capsys, "classsize", "2,1,1,2", "-n", "4", "--brute")
        assert code == 0
        assert "formula: 19" in out and "brute: 19" in out

    def test_classsize_guard(self, capsys):
        code, _, err = run(capsys, "classsize", "6,6", "-n", "4", "--brute")
        assert code == 2

    def test_classsize_many_parts(self, capsys):
        code, out, _ = run(capsys, "classsize", ",".join(["1"] * 60))
        assert code == 0
        assert out == "1\n"

    def test_classsize_non_ascii_digit_parts_rejected(self, capsys):
        for text in ["1_0", "+2,1"]:
            code, out, err = run(capsys, "classsize", text)
            assert code == 1 and out == ""
            assert "cannot parse composition" in err

    def test_count_qrt(self, capsys):
        code, out, _ = run(capsys, "count-qrt", "2,2", "-n", "4", "--brute", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"formula": 15, "brute": 15}

    def test_count_components(self, capsys):
        code, out, _ = run(capsys, "count-components", "2,2", "-n", "4", "--brute")
        assert code == 0
        assert "formula: 1" in out and "brute: 1" in out

    def test_count_components_rejects_composition(self, capsys):
        code, _, err = run(capsys, "count-components", "1,2", "-n", "4")
        assert code == 1

    def test_missing_n(self, capsys):
        code, _, err = run(capsys, "count-qrt", "2,2")
        assert code == 1

    @pytest.mark.parametrize("argv, message", [
        (("count-qrt", "1,1", "-n", "1000000"),
         "C(1000000, 2) = 499999500000 fillings is beyond the enumeration cap of 200000"),
        (("count-qrt", "1,1,1,1,1,1,1,1,1,1", "-n", "60"),
         "C(60, 10) = 75394027566 fillings is beyond the enumeration cap of 200000"),
        (("count-components", "3000", "-n", "3"),
         "3^3000 words is beyond the enumeration cap of 200000"),
        (("count-components", "10000", "-n", "3"),
         "3^10000 words is beyond the enumeration cap of 200000"),
        (("count-components", "100000000", "-n", "3"),
         "3^100000000 words is beyond the enumeration cap of 200000"),
    ])
    def test_brute_oracle_over_its_cap_is_exit_2(self, capsys, argv, message):
        """Each is refused before it enumerates, with the count and the
        cap: 3^10000 has more digits than an int may print, and
        3^100000000 takes long to build."""
        code, out, err = run(capsys, *argv, "--brute")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_brute_mismatch_is_exit_3(self, capsys, monkeypatch, fmt):
        # the parser reads the oracle off the module on every call
        from hypoplactic import counting

        monkeypatch.setattr(counting, "count_qrt_brute", lambda shape, n: 14)
        code, out, err = run(capsys, "count-qrt", "2,2", "-n", "4", "--brute", "--format", fmt)
        assert (code, err) == (3, "oracle mismatch\n")
        if fmt == "json":
            assert json.loads(out) == {"formula": 15, "brute": 14}
        else:
            assert out == "formula: 15\nbrute: 14\n"


class TestVerify:
    def test_golden_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "golden")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("ok ") >= 8

    def test_all_suites(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "FAIL" not in out

    GRAPHS_LABELS = [
        "crystal component of 2111 splits at 2111, 2112, 2122",
        "position-in-component relation matches congruence",
        "xyxy = yxyx for words x, y over 1..3 of length <= 3",
        "g = 321 conjugates u and v of equal weight: ug = gv, gu = vg",
        "the involution reverses quasi edges: u -i-> v gives xi(v) -(3-i)-> xi(u)",
        "a permutation is a quasi-ribbon word iff it reverses its decreasing blocks, N <= 6",
        "crystal roots are kashiwara_e raising and rsk_inverse undoes rsk, words over 1..3 up to length 4",
    ]

    def test_graphs_suite_checks_each_result(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "graphs")
        assert code == 0
        assert out.splitlines() == [f"ok [graphs] {label}" for label in self.GRAPHS_LABELS]

    @pytest.mark.parametrize("module, name, fake, label", [
        (quasiribbon, "hypo_congruent", lambda u, v: u == v, 2),
        (words, "weight", lambda w: (), 3),
        (operators, "quasi_f", lambda w, i: None, 4),
        (quasiribbon, "is_quasi_ribbon_word", lambda w: True, 5),
        (operators, "kashiwara_e", lambda w, i: None, 6),
        (young, "rsk_inverse", lambda P, Q: (), 6),
    ], ids=["xyxy", "conjugacy", "involution", "interval-reversing", "crystal-root",
            "rsk-inverse"])
    def test_graphs_suite_fails_when_a_result_breaks(self, capsys, monkeypatch,
                                                     module, name, fake, label):
        """Each result is computed from the library on every run: a
        broken construction prints FAIL on its line and exits 3."""
        monkeypatch.setattr(module, name, fake)
        code, out, _ = run(capsys, "verify", "--suite", "graphs")
        assert code == 3
        assert f"FAIL [graphs] {self.GRAPHS_LABELS[label]}" in out.splitlines()

    def test_laws_suite_fails_when_quasi_ignores_inversions(self, capsys, monkeypatch):
        """The laws suite checks the quasi operators against their
        definition, so a lowering that acts through an i-inversion
        prints FAIL on that line and exits 3."""
        monkeypatch.setattr(operators, "quasi_f", operators.kashiwara_f)
        code, out, _ = run(capsys, "verify", "--suite", "laws")
        assert code == 3
        assert ("FAIL [laws] quasi operators are undefined on an i-inversion, "
                "else move the leftmost i+1 or rightmost i") in out.splitlines()


# Each flag a subcommand does not read, which the parser used to accept
# and ignore on every subcommand.
UNREAD_FLAGS = [
    ("insert", "4323", "-n", "2"),
    ("insert", "4323", "--brute"),
    ("insert", "4323", "--overlay"),
    ("rsk", "21", "-n", "2"),
    ("rsk", "21", "--brute"),
    ("rsk", "21", "--overlay"),
    ("component", "12", "-n", "2", "--brute"),
    ("congruent", "12", "21", "--brute"),
    ("congruent", "12", "21", "--overlay"),
    ("highest-weight", "12", "--brute"),
    ("highest-weight", "12", "--overlay"),
    ("classsize", "2,1", "--overlay"),
    ("count-qrt", "2,2", "-n", "4", "--overlay"),
    ("count-components", "2,2", "-n", "4", "--overlay"),
    ("verify", "-n", "9"),
    ("verify", "--format", "json"),
    ("verify", "--brute"),
    ("verify", "--overlay"),
]

DOT_OUTSIDE_COMPONENT = [
    ("insert", "4323"),
    ("rsk", "21"),
    ("congruent", "12", "21"),
    ("highest-weight", "12"),
    ("classsize", "2,1"),
    ("count-qrt", "2,2", "-n", "4"),
    ("count-components", "2,2", "-n", "4"),
]


def readme_block(section, language):
    """The first ``language`` code block of README's ``section``."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return re.search(rf"## {section}.*?```{language}\n(.*?)```", readme, re.S).group(1)


def readme_commands():
    """The argv of every ``hypoplactic`` line in README's command-line
    block, comments stripped."""
    return [
        shlex.split(line, comments=True)[1:]
        for line in readme_block("Command line", "sh").splitlines()
        if line.startswith("hypoplactic ")
    ]


def test_readme_python_tour_runs():
    """README's quick tour of the library, run as a doctest."""
    tour = readme_block("Library layout", "python")
    test = doctest.DocTestParser().get_doctest(tour, {}, "README quick tour", "README.md", 0)
    assert doctest.DocTestRunner(optionflags=doctest.REPORT_NDIFF).run(test) == (0, 10)


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    @pytest.mark.parametrize("argv", UNREAD_FLAGS, ids=" ".join)
    def test_unread_flag_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv", DOT_OUTSIDE_COMPONENT, ids=" ".join)
    def test_dot_only_for_component(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--format", "dot")
        assert code == 1 and out == ""
        assert err.startswith("error: argument --format: invalid choice: 'dot'")

    def test_readme_commands_run(self, capsys):
        commands = readme_commands()
        assert len(commands) >= 10
        for argv in commands:
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv


class TestInternalCheck:
    def test_assertion_maps_to_exit_3(self, capsys, monkeypatch):
        from hypoplactic import graphs

        def broken(w, n, kind):
            raise AssertionError("root not reached")

        monkeypatch.setattr(graphs, "explore_component", broken)
        code, out, err = run(capsys, "component", "1212", "-n", "4")
        assert code == 3
        assert out == ""
        assert err == "error: internal check failed: root not reached\n"

    def test_walk_invariant_maps_to_exit_3(self, capsys, monkeypatch):
        from hypoplactic import graphs

        monkeypatch.setattr(graphs, "_bracket_scan", two_in_edges_scan)
        code, out, err = run(capsys, "component", "11", "-n", "3")
        assert code == 3
        assert out == ""
        assert err == "error: internal check failed: some vertex has two in-edges with one label\n"


def test_import_leaves_dataclasses_out():
    """Start-up stays short: importing the CLI loads no ``dataclasses``
    (which pulls in ``inspect``)."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import hypoplactic.cli; "
        "print('dataclasses' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
