"""The package's public names, the README tour of them, and a rule its
source keeps.

The export list is pinned here, so that adding or removing a public
name shows in a test's diff.  The tour in ``README.md`` runs as a
doctest, so a change of behaviour it shows fails here.  The internal
checks raise AssertionError explicitly: an ``assert`` statement is
stripped under ``python -O``, where ``hypoplactic.cli verify`` must
still fail on a broken check.
"""

import ast
import doctest
import types
from pathlib import Path

import hypoplactic

SOURCE = Path(hypoplactic.__file__).parent

EXPORTS = [
    "BracketReduction", "CRYSTAL", "Component", "QUASI_CRYSTAL",
    "QuasiRibbonTableau", "QuasiRibbonTabloid", "RecordingRibbon",
    "StandardYoungTableau", "Tabloid", "TooLargeError", "YoungTableau",
    "bracket_reduce", "coarsenings", "coarser", "column_reading",
    "component_from_json_dict", "component_to_dot", "component_to_json_dict",
    "compositions", "count_iso_plac_components_with_qrw",
    "count_iso_plac_components_with_qrw_brute", "count_qrt", "count_qrt_brute",
    "crystal_overlay", "descent_composition", "descent_set",
    "explore_component", "factorization_count", "format_composition",
    "format_word", "has_inversion", "highest_weight_qrw", "highest_weight_word",
    "hypo_class_members", "hypo_class_size", "hypo_class_size_brute",
    "hypo_congruent", "hypo_rsk", "hypo_rsk_inverse", "hypoplactic_relations",
    "inverse_permutation", "is_highest_weight_hypo", "is_quasi_ribbon_word",
    "is_standard", "is_tableau_word", "is_yamanouchi", "kashiwara_counts",
    "kashiwara_e", "kashiwara_f", "kt_insert", "max_decreasing_factorization",
    "multinomial", "novelli_recursion_check", "parse_composition", "parse_word",
    "plac_component_contains_qrw", "plactic_congruent", "plactic_relations",
    "predicted_shape", "qr_column_reading", "qr_tableaux_of_shape",
    "qr_tabloid_of", "quasi_counts", "quasi_e", "quasi_f", "rsk",
    "rsk_inverse", "same_recording_ribbon", "schensted_insert", "schuetzenberger_involution",
    "sim_related", "slide_up_slide_left", "standard_ribbon", "standardize",
    "tabloid_of", "weight", "weight_leq", "words_of_weight", "words_over",
]


def test_public_names():
    exported = sorted(
        name for name in dir(hypoplactic)
        if not name.startswith("_") and not isinstance(getattr(hypoplactic, name), types.ModuleType)
    )
    assert exported == EXPORTS
    assert len(EXPORTS) == 79


def test_readme_tour_runs_as_a_doctest():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    failed, attempted = doctest.testfile(str(readme), module_relative=False)
    assert attempted >= 10
    assert failed == 0


def test_no_assert_statements_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
