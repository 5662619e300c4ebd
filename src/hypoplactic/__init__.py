"""Plactic and hypoplactic combinatorics.

Words over the ordered alphabet 1 < 2 < ... feed two parallel insertion
theories: Schensted insertion into Young tableaux with the classical
Kashiwara operators and crystal graph, and single-symbol insertion into
quasi-ribbon tableaux with quasi-Kashiwara operators and a quasi-crystal
graph.  The package also ships exact counting formulas for class sizes
and tableau numbers together with brute-force oracles, plus a CLI.
"""

from .counting import (
    TooLargeError,
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
from .graphs import (
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
from .operators import (
    BracketReduction,
    bracket_reduce,
    kashiwara_counts,
    kashiwara_e,
    kashiwara_f,
    quasi_counts,
    quasi_e,
    quasi_f,
)
from .quasiribbon import (
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
from .words import (
    coarsenings,
    coarser,
    compositions,
    descent_composition,
    descent_set,
    format_composition,
    format_word,
    has_inversion,
    inverse_permutation,
    is_standard,
    max_decreasing_factorization,
    parse_composition,
    parse_word,
    schuetzenberger_involution,
    standardize,
    weight,
    weight_leq,
    words_of_weight,
    words_over,
)
from .young import (
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

__version__ = "0.1.0"
