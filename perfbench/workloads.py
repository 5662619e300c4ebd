"""The benchmark's four workloads.

Each workload turns a seeded ``random.Random`` into a list of requests,
one closed-loop pass.  A request names a kind; the kind's ``call`` makes
the calls into the package (each wrapped in a benchmark-owned span
named after the layer function it enters), and its ``check`` compares
the output with an expectation computed at generation time from
``reference`` (or, for the CLI, from the library's own objects), so no
check runs inside the timed region or repeats the timed path.

``generate(rng, tiny)`` builds a full pass, or with ``tiny`` a few small
requests covering every kind, for the self-check and the warm-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from typing import Callable, Optional

import reference as ref
from hypoplactic import cli, counting, graphs, quasiribbon, words, young


@dataclass
class Request:
    kind: str
    label: str
    args: tuple
    expect: object = None
    units: int = 1
    # Set on requests whose failure at the seed is a known defect, named
    # by the ROADMAP item that fixes it.  Such failures still count.
    known_defect: str = ""
    direct: Optional[Callable[[], object]] = field(default=None, repr=False)


@dataclass
class Kind:
    call: Callable
    check: Callable[[Request, object], Optional[str]]
    units: Optional[Callable[[object], int]] = None


def _mismatch(what, got, want) -> str:
    text = f"{what}: got {got!r}, want {want!r}"
    return text if len(text) < 300 else text[:297] + "..."


def median_ms(values) -> float:
    return 1e3 * statistics.median(values)


def growth(small: float, large: float, ratio: float) -> float:
    """Log-log slope between two sizes ``ratio`` apart."""
    return math.log(large / small) / math.log(ratio)


# ---------------------------------------------------------------- insert-long

INSERT_SIZES = (1024, 4096, 16384)
# Requests per pass at each size: short words repeat so that every size
# contributes samples while the 16k words still dominate the pass time.
INSERT_REPEATS = {1024: 4, 4096: 2, 16384: 1}
INSERT_FUNCS = (
    "quasiribbon.hypo_rsk",
    "quasiribbon.hypo_rsk_inverse",
    "quasiribbon.hypo_congruent",
    "young.rsk",
    "words.standardize",
)


def _call_hypo_rsk(span, w):
    with span("quasiribbon.hypo_rsk"):
        return quasiribbon.hypo_rsk(w)


def _check_hypo_pair(req, out):
    shape, entries, labels = req.expect
    t, r = out
    if t.shape != shape or r.shape != shape:
        return _mismatch("ribbon shapes", (t.shape, r.shape), shape)
    if t.entries != entries:
        return "tableau entries are not sorted(w)"
    if r.labels != labels:
        return "recording labels are not std(w)^-1"
    return None


def _call_hypo_inverse(span, t, r):
    with span("quasiribbon.hypo_rsk_inverse"):
        return quasiribbon.hypo_rsk_inverse(t, r)


def _check_equal(req, out):
    return None if out == req.expect else _mismatch(req.kind, out, req.expect)


def _call_hypo_congruent(span, u, v):
    with span("quasiribbon.hypo_congruent"):
        return quasiribbon.hypo_congruent(u, v)


def _call_rsk(span, w):
    with span("young.rsk"):
        return young.rsk(w)


def _is_tableau(rows, strict_rows) -> bool:
    for r, row in enumerate(rows):
        if any((a >= b) if strict_rows else (a > b) for a, b in zip(row, row[1:])):
            return False
        if r and (len(row) > len(rows[r - 1]) or any(a <= b for a, b in zip(row, rows[r - 1]))):
            return False
    return True


def _check_rsk(req, out):
    entries, first_row, nrows = req.expect
    p, q = out
    shape = tuple(map(len, p.rows))
    if tuple(map(len, q.rows)) != shape:
        return "P and Q shapes differ"
    if (shape[0] if shape else 0, len(shape)) != (first_row, nrows):
        return _mismatch("first row and row count (Greene)", (shape[0], len(shape)), (first_row, nrows))
    if tuple(sorted(a for row in p.rows for a in row)) != entries:
        return "P does not hold the letters of w"
    if sorted(a for row in q.rows for a in row) != list(range(1, len(entries) + 1)):
        return "Q is not standard"
    if not (_is_tableau(p.rows, False) and _is_tableau(q.rows, True)):
        return "P or Q is not a tableau"
    return None


def _call_standardize(span, w):
    with span("words.standardize"):
        s = words.standardize(w)
    with span("words.weight"):
        return s, words.weight(w)


def _check_standardize(req, out):
    w, wt = req.expect
    s, got_wt = out
    if got_wt != wt:
        return "weight differs from the letter counts"
    if sorted(s) != list(range(1, len(w) + 1)):
        return "standardization is not a permutation"
    order = ref.inverse(s)
    for h, k in zip(order, order[1:]):
        if (w[h - 1], h) >= (w[k - 1], k):
            return "standardization does not rank letters left to right"
    return None


INSERT_KINDS = {
    "quasiribbon.hypo_rsk": Kind(_call_hypo_rsk, _check_hypo_pair),
    "quasiribbon.hypo_rsk_inverse": Kind(_call_hypo_inverse, _check_equal),
    "quasiribbon.hypo_congruent": Kind(_call_hypo_congruent, _check_equal),
    "young.rsk": Kind(_call_rsk, _check_rsk),
    "words.standardize": Kind(_call_standardize, _check_standardize),
}


def insert_regimes(size: int) -> dict:
    """Alphabet per regime: 4 letters keeps at most 4 ribbon rows; N
    letters gives about 0.4 N rows."""
    return {"small": 4, "large": size}


def generate_insert(rng, tiny=False):
    sizes = (16, 64) if tiny else INSERT_SIZES
    reqs = []
    for size in sizes:
        for regime, n in insert_regimes(size).items():
            for _ in range(1 if tiny else INSERT_REPEATS[size]):
                for func in INSERT_FUNCS:
                    w = tuple(rng.randint(1, n) for _ in range(size))
                    label = f"{func}.{regime}.N{size}"
                    reqs.append(_insert_request(rng, func, label, w))
    return reqs


def _insert_request(rng, func, label, w):
    size = len(w)
    if func == "quasiribbon.hypo_rsk":
        return Request(func, label, (w,), ref.hypo_pair(w), size)
    if func == "quasiribbon.hypo_rsk_inverse":
        shape, entries, labels = ref.hypo_pair(w)
        pair = (quasiribbon.QuasiRibbonTableau(shape, entries), quasiribbon.RecordingRibbon(shape, labels))
        return Request(func, label, pair, w, size)
    if func == "quasiribbon.hypo_congruent":
        # Half the pairs are congruent by construction (w and the reading
        # of its tableau); the rest are shuffles, congruent only by chance.
        if rng.random() < 0.5:
            shape, entries, _ = ref.hypo_pair(w)
            v = ref.qrt_reading(shape, entries)
        else:
            v = _shuffled(rng, w)
        return Request(func, label, (w, v), ref.hypo_congruent(w, v), size)
    if func == "young.rsk":
        expect = (tuple(sorted(w)), ref.longest_weak_increasing(w), ref.longest_strict_decreasing(w))
        return Request(func, label, (w,), expect, size)
    return Request(func, label, (w,), (w, ref.weight(w)), size)


def insert_layer_metrics(reqs, spans):
    """``spans[i]`` maps span name to the list of its durations over the
    passes of request ``i``."""
    per_label: dict[str, list[float]] = {}
    for req, sp in zip(reqs, spans):
        for seconds in sp.get(req.kind, ()):
            per_label.setdefault(req.label, []).append(1e6 * seconds / req.units)
    out = {}
    for func in INSERT_FUNCS:
        for regime in ("small", "large"):
            us = {}
            for size in INSERT_SIZES:
                us[size] = statistics.median(per_label[f"{func}.{regime}.N{size}"])
                out[f"{func}.us_per_symbol.{regime}.N{size}"] = (us[size], "us")
            # us_per_symbol grows like N^(slope-1); report the slope of time.
            out[f"{func}.growth.{regime}"] = (
                growth(us[4096] * 4096, us[16384] * 16384, 4), "slope")
    for name, value in insert_inputs(reqs).items():
        out[f"quasiribbon.{name}"] = (value, "ratio")
    return out


def insert_inputs(reqs):
    """Ribbon rows per symbol by regime, from the reference shapes."""
    out = {}
    for regime in ("small", "large"):
        rows = [len(r.expect[0]) / r.units for r in reqs
                if r.kind == "quasiribbon.hypo_rsk" and f".{regime}." in r.label]
        out[f"rows_per_symbol.{regime}"] = statistics.mean(rows)
    return out


# --------------------------------------------------------- explore-components

# Vertex-count bands; each pass draws the same number of requests from
# each, so seeds differ in their words but not in their size mix.
EXPLORE_BANDS = ((15, 60), (60, 200), (200, 600), (600, 1800))
EXPLORE_PER_BAND = 6
EXPLORE_KINDS_ON_CRYSTAL = ("explore.crystal", "highest_weight.crystal", "crystal_overlay")


def _quasi_size(w, n):
    return ref.qrt_count(ref.hypo_shape(w), n)


def _crystal_size(w, n):
    return ref.ssyt_count(ref.plactic_shape(w), n)


def _call_explore(kind):
    def call(span, w, n):
        with span("graphs.explore_component"):
            c = graphs.explore_component(w, n, kind)
        with span("graphs.signature"):
            return c, c.signature()
    return call


def _vertex_key(crystal):
    return (lambda v: ref.rsk(v)[1]) if crystal else ref.std


def _check_explore(crystal):
    key = _vertex_key(crystal)

    def check(req, out):
        w, n = req.args
        size, root_weight = req.expect
        c, sig = out
        if len(c) != size or len(sig) != size:
            return _mismatch("component size", (len(c), len(sig)), size)
        if w not in c.vertices:
            return "component misses its start word"
        want = key(w)
        if any(key(v) != want for v in c.vertices):
            return "a vertex has a different recording object than the start word"
        if ref.weight(c.root) != root_weight:
            return _mismatch("root weight", ref.weight(c.root), root_weight)
        return None
    return check


def _call_highest_weight(kind):
    def call(span, w, n):
        with span("graphs.highest_weight_word"):
            return graphs.highest_weight_word(w, n, kind)
    return call


def _check_highest_weight(crystal):
    key = _vertex_key(crystal)

    def check(req, out):
        w, _ = req.args
        if key(out) != key(w):
            return "highest-weight word left the component"
        if ref.weight(out) != req.expect:
            return _mismatch("highest weight", ref.weight(out), req.expect)
        return None
    return check


def _call_sim(span, u, v, n):
    with span("graphs.sim_related"):
        return graphs.sim_related(u, v, n)


def _call_overlay(span, w, n):
    with span("graphs.crystal_overlay"):
        return graphs.crystal_overlay(w, n)


def _check_overlay(req, out):
    quasi_edges, crystal_only = out
    touched = set()
    for edges, quasi in ((quasi_edges, True), (crystal_only, False)):
        for u, _, v in edges:
            if (ref.std(u) == ref.std(v)) != quasi:
                return "an edge is filed on the wrong side of the overlay"
            touched.update((u, v))
    if req.expect > 1 and len(touched) != req.expect:
        return _mismatch("overlay vertices", len(touched), req.expect)
    return None


def _call_same_ribbon(span, u, v, n):
    with span("graphs.same_recording_ribbon"):
        return graphs.same_recording_ribbon(u, v, n)


EXPLORE_KINDS = {
    "explore.quasi": Kind(_call_explore(graphs.QUASI_CRYSTAL), _check_explore(False)),
    "explore.crystal": Kind(_call_explore(graphs.CRYSTAL), _check_explore(True)),
    "highest_weight.quasi": Kind(_call_highest_weight(graphs.QUASI_CRYSTAL), _check_highest_weight(False)),
    "highest_weight.crystal": Kind(_call_highest_weight(graphs.CRYSTAL), _check_highest_weight(True)),
    "sim_related": Kind(_call_sim, _check_equal),
    "crystal_overlay": Kind(_call_overlay, _check_overlay,
                            units=lambda out: len(out[0]) + len(out[1])),
    "same_recording_ribbon": Kind(_call_same_ribbon, _check_equal),
}


def _sample_in_band(rng, band):
    """(word, n) drawn until both its quasi and crystal components fall
    in the vertex band."""
    lo, hi = band
    while True:
        n = rng.randint(3, 7)
        w = tuple(rng.randint(1, n) for _ in range(rng.randint(3, 8)))
        if lo <= _quasi_size(w, n) < hi and lo <= _crystal_size(w, n) < hi:
            return w, n


def _same_shape(rng, w0, n, shape_of, tries=50_000):
    """A random word of the length of ``w0`` over 1..n with the same
    shape, so that its component has the size of ``w0``'s; ``w0`` itself
    when none turns up."""
    target = shape_of(w0)
    for _ in range(tries):
        w = tuple(rng.randint(1, n) for _ in range(len(w0)))
        if shape_of(w) == target:
            return w
    return w0


def _relabel(rng, w, n):
    """A word with the same standardization as ``w``: an increasing
    relabelling of its letters into 1..n."""
    letters = sorted(set(w))
    image = dict(zip(letters, sorted(rng.sample(range(1, n + 1), len(letters)))))
    return tuple(image[a] for a in w)


def _shuffled(rng, w):
    v = list(w)
    rng.shuffle(v)
    return tuple(v)


def generate_explore(rng, tiny=False):
    """The alphabet bounds, lengths and shapes come from a fixed stream,
    so every seed explores components of the same sizes; the seed draws
    the words."""
    slots = random.Random("explore-components/slots")
    bands = ((1, 40),) if tiny else EXPLORE_BANDS
    reqs = []
    for band in bands:
        for _ in range(1 if tiny else EXPLORE_PER_BAND):
            tag = f"V{band[0]}"
            w0, n = _sample_in_band(slots, band)
            w = _same_shape(rng, w0, n, ref.hypo_shape)
            size = _quasi_size(w, n)
            reqs.append(Request("explore.quasi", f"explore.quasi.{tag}", (w, n),
                                (size, ref.hypo_shape(w)), size))
            reqs.append(Request("highest_weight.quasi", f"highest_weight.quasi.{tag}", (w, n),
                                ref.hypo_shape(w), size))
            # Half the pairs are congruent (w and its tableau's reading);
            # the rest pair w with another word of its shape.
            v = (ref.qrt_reading(*ref.hypo_pair(w)[:2]) if rng.random() < 0.5
                 else _same_shape(rng, w0, n, ref.hypo_shape))
            reqs.append(Request("sim_related", f"sim_related.{tag}", (w, v, n),
                                ref.hypo_congruent(w, v), size))
            v = _relabel(rng, w, n) if rng.random() < 0.5 else _shuffled(rng, w)
            reqs.append(Request("same_recording_ribbon", f"same_recording_ribbon.{tag}", (w, v, n),
                                ref.std(w) == ref.std(v), size))
            w = _same_shape(rng, w0, n, ref.plactic_shape)
            size = _crystal_size(w, n)
            reqs.append(Request("explore.crystal", f"explore.crystal.{tag}", (w, n),
                                (size, ref.plactic_shape(w)), size))
            reqs.append(Request("highest_weight.crystal", f"highest_weight.crystal.{tag}", (w, n),
                                ref.plactic_shape(w), size))
            reqs.append(Request("crystal_overlay", f"crystal_overlay.{tag}", (w, n), size, size))
    return reqs


def _per_unit(reqs, spans, kinds, span_name=None):
    """Span seconds per unit of work over the requests of ``kinds``; the
    span is named ``span_name``, or after the request kind."""
    seconds = units = 0
    for req, sp in zip(reqs, spans):
        if req.kind in kinds:
            times = sp.get(span_name or req.kind, ())
            seconds += sum(times)
            units += req.units * len(times)
    return seconds / units


def explore_layer_metrics(reqs, spans):
    out = {}
    for kind in ("quasi", "crystal"):
        out[f"graphs.explore_component.us_per_vertex.{kind}"] = (
            1e6 * _per_unit(reqs, spans, (f"explore.{kind}",), "graphs.explore_component"), "us")
    out["graphs.signature.us_per_vertex"] = (
        1e6 * _per_unit(reqs, spans, ("explore.quasi", "explore.crystal"), "graphs.signature"), "us")
    hw = [t for req, sp in zip(reqs, spans) if req.kind.startswith("highest_weight.")
          for t in sp["graphs.highest_weight_word"]]
    out["graphs.highest_weight_word.us"] = (1e3 * median_ms(hw), "us")
    sim = [t for req, sp in zip(reqs, spans) if req.kind == "sim_related" for t in sp["graphs.sim_related"]]
    out["graphs.sim_related.ms"] = (median_ms(sim), "ms")
    out["graphs.crystal_overlay.us_per_edge"] = (
        1e6 * _per_unit(reqs, spans, ("crystal_overlay",), "graphs.crystal_overlay"), "us")
    return out


def explore_inputs(reqs):
    crystal = sum(1 for r in reqs if r.kind in EXPLORE_KINDS_ON_CRYSTAL)
    return {"crystal_share": crystal / len(reqs)}


OPERATOR_NAMES = {"quasi": ("quasi_e", "quasi_f"), "crystal": ("kashiwara_e", "kashiwara_f")}


def explore_profile_metrics(reqs, calls_by_kind):
    """``calls_by_kind[kind][(layer, function)]`` counts profiled calls
    made by the requests of ``kind``."""
    out = {}
    for kind, names in OPERATOR_NAMES.items():
        calls = calls_by_kind.get(f"explore.{kind}", {})
        operator_calls = sum(calls.get(("operators", name), 0) for name in names)
        vertices = sum(r.units for r in reqs if r.kind == f"explore.{kind}")
        out[f"operators.calls_per_vertex.{kind}"] = (operator_calls / vertices, "count")
    return out


# ---------------------------------------------------------------- count-exact

CLASS_PARTS = tuple(range(6, 17))
CLASS_METRIC_PARTS = (12, 14, 16)
QRW_LENGTHS = tuple(range(8, 15))
QRW_METRIC_LENGTHS = (10, 12, 14)
# False verdicts try every composition with at most n parts, so their
# cost is fixed by (N, n), drawn once per length.  Extra ones at the
# metric lengths steady those metrics; the N = 8 ones put the pass
# median among requests of one fixed cost.
QRW_FALSE_REPEATS = {8: 13, 10: 2, 12: 2, 14: 2}
# Word-count bands for the brute class-size oracle at weight <= 8.
BRUTE_BANDS = ((200, 800), (800, 3000))


def _random_composition(rng, parts, lo=1, hi=3):
    return tuple(rng.randint(lo, hi) for _ in range(parts))


def _composition_of(rng, total, parts, hi=3):
    """A random composition of ``total`` into ``parts`` parts of at most ``hi``."""
    shape = [1] * parts
    for _ in range(total - parts):
        k = rng.choice([k for k, p in enumerate(shape) if p < hi])
        shape[k] += 1
    return tuple(shape)


def _call_counting(name):
    func = getattr(counting, name)

    def call(span, *args):
        with span(f"counting.{name}"):
            return func(*args)
    return call


def _call_contains_qrw(span, w, n):
    with span("graphs.plac_component_contains_qrw"):
        return graphs.plac_component_contains_qrw(w, n)


COUNT_KINDS = {
    f"counting.{name}": Kind(_call_counting(name), _check_equal)
    for name in (
        "hypo_class_size", "count_qrt", "count_iso_plac_components_with_qrw",
        "factorization_count", "hypo_class_size_brute", "count_qrt_brute",
        "novelli_recursion_check",
    )
}
COUNT_KINDS["graphs.plac_component_contains_qrw"] = Kind(_call_contains_qrw, _check_equal)


def _qrw_of_shape(rng, shape, n):
    """Reading of a random quasi-ribbon tableau of the given shape over
    1..n.  All such words share a recording tableau, so a crystal
    component search finds each of them at the same step."""
    while True:
        w = ref.qrt_reading(shape, sorted(rng.randint(1, n) for _ in range(sum(shape))))
        if w is not None:
            return w


def _qrw_of_weight(rng, weight, n):
    """Reading of the quasi-ribbon tableau with the given content in a
    random shape of at most n rows (rows may only break between two
    different letters)."""
    entries = [k for k, c in enumerate(weight, start=1) for _ in range(c)]
    cuts = [k for k in range(1, len(entries)) if entries[k - 1] < entries[k]]
    cuts = rng.sample(cuts, rng.randint(0, min(len(cuts), n - 1)))
    return ref.qrt_reading(_parts_between(cuts, len(entries)), entries)


def _parts_between(cuts, total):
    cuts = sorted(cuts)
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


def _random_cuts(rng, total, rows):
    """A random composition of ``total`` with ``rows`` parts."""
    return _parts_between(rng.sample(range(1, total), rows - 1), total)


def _coarsenings_words(alpha):
    """Words the coarsening sum enumerates: the multinomial of every
    composition coarser than ``alpha``."""
    cuts, s = set(), 0
    for p in alpha[:-1]:
        s += p
        cuts.add(s)
    total = 0
    for beta in ref.compositions(sum(alpha)):
        s, coarser = 0, True
        for p in beta[:-1]:
            s += p
            coarser &= s in cuts
        if coarser:
            total += ref.multinomial(beta)
    return total


def generate_count(rng, tiny=False):
    """Sizes (parts, lengths, alphabet bounds, shapes up to order) come
    from fixed streams, one per request kind, so every seed does the
    same amount of work; the seed draws the parts' order, the letters
    and the words.  The coarsening sum's cost depends on the order of
    the parts, so its inputs are fixed outright."""
    def slots(kind):
        return random.Random(f"count-exact/slots/{kind}")

    reqs = []
    sizes = slots("hypo_class_size")
    for ell in (3, 4) if tiny else CLASS_PARTS + CLASS_METRIC_PARTS:
        shape = _composition_of(rng, 2 * ell, ell)
        n = ell + sizes.randint(0, 2)
        reqs.append(Request("counting.hypo_class_size", f"hypo_class_size.l{ell}", (shape, n),
                            ref.class_size(shape, n), ell))
    sizes = slots("factorization_count")
    for _ in range(1 if tiny else 6):
        shape = _random_composition(rng, rng.randint(2, 6), 1, 4)
        n = max(1, len(shape) + rng.randint(-1, 4))
        reqs.append(Request("counting.count_qrt", "count_qrt", (shape, n), ref.qrt_count(shape, n)))
        lam = tuple(sorted(_random_composition(rng, rng.randint(1, 4)), reverse=True))
        n = rng.randint(2, 8)
        reqs.append(Request("counting.count_iso_plac_components_with_qrw", "count_iso", (lam, n),
                            ref.iso_components_with_qrw(lam, n)))
        n = sizes.randint(2, 4)
        weight = _random_composition(sizes, n, 1, 2 if tiny else 3)
        w = _qrw_of_weight(rng, weight, n)
        k = sizes.randint(1, len(w) - 1)
        alpha, beta = _random_cuts(rng, k, 1 + (k > 1)), _random_cuts(rng, len(w) - k, 1)
        reqs.append(Request("counting.factorization_count", "factorization_count", (w, alpha, beta, n),
                            ref.factorization_count(w, alpha, beta)))
    sizes = slots("plac_component_contains_qrw")
    for length in (8, 9) if tiny else QRW_LENGTHS:
        for verdict in (True, False):
            n = sizes.randint(3, 5)
            for _ in range(1 if tiny or verdict else QRW_FALSE_REPEATS.get(length, 1)):
                if verdict:
                    w = _qrw_of_shape(rng, _random_cuts(sizes, length, sizes.randint(1, n)), n)
                else:
                    w = tuple(rng.randint(1, n) for _ in range(length))
                    while ref.contains_qrw(w, n):
                        w = tuple(rng.randint(1, n) for _ in range(length))
                reqs.append(Request("graphs.plac_component_contains_qrw",
                                    f"contains_qrw.{verdict}.N{length}", (w, n), verdict, length))
    sizes = slots("hypo_class_size_brute")
    for band in ((1, 200),) if tiny else BRUTE_BANDS:
        for _ in range(1 if tiny else 3):
            while True:
                shape = _random_composition(sizes, sizes.randint(2, 6), 1, 3)
                if sum(shape) <= 8 and band[0] <= ref.multinomial(shape) < band[1]:
                    break
            shape = _shuffled(rng, shape)
            reqs.append(Request("counting.hypo_class_size_brute", "hypo_class_size_brute",
                                (shape, len(shape)), ref.class_size(shape, len(shape)),
                                ref.multinomial(shape)))
    sizes = slots("count_qrt_brute")
    for _ in range(1 if tiny else 4):
        shape = _shuffled(rng, _random_composition(sizes, sizes.randint(2, 4), 1, 2))
        n = len(shape) + sizes.randint(0, 3)
        reqs.append(Request("counting.count_qrt_brute", "count_qrt_brute", (shape, n),
                            ref.qrt_count(shape, n)))
    sizes = slots("novelli_recursion_check")
    for _ in range(1 if tiny else 2):
        while True:
            alpha = _random_composition(sizes, sizes.randint(2, 4), 1, 2)
            if 4 <= sum(alpha) <= (4 if tiny else 6):
                break
        reqs.append(Request("counting.novelli_recursion_check", "novelli_recursion_check",
                            (alpha, len(alpha)), True, _coarsenings_words(alpha)))
    return reqs


def _label_ms(reqs, spans, prefix, span_name):
    out = {}
    for req, sp in zip(reqs, spans):
        if req.label.startswith(prefix):
            out.setdefault(req.label[len(prefix):], []).extend(sp.get(span_name, ()))
    return {k: median_ms(v) for k, v in out.items()}


def count_layer_metrics(reqs, spans):
    out = {}
    ms = _label_ms(reqs, spans, "hypo_class_size.l", "counting.hypo_class_size")
    for ell in CLASS_METRIC_PARTS:
        out[f"counting.hypo_class_size.ms.l{ell}"] = (ms[str(ell)], "ms")
    lo, hi = CLASS_METRIC_PARTS[0], CLASS_METRIC_PARTS[-1]
    out["counting.hypo_class_size.growth_per_part"] = (
        (ms[str(hi)] / ms[str(lo)]) ** (1 / (hi - lo)), "ratio")
    ms = _label_ms(reqs, spans, "contains_qrw.False.N", "graphs.plac_component_contains_qrw")
    for length in QRW_METRIC_LENGTHS:
        out[f"graphs.plac_component_contains_qrw.ms.N{length}"] = (ms[str(length)], "ms")
    lo, hi = QRW_METRIC_LENGTHS[0], QRW_METRIC_LENGTHS[-1]
    out["graphs.plac_component_contains_qrw.growth_per_symbol"] = (
        (ms[str(hi)] / ms[str(lo)]) ** (1 / (hi - lo)), "ratio")
    brute = ("counting.hypo_class_size_brute", "counting.novelli_recursion_check")
    out["counting.brute.words_per_s"] = (1 / _per_unit(reqs, spans, brute), "1/s")
    return out


def count_inputs(reqs):
    verdicts = [r.expect for r in reqs if r.kind == "graphs.plac_component_contains_qrw"]
    return {"contains_qrw_true_share": sum(verdicts) / len(verdicts)}


# ---------------------------------------------------------------- cli-session

ZERO_DIGIT_DEFECT = "ROADMAP item 4: a digit string containing 0 parses as one large symbol"


def _call_cli(span, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with span("cli.main"):
            code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _check_cli(req, out):
    code, stdout, stderr = out
    want_code, want = req.expect
    if code != want_code:
        return _mismatch(f"exit code of {' '.join(req.args[0])!r}", code, want_code)
    if want_code:
        return None if stderr.startswith("error:") else "error exit without an error message"
    if callable(want):
        return want(stdout)
    return None if stdout == want else _mismatch(f"output of {' '.join(req.args[0])!r}", stdout, want)


def _json_equal(expected):
    def check(stdout):
        got = json.loads(stdout)
        return None if got == expected else _mismatch("json output", got, expected)
    return check


def _random_word(rng, n, lo=3, hi=7):
    return tuple(rng.randint(1, n) for _ in range(rng.randint(lo, hi)))


def _pair_text(first, second, keys):
    return f"{keys[0]}:\n{first.ascii()}\n{keys[1]}:\n{second.ascii()}\n"


def _component_text_check(c, dotted):
    def check(stdout):
        lines = stdout.splitlines()
        head = [f"kind: {c.kind}", f"n: {c.n}", f"root: {words.format_word(c.root)}",
                f"vertices: {len(c)}"]
        if lines[:4] != head:
            return _mismatch("component header", lines[:4], head)
        edges = lines[4:]
        if len(edges) != len(c.edges) or sum("[crystal-only]" in e for e in edges) != len(dotted):
            return "component text lists the wrong edges"
        return None
    return check


def _cli_valid(rng, sub):
    """One valid request of subcommand ``sub``: (argv, expected stdout
    or a checker of it, the direct library call or None)."""
    fmt = rng.choice(("text", "json"))
    if sub in ("insert", "rsk"):
        w = _random_word(rng, 9, 4, 9)
        text = words.format_word(w)
        plactic = sub == "rsk" or rng.random() < 0.3
        if plactic:
            p, q = young.rsk(w)
            if (p.rows, q.rows) != ref.rsk(w):
                raise AssertionError("library rsk disagrees with the reference")
            first, second, keys = p, q, ("P", "Q")
            direct = lambda: young.rsk(words.parse_word(text))  # noqa: E731
        else:
            t, r = quasiribbon.hypo_rsk(w)
            if (t.shape, t.entries, r.labels) != ref.hypo_pair(w):
                raise AssertionError("library hypo_rsk disagrees with the reference")
            first, second, keys = t, r, ("T", "R")
            direct = lambda: quasiribbon.hypo_rsk(words.parse_word(text))  # noqa: E731
        argv = [sub, text] + (["--kind", "plactic"] if plactic and sub == "insert" else [])
        if fmt == "json":
            want = _json_equal({keys[0]: first.to_json_dict(), keys[1]: second.to_json_dict()})
        else:
            want = _pair_text(first, second, keys)
        return argv + ["--format", fmt], want, direct
    if sub == "component":
        crystal = rng.random() < 0.5
        fmt = rng.choice(("text", "json", "dot"))
        while True:
            n = rng.randint(2, 4)
            w = _random_word(rng, n, 2, 4)
            size = _crystal_size(w, n) if crystal else _quasi_size(w, n)
            if size <= 60:
                break
        kind = graphs.CRYSTAL if crystal else graphs.QUASI_CRYSTAL
        overlay = crystal and fmt != "json" and rng.random() < 0.5
        c = graphs.explore_component(w, n, kind)
        if len(c) != size:
            raise AssertionError("library component size disagrees with the reference")
        dotted = graphs.crystal_overlay(w, n)[1] if overlay else []
        argv = ["component", words.format_word(w), "-n", str(n), "--format", fmt]
        argv += ["--kind", "crystal"] if crystal else []
        argv += ["--overlay"] if overlay else []
        if fmt == "json":
            want = _json_equal(graphs.component_to_json_dict(c))
        elif fmt == "dot":
            want = graphs.component_to_dot(c, dotted)
        else:
            want = _component_text_check(c, dotted)
        direct = lambda: graphs.explore_component(w, n, kind)  # noqa: E731
        return argv, want, direct
    if sub == "congruent":
        relation = rng.choice(("plac", "hypo", "sim"))
        n = rng.randint(2, 4)
        u = _random_word(rng, n, 3, 5)
        v = ref.qrt_reading(*ref.hypo_pair(u)[:2]) if rng.random() < 0.5 else _shuffled(rng, u)
        n = max(u + v)
        verdict = (ref.rsk(u)[0] == ref.rsk(v)[0]) if relation == "plac" else ref.hypo_congruent(u, v)
        extra = {}
        if relation == "sim":
            extra = {f"highest_weight_{k}": words.format_word(
                graphs.highest_weight_word(x, n, graphs.QUASI_CRYSTAL)) for k, x in (("u", u), ("v", v))}
        argv = ["congruent", words.format_word(u), words.format_word(v), "--relation", relation,
                "--format", fmt]
        if fmt == "json":
            want = _json_equal({"congruent": verdict, **extra})
        else:
            want = "".join([f"{str(verdict).lower()}\n"] + [f"{k}: {x}\n" for k, x in extra.items()])
        funcs = {"plac": young.plactic_congruent, "hypo": quasiribbon.hypo_congruent,
                 "sim": lambda a, b: graphs.sim_related(a, b, n)}
        direct = lambda: funcs[relation](u, v)  # noqa: E731
        return argv, want, direct
    if sub == "highest-weight":
        crystal = rng.random() < 0.5
        n = rng.randint(2, 5)
        w = _random_word(rng, n, 3, 6)
        kind = graphs.CRYSTAL if crystal else graphs.QUASI_CRYSTAL
        hw = graphs.highest_weight_word(w, n, kind)
        shape = ref.plactic_shape(w) if crystal else ref.hypo_shape(w)
        if ref.weight(hw) != shape:
            raise AssertionError("library highest-weight word disagrees with the reference")
        argv = ["highest-weight", words.format_word(w), "-n", str(n), "--format", fmt]
        argv += ["--kind", "crystal"] if crystal else []
        text = words.format_word(hw)
        want = _json_equal({"highest_weight": text}) if fmt == "json" else text + "\n"
        direct = lambda: graphs.highest_weight_word(w, n, kind)  # noqa: E731
        return argv, want, direct
    if sub in ("classsize", "count-qrt", "count-components"):
        brute = rng.random() < 0.3
        if sub == "count-components":
            shape = tuple(sorted(_random_composition(rng, rng.randint(1, 3), 1, 3), reverse=True))
            n = rng.randint(2, 4) if brute else rng.randint(2, 8)
            while brute and n ** sum(shape) > 1000:
                shape = shape[1:] or (1,)
            value = ref.iso_components_with_qrw(shape, n)
            direct = lambda: counting.count_iso_plac_components_with_qrw(shape, n)  # noqa: E731
        else:
            shape = _random_composition(rng, rng.randint(2, 3 if brute else 4), 1, 2 if brute else 4)
            n = len(shape) + rng.randint(0, 2)
            if sub == "classsize":
                value = ref.class_size(shape, n)
                direct = lambda: counting.hypo_class_size(shape, n)  # noqa: E731
            else:
                value = ref.qrt_count(shape, n)
                direct = lambda: counting.count_qrt(shape, n)  # noqa: E731
        argv = [sub, words.format_composition(shape), "-n", str(n), "--format", fmt]
        argv += ["--brute"] if brute else []
        if fmt == "json":
            want = _json_equal({"formula": value, **({"brute": value} if brute else {})})
        else:
            want = f"formula: {value}\nbrute: {value}\n" if brute else f"{value}\n"
        return argv, want, direct
    suite = rng.choice(("golden", "laws", "counts"))

    def all_ok(stdout):
        lines = stdout.splitlines()
        return None if lines and all(x.startswith("ok ") for x in lines) else "a verify check failed"
    return ["verify", "--suite", suite], all_ok, None


def _cli_malformed(rng):
    """(argv, expected exit code, known defect) of each malformed or
    oversize request in a pass."""
    w = words.format_word(_random_word(rng, 9, 3, 5))
    zero = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(rng.randint(0, 2))) + "0"
    return [
        (["insert", w[:1] + "x" + w[1:]], 1, ""),
        (["classsize", "2,0,1"], 1, ""),
        (["count-qrt", "2,1"], 1, ""),
        (["insert", w, "--format", "dot"], 1, ""),
        (["component", words.format_word(_random_word(rng, 3, 2, 3)), "-n", "3", "--overlay"], 1, ""),
        (["classsize", "3,3,3,2", "--brute"], 2, ""),
        (["count-components", "3,3", "-n", "10", "--brute"], 2, ""),
        (["insert", zero], 1, ZERO_DIGIT_DEFECT),
        (["rsk", zero], 1, ZERO_DIGIT_DEFECT),
        (["congruent", zero, zero], 1, ZERO_DIGIT_DEFECT),
    ]


# Valid requests per subcommand in one pass; verify is the slowest and
# runs twice.
CLI_MIX = {
    "insert": 8, "rsk": 6, "component": 8, "congruent": 8, "highest-weight": 6,
    "classsize": 6, "count-qrt": 6, "count-components": 6, "verify": 2,
}


def generate_cli(rng, tiny=False):
    reqs = []
    for sub, count in CLI_MIX.items():
        for _ in range(1 if tiny else count):
            argv, want, direct = _cli_valid(rng, sub)
            reqs.append(Request("cli.main", f"cli.{sub}", (tuple(argv),), (0, want), direct=direct))
    for argv, code, defect in _cli_malformed(rng):
        reqs.append(Request("cli.main", f"cli.malformed.{argv[0]}", (tuple(argv),), (code, None),
                            known_defect=defect))
    return reqs


def cli_layer_metrics(reqs, spans):
    """The "direct" span times the library call a request's subcommand
    makes, without parsing or rendering."""
    out = {}
    overhead = []
    for sp in spans:
        for main_s, direct_s in zip(sp.get("cli.main", ()), sp.get("direct", ())):
            overhead.append(main_s - direct_s)
    out["cli.overhead_ms"] = (median_ms(overhead), "ms")
    for sub in CLI_MIX:
        times = [t for req, sp in zip(reqs, spans) if req.label == f"cli.{sub}" for t in sp["cli.main"]]
        out[f"cli.main.ms.{sub}"] = (median_ms(times), "ms")
    return out


def cli_inputs(reqs):
    malformed = sum(1 for r in reqs if r.expect[0] != 0)
    return {"malformed_share": malformed / len(reqs)}


@dataclass
class Workload:
    kinds: dict
    generate: Callable
    layer_metrics: Callable
    inputs: Callable
    setup_module: str
    profile_metrics: Optional[Callable] = None


WORKLOADS = {
    "insert-long": Workload(INSERT_KINDS, generate_insert, insert_layer_metrics, insert_inputs,
                            "hypoplactic"),
    "explore-components": Workload(EXPLORE_KINDS, generate_explore, explore_layer_metrics,
                                   explore_inputs, "hypoplactic", explore_profile_metrics),
    "count-exact": Workload(COUNT_KINDS, generate_count, count_layer_metrics, count_inputs,
                            "hypoplactic"),
    "cli-session": Workload({"cli.main": Kind(_call_cli, _check_cli)}, generate_cli,
                            cli_layer_metrics, cli_inputs, "hypoplactic.cli"),
}
