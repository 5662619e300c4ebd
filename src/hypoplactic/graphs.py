"""Connected components of the crystal and quasi-crystal graphs.

Both graphs have all words over 1..n as vertices and an edge labelled i
from u to v exactly when the lowering operator for i sends u to v; the
two graphs differ only in the family of lowering maps.  Components are
finite (lowering preserves length), every vertex has at most one in-
and one out-edge per label, and each component has a unique root on
which no raising operator acts and from which lowering reaches every
vertex.

Isomorphism of components (bijective, weight-preserving, edge- and
label-preserving) is decided by canonical signatures: a breadth-first
traversal from the root, following out-edges in increasing label order,
yields a canonical numbering, and the signature records each vertex's
weight and labelled out-neighbours as visit indices.  Since there is at
most one out-edge per label, two components are isomorphic exactly when
their signatures coincide, and then the visit numbering itself is the
unique isomorphism.

One walk per component explores and numbers it, reading each vertex's
edges off one bracket scan; the component keeps the walk's store, and
every list of its edges in sorted word order is read off that store by
one reader.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator

from .quasiribbon import _sort_positions, hypo_congruent
from .words import (
    WeakComposition,
    Word,
    _check_label,
    _check_symbols,
    check_alphabet,
    format_word,
    parse_word,
    weight,
)
from .young import _schensted, _unschensted

CRYSTAL = "crystal"
QUASI_CRYSTAL = "quasi-crystal"

Edge = tuple[Word, int, Word]


def _normalize_kind(kind: str) -> str:
    if kind == CRYSTAL:
        return CRYSTAL
    if kind in (QUASI_CRYSTAL, "quasi"):
        return QUASI_CRYSTAL
    raise ValueError(f"unknown graph kind {kind!r}")


def _key(w: Word, n: int) -> int:
    """The walk's key of a word over 1..n: its symbols as digits of
    ``n.bit_length()`` bits each, the first symbol most significant.
    Within one length keys sort exactly like the words they key."""
    b = n.bit_length()
    key = 0
    for a in w:
        key = key << b | a
    return key


def _bracket_scan(u: Word, n: int) -> tuple[list[int], int]:
    """Bracket every label 1..n-1 of ``u`` in one left-to-right scan.

    Each symbol a is a "+" for label a and a "-" for label a-1, so one
    scan keeps, per label, a count of the "-" still open and the
    position (0-indexed) of the rightmost surviving "+".  Returns these
    positions, indexed by label and -1 where no "+" survives, and a bit
    mask holding 1 << i for each label i whose bracket cancelled a "-+"
    pair.  A cancellation needs an i+1 left of an i, and the first i
    with an i+1 to its left always cancels, so the mask is exactly the
    set of labels for which ``u`` has an i-inversion.  ``u`` must be a
    word over 1..n; every caller has checked it or reached it by
    lowering from a checked root.
    """
    open_minus = [0] * (n + 1)
    plus = [-1] * (n + 1)
    cancelled = 0
    for pos, a in enumerate(u):
        if open_minus[a]:
            open_minus[a] -= 1
            cancelled |= 1 << a
        else:
            plus[a] = pos
        open_minus[a - 1] += 1  # slot 0 takes the unused "-" of each 1
    return plus, cancelled


def _walk(
    root: Word, n: int, kind: str, limit: float = float("inf")
) -> tuple[list[Word], dict[int, int], list[tuple], list[int]]:
    """Explore and number the component of ``root`` breadth-first,
    following each vertex's lowering edges by increasing label.

    One bracket scan per vertex gives the position that f_i changes for
    every label i, and the mask of the labels whose bracket cancelled a
    pair, which are the labels of the vertex's i-inversions.  A crystal
    vertex lowers along every label with a surviving "+"; a quasi-crystal
    vertex only along those outside its mask.  Vertices are numbered by
    their ``_key``: f_i at position p raises one digit from i to i+1 <= n,
    which adds the digit's unit to the key, so a target is found by one
    addition and its word is built only when it is new: a list copy of
    the source with that one entry raised, made a tuple.  The walk checks
    every edge it follows: no vertex has two in-edges with one label.
    No edge can enter the root: every edge adds a positive unit to its
    source's key, and every vertex is reached from the root by such
    edges, so each target's key exceeds the root's.  It returns the
    visit order, the numbering by key, each vertex's out-edges as
    ``(label, target index)`` pairs and each vertex's mask.  Once more
    than ``limit`` vertices are found, it stops after the vertex whose
    edges it is reading; the later vertices then have no pairs and no
    mask."""
    quasi = kind == QUASI_CRYSTAL
    labels = [(i, 1 << i) for i in range(1, n)]
    b = n.bit_length()
    units = [1 << b * p for p in reversed(range(len(root)))]  # per position
    order = [root]
    keys = [_key(root, n)]
    index = {keys[0]: 0}
    rows: list[tuple[tuple[int, int], ...]] = []
    masks: list[int] = []
    in_labels = [0]  # per visited vertex, the labels of its in-edges as a bit mask
    for u, key in zip(order, keys):
        plus, cancelled = _bracket_scan(u, n)
        skip = cancelled if quasi else 0
        row = []
        for i, bit in labels:
            pos = plus[i]
            if pos < 0 or skip & bit:
                continue
            target = key + units[pos]
            j = index.get(target)
            if j is None:
                j = index[target] = len(order)
                v = list(u)
                v[pos] = i + 1
                order.append(tuple(v))
                keys.append(target)
                in_labels.append(bit)
            elif in_labels[j] & bit:
                raise AssertionError("some vertex has two in-edges with one label")
            else:
                in_labels[j] |= bit
            row.append((i, j))
        rows.append(tuple(row))
        masks.append(cancelled)
        if len(order) > limit:
            break
    return order, index, rows, masks


class Component:
    """A finite connected component with its unique highest-weight root.

    A component keeps one store of its edges: the breadth-first visit
    order from the root (out-edges followed by increasing label), the
    numbering that order gives, by the walk's integer key of each
    vertex, each vertex's out-edges as ``(label, target index)`` pairs,
    and each vertex's i-inversion labels as a bit mask, from the
    bracket scan that found its edges.  ``out``, ``vertices``, ``edges``
    and the numbering by word behind ``index_of`` are read off that
    store; all but ``edges`` are built on first use and kept.  One
    reader, ``_sorted_rows``, yields the store in sorted word order, for
    ``edges``, the overlay split, the JSON edges and the CLI text.

    The constructor is the one validator of a component: ``out`` maps
    each vertex to its labelled out-neighbours, sinks included, every
    label must be an integer of at least 1, and every vertex and target
    must be a word of positive integers.  The root must be a
    vertex of ``out`` and its own highest-weight word; then one walk of
    the root's true component, stopped once it finds more vertices than
    ``out`` has, must read for every vertex exactly its out-edges in
    ``out`` and find exactly the vertices of ``out``.  The walk checks
    the component's structure on the way.
    """

    def __init__(self, kind: str, n: int, root: Word, out: dict[Word, dict[int, Word]]):
        kind = _normalize_kind(kind)
        for row in out.values():
            for i in row:
                _check_label(i)
        for u, row in out.items():
            for w in (u, *row.values()):
                _check_symbols(w)
        if root not in out:
            raise ValueError("root is not a vertex of the component")
        if highest_weight_word(root, n, kind) != root:
            raise ValueError(f"root {format_word(root)!r} is not a highest-weight word")
        # Walk the true component of the root; up to the first vertex
        # whose edges differ, both graphs are visited in the same order,
        # so that vertex is read before the walk finds more vertices
        # than ``out`` has, however large the true component is.
        walk = _walk(root, n, kind, len(out))
        order, _, rows, _ = walk
        for u, row in zip(order, rows):
            if out.get(u) != {i: order[j] for i, j in row}:
                raise ValueError(
                    f"out-edges of {format_word(u)!r} are not its {kind} lowering edges"
                )
        if len(order) != len(out):
            raise ValueError("vertices are not those the root reaches")
        self._set(kind, n, root, walk)

    @classmethod
    def _trusted(cls, kind, n, root, walk) -> "Component":
        """Wrap the result of ``_walk``, which is a component by
        construction; checks nothing."""
        c = object.__new__(cls)
        c._set(kind, n, root, walk)
        return c

    def _set(self, kind, n, root, walk) -> None:
        self.kind = kind
        self.n = n
        self.root = root
        self._order, self._keys, self._rows, self._masks = walk

    @cached_property
    def out(self) -> dict[Word, dict[int, Word]]:
        """Each vertex's out-neighbours by label, vertices in canonical
        order and labels increasing."""
        order = self._order
        return {u: {i: order[j] for i, j in row} for u, row in zip(order, self._rows)}

    @cached_property
    def vertices(self) -> frozenset[Word]:
        return frozenset(self._order)

    def _sorted_rows(self) -> Iterator[tuple[Word, int, tuple[tuple[int, int], ...]]]:
        """The one reader of the store in sorted word order: ``(u, mask,
        row)`` once per vertex, with u's i-inversion labels as a bit mask
        and its out-edges as ``(label, target index)`` pairs, each target
        indexing ``canonical_order()``.  The quasi operator also performs
        an edge u -i-> v exactly when bit i of the mask is clear; every
        edge of a quasi-crystal component is one.  The vertices all have
        one length, so sorting their keys sorts them."""
        order, rows, masks = self._order, self._rows, self._masks
        for _, k in sorted(self._keys.items()):
            yield order[k], masks[k], rows[k]

    @property
    def shape(self) -> WeakComposition:
        """The isomorphism key within one kind and n: the root's weight,
        which is the quasi-ribbon shape of the component's words for a
        quasi-crystal and the shape of their P-tableau for a crystal."""
        return weight(self.root)

    @property
    def edges(self) -> list[Edge]:
        order = self._order
        return [(u, i, order[j]) for u, _, row in self._sorted_rows() for i, j in row]

    def canonical_order(self) -> list[Word]:
        """Vertices in breadth-first order from the root, out-edges
        visited by increasing label.  Covers the whole component; the
        list is a copy."""
        return list(self._order)

    @cached_property
    def _index(self) -> dict[Word, int]:
        return {v: k for k, v in enumerate(self._order)}

    def index_of(self, w: Word) -> int:
        """The visit index of ``w``; KeyError for a word outside the
        component.  Looked up by the word itself, never by a key, which
        is defined only for words over 1..n."""
        return self._index[w]

    def signature(self) -> tuple:
        """Canonical encoding deciding isomorphism: per visited vertex,
        its weight and its labelled out-edges as visit indices.  Only
        the root's weight is counted; every edge lowers, and lowering by
        i moves one unit of weight from i to i+1, so each other vertex's
        weight follows from the vertex that first reached it.  The edges
        are the ``(label, target index)`` rows of the walk that numbered
        the component."""
        weights = [self.shape]
        # weights grows as vertices are first reached, always ahead of the row
        for wt, edges in zip(weights, self._rows):
            for i, j in edges:
                if j == len(weights):  # first reached here
                    up = wt[i] + 1 if i < len(wt) else 1
                    weights.append(wt[:i - 1] + (wt[i - 1] - 1, up) + wt[i + 1:])
        return tuple(zip(weights, self._rows))

    def __len__(self):
        return len(self._order)

    def __repr__(self):
        return (
            f"Component(kind={self.kind!r}, n={self.n}, "
            f"root={format_word(self.root)!r}, size={len(self)})"
        )


def explore_component(w: Word, n: int, kind: str) -> Component:
    """The component of ``w`` with labels 1..n-1: find the root with
    ``highest_weight_word``, then walk breadth-first from the root along
    the lowering edges of the chosen kind, in increasing label order,
    reading each vertex's edges off one bracket scan.  Reaching ``w``
    checks the root; ``w`` is over 1..n, so its key stands for it."""
    kind = _normalize_kind(kind)
    root = highest_weight_word(w, n, kind)
    walk = _walk(root, n, kind)
    if _key(w, n) not in walk[1]:
        raise AssertionError(
            f"{format_word(w)!r} is not reached from its root {format_word(root)!r}"
        )
    return Component._trusted(kind, n, root, walk)


def highest_weight_word(w: Word, n: int, kind: str) -> Word:
    """The root of the component of ``w``: the word of the component
    whose insertion tableau has only j in row j, by inverting the
    insertion that records the component.

    Quasi-crystal: the component is the set of words sharing the
    recording ribbon R of ``w``; the root is ``hypo_rsk_inverse`` of
    this tableau and R, read off the one sort behind ``hypo_rsk``.
    Crystal: the component is the set of words sharing the recording
    tableau Q of ``w``; the root is ``rsk_inverse`` of this tableau and
    Q, reverse-bumped from the rows in which the insertions of ``w``
    ended, with no tableau built.
    """
    kind = _normalize_kind(kind)
    check_alphabet(w, n)
    if kind == QUASI_CRYSTAL:
        return _quasi_root(w)
    rows, ends = _schensted(w)
    return _unschensted([[j] * len(row) for j, row in enumerate(rows, start=1)], ends)


def _quasi_root(w: Word) -> Word:
    """The root of the quasi-crystal component of ``w``: row j of its
    quasi-ribbon tableau refilled with j, placed back by the labels of
    the recording ribbon.  One stable sort; callers check ``w``."""
    order, shape = _sort_positions(w)
    rows = (j for j, part in enumerate(shape, start=1) for _ in range(part))
    root = [0] * len(w)
    for h, j in zip(order, rows):
        root[h] = j
    return tuple(root)


def is_highest_weight_hypo(w: Word) -> bool:
    """Whether no quasi raising operator acts on ``w``, that is, whether
    ``w`` is the root of its quasi-crystal component: the fixed point of
    the root map, as ``Component`` tests its root.  One stable sort, so
    nothing is indexed by symbol."""
    _check_symbols(w)
    return _quasi_root(w) == tuple(w)


def sim_related(u: Word, v: Word, n: int) -> bool:
    """Whether ``u`` and ``v`` sit at the same position of isomorphic
    quasi-crystal components.  By the central theorem of Cain and
    Malheiro this relation is the hypoplactic congruence, so it is
    decided as such; exploring both components is the definition, kept
    in the tests and in ``verify``."""
    check_alphabet(u, n)
    check_alphabet(v, n)
    return hypo_congruent(u, v)


def same_recording_ribbon(u: Word, v: Word, n: int) -> bool:
    """Whether insertion records ``u`` and ``v`` identically, which is
    exactly membership in one quasi-crystal component.  The recording
    ribbon is std(w)^-1 placed in the ribbon of its descents, so it is
    fixed by the standardization of the word and fixes it in turn.
    std(w) is the inverse of the stable argsort of w, so the two
    argsorts are compared in its place."""
    check_alphabet(u, n)
    check_alphabet(v, n)
    return sorted(range(len(u)), key=u.__getitem__) == sorted(range(len(v)), key=v.__getitem__)


def crystal_overlay(w: Word, n: int) -> tuple[list[Edge], list[Edge]]:
    """Edges of the crystal component of ``w``, split into those that
    quasi-Kashiwara lowering also performs and the crystal-only
    remainder."""
    return _split_edges(explore_component(w, n, CRYSTAL))


def _split_edges(c: Component) -> tuple[list[Edge], list[Edge]]:
    """The edges of ``c`` in sorted order, split into those that
    quasi-Kashiwara lowering also performs and the crystal-only
    remainder, by the i-inversion masks that the walk stored; every
    edge of a quasi-crystal component is a quasi edge.  Each side is
    read off ``_sorted_rows`` in its order, one tuple per edge."""
    order = c._order
    quasi_edges: list[Edge] = []
    crystal_only: list[Edge] = []
    for u, mask, row in c._sorted_rows():
        for i, j in row:
            (crystal_only if mask >> i & 1 else quasi_edges).append((u, i, order[j]))
    return quasi_edges, crystal_only


def plac_component_contains_qrw(w: Word, n: int) -> bool:
    """Whether the crystal component of ``w`` contains a quasi-ribbon
    word: its recording tableau Q must arise from the standard filling
    of some ribbon shape with at most n rows by slide up-slide left.

    Slide up-slide left moves the ribbon's column tops into the first
    row, and k tops a column exactly when k-1 ends no row, so the first
    row of Q fixes the only candidate shape.  Below the first row, the
    candidate holds k one row under k-1, since k-1 ends a ribbon row and
    k starts the next one in the same column.  The candidate must still
    be checked, since the later rows of Q need not match (the component
    of ``2211`` has none).  Both are read off the rows in which the
    insertions of ``w`` ended, which are the rows of Q holding 1, 2, ...,
    with no Q built.
    """
    check_alphabet(w, n)
    ends = _schensted(w)[1]
    parts = 1 if ends else 0  # the candidate's rows: the first, and one per k starting a row
    for above, r in zip(ends, ends[1:]):
        if r:
            if r != above + 1:
                return False
            parts += 1
    return parts <= n


def component_to_dot(c: Component, dotted: Iterable[Edge] = ()) -> str:
    """Graphviz rendering; edges listed in ``dotted`` get style=dotted
    (used for crystal-only edges in overlay mode)."""
    dotted = set(dotted)
    lines = ["digraph {"]
    for v in c.canonical_order():
        lines.append(f'  "{format_word(v)}";')
    for u, i, v in c.edges:
        style = ", style=dotted" if (u, i, v) in dotted else ""
        lines.append(
            f'  "{format_word(u)}" -> "{format_word(v)}" [label="{i}"{style}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def component_to_json_dict(c: Component) -> dict:
    """JSON form with deterministic ordering, so dumps round-trip."""
    order = c._order
    return {
        "kind": c.kind,
        "n": c.n,
        "root": format_word(c.root),
        "vertices": [format_word(v) for v in sorted(c.vertices)],
        "edges": [
            {
                "from": format_word(u),
                "label": i,
                "to": format_word(order[j]),
                "quasi": not mask >> i & 1,
            }
            for u, mask, row in c._sorted_rows()
            for i, j in row
        ],
    }


def _json_word(text) -> Word:
    if type(text) is not str:
        raise ValueError(f"a word in component JSON must be a string, got {text!r}")
    return parse_word(text)


def component_from_json_dict(data: dict) -> Component:
    """Load a component.  The loader checks the form of the JSON: every
    field present, words as strings, the vertices and edges as lists,
    each vertex listed once, and each edge leaving a listed vertex by a
    label, checked before it keys that vertex's edges, that no other
    edge from the vertex uses.  The constructor rejects anything that
    is not a component of its kind."""
    fields = ("kind", "n", "root", "vertices", "edges")
    if not isinstance(data, dict) or any(f not in data for f in fields):
        raise ValueError("a component must be a JSON object with fields " + ", ".join(fields))
    if type(data["vertices"]) is not list or type(data["edges"]) is not list:
        raise ValueError("component vertices and edges must be JSON lists")
    out: dict[Word, dict[int, Word]] = {}
    for text in data["vertices"]:
        v = _json_word(text)
        if v in out:
            raise ValueError(f"vertex {text!r} is listed twice")
        out[v] = {}
    for edge in data["edges"]:
        if not isinstance(edge, dict) or any(f not in edge for f in ("from", "label", "to")):
            raise ValueError("each edge must be a JSON object with fields from, label, to")
        row = out.get(_json_word(edge["from"]))
        if row is None:
            raise ValueError(f"edge from {edge['from']!r}, which is not a listed vertex")
        label = edge["label"]
        _check_label(label)
        if label in row:
            raise ValueError(f"two edges leave {edge['from']!r} with label {label}")
        row[label] = _json_word(edge["to"])
    return Component(data["kind"], data["n"], _json_word(data["root"]), out)
