"""Quasi-ribbon tableaux and the hypoplactic side of the theory:
single-symbol insertion, the insertion/recording correspondence and its
inverse (both read off one stable sort of the word, after Novelli), the
hypoplactic congruence, and the slide up-slide left bridge back to Young
tableaux.

A ribbon diagram of composition shape alpha has alpha[h] cells in row
h, with the leftmost cell of each row directly below the rightmost cell
of the row above, so the diagram contains no 2x2 block.  Reading the
cells row by row, top to bottom, traces the ribbon from its top-left
cell to its bottom-right cell; this path order is how fillings are
stored (a shape plus one flat entry tuple).  A quasi-ribbon tableau is
exactly a filling whose path entries never decrease and strictly
increase at each row boundary.

Every filling is checked and read straight off what it stores, with
no set or object built per call.  The columns and the staircase
rendering walk the shape row by row: the first cell of every row but
the top one continues the column above, and path cell ``idx`` of row r
sits in grid column ``idx - r``.  A tabloid's shape is summed from its
column lengths, since each column's top cell extends the current row
and each cell below it starts a new one.  The shape after one
insertion moves the row breaks, the proper partial sums of the shape
(``words.descents_of_composition``).

The quasi-ribbon tableau and the recording ribbon share this storage,
its checks of shape and cell count, and their rows, rendering, JSON
form, equality, hash and repr through one private base,
``_RibbonFilling``; each adds only its own rule along the path.  The
recording ribbon's rule is that its labels are 1..N and descend
exactly at the shape's row breaks, so the shape is their descent
composition, which is how std(w)^-1 fills the ribbon of its descents.
The quasi-ribbon tabloid shares ``young``'s column base with the
tabloid, and ``qr_column_reading`` is ``young.column_reading`` under a
second name.  Words, entries and inserted symbols are checked by
``words._check_symbols``, shapes by ``words.validate_composition``.
"""

from __future__ import annotations

from bisect import bisect_right

from .words import (
    Composition,
    Word,
    _check_symbols,
    composition_from_descents,
    descents_of_composition,
    is_standard,
    max_decreasing_factorization,
    validate_composition,
)
from .young import (
    YoungTableau,
    _ColumnFilling,
    _render_grid,
    _top_aligned_rows,
    plactic_relations,
)
from .young import column_reading as qr_column_reading


def _split_rows(shape: Composition, flat: tuple) -> list[tuple]:
    rows = []
    pos = 0
    for part in shape:
        rows.append(flat[pos:pos + part])
        pos += part
    return rows


def _ribbon_columns(shape: Composition, flat: tuple) -> list[tuple]:
    """Group path entries into columns, each listed top to bottom: the
    first cell of every row but the top one continues the column above,
    and every other cell starts a column."""
    cols: list[list] = []
    idx = 0
    for part in shape:
        end = idx + part
        if idx:
            cols[-1].append(flat[idx])
            idx += 1
        while idx < end:
            cols.append([flat[idx]])
            idx += 1
    return [tuple(col) for col in cols]


def _ribbon_ascii(shape: Composition, flat: tuple) -> str:
    """Each row starts under the last cell of the row above, so the
    path cell ``idx`` of row r sits in grid column ``idx - r``."""
    cells = {}
    start = 0
    for r, part in enumerate(shape):
        for idx in range(start, start + part):
            cells[r, idx - r] = flat[idx]
        start += part
    return _render_grid(cells)


class _RibbonFilling:
    """A ribbon shape and its cells in path order: the storage, checks,
    row split, rendering and JSON form that the quasi-ribbon tableau and
    the recording ribbon share.  A subclass names its cells (``_CELL``,
    for the count error) and checks them along the path
    (``_check_path``); a filling equals only a filling of its own
    class."""

    __slots__ = ("shape", "_cells")

    def __init__(self, shape, cells):
        shape = validate_composition(shape)
        cells = tuple(cells)
        if len(cells) != sum(shape):
            raise ValueError(f"{self._CELL} count does not match shape")
        self._check_path(cells, shape)
        self.shape = shape
        self._cells = cells

    @classmethod
    def _trusted(cls, shape: Composition, cells: Word):
        """Wrap a shape and cells that insertion built, which are valid
        by construction; checks nothing."""
        t = object.__new__(cls)
        t.shape = shape
        t._cells = cells
        return t

    @classmethod
    def from_rows(cls, rows):
        rows = [tuple(row) for row in rows]
        return cls(tuple(len(r) for r in rows), tuple(a for r in rows for a in r))

    @property
    def rows(self) -> list[tuple]:
        return _split_rows(self.shape, self._cells)

    @property
    def size(self) -> int:
        return len(self._cells)

    def ascii(self) -> str:
        return _ribbon_ascii(self.shape, self._cells)

    def to_json_dict(self) -> dict:
        return {"shape": list(self.shape), "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json_dict(cls, data: dict):
        filling = cls.from_rows(data["rows"])
        if list(filling.shape) != list(data["shape"]):
            raise ValueError("shape field disagrees with rows")
        return filling

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.shape == other.shape
            and self._cells == other._cells
        )

    def __hash__(self):
        return hash((self.shape, self._cells))

    def __repr__(self):
        return f"{type(self).__name__}({list(self.shape)}, {list(self._cells)})"


class QuasiRibbonTableau(_RibbonFilling):
    """A ribbon filling with non-decreasing rows and strictly increasing
    columns.  Consequently all copies of a symbol a share one row j with
    j <= a, and row h never holds a symbol below h."""

    __slots__ = ()
    _CELL = "entry"
    entries = _RibbonFilling._cells  # the path cells under their public name

    def __init__(self, shape=(), entries=()):
        _RibbonFilling.__init__(self, shape, entries)

    @staticmethod
    def _check_path(entries: tuple, shape: Composition) -> None:
        _check_symbols(entries)
        for idx in range(1, len(entries)):
            if entries[idx] < entries[idx - 1]:
                raise ValueError("entries must be non-decreasing along the ribbon")
        for d in descents_of_composition(shape):
            if entries[d - 1] >= entries[d]:
                raise ValueError("entries must strictly increase down each column")

    @property
    def columns(self) -> list[tuple]:
        return _ribbon_columns(self.shape, self.entries)

    def reading(self) -> Word:
        return qr_column_reading(self)


class RecordingRibbon(_RibbonFilling):
    """A ribbon filled with 1..N, rows increasing left to right and
    columns increasing bottom to top (the reverse of a tableau column)."""

    __slots__ = ()
    _CELL = "label"
    labels = _RibbonFilling._cells  # the path cells under their public name

    def __init__(self, shape=(), labels=()):
        _RibbonFilling.__init__(self, shape, labels)

    @staticmethod
    def _check_path(labels: tuple, shape: Composition) -> None:
        if not is_standard(labels):
            raise ValueError("labels must be exactly 1..N")
        descents = tuple(idx for idx in range(1, len(labels)) if labels[idx - 1] > labels[idx])
        if descents != descents_of_composition(shape):
            raise ValueError("labels must increase along each row and decrease down each column")

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "standard": True}


class QuasiRibbonTabloid(_ColumnFilling):
    """Strictly increasing columns glued into a staircase: the top cell
    of each column sits in the same row as the bottom cell of the column
    before it.  Rows are unconstrained.  Read down each column and
    column by column, the cells follow the ribbon's path."""

    __slots__ = ()

    @property
    def shape(self) -> Composition:
        """Row lengths of the staircase diagram spanned by the columns:
        the top cell of each column extends the current row, and every
        cell below it starts a new row."""
        shape = [0]
        for col in self.columns:
            shape[-1] += 1
            shape += [1] * (len(col) - 1)
        return tuple(shape) if self.columns else ()

    def is_quasi_ribbon_tableau(self) -> bool:
        """Whether consecutive columns also satisfy the row condition."""
        cols = self.columns
        return all(cols[j][-1] <= cols[j + 1][0] for j in range(len(cols) - 1))

    def to_tableau(self) -> QuasiRibbonTableau:
        if not self.is_quasi_ribbon_tableau():
            raise ValueError("tabloid is not a quasi-ribbon tableau")
        return QuasiRibbonTableau(self.shape, (a for col in self.columns for a in col))

    def ascii(self) -> str:
        return _ribbon_ascii(self.shape, tuple(a for col in self.columns for a in col))


def qr_tabloid_of(w: Word) -> QuasiRibbonTabloid:
    """The staircase tabloid whose columns are the maximal decreasing
    factors of ``w`` (read bottom to top)."""
    _check_symbols(w)
    return QuasiRibbonTabloid(tuple(reversed(f)) for f in max_decreasing_factorization(w))


def is_quasi_ribbon_word(w: Word) -> bool:
    """Whether ``w`` is the column reading of a quasi-ribbon tableau."""
    _check_symbols(w)
    factors = max_decreasing_factorization(w)
    return all(factors[j][0] <= factors[j + 1][-1] for j in range(len(factors) - 1))


def _shape_after_insert(shape: Composition, cut: int) -> Composition:
    """New ribbon shape when a cell is inserted at path position ``cut``:
    the breaks from ``cut`` on move one cell down the path, and the cell
    after the new one, if any, starts a row."""
    size = sum(shape)
    breaks = [d if d < cut else d + 1 for d in descents_of_composition(shape)]
    if cut < size:
        breaks.append(cut + 1)
    return composition_from_descents(breaks, size + 1)


def kt_insert(T: QuasiRibbonTableau, a: int) -> QuasiRibbonTableau:
    """Insert one symbol into a quasi-ribbon tableau.

    The new cell lands between the last entry that is at most ``a`` and
    the first entry exceeding it: everything up to that point keeps its
    place, ``a`` extends that row, and the remainder of the ribbon hangs
    below the new cell.
    """
    if not isinstance(T, QuasiRibbonTableau):
        raise ValueError("tableau must be a QuasiRibbonTableau")
    _check_symbols((a,))
    cut = bisect_right(T.entries, a)
    return QuasiRibbonTableau(
        _shape_after_insert(T.shape, cut),
        T.entries[:cut] + (a,) + T.entries[cut:],
    )


def _sort_positions(w: Word) -> tuple[list[int], Composition]:
    """Positions of ``w`` sorted stably by symbol, so that
    ``[h + 1 for h in order]`` is std(w)^-1, and the quasi-ribbon shape
    of ``w``: the descent composition of std(w)^-1.  Callers check ``w``."""
    order = sorted(range(len(w)), key=w.__getitem__)
    shape: list[int] = []
    prev = len(w)
    for h in order:
        if h < prev:
            shape.append(1)
        else:
            shape[-1] += 1
        prev = h
    return order, tuple(shape)


def hypo_rsk(w: Word) -> tuple[QuasiRibbonTableau, RecordingRibbon]:
    """The pair that inserting ``w`` symbol by symbol with ``kt_insert``
    builds, read off directly (Novelli): the tableau holds sorted(w) and
    the same-shape recording ribbon holds std(w)^-1.  The pair
    determines the word.  Both are valid by construction once the
    symbols are positive integers, so they are built without
    re-checking their entries.
    """
    _check_symbols(w)
    order, shape = _sort_positions(w)
    return (
        QuasiRibbonTableau._trusted(shape, tuple([w[h] for h in order])),
        RecordingRibbon._trusted(shape, tuple([h + 1 for h in order])),
    )


def hypo_rsk_inverse(T: QuasiRibbonTableau, R: RecordingRibbon) -> Word:
    """Recover the word inserting to ``(T, R)``.

    The entry in the path cell labelled k is the k-th symbol of the
    word.
    """
    if not isinstance(T, QuasiRibbonTableau):
        raise ValueError("tableau must be a QuasiRibbonTableau")
    if not isinstance(R, RecordingRibbon):
        raise ValueError("recording ribbon must be a RecordingRibbon")
    if T.shape != R.shape:
        raise ValueError("tableau and recording ribbon shapes differ")
    word = [0] * len(R.labels)
    for a, k in zip(T.entries, R.labels):
        word[k - 1] = a
    return tuple(word)


def predicted_shape(w: Word) -> Composition:
    """Shape of the quasi-ribbon tableau of ``w``, computed without
    building it: the descent composition of the inverse of std(w)."""
    _check_symbols(w)
    return _sort_positions(w)[1]


def hypo_congruent(u: Word, v: Word) -> bool:
    """Whether ``u`` and ``v`` have the same quasi-ribbon tableau.

    Both tableaux are read off one stable sort of each word: equal
    shapes first, then equal contents, the symbols in sorted order.
    Neither step grows with the largest symbol.
    """
    _check_symbols(u)
    _check_symbols(v)
    order_u, shape_u = _sort_positions(u)
    order_v, shape_v = _sort_positions(v)
    return shape_u == shape_v and [u[h] for h in order_u] == [v[h] for h in order_v]


def hypoplactic_relations(n: int) -> list[tuple[Word, Word]]:
    """The plactic relations plus cadb=acbd (a<=b<c<=d) and
    bdac=dbca (a<b<=c<d), with symbols at most ``n``."""
    pairs = list(plactic_relations(n))
    for c in range(2, n + 1):
        for d in range(c, n + 1):
            for b in range(1, c):
                for a in range(1, b + 1):
                    pairs.append(((c, a, d, b), (a, c, b, d)))
    for d in range(3, n + 1):
        for c in range(2, d):
            for b in range(2, c + 1):
                for a in range(1, b):
                    pairs.append(((b, d, a, c), (d, b, c, a)))
    return pairs


def standard_ribbon(shape: Composition) -> QuasiRibbonTableau:
    """The unique quasi-ribbon tableau of the given shape holding 1..N."""
    shape = validate_composition(shape)
    return QuasiRibbonTableau(shape, range(1, sum(shape) + 1))


def highest_weight_qrw(shape: Composition) -> Word:
    """Reading of the quasi-ribbon tableau whose row j holds only j."""
    shape = validate_composition(shape)
    entries = [j for j, part in enumerate(shape, start=1) for _ in range(part)]
    return QuasiRibbonTableau(shape, entries).reading()


def slide_up_slide_left(T: QuasiRibbonTableau) -> YoungTableau:
    """Slide ribbon columns up to the top row, then pack rows left.

    Applied to a quasi-ribbon tableau this yields its insertion tableau
    P; applied to the standard filling of the same shape it yields the
    recording tableau Q.
    """
    if not isinstance(T, QuasiRibbonTableau):
        raise ValueError("tableau must be a QuasiRibbonTableau")
    return YoungTableau(_top_aligned_rows(T.columns))
