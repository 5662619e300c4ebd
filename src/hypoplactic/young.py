"""Young tableaux, Schensted insertion, the classical insertion
correspondence, Yamanouchi words, and the plactic congruence.

Tableaux are stored row by row, top row first, in the top-left-aligned
(English) convention.  Tabloids are stored column by column since that
is how they are read.  The column storage, its checks, equality, hash
and repr live in one private base, ``_ColumnFilling``, which this
module's ``Tabloid`` and the quasi-ribbon tabloid share.  A Young
tableau lists its columns too, as its rows transposed, so
``column_reading`` reads the ``columns`` of any of the four fillings
and ``to_tabloid`` wraps them.  Rows, columns, words and inserted
symbols are checked by ``words._check_symbols``.

Schensted insertion is one private bumping loop over a whole word,
shared by ``schensted_insert``, ``rsk`` and ``plactic_congruent`` here
and by the crystal root and ``plac_component_contains_qrw`` in
``graphs``.  It appends without bisecting once a symbol reaches the
row's last entry, and records only the row in which each insertion
ended; ``rsk`` builds the recording tableau Q from those end rows
after the loop.  While it bumps, each row list opens with a 0 that
every symbol exceeds, so the loop needs no test for column 0 and
index c + 1 holds column c; the 0s are stripped before it returns.
Below the top row it uses the row-bumping lemma: an entry bumped out
of column c lands in the next row at a column no further right than
c, because that row's entry in column c, where there is one, lies
strictly below the bumped entry in its column and so exceeds it.  Such
an entry needs no end-of-row test.  It lands at c unless the entry
left of c exceeds it, then at c - 1 unless the entry left of that
does, then at c - 2 unless the entry left of that does, and only
otherwise bisects the columns left of c - 2.  One private
reverse-bumping loop undoes it from the end rows, for ``rsk_inverse``
and for the crystal root in ``graphs``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .words import Word, _check_bound, _check_symbols, is_standard, max_decreasing_factorization


def _render_grid(cells: dict[tuple[int, int], int]) -> str:
    """ASCII grid for a partial filling indexed by (row, column), 0-based."""
    if not cells:
        return "(empty)"
    width = max(len(str(v)) for v in cells.values())
    nrows = max(r for r, _ in cells) + 1
    ncols = max(c for _, c in cells) + 1
    lines = []
    for r in range(nrows):
        row = [
            str(cells[r, c]).rjust(width) if (r, c) in cells else " " * width
            for c in range(ncols)
        ]
        lines.append(" ".join(row).rstrip())
    return "\n".join(lines)


def _top_aligned_rows(columns) -> list[list[int]]:
    """The rows of ``columns`` hung from one top row, each row packed
    to the left.  Given the rows of a Young tableau in place of
    columns, it returns the tableau's columns."""
    height = max(map(len, columns), default=0)
    return [[col[r] for col in columns if len(col) > r] for r in range(height)]


class YoungTableau:
    """A filling of a Young diagram, rows non-decreasing left to right
    and columns strictly increasing top to bottom."""

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        rows = tuple(tuple(row) for row in rows)
        for r, row in enumerate(rows):
            if not row:
                raise ValueError("tableau rows must be non-empty")
            _check_symbols(row)
            if any(row[c] > row[c + 1] for c in range(len(row) - 1)):
                raise ValueError(f"row {r + 1} is not non-decreasing")
            if r > 0:
                above = rows[r - 1]
                if len(row) > len(above):
                    raise ValueError("row lengths must be non-increasing")
                if any(row[c] <= above[c] for c in range(len(row))):
                    raise ValueError(f"column through row {r + 1} is not increasing")
        self.rows = rows

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "YoungTableau":
        """Wrap rows that insertion built, which are valid by
        construction; checks nothing."""
        t = object.__new__(cls)
        t.rows = rows
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    def entries(self) -> list[int]:
        return [a for row in self.rows for a in row]

    @property
    def columns(self) -> list[tuple[int, ...]]:
        """The columns, left to right, each listed top to bottom: the
        rows transposed."""
        return list(map(tuple, _top_aligned_rows(self.rows)))

    def to_tabloid(self) -> "Tabloid":
        """The same filling viewed column by column."""
        return Tabloid(self.columns)

    def ascii(self) -> str:
        cells = {
            (r, c): a
            for r, row in enumerate(self.rows)
            for c, a in enumerate(row)
        }
        return _render_grid(cells)

    def to_json_dict(self) -> dict:
        return {"rows": [list(row) for row in self.rows]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "YoungTableau":
        return cls(data["rows"])

    def __eq__(self, other):
        return isinstance(other, YoungTableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"{type(self).__name__}({[list(r) for r in self.rows]})"


class StandardYoungTableau(YoungTableau):
    """A Young tableau containing each of 1..N exactly once."""

    __slots__ = ()

    def __init__(self, rows=()):
        super().__init__(rows)
        if not is_standard(self.entries()):
            raise ValueError("standard tableau must contain 1..N exactly once")


class _ColumnFilling:
    """Columns, each strictly increasing top to bottom, stored left to
    right: the storage and checks that the tabloids share.  A subclass
    fixes how the columns are laid out; a filling equals only a filling
    of its own class."""

    __slots__ = ("columns",)

    def __init__(self, columns=()):
        columns = tuple(tuple(col) for col in columns)
        for col in columns:
            if not col:
                raise ValueError("tabloid columns must be non-empty")
            _check_symbols(col)
            if any(col[r] >= col[r + 1] for r in range(len(col) - 1)):
                raise ValueError("tabloid columns must strictly increase downwards")
        self.columns = columns

    @property
    def size(self) -> int:
        return sum(len(col) for col in self.columns)

    def __eq__(self, other):
        return type(other) is type(self) and self.columns == other.columns

    def __hash__(self):
        return hash(self.columns)

    def __repr__(self):
        return f"{type(self).__name__}({[list(c) for c in self.columns]})"


class Tabloid(_ColumnFilling):
    """Concatenated columns, each strictly increasing top to bottom.

    Unlike a tableau there is no constraint across a row and no
    constraint on column heights.
    """

    __slots__ = ()

    def is_tableau(self) -> bool:
        """Whether the top-aligned column array is a valid Young tableau."""
        heights = [len(col) for col in self.columns]
        if any(heights[j] < heights[j + 1] for j in range(len(heights) - 1)):
            return False
        return all(
            row[c] <= row[c + 1]
            for row in _top_aligned_rows(self.columns)
            for c in range(len(row) - 1)
        )

    def to_tableau(self) -> YoungTableau:
        if not self.is_tableau():
            raise ValueError("tabloid is not a Young tableau")
        return YoungTableau(_top_aligned_rows(self.columns))

    def ascii(self) -> str:
        cells = {
            (r, c): a
            for c, col in enumerate(self.columns)
            for r, a in enumerate(col)
        }
        return _render_grid(cells)

    def to_json_dict(self) -> dict:
        return {"columns": [list(col) for col in self.columns]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Tabloid":
        return cls(data["columns"])


def _schensted(
    w: Word, rows: list[list[int]] | None = None
) -> tuple[list[list[int]], list[int]]:
    """Bump each symbol of ``w`` in turn into ``rows`` (a new empty
    tableau if ``None``), which it mutates and returns with the row in
    which each insertion ended.  Callers check ``w``.

    A symbol that is at least the last entry of a row is appended to it,
    with no search, and the insertion ends there; otherwise the symbol
    replaces the leftmost strictly greater entry, and the displaced entry
    goes on into the next row down, or starts a new row below the last
    one.  The loop keeps no other record: the recording tableau is built
    from the end rows afterwards.

    While it bumps, each row list opens with a 0, which every symbol
    exceeds since callers check them, so the index c of an entry is its
    column + 1.  The 0 is never bumped and is stripped before the rows
    are returned.  It stands left of every entry wherever the loop
    reads the entry left of c, and ends an empty tableau's top row,
    where the end-of-row test appends.

    The top row is searched whole.  Below it, the loop carries the
    index c that the bumped entry a left.  Where the next row has an
    index c, its entry there sat below a before the bump, so column
    strictness makes it greater than a: a lands at an index at most c
    and cannot end the insertion.  It lands at c when the entry at
    c - 1 is at most a, failing that at c - 1 when the entry at c - 2
    is, failing that at c - 2 when the entry at c - 3 is, and only
    failing all three is the row bisected, over the indices before
    c - 2.  On long words over many symbols most bumps stop at one of
    the three tests.  Where the row is shorter than c + 1 the
    end-of-row test and the whole-row search apply as in the top row.
    """
    if rows is None:
        rows = [[0]]
    else:
        for row in rows:
            row.insert(0, 0)
        if not rows:
            rows.append([0])
    top = rows[0]
    below = rows[1:]  # the same row lists as rows[1:], grown alongside it
    ends = []
    for a in w:
        if a >= top[-1]:
            top.append(a)
            ends.append(0)
            continue
        c = bisect_right(top, a)
        top[c], a = a, top[c]
        r = 1
        for row in below:
            if c < len(row):
                if row[c - 1] > a:  # row[c] sat below a, so a lands at c or left of it
                    c -= 1
                    if row[c - 1] > a:
                        c -= 1
                        if row[c - 1] > a:
                            c = bisect_right(row, a, 1, c - 1)
            elif a >= row[-1]:
                row.append(a)
                break
            else:
                c = bisect_right(row, a)
            row[c], a = a, row[c]
            r += 1
        else:
            row = [0, a]
            rows.append(row)
            below.append(row)
        ends.append(r)
    for row in rows:
        del row[0]
    if not top:
        rows.pop()
    return rows, ends


def _unschensted(rows: list[list[int]], ends: list[int]) -> Word:
    """Undo ``_schensted``: the word whose insertions, in turn, build
    ``rows`` and end in the rows ``ends``.  It empties ``rows``.

    The insertions are undone last first.  Insertion t added the last
    cell of row ``ends[t]``, so that cell's entry is popped and bumped
    back up: in each row above, it replaces the rightmost entry strictly
    smaller than itself, and the displaced entry goes on up.  The entry
    that leaves the top row is ``w[t]``.
    """
    w = [0] * len(ends)
    for t in range(len(ends) - 1, -1, -1):
        r = ends[t]
        a = rows[r].pop()
        for above in range(r - 1, -1, -1):
            row = rows[above]
            c = bisect_left(row, a) - 1
            row[c], a = a, row[c]
        w[t] = a
    return tuple(w)


def schensted_insert(T: YoungTableau, a: int) -> YoungTableau:
    """Insert one symbol into a Young tableau.

    The symbol is appended to the top row if it is at least every entry
    there; otherwise it replaces the leftmost strictly greater entry and
    the displaced entry is inserted into the next row down.
    """
    if not isinstance(T, YoungTableau):
        raise ValueError("tableau must be a YoungTableau")
    _check_symbols((a,))
    rows, _ = _schensted((a,), [list(row) for row in T.rows])
    return YoungTableau(rows)


def rsk(w: Word) -> tuple[YoungTableau, StandardYoungTableau]:
    """Insert the word symbol by symbol, recording insertion order.

    Returns the insertion tableau P and the recording tableau Q, which
    always share a shape; the map w -> (P, Q) is injective.  The
    insertion of the i-th symbol ends by adding a cell at the end of
    some row, so Q is built from the end rows after the loop: i goes at
    the end of the row its insertion ended in, and each row of Q then
    increases.  That Q has P's shape is checked.  Both are valid by
    construction once the symbols are positive integers, so they are
    built without re-checking their entries.
    """
    _check_symbols(w)
    p_rows, ends = _schensted(w)
    q_rows: list[list[int]] = [[] for _ in p_rows]
    for i, r in enumerate(ends, start=1):
        q_rows[r].append(i)
    if list(map(len, q_rows)) != list(map(len, p_rows)):
        raise AssertionError("P and Q grew different cells")
    return (
        YoungTableau._trusted(tuple(map(tuple, p_rows))),
        StandardYoungTableau._trusted(tuple(map(tuple, q_rows))),
    )


def rsk_inverse(P: YoungTableau, Q: StandardYoungTableau) -> Word:
    """Recover the word that ``rsk`` sends to ``(P, Q)``, by reverse
    bumping.

    The k-th insertion ended in the row of Q that holds k, so these end
    rows undo the insertions of P, last first.  Any Young tableau P and
    standard Young tableau Q of one shape are the pair of some word.
    """
    if not isinstance(P, YoungTableau):
        raise ValueError("insertion tableau must be a YoungTableau")
    if not isinstance(Q, StandardYoungTableau):
        raise ValueError("recording tableau must be a StandardYoungTableau")
    if P.shape != Q.shape:
        raise ValueError("insertion and recording tableau shapes differ")
    ends = [0] * Q.size
    for r, row in enumerate(Q.rows):
        for k in row:
            ends[k - 1] = r
    return _unschensted([list(row) for row in P.rows], ends)


def column_reading(t) -> Word:
    """Read columns left to right, each bottom to top.

    Accepts any filling whose ``columns`` are listed top to bottom: a
    YoungTableau, a Tabloid, a QuasiRibbonTabloid or a
    QuasiRibbonTableau; anything else is a ValueError.
    ``quasiribbon.qr_column_reading`` is this same function.
    """
    columns = getattr(t, "columns", None)
    if columns is None:
        raise ValueError("expected a YoungTableau, Tabloid, QuasiRibbonTabloid or QuasiRibbonTableau")
    return tuple(a for col in columns for a in reversed(col))


def tabloid_of(w: Word) -> Tabloid:
    """The tabloid whose columns are the maximal decreasing factors of ``w``."""
    _check_symbols(w)
    return Tabloid(tuple(reversed(f)) for f in max_decreasing_factorization(w))


def is_tableau_word(w: Word) -> bool:
    """Whether ``w`` is the column reading of some Young tableau."""
    return tabloid_of(w).is_tableau()


def is_yamanouchi(w: Word) -> bool:
    """Whether every suffix of ``w`` has non-increasing weight.  Such a
    word holds every symbol 1..max(w), so a word shorter than its
    largest symbol is turned down before the counts are made."""
    _check_symbols(w)
    m = max(w, default=0)
    if m > len(w):
        return False
    counts = [0] * (m + 1)
    for a in reversed(w):
        counts[a] += 1
        # only the pair (a-1, a) can break when a is counted
        if a > 1 and counts[a - 1] < counts[a]:
            return False
    return True


def plactic_congruent(u: Word, v: Word) -> bool:
    """Whether ``u`` and ``v`` have the same insertion tableau P, by
    comparing the rows that bumping builds; no recording tableau is
    made."""
    _check_symbols(u)
    _check_symbols(v)
    return _schensted(u)[0] == _schensted(v)[0]


def plactic_relations(n: int) -> list[tuple[Word, Word]]:
    """All defining relations acb=cab (a<=b<c) and bac=bca (a<b<=c)
    with symbols at most ``n``."""
    _check_bound(n)
    pairs: list[tuple[Word, Word]] = []
    for c in range(2, n + 1):
        for b in range(1, c):
            for a in range(1, b + 1):
                pairs.append(((a, c, b), (c, a, b)))
    for b in range(2, n + 1):
        for a in range(1, b):
            for c in range(b, n + 1):
                pairs.append(((b, a, c), (b, c, a)))
    return pairs
