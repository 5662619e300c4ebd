"""Reference answers the benchmark checks the program's outputs against.

Nothing here imports the package under test.  Each function computes
an expected result by a route different from the library's timed path:
closed forms where the theory gives one (Novelli's characterization of
the quasi-ribbon insertion pair, the hook-content formula, the Möbius
inversion of Novelli's coarsening sum), and plain enumeration over
short inputs elsewhere.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial


def std(w):
    """Standardization: rank of each position, ties broken left to right."""
    out = [0] * len(w)
    for rank, h in enumerate(sorted(range(len(w)), key=w.__getitem__), start=1):
        out[h] = rank
    return tuple(out)


def inverse(p):
    out = [0] * len(p)
    for pos, value in enumerate(p, start=1):
        out[value - 1] = pos
    return tuple(out)


def descent_composition(p):
    parts, start = [], 0
    for k in range(1, len(p)):
        if p[k - 1] > p[k]:
            parts.append(k - start)
            start = k
    if p:
        parts.append(len(p) - start)
    return tuple(parts)


def weight(w):
    counts = [0] * (max(w) if w else 0)
    for a in w:
        counts[a - 1] += 1
    return tuple(counts)


def hypo_pair(w):
    """Novelli's closed form of quasi-ribbon insertion: the tableau holds
    sorted(w) in the ribbon of shape des(std(w)^-1), and the recording
    ribbon holds std(w)^-1 along the same path."""
    sigma = inverse(std(w))
    return descent_composition(sigma), tuple(sorted(w)), sigma


def hypo_shape(w):
    return descent_composition(inverse(std(w)))


def hypo_congruent(u, v):
    return weight(u) == weight(v) and hypo_shape(u) == hypo_shape(v)


def qrt_reading(shape, entries):
    """Column reading (each column bottom to top) of a ribbon filling
    stored along its path, or None when the filling is not a
    quasi-ribbon tableau."""
    breaks, cut = set(), 0
    for part in shape[:-1]:
        cut += part
        breaks.add(cut)
    columns = []
    for idx, a in enumerate(entries):
        if idx and idx in breaks:
            if a <= entries[idx - 1]:
                return None
            columns[-1].append(a)
        else:
            if idx and a < entries[idx - 1]:
                return None
            columns.append([a])
    return tuple(a for col in columns for a in reversed(col))


def rsk(w):
    """Schensted insertion of a short word, as (P rows, Q rows)."""
    p_rows, q_rows = [], []
    for t, a in enumerate(w, start=1):
        r = 0
        while True:
            if r == len(p_rows):
                p_rows.append([a])
                q_rows.append([t])
                break
            row = p_rows[r]
            c = bisect_right(row, a)
            if c == len(row):
                row.append(a)
                q_rows[r].append(t)
                break
            row[c], a = a, row[c]
            r += 1
    return (tuple(map(tuple, p_rows)), tuple(map(tuple, q_rows)))


def plactic_shape(w):
    return tuple(len(row) for row in rsk(w)[0])


def longest_weak_increasing(w):
    tails = []
    for a in w:
        k = bisect_right(tails, a)
        if k == len(tails):
            tails.append(a)
        else:
            tails[k] = a
    return len(tails)


def longest_strict_decreasing(w):
    # A strictly decreasing subsequence of w is a strictly increasing
    # one of -w; patience sorting with bisect_left finds its length.
    tails = []
    for a in w:
        k = bisect_left(tails, -a)
        if k == len(tails):
            tails.append(-a)
        else:
            tails[k] = -a
    return len(tails)


def ssyt_count(shape, n):
    """Hook-content formula: tableaux of a partition shape over 1..n,
    which is the size of a crystal component of that shape."""
    num = den = 1
    conjugate = [sum(1 for part in shape if part > c) for c in range(shape[0])] if shape else []
    for r, part in enumerate(shape):
        for c in range(part):
            num *= n + c - r
            den *= (part - c - 1) + (conjugate[c] - r - 1) + 1
    return num // den


def qrt_count(shape, n):
    ell = len(shape)
    return comb(n + sum(shape) - ell, n - ell) if ell <= n else 0


def class_size(shape, n):
    """Hypoplactic class size by the O(l^2) Möbius inversion of
    Novelli's coarsening sum over partial sums s_0 < ... < s_l."""
    if len(shape) > n:
        return 0
    sums = [0]
    for part in shape:
        sums.append(sums[-1] + part)
    g = [Fraction(1)]
    for j in range(1, len(sums)):
        g.append(sum(
            (-1) ** (j - i - 1) * g[i] / factorial(sums[j] - sums[i]) for i in range(j)
        ))
    size = factorial(sums[-1]) * g[-1]
    if size.denominator != 1:
        raise ArithmeticError(f"class size of {shape} is not an integer")
    return size.numerator


def multinomial(parts):
    out, total = 1, 0
    for p in parts:
        total += p
        out *= comb(total, p)
    return out


def compositions(total):
    for mask in range(1 << (total - 1)):
        parts, start = [], 0
        for k in range(1, total):
            if mask >> (k - 1) & 1:
                parts.append(k - start)
                start = k
        parts.append(total - start)
        yield tuple(parts)


@lru_cache(maxsize=None)
def qrw_recording_tableaux(total):
    """Map from each recording tableau of a quasi-ribbon word of length
    ``total`` to the fewest ribbon rows such a word needs.  A crystal
    component holds a quasi-ribbon word over 1..n exactly when its
    recording tableau is a key here with value at most n."""
    found = {}
    for alpha in compositions(total):
        q = rsk(qrt_reading(alpha, tuple(range(1, total + 1))))[1]
        found[q] = min(found.get(q, len(alpha)), len(alpha))
    return found


def contains_qrw(w, n):
    rows = qrw_recording_tableaux(len(w)).get(rsk(w)[1])
    return rows is not None and rows <= n


def iso_components_with_qrw(lam, n):
    """Crystal components of shape ``lam`` over 1..n holding a
    quasi-ribbon word, counted through their recording tableaux."""
    return sum(
        1 for q, rows in qrw_recording_tableaux(sum(lam)).items()
        if rows <= n and tuple(map(len, q)) == tuple(lam)
    )


def factorization_count(w, alpha, beta):
    """Products uv congruent to ``w`` with u, v quasi-ribbon words of
    shapes ``alpha`` and ``beta``, enumerated over weight splits."""
    wt = weight(w)
    count = 0
    for left in product(*(range(c + 1) for c in wt)):
        if sum(left) != sum(alpha):
            continue
        right = [c - l for c, l in zip(wt, left)]
        u = qrt_reading(alpha, [k for k, c in enumerate(left, 1) for _ in range(c)])
        v = qrt_reading(beta, [k for k, c in enumerate(right, 1) for _ in range(c)])
        if u is not None and v is not None and hypo_congruent(w, u + v):
            count += 1
    return count
