"""Rank-condition ideals on the affine charts of Schubert varieties.

The chart attached to v is coordinatized by a patterned n x n matrix: column
j carries a 1 in display row v(j), zeros above it and to its right, and free
variables z_i_j elsewhere (i counts rows from the bottom, j columns from the
left).  The free cells, read in display coordinates, are exactly the diagram
boxes of v, so there are C(n,2) - length(v) of them.

The chart of the Schubert variety of w inside is cut out by the minors of
size R_w(i, j) + 1 of every southwest corner, the submatrix on display rows
i..n and columns 1..j, where R_w(i, j) counts {h <= j : w(h) >= i}.  By
Fulton's essential-set theorem (Fulton 1992) the corners at the essential
set of w already generate that ideal, so those are the only corners imposed.

Each row and column of the chart matrix holds at most one 1 and every other
nonzero cell is its own variable, so each placement of a minor's rows on
distinct nonzero columns gives its own +-1 monomial: a minor is the signed
sum of its placements, written straight into a packed integer term list
(raws as in kernel).  An `Ideal` stores its generators that way.
MultiPoly appears only at the edges: `Ideal.from_polys` packs polynomials
given by a caller, and `Ideal.generators` unpacks on first use (parsing,
printing, the Macaulay2 export).

The chart matrix of v and each of its minors depend on v alone, never on
w: w only picks which (rows, cols) the corners impose.  So one process-wide
memo, keyed on v, keeps a `_DetTable`: v's matrix as one grid of packed
cells, built once from the diagram of v, and every packed minor of it
computed so far, keyed by (rows, cols).  A pair's generators are lookups in
the memo of its v, in the order a fresh computation gives, and exactly the
same polynomials.

The variety of a homogeneous ideal is a cone, so one integer point of a
chart variety whose double lies off it proves the chart ideal not
homogeneous (`not_a_cone`).  Chart ideals are prime, so such a point exists
whenever the ideal is not homogeneous.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .kernel import SHIFT, keyed, order_pack
from .perm import Permutation, diagram, essential_set, require_bruhat, sw_rank
from .poly import MultiPoly, PolyRing


def var_name(i: int, j: int) -> str:
    return "z_%d_%d" % (i, j)


def pack_poly(f: MultiPoly) -> tuple[tuple[int, int], ...]:
    """The (raw, coeff) terms of f; a non-int coefficient raises ValueError."""
    for c in f.terms.values():
        if not isinstance(c, int):
            raise ValueError("MultiPoly wants integer coefficients, got %r" % (c,))
    pack = order_pack(f.ring.nvars)
    return tuple((pack.pack(e), c) for e, c in f.terms.items())


def unpack_poly(ring: PolyRing, terms) -> MultiPoly:
    """The MultiPoly of (raw, coeff) terms."""
    unpack = order_pack(ring.nvars).unpack
    return MultiPoly(ring, {unpack(r): c for r, c in terms})


@dataclass
class Ideal:
    """A finite generating set over a PolyRing.

    Each generator is a tuple of packed (raw, coeff) terms with integer
    coefficients, in no particular order; `generators` unpacks them into
    MultiPolys on first use.  `grading` is None, or one weight >= 1 per
    variable in which every generator is homogeneous; a chart ideal has the
    weights of its torus (`_DetTable`).
    """

    ring: PolyRing
    terms: tuple[tuple[tuple[int, int], ...], ...]
    grading: tuple[int, ...] | None = None

    @classmethod
    def from_polys(cls, ring: PolyRing, polys) -> "Ideal":
        """The ideal generated by the given MultiPolys over `ring`."""
        return cls(ring, tuple(pack_poly(f) for f in polys))

    @cached_property
    def generators(self) -> tuple[MultiPoly, ...]:
        return tuple(unpack_poly(self.ring, g) for g in self.terms)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.terms)


class _DetTable:
    """The chart matrix of v and its minors, memoized.

    `entry[r - 1][c - 1]` is the cell in display row r, column c: None for
    a zero, 0 (the raw it multiplies by) for the 1 in row v(c), and the raw
    of z_i_c, i = n - r + 1, for a free cell.  `ring` names the free cells
    in (i, j) order.  A minor is the signed sum of its placements, written
    out by `_place`; `minors` keeps each packed minor for the life of the
    table.

    Scaling display row r by s^r and column j by s^-v(j) fixes every 1 and
    scales z_i_j by s^(r - v(j)), so each minor is homogeneous in the
    weights `grading`, r - v(j) >= 1 as the free cells lie below the 1s.
    """

    def __init__(self, v: Permutation):
        n = v.n
        free = sorted((n - r + 1, j) for (r, j) in diagram(v))
        self.v = v
        self.ring = PolyRing(tuple(var_name(i, j) for (i, j) in free))
        self.grading = tuple(n - i + 1 - v(j) for (i, j) in free)
        self.pack = order_pack(len(free))
        self.entry = [[None] * n for _ in range(n)]
        for j, r in enumerate(v.word):
            self.entry[r - 1][j] = 0
        for k, (i, j) in enumerate(free):
            self.entry[n - i][j - 1] = 1 << (SHIFT * k)
        self.minors: dict = {}

    def minor(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> tuple:
        """The packed minor on rows x cols, content 1 with a positive
        grevlex leading coefficient; () when it vanishes."""
        key = (rows, cols)
        poly = self.minors.get(key)
        if poly is None:
            det: dict = {}
            _place([[self.entry[r - 1][c - 1] for c in cols] for r in rows], 0, 0, 0, 1, det)
            poly = self.minors[key] = tuple((r, c) for _, r, c in keyed(det.items(), self.pack))
        return poly


def _place(grid, i: int, used: int, raw: int, sign: int, det: dict) -> None:
    """Set det[raw] = sign for every placement of rows i.. of grid on unused
    nonzero columns, given rows 0..i-1 placed on the column bits of `used`
    with product `raw` and sign `sign`.  A row placed left of k used
    columns adds k inversions."""
    if i == len(grid):
        det[raw] = sign
        return
    for j, cell in enumerate(grid[i]):
        if cell is not None and not used >> j & 1:
            flip = -sign if (used >> j).bit_count() & 1 else sign
            _place(grid, i + 1, used | 1 << j, raw + cell, flip, det)


# v -> the _DetTable of its chart, for the life of the process
_MINORS: dict[Permutation, _DetTable] = {}


def _chart_table(v: Permutation) -> _DetTable:
    table = _MINORS.get(v)
    if table is None:
        table = _MINORS[v] = _DetTable(v)
    return table


def _minors_for_conditions(v: Permutation, conditions) -> tuple:
    """All minors of size rank+1 of the southwest corners, packed.

    `conditions` yields (i, j, rank): the corner spans display rows i..n
    and columns 1..j.  Each minor is normalized to content 1 with a
    positive grevlex leading coefficient, and zero or repeated minors are
    dropped.  The minors come from the memo of v.
    """
    n = v.n
    table = _chart_table(v)
    minor = table.minor
    seen = set()
    out = []
    for (i, j, rank) in conditions:
        for rows in combinations(range(i, n + 1), rank + 1):
            for cols in combinations(range(1, j + 1), rank + 1):
                poly = minor(rows, cols)
                if poly and poly not in seen:
                    seen.add(poly)
                    out.append(poly)
    return tuple(out)


def kl_generators(v: Permutation, w: Permutation) -> Ideal:
    """Rank-condition generators for the chart of X_w attached to v <= w,
    imposed at the southwest corners of the essential set of w.  Built
    afresh on each call; the minors come from the `_MINORS` memo of v."""
    require_bruhat(v, w)
    conditions = [(i, j, sw_rank(w, i, j)) for (i, j) in sorted(essential_set(w))]
    table = _chart_table(v)
    return Ideal(table.ring, _minors_for_conditions(v, conditions), table.grading)


# The parameters t of the factors 1 + t E_{i+1,i} of `not_a_cone`: one
# prime per factor of a reduced word up to S_7, reused cyclically beyond.
# Distinct primes satisfy no monomial relation; one t for every factor
# leaves (13245, 45312) undecided.
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)


def not_a_cone(v: Permutation, w: Permutation) -> bool:
    """True only if the chart variety of (v, w) is not a cone, so its ideal
    is not homogeneous; False means undecided.

    Peeling right descents s_i off w (w = w' s_i, the first i each time)
    lists a reduced word of w from its right end.  v's rightmost subword
    takes each s_i that is a right descent of what is left of v, and peels
    it off v too.  g is the product, in word order, of the permutation
    matrix of s_i on the subword and of 1 + t E_{i+1,i} elsewhere, t the
    next of `_PRIMES`: a point of B w B and of B_- v B (Marsh-Rietsch
    2004).  Built from the right end, each factor acts on rows.  Column
    reduction without fractions brings g into v's chart pattern with pivots
    d_j in place of the 1s: the chart point q up to column scaling.  True
    needs exact integer ranks to show that every essential southwest corner
    of q has rank at most R_w, so q is on the variety, and that one corner
    of 2q (every entry but the pivots doubled) has rank above it, so 2q is
    not.  Both facts are checked, so a wrong point can only give False.
    """
    n = v.n
    x, y = list(w.word), list(v.word)
    g = [[int(r == c) for c in range(n)] for r in range(n)]  # rows
    i = k = 0
    while i < n - 1:
        if x[i] < x[i + 1]:
            i += 1
            continue
        x[i], x[i + 1] = x[i + 1], x[i]
        if y[i] > y[i + 1]:  # a factor of the subword for v
            y[i], y[i + 1] = y[i + 1], y[i]
            g[i], g[i + 1] = g[i + 1], g[i]
        else:
            t = _PRIMES[k % len(_PRIMES)]
            g[i + 1] = [a + t * b for a, b in zip(g[i + 1], g[i])]
            k += 1
        i = max(i - 1, 0)  # the swap made no descent left of i - 1
    q = []  # (pivot row, pivot, column) of each reduced column
    for j, col in enumerate(zip(*g)):
        for p, d, c in q:
            a = col[p]
            if a:
                col = [d * e - a * f for e, f in zip(col, c)]
        p = v.word[j] - 1
        if any(col[:p]) or not col[p]:
            return False
        q.append((p, col[p], col))
    point = [c for _, _, c in q]
    doubled = [[e if r == p else 2 * e for r, e in enumerate(c)] for p, _, c in q]
    corners = [(i, j, sw_rank(w, i, j)) for (i, j) in essential_set(w)]
    return any(_rank_exceeds(doubled, *c) for c in corners) and not any(
        _rank_exceeds(point, *c) for c in corners
    )


def _rank_exceeds(cols, i: int, j: int, rank: int) -> bool:
    """Whether the corner on display rows i..n and columns 1..j of the integer
    matrix with columns `cols` has rank above `rank`, by exact elimination."""
    rows = [c[i - 1:] for c in cols[:j]]
    found = 0
    while rows:
        pivot = rows.pop()
        k = next((k for k, e in enumerate(pivot) if e), None)
        if k is None:
            continue
        found += 1
        if found > rank:
            return True
        p = pivot[k]
        rows = [[p * e - r[k] * f for e, f in zip(r, pivot)] if r[k] else r for r in rows]
    return False
