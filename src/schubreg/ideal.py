"""Rank-condition ideals on the affine charts of Schubert varieties.

The chart attached to v is coordinatized by a patterned n x n matrix: column
j carries a 1 in display row v(j), zeros above it and to its right, and free
variables z_i_j elsewhere (i counts rows from the bottom, j columns from the
left).  The free cells, read in display coordinates, are exactly the diagram
boxes of v, so there are C(n,2) - length(v) of them.

The chart of the Schubert variety of w inside is cut out by the minors of
size r_w(s, t) + 1 of every southwest s x t corner, where r_w(s, t) counts
{h <= t : w(h) >= n - s + 1}.  By Fulton's essential-set theorem (Fulton
1992) the corners at the essential set of w already generate that ideal, so
those are the only corners imposed.

Minors are expanded straight into packed integer term lists (raws as in
kernel.orders), and an `Ideal` stores its generators that way.  MultiPoly
appears only at the edges: `Ideal.from_polys` packs polynomials given by a
caller, and `Ideal.generators` unpacks on first use (parsing, printing, the
Macaulay2 export).

The chart matrix of v and each of its minors depend on v alone, never on
w: w only picks which (rows, cols) the corners impose.  So one process-wide
memo, keyed on v, keeps v's matrix, built once, and every packed minor of
it expanded so far, keyed by (rows, cols).  A pair's generators are lookups
in the memo of its v, in the order a fresh expansion gives, and exactly
the same polynomials.  The sub-determinants a cofactor expansion passes
through are dropped at the end of each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm

from .kernel import content_normalize
from .kernel.orders import SHIFT, order_pack
from .perm import Permutation, diagram, essential_set, require_bruhat, sw_rank
from .poly import MultiPoly, PolyRing

ZERO = 0
ONE = 1
VAR = 2


@dataclass(frozen=True, slots=True)
class GenericMatrix:
    """The patterned coordinate matrix of the chart attached to v.

    `cells` is indexed [display_row - 1][col - 1]; each cell is (ZERO,),
    (ONE,) or (VAR, i, j) with (i, j) the bottom-up coordinates naming the
    free variable z_i_j.  `free_cells` lists the (i, j) pairs in the order
    matching the ring's variables.
    """

    v: Permutation
    cells: tuple[tuple[tuple, ...], ...]
    free_cells: tuple[tuple[int, int], ...]
    ring: PolyRing

    @property
    def n(self) -> int:
        return self.v.n


def var_name(i: int, j: int) -> str:
    return "z_%d_%d" % (i, j)


def generic_matrix(v: Permutation) -> GenericMatrix:
    n = v.n
    # the matrix lives as long as the memo of v, so its 0 and 1 cells are shared
    zero, one = (ZERO,), (ONE,)
    grid = [[zero] * n for _ in range(n)]
    for j in range(1, n + 1):
        grid[v(j) - 1][j - 1] = one
    free = []
    for (r, j) in sorted(diagram(v), key=lambda box: (v.n - box[0], box[1])):
        # display row r, bottom-up row i = n - r + 1; sort yields (i, j) order
        i = n - r + 1
        grid[r - 1][j - 1] = (VAR, i, j)
        free.append((i, j))
    ring = PolyRing(tuple(var_name(i, j) for (i, j) in free))
    return GenericMatrix(v, tuple(tuple(row) for row in grid), tuple(free), ring)


def pack_poly(f: MultiPoly) -> tuple[tuple[int, int], ...]:
    """The (raw, coeff) terms of f, scaled to integer coefficients."""
    denom = 1
    for c in f.terms.values():
        denom = lcm(denom, c.denominator)
    pack = order_pack(f.ring.nvars)
    return tuple((pack.pack(e), int(c * denom)) for e, c in f.terms.items())


def unpack_poly(ring: PolyRing, terms) -> MultiPoly:
    """The MultiPoly of (raw, coeff) terms."""
    unpack = order_pack(ring.nvars).unpack
    return MultiPoly(ring, {unpack(r): Fraction(c) for r, c in terms})


@dataclass
class Ideal:
    """A finite generating set over a PolyRing.

    Each generator is a tuple of packed (raw, coeff) terms with integer
    coefficients, in no particular order; `generators` unpacks them into
    MultiPolys on first use.
    """

    ring: PolyRing
    terms: tuple[tuple[tuple[int, int], ...], ...]

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

    Rows and columns are display coordinates; the cofactor expansion walks
    the line (row or column) with the most structural zeros.  Determinants
    are {raw: int} dicts: a 1 cell multiplies by raw 0, a free cell by the
    raw of its variable.  `minors` keeps each packed minor for the life of
    the table; `memo` holds the sub-determinants of the current call.
    """

    def __init__(self, matrix: GenericMatrix):
        self.matrix = matrix
        self.keyof = order_pack(matrix.ring.nvars).keyof
        var_raw = {ij: 1 << (SHIFT * k) for k, ij in enumerate(matrix.free_cells)}
        # entry[r - 1][c - 1]: None for a zero cell, else the raw it multiplies by
        self.entry = [
            [None if kind[0] == ZERO else 0 if kind[0] == ONE else var_raw[kind[1:]]
             for kind in row]
            for row in matrix.cells
        ]
        self.minors: dict = {}
        self.memo: dict = {}

    def minor(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> tuple:
        """The packed minor on rows x cols, content 1 with a positive
        grevlex leading coefficient; () when it vanishes."""
        key = (rows, cols)
        poly = self.minors.get(key)
        if poly is None:
            keyof = self.keyof
            det = self.det(rows, cols)
            terms = sorted(((keyof(r), r, c) for r, c in det.items()), reverse=True)
            poly = self.minors[key] = tuple((r, c) for _, r, c in content_normalize(terms))
        return poly

    def det(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> dict:
        key = (rows, cols)
        found = self.memo.get(key)
        if found is None:
            found = self.memo[key] = self._expand(rows, cols) if rows else {0: 1}
        return found

    def _expand(self, rows, cols) -> dict:
        size = len(rows)
        grid = [[self.entry[r - 1][c - 1] for c in cols] for r in rows]
        # expand along the first line, rows before columns, with the most zeros
        row_zeros = [row.count(None) for row in grid]
        col_zeros = [col.count(None) for col in zip(*grid)]
        i = max(range(size), key=row_zeros.__getitem__)
        j = max(range(size), key=col_zeros.__getitem__)
        if col_zeros[j] > row_zeros[i]:
            line = [(k, j) for k in range(size)]
        else:
            line = [(i, k) for k in range(size)]
        # Each row and column has at most one 1 and every other nonzero cell
        # its own variable, so the variables of a monomial fix the
        # permutation it comes from: no two cells of the line give the same
        # monomial, and every coefficient is +-1.
        total: dict = {}
        for i, j in line:
            shift = grid[i][j]
            if shift is None:
                continue
            minor = self.det(rows[:i] + rows[i + 1 :], cols[:j] + cols[j + 1 :])
            sign = -1 if (i + j) % 2 else 1
            for r, c in minor.items():
                total[r + shift] = sign * c
        return total


# v -> the _DetTable of its chart, for the life of the process
_MINORS: dict[Permutation, _DetTable] = {}


def _chart_table(v: Permutation) -> _DetTable:
    table = _MINORS.get(v)
    if table is None:
        table = _MINORS[v] = _DetTable(generic_matrix(v))
    return table


def _minors_for_conditions(matrix: GenericMatrix, conditions) -> tuple:
    """All minors of size rank+1 of southwest s x t corners, packed.

    `conditions` yields (s, t, rank) in bottom-up coordinates.  Each minor
    is normalized to content 1 with a positive grevlex leading coefficient,
    and zero or repeated minors are dropped.  The minors come from the memo
    of matrix.v.
    """
    n = matrix.n
    table = _chart_table(matrix.v)
    minor = table.minor
    seen = set()
    out = []
    for (s, t, rank) in conditions:
        for rows in combinations(range(n - s + 1, n + 1), rank + 1):
            for cols in combinations(range(1, t + 1), rank + 1):
                poly = minor(rows, cols)
                if poly and poly not in seen:
                    seen.add(poly)
                    out.append(poly)
    table.memo.clear()
    return tuple(out)


def kl_generators(v: Permutation, w: Permutation) -> Ideal:
    """Rank-condition generators for the chart of X_w attached to v <= w,
    imposed at the southwest corners of the essential set of w."""
    require_bruhat(v, w)
    matrix = _chart_table(v).matrix
    n = w.n
    conditions = [(n - i + 1, j, sw_rank(w, i, j)) for (i, j) in sorted(essential_set(w))]
    return Ideal(matrix.ring, _minors_for_conditions(matrix, conditions))
