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

    def cell(self, display_row: int, col: int) -> tuple:
        return self.cells[display_row - 1][col - 1]

    def cell_bottom_up(self, i: int, j: int) -> tuple:
        return self.cells[self.n - i][j - 1]

    def ascii(self) -> str:
        rows = []
        for r in range(1, self.n + 1):
            chunk = []
            for c in range(1, self.n + 1):
                kind = self.cells[r - 1][c - 1]
                if kind[0] == ZERO:
                    chunk.append(".")
                elif kind[0] == ONE:
                    chunk.append("1")
                else:
                    chunk.append("z%d%d" % (kind[1], kind[2]))
            rows.append(" ".join("%5s" % x for x in chunk))
        return "\n".join(rows)


def var_name(i: int, j: int) -> str:
    return "z_%d_%d" % (i, j)


def generic_matrix(v: Permutation) -> GenericMatrix:
    n = v.n
    grid = [[(ZERO,) for _ in range(n)] for _ in range(n)]
    for j in range(1, n + 1):
        grid[v(j) - 1][j - 1] = (ONE,)
    free = []
    for (r, j) in sorted(diagram(v), key=lambda box: (v.n - box[0], box[1])):
        # display row r, bottom-up row i = n - r + 1; sort yields (i, j) order
        i = n - r + 1
        grid[r - 1][j - 1] = (VAR, i, j)
        free.append((i, j))
    ring = PolyRing(tuple(var_name(i, j) for (i, j) in free))
    return GenericMatrix(v, tuple(tuple(row) for row in grid), tuple(free), ring)


def full_generic_matrix(n: int) -> GenericMatrix:
    """An all-free n x n matrix (used for one-variety rank ideals)."""
    grid = []
    free = []
    for r in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            i = n - r + 1
            row.append((VAR, i, j))
        grid.append(tuple(row))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            free.append((i, j))
    ring = PolyRing(tuple(var_name(i, j) for (i, j) in free))
    return GenericMatrix(
        Permutation.identity(n), tuple(grid), tuple(free), ring
    )


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
    """A finite generating set over a PolyRing, with optional provenance.

    Each generator is a tuple of packed (raw, coeff) terms with integer
    coefficients, in no particular order; `generators` unpacks them into
    MultiPolys on first use.
    """

    ring: PolyRing
    terms: tuple[tuple[tuple[int, int], ...], ...]
    provenance: str = ""

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
    """Memoized cofactor expansion over a patterned matrix.

    Rows and columns are display coordinates; the expansion walks the line
    (row or column) with the most structural zeros.  Determinants are
    {raw: int} dicts: a 1 cell multiplies by raw 0, a free cell by the raw
    of its variable.
    """

    def __init__(self, matrix: GenericMatrix):
        var_raw = {ij: 1 << (SHIFT * k) for k, ij in enumerate(matrix.free_cells)}
        # entry[r - 1][c - 1]: None for a zero cell, else the raw it multiplies by
        self.entry = [
            [None if kind[0] == ZERO else 0 if kind[0] == ONE else var_raw[kind[1:]]
             for kind in row]
            for row in matrix.cells
        ]
        self.memo: dict = {}

    def det(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> dict:
        key = (rows, cols)
        found = self.memo.get(key)
        if found is None:
            found = self.memo[key] = self._expand(rows, cols) if rows else {0: 1}
        return found

    def _expand(self, rows, cols) -> dict:
        size = len(rows)
        grid = [[self.entry[r - 1][c - 1] for c in cols] for r in rows]
        # every row, then every column, as (row index, column index) cells;
        # expand along the first line with the fewest nonzero cells
        lines = [[(i, j) for j in range(size)] for i in range(size)]
        lines += [[(i, j) for i in range(size)] for j in range(size)]
        line = min(lines, key=lambda cells: sum(grid[i][j] is not None for i, j in cells))
        total: dict = {}
        for i, j in line:
            shift = grid[i][j]
            if shift is None:
                continue
            minor = self.det(rows[:i] + rows[i + 1 :], cols[:j] + cols[j + 1 :])
            sign = -1 if (i + j) % 2 else 1
            for r, c in minor.items():
                r += shift
                s = total.get(r, 0) + sign * c
                if s:
                    total[r] = s
                else:
                    del total[r]
        return total


def _minors_for_conditions(matrix: GenericMatrix, conditions) -> tuple:
    """All minors of size rank+1 of southwest s x t corners, packed.

    `conditions` yields (s, t, rank) in bottom-up coordinates.  Each minor
    is normalized to content 1 with a positive grevlex leading coefficient,
    and zero or repeated minors are dropped.
    """
    n = matrix.n
    keyof = order_pack(matrix.ring.nvars).keyof
    table = _DetTable(matrix)
    seen = set()
    out = []
    for (s, t, rank) in conditions:
        for rows in combinations(range(n - s + 1, n + 1), rank + 1):
            for cols in combinations(range(1, t + 1), rank + 1):
                det = table.det(rows, cols)
                terms = sorted(((keyof(r), r, c) for r, c in det.items()), reverse=True)
                poly = tuple((r, c) for _, r, c in content_normalize(terms))
                if poly and poly not in seen:
                    seen.add(poly)
                    out.append(poly)
    return tuple(out)


def _essential_conditions(w: Permutation) -> list[tuple[int, int, int]]:
    """(s, t, rank) of the southwest corners at the essential set of w."""
    n = w.n
    return [(n - i + 1, j, sw_rank(w, i, j)) for (i, j) in sorted(essential_set(w))]


def kl_generators(v: Permutation, w: Permutation) -> Ideal:
    """Rank-condition generators for the chart of X_w attached to v <= w."""
    require_bruhat(v, w)
    matrix = generic_matrix(v)
    return Ideal(
        matrix.ring,
        _minors_for_conditions(matrix, _essential_conditions(w)),
        provenance="rank-conditions(v=%s, w=%s)" % (v, w),
    )


def schubert_determinantal_generators(w: Permutation) -> Ideal:
    """The one-variety rank ideal of w over a fully generic matrix."""
    matrix = full_generic_matrix(w.n)
    return Ideal(
        matrix.ring,
        _minors_for_conditions(matrix, _essential_conditions(w)),
        provenance="rank-conditions(matrix; w=%s)" % w,
    )
