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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .kernel import SHIFT, content_normalize, order_pack
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

    `entry[r - 1][c - 1]` is the cell in display row r, column c: None for
    a zero, 0 (the raw it multiplies by) for the 1 in row v(c), and the raw
    of z_i_c, i = n - r + 1, for a free cell.  `ring` names the free cells
    in (i, j) order.  A minor is the signed sum of its placements, written
    out by `_place`; `minors` keeps each packed minor for the life of the
    table.
    """

    def __init__(self, v: Permutation):
        n = v.n
        free = sorted((n - r + 1, j) for (r, j) in diagram(v))
        self.v = v
        self.ring = PolyRing(tuple(var_name(i, j) for (i, j) in free))
        self.keyof = order_pack(len(free)).keyof
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
            keyof = self.keyof
            terms = sorted(((keyof(r), r, c) for r, c in det.items()), reverse=True)
            poly = self.minors[key] = tuple((r, c) for _, r, c in content_normalize(terms))
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
    imposed at the southwest corners of the essential set of w."""
    require_bruhat(v, w)
    conditions = [(i, j, sw_rank(w, i, j)) for (i, j) in sorted(essential_set(w))]
    return Ideal(_chart_table(v).ring, _minors_for_conditions(v, conditions))
