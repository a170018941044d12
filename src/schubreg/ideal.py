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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .perm import Permutation, bruhat_leq, diagram, essential_set, length, sw_rank
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


@dataclass
class Ideal:
    """A finite generating set over a PolyRing, with optional provenance and
    an optional attached Groebner basis certificate."""

    ring: PolyRing
    generators: tuple[MultiPoly, ...]
    provenance: str = ""
    groebner: Optional[object] = field(default=None, repr=False)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


class _DetTable:
    """Memoized cofactor expansion over a patterned matrix.

    Rows and columns are display coordinates; the expansion walks the line
    (row or column) with the most structural zeros.
    """

    def __init__(self, matrix: GenericMatrix):
        self.matrix = matrix
        self.ring = matrix.ring
        self.memo: dict = {}

    def det(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> MultiPoly:
        if len(rows) != len(cols):
            raise ValueError("determinant needs a square selection")
        if not rows:
            return self.ring.one()
        key = (rows, cols)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        value = self._expand(rows, cols)
        self.memo[key] = value
        return value

    def _expand(self, rows, cols) -> MultiPoly:
        cell = self.matrix.cell
        # pick the row or column with the fewest nonzero cells
        best_score = None
        best = None
        for axis, line in (("row", rows), ("col", cols)):
            for idx, label in enumerate(line):
                if axis == "row":
                    nonzero = sum(1 for c in cols if cell(label, c)[0] != ZERO)
                else:
                    nonzero = sum(1 for r in rows if cell(r, label)[0] != ZERO)
                if best_score is None or nonzero < best_score:
                    best_score = nonzero
                    best = (axis, idx)
        if best_score == 0:
            return self.ring.zero()
        axis, idx = best
        total = self.ring.zero()
        if axis == "row":
            r = rows[idx]
            sub_rows = rows[:idx] + rows[idx + 1 :]
            for cidx, c in enumerate(cols):
                kind = cell(r, c)
                if kind[0] == ZERO:
                    continue
                minor = self.det(sub_rows, cols[:cidx] + cols[cidx + 1 :])
                if minor.is_zero():
                    continue
                sign = -1 if (idx + cidx) % 2 else 1
                if kind[0] == ONE:
                    total = total + minor * sign
                else:
                    z = self.ring.var(var_name(kind[1], kind[2]))
                    total = total + z * minor * sign
        else:
            c = cols[idx]
            sub_cols = cols[:idx] + cols[idx + 1 :]
            for ridx, r in enumerate(rows):
                kind = cell(r, c)
                if kind[0] == ZERO:
                    continue
                minor = self.det(rows[:ridx] + rows[ridx + 1 :], sub_cols)
                if minor.is_zero():
                    continue
                sign = -1 if (ridx + idx) % 2 else 1
                if kind[0] == ONE:
                    total = total + minor * sign
                else:
                    z = self.ring.var(var_name(kind[1], kind[2]))
                    total = total + z * minor * sign
        return total


def _subsets(pool: list[int], k: int):
    n = len(pool)
    if k > n:
        return
    idx = list(range(k))
    while True:
        yield tuple(pool[i] for i in idx)
        for pos in range(k - 1, -1, -1):
            if idx[pos] != pos + n - k:
                break
        else:
            return
        idx[pos] += 1
        for later in range(pos + 1, k):
            idx[later] = idx[later - 1] + 1


def _canonical_sign(f: MultiPoly) -> MultiPoly:
    lead = max(f.terms.items(), key=lambda item: (sum(item[0]), item[0]))
    return -f if lead[1] < 0 else f


def _minors_for_conditions(matrix: GenericMatrix, conditions) -> list[MultiPoly]:
    """All minors of size rank+1 of southwest s x t corners.

    `conditions` yields (s, t, rank) in bottom-up coordinates; duplicate
    (rows, cols) selections are expanded once and duplicate or zero
    polynomials are dropped.  Each minor is sign-normalized so mirrored
    selections deduplicate.
    """
    n = matrix.n
    table = _DetTable(matrix)
    seen_selection = set()
    seen_poly = set()
    out = []
    for (s, t, rank) in conditions:
        k = rank + 1
        if k > min(s, t):
            continue
        display_rows = list(range(n - s + 1, n + 1))
        cols = list(range(1, t + 1))
        for row_sel in _subsets(display_rows, k):
            for col_sel in _subsets(cols, k):
                key = (row_sel, col_sel)
                if key in seen_selection:
                    continue
                seen_selection.add(key)
                det = table.det(row_sel, col_sel)
                if det.is_zero():
                    continue
                det = _canonical_sign(det)
                fingerprint = frozenset(det.terms.items())
                if fingerprint in seen_poly:
                    continue
                seen_poly.add(fingerprint)
                out.append(det)
    return out


def _essential_conditions(w: Permutation) -> list[tuple[int, int, int]]:
    """(s, t, rank) of the southwest corners at the essential set of w."""
    n = w.n
    return [(n - i + 1, j, sw_rank(w, i, j)) for (i, j) in sorted(essential_set(w))]


def kl_generators(v: Permutation, w: Permutation) -> Ideal:
    """Rank-condition generators for the chart of X_w attached to v <= w."""
    if v.n != w.n:
        raise ValueError("v and w must live in the same symmetric group")
    if not bruhat_leq(v, w):
        raise ValueError("%s is not below %s in Bruhat order" % (v, w))
    matrix = generic_matrix(v)
    gens = _minors_for_conditions(matrix, _essential_conditions(w))
    return Ideal(
        matrix.ring,
        tuple(gens),
        provenance="rank-conditions(v=%s, w=%s)" % (v, w),
    )


def schubert_determinantal_generators(w: Permutation) -> Ideal:
    """The one-variety rank ideal of w over a fully generic matrix."""
    matrix = full_generic_matrix(w.n)
    gens = _minors_for_conditions(matrix, _essential_conditions(w))
    return Ideal(matrix.ring, tuple(gens), provenance="rank-conditions(matrix; w=%s)" % w)


def is_homogeneous_ideal(ideal: Ideal, budget_ms: Optional[int] = None) -> bool:
    """Whether the ideal is homogeneous (not merely its given generators).

    Homogeneous generators settle it immediately; otherwise the reduced
    Groebner basis decides.
    """
    gens = [g for g in ideal.generators if not g.is_zero()]
    if all(g.is_homogeneous() for g in gens):
        return True
    from . import gb

    return gb.buchberger(ideal, budget_ms=budget_ms).is_homogeneous()
