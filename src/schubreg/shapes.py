"""Antidiagonal pushing, companion permutations and the diagonal tableau rule.

For a covexillary (3412-avoiding) w the regularity of the tangent cone of the
chart of the Schubert variety at a point indexed by v <= w is read off a
filled Young diagram: push the diagram boxes of a companion permutation down
their antidiagonals, fill each cell with a southwest rank, and sum longest
diagonals over the level sets of the filling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .perm import (
    Box,
    Permutation,
    all_permutations,
    bruhat_leq,
    code_and_shape,
    diagram,
    essential_set,
    is_covexillary,
    length,
    sw_rank,
)


class NotCovexillaryError(ValueError):
    """Raised when the tableau rule is asked about a 3412-containing w."""


class CompanionSearchError(RuntimeError):
    """Raised when the companion permutation is not determined uniquely."""


@dataclass(frozen=True, slots=True)
class CompanionData:
    """Moved essential boxes with their imposed ranks, and the witness."""

    moved: tuple[tuple[Box, int], ...]
    perm: Permutation


@dataclass(slots=True)
class Filling:
    """A bottom-left anchored French Young diagram with integer entries.

    `shape` lists row lengths bottom row first (grid row n, then n-1, ...);
    `entries` is keyed by grid cells (row, col).
    """

    n: int
    shape: tuple[int, ...]
    entries: dict[Box, int]

    def cells(self) -> tuple[Box, ...]:
        return tuple(sorted(self.entries))

    def entry(self, cell: Box) -> int:
        return self.entries[cell]

    def rows_bottom_up(self) -> tuple[tuple[int, ...], ...]:
        rows = []
        for k, width in enumerate(self.shape):
            row = self.n - k
            rows.append(tuple(self.entries[(row, col)] for col in range(1, width + 1)))
        return tuple(rows)

    def ascii(self) -> str:
        """French orientation: shortest row printed on top."""
        lines = []
        for values in reversed(self.rows_bottom_up()):
            lines.append(" ".join(str(x) for x in values))
        return "\n".join(lines)


def push_to_partition(boxes, n: int) -> tuple[tuple[int, ...], dict[Box, Box]]:
    """Slide boxes to the southwest ends of their antidiagonals.

    Boxes sharing an antidiagonal keep their relative order; the result must
    be a French Young diagram anchored at the bottom-left of the grid.
    Returns (partition, phi) where phi maps each pushed cell to its source.
    """
    by_diag: dict[int, list[Box]] = {}
    for box in boxes:
        by_diag.setdefault(box[0] + box[1], []).append(box)
    phi: dict[Box, Box] = {}
    for d, group in by_diag.items():
        group.sort(key=lambda box: -box[0])  # southwest to northeast
        row = min(n, d - 1)
        for box in group:
            if row < max(1, d - n):
                raise NotCovexillaryError(
                    "antidiagonal %d overflows the grid while pushing" % d
                )
            phi[(row, d - row)] = box
            row -= 1
    widths: dict[int, int] = {}
    for (r, c) in phi:
        widths[r] = max(widths.get(r, 0), c)
    if not phi:
        return (), {}
    count_by_row = {r: sum(1 for cell in phi if cell[0] == r) for r in widths}
    rows = sorted(widths)
    ok = rows == list(range(n - len(rows) + 1, n + 1))
    ok = ok and all(count_by_row[r] == widths[r] for r in rows)
    ok = ok and all(widths[rows[k]] <= widths[rows[k + 1]] for k in range(len(rows) - 1))
    if not ok:
        raise NotCovexillaryError("pushed boxes do not form an anchored Young diagram")
    shape = tuple(widths[r] for r in sorted(widths, reverse=True))
    return shape, phi


@lru_cache(maxsize=None)
def companion_permutation(v: Permutation, w: Permutation) -> CompanionData:
    """The covexillary permutation carrying the tangent-cone data of (v, w).

    Each essential box e of D(w) moves rho = R_v(e) steps southwest along its
    antidiagonal and imposes the rank R_w(e) - rho there.  The companion is
    the unique covexillary permutation with the length and shape of w meeting
    the imposed ranks.  When every rho vanishes the constraints are met by w
    itself, which is the unique solution; this shortcut is what keeps large
    staircase charts (n > 9) within reach.
    """
    if not is_covexillary(w):
        raise NotCovexillaryError("%s contains 3412" % w)
    if not bruhat_leq(v, w):
        raise ValueError("%s is not below %s in Bruhat order" % (v, w))
    n = w.n
    moved = []
    all_zero = True
    for (i, j) in sorted(essential_set(w)):
        rho = sw_rank(v, i, j)
        all_zero = all_zero and rho == 0
        target = (i + rho, j - rho)
        if target[0] > n or target[1] < 1:
            raise CompanionSearchError(
                "moved box %r leaves the grid for pair (%s, %s)" % (target, v, w)
            )
        imposed = sw_rank(w, i, j) - rho
        if imposed < 0:
            raise CompanionSearchError(
                "negative imposed rank at %r for pair (%s, %s)" % (target, v, w)
            )
        moved.append((target, imposed))
    moved_tuple = tuple(moved)
    if all_zero:
        return CompanionData(moved_tuple, w)
    if n > 9:
        raise CompanionSearchError(
            "companion search is only supported up to S_9 unless all moves vanish"
        )
    target_len = length(w)
    target_shape = code_and_shape(w)[1]
    found = []
    for u in all_permutations(n):
        if any(sw_rank(u, box[0], box[1]) != rank for box, rank in moved_tuple):
            continue
        if length(u) != target_len:
            continue
        if code_and_shape(u)[1] != target_shape:
            continue
        if not is_covexillary(u):
            continue
        found.append(u)
    if len(found) != 1:
        raise CompanionSearchError(
            "expected one companion for (%s, %s), found %d" % (v, w, len(found))
        )
    return CompanionData(moved_tuple, found[0])


def covexillary_rank_filling(u: Permutation) -> Filling:
    """Push D(u) to a partition and fill each cell b with R_u(phi(b))."""
    if not is_covexillary(u):
        raise NotCovexillaryError("%s contains 3412" % u)
    shape, phi = push_to_partition(diagram(u), u.n)
    entries = {cell: sw_rank(u, src[0], src[1]) for cell, src in phi.items()}
    return Filling(u.n, shape, entries)


def rank_filling(v: Permutation, w: Permutation) -> Filling:
    """The filled diagram of the companion permutation of (v, w)."""
    return covexillary_rank_filling(companion_permutation(v, w).perm)


def longest_diagonal(cells) -> int:
    """Largest number of cells sharing a value of row - col."""
    counts: dict[int, int] = {}
    best = 0
    for (r, c) in cells:
        d = r - c
        counts[d] = counts.get(d, 0) + 1
        if counts[d] > best:
            best = counts[d]
    return best


def level_components(filling: Filling, k: int) -> list[frozenset[Box]]:
    """Edge-connected components of the cells with entry >= k."""
    alive = {cell for cell, value in filling.entries.items() if value >= k}
    components = []
    while alive:
        seed = min(alive)
        stack = [seed]
        alive.discard(seed)
        comp = {seed}
        while stack:
            (r, c) = stack.pop()
            for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nb in alive:
                    alive.discard(nb)
                    comp.add(nb)
                    stack.append(nb)
        components.append(frozenset(comp))
    components.sort(key=min)
    return components


def diag_level_sum(filling: Filling) -> int:
    """Sum of longest diagonals over components of every positive level."""
    if not filling.entries:
        return 0
    total = 0
    for k in range(1, max(filling.entries.values()) + 1):
        for comp in level_components(filling, k):
            total += longest_diagonal(comp)
    return total


@lru_cache(maxsize=None)
def regularity_formula(v: Permutation, w: Permutation) -> int:
    """Tangent-cone regularity of the (v, w) chart by the tableau rule."""
    return diag_level_sum(rank_filling(v, w))
