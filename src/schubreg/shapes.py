"""Antidiagonal pushing, companion permutations and the diagonal tableau rule.

For a covexillary (3412-avoiding) w the regularity of the tangent cone of the
chart of the Schubert variety at a point indexed by v <= w is read off a
filled Young diagram: push the diagram boxes of a companion permutation down
their antidiagonals, fill each cell with a southwest rank, and sum longest
diagonals over the level sets of the filling.
"""

from __future__ import annotations

from functools import lru_cache

from .perm import (
    Box,
    Permutation,
    code_and_shape,
    diagram,
    essential_ranks,
    essential_set,
    is_covexillary,
    length,
    require_bruhat,
    sw_rank,
)


class NotCovexillaryError(ValueError):
    """Raised when the tableau rule is asked about a 3412-containing w."""


def push_to_partition(boxes, n: int) -> dict[Box, Box]:
    """Slide boxes to the southwest ends of their antidiagonals.

    Boxes sharing an antidiagonal keep their relative order; the result must
    be a French Young diagram anchored at the bottom-left of the grid.
    Returns phi, which maps each pushed cell (row, col) to its source.
    The boxes are the diagram of a covexillary permutation, so a result that
    is not such a diagram raises RuntimeError: it is a bug.
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
                raise RuntimeError("antidiagonal %d overflows the grid while pushing" % d)
            phi[(row, d - row)] = box
            row -= 1
    widths: dict[int, int] = {}
    for (r, c) in phi:
        widths[r] = max(widths.get(r, 0), c)
    rows = sorted(widths)
    ok = rows == list(range(n - len(rows) + 1, n + 1))
    ok = ok and len(phi) == sum(widths.values())  # no row has a gap
    ok = ok and all(widths[rows[k]] <= widths[rows[k + 1]] for k in range(len(rows) - 1))
    if not ok:
        raise RuntimeError("pushed boxes do not form an anchored Young diagram")
    return phi


# Never hit, since companion() memoises in front; the benchmark tracer reads its cache_info().
@lru_cache(maxsize=None)
def companion_permutation(v: Permutation, w: Permutation) -> Permutation:
    """The covexillary permutation carrying the tangent-cone data of (v, w).

    Each essential box e of D(w) moves rho = R_v(e) steps southwest along its
    antidiagonal and imposes the rank R_w(e) - rho there.  The companion
    kappa is the covexillary permutation with the length and shape of w that
    meets the imposed ranks (Li-Yong 2012).  Its rank function is the
    largest southwest rank function meeting them,

        R(a, j) = min(n - a + 1, j, min_e r_e + max(0, i_e - a) + max(0, j - j_e))

    over the moved boxes (i_e, j_e) with imposed ranks r_e.  Since
    R(a, j) - R(a, j-1) is 1 exactly for a <= kappa(j), kappa(j) is the
    column sum of R at j minus that at j-1.  When no box moves, this is the
    rank function of w itself (Fulton 1992).  The result is checked against
    every defining property; a failure raises RuntimeError, since for v <= w
    it is a bug, not a property of the input.
    """
    require_bruhat(v, w)
    if not is_covexillary(w):
        raise NotCovexillaryError("%s contains 3412" % w)
    n = w.n
    moved = []
    for (i, j) in sorted(essential_set(w)):
        rho = sw_rank(v, i, j)
        imposed = sw_rank(w, i, j) - rho
        if i + rho > n or j - rho < 1 or imposed < 0:
            raise RuntimeError(
                "essential box %r of %s moves to %r with rank %d for v = %s"
                % ((i, j), w, (i + rho, j - rho), imposed, v)
            )
        moved.append(((i + rho, j - rho), imposed))

    # sums[j] = sum over a of R(a, j); column 0 is zero
    sums = [0] * (n + 1)
    for a in range(1, n + 1):
        row = [(r + max(0, i - a), c) for (i, c), r in moved]
        for j in range(1, n + 1):
            sums[j] += min([n - a + 1, j] + [t + max(0, j - c) for t, c in row])
    word = [sums[j] - sums[j - 1] for j in range(1, n + 1)]
    if sorted(word) != list(range(1, n + 1)):
        raise RuntimeError(
            "the ranks imposed by (%s, %s) are not a permutation's" % (v, w)
        )
    kappa = Permutation(tuple(word))
    broken = [
        name
        for name, ok in (
            ("length", length(kappa) == length(w)),
            ("shape", code_and_shape(kappa)[1] == code_and_shape(w)[1]),
            ("covexillary", is_covexillary(kappa)),
            ("ranks", all(sw_rank(kappa, *box) == r for box, r in moved)),
        )
        if not ok
    ]
    if broken:
        raise RuntimeError(
            "companion %s of (%s, %s) fails: %s" % (kappa, v, w, ", ".join(broken))
        )
    return kappa


def covexillary_rank_filling(u: Permutation) -> dict[Box, int]:
    """Push D(u) to a partition and fill each cell b with R_u(phi(b)).

    The filling maps grid cells (row, col) to ranks; its cells form the
    French diagram of shape(u), bottom row at grid row n.
    """
    if not is_covexillary(u):
        raise NotCovexillaryError("%s contains 3412" % u)
    phi = push_to_partition(diagram(u), u.n)
    return {cell: sw_rank(u, src[0], src[1]) for cell, src in phi.items()}


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


def level_components(filling: dict[Box, int], k: int) -> list[frozenset[Box]]:
    """Edge-connected components of the cells with entry >= k."""
    alive = {cell for cell, value in filling.items() if value >= k}
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


def diag_level_sum(filling: dict[Box, int]) -> int:
    """Sum of longest diagonals over components of every positive level."""
    total = 0
    for k in range(1, max(filling.values(), default=0) + 1):
        for comp in level_components(filling, k):
            total += longest_diagonal(comp)
    return total


# The tableau route's memos.  The companion of (v, w) reads v only through
# R_v on Ess(w), so (w, those ranks) fixes it, and the regularity reads the
# pair only through kappa.  Both memos are exact.
_COMPANIONS: dict = {}  # (w, essential_ranks(v, w)) -> kappa
_KAPPA_REG: dict = {}  # kappa -> diag_level_sum of its rank filling


def companion(v: Permutation, w: Permutation) -> Permutation:
    """The companion kappa of (v, w), computed once per (w, R_v on Ess(w)).

    A hit needs no Bruhat test: in one S_n, R_v <= R_w on Ess(w) already
    gives v <= w (Fulton 1992).  A miss runs every check of
    `companion_permutation`.
    """
    key = w, essential_ranks(v, w)
    kappa = _COMPANIONS.get(key)
    if kappa is None or v.n != w.n:
        kappa = _COMPANIONS[key] = companion_permutation(v, w)
    return kappa


def regularity_formula(v: Permutation, w: Permutation) -> int:
    """Tangent-cone regularity of the (v, w) chart by the tableau rule,
    computed once per companion."""
    kappa = companion(v, w)
    found = _KAPPA_REG.get(kappa)
    if found is None:
        found = _KAPPA_REG[kappa] = diag_level_sum(covexillary_rank_filling(kappa))
    return found
