"""Permutations in one-line notation and their diagram combinatorics.

Everything is 1-indexed.  Boxes (i, j) are matrix coordinates counted from
the top-left of the n x n grid.  The diagram convention used throughout puts
a box at (i, j) when i > w(j) and j < w^{-1}(i), so the diagram records
co-inversions: |D(w)| = n(n-1)/2 - length(w).  Southwest ranks
R_w(a, j) = #{h <= j : w(h) >= a} are ranks of lower-left submatrices of the
permutation matrix of w.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations as _iter_words
from math import comb

Box = tuple[int, int]

BRUHAT_ERROR = "not Bruhat-comparable in the required direction"


# word -> its Permutation: one object per word, validated on first sight
_INTERNED: dict = {}


class Permutation:
    """A permutation of {1..n} stored in one-line notation.

    Permutations are interned: each word has one object, so `==` and `hash`
    are the `object` defaults, by identity, and `is` compares words too.  A
    word is validated when first seen.  The object is immutable, and
    pickling or copying gives back the interned object of its word.
    """

    __slots__ = ("word", "n", "_text")

    def __new__(cls, word):
        try:
            return _INTERNED[word]
        except (KeyError, TypeError):  # unseen, or not a tuple
            pass
        word = tuple(word)
        found = _INTERNED.get(word)
        if found is not None:
            return found
        n = len(word)
        if sorted(word) != list(range(1, n + 1)):
            raise ValueError("not a permutation of 1..n: %r" % (word,))
        word = tuple(map(int, word))  # equal words share one object: store ints
        self = object.__new__(cls)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_text", ("" if n <= 9 else ",").join(map(str, word)))
        _INTERNED[word] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def __delattr__(self, name):
        raise AttributeError("Permutation is immutable")

    def __reduce__(self):
        return Permutation, (self.word,)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.word):
            raise IndexError("position %d out of range 1..%d" % (i, len(self.word)))
        return self.word[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.word)
        for pos, val in enumerate(self.word, start=1):
            inv[val - 1] = pos
        return Permutation(tuple(inv))

    def right_s(self, i: int) -> "Permutation":
        """Multiply on the right by the adjacent transposition s_i (swap spots i, i+1)."""
        if not 1 <= i < len(self.word):
            raise IndexError("transposition index %d out of range" % i)
        w = list(self.word)
        w[i - 1], w[i] = w[i], w[i - 1]
        return Permutation(tuple(w))

    def first_ascent(self) -> int | None:
        """Smallest i with w(i) < w(i+1), or None for the longest element."""
        for i in range(1, len(self.word)):
            if self.word[i - 1] < self.word[i]:
                return i
        return None

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        return cls(tuple(range(n, 0, -1)))

    @classmethod
    def from_string(cls, text: str) -> "Permutation":
        """Parse "7314562" (digits, n <= 9) or "7,11,6,10,5,9,4,8,3,2,1"."""
        text = text.strip()
        if "," in text:
            word = tuple(int(part) for part in text.split(","))
        else:
            if not text.isdigit():
                raise ValueError("cannot parse permutation from %r" % text)
            word = tuple(int(ch) for ch in text)
        return cls(word)

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return "Permutation(%s)" % str(self)


def all_permutations(n: int):
    """Iterate over S_n in lexicographic order of one-line words."""
    for word in _iter_words(range(1, n + 1)):
        yield Permutation(word)


@lru_cache(maxsize=None)
def length(w: Permutation) -> int:
    """Coxeter length = number of inversions."""
    word = w.word
    return sum(
        1
        for a in range(len(word))
        for b in range(a + 1, len(word))
        if word[a] > word[b]
    )


def sw_rank(u: Permutation, a: int, j: int) -> int:
    """R_u(a, j) = #{h <= j : u(h) >= a}, the rank of the southwest submatrix
    spanning rows a..n and columns 1..j of the permutation matrix."""
    if not (1 <= a <= u.n and 1 <= j <= u.n):
        raise IndexError("rank query (%d, %d) outside the %d x %d grid" % (a, j, u.n, u.n))
    word = u.word
    return sum(1 for h in range(j) if word[h] >= a)


def rank_matrix(u: Permutation) -> tuple[tuple[int, ...], ...]:
    """All southwest ranks; entry [a-1][j-1] is R_u(a, j)."""
    n = u.n
    word = u.word
    rows = []
    for a in range(1, n + 1):
        row = []
        count = 0
        for h in range(n):
            if word[h] >= a:
                count += 1
            row.append(count)
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def _packed_ranks(u: Permutation) -> tuple[int, int]:
    """(ranks, guards): the rank matrix of `u` as fields of one int.

    Each field is n.bit_length() + 1 bits wide and holds one rank, at most
    n, below its top bit; `guards` has every field's top bit set.
    """
    width = u.n.bit_length() + 1
    ranks = guards = shift = 0
    for row in rank_matrix(u):
        for rank in row:
            ranks |= rank << shift
            guards |= 1 << (shift + width - 1)
            shift += width
    return ranks, guards


def bruhat_leq(v: Permutation, w: Permutation) -> bool:
    """Bruhat order: v <= w iff R_v(a, j) <= R_w(a, j) for every entry.

    One subtraction compares every field: a field of (w | guards) - v keeps
    its guard bit exactly when R_w - R_v >= 0 there, and since a rank is
    below the guard bit no field borrows from the next.
    """
    if v.n != w.n:
        raise ValueError("cannot compare permutations of different sizes")
    kv = _packed_ranks(v)[0]
    kw, guards = _packed_ranks(w)
    return ((kw | guards) - kv) & guards == guards


@lru_cache(maxsize=None)
def covers_below(w: Permutation) -> tuple[Permutation, ...]:
    """Every u covered by w in Bruhat order: u = w t with l(u) = l(w) - 1.

    Swapping the values at positions i < j lowers w by one cover exactly
    when w(i) > w(j) and no value between them sits between the positions.
    """
    word = w.word
    n = w.n
    out = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            if word[i] > word[j] and not any(
                word[i] > word[k] > word[j] for k in range(i + 1, j)
            ):
                u = list(word)
                u[i], u[j] = u[j], u[i]
                out.append(Permutation(tuple(u)))
    return tuple(out)


def require_bruhat(v: Permutation, w: Permutation):
    """Raise ValueError unless v <= w in the Bruhat order of one S_n."""
    if not bruhat_leq(v, w):
        raise ValueError("%s vs %s: %s" % (v, w, BRUHAT_ERROR))


def bruhat_interval(v: Permutation, w: Permutation) -> frozenset[Permutation]:
    """All u with v <= u <= w.  Errors unless v <= w.

    Walks down from w by covers and keeps what stays above v; every element
    of the interval lies on a chain of covers from w, so the walk costs the
    interval's size rather than n!.  Every element lies above the identity,
    so for v = e no element is compared with v.
    """
    require_bruhat(v, w)
    floor = length(v) == 0
    inside = {w}
    seen = {w}
    frontier = [w]
    while frontier:
        below = []
        for u in frontier:
            for z in covers_below(u):
                if z not in seen:
                    seen.add(z)
                    if floor or bruhat_leq(v, z):
                        inside.add(z)
                        below.append(z)
        frontier = below
    return frozenset(inside)


def contains_pattern(w: Permutation, p: Permutation) -> bool:
    """True when some subsequence of w is order-isomorphic to p."""
    k = p.n
    n = w.n
    if k > n:
        return False
    pat = p.word
    word = w.word

    def extend(start: int, chosen: tuple[int, ...]) -> bool:
        t = len(chosen)
        if t == k:
            return True
        for pos in range(start, n - (k - t) + 1):
            val = word[pos]
            if all((val > c) == (pat[t] > pat[s]) for s, c in enumerate(chosen)):
                if extend(pos + 1, chosen + (val,)):
                    return True
        return False

    return extend(0, ())


_PAT_3412 = Permutation((3, 4, 1, 2))
_PAT_2143 = Permutation((2, 1, 4, 3))


@lru_cache(maxsize=None)
def is_covexillary(w: Permutation) -> bool:
    """Covexillary = 3412-avoiding."""
    return not contains_pattern(w, _PAT_3412)


@lru_cache(maxsize=None)
def is_vexillary(w: Permutation) -> bool:
    """Vexillary = 2143-avoiding."""
    return not contains_pattern(w, _PAT_2143)


@lru_cache(maxsize=None)
def diagram(w: Permutation) -> frozenset[Box]:
    """D(w) = {(i, j) : i > w(j), j < w^{-1}(i)}."""
    n = w.n
    inv = w.inverse().word
    return frozenset(
        (i, j)
        for j in range(1, n + 1)
        for i in range(w.word[j - 1] + 1, n + 1)
        if j < inv[i - 1]
    )


@lru_cache(maxsize=None)
def essential_set(w: Permutation) -> frozenset[Box]:
    """Boxes of D(w) with no diagram box directly north or east."""
    boxes = diagram(w)
    return frozenset(
        (i, j) for (i, j) in boxes if (i - 1, j) not in boxes and (i, j + 1) not in boxes
    )


@lru_cache(maxsize=None)
def _essential_fields(w: Permutation) -> int:
    """The bits of `_packed_ranks(u)[0]` holding R_u(e) for e in Ess(w)."""
    n = w.n
    width = n.bit_length() + 1
    field = (1 << width) - 1
    return sum(field << ((i - 1) * n + j - 1) * width for i, j in essential_set(w))


def essential_ranks(v: Permutation, w: Permutation) -> int:
    """R_v on Ess(w), as the fields of v's packed rank matrix there: two v
    of one S_n give equal values exactly when their ranks at Ess(w) agree."""
    return _packed_ranks(v)[0] & _essential_fields(w)


def code_and_shape(w: Permutation) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row counts of D(w) printed bottom row first, and their sorted partition.

    The code is (c_n, ..., c_1) where c_i = #boxes of D(w) in grid row i; the
    shape is the weakly decreasing sort with zeros dropped.
    """
    n = w.n
    counts = [0] * (n + 1)
    for (i, _) in diagram(w):
        counts[i] += 1
    code = tuple(counts[i] for i in range(n, 0, -1))
    shape = tuple(sorted((c for c in code if c), reverse=True))
    return code, shape


def shape(w: Permutation) -> tuple[int, ...]:
    return code_and_shape(w)[1]


def w0_compose(u: Permutation) -> Permutation:
    """w0 * u, i.e. i -> n + 1 - u(i).  Swaps vexillary and covexillary."""
    n = u.n
    return Permutation(tuple(n + 1 - val for val in u.word))


def permutation_from_reversed_code(code: tuple[int, ...]) -> Permutation:
    """Invert code_and_shape: build the w whose printed code is `code`.

    The printed code (c_n, ..., c_1) read left to right is the Lehmer code of
    (w0 w)^{-1}, so build that permutation from its Lehmer code and undo the
    two transforms.
    """
    n = len(code)
    for a, c in enumerate(code):
        if not 0 <= c <= n - 1 - a:
            raise ValueError("entry %d of %r is not a valid Lehmer value" % (c, code))
    available = list(range(1, n + 1))
    u = []
    for c in code:
        u.append(available.pop(c))
    lehmer = Permutation(tuple(u))
    return w0_compose(lehmer.inverse())


def free_cell_count(v: Permutation) -> int:
    """Dimension of the affine chart attached to v: C(n,2) - length(v)."""
    return comb(v.n, 2) - length(v)


def chart_shape(v: Permutation, w: Permutation) -> tuple[int, int, int]:
    """(dim, height, n_vars) of the tangent cone of the chart of X_w at v."""
    return length(w) - length(v), comb(w.n, 2) - length(w), free_cell_count(v)
