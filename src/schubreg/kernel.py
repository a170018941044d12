"""Packed monomials, order keys and the polynomial reduction kernel.

A monomial in n variables is packed into one integer, 16 bits per variable
(`raw`).  Each term order gets an integer `key` whose natural comparison
realizes the order; keys are multiplicative up to an additive constant
(`OrderPack.corr`), so the key of t * m / d is key(t) + key(m) - key(d),
one integer operation with the constant cancelled.

raw layout:  variable k occupies bits [16k, 16k+16).
key:         (a.e) << 16(n+1) | (b.e) << 16n | (corr - raw) for the
             exponents e of n variables, where corr - raw complements every
             field, so that a smaller last exponent wins.  a is the grading
             (all ones without one) and b = a - 1, except that b.e is the
             power of t (variable 0) for an explicit grevlex_t: there higher
             t wins ties of total degree, which makes dehomogenized leading
             terms pick lowest forms, and t's own field never decides.
             grevlex is the unit grading.  Under a grading h >= 1 the key is
             the explicit grevlex_t key of t^(h(m) - |m|) * m with its t
             field dropped, a global order on the ring itself.

Divisibility and lcm of raws use carry-free field tricks, which requires all
exponents to stay below 2^14; assert_exponent guards that.  The degree of a
raw is one multiplication, the sum of all fields landing in field n-1, which
is exact while the total degree stays below 2^16; pack and key_from_exps
reject a total degree of MAX_EXP or more.  Under a grading, degree_of_raw
and key_degree give h, exact while the largest weight times the total
degree stays below 2^16, which key_from_exps guards the same way.  Every
order is graded, so lcms and the terms met during reduction then stay
below 2^15.

Terms travel as (key, raw, coeff) triples sorted by descending key.  A
`Reducers` table holds the divisors a normal form may use, each as
(lm_key, lm_raw, lm_coeff, tail), and finds the one for a term by scanning
them with the fieldwise divisibility test; chart bases are small enough that
a scan beats an index on the variables.
Coefficients are integers; reduction is fraction-free, scaling the work
polynomial by the smallest integer that cancels each leading term.  A
normal form strips the content of its remainder once, at the end.

Callers look these functions up on this module at call time
(kernel.normal_form, not a from-import), so that a tracer installed from
outside the package can wrap them.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd

SHIFT = 16
FIELD = 0xFFFF
MAX_EXP = 1 << 14

KINDS = ("grevlex", "grevlex_t")


def assert_exponent(e: int) -> None:
    if not 0 <= e < MAX_EXP:
        raise OverflowError("exponent %d exceeds the packed field limit" % e)


class OrderPack:
    """Order-aware packing for a fixed number of variables; a grevlex_t pack
    with a grading (one weight >= 1 per variable) keeps t implicit."""

    __slots__ = (
        "nvars", "kind", "grading", "hmask", "corr", "deg_shift", "_weights", "_da", "_db",
        "_sum_shift", "_mid_shift",
    )

    def __init__(self, nvars: int, kind: str = "grevlex", grading=None):
        if kind not in KINDS:
            raise ValueError("unknown order kind %r" % kind)
        if grading is not None and (
            kind != "grevlex_t" or len(grading) != nvars or min(grading, default=1) < 1
        ):
            raise ValueError("a grading is one weight >= 1 per variable, for grevlex_t")
        explicit_t = kind == "grevlex_t" and grading is None
        if explicit_t and not nvars:
            raise ValueError("too few variables for %s" % kind)
        self.nvars = nvars
        self.kind = kind
        self.grading = grading
        self.hmask = sum(0x8000 << (SHIFT * k) for k in range(nvars))
        self.corr = sum(FIELD << (SHIFT * k) for k in range(nvars))
        self._mid_shift = SHIFT * nvars
        self.deg_shift = self._mid_shift + SHIFT
        a = grading or (1,) * nvars
        b = (1,) + (0,) * (nvars - 1) if explicit_t else tuple(x - 1 for x in a)
        self._weights = (a, b)
        # raw * _da sums the fields, each times its weight in a, into field
        # nvars - 1, and raw * _db those in b
        self._da, self._db = (
            sum(x << (SHIFT * (nvars - 1 - k)) for k, x in enumerate(w)) for w in (a, b)
        )
        self._sum_shift = SHIFT * max(nvars - 1, 0)

    def pack(self, exps) -> int:
        raw = total = 0
        for k, e in enumerate(exps):
            assert_exponent(e)
            raw |= e << (SHIFT * k)
            total += e
        _assert_total_degree(total)
        return raw

    def unpack(self, raw: int) -> tuple[int, ...]:
        return tuple((raw >> (SHIFT * k)) & FIELD for k in range(self.nvars))

    def degree_of_raw(self, raw: int) -> int:
        """The degree of raw: total, or h under a grading."""
        return ((raw * self._da) >> self._sum_shift) & FIELD

    def key_from_exps(self, exps) -> int:
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError("expected %d exponents" % self.nvars)
        for e in exps:
            assert_exponent(e)
        a, b = self._weights
        _assert_total_degree(max(a, default=1) * sum(exps))
        key = 0
        for k, (e, x, y) in enumerate(zip(exps, a, b)):
            key += (x * e << SHIFT | y * e) << self._mid_shift | (FIELD - e) << (SHIFT * k)
        return key

    def keyof(self, raw: int) -> int:
        """key_from_exps(unpack(raw)) without unpacking."""
        s = self._sum_shift
        ab = (raw * self._da >> s & FIELD) << SHIFT | (raw * self._db >> s & FIELD)
        return ab << self._mid_shift | (self.corr - raw)

    def key_degree(self, key: int) -> int:
        """Degree of the monomial with this key: total, or h under a grading."""
        return key >> self.deg_shift


# one shared pack per (nvars, kind, grading)
order_pack = lru_cache(maxsize=None)(OrderPack)


def _assert_total_degree(total: int) -> None:
    if total >= MAX_EXP:
        raise OverflowError("total degree %d exceeds the packed field limit" % total)


def divides(d: int, m: int, hmask: int) -> bool:
    """Fieldwise d <= m for packed raws."""
    return ((m | hmask) - d) & hmask == hmask


def raw_lcm(a: int, b: int, hmask: int) -> int:
    """Fieldwise max of two packed raws."""
    ge = ((a | hmask) - b) & hmask  # top bit of each field where a >= b
    full = (ge << 1) - (ge >> (SHIFT - 1))  # expand indicators to full fields
    return (a & full) | (b & ~full)


def implementation_name() -> str:
    """The kernel's name, recorded in scan caches and benchmark runs."""
    return "python"


def keyed(terms, pack: OrderPack):
    """Kernel term list of packed (raw, coeff) terms under the pack's order."""
    keyof = pack.keyof
    return content_normalize(sorted(((keyof(r), r, c) for r, c in terms), reverse=True))


def content_normalize(terms):
    """Divide by the content and make the leading coefficient positive."""
    if not terms:
        return terms
    g = 0
    for _, _, c in terms:
        g = gcd(g, c)
        if g == 1:
            break
    if terms[0][2] < 0:
        g = -g
    if g == 1:
        return terms
    return [(k, r, c // g) for (k, r, c) in terms]


class Reducers:
    """Reducer term lists, each stored as (lm_key, lm_raw, lm_coeff, tail).

    A reducer keeps the position it was inserted at, so a caller's own
    numbering survives.  Lookups scan `entries` in that order.
    """

    __slots__ = ("hmask", "entries")

    def __init__(self, hmask, term_lists=()):
        self.hmask = hmask
        self.entries = []
        for terms in term_lists:
            self.insert(terms)

    def insert(self, terms):
        """Append a reducer; its position is the number inserted before it."""
        self.entries.append((terms[0][0], terms[0][1], terms[0][2], tuple(terms[1:])))

    def find(self, r):
        """The reducer of smallest leading key that divides raw r, the first
        inserted on a tie, or None."""
        hmask = self.hmask
        r_high = r | hmask
        best = None
        for red in self.entries:
            if (r_high - red[1]) & hmask == hmask and (best is None or red[0] < best[0]):
                best = red
        return best

    def divisors(self, r):
        """Positions, ascending, of the reducers whose leading monomial
        divides raw r."""
        hmask = self.hmask
        r_high = r | hmask
        for pos, red in enumerate(self.entries):
            if (r_high - red[1]) & hmask == hmask:
                yield pos


def normal_form(fterms, reducers):
    """Remainder of fterms under a `Reducers` table.

    Each term is reduced by the divisor of smallest leading key.  Returns a
    descending term list with content stripped and a positive leading
    coefficient.
    """
    acc: dict = {}
    heap = []
    for k, r, c in fterms:
        acc[r] = acc.get(r, 0) + c
        heap.append((-k, r))
    heapify(heap)
    out = []
    while heap:
        nk, r = heappop(heap)
        c = acc.pop(r, 0)
        if not c:
            continue
        k = -nk
        hit = reducers.find(r)
        if hit is None:
            out.append((k, r, c))
            continue
        lk, lr, lc, tail = hit
        qk = k - lk
        qr = r - lr
        g = gcd(c, lc)
        mf = lc // g
        mg = c // g
        if mf < 0:
            mf = -mf
            mg = -mg
        if mf != 1:
            for key in acc:
                acc[key] *= mf
            if out:
                out = [(a, b, cc * mf) for (a, b, cc) in out]
        for tk, tr, tc in tail:
            nr = tr + qr
            prev = acc.get(nr)
            if prev is None:
                acc[nr] = -mg * tc
                heappush(heap, (-(tk + qk), nr))
            else:
                nv = prev - mg * tc
                if nv:
                    acc[nr] = nv
                else:
                    del acc[nr]
    return content_normalize(out)


def s_polynomial(p, q, pack):
    """S-polynomial of two term lists (descending)."""
    pk, pr, pc = p[0][0], p[0][1], p[0][2]
    qk, qr, qc = q[0][0], q[0][1], q[0][2]
    lcm = raw_lcm(pr, qr, pack.hmask)
    lk = pack.keyof(lcm)
    l = pc * qc // gcd(pc, qc)
    mp_c, mp_k, mp_r = l // pc, lk - pk, lcm - pr
    mq_c, mq_k, mq_r = l // qc, lk - qk, lcm - qr
    acc: dict = {}
    keys: dict = {}
    for tk, tr, tc in p:
        nr = tr + mp_r
        acc[nr] = acc.get(nr, 0) + mp_c * tc
        keys[nr] = tk + mp_k
    for tk, tr, tc in q:
        nr = tr + mq_r
        acc[nr] = acc.get(nr, 0) - mq_c * tc
        keys[nr] = tk + mq_k
    terms = [(keys[r], r, c) for r, c in acc.items() if c]
    terms.sort(reverse=True)
    return content_normalize(terms)
