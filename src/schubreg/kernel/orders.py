"""Packed-exponent monomial encodings and order keys.

A monomial in n variables is packed into one integer, 16 bits per variable
(`raw`).  Each term order gets an integer `key` whose natural comparison
realizes the order; keys are multiplicative up to an additive constant
(`corr`), so products and quotients of keys are single integer operations.

raw layout:   variable k occupies bits [16k, 16k+16).
grevlex key:  [total degree][0xFFFF - e_last] ... [0xFFFF - e_first]
grevlex_t:    [total degree][e_t][grevlex fields of the remaining variables]
              (variable 0 is the homogenization variable; higher t wins ties,
              which makes dehomogenized leading terms pick lowest forms).

Divisibility and lcm of raws use carry-free field tricks, which requires all
exponents to stay below 2^14; assert_exponent guards that.  The degree of a
raw is one multiplication, the sum of all fields landing in field n-1, which
is exact while the total degree stays below 2^16; pack and key_from_exps
reject a total degree of MAX_EXP or more.  Both orders are graded, so lcms
and the terms met during reduction then stay below 2^15.
"""

from __future__ import annotations

from functools import lru_cache

SHIFT = 16
FIELD = 0xFFFF
MAX_EXP = 1 << 14

KINDS = ("grevlex", "grevlex_t")


def assert_exponent(e: int) -> None:
    if not 0 <= e < MAX_EXP:
        raise OverflowError("exponent %d exceeds the packed field limit" % e)


class OrderPack:
    """Order-aware packing for a fixed number of variables."""

    __slots__ = ("nvars", "kind", "hmask", "corr", "deg_shift", "_ones", "_sum_shift")

    def __init__(self, nvars: int, kind: str = "grevlex"):
        if kind not in KINDS:
            raise ValueError("unknown order kind %r" % kind)
        # grevlex_t compares its own fields only, not the t field
        compared = nvars - 1 if kind == "grevlex_t" else nvars
        if compared < 0:
            raise ValueError("too few variables for %s" % kind)
        self.nvars = nvars
        self.kind = kind
        self.hmask = sum(0x8000 << (SHIFT * k) for k in range(nvars))
        self.deg_shift = SHIFT * nvars
        self.corr = sum(FIELD << (SHIFT * k) for k in range(compared))
        # raw * _ones sums every field into field nvars - 1
        self._ones = sum(1 << (SHIFT * k) for k in range(nvars))
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
        return ((raw * self._ones) >> self._sum_shift) & FIELD

    def key_from_exps(self, exps) -> int:
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError("expected %d exponents" % self.nvars)
        for e in exps:
            assert_exponent(e)
        _assert_total_degree(sum(exps))
        n = self.nvars
        key = sum(exps) << self.deg_shift
        if self.kind == "grevlex":
            # Reversed comparison: the last variable sits in the top field,
            # complemented so that a smaller trailing exponent wins.
            for k, e in enumerate(exps):
                key |= (FIELD - e) << (SHIFT * k)
            return key
        # grevlex_t: variable 0 dominates after total degree, the rest are
        # compared by grevlex among themselves.
        key |= exps[0] << (SHIFT * (n - 1))
        for k in range(1, n):
            key |= (FIELD - exps[k]) << (SHIFT * (k - 1))
        return key

    def keyof(self, raw: int) -> int:
        """key_from_exps(unpack(raw)) without unpacking: corr - raw
        complements every compared field at once."""
        key = self.degree_of_raw(raw) << self.deg_shift
        if self.kind == "grevlex":
            return key | (self.corr - raw)
        return key | (raw & FIELD) << self._sum_shift | (self.corr - (raw >> SHIFT))

    def key_degree(self, key: int) -> int:
        """Total degree of the monomial with this key."""
        return key >> self.deg_shift


# one shared pack per (nvars, kind)
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
