"""Exact sparse polynomials.

MultiPoly keeps a dict from dense exponent tuples to integer coefficients
over a fixed ring of named variables.  It only parses, compares and prints:
it is the form for the edges of the library, namely the Macaulay2 export,
the `groth --poly` output, and the `Ideal.generators` and
`GroebnerBasis.elements` views.  Polynomial arithmetic happens elsewhere:
on packed term lists in the Groebner pipeline (ideal, gb, kernel) and on
exponent-tuple dicts for Grothendieck polynomials (groth).
UniPoly is a plain integer-coefficient polynomial in one variable q used
for Hilbert numerators, h-polynomials and Kazhdan-Lusztig polynomials.
"""

from __future__ import annotations

import re
from math import comb, inf

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _power(name: str, p: int) -> str:
    """The text of name^p; "" for p = 0."""
    return "" if not p else name if p == 1 else "%s^%d" % (name, p)


def _signed_sum(terms) -> str:
    """The text of a sum of (coefficient, monomial text) terms, "" naming
    the monomial 1: each term as |c|*monomial, joined by + or -, with a
    sign in front of the first only when it is negative; "0" for none."""
    chunks = []
    for c, body in terms:
        mag = abs(c)
        piece = str(mag) if not body else body if mag == 1 else "%s*%s" % (mag, body)
        sign = ("+ " if c > 0 else "- ") if chunks else ("" if c > 0 else "-")
        chunks.append(sign + piece)
    return " ".join(chunks) or "0"


class PolyRing:
    """An ordered tuple of variable names."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self._index = {name: k for k, name in enumerate(self.names)}

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError("unknown variable %r" % name) from None

    def parse(self, text: str) -> "MultiPoly":
        return parse_poly(text, self)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "PolyRing(%s)" % (", ".join(self.names))


class MultiPoly:
    """Immutable-by-convention sparse polynomial over a PolyRing."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring.names, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(
            self.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True
        )

    def __str__(self):
        names = self.ring.names
        return _signed_sum(
            (c, "*".join(_power(names[k], p) for k, p in enumerate(e) if p))
            for e, c in self.sorted_terms()
        )

    def __repr__(self):
        return "MultiPoly(%s)" % self


def parse_poly(text: str, ring: PolyRing) -> MultiPoly:
    """Parse sums of *-separated power products, e.g. "z_5_1*z_3_3 - 2*z_5_3^2"."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    # Split into signed terms.
    terms: dict = {}
    pos = 0
    sign = 1
    if text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        pos += 1
    while True:  # a sign is always followed by a term
        chunk_end = pos
        while chunk_end < len(text) and text[chunk_end] not in "+-":
            chunk_end += 1
        chunk = text[pos:chunk_end].strip()
        if not chunk:
            raise ValueError("dangling sign in %r" % text)
        coeff = sign
        exps = [0] * ring.nvars
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError("empty factor in %r" % chunk)
            if factor.isdigit():  # integer coefficients only
                coeff *= int(factor)
                continue
            if "^" in factor:
                name, _, power_text = factor.partition("^")
                power = int(power_text)
            else:
                name, power = factor, 1
            if not _NAME.fullmatch(name.strip()):
                raise ValueError("bad factor %r" % factor)
            exps[ring.index(name.strip())] += power
        key = tuple(exps)
        s = terms.get(key, 0) + coeff
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
        if chunk_end >= len(text):
            break
        sign = -1 if text[chunk_end] == "-" else 1
        pos = chunk_end + 1
    return MultiPoly(ring, terms)


class UniPoly:
    """Integer-coefficient polynomial in q; zero has degree -inf."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, int):
                raise ValueError("UniPoly wants integer coefficients, got %r" % (c,))
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def q(cls) -> "UniPoly":
        return cls((0, 1))

    @classmethod
    def one_minus_q(cls) -> "UniPoly":
        return cls((1, -1))

    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else -inf

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __add__(self, other):
        if isinstance(other, int):
            other = UniPoly((other,))
        if not isinstance(other, UniPoly):
            return NotImplemented
        size = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[k] + other[k] for k in range(size)])

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = UniPoly((other,))
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return UniPoly([c * other for c in self.coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = UniPoly.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = UniPoly((other,))
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def evaluate(self, x):
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def exact_divide(self, other: "UniPoly") -> "UniPoly":
        """Quotient self / other; raises unless the division is exact."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return UniPoly.zero()
        num = list(self.coeffs)
        den = other.coeffs
        dn = len(den) - 1
        if len(num) - 1 < dn:
            raise ValueError("inexact division")
        out = [0] * (len(num) - dn)
        for k in range(len(out) - 1, -1, -1):
            lead = num[k + dn]
            if lead % den[-1]:
                raise ValueError("inexact division")
            q = lead // den[-1]
            out[k] = q
            if q:
                for j, d in enumerate(den):
                    num[k + j] -= q * d
        if any(num):
            raise ValueError("inexact division")
        return UniPoly(out)

    def series_coefficients(self, dim: int, order: int) -> list[int]:
        """Coefficients of self / (1-q)^dim up to degree `order` inclusive.

        The enclosing `time_budget` scope is tested after every 4096
        coefficients.
        """
        from .gb import check_budget  # gb imports this module

        out = []
        for m in range(order + 1):
            if m and not m % 4096:
                check_budget("power series")
            total = 0
            for j, c in enumerate(self.coeffs):
                if j > m:
                    break
                if c:
                    total += c * comb(m - j + dim - 1, dim - 1) if dim > 0 else (c if j == m else 0)
            out.append(total)
        return out

    def __str__(self):
        return _signed_sum((c, _power("q", k)) for k, c in enumerate(self.coeffs) if c)

    def __repr__(self):
        return "UniPoly(%s)" % self
