"""Shared helpers: seeded randomness and reference implementations."""

import random
from fractions import Fraction

import pytest

from schubreg import gb, reg, shapes
from schubreg.poly import MultiPoly, PolyRing


@pytest.fixture(autouse=True)
def cold_memos():
    """Start each test with an empty chart memo and cold tableau-route and KL
    caches.

    Tests assume a cold process, as the CLI has: a budget of 0 or a patched
    hilbert_data must reach the computation, not a chart or KL polynomial
    an earlier test stored.
    """
    reg._CHARTS.clear()
    gb.chart_basis.cache_clear()
    reg._KL.clear()
    reg.r_polynomial.cache_clear()
    shapes.regularity_formula.cache_clear()
    shapes.companion_permutation.cache_clear()


def rng(seed):
    return random.Random(seed)


def random_permutation_word(r, n):
    word = list(range(1, n + 1))
    r.shuffle(word)
    return tuple(word)


def random_poly(r, ring, max_terms=5, max_deg=3, max_coeff=6):
    """A random nonzero integer-coefficient polynomial."""
    nvars = ring.nvars
    while True:
        terms = {}
        for _ in range(r.randint(1, max_terms)):
            exps = [0] * nvars
            for _ in range(r.randint(0, max_deg)):
                exps[r.randrange(nvars)] += 1
            c = r.randint(-max_coeff, max_coeff)
            if c:
                terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
        terms = {e: Fraction(c) for e, c in terms.items() if c}
        if terms:
            return MultiPoly(ring, terms)


def random_point(r, nvars, span=7):
    """Random rational point with nonzero coordinates."""
    return [
        Fraction(r.randint(-span, span) or 1, r.randint(1, span))
        for _ in range(nvars)
    ]


def small_ring(nvars):
    return PolyRing(tuple("x%d" % (k + 1) for k in range(nvars)))


# Reference comparators for packed monomial orders, straight off the
# textbook definitions on exponent tuples.

def ref_grevlex_less(a, b):
    if sum(a) != sum(b):
        return sum(a) < sum(b)
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return x > y
    return False


def ref_grevlex_t_less(a, b):
    if sum(a) != sum(b):
        return sum(a) < sum(b)
    if a[0] != b[0]:
        return a[0] < b[0]
    return ref_grevlex_less(a[1:], b[1:])
