"""Shared helpers: seeded randomness and reference implementations."""

import random

import pytest

from schubreg import groth, ideal, reg, shapes
from schubreg.poly import MultiPoly, PolyRing


@pytest.fixture(autouse=True)
def cold_memos():
    """Start each test with empty H, flag and companion-H memos, an empty
    chart-minor memo, no KL column and cold tableau-route, R-polynomial
    and Grothendieck caches.

    Tests assume a cold process, as the CLI has: a budget of 0 or a patched
    hilbert_data must reach the computation, not a chart, H or KL
    polynomial an earlier test stored.
    """
    reg._H.clear()
    reg._HOMOGENEOUS.clear()
    reg._KAPPA_H.clear()
    ideal._MINORS.clear()
    reg._KL.clear()  # the KL columns
    reg._r_coeffs.cache_clear()  # the R-polynomials of the KL oracle tests
    shapes._COMPANIONS.clear()
    shapes._KAPPA_REG.clear()
    shapes.companion_permutation.cache_clear()
    groth.groth_terms.cache_clear()


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
        terms = {e: c for e, c in terms.items() if c}
        if terms:
            return MultiPoly(ring, terms)


def sum_of_products(ring, *products):
    """The MultiPoly over `ring` that sums the product of each tuple of
    MultiPolys: sum_of_products(R, (f, g), (h,)) is f*g + h."""
    out = {}
    for factors in products:
        terms = {(0,) * ring.nvars: 1}
        for f in factors:
            step = {}
            for e1, c1 in terms.items():
                for e2, c2 in f.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    step[e] = step.get(e, 0) + c1 * c2
            terms = step
        for e, c in terms.items():
            out[e] = out.get(e, 0) + c
    return MultiPoly(ring, {e: c for e, c in out.items() if c})


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
