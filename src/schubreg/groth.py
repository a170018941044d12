"""Grothendieck polynomials via isobaric divided differences.

A Grothendieck polynomial has integer coefficients, so it is kept as a
{exponent tuple: int} dict.  The top cell is the staircase monomial for the
longest permutation; every other polynomial descends from it by applying
pi_i along the first-ascent chain, with each intermediate cached.  The
result is chain-independent, so first-ascent is purely a determinism
choice.  `grothendieck` wraps the dict in a MultiPoly for printing and
comparison.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .perm import Permutation, is_vexillary, length, w0_compose
from .poly import MultiPoly, PolyRing, UniPoly
from .shapes import covexillary_rank_filling, diag_level_sum


@lru_cache(maxsize=None)
def groth_ring(n: int) -> PolyRing:
    return PolyRing(tuple("x_%d" % i for i in range(1, n + 1)))


def isobaric_pi(f: dict, i: int) -> dict:
    """pi_i f = d_i((1 - x_{i+1}) f) on {exponent tuple: int}, 1 <= i < n.

    The divided difference d_i acts on each term: with a, b the exponents
    of x_i, x_{i+1} and p > q the larger and smaller of them,
    (x_i^a x_{i+1}^b - x_i^b x_{i+1}^a) / (x_i - x_{i+1})
    = sign * sum_{k<p-q} x_i^(p-1-k) x_{i+1}^(q+k), with sign -1 when a < b.
    """
    a, b = i - 1, i
    out: dict = {}
    for e, c in f.items():
        for shift, s in ((0, c), (1, -c)):
            p, q = e[a], e[b] + shift
            if p < q:
                p, q, s = q, p, -s
            base = list(e)
            for k in range(p - q):
                base[a], base[b] = p - 1 - k, q + k
                key = tuple(base)
                out[key] = out.get(key, 0) + s
    return {e: c for e, c in out.items() if c}


@lru_cache(maxsize=None)
def groth_terms(u: Permutation) -> dict:
    """The Grothendieck polynomial of u as {exponent tuple: int}; do not mutate."""
    n = u.n
    if length(u) == comb(n, 2):
        return {tuple(n - k for k in range(1, n + 1)): 1}
    i = u.first_ascent()
    return isobaric_pi(groth_terms(u.right_s(i)), i)


def grothendieck(u: Permutation) -> MultiPoly:
    """The Grothendieck polynomial of u in n = u.n variables."""
    return MultiPoly(groth_ring(u.n), dict(groth_terms(u)))


def groth_degree(u: Permutation) -> int:
    """Total degree; ranges from l(u) (Schubert case) up to the K-theory top."""
    return max(map(sum, groth_terms(u)))


def groth_min_degree(u: Permutation) -> int:
    return min(map(sum, groth_terms(u)))


def groth_spec_1mq(u: Permutation) -> UniPoly:
    """All variables set to 1 - q; collapses by total degree."""
    per_degree = [0] * (groth_degree(u) + 1)
    for e, c in groth_terms(u).items():
        per_degree[sum(e)] += c
    total = UniPoly.zero()
    for c in reversed(per_degree):
        total = total * UniPoly.one_minus_q() + c
    return total


def vexillary_degree_formula(u: Permutation) -> int:
    """deg of the Grothendieck polynomial of vexillary u, combinatorially.

    Computed as l(u) plus the diagonal level sums of the rank filling of the
    partition obtained from the complement diagram of w0*u (a covexillary
    permutation exactly when u is vexillary).
    """
    if not is_vexillary(u):
        raise ValueError("the degree formula needs a 2143-avoiding permutation")
    partner = w0_compose(u)
    return length(u) + diag_level_sum(covexillary_rank_filling(partner))
