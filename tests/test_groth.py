"""Grothendieck polynomials: hand values, recursion consistency, degrees,
and an independent sympy construction."""

from functools import lru_cache
from math import comb

import pytest
import sympy

from conftest import random_poly, rng

from schubreg.perm import (
    Permutation,
    all_permutations,
    is_vexillary,
    length,
)
from schubreg.poly import MultiPoly, UniPoly
from schubreg.groth import (
    groth_degree,
    groth_min_degree,
    groth_ring,
    groth_spec_1mq,
    groth_terms,
    grothendieck,
    isobaric_pi,
    vexillary_degree_formula,
)


def test_hand_values():
    R2 = groth_ring(2)
    assert grothendieck(Permutation((1, 2))) == R2.parse("1")
    assert grothendieck(Permutation((2, 1))) == R2.parse("x_1")
    R3 = groth_ring(3)
    assert grothendieck(Permutation((1, 3, 2))) == R3.parse(
        "x_1 + x_2 - x_1*x_2"
    )
    assert grothendieck(Permutation((3, 1, 2))) == R3.parse("x_1^2")
    assert grothendieck(Permutation((2, 1, 3))) == R3.parse("x_1")
    assert grothendieck(Permutation((3, 2, 1))) == R3.parse("x_1^2*x_2")


def test_top_class_is_staircase_monomial():
    for n in (2, 3, 4, 5):
        staircase = "*".join("x_%d^%d" % (k, n - k) for k in range(1, n))
        assert grothendieck(Permutation.longest(n)) == groth_ring(n).parse(staircase)


def test_recursion_holds_at_every_ascent():
    # the implementation walks one ascent; all of them must agree
    for n in (2, 3, 4):
        for u in all_permutations(n):
            g = groth_terms(u)
            for i in range(1, n):
                if u(i) < u(i + 1):
                    assert isobaric_pi(groth_terms(u.right_s(i)), i) == g, (u, i)


def test_lowest_form_is_the_schubert_polynomial_for_s3():
    # bottom homogeneous components, from the classical table
    R = groth_ring(3)
    table = {
        (1, 2, 3): "1",
        (2, 1, 3): "x_1",
        (1, 3, 2): "x_1 + x_2",
        (3, 1, 2): "x_1^2",
        (2, 3, 1): "x_1*x_2",
        (3, 2, 1): "x_1^2*x_2",
    }
    for word, text in table.items():
        terms = groth_terms(Permutation(word))
        low = min(map(sum, terms))
        lowest = {e: c for e, c in terms.items() if sum(e) == low}
        assert MultiPoly(R, lowest) == R.parse(text)


def test_pi_on_symmetric_input_is_identity():
    # pi_i fixes anything symmetric in x_i, x_{i+1}
    f = groth_ring(3).parse("x_1*x_2 + x_1 + x_2 + 3*x_3^2").terms
    assert isobaric_pi(f, 1) == f


def test_pi_hand_values():
    R = groth_ring(2)
    assert isobaric_pi(R.parse("x_1").terms, 1) == R.parse("1").terms
    # pi_1(x1^2) = x1 + x2 - x1*x2
    assert isobaric_pi(R.parse("x_1^2").terms, 1) == R.parse(
        "x_1 + x_2 - x_1*x_2"
    ).terms


def test_pi_is_idempotent_and_braided():
    r = rng(203)
    R = groth_ring(3)
    for _ in range(15):
        f = random_poly(r, R, max_terms=4, max_deg=3).terms
        for i in (1, 2):
            once = isobaric_pi(f, i)
            assert isobaric_pi(once, i) == once
        lhs = isobaric_pi(isobaric_pi(isobaric_pi(f, 1), 2), 1)
        rhs = isobaric_pi(isobaric_pi(isobaric_pi(f, 2), 1), 2)
        assert lhs == rhs


@lru_cache(maxsize=None)
def sympy_grothendieck(u):
    """G_u by sympy, along the last ascent instead of the first:
    pi_i f = ((1 - x_{i+1}) f - (1 - x_i) s_i f) / (x_i - x_{i+1})."""
    n = u.n
    xs = sympy.symbols("x_1:%d" % (n + 1))
    if length(u) == comb(n, 2):
        return sympy.Mul(*(xs[k - 1] ** (n - k) for k in range(1, n)))
    i = max(i for i in range(1, n) if u(i) < u(i + 1))
    f = sympy_grothendieck(u.right_s(i))
    a, b = xs[i - 1], xs[i]
    swapped = f.subs({a: b, b: a}, simultaneous=True)
    return sympy.cancel(((1 - b) * f - (1 - a) * swapped) / (a - b))


@pytest.mark.parametrize(
    "n", [3, 4, pytest.param(5, marks=pytest.mark.slow), pytest.param(6, marks=pytest.mark.slow)]
)
def test_grothendieck_matches_sympy_last_ascent_construction(n):
    xs = sympy.symbols("x_1:%d" % (n + 1))
    for u in all_permutations(n):
        oracle = sympy.Poly(sympy_grothendieck(u), *xs).as_dict()
        assert {e: int(c) for e, c in oracle.items()} == groth_terms(u), u


def test_degrees():
    for n in (2, 3, 4):
        for u in all_permutations(n):
            assert groth_min_degree(u) == length(u)
            assert groth_degree(u) >= length(u)
    assert groth_degree(Permutation((1, 3, 2))) == 2
    assert groth_degree(Permutation.longest(4)) == length(
        Permutation.longest(4)
    )


def test_spec_one_minus_q():
    assert groth_spec_1mq(Permutation((1, 3, 2))) == UniPoly([1, 0, -1])
    for n in (3, 4):
        w0 = Permutation.longest(n)
        assert groth_spec_1mq(w0) == UniPoly.one_minus_q() ** comb(n, 2)
    assert groth_spec_1mq(Permutation.identity(3)) == UniPoly.one()


def test_vexillary_degree_formula_matches_s4():
    for u in all_permutations(4):
        if is_vexillary(u):
            assert vexillary_degree_formula(u) == groth_degree(u)


def test_vexillary_degree_formula_matches_s6():
    vexillary = [u for u in all_permutations(6) if is_vexillary(u)]
    assert len(vexillary) == 513
    for u in vexillary:
        assert vexillary_degree_formula(u) == groth_degree(u), u


def test_vexillary_degree_formula_rejects_non_vexillary():
    with pytest.raises(ValueError):
        vexillary_degree_formula(Permutation((2, 1, 4, 3)))
