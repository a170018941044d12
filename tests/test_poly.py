"""MultiPoly parsing and printing; UniPoly arithmetic checked by evaluation
at random points."""

from fractions import Fraction
from math import comb

import pytest

from conftest import rng, small_ring

from schubreg.poly import (
    MultiPoly,
    PolyRing,
    UniPoly,
    parse_poly,
)


def test_parse_and_str_round_trip():
    R = small_ring(3)
    f = R.parse("2*x1^2*x3 - x2 + 5")
    assert f.terms == {
        (2, 0, 1): Fraction(2),
        (0, 1, 0): Fraction(-1),
        (0, 0, 0): Fraction(5),
    }
    assert R.parse(str(f)) == f
    assert R.parse("x1 - x1").is_zero()
    assert R.parse("-3") == MultiPoly(R, {(0, 0, 0): Fraction(-3)})
    with pytest.raises(ValueError):
        R.parse("x9")
    with pytest.raises(ValueError):
        R.parse("x1 +* x2")


def test_parse_poly_respects_ring():
    R = PolyRing(("z_1_1", "z_2_1"))
    f = parse_poly("z_1_1*z_2_1 - 2", R)
    assert f.terms == {(1, 1): Fraction(1), (0, 0): Fraction(-2)}


def test_unipoly_arithmetic_matches_evaluation():
    r = rng(204)
    for _ in range(40):
        a = UniPoly([r.randint(-9, 9) for _ in range(r.randint(1, 6))])
        b = UniPoly([r.randint(-9, 9) for _ in range(r.randint(1, 6))])
        x = Fraction(r.randint(-5, 5), r.randint(1, 5))
        assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
        assert (a - b).evaluate(x) == a.evaluate(x) - b.evaluate(x)
        assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
        assert (a ** 2).evaluate(x) == a.evaluate(x) ** 2


def test_unipoly_basics():
    q = UniPoly.q()
    assert (UniPoly.one() - q) == UniPoly.one_minus_q()
    p = UniPoly([1, 0, -2])
    assert p.degree() == 2 and p[2] == -2 and p[5] == 0
    assert UniPoly.zero().is_zero()
    assert str(UniPoly([1, 3, 0, -1])) == "1 + 3*q - q^3"
    assert str(UniPoly.zero()) == "0"


def test_exact_divide_round_trip():
    r = rng(205)
    for _ in range(30):
        a = UniPoly([r.randint(-5, 5) for _ in range(r.randint(1, 5))] + [1])
        b = UniPoly([r.randint(-5, 5) for _ in range(r.randint(1, 5))] + [1])
        assert (a * b).exact_divide(b) == a
    with pytest.raises(ValueError):
        UniPoly([1, 1]).exact_divide(UniPoly([0, 1]))
    with pytest.raises(ZeroDivisionError):
        UniPoly([1, 1]).exact_divide(UniPoly.zero())
    # a divisor of higher degree, and a leading coefficient it does not divide
    with pytest.raises(ValueError):
        UniPoly([1]).exact_divide(UniPoly([1, 1]))
    with pytest.raises(ValueError):
        UniPoly([1, 1]).exact_divide(UniPoly([0, 2]))


def test_series_coefficients_match_binomial_convolution():
    r = rng(206)
    for _ in range(25):
        k = UniPoly([r.randint(-4, 4) for _ in range(r.randint(1, 6))])
        dim = r.randint(0, 4)
        order = 8
        got = k.series_coefficients(dim, order)
        want = []
        for t in range(order + 1):
            total = 0
            for j in range(min(t, k.degree() if not k.is_zero() else -1) + 1):
                if dim == 0:
                    total += k[j] if j == t else 0
                else:
                    total += k[j] * comb(t - j + dim - 1, dim - 1)
            want.append(total)
        assert got == want


