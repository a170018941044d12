"""Groebner engine and Hilbert kernel against independent oracles.

The two workhorse oracles here double as the acceptance checks: a mod-p
Macaulay-matrix computation of the graded dimensions of the lowest-form
ideal, and brute-force standard-monomial counting for Hilbert series.
"""

import itertools
import time
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest
import sympy

from conftest import random_poly, rng, small_ring, sum_of_products

from schubreg.gb import (
    GroebnerBasis,
    ResourceBudgetExceeded,
    buchberger,
    check_budget,
    hilbert_data,
    hilbert_numerator,
    lowest_degree_forms_ideal,
    time_budget,
)
from schubreg.ideal import Ideal, kl_generators
from schubreg.perm import Permutation, all_permutations, bruhat_leq
from schubreg.poly import MultiPoly, PolyRing, UniPoly

P = 2147483629  # prime below 2^31, keeps numpy int64 products exact


def monomials_up_to(nvars, deg):
    out = []
    for d in range(deg + 1):
        for bars in itertools.combinations(range(d + nvars - 1), nvars - 1):
            exps = []
            prev = -1
            for b in bars:
                exps.append(b - prev - 1)
                prev = b
            exps.append(d + nvars - 1 - prev - 1)
            out.append(tuple(exps))
    return out


def mod_p_row_echelon_pivots(matrix):
    """Pivot column indices of a matrix over GF(P)."""
    m = matrix % P
    rows, cols = m.shape
    pivots = []
    rank = 0
    for c in range(cols):
        sel = None
        for r in range(rank, rows):
            if m[r, c]:
                sel = r
                break
        if sel is None:
            continue
        m[[rank, sel]] = m[[sel, rank]]
        inv = pow(int(m[rank, c]), P - 2, P)
        m[rank] = (m[rank] * inv) % P
        nz = np.nonzero(m[rank + 1 :, c])[0]
        if nz.size:
            idx = nz + rank + 1
            m[idx] = (m[idx] - np.outer(m[idx, c], m[rank])) % P
        pivots.append(c)
        rank += 1
        if rank == rows:
            break
    return pivots


def macaulay_lowest_form_dims(gens, nvars, work_deg, cmp_deg):
    """Graded dimensions of the lowest-form ideal, degrees 0..cmp_deg.

    Rows are all multiples m*g with every term of degree <= work_deg;
    columns are ordered by total degree, so a pivot in a degree-d column
    certifies an ideal element of valuation exactly d.
    """
    cols = monomials_up_to(nvars, work_deg)
    col_index = {m: k for k, m in enumerate(cols)}
    col_deg = [sum(m) for m in cols]
    rows = []
    for g in gens:
        gdeg = max(sum(e) for e in g)
        for m in monomials_up_to(nvars, work_deg - gdeg):
            row = np.zeros(len(cols), dtype=np.int64)
            for e, c in g.items():
                prod = tuple(a + b for a, b in zip(m, e))
                row[col_index[prod]] = c % P
            rows.append(row)
    dims = [0] * (cmp_deg + 1)
    if not rows:
        return dims
    for c in mod_p_row_echelon_pivots(np.array(rows)):
        if col_deg[c] <= cmp_deg:
            dims[col_deg[c]] += 1
    return dims


def initial_ideal_dims(lead_exps, nvars, cmp_deg):
    """Monomial counts of a monomial ideal, degrees 0..cmp_deg."""
    dims = [0] * (cmp_deg + 1)
    for m in monomials_up_to(nvars, cmp_deg):
        if any(all(a >= b for a, b in zip(m, e)) for e in lead_exps):
            dims[sum(m)] += 1
    return dims


def brute_standard_monomial_counts(exps, nvars, order):
    counts = [0] * (order + 1)
    for m in monomials_up_to(nvars, order):
        if not any(all(a >= b for a, b in zip(m, e)) for e in exps):
            counts[sum(m)] += 1
    return counts


def random_ideal(r, nvars, max_gens=3, max_deg=3, at_origin=False):
    ring = small_ring(nvars)
    gens = []
    while len(gens) < r.randint(1, max_gens):
        f = random_poly(r, ring, max_terms=4, max_deg=max_deg)
        if at_origin:
            # drop the constant so the ideal vanishes at the chart center
            trimmed = {e: c for e, c in f.terms.items() if any(e)}
            if not trimmed:
                continue
            f = MultiPoly(ring, trimmed)
        gens.append(f)
    return Ideal.from_polys(ring, tuple(gens))


def poly_to_int_dict(f):
    denom = 1
    for c in f.terms.values():
        denom = denom * c.denominator // __import__("math").gcd(
            denom, c.denominator
        )
    return {e: int(c * denom) for e, c in f.terms.items()}


def grevlex_sort_key(kv):
    return (sum(kv[0]), tuple(-e for e in reversed(kv[0])))


def monic_dict(f):
    lead = max(f.terms.items(), key=grevlex_sort_key)
    return frozenset((e, Fraction(c, lead[1])) for e, c in f.terms.items())


def sympy_groebner_set(ideal):
    symbols = sympy.symbols(ideal.ring.names)
    exprs = []
    for f in ideal.generators:
        e = sympy.Integer(0)
        for exps, c in f.terms.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for k, power in enumerate(exps):
                term *= symbols[k] ** power
            e += term
        exprs.append(e)
    got = sympy.groebner(exprs, *symbols, order="grevlex")
    out = set()
    for expr in got.exprs:
        poly = sympy.Poly(expr, *symbols)
        terms = {}
        for exps, coeff in poly.terms():
            terms[tuple(int(x) for x in exps)] = Fraction(
                coeff.p, coeff.q
            )
        lead = max(terms.items(), key=grevlex_sort_key)
        out.add(frozenset((e, c / lead[1]) for e, c in terms.items()))
    return out


def test_hand_examples():
    R = PolyRing(("x", "y"))
    G = buchberger(Ideal.from_polys(R, (R.parse("x - y^2"), R.parse("x"))))
    assert [str(g) for g in G.elements] == ["x", "y^2"]
    R2 = PolyRing(("a", "b", "c", "d", "e", "f"))
    minors = tuple(
        R2.parse(t) for t in ("a*e - b*d", "a*f - c*d", "b*f - c*e")
    )
    G2 = buchberger(Ideal.from_polys(R2, minors))
    assert len(G2.elements) == 3
    assert G2.check_certificate()


def test_the_certificate_rejects_a_set_that_is_not_a_basis():
    R = PolyRing(("x", "y"))
    G = buchberger(Ideal.from_polys(R, (R.parse("x^2 + y"), R.parse("x*y"))))
    assert sorted(str(g) for g in G.elements) == ["x*y", "x^2 + y", "y^2"]
    assert G.check_certificate()
    # without y^2 the S-pair of x^2 + y and x*y leaves y^2 unreduced
    kept = [t for t, g in zip(G._terms, G.elements) if str(g) != "y^2"]
    assert not GroebnerBasis(R, G.order, kept).check_certificate()


def test_zero_and_unit_edge_cases():
    R = PolyRing(("x",))
    empty = buchberger(Ideal(R, ()))
    assert empty.elements == ()
    assert not empty.contains(R.parse("x"))
    unit = buchberger(Ideal.from_polys(R, (R.parse("2"),)))
    assert [str(g) for g in unit.elements] == ["1"]
    assert unit.contains(R.parse("x^5 + 1"))
    R0 = PolyRing(())
    z = buchberger(Ideal(R0, ()))
    assert z.elements == ()
    nz = buchberger(Ideal.from_polys(R0, (R0.parse("3"),)))
    assert nz.elements == (R0.parse("1"),)


def test_matches_sympy_grevlex():
    r = rng(501)
    done = 0
    while done < 30:
        nvars = r.randint(2, 3)
        ideal = random_ideal(r, nvars)
        ours = buchberger(ideal)
        assert ours.check_certificate()
        got = {monic_dict(g) for g in ours.elements}
        want = sympy_groebner_set(ideal)
        assert got == want, ideal
        done += 1


def test_reduced_basis_shape():
    r = rng(503)
    for _ in range(20):
        ideal = random_ideal(r, r.randint(2, 3))
        basis = buchberger(ideal)
        lms = basis.leading_exponents()
        for i, a in enumerate(lms):
            for j, b in enumerate(lms):
                if i != j:
                    assert not all(x <= y for x, y in zip(a, b)), lms
        # tails fully reduced and content-free with positive lead
        for g, lm in zip(basis.elements, lms):
            ordered = sorted(g.terms.items(), key=grevlex_sort_key)
            assert ordered[-1][0] == lm
            assert ordered[-1][1] > 0
            nums = [c.numerator for _, c in ordered]
            from math import gcd

            assert all(c.denominator == 1 for _, c in ordered)
            g0 = 0
            for c in nums:
                g0 = gcd(g0, c)
            assert g0 == 1
            for e, _ in ordered[:-1]:
                assert not any(
                    all(x <= y for x, y in zip(other, e))
                    for other in lms
                )


def test_normal_form_properties():
    r = rng(504)
    for _ in range(15):
        nvars = r.randint(2, 3)
        ideal = random_ideal(r, nvars)
        basis = buchberger(ideal)
        ring = ideal.ring
        f = random_poly(r, ring)
        h = random_poly(r, ring)
        member = sum_of_products(
            ring, (ideal.generators[0], f), (ideal.generators[-1], h)
        )
        assert basis.contains(member)
        nf = basis.normal_form(f)
        assert basis.normal_form(nf) == nf
        assert basis.normal_form(sum_of_products(ring, (f,), (member,))) == nf
        with pytest.raises(ValueError):
            basis.normal_form(small_ring(nvars + 1).parse("x1"))


def test_normal_form_takes_integer_coefficients_only():
    R = PolyRing(("x", "y"))
    basis = buchberger(Ideal.from_polys(R, (R.parse("x - y^2"),)))
    assert basis.normal_form(R.parse("3*y^2")) == R.parse("x")
    for c in (Fraction(1, 2), Fraction(3)):
        with pytest.raises(ValueError, match="integer coefficients"):
            basis.normal_form(MultiPoly(R, {(1, 0): c}))


def test_lowest_degree_forms_hand_examples():
    R = PolyRing(("x", "y"))
    cone = lowest_degree_forms_ideal(Ideal.from_polys(R, (R.parse("x + x^2"),)))
    assert [str(g) for g in cone.elements] == ["x"]
    cone2 = lowest_degree_forms_ideal(
        Ideal.from_polys(R, (R.parse("x - y^2"), R.parse("x")))
    )
    assert sorted(str(g) for g in cone2.elements) == ["x", "y^2"]
    # y - x^2 and y^2 force x^4 into the cone: (y-x^2)^2 - y^2 + 2x^2(y-x^2)
    cone3 = lowest_degree_forms_ideal(
        Ideal.from_polys(R, (R.parse("y - x^2"), R.parse("y^2")))
    )
    assert sorted(str(g) for g in cone3.elements) == ["x^4", "y"]


def test_lowest_degree_forms_do_not_depend_on_the_names_t_and_t0():
    # the homogenizing variable takes a name the ring does not use
    cones = []
    for a, b in (("t", "t0"), ("a", "b")):
        R = PolyRing((a, b, "x"))
        gens = (
            R.parse("%s - %s^2 + x^3" % (a, b)),
            R.parse("%s*x - %s^2 + x^4" % (b, a)),
            R.parse("%s*%s + x^2 - %s^3" % (a, b, b)),
        )
        cone = lowest_degree_forms_ideal(Ideal.from_polys(R, gens))
        cones.append([g.terms for g in cone.elements])
    assert cones[0] == cones[1]
    assert len(cones[0]) == 4


def test_homogeneous_ideal_is_its_own_cone():
    r = rng(505)
    for _ in range(10):
        nvars = r.randint(2, 3)
        ring = small_ring(nvars)
        gens = []
        for _ in range(r.randint(1, 3)):
            f = random_poly(r, ring, max_terms=3, max_deg=2)
            d = r.randint(1, 2)
            keep = MultiPoly(ring, {e: c for e, c in f.terms.items() if sum(e) == d})
            if keep.is_zero():
                keep = MultiPoly(ring, {(d,) + (0,) * (nvars - 1): 1})
            gens.append(keep)
        ideal = Ideal.from_polys(ring, tuple(gens))
        cone = lowest_degree_forms_ideal(ideal)
        direct = buchberger(ideal)
        assert cone.elements == direct.elements


def test_lowest_forms_match_macaulay_matrix_oracle():
    r = rng(506)
    checked = 0
    target = 105
    work = {2: 10, 3: 9, 4: 8}
    while checked < target:
        nvars = r.choice((2, 2, 3, 3, 4))
        ideal = random_ideal(r, nvars, max_gens=3, max_deg=3, at_origin=True)
        cone = lowest_degree_forms_ideal(ideal)
        lead = cone.leading_exponents()
        ours = initial_ideal_dims(lead, nvars, 6)
        gens = [poly_to_int_dict(f) for f in ideal.generators]
        oracle = macaulay_lowest_form_dims(gens, nvars, work[nvars], 6)
        assert ours == oracle, (ideal, ours, oracle)
        checked += 1
    assert checked >= 100


def test_hilbert_numerator_hand_values():
    assert hilbert_numerator([], 3) == UniPoly.one()
    assert hilbert_numerator([(1, 1)], 2) == UniPoly([1, 0, -1])
    assert hilbert_numerator([(1, 0), (0, 2)], 2) == UniPoly([1, -1, -1, 1])
    # redundant generators do not change the answer
    assert hilbert_numerator([(1, 0), (1, 1)], 2) == hilbert_numerator(
        [(1, 0)], 2
    )
    with pytest.raises(ValueError):
        hilbert_numerator([(1, 0)], None)
    with pytest.raises(ValueError):
        hilbert_numerator([(1, 0, 0)], 2)
    # exponents are packed, 14 bits each
    with pytest.raises(OverflowError):
        hilbert_numerator([(-1,)], 1)
    with pytest.raises(OverflowError):
        hilbert_numerator([(1 << 14,)], 1)


def test_hilbert_numerator_matches_brute_force_counts():
    r = rng(507)
    checked = 0
    while checked < 110:
        nvars = r.randint(2, 4)
        exps = [
            tuple(r.randint(0, 4) for _ in range(nvars))
            for _ in range(r.randint(1, 5))
        ]
        exps = [e for e in exps if any(e)]
        if not exps:
            continue
        K = hilbert_numerator(exps, nvars)
        got = K.series_coefficients(nvars, 10)
        want = brute_standard_monomial_counts(exps, nvars, 10)
        assert got == want, (exps, got, want)
        checked += 1


def inclusion_exclusion_numerator(exps):
    """K = sum over subsets S of the generators of (-1)^|S| q^(deg lcm S),
    on exponent tuples: an oracle that shares no code with the library."""
    coeffs = Counter()
    gens = set(exps)
    for size in range(len(gens) + 1):
        for subset in itertools.combinations(gens, size):
            coeffs[sum(map(max, zip(*subset)))] += (-1) ** size
    return UniPoly([coeffs[d] for d in range(max(coeffs) + 1)])


def test_hilbert_numerator_matches_inclusion_exclusion_on_s4_cones():
    charts = 0
    for w in all_permutations(4):
        for v in all_permutations(4):
            if bruhat_leq(v, w):
                hd = hilbert_data(v, w)
                exps = hd.cone.leading_exponents()
                K = inclusion_exclusion_numerator(exps)
                assert hilbert_numerator(exps, hd.n_vars) == K, (v, w)
                charts += 1
    assert charts == 213


def test_hilbert_numerator_matches_inclusion_exclusion_on_random_ideals():
    r = rng(509)
    for _ in range(300):
        nvars = r.randint(1, 6)
        exps = [
            tuple(r.randint(0, 3) for _ in range(nvars))
            for _ in range(r.randint(0, 8))
        ]
        K = inclusion_exclusion_numerator(exps)
        assert hilbert_numerator(exps, nvars) == K, exps


def test_hilbert_numerator_over_disjoint_supports():
    # generators in two or more groups on disjoint variables: K is the
    # product of the groups' numerators
    r = rng(510)
    triangle = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    cases = [[triangle, triangle]]
    while len(cases) < 80:
        parts = []
        for _ in range(r.randint(2, 3)):
            width = r.randint(1, 3)
            part = [tuple(r.randint(0, 2) for _ in range(width)) for _ in range(r.randint(2, 3))]
            parts.append([e for e in part if any(e)])
        if all(len(part) >= 2 for part in parts):
            cases.append(parts)
    for parts in cases:
        nvars = sum(len(part[0]) for part in parts)
        exps, product, before = [], UniPoly.one(), 0
        for part in parts:
            width = len(part[0])
            after = nvars - before - width
            exps += [(0,) * before + e + (0,) * after for e in part]
            product = product * hilbert_numerator(part, width)
            before += width
        K = hilbert_numerator(exps, nvars)
        assert K == inclusion_exclusion_numerator(exps), parts
        assert K == product, parts


def test_initial_ideal_hilbert_is_order_free_for_homogeneous_input():
    r = rng(508)
    for _ in range(12):
        nvars = r.randint(2, 3)
        ring = small_ring(nvars)
        gens = []
        for _ in range(r.randint(1, 2)):
            d = r.randint(1, 3)
            f = random_poly(r, ring, max_terms=4, max_deg=d)
            top = max(map(sum, f.terms))
            gens.append(MultiPoly(ring, {e: c for e, c in f.terms.items() if sum(e) == top}))
        ideal = Ideal.from_polys(ring, tuple(gens))
        # the same ideal with the variable order reversed: another order
        # on the original variables, with other leading monomials
        reversed_ideal = Ideal.from_polys(
            ring,
            tuple(
                MultiPoly(ring, {e[::-1]: c for e, c in g.terms.items()})
                for g in gens
            ),
        )
        a = buchberger(ideal, "grevlex")
        b = buchberger(reversed_ideal, "grevlex")
        ka = hilbert_numerator(a.leading_exponents(), nvars)
        kb = hilbert_numerator(b.leading_exponents(), nvars)
        assert ka == kb, ideal


def test_budget_and_pair_caps():
    v = Permutation((1, 4, 2, 3, 5, 7, 6))
    w = Permutation((7, 3, 1, 4, 5, 6, 2))
    ideal = kl_generators(v, w)
    with pytest.raises(ResourceBudgetExceeded), time_budget(0):
        buchberger(ideal)
    # a generous budget changes nothing
    with time_budget(600000):
        assert buchberger(ideal).stats["pairs_processed"] == 35


def test_time_budget_scopes_nest():
    import schubreg.gb as gb

    with time_budget(60000):
        outer = gb._DEADLINE.get()
        # a nested scope keeps the earlier deadline
        with time_budget(600000):
            assert gb._DEADLINE.get() == outer
        with time_budget(None):
            assert gb._DEADLINE.get() == outer
        with pytest.raises(ResourceBudgetExceeded, match="^probe ran past the time budget$"):
            with time_budget(0):
                assert gb._DEADLINE.get() < outer
                time.sleep(0.001)
                check_budget("probe")
        # the exception left the inner scope and the outer deadline is back
        assert gb._DEADLINE.get() == outer
        check_budget("probe")
    assert gb._DEADLINE.get() is None
    with time_budget(None):
        check_budget("probe")


def test_time_budget_rejects_a_negative_budget():
    import schubreg.gb as gb

    with pytest.raises(ValueError, match="must be nonnegative, got -1 ms"):
        with time_budget(-1):
            pass
    assert gb._DEADLINE.get() is None
    # a zero budget is a valid scope whose deadline passes at once
    with pytest.raises(ResourceBudgetExceeded), time_budget(0):
        time.sleep(0.001)
        check_budget("probe")


def test_budget_covers_the_whole_chart(monkeypatch):
    import schubreg.gb as gb

    v, w = Permutation((1, 2, 3, 4)), Permutation((3, 4, 1, 2))
    generate = gb.kl_generators

    def slow_generators(v, w):
        time.sleep(0.2)
        return generate(v, w)

    monkeypatch.setattr(gb, "kl_generators", slow_generators)
    with pytest.raises(ResourceBudgetExceeded), time_budget(100):
        hilbert_data(v, w)
    monkeypatch.setattr(gb, "kl_generators", generate)
    # each basis computation runs under the chart's deadline
    deadlines = []
    run = gb.buchberger

    def recording_buchberger(ideal, order):
        deadline = gb._DEADLINE.get()
        basis = run(ideal, order)
        deadlines.append((basis.order.kind, deadline))
        return basis

    monkeypatch.setattr(gb, "buchberger", recording_buchberger)
    with time_budget(60000):
        chart_deadline = gb._DEADLINE.get()
        assert not hilbert_data(v, w).homogeneous
    assert deadlines == [("grevlex", chart_deadline), ("grevlex_t", chart_deadline)]
    assert chart_deadline is not None
    assert gb._DEADLINE.get() is None


def test_chart_pipeline_builds_no_multipoly(monkeypatch):
    # minors, both bases and the cone stay packed term lists from
    # kl_generators to the Hilbert numerator
    built = []
    init = MultiPoly.__init__

    def counting_init(self, ring, terms):
        built.append(1)
        init(self, ring, terms)

    monkeypatch.setattr(MultiPoly, "__init__", counting_init)
    for v, w in (("1423576", "7314562"), ("123456", "645123")):
        data = hilbert_data(Permutation.from_string(v), Permutation.from_string(w))
        assert not data.homogeneous
    assert built == []
    # the MultiPoly views are still there on request
    assert len(data.kl_ideal.generators) == len(data.kl_ideal) and built


def test_buchberger_path_is_pinned(monkeypatch):
    # the pair order and the criteria fix the path the algorithm takes, so
    # its counts, not only its answer, must not move
    import schubreg.gb as gb

    stats = {}
    run = gb.buchberger

    def recording_buchberger(ideal, order):
        basis = run(ideal, order)
        stats[basis.order.kind] = tuple(
            basis.stats[k] for k in ("pairs_processed", "zero_reductions", "basis_size")
        )
        return basis

    monkeypatch.setattr(gb, "buchberger", recording_buchberger)
    hilbert_data(Permutation((1, 2, 3, 4, 5, 6)), Permutation((6, 4, 5, 1, 2, 3)))
    assert stats == {"grevlex": (9, 9, 10), "grevlex_t": (0, 0, 4)}


def test_hilbert_data_small_pairs():
    hd = hilbert_data(Permutation((1, 2, 3)), Permutation((3, 2, 1)))
    assert (hd.n_vars, hd.dim, hd.height) == (3, 3, 0)
    assert hd.K == UniPoly.one() and hd.H == UniPoly.one()
    hd2 = hilbert_data(Permutation((1, 2, 3, 4)), Permutation((4, 2, 3, 1)))
    assert hd2.H == UniPoly([1, 1])
    assert hd2.homogeneous
    assert (hd2.dim, hd2.height) == (5, 1)
    hd3 = hilbert_data(Permutation((1, 2, 3, 4)), Permutation((3, 4, 1, 2)))
    assert hd3.H == UniPoly([1, 1])
    assert not hd3.homogeneous
    assert isinstance(hd3.cone, GroebnerBasis)


def test_hilbert_data_of_a_point_chart():
    # the chart of X_w0 at w0 is a point: no variables, no generators
    w0 = Permutation((3, 2, 1))
    hd = hilbert_data(w0, w0)
    assert (hd.n_vars, hd.dim, hd.height) == (0, 0, 0)
    assert hd.K == UniPoly.one() and hd.H == UniPoly.one()
    assert hd.homogeneous and hd.cone.elements == ()


def test_hilbert_data_dimension_bookkeeping():
    from schubreg.perm import free_cell_count, length

    r = rng(509)
    pairs = []
    for w in all_permutations(4):
        for v in all_permutations(4):
            if bruhat_leq(v, w):
                pairs.append((v, w))
    for v, w in r.sample(pairs, 30):
        hd = hilbert_data(v, w)
        assert hd.n_vars == free_cell_count(v)
        assert hd.dim == length(w) - length(v)
        assert hd.height == comb(4, 2) - length(w)
        assert hd.H[0] == 1
        assert hd.K == hd.H * (UniPoly.one_minus_q() ** hd.height)
        assert all(c >= 0 for c in hd.H.coeffs)


def test_hilbert_data_rejects_bad_pairs():
    with pytest.raises(ValueError):
        hilbert_data(Permutation((2, 1, 3)), Permutation((1, 2, 3)))


def test_monomial_order_validation():
    ring = PolyRing(("t", "x", "y"))
    ideal = Ideal.from_polys(ring, (ring.parse("x*y - t^2"),))
    for kind in ("weighted", "lex"):
        with pytest.raises(ValueError):
            buchberger(ideal, kind)
    assert buchberger(ideal).order.kind == "grevlex"
    assert buchberger(ideal, "grevlex_t").order.kind == "grevlex_t"
