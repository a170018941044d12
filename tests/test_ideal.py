"""Determinantal chart ideals against a sympy minors oracle.

The library imposes only the corners at the essential set of w.  The
oracle here imposes every southwest corner, the definition the essential
set theorem is measured against: the two generating sets must span the same
ideal, witnessed by equal reduced Groebner bases.
"""

import hashlib
import itertools
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
import sympy

from schubreg.gb import buchberger
from schubreg.perm import (
    Permutation,
    all_permutations,
    bruhat_interval,
    bruhat_leq,
    diagram,
    essential_set,
    is_covexillary,
    sw_rank,
)
from schubreg import ideal
from schubreg.poly import MultiPoly, PolyRing
from schubreg.reg import max_reg_scan, scan_pairs
from schubreg.ideal import (
    Ideal,
    _MINORS,
    _chart_table,
    _minors_for_conditions,
    kl_generators,
    not_a_cone,
    var_name,
)
from schubreg.kernel import SHIFT

GOLDEN_V = Permutation((1, 4, 2, 3, 5, 7, 6))
GOLDEN_W = Permutation((7, 3, 1, 4, 5, 6, 2))

GOLDEN_ASCII = """\
    1     .     .     .     .     .     .
  z61     .     1     .     .     .     .
  z51     .   z53     1     .     .     .
  z41     1     .     .     .     .     .
  z31   z32   z33   z34     1     .     .
  z21   z22   z23   z24   z25     .     1
  z11   z12   z13   z14   z15     1     ."""


def sympy_chart(v):
    """The patterned matrix rebuilt from the defining rules."""
    n = v.n
    inv = v.inverse()
    rows = []
    for r in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if v(j) == r:
                row.append(sympy.Integer(1))
            elif r > v(j) and j < inv(r):
                i = n - r + 1
                row.append(sympy.Symbol(var_name(i, j)))
            else:
                row.append(sympy.Integer(0))
        rows.append(row)
    return sympy.Matrix(rows)


def all_corners(w):
    """(s, t, rank) for every southwest s x t corner, straight off the rule."""
    n = w.n
    return [
        (s, t, sum(1 for h in range(1, t + 1) if w(h) >= n - s + 1))
        for s in range(1, n + 1)
        for t in range(1, n + 1)
    ]


def essential_corners(w):
    n = w.n
    return [(n - i + 1, j, sw_rank(w, i, j)) for (i, j) in essential_set(w)]


def sympy_kl_polys(v, w, corners=None):
    """Every minor the corners impose, canonicalized to comparable term dicts."""
    n = w.n
    m = sympy_chart(v)
    out = set()
    for (s, t, rank) in all_corners(w) if corners is None else corners:
        k = rank + 1
        if k > min(s, t):
            continue
        rows = range(n - s, n)
        cols = range(t)
        for rsel in itertools.combinations(rows, k):
            for csel in itertools.combinations(cols, k):
                det = m[rsel, csel].det(method="berkowitz")
                poly = sympy.expand(det)
                if poly == 0:
                    continue
                out.add(canonical_terms(poly))
    return out


def poly_from_terms(ring, fingerprint):
    """A canonical term set (as built by canonical_terms) as a MultiPoly."""
    index = {name: k for k, name in enumerate(ring.names)}
    terms = {}
    for key, coeff in fingerprint:
        exps = [0] * ring.nvars
        for name, e in key:
            exps[index[name]] = e
        terms[tuple(exps)] = int(coeff)
    return MultiPoly(ring, terms)


def all_corner_ideal(v, w):
    """The chart ideal cut out by every southwest corner (the oracle)."""
    n = v.n
    # the oracle's corners count s rows from the bottom: display rows n-s+1..n
    corners = [(n - s + 1, t, rank) for (s, t, rank) in all_corners(w)]
    return Ideal(_chart_table(v).ring, _minors_for_conditions(v, corners))


def assert_same_ideal_as_all_corners(n):
    """Equal reduced bases from kl_generators and the all-corner minors, S_n."""
    checked = 0
    for w in all_permutations(n):
        for v in all_permutations(n):
            if not bruhat_leq(v, w):
                continue
            ours = buchberger(kl_generators(v, w))
            oracle = buchberger(all_corner_ideal(v, w))
            assert ours.elements == oracle.elements, (v, w)
            checked += 1
    return checked


def canonical_terms(expr):
    poly = sympy.Poly(expr, *sorted(expr.free_symbols, key=str))
    names = [str(g) for g in poly.gens]
    terms = {}
    for exps, coeff in poly.terms():
        key = tuple(sorted(
            (names[k], e) for k, e in enumerate(exps) if e
        ))
        terms[key] = int(coeff)
    lead = max(terms.items(), key=lambda kv: (sum(e for _, e in kv[0]), kv[0]))
    if lead[1] < 0:
        terms = {k: -c for k, c in terms.items()}
    return frozenset(terms.items())


def our_terms(f: MultiPoly):
    names = f.ring.names
    out = {}
    for exps, coeff in f.terms.items():
        assert coeff.denominator == 1
        key = tuple(sorted(
            (names[k], e) for k, e in enumerate(exps) if e
        ))
        out[key] = int(coeff)
    lead = max(out.items(), key=lambda kv: (sum(e for _, e in kv[0]), kv[0]))
    if lead[1] < 0:
        out = {k: -c for k, c in out.items()}
    return frozenset(out.items())


def var_raw(table, i, j):
    """The packed raw of z_i_j in the table's ring."""
    return 1 << (SHIFT * table.ring.names.index(var_name(i, j)))


def test_generic_matrix_golden_layout():
    table = _chart_table(GOLDEN_V)
    # "." is a zero cell, "1" a one, "zij" the free variable z_i_j
    picture = {".": None, "1": 0}
    assert table.entry == [
        [picture[x] if x in picture else var_raw(table, int(x[1]), int(x[2]))
         for x in line.split()]
        for line in GOLDEN_ASCII.splitlines()
    ]
    assert table.ring.nvars == 18
    # the variables are the diagram of v, flipped to bottom-up rows
    n = GOLDEN_V.n
    assert set(table.ring.names) == {
        var_name(n - r + 1, j) for (r, j) in diagram(GOLDEN_V)
    }


def test_generic_matrix_identity_is_lower_triangular():
    table = _chart_table(Permutation.identity(4))
    for r in range(1, 5):
        for c in range(1, 5):
            cell = table.entry[r - 1][c - 1]
            if r == c:
                assert cell == 0
            elif r > c:
                assert cell == var_raw(table, 4 - r + 1, c)
            else:
                assert cell is None


def test_cell_lookups_agree():
    # the free cell in display row r, column c is z_i_c with i = n - r + 1
    for v in all_permutations(4):
        table = _chart_table(v)
        free = [
            (cell, var_raw(table, 4 - r + 1, c))
            for r, row in enumerate(table.entry, start=1)
            for c, cell in enumerate(row, start=1)
            if cell  # neither a zero (None) nor a one (raw 0)
        ]
        assert all(cell == named for cell, named in free), v
        assert sorted(cell for cell, _ in free) == [
            1 << (SHIFT * k) for k in range(table.ring.nvars)
        ], v


def test_kl_generators_match_sympy_minors_small():
    pairs = []
    for n in (2, 3):
        for w in all_permutations(n):
            for v in all_permutations(n):
                if bruhat_leq(v, w):
                    pairs.append((v, w))
    pairs += [
        (Permutation((1, 2, 3, 4)), Permutation((3, 4, 1, 2))),
        (Permutation((1, 2, 3, 4)), Permutation((4, 2, 3, 1))),
        (Permutation((2, 1, 4, 3)), Permutation((4, 2, 3, 1))),
        (Permutation((1, 3, 2, 4)), Permutation((3, 4, 1, 2))),
        (Permutation((1, 2, 4, 3)), Permutation((4, 1, 3, 2))),
    ]
    for v, w in pairs:
        ideal = kl_generators(v, w)
        ours = {our_terms(f) for f in ideal}
        oracle = sympy_kl_polys(v, w)
        assert ours <= oracle, (v, w)
        oracle_ideal = Ideal.from_polys(
            ideal.ring, tuple(poly_from_terms(ideal.ring, f) for f in oracle)
        )
        assert buchberger(ideal).elements == buchberger(oracle_ideal).elements, (v, w)


def test_kl_generators_have_no_constant_term():
    # the center of the chart lies on every Schubert variety containing v
    for n in (3, 4):
        for w in all_permutations(n):
            for v in all_permutations(n):
                if not bruhat_leq(v, w):
                    continue
                for f in kl_generators(v, w):
                    assert f.terms.get((0,) * f.ring.nvars) is None


def test_golden_generator_census():
    ide = kl_generators(GOLDEN_V, GOLDEN_W)
    # the essential minors, expanded independently by sympy
    oracle = sympy_kl_polys(GOLDEN_V, GOLDEN_W, essential_corners(GOLDEN_W))
    assert {our_terms(f) for f in ide} == oracle
    assert len(ide) == 51
    by_deg = {}
    for f in ide:
        degree = max(map(sum, f.terms))
        by_deg[degree] = by_deg.get(degree, 0) + 1
    assert by_deg == {1: 3, 2: 32, 3: 16}
    assert sum(1 for f in ide if len({sum(e) for e in f.terms}) > 1) == 19


def test_golden_contains_known_cubic():
    # one of the 3x3 corner minors, written out by hand, and a near miss
    ide = kl_generators(GOLDEN_V, GOLDEN_W)
    R = ide.ring
    cubic = R.parse(
        "z_5_1*z_3_3 + z_5_3*z_4_1*z_3_2 - z_5_3*z_3_1"
    )
    basis = buchberger(ide)
    assert basis.contains(cubic)
    assert not basis.contains(R.parse("z_5_1*z_3_3 - z_5_3*z_3_1"))


def test_essential_minors_span_all_corner_minors_s4():
    assert assert_same_ideal_as_all_corners(4) == 213


def test_essential_minors_span_all_corner_minors_s5():
    assert assert_same_ideal_as_all_corners(5) == 3781


def test_a_warm_minor_memo_gives_the_cold_generators():
    pairs = scan_pairs(4) + scan_pairs(5)
    cold = []
    for v, w in pairs:
        _MINORS.clear()
        cold.append(kl_generators(v, w).terms)
    _MINORS.clear()
    max_reg_scan(4)
    max_reg_scan(5)
    assert [kl_generators(v, w).terms for v, w in pairs] == cold


def test_a_cold_s5_scan_expands_each_minor_once(monkeypatch):
    builds = []
    real = ideal._place

    def counting(grid, i, used, raw, sign, det):
        if i == 0:
            builds.append(grid)
        real(grid, i, used, raw, sign, det)

    # the walk recurses through the module name, so only its first row
    # starts a build
    monkeypatch.setattr(ideal, "_place", counting)
    max_reg_scan(5)
    # a pair with a removable common 1 charts only its pattern, and each
    # orbit miss builds its inverse's generators too, for their count
    assert len(_MINORS) == 54
    assert len(builds) == sum(len(table.minors) for table in _MINORS.values()) == 390
    # a repeated pair reads every minor off the memo
    first = kl_generators(GOLDEN_V, GOLDEN_W)
    builds.clear()
    assert kl_generators(GOLDEN_V, GOLDEN_W).terms == first.terms
    assert builds == []


def leibniz_minor(table, rows, cols):
    """The minor on rows x cols as a sum over permutations, normalized to
    content 1 with a positive grevlex leading coefficient."""
    det = Counter()
    for perm in itertools.permutations(cols):
        cells = [table.entry[r - 1][c - 1] for r, c in zip(rows, perm)]
        if None not in cells:
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            det[sum(cells)] += (-1) ** inversions
    terms = sorted(((table.pack.keyof(r), r, c) for r, c in det.items() if c), reverse=True)
    if not terms:
        return ()
    unit = gcd(*(c for _, _, c in terms)) * (1 if terms[0][2] > 0 else -1)
    return tuple((r, c // unit) for _, r, c in terms)


def test_every_memoised_s5_minor_is_its_leibniz_determinant():
    # the walk assigns each monomial's coefficient instead of summing it,
    # which holds only while no two placements share one
    max_reg_scan(5)
    checked = 0
    for table in _MINORS.values():
        for (rows, cols), poly in table.minors.items():
            assert poly == leibniz_minor(table, rows, cols), (table.v, rows, cols)
            checked += 1
    assert checked == 390


def generator_digest(pairs):
    """(charts, generators, SHA-256) over the packed generators of each pair,
    one repr line per chart, in order."""
    digest = hashlib.sha256()
    charts = generators = 0
    for v, w in pairs:
        terms = kl_generators(v, w).terms
        digest.update(repr(terms).encode() + b"\n")
        charts += 1
        generators += len(terms)
    return charts, generators, digest.hexdigest()


def test_the_generators_of_every_s7_chart_at_the_identity_are_pinned():
    # the charts at v = e have the most free cells and the largest minors;
    # a change to any generator, its terms or their order must update this
    # digest on purpose
    e = Permutation.identity(7)
    assert generator_digest((e, w) for w in all_permutations(7)) == (
        5040,
        189939,
        "5680faae1569bff3fc9a2ddcc3c9c1f0477fca5b297f26ad760c1e4f07a59f35",
    )


@pytest.mark.slow
def test_the_generators_of_every_s6_pair_are_pinned():
    e = Permutation.identity(6)
    pairs = (
        (v, w)
        for w in all_permutations(6)
        for v in sorted(bruhat_interval(e, w), key=lambda u: u.word)
    )
    assert generator_digest(pairs) == (
        98407,
        1038938,
        "3ce181fb561ca7c857b83ccf48aa41357b04c131c56abea7ae542f004cc55683",
    )


def test_trivial_pairs_have_no_generators():
    for n in (2, 3, 4):
        w0 = Permutation.longest(n)
        for v in all_permutations(n):
            assert len(kl_generators(v, w0)) == 0


def test_rejects_incomparable_or_mismatched():
    with pytest.raises(ValueError):
        kl_generators(Permutation((2, 1, 3)), Permutation((1, 2, 3)))
    with pytest.raises(ValueError):
        kl_generators(Permutation((1, 2)), Permutation((1, 2, 3)))


def test_ideal_container_basics():
    ide = kl_generators(Permutation((1, 2, 3)), Permutation((3, 1, 2)))
    assert len(ide) == len(list(ide))
    assert isinstance(ide, Ideal)
    for f in ide:
        assert f.ring is ide.ring


def test_from_polys_takes_integer_coefficients_only():
    R = PolyRing(("x", "y"))
    assert Ideal.from_polys(R, (R.parse("2*x - y"),)).generators == (R.parse("2*x - y"),)
    for c in (Fraction(1, 2), Fraction(3)):
        with pytest.raises(ValueError, match="integer coefficients"):
            Ideal.from_polys(R, (MultiPoly(R, {(1, 0): c, (0, 1): 1}),))


def flag_test_verdicts(n):
    """Over every non-covexillary pair of S_n, the homogeneous charts (by
    their grevlex basis), those that `homogeneous_by_generators` shows and
    the non-homogeneous ones among those; then the non-homogeneous charts,
    those `not_a_cone` certifies and the homogeneous ones among those."""
    e = Permutation.identity(n)
    counts = Counter()
    for w in all_permutations(n):
        if is_covexillary(w):
            continue
        for v in bruhat_interval(e, w):
            ide = kl_generators(v, w)
            homogeneous = buchberger(ide).is_homogeneous()
            shown = ide.homogeneous_by_generators()
            certified = not_a_cone(v, w)
            counts["homogeneous"] += homogeneous
            counts["shown"] += shown
            counts["shown, wrongly"] += shown and not homogeneous
            counts["not homogeneous"] += not homogeneous
            counts["certified"] += certified
            counts["certified, wrongly"] += certified and homogeneous
    return counts


def test_both_flag_tests_are_sound_and_decide_every_s5_flag():
    # a wrong True from either test would flip a reported flag
    assert flag_test_verdicts(5) == {
        "homogeneous": 422,
        "shown": 422,
        "shown, wrongly": 0,
        "not homogeneous": 392,
        "certified": 392,
        "certified, wrongly": 0,
    }


@pytest.mark.slow
def test_both_flag_tests_are_sound_on_s6_and_leave_22_flags_to_a_basis():
    assert flag_test_verdicts(6) == {
        "homogeneous": 16001,
        "shown": 15979,
        "shown, wrongly": 0,
        "not homogeneous": 24559,
        "certified": 24559,
        "certified, wrongly": 0,
    }


def test_flag_tests_on_small_charts():
    # (1324, 1423) has a generator z_1_2*z_2_1 - z_1_1 whose second term
    # the generator z_1_1 divides; (1234, 3412) is the smallest
    # non-homogeneous chart
    v, w = Permutation.from_string("1324"), Permutation.from_string("1423")
    ide = kl_generators(v, w)
    assert ide.ring.parse("z_1_2*z_2_1 - z_1_1") in ide.generators
    assert ide.homogeneous_by_generators() and not not_a_cone(v, w)
    v, w = Permutation.identity(4), Permutation.from_string("3412")
    assert not kl_generators(v, w).homogeneous_by_generators() and not_a_cone(v, w)
    # a homogeneous chart that neither test decides
    v, w = Permutation.from_string("241653"), Permutation.from_string("642513")
    ide = kl_generators(v, w)
    assert not ide.homogeneous_by_generators() and not not_a_cone(v, w)
    assert buchberger(ide).is_homogeneous()
    # a generating set that shows nothing
    R = PolyRing(("x", "y"))
    assert not Ideal.from_polys(R, (R.parse("x^2 - y"),)).homogeneous_by_generators()
    assert Ideal.from_polys(R, (R.parse("y^2 - x"), R.parse("x"))).homogeneous_by_generators()
