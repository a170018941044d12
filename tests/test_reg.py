"""Regularity reports, KL polynomials, conjecture suite, and scans."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from collections import Counter
from math import comb

import pytest

from conftest import rng

from schubreg.perm import (
    BRUHAT_ERROR,
    Permutation,
    all_permutations,
    bruhat_interval,
    bruhat_leq,
    chart_shape,
    contains_pattern,
    is_covexillary,
    length,
)
from schubreg.gb import ResourceBudgetExceeded, hilbert_data, time_budget
from schubreg.ideal import kl_generators, not_a_cone
from schubreg.poly import UniPoly
from schubreg.reg import (
    ALL_CHECKS,
    FALSIFIABLE_CHECKS,
    ScanRecord,
    check_conjectures,
    finalps_check,
    kernel_version,
    kl_degree,
    kl_polynomial,
    max_reg_scan,
    ps_series,
    r_polynomial,
    regularity,
    scan_pairs,
    scan_record,
    staircase_permutation,
)
from schubreg.shapes import NotCovexillaryError, regularity_formula

GOLDEN_V = Permutation((1, 4, 2, 3, 5, 7, 6))
GOLDEN_W = Permutation((7, 3, 1, 4, 5, 6, 2))


def left_descent_r_poly(v, w, cache=None):
    """R-polynomials recomputed through left descents, as an oracle."""
    if cache is None:
        cache = {}
    key = (v, w)
    if key in cache:
        return cache[key]
    if v == w:
        return UniPoly.one()
    if not bruhat_leq(v, w):
        return UniPoly.zero()
    n = w.n
    i = next(k for k in range(1, n) if w.inverse()(k) > w.inverse()(k + 1))
    swap = lambda u: Permutation(
        tuple(i + 1 if x == i else i if x == i + 1 else x for x in u.word)
    )
    sw = swap(w)
    sv = swap(v)
    if length(sv) < length(v):
        out = left_descent_r_poly(sv, sw, cache)
    else:
        out = UniPoly([-1, 1]) * left_descent_r_poly(v, sw, cache) + UniPoly(
            [0, 1]
        ) * left_descent_r_poly(sv, sw, cache)
    cache[key] = out
    return out


def per_interval_kl(v, w, r_cache, cache):
    """P_{v,w} by the recursion that builds [z, w] afresh for every z, as an
    oracle, on the left-descent R-polynomials."""
    if (v, w) in cache:
        return cache[(v, w)]
    if v == w:
        return UniPoly.one()
    total = UniPoly.zero()
    for z in bruhat_interval(v, w):
        if z != v:
            total = total + left_descent_r_poly(v, z, r_cache) * per_interval_kl(
                z, w, r_cache, cache
            )
    bound = (length(w) - length(v) - 1) // 2
    cache[(v, w)] = UniPoly([-total[k] for k in range(bound + 1)])
    return cache[(v, w)]


def rationally_smooth(w):
    return not contains_pattern(w, Permutation((3, 4, 1, 2))) and not (
        contains_pattern(w, Permutation((4, 2, 3, 1)))
    )


def test_r_polynomial_matches_left_descent_oracle():
    cache = {}
    for n in (2, 3, 4):
        for w in all_permutations(n):
            for v in all_permutations(n):
                if bruhat_leq(v, w):
                    assert r_polynomial(v, w) == left_descent_r_poly(
                        v, w, cache
                    ), (v, w)


def test_r_polynomial_basics():
    e = Permutation((1, 2))
    s = Permutation((2, 1))
    assert r_polynomial(e, e) == UniPoly.one()
    assert r_polynomial(e, s) == UniPoly([-1, 1])
    assert r_polynomial(s, e) == UniPoly.zero()


def test_kl_known_values():
    e4 = Permutation.identity(4)
    assert kl_polynomial(e4, Permutation((3, 4, 1, 2))) == UniPoly([1, 1])
    assert kl_polynomial(e4, Permutation((4, 2, 3, 1))) == UniPoly([1, 1])
    assert kl_polynomial(e4, e4) == UniPoly.one()
    assert kl_polynomial(e4, Permutation.longest(4)) == UniPoly.one()


def test_kl_trivial_for_rationally_smooth_w():
    # every KL polynomial of a 3412- and 4231-avoiding w is 1
    for n in (3, 4, 5):
        for w in all_permutations(n):
            if not rationally_smooth(w):
                continue
            for v in all_permutations(n):
                if bruhat_leq(v, w):
                    assert kl_polynomial(v, w) == UniPoly.one(), (v, w)


def test_kl_detects_rational_singularity():
    # conversely, a pattern hit forces some nontrivial polynomial
    for w in all_permutations(4):
        if rationally_smooth(w):
            continue
        found = any(
            kl_polynomial(v, w) != UniPoly.one()
            for v in all_permutations(4)
            if bruhat_leq(v, w)
        )
        assert found, w


def test_kl_degree_bound_and_constant_term():
    r = rng(601)
    perms = list(all_permutations(5))
    pairs = [
        (v, w) for w in perms for v in perms if bruhat_leq(v, w)
    ]
    for v, w in r.sample(pairs, 120):
        p = kl_polynomial(v, w)
        assert p[0] == 1
        gap = length(w) - length(v)
        if gap >= 1:
            assert 2 * int(p.degree()) <= gap - 1
        assert kl_degree(v, w) == int(p.degree())


def test_kl_polynomial_matches_the_per_interval_recursion_on_s5():
    r_cache, cache = {}, {}
    for v, w in scan_pairs(5):
        assert kl_polynomial(v, w) == per_interval_kl(v, w, r_cache, cache), (v, w)


def assert_functional_equation(pairs):
    """q^{l(w)-l(x)} P_{x,w}(1/q) = sum over y in [x, w] of R_{x,y} P_{y,w},
    with the R-polynomials of `r_polynomial`."""
    for x, w in pairs:
        gap = length(w) - length(x)
        mirrored = [0] * (gap + 1)
        for k, a in enumerate(kl_polynomial(x, w).coeffs):
            mirrored[gap - k] = a
        total = [0] * (gap + 1)
        for y in bruhat_interval(x, w):
            p = kl_polynomial(y, w).coeffs
            for i, a in enumerate(r_polynomial(x, y).coeffs):
                for j, b in enumerate(p):
                    total[i + j] += a * b
        assert total == mirrored, (x, w)


def test_kl_polynomial_satisfies_the_functional_equation_on_s5():
    assert_functional_equation(scan_pairs(5))


@pytest.mark.slow
def test_kl_polynomial_satisfies_the_functional_equation_below_covexillary_s6():
    assert_functional_equation(scan_pairs(6, "covexillary-only"))


def brute_scan_pairs(n, restrict):
    """Bruhat pairs of S_n by comparing every two rank matrices, with
    covexillarity as the absence of a 3412 subsequence."""

    def ranks(u):
        """R_u(a, j) = #{h <= j : u(h) >= a} for every a and j."""
        return [
            sum(1 for h in u.word[:j] if h >= a)
            for a in range(1, u.n + 1)
            for j in range(1, u.n + 1)
        ]

    def inversions(u):
        return sum(1 for a, b in itertools.combinations(u.word, 2) if a > b)

    def has_3412(u):
        return any(c < d < a < b for a, b, c, d in itertools.combinations(u.word, 4))

    perms = list(all_permutations(n))
    table = {u: ranks(u) for u in perms}
    brute = [
        (v, w)
        for w in perms
        if restrict == "all" or not has_3412(w)
        for v in perms
        if all(x <= y for x, y in zip(table[v], table[w]))
    ]
    brute.sort(key=lambda p: (inversions(p[1]) - inversions(p[0]), p[1].word, p[0].word))
    return brute


def test_scan_pairs_is_the_filter_by_rank_definition():
    for restrict in ("all", "covexillary-only"):
        for n in range(1, 6):
            assert scan_pairs(n, restrict) == brute_scan_pairs(n, restrict), (n, restrict)


@pytest.mark.parametrize("restrict", ["all", "covexillary-only"])
def test_scan_pairs_of_s6_is_the_filter_by_rank_definition(restrict):
    assert scan_pairs(6, restrict) == brute_scan_pairs(6, restrict)


def test_regularity_methods_and_labels():
    r = regularity(GOLDEN_V, GOLDEN_W, method="both")
    assert (r.reg, r.formula_reg, r.groebner_reg) == (2, 2, 2)
    assert not r.discrepant
    assert r.covexillary and r.cm_status == "proven"
    assert r.H == UniPoly([1, 3, 1])
    assert (r.dim, r.height, r.n_vars) == (8, 10, 18)
    assert r.homogeneous_ideal is False
    auto = regularity(GOLDEN_V, GOLDEN_W)
    assert auto.method == "formula" and auto.reg == 2
    assert auto.H is None and auto.groebner_reg is None
    verified = regularity(GOLDEN_V, GOLDEN_W, method="both")
    assert verified.method == "both" and verified.reg == 2


def test_regularity_non_covexillary_is_conjectural():
    v = Permutation.identity(4)
    w = Permutation((3, 4, 1, 2))
    r = regularity(v, w)
    assert r.method == "groebner"
    assert r.cm_status == "conjectural"
    assert r.reg == 1 and r.formula_reg is None
    with pytest.raises(NotCovexillaryError):
        regularity(v, w, method="formula")
    with pytest.raises(NotCovexillaryError):
        regularity(v, w, method="both")


def test_regularity_rejects_an_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        regularity(Permutation.identity(3), Permutation((3, 1, 2)), method="bogus")


def test_regularity_rejects_incomparable():
    with pytest.raises(ValueError, match=BRUHAT_ERROR):
        regularity(Permutation((2, 1, 3)), Permutation((1, 2, 3)))
    with pytest.raises(ValueError):
        regularity(Permutation((1, 2)), Permutation((1, 2, 3)))


def test_regularity_with_kl_and_checks():
    r = regularity(GOLDEN_V, GOLDEN_W, with_kl=True, checks="all")
    assert r.kl_degree == 2
    assert set(r.conjecture_flags) == set(ALL_CHECKS)
    assert all(val == "pass" for val in r.conjecture_flags.values())
    assert set(FALSIFIABLE_CHECKS) == set(ALL_CHECKS) - {"reg-le-deg-p"}


def test_report_json_round_trip():
    for rep in (
        regularity(GOLDEN_V, GOLDEN_W, method="both", with_kl=True),
        regularity(Permutation.identity(4), Permutation((3, 4, 1, 2))),
        regularity(GOLDEN_V, GOLDEN_W, checks=("h-nonneg",)),
    ):
        data = rep.to_json()
        assert json.loads(json.dumps(data, sort_keys=True)) == data
        assert data["reg"] == rep.reg
        assert data["h_coeffs"] == (list(rep.H.coeffs) if rep.H is not None else None)


def test_ps_series_values():
    coeffs, mult = ps_series(GOLDEN_W, GOLDEN_W, 5)
    assert coeffs == (1, 0, 0, 0, 0, 0) and mult == 1
    coeffs, mult = ps_series(Permutation((1, 2, 3)), Permutation((3, 1, 2)), 3)
    assert coeffs == (1, 2, 3, 4) and mult == 1
    coeffs, mult = ps_series(
        Permutation.identity(4), Permutation((4, 2, 3, 1)), 3
    )
    assert coeffs == (1, 6, 20, 50) and mult == 2
    with pytest.raises(ValueError):
        ps_series(GOLDEN_W, GOLDEN_W, -1)


def test_finalps_identity_golden():
    assert finalps_check(GOLDEN_V, GOLDEN_W)
    assert finalps_check(GOLDEN_W, GOLDEN_W)


def test_finalps_identity_on_every_covexillary_s5_pair():
    pairs = scan_pairs(5, restrict="covexillary-only")
    assert len(pairs) == 2967
    for v, w in pairs:
        assert finalps_check(v, w), (v, w)


def test_finalps_compares_against_the_groebner_h(monkeypatch):
    import dataclasses

    import schubreg.reg as reg

    compute = reg.hilbert_data

    def wrong_hilbert_data(v, w):
        data = compute(v, w)
        *head, last = data.H.coeffs
        return dataclasses.replace(data, H=UniPoly(head + [last + 1]))

    monkeypatch.setattr(reg, "hilbert_data", wrong_hilbert_data)
    assert is_covexillary(GOLDEN_W)
    assert not finalps_check(GOLDEN_V, GOLDEN_W)


def _companion_and_groebner_h(pairs):
    """(the H `_h` reads off the companion, the Groebner H) of each pair,
    the first all read before any chart is computed."""
    import schubreg.reg as reg

    companion = [reg._h(v, w) for v, w in pairs]
    assert not reg._H  # the companion's H never reaches the Groebner H memo
    return companion, [reg._groebner_h(v, w) for v, w in pairs]


def test_companion_h_is_the_groebner_h_on_every_covexillary_s5_pair():
    pairs = scan_pairs(5, restrict="covexillary-only")
    companion, groebner = _companion_and_groebner_h(pairs)
    assert len(pairs) == 2967 and companion == groebner


@pytest.mark.slow
def test_companion_h_is_the_groebner_h_on_every_covexillary_s6_pair():
    pairs = scan_pairs(6, restrict="covexillary-only")
    companion, groebner = _companion_and_groebner_h(pairs)
    assert len(pairs) == 57847 and companion == groebner


def test_h_checks_on_a_cold_companion_memo_test_the_budget():
    v, w = Permutation.identity(5), Permutation.from_string("52341")
    assert is_covexillary(w)
    with pytest.raises(ResourceBudgetExceeded), time_budget(0):
        check_conjectures(v, w, checks=("h-nonneg",))


def test_series_and_finalps_read_the_chart_memo(monkeypatch):
    import schubreg.reg as reg

    compute = reg.hilbert_data
    calls = []

    def counting_hilbert_data(v, w):
        calls.append((v, w))
        return compute(v, w)

    monkeypatch.setattr(reg, "hilbert_data", counting_hilbert_data)
    # ps_series reads the Groebner H only where w is not covexillary
    v, w = Permutation.identity(5), Permutation.from_string("34512")
    assert not is_covexillary(w)
    H = regularity(v, w).H
    with time_budget(0):
        coeffs, mult = ps_series(v, w, 3)
    assert coeffs == tuple(H.series_coefficients(6, 3)) == (1, 7, 27, 77) and mult == 2
    regularity(GOLDEN_V, GOLDEN_W, method="groebner")
    with time_budget(0):
        assert finalps_check(GOLDEN_V, GOLDEN_W)
    # the orbit's one cone may come from the pair's inverse chart
    assert len(calls) == 2
    for pair, call in zip(((v, w), (GOLDEN_V, GOLDEN_W)), calls):
        assert call in (pair, (pair[0].inverse(), pair[1].inverse()))


def test_dual_path_reads_the_companion_h_even_with_a_groebner_h_stored():
    # a wrong companion H must fail dual-path whatever the process computed
    # before: a Groebner H in the memo never stands in for it
    import schubreg.reg as reg
    from schubreg.shapes import companion

    reg._KAPPA_H[companion(GOLDEN_V, GOLDEN_W)] = UniPoly((1, 3, 1, 1))
    assert check_conjectures(GOLDEN_V, GOLDEN_W, "dual-path") == {"dual-path": "fail"}
    assert regularity(GOLDEN_V, GOLDEN_W, method="groebner").reg == 2
    assert check_conjectures(GOLDEN_V, GOLDEN_W, "dual-path") == {"dual-path": "fail"}


def test_budget_bounds_the_power_series():
    v, w = Permutation((1, 2, 3, 4)), Permutation((4, 2, 3, 1))
    ps_series(v, w, 0)  # the chart is now in the memo and costs no budget
    start = time.monotonic()
    with pytest.raises(ResourceBudgetExceeded, match="power series"), time_budget(50):
        ps_series(v, w, 10**6)
    assert time.monotonic() - start < 1.0


def test_check_conjectures_trivial_and_flagging():
    flags = check_conjectures(GOLDEN_W, GOLDEN_W)
    assert all(val == "pass" for val in flags.values())
    # v = w passes every check, the covexillary-only ones on a 3412 too
    w = Permutation((3, 4, 1, 2))
    assert check_conjectures(w, w) == {name: "pass" for name in ALL_CHECKS}
    flags = check_conjectures(
        Permutation.identity(4), Permutation((3, 4, 1, 2)), checks="all"
    )
    assert flags["h-nonneg"] == "pass"
    assert flags["dual-path"] == "not-checkable"
    with pytest.raises(ValueError):
        check_conjectures(GOLDEN_V, GOLDEN_W, checks=("unknown-check",))


def test_a_single_check_name_selects_that_check():
    e3, w0_3 = Permutation.identity(3), Permutation.longest(3)
    assert check_conjectures(e3, w0_3, checks="h-nonneg") == {"h-nonneg": "pass"}
    assert regularity(e3, w0_3, checks="kl-degree").conjecture_flags == {"kl-degree": "pass"}
    result = max_reg_scan(3, checks="h-nonneg")
    assert all(r.conjectures == {"h-nonneg": "pass"} for r in result.records)
    with pytest.raises(ValueError, match="unknown check 'h-nonne'"):
        check_conjectures(e3, w0_3, checks="h-nonne")


def test_check_conjectures_reads_each_fact_of_the_pair_once(monkeypatch):
    import schubreg.reg as reg

    calls = Counter()

    def counting(name):
        real = getattr(reg, name)

        def counted(*pair):
            calls[name, pair] += 1
            return real(*pair)

        monkeypatch.setattr(reg, name, counted)

    counting("kl_polynomial")
    counting("regularity_formula")
    v, w = Permutation((1, 2, 3, 4, 5)), Permutation((5, 2, 3, 4, 1))
    assert is_covexillary(w)
    flags = check_conjectures(v, w, checks="all")
    assert flags == {name: "pass" for name in ALL_CHECKS}
    assert calls["kl_polynomial", (v, w)] == 1
    assert calls["regularity_formula", (v, w)] == 1


def test_staircase_permutations():
    for j, n in ((2, 5), (3, 8), (4, 11), (5, 14)):
        w = staircase_permutation(j)
        assert w.n == n
        # the printed code (1, ..., j, 0, ...) counts co-inversions
        assert length(w) == comb(n, 2) - comb(j + 1, 2)
        assert is_covexillary(w)
    with pytest.raises(ValueError):
        staircase_permutation(0)


def linear_family(n):
    """F_n = n (n-1) 3 4 ... (n-2) 2 1."""
    return Permutation((n, n - 1) + tuple(range(3, n - 1)) + (2, 1))


def test_linear_family_reaches_2n_minus_10_at_the_identity():
    # one covexillary chart per n, where reg = deg H (Li-Yong): so
    # maxReg(8) >= 6 and maxReg(9) >= 8
    for n in range(6, 11):
        e, w = Permutation.identity(n), linear_family(n)
        assert is_covexillary(w), n
        assert regularity_formula(e, w) == 2 * n - 10, n
        assert chart_shape(e, w)[1] == comb(n - 4, 2), n
        assert check_conjectures(e, w, "dual-path") == {"dual-path": "pass"}, n
    for n in (8, 9):
        data = hilbert_data(Permutation.identity(n), linear_family(n))
        assert data.homogeneous, n
        assert data.H.degree() == 2 * n - 10, n
        assert data.H.coeffs == data.H.coeffs[::-1], n


def second_linear_family(n):
    """G_n = (n-1) n 3 4 ... (n-2) 1 2."""
    return Permutation((n - 1, n) + tuple(range(3, n - 1)) + (1, 2))


def test_second_linear_family_reaches_2n_minus_9_at_the_identity():
    # one above F_n, outside the covexillary case: deg H, which is reg
    # wherever the cone is Cohen-Macaulay
    for n in range(6, 10):
        e, w = Permutation.identity(n), second_linear_family(n)
        assert not is_covexillary(w), n
        assert chart_shape(e, w)[1] == comb(n - 4, 2) + 2, n
        H = hilbert_data(e, w).H
        assert H.degree() == 2 * n - 9, n
        assert H.coeffs == H.coeffs[::-1], n


def test_the_s7_maximum_of_deg_h_is_5_at_four_pairs():
    # the largest deg H on S7, one above the covexillary maximum of 4; that
    # it is the regularity needs each cone to be Cohen-Macaulay
    w = Permutation.from_string("6734512")
    assert w == second_linear_family(7)
    for v, dim in (("1234567", 16), ("1324567", 15), ("1234657", 15), ("1324657", 14)):
        rec = scan_record(Permutation.from_string(v), w, budget_ms=10000)
        assert rec.error is None and (rec.reg, rec.dim) == (5, dim), v
        assert rec.h_coeffs == [1, 4, 9, 9, 4, 1], v
        assert (rec.homogeneous_ideal, rec.cm_status) == (False, "conjectural"), v


def test_scan_pairs_order_and_restriction():
    pairs = scan_pairs(3)
    assert len(pairs) == 19
    keys = [(length(w) - length(v), w.word, v.word) for v, w in pairs]
    assert keys == sorted(keys)
    cov_only = scan_pairs(4, restrict="covexillary-only")
    assert len(cov_only) == 199
    assert all(is_covexillary(w) for _, w in cov_only)
    with pytest.raises(ValueError):
        scan_pairs(3, restrict="smooth")


def test_scan_record_round_trip():
    rec = scan_record(GOLDEN_V, GOLDEN_W, checks=("h-nonneg",))
    assert rec.reg == 2 and rec.error is None
    assert rec.kernel == kernel_version()
    line = rec.to_json_line()
    assert ScanRecord.from_json_line(line) == rec
    # a strict budget produces an error record instead of raising
    strict = scan_record(
        Permutation.identity(4), Permutation((3, 4, 1, 2)), budget_ms=0
    )
    assert strict.reg is None
    assert "budget" in strict.error


def test_budget_error_records_keep_the_pair_labels():
    v, w = Permutation.identity(5), Permutation((5, 2, 3, 4, 1))
    over = scan_record(v, w, checks="all", budget_ms=0)
    assert over.error is not None and over.error.startswith("budget:")
    assert (over.method, over.cm_status, over.covexillary) == ("formula", "proven", True)
    done = scan_record(v, w, checks="all")
    assert done.error is None
    for name in ("method", "cm_status", "covexillary", "dim", "height", "n_vars"):
        assert getattr(over, name) == getattr(done, name), name


def test_an_enclosing_budget_scope_bounds_a_scan_record():
    v, w = Permutation.identity(4), Permutation((3, 4, 1, 2))
    assert not is_covexillary(w)
    with time_budget(0):
        enclosed = scan_record(v, w)
    own = scan_record(v, w, budget_ms=0)
    done = scan_record(v, w)
    assert done.error is None and done.reg == 1
    for rec in (enclosed, own):
        assert rec.error.startswith("budget:")
        assert (rec.reg, rec.h_coeffs, rec.kl_degree, rec.conjectures) == (None, None, None, {})
        fixed = ("method", "covexillary", "cm_status", "dim", "height", "n_vars")
        for name in ("n", "v", "w", "kernel") + fixed:
            assert getattr(rec, name) == getattr(done, name), name


def test_scan_records_carry_the_report_of_every_s4_pair():
    for v, w in scan_pairs(4):
        record = scan_record(v, w, checks="all")
        report = regularity(v, w, checks="all")
        expected = report.to_json()
        assert record.error is None
        assert record.conjectures == expected.pop("conjecture_flags")
        shared = (set(expected) & set(ScanRecord.__dataclass_fields__)) - {"elapsed_ms"}
        assert {name: getattr(record, name) for name in shared} == {
            name: expected[name] for name in shared
        }, (v, w)


def test_the_companion_h_memo_grows_with_companions_not_pairs(monkeypatch):
    import schubreg.reg as reg

    specialized = Counter()
    real = reg.groth_spec_1mq

    def counting(u):
        specialized[u] += 1
        return real(u)

    monkeypatch.setattr(reg, "groth_spec_1mq", counting)
    max_reg_scan(5, "covexillary-only", checks=("h-nonneg", "h-semicontinuity"))
    assert sum(specialized.values()) == 51 and set(specialized.values()) == {1}
    assert len(reg._KAPPA_H) == 51


def test_a_covexillary_s5_scan_builds_each_companion_and_filling_once(monkeypatch):
    import schubreg.shapes as shapes

    fillings = Counter()
    real = shapes.covexillary_rank_filling

    def counting(kappa):
        fillings[kappa] += 1
        return real(kappa)

    monkeypatch.setattr(shapes, "covexillary_rank_filling", counting)
    max_reg_scan(5, "covexillary-only")
    info = shapes.companion_permutation.cache_info()
    assert (info.misses, info.hits) == (120, 0)
    assert len(fillings) == 52 and set(fillings.values()) == {1}


def test_budget_covers_the_charts_of_the_checks(monkeypatch):
    import schubreg.reg as reg

    compute = reg.hilbert_data

    def slow_hilbert_data(v, w):
        time.sleep(0.03)
        return compute(v, w)

    monkeypatch.setattr(reg, "hilbert_data", slow_hilbert_data)
    # the pair and its checks compute three charts, 30 ms each at least
    rec = scan_record(
        Permutation((1, 2, 5, 3, 4)),
        Permutation((4, 1, 5, 2, 3)),
        checks=ALL_CHECKS,
        budget_ms=50,
    )
    assert rec.error is not None and rec.error.startswith("budget:")


def test_budget_covers_the_kl_checks(monkeypatch):
    import schubreg.reg as reg

    compute = reg.kl_polynomial

    def slow_kl_polynomial(v, w):
        time.sleep(0.03)
        return compute(v, w)

    monkeypatch.setattr(reg, "kl_polynomial", slow_kl_polynomial)
    v, w = Permutation.identity(4), Permutation((4, 2, 3, 1))
    assert is_covexillary(w)
    for check in ("kl-degree", "reg-le-deg-p"):
        rec = scan_record(v, w, checks=(check,), budget_ms=10)
        assert rec.error is not None and rec.error.startswith("budget:"), check
        assert scan_record(v, w, checks=(check,)).conjectures == {check: "pass"}


def test_s4_sweep_computes_each_chart_once(monkeypatch):
    import schubreg.reg as reg

    compute = reg.hilbert_data
    calls = Counter()

    def counting_hilbert_data(v, w):
        calls[(v, w)] += 1
        return compute(v, w)

    monkeypatch.setattr(reg, "hilbert_data", counting_hilbert_data)
    result = max_reg_scan(4, checks="all")
    assert not result.partial and not result.conjecture_failures
    assert calls and set(calls.values()) == {1}


def test_an_s4_sweep_computes_no_chart_of_a_covexillary_w(monkeypatch):
    import schubreg.gb as gb
    import schubreg.reg as reg

    charted = []

    def counting(module, name):
        real = getattr(module, name)

        def counted(v, w):
            charted.append(w)
            return real(v, w)

        monkeypatch.setattr(module, name, counted)

    counting(reg, "hilbert_data")
    counting(reg, "kl_generators")
    counting(gb, "kl_generators")
    result = max_reg_scan(4, checks="all")
    # a non-covexillary pair may chart its pattern, a smaller pair whose w
    # can be covexillary, but no scanned pair with a covexillary w is charted
    assert charted and not any(w.n == 4 and is_covexillary(w) for w in charted)
    for name in ("h-nonneg", "deg-bound", "h-semicontinuity"):
        assert Counter(r.conjectures[name] for r in result.records) == {"pass": 213}, name


def test_budget_error_is_not_memoised():
    v, w = Permutation.identity(4), Permutation((3, 4, 1, 2))
    with pytest.raises(ResourceBudgetExceeded), time_budget(0):
        regularity(v, w)
    H = regularity(v, w).H
    # a stored chart costs no budget
    with time_budget(0):
        again = regularity(v, w)
    assert H is not None and again.H == H and again.reg == int(H.degree())


def test_the_slowest_known_chart_takes_its_cone_from_the_inverse(monkeypatch):
    # the inverse chart has 9 generators against the pair's own 26, so it
    # is the one cone computed; the certificate decides the pair's own flag
    import schubreg.reg as reg

    v, w = Permutation.identity(7), Permutation.from_string("6741523")
    inverse = (v, Permutation.from_string("4673512"))
    assert (len(kl_generators(*inverse)), len(kl_generators(v, w))) == (9, 26)
    compute = reg.hilbert_data
    calls = []

    def counting_hilbert_data(v, w):
        calls.append((v, w))
        return compute(v, w)

    monkeypatch.setattr(reg, "hilbert_data", counting_hilbert_data)
    with time_budget(10_000):
        report = regularity(v, w, method="groebner")
    assert calls == [inverse]
    assert report.H == UniPoly([1, 2, 2, 1]) and report.groebner_reg == 3
    assert report.homogeneous_ideal is False


def test_a_cone_stage_overrun_stores_no_h_but_keeps_the_flag(monkeypatch):
    import schubreg.gb as gb
    import schubreg.reg as reg

    # (1234, 1423) is not homogeneous and reads H and the flag off its
    # pattern (123, 312), which ties its inverse (123, 231) at one generator
    # and so is its own cone source.  An overrun there stores nothing; a
    # flag the certificate decided before the overrun is kept
    v, w = Permutation.identity(4), Permutation.from_string("1423")
    pattern = (Permutation.identity(3), Permutation.from_string("312"))
    compute = reg.hilbert_data
    calls = []

    def overrun_twice(v, w):
        calls.append((v, w))
        if len(calls) <= 2:
            raise ResourceBudgetExceeded("tangent cone ran past the time budget")
        return compute(v, w)

    monkeypatch.setattr(reg, "hilbert_data", overrun_twice)
    with pytest.raises(ResourceBudgetExceeded):
        regularity(v, w, method="groebner")
    assert calls == [pattern] and not reg._H and not reg._HOMOGENEOUS
    assert reg._homogeneous(v, w) is False and len(calls) == 1
    with pytest.raises(ResourceBudgetExceeded):
        regularity(v, w, method="groebner")
    assert calls == [pattern, pattern]
    assert not reg._H and reg._HOMOGENEOUS[pattern] is False
    report = regularity(v, w, method="groebner")
    assert len(calls) == 3 and reg._HOMOGENEOUS[(v, w)] is False
    cold_flag = gb.hilbert_data(v, w).homogeneous
    assert (report.H, report.homogeneous_ideal) == (compute(v, w).H, cold_flag)


def test_s5_scan_flags_and_h_match_each_pair_computed_afresh():
    import schubreg.gb as gb

    records = [r for r in max_reg_scan(5).records if not r.covexillary]
    assert len(records) == 814
    for record in records:
        v, w = Permutation.from_string(record.v), Permutation.from_string(record.w)
        data = gb.hilbert_data(v, w)
        assert record.homogeneous_ideal == data.homogeneous, record
        assert record.h_coeffs == list(data.H.coeffs), record


def test_a_cold_s5_scan_builds_a_grevlex_basis_only_for_a_cone(monkeypatch):
    # a pair with a removable common 1 reads its pattern, and each orbit
    # miss charts the one of the pair and its inverse with fewer generators,
    # 117 grevlex bases (235 when every pair charted itself).  A cone
    # source takes its flag off that basis; each other pair runs the
    # certificate, 84 calls, and the 16 homogeneous pairs among them chart
    # themselves for their flag: 133 bases, against 432 when every flag
    # read a basis
    import schubreg.gb as gb
    import schubreg.reg as reg

    kinds = Counter()
    calls = Counter()
    run = gb.buchberger
    certify = reg.not_a_cone

    def counting_buchberger(ideal, order="grevlex"):
        kinds[order] += 1
        return run(ideal, order)

    def counting_not_a_cone(v, w):
        calls["not_a_cone"] += 1
        return certify(v, w)

    monkeypatch.setattr(gb, "buchberger", counting_buchberger)
    monkeypatch.setattr(reg, "not_a_cone", counting_not_a_cone)
    max_reg_scan(5)
    assert kinds == {"grevlex": 133, "grevlex_t": 68}
    assert calls == {"not_a_cone": 84}


def test_a_flag_no_exact_test_decides_is_read_off_the_pairs_own_hilbert_data(monkeypatch):
    # the chart of (143526, 462513) is homogeneous, so the certificate does
    # not apply, and it has no removable 1
    import schubreg.reg as reg

    v, w = Permutation.from_string("143526"), Permutation.from_string("462513")
    assert not not_a_cone(v, w)
    assert reg._pattern(v, w) == (v, w)
    compute = reg.hilbert_data
    calls = []

    def counting_hilbert_data(v, w):
        calls.append((v, w))
        return compute(v, w)

    monkeypatch.setattr(reg, "hilbert_data", counting_hilbert_data)
    assert reg._homogeneous(v, w) is True
    assert calls == [(v, w)]


@pytest.mark.parametrize("first", ["1342", "1423"])
def test_an_orbit_computes_one_cone_and_each_flag_from_its_own_basis(monkeypatch, first):
    # (1234, 1342) and (1234, 1423) are each other's inverse: one H for
    # both, but only the first chart ideal is homogeneous.  They read both
    # off their patterns (123, 231) and (123, 312), again each other's
    # inverse with one generator each, so the one cone is that of the
    # pattern charted first.  The certificate decides the flag of (123,
    # 312); (123, 231), when it is not the cone source, charts itself for
    # its flag
    import schubreg.reg as reg

    compute = reg.hilbert_data
    calls = []

    def counting_hilbert_data(v, w):
        calls.append((v, w))
        return compute(v, w)

    monkeypatch.setattr(reg, "hilbert_data", counting_hilbert_data)
    e = Permutation.identity(4)
    order = [first] + [w for w in ("1342", "1423") if w != first]
    reports = {
        w: regularity(e, Permutation.from_string(w), method="groebner") for w in order
    }
    patterns = {"1342": ["231"], "1423": ["312", "231"]}[first]
    assert calls == [(Permutation.identity(3), Permutation.from_string(p)) for p in patterns]
    assert reports["1342"].homogeneous_ideal is True
    assert reports["1423"].homogeneous_ideal is False
    assert reports["1342"].H == reports["1423"].H


def test_kl_polynomials_of_two_s7_pairs():
    w = Permutation.from_string("7314562")
    assert kl_polynomial(GOLDEN_V, w) == UniPoly([1, 2, 1])
    assert kl_polynomial(Permutation.identity(7), w) == UniPoly([1, 3, 3, 1])


def test_kl_polynomials_below_w0_and_7613524():
    e = Permutation.identity(7)
    assert kl_polynomial(e, Permutation.from_string("7654321")) == UniPoly.one()
    assert kl_polynomial(e, Permutation.from_string("7613524")) == UniPoly([1, 1])


def test_kl_polynomial_stops_at_the_budget_and_keeps_only_finished_values(monkeypatch):
    import schubreg.reg as reg

    v, w = Permutation.identity(7), Permutation.from_string("7314562")
    with pytest.raises(ResourceBudgetExceeded), time_budget(0):
        kl_polynomial(v, w)
    # an overrun part way down the columns below w
    checks = []

    def overrun_after_300(what):
        checks.append(what)
        if len(checks) > 300:
            raise ResourceBudgetExceeded("%s ran past the time budget" % what)

    monkeypatch.setattr(reg, "check_budget", overrun_after_300)
    with pytest.raises(ResourceBudgetExceeded):
        kl_polynomial(v, w)
    monkeypatch.undo()
    stored = dict(reg._KL)
    assert stored and w not in stored
    # no partial column: each stored one covers [e, u] and equals a fresh one
    for u, (column, mu) in stored.items():
        assert set(column) == bruhat_interval(v, u), u
        reg._KL.clear()
        fresh_column, fresh_mu = reg._kl_column(u)
        assert column == fresh_column and set(mu) == set(fresh_mu), u
    reg._KL.clear()
    reg._KL.update(stored)
    assert kl_polynomial(v, w) == UniPoly([1, 3, 3, 1])
    assert kl_polynomial(GOLDEN_V, w) == UniPoly([1, 2, 1])


def test_kernel_version_shape():
    name = kernel_version()
    assert name.startswith("schubreg-")
    assert name.endswith("-python")


def test_cache_written_by_the_compiled_kernel_still_loads(tmp_path):
    # Caches from releases that shipped a compiled kernel say "-cython".
    cache = tmp_path / "s3.jsonl"
    first = max_reg_scan(3, cache_path=str(cache))
    lines = []
    for line in cache.read_text().splitlines():
        data = json.loads(line)
        data["kernel"] = "schubreg-0.1.0-cython"
        lines.append(json.dumps(data, sort_keys=True) + "\n")
    cache.write_text("".join(lines))
    assert ScanRecord.from_json_line(lines[0]).kernel == "schubreg-0.1.0-cython"
    again = max_reg_scan(3, cache_path=str(cache))
    assert cache.read_text() == "".join(lines)  # nothing recomputed
    assert {r.kernel for r in again.records} == {"schubreg-0.1.0-cython"}
    assert [stable_fields(r) | {"kernel": None} for r in again.records] == [
        stable_fields(r) | {"kernel": None} for r in first.records
    ]


def test_max_reg_scan_small():
    res = max_reg_scan(3)
    assert res.max_reg == 0
    assert len(res.records) == 19
    assert not res.partial
    assert not res.conjecture_failures
    res4 = max_reg_scan(4)
    assert res4.max_reg == 1
    assert len(res4.records) == 213
    assert ("1234", "4231") in res4.argmax


@pytest.mark.parametrize("restrict", ["all", "covexillary-only"])
def test_a_scan_counts_its_pairs_with_and_without_a_cache(tmp_path, restrict):
    expected = len(scan_pairs(4, restrict))
    assert max_reg_scan(4, restrict).pairs == expected
    cache = str(tmp_path / "scan4.jsonl")
    assert max_reg_scan(4, restrict, cache_path=cache).pairs == expected
    # the rerun reuses every record of the cache
    assert max_reg_scan(4, restrict, cache_path=cache).pairs == expected


def stable_fields(record):
    data = json.loads(record.to_json_line())
    data.pop("elapsed_ms")
    return data


def test_max_reg_scan_cache_resume(tmp_path):
    cache = str(tmp_path / "scan4.jsonl")
    first = max_reg_scan(4, cache_path=cache)
    with open(cache, "rb") as fh:
        full = fh.read()
    assert len(full.splitlines()) == 213
    # a second run must not recompute or rewrite anything
    second = max_reg_scan(4, cache_path=cache)
    with open(cache, "rb") as fh:
        assert fh.read() == full
    assert [r.to_json_line() for r in second.records] == [
        r.to_json_line() for r in first.records
    ]
    # truncate to half and resume; everything but timing is reproduced
    lines = full.splitlines(keepends=True)
    with open(cache, "wb") as fh:
        fh.writelines(lines[: len(lines) // 2])
    third = max_reg_scan(4, cache_path=cache)
    assert [stable_fields(r) for r in third.records] == [
        stable_fields(r) for r in first.records
    ]
    # corrupt line is skipped and recomputed
    with open(cache, "w") as fh:
        fh.write(lines[0].decode())
        fh.write("{not json}\n")
    fourth = max_reg_scan(4, cache_path=cache)
    assert fourth.max_reg == 1 and len(fourth.records) == 213


def test_record_sink_sees_each_computed_record_once(tmp_path):
    cache = str(tmp_path / "scan4.jsonl")
    sent = []
    first = max_reg_scan(4, cache_path=cache, record_sink=sent.append)
    assert sent == first.records
    sent.clear()
    max_reg_scan(4, cache_path=cache, record_sink=sent.append)
    assert sent == []  # a resume computes nothing
    checked = max_reg_scan(
        4, checks=("h-nonneg",), cache_path=cache, record_sink=sent.append
    )
    assert len(sent) == 213 and sent == checked.records


def test_a_resume_that_mixes_cached_and_recomputed_pairs_keeps_the_summary(tmp_path, monkeypatch):
    import schubreg.reg as reg

    # h-nonneg fails wherever v does not start with 1, so failures are
    # spread over the cached and the recomputed pairs alike
    monkeypatch.setitem(reg._CHECKS, "h-nonneg", lambda f: f.v.word[0] == 1)
    cache = tmp_path / "scan4.jsonl"
    checks = ("h-nonneg", "dual-path")
    cold = max_reg_scan(4, checks=checks, cache_path=str(cache))
    # keep every third line: the S4 argmax sits at odd scan positions, so
    # every other line would leave it wholly cached or wholly recomputed
    lines = cache.read_text().splitlines()
    cache.write_text("".join(line + "\n" for line in lines[::3]))
    kept = {(r.v, r.w) for r in map(ScanRecord.from_json_line, lines[::3])}
    sent = []
    resumed = max_reg_scan(4, checks=checks, cache_path=str(cache), record_sink=sent.append)

    def summary(result):
        return (
            result.max_reg, result.argmax, result.conjecture_failures,
            result.check_counts, result.errors,
        )

    assert summary(resumed) == summary(cold)
    assert list(resumed.check_counts) == list(checks) and not resumed.partial
    assert sent == [r for r in resumed.records if (r.v, r.w) not in kept]
    assert len(sent) == len(lines) - len(kept) > 0
    # both the argmax and the failures mix cached and recomputed pairs
    for pairs in (resumed.argmax, [(v, w) for v, w, _ in resumed.conjecture_failures]):
        assert {pair in kept for pair in pairs} == {True, False}
    # a resume that asks for fewer checks tallies only those, but still
    # reports every failure its reused records carry
    sent.clear()
    fewer = max_reg_scan(4, checks=("dual-path",), cache_path=str(cache), record_sink=sent.append)
    assert sent == [] and fewer.conjecture_failures == cold.conjecture_failures
    assert fewer.check_counts == {"dual-path": cold.check_counts["dual-path"]}


def test_max_reg_scan_cache_retries_budget_errors(tmp_path):
    cache = str(tmp_path / "scan4.jsonl")
    assert max_reg_scan(4, budget_ms=0, cache_path=cache).partial
    rerun = max_reg_scan(4, cache_path=cache)
    assert not rerun.partial and rerun.max_reg == 1
    assert all(r.error is None for r in rerun.records)
    # the retried records replaced the error lines, and they load as computed
    final = max_reg_scan(4, cache_path=cache)
    assert not final.partial
    assert [stable_fields(r) for r in final.records] == [
        stable_fields(r) for r in rerun.records
    ]


def test_max_reg_scan_compacts_the_cache(tmp_path):
    cache = tmp_path / "scan4.jsonl"
    for _ in range(3):
        # budget errors are recomputed on every run, never piled up
        assert max_reg_scan(4, budget_ms=0, cache_path=str(cache)).partial
        lines = cache.read_text().splitlines()
        pairs = {(r.v, r.w) for r in map(ScanRecord.from_json_line, lines)}
        assert len(lines) == len(pairs) == 213


def test_compaction_keeps_pairs_outside_the_scan(tmp_path):
    cache = str(tmp_path / "mixed.jsonl")
    s3 = max_reg_scan(3, cache_path=cache)
    max_reg_scan(4, budget_ms=0, cache_path=cache)
    max_reg_scan(4, budget_ms=0, cache_path=cache)
    with open(cache, encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == len(s3.records) + 213
    again = max_reg_scan(3, cache_path=cache)
    assert [stable_fields(r) for r in again.records] == [
        stable_fields(r) for r in s3.records
    ]


def test_a_compacting_scan_parses_each_cache_line_once(tmp_path, monkeypatch):
    cache = tmp_path / "scan3.jsonl"
    plain = max_reg_scan(3, cache_path=str(cache))
    lines = cache.read_text().splitlines()
    # one unreadable line and a second line for the first pair
    cache.write_text("".join(line + "\n" for line in lines + ["{not json", lines[0]]) + "\n")
    parsed = []
    parse = ScanRecord.from_json_line.__func__

    def counting(cls, line):
        parsed.append(line)
        return parse(cls, line)

    monkeypatch.setattr(ScanRecord, "from_json_line", classmethod(counting))
    again = max_reg_scan(3, cache_path=str(cache))
    assert len(parsed) == len(lines) + 2
    assert [stable_fields(r) for r in again.records] == [
        stable_fields(r) for r in plain.records
    ]
    assert cache.read_text().splitlines() == lines


@pytest.mark.parametrize(
    "field, value",
    [
        ("conjectures", None),
        ("reg", "0"),
        ("conjectures", {"h-nonneg": "maybe"}),
        # H is a list of exact integers; a bool is not one
        ("h_coeffs", ["a", 1.5, True]),
        ("h_coeffs", [1, True]),
        ("elapsed_ms", float("nan")),
        ("elapsed_ms", float("-inf")),
    ],
)
def test_cache_lines_with_wrong_json_types_are_recomputed(tmp_path, field, value):
    cache = tmp_path / "scan3.jsonl"
    plain = max_reg_scan(3, cache_path=str(cache))
    lines = cache.read_text().splitlines()
    data = json.loads(lines[5])
    data[field] = value
    lines[5] = json.dumps(data, sort_keys=True)
    cache.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ValueError):
        ScanRecord.from_json_line(lines[5])
    again = max_reg_scan(3, cache_path=str(cache))
    assert [stable_fields(r) for r in again.records] == [
        stable_fields(r) for r in plain.records
    ]
    # compaction dropped the line; the recomputed pair has one line
    kept = cache.read_text().splitlines()
    assert len(kept) == 19 and lines[5] not in kept
    assert {(r.v, r.w) for r in map(ScanRecord.from_json_line, kept)} == {
        (r.v, r.w) for r in plain.records
    }


def test_a_record_line_is_json_dumps_of_its_fields():
    records = (
        max_reg_scan(4, checks="all", budget_ms=0).records
        + max_reg_scan(4, checks="all").records
    )
    assert sum(r.error is not None for r in records) == 190
    base = records[-1]
    edges = itertools.product(
        (0, 3, None),  # reg and kl_degree
        (None, True, False),  # homogeneous_ideal
        (None, 'a "quoted" \\ back\x00slash \u00e9 \U0001d11e'),  # error
        (None, [], [1, -2, 3]),  # h_coeffs
        (1e-05, 1e16, 0.1 + 0.2),  # elapsed_ms
        ({}, {"reg-semicontinuity": "pass", "dual-path": "fail", "h-nonneg": "not-checkable"}),
    )
    for small, homogeneous, error, h, elapsed, checks in edges:
        records.append(
            ScanRecord(**{
                **base.__dict__, "reg": small, "kl_degree": small, "homogeneous_ideal": homogeneous,
                "error": error, "h_coeffs": h, "elapsed_ms": elapsed, "conjectures": checks,
            })
        )
    for record in records:
        line = record.to_json_line()
        assert line == json.dumps(record.__dict__, sort_keys=True), record
        assert ScanRecord.from_json_line(line) == record


def test_a_record_line_is_read_as_json_loads_reads_it():
    record = scan_record(GOLDEN_V, GOLDEN_W, checks=("h-nonneg",))
    line = record.to_json_line()
    for padded in (line + "\n", " \t\r\n" + line + "\r\n \t"):
        assert ScanRecord.from_json_line(padded) == record
    missing = json.dumps({k: v for k, v in record.__dict__.items() if k != "kernel"})
    # the exception json.loads and the field reads raise on each input
    for bad, error in [
        (line + " {}", ValueError),
        (line + "x", ValueError),
        ("\f" + line, ValueError),  # not JSON whitespace
        ("\u00a0" + line, ValueError),
        ("", ValueError),
        ("{not json}", ValueError),
        ("[1, 2]", TypeError),
        ('"a string"', TypeError),
        ("null", TypeError),
        (missing, KeyError),
    ]:
        with pytest.raises(error):
            ScanRecord.from_json_line(bad)


def test_a_scan_reads_cache_lines_as_json_loads_reads_them(tmp_path):
    cache = tmp_path / "scan3.jsonl"
    plain = max_reg_scan(3, cache_path=str(cache))
    lines = cache.read_text().splitlines()
    assert lines == [r.to_json_line() for r in plain.records]
    # a form feed and an NBSP are not JSON whitespace: the two prefixed lines
    # are not records, and a line of one NBSP is not blank
    edited = lines[:]
    edited[3] = "\f" + lines[3]
    edited[7] = "\u00a0" + lines[7]
    cache.write_text("".join(line + "\n" for line in edited + ["\u00a0"]))
    sent = []
    again = max_reg_scan(3, cache_path=str(cache), record_sink=sent.append)
    assert [(r.v, r.w) for r in sent] == [(r.v, r.w) for r in (plain.records[3], plain.records[7])]
    assert [stable_fields(r) for r in again.records] == [
        stable_fields(r) for r in plain.records
    ]
    kept = cache.read_text().splitlines()
    assert len(kept) == 19
    assert [ScanRecord.from_json_line(line).to_json_line() for line in kept] == kept


def test_max_reg_scan_rejects_unknown_checks_before_opening_the_cache(tmp_path):
    cache = tmp_path / "scan3.jsonl"
    with pytest.raises(ValueError, match="unknown check 'bogus'"):
        max_reg_scan(3, checks=("bogus",), cache_path=str(cache))
    assert not cache.exists()


def test_max_reg_scan_rejects_a_negative_budget_before_opening_the_cache(tmp_path):
    cache = tmp_path / "scan3.jsonl"
    with pytest.raises(ValueError, match="must be nonnegative, got -5 ms"):
        max_reg_scan(3, budget_ms=-5, cache_path=str(cache))
    assert not cache.exists()


def test_max_reg_scan_rejects_a_nan_budget_before_opening_the_cache(tmp_path):
    cache = tmp_path / "scan3.jsonl"
    with pytest.raises(ValueError, match="must be nonnegative, got nan ms"):
        max_reg_scan(3, budget_ms=float("nan"), cache_path=str(cache))
    with pytest.raises(ValueError, match="must be nonnegative, got nan ms"):
        scan_record(Permutation.identity(3), Permutation.from_string("321"), budget_ms=float("nan"))
    assert not cache.exists()


def test_max_reg_scan_rejects_n_below_1_before_opening_the_cache(tmp_path):
    cache = tmp_path / "scan.jsonl"
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be at least 1, got %d" % n):
            scan_pairs(n)
        with pytest.raises(ValueError, match="n must be at least 1, got %d" % n):
            max_reg_scan(n, cache_path=str(cache))
    assert not cache.exists()
    assert scan_pairs(1) == [(Permutation.identity(1), Permutation.identity(1))]


def test_max_reg_scan_rejects_workers_other_than_1_before_opening_the_cache(tmp_path):
    cache = tmp_path / "scan3.jsonl"
    for workers in (2, 0, -3):
        with pytest.raises(ValueError, match="workers must be 1, got %d" % workers):
            max_reg_scan(3, cache_path=str(cache), workers=workers)
    assert not cache.exists()
    assert max_reg_scan(3, cache_path=str(cache), workers=1).max_reg == 0


SCAN_DIGEST = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
from schubreg.reg import max_reg_scan
for n in (4, 5):
    digest = hashlib.sha256()
    for record in max_reg_scan(n, checks="all").records:
        fields = dict(record.__dict__)
        del fields["elapsed_ms"]
        digest.update(json.dumps(fields, sort_keys=True).encode() + b"\\n")
    print(digest.hexdigest())
"""


def test_scan_records_do_not_depend_on_the_hash_seed():
    # permutations hash by identity, so a set of them iterates in address
    # order; that order must never reach a record
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    digests = []
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-c", SCAN_DIGEST, src],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONHASHSEED=seed),
        )
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.split())
    # the records themselves are pinned, S4 and S5 with every check: a
    # change that alters any field but elapsed_ms, H included, must update
    # these digests on purpose
    pinned = [
        "895154978442243c0e439d2d7746a7edf5950092a8a63a3b35d8cbb2fe403f8d",
        "8f58405e54d57f2696e9bdd848cadcb00e79ab3341384e9714627765d1f26584",
    ]
    assert digests == [pinned, pinned]


def test_the_tableau_route_records_of_covexillary_s6_are_pinned():
    # every covexillary pair of S6 goes through the tableau rule (about 1.2 s);
    # the digest follows SCAN_DIGEST's recipe, and a change to any field but
    # elapsed_ms must update it on purpose
    result = max_reg_scan(6, "covexillary-only")
    digest = hashlib.sha256()
    for record in result.records:
        fields = dict(record.__dict__)
        del fields["elapsed_ms"]
        digest.update(json.dumps(fields, sort_keys=True).encode() + b"\n")
    assert (len(result.records), result.max_reg) == (57847, 3)
    assert digest.hexdigest() == "5c5c6d3498ba221c0a78b5982e3265dcb157d9b5a7c04446e25e2e12e08b55eb"


def test_max_reg_scan_cache_recomputes_records_missing_checks(tmp_path):
    cache = str(tmp_path / "scan3.jsonl")
    plain = max_reg_scan(3, cache_path=cache)
    assert all(r.conjectures == {} for r in plain.records)
    checked = max_reg_scan(3, checks=("h-nonneg",), cache_path=cache)
    assert all(r.conjectures == {"h-nonneg": "pass"} for r in checked.records)
    # records that carry the check now serve a plain rerun unchanged
    with open(cache, "rb") as fh:
        blob = fh.read()
    max_reg_scan(3, cache_path=cache)
    with open(cache, "rb") as fh:
        assert fh.read() == blob


def test_max_reg_scan_budget_partial():
    res = max_reg_scan(4, budget_ms=0)
    # formula pairs still finish; groebner pairs over budget become errors
    assert res.partial
    assert res.max_reg == 1
    over = [rec for rec in res.records if rec.error is not None]
    assert over and all(rec.reg is None for rec in over)
    assert all("budget" in rec.error for rec in over)
