"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Every criterion below is exact (integer or coefficient equality, no
tolerances) and carries a wall-clock budget.  Run the default tier with
plain ``pytest``; the one long job, maxReg(6), sits behind ``-m slow``.
"""

import dataclasses
import hashlib
import io
import json
import time
from contextlib import contextmanager
from math import comb

import pytest

import schubreg.cli as cli
from conftest import rng
from test_gb import (
    brute_standard_monomial_counts,
    initial_ideal_dims,
    macaulay_lowest_form_dims,
    poly_to_int_dict,
    random_ideal,
)

from schubreg.cli import entry
from schubreg.gb import hilbert_data, hilbert_numerator, lowest_degree_forms_ideal
from schubreg.groth import groth_degree, vexillary_degree_formula
from schubreg.perm import (
    Permutation,
    all_permutations,
    bruhat_leq,
    is_covexillary,
    is_vexillary,
)
from schubreg.reg import (
    finalps_check,
    kl_degree,
    max_reg_scan,
    staircase_permutation,
)
from schubreg.shapes import (
    companion_permutation,
    covexillary_rank_filling,
    regularity_formula,
)

GOLDEN_V = "1423576"
GOLDEN_W = "7314562"


@contextmanager
def criterion(num, label, budget_s):
    """Time a criterion body, print its verdict, enforce its budget."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print("criterion %2d %-58s FAIL" % (num, label))
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, "criterion %d took %.1fs (budget %ds)" % (
        num,
        elapsed,
        budget_s,
    )
    print("criterion %2d %-58s PASS (%.2fs)" % (num, label, elapsed))


def run_cli(argv):
    buf = io.StringIO()
    code = entry(argv, out=buf)
    return code, buf.getvalue()


def covexillary_pairs(n):
    perms = list(all_permutations(n))
    for w in perms:
        if not is_covexillary(w):
            continue
        for v in perms:
            if bruhat_leq(v, w):
                yield v, w


def test_criterion_01_golden_pair_both_routes_agree():
    with criterion(1, "golden pair: both routes report reg 2", 300):
        code, text = run_cli(
            ["analyze", "--v", GOLDEN_V, "--w", GOLDEN_W, "--method", "both", "--json"]
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["reg"] == 2
        assert payload["formula_reg"] == 2
        assert payload["groebner_reg"] == 2
        assert payload["discrepant"] is False


def test_criterion_02_identity_chart_of_golden_w():
    with criterion(2, "chart at the identity: formula reg 3", 1):
        code, text = run_cli(
            ["analyze", "--v", "1234567", "--w", GOLDEN_W, "--method", "formula", "--json"]
        )
        assert code == 0
        assert json.loads(text)["reg"] == 3


def test_criterion_03_companion_and_filling_rows():
    with criterion(3, "companion permutation and filling rows", 1):
        v = Permutation.from_string(GOLDEN_V)
        w = Permutation.from_string(GOLDEN_W)
        kappa = companion_permutation(v, w)
        assert str(kappa) == "3472561"
        rows = {}
        for (r, c), val in covexillary_rank_filling(kappa).items():
            rows.setdefault(r, {})[c] = val
        listed = [[rows[r][c] for c in sorted(rows[r])] for r in sorted(rows)]
        assert listed == [[0], [0, 0], [0, 0, 1], [0, 0, 1, 1]]


def test_criterion_04_hilbert_series_of_a_grassmannian_chart():
    with criterion(4, "H for (id, 6734512) has coefficients 1 4 9 9 4 1", 60):
        hd = hilbert_data(
            Permutation.identity(7), Permutation.from_string("6734512")
        )
        assert tuple(hd.H.coeffs) == (1, 4, 9, 9, 4, 1)


def test_criterion_05_max_regularity_n4():
    with criterion(5, "exhaustive scan: maxReg(4) = 1", 60):
        assert max_reg_scan(4).max_reg == 1


def test_criterion_05_max_regularity_n5():
    with criterion(5, "exhaustive scan: maxReg(5) = 2", 1800):
        assert max_reg_scan(5).max_reg == 2


@pytest.mark.slow
def test_criterion_05_max_regularity_n6():
    with criterion(5, "exhaustive scan: maxReg(6) = 3", 36000):
        result = max_reg_scan(6)
        assert result.max_reg == 3
    # the records are pinned by test_reg.SCAN_DIGEST's recipe: a change to
    # any field but elapsed_ms, H and flag included, must update it on purpose
    digest = hashlib.sha256()
    for record in result.records:
        fields = dict(record.__dict__)
        del fields["elapsed_ms"]
        digest.update(json.dumps(fields, sort_keys=True).encode() + b"\n")
    assert len(result.records) == 98407
    assert digest.hexdigest() == "c6b2388c8fec9569d01e8f2f45a9540afc2c831ac6e1df80584acc34211e9c47"


def test_criterion_06_dual_path_agreement_s4():
    with criterion(6, "formula reg = deg H on every covexillary S4 pair", 600):
        pairs = 0
        for v, w in covexillary_pairs(4):
            hd = hilbert_data(v, w)
            assert regularity_formula(v, w) == hd.H.degree(), (v, w)
            pairs += 1
        assert pairs == 199


def test_criterion_06_dual_path_agreement_s5():
    with criterion(6, "formula reg = deg H on every covexillary S5 pair", 36000):
        for v, w in covexillary_pairs(5):
            hd = hilbert_data(v, w)
            assert regularity_formula(v, w) == hd.H.degree(), (v, w)


def test_criterion_07_grothendieck_series_identity_s4():
    with criterion(7, "specialization identity on every covexillary S4 pair", 600):
        for v, w in covexillary_pairs(4):
            assert finalps_check(v, w), (v, w)


def test_criterion_08_vexillary_degree_formula_s5():
    with criterion(8, "shape formula = deg of Grothendieck, vexillary S5", 300):
        count = 0
        for u in all_permutations(5):
            if is_vexillary(u):
                assert vexillary_degree_formula(u) == groth_degree(u), u
                count += 1
        assert count == 103


def test_criterion_09_staircase_family():
    for j in (2, 3, 4, 5):
        with criterion(9, "staircase j=%d: reg = C(j,2) = %d" % (j, comb(j, 2)), 1):
            w = staircase_permutation(j)
            assert w.n == 3 * j - 1
            assert regularity_formula(Permutation.identity(w.n), w) == comb(j, 2)


def test_criterion_10_conjecture_suites_s4(monkeypatch):
    with criterion(10, "conjecture suite clean on all 213 S4 pairs", 600):
        code, text = run_cli(["scan", "--n", "4", "--checks", "all"])
        assert code == 0
        tallies = [line for line in text.splitlines() if line.startswith("check")]
        assert len(tallies) == 7
        for line in tallies:
            assert "fail=0" in line, line
        for name in ("h-nonneg", "deg-bound", "h-semicontinuity"):
            matching = [t for t in tallies if name in t]
            assert matching and "pass=213" in matching[0], name
    with criterion(10, "a falsified check exits 3 with a reproduction line", 60):
        real = max_reg_scan

        def poisoned(n, **kwargs):
            result = real(n, **kwargs)
            return dataclasses.replace(
                result, conjecture_failures=(("123", "321", "h-nonneg"),)
            )

        monkeypatch.setattr(cli, "max_reg_scan", poisoned)
        code, text = run_cli(["scan", "--n", "3"])
        assert code == 3
        assert "FALSIFIED" in text and "schubreg verify --v 123 --w 321" in text


def test_criterion_11_kernel_oracles():
    with criterion(11, "lowest-form and Hilbert kernels vs brute oracles", 300):
        r = rng(901)
        work = {2: 10, 3: 9, 4: 8}
        for _ in range(100):
            nvars = r.choice((2, 2, 3, 3, 4))
            ideal = random_ideal(r, nvars, max_gens=3, max_deg=3, at_origin=True)
            cone = lowest_degree_forms_ideal(ideal)
            ours = initial_ideal_dims(cone.leading_exponents(), nvars, 6)
            gens = [poly_to_int_dict(f) for f in ideal.generators]
            assert ours == macaulay_lowest_form_dims(gens, nvars, work[nvars], 6)
        checked = 0
        while checked < 100:
            nvars = r.randint(2, 4)
            exps = [
                tuple(r.randint(0, 4) for _ in range(nvars))
                for _ in range(r.randint(1, 5))
            ]
            exps = [e for e in exps if any(e)]
            if not exps:
                continue
            K = hilbert_numerator(exps, nvars)
            assert K.series_coefficients(nvars, 10) == brute_standard_monomial_counts(
                exps, nvars, 10
            )
            checked += 1


def test_criterion_12_kl_degree_equals_formula_s4():
    with criterion(12, "deg P = formula reg on every covexillary S4 pair", 600):
        for v, w in covexillary_pairs(4):
            assert kl_degree(v, w) == regularity_formula(v, w), (v, w)
