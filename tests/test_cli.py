"""Command-line surface: subcommands, exit codes, JSON schemas.

Exit codes 0 and 1 are exercised on real inputs.  Codes 2 (route
disagreement), 3 (falsified conjecture) and 4 (internal invariant failed)
never occur on honest data, so those paths are checked by stubbing the
backend and confirming the wiring.
"""

import dataclasses
import io
import json
import os
import subprocess
import sys
import time

import pytest

import schubreg.cli as cli
import schubreg.gb
import schubreg.reg
import schubreg.shapes
from schubreg.cli import entry
from schubreg.ideal import Ideal
from schubreg.kernel import SHIFT
from schubreg.perm import Permutation
from schubreg.poly import UniPoly
from schubreg.reg import regularity
from test_package import ROOT, child_env

GOLDEN = ("1423576", "7314562")

ANALYZE_KEYS = [
    "cm_status",
    "conjecture_flags",
    "covexillary",
    "dim",
    "discrepant",
    "elapsed_ms",
    "formula_reg",
    "groebner_reg",
    "h_coeffs",
    "height",
    "homogeneous_ideal",
    "kl_degree",
    "method",
    "n",
    "n_vars",
    "reg",
    "v",
    "w",
]


def run(argv):
    buf = io.StringIO()
    code = entry(argv, out=buf)
    return code, buf.getvalue()


def kv(text):
    """Parse the key-value report format back into a dict."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value.strip()
    return out


def test_analyze_text_report_on_golden_pair():
    code, text = run(["analyze", "--v", GOLDEN[0], "--w", GOLDEN[1], "--method", "both"])
    assert code == 0
    report = kv(text)
    assert report["pair"] == "v=1423576 w=7314562 (n=7)"
    assert report["method"] == "both"
    assert report["reg"] == "2"
    assert report["formula_reg"] == "2"
    assert report["groebner_reg"] == "2"
    assert report["cm_status"] == "proven"
    assert report["covexillary"] == "yes"
    assert (report["dim"], report["height"], report["n_vars"]) == ("8", "10", "18")
    assert report["homogeneous"] == "no"
    assert report["H"] == "1 + 3*q + q^2"


def test_analyze_json_schema_is_frozen():
    code, text = run(["analyze", "--v", GOLDEN[0], "--w", GOLDEN[1], "--json", "--with-kl"])
    assert code == 0
    payload = json.loads(text)
    assert sorted(payload) == ANALYZE_KEYS
    assert payload["v"] == GOLDEN[0] and payload["w"] == GOLDEN[1]
    assert payload["n"] == 7
    assert payload["reg"] == 2 and payload["kl_degree"] == 2
    assert payload["method"] == "formula" and payload["h_coeffs"] is None
    # --ps-order bolts the Hilbert function onto the same payload.
    code, text = run(["analyze", "--v", "123", "--w", "321", "--json", "--ps-order", "3"])
    assert code == 0
    payload = json.loads(text)
    assert sorted(payload) == sorted(ANALYZE_KEYS + ["ps_coeffs", "multiplicity"])
    assert payload["ps_coeffs"] == [1, 3, 6, 10]
    assert payload["multiplicity"] == 1
    # the text form prints the same two facts
    code, text = run(["analyze", "--v", "123", "--w", "321", "--ps-order", "3"])
    assert code == 0
    report = kv(text)
    assert report["ps[0..3]"] == "1 3 6 10" and report["multiplicity"] == "1"


def test_usage_and_math_errors_exit_1(capsys):
    cases = [
        (["analyze", "--v", "1x3", "--w", "321"], "cannot parse permutation"),
        (["analyze", "--v", "321", "--w", "123"], "not Bruhat-comparable in the required direction"),
        (["analyze", "--v", "1234", "--w", "3412", "--method", "formula"], "3412"),
        (["analyze", "--v", "123", "--w", "321", "--ps-order", "-1"], "must be nonnegative"),
        (["analyze", "--v", "123"], "required"),
        ([], "required"),
        (["scan", "--n", "1"], "need n >= 2"),
        (["scan", "--n", "8"], "not supported"),
        (["scan", "--n", "3", "--checks", "bogus"], "unknown check"),
        (["scan", "--n", "3", "--workers", "0"], "unrecognized arguments"),
        (["scan", "--n", "3", "--workers", "-3"], "unrecognized arguments"),
    ]
    for argv, fragment in cases:
        code, _ = run(argv)
        err = capsys.readouterr().err
        assert code == 1, argv
        assert err.startswith("error:") and fragment in err, argv
        assert err.count("\n") == 1, argv


def test_too_deep_a_recursion_is_an_input_error_not_a_bug(capsys):
    # the Grothendieck and KL recursions nest deeper than Python allows on
    # S_50; RecursionError is a RuntimeError, which alone would exit 4
    up = ",".join(map(str, range(1, 51)))
    down = ",".join(map(str, range(50, 0, -1)))
    for argv in (["groth", "--u", up], ["analyze", "--v", up, "--w", down, "--with-kl"]):
        code, _ = run(argv)
        err = capsys.readouterr().err
        assert code == 1, argv
        assert err.startswith("error: input too large") and err.count("\n") == 1, argv


def test_companion_beyond_s9_with_moved_boxes_runs_both_routes():
    # n = 10 with nonzero moves: the companion is built, not searched for
    code, text = run(
        [
            "analyze",
            "--v", "10,9,7,5,3,1,4,8,6,2",
            "--w", "10,9,8,7,4,2,5,6,3,1",
            "--method", "both",
        ]
    )
    assert code == 0
    report = kv(text)
    assert report["formula_reg"] == report["groebner_reg"] == "1"
    assert report["n_vars"] == "12"


def test_exit_4_when_the_companion_fails_its_invariants(monkeypatch, capsys):
    # without its essential set w imposes no rank, and the largest rank
    # function left is that of w0, whose length is not that of w
    monkeypatch.setattr(schubreg.shapes, "essential_set", lambda w: frozenset())
    code, _ = run(["analyze", "--v", "1234", "--w", "2143"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: internal invariant failed:") and err.count("\n") == 1
    assert "length" in err


E4 = Permutation((1, 2, 3, 4))


def _hilbert_numerator_times(factor):
    def patch(monkeypatch):
        real = schubreg.gb.hilbert_numerator
        monkeypatch.setattr(schubreg.gb, "hilbert_numerator", lambda m, n: real(m, n) * factor)

    return patch


def _wrong_kl_column_of_e4(monkeypatch):
    # P_{e,e} = 1 + q, so P_{e,1243} = 1 + q breaks 2 deg P <= l(w) - l(e) - 1
    monkeypatch.setitem(schubreg.reg._KL, E4, ({E4: (1, 1)}, ()))


def _diagram_with_a_box_off_the_grid(monkeypatch):
    real = schubreg.shapes.diagram
    monkeypatch.setattr(schubreg.shapes, "diagram", lambda u: list(real(u)) + [(u.n + 1, u.n + 1)])


def _ranks_off_by_n(monkeypatch):
    real = schubreg.shapes.sw_rank
    monkeypatch.setattr(schubreg.shapes, "sw_rank", lambda u, i, j: real(u, i, j) + u.n)


def _essential_set_of_two_crossed_boxes(monkeypatch):
    monkeypatch.setattr(schubreg.shapes, "essential_set", lambda w: frozenset({(2, 3), (3, 2)}))


def _chart_generator_off_its_grading(monkeypatch):
    # x^2 - x for the chart's last variable x is homogeneous in no grading
    real = schubreg.gb.kl_generators

    def skewed(v, w):
        chart = real(v, w)
        x = 1 << SHIFT * (chart.ring.nvars - 1)
        return Ideal(chart.ring, chart.terms + (((2 * x, 1), (x, -1)),), chart.grading)

    monkeypatch.setattr(schubreg.gb, "kl_generators", skewed)


@pytest.mark.parametrize(
    "patch, argv, compute, message",
    [
        (
            _hilbert_numerator_times(0),
            ["--w", "3412"],
            lambda w: regularity(E4, w),
            "chart ideal defines the empty scheme; conventions broken",
        ),
        (
            _hilbert_numerator_times(2),
            ["--w", "3412"],
            lambda w: regularity(E4, w),
            "h-polynomial does not start at 1 for (1234, 3412)",
        ),
        (
            _wrong_kl_column_of_e4,
            ["--w", "1243", "--with-kl"],
            lambda w: schubreg.reg.kl_polynomial(E4, w),
            "KL recursion broke its bounds at (1234, 1243)",
        ),
        (
            _diagram_with_a_box_off_the_grid,
            ["--w", "2143"],
            lambda w: schubreg.shapes.regularity_formula(E4, w),
            "antidiagonal 10 overflows the grid while pushing",
        ),
        (
            _ranks_off_by_n,
            ["--w", "2143"],
            lambda w: schubreg.shapes.companion_permutation(E4, w),
            "essential box (3, 2) of 2143 moves to (7, -2) with rank 0 for v = 1234",
        ),
        (
            _essential_set_of_two_crossed_boxes,
            ["--w", "1324"],
            lambda w: schubreg.shapes.companion_permutation(E4, w),
            "the ranks imposed by (1234, 1324) are not a permutation's",
        ),
        (
            _chart_generator_off_its_grading,
            ["--w", "3412"],
            lambda w: regularity(E4, w),
            "a generator is not homogeneous in the ideal's grading",
        ),
    ],
)
def test_exit_4_when_a_guard_trips(monkeypatch, capsys, patch, argv, compute, message):
    # each guard raises RuntimeError in the library and exits 4 from analyze
    patch(monkeypatch)
    with pytest.raises(RuntimeError) as raised:
        compute(Permutation.from_string(argv[1]))
    assert str(raised.value).startswith(message)
    code, text = run(["analyze", "--v", "1234"] + argv)
    err = capsys.readouterr().err
    assert code == 4 and text == ""
    assert err.startswith("error: internal invariant failed: " + message)
    assert err.count("\n") == 1


def test_exit_4_when_an_internal_invariant_fails(monkeypatch, capsys):
    def broken(v, w, *args, **kwargs):
        raise RuntimeError("height mismatch for (%s, %s): 3 vs 4" % (v, w))

    monkeypatch.setattr(schubreg.reg, "hilbert_data", broken)
    code, _ = run(["analyze", "--v", "1234", "--w", "3412"])
    err = capsys.readouterr().err
    assert code == 4
    assert err == "error: internal invariant failed: height mismatch for (1234, 3412): 3 vs 4\n"


def test_exit_4_when_the_inverse_chart_disagrees(monkeypatch, capsys):
    real = cli.hilbert_data

    def skewed(v, w):
        data = real(v, w)
        if (v, w) == (Permutation((1, 2, 3, 4)), Permutation((1, 4, 2, 3))):
            data.H = data.H + data.H
        return data

    monkeypatch.setattr(cli, "hilbert_data", skewed)
    code, text = run(["verify", "--v", "1234", "--w", "1342"])
    err = capsys.readouterr().err
    assert code == 4 and text == ""
    assert err.startswith("error: internal invariant failed: the chart (1234, 1423)")
    assert err.count("\n") == 1


def test_exit_4_when_the_homogeneity_flag_disagrees(monkeypatch, capsys):
    # the chart of (12435, 35124) is not homogeneous and has no removable 1;
    # its inverse (12435, 34152) has 8 generators against its 12, so the
    # cone comes from the inverse and the pair's own flag from an exact
    # test.  Here the generator test lies
    v, w = Permutation.from_string("12435"), Permutation.from_string("35124")
    real = schubreg.reg.kl_generators

    def lying(a, b):
        ideal = real(a, b)
        if (a, b) == (v, w):
            ideal.homogeneous_by_generators = lambda: True
        return ideal

    monkeypatch.setattr(schubreg.reg, "kl_generators", lying)
    code, text = run(["verify", "--v", "12435", "--w", "35124"])
    err = capsys.readouterr().err
    assert code == 4 and text == ""
    assert err == (
        "error: internal invariant failed: the chart (12435, 35124) has homogeneous = False,"
        " the report says True\n"
    )
    # the honest tests decide the flag
    monkeypatch.undo()
    schubreg.reg._HOMOGENEOUS.clear()
    assert run(["verify", "--v", "12435", "--w", "35124"])[0] == 0
    assert schubreg.reg._HOMOGENEOUS[(v, w)] is False


def test_exit_4_when_the_pattern_is_wrong(monkeypatch, capsys):
    # (12345, 14523) reads H and the flag off its pattern (1234, 3412); a
    # pattern that deleted every position instead gives the point's
    v, w = Permutation.from_string("12345"), Permutation.from_string("14523")
    point = Permutation.identity(1)
    real = schubreg.reg._pattern
    assert real(v, w) == (Permutation.identity(4), Permutation.from_string("3412"))
    monkeypatch.setattr(
        schubreg.reg, "_pattern", lambda a, b: (point, point) if (a, b) == (v, w) else real(a, b)
    )
    code, text = run(["verify", "--v", "12345", "--w", "14523"])
    err = capsys.readouterr().err
    assert code == 4 and text == ""
    assert err == (
        "error: internal invariant failed: the chart (12345, 14523) has homogeneous = False,"
        " the report says True\n"
    )


def test_exit_4_when_the_report_shape_disagrees(monkeypatch, capsys):
    # the shape check runs as a real check, also under python -O
    real = schubreg.gb.chart_shape

    def skewed(v, w):
        dim, height, n_vars = real(v, w)
        return dim, height, n_vars + 1

    monkeypatch.setattr(schubreg.gb, "chart_shape", skewed)
    code, text = run(["analyze", "--v", "1234", "--w", "3412"])
    err = capsys.readouterr().err
    assert code == 4 and text == ""
    assert err.startswith("error: internal invariant failed: shape mismatch for (1234, 3412)")
    assert err.count("\n") == 1


def test_exit_4_when_the_pushed_diagram_is_not_a_young_diagram(monkeypatch, capsys):
    # the tableau route pushes only covexillary diagrams, so a bad push is a bug
    real = schubreg.shapes.diagram
    monkeypatch.setattr(schubreg.shapes, "diagram", lambda u: real(u) | {(1, 1)})
    code, text = run(["analyze", "--v", GOLDEN[0], "--w", GOLDEN[1]])
    err = capsys.readouterr().err
    assert code == 4 and text == ""
    assert err.startswith(
        "error: internal invariant failed: pushed boxes do not form an anchored Young diagram"
    )
    assert err.count("\n") == 1


def test_exit_4_when_the_companion_h_division_is_inexact(monkeypatch, capsys):
    monkeypatch.setattr(schubreg.reg, "groth_spec_1mq", lambda u: UniPoly([1, 1]))
    code, text = run(["analyze", "--v", "1234567", "--w", GOLDEN[1], "--ps-order", "2"])
    err = capsys.readouterr().err
    assert code == 4 and text == ""
    assert err.startswith("error: internal invariant failed: G_{w0 kappa}(1-q) of (1234567, 7314562)")
    assert err.count("\n") == 1


def test_budget_flag_and_environment(capsys, monkeypatch):
    slow = ["analyze", "--v", GOLDEN[0], "--w", GOLDEN[1], "--method", "groebner"]
    code, _ = run(slow + ["--budget-ms", "0"])
    assert code == 1
    assert "budget" in capsys.readouterr().err
    # --budget-ms is the only way to set a budget: the environment sets
    # none, so the chart, still cold, is computed in full
    monkeypatch.setenv("SCHUBREG_BUDGET_MS", "0")
    code, text = run(slow)
    assert code == 0 and kv(text)["reg"] == "2"


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--n", "4", "--budget-ms", "-5"],
        ["analyze", "--v", "1234", "--w", "4231", "--budget-ms", "-5"],
        ["verify", "--v", "1234", "--w", "4231", "--budget-ms", "-5"],
    ],
)
def test_negative_budget_flag_exits_1(argv, capsys):
    code, text = run(argv)
    err = capsys.readouterr().err
    assert code == 1 and text == ""
    assert err == "error: --budget-ms: a time budget must be nonnegative, got -5 ms\n"


def test_negative_ps_order_is_rejected_before_any_work(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the report was computed")

    monkeypatch.setattr(cli, "regularity", no_work)
    code, _ = run(["analyze", "--v", "123456", "--w", "645123", "--ps-order", "-1"])
    assert code == 1 and "must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["analyze", "--with-kl"], ["verify"]])
def test_budget_bounds_the_kl_work(command, capsys):
    # the KL column of the S7 longest element takes about 0.4 s, while the
    # chart work before it is instant; the budget must stop the KL recursion
    # itself, not only the steps after it
    argv = command + ["--v", "1234567", "--w", "7654321", "--budget-ms", "50"]
    start = time.monotonic()
    code, _ = run(argv)
    elapsed = time.monotonic() - start
    err = capsys.readouterr().err
    assert code == 1 and elapsed < 1.0, (code, elapsed)
    assert err == "error: kl polynomial ran past the time budget\n"


def test_budget_bounds_the_power_series(capsys):
    argv = ["analyze", "--v", "1234", "--w", "4231", "--ps-order", "1000000"]
    start = time.monotonic()
    code, text = run(argv + ["--budget-ms", "100"])
    elapsed = time.monotonic() - start
    err = capsys.readouterr().err
    assert code == 1 and text == "" and elapsed < 1.0, (code, elapsed)
    assert err.startswith("error:") and err.count("\n") == 1
    assert "ran past the time budget" in err


def test_scan_text_output():
    code, text = run(["scan", "--n", "3", "--checks", "h-nonneg"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0].split() == ["scan", "n=3", "restrict=all", "pairs=19"]
    assert lines[1].split() == ["maxReg", "0"]
    # Regularity 0 everywhere, so every pair is an argmax.
    assert sum(1 for line in lines if line.startswith("argmax")) == 19
    tally = [line for line in lines if line.startswith("check h-nonneg")]
    assert len(tally) == 1
    assert tally[0].split()[2:] == ["pass=19", "fail=0", "not-checkable=0"]
    # a check named twice runs and prints once
    assert run(["scan", "--n", "3", "--checks", "h-nonneg,h-nonneg"]) == (code, text)


def test_scan_json_payload():
    code, text = run(["scan", "--n", "4", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert sorted(payload) == [
        "argmax",
        "check_counts",
        "failures",
        "max_is_lower_bound",
        "max_reg",
        "n",
        "pairs",
        "restrict",
    ]
    assert payload["n"] == 4 and payload["restrict"] == "all"
    assert payload["pairs"] == 213 and payload["max_reg"] == 1
    assert payload["max_is_lower_bound"] is False
    assert payload["failures"] == []
    assert {"v": "1234", "w": "4231"} in payload["argmax"]
    code, text = run(["scan", "--n", "4", "--covexillary-only", "--json"])
    payload = json.loads(text)
    assert code == 0 and payload["pairs"] == 199
    assert payload["restrict"] == "covexillary-only" and payload["max_reg"] == 1


def test_scan_cache_file_roundtrip(tmp_path):
    cache = tmp_path / "s3.jsonl"
    code, first = run(["scan", "--n", "3", "--cache", str(cache)])
    assert code == 0
    blob = cache.read_bytes()
    assert len(blob.splitlines()) == 19
    code, second = run(["scan", "--n", "3", "--cache", str(cache)])
    assert code == 0
    assert second == first
    assert cache.read_bytes() == blob


def test_scan_cache_with_undecodable_bytes_is_compacted(tmp_path):
    cache = tmp_path / "s3.jsonl"
    code, clean = run(["scan", "--n", "3", "--cache", str(cache)])
    assert code == 0
    blob = cache.read_bytes()
    with open(cache, "ab") as handle:
        handle.write(b"\xff\xfe garbage\n")
    # the line is unreadable: the scan's summary stands and compaction drops it
    assert run(["scan", "--n", "3", "--cache", str(cache)]) == (0, clean)
    assert cache.read_bytes() == blob


def test_scan_cache_os_errors_exit_1(tmp_path, capsys):
    for cache in (tmp_path, tmp_path / "missing" / "s3.jsonl"):
        code, text = run(["scan", "--n", "3", "--cache", str(cache)])
        err = capsys.readouterr().err
        assert code == 1 and text == "", cache
        assert err.startswith("error: --cache: ") and str(cache) in err, cache
        assert err.count("\n") == 1, cache
    assert not (tmp_path / "missing").exists()


def test_scan_cache_serves_only_the_checks_it_ran(tmp_path):
    cache = str(tmp_path / "s4.jsonl")
    assert run(["scan", "--n", "4", "--cache", cache])[0] == 0
    code, text = run(["scan", "--n", "4", "--cache", cache, "--checks", "all"])
    assert code == 0
    tally = [line for line in text.splitlines() if line.startswith("check h-nonneg")]
    assert tally[0].split()[2:] == ["pass=213", "fail=0", "not-checkable=0"]


def test_an_over_budget_scan_reports_a_lower_bound(monkeypatch):
    real = cli.max_reg_scan
    results = []

    def keeping(n, **kwargs):
        results.append(real(n, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "max_reg_scan", keeping)
    argv = ["scan", "--n", "4", "--checks", "all", "--budget-ms", "0"]
    code, text = run(argv)
    assert code == 0
    over = sum(r.error is not None for r in results[0].records)
    assert over == 190  # a cold process, as the memos are cleared
    assert kv(text)["maxReg"] == ">= %s (lower bound: %d pairs over budget)" % (
        results[0].max_reg,
        over,
    )
    code, text = run(argv + ["--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["max_is_lower_bound"] is True
    complete = sum(r.error is None for r in results[1].records)
    assert 0 < complete < payload["pairs"]
    assert len(payload["check_counts"]) == 7
    for name, tally in payload["check_counts"].items():
        assert sum(tally.values()) == complete, name


def test_groth_text_report():
    code, text = run(["groth", "--u", "312", "--poly"])
    assert code == 0
    report = kv(text)
    assert report["u"] == "312 (n=3)"
    assert (report["length"], report["degree"], report["min_degree"]) == ("2", "2", "2")
    assert report["vexillary"] == "yes" and report["formula_degree"] == "2"
    assert report["spec_1mq"] == "1 - 2*q + q^2"
    assert report["poly"] == "x_1^2"


def test_groth_json_on_non_vexillary_input():
    code, text = run(["groth", "--u", "21543", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert sorted(payload) == [
        "degree",
        "formula_degree",
        "length",
        "min_degree",
        "n",
        "spec_1mq_coeffs",
        "u",
        "vexillary",
    ]
    assert payload["vexillary"] is False and payload["formula_degree"] is None
    assert (payload["length"], payload["min_degree"], payload["degree"]) == (4, 4, 8)
    assert payload["spec_1mq_coeffs"] == [1, -1, 0, -7, 14, -7, 0, -1, 1]
    code, text = run(["groth", "--u", "21543", "--json", "--poly"])
    assert json.loads(text)["poly"] == (
        "x_1^3*x_2^2*x_3^2*x_4 - x_1^3*x_2^2*x_3^2 - 2*x_1^3*x_2^2*x_3*x_4"
        " - 2*x_1^3*x_2*x_3^2*x_4 - 2*x_1^2*x_2^2*x_3^2*x_4 + 2*x_1^3*x_2^2*x_3"
        " + x_1^3*x_2^2*x_4 + 2*x_1^3*x_2*x_3^2 + 4*x_1^3*x_2*x_3*x_4"
        " + x_1^3*x_3^2*x_4 + 2*x_1^2*x_2^2*x_3^2 + 4*x_1^2*x_2^2*x_3*x_4"
        " + 4*x_1^2*x_2*x_3^2*x_4 + x_1*x_2^2*x_3^2*x_4 - x_1^3*x_2^2"
        " - 3*x_1^3*x_2*x_3 - 2*x_1^3*x_2*x_4 - x_1^3*x_3^2 - 2*x_1^3*x_3*x_4"
        " - 3*x_1^2*x_2^2*x_3 - 2*x_1^2*x_2^2*x_4 - 3*x_1^2*x_2*x_3^2"
        " - 4*x_1^2*x_2*x_3*x_4 - 2*x_1^2*x_3^2*x_4 - x_1*x_2^2*x_3^2"
        " - 2*x_1*x_2^2*x_3*x_4 - 2*x_1*x_2*x_3^2*x_4 + x_1^3*x_2 + x_1^3*x_3"
        " + x_1^3*x_4 + x_1^2*x_2^2 + 2*x_1^2*x_2*x_3 + x_1^2*x_2*x_4"
        " + x_1^2*x_3^2 + x_1^2*x_3*x_4 + x_1*x_2^2*x_3 + x_1*x_2^2*x_4"
        " + x_1*x_2*x_3^2 + x_1*x_2*x_3*x_4 + x_1*x_3^2*x_4"
    )


def test_groth_poly_json_is_pinned():
    pinned = {
        "1342": '{"degree": 3, "formula_degree": 3, "length": 2, "min_degree": 2, "n": 4,'
        ' "poly": "-2*x_1*x_2*x_3 + x_1*x_2 + x_1*x_3 + x_2*x_3",'
        ' "spec_1mq_coeffs": [1, 0, -3, 2], "u": "1342", "vexillary": true}',
        "1432": '{"degree": 5, "formula_degree": 5, "length": 3, "min_degree": 3, "n": 4,'
        ' "poly": "x_1^2*x_2^2*x_3 - x_1^2*x_2^2 - 2*x_1^2*x_2*x_3 - 2*x_1*x_2^2*x_3'
        ' + x_1^2*x_2 + x_1^2*x_3 + x_1*x_2^2 + x_1*x_2*x_3 + x_2^2*x_3",'
        ' "spec_1mq_coeffs": [1, 0, -5, 5, 0, -1], "u": "1432", "vexillary": true}',
    }
    for u, line in pinned.items():
        assert run(["groth", "--u", u, "--poly", "--json"]) == (0, line + "\n"), u


def test_verify_lists_every_check():
    code, text = run(["verify", "--v", GOLDEN[0], "--w", GOLDEN[1]])
    assert code == 0
    report = kv(text)
    assert report["reg"] == "2" and report["kl_degree"] == "2"
    for name in (
        "deg-bound",
        "dual-path",
        "h-nonneg",
        "h-semicontinuity",
        "kl-degree",
        "reg-le-deg-p",
        "reg-semicontinuity",
        "finalps-identity",
        "inverse-chart",
    ):
        assert "check %s pass" % name in " ".join(text.split()), name


def test_verify_json_on_non_covexillary_pair():
    code, text = run(["verify", "--v", "1234", "--w", "3412", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert sorted(payload) == sorted(
        ANALYZE_KEYS + ["failures", "finalps_identity", "inverse_chart"]
    )
    assert payload["finalps_identity"] is None  # needs the covexillary route
    assert payload["inverse_chart"] is True
    assert payload["failures"] == []
    flags = payload["conjecture_flags"]
    assert flags["h-nonneg"] == "pass" and flags["deg-bound"] == "pass"
    for name in ("dual-path", "kl-degree", "reg-le-deg-p", "reg-semicontinuity"):
        assert flags[name] == "not-checkable"


def test_export_m2_writes_a_deterministic_script(tmp_path, capsys):
    path = tmp_path / "golden.m2"
    code, text = run(["export-m2", "--v", GOLDEN[0], "--w", GOLDEN[1], "-o", str(path)])
    assert code == 0
    assert text.startswith("wrote %s (" % path)
    body = path.read_text()
    for needle in ("tangentCone", "hilbertSeries", "regularity", "z_(5,1)"):
        assert needle in body, needle
    assert "z_5_1" not in body  # would parse as a double subscript in M2
    again = tmp_path / "again.m2"
    run(["export-m2", "--v", GOLDEN[0], "--w", GOLDEN[1], "-o", str(again)])
    assert again.read_text() == body
    # A trivial chart still yields a script, with the expected constants.
    triv = tmp_path / "triv.m2"
    code, _ = run(["export-m2", "--v", "321", "--w", "321", "-o", str(triv)])
    assert code == 0
    assert "the chart ideal is zero" in triv.read_text()
    code, _ = run(["export-m2", "--v", "123", "--w", "321", "-o", str(tmp_path / "no" / "x.m2")])
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


def test_export_m2_script_is_pinned(tmp_path):
    path = tmp_path / "3412.m2"
    assert run(["export-m2", "--v", "1234", "--w", "3412", "-o", str(path)]) == (
        0,
        "wrote %s (18 lines)\n" % path,
    )
    assert path.read_text() == "\n".join([
        "-- schubreg %s cross-check script" % schubreg.__version__,
        "-- chart pair: v=1234 w=3412",
        "-- expected: dim 4, codim 2 in 6 variables",
        "R = QQ[z_(1,1), z_(1,2), z_(1,3), z_(2,1), z_(2,2), z_(3,1)];",
        "I = ideal(",
        "  z_(1,3)*z_(2,2)*z_(3,1) - z_(1,2)*z_(3,1) - z_(1,3)*z_(2,1) + z_(1,1),",
        "  z_(1,1)",
        ");",
        "C = tangentCone I;",
        "hs = hilbertSeries(comodule C, Reduce => true);",
        'print("n_vars=" | toString numgens R);',
        'print("dim=" | toString dim C);',
        'print("codim=" | toString codim C);',
        'print("multiplicity=" | toString degree C);',
        'print("h_polynomial=" | toString numerator hs);',
        "F = res comodule C;",
        'print("betti=" | toString betti F);',
        'print("reg=" | toString regularity comodule C);',
        "",
    ])


def test_exit_2_when_routes_disagree(monkeypatch, capsys):
    v = Permutation((1, 2, 3))
    w = Permutation((3, 2, 1))
    report = regularity(v, w, method="groebner")
    report.discrepant = True
    report.formula_reg = 99
    monkeypatch.setattr(cli, "regularity", lambda *a, **k: report)
    code, text = run(["analyze", "--v", "123", "--w", "321", "--method", "both"])
    assert code == 2
    assert kv(text)["reg"] == "DISCREPANT"
    code, _ = run(["verify", "--v", "123", "--w", "321"])
    assert code == 2


def test_exit_3_when_a_scan_falsifies_a_check(monkeypatch):
    real = cli.max_reg_scan

    def poisoned(n, **kwargs):
        result = real(n, **kwargs)
        return dataclasses.replace(
            result, conjecture_failures=(("123", "321", "h-nonneg"),)
        )

    monkeypatch.setattr(cli, "max_reg_scan", poisoned)
    code, text = run(["scan", "--n", "3"])
    assert code == 3
    falsified = [line for line in text.splitlines() if line.startswith("FALSIFIED")]
    assert len(falsified) == 1
    assert "h-nonneg at v=123 w=321" in falsified[0]
    assert "schubreg verify --v 123 --w 321" in falsified[0]
    code, text = run(["scan", "--n", "3", "--json"])
    assert code == 3
    assert json.loads(text)["failures"] == [{"check": "h-nonneg", "v": "123", "w": "321"}]


def test_exit_3_when_the_finalps_identity_fails(monkeypatch):
    # (1234, 1342) is covexillary, so verify runs the finalps identity
    monkeypatch.setattr(cli, "finalps_check", lambda v, w: False)
    code, text = run(["verify", "--v", "1234", "--w", "1342"])
    assert code == 3
    assert "check finalps-identity fail" in " ".join(text.split())
    code, text = run(["verify", "--v", "1234", "--w", "1342", "--json"])
    assert code == 3
    payload = json.loads(text)
    assert payload["failures"] == ["finalps-identity"]
    assert payload["finalps_identity"] is False


def test_entry_defaults_to_stdout(capsys):
    code = entry(["groth", "--u", "21"])
    assert code == 0
    assert "degree" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--v", "12345", "--w", "34512", "--ps-order", "200000"],
        ["scan", "--n", "4"],
    ],
)
def test_a_closed_stdout_is_one_error_line(argv):
    # the pipe's read end is closed before the child starts, so its first
    # write to stdout fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "schubreg.cli", *argv],
            cwd=ROOT,
            env=child_env(),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), done.stderr


def test_every_export_resolves():
    import schubreg

    assert all(hasattr(schubreg, name) for name in schubreg.__all__)
    namespace = {}
    exec("from schubreg import *", namespace)
    assert set(schubreg.__all__) <= set(namespace)


def test_version_flag_uses_argparse_exit(capsys):
    with pytest.raises(SystemExit) as info:
        entry(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("schubreg ")


def test_verify_checks_the_inverse_chart_of_a_tail_pair_in_budget():
    # its own chart's cone stage took 441 s through an explicit t
    code, text = run(["verify", "--v", "1234567", "--w", "6741523", "--budget-ms", "5000"])
    assert code == 0
    assert "check inverse-chart pass" in text.splitlines()
