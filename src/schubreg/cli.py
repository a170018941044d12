"""Command-line surface.

Exit codes separate operational failures from mathematical ones: 0 success,
1 usage or resource errors (an input too large for Python's recursion limit
and a closed standard output among them), 2 the two regularity routes
disagreed, 3 a falsifiable conjecture check failed, 4 an internal invariant
failed (a bug in the pipeline, never a property of the input).  A CI wrapper
can therefore tell a bug from a discovery.  Every failure prints one
`error:` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ._version import __version__
from .gb import ResourceBudgetExceeded, hilbert_data, require_budget, time_budget
from .groth import groth_degree, groth_min_degree, groth_spec_1mq, grothendieck, vexillary_degree_formula
from .m2 import write_m2_script
from .perm import Permutation, is_covexillary, is_vexillary, length
from .reg import (
    ALL_CHECKS,
    falsified,
    finalps_check,
    max_reg_scan,
    ps_series,
    regularity,
    select_checks,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="schubreg", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version="schubreg %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="regularity report for one chart pair")
    analyze.add_argument("--v", required=True, help="bottom permutation (chart point)")
    analyze.add_argument("--w", required=True, help="top permutation (Schubert variety)")
    analyze.add_argument(
        "--method", default="auto", choices=("auto", "formula", "groebner", "both")
    )
    analyze.add_argument("--json", action="store_true")
    analyze.add_argument(
        "--ps-order",
        type=int,
        default=None,
        help="also print the Hilbert function up to this degree (runs the pipeline)",
    )
    analyze.add_argument("--with-kl", action="store_true", help="include deg P_{v,w}")
    analyze.add_argument("--budget-ms", type=int, default=None)

    scan = sub.add_parser("scan", help="max regularity over all Bruhat pairs of S_n")
    scan.add_argument("--n", type=int, required=True)
    scan.add_argument("--covexillary-only", action="store_true")
    scan.add_argument(
        "--checks",
        default="none",
        help="comma list of %s, or all/none" % ", ".join(ALL_CHECKS),
    )
    scan.add_argument("--cache", default=None, help="JSON-lines cache file (resumable)")
    scan.add_argument("--budget-ms", type=int, default=None)
    scan.add_argument("--json", action="store_true")

    groth = sub.add_parser("groth", help="Grothendieck polynomial facts for one u")
    groth.add_argument("--u", required=True)
    groth.add_argument("--poly", action="store_true", help="print the full polynomial")
    groth.add_argument("--json", action="store_true")

    verify = sub.add_parser(
        "verify", help="run every applicable cross-check on one chart pair"
    )
    verify.add_argument("--v", required=True)
    verify.add_argument("--w", required=True)
    verify.add_argument("--budget-ms", type=int, default=None)
    verify.add_argument("--json", action="store_true")

    export = sub.add_parser("export-m2", help="write a Macaulay2 cross-check script")
    export.add_argument("--v", required=True)
    export.add_argument("--w", required=True)
    export.add_argument("-o", "--output", required=True)
    return parser


def _parse_perm(text: str, flag: str) -> Permutation:
    try:
        return Permutation.from_string(text)
    except ValueError as exc:
        raise _UsageError("%s: %s" % (flag, exc)) from exc


def _budget(args) -> int | None:
    """--budget-ms (None if absent); a negative budget exits 1."""
    try:
        require_budget(args.budget_ms)
    except ValueError as exc:
        raise _UsageError("--budget-ms: %s" % exc) from exc
    return args.budget_ms


def _parse_checks(text: str):
    text = text.strip()
    if text in ("", "none"):
        return ()
    names = "all" if text == "all" else [part.strip() for part in text.split(",") if part.strip()]
    try:
        return select_checks(names)
    except ValueError as exc:
        raise _UsageError("--checks: %s" % exc) from exc


def _kv(out, key, value):
    out.write("%-16s %s\n" % (key, value))


def _print_report(out, report, full: bool):
    """The report lines that `analyze` and `verify` share; `full` adds the
    method, the labels and the chart's shape, as `analyze` prints them."""
    _kv(out, "pair", "v=%s w=%s (n=%d)" % (report.v, report.w, report.v.n))
    if full:
        _kv(out, "method", report.method)
    _kv(out, "reg", "DISCREPANT" if report.discrepant else report.reg)
    if report.formula_reg is not None:
        _kv(out, "formula_reg", report.formula_reg)
    if report.groebner_reg is not None:
        _kv(out, "groebner_reg", report.groebner_reg)
    if full:
        _kv(out, "cm_status", report.cm_status)
        _kv(out, "covexillary", "yes" if report.covexillary else "no")
        _kv(out, "dim", report.dim)
        _kv(out, "height", report.height)
        _kv(out, "n_vars", report.n_vars)
        if report.homogeneous_ideal is not None:
            _kv(out, "homogeneous", "yes" if report.homogeneous_ideal else "no")
    if report.H is not None:
        _kv(out, "H", report.H)
    if report.kl_degree is not None:
        _kv(out, "kl_degree", report.kl_degree)


def _cmd_analyze(args, out) -> int:
    v = _parse_perm(args.v, "--v")
    w = _parse_perm(args.w, "--w")
    if args.ps_order is not None and args.ps_order < 0:
        raise _UsageError("--ps-order: must be nonnegative")
    ps_payload = None
    with time_budget(_budget(args)):
        report = regularity(v, w, method=args.method, with_kl=args.with_kl)
        if args.ps_order is not None:
            coeffs, multiplicity = ps_series(v, w, args.ps_order)
            ps_payload = {"ps_coeffs": coeffs, "multiplicity": multiplicity}
    if args.json:
        payload = report.to_json()
        if ps_payload is not None:
            payload.update(ps_payload)
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        _print_report(out, report, full=True)
        if ps_payload is not None:
            _kv(out, "ps[0..%d]" % args.ps_order, " ".join(map(str, ps_payload["ps_coeffs"])))
            _kv(out, "multiplicity", ps_payload["multiplicity"])
    return 2 if report.discrepant else 0


def _cmd_scan(args, out) -> int:
    if args.n < 2:
        raise _UsageError("--n: need n >= 2")
    if args.n > 7:
        raise _UsageError("--n: scans above S_7 are not supported")
    check_names = _parse_checks(args.checks)
    restrict = "covexillary-only" if args.covexillary_only else "all"
    try:
        result = max_reg_scan(
            args.n,
            restrict=restrict,
            checks=check_names,
            budget_ms=_budget(args),
            cache_path=args.cache,
        )
    except OSError as exc:
        raise _UsageError("--cache: %s" % exc) from exc
    if args.json:
        payload = {
            "n": result.n,
            "restrict": result.restrict,
            "pairs": result.pairs,
            "max_reg": result.max_reg,
            "max_is_lower_bound": result.partial,
            "argmax": [{"v": v, "w": w} for (v, w) in result.argmax],
            "check_counts": result.check_counts,
            "failures": [
                {"v": v, "w": w, "check": name}
                for (v, w, name) in result.conjecture_failures
            ],
        }
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        _kv(out, "scan", "n=%d restrict=%s pairs=%d" % (result.n, result.restrict, result.pairs))
        if result.partial:
            _kv(out, "maxReg", ">= %s (lower bound: %d pairs over budget)" % (result.max_reg, result.errors))
        else:
            _kv(out, "maxReg", result.max_reg)
        for (v, w) in result.argmax:
            _kv(out, "argmax", "v=%s w=%s" % (v, w))
        for name, tally in result.check_counts.items():
            _kv(
                out,
                "check %s" % name,
                "pass=%d fail=%d not-checkable=%d"
                % (tally["pass"], tally["fail"], tally["not-checkable"]),
            )
        for (v, w, name) in result.conjecture_failures:
            _kv(
                out,
                "FALSIFIED",
                "%s at v=%s w=%s (reproduce: schubreg verify --v %s --w %s)"
                % (name, v, w, v, w),
            )
    return 3 if result.conjecture_failures else 0


def _cmd_groth(args, out) -> int:
    u = _parse_perm(args.u, "--u")
    vex = is_vexillary(u)
    spec = groth_spec_1mq(u)
    payload = {
        "u": str(u),
        "n": u.n,
        "length": length(u),
        "degree": groth_degree(u),
        "min_degree": groth_min_degree(u),
        "vexillary": vex,
        "formula_degree": vexillary_degree_formula(u) if vex else None,
        "spec_1mq_coeffs": list(spec.coeffs),
    }
    if args.poly:
        payload["poly"] = str(grothendieck(u))
    if args.json:
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        _kv(out, "u", "%s (n=%d)" % (u, u.n))
        _kv(out, "length", payload["length"])
        _kv(out, "degree", payload["degree"])
        _kv(out, "min_degree", payload["min_degree"])
        _kv(out, "vexillary", "yes" if vex else "no")
        if vex:
            _kv(out, "formula_degree", payload["formula_degree"])
        _kv(out, "spec_1mq", spec)
        if args.poly:
            _kv(out, "poly", payload["poly"])
    return 0


def _check_inverse_chart(v: Permutation, w: Permutation, report):
    """Compute the charts of (v, w) and (v^-1, w^-1) afresh, outside the
    H and flag memos, and compare both H and the first chart's homogeneity
    with the report's.

    The report may have read H off the pair's pattern (`reg._pattern`) or
    off the inverse chart, and its flag off the pattern, the `not_a_cone`
    certificate or the basis of the orbit's cone source, which may be the
    pair's transpose.  The chart ideals differ, so this checks the
    Groebner pipeline against the symmetry and the removable-1 lemma.  A
    mismatch is an internal invariant failure.
    """
    own = hilbert_data(v, w)
    if own.homogeneous != report.homogeneous_ideal:
        raise RuntimeError(
            "the chart (%s, %s) has homogeneous = %s, the report says %s"
            % (v, w, own.homogeneous, report.homogeneous_ideal)
        )
    for data in (own, hilbert_data(v.inverse(), w.inverse())):
        if data.H != report.H:
            raise RuntimeError(
                "the chart (%s, %s) has H = %s, the report says %s"
                % (data.v, data.w, data.H, report.H)
            )


def _cmd_verify(args, out) -> int:
    v = _parse_perm(args.v, "--v")
    w = _parse_perm(args.w, "--w")
    cov = is_covexillary(w)
    with time_budget(_budget(args)):
        report = regularity(
            v, w, method="both" if cov else "groebner", with_kl=cov, checks="all"
        )
        finalps = finalps_check(v, w) if cov else None
        _check_inverse_chart(v, w, report)
    failures = falsified(report.conjecture_flags)
    if finalps is False:
        failures.append("finalps-identity")
    if args.json:
        payload = report.to_json()
        payload["finalps_identity"] = finalps
        payload["inverse_chart"] = True
        payload["failures"] = failures
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        _print_report(out, report, full=False)
        for name, value in sorted(report.conjecture_flags.items()):
            _kv(out, "check %s" % name, value)
        if finalps is not None:
            _kv(out, "check finalps-identity", "pass" if finalps else "fail")
        _kv(out, "check inverse-chart", "pass")
    if report.discrepant:
        return 2
    return 3 if failures else 0


def _cmd_export_m2(args, out) -> int:
    v = _parse_perm(args.v, "--v")
    w = _parse_perm(args.w, "--w")
    try:
        text = write_m2_script(v, w, args.output)
    except OSError as exc:
        raise _UsageError("-o: cannot write %s (%s)" % (args.output, exc)) from exc
    out.write("wrote %s (%d lines)\n" % (args.output, text.count("\n")))
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "scan": _cmd_scan,
    "groth": _cmd_groth,
    "verify": _cmd_verify,
    "export-m2": _cmd_export_m2,
}


def entry(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args, out)
        out.flush()  # a write to a closed pipe may first fail here
        return code
    except BrokenPipeError:
        # keep the interpreter's own exit flush of stdout quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed", file=sys.stderr)
        return 1
    except (_UsageError, ValueError, ResourceBudgetExceeded) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except RecursionError:  # a RuntimeError, but a property of the input
        print("error: input too large: Python's recursion limit was exceeded", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print("error: internal invariant failed: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(entry())
