"""Regularity reports, Poincare series, Kazhdan-Lusztig degrees and scans.

Two independent routes to the regularity of a chart's tangent cone live
side by side here: the covexillary tableau rule (shapes) and the Groebner
pipeline (gb).  Reports carry a cm_status label because outside the
covexillary theorem the Groebner number deg H is only conjecturally the
regularity; the two are never silently reconciled.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product, zip_longest
from math import comb, isfinite
from operator import itemgetter
from typing import get_args, get_type_hints

from . import kernel
from ._version import __version__
from .gb import (
    ResourceBudgetExceeded,
    check_budget,
    hilbert_data,
    require_budget,
    time_budget,
)
from .groth import groth_spec_1mq
from .ideal import kl_generators, not_a_cone
from .perm import (
    Permutation,
    all_permutations,
    bruhat_interval,
    bruhat_leq,
    chart_shape,
    covers_below,
    is_covexillary,
    length,
    permutation_from_reversed_code,
    require_bruhat,
    w0_compose,
)
from .poly import UniPoly
from .shapes import NotCovexillaryError, companion, companion_permutation, regularity_formula

# ----------------------------------------------------------------------
# Kazhdan-Lusztig polynomials: one column per w, by the descent recursion


@lru_cache(maxsize=None)
def _r_coeffs(v: Permutation, w: Permutation) -> tuple:
    """The coefficients of R_{v,w}, by the right-descent recursion."""
    if v is w:
        return (1,)
    if not bruhat_leq(v, w):
        return ()
    word = w.word
    i = next(k for k in range(1, w.n) if word[k - 1] > word[k])
    ws = w.right_s(i)
    vs = v.right_s(i)
    if length(vs) < length(v):
        return _r_coeffs(vs, ws)
    # (q - 1) R_{v,ws} + q R_{vs,ws}; R_{v,w} has degree l(w) - l(v) and
    # leading coefficient 1, so no trailing zero arises
    a = _r_coeffs(v, ws)
    b = _r_coeffs(vs, ws)
    out = [0] * (max(len(a), len(b)) + 1)
    for k, c in enumerate(a):
        out[k] -= c
        out[k + 1] += c
    for k, c in enumerate(b):
        out[k + 1] += c
    return tuple(out)


def r_polynomial(v: Permutation, w: Permutation) -> UniPoly:
    """R_{v,w} by the right-descent recursion; zero unless v <= w.  Only the
    tests read it, as the oracle of the KL functional equation."""
    return UniPoly(_r_coeffs(v, w))


# w -> (column, mu): the coefficients of P_{x,w} for every x <= w, and
# (z, mu(z, w)) for every z < w with mu(z, w) != 0.  Complete columns only,
# kept for the process: one entry per Bruhat pair below each w reached.
_KL: dict = {}


def _kl_column(w: Permutation):
    """P_{x,w} for every x <= w, by the recursion of Kazhdan-Lusztig (2.2.c).

    With s = s_i the first right descent of w, v = ws and c = 1 iff xs < x,
        P_{x,w} = q^{1-c} P_{xs,v} + q^c P_{x,v}
                  - sum over z < v with zs < z of mu(z,v) q^{(l(w)-l(z))/2} P_{x,z},
    where P_{x,u} = 0 unless x <= u.  As P_{x,w} = P_{xs,w}, only the x with
    c = 0 are computed, each for xs too, and each first tests the enclosing
    `time_budget` scope.  Every result is checked: constant term 1 and
    2 deg P_{y,w} <= l(w) - l(y) - 1 for y in {x, xs} below w.
    """
    found = _KL.get(w)
    if found is not None:
        return found
    lw, word = length(w), w.word
    if not lw:
        _KL[w] = found = ({w: (1,)}, ())
        return found
    i = next(k for k in range(1, w.n) if word[k - 1] > word[k])
    v = w.right_s(i)
    below, v_mu = _kl_column(v)
    # (P_{.,z}, mu(z, v), (l(w) - l(z)) / 2) for each z of the sum
    terms = [(_kl_column(z)[0], m, (lw - length(z)) // 2) for z, m in v_mu if z.word[i - 1] > z.word[i]]
    column = {}
    for x in bruhat_interval(Permutation.identity(w.n), w):
        if x.word[i - 1] > x.word[i]:
            continue
        check_budget("kl polynomial")
        xs = x.right_s(i)
        top = lw - length(x) - 1 - (xs is not w)  # 2 deg P_{x,w} <= top, from x or xs
        p = [0] * (top // 2 + 2)
        for k, a in enumerate(below.get(x, ())):
            p[k] += a
        for k, a in enumerate(below.get(xs, ())):
            p[k + 1] += a
        for col, m, shift in terms:
            for k, a in enumerate(col.get(x, ())):
                p[k + shift] -= m * a
        while p and not p[-1]:
            p.pop()
        if not p or p[0] != 1 or 2 * len(p) - 2 > top:
            raise RuntimeError("KL recursion broke its bounds at (%s, %s)" % (x, w))
        column[x] = column[xs] = tuple(p)
    # mu(x, w) is the coefficient of q^{(l(w)-l(x)-1)/2}, the top one allowed
    mu = tuple((x, p[-1]) for x, p in column.items() if 2 * len(p) - 1 == lw - length(x))
    _KL[w] = found = (column, mu)
    return found


def kl_polynomial(v: Permutation, w: Permutation) -> UniPoly:
    """P_{v,w}, read off the column of w (see `_kl_column`)."""
    require_bruhat(v, w)
    return UniPoly(_kl_column(w)[0][v])


def kl_degree(v: Permutation, w: Permutation) -> int:
    """deg P_{v,w}, read off the column of w."""
    return int(kl_polynomial(v, w).degree())


# ----------------------------------------------------------------------
# Symmetry orbits of pairs
#
# Inversion iota(v, w) = (v^-1, w^-1) carries the germ of X_w at e_v to the
# germ of X_{w^-1} at e_{v^-1}; the transpose tau(v, w) = (w0 v^-1 w0,
# w0 w^-1 w0), from g -> w0 g^T w0, only relabels the chart's variables.  So
# H, the regularity, covexillarity and P_{v,w} are constant on an orbit
# {p, tau p, iota p, tau iota p}, while the chart ideals, and their cost,
# differ.  A transpose class is {p, tau p}.


@lru_cache(maxsize=None)
def _images(u: Permutation):
    """(w0 u^-1 w0, u^-1, w0 u w0): u's parts of tau, iota and tau iota."""
    n = u.n

    def w0_conjugate(x):
        return Permutation(tuple(n + 1 - val for val in reversed(x.word)))

    inverse = u.inverse()
    return w0_conjugate(inverse), inverse, w0_conjugate(u)


def _orbit(v: Permutation, w: Permutation):
    """[p, tau p, iota p, tau iota p] for p = (v, w), repeats included."""
    return [(v, w), *zip(_images(v), _images(w))]


# A position p with v(p) = w(p) = a and as many h < p with v(h) > a as with
# w(h) > a, say k, is a removable common 1 (Woo-Yong 2008).  Each free
# variable in row a or column p is, up to sign, a (k+1)-minor of a corner
# where R_w = k, so it lies in the chart ideal (Fulton 1992), and the ideal
# is those variables plus the pattern's ideal relabelled: H and the
# homogeneity flag are the pattern's.  The rule commutes with iota and tau.


def _pattern(v: Permutation, w: Permutation):
    """(v, w) with every removable common 1 deleted and the rest flattened;
    v = w gives the point (1, 1)."""
    x, y = v.word, w.word
    keep = [
        p for p, (a, b) in enumerate(zip(x, y))
        if a != b or sum(c > a for c in x[:p]) != sum(c > a for c in y[:p])
    ]
    if len(keep) == v.n:
        return v, w
    if not keep:
        point = Permutation.identity(1)
        return point, point
    rank = {a: r for r, a in enumerate(sorted(x[p] for p in keep), 1)}
    return Permutation(tuple(rank[x[p]] for p in keep)), Permutation(tuple(rank[y[p]] for p in keep))


# ----------------------------------------------------------------------
# The chart memos
#
# Only two facts of a chart are kept, each in its own memo: a HilbertData
# also holds the chart ideal and the cone basis, too much to keep for every
# pair of a scan.

# pair -> the Groebner H, stored for every member of each orbit computed
_H: dict = {}
# pair -> whether its chart ideal is homogeneous, stored for both members of
# each transpose class whose flag was decided.  Inversion can change the
# flag, so it is not an orbit invariant.
_HOMOGENEOUS: dict = {}


def _homogeneous(v: Permutation, w: Permutation) -> bool:
    """Whether the chart ideal of (v, w) is homogeneous.  On a miss a pair
    with a removable common 1 reads its pattern's flag (`_pattern`); any
    other pair gets False from `not_a_cone` when it certifies, else the
    flag of the pair's own `hilbert_data`.  A cone source's flag is
    already stored by `_groebner_h`."""
    flag = _HOMOGENEOUS.get((v, w))
    if flag is None:
        pattern = _pattern(v, w)
        if pattern != (v, w):
            flag = _homogeneous(*pattern)
        elif not_a_cone(v, w):
            flag = False
        else:
            flag = hilbert_data(v, w).homogeneous
        _HOMOGENEOUS[(v, w)] = _HOMOGENEOUS[_orbit(v, w)[1]] = flag
    return flag


def _groebner_h(v: Permutation, w: Permutation) -> UniPoly:
    """The Groebner H_{v,w}, with one tangent cone computed per orbit.

    On a miss a pair with a removable common 1 reads its pattern's H
    (`_pattern`).  Any other pair charts whichever of itself and its
    inverse has fewer `kl_generators`, itself on a tie.  H is stored for
    the whole orbit, and that basis's own `homogeneous` flag for the
    source's transpose class, which `_homogeneous` then reads.  The work
    runs under the enclosing `time_budget` scope; an overrun stores
    neither H nor a flag.  A stored H is returned without consulting the
    budget.
    """
    H = _H.get((v, w))
    if H is None:
        pattern = _pattern(v, w)
        if pattern != (v, w):
            H = _groebner_h(*pattern)
        else:
            inverse = (v.inverse(), w.inverse())
            source = inverse if len(kl_generators(*inverse)) < len(kl_generators(v, w)) else (v, w)
            data = hilbert_data(*source)
            H = data.H
            _HOMOGENEOUS[source] = _HOMOGENEOUS[_orbit(*source)[1]] = data.homogeneous
        for pair in _orbit(v, w):
            _H[pair] = H
    return H


# kappa -> H_{v,w} read off the companion kappa, shared by every pair whose
# companion it is.  Kept apart from _H, which holds only Groebner H: neither
# memo is written or read in place of the other, so each route checks the other.
_KAPPA_H: dict = {}


def _h(v: Permutation, w: Permutation) -> UniPoly:
    """H_{v,w} by the route the pair fixes: for covexillary w
    G_{w0 kappa}(1-q) / (1-q)^height with kappa the pair's companion
    (Li-Yong 2012), else the Groebner H from `_groebner_h`.  An inexact
    division there raises RuntimeError: it is a bug, not a property of the
    pair.  What the process computed before never changes the route.

    The height C(n,2) - l(w) is C(n,2) - l(kappa), since l(kappa) = l(w), so
    H is memoised once per companion.  A companion H not yet in its memo
    first tests the enclosing `time_budget` scope.
    """
    if not is_covexillary(w):
        return _groebner_h(v, w)
    kappa = companion(v, w)
    H = _KAPPA_H.get(kappa)
    if H is None:
        check_budget("grothendieck polynomial")
        spec = groth_spec_1mq(w0_compose(kappa))
        height = comb(kappa.n, 2) - length(kappa)
        try:
            H = _KAPPA_H[kappa] = spec.exact_divide(UniPoly.one_minus_q() ** height)
        except ValueError as exc:  # the companion theorem says it divides
            raise RuntimeError(
                "G_{w0 kappa}(1-q) of (%s, %s) is not divisible by (1-q)^%d" % (v, w, height)
            ) from exc
    return H


# ----------------------------------------------------------------------
# Reports


@dataclass
class RegularityReport:
    """Everything the tool knows about the tangent cone of one chart."""

    v: Permutation
    w: Permutation
    method: str
    dim: int
    height: int
    n_vars: int
    covexillary: bool
    cm_status: str
    reg: int | None = None
    formula_reg: int | None = None
    groebner_reg: int | None = None
    discrepant: bool = False
    H: UniPoly | None = None
    homogeneous_ideal: bool | None = None
    kl_degree: int | None = None
    conjecture_flags: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0

    def to_json(self) -> dict:
        return {
            "v": str(self.v),
            "w": str(self.w),
            "n": self.v.n,
            "method": self.method,
            "reg": self.reg,
            "formula_reg": self.formula_reg,
            "groebner_reg": self.groebner_reg,
            "discrepant": self.discrepant,
            "h_coeffs": list(self.H.coeffs) if self.H is not None else None,
            "dim": self.dim,
            "height": self.height,
            "n_vars": self.n_vars,
            "covexillary": self.covexillary,
            "cm_status": self.cm_status,
            "homogeneous_ideal": self.homogeneous_ideal,
            "kl_degree": self.kl_degree,
            "conjecture_flags": dict(self.conjecture_flags),
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def _blank_report(v: Permutation, w: Permutation, method="auto") -> RegularityReport:
    """The pair's report with only the fields that the pair and the requested
    method fix in advance set: method, covexillary, cm_status, dim, height
    and n_vars.

    "auto" picks the formula for covexillary w and the Groebner route
    otherwise.
    """
    cov = is_covexillary(w)
    if method == "auto":
        method = "formula" if cov else "groebner"
    status = "proven" if cov else "conjectural"
    return RegularityReport(v, w, method, *chart_shape(v, w), cov, status)


def regularity(
    v: Permutation,
    w: Permutation,
    method: str = "auto",
    with_kl: bool = False,
    checks=(),
) -> RegularityReport:
    """Regularity of the tangent cone of the chart of X_w attached to v.

    method "formula" runs the covexillary tableau rule, "groebner" the
    Hilbert-series pipeline, "both" runs and compares them, and "auto" picks
    the formula for covexillary w and the Groebner route otherwise.  Outside
    the covexillary theorem the reported value is deg H with cm_status
    "conjectural".  The enclosing `time_budget` scope bounds the Groebner
    and KL work of the pair, conjecture checks included; a chart whose H and
    flag are memoised costs no budget.
    """
    start = time.monotonic()
    require_bruhat(v, w)
    report = _blank_report(v, w, method)
    method = report.method
    if method not in ("formula", "groebner", "both"):
        raise ValueError("unknown method %r" % method)
    if method in ("formula", "both") and not report.covexillary:
        raise NotCovexillaryError(
            "method %s needs a 3412-avoiding w; %s is not" % (method, w)
        )
    if method in ("formula", "both"):
        report.formula_reg = regularity_formula(v, w)
    if method in ("groebner", "both"):
        report.H = _groebner_h(v, w)
        report.homogeneous_ideal = _homogeneous(v, w)
        report.groebner_reg = int(report.H.degree())
    report.discrepant = method == "both" and report.formula_reg != report.groebner_reg
    if not report.discrepant:
        report.reg = report.groebner_reg if report.formula_reg is None else report.formula_reg
    if with_kl:
        report.kl_degree = kl_degree(v, w)
    if checks:
        report.conjecture_flags = check_conjectures(v, w, checks=checks)
    report.elapsed_ms = (time.monotonic() - start) * 1000.0
    return report


# ----------------------------------------------------------------------
# Series and the Grothendieck cross-identity


def ps_series(v: Permutation, w: Permutation, order: int):
    """Hilbert function of the tangent cone, degrees 0..order inclusive.

    Returns (coefficients, multiplicity) where multiplicity = H(1) is the
    Hilbert-Samuel multiplicity of the chart.  H is read as the checks read
    it (`_h`): off the companion's Grothendieck polynomial for covexillary w,
    else the Groebner H.  A miss is computed under the enclosing
    `time_budget` scope.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    H = _h(v, w)
    coeffs = tuple(H.series_coefficients(chart_shape(v, w)[0], order))
    return coeffs, int(H.evaluate(1))


def finalps_check(v: Permutation, w: Permutation) -> bool:
    """Exact identity between the Grothendieck specialization and H.

    The companion's partner polynomial specialized at 1-q must equal
    H_{v,w}(q) * (1-q)^{codim X_w}; the two sides come from independent
    routes (divided differences vs the Groebner pipeline).  H is always the
    Groebner one (`_groebner_h`), never the one `_h` reads off the
    companion, and is computed under the enclosing `time_budget` scope on a
    miss.
    """
    lhs = groth_spec_1mq(w0_compose(companion_permutation(v, w)))
    H = _groebner_h(v, w)
    rhs = H * UniPoly.one_minus_q() ** chart_shape(v, w)[1]
    return lhs == rhs


# ----------------------------------------------------------------------
# Conjecture checks


class _PairFacts:
    """What the checks read of one pair, each computed at most once and only
    when a check reads it: H_{v,w}, the tableau regularity and deg P_{v,w}."""

    def __init__(self, v: Permutation, w: Permutation):
        self.v, self.w = v, w

    H = cached_property(lambda self: _h(self.v, self.w))
    reg = cached_property(lambda self: regularity_formula(self.v, self.w))

    @cached_property
    def deg_p(self) -> int:
        degree = kl_degree(self.v, self.w)
        check_budget("kl-degree")
        return degree


# Each check is a predicate on the pair's facts; it reads the pair's own
# value before any cover's.
_CHECKS = {
    "h-nonneg": lambda f: all(c >= 0 for c in f.H.coeffs),
    "deg-bound": lambda f: 2 * int(f.H.degree()) <= chart_shape(f.v, f.w)[0] - 1,
    "h-semicontinuity": lambda f: all(
        a <= b
        for u in covers_below(f.v)
        for a, b in zip_longest(f.H.coeffs, _h(u, f.w).coeffs, fillvalue=0)
    ),
    "reg-semicontinuity": lambda f: all(
        f.reg <= regularity_formula(u, f.w) for u in covers_below(f.v)
    ),
    "dual-path": lambda f: f.reg == int(f.H.degree()),
    "kl-degree": lambda f: f.deg_p == f.reg,
    "reg-le-deg-p": lambda f: f.deg_p >= f.reg,
}
ALL_CHECKS = tuple(_CHECKS)
# The checks that read the tableau regularity, which needs a covexillary w
_COVEXILLARY_ONLY = {"reg-semicontinuity", "dual-path", "kl-degree", "reg-le-deg-p"}
# reg-le-deg-p is informational (weak evidence either way); a "fail" there
# never falsifies anything.
FALSIFIABLE_CHECKS = ALL_CHECKS[:-1]


def falsified(flags: dict) -> list:
    """The falsifiable checks that `flags` mark "fail", by name."""
    return sorted(name for name in FALSIFIABLE_CHECKS if flags.get(name) == "fail")


def select_checks(checks) -> tuple:
    """The check names that `checks` ("all", one name or names) selects,
    each once."""
    if checks == "all":
        selected = ALL_CHECKS
    else:
        selected = tuple(dict.fromkeys((checks,) if isinstance(checks, str) else checks))
    for name in selected:
        if name not in _CHECKS:
            raise ValueError("unknown check %r" % name)
    return selected


def check_conjectures(v: Permutation, w: Permutation, checks="all") -> dict:
    """Evaluate the conjecture suite on one pair; values pass/fail/not-checkable.

    h-nonneg          H has nonnegative coefficients
    deg-bound         deg H <= (l(w) - l(v) - 1)/2
    h-semicontinuity  coefficientwise H_{u,w} >= H_{v,w} over covers u of v
    reg-semicontinuity covexillary only: formula reg is monotone under covers
    dual-path         covexillary only: formula reg = deg H
    kl-degree         covexillary only: deg P_{v,w} = formula reg
    reg-le-deg-p      informational: reg <= deg P (speculation, never fatal)

    Every check passes on v = w.  H is read by `_h`: off the companion for
    covexillary w, so dual-path compares the tableau rule with the
    Grothendieck degree whatever Groebner H is stored, else the Groebner H.
    The enclosing `time_budget` scope bounds the checks together: it covers
    every chart, companion H and KL column they compute, and is tested again
    after the KL degree.  A memoised chart, H or KL column costs no budget.
    """
    require_bruhat(v, w)
    selected = select_checks(checks)
    if v is w:
        return {name: "pass" for name in selected}
    cov = is_covexillary(w)
    facts = _PairFacts(v, w)
    flags = {}
    for name in selected:
        if name in _COVEXILLARY_ONLY and not cov:
            flags[name] = "not-checkable"
        else:
            flags[name] = "pass" if _CHECKS[name](facts) else "fail"
    return flags


# ----------------------------------------------------------------------
# Scans


@dataclass
class ScanRecord:
    """One scanned pair, flattened for the JSON-lines cache."""

    n: int
    v: str
    w: str
    reg: int | None
    method: str
    covexillary: bool
    cm_status: str
    dim: int
    height: int
    n_vars: int
    h_coeffs: list | None
    kl_degree: int | None
    homogeneous_ideal: bool | None
    conjectures: dict
    error: str | None
    kernel: str
    elapsed_ms: float

    def to_json_line(self) -> str:
        """The record as `json.dumps(self.__dict__, sort_keys=True)`, byte for
        byte, for integer H coefficients and a finite elapsed_ms."""
        h, checks = self.h_coeffs, self.conjectures
        # the values in the template's order, the sorted field names
        return _LINE % (
            _string(self.cm_status),
            "{%s}" % ", ".join([_string(k) + ": " + _string(checks[k]) for k in sorted(checks)])
            if checks else "{}",
            "true" if self.covexillary else "false",
            self.dim,
            repr(self.elapsed_ms),
            "null" if self.error is None else _string(self.error),
            "null" if h is None else "[%s]" % ", ".join(map(str, h)),
            self.height,
            "null" if self.homogeneous_ideal is None else "true" if self.homogeneous_ideal else "false",
            _string(self.kernel),
            "null" if self.kl_degree is None else self.kl_degree,
            _string(self.method),
            self.n,
            self.n_vars,
            "null" if self.reg is None else self.reg,
            _string(self.v),
            _string(self.w),
        )

    @classmethod
    def from_json_line(cls, line: str) -> "ScanRecord":
        """One cache line as a record, parsed as `json.loads` parses it.
        ValueError on a line that is not one JSON value, a field of the wrong
        JSON type, a non-integer H coefficient, a non-finite elapsed_ms or an
        unknown verdict; KeyError on a missing field, TypeError on a non-object,
        RecursionError on a value nested past the recursion limit."""
        line = line.strip(" \t\n\r")
        data, end = _decode(line)
        if end != len(line):
            raise ValueError("extra data after the record: %s" % line)
        values = _fields(data)
        if tuple(map(type, values)) not in _RECORD_TYPES:
            raise ValueError("a field has the wrong JSON type: %s" % line)
        h = data["h_coeffs"]
        if h is not None and not _INT.issuperset(map(type, h)):
            raise ValueError("an H coefficient is not an integer: %s" % line)
        if not isfinite(data["elapsed_ms"]):
            raise ValueError("elapsed_ms is not finite: %s" % line)
        if not _VERDICTS.issuperset(data["conjectures"].values()):
            raise ValueError("a check has an unknown verdict: %s" % line)
        return cls(*values)


# Every tuple of types that a record's fields, in order, may have
_RECORD_TYPES = frozenset(
    product(*(get_args(hint) or (hint,) for hint in get_type_hints(ScanRecord).values()))
)
_VERDICTS = {"pass", "fail", "not-checkable"}
_INT = {int}
_fields = itemgetter(*ScanRecord.__dataclass_fields__)
_decode = json.JSONDecoder().raw_decode
_string = json.encoder.encode_basestring_ascii
_LINE = "{%s}" % ", ".join('"%s": %%s' % name for name in sorted(ScanRecord.__dataclass_fields__))
_KERNEL_VERSION = "schubreg-%s-%s" % (__version__, kernel.implementation_name())


def kernel_version() -> str:
    return _KERNEL_VERSION


def scan_record(v: Permutation, w: Permutation, checks=(), budget_ms=None) -> ScanRecord:
    """Compute one pair for a scan; budget overruns become error records.

    One `time_budget(budget_ms)` scope bounds all of the pair's work; with
    no budget the enclosing scope's deadline holds.  Both kinds of record
    carry the fields the pair fixes in advance, so an error record is
    labelled as the pair's report would be.
    """
    start = time.monotonic()
    error = None
    try:
        with time_budget(budget_ms):
            report = regularity(v, w, checks=checks)
    except ResourceBudgetExceeded as exc:
        report, error = _blank_report(v, w), "budget: %s" % exc
    H = report.H
    return ScanRecord(
        n=v.n, v=str(v), w=str(w), reg=report.reg, method=report.method,
        covexillary=report.covexillary, cm_status=report.cm_status, dim=report.dim,
        height=report.height, n_vars=report.n_vars,
        h_coeffs=list(H.coeffs) if H is not None else None,
        kl_degree=report.kl_degree, homogeneous_ideal=report.homogeneous_ideal,
        conjectures=report.conjecture_flags, error=error, kernel=_KERNEL_VERSION,
        elapsed_ms=round((time.monotonic() - start) * 1000.0, 3),
    )


def _read_cache(path):
    """(pair, record) for every line of a scan cache file that is not all
    JSON whitespace; record is None on a line that is not a valid record.  A
    byte that is not UTF-8 reads as U+FFFD."""
    try:
        handle = open(path, "r", encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return
    with handle:
        for line in handle:
            if not line.strip(" \t\n\r"):
                continue
            try:
                record = ScanRecord.from_json_line(line)
            except (ValueError, KeyError, TypeError, RecursionError):
                yield None, None
            else:
                yield (record.v, record.w), record


def _compact_cache(path, records):
    """Rewrite a scan cache as one canonical line per record.

    The new file is written beside the cache and moved over it, so an
    interrupted rewrite leaves the old cache whole.
    """
    tmp = "%s.tmp" % os.fspath(path)
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.writelines(record.to_json_line() + "\n" for record in records)
    os.replace(tmp, path)


@dataclass
class ScanResult:
    """A scan's records in scan order and the summary folded over them;
    `pairs` counts the scan's Bruhat pairs, `check_counts` tallies each
    requested check's verdicts in request order, `errors` counts the pairs
    that overran the budget."""

    n: int
    restrict: str
    pairs: int
    max_reg: int | None
    argmax: tuple
    records: list
    conjecture_failures: tuple
    check_counts: dict
    errors: int

    @property
    def partial(self) -> bool:
        """Some pair overran the budget, so max_reg is only a lower bound."""
        return self.errors > 0


def scan_pairs(n: int, restrict: str = "all"):
    """Bruhat pairs of S_n in scan order: by l(w) - l(v), then w, then v.

    The pairs of each w are its lower interval [e, w], walked down by covers.
    An n below 1 raises ValueError.
    """
    if n < 1:
        raise ValueError("n must be at least 1, got %d" % n)
    if restrict not in ("all", "covexillary-only"):
        raise ValueError("restrict must be 'all' or 'covexillary-only'")
    identity = Permutation.identity(n)
    pairs = [
        (v, w)
        for w in all_permutations(n)
        if restrict == "all" or is_covexillary(w)
        for v in bruhat_interval(identity, w)
    ]
    pairs.sort(key=lambda vw: (length(vw[1]) - length(vw[0]), vw[1].word, vw[0].word))
    return pairs


def max_reg_scan(
    n: int,
    restrict: str = "all",
    checks=(),
    budget_ms=None,
    cache_path=None,
    workers: int = 1,
    record_sink=None,
) -> ScanResult:
    """Scan all Bruhat pairs of S_n for the largest tangent-cone regularity.

    Covexillary w go through the tableau rule; everything else runs the
    Groebner pipeline under the budget.  A pair's last record in the cache
    file is reused verbatim when it has no error and carries every requested
    check, so a rerun is free and the reported summary is reproducible;
    any other pair is recomputed and appended.  A line that is not a valid
    record, with the JSON types of its fields, is unreadable.  The file is
    read once.  When it has an unreadable line or more than one line for a
    pair, the cache is rewritten from the records in memory as one canonical
    line per pair, its last record (pairs outside this scan are kept,
    unreadable lines dropped).  A budget overrun marks the scan
    partial and the reported max is only a lower bound.  Every pair is
    computed in the calling process; `workers` remains for callers that
    pass 1, and any other value raises ValueError, as do a negative or NaN
    budget and an n below 1, before the cache is opened.
    """
    if workers != 1:
        raise ValueError("scans run in one process; workers must be 1, got %d" % workers)
    require_budget(budget_ms)
    wanted = select_checks(checks)
    pairs = scan_pairs(n, restrict)
    # (v, w) strings -> the pair's last valid record on file, then its fresh one
    latest = {}
    stale = False  # the file has lines that compaction drops or replaces
    if cache_path is not None:
        for pair, record in _read_cache(cache_path):
            stale = stale or record is None or pair in latest
            if record is not None:
                latest[pair] = record

    records, argmax, failures, max_reg, errors = [], [], [], None, 0
    counts = {name: {"pass": 0, "fail": 0, "not-checkable": 0} for name in wanted}
    cache = open(cache_path, "a", encoding="utf-8") if cache_path is not None else nullcontext()
    with cache as handle:
        for v, w in pairs:
            record = latest.get((str(v), str(w)))
            if record is None or record.error is not None or not all(
                name in record.conjectures for name in wanted
            ):
                stale = stale or record is not None
                record = scan_record(v, w, checks=wanted, budget_ms=budget_ms)
                if handle is not None:
                    latest[(record.v, record.w)] = record
                    handle.write(record.to_json_line() + "\n")
                    handle.flush()
                if record_sink is not None:
                    record_sink(record)
            records.append(record)
            errors += record.error is not None
            if record.reg is not None and (max_reg is None or record.reg >= max_reg):
                if record.reg != max_reg:
                    max_reg, argmax = record.reg, []
                argmax.append((record.v, record.w))
            if record.conjectures:
                for name, tally in counts.items():  # a record without error has them all
                    tally[record.conjectures[name]] += 1
                if "fail" in record.conjectures.values():
                    failures.extend((record.v, record.w, name) for name in falsified(record.conjectures))
    if stale:
        _compact_cache(cache_path, latest.values())
    return ScanResult(
        n=n, restrict=restrict, pairs=len(pairs), max_reg=max_reg, argmax=tuple(argmax),
        records=records, conjecture_failures=tuple(failures), check_counts=counts, errors=errors,
    )


def staircase_permutation(j: int) -> Permutation:
    """The permutation in S_{3j-1} whose printed code is (1, 2, ..., j, 0, ...).

    Its chart at the identity has tangent-cone regularity j(j-1)/2, which
    makes the family a quadratic-growth witness for the max-regularity scan.
    """
    if j < 1:
        raise ValueError("j must be positive")
    n = 3 * j - 1
    code = tuple(range(1, j + 1)) + (0,) * (n - j)
    return permutation_from_reversed_code(code)
