"""Groebner bases, tangent cones and Hilbert series over the chart rings.

Bases are computed under grevlex, or under grevlex_t (t-heavy): for a
homogenized ideal with t as variable 0, or for a graded ideal with t
implicit (`kernel.OrderPack`).

The Buchberger loop uses the normal selection strategy keyed by sugar degree
(a heap of pairs), the product and chain criteria in Gebauer-Moeller form,
and fraction-free integer arithmetic.  Divisors are found by a scan of one
`kernel.Reducers` table per computation, whose positions are the basis
indices: the table serves the normal forms and the Gebauer-Moeller test,
because lcm(j, t) divides lcm(i, t) exactly when lm_j does.  Reduced bases
normalize every element to content 1 with a positive leading coefficient
and sort by ascending leading monomial, so a basis is a canonical artifact
of (ideal, order).

Tangent cones come from a t-heavy basis whose lowest forms are a grevlex
basis of the cone.  The homogenization route: a Groebner basis under a
graded order homogenizes to a generating set of the homogenized ideal, and a
basis of that ideal under the t-heavy graded order dehomogenizes onto lowest
degree forms.  Because the t-heavy order ties break toward high t powers,
the dehomogenized leading terms are leading terms of the lowest forms under
plain grevlex, so the lowest forms are already a grevlex basis of the
tangent-cone ideal; no third basis computation is needed.  A chart ideal is
homogeneous in the weights h of its torus, so the weighted homogenization
t^(h(m) - |m|) * m needs no t: the graded grevlex_t order is a global order
on the chart ring, its basis is computed there, and each element's leading
term lies in its lowest form.  An ideal without a grading (`Ideal.from_polys`)
takes the homogenization route; both share the lowest-form extraction.

From the chart's generators to the Hilbert numerator every polynomial is a
packed integer term list: `buchberger` keys an `Ideal`'s (raw, coeff) terms,
homogenization shifts raws to make room for t, the cone is returned as its
`GroebnerBasis`, and K is computed on its packed leading monomials.
MultiPoly and exponent tuples appear only at the edges: in `elements`,
`normal_form` and `leading_exponents` of a basis, and `hilbert_numerator`.

`hilbert_data` is the only function that builds a chart's grevlex basis,
and it keeps no basis: each call computes both of the chart's bases afresh.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import zip_longest

from . import kernel
from .ideal import Ideal, kl_generators, pack_poly, unpack_poly
from .kernel import FIELD, SHIFT, OrderPack, divides, order_pack, raw_lcm
from .perm import Permutation, chart_shape
from .poly import MultiPoly, PolyRing, UniPoly


class ResourceBudgetExceeded(RuntimeError):
    """A computation ran past its time budget."""


# The monotonic time by which the work in the current scope must end; None
# while no scope bounds it.
_DEADLINE: ContextVar = ContextVar("schubreg_deadline", default=None)


def require_budget(budget_ms):
    """Raise ValueError unless budget_ms is None or nonnegative."""
    if budget_ms is not None and budget_ms < 0:
        raise ValueError("a time budget must be nonnegative, got %s ms" % budget_ms)


def time_budget(budget_ms):
    """Bound all work inside the scope to budget_ms; None adds no bound.

    A negative budget raises ValueError.  A nested scope keeps the earlier
    of its own deadline and the enclosing one, and the enclosing deadline is
    back once the scope is left.  A scope without a bound is a plain
    `nullcontext`, so a scan pays next to nothing for it on every pair.
    """
    require_budget(budget_ms)
    return nullcontext() if budget_ms is None else _bounded(budget_ms)


@contextmanager
def _bounded(budget_ms):
    mine = time.monotonic() + budget_ms / 1000.0
    at = _DEADLINE.get()
    token = _DEADLINE.set(mine if at is None else min(at, mine))
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def check_budget(what: str):
    """Raise ResourceBudgetExceeded if the scope's deadline has passed."""
    at = _DEADLINE.get()
    if at is not None and time.monotonic() > at:
        raise ResourceBudgetExceeded("%s ran past the time budget" % what)


def _buchberger_terms(kgens, pack: OrderPack):
    """Core loop over kernel term lists; returns (reduced term lists, stats)."""
    basis = []  # term lists
    sugars = []
    reducers = kernel.Reducers(pack.hmask)  # position = basis index
    pairs: dict = {}  # live pairs: (i, j) -> lcm_raw, i < j
    queue = []  # (sugar, lcm_key, j, i); pairs deleted since are skipped
    stats = {"pairs_processed": 0, "zero_reductions": 0}
    hmask = pack.hmask

    def update(new_terms, new_sugar):
        """Gebauer-Moeller pair update for one accepted element."""
        t = len(basis)
        lmf = new_terms[0][1]
        lcmf = [raw_lcm(basis[i][0][1], lmf, hmask) for i in range(t)]
        # lcm(j, t) strictly divides lcm(i, t) exactly when lm_j divides
        # lcm(i, t) and the two lcms differ
        groups: dict = {}
        for i in range(t):
            li = lcmf[i]
            if not any(lcmf[j] != li for j in reducers.divisors(li)):
                groups.setdefault(li, []).append(i)
        for value, members in groups.items():
            if any(basis[i][0][1] + lmf == value for i in members):
                continue  # a coprime pair certifies the whole class
            i = min(members)
            sugar = max(
                sugars[i] + pack.degree_of_raw(value - basis[i][0][1]),
                new_sugar + pack.degree_of_raw(value - lmf),
            )
            pairs[(i, t)] = value
            heappush(queue, (sugar, pack.keyof(value), t, i))
        for (i, j), lcm_ij in list(pairs.items()):
            if j == t:
                continue
            if (
                divides(lmf, lcm_ij, hmask)
                and lcmf[i] != lcm_ij
                and lcmf[j] != lcm_ij
            ):
                del pairs[(i, j)]
        basis.append(new_terms)
        sugars.append(new_sugar)
        reducers.insert(new_terms)

    for gen in sorted(kgens):
        check_budget("generator interreduction")
        reduced = kernel.normal_form(gen, reducers)
        if reduced:
            update(reduced, pack.key_degree(reduced[0][0]))

    while queue:
        pair_sugar, _, j, i = heappop(queue)
        if (i, j) not in pairs:
            continue  # deleted by the chain criterion
        del pairs[(i, j)]
        check_budget("pair processing")
        spoly = kernel.s_polynomial(basis[i], basis[j], pack)
        stats["pairs_processed"] += 1
        reduced = kernel.normal_form(spoly, reducers)
        if reduced:
            update(reduced, max(pair_sugar, pack.key_degree(reduced[0][0])))
        else:
            stats["zero_reductions"] += 1

    final = _reduce_basis(basis, pack)
    stats["basis_size"] = len(final)
    return final, stats


def _reduce_basis(term_lists, pack: OrderPack):
    """Minimalize and tail-reduce known basis elements (stays a basis).

    Elements go in ascending leading key, each reduced against the ones kept
    before it: a larger leading monomial cannot divide a smaller term, and
    the reduced basis is unique, so this equals reducing against all others.
    """
    reducers = kernel.Reducers(pack.hmask)
    out = []
    for terms in sorted((t for t in term_lists if t), key=lambda ts: ts[0][0]):
        if reducers.find(terms[0][1]) is not None:
            continue  # a kept leading monomial divides this one
        reduced = kernel.normal_form(terms, reducers)
        reducers.insert(reduced)
        out.append(reduced)
    return out


@dataclass
class GroebnerBasis:
    """A reduced basis as kernel term lists under `order`, the OrderPack of
    the ring and the order kind; `elements` unpacks them lazily."""

    ring: PolyRing
    order: OrderPack
    _terms: list = field(repr=False)
    stats: dict = field(default_factory=dict, repr=False)

    @cached_property
    def _reducers(self):
        return kernel.Reducers(self.order.hmask, self._terms)

    @cached_property
    def elements(self) -> tuple[MultiPoly, ...]:
        return tuple(
            unpack_poly(self.ring, [(r, c) for _, r, c in terms]) for terms in self._terms
        )

    def normal_form(self, f: MultiPoly) -> MultiPoly:
        """Canonical remainder (content-free, positive leading coefficient)."""
        if f.ring != self.ring:
            raise ValueError("polynomial lives in a different ring")
        terms = kernel.keyed(pack_poly(f), self.order)
        reduced = kernel.normal_form(terms, self._reducers)
        return unpack_poly(self.ring, [(r, c) for _, r, c in reduced])

    def contains(self, f: MultiPoly) -> bool:
        return self.normal_form(f).is_zero()

    def leading_exponents(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.order.unpack(terms[0][1]) for terms in self._terms)

    def is_homogeneous(self) -> bool:
        # graded order: the first term has the top degree, the last the lowest
        degree = self.order.key_degree
        return all(degree(terms[0][0]) == degree(terms[-1][0]) for terms in self._terms)

    def check_certificate(self) -> bool:
        """Directly verify that every S-pair reduces to zero."""
        n = len(self._terms)
        for i in range(n):
            for j in range(i + 1, n):
                check_budget("certificate check")
                spoly = kernel.s_polynomial(self._terms[i], self._terms[j], self.order)
                if spoly and kernel.normal_form(spoly, self._reducers):
                    return False
        return True


def buchberger(ideal: Ideal, order: str = "grevlex") -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the order of the given kind,
    "grevlex" or "grevlex_t"; any other kind raises ValueError.  Under
    grevlex_t a graded ideal is ordered by its grading, and a generator that
    is not homogeneous in it raises RuntimeError."""
    grading = ideal.grading if order == "grevlex_t" else None
    pack = order_pack(ideal.ring.nvars, order, grading)
    kgens = [kernel.keyed(g, pack) for g in ideal.terms]
    degree = pack.key_degree
    if grading is not None and any(degree(g[0][0]) != degree(g[-1][0]) for g in kgens if g):
        raise RuntimeError("a generator is not homogeneous in the ideal's grading")
    final, stats = _buchberger_terms(kgens, pack)
    return GroebnerBasis(ideal.ring, pack, final, stats)


def _fresh_name(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "0"
    return name


def _tangent_cone(basis: GroebnerBasis, grading=None) -> GroebnerBasis:
    """The grevlex basis of the cone from the reduced grevlex basis of the
    source ideal, homogeneous in `grading` if that is not None."""
    if basis.is_homogeneous():
        return basis
    ring, pack = basis.ring, basis.order
    if grading is not None:
        # t stays implicit in the graded order; the basis lives in the ring
        source = Ideal(ring, tuple(tuple((r, c) for _, r, c in ts) for ts in basis._terms), grading)
        shift = 0
    else:
        # Homogenize with t as variable 0 (raw << SHIFT | power of t);
        # raw >> SHIFT drops t again.
        hring = PolyRing((_fresh_name("t", ring.names),) + ring.names)
        hgens = []
        for terms in basis._terms:
            top = pack.key_degree(terms[0][0])
            hgens.append(
                tuple((r << SHIFT | (top - pack.key_degree(k)), c) for (k, r, c) in terms)
            )
        source, shift = Ideal(hring, tuple(hgens)), SHIFT
    degree = pack.degree_of_raw
    lowest = []
    for terms in buchberger(source, "grevlex_t")._terms:
        form = [(r >> shift, c) for _, r, c in terms]
        low = min(degree(r) for r, _ in form)
        lowest.append(kernel.keyed([(r, c) for r, c in form if degree(r) == low], pack))
    final = _reduce_basis(lowest, pack)
    return GroebnerBasis(ring, pack, final, {"basis_size": len(final)})


def lowest_degree_forms_ideal(ideal: Ideal) -> GroebnerBasis:
    """The ideal of lowest-degree homogeneous forms of all elements.

    It is returned as its reduced grevlex basis.  Both basis computations
    run under the enclosing `time_budget` scope.
    """
    return _tangent_cone(buchberger(ideal, "grevlex"), ideal.grading)


# ----------------------------------------------------------------------
# Hilbert series of monomial ideals


def _minimal(raws, pack: OrderPack) -> list:
    """The minimal packed monomials among raws under divisibility."""
    hmask = pack.hmask
    out = []
    # a proper divisor has a lower degree, so it is kept before its multiples
    for r in sorted(set(raws), key=pack.degree_of_raw):
        if not any(divides(m, r, hmask) for m in out):
            out.append(r)
    return out


def _numerator(gens, pack: OrderPack) -> list:
    """The coefficient list of the numerator K of the ideal of the minimal
    packed monomials `gens`: the product of the 1 - q^deg g when no variable
    divides two of them, else the Bayer-Stillman pivot recursion on the
    lowest variable that divides the most, which shrinks both calls."""
    hmask = pack.hmask
    ones = hmask >> (SHIFT - 1)
    # generators per variable, one field each
    counts = sum(((g | hmask) - ones) >> (SHIFT - 1) & ones for g in gens)
    fields = [(counts >> (SHIFT * k)) & FIELD for k in range(pack.nvars)]
    top = max(fields, default=0)
    if top < 2:
        result = [1]
        for g in gens:  # times 1 - q^deg g
            shifted = [0] * pack.degree_of_raw(g) + result
            result = [a - b for a, b in zip_longest(result, shifted, fillvalue=0)]
        return result
    k = fields.index(top)
    unit, field_k = 1 << (SHIFT * k), FIELD << (SHIFT * k)
    # K(M) = K(M + (x_k)) + q K(M : x_k); M + (x_k) is minimal as built
    plus = _numerator([g for g in gens if not g & field_k] + [unit], pack)
    colon = _numerator(_minimal([g - unit if g & field_k else g for g in gens], pack), pack)
    return [a + b for a, b in zip_longest(plus, [0] + colon, fillvalue=0)]


def hilbert_numerator(monomials, nvars: int) -> UniPoly:
    """Numerator K with PS(S/M; q) = K(q) / (1-q)^nvars for the monomial
    ideal M generated by the given exponent tuples.  They are packed, so an
    exponent outside [0, 2^14) or a total degree of 2^14 or more raises
    OverflowError."""
    exps = [tuple(e) for e in monomials]
    if any(len(e) != nvars for e in exps):
        raise ValueError("exponent arity mismatch")
    pack = order_pack(nvars)
    return UniPoly(_numerator(_minimal([pack.pack(e) for e in exps], pack), pack))


# ----------------------------------------------------------------------
# The chart pipeline


@dataclass
class HilbertData:
    """Hilbert-series data of a chart's tangent cone."""

    v: Permutation
    w: Permutation
    n_vars: int
    dim: int
    height: int
    K: UniPoly
    H: UniPoly
    homogeneous: bool
    kl_ideal: Ideal
    cone: GroebnerBasis  # reduced grevlex basis of the tangent-cone ideal


def hilbert_data(v: Permutation, w: Permutation) -> HilbertData:
    """Tangent-cone Hilbert data of the chart of X_w attached to v.

    The grevlex basis gives the homogeneity flag and, for a homogeneous
    chart, the cone; otherwise the cone comes from the graded grevlex_t
    basis in the chart ring.  Minor generation, the grevlex basis and the
    cone basis run under the enclosing `time_budget` scope.  The computed
    (dim, height, n_vars) must equal `chart_shape(v, w)`, else RuntimeError.
    """
    chart_ideal = kl_generators(v, w)
    check_budget("minor generation")
    basis = buchberger(chart_ideal, "grevlex")
    n_vars = chart_ideal.ring.nvars
    cone = _tangent_cone(basis, chart_ideal.grading)
    check_budget("tangent cone")
    K = hilbert_numerator(cone.leading_exponents(), n_vars)
    if K.is_zero():
        raise RuntimeError("chart ideal defines the empty scheme; conventions broken")
    # H = K / (1-q)^height, height the multiplicity of the root q = 1 of K
    H, height = K, 0
    while H.evaluate(1) == 0:
        H = H.exact_divide(UniPoly.one_minus_q())
        height += 1
    dim = n_vars - height
    if (dim, height, n_vars) != chart_shape(v, w):
        raise RuntimeError(
            "shape mismatch for (%s, %s): pipeline (dim, height, n_vars) %s, theory %s"
            % (v, w, (dim, height, n_vars), chart_shape(v, w))
        )
    if H[0] != 1:
        raise RuntimeError("h-polynomial does not start at 1 for (%s, %s)" % (v, w))
    return HilbertData(v, w, n_vars, dim, height, K, H, basis.is_homogeneous(), chart_ideal, cone)
