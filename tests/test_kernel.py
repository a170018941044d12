"""Packed-monomial kernel against tuple-based reference implementations."""

import math

import pytest

from conftest import (
    ref_grevlex_less,
    ref_grevlex_t_less,
    rng,
)

from schubreg import kernel
from schubreg.kernel import FIELD, MAX_EXP, OrderPack, assert_exponent


def random_exps(r, nvars, max_e=9):
    return tuple(r.randint(0, max_e) for _ in range(nvars))


def tuple_divides(d, m):
    return all(a <= b for a, b in zip(d, m))


def tuple_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def test_pack_unpack_round_trip():
    r = rng(301)
    for _ in range(200):
        nvars = r.randint(1, 6)
        pack = OrderPack(nvars)
        e = random_exps(r, nvars, max_e=2000)
        assert pack.unpack(pack.pack(e)) == e
        assert pack.degree_of_raw(pack.pack(e)) == sum(e)


def test_exponent_overflow_guard():
    assert_exponent(0)
    assert_exponent((1 << 14) - 1)
    with pytest.raises(OverflowError):
        assert_exponent(1 << 14)
    with pytest.raises(OverflowError):
        assert_exponent(-1)


def test_a_key_wants_one_exponent_per_variable():
    with pytest.raises(ValueError, match="expected 2 exponents"):
        OrderPack(2).key_from_exps((1,))


def test_keys_realize_reference_orders():
    r = rng(302)
    refs = {
        "grevlex": ref_grevlex_less,
        "grevlex_t": ref_grevlex_t_less,
    }
    for kind, less in refs.items():
        for _ in range(300):
            nvars = r.randint(1 if kind != "grevlex_t" else 2, 6)
            pack = OrderPack(nvars, kind)
            a, b = random_exps(r, nvars), random_exps(r, nvars)
            ka, kb = pack.key_from_exps(a), pack.key_from_exps(b)
            assert (ka < kb) == less(a, b), (kind, a, b)
            assert (ka == kb) == (a == b)


def test_zero_variable_pack_is_all_zero():
    pack = OrderPack(0)
    assert (pack.pack(()), pack.key_from_exps(()), pack.hmask, pack.corr) == (0, 0, 0, 0)
    assert pack.unpack(0) == ()
    assert kernel.divides(0, 0, pack.hmask)
    # grevlex_t needs its homogenization variable
    with pytest.raises(ValueError):
        OrderPack(0, "grevlex_t")


def test_key_is_multiplicative_up_to_corr():
    # key(m1*m2) = key(m1) + key(m2) - corr, the backbone of the reducers
    r = rng(304)
    for kind in ("grevlex", "grevlex_t"):
        for _ in range(100):
            nvars = r.randint(2, 5)
            pack = OrderPack(nvars, kind)
            a, b = random_exps(r, nvars, 5), random_exps(r, nvars, 5)
            prod = tuple(x + y for x, y in zip(a, b))
            assert (
                pack.key_from_exps(prod)
                == pack.key_from_exps(a) + pack.key_from_exps(b) - pack.corr
            )


def test_divides_and_lcm_match_tuple_oracle():
    r = rng(305)
    for _ in range(300):
        nvars = r.randint(1, 6)
        pack = OrderPack(nvars)
        a, b = random_exps(r, nvars), random_exps(r, nvars)
        ra, rb = pack.pack(a), pack.pack(b)
        assert kernel.divides(ra, rb, pack.hmask) == tuple_divides(a, b)
        assert pack.unpack(kernel.raw_lcm(ra, rb, pack.hmask)) == tuple_lcm(
            a, b
        )


def test_keyof_matches_key_from_exps():
    r = rng(306)
    for kind in ("grevlex", "grevlex_t"):
        pack = OrderPack(4, kind)
        for _ in range(50):
            e = random_exps(r, 4)
            assert pack.keyof(pack.pack(e)) == pack.key_from_exps(e)


def test_keyof_and_degree_match_unpacked_reference():
    r = rng(310)
    for kind in ("grevlex", "grevlex_t"):
        for nvars in range(1 if kind == "grevlex_t" else 0, 24):
            pack = OrderPack(nvars, kind)
            samples = [random_exps(r, nvars, r.choice((3, 300))) for _ in range(40)]
            if nvars:
                # every field at once near the total-degree limit
                top = [0] * nvars
                top[r.randrange(nvars)] = MAX_EXP - 1
                samples += [tuple(top), tuple([(MAX_EXP - 1) // nvars] * nvars)]
            for e in samples:
                raw = pack.pack(e)
                assert pack.keyof(raw) == pack.key_from_exps(pack.unpack(raw))
                assert pack.degree_of_raw(raw) == sum(e)


def test_total_degree_guard():
    # degree_of_raw sums the fields in one, so the total must stay in range
    pack = OrderPack(3)
    below = (MAX_EXP - 3, 1, 1)
    assert pack.degree_of_raw(pack.pack(below)) == MAX_EXP - 1
    assert pack.key_degree(pack.key_from_exps(below)) == MAX_EXP - 1
    at = (MAX_EXP - 2, 1, 1)
    with pytest.raises(OverflowError):
        pack.pack(at)
    with pytest.raises(OverflowError):
        pack.key_from_exps(at)


def _linear_scan(prepared, r, hmask):
    """The first divisor by ascending leading key; `prepared` is sorted
    stably, so ties keep their insertion order."""
    for red in prepared:
        if kernel.divides(red[1], r, hmask):
            return red
    return None


def _sparse_exps(r, nvars, density, max_e):
    return tuple(r.randint(1, max_e) if r.random() < density else 0 for _ in range(nvars))


def test_reducer_index_matches_linear_scan():
    # sparse leading monomials in 1 to 23 variables, ties in leading key included
    r = rng(311)
    hits = 0
    for nvars in (1, 3, 4, 5, 8, 9, 16, 17, 22, 23):
        pack = OrderPack(nvars)
        for _ in range(15):
            term_lists = []
            for _ in range(r.randint(0, 40)):
                lead = _sparse_exps(r, nvars, r.choice((0.1, 0.3)), 2)
                tail = [(k, raw, 1) for (k, raw, _) in _random_terms(r, pack, 2, 1)]
                term_lists.append([(pack.key_from_exps(lead), pack.pack(lead), 2)] + tail)
            reducers = kernel.Reducers(pack.hmask, term_lists)
            prepared = sorted(
                ((t[0][0], t[0][1], t[0][2], tuple(t[1:])) for t in term_lists),
                key=lambda red: red[0],
            )
            assert reducers.entries == [
                (t[0][0], t[0][1], t[0][2], tuple(t[1:])) for t in term_lists
            ]
            for _ in range(30):
                m = _sparse_exps(r, nvars, 0.6, 3)
                raw = pack.pack(m)
                hit = reducers.find(raw)
                assert hit == _linear_scan(prepared, raw, pack.hmask)
                dividing = [
                    pos
                    for pos, t in enumerate(term_lists)
                    if tuple_divides(pack.unpack(t[0][1]), m)
                ]
                assert sorted(reducers.divisors(raw)) == dividing
                hits += hit is not None
    assert hits > 500


def _random_terms(r, pack, nterms=4, max_e=4, max_c=9):
    seen = {}
    for _ in range(nterms):
        e = random_exps(r, pack.nvars, max_e)
        c = r.randint(-max_c, max_c)
        if c:
            seen[e] = seen.get(e, 0) + c
    terms = [
        (pack.key_from_exps(e), pack.pack(e), c)
        for e, c in seen.items()
        if c
    ]
    terms.sort(reverse=True)
    return terms


def _content_is_one(terms):
    g = 0
    for _, _, c in terms:
        g = math.gcd(g, c)
    return g == 1


def test_content_normalize():
    pack = OrderPack(2)
    key = pack.key_from_exps
    raw = pack.pack
    terms = [(key((2, 0)), raw((2, 0)), -6), (key((0, 1)), raw((0, 1)), -9)]
    out = kernel.content_normalize(list(terms))
    assert out == [(key((2, 0)), raw((2, 0)), 2), (key((0, 1)), raw((0, 1)), 3)]
    assert kernel.content_normalize([]) == []


def test_normal_form_by_monomial_reducers_drops_divisible_terms():
    # reduction by a monomial basis just deletes reducible monomials
    r = rng(307)
    for _ in range(100):
        nvars = r.randint(1, 4)
        pack = OrderPack(nvars)
        f = _random_terms(r, pack, nterms=6)
        if not f:
            continue
        lead_exps = {random_exps(r, nvars, 3) for _ in range(r.randint(1, 3))}
        reducers = [
            [(pack.key_from_exps(e), pack.pack(e), 1)] for e in lead_exps
        ]
        reducers.sort(key=lambda t: t[0][0])
        prepared = kernel.Reducers(pack.hmask, reducers)
        got = kernel.normal_form(list(f), prepared)
        kept = [
            (k, m, c)
            for (k, m, c) in f
            if not any(
                tuple_divides(e, pack.unpack(m)) for e in lead_exps
            )
        ]
        if kept:
            kept = kernel.content_normalize(kept)
            if kept[0][2] < 0:
                kept = [(k, m, -c) for (k, m, c) in kept]
        assert got == kept
        if got:
            assert got[0][2] > 0 and _content_is_one(got)


def test_normal_form_certifies_membership_of_multiples():
    # m * g reduces to zero against the one-element basis {g}
    r = rng(308)
    for _ in range(50):
        nvars = r.randint(1, 3)
        pack = OrderPack(nvars)
        g = _random_terms(r, pack, nterms=3)
        if not g:
            continue
        m = random_exps(r, nvars, 3)
        mk, mr = pack.key_from_exps(m), pack.pack(m)
        prod = [(k + mk - pack.corr, raw + mr, c) for (k, raw, c) in g]
        prepared = kernel.Reducers(pack.hmask, [g])
        assert (
            kernel.normal_form(prod, prepared) == []
        )


def test_s_polynomial_cancels_leading_terms():
    r = rng(309)
    pack = OrderPack(3)
    for _ in range(60):
        p = _random_terms(r, pack, nterms=4)
        q = _random_terms(r, pack, nterms=4)
        if not p or not q:
            continue
        s = kernel.s_polynomial(p, q, pack)
        lcm_key = pack.keyof(
            kernel.raw_lcm(p[0][1], q[0][1], pack.hmask)
        )
        if s:
            assert s[0][0] < lcm_key
            assert _content_is_one(s)

