"""Polynomial reduction kernel.

Terms travel as (key, raw, coeff) triples sorted by descending key; reducers
are prepared as (lm_key, lm_raw, lm_coeff, tail).  Coefficients are integers;
reduction is fraction-free, scaling the work polynomial by the smallest
integer that cancels each leading term, with periodic content stripping to
keep growth in check.  Results are defined up to a positive integer scalar;
callers normalize content and sign.

Callers look these functions up on this module at call time
(kernel.normal_form, not a from-import), so that a tracer installed from
outside the package can wrap them.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

from .orders import divides, raw_lcm

_STRIP_EVERY = 64
_STRIP_BITS = 4096


def implementation_name() -> str:
    """The kernel's name, recorded in scan caches and benchmark runs."""
    return "python"


def content_normalize(terms):
    """Divide by the content and make the leading coefficient positive."""
    if not terms:
        return terms
    g = 0
    for _, _, c in terms:
        g = gcd(g, c)
        if g == 1:
            break
    if terms[0][2] < 0:
        g = -g
    if g == 1:
        return terms
    return [(k, r, c // g) for (k, r, c) in terms]


def normal_form(fterms, reducers, corr, hmask):
    """Remainder of fterms under the prepared reducers.

    `reducers` must be sorted by ascending lm_key; the scan stops early
    because divisibility implies key order.  Returns a descending term list
    with content stripped and a positive leading coefficient.
    """
    acc: dict = {}
    heap = []
    for k, r, c in fterms:
        acc[r] = acc.get(r, 0) + c
        heap.append((-k, r))
    heapify(heap)
    out = []
    steps = 0
    while heap:
        nk, r = heappop(heap)
        c = acc.pop(r, 0)
        if not c:
            continue
        k = -nk
        hit = None
        for red in reducers:
            if red[0] > k:
                break
            if divides(red[1], r, hmask):
                hit = red
                break
        if hit is None:
            out.append((k, r, c))
            continue
        lk, lr, lc, tail = hit
        qk = k - lk + corr
        qr = r - lr
        g = gcd(c, lc)
        mf = lc // g
        mg = c // g
        if mf < 0:
            mf = -mf
            mg = -mg
        if mf != 1:
            for key in acc:
                acc[key] *= mf
            if out:
                out = [(a, b, cc * mf) for (a, b, cc) in out]
        for tk, tr, tc in tail:
            nr = tr + qr
            prev = acc.get(nr)
            if prev is None:
                acc[nr] = -mg * tc
                heappush(heap, (-(tk + qk - corr), nr))
            else:
                nv = prev - mg * tc
                if nv:
                    acc[nr] = nv
                else:
                    del acc[nr]
        steps += 1
        if steps % _STRIP_EVERY == 0 and acc:
            big = max(abs(v).bit_length() for v in acc.values())
            if big > _STRIP_BITS:
                g = 0
                for v in acc.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                for _, _, cc in out:
                    g = gcd(g, cc)
                    if g == 1:
                        break
                if g > 1:
                    acc = {key: v // g for key, v in acc.items()}
                    out = [(a, b, cc // g) for (a, b, cc) in out]
    return content_normalize(out)


def s_polynomial(p, q, pack):
    """S-polynomial of two prepared-or-plain term lists (descending)."""
    pk, pr, pc = p[0][0], p[0][1], p[0][2]
    qk, qr, qc = q[0][0], q[0][1], q[0][2]
    lcm = raw_lcm(pr, qr, pack.hmask)
    lk = pack.keyof(lcm)
    l = pc * qc // gcd(pc, qc)
    mp_c, mp_k, mp_r = l // pc, lk - pk + pack.corr, lcm - pr
    mq_c, mq_k, mq_r = l // qc, lk - qk + pack.corr, lcm - qr
    acc: dict = {}
    keys: dict = {}
    for tk, tr, tc in p:
        nr = tr + mp_r
        acc[nr] = acc.get(nr, 0) + mp_c * tc
        keys[nr] = tk + mp_k - pack.corr
    for tk, tr, tc in q:
        nr = tr + mq_r
        acc[nr] = acc.get(nr, 0) - mq_c * tc
        keys[nr] = tk + mq_k - pack.corr
    terms = [(keys[r], r, c) for r, c in acc.items() if c]
    terms.sort(reverse=True)
    return content_normalize(terms)
