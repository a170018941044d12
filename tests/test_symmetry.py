"""The symmetries of a chart, checked on the pipeline with the memos cold.

Inversion iota(v, w) = (v^-1, w^-1) and the transpose tau(v, w) =
(w0 v^-1 w0, w0 w^-1 w0) carry the germ of X_w at e_v to another chart's
germ, so H, the tableau regularity and P_{v,w} are the same on a pair's
orbit.  The chart ideals differ: tau only relabels the variables, iota gives
another ideal altogether.  So these tests compare the Groebner pipeline with
itself on ideals that the chart memo would otherwise never compute, and they
call gb.hilbert_data directly, outside that memo.
"""

import pytest

from schubreg.gb import hilbert_data
from schubreg.perm import Permutation, is_covexillary
from schubreg.reg import kl_polynomial, scan_pairs
from schubreg.shapes import regularity_formula


def inverse(v, w):
    return v.inverse(), w.inverse()


def w0_conjugate(u):
    """w0 u w0, from its definition: i -> n + 1 - u(n + 1 - i)."""
    n = u.n
    return Permutation(tuple(n + 1 - u(n + 1 - i) for i in range(1, n + 1)))


def transpose(v, w):
    return w0_conjugate(v.inverse()), w0_conjugate(w.inverse())


def charts_of(n):
    """(H, homogeneous) of every Bruhat pair of S_n, each computed afresh."""
    out = {}
    for v, w in scan_pairs(n):
        data = hilbert_data(v, w)
        out[(v, w)] = (data.H, data.homogeneous)
    return out


@pytest.fixture(scope="module")
def s5_charts():
    return charts_of(5)


def test_transpose_and_inverse_are_involutions_on_the_s5_pairs(s5_charts):
    for pair in s5_charts:
        assert transpose(*transpose(*pair)) == pair
        assert inverse(*inverse(*pair)) == pair
        assert transpose(*pair) in s5_charts and inverse(*pair) in s5_charts


def test_h_is_constant_on_every_s5_orbit(s5_charts):
    for pair, (H, _) in s5_charts.items():
        assert s5_charts[inverse(*pair)][0] == H, pair
        assert s5_charts[transpose(*pair)][0] == H, pair


def test_the_flag_is_shared_by_a_transpose_class_only(s5_charts):
    for pair, (_, homogeneous) in s5_charts.items():
        assert s5_charts[transpose(*pair)][1] == homogeneous, pair
    differ = sum(
        1 for pair, (_, flag) in s5_charts.items() if s5_charts[inverse(*pair)][1] != flag
    )
    assert differ > 0
    # inversion changes the flag already in S4
    e = Permutation.identity(4)
    assert inverse(e, Permutation.from_string("1342")) == (e, Permutation.from_string("1423"))
    assert hilbert_data(e, Permutation.from_string("1342")).homogeneous
    assert not hilbert_data(e, Permutation.from_string("1423")).homogeneous


def test_formula_and_kl_are_constant_on_every_covexillary_s5_orbit():
    for v, w in scan_pairs(5):
        if not is_covexillary(w):
            continue
        reg, kl = regularity_formula(v, w), kl_polynomial(v, w)
        for image in (inverse(v, w), transpose(v, w), transpose(*inverse(v, w))):
            assert is_covexillary(image[1]), image
            assert regularity_formula(*image) == reg, (v, w, image)
            assert kl_polynomial(*image) == kl, (v, w, image)


@pytest.mark.slow
def test_h_is_constant_under_inversion_on_every_s6_pair():
    charts = charts_of(6)
    for pair, (H, _) in charts.items():
        assert charts[inverse(*pair)][0] == H, pair


def test_the_memo_orbit_matches_the_definitions_on_s4():
    from schubreg.reg import _orbit

    for v, w in scan_pairs(4):
        orbit = [(v, w), transpose(v, w), inverse(v, w), transpose(*inverse(v, w))]
        assert _orbit(v, w) == orbit
