"""The removable common 1s of a pair, checked against fresh charts.

A position p with v(p) = w(p) = a and as many h < p with v(h) > a as with
w(h) > a is a removable common 1 (Woo-Yong 2008).  Deleting every such
position and flattening what is left gives the pair's pattern
(`reg._pattern`).  The pair's chart ideal is then generated by the free
variables of the deleted rows and columns and by the pattern's chart ideal,
relabelled in an order-preserving way, so the pair's reduced grevlex basis,
H and homogeneity flag are read off its pattern.  These tests compare the
pattern with the pair's own chart, computed afresh by gb.hilbert_data and
gb.buchberger, outside the H and flag memos.
"""

import pytest

from conftest import rng

from schubreg import reg
from schubreg.gb import buchberger, hilbert_data
from schubreg.ideal import kl_generators, var_name
from schubreg.perm import Permutation, bruhat_leq, diagram, length
from schubreg.reg import _orbit, _pattern, scan_pairs


def removable(v, w):
    """The 0-based positions of the removable common 1s, by definition."""
    x, y = v.word, w.word
    return [
        p for p in range(v.n)
        if x[p] == y[p] and sum(c > x[p] for c in x[:p]) == sum(c > y[p] for c in y[:p])
    ]


def reducible_pairs(n):
    return [(v, w) for v, w in scan_pairs(n) if removable(v, w)]


def deleted_line_variables(v, gone):
    """The names of v's free cells in a deleted column or in its 1's row."""
    n, rows = v.n, {v.word[p] for p in gone}
    return {var_name(n - r + 1, j) for r, j in diagram(v) if j - 1 in gone or r in rows}


def relabelling(v, w):
    """Each pattern variable's name -> the name of the pair's cell it is."""
    n, gone = v.n, set(removable(v, w))
    cols = [p + 1 for p in range(n) if p not in gone]
    rows = sorted(v.word[p - 1] for p in cols)
    m = len(cols)
    return {
        var_name(m - r + 1, j): var_name(n - rows[r - 1] + 1, cols[j - 1])
        for r in range(1, m + 1)
        for j in range(1, m + 1)
    }


def named(poly, rename=None):
    """A polynomial as a frozenset of (sorted (name, exponent) pairs, coefficient)."""
    names = poly.ring.names
    if rename is not None:
        names = [rename[name] for name in names]
    return frozenset(
        (tuple(sorted((names[k], e) for k, e in enumerate(exps) if e)), c)
        for exps, c in poly.terms.items()
    )


def test_the_pattern_flattens_what_the_deletions_leave():
    assert _pattern(Permutation.from_string("1234"), Permutation.from_string("1423")) == (
        Permutation.from_string("123"),
        Permutation.from_string("312"),
    )
    # (241653, 642513) has one removable 1, at position 6
    assert _pattern(Permutation.from_string("241653"), Permutation.from_string("642513")) == (
        Permutation.from_string("23154"),
        Permutation.from_string("53241"),
    )
    point = Permutation.identity(1)
    for v in (Permutation.identity(4), Permutation.from_string("3142")):
        assert _pattern(v, v) == (point, point)
    v, w = Permutation.identity(4), Permutation.from_string("3412")
    assert not removable(v, w) and _pattern(v, w) == (v, w)


@pytest.mark.parametrize("n", [4, 5])
def test_a_pattern_is_a_pair_of_the_same_dimension_with_nothing_left_to_delete(n):
    for v, w in scan_pairs(n):
        pv, pw = _pattern(v, w)
        gone = removable(v, w)
        assert pv.n == max(n - len(gone), 1)
        assert bruhat_leq(pv, pw) and length(pw) - length(pv) == length(w) - length(v)
        assert not removable(pv, pw) or pv.n == 1
        assert _pattern(pv, pw) == (pv, pw)


@pytest.mark.parametrize("n", [4, 5])
def test_the_pattern_commutes_with_inversion_and_the_transpose(n):
    for v, w in scan_pairs(n):
        assert [_pattern(*pair) for pair in _orbit(v, w)] == _orbit(*_pattern(v, w))


@pytest.mark.parametrize("n", [4, 5])
def test_a_chart_basis_is_its_patterns_relabelled_plus_the_deleted_line_variables(n):
    pairs = reducible_pairs(n)
    assert len(pairs) == {4: 146, 5: 2485}[n]
    for v, w in pairs:
        pattern = _pattern(v, w)
        own = {named(g) for g in buchberger(kl_generators(v, w)).elements}
        rename = relabelling(v, w)
        lines = {frozenset([(((name, 1),), 1)]) for name in deleted_line_variables(v, removable(v, w))}
        read = {named(g, rename) for g in buchberger(kl_generators(*pattern)).elements}
        assert lines.isdisjoint(read) and own == lines | read, (v, w)


@pytest.mark.parametrize("n", [4, 5])
def test_each_reducible_chart_has_its_patterns_h_and_flag(n):
    for v, w in reducible_pairs(n):
        data, of_pattern = hilbert_data(v, w), hilbert_data(*_pattern(v, w))
        assert (data.H, data.homogeneous) == (of_pattern.H, of_pattern.homogeneous), (v, w)
        assert (reg._groebner_h(v, w), reg._homogeneous(v, w)) == (data.H, data.homogeneous)


def drawn_s6_pairs(count, seed):
    r = rng(seed)
    pairs = [(v, w) for v, w in reducible_pairs(6) if v is not w]
    assert len(pairs) == 60804
    return r.sample(pairs, count)


def assert_read_h_and_flag_match_fresh_charts(pairs):
    for v, w in pairs:
        data = hilbert_data(v, w)
        assert (reg._groebner_h(v, w), reg._homogeneous(v, w)) == (data.H, data.homogeneous), (v, w)


def test_a_sample_of_reducible_s6_pairs_reads_h_and_the_flag_off_the_pattern():
    assert_read_h_and_flag_match_fresh_charts(drawn_s6_pairs(3000, 40))


@pytest.mark.slow
def test_every_reducible_s6_pair_reads_h_and_the_flag_off_the_pattern():
    pairs = reducible_pairs(6)
    for v, w in scan_pairs(6):
        assert [_pattern(*pair) for pair in _orbit(v, w)] == _orbit(*_pattern(v, w))
    assert_read_h_and_flag_match_fresh_charts(pairs)
