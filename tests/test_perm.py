"""Permutation combinatorics against brute-force oracles."""

import copy
import itertools
import pickle
from math import comb

import pytest

from conftest import random_permutation_word, rng

import schubreg.perm as perm
from schubreg.perm import (
    Permutation,
    all_permutations,
    bruhat_interval,
    bruhat_leq,
    code_and_shape,
    contains_pattern,
    covers_below,
    diagram,
    essential_set,
    free_cell_count,
    is_covexillary,
    is_vexillary,
    length,
    permutation_from_reversed_code,
    rank_matrix,
    shape,
    sw_rank,
    w0_compose,
)

GOLDEN_V = Permutation((1, 4, 2, 3, 5, 7, 6))
GOLDEN_W = Permutation((7, 3, 1, 4, 5, 6, 2))


def brute_inversions(word):
    return sum(
        1
        for a in range(len(word))
        for b in range(a + 1, len(word))
        if word[a] > word[b]
    )


def brute_sw_rank(u, a, j):
    # entries u(h) for h <= j landing weakly above display row a,
    # i.e. u(h) >= a in bottom-up numbering
    return sum(1 for h in range(1, j + 1) if u(h) >= a)


def brute_pattern(word, pat):
    m = len(pat)
    for sub in itertools.combinations(word, m):
        order = tuple(sorted(range(m), key=lambda k: sub[k]))
        flat = tuple(order.index(k) + 1 for k in range(m))
        if flat == pat:
            return True
    return False


def bruhat_by_covers(n):
    """Transitive closure of length-increasing transposition covers."""
    perms = list(all_permutations(n))
    leq = {(w, w) for w in perms}
    frontier = list(leq)
    adj = {w: [] for w in perms}
    for w in perms:
        word = w.word
        for i in range(n):
            for j in range(i + 1, n):
                if word[i] < word[j]:
                    swapped = list(word)
                    swapped[i], swapped[j] = swapped[j], swapped[i]
                    up = Permutation(tuple(swapped))
                    if length(up) == length(w) + 1:
                        adj[w].append(up)
    while frontier:
        v, w = frontier.pop()
        for up in adj[w]:
            if (v, up) not in leq:
                leq.add((v, up))
                frontier.append((v, up))
    return leq


def test_basics():
    w = Permutation((3, 1, 2))
    assert w(1) == 3 and w(3) == 2
    assert w.inverse() == Permutation((2, 3, 1))
    assert length(w) == 2
    assert Permutation.identity(4) is Permutation((1, 2, 3, 4))
    assert Permutation.longest(4) == Permutation((4, 3, 2, 1))
    assert Permutation.from_string("7314562") == GOLDEN_W
    assert Permutation.from_string("7,3,1,4,5,6,2") == GOLDEN_W
    assert str(GOLDEN_V) == "1423576"


def test_one_object_per_word():
    for word in itertools.permutations(range(1, 5)):
        w = Permutation(word)
        assert w is Permutation(list(word))
        assert w is Permutation(iter(word))
        assert w is Permutation.from_string(str(w))
        assert w.n == 4 and w.word == word
    assert Permutation.identity(5) is Permutation((1, 2, 3, 4, 5))
    assert str(Permutation(tuple(range(10, 0, -1)))) == "10,9,8,7,6,5,4,3,2,1"


def test_pickling_and_copying_give_back_the_interned_object():
    w = Permutation((3, 1, 4, 2))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(w, protocol)) is w
    assert copy.copy(w) is w and copy.deepcopy([w])[0] is w


def test_an_invalid_word_raises_every_time_and_is_never_stored():
    size = len(perm._INTERNED)
    for word in [(1, 1, 3), (0, 1, 2), (2, 3), [1, 3]]:
        for _ in range(2):
            with pytest.raises(ValueError, match="not a permutation"):
                Permutation(word)
    assert len(perm._INTERNED) == size


def test_permutations_are_immutable():
    w = Permutation((2, 1, 3))
    for name, value in [("word", (1, 2, 3)), ("n", 4), ("other", 0)]:
        with pytest.raises(AttributeError):
            setattr(w, name, value)
    with pytest.raises(AttributeError):
        del w.word
    assert w.word == (2, 1, 3) and w.n == 3 and str(w) == "213"


def test_equality_and_hash_agree_with_word_equality_on_s4():
    words = list(itertools.permutations(range(1, 5)))
    for a in words:
        for b in words:
            x, y = Permutation(a), Permutation(list(b))
            assert (x == y) == (a == b) and (x != y) == (a != b)
            if a == b:
                assert hash(x) == hash(y)
    assert len({Permutation(list(a)) for a in words + words}) == 24
    assert Permutation((1, 2)) != (1, 2)


def test_length_matches_inversion_count():
    r = rng(101)
    for _ in range(60):
        n = r.randint(1, 8)
        word = random_permutation_word(r, n)
        assert length(Permutation(word)) == brute_inversions(word)


def test_right_s_and_first_ascent():
    w = Permutation((2, 1, 3))
    assert w.right_s(1) == Permutation((1, 2, 3))
    assert w.right_s(2) == Permutation((2, 3, 1))
    assert w.first_ascent() == 2
    assert Permutation.longest(5).first_ascent() is None
    assert Permutation.identity(3).first_ascent() == 1


def test_out_of_range_positions_raise_index_error():
    u = Permutation((2, 3, 1))
    for i in (0, 4):
        with pytest.raises(IndexError, match="out of range"):
            u(i)
    for i in (0, 3):
        with pytest.raises(IndexError, match="out of range"):
            u.right_s(i)
    for a, j in ((0, 1), (4, 1), (1, 0), (1, 4)):
        with pytest.raises(IndexError, match="outside the 3 x 3 grid"):
            sw_rank(u, a, j)


def test_sw_rank_matches_brute_force():
    r = rng(102)
    for _ in range(40):
        n = r.randint(2, 7)
        u = Permutation(random_permutation_word(r, n))
        for a in range(1, n + 1):
            for j in range(1, n + 1):
                assert sw_rank(u, a, j) == brute_sw_rank(u, a, j)


def test_rank_matrix_agrees_with_sw_rank():
    u = Permutation((3, 1, 4, 2))
    mat = rank_matrix(u)
    for a in range(1, 5):
        for j in range(1, 5):
            assert mat[a - 1][j - 1] == sw_rank(u, a, j)


def test_bruhat_leq_matches_cover_closure():
    for n in (2, 3, 4):
        oracle = bruhat_by_covers(n)
        perms = list(all_permutations(n))
        for v in perms:
            for w in perms:
                assert bruhat_leq(v, w) == ((v, w) in oracle), (v, w)


def rank_table(u):
    """Every southwest rank of u, straight off the definition."""
    return [brute_sw_rank(u, a, j) for a in range(1, u.n + 1) for j in range(1, u.n + 1)]


def ranks_leq(table_v, table_w):
    """Bruhat order by definition: every rank of v is at most w's."""
    return all(a <= b for a, b in zip(table_v, table_w))


def assert_packed_order_matches_ranks_on_all_of(n):
    perms = list(all_permutations(n))
    tables = {u: rank_table(u) for u in perms}
    for v in perms:
        for w in perms:
            assert bruhat_leq(v, w) == ranks_leq(tables[v], tables[w]), (v, w)


@pytest.mark.parametrize("n", [4, 5])
def test_packed_bruhat_leq_matches_the_rank_definition(n):
    assert_packed_order_matches_ranks_on_all_of(n)


def test_packed_bruhat_leq_matches_the_rank_definition_on_s6():
    assert_packed_order_matches_ranks_on_all_of(6)


@pytest.mark.parametrize("n", [7, 8, 15, 16])
def test_packed_bruhat_leq_matches_the_rank_definition_across_field_widths(n):
    # the packed fields are n.bit_length() + 1 bits wide: 4 bits at n = 7,
    # 5 at n = 8 and 15, 6 at n = 16
    r = rng(104 + n)
    e, w0 = Permutation.identity(n), Permutation.longest(n)
    pairs = [(e, w0), (w0, e), (e, e), (w0, w0)]
    for _ in range(150):
        w = Permutation(random_permutation_word(r, n))
        # a length-lowering transposition walk from w stays below w
        word = list(w.word)
        for _ in range(r.randint(1, 3)):
            i, j = sorted(r.sample(range(n), 2))
            if word[i] > word[j]:
                word[i], word[j] = word[j], word[i]
        v = Permutation(tuple(word))
        other = Permutation(random_permutation_word(r, n))
        pairs += [(v, w), (w, v), (other, w)]
    outcomes = set()
    for v, w in pairs:
        expected = ranks_leq(rank_table(v), rank_table(w))
        assert bruhat_leq(v, w) == expected, (v, w)
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_bruhat_interval_counts():
    interval = bruhat_interval(
        Permutation((1, 2, 3)), Permutation((3, 2, 1))
    )
    assert len(interval) == 6
    small = bruhat_interval(Permutation((2, 1, 3)), Permutation((3, 1, 2)))
    assert small == frozenset(
        {Permutation((2, 1, 3)), Permutation((3, 1, 2))}
    )


def test_covers_below_matches_the_length_filter():
    for n in (3, 4, 5):
        perms = list(all_permutations(n))
        for w in perms:
            expected = {
                u for u in perms if length(u) == length(w) - 1 and bruhat_leq(u, w)
            }
            covers = covers_below(w)
            assert len(covers) == len(expected) and set(covers) == expected, w


def test_bruhat_interval_matches_the_filter_on_s5():
    # the oracle filters all of S_5: u is in [v, w] when v <= u and u <= w
    perms = list(all_permutations(5))
    above = {v: {u for u in perms if bruhat_leq(v, u)} for v in perms}
    below = {w: {u for u in perms if bruhat_leq(u, w)} for w in perms}
    pairs = 0
    for w in perms:
        for v in below[w]:
            assert bruhat_interval(v, w) == above[v] & below[w], (v, w)
            pairs += 1
    assert pairs == 3781


def test_an_interval_above_the_identity_compares_nothing_with_it(monkeypatch):
    perms = list(all_permutations(5))
    e = Permutation.identity(5)
    expected = {w: frozenset(u for u in perms if bruhat_leq(u, w)) for w in perms}
    compare = perm.bruhat_leq
    calls = []

    def counting_bruhat_leq(v, w):
        calls.append((v, w))
        return compare(v, w)

    monkeypatch.setattr(perm, "bruhat_leq", counting_bruhat_leq)
    for w in perms:
        calls.clear()
        assert bruhat_interval(e, w) == expected[w], w
        assert calls == [(e, w)], w  # require_bruhat's own test


def test_pattern_containment_matches_brute_force():
    r = rng(103)
    pats = [(3, 4, 1, 2), (2, 1, 4, 3), (1, 3, 2), (3, 2, 1)]
    for _ in range(60):
        n = r.randint(3, 7)
        word = random_permutation_word(r, n)
        w = Permutation(word)
        for pat in pats:
            if len(pat) > n:
                continue
            assert contains_pattern(w, Permutation(pat)) == brute_pattern(
                word, pat
            )


def test_vexillary_covexillary_duality_and_counts():
    # w0-composition swaps the 2143 and 3412 classes
    for n in (3, 4, 5):
        cov = 0
        vex = 0
        for w in all_permutations(n):
            if is_covexillary(w):
                cov += 1
                assert is_vexillary(w0_compose(w))
            if is_vexillary(w):
                vex += 1
        assert cov == vex
    assert sum(1 for w in all_permutations(4) if is_covexillary(w)) == 23
    assert sum(1 for w in all_permutations(5) if is_vexillary(w)) == 103
    assert not is_covexillary(Permutation((3, 4, 1, 2)))
    assert not is_vexillary(Permutation((2, 1, 4, 3)))


def test_diagram_size_complements_length():
    r = rng(104)
    for _ in range(40):
        n = r.randint(1, 7)
        w = Permutation(random_permutation_word(r, n))
        assert len(diagram(w)) == comb(n, 2) - length(w)
    assert diagram(Permutation.longest(5)) == frozenset()


def test_diagram_membership_rule():
    w = GOLDEN_W
    inv = w.inverse()
    expect = frozenset(
        (i, j)
        for i in range(1, 8)
        for j in range(1, 8)
        if i > w(j) and j < inv(i)
    )
    assert diagram(w) == expect


def test_essential_set_golden():
    assert sorted(essential_set(GOLDEN_W)) == [(2, 3), (4, 3), (5, 4), (6, 5)]
    # essential boxes are the ones with no diagram box north or east
    d = diagram(GOLDEN_W)
    for (i, j) in essential_set(GOLDEN_W):
        assert (i - 1, j) not in d and (i, j + 1) not in d


def test_code_and_shape_golden():
    code, lam = code_and_shape(GOLDEN_W)
    assert code == (0, 4, 3, 2, 0, 1, 0)
    assert lam == (4, 3, 2, 1)
    assert sum(lam) == comb(7, 2) - length(GOLDEN_W)
    assert shape(GOLDEN_W) == lam


def test_reversed_code_round_trip():
    r = rng(105)
    for _ in range(40):
        n = r.randint(1, 8)
        w = Permutation(random_permutation_word(r, n))
        code, _ = code_and_shape(w)
        assert permutation_from_reversed_code(code) == w


def test_reversed_code_rejects_an_entry_past_its_lehmer_bound():
    # the first of three entries counts at most 2 smaller values after it
    with pytest.raises(ValueError, match="not a valid Lehmer value"):
        permutation_from_reversed_code((3, 0, 0))


def test_w0_compose_properties():
    r = rng(106)
    for _ in range(30):
        n = r.randint(1, 7)
        w = Permutation(random_permutation_word(r, n))
        ww = w0_compose(w)
        assert w0_compose(ww) == w
        assert length(ww) == comb(n, 2) - length(w)


def test_free_cell_count():
    assert free_cell_count(Permutation.identity(5)) == comb(5, 2)
    assert free_cell_count(GOLDEN_V) == 18
    assert free_cell_count(Permutation.longest(6)) == 0
