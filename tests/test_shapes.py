"""Companion permutation and the diagonal tableau rule."""

import pytest

from conftest import rng, random_permutation_word

from schubreg import shapes
from schubreg.perm import (
    Permutation,
    all_permutations,
    bruhat_interval,
    bruhat_leq,
    code_and_shape,
    diagram,
    essential_set,
    is_covexillary,
    length,
    shape,
    sw_rank,
)
from schubreg.shapes import (
    NotCovexillaryError,
    companion,
    companion_permutation,
    covexillary_rank_filling,
    diag_level_sum,
    level_components,
    longest_diagonal,
    push_to_partition,
    regularity_formula,
)

GOLDEN_V = Permutation((1, 4, 2, 3, 5, 7, 6))
GOLDEN_W = Permutation((7, 3, 1, 4, 5, 6, 2))


def pair_filling(v, w):
    """The rank filling of the companion of (v, w): the tableau rule's input."""
    return covexillary_rank_filling(companion_permutation(v, w))


def row_lengths(cells):
    """Row lengths of a French diagram of grid cells, bottom row first."""
    counts = {}
    for (r, _) in cells:
        counts[r] = counts.get(r, 0) + 1
    return tuple(counts[r] for r in sorted(counts, reverse=True))


def moved_boxes(v, w):
    """Each essential box of w moved rho = R_v(e) steps southwest, with its
    imposed rank R_w(e) - rho."""
    moved = []
    for (i, j) in sorted(essential_set(w)):
        rho = sw_rank(v, i, j)
        moved.append(((i + rho, j - rho), sw_rank(w, i, j) - rho))
    return tuple(moved)


def covexillary_pairs(n):
    for w in all_permutations(n):
        if not is_covexillary(w):
            continue
        for v in all_permutations(n):
            if bruhat_leq(v, w):
                yield v, w


def test_longest_diagonal():
    assert longest_diagonal([]) == 0
    assert longest_diagonal([(1, 1), (2, 2), (3, 3)]) == 3
    # diagonals are the i - j levels; gaps inside one level still count
    assert longest_diagonal([(1, 1), (3, 3)]) == 2
    assert longest_diagonal([(1, 1), (1, 2), (2, 1)]) == 1
    assert longest_diagonal([(2, 1), (3, 2), (1, 1)]) == 2


def test_push_to_partition_staircase():
    # boxes already SW-justified stay put
    boxes = [(3, 1), (2, 1), (3, 2)]
    phi = push_to_partition(boxes, 3)
    assert row_lengths(phi) == (2, 1)
    assert set(phi) == set(boxes)
    # pushing slides each box along its antidiagonal
    for cell, src in phi.items():
        assert cell[0] + cell[1] == src[0] + src[1]


@pytest.mark.parametrize(
    "boxes",
    [
        [(3, 1), (3, 3)],  # a gap in the bottom row
        [(2, 1)],  # nothing in the bottom row
        [(3, 1), (2, 1), (1, 3)],  # a row longer than the one below it
    ],
)
def test_push_to_partition_rejects_a_result_that_is_not_an_anchored_young_diagram(boxes):
    with pytest.raises(RuntimeError, match="anchored Young diagram"):
        push_to_partition(boxes, 3)


@pytest.mark.parametrize("n", [5, 6])
def test_push_to_partition_gives_the_shape_of_every_covexillary_u(n):
    for u in all_permutations(n):
        if not is_covexillary(u):
            continue
        phi = push_to_partition(diagram(u), n)
        lam = row_lengths(phi)
        assert lam == code_and_shape(u)[1], u
        # the French diagram of lam: row k from the bottom is grid row n - k
        assert set(phi) == {(n - k, c) for k, part in enumerate(lam) for c in range(1, part + 1)}, u
        assert set(phi.values()) == diagram(u), u
        assert all(cell[0] + cell[1] == src[0] + src[1] for cell, src in phi.items()), u


def test_companion_golden_values():
    kappa = companion_permutation(GOLDEN_V, GOLDEN_W)
    assert kappa == Permutation((3, 4, 7, 2, 5, 6, 1))
    moved = moved_boxes(GOLDEN_V, GOLDEN_W)
    assert moved == (((4, 1), 0), ((5, 2), 0), ((5, 4), 1), ((6, 5), 1))
    assert all(sw_rank(kappa, *box) == rank for box, rank in moved)


def companion_by_search(v, w, candidates):
    """The companion as the one permutation of S_n with its defining properties.

    `candidates` maps (length, shape) to the covexillary permutations of S_n
    with that length and shape; the imposed ranks pick one of them.
    """
    moved = moved_boxes(v, w)
    found = [
        u
        for u in candidates[(length(w), shape(w))]
        if all(sw_rank(u, i, j) == rank for (i, j), rank in moved)
    ]
    assert len(found) == 1, (v, w, found)
    return found[0]


def check_companion_against_search(n, expected_pairs):
    candidates = {}
    for u in all_permutations(n):
        if is_covexillary(u):
            candidates.setdefault((length(u), shape(u)), []).append(u)
    count = 0
    for v, w in covexillary_pairs(n):
        assert companion_permutation(v, w) == companion_by_search(v, w, candidates), (v, w)
        count += 1
    assert count == expected_pairs


def test_companion_matches_the_search_on_s5():
    check_companion_against_search(5, 2967)


@pytest.mark.slow
def test_companion_matches_the_search_on_s6():
    check_companion_against_search(6, 57847)


def test_companion_is_w_exactly_when_no_box_moves():
    # rho = rank of v at an essential box; kappa equals w iff every rho is 0
    for n in (3, 4):
        for v, w in covexillary_pairs(n):
            rhos = [sw_rank(v, i, j) for (i, j) in essential_set(w)]
            kappa = companion_permutation(v, w)
            if all(r == 0 for r in rhos):
                assert kappa == w
            else:
                assert kappa != w


def test_companion_structural_invariants():
    for v, w in covexillary_pairs(4):
        kappa = companion_permutation(v, w)
        assert is_covexillary(kappa)
        assert shape(kappa) == shape(w)
        assert length(kappa) >= length(w)
    # a couple of S5 spot checks
    r = rng(401)
    pairs = [p for p in covexillary_pairs(5)]
    for v, w in r.sample(pairs, 60):
        kappa = companion_permutation(v, w)
        assert is_covexillary(kappa)
        assert shape(kappa) == shape(w)


def test_companion_moved_boxes_carry_the_new_ranks():
    # each essential box e of w, shifted SW by rho = rank of v there,
    # must see rank(w at e) - rho in the companion
    for v, w in covexillary_pairs(4):
        kappa = companion_permutation(v, w)
        for (box, target) in moved_boxes(v, w):
            i, j = box
            assert sw_rank(kappa, i, j) == target


def test_rank_filling_golden_rows():
    f = pair_filling(GOLDEN_V, GOLDEN_W)
    assert row_lengths(f) == (4, 3, 2, 1)
    rows = {}
    for (r, c), val in f.items():
        rows.setdefault(r, {})[c] = val
    listed = [
        [rows[r][c] for c in sorted(rows[r])] for r in sorted(rows)
    ]
    assert listed == [[0], [0, 0], [0, 0, 1], [0, 0, 1, 1]]


def test_covexillary_rank_filling_structure():
    for w in all_permutations(4):
        if not is_covexillary(w):
            continue
        own = covexillary_rank_filling(w)
        assert row_lengths(own) == shape(w)
        assert all(val >= 0 for val in own.values())
        assert len(own) == sum(shape(w))


def test_pair_filling_goes_through_the_companion():
    # the pair reaches the rule only through kappa, whose filling has the
    # shape of w
    for v, w in covexillary_pairs(4):
        own = covexillary_rank_filling(companion_permutation(v, w))
        assert row_lengths(own) == shape(w)
        assert regularity_formula(v, w) == diag_level_sum(own)


def test_level_components_and_diag_sum():
    f = pair_filling(GOLDEN_V, GOLDEN_W)
    # level 1: the three boxes with entry 1 form one component whose
    # longest diagonal has two boxes, and that is the whole sum
    comps = level_components(f, 1)
    assert comps == [frozenset({(6, 3), (7, 3), (7, 4)})]
    assert longest_diagonal(comps[0]) == 2
    assert level_components(f, 2) == []
    assert diag_level_sum(f) == 2
    assert diag_level_sum(f) == regularity_formula(GOLDEN_V, GOLDEN_W)


def test_regularity_formula_values():
    assert regularity_formula(GOLDEN_V, GOLDEN_W) == 2
    assert regularity_formula(Permutation.identity(7), GOLDEN_W) == 3
    for n in (2, 3, 4):
        for w in all_permutations(n):
            if is_covexillary(w):
                assert regularity_formula(w, w) == 0


def test_regularity_formula_rejects_bad_input():
    with pytest.raises(NotCovexillaryError):
        regularity_formula(
            Permutation.identity(4), Permutation((3, 4, 1, 2))
        )
    with pytest.raises(ValueError):
        regularity_formula(Permutation((2, 1, 3)), Permutation((1, 2, 3)))


def test_rank_filling_rejects_a_3412_containing_permutation():
    with pytest.raises(NotCovexillaryError, match="contains 3412"):
        covexillary_rank_filling(Permutation((3, 4, 1, 2)))


def test_filling_is_weakly_increasing_down_diagonals():
    # rank entries grow weakly toward the northeast along each diagonal
    r = rng(402)
    pairs = list(covexillary_pairs(5))
    for v, w in r.sample(pairs, 80):
        f = pair_filling(v, w)
        by_diag = {}
        for (i, j), val in f.items():
            by_diag.setdefault(i - j, []).append(((i, j), val))
        for boxes in by_diag.values():
            boxes.sort()
            vals = [val for _, val in boxes]
            assert vals == sorted(vals)


@pytest.mark.parametrize("n", [5, pytest.param(6, marks=pytest.mark.slow)])
def test_the_companion_memo_matches_a_fresh_companion(n):
    # pairs of one w share the memo, so a key missing an essential box
    # hands some pair another pair's companion
    for v, w in covexillary_pairs(n):
        assert companion(v, w) is companion_permutation.__wrapped__(v, w), (v, w)
        assert regularity_formula(v, w) == diag_level_sum(pair_filling(v, w)), (v, w)


def test_a_companion_memo_hit_still_rejects_pairs_out_of_bruhat_order():
    # R_v <= R_w on Ess(w) already gives v <= w (Fulton 1992); a v of
    # another size is rejected whatever its packed ranks
    s4, s5 = list(all_permutations(4)), list(all_permutations(5))
    for w in s5:
        if not is_covexillary(w):
            continue
        for v in s5:
            if bruhat_leq(v, w):
                companion(v, w)
        for v in s4 + [v for v in s5 if not bruhat_leq(v, w)]:
            with pytest.raises(ValueError):
                companion(v, w)


@pytest.mark.slow
def test_the_tableau_rule_reaches_4_on_covexillary_s7():
    # every covexillary pair of S7, streamed: about 4 s
    e = Permutation.identity(7)
    best, argmax = 0, []
    for w in all_permutations(7):
        if is_covexillary(w):
            for v in bruhat_interval(e, w):
                r = regularity_formula(v, w)
                if r > best:
                    best, argmax = r, []
                if r == best:
                    argmax.append((v, w))
    assert best == 4
    assert (e, Permutation((7, 2, 3, 4, 5, 6, 1))) in argmax
    assert (len(shapes._COMPANIONS), len(shapes._KAPPA_REG)) == (4849, 859)
