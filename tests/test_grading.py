"""The torus grading of chart ideals and the tangent cone taken under it.

Every chart ideal is homogeneous for the weights of the torus that fixes the
chart's 1s (`ideal._DetTable`), so `gb._tangent_cone` takes its grevlex_t
basis in the chart ring itself, with the homogenization variable implicit in
the key.  These tests pin the premise (the grading), the order (the graded
key is the explicit grevlex_t key of the homogenized monomial shifted right
by SHIFT, which drops t's own lowest field), the route (the same cone as the
Lazard route through an explicit t) and its cost on the charts whose Lazard
basis was slowest.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from conftest import ref_grevlex_t_less, rng

from schubreg import gb
from schubreg.gb import buchberger, hilbert_data, time_budget
from schubreg.ideal import kl_generators
from schubreg.kernel import SHIFT, OrderPack, order_pack
from schubreg.perm import Permutation, all_permutations, bruhat_leq
from schubreg.poly import UniPoly
from schubreg.reg import _orbit

P = Permutation.from_string


def bruhat_pairs(n):
    perms = list(all_permutations(n))
    return [(v, w) for w in perms for v in perms if bruhat_leq(v, w)]


def test_the_graded_key_is_the_grevlex_t_key_of_the_homogenized_monomial():
    r = rng(381)
    for _ in range(3000):
        n = r.randint(1, 6)
        grading = tuple(r.randint(1, 5) for _ in range(n))
        pack = OrderPack(n, "grevlex_t", grading)
        explicit = order_pack(n + 1, "grevlex_t")
        a, b = (tuple(r.randint(0, 6) for _ in range(n)) for _ in range(2))
        ha, hb = (sum(x * e for x, e in zip(grading, m)) for m in (a, b))
        ta, tb = (ha - sum(a),) + a, (hb - sum(b),) + b
        ka, kb = pack.key_from_exps(a), pack.key_from_exps(b)
        assert (ka < kb) == ref_grevlex_t_less(ta, tb)
        assert (ka, kb) == tuple(explicit.key_from_exps(m) >> SHIFT for m in (ta, tb))
        ra, rb = pack.pack(a), pack.pack(b)
        assert (pack.keyof(ra), pack.keyof(rb)) == (ka, kb)
        assert pack.keyof(ra + rb) == ka + kb - pack.corr
        assert (pack.key_degree(ka), pack.degree_of_raw(ra)) == (ha, ha)


def test_a_grading_is_one_positive_weight_per_variable_for_grevlex_t():
    for kind, grading in (("grevlex", (1, 1)), ("grevlex_t", (1,)), ("grevlex_t", (1, 0))):
        with pytest.raises(ValueError):
            OrderPack(2, kind, grading)
    assert OrderPack(0, "grevlex_t", ()).key_from_exps(()) == 0
    with pytest.raises(OverflowError):
        OrderPack(2, "grevlex_t", (1, 4)).key_from_exps((0, 4096))


def assert_every_chart_is_graded(n):
    for v, w in bruhat_pairs(n):
        chart = kl_generators(v, w)
        assert len(chart.grading) == chart.ring.nvars and min(chart.grading, default=1) >= 1
        degree = order_pack(chart.ring.nvars, "grevlex_t", chart.grading).degree_of_raw
        for g in chart.terms:
            assert len({degree(raw) for raw, _ in g}) == 1, (v, w, g)


def test_every_s5_chart_generator_is_homogeneous_in_its_grading():
    assert_every_chart_is_graded(5)


@pytest.mark.slow
def test_every_s6_chart_generator_is_homogeneous_in_its_grading():
    assert_every_chart_is_graded(6)


def assert_routes_agree(pairs):
    """The graded cone of each pair's grevlex basis is its Lazard cone."""
    for v, w in pairs:
        chart = kl_generators(v, w)
        basis = buchberger(chart, "grevlex")
        graded = gb._tangent_cone(basis, chart.grading)
        assert graded._terms == gb._tangent_cone(basis)._terms, (v, w)


def test_the_graded_cone_is_the_lazard_cone_on_every_s5_pair():
    assert_routes_agree(bruhat_pairs(5))


def slow_charts():
    bench = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", bench)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.SLOW_CHARTS


@pytest.mark.slow
def test_the_graded_cone_is_the_lazard_cone_on_s6_and_the_slow_chart_orbits():
    assert_routes_agree(random.Random(382).sample(bruhat_pairs(6), 1500))
    charts = slow_charts()
    assert len(charts) == 19
    members = {m for v, w in charts for m in _orbit(P(v), P(w))}
    assert_routes_agree(sorted(members, key=lambda p: (p[0].word, p[1].word)))


# Orbits whose slowest member took from 1.8 s to over 60 s through the
# explicit-t Lazard route.
TAIL_ORBITS = (
    ("1342567", "5671342", (1, 3, 3, 1)),
    ("1234567", "5672143", (1, 3, 3, 1)),
    ("1234567", "7356142", (1, 4, 4, 2)),
    ("1234567", "6741523", (1, 2, 2, 1)),
)


@pytest.mark.parametrize("v, w, H", TAIL_ORBITS)
def test_every_member_of_a_tail_orbit_finishes_its_cone_in_budget(v, w, H):
    for pair in _orbit(P(v), P(w)):
        with time_budget(5000):
            assert hilbert_data(*pair).H == UniPoly(list(H)), pair
