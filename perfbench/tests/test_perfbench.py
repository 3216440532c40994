"""Tests of the benchmark itself: generators, checker and tracing.

    python3 -m pytest perfbench/tests -q
"""

import os
import random
import sys
import types
from math import prod

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import pytest  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
from checker import packing_problems  # noqa: E402
from generators import guillotine  # noqa: E402
from tracing import Tracer, layer_totals, self_times  # noqa: E402
from workloads import okp_spp_suite, perfect_suite, tight_suite  # noqa: E402

SUITES = [tight_suite, perfect_suite, okp_spp_suite]


@pytest.mark.parametrize("suite", SUITES, ids=lambda f: f.__name__)
def test_same_seed_same_instances(suite):
    assert suite(7) == suite(7)
    assert suite(7) != suite(8)


def _tiles(g) -> bool:
    sizes = {f"b{j}": s for j, s in enumerate(g.sizes)}
    positions = {f"b{j}": p for j, p in enumerate(g.placement)}
    return (
        packing_problems(sizes, g.container, positions) == []
        and g.volume == prod(g.container) == g.optimum
    )


@pytest.mark.parametrize("container", [(1, 5), (10, 10), (20, 20), (8, 8, 8), (3, 2, 4, 2)])
def test_guillotine_tiles_container_exactly(container):
    rng = random.Random(3)
    for n in range(1, min(prod(container), 30) + 1):
        g = guillotine(rng, container, n)
        assert g.n == n
        assert _tiles(g)


def test_suite_cuts_tile_their_containers():
    assert all(_tiles(g) for g in perfect_suite(1))
    assert all(_tiles(strip) for strip, _ in okp_spp_suite(1))


def test_tight_instances_fill_80_to_100_percent():
    for g in tight_suite(1):
        assert g.container == (10, 10) and 6 <= g.n <= 9
        assert 80 <= g.volume <= 100
        assert all(1 <= w <= 6 for s in g.sizes for w in s)


def test_checker_rejects_overlap_escape_and_wrong_box_set():
    sizes = {"a": (2, 2), "b": (2, 2)}
    assert packing_problems(sizes, (4, 2), {"a": (0, 0), "b": (2, 0)}) == []
    assert packing_problems(sizes, ("4", 2), {"a": (0, 0), "b": ("2/1", 0)}) == []
    assert packing_problems(sizes, (4, 2), {"a": (0, 0), "b": (1, 0)})
    assert packing_problems(sizes, (4, 2), {"a": (0, 0), "b": (3, 0)})
    assert packing_problems(sizes, (4, 2), {"a": (0, 0)})
    # half-unit overlap only shows on the common integer grid
    assert packing_problems(sizes, (4, 2), {"a": (0, 0), "b": ("3/2", 0)})


def test_self_time_of_nested_calls():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))

    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: leaf())

    def body():
        mid()  # mid 1..4, its leaf 2..3
        leaf()  # 5..6

    tracer.wrap("outer", body)()  # 0..10
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "mid", "leaf", "leaf"]
    assert self_times(tracer.spans) == [10.0 - 3.0 - 1.0, 3.0 - 1.0, 1.0, 1.0]
    assert layer_totals(tracer.spans, ["outer", "mid", "leaf", "none"]) == {
        "outer": (1, 6.0), "mid": (1, 2.0), "leaf": (2, 2.0), "none": (0, 0.0),
    }


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1, 0], ["c", 1.0, 5.0, 0, 0], ["c", 3.0, 7.0, 0, 0]]
    assert self_times(spans)[0] == 10.0 - 6.0


def test_patch_covers_every_namespace_and_restores(monkeypatch):
    def f(x):
        return x + 1

    class K:
        def __init__(self, v):
            self.v = v

    base = types.ModuleType("fakepkg.base")
    base.f, base.K = f, K
    user = types.ModuleType("fakepkg.user")
    user.g = f  # imported under another name
    for mod in (base, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    tracer = Tracer()
    assert tracer.patch_function("fakepkg", "fakepkg.base", "f", "base.f",
                                 tally=lambda r: {"big": r > 2}) == 2
    tracer.patch_constructor(K, "base.K")
    assert base.f(1) == 2 and user.g(2) == 3
    assert isinstance(K(1), K)
    assert [s[0] for s in tracer.spans] == ["base.f", "base.f", "base.K"]
    assert tracer.tallies["big"] == 1
    tracer.restore()
    assert base.f is f and user.g is f and "__init__" in K.__dict__
    assert not hasattr(K.__init__, "__wrapped__")


def test_yardstick_is_fixed_work():
    clique = reference.max_clique()
    assert clique == reference.EXPECTED and len(clique) >= 3
    assert all(b in reference._ADJ[a] for a in clique for b in clique if a != b)
    assert reference.reference_s() > 0


def test_in_ref_divides_by_the_median_yardstick_nearby(monkeypatch):
    assert run.in_ref([2.0] * 5, [1.0, 1.0, 9.0, 1.0, 1.0]) == [2.0] * 5
    monkeypatch.setattr(run, "REF_WINDOW", 1)
    # the host halves its speed between the second and third call
    assert run.in_ref([1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 2.0, 2.0]) == [1.0, 1.0, 1.0, 1.0]
