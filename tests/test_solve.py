import hashlib
import heapq
import random
import sys
import time
from fractions import Fraction
from math import lcm

import pytest

from packclass import graph, opp, solve
from packclass.cellfill import FILL_NODES, _cell_fill, _quick_fill
from packclass.errors import InfeasibleCrossSection, InvalidLimits
from packclass.model import Box, Instance, Packing, project_to_class, validate_packing
from packclass.opp import SearchLimits, heuristic_pack, solve_opp
from packclass.oracle import brute_force_opp
from packclass.solve import OkpSolution, ResourceLimit, SppSolution, solve_okp, solve_spp
from packclass.sweep import random_instance

import reference_spp


def brute_okp_optimum(inst):
    best = Fraction(0)
    n = inst.n
    for mask in range(1 << n):
        ids = [inst.ids[k] for k in range(n) if mask >> k & 1]
        sub = inst.restrict(ids)
        if brute_force_opp(sub).feasible:
            best = max(best, sum((b.value for b in sub.boxes), Fraction(0)))
    return best


def brute_spp_height(boxes, cross):
    scale = lcm(*(b.size[-1].denominator for b in boxes))
    sums = {0}
    for b in boxes:
        sums |= {s + int(b.size[-1] * scale) for s in sums}
    floor = max(int(b.size[-1] * scale) for b in boxes)
    for s in sorted(x for x in sums if x >= floor):
        h = Fraction(s, scale)
        probe = Instance(boxes=boxes, container=(*cross, h))
        if brute_force_opp(probe).feasible:
            return h
    raise AssertionError("stacking everything is always feasible")


def test_okp_single_box_value():
    inst = Instance(boxes=(Box("a", (1, 1), value=7),), container=(2, 2))
    sol = solve_okp(inst)
    assert isinstance(sol, OkpSolution)
    assert sol.chosen == ("a",) and sol.total_value == 7


def test_okp_skips_zero_valued_boxes():
    # Ten 3 x 3 boxes of value 0 do not all fit the 10 x 10 square; once
    # enumerated with the valued box, their subsets kept the solve busy
    # until its deadline. A zero-valued box adds no value, so none is
    # chosen, and the one valued box is decided at once.
    boxes = [Box("p", (2, 2), value=1)] + [Box(f"z{k}", (3, 3), value=0) for k in range(10)]
    inst = Instance(boxes=boxes, container=(10, 10))
    start = time.perf_counter()
    sol = solve_okp(inst, SearchLimits(time_limit=5.0))
    assert time.perf_counter() - start < 0.1
    assert isinstance(sol, OkpSolution)
    assert sol.chosen == ("p",) and sol.total_value == 1
    assert validate_packing(sol.packing, inst.restrict(["p"])).valid
    # all zero: the empty subset, at value 0
    zeros = Instance(boxes=boxes[1:], container=(10, 10))
    sol = solve_okp(zeros)
    assert sol.chosen == () and sol.total_value == 0 and sol.stats["examined"] == 1


def test_okp_five_box_example_packs_everything(five_box_example):
    sol = solve_okp(five_box_example)
    assert isinstance(sol, OkpSolution)
    assert sol.total_value == 18  # values default to volumes: 4+5+3+4+2
    assert set(sol.chosen) == set(five_box_example.ids)
    assert validate_packing(sol.packing, five_box_example).valid


def test_okp_matches_brute_force_on_random_instances():
    rng = random.Random(51)
    instances = [random_instance(rng) for _ in range(40)]
    # Mixed-denominator values (1/2, 1/3, 1/6, ...) on the same box sets.
    for inst in instances[:20]:
        boxes = [
            Box(b.id, b.size, value=Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 6))))
            for b in inst.boxes
        ]
        instances.append(Instance(boxes=boxes, container=inst.container))
    for inst in instances:
        sol = solve_okp(inst)
        assert isinstance(sol, OkpSolution)
        assert sol.total_value == brute_okp_optimum(inst)
        packed = inst.restrict(sol.chosen)
        assert validate_packing(sol.packing, packed).valid
        assert sol.total_value == sum((b.value for b in packed.boxes), Fraction(0))


def test_okp_value_bounds(five_box_example):
    sol = solve_okp(five_box_example)
    heuristic = heuristic_pack(five_box_example)
    if heuristic is not None:
        hv = sum(
            (five_box_example.box(b).value for b in heuristic.positions), Fraction(0)
        )
        assert sol.total_value >= hv
    assert sol.total_value >= max(b.value for b in five_box_example.boxes)
    assert sol.total_value <= sum((b.value for b in five_box_example.boxes), Fraction(0))


def test_okp_records_dismissed_subsets():
    # full set too big, so at least one subset gets dismissed with a reason
    inst = Instance(
        boxes=(Box("a", (2, 2)), Box("b", (2, 2)), Box("c", (2, 2))),
        container=(3, 3),
    )
    sol = solve_okp(inst)
    assert isinstance(sol, OkpSolution)
    assert sol.total_value == 4 and len(sol.chosen) == 1
    assert sol.dismissed
    assert all(reason in ("volume-or-pair-screen", "opp-infeasible")
               for _, reason in sol.dismissed)


def test_okp_monotone_in_container():
    rng = random.Random(52)
    for _ in range(10):
        inst = random_instance(rng, container=(3, 3))
        bigger = Instance(boxes=inst.boxes, container=(5, 5))
        a = solve_okp(inst)
        b = solve_okp(bigger)
        assert b.total_value >= a.total_value


def test_okp_resource_limit():
    inst = Instance(
        boxes=tuple(Box(f"b{k}", (2, 2)) for k in range(1, 5)), container=(5, 5)
    )
    out = solve_okp(inst, SearchLimits(max_nodes=0, use_heuristic=False))
    assert isinstance(out, ResourceLimit)


def test_spp_single_box():
    sol = solve_spp([Box("a", (1, 2))], (1,))
    assert isinstance(sol, SppSolution) and sol.height == 2


def test_spp_two_boxes_must_stack():
    sol = solve_spp([Box("a", (2, 1)), Box("b", (2, 1))], (2,))
    assert sol.height == 2
    assert len(sol.packing.positions) == 2


def test_spp_five_box_example_height(five_box_example):
    boxes = list(five_box_example.boxes)
    sol = solve_spp(boxes, (5,))
    assert isinstance(sol, SppSolution)
    # area bound: ceil(18/5) = 4, and 4 is achievable
    assert sol.height >= 4
    assert sol.height == brute_spp_height(tuple(boxes), (Fraction(5),)) == 4
    solved = Instance(boxes=tuple(boxes), container=(5, sol.height))
    assert validate_packing(sol.packing, solved).valid


def test_spp_answer_is_subset_sum_and_previous_candidate_fails():
    rng = random.Random(53)
    for _ in range(25):
        inst = random_instance(rng)
        boxes = inst.boxes
        sol = solve_spp(boxes, (4,))
        assert isinstance(sol, SppSolution)
        scale = lcm(*(b.size[-1].denominator for b in boxes))
        sums = {0}
        for b in boxes:
            sums |= {s + int(b.size[-1] * scale) for s in sums}
        assert int(sol.height * scale) in sums
        assert sol.height >= max(b.size[-1] for b in boxes)
        below = sorted(
            s for s in sums if s < sol.height * scale and s >= max(
                int(b.size[-1] * scale) for b in boxes
            )
        )
        if below:
            probe = Instance(boxes=boxes, container=(Fraction(4), Fraction(below[-1], scale)))
            assert not brute_force_opp(probe).feasible


def test_spp_cross_section_guard():
    with pytest.raises(InfeasibleCrossSection):
        solve_spp([Box("a", (3, 1))], (2,))


def test_spp_deadline_bounds_building_candidate_heights():
    # Heights 1, 2, 4, ... have 2^20 distinct subset sums. Each box's step
    # at most doubles the set, so a step begun before the deadline ends
    # within about the limit again; 0.2 s more is slack for a slow host.
    # The limit must fall inside the 20 steps: they take about 0.05 s on a
    # 2-core x86 host with Python 3.11, so a limit that long made the
    # outcome depend on the host's speed.
    boxes = [Box(f"b{k}", (1, 2**k)) for k in range(20)]
    limit = 0.01
    start = time.perf_counter()
    out = solve_spp(boxes, (1,), SearchLimits(time_limit=limit))
    elapsed = time.perf_counter() - start
    assert isinstance(out, ResourceLimit) and out.reason == "spp budget exhausted"
    assert out.stats.pop("wall_time") >= 0
    assert out.stats == {"probes": 0, "engine_nodes": 0, "candidates": 0}
    assert elapsed < 2 * limit + 0.2, elapsed


def test_spp_deadline_passing_during_the_last_subset_sum_step(monkeypatch):
    # The deadline passes while the last box's sums are added: the budget
    # reads "expired" only once its caller holds all 2^n subset sums.
    boxes = [Box(f"b{k}", (1, 2**k)) for k in range(6)]

    class LastStepBudget(opp._Budget):
        def expired(self):
            return len(sys._getframe(1).f_locals.get("sums", ())) == 2 ** len(boxes)

    monkeypatch.setattr(solve, "_Budget", LastStepBudget)
    out = solve_spp(boxes, (1,))
    assert isinstance(out, ResourceLimit) and out.reason == "spp budget exhausted"
    assert out.stats.pop("wall_time") >= 0
    assert out.stats == {"probes": 0, "engine_nodes": 0, "candidates": 0}


def test_heuristic_stops_once_the_deadline_passes(monkeypatch):
    """A deadline that passes during the first bottom-left order stops the
    heuristic before the second: `_decide` then returns resource_limit
    and SPP's bound ResourceLimit. Without it, every order of this box
    set misses in the square and SPP's bound runs them all."""
    sizes = ((3, 3), (2, 2), (3, 1), (3, 1), (1, 4))
    inst = Instance(boxes=[Box(f"b{k}", s) for k, s in enumerate(sizes)], container=(5, 5))
    runs = []
    bottom_left = opp._bottom_left

    def counted(sizes, caps, order, deadline=None):
        runs.append(order)
        return bottom_left(sizes, caps, order, deadline)

    class FirstOrderBudget(opp._Budget):
        def expired(self):
            return bool(runs)

    monkeypatch.setattr(opp, "_bottom_left", counted)
    monkeypatch.setattr(solve, "_bottom_left", counted)
    limits = SearchLimits(max_nodes=1, time_limit=None)
    out = solve_opp(inst, limits)
    assert len(runs) == 5 and out.stats.nodes == 1 and "heuristic" not in out.stats.prunes
    runs.clear()
    assert isinstance(solve_spp(inst.boxes, (5,), limits), ResourceLimit) and len(runs) == 5

    monkeypatch.setattr(opp, "_Budget", FirstOrderBudget)
    monkeypatch.setattr(solve, "_Budget", FirstOrderBudget)
    runs.clear()
    out = solve_opp(inst, limits)
    assert out.verdict == "resource_limit" and out.stats.nodes == 0 and len(runs) == 1
    runs.clear()
    out = solve_spp(inst.boxes, (5,), limits)
    assert isinstance(out, ResourceLimit) and out.reason == "spp budget exhausted"
    assert out.stats["probes"] == 0 and len(runs) == 1


def test_spp_empty_box_list():
    sol = solve_spp([], (4,))
    assert sol.height == 0 and sol.packing.positions == {}
    # the same statistics as any other solve, all zero
    one = solve_spp([Box("a", (2, 3))], (4,))
    assert isinstance(sol, SppSolution) and isinstance(one, SppSolution)
    assert sol.stats.keys() == one.stats.keys()
    assert {k: v for k, v in sol.stats.items() if k != "wall_time"} == {
        "probes": 0, "engine_nodes": 0, "candidates": 0}


REFERENCE_PROBE_NODES = 2_000


def plain_spp_search(boxes, cross, use_heuristic=True):
    """Binary search over every subset-sum height at or above the tallest
    box and the volume bound, one `solve_opp` call per distinct candidate
    probed; (height, probes), or None when a probe needs more than
    REFERENCE_PROBE_NODES nodes."""
    scale = lcm(*(b.size[-1].denominator for b in boxes))
    sums = {0}
    for b in boxes:
        sums |= {s + int(b.size[-1] * scale) for s in sums}
    area = Fraction(1)
    for c in cross:
        area *= c
    volume_bound = sum((b.volume for b in boxes), Fraction(0)) / area
    tallest = max(b.size[-1] for b in boxes)
    candidates = sorted(
        Fraction(s, scale) for s in sums
        if Fraction(s, scale) >= tallest and Fraction(s, scale) >= volume_bound
    )
    limits = SearchLimits(max_nodes=REFERENCE_PROBE_NODES, time_limit=None, use_heuristic=use_heuristic)
    verdicts = {}

    def verdict(h):
        if h not in verdicts:
            verdicts[h] = solve_opp(Instance(boxes=boxes, container=(*cross, h)), limits).verdict
        return verdicts[h]

    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if verdict(candidates[mid]) == "resource_limit":
            return None
        if verdict(candidates[mid]) == "feasible":
            hi = mid
        else:
            lo = mid + 1
    assert verdict(candidates[lo]) == "feasible"
    return candidates[lo], len(verdicts)


def test_spp_matches_plain_binary_search():
    """With the heuristic on and off, solve_spp finds the height of the
    plain search run the same way in no more probes, with a packing that
    validates there."""
    rng = random.Random(54)
    compared = fewer = 0
    for k in range(60):
        d = 2 + k % 2
        grid = (1, 2, 3)[k // 2 % 3]
        cross = tuple(Fraction(rng.randint(2, 4)) for _ in range(d - 1))
        boxes = tuple(
            Box(f"b{j}", (
                *(rng.randint(1, int(c)) for c in cross),
                Fraction(rng.randint(1, 3 * grid), grid),
            ))
            for j in range(rng.randint(1, 8))
        )
        for heuristic in (True, False):
            reference = plain_spp_search(boxes, cross, heuristic)
            if reference is None:
                continue
            height, probes = reference
            limits = SearchLimits(max_nodes=10 * REFERENCE_PROBE_NODES, use_heuristic=heuristic)
            sol = solve_spp(boxes, cross, limits)
            assert isinstance(sol, SppSolution), (k, heuristic)
            assert sol.height == height, (k, heuristic)
            assert sol.stats["probes"] <= probes, (k, heuristic)
            compared += 1
            fewer += sol.stats["probes"] < probes
            solved = Instance(boxes=boxes, container=(*cross, sol.height))
            assert set(sol.packing.positions) == {b.id for b in boxes}, (k, heuristic)
            assert validate_packing(sol.packing, solved).valid, (k, heuristic)
    assert compared >= 110 and fewer > 0, (compared, fewer)


def spp_pinned_instance(rng, k):
    """d 2-3, 3-10 boxes narrower than the cross section, heights on a 1,
    1/2 or 1/3 grid."""
    d = 2 + k % 2
    den = (1, 2, 3)[k // 2 % 3]
    cross = tuple(rng.randint(3, 6) for _ in range(d - 1))
    boxes = tuple(
        Box(f"b{j}", (*(rng.randint(1, c - 1) for c in cross), Fraction(rng.randint(1, 3 * den), den)))
        for j in range(rng.randint(3, 10))
    )
    return boxes, cross


def spp_digest(out):
    stats = sorted((k, v) for k, v in out.stats.items() if k != "wall_time")
    if isinstance(out, ResourceLimit):
        view = (out.reason, stats)
    else:
        view = (out.height, stats, out.packing.canonical())
    return hashlib.sha256(repr(view).encode()).hexdigest()[:12]


# Digest of solve_spp's height, statistics (wall time dropped) and packing,
# or its limit reason and statistics, per instance with the heuristic off;
# 40- and 400-node budgets alternate, and 9 of the 30 solves hit them. A
# mismatch means the probe order or a probe's search changed. Solves 14
# and 24 end at the all-stacked height, answered by the stack itself.
PINNED_SPP_NO_HEURISTIC = [
    "8b59adfae827", "f1b31cbef682", "3fb1494a39a0", "b760c76becc3", "e688df75736d",
    "0410b97ec57d", "d2416513541f", "fd7ca1bbf127", "175b60b8ebbb", "c661c5af8d83",
    "b133e3fb1d7d", "8a0baf2e5226", "95324eebecfb", "6f98d8d28f28", "27498bba0710",
    "3a582f4fa8f1", "580cf56ade00", "10034820b217", "7aad70d0129c", "121ff21f49d1",
    "860735991af9", "85a27af1a719", "b5612f2aa4d2", "b4d019dea390", "1e14d77365b7",
    "77c3246e1059", "ea3a45d72feb", "1b914a4cc6df", "3f25f73d9993", "7d4ef16829b1",
]


def test_spp_without_heuristic_pinned():
    rng = random.Random(58)
    digests = []
    for k in range(30):
        boxes, cross = spp_pinned_instance(rng, k)
        limits = SearchLimits(max_nodes=(40, 400)[k % 2], time_limit=None, use_heuristic=False)
        digests.append(spp_digest(solve_spp(boxes, cross, limits)))
    assert digests == PINNED_SPP_NO_HEURISTIC


def test_spp_never_probes_the_all_stacked_height(monkeypatch):
    """The all-boxes-stacked packing answers the highest candidate height,
    so no decision runs there, with the heuristic on or off. d 2-3, heights
    on a 1/2 grid; on every third strip each box is wider than half the
    cross section on every axis, so stacking is optimal there."""
    heights = []
    decide = solve._decide

    def recorded(inst, use_heuristic, budget):
        heights.append(inst.container[-1])
        return decide(inst, use_heuristic, budget)

    monkeypatch.setattr(solve, "_decide", recorded)
    rng = random.Random(60)
    stacked_answers = 0
    for k in range(60):
        cross = tuple(rng.randint(2, 5) for _ in range(1 + k % 2))
        boxes = tuple(
            Box(f"b{j}", (
                *(rng.randint(c // 2 + 1 if k % 3 == 0 else 1, c) for c in cross),
                Fraction(rng.randint(1, 6), 2),
            ))
            for j in range(rng.randint(1, 8))
        )
        stacked = sum(b.size[-1] for b in boxes)
        for heuristic in (True, False):
            heights.clear()
            out = solve_spp(boxes, cross, SearchLimits(max_nodes=400, time_limit=None, use_heuristic=heuristic))
            assert stacked not in heights, (k, heuristic)
            stacked_answers += isinstance(out, SppSolution) and out.height == stacked and not heuristic
    assert stacked_answers >= 20, stacked_answers


def spp_reference_cases():
    """(boxes, cross, max_nodes) for `test_spp_matches_reference`: 540
    random strips, d 1-3, every side on a 1, 1/2 or 1/3 grid, 1-11 boxes,
    node budgets of 0 to 2,000; then 120 guillotine strips, whose boxes
    fill the strip exactly at its volume floor, 2-D (6-12 wide) and 3-D
    (4-6 by 4-6), n 8-20, node budgets of 0 to 200."""
    from test_opp import guillotine_instance

    rng = random.Random(59)
    for k in range(540):
        d = 1 + k % 3
        den = 1 + k // 3 % 3
        cross = tuple(Fraction(rng.randint(2 * den, 5 * den), den) for _ in range(d - 1))
        boxes = tuple(
            Box(f"b{j}", (
                *(Fraction(rng.randint(1, int(c * den)), den) for c in cross),
                Fraction(rng.randint(1, 3 * den), den),
            ))
            for j in range(rng.randint(1, 11))
        )
        yield boxes, cross, (0, 1, 5, 20, 100, 2000)[k // 9 % 6]
    rng = random.Random(62)
    for k in range(120):
        d = 2 + k % 2
        container = (
            (rng.randint(6, 12), rng.randint(6, 14)) if d == 2
            else (rng.randint(4, 6), rng.randint(4, 6), rng.randint(4, 8))
        )
        strip = guillotine_instance(rng, container, rng.randint(8, 20))
        yield strip.boxes, strip.container[:-1], (0, 5, 20, 200)[k // 2 % 4]


def test_spp_matches_reference():
    """solve_spp gives the reference's height, packing and statistics, or
    its ResourceLimit, on 1,320 seeded calls (`spp_reference_cases`, each
    with the heuristic on and off), so that many solves end in a limit
    before, inside or after the bound. In at least 12 calls that run the
    floor fill, that fill misses its slice with axis 0 first and packs
    with another axis first."""
    solved = limited = other_axis = 0
    for k, (boxes, cross, max_nodes) in enumerate(spp_reference_cases()):
        for heuristic in (True, False):
            limits = SearchLimits(max_nodes=max_nodes, time_limit=None, use_heuristic=heuristic)
            out = solve_spp(boxes, cross, limits)
            expected = reference_spp.solve_spp(boxes, cross, limits)
            assert type(out) is type(expected), (k, heuristic)
            assert out.stats.pop("wall_time") >= 0 and expected.stats.pop("wall_time") >= 0
            assert out.stats == expected.stats, (k, heuristic)
            if isinstance(out, ResourceLimit):
                assert out.reason == expected.reason, (k, heuristic)
                limited += 1
                continue
            assert out.height == expected.height and out.packing == expected.packing, (k, heuristic)
            assert validate_packing(out.packing, Instance(boxes=boxes, container=(*cross, out.height))).valid
            solved += 1
            if heuristic and max_nodes:
                floor = Instance(boxes=boxes, container=(*cross, lowest_candidate(boxes, cross)))
                caps = [floor.int_container(i) for i in range(floor.d)]
                other_axis += (
                    _cell_fill(floor.int_sizes, caps, FILL_NODES)[0] is None
                    and _quick_fill(floor.int_sizes, caps) is not None
                )
    assert solved >= 700 and limited >= 420 and other_axis >= 12, (solved, limited, other_axis)


def okp_pinned_instance(rng, k):
    """d 2-3, n 4-10 boxes that mostly do not all fit, so subsets get
    screened and decided; every other instance has mixed-denominator
    values."""
    d = 2 + k % 2
    container = (6, 6) if d == 2 else (4, 4, 4)
    boxes = []
    for j in range(rng.randint(4, 10)):
        size = tuple(rng.randint(1, w - 2 + j % 3) for w in container)
        value = Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 6))) if k % 2 else None
        boxes.append(Box(f"b{j}", size, value=value))
    return Instance(boxes=boxes, container=container)


def okp_digest(out):
    stats = sorted((k, v) for k, v in out.stats.items() if k != "wall_time")
    if isinstance(out, ResourceLimit):
        view = (out.reason, stats)
    else:
        view = (out.chosen, out.total_value, stats, out.dismissed, out.packing.canonical())
    return hashlib.sha256(repr(view).encode()).hexdigest()[:12]


# Digest of solve_okp's chosen set, value, statistics (wall time dropped),
# dismissed subsets and packing per instance; a mismatch means the subset
# order, the screen or an inner decision changed.
PINNED_OKP = [
    "aee0ad459b70", "470be4bfbf7f", "35f3913bd9b6", "56ec561f99fc", "8643f51f9f4c",
    "e0fc1b86b4ab", "d49516932ee0", "6cc028e19b56", "7f9ed501f11e", "c4e974935ab9",
    "efbcc15e3b4a", "ed4e6dbc8eaf", "01c770ce11cd", "3aaddea42e95", "72604882d760",
    "e8608a8caa83", "3ae28c332640", "fc70d572f824", "eed9f3737e8c", "9e5c409a5be1",
    "b259eb8694df", "8266c0a52a86", "e5e3b8effdb2", "6acb0b127850", "ab896fc44e15",
    "dd32e14ea952", "b6cdf29f39ae", "1d64a6f4c38e", "67771b407c7c", "9791e5326cf3",
]


def test_okp_outputs_pinned():
    rng = random.Random(56)
    limits = SearchLimits(max_nodes=300, time_limit=None)
    digests = [okp_digest(solve_okp(okp_pinned_instance(rng, k), limits)) for k in range(30)]
    assert digests == PINNED_OKP


def test_okp_and_spp_screen_once(monkeypatch):
    # The engine's volume/pair screen runs in solve_okp's own pass over the
    # subsets and nowhere else; solve_spp's bound and probes never need it.
    calls = []
    screen_tables = opp._screen_tables

    def counted(inst):
        calls.append(inst.n)
        return screen_tables(inst)

    monkeypatch.setattr(opp, "_screen_tables", counted)
    monkeypatch.setattr(solve, "_screen_tables", counted)
    rng = random.Random(56)
    for k in range(6):
        inst = okp_pinned_instance(rng, k)
        calls.clear()
        sol = solve_okp(inst, SearchLimits(max_nodes=300, time_limit=None))
        assert isinstance(sol, OkpSolution) and calls == [sum(b.value > 0 for b in inst.boxes)]
        calls.clear()
        solve_spp(inst.boxes, inst.container[:-1], SearchLimits(max_nodes=300))
        assert calls == []
        out = solve_spp(inst.boxes, inst.container[:-1], SearchLimits(max_nodes=300, use_heuristic=False))
        assert out.stats["probes"] > 0 and calls == []


def test_inner_decisions_build_no_class(monkeypatch):
    """solve_okp and solve_spp read only a decision's packing: no inner
    decision or SPP bound projects a packing class or builds a Graph,
    except a search accept, which extracts its packing from the class it
    found. SPP builds its bound's packing only for a solution that
    returns the bound's placement, once. A solve_opp heuristic hit still
    returns the projection of its packing."""
    counts = {"project": 0, "graph": 0}
    decisions = []  # (verdict, heuristic hit, Graphs built)
    bounds = []  # (Graphs built, packing) of each SPP bound's packing step
    project, graph_init, decide = opp.project_to_class, graph.Graph.__init__, solve._decide
    bound_packing = solve._placed_packing

    def counted_project(*args):
        counts["project"] += 1
        return project(*args)

    def counted_graph_init(self, *args, **kwargs):
        counts["graph"] += 1
        graph_init(self, *args, **kwargs)

    def logged_decide(*args):
        before = counts["graph"]
        out = decide(*args)
        decisions.append((out.verdict, "heuristic" in out.stats.prunes, counts["graph"] - before))
        return out

    def logged_bound(*args):
        before = counts["graph"]
        out = bound_packing(*args)
        bounds.append((counts["graph"] - before, out))
        return out

    monkeypatch.setattr(opp, "project_to_class", counted_project)
    monkeypatch.setattr(graph.Graph, "__init__", counted_graph_init)
    monkeypatch.setattr(solve, "_decide", logged_decide)
    monkeypatch.setattr(solve, "_placed_packing", logged_bound)
    rng = random.Random(56)
    limits = SearchLimits(max_nodes=300, time_limit=None)
    # a smaller SPP budget and 40 box sets, so that at least five solves end
    # in a limit (the cell fill settles one more at its volume floor)
    spp_limits = SearchLimits(max_nodes=150, time_limit=None)
    from_probes = limited = 0
    for k in range(40):
        inst = okp_pinned_instance(rng, k)
        solve_okp(inst, limits)
        built = len(bounds)
        sol = solve_spp(inst.boxes, inst.container[:-1], spp_limits)
        if isinstance(sol, ResourceLimit):  # the bound's placement is dropped unbuilt
            assert len(bounds) == built
            limited += 1
        elif len(bounds) > built:
            assert len(bounds) == built + 1 and sol.packing is bounds[-1][1]
        else:  # a feasible probe beat the bound
            assert sol.stats["probes"] > 0
            from_probes += 1
    counted = (len(bounds), from_probes, limited)
    assert counts["project"] == 0 and len(bounds) >= 20 and limited >= 5 and sum(counted) == 40, counted
    assert not any(graphs for graphs, _ in bounds)
    assert counts["graph"] == sum(graphs for _, _, graphs in decisions)
    assert all(verdict == "feasible" and not hit for verdict, hit, graphs in decisions if graphs)
    # each SPP bound is a heuristic packing
    hits = sum(hit for _, hit, _ in decisions) + len(bounds)
    refuted = sum(verdict == "infeasible" for verdict, _, _ in decisions)
    assert hits >= 50 and refuted >= 25, (hits, refuted)

    monkeypatch.undo()
    rng = random.Random(56)
    opp_hits = 0
    for k in range(30):
        inst = okp_pinned_instance(rng, k)
        out = solve_opp(inst)
        if "heuristic" in out.stats.prunes:
            opp_hits += 1
            assert out.packing_class == project_to_class(out.packing, inst), k
    assert opp_hits >= 5, opp_hits


# (limits, OKP reason and stats, SPP reason and stats) on okp_pinned_instance
# 0 and 1 of Random(56). Stats are (examined, dismissed_screen, dismissed_opp,
# engine_nodes) for OKP and (candidates, probes, engine_nodes) for SPP.
SPENT_BUDGETS = [
    (SearchLimits(max_nodes=0), "okp budget exhausted", [(600, 599, 0, 0), (8, 7, 0, 0)],
     "spp budget exhausted", [(19, 0, 0), (15, 0, 0)]),
    # The deadline is checked at every heap pop, before the subset is
    # screened: the first non-empty pop ends the solve. SPP checks it
    # before each box's subset sums, so no candidate height is built.
    (SearchLimits(time_limit=0), "okp budget exhausted", [(1, 0, 0, 0), (1, 0, 0, 0)],
     "spp budget exhausted", [(0, 0, 0), (0, 0, 0)]),
    (SearchLimits(max_nodes=3, use_heuristic=False), "inner decision hit its limit",
     [(611, 604, 6, 3), (8, 7, 0, 3)], "inner decision hit its limit", [(19, 1, 3), (15, 1, 3)]),
]


@pytest.mark.parametrize("limits, okp_reason, okp_stats, spp_reason, spp_stats", SPENT_BUDGETS)
def test_spent_budget_reasons_and_stats(limits, okp_reason, okp_stats, spp_reason, spp_stats):
    rng = random.Random(56)
    for k in range(2):
        inst = okp_pinned_instance(rng, k)
        out = solve_okp(inst, limits)
        assert isinstance(out, ResourceLimit) and out.reason == okp_reason
        keys = ("examined", "dismissed_screen", "dismissed_opp", "engine_nodes")
        assert out.stats.pop("wall_time") >= 0
        assert out.stats == dict(zip(keys, okp_stats[k]))
        out = solve_spp(inst.boxes, inst.container[:-1], limits)
        assert isinstance(out, ResourceLimit) and out.reason == spp_reason
        assert out.stats.pop("wall_time") >= 0
        assert out.stats == dict(zip(("candidates", "probes", "engine_nodes"), spp_stats[k]))


@pytest.mark.parametrize(
    "limits",
    [
        SearchLimits(time_limit=float("nan")),
        SearchLimits(max_nodes=float("nan")),
        SearchLimits(max_nodes=None),
        SearchLimits(max_nodes="5"),
        SearchLimits(time_limit="1"),
    ],
    ids=["time_limit", "max_nodes", "max_nodes_none", "max_nodes_str", "time_limit_str"],
)
def test_nan_limits_raise(limits):
    """A NaN limit would never run out, and a node limit that is not a
    real number, or a time limit that is neither None nor one, cannot be
    counted down or added to the clock, so each solve refuses them."""
    inst = Instance(boxes=(Box("a", (1, 1)), Box("b", (1, 1))), container=(2, 2))
    for run in (
        lambda: solve_opp(inst, limits),
        lambda: solve_okp(inst, limits),
        lambda: solve_spp(inst.boxes, (2,), limits),
    ):
        with pytest.raises(InvalidLimits):
            run()


def reference_okp(inst, limits, pushes):
    """solve_okp with the all-children enumeration, as a reference: every
    popped subset pushes each child not pushed yet and is screened afresh
    over its bits by `opp._screen`. Appends each pushed mask to
    `pushes`. Zero-valued boxes are dropped first, as solve_okp drops
    them."""
    budget = opp._Budget(limits)
    if any(b.value == 0 for b in inst.boxes):
        inst = inst.restrict([b.id for b in inst.boxes if b.value])
    n = inst.n
    scale = lcm(*(b.value.denominator for b in inst.boxes))
    values = [b.value.numerator * (scale // b.value.denominator) for b in inst.boxes]
    screen = opp._screen_tables(inst)

    def subset_ids(mask):
        return tuple(inst.ids[k] for k in graph.bits(mask))

    stats = {"examined": 0, "dismissed_screen": 0, "dismissed_opp": 0, "engine_nodes": 0}
    dismissed = []

    def record(mask, reason):
        if len(dismissed) < solve.DISMISSED_RECORD_CAP:
            dismissed.append((mask, reason))

    full = (1 << n) - 1
    heap = [(-sum(values), full.bit_count(), full)]
    pushed = {full}
    while heap:
        neg_value, _, mask = heapq.heappop(heap)
        stats["examined"] += 1
        if mask == 0:
            return OkpSolution((), Fraction(0), Packing({}), stats, dismissed, inst.ids)
        if budget.expired():
            return ResourceLimit("okp budget exhausted", stats)
        if opp._screen(mask, *screen):
            stats["dismissed_screen"] += 1
            record(mask, "volume-or-pair-screen")
        else:
            if budget.nodes_left <= 0:
                return ResourceLimit("okp budget exhausted", stats)
            outcome = solve._decide(inst.restrict(subset_ids(mask)), limits.use_heuristic, budget)
            stats["engine_nodes"] += outcome.stats.nodes
            if outcome.verdict == "resource_limit":
                return ResourceLimit("inner decision hit its limit", stats)
            if outcome.verdict == "feasible":
                value = Fraction(-neg_value, scale)
                return OkpSolution(subset_ids(mask), value, outcome.packing, stats, dismissed, inst.ids)
            stats["dismissed_opp"] += 1
            record(mask, "opp-infeasible")
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            child = mask ^ low
            if child not in pushed:
                pushed.add(child)
                pushes.append(child)
                key = neg_value + values[low.bit_length() - 1]
                heapq.heappush(heap, (key, child.bit_count(), child))
    raise AssertionError("unreachable")


def okp_sweep_instance(rng, k):
    """d 1-3, n 1-10 boxes on a small container, sizes mostly integers;
    values by volume, mixed-denominator, often zero, or all zero."""
    d = 1 + k % 3
    container = tuple(rng.randint(3, 6) for _ in range(d))
    kind = k // 3 % 4
    boxes = []
    for j in range(rng.randint(1, 10)):
        size = tuple(Fraction(rng.randint(1, 2 * w), rng.choice((1, 1, 1, 2))) for w in container)
        size = tuple(min(s, w) for s, w in zip(size, container))
        if kind == 0:
            value = None
        elif kind == 1:
            value = Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 6)))
        elif kind == 2:
            value = rng.choice((0, 0, 1, 2, 5))
        else:
            value = 0
        boxes.append(Box(f"b{j}", size, value=value))
    return Instance(boxes=boxes, container=container)


def counted_pushes(monkeypatch):
    """Masks solve_okp pushes, in order, through a counting heappush."""
    masks = []

    def counting(heap, item):
        masks.append(item[2])
        heapq.heappush(heap, item)

    monkeypatch.setattr(solve, "heappush", counting)
    return masks


def test_okp_enumeration_matches_reference(monkeypatch):
    # Each subset now has one parent and carries its screen: the same pops,
    # so the same outputs, with every mask pushed once.
    masks = counted_pushes(monkeypatch)
    rng = random.Random(57)
    zero_level = 0
    for k in range(420):
        inst = okp_sweep_instance(rng, k)
        limits = SearchLimits(
            max_nodes=rng.choice((0, 1, 5, 20, 60, 300)),
            time_limit=None,
            use_heuristic=k % 5 != 0,
        )
        masks.clear()
        expected = okp_digest(reference_okp(inst, limits, []))
        assert okp_digest(solve_okp(inst, limits)) == expected, k
        assert len(masks) == len(set(masks)), k
        zero_level += any(b.value == 0 for b in inst.boxes)
    assert zero_level >= 150, zero_level


def okp_cut_square(rng):
    """A 10 x 10 square cut guillotine-style into 5-11 boxes, plus three
    extra boxes of side at most 3: the full set overfills the square, and
    the best subset fills it."""
    pieces = [(10, 10)]
    for _ in range(rng.randint(4, 10)):
        size = pieces.pop(rng.choice([j for j, p in enumerate(pieces) if max(p) > 1]))
        axis = rng.choice([i for i in (0, 1) if size[i] > 1])
        cut = rng.randint(1, size[axis] - 1)
        pieces += [tuple(cut if i == axis else s for i, s in enumerate(size)),
                   tuple(s - cut if i == axis else s for i, s in enumerate(size))]
    pieces += [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(3)]
    return Instance(boxes=[Box(f"b{j}", p) for j, p in enumerate(pieces)], container=(10, 10))


def test_okp_pushes_each_subset_once(monkeypatch):
    # The parent loop also pushed each mask once, but every popped subset
    # pushed all children not yet seen. With one parent per subset the
    # pushes fall most where few of the 2^n subsets are popped, as on cut
    # squares under a small budget; solves that pop most subsets (the
    # pinned set) push little less.
    masks = counted_pushes(monkeypatch)
    for make, seed, limits, share in (
        (okp_pinned_instance, 56, SearchLimits(max_nodes=300, time_limit=None), 1),
        (lambda rng, k: okp_cut_square(rng), 58, SearchLimits(max_nodes=10, time_limit=None), 0.5),
    ):
        rng = random.Random(seed)
        pushes = reference_pushes = 0
        for k in range(20):
            inst = make(rng, k)
            masks.clear()
            reference = []
            expected = okp_digest(reference_okp(inst, limits, reference))
            assert okp_digest(solve_okp(inst, limits)) == expected, k
            assert len(masks) == len(set(masks)) and set(masks) <= set(reference), k
            pushes += len(masks)
            reference_pushes += len(reference)
        assert pushes < share * reference_pushes, (pushes, reference_pushes)


def lowest_candidate(boxes, cross):
    """The lowest subset sum of box heights at or above the tallest box
    and the volume bound."""
    area = Fraction(1)
    for c in cross:
        area *= c
    bound = max(max(b.size[-1] for b in boxes), sum((b.volume for b in boxes), Fraction(0)) / area)
    sums = {Fraction(0)}
    for b in boxes:
        sums |= {s + b.size[-1] for s in sums}
    return min(s for s in sums if s >= bound)


def test_spp_floor_fill_keeps_every_height(monkeypatch):
    """With the heuristic on, SPP first runs the quick fill at its volume
    floor. On 120 seeded strips, half of them guillotine cuts (perfect at
    the floor) and half random box sets, every height equals the
    heuristic-off height wherever both settle (at least 100), and every packing
    validates. The fill answers at least 60 of them, and every one it
    answers returns at the floor with no probe."""
    from test_opp import guillotine_instance

    fills = []
    quick_fill = solve._quick_fill

    def logged(sizes, caps):
        placed = quick_fill(sizes, caps)
        fills.append(placed is not None)
        return placed

    monkeypatch.setattr(solve, "_quick_fill", logged)
    rng = random.Random(73)
    on = SearchLimits(max_nodes=2_000, time_limit=None)
    off = SearchLimits(max_nodes=2_000, time_limit=None, use_heuristic=False)
    compared = answered = 0
    for k in range(120):
        if k % 2:
            boxes, cross = spp_pinned_instance(rng, k)
        else:
            strip = guillotine_instance(rng, (rng.randint(4, 8), rng.randint(4, 8)), rng.randint(5, 12))
            boxes, cross = strip.boxes, strip.container[:-1]
        fills.clear()
        fast = solve_spp(boxes, cross, on)
        exact = solve_spp(boxes, cross, off)
        assert fills == [] or len(fills) == 1, k
        if fills == [True]:
            assert fast.stats["probes"] == 0 and fast.height == lowest_candidate(boxes, cross), k
            answered += 1
        for sol in (fast, exact):
            if isinstance(sol, SppSolution):
                assert validate_packing(sol.packing, Instance(boxes=boxes, container=(*cross, sol.height))).valid
        if isinstance(fast, SppSolution) and isinstance(exact, SppSolution):
            assert fast.height == exact.height, k
            compared += 1
    assert compared >= 100 and answered >= 60, (compared, answered)
