"""`solve_spp` as it was before its sub-problems were derived from one
all-stacked instance, kept as a reference: every probe constructs and
validates a fresh `Instance`, the volume floor is summed on `Fraction`s,
and the bound, all boxes stacked in index order unless a bottom-left
order run uncapped at the all-stacked height is lower, is built and
validated as a packing before the first probe, whether or not the solve
returns it; the all-stacked height is never probed. Before the bound,
with the heuristic on, it runs the same quick fill at the volume floor
(`cellfill._quick_fill`: each axis first in turn where the boxes fill
that height exactly), on a fresh `Instance` of that height. The tests
compare `solve.solve_spp` with `solve_spp` here.
"""

import time
from bisect import bisect_left
from fractions import Fraction
from math import ceil, lcm

from packclass.cellfill import _quick_fill
from packclass.errors import InfeasibleCrossSection, InvalidInstance
from packclass.model import Instance, Packing, _placed_packing, to_fraction
from packclass.opp import SearchLimits, _Budget, _bottom_left, _decide, _heuristic_orders
from packclass.solve import ResourceLimit, SppSolution


def solve_spp(boxes, cross_section, limits=None):
    limits = limits or SearchLimits()
    budget = _Budget(limits)
    stats = {"probes": 0, "engine_nodes": 0, "candidates": 0}

    def limit(reason="spp budget exhausted"):
        stats["wall_time"] = time.perf_counter() - budget.start
        return ResourceLimit(reason, stats)

    cross = tuple(to_fraction(x) for x in cross_section)
    d = len(cross) + 1
    boxes = tuple(boxes)
    if not boxes:
        stats["wall_time"] = time.perf_counter() - budget.start
        return SppSolution(height=Fraction(0), packing=Packing({}), stats=stats)
    for box in boxes:
        if len(box.size) != d:
            raise InvalidInstance(f"box {box.id!r} has {len(box.size)} dimensions, expected {d}")
        for i in range(d - 1):
            if box.size[i] > cross[i]:
                raise InfeasibleCrossSection(f"box {box.id!r} exceeds fixed dimension {i}")

    scale = lcm(*(b.size[-1].denominator for b in boxes))
    heights = [b.size[-1].numerator * (scale // b.size[-1].denominator) for b in boxes]
    sums = {0}
    for h in heights:
        sums |= {s + h for s in sums}
        if budget.expired():
            return limit()
    cross_area = Fraction(1)
    for c in cross:
        cross_area *= c
    volume = sum((b.volume for b in boxes), Fraction(0))
    floor = max(max(heights), ceil(volume / cross_area * scale))
    candidates = sorted(s for s in sums if s >= floor)

    stats["candidates"] = len(candidates)
    if budget.spent():
        return limit()

    def probe(s):
        if budget.spent():
            return limit()
        container = (*cross, Fraction(s, scale))
        outcome = _decide(Instance(boxes=boxes, container=container), False, budget)
        stats["probes"] += 1
        stats["engine_nodes"] += outcome.stats.nodes
        if outcome.verdict == "resource_limit":
            return limit("inner decision hit its limit")
        return outcome

    height_of = {b.id: h for b, h in zip(boxes, heights)}

    def used_height(packing):
        return max(
            -(-pos[-1].numerator * scale // pos[-1].denominator) + height_of[box_id]
            for box_id, pos in packing.positions.items()
        )

    stacked = Instance(boxes=boxes, container=(*cross, Fraction(candidates[-1], scale)))
    tops = [sum(heights[:b]) for b in range(len(boxes))]
    best = candidates[-1], [(b, (*[0] * (d - 1), top)) for b, top in enumerate(tops)]
    if limits.use_heuristic:
        height = Fraction(candidates[0], scale)
        at_floor = Instance(boxes=boxes, container=(*cross, height))
        caps = [at_floor.int_container(i) for i in range(d)]
        placed = _quick_fill(at_floor.int_sizes, caps)
        if placed is not None:
            stats["wall_time"] = time.perf_counter() - budget.start
            return SppSolution(height=height, packing=_placed_packing(at_floor, placed), stats=stats)
        caps = [stacked.int_container(i) for i in range(d)]
        for order in _heuristic_orders(stacked):
            if best[0] <= candidates[0]:
                break
            if budget.expired():
                return limit()
            placed = _bottom_left(stacked.int_sizes, caps, order)
            top = max(pos[-1] + heights[b] for b, pos in placed)
            if top < best[0]:
                best = top, placed
    packing = _placed_packing(stacked, best[1])
    lo, hi = 0, bisect_left(candidates, best[0])
    while lo < hi:
        mid = (lo + hi) // 2
        outcome = probe(candidates[mid])
        if isinstance(outcome, ResourceLimit):
            return outcome
        if outcome.verdict == "feasible":
            packing = outcome.packing
            hi = bisect_left(candidates, used_height(packing), lo, mid)
        else:
            lo = mid + 1
    stats["wall_time"] = time.perf_counter() - budget.start
    return SppSolution(height=Fraction(candidates[lo], scale), packing=packing, stats=stats)
