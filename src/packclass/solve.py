"""Optimization on top of the decision engine: knapsack value (OKP) and
minimal strip height (SPP).

OKP enumerates candidate subsets best-first by total value (children of a
dismissed subset drop one box), screening with the cheap infeasibility
check and deciding survivors with the exact engine; the first feasible
subset popped is optimal. SPP probes candidate heights by binary search;
since some optimal packing is gapless, every coordinate is a subset sum
of box heights, so only those sums can be optimal heights.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

from .errors import InfeasibleCrossSection, InvalidInstance
from .model import Box, Instance, Packing, to_fraction
from .opp import SearchLimits, SearchOutcome, quick_infeasible, solve_opp

DISMISSED_RECORD_CAP = 10_000


@dataclass(frozen=True)
class ResourceLimit:
    reason: str
    stats: dict


@dataclass
class OkpSolution:
    chosen: tuple[str, ...]
    total_value: Fraction
    packing: Packing
    stats: dict
    dismissed: tuple  # ((box ids), reason) pairs, capped


@dataclass
class SppSolution:
    height: Fraction
    packing: Packing
    stats: dict


class _Budget:
    """Shared node/time budget across the inner engine calls."""

    def __init__(self, limits: SearchLimits):
        self.limits = limits
        self.start = time.perf_counter()
        self.nodes_left = limits.max_nodes

    def remaining_limits(self) -> Optional[SearchLimits]:
        if self.nodes_left <= 0:
            return None
        time_left = None
        if self.limits.time_limit is not None:
            time_left = self.limits.time_limit - (time.perf_counter() - self.start)
            if time_left <= 0:
                return None
        return replace(self.limits, max_nodes=self.nodes_left, time_limit=time_left)

    def charge(self, outcome: SearchOutcome) -> None:
        self.nodes_left -= outcome.stats.nodes

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def solve_okp(
    inst: Instance, limits: Optional[SearchLimits] = None
) -> Union[OkpSolution, ResourceLimit]:
    """Maximize the total value of a packable subset. Exact unless a
    resource limit interrupts the enumeration."""
    limits = limits or SearchLimits()
    budget = _Budget(limits)
    n = inst.n
    # Values on one integer scale; a positive scale keeps the heap order
    # and its ties.
    scale = lcm(*(b.value.denominator for b in inst.boxes))
    values = [b.value.numerator * (scale // b.value.denominator) for b in inst.boxes]

    def subset_ids(mask: int) -> tuple[str, ...]:
        return tuple(inst.ids[k] for k in range(n) if mask >> k & 1)

    stats = {
        "examined": 0,
        "dismissed_screen": 0,
        "dismissed_opp": 0,
        "engine_nodes": 0,
    }
    dismissed: list[tuple[tuple[str, ...], str]] = []

    def record(mask: int, reason: str) -> None:
        if len(dismissed) < DISMISSED_RECORD_CAP:
            dismissed.append((subset_ids(mask), reason))

    full = (1 << n) - 1
    heap: list[tuple[int, int, int]] = [(-sum(values), full.bit_count(), full)]
    pushed = {full}

    while heap:
        neg_value, _, mask = heapq.heappop(heap)
        stats["examined"] += 1
        if mask == 0:
            stats["wall_time"] = budget.elapsed()
            return OkpSolution(
                chosen=(),
                total_value=Fraction(0),
                packing=Packing({}),
                stats=stats,
                dismissed=tuple(dismissed),
            )
        ids = subset_ids(mask)
        if quick_infeasible(inst, ids):
            stats["dismissed_screen"] += 1
            record(mask, "volume-or-pair-screen")
        else:
            sub_limits = budget.remaining_limits()
            if sub_limits is None:
                return ResourceLimit("okp budget exhausted", stats)
            outcome = solve_opp(inst.restrict(ids), sub_limits)
            budget.charge(outcome)
            stats["engine_nodes"] += outcome.stats.nodes
            if outcome.verdict == "resource_limit":
                return ResourceLimit("inner decision hit its limit", stats)
            if outcome.verdict == "feasible":
                stats["wall_time"] = budget.elapsed()
                return OkpSolution(
                    chosen=ids,
                    total_value=Fraction(-neg_value, scale),
                    packing=outcome.packing,
                    stats=stats,
                    dismissed=tuple(dismissed),
                )
            stats["dismissed_opp"] += 1
            record(mask, "opp-infeasible")
        for k in range(n):
            if mask >> k & 1:
                child = mask & ~(1 << k)
                if child not in pushed:
                    pushed.add(child)
                    heapq.heappush(heap, (neg_value + values[k], child.bit_count(), child))
    raise AssertionError("unreachable: the empty subset is always feasible")


def solve_spp(
    boxes: Sequence[Box],
    cross_section: Sequence,
    limits: Optional[SearchLimits] = None,
) -> Union[SppSolution, ResourceLimit]:
    """Minimal container height with the other dimensions fixed.

    `cross_section` fixes dimensions 0..d-2; the optimized height is the
    last dimension. Candidate heights are the subset sums of the boxes'
    last-dimension sizes, probed in binary-search order.
    """
    limits = limits or SearchLimits()
    cross = tuple(to_fraction(x) for x in cross_section)
    d = len(cross) + 1
    boxes = tuple(boxes)
    if not boxes:
        return SppSolution(height=Fraction(0), packing=Packing({}), stats={"probes": 0})
    for box in boxes:
        if len(box.size) != d:
            raise InvalidInstance(
                f"box {box.id!r} has {len(box.size)} dimensions, expected {d}"
            )
        for i in range(d - 1):
            if box.size[i] > cross[i]:
                raise InfeasibleCrossSection(
                    f"box {box.id!r} exceeds fixed dimension {i}"
                )

    scale = lcm(*(b.size[-1].denominator for b in boxes))
    heights = sorted(b.size[-1] for b in boxes)
    sums = {0}
    for h in heights:
        sums |= {s + int(h * scale) for s in sums}
    max_single = max(int(h * scale) for h in heights)
    total = sum(int(h * scale) for h in heights)
    cross_area = Fraction(1)
    for c in cross:
        cross_area *= c
    volume = sum((b.volume for b in boxes), Fraction(0))
    volume_bound = volume / cross_area  # any feasible height is >= this
    candidates = sorted(
        s
        for s in sums
        if max_single <= s <= total and Fraction(s, scale) >= volume_bound
    )
    assert candidates, "stacking all boxes is always a candidate"

    budget = _Budget(limits)
    stats = {"probes": 0, "engine_nodes": 0, "candidates": len(candidates)}
    probe_memo: dict[int, SearchOutcome] = {}

    def probe(s: int) -> Union[SearchOutcome, ResourceLimit]:
        if s in probe_memo:
            return probe_memo[s]
        sub_limits = budget.remaining_limits()
        if sub_limits is None:
            return ResourceLimit("spp budget exhausted", stats)
        height = Fraction(s, scale)
        outcome = solve_opp(Instance(boxes=boxes, container=(*cross, height)), sub_limits)
        budget.charge(outcome)
        stats["probes"] += 1
        stats["engine_nodes"] += outcome.stats.nodes
        if outcome.verdict == "resource_limit":
            return ResourceLimit("inner decision hit its limit", stats)
        probe_memo[s] = outcome
        return outcome

    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        outcome = probe(candidates[mid])
        if isinstance(outcome, ResourceLimit):
            return outcome
        if outcome.verdict == "feasible":
            hi = mid
        else:
            lo = mid + 1
    final = probe(candidates[lo])
    if isinstance(final, ResourceLimit):
        return final
    assert final.verdict == "feasible", "the all-stacked height must be feasible"
    stats["wall_time"] = budget.elapsed()
    return SppSolution(
        height=Fraction(candidates[lo], scale), packing=final.packing, stats=stats
    )
