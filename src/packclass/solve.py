"""Optimization on top of the decision engine: knapsack value (OKP) and
minimal strip height (SPP).

Each solve has one node/time budget (`opp._Budget`), and every
sub-problem it decides is charged to it through `opp._decide`, the engine
after its volume/pair screen: no sub-problem is screened twice. Only the
decision's packing is read, so a bottom-left heuristic hit is never
projected to a packing class; its packing is still validated.

OKP enumerates candidate subsets best-first by total value (then fewer
boxes, then bitset), screening each and deciding survivors with the exact
engine; the first feasible subset popped is optimal. A zero-valued box
adds a box and no value, so no optimal subset in that order holds one:
the enumeration runs on the instance of the positive-valued boxes alone,
and OKP never returns a zero-valued box. Children of a dismissed subset
drop one box, and each is pushed by one parent: a subset C only by C
plus the highest box it misses. That parent is worth strictly more, so
it has popped, and pushed C, before any subset of C's value pops, just
as some parent had when every popped subset pushed all its unseen
children: the pop order is the same, only the pushes are fewer. A heap
entry carries its subset's volume and whether it is known to hold no
too-wide pair (then neither does any subset of it), so a popped subset
is screened by one comparison, plus a pass over its pairs only while not
known clean. Box ids are built only for subsets that are recorded or
decided.

SPP probes candidate heights by binary search; since some optimal packing
is gapless, every coordinate is a subset sum of box heights, so only those
sums (at least the tallest box and the volume bound) can be optimal
heights. Every candidate height has the same integer scale, so SPP builds
one instance, at the all-stacked height, and derives each sub-problem from
its integer tables with only the height changed; the volume bound is taken
on its integers too. With the heuristic on, SPP first tries to meet its
lower bound (Martello, Monaci and Vigo, "An exact approach to the
strip-packing problem", INFORMS J. Computing 15(3), 2003): a cell fill
(`cellfill`) on a node slice of its own at the lowest candidate, where a
packing is optimal; a miss proves nothing. Then the bottom-left heuristic
runs once per solve, as the upper bound: every order of `heuristic_pack`,
keeping the lowest top. A lower cap on the last axis only cuts that axis's
list of corner candidates, so under a cap H a run places its boxes exactly
as at the all-stacked height if its top is at most H and fails otherwise.
The first order runs at the all-stacked height, where it places every box,
and each later one one grid step below the lowest top so far: it keeps its
placement only if it beats that top, and otherwise stops at its first box
over the cap. The heuristic therefore fails at every height below the
bound, and the probes there run the exact engine alone. A feasible probe's
packing fits every height from the one it actually uses, so the search is
capped at the smallest candidate at or above that height, not just at the
probed one, and the packing in hand is returned once the search closes on
it. The bound's placement becomes a `Packing`, validated at the
all-stacked height, only if it is the one returned.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm, prod
from typing import Optional, Sequence, Union

from .cellfill import FILL_NODES, _cell_fill
from .errors import InfeasibleCrossSection, InvalidInstance
from .graph import bits
from .model import Box, Instance, Packing, _placed_packing, to_fraction
from .opp import (
    SearchLimits,
    SearchOutcome,
    _Budget,
    _bottom_left,
    _decide,
    _heuristic_orders,
    _screen_tables,
)

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
    _dismissed: list  # (box bitset over `_ids`, reason) pairs, capped
    _ids: tuple[str, ...]

    @cached_property
    def dismissed(self) -> tuple:
        """((box ids), reason) pairs, capped; built on first read."""
        return tuple((tuple(self._ids[k] for k in bits(m)), reason) for m, reason in self._dismissed)


@dataclass
class SppSolution:
    height: Fraction
    packing: Packing
    stats: dict


def solve_okp(
    inst: Instance, limits: Optional[SearchLimits] = None
) -> Union[OkpSolution, ResourceLimit]:
    """Maximize the total value of a packable subset. Exact unless a
    resource limit interrupts the enumeration. `limits.max_nodes` counts
    the exact engine's nodes only, not the subsets enumerated and
    screened, so only `limits.time_limit` bounds the enumeration: with
    no time limit, many boxes of which few fit can keep it running for
    a very long time. Only the positive-valued boxes are enumerated
    (see the module docstring), and each decided subset is derived from
    `inst`'s integer tables, not validated afresh."""
    limits = limits or SearchLimits()
    budget = _Budget(limits)
    keep = [k for k, b in enumerate(inst.boxes) if b.value]
    if len(keep) < inst.n:
        inst = inst._derive(keep, inst.container)
    n = inst.n
    # Values on one integer scale; a positive scale keeps the heap order
    # and its ties.
    scale = lcm(*(b.value.denominator for b in inst.boxes))
    values = [b.value.numerator * (scale // b.value.denominator) for b in inst.boxes]

    volumes, too_wide, capacity = _screen_tables(inst)

    def subset_ids(mask: int) -> tuple[str, ...]:
        return tuple(inst.ids[k] for k in bits(mask))

    stats = {
        "examined": 0,
        "dismissed_screen": 0,
        "dismissed_opp": 0,
        "engine_nodes": 0,
    }
    dismissed: list[tuple[int, str]] = []  # (mask, reason); ids only when read

    def record(mask: int, reason: str) -> None:
        if len(dismissed) < DISMISSED_RECORD_CAP:
            dismissed.append((mask, reason))

    def limit(reason: str) -> ResourceLimit:
        stats["wall_time"] = time.perf_counter() - budget.start
        return ResourceLimit(reason, stats)

    def solution(chosen: int, value: int, packing: Packing) -> OkpSolution:
        stats["wall_time"] = time.perf_counter() - budget.start
        return OkpSolution(
            chosen=subset_ids(chosen),
            total_value=Fraction(value, scale),
            packing=packing,
            stats=stats,
            _dismissed=dismissed,
            _ids=inst.ids,
        )

    full = (1 << n) - 1
    # (-value, size, mask, volume, clean): masks are unique on the heap, so
    # the carried volume and "no too-wide pair inside" flag never decide
    # the order.
    heap = [(-sum(values), n, full, sum(volumes), False)]

    while heap:
        neg_value, size, mask, volume, clean = heappop(heap)
        stats["examined"] += 1
        if mask == 0:
            return solution(0, 0, Packing({}))
        if budget.expired():  # before the screen, which charges no nodes
            return limit("okp budget exhausted")
        if volume <= capacity and not clean:
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                if too_wide[low.bit_length() - 1] & mask:
                    break
            else:
                clean = True
        if volume > capacity or not clean:
            stats["dismissed_screen"] += 1
            record(mask, "volume-or-pair-screen")
        else:
            if budget.nodes_left <= 0:
                return limit("okp budget exhausted")
            # The subset passed the screen above: no second screen.
            outcome = _decide(inst._derive(list(bits(mask)), inst.container), limits.use_heuristic, budget)
            stats["engine_nodes"] += outcome.stats.nodes
            if outcome.verdict == "resource_limit":
                return limit("inner decision hit its limit")
            if outcome.verdict == "feasible":
                return solution(mask, -neg_value, outcome.packing)
            stats["dismissed_opp"] += 1
            record(mask, "opp-infeasible")
        # Children drop one box above every box the subset already
        # misses, so each child has one parent.
        size -= 1
        rest = mask & ~((1 << (full ^ mask).bit_length()) - 1)
        while rest:
            low = rest & -rest
            rest ^= low
            k = low.bit_length() - 1
            heappush(heap, (neg_value + values[k], size, mask ^ low, volume - volumes[k], clean))
    raise AssertionError("unreachable: the empty subset is always feasible")


def solve_spp(
    boxes: Sequence[Box],
    cross_section: Sequence,
    limits: Optional[SearchLimits] = None,
) -> Union[SppSolution, ResourceLimit]:
    """Minimal container height with the other dimensions fixed.

    `cross_section` fixes dimensions 0..d-2; the optimized height is the
    last dimension. Candidate heights are the subset sums of the boxes'
    last-dimension sizes, probed in binary-search order; each feasible
    probe caps the search at the height its packing uses. With
    `limits.use_heuristic`, a cell fill at the volume floor may answer
    first; otherwise the lowest top of the bottom-left orders caps the
    search, and no probe runs the heuristic (see the module docstring).
    The one budget is built first, so the deadline also bounds building
    the sums; a budget spent by then ends the solve before the fill, and
    the bound reads the deadline before every box it places.
    """
    limits = limits or SearchLimits()
    budget = _Budget(limits)
    stats = {"probes": 0, "engine_nodes": 0, "candidates": 0}

    def limit(reason: str = "spp budget exhausted") -> ResourceLimit:
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
            raise InvalidInstance(
                f"box {box.id!r} has {len(box.size)} dimensions, expected {d}"
            )
        for i in range(d - 1):
            if box.size[i] > cross[i]:
                raise InfeasibleCrossSection(
                    f"box {box.id!r} exceeds fixed dimension {i}"
                )

    # Every sub-problem derives from this one: every candidate height has
    # the integer scale `scale` on the last axis, so only its cap changes.
    stacked = Instance(boxes=boxes, container=(*cross, sum((b.size[-1] for b in boxes), Fraction(0))))
    scale = stacked.scale(d - 1)
    heights = [row[-1] for row in stacked.int_sizes]

    def at_height(s: int) -> Instance:
        return stacked._derive(None, (*cross, Fraction(s, scale)))

    sums = {0}
    for h in heights:  # up to 2^n sums: the deadline holds here too
        sums |= {s + h for s in sums}
        if budget.expired():
            return limit()
    # any feasible height is at least the tallest box and volume / cross-section
    cross_caps = [stacked.int_container(i) for i in range(d - 1)]
    area = prod(cross_caps)
    volume = sum(stacked.int_volume(b) for b in range(stacked.n))
    floor = max(max(heights), -(-volume // area))
    candidates = sorted(s for s in sums if s >= floor)
    assert candidates, "stacking all boxes is always a candidate"

    stats["candidates"] = len(candidates)
    if budget.spent():
        return limit()

    def probe(s: int) -> Union[SearchOutcome, ResourceLimit]:
        if budget.spent():
            return limit()
        # No screen: a candidate height holds the volume by construction,
        # and a pair too wide on every axis is an initial conflict at 0 nodes.
        # No heuristic: it fails below the bound, and is off without one.
        outcome = _decide(at_height(s), False, budget)
        stats["probes"] += 1
        stats["engine_nodes"] += outcome.stats.nodes
        if outcome.verdict == "resource_limit":
            return limit("inner decision hit its limit")
        return outcome

    height_of = {b.id: h for b, h in zip(boxes, heights)}

    def used_height(packing: Packing) -> int:
        """Top of the highest box, rounded up to the scaled grid."""
        return max(
            -(-pos[-1].numerator * scale // pos[-1].denominator) + height_of[box_id]
            for box_id, pos in packing.positions.items()
        )

    lo, hi = 0, len(candidates) - 1
    packing = bound = None
    if limits.use_heuristic:  # a packing at the volume floor is optimal
        placed, _ = _cell_fill(stacked.int_sizes, (*cross_caps, candidates[0]), FILL_NODES)
        if placed is not None:
            packing, hi = _placed_packing(at_height(candidates[0]), placed), 0
    if limits.use_heuristic and packing is None:
        # The bound: at the all-stacked height the top of the stack is
        # always free, so the first run places every box. Each later run
        # is capped one grid step below the lowest top so far: it places
        # its boxes as uncapped if it beats that top, and stops at its
        # first box over the cap if it cannot.
        capped = stacked
        for order in _heuristic_orders(stacked):
            if bound is not None and budget.expired():
                return limit()
            placed = _bottom_left(capped, order, budget.deadline)
            if placed is None and bound is None:  # the first run stops only at the deadline
                return limit()
            if placed is not None:  # (top, placement)
                bound = max(pos[-1] + heights[b] for b, pos in placed), placed
                if bound[0] <= candidates[0]:
                    break
                capped = at_height(bound[0] - 1)  # still at least the tallest box
        hi = bisect_left(candidates, bound[0])
    # Invariant: candidates below lo are infeasible and candidates[hi] is
    # feasible; `packing`, once set, fits in height candidates[hi], and
    # so does `bound` until a probe's packing replaces it. A probe's
    # packing fits every height from the one it uses, so hi drops to the
    # smallest candidate at or above that, not just to the probed one.
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
    if packing is None and bound is not None:  # validated at the all-stacked height
        packing = _placed_packing(stacked, bound[1])
    elif packing is None:  # no probe was feasible, so lo is the all-stacked height
        final = probe(candidates[lo])
        if isinstance(final, ResourceLimit):
            return final
        if final.verdict != "feasible":
            raise AssertionError("the all-stacked height must be feasible")
        packing = final.packing
    stats["wall_time"] = time.perf_counter() - budget.start
    return SppSolution(height=Fraction(candidates[lo], scale), packing=packing, stats=stats)
