"""Instance generators and solver-vs-oracle comparison sweeps.

The exhaustive grid enumerates box multisets over a small size alphabet;
the random generator drives the randomized agreement checks. Both feed
the same comparison record, which the CLI and the acceptance suite share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement, product, repeat
from typing import Iterable, Optional, Sequence

from .errors import TooLarge
from .model import Box, Instance
from .opp import SearchLimits, solve_opp
from .oracle import brute_force_opp, cell_fill_opp, enumerate_packing_classes

CLASS_CAP = 0  # the sweep compares class counts and keeps no class
CHUNK = 8  # instances per task handed to a sweep worker


def exhaustive_grid(
    max_boxes: int = 4,
    sizes: Sequence[int] = (1, 2, 3),
    container: Sequence[int] = (3, 3),
) -> list[Instance]:
    """Every instance (up to box reordering) with 1..max_boxes boxes whose
    per-axis sizes come from `sizes`."""
    d = len(container)
    vectors = sorted(product(sizes, repeat=d))
    instances = []
    for n in range(1, max_boxes + 1):
        for combo in combinations_with_replacement(vectors, n):
            boxes = [Box(f"b{k + 1}", vec) for k, vec in enumerate(combo)]
            instances.append(Instance(boxes=boxes, container=container))
    return instances


def random_instance(
    rng: random.Random,
    max_boxes: int = 4,
    max_size: int = 3,
    container: Sequence[int] = (4, 4),
) -> Instance:
    d = len(container)
    n = rng.randint(1, max_boxes)
    boxes = [
        Box(f"b{k + 1}", tuple(rng.randint(1, max_size) for _ in range(d)))
        for k in range(n)
    ]
    return Instance(boxes=boxes, container=container)


@dataclass
class OppComparison:
    instance: Instance
    solver_verdict: str
    oracle_feasible: bool
    class_count: int
    cell_fill_feasible: Optional[bool]  # None: not compared, the fill raised TooLarge

    @property
    def agree(self) -> bool:
        solver = self.solver_verdict == "feasible"
        fill = self.cell_fill_feasible
        return solver == self.oracle_feasible == (self.class_count > 0) == (solver if fill is None else fill)


def compare_opp(inst: Instance, limits: Optional[SearchLimits] = None) -> OppComparison:
    """Run solver, brute force, class enumeration and the cell fill on one
    instance; a grid the cell fill does not settle is compared without it."""
    outcome = solve_opp(inst, limits or SearchLimits())
    brute = brute_force_opp(inst)
    enum = enumerate_packing_classes(inst, cap=CLASS_CAP)
    try:
        fill: Optional[bool] = cell_fill_opp(inst).feasible
    except TooLarge:
        fill = None
    return OppComparison(inst, outcome.verdict, brute.feasible, enum.total, fill)


def _compare_worker(inst: Instance, limits: Optional[SearchLimits]) -> tuple[str, bool, int, Optional[bool]]:
    c = compare_opp(inst, limits)
    return c.solver_verdict, c.oracle_feasible, c.class_count, c.cell_fill_feasible


def run_opp_sweep(
    instances: Iterable[Instance],
    limits: Optional[SearchLimits] = None,
    jobs: int = 1,
) -> list[OppComparison]:
    instances = list(instances)
    # A forking pool starts every worker it is given at its first task, so
    # it gets no more than there are chunks to hand out.
    workers = min(jobs, -(-len(instances) // CHUNK))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # Disjoint instances, one worker each; results keep input order.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_compare_worker, instances, repeat(limits), chunksize=CHUNK))
        return [OppComparison(inst, *answers) for inst, answers in zip(instances, raw)]
    return [compare_opp(inst, limits) for inst in instances]
