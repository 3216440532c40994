"""The cell fill core (`cellfill._cell_fill`): its packings, its node
slice and its depth."""

import random
from fractions import Fraction

from packclass.cellfill import CELL_CAP, FILL_NODES, _cell_fill
from packclass.model import Box, Instance, _placed_packing, validate_packing


def test_every_fill_validates():
    """On 300 seeded instances, d 1-3, 1-12 boxes on a 1 or 1/2 grid, each
    placement the fill returns holds every box once and builds a packing
    through `_placed_packing`, which checks its spans on the grid."""
    rng = random.Random(71)
    filled = 0
    for k in range(300):
        d = 1 + k % 3
        den = 1 + k // 3 % 2
        container = tuple(Fraction(rng.randint(2 * den, 6 * den), den) for _ in range(d))
        boxes = [
            Box(f"b{j}", tuple(Fraction(rng.randint(1, max(1, int(w * den) // 2)), den) for w in container))
            for j in range(rng.randint(1, 12))
        ]
        inst = Instance(boxes=boxes, container=container)
        caps = [inst.int_container(i) for i in range(d)]
        placed, exhausted = _cell_fill(inst.int_sizes, caps, 2_000)
        if placed is None:
            continue
        assert exhausted and sorted(b for b, _ in placed) == list(range(inst.n)), k
        assert validate_packing(_placed_packing(inst, placed), inst).valid
        filled += 1
    assert filled >= 150, filled


def test_a_full_size_grid_runs_deep_without_recursion():
    """4,000 unit boxes in the largest grid searched, 64 x 64 = 4,096 cells
    with a slack of 96: the fill stops inside its slice, and given the
    nodes it places every box at depth 4,000, far below the interpreter's
    recursion limit. One node less and it stops unsettled."""
    assert 64 * 64 == CELL_CAP
    sizes = [(1, 1)] * 4000
    assert _cell_fill(sizes, (64, 64), FILL_NODES) == (None, False)
    assert _cell_fill(sizes, (64, 64), 3999) == (None, False)
    placed, exhausted = _cell_fill(sizes, (64, 64), 4000)
    assert exhausted and len({corner for _, corner in placed}) == 4000
    assert _cell_fill([(1, 1)], (65, 64), 10) == (None, False)  # above the cap: not searched


def test_waste_is_bounded_by_the_slack():
    """Two 2 x 2 boxes fit a 4 x 2 grid with no waste; in a 3 x 3 grid the
    one wasted cell allowed is not enough, and the search says so. Four
    boxes in a 4 x 4 grid leave two cells spare, and the fill packs them
    only by wasting both before its last box."""
    placed, exhausted = _cell_fill([(2, 2), (2, 2)], (4, 2), 2)
    assert exhausted and sorted(placed) == [(0, (0, 0)), (1, (2, 0))]
    assert _cell_fill([(2, 2), (2, 2)], (3, 3), 10_000) == (None, True)
    sizes = [(3, 1), (2, 1), (2, 3), (1, 3)]
    inst = Instance(boxes=[Box(f"b{k}", s) for k, s in enumerate(sizes)], container=(4, 4))
    placed, exhausted = _cell_fill(sizes, (4, 4), 10_000)
    assert exhausted and validate_packing(_placed_packing(inst, placed), inst).valid
