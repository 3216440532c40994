"""The cell fill core (`cellfill._cell_fill`): its packings under every
axis order, its node slice and its depth; and SPP's quick fill
(`cellfill._quick_fill`), which tries each axis first on a perfect floor."""

import random
from fractions import Fraction

from packclass import cellfill
from packclass.cellfill import CELL_CAP, FILL_NODES, _cell_fill, _quick_fill
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


def test_every_axis_order_validates():
    """On 300 seeded instances, d 1-3, 1-12 boxes on a 1 or 1/2 grid, the
    fill with each axis first returns placements that hold every box once
    and build a packing through `_placed_packing`. The search is complete
    under every order: where one order proves that no packing exists (at
    least 80 instances), no other order packs."""
    rng = random.Random(72)
    filled = refuted = 0
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
        outs = [_cell_fill(inst.int_sizes, caps, 2_000, first) for first in range(d)]
        for first, (placed, exhausted) in enumerate(outs):
            if placed is not None:
                assert exhausted and sorted(b for b, _ in placed) == list(range(inst.n)), (k, first)
                assert validate_packing(_placed_packing(inst, placed), inst).valid, (k, first)
                filled += 1
        if (None, True) in outs:
            assert all(p is None for p, _ in outs), k
            refuted += 1
    assert filled >= 400 and refuted >= 80, (filled, refuted)


def test_quick_fill_packs_more_guillotine_strips(monkeypatch):
    """On 160 seeded guillotine strips at their height, 2-D (6-12 wide)
    and 3-D (4-6 by 4-6), n 8-20, the boxes fill the grid exactly. The
    quick fill packs at least 10 more of them than the fill with axis 0
    first on the same slice (139 against 120), and returns that fill's
    placement wherever it packs. One cell row taller, the grid has slack
    and the quick fill runs axis 0 first alone."""
    from test_opp import guillotine_instance

    calls = []
    fill = cellfill._cell_fill

    def logged(sizes, caps, max_nodes, first=0):
        calls.append(first)
        return fill(sizes, caps, max_nodes, first)

    monkeypatch.setattr(cellfill, "_cell_fill", logged)
    rng = random.Random(61)
    first_only = quick = 0
    for k in range(160):
        d = 2 + k % 2
        container = (
            (rng.randint(6, 12), rng.randint(6, 14)) if d == 2
            else (rng.randint(4, 6), rng.randint(4, 6), rng.randint(4, 8))
        )
        strip = guillotine_instance(rng, container, rng.randint(8, 20))
        caps = [strip.int_container(i) for i in range(d)]
        alone, _ = fill(strip.int_sizes, caps, FILL_NODES)
        placed = _quick_fill(strip.int_sizes, caps)
        if alone is not None:
            assert placed == alone, k
        elif placed is not None:
            assert validate_packing(_placed_packing(strip, placed), strip).valid, k
        first_only += alone is not None
        quick += placed is not None
        calls.clear()
        _quick_fill(strip.int_sizes, (*caps[:-1], caps[-1] + 1))
        assert calls == [0], k
    assert quick >= first_only + 10, (quick, first_only)
