"""Cell fill: an exact packing search over the cells of an integer grid.

Cells are numbered with one axis varying fastest (axis 0 by default),
then the following axes in turn. Under any such order the box covering
the lowest empty cell has its corner there, so the search fills that
cell with a box corner or wastes it, waste bounded by the slack (the
wasted-space view of Korf, "Optimal rectangle packing", ICAPS 2003).
Each distinct size is tried once per cell, largest volume first.
Occupancy is one integer bitset, and the search one loop on an explicit
stack: its depth can reach the cell count. `oracle.cell_fill_opp` runs
it to the end; `solve_spp` runs `_quick_fill`, its quick yes on node
slices of `FILL_NODES`.
"""

from math import prod

CELL_CAP = 4096  # larger grids are not searched
FILL_NODES = 64  # the quick yes's node slice


def _cell_fill(sizes, caps, max_nodes: int, first: int = 0):
    """(placed, exhausted) for the integer boxes `sizes` (tuples, each
    fitting the grid `caps`), with axis `first` varying fastest: placed
    is [(box, corner)] or None, and (None, True) means no packing exists.
    (None, False) means nothing is known: `max_nodes` (one per placed box
    or wasted cell) ran out, or the grid has more than `CELL_CAP` cells."""
    n, cells = len(sizes), prod(caps)
    if cells > CELL_CAP:
        return None, False
    slack = cells - sum(map(prod, sizes))
    if slack < 0:
        return None, True
    strides = [prod(caps[first:i]) if i >= first else prod(caps[first:]) * prod(caps[:i]) for i in range(len(caps))]

    def block(lens) -> int:  # the cells below lens[i] on each axis i
        mask = 1
        for w, stride in zip(lens, strides):
            mask *= ((1 << stride * w) - 1) // ((1 << stride) - 1)
        return mask

    groups: dict = {}
    for b, s in enumerate(sizes):
        groups.setdefault(s, []).append(b)
    kinds = sorted(groups, key=lambda s: (-prod(s), s))
    m = len(kinds)
    free = [groups[s][::-1] for s in kinds]  # pops the lowest index
    shape = [block(s) for s in kinds]
    anchor = [block([c - w + 1 for w, c in zip(s, caps)]) for s in kinds]  # corners that fit

    occ = waste = nodes = cell = k = 0
    placed: list[int] = []  # box indices, in stack order
    stack: list[tuple[int, int]] = []  # (cell, choice): a kind k < m, or m for waste
    while len(placed) < n:
        while k < m and not (free[k] and anchor[k] >> cell & 1 and not occ & shape[k] << cell):
            k += 1
        if k < m or k == m and waste < slack:
            if nodes >= max_nodes:
                return None, False
            nodes += 1
            stack.append((cell, k))
            if k < m:
                occ |= shape[k] << cell
                placed.append(free[k].pop())
            else:
                occ |= 1 << cell
                waste += 1
            cell, k = (~occ & (occ + 1)).bit_length() - 1, 0  # the lowest empty cell
            continue
        if not stack:
            return None, True
        cell, k = stack.pop()
        if k < m:
            occ ^= shape[k] << cell
            free[k].append(placed.pop())
        else:
            occ ^= 1 << cell
            waste -= 1
        k += 1
    corners = [tuple(cell // s % c for s, c in zip(strides, caps)) for cell, k in stack if k < m]
    return list(zip(placed, corners)), True


def _quick_fill(sizes, caps):
    """A packing of `sizes` in the grid `caps` as `_cell_fill` places it,
    or None, which proves nothing. Axis 0 goes first, on `FILL_NODES`
    nodes; where the boxes fill the grid exactly, each other axis then
    goes first on a slice of its own, until one packs or one exhausts."""
    for first in range(len(caps)):
        placed, exhausted = _cell_fill(sizes, caps, FILL_NODES, first)
        if placed is not None or exhausted or prod(caps) != sum(map(prod, sizes)):
            return placed
    return None
