"""Cell fill: an exact packing search over the cells of an integer grid.

The box covering the lowest empty cell (axis 0 varying fastest) has its
corner there, so the search fills that cell with a box corner or wastes
it, waste bounded by the slack (the wasted-space view of Korf, "Optimal
rectangle packing", ICAPS 2003). Each distinct size is tried once per
cell, largest volume first. Occupancy is one integer bitset, and the
search one loop on an explicit stack: its depth can reach the cell
count. `solve_spp` runs it on `FILL_NODES` nodes as a quick yes;
`oracle.cell_fill_opp` runs it to the end.
"""

from math import prod

CELL_CAP = 4096  # larger grids are not searched
FILL_NODES = 64  # the quick yes's node slice


def _cell_fill(sizes, caps, max_nodes: int):
    """(placed, exhausted) for the integer boxes `sizes` (tuples, each
    fitting the grid `caps`): placed is [(box, corner)] or None, and
    (None, True) means no packing exists. (None, False) means nothing is
    known: `max_nodes` (one per placed box or wasted cell) ran out, or
    the grid has more than `CELL_CAP` cells."""
    n, cells = len(sizes), prod(caps)
    if cells > CELL_CAP:
        return None, False
    slack = cells - sum(map(prod, sizes))
    if slack < 0:
        return None, True
    strides = [prod(caps[:i]) for i in range(len(caps))]

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
