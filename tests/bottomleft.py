"""Reference bottom-left placement that only the tests use.

The straightforward corner walk the library's jump search replaced: for
each box, every axis gets its candidate coordinates (0 and the placed far
sides that leave room), each carrying the bitset of placed boxes it
overlaps on that axis, and the candidate corners are walked in
lexicographic order (highest axis slowest) until the AND of a corner's
masks is 0. `opp._bottom_left` must return the same placements.
"""

from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import product
from typing import Optional

from packclass.model import Instance


def bottom_left_by_masks(
    inst: Instance, order: list[int]
) -> Optional[list[tuple[int, tuple[int, ...]]]]:
    placed: list[tuple[int, tuple[int, ...]]] = []
    spans: list[list[tuple[int, int]]] = [[] for _ in range(inst.d)]  # placed [lo, hi) per axis
    for b in order:
        values, masks = [], []
        for i, axis_spans in enumerate(spans):
            w = inst.int_size(b, i)
            limit = inst.int_container(i) - w
            vals = sorted({0, *(hi for _, hi in axis_spans if hi <= limit)})
            axis = [0] * len(vals)
            for k, (lo, hi) in enumerate(axis_spans):
                # [v, v + w) meets [lo, hi) iff lo - w < v < hi
                for j in range(bisect_right(vals, lo - w), bisect_left(vals, hi)):
                    axis[j] |= 1 << k
            values.append(vals)
            masks.append(axis)
        for rank, corner in enumerate(product(*reversed(masks))):
            if not reduce(int.__and__, corner):
                spot = []
                for vals in values:  # rank in mixed radix, axis 0 fastest
                    rank, j = divmod(rank, len(vals))
                    spot.append(vals[j])
                placed.append((b, tuple(spot)))
                for i, v in enumerate(spot):
                    spans[i].append((v, v + inst.int_size(b, i)))
                break
        else:
            return None
    return placed
