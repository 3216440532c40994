"""The benchmark's own packing checker.

It shares no code with `packclass.model.validate_packing`: coordinates
and sizes are brought to one integer grid per axis (the lcm of every
denominator on that axis) and containment and pairwise overlap are
checked on integers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Mapping, Sequence


def packing_problems(
    sizes: Mapping[str, Sequence],
    container: Sequence,
    positions: Mapping[str, Sequence],
) -> list[str]:
    """Everything wrong with `positions` as a packing of exactly the boxes
    in `sizes` into `container`; an empty list means it is valid.

    Values may be ints, Fractions or "num/den" strings.
    """
    problems = []
    if set(positions) != set(sizes):
        missing = sorted(set(sizes) - set(positions))
        extra = sorted(set(positions) - set(sizes))
        return [f"box set differs: missing {missing}, unexpected {extra}"]
    d = len(container)
    ids = sorted(sizes)
    for b in ids:
        if len(sizes[b]) != d or len(positions[b]) != d:
            return [f"box {b!r} does not have {d} coordinates"]
    frac_w = [Fraction(w) for w in container]
    frac_s = {b: [Fraction(x) for x in sizes[b]] for b in ids}
    frac_p = {b: [Fraction(x) for x in positions[b]] for b in ids}
    scale = [
        lcm(frac_w[i].denominator, *(frac_s[b][i].denominator for b in ids),
            *(frac_p[b][i].denominator for b in ids))
        for i in range(d)
    ]
    W = [int(frac_w[i] * scale[i]) for i in range(d)]
    lo = {b: [int(frac_p[b][i] * scale[i]) for i in range(d)] for b in ids}
    hi = {b: [lo[b][i] + int(frac_s[b][i] * scale[i]) for i in range(d)] for b in ids}
    for b in ids:
        for i in range(d):
            if lo[b][i] < 0 or hi[b][i] > W[i]:
                problems.append(f"box {b!r} leaves the container on axis {i}")
    for a, b in combinations(ids, 2):
        if all(lo[a][i] < hi[b][i] and lo[b][i] < hi[a][i] for i in range(d)):
            problems.append(f"boxes {a!r} and {b!r} overlap")
    return problems
