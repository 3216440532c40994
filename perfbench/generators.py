"""Seeded instance generators for the benchmark.

Everything here is plain integer data built from a `random.Random`; no
packclass code is imported, so the solver only ever sees the boxes and
container the benchmark hands it. Guillotine instances also carry the
placement that was cut and therefore a known optimum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod
from typing import Optional


@dataclass(frozen=True)
class Generated:
    container: tuple[int, ...]
    sizes: tuple[tuple[int, ...], ...]
    # Corner of each box in the cut that produced it (guillotine only).
    placement: Optional[tuple[tuple[int, ...], ...]] = None
    # Largest packable box volume, known when some subset tiles the
    # container; for a guillotine strip the optimal height is container[-1].
    optimum: Optional[int] = None

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def d(self) -> int:
        return len(self.container)

    @property
    def volume(self) -> int:
        return sum(prod(s) for s in self.sizes)


def tight(rng: random.Random, n: int) -> Generated:
    """The tight 2-D baseline: a 10x10 container and n boxes with sides
    1..6, redrawn until the boxes cover 80-100 % of the container."""
    while True:
        sizes = tuple((rng.randint(1, 6), rng.randint(1, 6)) for _ in range(n))
        if 80 <= sum(w * h for w, h in sizes) <= 100:
            return Generated(container=(10, 10), sizes=sizes)


def guillotine(rng: random.Random, container: tuple[int, ...], n: int) -> Generated:
    """Cut `container` recursively into exactly n boxes.

    Each step splits one piece (chosen with probability proportional to
    its volume) across one of its axes (chosen proportional to its
    length) at a uniform integer position. The pieces tile the container,
    so the instance is feasible with 100 % fill by construction.
    """
    if n > prod(container):
        raise ValueError(f"cannot cut {container} into {n} unit-or-larger pieces")
    pieces: list[tuple[tuple[int, ...], tuple[int, ...]]] = [
        ((0,) * len(container), tuple(container))
    ]
    while len(pieces) < n:
        weights = [prod(size) if max(size) >= 2 else 0 for _, size in pieces]
        (k,) = rng.choices(range(len(pieces)), weights=weights)
        origin, size = pieces.pop(k)
        (axis,) = rng.choices(range(len(size)), weights=[s if s >= 2 else 0 for s in size])
        cut = rng.randint(1, size[axis] - 1)
        far = list(origin)
        far[axis] += cut
        pieces.append((origin, size[:axis] + (cut,) + size[axis + 1:]))
        pieces.append((tuple(far), size[:axis] + (size[axis] - cut,) + size[axis + 1:]))
    return Generated(
        container=tuple(container),
        sizes=tuple(size for _, size in pieces),
        placement=tuple(origin for origin, _ in pieces),
        optimum=prod(container),
    )


def with_extras(rng: random.Random, base: Generated, extras: int, side: int) -> Generated:
    """`base` plus `extras` random boxes with sides 1..side (clipped to the
    container). The base boxes still fill the container exactly, so the
    best packable volume is the container volume."""
    more = tuple(
        tuple(rng.randint(1, min(side, w)) for w in base.container) for _ in range(extras)
    )
    return Generated(container=base.container, sizes=base.sizes + more, optimum=base.optimum)
