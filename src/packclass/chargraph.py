"""Interval-graph recognition and transitive orientation: id-level
wrappers over the bitset cores in `graph`, and their witnesses.

Recognition is one transitive orientation of the complement that must
be an interval order (`graph._interval_order`); a forbidden structure (a
chordless cycle, else an asteroidal triple) is searched only once that
test fails, as a checkable witness.
Orientation (`graph._transitive_orientation`) breaks free choices by
lowest vertex index, so output is deterministic; a graph without one gets
an odd 2-chordless cycle as witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import (
    Graph,
    _find_hole,
    _interval_order,
    _transitive_orientation,
    bits,
    find_asteroidal_triple,
    find_odd_2chordless_cycle,
)


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph; when produced here, a transitive orientation."""

    vertices: tuple[str, ...]
    arcs: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class NotComparability:
    """Typed failure result: the graph admits no transitive orientation."""

    certificate: Optional[tuple[str, ...]]  # odd 2-chordless cycle, if found


@dataclass(frozen=True)
class IntervalCheck:
    is_interval: bool
    hole: Optional[tuple[str, ...]] = None
    asteroidal_triple: Optional[tuple[str, str, str]] = None

    def __bool__(self) -> bool:
        return self.is_interval


def is_interval_graph(G: Graph) -> IntervalCheck:
    """Decide intervality (the complement's transitive orientation is an
    interval order); on failure return a chordless cycle (length >= 4) or
    an asteroidal triple as witness."""
    return _interval_check(G)[0]


def _interval_check(G: Graph) -> tuple[IntervalCheck, Optional[list[int]]]:
    """`is_interval_graph`, with the transitive orientation of G's
    complement that proves G interval (None when G is not):
    `verify_packing_class` reads P2 off it as its heaviest chain."""
    co = _interval_order(G.n, G.adj)
    if co is not None:
        return IntervalCheck(True), co
    hole = _find_hole(G)  # None exactly on chordal graphs, which then hold an asteroidal triple
    return IntervalCheck(False, hole, None if hole else find_asteroidal_triple(G)), None


def transitive_orientation(G: Graph):
    """Orient all edges transitively, or report NotComparability with an
    odd 2-chordless cycle: a thin wrapper over `_transitive_orientation`."""
    out = _transitive_orientation(G.n, G.adj)
    if out is None:
        return NotComparability(find_odd_2chordless_cycle(G))
    return _dag(G.vertices, out)


def _dag(vertices: tuple[str, ...], succ: list[int]) -> Dag:
    """The `Dag` over `vertices` of the successor bitsets `succ`."""
    arcs = frozenset((vertices[u], vertices[v]) for u, row in enumerate(succ) for v in bits(row))
    return Dag(vertices=vertices, arcs=arcs)
