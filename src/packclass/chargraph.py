"""Interval-graph recognition and transitive orientation: id-level
wrappers over the bitset cores in `graph`, and their witnesses.

Recognition is one transitive orientation of the complement that must
be an interval order (`graph._interval_order`); where it fails, the same
step names the checkable witness: an induced 4-cycle of the graph, or an
odd 2-chordless cycle of its complement when the complement has no
transitive orientation.
Orientation (`graph._transitive_orientation`) breaks free choices by
lowest vertex index, so output is deterministic; a graph without one gets
an odd 2-chordless cycle as witness, which always exists (Gallai).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import (
    Graph,
    _interval_order,
    _transitive_orientation,
    bits,
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

    certificate: tuple[str, ...]  # an odd 2-chordless cycle


@dataclass(frozen=True)
class IntervalCheck:
    is_interval: bool
    hole: Optional[tuple[str, str, str, str]] = None  # an induced 4-cycle
    complement_odd_cycle: Optional[tuple[str, ...]] = None  # odd 2-chordless, in the complement

    def __bool__(self) -> bool:
        return self.is_interval


def is_interval_graph(G: Graph) -> IntervalCheck:
    """Decide intervality (the complement's transitive orientation is an
    interval order); on failure return an induced 4-cycle of G, or an odd
    2-chordless cycle of its complement, as witness."""
    return _interval_check(G)[0]


def _interval_check(G: Graph) -> tuple[IntervalCheck, Optional[list[int]]]:
    """`is_interval_graph`, with the transitive orientation of G's
    complement that proves G interval (None when G is not):
    `verify_packing_class` reads P2 off it as its heaviest chain."""
    co, witness = _interval_order(G.n, G.adj)
    if co is not None:
        return IntervalCheck(True), co
    kind = "hole" if len(witness) == 4 else "complement_odd_cycle"  # the walks are odd
    return IntervalCheck(False, **{kind: tuple(G.vertices[v] for v in witness)}), None


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
