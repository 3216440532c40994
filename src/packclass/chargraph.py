"""Interval-graph recognition and transitive orientation.

Recognition is Gilmore-Hoffman (chordal, with a transitively orientable
complement); a forbidden structure (a chordless cycle, else an asteroidal
triple) is searched only once that test fails, as a checkable witness.
Orientation uses edge forcing with implication classes on the shrinking
edge set; free choices are broken by lowest vertex index, so output is
deterministic. Its bitset core also serves the engine's accept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import (
    Graph,
    _find_hole,
    _mcs_peo,
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
    """Decide intervality (chordal, with a transitively orientable
    complement); on failure return a chordless cycle (length >= 4) or an
    asteroidal triple as witness."""
    return _interval_check(G, _mcs_peo(G.n, G.adj))


def _interval_check(G: Graph, elim: Optional[list[int]]) -> IntervalCheck:
    """`is_interval_graph` given G's elimination order `elim`, None when G
    is not chordal; `verify_packing_class` reuses the order for P2."""
    if elim is None:
        return IntervalCheck(False, hole=_find_hole(G))
    if _co_orientation(G.n, G.adj) is None:
        return IntervalCheck(False, asteroidal_triple=find_asteroidal_triple(G))
    return IntervalCheck(True)


def transitive_orientation(G: Graph):
    """Orient all edges transitively, or report NotComparability with an
    odd 2-chordless cycle: a thin wrapper over `_transitive_orientation`."""
    out = _transitive_orientation(G.n, G.adj)
    if out is None:
        return NotComparability(find_odd_2chordless_cycle(G))
    arcs = frozenset(
        (G.vertices[u], G.vertices[v]) for u in range(G.n) for v in bits(out[u])
    )
    return Dag(vertices=G.vertices, arcs=arcs)


def _transitive_orientation(n: int, adj: Sequence[int]) -> Optional[list[int]]:
    """Bitset core of `transitive_orientation`: per-vertex successor
    bitsets of a transitive orientation, or None if there is none.

    Edge forcing: an oriented edge forces every edge sharing an endpoint
    whose far ends are non-adjacent. Implication classes are oriented one
    at a time (seeded from the lexicographically smallest remaining edge,
    low index to high) and removed; a class containing some pair in both
    directions, or a final orientation that is not transitive, certifies
    non-comparability.
    """
    adj_rem = list(adj)
    out = [0] * n
    while True:
        u = next((u for u in range(n) if adj_rem[u]), None)
        if u is None:
            break
        visited: set[tuple[int, int]] = set()
        queue = [(u, next(bits(adj_rem[u])))]
        while queue:
            a, b = queue.pop()
            if (a, b) in visited:
                continue
            if (b, a) in visited:
                return None
            visited.add((a, b))
            for c in bits(adj_rem[a] & ~adj_rem[b] & ~(1 << b)):
                queue.append((a, c))
            for c in bits(adj_rem[b] & ~adj_rem[a] & ~(1 << a)):
                queue.append((c, b))
        for a, b in visited:
            out[a] |= 1 << b
            adj_rem[a] &= ~(1 << b)
            adj_rem[b] &= ~(1 << a)
    # The scheme is guaranteed to produce a transitive orientation only for
    # comparability graphs; verify and treat any failure as a refutation.
    for u in range(n):
        for v in bits(out[u]):
            if out[v] & ~out[u]:
                return None
    return out


def _co_orientation(n: int, adj: Sequence[int]) -> Optional[list[int]]:
    """`_transitive_orientation` of the complement of the graph `adj`."""
    full = (1 << n) - 1
    return _transitive_orientation(n, [full ^ adj[v] ^ (1 << v) for v in range(n)])
