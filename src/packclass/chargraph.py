"""Interval-graph recognition and transitive orientation.

Recognition goes through forbidden structures (triangulated + free of
asteroidal triples) so that every negative answer carries a checkable
witness, which the search engine consumes for pruning. Orientation uses
edge forcing with implication classes on the shrinking edge set; free
choices are broken by lowest vertex index, so output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import NotInterval, TooLarge
from .graph import (
    Graph,
    bits,
    complement,
    find_asteroidal_triple,
    find_odd_2chordless_cycle,
    is_triangulated,
    _mcs_peo,
)

ENUM_EDGE_CAP = 30


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph; when produced here, a transitive orientation."""

    vertices: tuple[str, ...]
    arcs: frozenset[tuple[str, str]]

    def out_masks(self) -> list[int]:
        index = {v: k for k, v in enumerate(self.vertices)}
        out = [0] * len(self.vertices)
        for a, b in self.arcs:
            out[index[a]] |= 1 << index[b]
        return out


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
    """Decide intervality; on failure return a chordless cycle (length >= 4)
    or an asteroidal triple as witness."""
    triangulated, hole = is_triangulated(G)
    if not triangulated:
        return IntervalCheck(False, hole=hole)
    at = find_asteroidal_triple(G)
    if at is not None:
        return IntervalCheck(False, asteroidal_triple=at)
    return IntervalCheck(True)


def transitive_orientation(G: Graph):
    """Orient all edges transitively, or report NotComparability.

    Edge forcing: an oriented edge forces every edge sharing an endpoint
    whose far ends are non-adjacent. Implication classes are oriented one
    at a time (seeded from the lexicographically smallest remaining edge,
    low index to high) and removed; a class containing some pair in both
    directions, or a final orientation that is not transitive, certifies
    non-comparability.
    """
    n = G.n
    adj_rem = list(G.adj)
    out = [0] * n

    def fail() -> NotComparability:
        return NotComparability(find_odd_2chordless_cycle(G))

    while True:
        seed = None
        for u in range(n):
            if adj_rem[u]:
                seed = (u, next(bits(adj_rem[u])))
                break
        if seed is None:
            break
        visited: set[tuple[int, int]] = set()
        queue = [seed]
        while queue:
            a, b = queue.pop()
            if (a, b) in visited:
                continue
            if (b, a) in visited:
                return fail()
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
                return fail()
    arcs = frozenset(
        (G.vertices[u], G.vertices[v]) for u in range(n) for v in bits(out[u])
    )
    return Dag(vertices=G.vertices, arcs=arcs)


def is_transitive_orientation_of(dag: Dag, G: Graph) -> bool:
    """Definitional check: arcs orient exactly E(G), transitively, acyclically."""
    if dag.vertices != G.vertices:
        return False
    index = {v: k for k, v in enumerate(G.vertices)}
    seen = set()
    for a, b in dag.arcs:
        ia, ib = index[a], index[b]
        if not G.adj[ia] >> ib & 1:
            return False
        key = (min(ia, ib), max(ia, ib))
        if key in seen:
            return False  # both directions present
        seen.add(key)
    if len(seen) != G.edge_count():
        return False
    out = dag.out_masks()
    for u in range(G.n):
        for v in bits(out[u]):
            if out[v] & ~out[u]:
                return False
    # Acyclicity: topological peel.
    indeg = [0] * G.n
    for u in range(G.n):
        for v in bits(out[u]):
            indeg[v] += 1
    ready = [v for v in range(G.n) if indeg[v] == 0]
    removed = 0
    while ready:
        v = ready.pop()
        removed += 1
        for w in bits(out[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return removed == G.n


def enumerate_transitive_orientations(G: Graph, cap: Optional[int] = None) -> list[Dag]:
    """All transitive orientations of G by backtracking over edge directions
    with transitivity propagation. Intended for tests and acceptance runs;
    raises TooLarge above the brute-force edge cap."""
    edges = [(G.index(a), G.index(b)) for a, b in G.edges()]
    if len(edges) > ENUM_EDGE_CAP:
        raise TooLarge(f"orientation enumeration capped at {ENUM_EDGE_CAP} edges")
    n = G.n
    adj = G.adj
    out = [0] * n
    inn = [0] * n
    results: list[Dag] = []

    def set_arc(x: int, y: int, log: list[tuple[int, int]]) -> bool:
        """Orient {x,y} as (x,y) and close transitively. False on clash."""
        stack = [(x, y)]
        while stack:
            a, b = stack.pop()
            if out[a] >> b & 1:
                continue
            if out[b] >> a & 1:
                return False
            out[a] |= 1 << b
            inn[b] |= 1 << a
            log.append((a, b))
            for c in bits(out[b] & ~out[a]):
                if not adj[a] >> c & 1:
                    return False
                stack.append((a, c))
            for w in bits(inn[a] & ~inn[b]):
                if not adj[w] >> b & 1:
                    return False
                stack.append((w, b))
        return True

    def undo(log: list[tuple[int, int]]) -> None:
        for a, b in log:
            out[a] &= ~(1 << b)
            inn[b] &= ~(1 << a)

    def rec(k: int) -> bool:
        if cap is not None and len(results) >= cap:
            return True
        while k < len(edges):
            a, b = edges[k]
            if not (out[a] >> b & 1 or out[b] >> a & 1):
                break
            k += 1
        else:
            arcs = frozenset(
                (G.vertices[u], G.vertices[v]) for u in range(n) for v in bits(out[u])
            )
            results.append(Dag(vertices=G.vertices, arcs=arcs))
            return cap is not None and len(results) >= cap
        a, b = edges[k]
        for x, y in ((a, b), (b, a)):
            log: list[tuple[int, int]] = []
            if set_arc(x, y, log):
                if rec(k + 1):
                    undo(log)
                    return True
            undo(log)
        return False

    rec(0)
    return results


def maximal_cliques_chordal(G: Graph) -> list[int]:
    """Maximal cliques of a chordal graph as bitmasks (via an elimination
    order). Raises NotInterval if G is not chordal."""
    elim = _mcs_peo(G.n, G.adj)
    if elim is None:
        raise NotInterval("graph is not triangulated")
    pos = {v: k for k, v in enumerate(elim)}
    later_mask = 0
    later = [0] * G.n
    for v in reversed(elim):
        later[v] = G.adj[v] & later_mask
        later_mask |= 1 << v
    candidates = sorted({(1 << v) | later[v] for v in range(G.n)})
    maximal = [
        c
        for c in candidates
        if not any(other != c and c & other == c for other in candidates)
    ]
    return maximal


def interval_model(G: Graph) -> list[tuple[int, int]]:
    """Closed integer intervals (one per vertex) whose intersection graph
    is exactly G, built from a clique path: maximal cliques ordered by a
    transitive orientation of the complement. Raises NotInterval when no
    such model exists."""
    if G.n == 0:
        return []
    cliques = maximal_cliques_chordal(G)
    oriented = transitive_orientation(complement(G))
    if isinstance(oriented, NotComparability):
        raise NotInterval("complement admits no transitive orientation")
    out = oriented.out_masks()
    k = len(cliques)
    less_count = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            A = cliques[i] & ~cliques[j]
            B = cliques[j] & ~cliques[i]
            i_first = any(out[u] & B for u in bits(A))
            j_first = any(out[u] & A for u in bits(B))
            if i_first == j_first:
                raise NotInterval("maximal cliques admit no linear order")
            if i_first:
                less_count[j] += 1
            else:
                less_count[i] += 1
    if sorted(less_count) != list(range(k)):
        raise NotInterval("maximal cliques admit no linear order")
    order = sorted(range(k), key=lambda i: less_count[i])
    intervals: list[tuple[int, int]] = []
    for v in range(G.n):
        spots = [p for p, ci in enumerate(order) if cliques[ci] >> v & 1]
        if not spots or spots[-1] - spots[0] + 1 != len(spots):
            raise NotInterval("clique order is not consecutive")
        intervals.append((spots[0], spots[-1]))
    return intervals
