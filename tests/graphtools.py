"""Graph algorithms that only the tests use.

Orientation enumeration and its definitional check back the acceptance
criteria on transitive orientations; the chordality test by definition
(simplicial elimination), the interval model and the induced 4-cycle
search are exercised against the library's own recognizers; the
arc-state parity search is the reference for the library's
odd-closed-walk search and for propagation's odd-cycle conflicts; the
arc-set edge forcing is the reference for the library's bitset
transitive orientation; the width bound is a property every packing
class has; the pair lookup, the sign and undecided-count readers and the
per-axis edge lists read a search state off its bitsets and trail, by
box ids where they name boxes; the comparability oracle, a backtracking
over edge directions capped at `COMPARABILITY_EDGE_CAP` edges, is ground
truth for the library's transitive orientation.
"""

from typing import Optional, Sequence

from packclass.chargraph import Dag, NotComparability, transitive_orientation
from packclass.errors import NotInterval, TooLarge
from packclass.opp import EXCLUDE, INCLUDE
from packclass.graph import (
    Graph,
    _max_clique,
    bits,
    complement,
)
from packclass.oracle import _adjacency
from packclass.packing_class import PackingClass

ENUM_EDGE_CAP = 30
COMPARABILITY_EDGE_CAP = 30


def out_masks(dag: Dag) -> list[int]:
    """Per-vertex bitsets of the arc heads, in the DAG's vertex order."""
    index = {v: k for k, v in enumerate(dag.vertices)}
    out = [0] * len(dag.vertices)
    for a, b in dag.arcs:
        out[index[a]] |= 1 << index[b]
    return out


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
    out = out_masks(dag)
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
    with transitivity propagation; raises TooLarge above the brute-force
    edge cap."""
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


def simplicial_elimination(n: int, adj: Sequence[int]) -> Optional[list[int]]:
    """A perfect elimination order of the graph with adjacency bitsets
    `adj`, by definition: repeatedly remove the lowest-index vertex whose
    remaining neighbours are pairwise adjacent. None when some remainder
    has no such vertex, so the graph is not chordal."""
    left = (1 << n) - 1
    order: list[int] = []
    while left:
        for v in bits(left):
            nbrs = adj[v] & left
            if all(not nbrs & ~adj[u] & ~(1 << u) for u in bits(nbrs)):
                break
        else:
            return None
        order.append(v)
        left &= ~(1 << v)
    return order


def is_triangulated(G: Graph) -> bool:
    """True iff G has no chordless cycle of length >= 4."""
    return simplicial_elimination(G.n, G.adj) is not None


def maximal_cliques_chordal(G: Graph) -> list[int]:
    """Maximal cliques of a chordal graph as bitmasks: the maximal ones
    among each vertex with its later neighbours in a perfect elimination
    order. Raises NotInterval if G is not chordal."""
    elim = simplicial_elimination(G.n, G.adj)
    if elim is None:
        raise NotInterval("graph is not triangulated")
    later_mask = 0
    later = [0] * G.n
    for v in reversed(elim):
        later[v] = G.adj[v] & later_mask
        later_mask |= 1 << v
    candidates = sorted({(1 << v) | later[v] for v in range(G.n)})
    return [
        c
        for c in candidates
        if not any(other != c and c & other == c for other in candidates)
    ]


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
    out = out_masks(oriented)
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


def find_induced_c4(
    G: Graph, touching: Optional[tuple[str, str]] = None
) -> Optional[tuple[str, str, str, str]]:
    """Find four vertices inducing a chordless 4-cycle, in cycle order.

    With `touching` given, only 4-cycles through that edge are considered.
    """
    adj = G.adj
    if touching is not None:
        x, y = G.index(touching[0]), G.index(touching[1])
        if not adj[x] >> y & 1:
            return None
        # cycle x-y-c-d with non-edges {x,c}, {y,d}
        for c in bits(adj[y] & ~adj[x] & ~(1 << x)):
            for d in bits(adj[x] & adj[c] & ~adj[y] & ~(1 << y)):
                return (G.vertices[x], G.vertices[y], G.vertices[c], G.vertices[d])
        return None
    for a in range(G.n):
        non_nbrs = ~adj[a] & ~(1 << a) & ((1 << G.n) - 1)
        for c in bits(non_nbrs):
            if c <= a:
                continue
            common = adj[a] & adj[c]
            for b in bits(common):
                rest = common & ~adj[b] & ~(1 << b)
                for d in bits(rest):
                    if d > b:
                        return (G.vertices[a], G.vertices[b], G.vertices[c], G.vertices[d])
    return None


def odd_closed_walk_by_arcs(
    n: int, walk_adj: Sequence[int], safe_pair_adj: Sequence[int]
) -> Optional[tuple[int, ...]]:
    """The parity BFS of `graph._odd_closed_walk` over arc states held in
    a numbered arc table, the reference its results must equal."""
    # Arcs numbered by tail, then head; arc_at[u * n + v] is arc (u, v)'s.
    tail: list[int] = []
    head: list[int] = []
    arc_at = [0] * (n * n)
    for u in range(n):
        heads = walk_adj[u]
        while heads:
            low = heads & -heads
            heads ^= low
            v = low.bit_length() - 1
            arc_at[u * n + v] = len(head)
            tail.append(u)
            head.append(v)

    # parent[2 * s + parity]: the key the parity BFS reached (arc s, parity)
    # from, -1 at a root, None if unreached. A key at both parities
    # certifies an odd closed walk through the root.
    parent: list[Optional[int]] = [None] * (2 * len(head))
    for root in range(len(head)):
        if parent[2 * root] is not None or parent[2 * root + 1] is not None:
            continue
        parent[2 * root] = -1
        frontier = [2 * root]
        conflict: Optional[int] = None
        while frontier and conflict is None:
            nxt = []
            for key in frontier:
                s = key >> 1
                u, v = tail[s], head[s]
                allowed = walk_adj[v] & (safe_pair_adj[u] | (1 << u))
                flip = ~key & 1
                row = v * n
                while allowed:
                    low = allowed & -allowed
                    allowed ^= low
                    t = 2 * arc_at[row + low.bit_length() - 1] + flip
                    if parent[t] is None:
                        parent[t] = key
                        nxt.append(t)
                        if parent[t ^ 1] is not None:
                            conflict = t >> 1
                            break
                if conflict is not None:
                    break
            frontier = nxt
        if conflict is None:
            continue
        # Out along the odd path to the conflict, back along the even one
        # with each step undone: the heads of the odd path's arcs, then the
        # tails of the even path's arcs from the conflict back to the root.
        def unwind(key: int) -> list[int]:
            seq = []
            while key != -1:
                seq.append(key >> 1)
                key = parent[key]
            return seq

        odd = unwind(2 * conflict + 1)
        even = unwind(2 * conflict)
        return tuple([head[s] for s in reversed(odd)] + [tail[s] for s in even])
    return None


def transitive_orientation_by_arcs(n: int, adj: Sequence[int]) -> Optional[list[int]]:
    """The edge forcing of `graph._transitive_orientation` with each
    implication class grown as a set of arc tuples, the reference its
    results, orientations and Nones alike, must equal."""
    full = (1 << n) - 1
    if all(adj[v] == full ^ (1 << v) for v in range(n)):
        return [full ^ ((2 << u) - 1) for u in range(n)]
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
    for u in range(n):
        for v in bits(out[u]):
            if out[v] & ~out[u]:
                return None
    return out


def clique_bound_holds(E, S, i: int, inst=None) -> bool:
    """Width bound: graph i of the edge sets `E` (a `PackingClass`, or per
    axis an edge list over `inst`'s ids) restricted to the boxes `S`
    holds a clique of at least ceil(total width of S / container width).
    Every packing class meets it."""
    if isinstance(E, PackingClass):
        inst, E = inst or E.instance, [G.edges() for G in E.edge_sets]
    graph = Graph(inst.ids, E[i])
    members = {inst.index(b) for b in S}
    total = sum(inst.int_size(v, i) for v in members)
    size, _ = _max_clique(graph.adj, [1] * inst.n, sum(1 << v for v in members))
    return size >= -(-total // inst.int_container(i))


def pair_of(state, a: str, b: str) -> int:
    """The index of the pair of box ids {a, b} in an `opp.EdgeState`."""
    return state.pid_of[state.inst.index(a)][state.inst.index(b)]


def pair_ids(state, pid: int) -> tuple[str, str]:
    """The box ids of pair `pid` of an `opp.EdgeState`."""
    a, b = state.pairs[pid]
    return state.inst.ids[a], state.inst.ids[b]


def sign(state, i: int, pid: int) -> int:
    """The sign of pair `pid` on axis i of an `opp.EdgeState`, read off its
    bitsets: INCLUDE, EXCLUDE or 0 when undecided."""
    a, b = state.pairs[pid]
    if state.plus_adj[i][a] >> b & 1:
        return INCLUDE
    return EXCLUDE if state.minus_adj[i][a] >> b & 1 else 0


def undecided(state) -> int:
    """The number of undecided (dimension, pair) variables of an
    `opp.EdgeState`: those not on its trail."""
    return state.d * state.m - len(state.trail)


def _edges(state, i: int, which: int) -> list[tuple[str, str]]:
    return [pair_ids(state, p) for p in range(state.m) if sign(state, i, p) == which]


def plus_edges(state, i: int) -> list[tuple[str, str]]:
    """The included pairs of axis i of an `opp.EdgeState`, as box ids, in
    pair order."""
    return _edges(state, i, INCLUDE)


def minus_edges(state, i: int) -> list[tuple[str, str]]:
    """The excluded pairs of axis i, as `plus_edges` lists the included."""
    return _edges(state, i, EXCLUDE)


def oracle_is_comparability(G: Graph, max_edges: int = COMPARABILITY_EDGE_CAP) -> bool:
    """True iff some orientation of the edges is transitive (backtracking
    over edge directions with forced-arc propagation)."""
    edges = sorted((min(a, b), max(a, b)) for a, b in G.edges())
    if len(edges) > max_edges:
        raise TooLarge(f"oracle capped at {max_edges} edges, got {len(edges)}")
    nbrs = _adjacency(G)
    arcs: dict[tuple[str, str], bool] = {}  # (a, b) -> True when a -> b

    def add(a: str, b: str, log: list[tuple[str, str]]) -> bool:
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            if arcs.get((x, y)):
                continue
            if arcs.get((y, x)):
                return False
            arcs[(x, y)] = True
            log.append((x, y))
            for z in nbrs[y]:
                if arcs.get((y, z)) and z != x:
                    if z not in nbrs[x]:
                        return False
                    stack.append((x, z))
            for w in nbrs[x]:
                if arcs.get((w, x)) and w != y:
                    if w not in nbrs[y]:
                        return False
                    stack.append((w, y))
        return True

    def undo(log: list[tuple[str, str]]) -> None:
        for key in log:
            del arcs[key]

    def rec(k: int) -> bool:
        while k < len(edges) and (
            arcs.get(edges[k]) or arcs.get((edges[k][1], edges[k][0]))
        ):
            k += 1
        if k == len(edges):
            return _is_transitive(arcs, nbrs)
        a, b = edges[k]
        for x, y in ((a, b), (b, a)):
            log: list[tuple[str, str]] = []
            if add(x, y, log) and rec(k + 1):
                undo(log)
                return True
            undo(log)
        return False

    return rec(0)


def _is_transitive(arcs: dict[tuple[str, str], bool], nbrs) -> bool:
    chosen = [k for k, v in arcs.items() if v]
    heads: dict[str, set[str]] = {}
    for a, b in chosen:
        heads.setdefault(a, set()).add(b)
    for a, b in chosen:
        for c in heads.get(b, ()):
            if c != a and c not in heads.get(a, set()):
                return False
    return True
