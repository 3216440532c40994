"""Undirected graphs over string ids with bitset adjacency, and every
bitset core the package runs.

Vertex sets are represented as Python ints used as bitsets, indexed by the
graph's vertex order. Every algorithm lives here as one core over
`(n, adjacency bitsets[, weights, vertex mask])` or successor bitsets,
with plain numeric weights, which the engine calls directly on its own
bitsets: the exact clique search that propagation runs at each new
exclusion; the transitive orientation of the complement, which proves a
graph interval when it is an interval order and otherwise names the
witness, an induced 4-cycle or an odd closed walk of the complement
(`_interval_order`); the longest paths of an orientation, which place
boxes, and its heaviest chain, which is the heaviest stable set on an
orientation of the complement; and the odd closed walk search that reads
`prune_check`'s certificates. The `Graph` functions are thin wrappers
over the same cores that take id-keyed weights as `Fraction`s and report
results with original ids.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import NotInterval, TooLarge, UnknownVertex
from .model import to_fraction

CLIQUE_CAP = 64


def bits(mask: int):
    """Yield the set bit positions of `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple graph: ordered vertices, per-vertex adjacency bitsets."""

    __slots__ = ("vertices", "_index", "adj")

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple[str, str]] = ()):
        self.vertices: tuple[str, ...] = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise UnknownVertex("duplicate vertex ids")
        self._index = {v: k for k, v in enumerate(self.vertices)}
        adj = [0] * len(self.vertices)
        for a, b in edges:
            ia, ib = self.index(a), self.index(b)
            if ia == ib:
                raise UnknownVertex(f"self-loop at {a!r}")
            adj[ia] |= 1 << ib
            adj[ib] |= 1 << ia
        self.adj: tuple[int, ...] = tuple(adj)

    @classmethod
    def _of_bitsets(cls, vertices: Sequence[str], adj: Iterable[int]) -> "Graph":
        """The graph over distinct `vertices` with the symmetric, loop-free
        adjacency bitsets `adj`, taken as given: no `__init__` checks."""
        G = object.__new__(cls)
        G.vertices = tuple(vertices)
        G._index = {v: k for k, v in enumerate(G.vertices)}
        G.adj = tuple(adj)
        return G

    # -- basic queries -------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {v!r}") from None

    def has_edge(self, a: str, b: str) -> bool:
        return bool(self.adj[self.index(a)] >> self.index(b) & 1)

    def edges(self) -> list[tuple[str, str]]:
        out = []
        for i in range(self.n):
            for j in bits(self.adj[i] >> (i + 1) << (i + 1)):
                out.append((self.vertices[i], self.vertices[j]))
        return out

    def edge_count(self) -> int:
        return sum(self.adj[i].bit_count() for i in range(self.n)) // 2

    def names(self, mask: int) -> tuple[str, ...]:
        return tuple(self.vertices[i] for i in bits(mask))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.vertices, self.adj))

    def __repr__(self) -> str:
        return f"Graph({list(self.vertices)!r}, {self.edges()!r})"


def complement(G: Graph) -> Graph:
    """Same vertices, edge present iff absent in the input."""
    full = (1 << G.n) - 1
    return Graph._of_bitsets(G.vertices, [full ^ a ^ (1 << i) for i, a in enumerate(G.adj)])


def induced(G: Graph, S: Iterable[str]) -> Graph:
    """Induced subgraph on S, keeping the original relative vertex order."""
    keep = sorted({G.index(v) for v in S})
    pos = {i: k for k, i in enumerate(keep)}
    adj = [0] * len(keep)
    for i in keep:
        for j in bits(G.adj[i]):
            if j in pos:
                adj[pos[i]] |= 1 << pos[j]
    return Graph._of_bitsets([G.vertices[i] for i in keep], adj)


def _odd_closed_walk(
    n: int, walk_adj: Sequence[int], safe_pair_adj: Sequence[int]
) -> Optional[tuple[int, ...]]:
    """Find an odd closed walk v_0..v_{k-1} (k odd) over `walk_adj` edges
    such that every cyclically-consecutive-but-one pair (v_j, v_{j+2}) is
    either the same vertex (a backtrack) or lies in `safe_pair_adj`. Both
    relations must be symmetric.

    States are directed arcs (u, v); a step (u,v)->(v,w) is legal iff
    {v,w} is a walk edge and (w == u or safe(u, w)). Every step s -> t is
    undone by t -> rev(t) -> rev(s) -> s: backtracks are always legal and
    safe(u, w) is safe(w, u). So the states a root reaches are exactly its
    strongly connected component, and an odd closed walk exists iff the
    parity BFS from some root reaches a state at both parities. A root
    that an earlier root's BFS reached lies in an SCC already searched, and
    a new root's BFS never meets an earlier one's states, so one parity
    table serves every root. The walk goes out along the BFS path that
    reaches the state at odd parity and back along the even one, each of
    its steps undone. Arcs are rooted in order of tail, then head; arc
    (u, v) is keyed u * n + v.
    """
    # parent[2 * s + parity]: the key the parity BFS reached (arc s, parity)
    # from, -1 at a root, None if unreached. A key at both parities
    # certifies an odd closed walk through the root.
    parent: list[Optional[int]] = [None] * (2 * n * n)
    conflict: Optional[int] = None
    for u in range(n):
        heads = walk_adj[u]
        while heads and conflict is None:
            low = heads & -heads
            heads ^= low
            root = u * n + low.bit_length() - 1
            if parent[2 * root] is not None or parent[2 * root + 1] is not None:
                continue
            parent[2 * root] = -1
            frontier = [2 * root]
            while frontier and conflict is None:
                nxt = []
                for key in frontier:
                    a, b = divmod(key >> 1, n)
                    allowed = walk_adj[b] & (safe_pair_adj[a] | (1 << a))
                    row = 2 * b * n + (~key & 1)  # key of (arc (b, c), flipped parity) is row + 2c
                    while allowed:
                        low = allowed & -allowed
                        allowed ^= low
                        t = row + 2 * (low.bit_length() - 1)
                        if parent[t] is None:
                            parent[t] = key
                            nxt.append(t)
                            if parent[t ^ 1] is not None:
                                conflict = t >> 1
                                break
                    if conflict is not None:
                        break
                frontier = nxt
        if conflict is not None:
            break
    if conflict is None:
        return None

    def unwind(key: int) -> list[int]:
        """The states of the BFS path to `key`, back to the root."""
        seq = []
        while key != -1:
            seq.append(key >> 1)
            key = parent[key]
        return seq

    # the heads of the odd path's arcs from the root, then the tails of the
    # even path's arcs from the conflict
    odd = unwind(2 * conflict + 1)
    even = unwind(2 * conflict)
    return tuple([s % n for s in reversed(odd)] + [s // n for s in even])


def find_odd_2chordless_cycle(G: Graph) -> Optional[tuple[str, ...]]:
    """Find an odd cycle of length >= 5 without 2-chords, or None.

    Cycles here are closed walks: vertices may repeat and immediate
    backtracking is allowed (a vertex paired with itself two steps later
    counts as chordless). This is the form in which the classical
    comparability-graph characterization is exact; triangles are excluded
    by convention since every triangle edge is trivially a 2-chord.
    """
    walk = _odd_closed_walk(G.n, G.adj, complement(G).adj)
    if walk is None:
        return None
    return tuple(G.vertices[i] for i in walk)


def _transitive_orientation(n: int, adj: Sequence[int]) -> Optional[list[int]]:
    """Bitset core of `chargraph.transitive_orientation`: per-vertex
    successor bitsets of a transitive orientation, or None if none exists.

    Edge forcing: an oriented edge forces every edge sharing an endpoint
    whose far ends are non-adjacent. Implication classes are oriented one
    at a time (seeded from the lexicographically smallest remaining edge,
    low index to high) and removed; a class containing some pair in both
    directions, or a final orientation that is not transitive, certifies
    non-comparability. A complete graph, each edge its own class, comes
    back in one pass as they orient it: index order, u -> v for all v > u.
    """
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
    # The scheme is guaranteed to produce a transitive orientation only for
    # comparability graphs; verify and treat any failure as a refutation.
    for u in range(n):
        for v in bits(out[u]):
            if out[v] & ~out[u]:
                return None
    return out


def _interval_order(n: int, adj: Sequence[int]) -> tuple[Optional[list[int]], Optional[tuple[int, ...]]]:
    """(orientation, None) if the graph `adj` is an interval graph, where
    the orientation is the transitive orientation of its complement, an
    interval order; else (None, witness). The one test of intervality,
    and the one source of its witnesses.

    A graph is an interval graph exactly when its complement has a
    transitive orientation that is an interval order, and an order is one
    exactly when it holds no 2+2, that is when its successor sets, or
    equally its predecessor sets, are nested (Fishburn, J. Math. Psych.
    7, 1970). Any one orientation decides, and its failure names the
    witness. A complement with no transitive orientation holds an odd
    2-chordless closed walk (Gallai, Acta Math. Hungar. 18, 1967). Else
    the first two vertices p, q, in size order, whose successor sets are
    not nested have x above p but not q and y above q but not p: a 2+2,
    and p-q-x-y-p is an induced 4-cycle of the graph, since any other
    comparability among the four would put x above q or y above p."""
    full = (1 << n) - 1
    comp = [full ^ adj[v] ^ (1 << v) for v in range(n)]
    co = _transitive_orientation(n, comp)
    if co is None:
        return None, _odd_closed_walk(n, comp, adj)
    order = sorted(range(n), key=lambda v: co[v].bit_count())
    for p, q in zip(order, order[1:]):
        if co[p] & ~co[q]:
            return None, (p, q, next(bits(co[p] & ~co[q])), next(bits(co[q] & ~co[p])))
    return co, None


def _longest_paths(succ: Sequence[int], sizes: Sequence) -> Optional[list]:
    """Each vertex's longest-path offset over the successor bitsets `succ`
    (0 with no predecessor, else the largest predecessor's offset plus
    size), or None if the arcs hold a cycle. On a transitive orientation
    of each axis's complement these offsets place the boxes
    (`packing_class._place`)."""
    n = len(succ)
    indeg = [sum(row >> w & 1 for row in succ) for w in range(n)]
    pos = [0] * n
    ready = [v for v in range(n) if not indeg[v]]
    placed = 0
    while ready:
        v = ready.pop()
        placed += 1
        top = pos[v] + sizes[v]
        for w in bits(succ[v]):
            pos[w] = max(pos[w], top)
            indeg[w] -= 1
            if not indeg[w]:
                ready.append(w)
    return pos if placed == n else None


def _heaviest_chain(succ: Sequence[int], w: Sequence) -> tuple:
    """(weight, mask) of the heaviest chain of the acyclic successor
    bitsets `succ` under non-negative weights `w`: from the first vertex
    with the largest longest-path offset plus weight, back through the
    first predecessor that sets each offset. On a transitive orientation
    of a graph's complement, chains are the graph's stable sets."""
    if not succ:
        return 0, 0
    pos = _longest_paths(succ, w)
    v = max(range(len(pos)), key=lambda u: pos[u] + w[u])
    total, chain = pos[v] + w[v], 1 << v
    while pos[v]:
        v = next(u for u in range(len(pos)) if succ[u] >> v & 1 and pos[u] + w[u] == pos[v])
        chain |= 1 << v
    return total, chain


def _as_weight_map(G: Graph, weight) -> list[Fraction]:
    if callable(weight):
        return [to_fraction(weight(v)) for v in G.vertices]
    return [to_fraction(weight[v]) for v in G.vertices]


def max_weight_clique(
    G: Graph, weight, cap: int = CLIQUE_CAP
) -> tuple[Fraction, tuple[str, ...]]:
    """Exact maximum-weight clique by branch and bound with a greedy
    coloring bound. Raises TooLarge beyond `cap` vertices."""
    if G.n > cap:
        raise TooLarge(f"clique search capped at {cap} vertices, got {G.n}")
    best_w, best_set = _max_clique(G.adj, _as_weight_map(G, weight), (1 << G.n) - 1)
    return to_fraction(best_w), G.names(best_set)


def _max_clique(adj: Sequence[int], w: Sequence, P: int, floor=0) -> tuple:
    """Bitset core of `max_weight_clique` over the vertices in mask `P`:
    (weight, clique mask). Weights are any non-negative exact numbers.

    A `floor` prunes every branch whose bound is at most the floor, the
    whole search first when all of `P` together weighs no more. Every
    branch holding the first heaviest clique is bounded at or above its
    weight, so a maximum above the floor comes back as the same (weight,
    mask); otherwise (floor, 0) does.
    """
    total = 0
    rest = P
    while rest:
        low = rest & -rest
        rest ^= low
        total += w[low.bit_length() - 1]
    if total <= floor:
        return floor, 0
    best_w = floor
    best_set = 0

    def color_order(P: int) -> list:
        # Partition P into independent sets; bound at v = cumulative max
        # weight over its class and all earlier classes.
        classes: list = []  # [mask, max weight]
        while P:
            low = P & -P
            P ^= low
            v = low.bit_length() - 1
            for cls in classes:
                if not adj[v] & cls[0]:
                    cls[0] |= low
                    if w[v] > cls[1]:
                        cls[1] = w[v]
                    break
            else:
                classes.append([low, w[v]])
        out: list = []
        acc = 0
        for mask, mw in classes:
            acc += mw
            while mask:
                low = mask & -mask
                mask ^= low
                out.append((low.bit_length() - 1, acc))
        return out

    def expand(P: int, cur_mask: int, cur_w) -> None:
        nonlocal best_w, best_set
        if cur_w > best_w:
            best_w, best_set = cur_w, cur_mask
        if not P:
            return
        order = color_order(P)
        for v, bound in reversed(order):
            if cur_w + bound <= best_w:
                return
            expand(P & adj[v], cur_mask | (1 << v), cur_w + w[v])
            P &= ~(1 << v)

    expand(P, 0, 0)
    return best_w, best_set


def max_weight_stable_set_interval(G: Graph, weight) -> tuple[Fraction, tuple[str, ...]]:
    """Exact maximum-weight stable set of an interval graph: the heaviest
    chain of a transitive orientation of its complement. Raises
    NotInterval when G is not an interval graph."""
    co = _interval_order(G.n, G.adj)[0]
    if co is None:
        raise NotInterval("graph is not an interval graph")
    total, mask = _heaviest_chain(co, _as_weight_map(G, weight))
    return to_fraction(total), G.names(mask)
