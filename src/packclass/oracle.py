"""Naive, cap-bounded ground truth for packability and graph recognition.

Everything here is intentionally written from the definitions, with plain
dict/set data structures, and shares no algorithmic code with the
packing-class engine it cross-checks. `cell_fill_opp`, ground truth past
five boxes, runs the cell fill that `solve_spp` also runs as a bounded
quick yes, which never answers "infeasible".

Why the packability search may restrict coordinates to subset sums: if any
packing of a box set exists, a "gapless" one exists, in which every
coordinate of every box is either 0 or flush against another box's far
side (slide each box toward the origin axis by axis until it is blocked;
the result is a packing with that property). Every coordinate of a gapless
packing is therefore a sum of sizes of other boxes in that dimension, so
searching the per-dimension subset sums of the other boxes' sizes is
exhaustive for the decision question.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

from .cellfill import CELL_CAP, _cell_fill
from .errors import InvalidLimits, TooLarge
from .graph import Graph
from .model import Instance, Packing, _placed_packing

DEFAULT_MAX_BOXES = 5
DEFAULT_MAX_VERTICES = 7


@dataclass(frozen=True)
class OracleConfig:
    max_boxes: int = DEFAULT_MAX_BOXES
    max_vertices: int = DEFAULT_MAX_VERTICES

    def __post_init__(self) -> None:
        if min(self.max_boxes, self.max_vertices) <= 0:
            raise InvalidLimits("oracle caps must be positive")


@dataclass(frozen=True)
class BruteForceResult:
    feasible: bool
    packing: Optional[Packing] = None


def brute_force_opp(inst: Instance, config: OracleConfig = OracleConfig()) -> BruteForceResult:
    """Exhaustive packability check over gapless candidate coordinates."""
    n = inst.n
    if n > config.max_boxes:
        raise TooLarge(f"brute force capped at {config.max_boxes} boxes, got {n}")
    d = inst.d
    W = [inst.int_container(i) for i in range(d)]
    sizes = [[inst.int_size(b, i) for i in range(d)] for b in range(n)]

    candidates: list[list[list[int]]] = []  # [box][dim] -> sorted positions
    for b in range(n):
        per_dim = []
        for i in range(d):
            sums = {0}
            for c in range(n):
                if c == b:
                    continue
                sums |= {s + sizes[c][i] for s in sums}
            per_dim.append(sorted(s for s in sums if s + sizes[b][i] <= W[i]))
        candidates.append(per_dim)

    placed: list[tuple[int, tuple[int, ...]]] = []

    def disjoint(b: int, pos: tuple[int, ...]) -> bool:
        for c, q in placed:
            if all(
                max(pos[i], q[i]) < min(pos[i] + sizes[b][i], q[i] + sizes[c][i])
                for i in range(d)
            ):
                return False
        return True

    def place(b: int) -> bool:
        if b == n:
            return True
        for pos in product(*candidates[b]):
            if disjoint(b, pos):
                placed.append((b, pos))
                if place(b + 1):
                    return True
                placed.pop()
        return False

    if not place(0):
        return BruteForceResult(False)
    positions = {
        inst.boxes[b].id: tuple(Fraction(pos[i], inst.scale(i)) for i in range(d))
        for b, pos in placed
    }
    return BruteForceResult(True, Packing(positions))


def cell_fill_opp(inst: Instance, max_nodes: int = 1_000_000) -> BruteForceResult:
    """Exact packability by the cell fill of `cellfill`, whose cost grows
    with the container's cell count, not with n. Raises TooLarge above
    `CELL_CAP` cells or once `max_nodes` are spent; it never guesses."""
    caps = [inst.int_container(i) for i in range(inst.d)]
    placed, exhausted = _cell_fill(inst.int_sizes, caps, max_nodes)
    if not exhausted:
        raise TooLarge(f"cell fill undecided: over {CELL_CAP} cells or {max_nodes} nodes")
    return BruteForceResult(placed is not None, None if placed is None else _placed_packing(inst, placed))


def _adjacency(G: Graph) -> dict[str, set[str]]:
    nbrs: dict[str, set[str]] = {v: set() for v in G.vertices}
    for a, b in G.edges():
        nbrs[a].add(b)
        nbrs[b].add(a)
    return nbrs


def _connected_avoiding(
    nbrs: dict[str, set[str]], src: str, dst: str, banned: set[str]
) -> bool:
    if src in banned or dst in banned:
        return False
    seen = {src}
    stack = [src]
    while stack:
        v = stack.pop()
        if v == dst:
            return True
        for w in nbrs[v]:
            if w not in seen and w not in banned:
                seen.add(w)
                stack.append(w)
    return False


def oracle_is_interval(G: Graph, config: OracleConfig = OracleConfig()) -> bool:
    """Definitional interval check: simplicial elimination for chordality,
    then an all-triples path search for asteroidal triples."""
    if G.n > config.max_vertices:
        raise TooLarge(f"oracle capped at {config.max_vertices} vertices, got {G.n}")
    nbrs = _adjacency(G)
    remaining = {v: set(ws) for v, ws in nbrs.items()}
    while remaining:
        simplicial = None
        for v in sorted(remaining):
            ns = remaining[v]
            if all(b in remaining[a] for a in ns for b in ns if a < b):
                simplicial = v
                break
        if simplicial is None:
            return False
        for w in remaining.pop(simplicial):
            remaining[w].discard(simplicial)
    for x, y, z in combinations(sorted(G.vertices), 3):
        if (
            _connected_avoiding(nbrs, x, y, nbrs[z] | {z})
            and _connected_avoiding(nbrs, x, z, nbrs[y] | {y})
            and _connected_avoiding(nbrs, y, z, nbrs[x] | {x})
        ):
            return False
    return True


@dataclass(frozen=True)
class ClassEnumeration:
    classes: tuple = ()
    total: int = 0

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)


def enumerate_packing_classes(
    inst: Instance, cap: Optional[int] = None, config: OracleConfig = OracleConfig()
) -> ClassEnumeration:
    """All packing classes of the instance, by exhausting the per-pair edge
    assignments (for d = 2 each pair independently takes one of three legal
    in/out combinations). Survivors are re-checked with the production
    verifier as a cross-check; the two must agree."""
    from .packing_class import PackingClass, verify_packing_class

    n, d = inst.n, inst.d
    if n > 5 or d > 2:
        raise TooLarge("class enumeration supports n <= 5 and d <= 2")
    ids = inst.ids
    W = [inst.int_container(i) for i in range(d)]
    sizes = [[inst.int_size(b, i) for i in range(d)] for b in range(n)]
    pairs = list(combinations(range(n), 2))

    all_in = tuple([1] * d)
    options_per_pair: list[list[tuple[int, ...]]] = []
    for a, b in pairs:
        forced = [sizes[a][i] + sizes[b][i] > W[i] for i in range(d)]
        opts = [
            combo
            for combo in product((0, 1), repeat=d)
            if combo != all_in and all(combo[i] for i in range(d) if forced[i])
        ]
        options_per_pair.append(opts)

    def naive_class(assignment: tuple[tuple[int, ...], ...]) -> Optional[tuple[Graph, ...]]:
        """The assignment's edge sets if they form a packing class, else None."""
        edge_sets = []
        for i in range(d):
            G = Graph(
                ids,
                [(ids[a], ids[b]) for (a, b), combo in zip(pairs, assignment) if combo[i]],
            )
            if not oracle_is_interval(G, config):
                return None
            # every stable subset must fit along the axis
            for mask in range(1 << n):
                members = [v for v in range(n) if mask >> v & 1]
                if any(G.has_edge(ids[a], ids[b]) for a, b in combinations(members, 2)):
                    continue
                if sum(sizes[v][i] for v in members) > W[i]:
                    return None
            edge_sets.append(G)
        return tuple(edge_sets)

    found: list[PackingClass] = []
    total = 0
    for assignment in product(*options_per_pair):
        edge_sets = naive_class(assignment)
        if edge_sets is None:
            continue
        if not verify_packing_class(edge_sets, inst).all_ok:
            raise AssertionError("oracle and production verifier disagree on a packing class")
        total += 1
        if cap is None or len(found) < cap:
            found.append(PackingClass(instance=inst, edge_sets=edge_sets))
    return ClassEnumeration(tuple(found), total)
