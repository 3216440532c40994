"""Packing classes: d edge sets over the boxes that stand for a whole
equivalence class of feasible packings.

A tuple of per-axis graphs (V, E_1..E_d) is a packing class when
  P1: each graph is an interval graph,
  P2: every stable set of graph i fits along axis i, and
  P3: no pair of boxes is adjacent in all d graphs.
Any such tuple can be transitively oriented (complement-wise) and the
orientation extracted into a gapless packing by longest paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from . import chargraph
from .chargraph import Dag, NotComparability
from .errors import (
    CyclicOrientation,
    DimensionMismatch,
    InvalidInstance,
    NotPackingClass,
    UnknownVertex,
)
from .graph import (
    Graph,
    _chordal_stable_set,
    _max_clique,
    _mcs_peo,
    bits,
    complement,
)
from .model import Instance, Packing


@dataclass(frozen=True)
class PackingClass:
    instance: Instance
    edge_sets: tuple[Graph, ...]  # one graph per dimension, over all box ids

    @property
    def d(self) -> int:
        return len(self.edge_sets)


@dataclass(frozen=True)
class Orientation:
    """One transitive orientation per complement graph of a packing class."""

    dags: tuple[Dag, ...]


@dataclass(frozen=True)
class ClassReport:
    """Per-condition verdicts with minimal witnesses on failure.

    p2_ok[i] is None when P1 already failed in dimension i (the stable-set
    bound is only evaluated on interval graphs).
    """

    p1_ok: tuple[bool, ...]
    p1_witnesses: tuple
    p2_ok: tuple
    p2_witnesses: tuple
    p3_ok: bool
    p3_witness: Optional[tuple[str, str]]

    @property
    def all_ok(self) -> bool:
        return (
            all(self.p1_ok)
            and all(ok is True for ok in self.p2_ok)
            and self.p3_ok
        )


if TYPE_CHECKING:
    # Kept out of runtime: typing caches the subscription, which would pin
    # this module's classes past a re-import of the package.
    EdgeSetsLike = Union[PackingClass, Sequence]


def _as_graphs(E: EdgeSetsLike, inst: Instance) -> tuple[Graph, ...]:
    if isinstance(E, PackingClass):
        sets: Sequence = E.edge_sets
    else:
        sets = E
    if len(sets) != inst.d:
        raise DimensionMismatch(f"expected {inst.d} edge sets, got {len(sets)}")
    ids = inst.ids
    known = set(ids)
    graphs = []
    for item in sets:
        if isinstance(item, Graph):
            if set(item.vertices) - known:
                raise UnknownVertex("edge set mentions a vertex not in the instance")
            graphs.append(Graph(ids, item.edges()))
        else:
            edges = [tuple(e) for e in item]
            for a, b in edges:
                if a not in known or b not in known:
                    raise UnknownVertex(f"edge ({a!r}, {b!r}) mentions an unknown box")
            graphs.append(Graph(ids, edges))
    return tuple(graphs)


def verify_packing_class(E: EdgeSetsLike, inst: Instance) -> ClassReport:
    """Check P1/P2/P3 and report per-condition verdicts with witnesses.

    P1 is the accept's test (`chargraph._interval_check`), and P2 reads
    the heaviest stable set off the same elimination order. Witnesses: a
    chordless cycle or asteroidal triple for P1, an overweight stable set
    (with its weight) for P2, a shared edge for P3.
    """
    graphs = _as_graphs(E, inst)
    p1_ok, p1_wit, p2_ok, p2_wit = [], [], [], []
    for i, G in enumerate(graphs):
        elim = _mcs_peo(inst.n, G.adj)
        check = chargraph._interval_check(G, elim)
        p1_ok.append(check.is_interval)
        if not check.is_interval:
            p1_wit.append(("hole", check.hole) if check.hole else ("asteroidal_triple", check.asteroidal_triple))
            p2_ok.append(None)
            p2_wit.append(None)
            continue
        p1_wit.append(None)
        weight, stable = _chordal_stable_set(G.adj, [size[i] for size in inst.int_sizes], elim)
        fits = weight <= inst.int_container(i)
        p2_ok.append(fits)
        p2_wit.append(None if fits else (G.names(stable), Fraction(weight, inst.scale(i))))
    shared: Optional[tuple[str, str]] = None
    common = graphs[0].adj
    for g in graphs[1:]:
        common = tuple(a & b for a, b in zip(common, g.adj))
    for u in range(inst.n):
        rest = common[u] >> (u + 1) << (u + 1)
        if rest:
            shared = (inst.ids[u], inst.ids[next(bits(rest))])
            break
    return ClassReport(
        p1_ok=tuple(p1_ok),
        p1_witnesses=tuple(p1_wit),
        p2_ok=tuple(p2_ok),
        p2_witnesses=tuple(p2_wit),
        p3_ok=shared is None,
        p3_witness=shared,
    )


def orient_class(E: EdgeSetsLike, inst: Optional[Instance] = None) -> Orientation:
    """Transitively orient each complement graph of a verified packing class.

    Deterministic given the orientation tie-breaking rule. Raises
    NotPackingClass when the edge sets fail verification.
    """
    if isinstance(E, PackingClass) and inst is None:
        inst = E.instance
    if inst is None:
        raise InvalidInstance("instance required when passing raw edge sets")
    report = verify_packing_class(E, inst)
    if not report.all_ok:
        raise NotPackingClass(f"edge sets are not a packing class: {report}")
    dags = tuple(chargraph.transitive_orientation(complement(g)) for g in _as_graphs(E, inst))
    # P1 guarantees each complement is a comparability graph.
    assert not any(isinstance(dag, NotComparability) for dag in dags)
    return Orientation(dags=dags)


def extract_packing(F: Orientation, inst: Instance) -> Packing:
    """Place every box at its longest-path offset in each dimension.

    In dimension i a box goes at the maximum, over incoming arcs (u, v) of
    the i-th orientation, of position(u) + size_i(u); boxes with no
    incoming arc sit at 0. The result is a valid, gapless packing. A thin
    wrapper over `_longest_paths` on the instance's integer sizes.
    """
    if len(F.dags) != inst.d:
        raise DimensionMismatch(f"expected {inst.d} orientations, got {len(F.dags)}")
    coords = []
    for i in range(inst.d):
        succ = [0] * inst.n
        for a, b in F.dags[i].arcs:
            succ[inst.index(a)] |= 1 << inst.index(b)
        pos = _longest_paths(succ, [inst.int_size(v, i) for v in range(inst.n)])
        if pos is None:
            raise CyclicOrientation(f"orientation of dimension {i} has a cycle")
        coords.append([Fraction(p, inst.scale(i)) for p in pos])
    return Packing({box_id: pos for box_id, *pos in zip(inst.ids, *coords)})


def _longest_paths(succ: Sequence[int], sizes: Sequence[int]) -> Optional[list[int]]:
    """Bitset core of `extract_packing`, also called by the search engine's
    accept: each vertex's longest-path offset over the successor bitsets
    `succ` (0 with no predecessor, else the largest predecessor's offset
    plus size), or None if the arcs hold a cycle."""
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


def clique_bound_holds(E: EdgeSetsLike, S: Iterable[str], i: int, inst: Optional[Instance] = None) -> bool:
    """Width bound: the subgraph of graph i induced on S must contain a
    clique of at least ceil(total width of S / container width). Genuine
    packing classes always satisfy it; its contrapositive prunes search."""
    if isinstance(E, PackingClass) and inst is None:
        inst = E.instance
    if inst is None:
        raise InvalidInstance("instance required when passing raw edge sets")
    inst.check_dimension(i)
    graphs = _as_graphs(E, inst)
    members = {inst.index(b) for b in S}
    total = sum(inst.int_size(v, i) for v in members)
    size, _ = _max_clique(graphs[i].adj, [1] * inst.n, sum(1 << v for v in members))
    return size >= -(-total // inst.int_container(i))
