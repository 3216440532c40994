"""Packing classes: d edge sets over the boxes that stand for a whole
equivalence class of feasible packings.

A tuple of per-axis graphs (V, E_1..E_d) is a packing class when
  P1: each graph is an interval graph,
  P2: every stable set of graph i fits along axis i, and
  P3: no pair of boxes is adjacent in all d graphs.
One orientation per axis serves all three uses: a transitive
orientation of the complement that is an interval order proves the
graph interval (P1), its heaviest chain is the graph's heaviest stable
set (P2), and its longest paths place the boxes in a gapless packing
(`_place`, which the search's accept calls too). Where P1 fails, the
same orientation step names the witness: an induced 4-cycle of the
graph, or an odd 2-chordless cycle of its complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import TYPE_CHECKING, Optional, Sequence, Union

from . import chargraph
from .chargraph import Dag
from .errors import (
    CyclicOrientation,
    DimensionMismatch,
    InvalidInstance,
    NotPackingClass,
    UnknownVertex,
)
from .graph import Graph, _heaviest_chain, _longest_paths
from .model import Instance, Packing, _pairs, _placed_packing


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

    P1 holds when the complement's transitive orientation is an interval
    order (`chargraph._interval_check`), and P2 reads the heaviest stable
    set off that orientation, as its heaviest chain. Witnesses: for P1
    ("hole", an induced 4-cycle) or ("complement_odd_cycle", an odd
    2-chordless cycle of the complement), for P2 an overweight stable set
    with its weight, for P3 a shared edge.
    """
    return _class_check(E, inst)[0]


def _class_check(E: EdgeSetsLike, inst: Instance) -> tuple[ClassReport, list]:
    """`verify_packing_class`, with the per-axis successor bitsets of the
    complement orientations that prove P1 (None where P1 fails), which
    `orient_class` turns into its `Dag`s."""
    graphs = _as_graphs(E, inst)
    p1_ok, p1_wit, p2_ok, p2_wit, cos = [], [], [], [], []
    for i, G in enumerate(graphs):
        check, co = chargraph._interval_check(G)
        cos.append(co)
        p1_ok.append(check.is_interval)
        if not check.is_interval:
            p1_wit.append(("hole", check.hole) if check.hole else ("complement_odd_cycle", check.complement_odd_cycle))
            p2_ok.append(None)
            p2_wit.append(None)
            continue
        p1_wit.append(None)
        weight, stable = _heaviest_chain(co, [size[i] for size in inst.int_sizes])
        fits = weight <= inst.int_container(i)
        p2_ok.append(fits)
        p2_wit.append(None if fits else (G.names(stable), Fraction(weight, inst.scale(i))))
    common = [reduce(int.__and__, column) for column in zip(*(G.adj for G in graphs))]
    pair = next(_pairs(common), None)  # the first pair in id order adjacent on every axis
    shared = None if pair is None else (inst.ids[pair[0]], inst.ids[pair[1]])
    return ClassReport(tuple(p1_ok), tuple(p1_wit), tuple(p2_ok), tuple(p2_wit), shared is None, shared), cos


def orient_class(E: EdgeSetsLike, inst: Optional[Instance] = None) -> Orientation:
    """Transitively orient each complement graph of a verified packing class.

    Deterministic given the orientation tie-breaking rule: the `Dag`s are
    the orientations that verification proved P1 with, so each complement
    is oriented once. Raises NotPackingClass when the edge sets fail
    verification.
    """
    if isinstance(E, PackingClass) and inst is None:
        inst = E.instance
    if inst is None:
        raise InvalidInstance("instance required when passing raw edge sets")
    report, cos = _class_check(E, inst)
    if not report.all_ok:
        raise NotPackingClass(f"edge sets are not a packing class: {report}")
    return Orientation(dags=tuple(chargraph._dag(inst.ids, co) for co in cos))


def extract_packing(F: Orientation, inst: Instance) -> Packing:
    """Place every box at its longest-path offset in each dimension.

    In dimension i a box goes at the maximum, over incoming arcs (u, v) of
    the i-th orientation, of position(u) + size_i(u); boxes with no
    incoming arc sit at 0. On an `orient_class` result this is a valid,
    gapless packing. A thin wrapper over `_place`: raises
    CyclicOrientation on a cycle, and InvalidPacking when the result is
    no packing, as on an acyclic orientation of no packing class.
    """
    if len(F.dags) != inst.d:
        raise DimensionMismatch(f"expected {inst.d} orientations, got {len(F.dags)}")
    succs = []
    for dag in F.dags:
        succ = [0] * inst.n
        for a, b in dag.arcs:
            succ[inst.index(a)] |= 1 << inst.index(b)
        succs.append(succ)
    return _place(inst, succs)


def _place(inst: Instance, succs: Sequence[Sequence[int]]) -> Packing:
    """Each box placed, on each axis i, at its longest-path offset over the
    successor bitsets `succs[i]` (integer sizes), built and validated by
    `model._placed_packing`; raises as `extract_packing` does."""
    coords = []
    for i, succ in enumerate(succs):
        pos = _longest_paths(succ, [size[i] for size in inst.int_sizes])
        if pos is None:
            raise CyclicOrientation(f"orientation of dimension {i} has a cycle")
        coords.append(pos)
    return _placed_packing(inst, list(enumerate(zip(*coords))))

