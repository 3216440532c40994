import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

import packclass
from packclass import chargraph, graph
from packclass.chargraph import Dag, IntervalCheck, is_interval_graph, transitive_orientation
from packclass.errors import NotPackingClass
from packclass.graph import Graph, complement, max_weight_stable_set_interval
from packclass.model import Box, Instance, is_gapless, project_to_class, validate_packing
from packclass.oracle import OracleConfig, enumerate_packing_classes, oracle_is_interval
from packclass.packing_class import (
    ClassReport,
    Orientation,
    extract_packing,
    orient_class,
    verify_packing_class,
)

from certcheck import check_induced_c4, check_odd_2chordless_cycle
from conftest import random_valid_packing
from graphtools import clique_bound_holds


def two_box_instance():
    return Instance(
        boxes=(Box("b1", (2, 1)), Box("b2", (2, 1))), container=(2, 2)
    )


def test_verify_passes_on_stacked_class():
    inst = two_box_instance()
    report = verify_packing_class([[("b1", "b2")], []], inst)
    assert report.all_ok


def test_verify_flags_overweight_stable_set():
    inst = two_box_instance()
    report = verify_packing_class([[], []], inst)
    assert not report.all_ok
    assert report.p2_ok[0] is False
    stable, weight = report.p2_witnesses[0]
    assert set(stable) == {"b1", "b2"} and weight == 4
    assert report.p2_ok[1] is True  # 1+1 <= 2 along the second axis


def test_verify_flags_shared_edge():
    inst = Instance(boxes=(Box("b1", (1, 1)), Box("b2", (1, 1))), container=(3, 3))
    report = verify_packing_class([[("b1", "b2")], [("b1", "b2")]], inst)
    assert not report.p3_ok and report.p3_witness == ("b1", "b2")


def test_verify_flags_non_interval_graph():
    boxes = tuple(Box(f"b{i}", (1, 1)) for i in range(1, 5))
    inst = Instance(boxes=boxes, container=(4, 4))
    c4 = [("b1", "b2"), ("b2", "b3"), ("b3", "b4"), ("b4", "b1")]
    report = verify_packing_class([c4, []], inst)
    assert report.p1_ok[0] is False and report.p1_witnesses[0][0] == "hole"
    assert report.p2_ok[0] is None  # stable-set bound not evaluated without P1


def verify_by_definition(E, inst):
    """`verify_packing_class`'s verdicts by definition, as a reference: P1
    by the definitional oracle (simplicial elimination, then no
    asteroidal triple), P2 by the stable-set routine on `Fraction` sizes,
    P3 by the first pair (in id order) adjacent on every axis. P1
    witnesses are left None: the test checks the library's by definition."""
    graphs = [Graph(inst.ids, edges) for edges in E]
    p1_ok, p2_ok, p2_wit = [], [], []
    for i, G in enumerate(graphs):
        p1_ok.append(oracle_is_interval(G, OracleConfig(max_vertices=inst.n)))
        if not p1_ok[-1]:
            p2_ok.append(None)
            p2_wit.append(None)
            continue
        weight, stable = max_weight_stable_set_interval(G, {b.id: b.size[i] for b in inst.boxes})
        p2_ok.append(weight <= inst.container[i])
        p2_wit.append(None if p2_ok[-1] else (stable, weight))
    shared = next(
        (pair for pair in combinations(inst.ids, 2) if all(G.has_edge(*pair) for G in graphs)), None
    )
    return ClassReport(tuple(p1_ok), (None,) * len(graphs), tuple(p2_ok), tuple(p2_wit), shared is None, shared)


def random_edge_sets(rng, inst):
    """Per-axis edge lists of one of four kinds: the class of a random
    valid packing, intersection graphs of random intervals, random trees
    (chordal, often with an asteroidal triple) or random graphs."""
    ids, n = inst.ids, inst.n
    kind = rng.randrange(4)
    if kind == 0:
        packing = random_valid_packing(rng, inst, tries=50)
        if packing is not None:
            return [G.edges() for G in project_to_class(packing, inst).edge_sets]
    if kind <= 1:
        out = []
        for _ in range(inst.d):
            spans = [(lo, lo + rng.randint(0, 4)) for lo in (rng.randint(0, 6) for _ in ids)]
            out.append([(ids[a], ids[b]) for a, b in combinations(range(n), 2)
                        if max(spans[a][0], spans[b][0]) <= min(spans[a][1], spans[b][1])])
        return out
    if kind == 2:
        return [[(ids[rng.randrange(b)], ids[b]) for b in range(1, n)] for _ in range(inst.d)]
    p = rng.choice([0.2, 0.4, 0.6, 0.8])
    return [[pair for pair in combinations(ids, 2) if rng.random() < p] for _ in range(inst.d)]


def test_class_check_matches_definitional_reference():
    """On random edge sets (d 1-3, fractional sizes) `verify_packing_class`
    reports the definitional reference's verdicts and its P2 and P3
    witnesses; each P1 witness is an induced 4-cycle of the graph or an
    odd 2-chordless cycle of its complement, and `is_interval_graph`
    gives each graph the same verdict and witness. `orient_class` orients
    exactly the all-ok tuples."""
    rng = random.Random(23)
    seen = {"hole": 0, "complement_odd_cycle": 0, "overweight": 0, "all_ok": 0}
    for _ in range(500):
        d = rng.randint(1, 3)
        dens = [rng.randint(1, 3) for _ in range(d)]
        sizes = [[Fraction(rng.randint(1, 3 * den), den) for den in dens] for _ in range(rng.randint(1, 10))]
        container = [max(max(s[i] for s in sizes), rng.randint(2, 8)) for i in range(d)]
        inst = Instance(boxes=[Box(f"b{k}", s) for k, s in enumerate(sizes)], container=container)
        E = random_edge_sets(rng, inst)
        expected = verify_by_definition(E, inst)
        report = verify_packing_class(E, inst)
        assert replace(report, p1_witnesses=expected.p1_witnesses) == expected
        for edges, ok, witness in zip(E, report.p1_ok, report.p1_witnesses):
            G = Graph(inst.ids, edges)
            check = is_interval_graph(G)
            assert check == (IntervalCheck(True) if ok else IntervalCheck(False, **dict([witness])))
            if ok:
                assert witness is None
                continue
            kind, cert = witness
            assert check_induced_c4(G, cert) if kind == "hole" else check_odd_2chordless_cycle(complement(G), cert)
            seen[kind] += 1
        seen["overweight"] += expected.p2_ok.count(False)
        if expected.all_ok:
            seen["all_ok"] += 1
            dags = orient_class(E, inst).dags
            assert dags == tuple(transitive_orientation(complement(Graph(inst.ids, e))) for e in E)
        else:
            with pytest.raises(NotPackingClass):
                orient_class(E, inst)
    assert min(seen.values()) >= 20, seen


def test_orient_class_deterministic_and_complete_graph_case():
    boxes = tuple(Box(f"b{i}", (1, 1)) for i in range(1, 4))
    inst = Instance(boxes=boxes, container=(3, 3))
    pairs = list(combinations([b.id for b in boxes], 2))
    # all pairs overlapping in dimension 0, all separated in dimension 1
    pc_edges = [pairs, []]
    o1 = orient_class(pc_edges, inst)
    o2 = orient_class(pc_edges, inst)
    assert o1 == o2
    assert o1.dags[0].arcs == frozenset()  # complement of complete graph is empty


def test_orient_class_orients_each_complement_once(monkeypatch):
    """The `Dag`s are the orientations verification proved P1 with: one
    `_transitive_orientation` per axis, wherever it is called from."""
    calls = []
    core = graph._transitive_orientation

    def counted(n, adj):
        calls.append(n)
        return core(n, adj)

    monkeypatch.setattr(graph, "_transitive_orientation", counted)
    monkeypatch.setattr(chargraph, "_transitive_orientation", counted)
    inst = two_box_instance()
    orientation = orient_class([[("b1", "b2")], []], inst)
    assert calls == [2, 2]
    assert orientation.dags == (Dag(inst.ids, frozenset()), Dag(inst.ids, frozenset({("b1", "b2")})))


def test_orient_class_rejects_non_class():
    inst = two_box_instance()
    with pytest.raises(NotPackingClass):
        orient_class([[], []], inst)


def test_extract_packing_single_arc():
    inst = Instance(boxes=(Box("b1", (4,)), Box("b2", (1,))), container=(5,))
    F = Orientation(dags=(Dag(vertices=("b1", "b2"), arcs=frozenset({("b1", "b2")})),))
    p = extract_packing(F, inst)
    assert p.positions["b1"] == (0,) and p.positions["b2"] == (4,)


def test_extract_packing_single_box_origin():
    inst = Instance(boxes=(Box("solo", (2, 2)),), container=(3, 3))
    F = Orientation(dags=(Dag(("solo",), frozenset()), Dag(("solo",), frozenset())))
    p = extract_packing(F, inst)
    assert p.positions["solo"] == (0, 0)


def test_roundtrip_extract_is_valid_gapless_subset():
    # Lemma-style roundtrip: every orientation of a verified class extracts
    # to a valid gapless packing whose projections never add overlaps.
    rng = random.Random(21)
    checked = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        inst = Instance(
            boxes=[Box(f"b{k}", (rng.randint(1, 3), rng.randint(1, 3))) for k in range(n)],
            container=(4, 4),
        )
        for pc in enumerate_packing_classes(inst, cap=5).classes:
            orientation = orient_class(pc)
            q = extract_packing(orientation, inst)
            assert validate_packing(q, inst).valid
            assert is_gapless(q, inst)
            back = project_to_class(q, inst)
            for g_new, g_old in zip(back.edge_sets, pc.edge_sets):
                assert set(g_new.edges()) <= set(g_old.edges())
            checked += 1
    assert checked > 20


def test_extract_packing_rejects_cyclic_orientation():
    from packclass.chargraph import Dag
    from packclass.errors import CyclicOrientation

    inst = Instance(
        boxes=(Box("a", (1,)), Box("b", (1,)), Box("c", (1,))), container=(3,)
    )
    cycle = Dag(("a", "b", "c"), frozenset({("a", "b"), ("b", "c"), ("c", "a")}))
    with pytest.raises(CyclicOrientation):
        extract_packing(Orientation(dags=(cycle,)), inst)


def test_extract_packing_rejects_an_orientation_of_no_class():
    # no arcs on either axis: longest paths put both boxes at the origin,
    # on top of each other, and the placement is refused, not returned
    from packclass.errors import InvalidPacking

    inst = Instance(boxes=(Box("a", (1, 1)), Box("b", (1, 1))), container=(2, 2))
    empty = Dag(("a", "b"), frozenset())
    with pytest.raises(InvalidPacking):
        extract_packing(Orientation(dags=(empty, empty)), inst)


def test_clique_bound_arithmetic():
    # four boxes of width 3 against W=5 force ceil(12/5) = 3 mutually
    # overlapping boxes in that dimension
    boxes = tuple(Box(f"b{i}", (3, 1)) for i in range(1, 5))
    inst = Instance(boxes=boxes, container=(5, 4))
    ids = [b.id for b in boxes]
    overlap_all = list(combinations(ids, 2))
    pc = [overlap_all, []]
    assert clique_bound_holds(pc, ids, 0, inst)
    # a set that fits in one strip needs only a 1-clique: always true
    inst_small = Instance(boxes=(Box("a", (1, 1)), Box("b", (1, 1))), container=(3, 3))
    assert clique_bound_holds([[], []], ["a", "b"], 0, inst_small)


def test_clique_bound_holds_on_projected_classes(five_box_example):
    rng = random.Random(22)
    for _ in range(20):
        p = random_valid_packing(rng, five_box_example)
        if p is None:
            continue
        pc = project_to_class(p, five_box_example)
        ids = list(pc.instance.ids)
        for _ in range(10):
            S = [b for b in ids if rng.random() < 0.6]
            for i in range(2):
                assert clique_bound_holds(pc, S, i, pc.instance)


def test_clique_bound_holds_past_64_boxes():
    # 70 unit squares in a 70 x 1 strip: every pair overlaps on axis 1, so
    # the bound asks for a clique of all 70 there, past the 64-vertex cap
    # of `max_weight_clique`
    from packclass.opp import solve_opp

    inst = Instance(boxes=[Box(f"b{k}", (1, 1)) for k in range(70)], container=(70, 1))
    out = solve_opp(inst)
    assert out.verdict == "feasible"
    assert clique_bound_holds(out.packing_class, inst.ids, 1)
    assert clique_bound_holds(out.packing_class, inst.ids, 0)
    assert not clique_bound_holds([[], []], inst.ids, 1, inst)


GUARD_SCRIPT = """
from packclass.chargraph import Dag
from packclass.fileio import render_svg
from packclass.model import Box, Instance, Packing
from packclass.packing_class import (
    Orientation, extract_packing, orient_class, verify_packing_class,
)
cube = Instance(boxes=(Box("a", (1, 1, 1)),), container=(1, 1, 1))
square = Instance(boxes=(Box("a", (1, 1)),), container=(1, 1))
print(__debug__)
for call in (
    lambda: orient_class([[], []]),
    lambda: verify_packing_class([[]], square),
    lambda: render_svg(cube, Packing({"a": (0, 0, 0)})),
    lambda: extract_packing(Orientation(dags=(Dag(("a",), frozenset()),) * 2), cube),
    lambda: extract_packing(Orientation(dags=(Dag(("a",), frozenset()),) * 4), cube),
):
    try:
        print("returned", call())
    except Exception as exc:
        print(type(exc).__name__)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "python-O"])
def test_caller_input_guards_raise_package_errors(flags):
    """Edge sets with no instance, too few edge sets for the instance, an
    SVG of a 3-D packing, and too few or too many orientations for the
    instance raise the package's own errors, with asserts on and stripped
    alike."""
    src = os.path.dirname(os.path.dirname(packclass.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, *flags, "-c", GUARD_SCRIPT], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [
        str(not flags), "InvalidInstance", "DimensionMismatch", "DimensionMismatch",
        "DimensionMismatch", "DimensionMismatch",
    ]


UNLOAD_SCRIPT = """
import gc, sys, weakref
from packclass.graph import Graph
from packclass.packing_class import PackingClass
refs = [weakref.ref(PackingClass), weakref.ref(Graph)]
del Graph, PackingClass
for name in [m for m in sys.modules if m.split(".")[0] == "packclass"]:
    del sys.modules[name]
gc.collect()
print(sum(ref() is not None for ref in refs))
"""


def test_unloaded_package_frees_its_classes():
    # A module-level typing subscription such as Union[PackingClass, ...]
    # sits in typing's cache and would pin every class of each import.
    src = os.path.dirname(os.path.dirname(packclass.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", UNLOAD_SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "0"
