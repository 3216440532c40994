"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and timings.
"""

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from packclass.chargraph import (
    Dag,
    NotComparability,
    is_interval_graph,
    transitive_orientation,
)
from packclass.fileio import convert_ngcut, write_json, load_instance
from packclass.graph import Graph, complement, find_odd_2chordless_cycle
from packclass.model import Instance, is_gapless, project_to_class, validate_packing
from packclass.opp import SearchLimits, solve_opp
from packclass.oracle import (
    brute_force_opp,
    enumerate_packing_classes,
    oracle_is_comparability,
    oracle_is_interval,
)
from packclass.packing_class import Orientation, extract_packing
from packclass.solve import OkpSolution, ResourceLimit, SppSolution, solve_okp, solve_spp
from packclass.sweep import exhaustive_grid, random_instance

from certcheck import check_induced_c4, check_odd_2chordless_cycle
from graphgen import mask_to_edges, nonisomorphic_graphs, vertex_names
from graphtools import (
    clique_bound_holds,
    enumerate_transitive_orientations,
    is_transitive_orientation_of,
    is_triangulated,
)

CLASS_CAP = 50
ORIENTATION_CAP = 50


@dataclass
class SweepRecord:
    instance: Instance
    solver_feasible: bool
    oracle_feasible: bool
    classes: tuple
    class_total: int


@pytest.fixture(scope="module")
def sweep_records():
    records = []
    for inst in exhaustive_grid(max_boxes=4, sizes=(1, 2, 3), container=(3, 3)):
        outcome = solve_opp(inst)
        assert outcome.verdict in ("feasible", "infeasible")
        enum = enumerate_packing_classes(inst, cap=CLASS_CAP)
        records.append(
            SweepRecord(
                instance=inst,
                solver_feasible=outcome.verdict == "feasible",
                oracle_feasible=brute_force_opp(inst).feasible,
                classes=enum.classes,
                class_total=enum.total,
            )
        )
    return records


@pytest.fixture(scope="module")
def example_class_enumeration(five_box_example):
    return enumerate_packing_classes(five_box_example)


def test_criterion_1_worked_example_feasibility(five_box_example):
    start = time.perf_counter()
    outcome = solve_opp(five_box_example)
    elapsed = time.perf_counter() - start
    assert outcome.verdict == "feasible"
    assert set(outcome.packing.positions) == set(five_box_example.ids)
    report = validate_packing(outcome.packing, five_box_example)
    assert report.valid
    assert elapsed < 1.0
    # also force the branch-and-bound path, not just the heuristic
    searched = solve_opp(five_box_example, SearchLimits(use_heuristic=False))
    assert searched.verdict == "feasible"
    assert validate_packing(searched.packing, five_box_example).valid
    print(
        f"\nACCEPTANCE 1 PASS - worked example feasible, all 5 boxes placed, "
        f"valid packing in {elapsed:.3f}s"
    )


def test_criterion_2_orientation_counts(five_box_example, example_class_enumeration):
    start = time.perf_counter()
    matching = []
    for pc in example_class_enumeration.classes:
        counts = [
            len(enumerate_transitive_orientations(complement(g)))
            for g in pc.edge_sets
        ]
        if counts == [6, 6]:
            matching.append(pc)
    assert matching, "no packing class with six orientations per complement"
    pc = matching[0]
    per_dim = [enumerate_transitive_orientations(complement(g)) for g in pc.edge_sets]
    assert [len(d) for d in per_dim] == [6, 6]
    pairs = list(product(*per_dim))
    assert len(pairs) == 36
    distinct = set()
    for dags in pairs:
        packing = extract_packing(Orientation(dags=dags), five_box_example)
        assert validate_packing(packing, five_box_example).valid
        assert is_gapless(packing, five_box_example)
        distinct.add(packing.canonical())
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 2 PASS - class with 6 x 6 orientations found, 36 total, "
        f"all extract to valid gapless packings ({len(distinct)} distinct) "
        f"in {elapsed:.1f}s"
    )


def test_criterion_3_theorem_equivalence_sweep(sweep_records):
    start = time.perf_counter()
    disagreements = [
        r
        for r in sweep_records
        if not (r.solver_feasible == r.oracle_feasible == (r.class_total > 0))
    ]
    elapsed = time.perf_counter() - start
    assert disagreements == []
    assert len(sweep_records) == 714  # multisets of up to 4 boxes over 9 sizes
    assert elapsed < 600.0
    feasible = sum(1 for r in sweep_records if r.oracle_feasible)
    print(
        f"\nACCEPTANCE 3 PASS - {len(sweep_records)} instances, "
        f"{feasible} feasible, 100% solver/oracle/class agreement"
    )


def test_criterion_4_extraction_roundtrip(sweep_records):
    classes = orientations = packings = 0
    for record in sweep_records:
        inst = record.instance
        for pc in record.classes:
            classes += 1
            per_dim = [
                enumerate_transitive_orientations(complement(g), cap=ORIENTATION_CAP)
                for g in pc.edge_sets
            ]
            pair_iter = product(*per_dim)
            for _ in range(ORIENTATION_CAP):
                dags = next(pair_iter, None)
                if dags is None:
                    break
                orientations += 1
                packing = extract_packing(Orientation(dags=dags), inst)
                assert validate_packing(packing, inst).valid
                assert is_gapless(packing, inst)
                projected = project_to_class(packing, inst)
                for g_new, g_old in zip(projected.edge_sets, pc.edge_sets):
                    assert set(g_new.edges()) <= set(g_old.edges())
                packings += 1
    print(
        f"\nACCEPTANCE 4 PASS - {classes} classes, {orientations} orientations "
        f"(cap {ORIENTATION_CAP}/class), {packings} extractions all valid, "
        f"gapless, projection-contained; zero violations"
    )


def test_criterion_5_recognition_equivalences():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 8):
        names = vertex_names(n)
        for mask in nonisomorphic_graphs(n):
            G = Graph(names, mask_to_edges(mask, n))
            check = is_interval_graph(G)
            interval = check.is_interval
            assert interval == oracle_is_interval(G)
            # every P1 witness, checked by definition: exactly one, on
            # exactly the graphs that fail
            if check.hole is not None:
                assert not interval and check.complement_odd_cycle is None
                assert check_induced_c4(G, check.hole)
            else:
                assert interval == (check.complement_odd_cycle is None)
                assert interval or check_odd_2chordless_cycle(complement(G), check.complement_odd_cycle)
            # Gilmore-Hoffman, which the search engine's accept relies on:
            # interval iff chordal with a comparability complement.
            assert interval == (
                is_triangulated(G) and isinstance(transitive_orientation(complement(G)), Dag)
            )
            oriented = transitive_orientation(G)
            success = isinstance(oriented, Dag)
            if success:
                assert is_transitive_orientation_of(oriented, G)
            else:
                assert isinstance(oriented, NotComparability)
                assert check_odd_2chordless_cycle(G, oriented.certificate)
            assert success == oracle_is_comparability(G)
            assert success == (find_odd_2chordless_cycle(G) is None)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 1 + 2 + 4 + 11 + 34 + 156 + 1044
    assert elapsed < 600.0
    print(
        f"\nACCEPTANCE 5 PASS - {checked} non-isomorphic graphs (n <= 7), "
        f"100% agreement on interval/comparability/odd-cycle in {elapsed:.1f}s"
    )


def test_criterion_6_clique_bound(sweep_records, example_class_enumeration):
    start = time.perf_counter()
    checked_classes = checked_bounds = 0
    pools = [
        (record.instance, record.classes) for record in sweep_records
    ] + [(example_class_enumeration.classes[0].instance, example_class_enumeration.classes)]
    for inst, classes in pools:
        ids = inst.ids
        subsets = [
            [ids[k] for k in range(len(ids)) if mask >> k & 1]
            for mask in range(1 << len(ids))
        ]
        for pc in classes:
            checked_classes += 1
            for S in subsets:
                for i in range(inst.d):
                    assert clique_bound_holds(pc, S, i, inst)
                    checked_bounds += 1
    elapsed = time.perf_counter() - start
    print(
        f"\nACCEPTANCE 6 PASS - width bound holds on {checked_classes} classes "
        f"x all subsets x dimensions ({checked_bounds} checks, zero violations) "
        f"in {elapsed:.1f}s"
    )


def brute_okp_optimum(inst):
    best = Fraction(0)
    for mask in range(1 << inst.n):
        ids = [inst.ids[k] for k in range(inst.n) if mask >> k & 1]
        if brute_force_opp(inst.restrict(ids)).feasible:
            value = sum((inst.box(b).value for b in ids), Fraction(0))
            best = max(best, value)
    return best


def brute_spp_height(boxes, cross):
    scale = lcm(*(b.size[-1].denominator for b in boxes))
    sums = {0}
    for b in boxes:
        sums |= {s + int(b.size[-1] * scale) for s in sums}
    floor = max(int(b.size[-1] * scale) for b in boxes)
    for s in sorted(x for x in sums if x >= floor):
        h = Fraction(s, scale)
        if brute_force_opp(Instance(boxes=boxes, container=(*cross, h))).feasible:
            return h
    raise AssertionError("unreachable")


def test_criterion_7_okp_spp_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20260810)
    for trial in range(200):
        inst = random_instance(rng, max_boxes=4, max_size=3, container=(4, 4))
        sol = solve_okp(inst)
        assert isinstance(sol, OkpSolution), f"trial {trial}: {sol}"
        assert sol.total_value == brute_okp_optimum(inst), f"trial {trial}"
        assert validate_packing(sol.packing, inst.restrict(sol.chosen)).valid

        spp = solve_spp(inst.boxes, (4,))
        assert isinstance(spp, SppSolution), f"trial {trial}: {spp}"
        assert spp.height == brute_spp_height(inst.boxes, (Fraction(4),)), f"trial {trial}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(
        f"\nACCEPTANCE 7 PASS - 200 random instances, OKP and SPP match the "
        f"brute-force optima exactly in {elapsed:.1f}s"
    )


NGCUT_BENCH = """2
4
10 10
6 4 24
4 4 16
5 3 15
3 3 2 9
4
12 8
7 5 35
6 4 24
5 4 20
4 3 12
"""


def test_criterion_8_benchmark_is_recorded_not_asserted(tmp_path):
    # Published large-scale OR-Library results need external instance
    # data, so this target only runs converted files under a time limit
    # and records the outcomes; nothing is asserted about the verdicts.
    outcomes = []
    limit = SearchLimits(time_limit=60.0)
    for k, (doc, rule) in enumerate(convert_ngcut(NGCUT_BENCH, source="bench"), 1):
        path = tmp_path / f"bench_{k}.json"
        write_json(doc, str(path))
        inst, _ = load_instance(str(path))
        start = time.perf_counter()
        sol = solve_okp(inst, limit)
        elapsed = time.perf_counter() - start
        if isinstance(sol, ResourceLimit):
            outcomes.append(f"instance {k} ({rule}): resource limit after {elapsed:.1f}s")
        else:
            outcomes.append(
                f"instance {k} ({rule}): value {sol.total_value} with "
                f"{len(sol.chosen)}/{inst.n} boxes in {elapsed:.1f}s"
            )
    assert len(outcomes) == 2  # both ran and were recorded
    print("\nACCEPTANCE 8 PASS (non-gating) - benchmark outcomes recorded:")
    for line in outcomes:
        print(f"  {line}")
