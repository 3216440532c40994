import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import packclass
from packclass.errors import InvalidLimits, PackclassError, TooLarge
from packclass.graph import Graph
from packclass.model import Box, Instance, validate_packing
from packclass.opp import SearchLimits, solve_opp
from packclass.oracle import (
    OracleConfig,
    brute_force_opp,
    cell_fill_opp,
    enumerate_packing_classes,
    oracle_is_comparability,
    oracle_is_interval,
)

from test_graph import complete_graph, cycle_graph, LONG_CLAW
from test_opp import tight_instance


def test_brute_force_verdicts(five_box_example):
    two = Instance(boxes=(Box("a", (2, 2)), Box("b", (2, 2))), container=(3, 3))
    assert not brute_force_opp(two).feasible
    result = brute_force_opp(five_box_example)
    assert result.feasible
    assert validate_packing(result.packing, five_box_example).valid
    assert set(result.packing.positions) == set(five_box_example.ids)


def test_brute_force_cap():
    boxes = tuple(Box(f"b{k}", (1, 1)) for k in range(6))
    inst = Instance(boxes=boxes, container=(6, 6))
    with pytest.raises(TooLarge):
        brute_force_opp(inst)
    assert brute_force_opp(inst, OracleConfig(max_boxes=6)).feasible
    for caps in ({"max_boxes": 0}, {"max_vertices": -1}, {"max_orientation_edges": 0}):
        with pytest.raises(InvalidLimits) as raised:
            OracleConfig(**caps)
        assert isinstance(raised.value, PackclassError) and isinstance(raised.value, ValueError)


def test_cell_fill_agrees_with_brute_force():
    """On 480 seeded instances, d 1-3 and 1-5 boxes, every side on a 1 or
    1/2 grid, the cell fill on 20,000 nodes settles at least 400 and gives
    brute force's verdict on each, with a packing that validates. What it
    leaves are grids with much slack, where its waste branching grows."""
    rng = random.Random(31)
    verdicts = []
    for k in range(480):
        d = 1 + k % 3
        den = 1 + k // 3 % 2
        container = tuple(Fraction(rng.randint(2 * den, 4 * den), den) for _ in range(d))
        boxes = [
            Box(f"b{j}", tuple(Fraction(rng.randint(1, int(w * den)), den) for w in container))
            for j in range(rng.randint(1, 5))
        ]
        inst = Instance(boxes=boxes, container=container)
        try:
            result = cell_fill_opp(inst, max_nodes=20_000)
        except TooLarge:
            continue
        assert result.feasible == brute_force_opp(inst).feasible, k
        assert result.packing is None or validate_packing(result.packing, inst).valid
        verdicts.append(result.feasible)
    assert len(verdicts) >= 400 and 150 <= sum(verdicts) <= 330, (len(verdicts), sum(verdicts))


def test_cell_fill_cap_and_budget():
    """Above CELL_CAP cells, or once its nodes are spent, the cell fill
    raises TooLarge rather than guess."""
    square = Instance(boxes=(Box("a", (2, 2)), Box("b", (2, 2))), container=(3, 3))
    assert not cell_fill_opp(square).feasible
    assert cell_fill_opp(Instance(boxes=(), container=(3, 3))).feasible
    big = Instance(boxes=(Box("a", (1, 1)),), container=(65, 64))
    with pytest.raises(TooLarge):
        cell_fill_opp(big)
    assert cell_fill_opp(Instance(boxes=(Box("a", (1, 1)),), container=(64, 64))).feasible
    with pytest.raises(TooLarge):
        cell_fill_opp(square, max_nodes=0)
    tight = tight_instance(random.Random(1), 9)
    with pytest.raises(TooLarge):
        cell_fill_opp(tight, max_nodes=3)


def test_engine_never_contradicts_the_cell_fill():
    """On 200 seeded tight 10 x 10 instances (6-12 boxes, 80-100 % full),
    the exact engine, heuristic off, never contradicts the cell fill where
    both settle; most are settled by both, infeasible ones among them."""
    rng = random.Random(32)
    engine_limits = SearchLimits(max_nodes=5_000, time_limit=None, use_heuristic=False)
    both = Counter()
    for k in range(200):
        inst = tight_instance(rng, 6 + k % 7)
        try:
            truth = cell_fill_opp(inst, max_nodes=20_000).feasible
        except TooLarge:
            continue
        out = solve_opp(inst, engine_limits)
        if out.verdict != "resource_limit":
            assert (out.verdict == "feasible") == truth, k
            both[truth] += 1
    assert sum(both.values()) >= 120 and both[False] >= 10, both


def test_oracle_interval_examples():
    assert not oracle_is_interval(cycle_graph(4))
    assert oracle_is_interval(complete_graph(4))
    assert not oracle_is_interval(LONG_CLAW)
    with pytest.raises(TooLarge):
        oracle_is_interval(complete_graph(8))


def test_oracle_comparability_examples():
    assert not oracle_is_comparability(cycle_graph(5))
    assert oracle_is_comparability(cycle_graph(6))  # bipartite
    assert oracle_is_comparability(
        Graph("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    )
    with pytest.raises(TooLarge):
        oracle_is_comparability(complete_graph(7), OracleConfig(max_orientation_edges=20))


def test_enumerate_classes_unique_stacked_class():
    inst = Instance(boxes=(Box("b1", (2, 1)), Box("b2", (2, 1))), container=(2, 2))
    enum = enumerate_packing_classes(inst)
    assert enum.total == 1
    (pc,) = enum.classes
    assert pc.edge_sets[0].edges() == [("b1", "b2")]
    assert pc.edge_sets[1].edges() == []


def test_enumerate_classes_empty_when_forced_overlap_everywhere():
    inst = Instance(boxes=(Box("b1", (2, 2)), Box("b2", (2, 2))), container=(3, 3))
    assert enumerate_packing_classes(inst).total == 0


def test_enumerate_classes_cap_keeps_exact_total(five_box_example):
    capped = enumerate_packing_classes(five_box_example, cap=2)
    assert len(capped.classes) == 2
    full = enumerate_packing_classes(five_box_example)
    assert capped.total == full.total == len(full.classes)
    assert full.total > 0


def test_enumerate_classes_size_guard():
    boxes = tuple(Box(f"b{k}", (1, 1)) for k in range(6))
    inst = Instance(boxes=boxes, container=(6, 6))
    with pytest.raises(TooLarge):
        enumerate_packing_classes(inst)


def test_theorem_equivalence_on_tiny_grid():
    # packable iff some packing class exists (full grid in acceptance)
    from packclass.sweep import exhaustive_grid

    for inst in exhaustive_grid(max_boxes=2):
        assert brute_force_opp(inst).feasible == (
            enumerate_packing_classes(inst).total > 0
        )


CROSS_CHECK_SCRIPT = """
from packclass import packing_class
from packclass.model import Box, Instance
from packclass.oracle import enumerate_packing_classes
assert False, "asserts are on"
class Rejected:
    all_ok = False
packing_class.verify_packing_class = lambda E, inst: Rejected()
inst = Instance(boxes=(Box("a", (1, 1)), Box("b", (1, 1))), container=(2, 2))
try:
    print("returned", enumerate_packing_classes(inst).total)
except AssertionError as exc:
    print("raised:", exc)
"""


def test_verifier_cross_check_survives_python_O():
    """With asserts stripped, a production verifier that rejects a class
    the oracle found still stops the enumeration."""
    src = os.path.dirname(os.path.dirname(packclass.__file__))
    run = subprocess.run(
        [sys.executable, "-O", "-c", CROSS_CHECK_SCRIPT], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "raised: oracle and production verifier disagree on a packing class"
    ]
