import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import ceil
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from packclass.errors import (
    DimensionMismatch,
    DimensionOutOfRange,
    InvalidInstance,
    InvalidPacking,
    UnknownBox,
)
from packclass.graph import Graph
from packclass.model import (
    Box,
    Closedness,
    Instance,
    Overlap,
    Packing,
    _placed_packing,
    is_gapless,
    project_to_class,
    validate_packing,
    xi_feasible,
)
from packclass.opp import _bottom_left
from packclass.packing_class import verify_packing_class

from conftest import assert_same_tables, random_valid_packing


def make(boxes, W):
    return Instance(boxes=[Box(i, s) for i, s in boxes], container=W)


def test_single_box_identity():
    inst = make([("a", (1, 1))], (1, 1))
    assert validate_packing(Packing({"a": (0, 0)}), inst).valid


def test_overlap_reported():
    inst = make([("b1", (2, 2)), ("b2", (2, 2))], (3, 3))
    report = validate_packing(Packing({"b1": (0, 0), "b2": (1, 1)}), inst)
    assert not report.valid
    assert Overlap("b1", "b2") in report.violations


def test_touching_boxes_do_not_overlap():
    inst = make([("b1", (1, 2)), ("b2", (1, 2))], (2, 2))
    report = validate_packing(Packing({"b1": (0, 0), "b2": (1, 0)}), inst)
    assert report.valid


def test_closedness_reported_per_dimension():
    inst = make([("a", (2, 1))], (3, 3))
    report = validate_packing(Packing({"a": (2, 0)}), inst)
    assert report.violations == (Closedness("a", 0),)


def test_validate_rejects_unknown_and_mismatched():
    inst = make([("a", (1, 1))], (2, 2))
    with pytest.raises(UnknownBox):
        validate_packing(Packing({"zz": (0, 0)}), inst)
    with pytest.raises(DimensionMismatch):
        validate_packing(Packing({"a": (0, 0, 0)}), inst)


def test_instance_invariants():
    with pytest.raises(InvalidInstance):
        make([("a", (4, 1))], (3, 3))  # does not fit
    with pytest.raises(InvalidInstance):
        make([("a", (1, 1)), ("a", (1, 1))], (3, 3))  # duplicate id
    with pytest.raises(InvalidInstance):
        Instance(boxes=[Box("a", (0, 1))], container=(3, 3))  # zero size
    with pytest.raises(DimensionMismatch):
        make([("a", (1, 1, 1))], (3, 3))


F = Fraction
# Inputs with several faults at once, and the one error each must raise
# first: the checks run in a fixed order (per box: id, duplicate, size
# count, fit), whatever arithmetic they use.
FIRST_ERROR = [
    (lambda: make([("a", (1, 1)), ("a", (5, 1))], (2, 2)),
     InvalidInstance, "duplicate box id 'a'"),
    (lambda: make([("a", (5, 1)), ("a", (1, 1))], (2, 2)),
     InvalidInstance, "box 'a' does not fit the container in dimension 0 (5 > 2)"),
    (lambda: make([("a", (1, 1)), ("b", (1, 1)), ("a", (1, 1, 1))], (2, 2)),
     InvalidInstance, "duplicate box id 'a'"),
    (lambda: make([("a", (5, 1)), ("b", (1, 1, 1))], (2, 2)),
     InvalidInstance, "box 'a' does not fit the container in dimension 0 (5 > 2)"),
    (lambda: make([("b", (1,)), ("a", (5, 1))], (2, 2)),
     DimensionMismatch, "box 'b' has 1 size components, expected 2"),
    (lambda: make([("b", (1, 1, 1)), ("a", (5, 1))], (2, 2)),
     DimensionMismatch, "box 'b' has 3 size components, expected 2"),
    (lambda: make([("a", (1, 5)), ("b", (1,))], (2, 2)),
     InvalidInstance, "box 'a' does not fit the container in dimension 1 (5 > 2)"),
    (lambda: make([("a", (1, 1)), ("b", (3,))], (2, 2)),
     DimensionMismatch, "box 'b' has 1 size components, expected 2"),
    (lambda: make([("a", (5, 1))], (0, 2)),
     InvalidInstance, "container dimensions must be positive"),
    (lambda: make([("a", (1, 1)), ("a", (1, 1))], (2, 0)),
     InvalidInstance, "container dimensions must be positive"),
    (lambda: make([], (F(-1, 2), 3)),
     InvalidInstance, "container dimensions must be positive"),
    (lambda: make([("a", (1, 1))], ()),
     InvalidInstance, "container must have at least one dimension"),
    (lambda: make([("a", (5, 1))], (2, 1.5)),
     InvalidInstance, "not an exact rational: 1.5 (floats are rejected)"),
    (lambda: make([("a", (F(7, 3), 1))], (2, 2)),
     InvalidInstance, "box 'a' does not fit the container in dimension 0 (7/3 > 2)"),
    (lambda: make([("a", (1, 3))], (2, F(5, 2))),
     InvalidInstance, "box 'a' does not fit the container in dimension 1 (3 > 5/2)"),
    (lambda: make([("a", ("1/3", 2)), ("b", (F(2, 3), 3))], (1, 2)),
     InvalidInstance, "box 'b' does not fit the container in dimension 1 (3 > 2)"),
    (lambda: Box("a", (0, 1)), InvalidInstance, "box 'a' has a non-positive size component"),
    (lambda: Box("a", (1, F(-1, 2))), InvalidInstance, "box 'a' has a non-positive size component"),
    (lambda: Box("a", (0, 1), value=-1), InvalidInstance, "box 'a' has a non-positive size component"),
    (lambda: Box("", (0, 1)), InvalidInstance, "box id must be a non-empty string, got ''"),
    (lambda: Box("a", ()), InvalidInstance, "box 'a' has an empty size vector"),
    (lambda: Box("a", (1, True)), InvalidInstance, "not a rational: True"),
    (lambda: Box("a", (1, 1), value=-1), InvalidInstance, "box 'a' has negative value -1"),
    (lambda: Box("a", (1, 1), value="-1/2"), InvalidInstance, "box 'a' has negative value -1/2"),
    (lambda: Box("a", (1, "2/0")), InvalidInstance, "cannot parse rational '2/0'"),
    (lambda: Packing({"a": (0, F(-1, 2))}), InvalidPacking, "negative coordinate for box 'a'"),
    (lambda: Packing({"a": (0, 1), "b": (-1, 0.5)}),
     InvalidInstance, "not an exact rational: 0.5 (floats are rejected)"),
]


@pytest.mark.parametrize("build, error, message", FIRST_ERROR)
def test_first_error_of_many(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


def test_fractional_sizes_fit_and_volume():
    inst = make([("a", (1, F(5, 2))), ("b", (2, 2))], (2, F(5, 2)))
    assert inst.int_sizes == ((1, 5), (2, 4)) and inst.int_container(1) == 5
    assert Box("v", (F(2, 3), F(3, 4), 5)).value == F(5, 2)
    assert Box("w", ("1/2", 2)).volume == 1


def test_exact_rationals_in_sizes():
    inst = Instance(
        boxes=[Box("a", (Fraction(1, 3), 1)), Box("b", (Fraction(2, 3), 1))],
        container=(1, 1),
    )
    # scale in dimension 0 is 3; touching at 1/3 exactly
    p = Packing({"a": (0, 0), "b": (Fraction(1, 3), 0)})
    assert validate_packing(p, inst).valid
    assert inst.scale(0) == 3 and inst.int_size(0, 0) == 1


def test_restrict_matches_a_fresh_instance():
    """`restrict` derives its instance from the parent's tables and gives
    the instance built from the kept boxes, also where a dropped box
    carried an axis's only denominator of 3, so that the axis's scale
    shrinks; an unknown id still raises UnknownBox."""
    rng = random.Random(61)
    shrunk = 0
    for k in range(240):
        d = 1 + k % 3
        container = tuple(Fraction(rng.randint(4, 12), 2) for _ in range(d))
        boxes = [
            Box(f"b{j}", tuple(Fraction(rng.randint(1, int(2 * w)), 2) for w in container))
            for j in range(rng.randint(2, 9))
        ]
        third, i = rng.randrange(len(boxes)), rng.randrange(d)
        size = list(boxes[third].size)
        size[i] = Fraction(1, 3) + rng.randrange(int(container[i]))
        boxes[third] = Box(boxes[third].id, tuple(size), value=rng.randint(0, 5))
        inst = Instance(boxes=boxes, container=container)
        for _ in range(3):
            kept = [b.id for b in boxes if rng.random() < 0.6]
            sub = inst.restrict(rng.sample(kept, len(kept)))
            assert_same_tables(sub, Instance(boxes=[b for b in boxes if b.id in kept], container=container))
            shrunk += sub.scale(i) < inst.scale(i)
        with pytest.raises(UnknownBox):
            inst.restrict([boxes[0].id, "zz"])
    assert shrunk >= 200, shrunk


def test_xi_feasible_paper_pairs(five_box_example):
    assert xi_feasible(set(), 0, five_box_example)  # empty sum
    assert not xi_feasible({"b1", "b2"}, 0, five_box_example)  # 4+5 > 5
    assert xi_feasible({"b1", "b2"}, 1, five_box_example)  # 1+1 <= 5
    with pytest.raises(DimensionOutOfRange):
        xi_feasible({"b1"}, 2, five_box_example)
    with pytest.raises(UnknownBox):
        xi_feasible({"nope"}, 0, five_box_example)


def test_project_two_stacked_boxes():
    inst = make([("b1", (2, 1)), ("b2", (2, 1))], (2, 2))
    pc = project_to_class(Packing({"b1": (0, 0), "b2": (0, 1)}), inst)
    assert pc.edge_sets[0].edges() == [("b1", "b2")]
    assert pc.edge_sets[1].edges() == []


def test_project_single_box_empty_class():
    inst = make([("a", (1, 1))], (2, 2))
    pc = project_to_class(Packing({"a": (0, 0)}), inst)
    assert all(g.edges() == [] for g in pc.edge_sets)


def test_project_requires_valid_packing():
    inst = make([("b1", (2, 2)), ("b2", (2, 2))], (3, 3))
    with pytest.raises(InvalidPacking):
        project_to_class(Packing({"b1": (0, 0), "b2": (0, 0)}), inst)


def test_is_gapless_cases():
    inst = make([("a", (1, 1))], (3, 3))
    assert is_gapless(Packing({"a": (0, 0)}), inst)
    assert not is_gapless(Packing({"a": (0, 1)}), inst)


def test_off_grid_coordinates_are_exact():
    # Coordinates finer than the instance's own (integer) grid.
    line = make([("a", (1,)), ("b", (1,))], (3,))
    half = Fraction(1, 2)
    for pos_a, pos_b in [(0, half), (half, 1)]:
        report = validate_packing(Packing({"a": (pos_a,), "b": (pos_b,)}), line)
        assert report.violations == (Overlap("a", "b"),)
    touching = Packing({"a": (Fraction(1, 3),), "b": (Fraction(4, 3),)})
    assert validate_packing(touching, line).valid
    assert project_to_class(touching, line).edge_sets[0].edges() == []
    out_by_a_seventh = Packing({"a": (2 + Fraction(1, 7),)})
    assert validate_packing(out_by_a_seventh, line).violations == (Closedness("a", 0),)
    square = make([("a", (1, 1)), ("b", (1, 1))], (2, 2))
    pc = project_to_class(Packing({"a": (half, 0), "b": (1, 1)}), square)
    assert pc.edge_sets[0].edges() == [("a", "b")]
    assert pc.edge_sets[1].edges() == []


def _reference_overlap(pos_a, size_a, pos_b, size_b, i):
    return max(pos_a[i], pos_b[i]) < min(pos_a[i] + size_a[i], pos_b[i] + size_b[i])


def _reference_report(p, inst):
    """validate_packing's violations, computed directly on Fractions."""
    items = list(p.positions.items())
    violations = []
    for b, pos in items:
        for i in range(inst.d):
            if pos[i] + inst.box(b).size[i] > inst.container[i]:
                violations.append(Closedness(b, i))
    for k, (a, pos_a) in enumerate(items):
        for b, pos_b in items[k + 1 :]:
            size_a, size_b = inst.box(a).size, inst.box(b).size
            if all(_reference_overlap(pos_a, size_a, pos_b, size_b, i) for i in range(inst.d)):
                violations.append(Overlap(*sorted((a, b))))
    return tuple(violations)


def test_validation_and_projection_match_fraction_reference():
    rng = random.Random(2025)
    valid = 0
    for _ in range(500):
        d = rng.randint(1, 3)
        den = rng.choice((1, 2, 3))
        container = [Fraction(rng.randint(2 * den, 5 * den), den) for _ in range(d)]
        inst = make(
            [
                (f"b{k}", [Fraction(rng.randint(1, int(w * den) // 2), den) for w in container])
                for k in range(rng.randint(1, 5))
            ],
            container,
        )
        positions = {}
        for b in inst.ids:
            if rng.random() < 0.8:
                pos = []
                for w in container:
                    step = rng.randint(1, 7)
                    pos.append(Fraction(rng.randint(0, int(w * step)), step))
                positions[b] = tuple(pos)
        p = Packing(positions)
        expected = _reference_report(p, inst)
        assert validate_packing(p, inst).violations == expected
        if expected:
            with pytest.raises(InvalidPacking):
                project_to_class(p, inst)
            continue
        valid += 1
        ids = [b for b in inst.ids if b in positions]
        pc = project_to_class(p, inst)
        assert pc.instance.ids == tuple(ids)
        for i, graph in enumerate(pc.edge_sets):
            edges = [
                (a, b)
                for k, a in enumerate(ids)
                for b in ids[k + 1 :]
                if _reference_overlap(positions[a], inst.box(a).size, positions[b], inst.box(b).size, i)
            ]
            assert graph == Graph(ids, edges)
    assert valid >= 100
    # 6-30 boxes: bottom-left placements in a strip tall enough for all of
    # them (valid), then the same with one box moved onto another's span
    # (an overlap) or anywhere in the container, maybe sticking out of it
    moved = 0
    for k in range(150):
        d = 1 + k % 3
        den = 1 + k // 3 % 3
        cross = [Fraction(rng.randint(3 * den, 8 * den), den) for _ in range(d - 1)]
        sizes = [
            (*(Fraction(rng.randint(1, int(c * den) // 2), den) for c in cross),
             Fraction(rng.randint(1, 3 * den), den))
            for _ in range(rng.randint(6, 30))
        ]
        inst = make([(f"b{j}", size) for j, size in enumerate(sizes)], (*cross, sum(s[-1] for s in sizes)))
        placed = _bottom_left(inst, rng.sample(range(inst.n), inst.n))
        positions = {
            inst.ids[b]: tuple(Fraction(v, inst.scale(i)) for i, v in enumerate(pos)) for b, pos in placed
        }
        packing = Packing(positions)
        assert _reference_report(packing, inst) == () == validate_packing(packing, inst).violations
        assert project_to_class(packing, inst).edge_sets == tuple(
            Graph(inst.ids, [
                (a, b)
                for m, a in enumerate(inst.ids)
                for b in inst.ids[m + 1 :]
                if _reference_overlap(positions[a], inst.box(a).size, positions[b], inst.box(b).size, i)
            ])
            for i in range(d)
        )
        a, b = rng.sample(inst.ids, 2)
        if k % 2:  # a corner inside b, so a and b overlap
            step = rng.randint(1, 5)
            pos = tuple(
                p + Fraction(rng.randrange(ceil(w * step)), step) for p, w in zip(positions[b], inst.box(b).size)
            )
        else:
            pos = tuple(Fraction(rng.randint(0, int(w * 4)), 4) for w in inst.container)
        p = Packing({**positions, a: pos})
        expected = _reference_report(p, inst)
        assert validate_packing(p, inst).violations == expected, k
        moved += bool(expected)
        if expected:
            with pytest.raises(InvalidPacking):
                project_to_class(p, inst)
    assert moved >= 100, moved


def test_projection_of_valid_packings_is_packing_class():
    # Observation-style roundtrip on randomly generated valid packings.
    rng = random.Random(7)
    sizes = [1, 2, 3]
    for _ in range(60):
        n = rng.randint(1, 4)
        inst = make(
            [(f"b{k}", (rng.choice(sizes), rng.choice(sizes))) for k in range(n)],
            (4, 4),
        )
        p = random_valid_packing(rng, inst)
        if p is None:
            continue
        pc = project_to_class(p, inst)
        report = verify_packing_class(pc, pc.instance)
        assert report.all_ok


@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
def test_validation_invariant_under_relabeling(xa, ya, xb, yb):
    inst = make([("p", (2, 2)), ("q", (2, 2))], (4, 4))
    swapped = make([("q", (2, 2)), ("p", (2, 2))], (4, 4))
    p = Packing({"p": (xa, ya), "q": (xb, yb)})
    r1 = validate_packing(p, inst)
    r2 = validate_packing(p, swapped)
    assert r1.valid == r2.valid
    assert set(r1.violations) == set(r2.violations)


def test_packing_rejects_negative_coordinates():
    with pytest.raises(InvalidPacking):
        Packing({"a": (-1, 0)})


def test_box_value_defaults_to_volume():
    b = Box("a", (2, 3))
    assert b.value == 6
    assert Box("a", (2, 3), value=Fraction(1, 2)).value == Fraction(1, 2)


def test_placed_packing_matches_the_public_constructor():
    """Seeded random placements on the instance's own integer grid, d 1-3,
    with scales off 1 (sizes and container in halves, thirds and sixths):
    a valid one gives the `Packing` the public constructor builds from the
    same `Fraction`s, box for box in the same order; an overlapping one or
    one that sticks out of the container raises InvalidPacking."""
    rng = random.Random(2031)
    seen = Counter()
    for _ in range(600):
        d = rng.randint(1, 3)
        dens = [rng.choice((1, 2, 3, 6)) for _ in range(d)]
        container = [Fraction(rng.randint(3 * k, 6 * k), k) for k in dens]
        inst = make(
            [
                (f"b{j}", [Fraction(rng.randint(1, int(w * k) // 2), k) for w, k in zip(container, dens)])
                for j in range(rng.randint(1, 6))
            ],
            container,
        )
        placed = []
        for b in rng.sample(range(inst.n), rng.randint(1, inst.n)):
            room = [inst.int_container(i) - inst.int_size(b, i) + rng.choice((0, 0, 0, 1)) for i in range(d)]
            placed.append((b, tuple(rng.randint(0, r) for r in room)))
        expected = Packing(
            {inst.ids[b]: tuple(Fraction(c, inst.scale(i)) for i, c in enumerate(pos)) for b, pos in placed}
        )
        violations = validate_packing(expected, inst).violations
        seen[{Closedness: "out", Overlap: "overlap"}[type(violations[0])] if violations else "valid"] += 1
        if violations:
            with pytest.raises(InvalidPacking):
                _placed_packing(inst, placed)
            continue
        got = _placed_packing(inst, placed)
        assert got == expected
        assert list(got.positions.items()) == list(expected.positions.items())
        assert all(type(c) is Fraction for pos in got.positions.values() for c in pos)
    assert len(seen) == 3 and min(seen.values()) >= 60, seen


def test_placed_packing_raises_under_python_O():
    """The placement check is an explicit raise, not an `assert`: with
    asserts stripped an overlapping placement and one that sticks out of
    the container still raise InvalidPacking, and a valid one is built."""
    script = """
from packclass.errors import InvalidPacking
from packclass.model import Box, Instance, _placed_packing
assert False, "asserts are on"
inst = Instance(boxes=(Box("a", (2, 1)), Box("b", (2, 1))), container=(3, 2))
for placed in ([(0, (0, 0)), (1, (1, 0))], [(0, (0, 0)), (1, (1, 1))], [(0, (2, 0))]):
    try:
        print("returned", _placed_packing(inst, placed).positions)
    except InvalidPacking as exc:
        print("raised:", exc)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "raised: packing is invalid: (Overlap(box_a='a', box_b='b'),)",
        "returned {'a': (Fraction(0, 1), Fraction(0, 1)), 'b': (Fraction(1, 1), Fraction(1, 1))}",
        "raised: packing is invalid: (Closedness(box='a', dimension=0),)",
    ]
