import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import prod
from pathlib import Path

import pytest

from packclass import opp
from packclass.errors import NoUndecided, NotPackingClass
from packclass.model import Box, Instance, project_to_class, validate_packing
from packclass.opp import (
    EXCLUDE,
    INCLUDE,
    Conflict,
    EdgeState,
    ImmediateConflict,
    Prune,
    SearchLimits,
    _bottom_left,
    _screen,
    _screen_tables,
    _try_accept,
    branch_select,
    heuristic_pack,
    initial_state,
    propagate,
    prune_check,
    quick_infeasible,
    solve_opp,
)
from packclass.oracle import OracleConfig, brute_force_opp, oracle_is_interval
from packclass.solve import solve_okp, solve_spp
from packclass.packing_class import verify_packing_class
from packclass.sweep import exhaustive_grid

from bottomleft import bottom_left_by_masks
from certcheck import check_induced_c4, check_odd_2chordless_cycle
from conftest import assert_same_tables
from graphtools import (
    clique_bound_holds,
    minus_edges,
    odd_closed_walk_by_arcs,
    pair_of,
    plus_edges,
)
import reference_search as reference
from packclass.graph import (
    Graph,
    _max_clique,
    _odd_closed_walk,
    bits,
    max_weight_clique,
)


def unit_boxes_instance(n, W=10):
    return Instance(
        boxes=[Box(f"v{k}", (1, 1)) for k in range(1, n + 1)], container=(W, W)
    )


def test_initial_state_immediate_conflict():
    inst = Instance(boxes=(Box("a", (2, 2)), Box("b", (2, 2))), container=(3, 3))
    assert isinstance(initial_state(inst), ImmediateConflict)


def test_initial_state_completes_stackable_pair():
    inst = Instance(boxes=(Box("a", (2, 1)), Box("b", (2, 1))), container=(2, 2))
    state = initial_state(inst)
    assert isinstance(state, EdgeState)
    assert state.undecided == 0
    assert plus_edges(state, 0) == [("a", "b")]
    assert minus_edges(state, 1) == [("a", "b")]


def test_initial_state_five_box_forced_pair(five_box_example):
    state = initial_state(five_box_example)
    assert ("b1", "b2") in plus_edges(state, 0)
    assert ("b1", "b2") in minus_edges(state, 1)  # forced out by the shared-axis rule


def test_propagate_forces_c4_completion_edge():
    # three included edges form a path v2-v1-v4-v3 and both diagonals are
    # excluded; the remaining pair {v2,v3} is forced out, else the four
    # boxes would induce an unfixable chordless 4-cycle
    inst = unit_boxes_instance(4)
    state = initial_state(inst)
    decisions = [
        (0, ("v1", "v2"), INCLUDE),
        (0, ("v3", "v4"), INCLUDE),
        (0, ("v4", "v1"), INCLUDE),
        (0, ("v2", "v4"), EXCLUDE),
        (0, ("v1", "v3"), EXCLUDE),
    ]
    decisions = [(i, pair_of(state, a, b), sign) for i, (a, b), sign in decisions]
    for decision in decisions:
        assert propagate(state, decision) is None
    pid = pair_of(state, "v2", "v3")
    assert state.status[0][pid] == EXCLUDE
    # and re-running the final decision is a no-op
    mark = state.mark()
    assert propagate(state, decisions[-1]) is None and state.mark() == mark
    # trying to include the forced-out edge is a contradiction
    conflict = propagate(state, (0, pid, INCLUDE))
    assert isinstance(conflict, Conflict)


def test_propagate_idempotent_on_random_states():
    rng = random.Random(31)
    for _ in range(30):
        inst = unit_boxes_instance(rng.randint(2, 5))
        state = initial_state(inst)
        pairs = list(range(state.m))
        for _ in range(8):
            i = rng.randrange(state.d)
            pair = rng.choice(pairs)
            sign = rng.choice((INCLUDE, EXCLUDE))
            before = state.mark()
            result = propagate(state, (i, pair, sign))
            if isinstance(result, Conflict):
                state.undo_to(before)
                continue
            mark = state.mark()
            assert propagate(state, (i, pair, sign)) is None and state.mark() == mark
        # structural invariants: no pair both included and excluded, and no
        # pair included in every dimension
        for p in range(state.m):
            signs = [state.status[i][p] for i in range(state.d)]
            assert all(s in (-1, 0, 1) for s in signs)
            assert signs != [INCLUDE] * state.d


def _raw_state(n, W=10):
    inst = unit_boxes_instance(n, W)
    state = initial_state(inst)
    assert isinstance(state, EdgeState)
    return inst, state


def _fits_beside(state, i, pid):
    a, b = state.pairs[pid]
    return state.sizes[i][a] + state.sizes[i][b] <= state.caps[i]


def _set_raw(state, i, a, b, sign):
    # `set_edge` tests no widths: a state built by hand never excludes a
    # pair too wide for the axis
    pid = pair_of(state, a, b)
    assert sign == INCLUDE or _fits_beside(state, i, pid)
    assert reference.set_edge(state, i, pid, sign) == "applied"


def test_propagation_leaves_no_plus_c4_with_minus_diagonals():
    # prune_check has no rule for a plus 4-cycle whose diagonals are both
    # minus: propagation must never leave one behind
    rng = random.Random(4)
    near_misses = 0  # plus 4-cycles with one diagonal minus
    for _ in range(150):
        n, d = rng.randint(4, 9), rng.randint(2, 3)
        inst = Instance(
            boxes=[Box(f"v{k}", tuple(rng.randint(1, 5) for _ in range(d))) for k in range(n)],
            container=(6,) * d,
        )
        state = initial_state(inst)
        if not isinstance(state, EdgeState):
            continue
        pairs = list(range(state.m))
        for _ in range(3 * state.m):
            if state.undecided == 0:
                break
            sign = INCLUDE if rng.random() < 0.6 else EXCLUDE
            decision = (rng.randrange(state.d), rng.choice(pairs), sign)
            mark = state.mark()
            if isinstance(propagate(state, decision), Conflict):
                state.undo_to(mark)
                continue
            for i in range(state.d):
                plus = Graph(inst.ids, plus_edges(state, i))
                minus = set(map(frozenset, minus_edges(state, i)))
                for a, c in minus_edges(state, i):
                    common = plus.names(plus.adj[plus.index(a)] & plus.adj[plus.index(c)])
                    for b, e in combinations(common, 2):
                        if check_induced_c4(plus, (a, b, c, e)):
                            near_misses += 1
                            assert frozenset((b, e)) not in minus
    assert near_misses > 100


def minus_cliques(state, i):
    """Every clique of axis i's minus graph, the empty one too, as
    (weight, vertex mask), by extending each clique found so far with
    each vertex in turn."""
    minus, sizes = state.minus_adj[i], state.sizes[i]
    cliques = [(0, 0)]
    for v in range(state.n):
        cliques += [(w + sizes[v], c | 1 << v) for w, c in cliques if minus[v] & c == c]
    return cliques


def overweight_minus_clique(state):
    """Does some axis's minus graph hold a clique heavier than the axis?"""
    return any(w > state.caps[i] for i in range(state.d) for w, _ in minus_cliques(state, i))


def test_silent_prune_check_implies_clique_bound():
    # prune_check has no width-bound rule: with the odd-cycle rule silent
    # and no minus clique over its axis, as propagation leaves the state,
    # the bound holds on every vertex set whose pairs are all decided, even
    # in states propagation never built. Each axis is as wide as the
    # heaviest clique of a planned minus graph, half of which hold an odd
    # hole, where the clique width alone would let the bound fail. The
    # exclusions `initial_state` adds can complete an overweight clique on
    # top of the plan: such states are skipped, among them most 1-D ones,
    # whose roots `initial_state` leaves all minus.
    rng = random.Random(5)
    silent = checked = 0
    for _ in range(600):
        n, d = rng.randint(5, 8), rng.randint(1, 2)
        ids = [f"v{k}" for k in range(n)]
        sizes = [tuple(rng.randint(1, 3) for _ in range(d)) for _ in range(n)]
        planned, caps = [], []
        for i in range(d):
            p = rng.random()
            edges = {e for e in combinations(range(n), 2) if rng.random() < p}
            if rng.random() < 0.5:
                hole = rng.sample(range(n), rng.choice((5, 7) if n >= 7 else (5,)))
                edges -= set(combinations(sorted(hole), 2))
                edges |= {tuple(sorted(e)) for e in zip(hole, hole[1:] + hole[:1])}
            planned.append(edges)
            minus = Graph(ids, [(ids[a], ids[b]) for a, b in edges])
            caps.append(max_weight_clique(minus, {ids[v]: sizes[v][i] for v in range(n)})[0])
        inst = Instance(boxes=[Box(ids[v], sizes[v]) for v in range(n)], container=tuple(caps))
        state = initial_state(inst)
        if not isinstance(state, EdgeState):
            continue
        density = 1.0 if rng.random() < 0.5 else rng.random()
        for i in range(d):
            for pid, pair in enumerate(state.pairs):
                if rng.random() < density:
                    sign = EXCLUDE if pair in planned[i] else INCLUDE
                    assert sign == INCLUDE or _fits_beside(state, i, pid)
                    reference.set_edge(state, i, pid, sign)
        if overweight_minus_clique(state) or prune_check(state) is not None:
            continue
        silent += 1
        edge_sets = [plus_edges(state, i) for i in range(d)]
        for i in range(d):
            decided = [0] * n
            for pid, (a, b) in enumerate(state.pairs):
                if state.status[i][pid] != 0:
                    decided[a] |= 1 << b
                    decided[b] |= 1 << a
            for size in range(2, n + 1):
                for S in combinations(range(n), size):
                    if all(decided[a] >> b & 1 for a, b in combinations(S, 2)):
                        assert clique_bound_holds(edge_sets, [ids[v] for v in S], i, inst)
                        checked += sum(sizes[v][i] for v in S) > caps[i]
    assert silent > 100 and checked > 1000


def test_prune_check_odd_cycle():
    inst, state = _raw_state(5)
    ids = [f"v{k}" for k in range(1, 6)]
    ring = [(ids[k], ids[(k + 1) % 5]) for k in range(5)]
    for a, b in ring:
        _set_raw(state, 0, a, b, EXCLUDE)
    for a, b in combinations(ids, 2):
        if (a, b) not in ring and (b, a) not in ring:
            _set_raw(state, 0, a, b, INCLUDE)
    prune = prune_check(state)
    assert isinstance(prune, Prune) and prune.rule == "odd_cycle"
    minus = Graph(inst.ids, minus_edges(state, 0))
    assert check_odd_2chordless_cycle(minus, prune.certificate)


def test_propagate_conflicts_on_overweight_minus_clique():
    inst = Instance(
        boxes=(Box("a", (2, 1)), Box("b", (2, 1)), Box("c", (2, 1))),
        container=(5, 5),
    )
    state = initial_state(inst)
    first, second, third = [(0, pair_of(state, x, y), EXCLUDE) for x, y in combinations("abc", 2)]
    assert propagate(state, first) is None and propagate(state, second) is None
    # widths 2+2+2 > 5: the exclusion that closes the clique conflicts
    mark = state.mark()
    assert propagate(state, third) == Conflict("minus_clique", 0, ("b", "c"))
    state.undo_to(mark)
    # on the other axis {b, c} is a lone minus edge
    assert propagate(state, (1, third[1], EXCLUDE)) is None


def test_propagate_weighs_small_common_neighbourhoods_as_max_clique(monkeypatch):
    """Excluding {a, b} on a tight axis conflicts exactly when the heaviest
    clique of their common minus neighbours weighs more than the floor
    cap - w[a] - w[b], that is when `_max_clique` over them returns a
    clique; one or two neighbours are weighed inline, only three or more
    go to `_max_clique`. The states are built by hand: minus edges only,
    all on axis 0, so no other rule can fire."""
    calls = []
    search = opp._max_clique
    monkeypatch.setattr(opp, "_max_clique", lambda *args: calls.append(args) or search(*args))

    def conflicts(wa, wb, common, edges, others=(), cap=7):
        """Boxes a, b, the common neighbours (widths `common`), boxes next
        to a alone (`others`) and a filler as wide as the axis, so it is
        not roomy; `edges` are minus edges among the common neighbours."""
        widths = [wa, wb, *common, *others, cap]
        inst = Instance(boxes=[Box(f"v{k}", (w, 1)) for k, w in enumerate(widths)], container=(cap, len(widths)))
        state = EdgeState(inst)
        near = range(2, 2 + len(common))
        pairs = [(0, x) for x in near] + [(1, x) for x in near] + [(0, 2 + len(common) + k) for k in range(len(others))]
        for p, q in pairs + [(2 + x, 2 + y) for x, y in edges]:
            state.status[0][state.pid_of[p][q]] = EXCLUDE
            state.minus_adj[0][p] |= 1 << q
            state.minus_adj[0][q] |= 1 << p
        minus = state.minus_adj[0]
        expected = bool(search(minus, state.sizes[0], minus[0] & minus[1], cap - wa - wb)[1])
        before = len(calls)
        conflict = propagate(state, (0, state.pid_of[0][1], EXCLUDE))
        assert conflict == (Conflict("minus_clique", 0, ("v0", "v1")) if expected else None)
        assert (len(calls) > before) == (len(common) >= 3)
        return expected

    # floor 7 - 2 - 2 = 3: at the floor no conflict, one above it one
    assert not conflicts(2, 2, [3], [])
    assert conflicts(2, 2, [4], [])
    assert not conflicts(2, 2, [1, 2], [(0, 1)])  # adjacent: their sum counts
    assert conflicts(2, 2, [2, 2], [(0, 1)])
    assert not conflicts(2, 2, [3, 3], [])  # apart: only the heavier counts
    assert conflicts(2, 2, [3, 4], [])
    assert not conflicts(2, 2, [1, 2, 3], [(0, 1)])
    assert conflicts(2, 2, [1, 3, 2], [(0, 1)])
    assert not conflicts(2, 2, [3, 3, 3], [], others=[5])  # v5 is next to a alone
    rng = random.Random(2027)
    seen = Counter()
    for _ in range(600):
        k = rng.randint(1, 5)
        edges = [e for e in combinations(range(k), 2) if rng.random() < 0.5]
        wa, wb = rng.randint(1, 3), rng.randint(1, 3)
        cap = wa + wb + rng.randint(1, 6)  # the floor is 1 to 6
        common = [rng.randint(1, min(6, cap)) for _ in range(k)]
        others = [rng.randint(1, min(6, cap)) for _ in range(rng.randint(0, 2))]
        seen[min(k, 3), conflicts(wa, wb, common, edges, others, cap)] += 1
    assert len(seen) == 6 and min(seen.values()) >= 20, seen


def test_branch_select_single_pair_and_determinism():
    inst = unit_boxes_instance(2)
    state = initial_state(inst)
    pid = pair_of(state, "v1", "v2")
    # both axes are equally wide for the pair: the lower one first
    assert state.seq == [pid] and branch_select(state) == (0, 0, pid)
    propagate(state, (0, pid, EXCLUDE))
    assert branch_select(state) == branch_select(state, 1) == (1, 1, pid)
    assert state.order == [(0, pid), (1, pid)]
    # deciding everything leaves nothing to branch on
    propagate(state, (1, pid, EXCLUDE))
    with pytest.raises(NoUndecided):
        branch_select(state)
    with pytest.raises(NoUndecided):
        branch_select(state, 1)


def test_search_branches_first_on_the_two_largest_boxes(monkeypatch):
    """The search's first decision includes the pair of the two largest
    boxes (volume 12 each, the lower index ranked first) on the axis where
    it is widest against the container, 7/8 on axis 1 against 7/10 on
    axis 0; the P3 exclusion that follows leaves that pair decided, so the
    next decision pairs the third largest box with the largest, on axis 0,
    where it is wider (8/10 against 5/8)."""
    sizes = {"v0": (1, 1), "v1": (3, 4), "v2": (2, 2), "v3": (4, 3), "v4": (5, 1)}
    inst = Instance(boxes=[Box(b, s) for b, s in sizes.items()], container=(10, 8))
    state = initial_state(inst)
    assert state.undecided == state.d * state.m  # nothing too wide
    first = (1, pair_of(state, "v1", "v3"), INCLUDE)
    second = (0, pair_of(state, "v1", "v4"), INCLUDE)
    assert branch_select(state) == (0, *first[:2])
    propagate(state, first)
    assert branch_select(state, 0) == branch_select(state, 1) == (2, *second[:2])

    decisions = []
    apply = opp.propagate
    monkeypatch.setattr(opp, "propagate", lambda st, *ds: decisions.append(ds) or apply(st, *ds))
    solve_opp(inst, SearchLimits(max_nodes=2, time_limit=None, use_heuristic=False))
    assert decisions[1:] == [(first,), (second,)]


def _order_by_definition(inst):
    """The branching order written out from the instance's `Fraction`
    sizes: boxes ranked by volume, largest first, ties to the lower index;
    each box in rank order paired with every box ranked before it,
    highest-ranked first; within a pair the axes by (s_a + s_b) / cap_i,
    largest first, ties to the lower axis. (dimension, pair index) pairs."""
    pair_index = {pair: pid for pid, pair in enumerate(combinations(range(inst.n), 2))}
    rank = sorted(range(inst.n), key=lambda v: (-inst.boxes[v].volume, v))
    order = []
    for k in range(inst.n):
        for j in range(k):
            a, b = rank[j], rank[k]
            width = [
                (inst.boxes[a].size[i] + inst.boxes[b].size[i]) / Fraction(inst.container[i])
                for i in range(inst.d)
            ]
            pid = pair_index[min(a, b), max(a, b)]
            order += [(i, pid) for i in sorted(range(inst.d), key=lambda i: (-width[i], i))]
    return order


def random_walk_states(rng, instances, undo=0.25, apply=propagate):
    """Random propagate/undo_to walks from `initial_state` of seeded
    instances (n 2-9, d 1-3, sizes 1-4 in a cube of side 6); yields
    (state, undone) after each step, `undone` telling an undo step. A
    step undoes with probability `undo`, and always on a decided state;
    `apply` stands in for `propagate`."""
    for _ in range(instances):
        n, d = rng.randint(2, 9), rng.randint(1, 3)
        inst = Instance(
            boxes=[Box(f"v{k}", tuple(rng.randint(1, 4) for _ in range(d))) for k in range(n)],
            container=(6,) * d,
        )
        state = initial_state(inst)
        if not isinstance(state, EdgeState):
            continue
        marks = []  # trail marks before each decision still applied
        for _ in range(4 * state.m):
            undone = bool(marks) and (state.undecided == 0 or rng.random() < undo)
            if undone:
                k = rng.randrange(len(marks))
                state.undo_to(marks[k])
                del marks[k:]
            elif state.undecided == 0:
                break
            else:
                open_slots = [
                    (i, pid) for i in range(d) for pid in range(state.m) if state.status[i][pid] == 0
                ]
                i, pid = rng.choice(open_slots)
                mark = state.mark()
                sign = INCLUDE if rng.random() < 0.5 else EXCLUDE
                if isinstance(apply(state, (i, pid, sign)), Conflict):
                    state.undo_to(mark)
                else:
                    marks.append(mark)
            yield state, undone


def test_branch_select_matches_definition():
    """On seeded propagate/undo_to walks (d 1-3, n 2-12, sizes on a 1, 1/2
    or 1/3 grid), `state.seq` holds the pairs in the order written out,
    `state.order` is a prefix of that order, `branch_select` returns its
    first undecided (dimension, pair), and a scan from the position chosen
    at any state on the walk's path to this one returns what a scan from
    zero returns."""
    rng = random.Random(77)
    checked = carried = undone = 0
    for k in range(170):
        n, d, den = rng.randint(2, 12), rng.randint(1, 3), 1 + k % 3
        inst = Instance(
            boxes=[
                Box(f"v{j}", tuple(Fraction(rng.randint(1, 4 * den), den) for _ in range(d)))
                for j in range(n)
            ],
            container=tuple(rng.randint(6, 12) for _ in range(d)),
        )
        state = initial_state(inst)
        if not isinstance(state, EdgeState):
            continue
        order = _order_by_definition(inst)
        assert state.seq == list(dict.fromkeys(pid for _, pid in order)), k
        path = []  # (trail mark, position chosen) per decision still applied
        for _ in range(4 * state.m):
            undecided = [(i, pid) for i, pid in order if state.status[i][pid] == 0]
            starts = {0, *(pos for _, pos in path)}
            if undecided:
                pos, i, pid = branch_select(state)
                assert state.order[pos] == (i, pid) == undecided[0] == reference.branch_select(state), k
                assert state.order == order[:len(state.order)], k
                for start in starts:
                    assert branch_select(state, start) == (pos, i, pid), (k, start)
                checked += 1
                carried += len(starts) > 1
            else:
                for start in starts:
                    with pytest.raises(NoUndecided):
                        branch_select(state, start)
            if path and (not undecided or rng.random() < 0.25):
                cut = rng.randrange(len(path))
                state.undo_to(path[cut][0])
                del path[cut:]
                undone += 1
                continue
            if not undecided:
                break
            mark = state.mark()
            # half the walk follows the branching choice, half goes anywhere
            i, pid = undecided[0] if rng.random() < 0.5 else rng.choice(undecided)
            sign = INCLUDE if rng.random() < 0.5 else EXCLUDE
            if isinstance(propagate(state, (i, pid, sign)), Conflict):
                state.undo_to(mark)
            else:
                path.append((mark, pos))
    assert checked > 10000 and carried > 5000 and undone > 2000, (checked, carried, undone)


def _snapshot(state):
    return (state.status, state.plus_adj, state.minus_adj, state.trail, state.undecided,
            state.stats.deterministic_view())


def test_propagate_matches_reference_fixpoint(monkeypatch):
    """Along random propagate/undo_to walks, and in the `initial_state`
    each walk starts from, each `propagate` call leaves the state the
    reference fixpoint leaves on a copy: the trail suffix holds the
    reference's applied assignments in order, and a conflict is the same
    one. `p3` conflicts come from roots: a 1-D pair too wide for its axis,
    or a pair too wide on every axis."""
    seen = Counter()

    def both(state, *decisions):
        twin = reference.copy_state(state)
        expected = reference.fixpoint(twin, decisions)
        mark = state.mark()
        got = propagate(state, *decisions)
        if isinstance(expected, Conflict):
            assert got == expected
            seen[expected.rule] += 1
        else:
            assert got is None
            suffix = [(i, pid, state.status[i][pid]) for i, pid in state.trail[mark:]]
            assert suffix == list(expected)
            seen["forced" if len(expected) > 1 else "single"] += 1
        assert _snapshot(state) == _snapshot(twin)
        return got

    # Rare undos let walks run deep, where c4 exclusions conflict.
    monkeypatch.setattr(opp, "propagate", both)
    for _ in random_walk_states(random.Random(80), 200, undo=0.02, apply=both):
        pass
    assert min(seen[key] for key in ("single", "forced", "p3", "c4", "minus_clique", "odd_cycle")) >= 20, seen


def test_propagation_leaves_no_overweight_minus_clique():
    """Along random propagate/undo_to walks, no conflict-free `propagate`
    leaves a minus clique heavier than its axis, and each `minus_clique`
    conflict leaves one on its axis that holds its pair: the exclusion
    that completed it. Both by brute force over the minus cliques."""
    seen = Counter()

    def checked(state, decision):
        got = propagate(state, decision)
        if got is None:
            assert not overweight_minus_clique(state)
            seen["clean"] += 1
        elif got.rule == "minus_clique":
            a, b = map(state.inst.index, got.pair)
            cap = state.caps[got.dimension]
            assert any(
                w > cap and c >> a & 1 and c >> b & 1 for w, c in minus_cliques(state, got.dimension)
            )
            seen["minus_clique"] += 1
        return got

    for _ in random_walk_states(random.Random(85), 120, undo=0.02, apply=checked):
        pass
    assert min(seen["clean"], seen["minus_clique"]) >= 50, seen


def test_propagation_leaves_no_odd_closed_walk(monkeypatch):
    """In seeded searches on tight instances, no conflict-free `propagate`
    leaves an odd 2-chordless closed walk on any axis, and each
    `odd_cycle` conflict leaves one on its axis: the parity union-find
    against the full parity search over arcs."""
    seen = Counter()
    apply = opp.propagate

    def checked(state, *decisions):
        got = apply(state, *decisions)
        walks = [odd_closed_walk_by_arcs(state.n, minus, plus)
                 for plus, minus in zip(state.plus_adj, state.minus_adj)]
        if got is None:
            assert walks == [None] * state.d
            seen["clean"] += 1
        elif got.rule == "odd_cycle":
            assert walks[got.dimension] is not None
            seen["odd_cycle"] += 1
        return got

    monkeypatch.setattr(opp, "propagate", checked)
    rng = random.Random(2005)
    limits = SearchLimits(max_nodes=80, time_limit=None, use_heuristic=False)
    for k in range(40):
        solve_opp(tight_instance(rng, 6 + k % 4), limits)
    assert min(seen["clean"], seen["odd_cycle"]) >= 50, seen


def _accept_by_definition(state):
    """P3, then per axis P1 (the definitional oracle: a simplicial
    elimination order and no asteroidal triple) and P2 (the heaviest
    clique of the complement fits), with no filter first."""
    if any(all(row[pid] == INCLUDE for row in state.status) for pid in range(state.m)):
        return False
    full = (1 << state.n) - 1
    config = OracleConfig(max_vertices=state.n)
    for plus, sizes, cap in zip(state.plus_adj, state.sizes, state.caps):
        if not oracle_is_interval(Graph._of_bitsets(state.inst.ids, plus), config):
            return False
        co = [full ^ row ^ (1 << v) for v, row in enumerate(plus)]
        if _max_clique(co, sizes, full)[0] > cap:
            return False
    return True


def accept_or_none(state):
    """`_try_accept`'s packing and class, or None where it raises
    NotPackingClass: a fully decided state that is no packing class."""
    try:
        return _try_accept(state)
    except NotPackingClass:
        return None


def test_try_accept_matches_filter_free_check():
    """On fully decided states as propagation leaves them (no pair plus on
    every axis, no minus clique heavier than its axis, no plus 4-cycle
    with both diagonals minus), `_try_accept` accepts exactly the states
    that pass the P1/P2/P3 check by definition, and each packing it
    returns validates, with the plus graphs as its class. The states are
    the leaves of random walks, all accepted, and random full assignments
    built by hand (`reference.set_edge`) of 6-8 boxes with sides 1-3 in
    two axes, kept when they meet the three conditions."""
    outcomes = Counter()

    def accepted(state):
        assert state.undecided == 0
        accept = accept_or_none(state)
        assert (accept is not None) == _accept_by_definition(state)
        if accept is not None:
            packing, pc = accept
            assert validate_packing(packing, state.inst).valid
            assert pc.edge_sets == tuple(Graph(state.inst.ids, plus_edges(state, i)) for i in range(state.d))
            assert verify_packing_class(pc, state.inst).all_ok
        return accept is not None

    for state, undone in random_walk_states(random.Random(78), 300, undo=0.0):
        if state.undecided == 0 and not undone:
            assert accepted(state)
            outcomes["walk leaf"] += 1
    rng = random.Random(79)
    for _ in range(3000):
        n = rng.randint(6, 8)
        inst = Instance(
            boxes=[Box(f"v{k}", (rng.randint(1, 3), rng.randint(1, 3))) for k in range(n)],
            container=(9, 9),
        )
        state = EdgeState(inst)
        for pid in range(state.m):
            first = rng.choice((INCLUDE, EXCLUDE))
            second = EXCLUDE if first == INCLUDE else rng.choice((INCLUDE, EXCLUDE))
            reference.set_edge(state, 0, pid, first)
            reference.set_edge(state, 1, pid, second)
        if overweight_minus_clique(state) or plus_c4_with_minus_diagonals(state):
            continue
        outcomes["built, accepted" if accepted(state) else "built, rejected"] += 1
    assert min(outcomes.values()) >= 50 and len(outcomes) == 3, outcomes


def _full_check(state):
    """The odd-cycle rule on every axis and the exact clique rule that
    `prune_check` once ran after it: on a state `propagate` built, neither
    may fire."""
    ids = state.inst.ids
    for i, (plus, minus, sizes, cap) in enumerate(
        zip(state.plus_adj, state.minus_adj, state.sizes, state.caps)
    ):
        walk = _odd_closed_walk(state.n, minus, plus)
        if walk is not None:
            return Prune("odd_cycle", i, tuple(ids[v] for v in walk))
        weight, clique = _max_clique(minus, sizes, (1 << state.n) - 1, cap)
        if weight > cap:
            return Prune("infeasible_clique", i, (tuple(ids[v] for v in bits(clique)),))
    return None


def test_root_prune_check_matches_ungated_check():
    """`_decide` runs no check at the root: the propagation of
    `initial_state` conflicts on an odd cycle or an overweight minus
    clique, so on seeded roots of 6-80 boxes both rules and `prune_check`
    are silent. On the 5-box instance
    below, {c, d, a, b} is an overweight minus clique on axis 1 (22 > 20)
    at the root: propagation's exact clique test conflicts at its last
    edge {a, b}, so the search ends before any node. A greedy probe there
    took e (11), which meets neither c nor d, and stopped at 19."""
    inst = Instance(
        boxes=[Box(b, s) for b, s in (("c", (6, 7)), ("d", (6, 7)), ("e", (2, 11)), ("a", (9, 4)), ("b", (9, 4)))],
        container=(10, 20),
    )
    assert initial_state(inst) == ImmediateConflict(Conflict("minus_clique", 1, ("a", "b")))
    out = solve_opp(inst, SearchLimits(use_heuristic=False))
    assert out.verdict == "infeasible" and out.stats.nodes == 0
    assert out.stats.prunes == {"initial_conflict": 1}

    rng = random.Random(2004)
    roots = [initial_state(tight_instance(rng, 6 + k % 4)) for k in range(60)]
    roots += [initial_state(large_instance(rng, k, most=80)) for k in range(6)]
    roots = [state for state in roots if isinstance(state, EdgeState)]
    assert len(roots) >= 40 and sum(state.n > 64 for state in roots) >= 3
    for state in roots:
        assert prune_check(state) is None and _full_check(state) is None


def plus_c4_with_minus_diagonals(state):
    """Does some axis hold a plus 4-cycle whose both diagonals are minus?"""
    for plus, minus in zip(state.plus_adj, state.minus_adj):
        for a, c in combinations(range(state.n), 2):
            if minus[a] >> c & 1:
                common = plus[a] & plus[c]
                if any(minus[b] & common & ~((2 << b) - 1) for b in bits(common)):
                    return True
    return False


def test_decided_states_pass_the_check_exactly_when_accepted():
    """On fully decided states with no pair plus on every axis, no plus
    4-cycle with both diagonals minus and no overweight minus clique,
    `prune_check` is silent exactly when `_try_accept` accepts: there the
    rules are a complete class test. Propagation leaves every decided
    state so, and with the rule silent, so every search leaf is accepted:
    shown along random walks (d 1-3). Propagation leaves no state that
    the rule rejects, so those are built by hand (`reference.set_edge`):
    random full assignments of 5-7 unit boxes in two axes wide enough for
    every minus clique, no pair plus on both, kept when they hold no such
    4-cycle."""
    kinds = Counter()
    for state, undone in random_walk_states(random.Random(84), 2500, undo=0.0):
        if state.undecided == 0 and not undone:
            assert prune_check(state) is None and accept_or_none(state) is not None
            kinds["walk leaf"] += 1
    rng = random.Random(86)
    for _ in range(3000):
        n = rng.randint(5, 7)
        _, state = _raw_state(n, W=n)
        for pid in range(state.m):
            first = rng.choice((INCLUDE, EXCLUDE))
            second = EXCLUDE if first == INCLUDE else rng.choice((INCLUDE, EXCLUDE))
            reference.set_edge(state, 0, pid, first)
            reference.set_edge(state, 1, pid, second)
        if plus_c4_with_minus_diagonals(state):
            continue
        silent = prune_check(state) is None
        assert silent == (accept_or_none(state) is not None)
        kinds["built, accepted" if silent else "built, rejected"] += 1
    assert min(kinds.values()) >= 50 and len(kinds) == 3, kinds


def test_solve_five_box_example_by_search(five_box_example):
    out = solve_opp(five_box_example, SearchLimits(use_heuristic=False))
    assert out.verdict == "feasible"
    assert set(out.packing.positions) == set(five_box_example.ids)
    assert validate_packing(out.packing, five_box_example).valid
    assert out.stats.nodes > 0


def test_solve_infeasible_pair():
    inst = Instance(boxes=(Box("a", (2, 2)), Box("b", (2, 2))), container=(3, 3))
    assert solve_opp(inst).verdict == "infeasible"


def test_solver_deterministic(five_box_example):
    limits = SearchLimits(use_heuristic=False)
    a = solve_opp(five_box_example, limits)
    b = solve_opp(five_box_example, limits)
    assert a.verdict == b.verdict
    assert a.packing == b.packing
    assert a.stats.deterministic_view() == b.stats.deterministic_view()


def test_try_accept_rejects_asteroidal_triple():
    # A fully decided state whose axis-0 plus graph is the long claw, and
    # whose other pairs are minus on both axes: the claw is chordal and
    # every minus clique fits its axis, but its three leaves form an
    # asteroidal triple, so the minus graph, its complement, has no
    # transitive orientation.
    names = ["c", "a1", "a2", "b1", "b2", "d1", "d2"]
    inst = Instance(boxes=[Box(v, (1, 1)) for v in names], container=(7, 7))
    state = EdgeState(inst)
    claw = [("c", "a1"), ("a1", "a2"), ("c", "b1"), ("b1", "b2"), ("c", "d1"), ("d1", "d2")]
    plus = [pair_of(state, a, b) for a, b in claw]
    for pid in range(state.m):
        assert reference.set_edge(state, 1, pid, EXCLUDE) == "applied"
        if pid not in plus:
            assert reference.set_edge(state, 0, pid, EXCLUDE) == "applied"
    for pid in plus:  # d1-d2 last
        assert reference.set_edge(state, 0, pid, INCLUDE) == "applied"
    assert state.undecided == 0 and not overweight_minus_clique(state)
    with pytest.raises(NotPackingClass):
        _try_accept(state)
    assert not verify_packing_class([plus_edges(state, 0), plus_edges(state, 1)], inst).all_ok
    # d1-d2 minus: a spider with short legs is interval
    state.undo_to(state.mark() - 1)
    assert reference.set_edge(state, 0, plus[-1], EXCLUDE) == "applied"
    packing, pc = _try_accept(state)
    assert validate_packing(packing, inst).valid and verify_packing_class(pc, inst).all_ok


def tight_instance(rng, n):
    """Random boxes with sides 1-6 filling 80-100 % of a 10 x 10 square."""
    while True:
        sizes = [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(n)]
        if 80 <= sum(w * h for w, h in sizes) <= 100:
            return Instance(
                boxes=[Box(f"b{k}", s) for k, s in enumerate(sizes)], container=(10, 10)
            )


def test_engine_class_holds_the_packing_projection():
    """On an engine answer `packing_class` is the class the search closed
    on, not the packing's own: on each axis the packing's projection
    (`project_to_class`) is a subgraph of the returned graph, and both
    classes verify. On seeded tight instances (heuristic off) the two
    differ on most feasible answers, since longest paths set apart pairs
    the class lets overlap."""
    rng = random.Random(1)
    limits = SearchLimits(max_nodes=2000, time_limit=None, use_heuristic=False)
    seen = Counter()
    for k in range(60):
        inst = tight_instance(rng, 6 + k % 4)
        out = solve_opp(inst, limits)
        if out.verdict != "feasible":
            continue
        own = project_to_class(out.packing, inst)
        assert verify_packing_class(own, inst).all_ok and verify_packing_class(out.packing_class, inst).all_ok
        for mine, closed in zip(own.edge_sets, out.packing_class.edge_sets):
            assert mine.vertices == closed.vertices == inst.ids
            assert all(row & closed.adj[v] == row for v, row in enumerate(mine.adj)), k
        seen["differ" if own.edge_sets != out.packing_class.edge_sets else "equal"] += 1
    assert seen["differ"] >= 20, seen


def check_pinned_trees(instances, pins, limits):
    for k, verdict, view, packing_digest in pins:
        out = solve_opp(instances[k], limits)
        assert (out.verdict, out.stats.deterministic_view()) == (verdict, view), k
        if out.packing is None:
            assert packing_digest is None
        else:
            canonical = repr(out.packing.canonical()).encode()
            assert hashlib.sha256(canonical).hexdigest()[:12] == packing_digest
            assert validate_packing(out.packing, instances[k]).valid


# (instance index, verdict, stats.deterministic_view(), packing digest).
# A mismatch means the search tree or the returned packing changed.
# Instances whose search closes at the root are left out.
PINNED_TREES = [
    (1, "feasible", (30, 30, 53, 5, ()), "091622d474b2"),
    (2, "feasible", (36, 36, 70, 6, ()), "7e9ce83eb3c5"),
    (3, "resource_limit", (80, 80, 127, 30, ()), None),
    (7, "feasible", (63, 63, 118, 18, ()), "96fb89ed8c87"),
    (8, "feasible", (42, 42, 65, 14, ()), "056d18b6bb9c"),
    (9, "resource_limit", (80, 80, 125, 32, ()), None),
    (10, "feasible", (62, 62, 103, 20, ()), "1eab9a8c6d43"),
    (11, "resource_limit", (80, 80, 137, 32, ()), None),
    (13, "feasible", (20, 20, 44, 1, ()), "a5b6f4ddbfb4"),
    (14, "feasible", (61, 61, 106, 19, ()), "730d7d8ba107"),
    (15, "feasible", (34, 34, 76, 2, ()), "c219570d6041"),
    (16, "feasible", (18, 18, 36, 3, ()), "cff1dadd6a06"),
]


def test_search_tree_pinned_on_tight_instances():
    rng = random.Random(2003)
    instances = [tight_instance(rng, 6 + k % 4) for k in range(17)]
    limits = SearchLimits(max_nodes=80, time_limit=None, use_heuristic=False)
    check_pinned_trees(instances, PINNED_TREES, limits)


def guillotine_instance(rng, container, n):
    """Cut `container` into n boxes: each cut splits a piece chosen in
    proportion to its volume across an axis chosen in proportion to its
    length, at a uniform integer position. The boxes tile the container."""
    pieces = [tuple(container)]
    while len(pieces) < n:
        (k,) = rng.choices(range(len(pieces)), weights=[prod(p) if max(p) > 1 else 0 for p in pieces])
        piece = pieces.pop(k)
        (axis,) = rng.choices(range(len(piece)), weights=[s if s > 1 else 0 for s in piece])
        cut = rng.randint(1, piece[axis] - 1)
        pieces += [piece[:axis] + (part,) + piece[axis + 1:] for part in (cut, piece[axis] - cut)]
    return Instance(boxes=[Box(f"b{k}", s) for k, s in enumerate(pieces)], container=container)


# As PINNED_TREES, on guillotine cuts: 3-D with n 5-9, 2-D with n 20-22.
PINNED_GUILLOTINE_TREES = [
    (1, "feasible", (29, 29, 103, 9, ()), "c2b34c2c15bc"),
    (2, "feasible", (31, 31, 73, 5, ()), "b8690aed9f5d"),
    (3, "resource_limit", (40, 40, 68, 7, ()), None),
    (4, "resource_limit", (40, 40, 114, 8, ()), None),
    (27, "feasible", (39, 39, 68, 16, ()), "cdebff54bef0"),
    (35, "resource_limit", (40, 40, 110, 13, ()), None),
    (41, "resource_limit", (40, 40, 85, 13, ()), None),
    (46, "resource_limit", (40, 40, 110, 15, ()), None),
    (58, "resource_limit", (40, 40, 98, 2, ()), None),
]


def decision_power_set():
    """16 tight instances that `heuristic_pack` misses (n 8, 9, 10 and 12 in
    turn), then four guillotine cuts each of n 8, 12, 16 and 20 of a
    10 x 10 square and of a 6 x 6 x 6 cube: perfect packings."""
    rng = random.Random(1)
    hard = []
    while len(hard) < 16:
        inst = tight_instance(rng, (8, 9, 10, 12)[len(hard) % 4])
        if heuristic_pack(inst) is None:
            hard.append(inst)
    cuts = [
        guillotine_instance(rng, container, n)
        for container in ((10, 10), (6, 6, 6))
        for n in (8, 12, 16, 20)
        for _ in range(4)
    ]
    return hard + cuts


# The instances of `decision_power_set` that the search decided within
# 2,000 nodes when it branched on the undecided pair whose boxes touched
# the most decided relations, with their verdicts: 3 of the 16 hard ones,
# 3 of the 2-D cuts and 4 of the 3-D cuts.
DECIDED_BY_DEGREE_ORDER = {
    2: "infeasible", 9: "infeasible", 13: "infeasible",
    17: "feasible", 18: "feasible", 19: "feasible",
    32: "feasible", 33: "feasible", 34: "feasible", 35: "feasible",
}


def test_decision_power_at_a_fixed_node_budget():
    """A gate on what the search decides, independent of timing: with the
    heuristic off and 2,000 nodes per instance, it decides at least 6 of
    the hard instances, 7 of the 2-D and 7 of the 3-D perfect packings,
    keeps every verdict of `DECIDED_BY_DEGREE_ORDER`, calls no perfect
    packing infeasible, and every packing it returns validates."""
    limits = SearchLimits(max_nodes=2000, time_limit=None, use_heuristic=False)
    instances = decision_power_set()
    decided = {}
    for k, inst in enumerate(instances):
        out = solve_opp(inst, limits)
        if out.verdict == "feasible":
            assert validate_packing(out.packing, inst).valid, k
        if out.verdict != "resource_limit":
            decided[k] = out.verdict
    assert {k: decided.get(k) for k in DECIDED_BY_DEGREE_ORDER} == DECIDED_BY_DEGREE_ORDER
    assert all(decided[k] == "feasible" for k in decided if k >= 16), decided
    counts = tuple(sum(lo <= k < lo + 16 for k in decided) for lo in (0, 16, 32))
    assert all(got >= floor for got, floor in zip(counts, (6, 7, 7))), counts


def reference_instance(rng, k):
    """d 1-3; every other instance a guillotine cut (feasible), the rest
    random boxes filling 60-110 % of the container. One in 25 has 65-72
    boxes, past CLIQUE_CAP; the others 2-12."""
    d = 1 + k % 3
    large = k % 25 == 24
    n = rng.randint(65, 72) if large else rng.randint(2, 12)
    container = ((40,), (20, 20), (8, 8, 8))[d - 1] if large else tuple(
        rng.randint(4, 10) for _ in range(d)
    )
    if k % 2:
        return guillotine_instance(rng, container, min(n, prod(container)))
    fill = rng.uniform(0.6, 1.1) * prod(container)
    sizes, volume = [], 0
    while len(sizes) < n and volume < fill:
        size = tuple(rng.randint(1, max(1, c // 2)) for c in container)
        sizes.append(size)
        volume += prod(size)
    return Instance(boxes=[Box(f"b{j}", s) for j, s in enumerate(sizes)], container=container)


def test_search_matches_reference():
    """`solve_opp` and the reference search (the parent's assignment
    function, fixed point, branching and search loop) give the same
    verdict, statistics and packing on seeded instances, with budgets of
    0-2,000 nodes and the heuristic on and off; `initial_state` leaves the
    reference's state."""
    rng = random.Random(81)
    seen = Counter()
    for k in range(1040):
        inst = reference_instance(rng, k)
        limits = SearchLimits(
            max_nodes=rng.choice((0, 1, 5, 20, 80, 300, 2000) if inst.n <= 12 else (40, 200)),
            time_limit=None,
            use_heuristic=rng.random() < 1 / 3,
        )
        state, expected_state = initial_state(inst), reference.initial_state(inst)
        if isinstance(state, ImmediateConflict):
            assert state == expected_state, k
        else:
            assert _snapshot(state) == _snapshot(expected_state), k
        got, expected = solve_opp(inst, limits), reference.solve_opp(inst, limits)
        assert got.verdict == expected.verdict, k
        assert got.stats.deterministic_view() == expected.stats.deterministic_view(), k
        assert got.packing == expected.packing, k
        assert got.packing_class == expected.packing_class, k
        seen[got.verdict] += 1
        seen["searched"] += got.stats.nodes > 0
        seen["large"] += inst.n > 64 and got.stats.nodes > 0
    assert seen["searched"] >= 300 and seen["large"] >= 10 and min(seen.values()) >= 10, seen


def large_instance(rng, k, most=130):
    """n 65-`most` boxes, d 1-3: every other instance a guillotine cut of a
    fixed container (feasible); the rest boxes with sides 1-3 (1-2 in 3-D)
    in a cube that they fill to 60-110 %."""
    d = 1 + k % 3
    n = rng.randint(65, most)
    if k % 2:
        return guillotine_instance(rng, ((200,), (20, 20), (8, 8, 8))[d - 1], n)
    side = 2 if d == 3 else 3
    sizes = [tuple(rng.randint(1, side) for _ in range(d)) for _ in range(n)]
    width = round((sum(map(prod, sizes)) / rng.uniform(0.6, 1.1)) ** (1 / d))
    return Instance(
        boxes=[Box(f"b{j}", s) for j, s in enumerate(sizes)], container=(max(side, width),) * d
    )


def test_search_above_clique_cap_matches_reference():
    """Past 64 boxes, where the reference runs its full odd-walk search
    after each assignment as below, seeded 65-130 box searches give the
    reference's verdict, statistics and packing."""
    rng = random.Random(6530)
    seen = Counter()
    for k in range(40):
        inst = large_instance(rng, k)
        limits = SearchLimits(
            max_nodes=rng.choice((40, 100, 200)), time_limit=None, use_heuristic=rng.random() < 0.25
        )
        got, expected = solve_opp(inst, limits), reference.solve_opp(inst, limits)
        assert got.verdict == expected.verdict, k
        assert got.stats.deterministic_view() == expected.stats.deterministic_view(), k
        assert got.packing == expected.packing, k
        seen[got.verdict] += 1
        seen["searched"] += got.stats.nodes > 0
    assert seen["searched"] >= 20 and min(seen.values()) >= 3, seen


def test_search_tree_pinned_on_guillotine_cuts():
    rng = random.Random(2026)
    instances = []
    for k in range(59):
        container = [(4, 4, 4), (6, 6, 6), (5, 6, 7), (12, 12), (10, 16)][k % 5]
        n = rng.randint(5, 9) if len(container) == 3 else rng.randint(12, 24)
        instances.append(guillotine_instance(rng, container, n))
    limits = SearchLimits(max_nodes=40, time_limit=None, use_heuristic=False)
    check_pinned_trees(instances, PINNED_GUILLOTINE_TREES, limits)


def test_search_tree_pinned_above_clique_cap():
    # Past 64 boxes (CLIQUE_CAP, the cap of `graph.max_weight_clique`)
    # propagation runs the same exact clique test and odd-cycle rule as
    # below. On this 66-box cut 9 of the 35 conflicts are overweight minus
    # cliques; a greedy clique finds none here and gave
    # (120, 120, 299, 10, ()).
    instances = [guillotine_instance(random.Random(42), (16, 14), 66)]
    pins = [(0, "resource_limit", (120, 120, 280, 35, ()), None)]
    limits = SearchLimits(max_nodes=120, time_limit=None, use_heuristic=False)
    check_pinned_trees(instances, pins, limits)
    # On these 70 boxes 162 of the 417 conflicts are overweight minus
    # cliques and 146 odd cycles. A periodic prune check instead of the
    # odd-cycle conflict gave (1000, 1000, 1603, 342, (("odd_cycle", 77),)),
    # a greedy clique (1001, 1001, 1562, 364, ()).
    instances = [large_instance(random.Random(57), 4)]
    pins = [(0, "resource_limit", (1000, 1000, 1488, 417, ()), None)]
    limits = SearchLimits(max_nodes=1000, time_limit=None, use_heuristic=False)
    check_pinned_trees(instances, pins, limits)


def test_resource_limit_outcomes(five_box_example):
    out = solve_opp(five_box_example, SearchLimits(max_nodes=0, use_heuristic=False))
    assert out.verdict == "resource_limit"
    out = solve_opp(five_box_example, SearchLimits(time_limit=0.0, use_heuristic=False))
    assert out.verdict == "resource_limit"


def test_deadline_inside_the_initial_state_stops_before_the_leaf_accept(monkeypatch):
    """A 1-D root is a leaf, so its accept is the search's first step, and
    a deadline that passes while `initial_state` runs ends the call before
    it. 92 narrow boxes in one axis, on a clock that stands still except
    for one second inside `initial_state`: with a 0.5 s limit the solve
    returns `resource_limit` and calls no accept; with no limit, or a
    clock that never moves, it is packed at the root."""
    rng = random.Random(120)
    widths = []
    while sum(widths) < 188:  # stop before the next width could pass 190
        widths.append(rng.randint(1, 3))
    inst = Instance(boxes=[Box(f"b{k}", (w,)) for k, w in enumerate(widths)], container=(200,))
    assert inst.n == 92
    now, jump, accepts = 0.0, 1.0, []
    build, accept = opp.initial_state, opp._try_accept

    def slow_build(inst):
        nonlocal now
        state = build(inst)
        now += jump
        return state

    monkeypatch.setattr(opp.time, "perf_counter", lambda: now)
    monkeypatch.setattr(opp, "initial_state", slow_build)
    monkeypatch.setattr(opp, "_try_accept", lambda state: accepts.append(state.undecided) or accept(state))
    out = solve_opp(inst, SearchLimits(max_nodes=50, time_limit=0.5, use_heuristic=False))
    assert out.verdict == "resource_limit" and accepts == []
    out = solve_opp(inst, SearchLimits(max_nodes=50, time_limit=None, use_heuristic=False))
    assert out.verdict == "feasible" and out.stats.nodes == 0 and accepts == [0]
    jump = 0.0
    out = solve_opp(inst, SearchLimits(max_nodes=50, time_limit=0.5, use_heuristic=False))
    assert out.verdict == "feasible" and out.stats.nodes == 0 and accepts == [0, 0]


def test_one_dimensional_roots_are_leaves(monkeypatch):
    """With one axis, P3 excludes every pair on it: on seeded 1-D
    instances `initial_state` decides every pair when the widths fit, with
    no clique search (the axis is roomy), and conflicts when they do not,
    the search spends no node, the verdict is the width sum's, and it
    agrees with `brute_force_opp` for n <= 5."""
    rng = random.Random(1001)
    seen = Counter()
    cliques = []
    search = opp._max_clique
    monkeypatch.setattr(opp, "_max_clique", lambda *args: cliques.append(args) or search(*args))
    for k in range(300):
        den = 1 + k % 3
        cap = rng.randint(4, 24)
        n = rng.randint(1, 5) if k % 2 else rng.randint(6, 20)
        inst = Instance(
            boxes=[Box(f"b{j}", (Fraction(rng.randint(1, 3 * den), den),)) for j in range(n)],
            container=(cap,),
        )
        fits = sum(box.size[0] for box in inst.boxes) <= cap
        cliques.clear()
        state = initial_state(inst)
        if fits:
            assert isinstance(state, EdgeState) and state.undecided == 0, k
            assert state.status == [[EXCLUDE] * state.m] and state.roomy == [True], k
            assert cliques == [], k
        else:
            assert isinstance(state, ImmediateConflict), k
        out = solve_opp(inst, SearchLimits(time_limit=None, use_heuristic=False))
        assert out.verdict == ("feasible" if fits else "infeasible") and out.stats.nodes == 0, k
        if fits:
            assert validate_packing(out.packing, inst).valid, k
        if n <= 5:
            assert brute_force_opp(inst).feasible == fits, k
            seen["brute force"] += 1
        seen["fits" if fits else "overflows"] += 1
    assert min(seen.values()) >= 50, seen


def test_accept_runs_only_on_fully_decided_states(monkeypatch):
    """`_decide` calls `_try_accept` only on fully decided states, and each
    call returns a packing that validates, with a class that passes
    `verify_packing_class`: in seeded searches, heuristic off, on tight
    2-D instances, 2-D and 3-D guillotine cuts, 1-D instances and 65-100
    boxes."""
    calls = Counter()
    kind = None
    accept = opp._try_accept

    def checked(state):
        assert state.undecided == 0, kind
        out = accept(state)
        assert out is not None, kind
        packing, pc = out
        assert validate_packing(packing, state.inst).valid, kind
        assert verify_packing_class(pc, state.inst).all_ok, kind
        calls[kind] += 1
        return out

    monkeypatch.setattr(opp, "_try_accept", checked)
    rng = random.Random(2027)
    limits = SearchLimits(max_nodes=300, time_limit=None, use_heuristic=False)
    for k in range(40):
        cases = {
            "tight": tight_instance(rng, 6 + k % 4),
            "2-D cut": guillotine_instance(rng, (10, 10), rng.randint(5, 12)),
            "3-D cut": guillotine_instance(rng, (5, 5, 5), rng.randint(4, 9)),
            "1-D": Instance(
                boxes=[Box(f"b{j}", (rng.randint(1, 5),)) for j in range(rng.randint(1, 12))],
                container=(rng.randint(5, 30),),
            ),
        }
        for kind, inst in cases.items():
            solve_opp(inst, limits)
    # past 64 boxes: two of the six are 1-D; 66 full-height strips are a
    # 2-D root that `initial_state` decides
    kind = "over 64 boxes"
    for k in range(6):
        solve_opp(large_instance(rng, k, most=100), limits)
    solve_opp(Instance(boxes=[Box(f"s{k}", (1, 10)) for k in range(66)], container=(70, 10)), limits)
    assert min(calls[key] for key in ("tight", "2-D cut", "3-D cut", "1-D")) >= 10, calls
    assert calls["over 64 boxes"] == 3, calls


def test_passed_deadline_stops_before_the_initial_state(monkeypatch):
    # A passed deadline ends the call before the initial state is built,
    # also with the heuristic off: building it takes about 0.035 s on
    # 73-80 3-D boxes
    built = []
    build = opp.initial_state
    monkeypatch.setattr(opp, "initial_state", lambda inst: built.append(inst.n) or build(inst))
    rng = random.Random(73)
    inst = Instance(
        boxes=[Box(f"b{k}", tuple(rng.randint(1, 3) for _ in range(3))) for k in range(76)],
        container=(12, 12, 12),
    )
    out = solve_opp(inst, SearchLimits(time_limit=0.0, use_heuristic=False))
    assert out.verdict == "resource_limit" and built == []
    out = solve_opp(inst, SearchLimits(max_nodes=0, time_limit=None, use_heuristic=False))
    assert out.verdict == "resource_limit" and built == [76]


def test_deep_search_stays_off_the_call_stack():
    # 60 small boxes leave all 3,540 (dimension, pair) variables undecided
    # at the root, and within 1,200 nodes the search holds over 1,100 open
    # decisions at once; a recursive search raised RecursionError here.
    rng = random.Random(0)
    inst = Instance(
        boxes=[Box(f"b{k}", (rng.randint(1, 3), rng.randint(1, 3))) for k in range(60)],
        container=(40, 40),
    )
    limits = SearchLimits(max_nodes=1200, time_limit=None, use_heuristic=False)
    out = solve_opp(inst, limits)
    assert out.verdict in ("feasible", "infeasible", "resource_limit")
    assert out.stats.nodes <= 1200


def test_node_budget_is_a_hard_cap():
    """No search charges more nodes than `max_nodes`, though every child
    entered costs one, conflict or not: on seeded tight instances with
    budgets of 1-200 nodes, and in the engine nodes of OKP calls (10 x 10
    guillotine cuts of 8-13 boxes plus 3 more boxes) and SPP calls (cuts
    of 10 x 6-15 strips) with budgets of 5-20 nodes."""
    rng = random.Random(2007)
    spent = 0
    for k in range(80):
        max_nodes = rng.choice((1, 7, 80, 200))
        limits = SearchLimits(max_nodes=max_nodes, time_limit=None, use_heuristic=False)
        out = solve_opp(tight_instance(rng, 6 + k % 4), limits)
        assert out.stats.nodes <= max_nodes, k
        spent += out.stats.nodes == max_nodes
    for k in range(40):
        max_nodes = rng.choice((5, 10, 20))
        limits = SearchLimits(max_nodes=max_nodes, time_limit=None, use_heuristic=k % 2 == 0)
        cut = guillotine_instance(rng, (10, 10), 8 + k % 6)
        extra = [Box(f"x{j}", (rng.randint(2, 5), rng.randint(2, 5))) for j in range(3)]
        out = solve_okp(Instance(boxes=cut.boxes + tuple(extra), container=(10, 10)), limits)
        assert out.stats["engine_nodes"] <= max_nodes, k
        spent += out.stats["engine_nodes"] == max_nodes
        strip = guillotine_instance(rng, (10, rng.randint(6, 15)), 8 + k % 9)
        out = solve_spp(strip.boxes, (10,), limits)
        assert out.stats["engine_nodes"] <= max_nodes, k
        spent += out.stats["engine_nodes"] == max_nodes
    assert spent >= 50, spent


def test_heuristic_pack_examples(five_box_example):
    single = Instance(boxes=(Box("a", (1, 1)),), container=(1, 1))
    assert heuristic_pack(single).positions["a"] == (0, 0)
    stack = Instance(boxes=(Box("a", (2, 1)), Box("b", (2, 1))), container=(2, 2))
    packed = heuristic_pack(stack)
    assert packed is not None and len(packed.positions) == 2
    example_packed = heuristic_pack(five_box_example)
    assert example_packed is not None
    assert validate_packing(example_packed, five_box_example).valid


def heuristic_instance(rng, k):
    """d 1-3, n 1-12, sizes on a 1, 1/2 or 1/3 grid, filled so that the
    heuristic packs some instances and gives up on others."""
    d = 1 + k % 3
    n = 1 + rng.randrange(12)
    den = (1, 1, 2, 3)[k % 4]
    container = tuple(rng.randint(3, 8) for _ in range(d))
    side = [min(den * w, max(1, 3 * den * w // (2 * round(n ** (1 / d))))) for w in container]
    boxes = [
        Box(f"b{j}", tuple(Fraction(rng.randint(1, s), den) for s in side))
        for j in range(n)
    ]
    return Instance(boxes=boxes, container=container)


# Packing digest of heuristic_pack per instance, None where it gives up.
# A mismatch means the bottom-left candidate order or an ordering changed.
PINNED_HEURISTIC = [
    None, None, None, "e984811b7ffb", None,
    "1a965d1618b3", "14f7c3fddcdc", "b38fb02cc6e4", None, "3319f64b0252",
    "c49823fde805", None, None, None, None,
    "d3c08dbbb7cf", "6c2db92581be", None, "c2e48bc7858c", None,
    "7c7cc1282f80", None, "2f12b9d2ba0e", "d591bde92046", None,
    "02d98d68dd2b", "f5a7a337711a", "7e6857c57603", "daf4c5546eba", "d3e2a7e1e686",
    "4af7dd9e939a", "cc14b6ca36fa", None, "9be41108db4f", "daf4c5546eba",
    "a2bfb4672a0c", None, "cdb9b9435915", None, "a472820bde45",
    None, None, None, "979e46be99a2", "a2cb8e90fe00",
    "f12b02003512", "f46b8907639b", None, "7e028f8a1d19", "1e43b844bb22",
    "38f13afc4ebc", None, "ce19463efdee", "6265d0792160", "359a977784bf",
    "2bb4eec18f54", "472b0875c342", None, "5f8f1591c188", "73500d1a879b",
]


def test_heuristic_placements_pinned():
    rng = random.Random(2024)
    for k, expected in enumerate(PINNED_HEURISTIC):
        inst = heuristic_instance(rng, k)
        packing = heuristic_pack(inst)
        if packing is None:
            assert expected is None, k
        else:
            canonical = repr(packing.canonical()).encode()
            assert hashlib.sha256(canonical).hexdigest()[:12] == expected, k


def test_bottom_left_matches_mask_reference():
    """The jump search places every box where the corner walk over per-axis
    masks does: d 1-3, sizes on a 1, 1/2 or 1/3 grid, every fourth
    container four times as tall, several box orders per instance."""
    rng = random.Random(91)
    complete = given_up = 0
    for k in range(540):
        d = 1 + k % 3
        den = 1 + k // 3 % 3
        container = [rng.randint(3, 8) for _ in range(d)]
        if k % 4 == 0:
            container[-1] *= 4
        boxes = [
            Box(f"b{j}", tuple(
                Fraction(rng.randint(1, max(1, den * w * rng.randint(1, 3) // 4)), den)
                for w in container
            ))
            for j in range(1 + rng.randrange(14))
        ]
        inst = Instance(boxes=boxes, container=container)
        for _ in range(3):
            order = rng.sample(range(inst.n), inst.n)
            placed = _bottom_left(inst, order)
            assert placed == bottom_left_by_masks(inst, order), (k, order)
            complete += placed is not None
            given_up += placed is None
    assert complete > 500 and given_up > 100, (complete, given_up)


def test_bottom_left_under_a_lower_cap_keeps_its_placement_or_fails():
    """The lemma behind the SPP bound: with the last axis capped at H, a
    bottom-left run places every box as it does in the all-stacked strip
    when that run's top is at most H, and returns None otherwise. So
    `heuristic_pack` fails exactly below the lowest top of its orders at
    the all-stacked height. d 1-3, heights on a 1, 1/2 or 1/3 grid, every
    grid height from the tallest box to the stack. The stacked instance
    derived at each height, as `solve_spp` derives its sub-problems,
    equals the instance built there."""
    rng = random.Random(93)
    kept = failed = refused = 0
    for k in range(360):
        d = 1 + k % 3
        den = 1 + k // 3 % 3
        cross = [rng.randint(2, 5) for _ in range(d - 1)]
        boxes = [
            Box(f"b{j}", (*(rng.randint(1, c) for c in cross), Fraction(rng.randint(1, 2 * den), den)))
            for j in range(1 + rng.randrange(9))
        ]
        stacked = Instance(boxes=boxes, container=(*cross, sum(b.size[-1] for b in boxes)))
        scale = stacked.scale(d - 1)
        orders = [*opp._heuristic_orders(stacked), rng.sample(range(stacked.n), stacked.n)]
        runs = []
        for order in orders:
            placed = _bottom_left(stacked, order)
            runs.append((max(pos[-1] + stacked.int_size(b, d - 1) for b, pos in placed), placed))
        lowest = min(top for top, _ in runs[:-1])
        tallest = max(size[-1] for size in stacked.int_sizes)
        for h in range(tallest, stacked.int_container(d - 1) + 1):
            capped = Instance(boxes=boxes, container=(*cross, Fraction(h, scale)))
            assert_same_tables(stacked._derive(None, capped.container), capped)
            for order, (top, placed) in zip(orders, runs):
                assert _bottom_left(capped, order) == (placed if top <= h else None), (k, h, order)
                kept += top <= h
                failed += top > h
            if h in (lowest - 1, lowest):
                assert (heuristic_pack(capped) is None) == (h < lowest), (k, h)
                refused += h < lowest
    assert kept > 4000 and failed > 5000 and refused > 200, (kept, failed, refused)


def test_too_wide_table_matches_definition():
    """`Instance.int_too_wide` holds exactly the pairs too wide to sit side
    by side per axis, and `initial_state` applies them first, in (pair,
    axis) order; a raw assignment, which tests no widths, and `propagate`
    then refuse to exclude any of them."""
    rng = random.Random(92)
    ordered = 0
    for k in range(60):
        d = 1 + k % 3
        den = 1 + k // 3 % 3
        container = tuple(Fraction(rng.randint(2, 8)) for _ in range(d))
        boxes = []
        for j in range(rng.randint(1, 12)):
            # odd k: each box is short on all axes but one, so that many
            # pairs are too wide on one axis only and the search can start
            long = rng.randrange(d) if k % 2 else None
            boxes.append(Box(f"b{j}", tuple(
                Fraction(rng.randint(1, max(1, int(w * den) // (1 if long in (None, i) else 3))), den)
                for i, w in enumerate(container)
            )))
        inst = Instance(boxes=boxes, container=container)
        wide = [
            (i, a, b)
            for a, b in combinations(range(inst.n), 2)
            for i in range(d)
            if boxes[a].size[i] + boxes[b].size[i] > container[i]
        ]
        expected = [[0] * inst.n for _ in range(d)]
        for i, a, b in wide:
            expected[i][a] |= 1 << b
            expected[i][b] |= 1 << a
        assert [list(row) for row in inst.int_too_wide] == expected, k
        state = initial_state(inst)
        if not isinstance(state, ImmediateConflict):
            seeds = [(i, state.pid_of[a][b]) for i, a, b in wide]
            assert state.trail[:len(seeds)] == seeds, k
            ordered += len(seeds) >= 2
            for i, pid in seeds:
                assert state.status[i][pid] == INCLUDE
                assert reference.set_edge(state, i, pid, EXCLUDE) == "conflict"
                assert propagate(state, (i, pid, EXCLUDE)) == Conflict("seed", i, state.pair_ids(pid))
    assert ordered >= 10, ordered


def test_validation_survives_python_O():
    """With asserts stripped, an invalid packing from the search, from the
    heuristic (in solve_opp, in the inner decisions of solve_okp and in
    solve_spp's bound, where its own check is the only one) still raises
    InvalidPacking, and an infeasible all-stacked SPP height with the
    heuristic off (with it on, the bound supplies that height's packing)
    still raises its AssertionError."""
    script = """
from packclass import model, opp, solve
from packclass.errors import InvalidPacking
from packclass.model import Box, Instance
assert False, "asserts are on"
model._violations = lambda spans, container, inst: ("injected",)
inst = Instance(boxes=(Box("a", (1, 1)), Box("b", (1, 1))), container=(2, 2))
for heuristic in (False, True):
    try:
        out = opp.solve_opp(inst, opp.SearchLimits(use_heuristic=heuristic))
        print("returned", out.verdict)
    except InvalidPacking as exc:
        print("raised:", exc)
for run in (lambda: solve.solve_okp(inst), lambda: solve.solve_spp(inst.boxes, (2,))):
    try:
        print("returned", run())
    except InvalidPacking as exc:
        print("raised:", exc)
solve._decide = lambda *args: opp.SearchOutcome("infeasible", None, None, opp.SearchStats())
try:
    print("returned", solve.solve_spp(inst.boxes, (2,), opp.SearchLimits(use_heuristic=False)))
except AssertionError as exc:
    print("raised:", exc)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        *["raised: packing is invalid: ('injected',)"] * 4,
        "raised: the all-stacked height must be feasible",
    ]


def test_quick_infeasible_rules(five_box_example):
    too_big = Instance(boxes=(Box("a", (2, 2)), Box("b", (2, 2))), container=(3, 3))
    assert quick_infeasible(too_big, ("a", "b"))
    assert not quick_infeasible(five_box_example, five_box_example.ids)  # volume 18 <= 25
    assert not quick_infeasible(five_box_example, ("b1",))


def test_screen_matches_definition_on_every_subset():
    """The mask core, `quick_infeasible` and the definition in `Fraction`s
    (volume over the container, or a pair too wide side by side on every
    axis) agree on every subset."""
    rng = random.Random(57)
    by_pair_only = by_volume_only = 0
    for k in range(27):
        d = 1 + k % 3
        den = (1, 2, 3)[k // 3 % 3]
        container = tuple(Fraction(rng.randint(2, 6)) for _ in range(d))
        boxes = [
            Box(f"b{j}", tuple(Fraction(rng.randint(1, int(w * den)), den) for w in container))
            for j in range(rng.randint(1, 10))
        ]
        inst = Instance(boxes=boxes, container=container)
        tables = _screen_tables(inst)
        capacity = prod(container)
        for mask in range(1 << inst.n):
            S = [b for j, b in enumerate(boxes) if mask >> j & 1]
            over = sum((b.volume for b in S), Fraction(0)) > capacity
            wide = any(
                all(a.size[i] + b.size[i] > container[i] for i in range(d))
                for a, b in combinations(S, 2)
            )
            ids = [b.id for b in S]
            assert _screen(mask, *tables) == quick_infeasible(inst, ids) == (over or wide), (k, mask)
            by_pair_only += wide and not over
            by_volume_only += over and not wide
    assert by_pair_only > 0 and by_volume_only > 0, (by_pair_only, by_volume_only)


def test_verdicts_match_brute_force_small_grid():
    # quick slice of the exhaustive agreement sweep (full grid runs in the
    # acceptance suite)
    for inst in exhaustive_grid(max_boxes=2):
        out = solve_opp(inst)
        brute = brute_force_opp(inst)
        assert (out.verdict == "feasible") == brute.feasible
        if out.verdict == "feasible":
            assert validate_packing(out.packing, inst).valid


def test_three_dimensional_verdicts_match_brute_force():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(1, 3)
        inst = Instance(
            boxes=[
                Box(f"b{k}", tuple(rng.randint(1, 2) for _ in range(3)))
                for k in range(n)
            ],
            container=(3, 3, 2),
        )
        out = solve_opp(inst, SearchLimits(use_heuristic=False))
        assert (out.verdict == "feasible") == brute_force_opp(inst).feasible
        if out.verdict == "feasible":
            assert validate_packing(out.packing, inst).valid


def test_one_dimensional_reduces_to_width_sum():
    fits = Instance(boxes=(Box("a", (2,)), Box("b", (3,))), container=(5,))
    assert solve_opp(fits, SearchLimits(use_heuristic=False)).verdict == "feasible"
    overflow = Instance(boxes=(Box("a", (2,)), Box("b", (3,))), container=(4,))
    assert solve_opp(overflow, SearchLimits(use_heuristic=False)).verdict == "infeasible"


def test_feasible_outcomes_always_validate():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(1, 4)
        inst = Instance(
            boxes=[Box(f"b{k}", (rng.randint(1, 3), rng.randint(1, 3))) for k in range(n)],
            container=(4, 4),
        )
        for limits in (SearchLimits(), SearchLimits(use_heuristic=False)):
            out = solve_opp(inst, limits)
            if out.verdict == "feasible":
                assert validate_packing(out.packing, inst).valid
