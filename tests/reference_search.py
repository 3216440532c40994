"""The search's per-node path as it was before it became one assignment
loop, kept as a reference: `set_edge` (one raw assignment), `fixpoint`
(a seed list and its forced consequences, returning the applied
assignments; the odd-cycle rule is a full parity search after each
one, on an axis with a plus pair), `branch_select` (a scan of
`state.seq` from its start at every node) and `solve_opp` (the search
loop, with the accept on fully decided states only and an
unconditional undo at every pop). The tests compare `opp.propagate`,
`opp.branch_select` and `opp.solve_opp` with these.
"""

import copy
from collections import deque
from fractions import Fraction
from functools import reduce

from packclass.graph import _max_clique
from packclass.model import project_to_class
from packclass.opp import (
    EXCLUDE,
    INCLUDE,
    Conflict,
    EdgeState,
    ImmediateConflict,
    SearchLimits,
    SearchOutcome,
    SearchStats,
    _Budget,
    _try_accept,
    heuristic_pack,
    quick_infeasible,
)

from graphtools import odd_closed_walk_by_arcs


def set_edge(state, i, pid, sign):
    """One assignment, no consequences and no width test: "noop" when
    (i, pid) already has `sign`, "conflict" when it has the other one,
    else "applied"."""
    row = state.status[i]
    cur = row[pid]
    if cur == sign:
        return "noop"
    if cur != 0:
        return "conflict"
    a, b = state.pairs[pid]
    row[pid] = sign
    adj = state.plus_adj[i] if sign == INCLUDE else state.minus_adj[i]
    adj[a] |= 1 << b
    adj[b] |= 1 << a
    state.trail.append((i, pid))
    state.undecided -= 1
    return "applied"


def copy_state(state):
    """A copy of `state` that shares only its instance and fixed tables."""
    twin = copy.copy(state)
    twin.status = [row[:] for row in state.status]
    twin.plus_adj = [row[:] for row in state.plus_adj]
    twin.minus_adj = [row[:] for row in state.minus_adj]
    twin.trail = state.trail[:]
    twin.up = [row[:] for row in state.up]
    twin.par = [row[:] for row in state.par]
    twin.size = [row[:] for row in state.size]
    twin.joins = state.joins[:]
    twin.stats = copy.deepcopy(state.stats)
    return twin


def fixpoint(state, seeds):
    """Apply the seed assignments and their forced consequences; the
    tuple of applied (dimension, pair index, sign) triples, or Conflict."""
    queue = deque((i, pid, sign, "seed") for i, pid, sign in seeds)
    applied = []
    status = state.status
    pid_of = state.pid_of
    while queue:
        i, pid, sign, rule = queue.popleft()
        result = set_edge(state, i, pid, sign)
        if result == "noop":
            continue
        if result == "conflict":
            state.stats.conflicts += 1
            return Conflict(rule=rule, dimension=i, pair=state.pair_ids(pid))
        applied.append((i, pid, sign))
        state.stats.propagations += 1
        a, b = state.pairs[pid]
        plus = state.plus_adj[i]
        minus = state.minus_adj[i]
        if sign == INCLUDE:
            count = sum(row[pid] == INCLUDE for row in status)
            if count == state.d:
                state.stats.conflicts += 1
                return Conflict(rule="p3", dimension=i, pair=state.pair_ids(pid))
            if count == state.d - 1:
                for j, row in enumerate(status):
                    if row[pid] == 0:
                        queue.append((j, pid, EXCLUDE, "p3"))
            for u, v in ((a, b), (b, a)):
                for y in _bits(plus[u] & minus[v]):
                    for x in _bits(plus[y] & minus[u]):
                        queue.append((i, pid_of[x][v], EXCLUDE, "c4"))
            for x in _bits(plus[a] & minus[b]):
                for t in _bits(plus[b] & minus[a]):
                    queue.append((i, pid_of[x][t], EXCLUDE, "c4"))
            if odd_closed_walk_by_arcs(state.n, minus, plus) is not None:
                state.stats.conflicts += 1
                return Conflict(rule="odd_cycle", dimension=i, pair=state.pair_ids(pid))
        else:
            for p, r in ((a, b), (b, a)):
                for q in _bits(plus[p] & plus[r]):
                    for s in _bits(plus[r] & minus[q]):
                        queue.append((i, pid_of[p][s], EXCLUDE, "c4"))
            common = minus[a] & minus[b]
            w = state.sizes[i]
            if _max_clique(minus, w, common, state.caps[i] - w[a] - w[b])[1]:
                state.stats.conflicts += 1
                return Conflict(rule="minus_clique", dimension=i, pair=state.pair_ids(pid))
            # with no plus pair every step is a backtrack, and no walk is odd
            if any(plus) and odd_closed_walk_by_arcs(state.n, minus, plus) is not None:
                state.stats.conflicts += 1
                return Conflict(rule="odd_cycle", dimension=i, pair=state.pair_ids(pid))
    return tuple(applied)


def _bits(mask):
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def initial_state(inst):
    state = EdgeState(inst)
    seeds = []
    for a, row in enumerate(zip(*inst.int_too_wide)):
        for b in _bits(reduce(int.__or__, row) & -(2 << a)):
            pid = state.pid_of[a][b]
            seeds += [(i, pid, INCLUDE) for i, wide in enumerate(row) if wide >> b & 1]
    if inst.d == 1:  # P3: with no other axis, every pair is apart on this one
        seeds += [(0, pid, EXCLUDE) for pid in range(state.m)]
    result = fixpoint(state, seeds)
    return ImmediateConflict(result) if isinstance(result, Conflict) else state


def branch_select(state):
    """(dimension, pair index): the first pair of `state.seq` with an
    undecided dimension, scanned from the start, on the undecided
    dimension with the largest (s_a + s_b) / cap, the lowest on ties."""
    for pid in state.seq:
        a, b = state.pairs[pid]
        axes = [i for i in range(state.d) if state.status[i][pid] == 0]
        if axes:
            width = [Fraction(s[a] + s[b], cap) for s, cap in zip(state.sizes, state.caps)]
            return max(axes, key=width.__getitem__), pid


def solve_opp(inst, limits=None):
    """`opp.solve_opp` on the reference path. Takes no time limit: the
    comparison is of trees, which a deadline would cut at random."""
    limits = limits or SearchLimits()
    assert limits.time_limit is None
    budget = _Budget(limits)
    if quick_infeasible(inst, inst.ids):
        return SearchOutcome("infeasible", None, None, SearchStats(prunes={"quick_infeasible": 1}))
    outcome = _decide(inst, limits.use_heuristic, budget)
    if outcome.packing is not None and outcome.packing_class is None:
        outcome.packing_class = project_to_class(outcome.packing, inst)
    return outcome


def _decide(inst, use_heuristic, budget):
    stats = SearchStats()
    max_nodes = budget.nodes_left

    def outcome(verdict, packing=None, pc=None):
        budget.nodes_left -= stats.nodes
        return SearchOutcome(verdict=verdict, packing=packing, packing_class=pc, stats=stats)

    if use_heuristic:
        packing = heuristic_pack(inst)
        if packing is not None:
            stats.bump("heuristic")
            return outcome("feasible", packing)
    state = initial_state(inst)
    if isinstance(state, ImmediateConflict):
        stats.bump("initial_conflict")
        return outcome("infeasible")
    stats.propagations += state.stats.propagations
    stats.conflicts += state.stats.conflicts
    state.stats = stats
    stack = []
    while True:
        if state.undecided == 0:
            return outcome("feasible", *_try_accept(state))
        i, pid = branch_select(state)
        stack.append((state.mark(), i, pid, (INCLUDE, EXCLUDE)))
        while stack:
            mark, i, pid, signs = stack.pop()
            state.undo_to(mark)
            if signs:
                if stats.nodes >= max_nodes:
                    return outcome("resource_limit")
                stack.append((mark, i, pid, signs[1:]))
                stats.nodes += 1
                stats.decisions += 1
                if not isinstance(fixpoint(state, [(i, pid, signs[0])]), Conflict):
                    break
        else:
            return outcome("infeasible")
