"""Decision engine: can this box set be packed at all?

The search builds a packing class edge by edge. Every box pair is, per
dimension, included (the projections will overlap), excluded (they will
not), or undecided; branching fixes one pair in one dimension and
propagation applies the forced consequences:

  * a pair too wide for an axis must overlap there (2-element stable sets
    must fit), applied up front;
  * a pair included in all but one dimension is excluded in the last one
    (some axis must separate every pair);
  * an undecided pair whose inclusion would complete a 4-cycle whose both
    diagonals are already excluded is itself excluded (such a cycle could
    never gain a chord, and chordless 4-cycles are not interval);
  * an exclusion that completes a clique of excluded pairs wider than the
    axis conflicts (the clique is a stable set of the final graph, so P2
    fails): one exact test over the common excluded neighbours of the new
    pair, inline for up to two of them and a clique search for more, so
    no such clique survives propagation;
  * an assignment that closes an odd 2-chordless cycle in the excluded
    graph, its potential 2-chords all included, conflicts (the excluded
    graph could never become a comparability graph, so P1 fails): each
    axis keeps a parity union-find over the excluded arcs, joined at every
    step an assignment makes legal and undone with the trail, so no such
    cycle survives propagation.

All assignments go through one loop, `propagate`, called once per search
node and once by `initial_state`: it applies a queue of assignments first
in first out, writing straight to the state's tables and trail, and builds
an object only for a conflict.

Branching follows one static order of the (dimension, pair) variables
per state: the pairs of the largest boxes first (`EdgeState.seq`), each
on the axis where it is widest against the container first, inclusion
first. Each search node keeps its position in the order, so a scan for
the next variable starts where its parent's stopped.

Every dead end of the search is a propagation conflict. What propagation
leaves out (a plus 4-cycle with both diagonals minus, an overweight minus
clique, an odd 2-chordless minus cycle) makes every fully decided state a
packing class (`prune_check`), so the search accepts only there, and the
accept succeeds on every one. `prune_check` runs the odd-cycle rule in
full and returns its certificate, which no completion of the state can
destroy; the search does not call it.

Everything inside the search runs on integers: per-dimension adjacency
bitsets (`EdgeState.plus_adj`/`minus_adj`), vertex indices and the
instance's integer-scaled sizes, handed straight to the bitset cores in
`graph`. A decision is a (dimension, pair index, sign) triple; box ids
appear only in conflicts and prune certificates. The accept, on a fully
decided state, orients each axis's minus graph transitively and places
the boxes by longest paths (`packing_class._place`, as `extract_packing`
does); `Fraction`s, `Graph`s and the `PackingClass` are built only for
the packing it returns.
"""

from __future__ import annotations

import time
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from math import prod
from numbers import Real
from operator import itemgetter
from typing import Iterator, Optional, Sequence, Union

from .errors import InvalidLimits, NoUndecided, NotPackingClass
from .graph import Graph, _max_clique, _odd_closed_walk, _transitive_orientation
from .model import Instance, Packing, _placed_packing, project_to_class
from .packing_class import PackingClass, _place

INCLUDE = 1
EXCLUDE = -1


@dataclass
class SearchLimits:
    """The budget of one solve, shared by all its sub-problems.
    `max_nodes` counts search nodes of the exact engine only: `solve_okp`
    charges nothing for the subsets it enumerates and screens, so only
    `time_limit` (seconds, or None for none) bounds that enumeration.
    No heuristic is charged: not bottom-left, nor `solve_spp`'s cell fill
    on its own slice of `cellfill.FILL_NODES` nodes."""

    max_nodes: int = 10_000_000
    time_limit: Optional[float] = 60.0
    use_heuristic: bool = True


@dataclass
class SearchStats:
    nodes: int = 0
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    prunes: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def bump(self, rule: str) -> None:
        self.prunes[rule] = self.prunes.get(rule, 0) + 1

    def deterministic_view(self) -> tuple:
        """Everything except wall time, for determinism comparisons."""
        return (
            self.nodes,
            self.decisions,
            self.propagations,
            self.conflicts,
            tuple(sorted(self.prunes.items())),
        )


@dataclass(frozen=True)
class Conflict:
    rule: str
    dimension: int
    pair: tuple[str, str]


@dataclass(frozen=True)
class ImmediateConflict:
    conflict: Conflict


@dataclass(frozen=True)
class Prune:
    rule: str
    dimension: int
    certificate: tuple


@dataclass
class SearchOutcome:
    """`packing_class`, on an answer of the exact engine, is the class the
    search closed on (`_try_accept`): the packing's own overlap graphs
    (`project_to_class`) are subgraphs of its graphs, often not equal to
    them, since longest paths can set apart a pair the class lets overlap.
    On a heuristic hit `solve_opp` sets it to that projection."""

    verdict: str  # "feasible" | "infeasible" | "resource_limit"
    packing: Optional[Packing]
    packing_class: Optional[PackingClass]
    stats: SearchStats


class EdgeState:
    """Included/excluded pair sets per dimension plus an undo trail.

    Status per (dimension, pair) is +1 (in E+), -1 (in E-), or 0. The
    trail records assignments in order so the search can backtrack to any
    mark. plus_adj/minus_adj mirror the status as per-vertex bitsets;
    sizes[i][v] is box v's integer-scaled size along axis i and caps[i]
    the container's; roomy[i] says all boxes fit side by side along axis
    i, so no minus clique there overflows it. pid_of[a][b] is the index of
    pair {a, b}. seq lists the pair indices in branching order: boxes
    ranked by volume, largest first, ties by index; each box in rank order
    paired with every box ranked before it, highest-ranked first.
    (s_a + s_b) * units[i] ranks a pair's axes as (s_a + s_b)/caps[i]
    does, in integers; order is the prefix of the (dimension, pair)
    branching order that `branch_select` has built.

    up/par/size[i] are axis i's parity union-find over the minus arcs, by
    size without path compression, so a link is undone by resetting one
    root (union-find with backtracking: Westbrook and Tarjan, SIAM J.
    Comput. 18(1), 1989). Node pid is the arc (a, b) of pairs[pid], a < b,
    and (b, a) is the same node at parity 1 (the backtrack step is always
    legal). par[i][v] is v's parity against up[i][v]. joins logs each link
    as (trail index of the assignment that made it, axis, linked root).
    Only `propagate` assigns, in one loop that updates the tables in
    place, and `undo_to` retracts.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self.n = inst.n
        self.d = inst.d
        self.pairs: list[tuple[int, int]] = list(combinations(range(self.n), 2))
        self.pid_of = [[-1] * self.n for _ in range(self.n)]
        for pid, (a, b) in enumerate(self.pairs):
            self.pid_of[a][b] = self.pid_of[b][a] = pid
        self.m = len(self.pairs)
        self.status = [[0] * self.m for _ in range(self.d)]
        self.plus_adj = [[0] * self.n for _ in range(self.d)]
        self.minus_adj = [[0] * self.n for _ in range(self.d)]
        self.sizes = [[inst.int_size(v, i) for v in range(self.n)] for i in range(self.d)]
        self.caps = [inst.int_container(i) for i in range(self.d)]
        self.roomy = [sum(s) <= cap for s, cap in zip(self.sizes, self.caps)]
        rank = sorted(range(self.n), key=lambda v: -inst.int_volume(v))  # stable: ties by index
        self.seq = [self.pid_of[a][b] for k, b in enumerate(rank) for a in rank[:k]]
        span = prod(self.caps)  # (s_a + s_b) * units[i] ranks as (s_a + s_b) / cap_i
        self.units = [span // cap for cap in self.caps]
        self.order: list[tuple[int, int]] = []
        self.trail: list[tuple[int, int]] = []
        self.up = [list(range(self.m)) for _ in range(self.d)]
        self.par = [[0] * self.m for _ in range(self.d)]
        self.size = [[1] * self.m for _ in range(self.d)]
        self.joins: list[tuple[int, int, int]] = []
        self.undecided = self.d * self.m
        self.stats = SearchStats()

    # -- bookkeeping ---------------------------------------------------
    def pair_ids(self, pid: int) -> tuple[str, str]:
        a, b = self.pairs[pid]
        return (self.inst.ids[a], self.inst.ids[b])

    def mark(self) -> int:
        return len(self.trail)

    def undo_to(self, mark: int) -> None:
        status, pairs, plus_adj, minus_adj = self.status, self.pairs, self.plus_adj, self.minus_adj
        undone = self.trail[mark:]
        del self.trail[mark:]
        self.undecided += len(undone)
        for i, pid in undone:  # each pair at most once, so in any order
            row = status[i]
            a, b = pairs[pid]
            adj = plus_adj[i] if row[pid] == INCLUDE else minus_adj[i]
            adj[a] &= ~(1 << b)
            adj[b] &= ~(1 << a)
            row[pid] = 0
        joins, ups, pars, set_sizes = self.joins, self.up, self.par, self.size
        while joins and joins[-1][0] >= mark:
            _, i, v = joins.pop()
            up, size = ups[i], set_sizes[i]
            size[up[v]] -= size[v]
            up[v] = v
            pars[i][v] = 0


def initial_state(inst: Instance) -> Union[EdgeState, ImmediateConflict]:
    """Fresh state with all forced inclusions (pairs too wide to sit side
    by side) and the exclusions those force in turn. With one axis, P3
    excludes every pair on it, so a 1-D root is fully decided (or
    conflicts) and its search spends no node."""
    state = EdgeState(inst)
    seeds = []  # in (pair, axis) order
    for a, row in enumerate(zip(*inst.int_too_wide)):
        rest = reduce(int.__or__, row) & -(2 << a)  # partners b > a
        while rest:
            low = rest & -rest
            rest ^= low
            pid = state.pid_of[a][low.bit_length() - 1]
            seeds += [(i, pid, INCLUDE) for i, wide in enumerate(row) if wide & low]
    if state.d == 1:
        seeds += [(0, pid, EXCLUDE) for pid in range(state.m)]
    conflict = propagate(state, *seeds)
    return state if conflict is None else ImmediateConflict(conflict)


def propagate(state: EdgeState, *decisions: tuple[int, int, int]) -> Optional[Conflict]:
    """Apply (dimension, pair index, sign) decisions and their forced
    consequences to a fixed point, first in first out. Returns None on
    success, the assignments made being `state.trail[mark:]` for the mark
    taken before the call; on Conflict the partial assignments stay on the
    trail too (`state.undo_to(mark)` retracts them). No pair's width is
    tested: `initial_state` includes every too-wide pair first, so
    excluding one conflicts. Each new exclusion is tested for a minus
    clique through it heavier than the axis, so a conflict-free result
    leaves none (P2 on every decided set); up to two common minus
    neighbours of the pair are weighed inline, more by `_max_clique`.
    Each assignment then joins, in its axis's parity union-find, the two
    minus arcs of each step it makes legal; a join that closes an odd
    closed walk over the steps (an odd 2-chordless cycle, Gallai's
    obstruction to a comparability graph) conflicts as `odd_cycle`, so a
    conflict-free result leaves none either.
    """
    # A `for` over a list also visits what is appended during the loop:
    # the queue is first in, first out without a deque's pops.
    queue = [(i, pid, sign, "seed") for i, pid, sign in decisions]
    status, pairs, pid_of, trail = state.status, state.pairs, state.pid_of, state.trail
    plus_adj, minus_adj, joins = state.plus_adj, state.minus_adj, state.joins
    ups, pars, set_sizes = state.up, state.par, state.size
    roomy, sizes, caps, d = state.roomy, state.sizes, state.caps, state.d
    mark = len(trail)
    conflict = None
    for i, pid, sign, rule in queue:
        row = status[i]
        cur = row[pid]
        if cur == sign:
            continue
        if cur:
            conflict = Conflict(rule=rule, dimension=i, pair=state.pair_ids(pid))
            break
        row[pid] = sign
        a, b = pairs[pid]
        plus = plus_adj[i]
        minus = minus_adj[i]
        adj = plus if sign == INCLUDE else minus
        adj[a] |= 1 << b
        adj[b] |= 1 << a
        trail.append((i, pid))
        if sign == INCLUDE:
            count = 0
            for row in status:
                if row[pid] == INCLUDE:
                    count += 1
            if count == d:
                conflict = Conflict(rule="p3", dimension=i, pair=state.pair_ids(pid))
                break
            if count == d - 1:
                for j, row in enumerate(status):
                    if row[pid] == 0:
                        queue.append((j, pid, EXCLUDE, "p3"))
            for u, v in ((a, b), (b, a)):
                # new edge ends a 3-edge path x-y-u-v whose diagonals are minus
                ys = plus[u] & minus[v]
                while ys:
                    low = ys & -ys
                    ys ^= low
                    y = low.bit_length() - 1
                    xs = plus[y] & minus[u]
                    while xs:
                        low = xs & -xs
                        xs ^= low
                        queue.append((i, pid_of[low.bit_length() - 1][v], EXCLUDE, "c4"))
            # new edge in the middle of a path x-a-b-t with minus diagonals
            xs = plus[a] & minus[b]
            while xs:
                low = xs & -xs
                xs ^= low
                row = pid_of[low.bit_length() - 1]
                ts = plus[b] & minus[a]
                while ts:
                    low = ts & -ts
                    ts ^= low
                    queue.append((i, row[low.bit_length() - 1], EXCLUDE, "c4"))
            # new steps (a, v) -> (v, b)
            links = []
            vs = minus[a] & minus[b]
            while vs:
                low = vs & -vs
                vs ^= low
                v = low.bit_length() - 1
                links.append((pid_of[a][v], pid_of[v][b], a < v < b))
        else:
            # new minus edge as a diagonal {p,r} of a plus path p-q-r-s
            for p, r in ((a, b), (b, a)):
                row = pid_of[p]
                qs = plus[p] & plus[r]
                while qs:
                    low = qs & -qs
                    qs ^= low
                    ss = plus[r] & minus[low.bit_length() - 1]
                    while ss:
                        low = ss & -ss
                        ss ^= low
                        queue.append((i, row[low.bit_length() - 1], EXCLUDE, "c4"))
            # any clique in the minus graph is a stable set of the final
            # graph, so it must fit along the axis; an overweight one holds
            # the edge that completed it, so this exact test at each new
            # edge leaves none. {a, b} alone fits: `initial_state`
            # includes too-wide pairs. On a roomy axis every clique fits.
            common = 0 if roomy[i] else minus[a] & minus[b]
            if common:
                w = sizes[i]
                floor = caps[i] - w[a] - w[b]
                x = common & -common
                y = common ^ x
                if y & (y - 1):  # three or more common neighbours
                    heavy = _max_clique(minus, w, common, floor)[1]
                else:  # {x} or {x, y}: the heaviest clique, as `_max_clique` weighs it
                    wx, wy = w[x.bit_length() - 1], (w[y.bit_length() - 1] if y else 0)
                    heavy = (wx + wy if minus[x.bit_length() - 1] & y else max(wx, wy)) > floor
                if heavy:
                    conflict = Conflict(rule="minus_clique", dimension=i, pair=state.pair_ids(pid))
                    break
            # new steps (x, a) -> (a, b), then (a, b) -> (b, x)
            links = []
            xs = minus[a] & plus[b]
            while xs:
                low = xs & -xs
                xs ^= low
                x = low.bit_length() - 1
                links.append((pid_of[x][a], pid, x < a))
            xs = minus[b] & plus[a]
            while xs:
                low = xs & -xs
                xs ^= low
                x = low.bit_length() - 1
                links.append((pid, pid_of[b][x], x > b))
        # A link (s, t, w) joins the nodes of two arcs one step apart. The
        # arcs' parities differ, so the nodes' parities must sum (xor) to
        # w, which folds in the way round each arc is stored. A link inside
        # one set at the other sum closes an odd closed walk, an odd
        # 2-chordless cycle (`prune_check`), so a conflict-free result
        # leaves none.
        up, par, size = ups[i], pars[i], set_sizes[i]
        for s, t, w in links:
            while up[s] != s:
                w ^= par[s]
                s = up[s]
            while up[t] != t:
                w ^= par[t]
                t = up[t]
            if s != t:
                if size[s] > size[t]:
                    s, t = t, s
                up[s] = t
                par[s] = w
                size[t] += size[s]
                joins.append((len(trail) - 1, i, s))
            elif w:
                conflict = Conflict(rule="odd_cycle", dimension=i, pair=state.pair_ids(pid))
                break
        if conflict is not None:
            break
    applied = len(trail) - mark
    state.undecided -= applied
    state.stats.propagations += applied
    if conflict is not None:
        state.stats.conflicts += 1
    return conflict


def prune_check(state: EdgeState) -> Optional[Prune]:
    """The odd-cycle rule in full, as a certificate reader: an odd
    2-chordless cycle in some axis's minus graph whose potential 2-chords
    are all plus, found by `_odd_closed_walk`, or None. The certificate
    survives every completion of the state and is re-checkable against it.
    The search does not call this: `propagate` conflicts (`odd_cycle`) at
    the assignment that closes such a cycle, so on a conflict-free
    `propagate` result the rule is silent.

    On a set S whose pairs are all decided, the non-minus pairs are plus,
    so with the rule silent minus[S] is a comparability graph (Gallai). It
    is perfect, so S splits into as many minus cliques, each fitting the
    axis by propagation, as its largest plus clique: no width rule is
    needed. On a fully decided state the c4 rule leaves no plus 4-cycle
    with minus diagonals, so no 2+2 in a transitive orientation of the
    minus graph: it is an interval order, and the plus graph, the
    complement, is interval (Fishburn); with P2 and P3 by propagation the
    state is a packing class, and the leaf extraction `_try_accept`
    succeeds on it.
    """
    for i in range(state.d):
        walk = _odd_closed_walk(state.n, state.minus_adj[i], state.plus_adj[i])
        if walk is not None:
            certificate = tuple(state.inst.ids[v] for v in walk)
            return Prune(rule="odd_cycle", dimension=i, certificate=certificate)
    return None


def branch_select(state: EdgeState, start: int = 0) -> tuple[int, int, int]:
    """The variable to branch on, as (position, dimension, pair index): the
    first undecided (dimension, pair) of `state.order`, which lists the
    pairs of `state.seq` in turn, each on its axes widest first (by
    (s_a + s_b)/cap_i, the lower axis first on ties). The order is built
    as scans reach its end, a doubling chunk of pairs at a time, so a
    search that ends early never ranks the axes of every pair. `start` is
    a position before which every variable is decided, such as the
    position chosen at an ancestor of this state on the search path; a
    scan from it returns what a scan from zero returns."""
    status, order = state.status, state.order
    while True:
        for pos in range(start, len(order)):
            i, pid = order[pos]
            if not status[i][pid]:
                return pos, i, pid
        start = len(order)
        if start == state.d * state.m:
            raise NoUndecided("no undecided pair to branch on")
        # the next pairs of `seq`, as many as are in the order already, and 8 more
        chunk = state.seq[start // state.d: 2 * start // state.d + 8]
        keys = sorted(
            (k, -(s[a] + s[b]) * unit, i)
            for i, (s, unit) in enumerate(zip(state.sizes, state.units))
            for k, (a, b) in enumerate([state.pairs[pid] for pid in chunk])
        )
        order += [(i, chunk[k]) for k, _, i in keys]


def _try_accept(state: EdgeState) -> tuple[Packing, PackingClass]:
    """The leaf extraction: on a fully decided state, a packing and the
    packing class the search closed on, the plus graphs, of which the
    packing's own overlap graphs are subgraphs (`SearchOutcome`).

    Per axis the minus graph, at a leaf the complement of the plus graph,
    is oriented transitively, and `packing_class._place` places the boxes
    by its longest paths (Gilmore-Hoffman) and validates the packing.
    Propagation leaves every fully decided state a packing class
    (`prune_check`), so on a search leaf this succeeds: no minus clique,
    hence no chain of the orientation, overflows its axis (P2), and every
    pair is minus, hence apart, on some axis (P3). Elsewhere it raises
    NotPackingClass when a minus graph has no transitive orientation, and
    InvalidPacking when the placement is no packing.
    """
    succs = []
    for i, minus in enumerate(state.minus_adj):
        succ = _transitive_orientation(state.n, minus)
        if succ is None:
            raise NotPackingClass(f"the minus graph of axis {i} has no transitive orientation")
        succs.append(succ)
    edge_sets = tuple(Graph._of_bitsets(state.inst.ids, plus) for plus in state.plus_adj)
    return _place(state.inst, succs), PackingClass(instance=state.inst, edge_sets=edge_sets)


def _bottom_left(
    sizes: Sequence[tuple[int, ...]], caps: Sequence[int], order: Sequence[int], deadline: Optional[float] = None
) -> Optional[list[tuple[int, tuple[int, ...]]]]:
    """Place the integer boxes `sizes`, each fitting the grid `caps` (as
    for `_cell_fill`), in `order`, each at its first free corner candidate
    (candidates sorted with the highest dimension varying slowest): 0 or a
    placed box's far side that leaves room. Placed boxes are flat tuples
    (lo0, hi0, lo1, hi1, ...) kept sorted, so in axis-0 order. Axes d-1..2
    loop over their candidates, keeping the placed boxes that overlap the
    new box there. Axis 1 hands each candidate span to the one axis-0 jump
    loop, which scans the kept boxes once, skips those that miss that
    span, starts at 0, jumps to the far side of each box that blocks it
    and stops at the first box that starts beyond its spot. No value
    inside a blocking span is free, and the span's far side is itself a
    candidate. A 1-D grid runs as a 2-D one of unit depth.

    A lower cap on the last axis only cuts that axis's candidate list, so
    a capped run places each box where the uncapped run does, until the
    first box whose uncapped spot crosses the cap: there it returns None.
    With a `deadline`, a run still going once it passes returns None too.
    """
    d = len(caps)
    if d == 1:
        sizes = [(*w, 1) for w in sizes]
        caps = (*caps, 1)
    cap0 = caps[0]
    far: list[list[int]] = [[] for _ in caps]  # distinct far sides per axis, sorted
    boxes: list[tuple[int, ...]] = []  # placed (lo0, hi0, lo1, hi1, ...), sorted
    placed: list[tuple[int, tuple[int, ...]]] = []

    def jump(kept: list, w0: int, v: int, top: int) -> Optional[list[int]]:
        """Axis-0 spot free of the kept boxes that meet [v, top) on axis 1."""
        x = 0
        for s in kept:
            if s[0] >= x + w0:  # so does every later box's lo
                break
            if x < s[1] and s[2] < top and v < s[3]:
                x = s[1]
                if x + w0 > cap0:  # x only grows
                    return None
        return [x]

    def first_free(i: int, kept: list, w: tuple[int, ...]) -> Optional[list[int]]:
        """Coordinates on axes 0..i (i >= 1) of the first corner free of `kept`."""
        axis = far[i]
        lo = 2 * i
        for v in (0, *axis[:bisect_right(axis, caps[i] - w[i])]):
            top = v + w[i]
            if i == 1:
                spot = jump(kept, w[0], v, top)
            else:
                spot = first_free(i - 1, [s for s in kept if s[lo] < top and v < s[lo + 1]], w)
            if spot is not None:
                spot.append(v)
                return spot
        return None

    last = max(d - 1, 1)
    for b in order:
        if deadline is not None and time.perf_counter() > deadline:
            return None
        w = sizes[b]
        spot = first_free(last, boxes, w)
        if spot is None:
            return None
        placed.append((b, tuple(spot[:d])))
        flat = []
        for axis, v, wi in zip(far, spot, w):
            hi = v + wi
            flat += (v, hi)
            if hi not in axis:
                insort(axis, hi)
        insort(boxes, tuple(flat))
    return placed


def _heuristic_orders(inst: Instance) -> Iterator[tuple[int, ...]]:
    """The distinct box orders `heuristic_pack` tries, in its sequence:
    volume, longest side, per-axis size, perimeter, each descending, ties
    by id; keys read off the instance's integer sizes, each key list
    built and sorted only when its order is asked for."""
    sizes = inst.int_sizes
    seen: set[tuple[int, ...]] = set()
    for key in (prod, max, *(itemgetter(i) for i in range(inst.d)), sum):
        order = tuple(b for _, _, b in sorted(zip([-key(s) for s in sizes], inst.ids, range(inst.n))))
        if order not in seen:
            seen.add(order)
            yield order


def heuristic_pack(inst: Instance, *, budget: Optional[_Budget] = None) -> Optional[Packing]:
    """Deterministic bottom-left packing attempt: `_bottom_left` puts each
    box at its first free corner, jumping along axis 0 past blocking boxes.

    The orders of `_heuristic_orders` are tried in turn; the first
    complete placement wins, and only its positions become `Fraction`s
    (`_placed_packing`). Incomplete: may return None for feasible
    instances. `solve_spp` runs the same orders once per solve as its
    upper bound, each capped one grid step below the top in hand. With a
    `budget`, the deadline is checked before every order after the first
    and every box: once it has passed the heuristic gives up.
    """
    deadline = None if budget is None else budget.deadline
    caps = [inst.int_container(i) for i in range(inst.d)]
    for k, order in enumerate(_heuristic_orders(inst)):
        if k and budget is not None and budget.expired():
            return None
        placed = _bottom_left(inst.int_sizes, caps, order, deadline)
        if placed is not None:
            return _placed_packing(inst, placed)
    return None


def _screen_tables(inst: Instance) -> tuple[list[int], list[int], int]:
    """The integer data of the volume/pair screen: per-box volumes, per-box
    bitsets of the boxes too wide to sit beside it on every axis, and the
    container volume."""
    too_wide = [reduce(int.__and__, column) for column in zip(*inst.int_too_wide)]
    volumes = [inst.int_volume(b) for b in range(inst.n)]
    return volumes, too_wide, inst.int_container_volume()


def _screen(mask: int, volumes: list[int], too_wide: list[int], capacity: int) -> bool:
    """Core of `quick_infeasible` over the box bitset `mask`."""
    total = 0
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        k = low.bit_length() - 1
        if too_wide[k] & mask:
            return True
        total += volumes[k]
    return total > capacity


def quick_infeasible(inst: Instance, S) -> bool:
    """Cheap sound screen: True only when the box set S provably cannot be
    packed (total volume exceeds the container, or some pair is too wide
    to sit side by side in every dimension)."""
    mask = 0
    for b in S:
        mask |= 1 << inst.index(b)
    return _screen(mask, *_screen_tables(inst))


class _Budget:
    """The node and time budget of one solve, shared by all its decisions:
    nodes left and an absolute deadline (None for no time limit)."""

    def __init__(self, limits: SearchLimits):
        if not isinstance(limits.max_nodes, Real) or not (
            limits.time_limit is None or isinstance(limits.time_limit, Real)
        ):
            raise InvalidLimits("search limits must be real numbers; only time_limit may be None")
        # NaN, the one value unequal to itself, would switch a limit off
        if limits.max_nodes != limits.max_nodes or limits.time_limit != limits.time_limit:
            raise InvalidLimits("search limits must not be NaN")
        self.start = time.perf_counter()
        self.nodes_left = limits.max_nodes
        self.deadline = None if limits.time_limit is None else self.start + limits.time_limit

    def expired(self) -> bool:
        return self.deadline is not None and time.perf_counter() >= self.deadline

    def spent(self) -> bool:
        return self.nodes_left <= 0 or self.expired()


def solve_opp(inst: Instance, limits: Optional[SearchLimits] = None) -> SearchOutcome:
    """Decide packability of the full box set: the volume/pair screen for
    a quick no, then `_decide` under one `_Budget` built from `limits`
    (`solve_okp` and `solve_spp` call `_decide` under the one budget of
    their solve, and screen no sub-problem twice). "feasible" always
    carries a packing that validates, "infeasible" is only returned once
    the search space is exhausted, and "resource_limit" once the node
    budget or the deadline is spent. A heuristic hit is projected to its
    packing class here; the reported wall time covers the whole call."""
    limits = limits or SearchLimits()
    budget = _Budget(limits)
    if quick_infeasible(inst, inst.ids):
        stats = SearchStats(prunes={"quick_infeasible": 1})
        stats.wall_time = time.perf_counter() - budget.start
        return SearchOutcome("infeasible", None, None, stats)
    outcome = _decide(inst, limits.use_heuristic, budget)
    if outcome.packing is not None and outcome.packing_class is None:  # a heuristic hit
        outcome.packing_class = project_to_class(outcome.packing, inst)
    outcome.stats.wall_time = time.perf_counter() - budget.start
    return outcome


def _decide(inst: Instance, use_heuristic: bool, budget: _Budget) -> SearchOutcome:
    """`solve_opp` after the screen; its nodes are charged to `budget`.

    The bottom-left heuristic for a quick yes, returned without a packing
    class: `solve_okp` reads only the packing, and `solve_opp` projects it
    itself (`solve_spp` runs the heuristic once as its bound, and its
    probes pass `use_heuristic=False`). Then the initial state, only while
    the deadline has not passed, and a depth-first search over edge
    decisions, run as one loop on an explicit stack: its depth is bounded
    by the number of (dimension, pair) variables, not by the call stack.
    Every dead end is a propagation conflict. The accept, `_try_accept`,
    runs only on fully decided states, the root too when it is one, and
    succeeds on every one (see `prune_check`). Each open node is one
    frame (trail mark, position in `state.order`, dimension, pair index,
    sign still to try, or 0): a child is entered by propagating its
    decision and left by undoing the trail to the frame's mark, and its
    `branch_select` scan starts at the frame's position, never at zero.
    `max_nodes` is a hard cap: no child is entered once the nodes charged
    reach it.
    """
    stats = SearchStats()
    # Read once; the node count, a local, is charged and written to `stats` on return.
    max_nodes, deadline = budget.nodes_left, budget.deadline

    def outcome(verdict: str, nodes: int, packing=None, pc=None) -> SearchOutcome:
        stats.nodes = stats.decisions = nodes
        budget.nodes_left -= nodes
        return SearchOutcome(verdict=verdict, packing=packing, packing_class=pc, stats=stats)

    if use_heuristic:
        packing = heuristic_pack(inst, budget=budget)
        if packing is not None:
            stats.bump("heuristic")
            return outcome("feasible", 0, packing)
    # Building the initial state can outlast a short time limit on many
    # boxes; the loop's first deadline check follows it.
    if budget.expired():
        return outcome("resource_limit", 0)
    state = initial_state(inst)
    if isinstance(state, ImmediateConflict):
        stats.bump("initial_conflict")
        return outcome("infeasible", 0)
    stats, trail = state.stats, state.trail
    stack: list[tuple[int, int, int, int, int]] = []  # the open nodes' frames
    nodes = 0
    while True:
        if deadline is not None and time.perf_counter() > deadline:
            return outcome("resource_limit", nodes)
        if state.undecided == 0:
            return outcome("feasible", nodes, *_try_accept(state))
        pos, i, pid = branch_select(state, stack[-1][1] if stack else 0)
        stack.append((len(trail), pos, i, pid, INCLUDE))
        # Enter the next child that propagates without conflict.
        while stack:
            mark, pos, i, pid, sign = stack.pop()
            if len(trail) > mark:  # else the undo is a no-op
                state.undo_to(mark)
            if sign:
                if nodes >= max_nodes:
                    return outcome("resource_limit", nodes)
                stack.append((mark, pos, i, pid, EXCLUDE if sign == INCLUDE else 0))
                nodes += 1
                if propagate(state, (i, pid, sign)) is None:
                    break
        else:
            return outcome("infeasible", nodes)
