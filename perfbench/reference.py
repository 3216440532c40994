"""A fixed yardstick for how fast the host runs at the moment.

On a shared host, the speed a process gets can swing by half for
seconds to minutes while other tenants load it, and that moves every raw
timing of a run. The benchmark therefore runs this routine right before
each timed call and reports call times as multiples of it ("ref").

The routine is pure Python in the style of the engine's graph code: a
maximum clique of a fixed random graph by Bron-Kerbosch, on sets and
lists, with recursion and allocation. Its data is small and stays in
cache, so its time does not depend on what the previous call left there.
On a 2-vCPU shared VM it tracked the engine's slow phases better than a
memory-bound routine did (a pointer chase and dict probes over ten
megabytes): dividing by it cut the seed-to-seed spread of the summed call
times from 10-31 % to 2-9 %. It never touches packclass, so a change to
the engine moves the ratio in full. Raw seconds are still written to the
per-run record.
"""

from __future__ import annotations

import random
import time

_N, _P = 36, 0.3


def _graph() -> dict[int, frozenset[int]]:
    rng = random.Random(20031003)
    adj: dict[int, set[int]] = {v: set() for v in range(_N)}
    for a in range(_N):
        for b in range(a + 1, _N):
            if rng.random() < _P:
                adj[a].add(b)
                adj[b].add(a)
    return {v: frozenset(ns) for v, ns in adj.items()}


_ADJ = _graph()


def max_clique() -> list[int]:
    """A maximum clique of the fixed graph (Bron-Kerbosch with pivot)."""
    best: list[int] = []

    def expand(clique: list[int], cand: set[int], done: set[int]) -> None:
        if not cand and not done:
            if len(clique) > len(best):
                best[:] = clique
            return
        pivot = max(cand | done, key=lambda v: len(_ADJ[v] & cand))
        for v in sorted(cand - _ADJ[pivot]):
            expand(clique + [v], cand & _ADJ[v], done & _ADJ[v])
            cand = cand - {v}
            done = done | {v}

    expand([], set(_ADJ), set())
    return best


EXPECTED = max_clique()


def reference_s() -> float:
    """Seconds one run of the yardstick takes now."""
    start = time.perf_counter()
    result = max_clique()
    elapsed = time.perf_counter() - start
    if result != EXPECTED:
        raise RuntimeError("the yardstick gave another result")
    return elapsed
