"""Definitional validators for search certificates.

These re-check every witness from first principles (plain adjacency-set
arithmetic), independent of the code that produced it.
"""

from packclass.graph import Graph


def _nbrs(G: Graph):
    out = {v: set() for v in G.vertices}
    for a, b in G.edges():
        out[a].add(b)
        out[b].add(a)
    return out


def check_induced_c4(G: Graph, cert) -> bool:
    a, b, c, d = cert
    nbrs = _nbrs(G)
    cycle = [(a, b), (b, c), (c, d), (d, a)]
    chords = [(a, c), (b, d)]
    return (
        len({a, b, c, d}) == 4
        and all(y in nbrs[x] for x, y in cycle)
        and all(y not in nbrs[x] for x, y in chords)
    )


def check_odd_2chordless_cycle(G: Graph, cert) -> bool:
    """Closed walk: odd length >= 5, consecutive vertices adjacent, and
    every vertex two steps later is either the same vertex or non-adjacent."""
    k = len(cert)
    if k < 5 or k % 2 == 0:
        return False
    nbrs = _nbrs(G)
    for i in range(k):
        if cert[(i + 1) % k] not in nbrs[cert[i]]:
            return False
        two = cert[(i + 2) % k]
        if two != cert[i] and two in nbrs[cert[i]]:
            return False
    return True

