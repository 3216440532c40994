import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from packclass.errors import NotInterval, PackclassError, TooLarge, UnknownVertex
from packclass.oracle import OracleConfig, oracle_is_interval
from packclass.graph import (
    Graph,
    _heaviest_chain,
    _interval_order,
    _max_clique,
    _odd_closed_walk,
    _transitive_orientation,
    bits,
    complement,
    find_odd_2chordless_cycle,
    induced,
    max_weight_clique,
    max_weight_stable_set_interval,
)

from certcheck import check_induced_c4, check_odd_2chordless_cycle
from graphtools import (
    find_induced_c4,
    is_triangulated,
    odd_closed_walk_by_arcs,
)


def cycle_graph(n):
    names = [f"v{i}" for i in range(n)]
    return Graph(names, [(names[i], names[(i + 1) % n]) for i in range(n)])


def complete_graph(n):
    names = [f"v{i}" for i in range(n)]
    return Graph(names, list(combinations(names, 2)))


def path_graph(n):
    names = [f"v{i}" for i in range(n)]
    return Graph(names, [(names[i], names[i + 1]) for i in range(n - 1)])


LONG_CLAW = Graph(
    ["c", "a1", "a2", "b1", "b2", "d1", "d2"],
    [("c", "a1"), ("a1", "a2"), ("c", "b1"), ("b1", "b2"), ("c", "d1"), ("d1", "d2")],
)


def random_graph(rng, n, p=0.5):
    names = [f"v{i}" for i in range(n)]
    edges = [e for e in combinations(names, 2) if rng.random() < p]
    return Graph(names, edges)


def random_interval_graph(rng, n):
    """Intersection graph of random closed integer intervals."""
    names = [f"v{i}" for i in range(n)]
    spans = {}
    for v in names:
        a, b = rng.randint(0, 9), rng.randint(0, 9)
        spans[v] = (min(a, b), max(a, b))
    edges = [
        (u, v)
        for u, v in combinations(names, 2)
        if max(spans[u][0], spans[v][0]) <= min(spans[u][1], spans[v][1])
    ]
    return Graph(names, edges), spans


def brute_max_weight_clique(G, w):
    best, best_set = Fraction(0), ()
    for r in range(len(G.vertices) + 1):
        for combo in combinations(G.vertices, r):
            if all(G.has_edge(a, b) for a, b in combinations(combo, 2)):
                weight = sum((Fraction(w[v]) for v in combo), Fraction(0))
                if weight > best:
                    best, best_set = weight, combo
    return best


def brute_max_weight_stable(G, w):
    best = Fraction(0)
    for r in range(len(G.vertices) + 1):
        for combo in combinations(G.vertices, r):
            if all(not G.has_edge(a, b) for a, b in combinations(combo, 2)):
                best = max(best, sum((Fraction(w[v]) for v in combo), Fraction(0)))
    return best


def test_complement_of_empty_is_complete():
    G = Graph("abc")
    H = complement(G)
    assert sorted(H.edges()) == [("a", "b"), ("a", "c"), ("b", "c")]


@given(st.integers(0, 2 ** 15 - 1))
def test_complement_is_involution(mask):
    names = [f"v{i}" for i in range(6)]
    pairs = list(combinations(names, 2))
    G = Graph(names, [p for k, p in enumerate(pairs) if mask >> k & 1])
    assert complement(complement(G)) == G


def test_induced_cases():
    tri = complete_graph(3)
    assert induced(tri, ["v0", "v1"]).edges() == [("v0", "v1")]
    assert induced(tri, tri.vertices) == tri
    assert induced(tri, []).n == 0
    with pytest.raises(UnknownVertex):
        induced(tri, ["nope"])


def test_find_induced_c4():
    assert find_induced_c4(cycle_graph(4)) is not None
    diamond = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")])
    assert find_induced_c4(diamond) is None
    # four edges forming a 4-cycle written out of order
    G = Graph(
        ["v1", "v2", "v3", "v4"],
        [("v1", "v2"), ("v3", "v4"), ("v4", "v1"), ("v2", "v3")],
    )
    cert = find_induced_c4(G)
    assert cert is not None and check_induced_c4(G, cert)
    assert set(cert) == {"v1", "v2", "v3", "v4"}


def test_find_induced_c4_touching_edge():
    C4 = cycle_graph(4)
    cert = find_induced_c4(C4, touching=("v1", "v2"))
    assert cert is not None and check_induced_c4(C4, cert)
    assert {"v1", "v2"} <= set(cert)
    # an edge not on any induced 4-cycle
    G = Graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "e")])
    assert find_induced_c4(G, touching=("a", "e")) is None


@pytest.mark.parametrize("n,found", [(5, True), (3, False), (7, True)])
def test_odd_2chordless_cycles(n, found):
    G = cycle_graph(n)
    cert = find_odd_2chordless_cycle(G)
    assert (cert is not None) == found
    if cert is not None:
        assert check_odd_2chordless_cycle(G, cert)


def test_odd_cycle_certificates_validate_on_random_graphs():
    rng = random.Random(3)
    hits = 0
    for _ in range(200):
        G = random_graph(rng, rng.randint(4, 7))
        cert = find_odd_2chordless_cycle(G)
        if cert is not None:
            hits += 1
            assert check_odd_2chordless_cycle(G, cert)
    assert hits > 10


def test_is_triangulated():
    assert not is_triangulated(cycle_graph(4))
    assert is_triangulated(path_graph(6))
    assert is_triangulated(LONG_CLAW)
    assert not is_triangulated(cycle_graph(6))


def test_max_weight_clique_examples():
    tri = complete_graph(3)
    w, members = max_weight_clique(tri, {"v0": 1, "v1": 2, "v2": 3})
    assert w == 6 and set(members) == {"v0", "v1", "v2"}
    empty = Graph("ab")
    w, members = max_weight_clique(empty, {"a": 5, "b": 7})
    assert w == 7 and members == ("b",)
    with pytest.raises(TooLarge):
        max_weight_clique(complete_graph(5), {f"v{i}": 1 for i in range(5)}, cap=4)


def test_float_weights_are_refused():
    # a float is not an exact rational: 0.1 would become 3602879701896397/2**55
    G = Graph("ab", [("a", "b")])
    with pytest.raises(PackclassError):
        max_weight_clique(G, {"a": 0.1, "b": 0.2})
    with pytest.raises(PackclassError):
        max_weight_stable_set_interval(G, lambda v: 0.5)
    assert max_weight_clique(G, {"a": Fraction(1, 10), "b": "1/5"})[0] == Fraction(3, 10)


def test_max_weight_clique_matches_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 8)
        G = random_graph(rng, n)
        w = {v: rng.randint(1, 9) for v in G.vertices}
        exact, members = max_weight_clique(G, w)
        assert exact == brute_max_weight_clique(G, w)
        assert all(G.has_edge(a, b) for a, b in combinations(members, 2))
        assert sum(w[v] for v in members) == exact


def test_mwss_interval_examples():
    path = path_graph(3)
    w, members = max_weight_stable_set_interval(path, {"v0": 2, "v1": 1, "v2": 2})
    assert w == 4 and set(members) == {"v0", "v2"}
    K = complete_graph(4)
    w, members = max_weight_stable_set_interval(K, {"v0": 1, "v1": 9, "v2": 3, "v3": 2})
    assert w == 9 and members == ("v1",)
    with pytest.raises(NotInterval):
        max_weight_stable_set_interval(cycle_graph(4), {f"v{i}": 1 for i in range(4)})
    # chordal, but its three leaves are an asteroidal triple
    with pytest.raises(NotInterval):
        max_weight_stable_set_interval(LONG_CLAW, dict.fromkeys(LONG_CLAW.vertices, 1))


def test_mwss_interval_matches_brute_force():
    rng = random.Random(13)
    for _ in range(60):
        G, _ = random_interval_graph(rng, rng.randint(1, 8))
        w = {v: rng.randint(1, 9) for v in G.vertices}
        exact, members = max_weight_stable_set_interval(G, w)
        assert exact == brute_max_weight_stable(G, w)
        assert all(not G.has_edge(a, b) for a, b in combinations(members, 2))
        assert sum(w[v] for v in members) == exact


def test_clique_stable_set_duality():
    rng = random.Random(14)
    for _ in range(40):
        H, _ = random_interval_graph(rng, rng.randint(1, 8))
        w = {v: rng.randint(1, 9) for v in H.vertices}
        clique_w, _ = max_weight_clique(complement(H), w)
        stable_w, _ = max_weight_stable_set_interval(H, w)
        assert clique_w == stable_w


def check_interval_witness(G, witness) -> bool:
    """An `_interval_order` witness by definition: an induced 4-cycle of
    G, or an odd 2-chordless cycle of its complement."""
    names = tuple(G.vertices[v] for v in witness)
    if len(names) == 4:
        return check_induced_c4(G, names)
    return check_odd_2chordless_cycle(complement(G), names)


def test_bitset_cores_match_oracle_and_brute_force():
    """The cores the search runs on raw bitsets: P1 (the complement's
    orientation as an interval order) against the definitional oracle,
    with each witness checked by definition, P2 (the heaviest chain of
    that orientation, with integer, Fraction and zero weights) and the
    clique search, with integer and Fraction weights and a vertex mask,
    against brute force."""
    rng = random.Random(15)
    config = OracleConfig(max_vertices=8)
    for _ in range(300):
        n = rng.randint(0, 8)
        G = random_graph(rng, n) if rng.random() < 0.5 else random_interval_graph(rng, n)[0]
        ints = [rng.randint(1, 9) for _ in range(n)]
        fracs = [Fraction(x, rng.randint(1, 5)) for x in ints]
        co, witness = _interval_order(n, G.adj)
        # an interval order exactly on interval graphs, and then it is the
        # complement's transitive orientation; else a witness
        assert (co is not None) == oracle_is_interval(G, config) == (witness is None)
        assert co is None or co == _transitive_orientation(n, complement(G).adj)
        assert co is not None or check_interval_witness(G, witness)
        # a chain of the complement's orientation is a stable set of G
        for weights in (ints, fracs, [0] * n) if co is not None else ():
            weight, mask = _heaviest_chain(co, weights)
            assert weight == brute_max_weight_stable(G, dict(zip(G.vertices, weights)))
            assert all(not G.adj[v] & mask for v in bits(mask))
            assert weight == sum(weights[v] for v in bits(mask))
        for weights in (ints, fracs):
            by_id = dict(zip(G.vertices, weights))
            weight, mask = _max_clique(G.adj, weights, (1 << n) - 1)
            assert weight == brute_max_weight_clique(G, by_id)
            assert all((G.adj[v] | 1 << v) & mask == mask for v in bits(mask))
            keep = rng.getrandbits(n) if n else 0
            sub = induced(G, G.names(keep))
            weight, _ = _max_clique(G.adj, weights, keep)
            assert weight == brute_max_weight_clique(sub, by_id)


def test_a_rejected_interval_order_holds_an_induced_4_cycle():
    """Wherever the complement has a transitive orientation that the
    chain test rejects, the returned witness is a 2+2 of that
    orientation, x above p but not q and y above q but not p, and
    p-q-x-y-p is an induced 4-cycle of the graph."""
    rng = random.Random(16)
    rejected = 0
    for k in range(600):
        n = rng.randint(4, 12)
        G = random_graph(rng, n, rng.random()) if k % 2 else random_interval_graph(rng, n)[0]
        co = _transitive_orientation(n, complement(G).adj)
        order, witness = _interval_order(n, G.adj)
        if co is None or order is not None:
            continue
        rejected += 1
        p, q, x, y = witness
        assert co[p] >> x & 1 and not co[q] >> x & 1
        assert co[q] >> y & 1 and not co[p] >> y & 1
        assert check_induced_c4(G, tuple(G.vertices[w] for w in witness))
    assert rejected >= 50, rejected


# sha256 of the repr of every `_odd_closed_walk` result below, in order,
# taken when the walk came to be read off the two parity paths of the BFS.
# A mismatch means the search returns different certificates.
PINNED_WALKS = "3575fd9ee50f88178e4e000d3d4d0374d5cc0d732b2d5cbf5a727ab2363ccf49"


def test_odd_closed_walks_pinned():
    """Random graphs (n <= 16) with two kinds of safe relation: all
    non-edges, the form `find_odd_2chordless_cycle` uses, and a random
    symmetric share of them, the form the search's odd-cycle rule uses
    with the plus graph."""
    rng = random.Random(2003)
    digest = hashlib.sha256()
    found = [0, 0]
    for k in range(1000):
        n = rng.randint(1, 16)
        G = random_graph(rng, n, rng.random())
        full = (1 << n) - 1
        safe = [(full ^ G.adj[v]) & ~(1 << v) for v in range(n)]
        if k % 2:
            share = rng.random()
            for a, b in combinations(range(n), 2):
                if safe[a] >> b & 1 and rng.random() >= share:
                    safe[a] &= ~(1 << b)
                    safe[b] &= ~(1 << a)
        walk = _odd_closed_walk(n, G.adj, safe)
        digest.update(repr(walk).encode())
        if walk is not None:
            found[k % 2] += 1
            length = len(walk)
            assert length % 2 == 1
            for j in range(length):
                u, v, w = walk[j], walk[(j + 1) % length], walk[(j + 2) % length]
                assert G.adj[u] >> v & 1 and (w == u or safe[u] >> w & 1)
    assert min(found) > 50
    assert digest.hexdigest() == PINNED_WALKS


def linked_edges_bipartite(n, walk_adj, safe):
    """By definition: do the walk edges {u, v} with a step (u, v) -> (v, w),
    w != u, or (v, u) -> (u, w), w != v, form a bipartite graph?"""
    linked = {v: set() for v in range(n)}
    for u in range(n):
        for v in bits(walk_adj[u]):
            if any(safe[u] >> w & 1 for w in bits(walk_adj[v]) if w != u):
                linked[u].add(v)
                linked[v].add(u)
    colour = {}
    for root in range(n):
        if root in colour:
            continue
        colour[root] = 0
        queue = [root]
        for u in queue:
            for v in linked[u]:
                if v not in colour:
                    colour[v] = 1 - colour[u]
                    queue.append(v)
                elif colour[v] == colour[u]:
                    return False
    return True


def test_odd_closed_walk_early_exit_matches_full_search():
    """`_odd_closed_walk` equals the parity search over a numbered arc
    table on random graphs (n 0-12) in both input forms: complement safe
    sets, as `find_odd_2chordless_cycle` passes them, and disjoint minus
    (walk) and plus (safe) sets, as `prune_check` passes them. It finds no
    walk when the linked edges form a bipartite graph, where it once
    exited early. In each form each outcome occurs: linked edges
    bipartite, a search finding nothing otherwise, and a walk."""
    rng = random.Random(2027)
    outcomes = {}
    for k in range(3000):
        n = rng.randint(0, 12)
        full = (1 << n) - 1
        if k % 2:
            G = random_graph(rng, n, rng.random())
            walk_adj = list(G.adj)
            safe = [(full ^ walk_adj[v]) & ~(1 << v) for v in range(n)]
        else:
            p_minus, p_plus = rng.random() * 0.6, rng.random() * 0.6
            walk_adj, safe = [0] * n, [0] * n
            for a, b in combinations(range(n), 2):
                r = rng.random()
                rel = walk_adj if r < p_minus else safe if r < p_minus + p_plus else None
                if rel is not None:
                    rel[a] |= 1 << b
                    rel[b] |= 1 << a
        walk = _odd_closed_walk(n, walk_adj, safe)
        assert walk == odd_closed_walk_by_arcs(n, walk_adj, safe), k
        bipartite = linked_edges_bipartite(n, walk_adj, safe)
        assert walk is None or not bipartite, k
        outcome = "walk" if walk is not None else "linked bipartite" if bipartite else "searched, none"
        key = ("complement" if k % 2 else "disjoint", outcome)
        outcomes[key] = outcomes.get(key, 0) + 1
    assert len(outcomes) == 6 and min(outcomes.values()) >= 50, outcomes


def test_max_clique_with_a_floor():
    """Above the floor, `_max_clique` returns the same (weight, mask) as
    without one; at or below it, (floor, 0), among others when all of `P`
    together weighs no more than the floor. A single vertex in `P` is the
    heaviest clique, returned above the floor, and an empty `P` weighs 0,
    also against a negative floor."""
    rng = random.Random(2028)
    above = below = hopeless = 0
    for _ in range(600):
        n = rng.randint(0, 10)
        G = random_graph(rng, n, rng.random())
        weights = [rng.randint(1, 9) for _ in range(n)]
        if rng.random() < 0.5:
            weights = [Fraction(x, rng.randint(1, 4)) for x in weights]
        P = rng.getrandbits(n) if n and rng.random() < 0.3 else (1 << n) - 1
        exact = _max_clique(G.adj, weights, P)
        total = sum(weights[v] for v in bits(P))
        floor = rng.choice((0, exact[0] - 1, exact[0], exact[0] + Fraction(1, 2), rng.randint(0, 20), total))
        weight, mask = _max_clique(G.adj, weights, P, floor)
        if exact[0] > floor:
            above += 1
            assert (weight, mask) == exact
        else:
            below += 1
            hopeless += total <= floor
            assert (weight, mask) == (floor, 0)
    assert above > 150 and below > 150 and hopeless > 50, (above, below, hopeless)
    for _ in range(100):
        n = rng.randint(1, 10)
        G = random_graph(rng, n, rng.random())
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
        v = rng.randrange(n)
        assert _max_clique(G.adj, weights, 1 << v) == (weights[v], 1 << v)
        for floor in (-1, 0, weights[v] - 1, weights[v] - Fraction(1, 8), weights[v], weights[v] + 1):
            expected = (weights[v], 1 << v) if weights[v] > floor else (floor, 0)
            assert _max_clique(G.adj, weights, 1 << v, floor) == expected, (weights[v], floor)
        assert _max_clique(G.adj, weights, 0, -1) == (0, 0)
        assert _max_clique(G.adj, weights, 0, weights[v]) == (weights[v], 0)


def test_complete_graphs_orient_in_index_order():
    """A complete graph comes back in index order, u -> v for every v > u,
    which is transitive; with one edge taken away the graph goes through
    the implication classes and still gets a transitive orientation of
    exactly its edges."""
    for n in range(71):
        full = (1 << n) - 1
        complete = [full ^ (1 << v) for v in range(n)]
        succ = _transitive_orientation(n, complete)
        assert succ == [sum(1 << v for v in range(u + 1, n)) for u in range(n)], n
        assert all(not succ[v] & ~succ[u] for u in range(n) for v in bits(succ[u])), n
        if n >= 3:
            cut = list(complete)
            cut[0] ^= 1 << n - 1
            cut[n - 1] ^= 1
            succ = _transitive_orientation(n, cut)
            assert succ is not None, n
            assert [succ[v] | sum(1 << u for u in range(n) if succ[u] >> v & 1) for v in range(n)] == cut, n
            assert all(not succ[v] & ~succ[u] for u in range(n) for v in bits(succ[u])), n
