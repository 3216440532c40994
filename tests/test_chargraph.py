import random
from itertools import combinations

import pytest

from packclass.chargraph import (
    Dag,
    NotComparability,
    is_interval_graph,
    transitive_orientation,
)
from packclass.errors import TooLarge
from packclass.graph import Graph, complement
from packclass.oracle import oracle_is_comparability, oracle_is_interval

from certcheck import check_induced_c4, check_odd_2chordless_cycle
from graphgen import mask_to_edges, nonisomorphic_graphs, vertex_names
from graphtools import (
    enumerate_transitive_orientations,
    interval_model,
    is_transitive_orientation_of,
)
from test_graph import LONG_CLAW, complete_graph, cycle_graph, path_graph, random_interval_graph


def test_is_interval_graph_examples():
    res = is_interval_graph(cycle_graph(4))
    assert not res and check_induced_c4(cycle_graph(4), res.hole)
    assert res.complement_odd_cycle is None
    assert is_interval_graph(complete_graph(5)).is_interval
    assert is_interval_graph(path_graph(6)).is_interval
    # chordal, but its three leaf tips are an asteroidal triple: the
    # complement has no transitive orientation
    res = is_interval_graph(LONG_CLAW)
    assert not res and res.hole is None
    assert check_odd_2chordless_cycle(complement(LONG_CLAW), res.complement_odd_cycle)


def test_transitive_orientation_path():
    path = path_graph(3)
    dag = transitive_orientation(path)
    assert isinstance(dag, Dag)
    assert is_transitive_orientation_of(dag, path)
    # a path's two orientations point both edges at or away from the middle
    heads = {b for _, b in dag.arcs}
    assert heads in ({"v1"}, {"v0", "v2"})


def test_transitive_orientation_failures_carry_certificates():
    res = transitive_orientation(cycle_graph(5))
    assert isinstance(res, NotComparability)
    assert check_odd_2chordless_cycle(cycle_graph(5), res.certificate)
    # triangle with three pendant edges: no simple cycle beyond the
    # triangle, yet not a comparability graph; certificate is a closed walk
    net = Graph(
        "abcxyz",
        [("a", "b"), ("b", "c"), ("a", "c"), ("a", "x"), ("b", "y"), ("c", "z")],
    )
    res = transitive_orientation(net)
    assert isinstance(res, NotComparability)
    assert check_odd_2chordless_cycle(net, res.certificate)


def test_enumerate_orientations_counts():
    assert len(enumerate_transitive_orientations(Graph("ab", [("a", "b")]))) == 2
    assert len(enumerate_transitive_orientations(complete_graph(3))) == 6
    assert len(enumerate_transitive_orientations(Graph("abc"))) == 1  # empty graph
    assert len(enumerate_transitive_orientations(cycle_graph(5))) == 0


def test_enumerate_orientations_all_verify_and_contain_deterministic():
    rng = random.Random(4)
    for _ in range(30):
        G, _ = random_interval_graph(rng, rng.randint(1, 5))
        co = complement(G)
        dags = enumerate_transitive_orientations(co)
        for dag in dags:
            assert is_transitive_orientation_of(dag, co)
        found = transitive_orientation(co)
        assert isinstance(found, Dag)
        assert found in dags
        assert len(set(dags)) == len(dags)


def test_enumerate_orientations_cap_and_size_guard():
    K = complete_graph(4)
    assert len(enumerate_transitive_orientations(K, cap=5)) == 5
    with pytest.raises(TooLarge):
        enumerate_transitive_orientations(complete_graph(9))


def test_orientation_determinism():
    G = complete_graph(4)
    a = transitive_orientation(G)
    b = transitive_orientation(G)
    assert a == b


def test_recognition_equivalences_small_exhaustive():
    # Quick version of the exhaustive check (n <= 5); the full n <= 7 run
    # lives in the acceptance suite.
    for n in range(1, 6):
        names = vertex_names(n)
        for mask in nonisomorphic_graphs(n):
            G = Graph(names, mask_to_edges(mask, n))
            assert is_interval_graph(G).is_interval == oracle_is_interval(G)
            tro = transitive_orientation(G)
            ok = isinstance(tro, Dag)
            if ok:
                assert is_transitive_orientation_of(tro, G)
            assert ok == oracle_is_comparability(G)


def test_interval_graphs_are_cocomparability():
    rng = random.Random(5)
    for _ in range(40):
        G, _ = random_interval_graph(rng, rng.randint(1, 7))
        assert is_interval_graph(G).is_interval
        assert isinstance(transitive_orientation(complement(G)), Dag)


def test_interval_model_reproduces_adjacency():
    rng = random.Random(6)
    for _ in range(60):
        G, _ = random_interval_graph(rng, rng.randint(1, 8))
        model = interval_model(G)
        for (i, u), (j, v) in combinations(enumerate(G.vertices), 2):
            lo_i, hi_i = model[i]
            lo_j, hi_j = model[j]
            intersect = max(lo_i, lo_j) <= min(hi_i, hi_j)
            assert intersect == G.has_edge(u, v)
