import random
import sys
import threading
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclose import Graph, cliques_of_size, maximal_cliques
from cclose.cliques import _bron_kerbosch

from helpers import (
    brute_cliques_of_size,
    brute_maximal_cliques,
    clique_count_bound_holds,
    community_graphs,
    complete_graph,
    cycle_graph,
    pairwise_clique,
    random_c_closed_graph,
    random_graph,
)


def test_examples():
    assert maximal_cliques(complete_graph(3)) == [(0, 1, 2)]
    assert maximal_cliques(cycle_graph(4)) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert maximal_cliques(Graph(range(3))) == [(0,), (1,), (2,)]
    assert maximal_cliques(Graph()) == []


@given(st.integers(0, 2 ** 31), st.integers(0, 10))
def test_agrees_with_brute_force(seed, n):
    g = random_graph(n, 0.5, seed)
    assert maximal_cliques(g) == brute_maximal_cliques(g)


@settings(max_examples=25)
@given(st.integers(0, 2 ** 31), st.integers(11, 14))
def test_agrees_with_brute_force_larger(seed, n):
    g = random_graph(n, 0.4, seed)
    assert maximal_cliques(g) == brute_maximal_cliques(g)


@given(st.integers(0, 2 ** 31), st.integers(1, 11))
def test_structural_invariants(seed, n):
    g = random_graph(n, 0.5, seed)
    cliques = maximal_cliques(g)
    seen = set()
    covered = set()
    for clique in cliques:
        assert g.is_clique(clique)
        assert clique not in seen
        seen.add(clique)
        covered.update(clique)
    for a in cliques:
        for b in cliques:
            if a != b:
                assert not set(a) <= set(b)
    assert covered == set(g.vertex_ids)


def test_complete_graph_needs_no_deep_recursion():
    # A complete graph is 1-closed; Bron-Kerbosch goes one level deeper per
    # vertex of its one maximal clique.
    assert maximal_cliques(complete_graph(2000)) == [tuple(range(2000))]


@settings(max_examples=150)
@given(st.integers(0, 2 ** 31), st.integers(0, 12), st.floats(0.1, 0.95))
def test_size_bound_filters_the_full_listing(seed, n, p):
    # Scattered ids, so the bound is not read off a vertex id.
    g = random_graph(n, p, seed)
    ids = random.Random(seed).sample(range(100), n)
    g = Graph(ids, [(ids[u], ids[v]) for u, v in g.edges()])
    full = brute_maximal_cliques(g)
    for m in range(n + 2):
        assert maximal_cliques(g, m) == [q for q in full if len(q) >= m]
    # A second sweep answers from the memo, one entry per bound.
    assert sorted(g._cliques) == list(range(n + 2))
    for m in range(n + 2):
        assert maximal_cliques(g, m) == [q for q in full if len(q) >= m]


def networkx_maximal_cliques(g, min_size=0):
    """The maximal cliques with at least ``min_size`` vertices, listed by
    networkx, each sorted, in sorted order."""
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(g.vertex_ids)
    h.add_edges_from(g.edges())
    return sorted(tuple(sorted(q)) for q in nx.find_cliques(h) if len(q) >= min_size)


@settings(max_examples=60)
@given(st.integers(0, 2 ** 31), st.integers(0, 80), st.sampled_from([0.05, 0.15, 0.3, 0.5]))
def test_agrees_with_networkx_on_scattered_ids(seed, n, p):
    # Far past brute_maximal_cliques' reach; every bound from none to n + 1.
    rng = random.Random(seed)
    ids = rng.sample(range(10 * n + 1), n)
    g = Graph(ids, [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:] if rng.random() < p])
    full = networkx_maximal_cliques(g)
    for m in range(n + 2):
        assert maximal_cliques(g, m) == [q for q in full if len(q) >= m]
    for m in reversed(range(n + 2)):
        assert maximal_cliques(g, m) == [q for q in full if len(q) >= m]


def test_agrees_with_networkx_on_community_graphs():
    # RR2 lists the maximal cliques with at least c*k = 8 vertices there.
    for g in community_graphs(5, 40):
        assert maximal_cliques(g, 8) == networkx_maximal_cliques(g, 8)


def test_memo_answers_a_repeated_call_with_a_fresh_list(monkeypatch):
    g = random_graph(12, 0.5, 3)
    first = maximal_cliques(g, 2)
    listings = 0

    def counting(graph, min_size):
        nonlocal listings
        listings += 1
        return _bron_kerbosch(graph, min_size)

    monkeypatch.setattr("cclose.cliques._bron_kerbosch", counting)
    second = maximal_cliques(g, 2)
    assert second == first and second is not first
    expected = list(first)
    first.clear()
    second.append((99,))
    assert maximal_cliques(g, 2) == expected
    assert listings == 0
    assert maximal_cliques(g, 3) == [q for q in expected if len(q) >= 3]
    assert listings == 1
    assert sorted(g._cliques) == [2, 3]


def test_threads_sharing_a_graph_each_read_its_full_listing():
    # Filling the memo is a benign race: threads that list one graph at once
    # may each list it, and every one of them returns the whole listing.
    g = random_graph(30, 0.4, 5)
    expected = {m: _bron_kerbosch(g, m) for m in range(6)}
    results = []

    def worker():
        for m in range(6):
            results.append((m, maximal_cliques(g, m)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 48
    assert all(listing == expected[m] for m, listing in results)
    assert sorted(g._cliques) == list(range(6))


def test_size_bound_on_a_complete_graph_needs_no_deep_recursion():
    assert maximal_cliques(complete_graph(2000), 2000) == [tuple(range(2000))]
    assert maximal_cliques(complete_graph(2000), 2001) == []


def test_listing_a_sparse_graph_takes_memory_linear_in_its_size():
    # A perfect matching on 50,000 vertices: about 8 MiB at peak. Sets or
    # masks as wide as the whole graph per vertex would take n^2 bits,
    # over 300 MiB.
    n = 50_000
    g = Graph(range(n), [(v, v + 1) for v in range(0, n, 2)])
    tracemalloc.start()
    try:
        listed = maximal_cliques(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert listed == [(v, v + 1) for v in range(0, n, 2)]
    assert peak < 320 * n


def test_cliques_of_size_needs_no_deep_recursion():
    # The listing goes one level deeper per clique vertex; a recursive
    # version hits the recursion limit long before size 1500.
    assert cliques_of_size(complete_graph(1500), 1500) == [tuple(range(1500))]


def test_cliques_of_size():
    k4 = complete_graph(4)
    assert cliques_of_size(k4, 0) == [()]
    assert cliques_of_size(k4, 2) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert cliques_of_size(cycle_graph(4), 3) == []
    assert cliques_of_size(k4, 5) == []
    assert cliques_of_size(Graph([3, 7, 9]), 1) == [(3,), (7,), (9,)]
    assert cliques_of_size(Graph([3, 7, 9]), 2) == []
    with pytest.raises(ValueError):
        cliques_of_size(k4, -1)


@given(
    st.integers(0, 2 ** 31),
    st.integers(0, 12),
    st.sampled_from([0.3, 0.6, 0.9]),
    st.lists(st.integers(0, 11), max_size=4),
    st.integers(0, 6),
)
def test_cliques_of_size_agrees_with_brute_force(seed, n, p, removed, size):
    g = random_graph(n, p, seed).without_vertices({v for v in removed if v < n})
    assert cliques_of_size(g, size) == brute_cliques_of_size(g, size)


def test_cliques_of_size_certifies_only_listed_cliques(monkeypatch):
    rng = random.Random(7)
    planted = range(0, 40, 5)
    edges = {(u, v) for u in range(40) for v in range(u + 1, 40) if rng.random() < 0.15}
    edges |= {(u, v) for u in planted for v in planted if u < v}
    g = Graph(range(40), edges)
    calls = 0
    original = Graph.is_clique

    def counting(self, vertices):
        nonlocal calls
        calls += 1
        return original(self, vertices)

    monkeypatch.setattr(Graph, "is_clique", counting)
    listed = cliques_of_size(g, 4)
    assert len(listed) >= 70  # the planted 8-clique alone holds C(8, 4) = 70
    assert calls <= len(listed)
    monkeypatch.undo()
    assert listed == brute_cliques_of_size(g, 4)


@pytest.mark.parametrize(
    "rows, size",
    [
        ({0: {1}, 1: set()}, 2),  # 0's row lists 1, 1's row lacks 0
        ({0: {5}, 1: set()}, 2),  # 0's row lists a non-vertex
        ({0: {1, 2}, 1: {0, 2}, 2: {0}}, 3),  # the last pair of a triangle is one-sided
    ],
)
def test_cliques_of_size_raises_on_a_malformed_row(rows, size):
    g = Graph._from_adj({v: frozenset(row) for v, row in rows.items()})
    with pytest.raises(AssertionError):
        cliques_of_size(g, size)


def test_cliques_of_size_certifies_each_frame_once(monkeypatch):
    calls = 0
    original = Graph.is_clique

    def counting(self, vertices):
        nonlocal calls
        calls += 1
        return original(self, vertices)

    monkeypatch.setattr(Graph, "is_clique", counting)
    listed = cliques_of_size(complete_graph(8), 4)
    assert len(listed) == 70
    # The 4-cliques of K_8 come from frames on the C(8, 2) = 28 pairs at most.
    assert calls <= 28


def test_bound_examples():
    assert clique_count_bound_holds(complete_graph(10))
    assert clique_count_bound_holds(cycle_graph(4))


@given(st.integers(0, 2 ** 31))
def test_bound_on_random_graphs(seed):
    assert clique_count_bound_holds(random_graph(12, 0.5, seed))


@given(
    st.integers(0, 2 ** 31),
    st.integers(0, 10),
    st.sampled_from([0.2, 0.5, 0.8, 1.0]),
)
def test_cliques_of_size_agrees_with_the_subset_scan_on_scattered_ids(seed, n, p):
    rng = random.Random(seed)
    ids = rng.sample(range(3 * n + 1), n)
    g = Graph(ids, [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:] if rng.random() < p])
    for size in range(n + 2):
        expected = [combo for combo in combinations(sorted(ids), size) if pairwise_clique(g, combo)]
        assert cliques_of_size(g, size) == expected
