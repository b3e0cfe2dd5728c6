import pytest
from hypothesis import given
from hypothesis import strategies as st

from cclose import Graph, graphio, path_graph

from helpers import (
    complete_graph,
    cycle_graph,
    pairwise_clique,
    random_graph,
    scattered_graphs,
    star_graph,
    validate_graph,
)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(range(n), [pair for pair, flag in zip(pairs, flags) if flag])


def test_construction_and_queries():
    g = Graph(range(4), [(0, 1), (1, 2)])
    assert g.n == 4 and g.m == 2
    assert g.vertex_ids == (0, 1, 2, 3)
    assert g.neighbors(1) == {0, 2}
    assert g.degree(3) == 0
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.edges() == [(0, 1), (1, 2)]


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Graph(range(2), [(1, 1)])
    with pytest.raises(ValueError, match="self-loop"):
        Graph([5]).with_edges([(5, 5)])


def test_edge_to_unknown_vertex_rejected():
    with pytest.raises(ValueError):
        Graph(range(2), [(0, 5)])


def test_remove_vertex_drops_incident_edges():
    g = complete_graph(3).without_vertices([0])
    assert g.vertex_ids == (1, 2)
    assert g.edges() == [(1, 2)]


def test_remove_isolated_vertex_keeps_edges():
    g = Graph(range(4), [(0, 1), (2, 3)]).without_vertices([1])
    assert g.edges() == [(2, 3)]


def test_remove_unknown_vertex_errors():
    with pytest.raises(ValueError):
        path_graph(3).without_vertices([7])


def test_vertex_ids_stable_across_deletions():
    g = path_graph(5).without_vertices([2])
    assert g.vertex_ids == (0, 1, 3, 4)
    assert g.has_edge(3, 4)


def test_mutations_return_new_values():
    g = path_graph(3)
    h = g.with_edges([(0, 2)])
    assert not g.has_edge(0, 2)
    assert h.has_edge(0, 2)


def test_induced_subgraph():
    g = cycle_graph(5).induced([0, 1, 2])
    assert g.edges() == [(0, 1), (1, 2)]


def test_components():
    g = Graph(range(5), [(0, 1), (2, 3)])
    assert g.components() == [frozenset({0, 1}), frozenset({2, 3}), frozenset({4})]


def test_two_color():
    left = cycle_graph(6).two_color()
    assert left == {0, 2, 4}
    assert cycle_graph(5).two_color() is None
    assert Graph(range(3)).two_color() == {0, 1, 2}


def test_clique_and_independent_predicates():
    g = complete_graph(4)
    assert g.is_clique([0, 1, 2])
    assert not g.is_independent_set([0, 1])
    assert star_graph(3).is_independent_set([1, 2, 3])


def test_fresh_id():
    assert Graph().fresh_id() == 0
    assert path_graph(3).fresh_id() == 3
    assert path_graph(5).without_vertices([4]).fresh_id() == 4


@given(graphs())
def test_adjacency_symmetric_after_mutations(g):
    validate_graph(g)
    if g.n:
        v = g.vertex_ids[0]
        validate_graph(g.without_vertices([v]))
    h = g.with_vertex(g.fresh_id())
    validate_graph(h)


@given(graphs(max_n=6), st.integers(0, 100))
def test_equality_is_structural(g, seed):
    clone = Graph(g.vertex_ids, g.edges())
    assert clone == g
    assert random_graph(g.n, 0.0, seed) == Graph(range(g.n)) or g.n >= 0


@given(st.integers(0, 2 ** 31), st.integers(0, 12), st.floats(0.0, 1.0))
def test_between_matches_the_sorted_edge_construction(seed, n, p):
    """``between`` equals the graph built from the sorted edges that cross
    the two sides, on non-contiguous ids, with vertices left out of both."""
    import random

    rng = random.Random(seed)
    ids = rng.sample(range(4 * n + 1), n)
    g = Graph(ids, [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:] if rng.random() < p])
    labels = {v: rng.choice("abx") for v in ids}
    a = {v for v in ids if labels[v] == "a"}
    b = {v for v in ids if labels[v] == "b"}
    reference = Graph(
        sorted(a | b),
        [(u, v) for u, v in g.edges() if (u in a) != (v in a) and {u, v} <= (a | b)],
    )
    sub = g.between(a, b)
    assert sub == reference
    validate_graph(sub)


def test_between_rejects_unknown_vertices_and_overlapping_sides():
    g = path_graph(4)
    with pytest.raises(ValueError, match="unknown vertex 9"):
        g.between({0}, {9})
    with pytest.raises(ValueError, match="overlap"):
        g.between({0, 1}, {1, 2})


def test_neighbors_returns_the_stored_row_itself():
    g = path_graph(4)
    row = g.neighbors(1)
    assert isinstance(row, frozenset) and row == {0, 2}
    assert g.neighbors(1) is row
    assert g.closed_neighborhood(1) == {0, 1, 2} and g.neighbors(1) == {0, 2}
    with pytest.raises(ValueError, match="unknown vertex 9"):
        g.neighbors(9)


def test_every_constructor_freezes_its_rows():
    built = [
        Graph(range(4), [(0, 1), (1, 2)]),
        graphio.parse_graph("p 3\ne 0 1\ne 1 2\n")[0],
        graphio.parse_graph("p 3\ne 1 0\n# not canonical\ne 2 1\n")[0],
    ]
    for g in built:
        assert all(type(row) is frozenset for row in g._adj.values())


def test_derived_graphs_share_untouched_rows():
    g = Graph(range(6), [(0, 1), (1, 2), (2, 3), (4, 5)])
    derived = {
        "with_vertices": (g.with_vertices([6, 7]), set()),
        "with_edges": (g.with_edges([(0, 2), (3, 0)]), {0, 2, 3}),
        "without_vertices": (g.without_vertices([1]), {0, 2}),
    }
    for name, (h, touched) in derived.items():
        for v in h.vertex_ids:
            assert type(h.neighbors(v)) is frozenset
            if g.has_vertex(v):
                shared = h.neighbors(v) is g.neighbors(v)
                assert shared == (v not in touched), (name, v)
        validate_graph(h)
    assert g == Graph(range(6), [(0, 1), (1, 2), (2, 3), (4, 5)])
    assert derived["with_edges"][0].neighbors(0) == {1, 2, 3}
    assert derived["without_vertices"][0].neighbors(2) == {3}
    assert g.with_vertex(9).neighbors(9) == frozenset()


def test_is_clique_edge_cases():
    g = Graph([2, 5, 7, 11], [(2, 5), (2, 7), (5, 7), (7, 11)])
    assert g.is_clique([]) and g.is_clique(iter(()))
    assert g.is_clique([7]) and g.is_clique(iter([7, 2, 5]))
    assert not g.is_clique([4])
    assert not g.is_clique([2, 5, 4]) and not g.is_clique([4, 2, 5])
    assert not g.is_clique([2, 2]) and not g.is_clique([7, 11, 7])
    assert not g.is_clique([2, 5, 11])


def test_is_independent_set_edge_cases():
    g = Graph([2, 5, 7, 11], [(2, 5), (2, 7), (5, 7), (7, 11)])
    assert g.is_independent_set([]) and g.is_independent_set(iter(()))
    assert g.is_independent_set([11, 2]) and g.is_independent_set(iter([5, 11]))
    assert g.is_independent_set([11, 11]) and g.is_independent_set([2, 11, 2])
    assert not g.is_independent_set([4]) and not g.is_independent_set([2, 4])
    assert not g.is_independent_set([2, 5]) and not g.is_independent_set([11, 7, 11])


@given(scattered_graphs())
def test_is_independent_set_agrees_with_the_pairwise_definition(case):
    g, vs = case
    expected = all(g.has_vertex(v) for v in vs) and not any(
        g.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]
    )
    assert g.is_independent_set(vs) == expected
    assert g.is_independent_set(iter(vs)) == expected


@given(scattered_graphs())
def test_is_clique_agrees_with_the_pairwise_definition(case):
    g, vs = case
    expected = pairwise_clique(g, vs)
    assert g.is_clique(vs) == expected
    assert g.is_clique(tuple(vs)) == expected
    assert g.is_clique(iter(vs)) == expected
    assert g.is_clique(frozenset(vs)) == pairwise_clique(g, set(vs))
    assert g.is_clique(()) and g.is_clique(frozenset())
    if vs and g.has_vertex(vs[0]):
        assert not g.is_clique(vs + vs[:1])  # a repeated member


@given(scattered_graphs(), st.sets(st.integers(0, 21)), st.sets(st.integers(0, 21)))
def test_no_row_holds_its_own_vertex(case, drop, add):
    g, _ = case
    drop = {v for v in drop if g.has_vertex(v)}
    grown = g.with_vertices(sorted(v for v in add if not g.has_vertex(v)))
    ids = grown.vertex_ids
    text = graphio.serialize_graph(g)
    built = [
        g,
        graphio.parse_graph(text)[0],  # the bulk parse of a canonical file
        graphio.parse_graph("# not canonical\n" + text)[0],  # the line parser
        grown,
        grown.with_edges((u, v) for u, v in zip(ids, reversed(ids)) if u < v),
        g.without_vertices(drop),
        g.induced(drop),
        g.between(drop, set(g.vertex_ids) - drop),
    ]
    for h in built:
        validate_graph(h)  # no row holds its own vertex, and rows are symmetric


@given(scattered_graphs())
def test_closed_neighborhood_counts_agree_with_the_per_vertex_definition(case):
    g, vs = case
    members = set(vs)
    for arg in (vs, iter(vs), frozenset(vs)):
        counts = g.closed_neighborhood_counts(arg)
        assert set(counts) <= set(g.vertex_ids)  # unknown ids count for nothing
        for x in g.vertex_ids:
            assert counts[x] == len(g.closed_neighborhood(x) & members)
    assert not g.closed_neighborhood_counts([])
