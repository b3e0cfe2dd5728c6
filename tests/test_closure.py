import pytest
from hypothesis import given
from hypothesis import strategies as st

from cclose import (
    Bipartition,
    Coloring,
    Graph,
    Instance,
    Problem,
    compute_closure,
    disjoint_cliques,
    is_c_closed,
    kernelize_bipartite_bwds,
    kernelize_bwtds,
    kernelize_ds,
    kernelize_im,
    kernelize_im_bipartite,
    kernelize_irs,
    kernelize_is,
    maximal_cliques,
    path_graph,
)
from cclose.closure import common_neighborhood

from helpers import (
    closure_by_matrix,
    complete_graph,
    cycle_graph,
    pair_scan_closure,
    random_graph,
    star_graph,
)


def test_common_neighbors_examples():
    c4 = cycle_graph(4)
    assert common_neighborhood(c4, (0, 2)) == {1, 3}
    assert common_neighborhood(Graph(range(2)), (0, 1)) == frozenset()
    k4 = complete_graph(4)
    assert common_neighborhood(k4, (0, 1)) == {2, 3}


def test_common_neighborhood_examples():
    c4 = cycle_graph(4)
    assert common_neighborhood(c4, [0, 2]) == {1, 3}
    assert common_neighborhood(c4, [0, 1]) == frozenset()
    assert common_neighborhood(c4, [1]) == {0, 2}
    assert common_neighborhood(c4.without_vertices([3]), []) == {0, 1, 2}
    assert common_neighborhood(Graph(), []) == frozenset()


def test_compute_closure_examples():
    assert compute_closure(disjoint_cliques(3, 4)).c == 1
    report = compute_closure(cycle_graph(4))
    assert report.c == 3 and report.witness_pair == (0, 2)
    assert compute_closure(path_graph(4)).c == 2


def test_closure_of_tiny_and_complete_graphs():
    assert compute_closure(Graph()).c == 1
    assert compute_closure(Graph(range(1))).c == 1
    assert compute_closure(complete_graph(6)).c == 1


def test_is_c_closed_examples():
    assert is_c_closed(complete_graph(5), 1)
    assert not is_c_closed(cycle_graph(4), 2)
    assert is_c_closed(cycle_graph(4), 3)
    assert is_c_closed(Graph(), 1)
    with pytest.raises(ValueError):
        is_c_closed(Graph(), 0)


@given(st.integers(0, 2 ** 31), st.integers(2, 14))
def test_closure_matches_matrix_oracle(seed, n):
    g = random_graph(n, 0.4, seed)
    assert compute_closure(g).c == closure_by_matrix(g)


@given(
    st.integers(0, 2 ** 31),
    st.integers(0, 16),
    st.floats(0, 1),
    st.lists(st.integers(0, 15), max_size=5),
)
def test_closure_matches_pair_scan(seed, n, p, removed):
    g = random_graph(n, p, seed).without_vertices({v for v in removed if v < n})
    c, pair = pair_scan_closure(g)
    report = compute_closure(g)
    assert (report.c, report.witness_pair) == (c, pair)
    for bound in range(1, g.n + 2):
        assert is_c_closed(g, bound) == (c <= bound)


def test_closure_makes_one_neighbors_call_per_vertex(monkeypatch):
    g = random_graph(200, 0.03, 5)
    calls = 0
    original = Graph.neighbors

    def counting(self, v):
        nonlocal calls
        calls += 1
        return original(self, v)

    monkeypatch.setattr(Graph, "neighbors", counting)
    c = compute_closure(g).c
    assert calls <= g.n
    for bound in (c - 1, c):
        calls = 0
        is_c_closed(g, bound)
        assert calls <= g.n


def test_closure_of_long_path():
    report = compute_closure(path_graph(5000))
    assert report.c == 2 and report.witness_pair == (0, 2)


@given(st.integers(0, 2 ** 31), st.integers(1, 12))
def test_closure_report_is_consistent(seed, n):
    g = random_graph(n, 0.5, seed)
    report = compute_closure(g)
    assert is_c_closed(g, report.c)
    if report.c > 1:
        assert not is_c_closed(g, report.c - 1)
        u, v = report.witness_pair
        assert not g.has_edge(u, v)
        assert len(common_neighborhood(g, (u, v))) == report.c - 1


@given(st.integers(0, 2 ** 31), st.integers(1, 10), st.integers(1, 5))
def test_monotone_in_c(seed, n, c):
    g = random_graph(n, 0.5, seed)
    if is_c_closed(g, c):
        assert is_c_closed(g, c + 1)


@given(st.integers(0, 2 ** 31), st.integers(1, 12))
def test_vertex_removal_never_raises_closure(seed, n):
    g = random_graph(n, 0.45, seed)
    c = compute_closure(g).c
    for v in g.vertex_ids:
        assert compute_closure(g.without_vertices([v])).c <= c


@given(st.integers(0, 2 ** 31), st.integers(2, 10))
def test_clique_outside_intersection_observation(seed, n):
    g = random_graph(n, 0.5, seed)
    c = compute_closure(g).c
    for clique in maximal_cliques(g):
        members = set(clique)
        for v in g.vertex_ids:
            if v not in members:
                assert len(members & g.neighbors(v)) < c


class TestClosureMemo:
    def test_is_c_closed_reads_the_memo_without_scanning(self, monkeypatch):
        g = random_graph(30, 0.3, 1)
        c = compute_closure(g).c
        assert c >= 2
        calls = []
        original = Graph.neighbors

        def counted(self, v):
            calls.append(v)
            return original(self, v)

        monkeypatch.setattr(Graph, "neighbors", counted)
        assert is_c_closed(g, c) and is_c_closed(g, c + 1)
        assert not is_c_closed(g, c - 1)
        assert calls == []

    def test_first_check_fills_the_memo(self, monkeypatch):
        expected = compute_closure(random_graph(20, 0.3, 2))
        assert expected.c >= 2
        # The first check fills the memo whether it passes or fails.
        graphs = [random_graph(20, 0.3, 2), random_graph(20, 0.3, 2)]
        assert all(g._closure is None for g in graphs)
        assert is_c_closed(graphs[0], expected.c)
        assert not is_c_closed(graphs[1], expected.c - 1)
        assert all(g._closure == expected for g in graphs)
        calls = []
        original = Graph.neighbors

        def counted(self, v):
            calls.append(v)
            return original(self, v)

        monkeypatch.setattr(Graph, "neighbors", counted)
        for g in graphs:
            assert is_c_closed(g, expected.c) and not is_c_closed(g, expected.c - 1)
        assert calls == []
        monkeypatch.undo()
        g = graphs[0]
        derived = [g.with_vertex(100), g.without_vertices([0]), g.induced([0, 1, 2, 3])]
        assert all(h._closure is None for h in derived)

    def test_derived_graphs_carry_no_memo(self):
        g = random_graph(12, 0.4, 3)
        compute_closure(g)
        assert g._closure is not None
        u, v = next(
            (u, v) for u in g.vertex_ids for v in g.vertex_ids if u < v and not g.has_edge(u, v)
        )
        derived = [
            g.with_vertex(100),
            g.with_vertices([100, 101]),
            g.with_edges([(u, v)]),
            g.without_vertices([0, 1]),
            g.induced([0, 1, 2, 3]),
        ]
        assert all(h._closure is None for h in derived)
        assert g == Graph(g.vertex_ids, g.edges())

    def test_kernels_still_reject_a_c_below_the_memoized_closure(self):
        g = random_graph(12, 0.4, 4)
        c = compute_closure(g).c
        assert c >= 2
        bw = Instance(problem=Problem.BW_TDS, graph=g, k=2, r=1, coloring=Coloring())
        calls = [
            lambda: kernelize_is(Instance(problem=Problem.IS, graph=g, k=2), c - 1),
            lambda: kernelize_ds(Instance(problem=Problem.DS, graph=g, k=2), c - 1),
            lambda: kernelize_bwtds(bw, c - 1),
            lambda: kernelize_im(Instance(problem=Problem.IM, graph=g, k=2), c - 1),
            lambda: kernelize_irs(Instance(problem=Problem.IRS, graph=g, k=2), c - 1),
        ]
        cycle = cycle_graph(6)
        assert compute_closure(cycle).c == 2
        parts = Bipartition(frozenset({0, 2, 4}))
        bw_cycle = Instance(problem=Problem.BW_TDS, graph=cycle, k=2, r=1, coloring=Coloring())
        calls += [
            lambda: kernelize_bipartite_bwds(bw_cycle, parts, 1),
            lambda: kernelize_im_bipartite(
                Instance(problem=Problem.IM, graph=cycle, k=2), parts, mode="closure", c=1
            ),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="not c-closed"):
                call()


def _relabeled(seed, n, shape, p):
    """A graph on n non-contiguous ids: G(n, p), complete or edgeless."""
    import random

    rng = random.Random(seed)
    ids = rng.sample(range(4 * n + 1), n)
    if shape == "complete":
        edges = [(u, v) for i, u in enumerate(ids) for v in ids[:i]]
    elif shape == "edgeless":
        edges = []
    else:
        edges = [(u, v) for i, u in enumerate(ids) for v in ids[:i] if rng.random() < p]
    return Graph(ids, edges)


class TestWedgeTally:
    """One tally of wedges by middle vertex, or, past ``closure.TALLY_BATCH``
    wedges, one tally per vertex; at most that many pair counts at once."""

    @pytest.mark.parametrize("batch", [None, 1, 2, 7, 40])
    @given(
        st.integers(0, 2 ** 31),
        st.integers(0, 16),
        st.sampled_from(["random", "random", "complete", "edgeless"]),
        st.floats(0, 1),
    )
    def test_matches_pair_scan(self, batch, seed, n, shape, p):
        from unittest import mock

        from cclose import closure

        g = _relabeled(seed, n, shape, p)
        size = closure.TALLY_BATCH if batch is None else batch
        with mock.patch.object(closure, "TALLY_BATCH", size):
            report = compute_closure(g)
        assert (report.c, report.witness_pair) == pair_scan_closure(g)

    @pytest.mark.parametrize("batch", [1, 2, 7, 40])
    @given(st.integers(0, 2 ** 31), st.integers(0, 16), st.floats(0, 1))
    def test_head_tallies_are_exact_bounded_and_ascending(self, batch, seed, n, p):
        from unittest import mock

        from cclose import closure

        g = _relabeled(seed, n, "random", p)
        for u in g.vertex_ids:
            with mock.patch.object(closure, "TALLY_BATCH", batch):
                tallies = [sorted(counts.items()) for counts in closure._head_tallies(g._adj, u)]
            assert all(len(t) <= batch for t in tallies)
            above = [[(v, k) for v, k in t if v > u] for t in tallies]
            merged = [item for t in above for item in t]
            assert merged == sorted(merged)
            assert len({v for v, _ in merged}) == len(merged)
            expected = [
                (v, k)
                for v in sorted(g.vertex_ids)
                if v > u and (k := len(g.neighbors(u) & g.neighbors(v)))
            ]
            assert merged == expected

    @pytest.mark.parametrize("batch", [1, 2, 7, 40, None])
    @given(st.integers(0, 2 ** 31), st.integers(0, 16), st.floats(0, 1))
    def test_one_bounded_tally_is_live_at_a_time(self, batch, seed, n, p):
        # Every Counter the scan builds holds at most one batch of counts,
        # and each is gone before the next is built.
        import weakref
        from collections import Counter
        from unittest import mock

        from cclose import closure

        built = []

        class Tracked(Counter):
            def __init__(self, *args):
                assert all(ref() is None for ref in built)
                super().__init__(*args)
                assert len(self) <= closure.TALLY_BATCH
                built.append(weakref.ref(self))

        g = _relabeled(seed, n, "random", p)
        size = closure.TALLY_BATCH if batch is None else batch
        with mock.patch.object(closure, "TALLY_BATCH", size), mock.patch.object(
            closure, "Counter", Tracked
        ):
            report = compute_closure(g)
        assert (report.c, report.witness_pair) == pair_scan_closure(g)

    @pytest.mark.parametrize(
        "shape, expected", [("theta", (2001, (0, 1))), ("star", (2, (1, 2)))]
    )
    def test_hub_graphs_cost_about_one_pass_over_the_edges(self, monkeypatch, shape, expected):
        # Each has millions of wedges, but once the first pairs set the best
        # count every other vertex has too small a degree to beat it.
        from collections import Counter

        from cclose import closure, theta_graph

        g = theta_graph(2000) if shape == "theta" else star_graph(3000)
        visited = []

        class Tracked(Counter):
            def __init__(self, *args):
                super().__init__(*args)
                visited.append(sum(self.values()))

        monkeypatch.setattr(closure, "Counter", Tracked)
        report = compute_closure(g)
        assert (report.c, report.witness_pair) == expected
        assert sum(visited) <= 4 * g.m

    def test_memory_stays_bounded_past_one_batch(self, monkeypatch):
        # K_{2,600}: 359,700 wedges and 179,701 distinct pairs, far more than
        # one batch; the scan's peak stays within one batch's worth.
        import tracemalloc
        from collections import Counter

        from cclose import closure

        leaves = 600
        g = Graph(range(leaves + 2), [(h, 2 + i) for h in (0, 1) for i in range(leaves)])

        def peak(run):
            tracemalloc.start()
            try:
                result = run()
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _, one_batch = peak(lambda: Counter((i, i + 1) for i in range(closure.TALLY_BATCH)))
        report, batched = peak(lambda: compute_closure(Graph._from_adj(g._adj)))
        assert (report.c, report.witness_pair) == (leaves + 1, (0, 1))
        monkeypatch.setattr(closure, "TALLY_BATCH", 10 ** 9)
        report, whole = peak(lambda: compute_closure(Graph._from_adj(g._adj)))
        assert (report.c, report.witness_pair) == (leaves + 1, (0, 1))
        assert batched < one_batch + 2 ** 20
        assert 2 * batched < whole
