import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclose import (
    Coloring,
    Decided,
    Graph,
    Instance,
    PreconditionError,
    Problem,
    Reduced,
    RuleRecord,
    compute_closure,
    extract_irs_witness,
    irs_thresholds,
    is_c_closed,
    is_irredundant,
    kernelize_irs,
    oracle_answer,
    path_graph,
    ramsey_threshold,
    validate_witness,
)
from cclose import kernel_irs
from cclose.instances import exhaust, replay, replay_removals
from cclose.kernel_irs import sweep_simplicial_twins

from helpers import (
    complete_graph,
    cycle_graph,
    oracle_yes,
    random_graph,
    restart_rr_simplicial_twin,
    scan_irs,
)


def make(g, k):
    return Instance(problem=Problem.IRS, graph=g, k=k)


class TestSimplicialTwin:
    def test_k3_collapses_to_single_vertex(self):
        inst = make(complete_graph(3), 1)
        while records := sweep_simplicial_twins(inst)[:1]:
            inst = replay(inst, records[0])
        assert inst.graph.n == 1
        assert oracle_answer(inst) == oracle_yes(Problem.IRS, complete_graph(3), 1)

    def test_p4_endpoints_not_twins(self):
        assert sweep_simplicial_twins(make(path_graph(4), 1))[:1] == []

    def test_pendant_leaves_on_same_vertex_are_not_twins(self):
        # Their closed neighborhoods differ, and removing one would actually
        # change the answer: the two leaves are an irredundant pair, but the
        # single survivor plus the center is not.
        g = Graph(range(3), [(0, 1), (0, 2)])
        assert scan_irs(g) == 2
        assert scan_irs(g.without_vertices([2])) == 1
        assert sweep_simplicial_twins(make(g, 2))[:1] == []

    def test_true_twins_with_shared_leaf(self):
        # 1 and 2 are adjacent simplicial vertices with equal closed
        # neighborhoods; removal keeps the answer
        g = Graph(range(3), [(0, 1), (0, 2), (1, 2)])
        [record] = sweep_simplicial_twins(make(g, 1))[:1]
        post = replay(make(g, 1), record)
        for k in range(3):
            assert oracle_yes(Problem.IRS, post.graph, k) == oracle_yes(Problem.IRS, g, k)


def twin_records(*pairs):
    return [
        RuleRecord(rule="RR16", vertices_removed=(v,), payload={"kept": u, "removed": v})
        for u, v in pairs
    ]


def cliques_on(*vertex_sets):
    return Graph(
        sorted(set().union(*vertex_sets)),
        [(u, v) for vs in vertex_sets for u in vs for v in vs if u < v],
    )


class TestSimplicialTwinSweep:
    """One pass over the simplicial vertices gives the records of restarting
    the pairwise RR16 scan after every removal."""

    @pytest.mark.parametrize(
        "g, pairs",
        [
            (complete_graph(5), [(0, 1), (0, 2), (0, 3), (0, 4)]),
            (Graph(range(4)), []),
            # disjoint cliques on interleaved ids: each keeps its smallest
            (
                cliques_on({1, 4, 9}, {0, 7}, {3, 5, 6, 8}),
                [(0, 7), (1, 4), (1, 9), (3, 5), (3, 6), (3, 8)],
            ),
            # K4 on 0..3 with the twins 4, 5 hanging off 0: 0 is not
            # simplicial, 1..3 and 4, 5 are two groups
            (cliques_on({0, 1, 2, 3}, {0, 4, 5}), [(1, 2), (1, 3), (4, 5)]),
            # the pendant leaves 4, 5 of 0 are not twins
            (cliques_on({0, 1, 2, 3}, {0, 4}, {0, 5}), [(1, 2), (1, 3)]),
        ],
        ids=["K5", "edgeless", "disjoint-cliques", "clique-with-pendant-twins", "pendant-leaves"],
    )
    def test_named_graphs(self, g, pairs):
        inst = make(g, 2)
        expected = exhaust(inst, [restart_rr_simplicial_twin])[1]
        assert expected == twin_records(*pairs)
        assert sweep_simplicial_twins(inst) == expected

    @settings(max_examples=300)
    @given(st.integers(0, 10 ** 6), st.integers(0, 13), st.floats(0.3, 0.97), st.booleans())
    def test_sweep_matches_restarting(self, seed, n, p, colored):
        # Dense graphs on scattered ids, as IRS or as BW-TDS with whites (the
        # rule reads the graph only; replaying restricts the coloring).
        rng = random.Random(seed)
        ids = rng.sample(range(200), n)
        g = Graph(ids, [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:] if rng.random() < p])
        if colored:
            white = Coloring(frozenset(v for v in ids if rng.random() < 0.4))
            inst = Instance(problem=Problem.BW_TDS, graph=g, k=2, r=1, coloring=white)
        else:
            inst = make(g, 2)
        post, trace, _ = exhaust(inst, [restart_rr_simplicial_twin])
        swept = sweep_simplicial_twins(inst)
        assert swept == trace
        assert replay_removals(inst, swept) == post

    def test_kernel_applies_the_sweep_in_one_removal(self, monkeypatch):
        # Three K4s and k = 2 (1-closed): nine twins go, and the graph is
        # copied once for all of them.
        g = cliques_on(set(range(4)), set(range(4, 8)), set(range(8, 12)))
        copies = []
        original = Graph.without_vertices

        def counted(self, vs):
            copies.append(tuple(vs))
            return original(self, vs)

        monkeypatch.setattr(Graph, "without_vertices", counted)
        out = kernelize_irs(make(g, 2), 1)
        assert isinstance(out, Reduced)
        assert out.trace == tuple(twin_records(*[(b, b + i) for b in (0, 4, 8) for i in (1, 2, 3)]))
        assert out.instance.graph == Graph([0, 4, 8])
        assert copies == [(1, 2, 3, 5, 6, 7, 9, 10, 11)]


class TestThresholds:
    def test_values(self):
        alpha_prime, alpha, total = irs_thresholds(1, 2)
        assert alpha_prime == 12 + 4 + 1
        assert alpha == ramsey_threshold(1, alpha_prime, 2)
        assert total == ramsey_threshold(1, alpha + 1, 2)

    def test_exact_three_halves_ceiling(self):
        # 6 * 2^(3/2) * 1 = 16.97..., so alpha' = 17 + 4 + 1
        alpha_prime, _, _ = irs_thresholds(2, 1)
        assert alpha_prime == 17 + 4 + 1


class TestKernelizeIrs:
    def test_k3_reduces_to_yes(self):
        out = kernelize_irs(make(complete_graph(3), 1), 1)
        assert isinstance(out, Decided) and out.answer

    def test_c4_below_threshold_reduced(self):
        out = kernelize_irs(make(cycle_graph(4), 2), 3)
        assert isinstance(out, Reduced)
        assert oracle_yes(Problem.IRS, out.instance.graph, 2)  # equivalent Yes survives

    def test_k0(self):
        out = kernelize_irs(make(path_graph(2), 0), 2)
        assert isinstance(out, Decided) and out.answer and out.witness.elements == frozenset()

    def test_big_independent_set_decides_yes_with_witness(self):
        _, _, total = irs_thresholds(1, 2)
        g = Graph(range(total))
        out = kernelize_irs(make(g, 2), 1)
        assert isinstance(out, Decided) and out.answer
        assert validate_witness(make(g, 2), out.witness)

    @settings(max_examples=120)
    @given(st.integers(0, 10 ** 6), st.integers(0, 9), st.integers(0, 3))
    def test_randomized_equivalence(self, seed, n, k):
        g = random_graph(n, 0.5, seed)
        c = compute_closure(g).c
        inst = make(g, k)
        expected = oracle_answer(inst)
        out = kernelize_irs(inst, c)
        if isinstance(out, Decided):
            assert out.answer == expected
            if out.answer:
                assert out.witness is not None and validate_witness(inst, out.witness)
        else:
            assert oracle_answer(out.instance) == expected
            _, _, total = irs_thresholds(c, k)
            assert out.instance.graph.n < total
            state = inst
            for record in out.trace:
                state = replay(state, record)
                assert is_c_closed(state.graph, c)
                assert oracle_answer(state) == expected
            assert state.graph == out.instance.graph


class TestExtraction:
    def test_requires_twin_freeness(self):
        with pytest.raises(PreconditionError):
            extract_irs_witness(complete_graph(3), 1, 1)

    def test_requires_size(self):
        with pytest.raises(PreconditionError):
            extract_irs_witness(Graph(range(3)), 1, 2)

    def test_independent_branch(self):
        _, _, total = irs_thresholds(1, 2)
        g = Graph(range(total))
        w = extract_irs_witness(g, 1, 2)
        assert len(w.elements) == 2

    def test_clique_branch_via_overrides(self, monkeypatch):
        # two big cliques joined by a perfect matching: 3-closed, twin-free,
        # no independent 3-set; forces the boundary-walk construction
        half = 83
        edges = [(i, j) for i in range(half) for j in range(i + 1, half)]
        edges += [(half + i, half + j) for i in range(half) for j in range(i + 1, half)]
        edges += [(i, half + i) for i in range(half)]
        g = Graph(range(2 * half), edges)
        assert compute_closure(g).c == 3
        monkeypatch.setattr(kernel_irs, "irs_thresholds", lambda c, k: (13, 27, 2 * half))
        w = extract_irs_witness(g, 3, 3)
        assert len(w.elements) == 3
        assert is_irredundant(g, w.elements)

    @settings(max_examples=30)
    @given(st.integers(0, 10 ** 6), st.integers(1, 2), st.integers(1, 2))
    def test_randomized_real_thresholds(self, seed, c, k):
        # graphs at the real threshold: random c-closed padding over a big
        # independent core so the threshold is reachable
        from helpers import random_c_closed_graph

        _, _, total = irs_thresholds(c, k)
        n = total + seed % 4
        g = random_c_closed_graph(n, c, 0.1, seed)
        inst = make(g, k)
        out = kernelize_irs(inst, c)
        if isinstance(out, Decided):
            assert out.answer == (oracle_yes(Problem.IRS, g, k) if g.n <= 16 else True)
            assert out.witness is not None and validate_witness(inst, out.witness)


class TestPrivacySemantics:
    def test_closed_vs_open_on_cliques(self):
        k5 = complete_graph(5)
        assert oracle_yes(Problem.IRS, k5, 1) and not oracle_yes(Problem.IRS, k5, 2)
        assert scan_irs(k5, open_privacy=True) == 2

    @given(st.integers(0, 10 ** 6), st.integers(0, 8))
    def test_open_at_least_closed(self, seed, n):
        g = random_graph(n, 0.5, seed)
        assert not oracle_yes(Problem.IRS, g, scan_irs(g, open_privacy=True) + 1)
