import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclose import (
    Bipartition,
    Decided,
    Graph,
    Instance,
    Problem,
    Reduced,
    Witness,
    compute_closure,
    disjoint_cliques,
    is_c_closed,
    kernelize_im,
    kernelize_im_bipartite,
    maximal_cliques,
    oracle_answer,
    path_graph,
    saturated_threshold,
    unrestricted_threshold,
    validate_witness,
    vclp_half_integral,
)
from cclose import kernel_im
from cclose.errors import ExtractionError
from cclose.generators import er_graph
from cclose.instances import lift, replay
from cclose.kernel_im import (
    partition_bound_violation,
    rr_leaf_rules,
    rr_lp_thresholds,
    rr_neighborhood_matching,
)

from helpers import (
    complete_graph,
    cycle_graph,
    lp_cost,
    oracle_yes,
    random_c_closed_graph,
    random_graph,
    reference_rr_leaf_rules,
    restart_kernelize_im,
    unpruned_rr_neighborhood_matching,
)


def make(g, k):
    return Instance(problem=Problem.IM, graph=g, k=k)


class TestRuleNeighborhoodMatching:
    def test_fires_on_big_neighborhood_matching(self):
        # c=1, k=1: v sees a matching of size 2 >= 2ck
        g = Graph(range(5), [(4, 0), (4, 1), (4, 2), (4, 3), (0, 1), (2, 3)])
        record = rr_neighborhood_matching(make(g, 1), 1)
        assert record is not None and record.vertices_removed == (4,)
        post = replay(make(g, 1), record)
        assert oracle_yes(Problem.IM, post.graph, 1) == oracle_yes(Problem.IM, g, 1)

    def test_triangle_free_no_op(self):
        assert rr_neighborhood_matching(make(cycle_graph(5), 1), 2) is None

    def test_no_large_clique_after_exhaustion(self):
        g = complete_graph(6)
        inst = make(g, 1)
        c = 1
        while True:
            record = rr_neighborhood_matching(inst, c)
            if record is None:
                break
            inst = replay(inst, record)
        largest = max((len(cl) for cl in maximal_cliques(inst.graph)), default=0)
        assert largest <= 4 * c * inst.k


    @settings(max_examples=150)
    @given(
        st.integers(0, 10 ** 6),
        st.integers(0, 14),
        st.floats(0.5, 0.95),
        st.integers(1, 2),
        st.integers(1, 2),
    )
    def test_degree_bound_matches_the_unpruned_scan(self, seed, n, p, c, k):
        # exhausting RR10 walks through neighborhoods just above and just
        # below the bound; every step must pick the same vertex and payload
        inst = make(random_graph(n, p, seed), k)
        while True:
            record = rr_neighborhood_matching(inst, c)
            assert record == unpruned_rr_neighborhood_matching(inst, c)
            if record is None:
                break
            inst = replay(inst, record)

    def test_degree_bound_scan_fires_on_dense_graphs(self):
        fired = 0
        for seed in range(20):
            inst = make(random_graph(12, 0.8, seed), 1)
            record = rr_neighborhood_matching(inst, 1)
            assert record == unpruned_rr_neighborhood_matching(inst, 1)
            fired += record is not None
        assert fired >= 10

    def test_degree_bound_skips_blossom_on_a_sparse_graph(self, monkeypatch):
        # need = 2ck = 18, so only degree >= 36 is scanned; G(300, 0.02) has none
        calls = []
        original = kernel_im.max_matching_general

        def counted(g):
            calls.append(g.n)
            return original(g)

        monkeypatch.setattr(kernel_im, "max_matching_general", counted)
        assert rr_neighborhood_matching(make(er_graph(300, 0.02, seed=1), 3), 3) is None
        assert calls == []


class TestLpThresholdRules:
    def test_no_op_on_desk_scale(self):
        g = random_graph(10, 0.5, 3)
        inst = make(g, 2)
        c = max(compute_closure(g).c, 2)
        p = vclp_half_integral(g)
        assert rr_lp_thresholds(inst, c, p) is None

    def test_vhalf_override_extracts_witness(self, monkeypatch):
        # seven disjoint edges sit below the real threshold (18 at c=2, k=1)
        # but the lowered one still leaves enough matching for extraction
        b = 7
        real = kernel_im._lp_bounds
        monkeypatch.setattr(kernel_im, "_lp_bounds", lambda c, k: (2 * b, real(c, k)[1]))
        g = Graph(range(2 * b), [(2 * i, 2 * i + 1) for i in range(b)])
        inst = make(g, 1)
        p = vclp_half_integral(g)
        assert len(p.v_half) == 2 * b
        witness = rr_lp_thresholds(inst, 2, p)
        assert witness is not None and validate_witness(inst, witness)

    def test_vone_override_extracts_witness(self, monkeypatch):
        # stars make V_1 the centers; crown matching feeds the saturated chain
        centers = 6
        real = kernel_im._lp_bounds
        monkeypatch.setattr(kernel_im, "_lp_bounds", lambda c, k: (real(c, k)[0], centers))
        edges = []
        nxt = centers
        for hub in range(centers):
            for _ in range(3):
                edges.append((hub, nxt))
                nxt += 1
        g = Graph(range(nxt), edges)
        inst = make(g, 1)
        p = vclp_half_integral(g)
        assert len(p.v1) == centers
        witness = rr_lp_thresholds(inst, 2, p)
        assert witness is not None and validate_witness(inst, witness)

    def test_partition_bound_violation_names_the_v1_and_v0_bounds(self):
        # c = 2, k = 1: |V_1| may not reach 6, and |V_0| may not exceed
        # |V_1| + 2 * C(|V_1|, 2). A star's center is V_1 and its leaves V_0.
        stars = Graph(range(18), [(3 * i, 3 * i + j) for i in range(6) for j in (1, 2)])
        assert kernel_im._lp_bounds(2, 1)[1] == 6
        assert partition_bound_violation(2, 1, vclp_half_integral(stars)) == "V_1 bound violated"
        cherry = path_graph(3)
        assert partition_bound_violation(2, 1, vclp_half_integral(cherry)) == "V_0 bound violated"
        assert partition_bound_violation(2, 1, vclp_half_integral(path_graph(2))) is None

    def test_real_thresholds_reachable_at_k1(self):
        # c=2, k=1: V_half threshold is 3 * q2 = 18
        inst_bound = 3 * unrestricted_threshold(2, 9, 1)
        assert inst_bound == 18
        b = 9
        g = Graph(range(2 * b), [(2 * i, 2 * i + 1) for i in range(b)])
        inst = make(g, 1)
        out = kernelize_im(inst, 2)
        assert isinstance(out, Decided) and out.answer
        assert out.witness is not None and validate_witness(inst, out.witness)


@st.composite
def leafy_graphs(draw):
    """A star, a double star, a caterpillar, a crown (a clique head of 1-3
    vertices and feet each joined to part of it) or a random core of up to
    8 vertices, with up to 0, 1 or 3 leaves hung on each core vertex and
    every vertex on a scattered id. LP-one vertices carry 0, 1 and 2+
    leaves, and the crowns' feet are the LP-zero non-leaves that RR14 and
    RR15 act on."""
    shape = draw(st.sampled_from(["star", "double star", "caterpillar", "crown", "random"]))
    most = draw(st.sampled_from([0, 1, 3]))
    if shape == "crown":
        head = draw(st.integers(1, 3))
        size = head + draw(st.integers(1, 4))
        edges = [(u, v) for u in range(head) for v in range(u + 1, head)]
        for foot in range(head, size):
            joined = draw(st.sets(st.integers(0, head - 1), min_size=1))
            edges.extend((u, foot) for u in sorted(joined))
    elif shape == "random":
        size = draw(st.integers(2, 8))
        pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]
        edges = [pair for pair in pairs if draw(st.booleans())]
    else:
        size = {"star": 1, "double star": 2}.get(shape) or draw(st.integers(2, 6))
        edges = [(i, i + 1) for i in range(size - 1)]
    n = size
    for v in range(size):
        for _ in range(draw(st.integers(0, most))):
            edges.append((v, n))
            n += 1
    ids = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True))
    return Graph(ids, [(ids[u], ids[v]) for u, v in edges])


class TestLeafRules:
    @settings(max_examples=300)
    @given(leafy_graphs())
    def test_leaf_rules_match_the_per_vertex_reference(self, g):
        inst = make(g, 1)
        p = vclp_half_integral(g)
        assert rr_leaf_rules(inst, p) == reference_rr_leaf_rules(inst, p)

    def test_duplicate_leaves_trimmed(self):
        # v1 = 0 with two leaves 3, 4; P_3 backbone keeps 0 in V_1
        g = Graph(range(5), [(0, 1), (0, 2), (0, 3), (0, 4)])
        inst = make(g, 1)
        p = vclp_half_integral(g)
        assert 0 in p.v1
        record = rr_leaf_rules(inst, p)
        assert record is not None and record.rule == "RR13"
        assert record.vertices_removed == (2, 3, 4)[:len(record.vertices_removed)]
        post = replay(inst, record)
        assert oracle_yes(Problem.IM, post.graph, 1) == oracle_yes(Problem.IM, g, 1)

    def test_shadowed_vertex_gets_leaf(self):
        # v0 = 2 with N[2] inside N[1]; 1 leafless -> attach leaf
        g = Graph(range(4), [(0, 1), (1, 2), (0, 2), (1, 3), (0, 3)])
        # vclp: vertices 0,1 cover everything
        inst = make(g, 2)
        p = vclp_half_integral(g)
        record = rr_leaf_rules(inst, p)
        if record is not None and record.rule == "RR14":
            post = replay(inst, record)
            assert oracle_yes(Problem.IM, post.graph, 2) == oracle_yes(Problem.IM, g, 2)

    def test_rr14_leaf_edge_lifts_to_the_shadowed_vertex(self):
        # N[1] = {0, 1, 3} lies inside N[0] and 0 has no leaf, so RR14 hangs
        # the leaf 7 on the anchor 0 in place of the shadowed vertex 1.
        g = Graph(range(7), [(0, 1), (0, 2), (0, 3), (1, 3), (2, 6), (3, 4), (3, 6), (5, 6)])
        inst = make(g, 2)
        record = rr_leaf_rules(inst, vclp_half_integral(g))
        assert record is not None and record.rule == "RR14"
        assert record.edges_added == ((7, 0),) and record.payload == {"anchor": 0, "shadowed": 1}
        post = replay(inst, record)
        through_leaf = Witness.edge_set([(0, 7), (5, 6)], Problem.IM)
        assert validate_witness(post, through_leaf)
        lifted = lift(inst, [record], through_leaf)
        assert lifted == Witness.edge_set([(0, 1), (5, 6)], Problem.IM)
        assert validate_witness(inst, lifted)
        avoiding = Witness.edge_set([(5, 6)], Problem.IM)
        assert lift(make(g, 1), [record], avoiding) == avoiding

    def test_surrounded_zero_vertex_removed(self):
        # every neighbor of v0 has a leaf -> v0 goes
        g = Graph(range(7), [(0, 1), (0, 2), (1, 3), (2, 4), (1, 5), (2, 6)])
        # 1 and 2 carry leaves (3,5) and (4,6)... trim to one leaf each first
        g = Graph(range(5), [(0, 1), (0, 2), (1, 3), (2, 4)])
        inst = make(g, 1)
        p = vclp_half_integral(g)
        if 0 in p.v0:
            record = rr_leaf_rules(inst, p)
            assert record is not None
            post = replay(inst, record)
            assert oracle_yes(Problem.IM, post.graph, 1) == oracle_yes(Problem.IM, g, 1)


class TestKernelizeIm:
    def test_cluster_counting(self):
        g = disjoint_cliques(3, 2)
        out = kernelize_im(make(g, 3), 1)
        assert isinstance(out, Decided) and out.answer
        assert len(out.witness.elements) == 3
        inst = make(g, 4)
        assert kernelize_im(inst, 1) == Decided(inst, (), False)

    def test_a_corrupted_cluster_witness_raises(self, monkeypatch):
        # Merging the two edges' components makes the counting pick 0-2,
        # which is not an edge.
        g = disjoint_cliques(2, 2)
        monkeypatch.setattr(Graph, "components", lambda self: [frozenset({0, 2}), frozenset({1, 3})])
        with pytest.raises(ExtractionError):
            kernelize_im(make(g, 1), 1)

    def test_p5_yes(self):
        out = kernelize_im(make(path_graph(5), 2), 2)
        expected = oracle_yes(Problem.IM, path_graph(5), 2)
        answer = out.answer if isinstance(out, Decided) else (
            oracle_answer(out.instance)
        )
        assert answer == expected

    def test_p4_no(self):
        out = kernelize_im(make(path_graph(4), 2), 2)
        answer = out.answer if isinstance(out, Decided) else (
            oracle_answer(out.instance)
        )
        assert not answer

    def test_k0(self):
        out = kernelize_im(make(path_graph(3), 0), 2)
        assert isinstance(out, Decided) and out.answer

    @settings(max_examples=120)
    @given(st.integers(0, 10 ** 6), st.integers(0, 9), st.integers(0, 3))
    def test_randomized_equivalence(self, seed, n, k):
        g = random_graph(n, 0.4, seed)
        c = compute_closure(g).c
        inst = make(g, k)
        expected = oracle_answer(inst)
        out = kernelize_im(inst, c)
        if isinstance(out, Decided):
            assert out.answer == expected
            if out.answer:
                assert out.witness is not None and validate_witness(inst, out.witness)
        else:
            assert oracle_answer(out.instance) == expected
            state = inst
            for record in out.trace:
                state = replay(state, record)
                assert is_c_closed(state.graph, c)
                assert oracle_answer(state) == expected
            assert state.graph == out.instance.graph
            p = vclp_half_integral(out.instance.graph)
            a = 4 * c * k + 1
            assert len(p.v_half) < 3 * unrestricted_threshold(c, a, k)
            assert len(p.v1) < saturated_threshold(c, a, k)
            assert len(p.v0) <= len(p.v1) + c * comb(len(p.v1), 2)

    def test_one_lp_solve_per_round(self, monkeypatch):
        # Every round that gets past RR10 solves the LP once; the bounds
        # check on the reduced graph reuses the last round's solution.
        import cclose.kernel_im as kernel_im

        calls = []

        def counted(g, *start):
            calls.append(g)
            return vclp_half_integral(g, *start)

        monkeypatch.setattr(kernel_im, "vclp_half_integral", counted)
        reduced = 0
        for seed in range(30):
            g = random_graph(12, 0.2, seed)
            calls.clear()
            out = kernelize_im(make(g, 1), compute_closure(g).c)
            if isinstance(out, Reduced):
                reduced += 1
                assert len(calls) == 1 + sum(r.rule != "RR10" for r in out.trace)
                assert calls[-1] == out.instance.graph
        assert reduced > 0

    def test_each_round_grows_the_last_rounds_matching(self, monkeypatch):
        # The first solve starts from nothing; every later one from the
        # maximum matching the round before ended with.
        solves = []

        def recorded(g, start):
            p = vclp_half_integral(g, start)
            solves.append((dict(start), p))
            assert p == vclp_half_integral(g)
            return p

        monkeypatch.setattr(kernel_im, "vclp_half_integral", recorded)
        warm = 0
        for seed in range(30):
            g = random_graph(12, 0.2, seed)
            solves.clear()
            kernelize_im(make(g, 1), compute_closure(g).c)
            if solves:
                assert solves[0][0] == {}
            for (_, before), (start, _) in zip(solves, solves[1:]):
                assert start == before.matching
                warm += bool(start)
        assert warm > 0


def _outcome(kernelize, inst, c):
    try:
        return kernelize(inst, c)
    except ExtractionError as exc:
        return ExtractionError, str(exc)


class TestRestartReference:
    """kernelize_im gives exactly the outcome of the pipeline with its rounds
    written out: answer, witness, reduced instance and every record."""

    @settings(max_examples=150)
    @given(
        st.integers(0, 10 ** 6),
        st.lists(st.sampled_from((2, 3)), max_size=12),
        st.integers(0, 6),
        st.integers(2, 3),
        st.integers(0, 2),
        st.floats(0.0, 0.3),
    )
    def test_matches_restarting_pipeline(self, seed, parts, extra, c, k, p):
        # Planted edges and cherries (paths on three vertices) give the LP
        # half-integral classes and leaf rules to work on.
        base, v = [], 0
        for size in parts:
            base += [(v + i, v + i + 1) for i in range(size - 1)]
            v += size
        g = random_c_closed_graph(v + extra, c, p, seed, base_edges=base)
        inst = make(g, k)
        assert _outcome(kernelize_im, inst, c) == _outcome(restart_kernelize_im, inst, c)

    @pytest.mark.parametrize("c", [2, 3])
    def test_matches_restarting_pipeline_over_many_warm_rounds(self, c):
        # 25 planted edges and cherries on about 80 vertices: the leaf rules
        # fire round after round, and each round's solve is warm-started.
        rounds = []
        for seed in range(20):
            rng = random.Random(seed)
            base, v = [], 0
            for size in [rng.choice((2, 3)) for _ in range(25)]:
                base += [(v + i, v + i + 1) for i in range(size - 1)]
                v += size
            g = random_c_closed_graph(v + 15, c, 0.02, seed, base_edges=base)
            for k in (1, 3):
                inst = make(g, k)
                out = _outcome(kernelize_im, inst, c)
                assert out == _outcome(restart_kernelize_im, inst, c)
                if isinstance(out, Reduced):
                    rounds.append(sum(r.rule != "RR10" for r in out.trace) + 1)
        assert max(rounds) >= 4

    def test_mid_run_decision_lifts_the_witness(self):
        # 8 edges and a cherry at c = 2, k = 1: RR13 trims the cherry to an
        # edge, and the V_half class then reaches RR11's threshold of 18.
        edges = [(2 * i, 2 * i + 1) for i in range(8)] + [(16, 17), (17, 18)]
        inst = make(Graph(range(19), edges), 1)
        assert len(vclp_half_integral(inst.graph).v_half) < 3 * unrestricted_threshold(2, 9, 1)
        out = kernelize_im(inst, 2)
        assert out == restart_kernelize_im(inst, 2)
        assert isinstance(out, Decided) and out.answer
        assert validate_witness(inst, out.witness)


class TestOptimumIndependence:
    @settings(max_examples=40)
    @given(st.integers(0, 10 ** 6), st.integers(2, 9), st.integers(0, 3))
    def test_outcome_survives_relabeling(self, seed, n, k):
        # Relabeling flips the id-order tie-breaks of the rules and of the
        # crown matchings; the pipeline must stay equivalent either way.
        g = random_graph(n, 0.45, seed)
        mapping = {v: n - 1 - v for v in g.vertex_ids}
        relabeled = Graph(
            [mapping[v] for v in g.vertex_ids],
            [(mapping[u], mapping[v]) for u, v in g.edges()],
        )
        c = compute_closure(g).c
        expected = oracle_yes(Problem.IM, g, k)
        for graph in (g, relabeled):
            out = kernelize_im(Instance(problem=Problem.IM, graph=graph, k=k), c)
            answer = out.answer if isinstance(out, Decided) else (
                oracle_answer(out.instance)
            )
            assert answer == expected

    @given(st.integers(0, 10 ** 6), st.integers(0, 9))
    def test_lp_cost_is_relabeling_invariant(self, seed, n):
        # the König cover of the double cover depends on no tie-break
        g = random_graph(n, 0.45, seed)
        mapping = {v: n - 1 - v for v in g.vertex_ids}
        relabeled = Graph(
            [mapping[v] for v in g.vertex_ids],
            [(mapping[u], mapping[v]) for u, v in g.edges()],
        )
        assert lp_cost(vclp_half_integral(g)) == lp_cost(vclp_half_integral(relabeled))


class TestBipartiteKernels:
    def test_delta_mode_perfect_matching(self):
        k = 2
        g = Graph(range(8 * k), [(2 * i, 2 * i + 1) for i in range(4 * k)])
        parts = Bipartition(frozenset(2 * i for i in range(4 * k)))
        inst = Instance(problem=Problem.IM, graph=g, k=k, bipartition=parts)
        out = kernelize_im_bipartite(inst, parts, "delta")
        assert isinstance(out, Decided) and out.answer
        assert validate_witness(inst, out.witness)

    def test_delta_mode_below_threshold_reduces(self):
        g = Graph(range(6), [(0, 3), (0, 4), (0, 5)])
        parts = Bipartition(frozenset({0, 1, 2}))
        inst = Instance(problem=Problem.IM, graph=g, k=2, bipartition=parts)
        out = kernelize_im_bipartite(inst, parts, "delta")
        assert isinstance(out, Reduced)
        assert not out.instance.graph.isolated_vertices()

    def test_closure_mode_high_degree(self):
        # star forests are 2-closed; 2k hubs of degree c*k trip the rule
        c, k = 2, 2
        edges = []
        nxt = 2 * k
        for hub in range(2 * k):
            for _ in range(c * k):
                edges.append((hub, nxt))
                nxt += 1
        g = Graph(range(nxt), edges)
        assert compute_closure(g).c == c
        parts = Bipartition(frozenset(range(2 * k)))
        inst = Instance(problem=Problem.IM, graph=g, k=k, bipartition=parts)
        out = kernelize_im_bipartite(inst, parts, "closure", c=c)
        assert isinstance(out, Decided) and out.answer
        assert validate_witness(inst, out.witness)

    def test_invalid_mode(self):
        g = Graph(range(2), [(0, 1)])
        parts = Bipartition(frozenset({0}))
        inst = Instance(problem=Problem.IM, graph=g, k=1, bipartition=parts)
        with pytest.raises(ValueError):
            kernelize_im_bipartite(inst, parts, "bogus")

    @pytest.mark.parametrize("mode", sorted(kernel_im.BIPARTITE_MODES))
    def test_modes_say_whether_they_read_c(self, mode):
        # The CLI skips the closure scan for a mode that does not read c.
        g = Graph(range(4), [(0, 2), (1, 3)])
        parts = Bipartition(frozenset({0, 1}))
        inst = Instance(problem=Problem.IM, graph=g, k=1, bipartition=parts)
        if kernel_im.BIPARTITE_MODES[mode]:
            with pytest.raises(ValueError, match="needs c"):
                kernelize_im_bipartite(inst, parts, mode)
        else:
            assert kernelize_im_bipartite(inst, parts, mode) == kernelize_im_bipartite(
                inst, parts, mode, c=compute_closure(g).c
            )

    @settings(max_examples=100)
    @given(st.integers(0, 10 ** 6), st.integers(0, 12), st.integers(0, 2))
    def test_randomized_equivalence_both_modes(self, seed, n, k):
        rng = random.Random(seed)
        left = n // 2
        g = Graph(
            range(n),
            [(u, v) for u in range(left) for v in range(left, n) if rng.random() < 0.4],
        )
        parts = Bipartition(frozenset(range(left)))
        inst = Instance(problem=Problem.IM, graph=g, k=k, bipartition=parts)
        expected = oracle_answer(inst)
        c = compute_closure(g).c
        for mode, extra in (("delta", {}), ("closure", {"c": c})):
            out = kernelize_im_bipartite(inst, parts, mode, **extra)
            if isinstance(out, Decided):
                assert out.answer == expected
                if out.answer:
                    assert out.witness is not None and validate_witness(inst, out.witness)
            else:
                assert oracle_answer(out.instance) == expected
