import random
from collections import Counter
from dataclasses import replace
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclose import (
    Bipartition,
    Coloring,
    Decided,
    Graph,
    HittingSetInstance,
    Instance,
    Problem,
    Reduced,
    Witness,
    cliques_of_size,
    compute_closure,
    hitting_set_to_ds,
    is_c_closed,
    kernelize_bipartite_bwds,
    kernelize_bwtds,
    kernelize_ds,
    kernelize_im,
    kernelize_im_bipartite,
    kernelize_irs,
    lift,
    maximal_cliques,
    oracle_answer,
    oracle_ds,
    oracle_tds,
    path_graph,
    ramsey_threshold,
    replay_trace,
    solve_tds,
    uncolor_gadget,
    validate_witness,
)
from cclose import kernel_ds, solver
from cclose.closure import common_neighborhood
from cclose.errors import ExtractionError
from cclose.instances import exhaust, replay
from cclose.kernel_ds import (
    all_black_twin,
    common_neighborhood_threshold,
    per_vertex_black_bound,
    rr_black_count,
    rr_clique,
    rr_clique_no,
    rr_common_neighborhood,
    sweep_black_rules,
    sweep_white_removal,
)

from helpers import (
    brute_hitting_set,
    community_graphs,
    complete_graph,
    cycle_graph,
    random_c_closed_bipartite,
    random_c_closed_graph,
    random_graph,
    restart_kernelize_bipartite_bwds,
    restart_kernelize_bwtds,
    restart_rr_white_removal,
    star_graph,
)


def bw(g, k, r=1, white=frozenset()):
    return Instance(
        problem=Problem.BW_TDS, graph=g, k=k, r=r, coloring=Coloring(frozenset(white))
    )


class TestRuleClique:
    def test_fires_on_black_clique(self):
        # c=2, k=1: K_2 all black is a maximal clique with 2 >= ck black vertices
        inst = bw(Graph(range(2), [(0, 1)]), k=1)
        record = rr_clique(inst, 2, iter(maximal_cliques(inst.graph)))
        assert record is not None
        post = replay(inst, record)
        assert post.graph.n == 3 and post.graph.neighbors(2) == {0, 1}
        assert post.black_vertices() == {2}
        assert oracle_answer(inst) == oracle_answer(post)

    def test_no_op_when_cliques_have_few_blacks(self):
        inst = bw(complete_graph(3), k=2, white=frozenset({0, 1, 2}))
        assert rr_clique(inst, 2, iter(maximal_cliques(inst.graph))) is None

    def test_no_refire_when_ck_at_least_two(self):
        inst = bw(Graph(range(2), [(0, 1)]), k=1)
        record = rr_clique(inst, 2, iter(maximal_cliques(inst.graph)))
        post = replay(inst, record)
        # the new clique holds one black < ck
        assert rr_clique(post, 2, iter(maximal_cliques(post.graph))) is None


class TestRuleCommonNeighborhood:
    def test_rho_formula(self):
        assert ramsey_threshold(2, 2, 2) == 2

    def test_fires_on_large_common_black_neighborhood(self):
        # c=2, r=1, i=1, k=1: a single-vertex clique with 3 > rho = 2 black
        # common neighbors
        g = star_graph(3)
        inst = bw(g, k=1, white=frozenset({0}))
        record = rr_common_neighborhood(inst, 2, 1, iter(cliques_of_size(inst.graph, 1)))
        assert record is not None
        assert record.rule == "RR3.1"
        post = replay(inst, record)
        assert oracle_answer(inst) == oracle_answer(post)
        # the leaves and the clique {0} all turn white; fresh vertex is black
        assert post.black_vertices() == {g.n}

    def test_no_op_on_small_neighborhoods(self):
        inst = bw(path_graph(4), k=1)
        assert rr_common_neighborhood(inst, 2, 1, iter(cliques_of_size(inst.graph, 1))) is None


class TestRuleBlackCount:
    def test_boundary(self):
        # c=1, k=1: rho = R_1(1, 2) = 1, so the No-threshold is k^c*rho + k = 2
        inst = bw(Graph(range(2)), k=1)
        assert not rr_black_count(inst, 1)
        inst3 = bw(Graph(range(3)), k=1)
        assert rr_black_count(inst3, 1)
        assert oracle_tds(inst3.graph, inst3.coloring, 1) > 1

    def test_self_domination_boundary_stays_yes(self):
        # 4-closed, five blacks, k=1: vertex 4 dominates everything, so the
        # unslacked threshold k^c * rho = 4 would wrongly reject it
        g = Graph(range(5), [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)])
        inst = bw(g, k=1)
        assert not rr_black_count(inst, 4)
        assert oracle_answer(inst)

    def test_per_vertex_black_bound_matches_the_two_branch_formula(self):
        """The bound starts at the last common-neighborhood stage when
        r <= c - 1 and at rho otherwise, and extends down to one vertex."""

        def two_branch(c, k, r):
            if r <= c - 1:
                size, bound = r, common_neighborhood_threshold(c, k, c - r)
            else:
                size, bound = c - 1, ramsey_threshold(c, c * k, k + 1)
            for _ in range(size - 1):
                bound = max(k * c + k, k * bound + 2 * k)
            return bound

        for c in range(1, 9):
            for k in range(1, 7):
                for r in range(1, 11):
                    assert per_vertex_black_bound(c, k, r) == two_branch(c, k, r), (c, k, r)


def first_white_removal(inst, keep=frozenset()):
    _, trace = sweep_white_removal(inst, keep)
    return trace[0] if trace else None


class TestRuleWhiteRemoval:
    def test_white_leaf_with_backup_dominator(self):
        # white leaf 2 attached to black 1 that has another neighbor 0
        g = path_graph(3)
        inst = bw(g, k=1, white=frozenset({2}))
        record = first_white_removal(inst)
        assert record is not None and record.vertices_removed == (2,)
        post = replay(inst, record)
        assert oracle_answer(inst) == oracle_answer(post)

    def test_private_white_kept(self):
        # white vertex 0 with black neighbor 1; only vertex 1 dominates {1}...
        # make 0's black demand unique so no other vertex covers it
        g = Graph(range(3), [(0, 1), (0, 2)])
        inst = bw(g, k=1, r=2, white=frozenset({0}))
        record = first_white_removal(inst)
        # 0's demand {1, 2} is covered only by 0 itself, so it stays
        assert record is None or record.vertices_removed != (0,)

    def test_isolated_white_removed(self):
        g = Graph(range(2))
        inst = bw(g, k=1, white=frozenset({1}))
        record = first_white_removal(inst)
        assert record is not None and record.vertices_removed == (1,)

    def test_kept_whites_stay(self):
        # both leaves of the path are removable whites; keeping 0 leaves 2
        inst = bw(path_graph(3), k=1, white=frozenset({0, 2}))
        assert first_white_removal(inst).vertices_removed == (0,)
        assert first_white_removal(inst, keep={0}).vertices_removed == (2,)
        assert first_white_removal(inst, keep={0, 2}) is None

    @settings(max_examples=150)
    @given(
        st.integers(0, 10 ** 6),
        st.integers(0, 16),
        st.integers(1, 3),
        st.floats(0.2, 0.8),
    )
    def test_sweep_matches_restarted_rule(self, seed, n, r, white_share):
        rng = random.Random(seed)
        g = random_graph(n, 0.35, seed)
        white = frozenset(v for v in g.vertex_ids if rng.random() < white_share)
        keep = frozenset(v for v in g.vertex_ids if rng.random() < 0.2)
        inst = bw(g, k=2, r=r, white=white)
        expected_trace = []
        state = inst
        while (record := restart_rr_white_removal(state, keep)) is not None:
            expected_trace.append(record)
            state = replay(state, record)
        assert sweep_white_removal(inst, keep) == (state, expected_trace)


    def test_empty_demand_counts_only_surviving_vertices(self):
        # whites 0, 1, 2 and black 3, all isolated, r = 2: every other vertex
        # dominates an empty demand, but after 0 and 1 go only vertex 3 is
        # left besides 2, so 2 stays (n - 1 = 3 would wrongly remove it)
        inst = bw(Graph(range(4)), k=1, r=2, white={0, 1, 2})
        post, trace = sweep_white_removal(inst)
        assert [record.vertices_removed for record in trace] == [(0,), (1,)]
        assert post.graph.vertex_ids == (2, 3)
        assert restart_rr_white_removal(post) is None


def counting_without_vertices(monkeypatch):
    """Count calls of ``Graph.without_vertices`` from here on."""
    calls = []
    original = Graph.without_vertices

    def counted(self, vs):
        calls.append(1)
        return original(self, vs)

    monkeypatch.setattr(Graph, "without_vertices", counted)
    return calls


def test_white_removal_sweep_copies_the_graph_once(monkeypatch):
    # every white leaf of a black-centred star is dominated by the centre
    inst = bw(star_graph(12), k=1, white=set(range(1, 13)))
    calls = counting_without_vertices(monkeypatch)
    post, trace = sweep_white_removal(inst)
    assert len(trace) == 12 and post.graph.vertex_ids == (0,)
    assert len(calls) <= 1


def test_rr9_pass_copies_the_graph_once(monkeypatch):
    # blacks 0-3; whites 4-15 each see one black, so all twelve go by RR9
    g = Graph(range(16), [(w, w % 4) for w in range(4, 16)])
    inst = Instance(
        problem=Problem.BW_TDS,
        graph=g,
        k=2,
        r=1,
        coloring=Coloring(frozenset(range(4, 16))),
        bipartition=Bipartition(frozenset(range(4))),
    )
    c = compute_closure(g).c
    calls = counting_without_vertices(monkeypatch)
    out = kernelize_bipartite_bwds(inst, inst.bipartition, c)
    assert isinstance(out, Reduced)
    assert [record.rule for record in out.trace] == ["RR9"] * 12
    assert out.instance.graph.vertex_ids == (0, 1, 2, 3)
    assert len(calls) <= 1


class TestBwtdsPipeline:
    def test_all_black_p4_stays_no(self):
        inst = bw(path_graph(4), k=1)
        out = kernelize_bwtds(inst, 2)
        expected = oracle_answer(inst)
        assert not expected
        if isinstance(out, Decided):
            assert out.answer == expected
        else:
            assert oracle_answer(out.instance) == expected

    def test_all_black_star_stays_yes(self):
        inst = bw(star_graph(4), k=1)
        out = kernelize_bwtds(inst, 2)
        if isinstance(out, Decided):
            assert out.answer
        else:
            assert oracle_answer(out.instance)

    def test_k0_with_black_vertex_is_no(self):
        inst = bw(Graph(range(1)), k=0)
        assert kernelize_bwtds(inst, 1) == Decided(inst, (), False)

    def test_no_black_vertices_is_yes(self):
        out = kernelize_bwtds(bw(Graph(range(2), [(0, 1)]), k=0, white=frozenset({0, 1})), 1)
        assert isinstance(out, Decided) and out.answer
        assert out.witness.elements == frozenset()

    def test_a_corrupted_cluster_witness_raises(self, monkeypatch):
        # One merged component makes the decision take vertex 0 alone, which
        # dominates neither 2 nor 3.
        g = Graph(range(4), [(0, 1), (2, 3)])
        monkeypatch.setattr(Graph, "components", lambda self: [frozenset(range(4))])
        with pytest.raises(ExtractionError):
            kernelize_bwtds(bw(g, k=2), 1)

    def test_cluster_fast_path(self):
        # c = 1: disjoint cliques decided exactly
        from cclose import disjoint_cliques

        g = disjoint_cliques(2, 3)
        for k in range(4):
            for r in (1, 2):
                inst = bw(g, k=k, r=r)
                out = kernelize_bwtds(inst, 1)
                assert isinstance(out, Decided)
                assert out.answer == oracle_answer(inst)
                if out.answer:
                    assert validate_witness(inst, out.witness)

    @settings(max_examples=120)
    @given(
        st.integers(0, 10 ** 6),
        st.integers(0, 9),
        st.integers(0, 3),
        st.integers(1, 2),
    )
    def test_randomized_equivalence(self, seed, n, k, r):
        rng = random.Random(seed)
        g = random_graph(n, 0.4, seed)
        white = frozenset(v for v in g.vertex_ids if rng.random() < 0.4)
        inst = bw(g, k=k, r=r, white=white)
        c = compute_closure(g).c
        expected = oracle_answer(inst)
        out = kernelize_bwtds(inst, c)
        if isinstance(out, Decided):
            assert out.answer == expected
            if out.answer:
                assert out.witness is not None and validate_witness(inst, out.witness)
        else:
            assert oracle_answer(out.instance) == expected
            pv = per_vertex_black_bound(c, out.instance.k, r)
            assert len(out.instance.black_vertices()) <= out.instance.k * pv + out.instance.k
            state = inst
            for record in out.trace:
                state = replay(state, record)
                assert is_c_closed(state.graph, c)
                assert oracle_answer(state) == expected
            assert state.graph == out.instance.graph
            # per-vertex black-neighbor bound after the pipeline
            red = out.instance
            blacks = red.black_vertices()
            for v in red.graph.vertex_ids:
                assert len(red.graph.neighbors(v) & blacks) <= pv


class TestAscendingPasses:
    """The single white-removal passes give exactly the outcome of restarting
    every rule after every change: answer, witness, reduced instance and every
    record, payloads included."""

    @settings(max_examples=150)
    @given(
        st.integers(0, 10 ** 6),
        st.integers(0, 16),
        st.integers(2, 4),
        st.integers(0, 3),
        st.integers(1, 3),
        st.floats(0.1, 0.7),
    )
    def test_bwtds_matches_restarting_pipeline(self, seed, n, c, k, r, p):
        rng = random.Random(seed)
        g = random_c_closed_graph(n, c, p, seed)
        white = frozenset(v for v in g.vertex_ids if rng.random() < 0.3)
        inst = bw(g, k=k, r=r, white=white)
        assert kernelize_bwtds(inst, c) == restart_kernelize_bwtds(inst, c)

    @settings(max_examples=150)
    @given(
        st.integers(0, 10 ** 6),
        st.integers(0, 8),
        st.integers(0, 8),
        st.integers(1, 4),
        st.integers(0, 3),
        st.floats(0.1, 0.7),
    )
    def test_bipartite_matches_restarting_pipeline(self, seed, nl, nr, c, k, p):
        rng = random.Random(seed)
        g, parts = random_c_closed_bipartite(nl, nr, c, p, seed)
        white = frozenset(v for v in g.vertex_ids if rng.random() < 0.5)
        inst = Instance(
            problem=Problem.BW_TDS,
            graph=g,
            k=k,
            r=1,
            coloring=Coloring(white),
            bipartition=parts,
        )
        assert kernelize_bipartite_bwds(inst, parts, c) == restart_kernelize_bipartite_bwds(inst, c)

    def test_white_removals_do_not_relist_cliques(self, monkeypatch):
        # An all-black star at c = 2, k = 1: RR2 whitens the first edge, RR3.1
        # whitens the leaves, and RR6 then drops the whitened vertices.
        inst = bw(star_graph(6), k=1)
        expected = restart_kernelize_bwtds(inst, 2)
        calls = []
        original = kernel_ds.rr_clique

        def counting_rr_clique(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(kernel_ds, "rr_clique", counting_rr_clique)
        out = kernelize_bwtds(inst, 2)
        assert out == expected
        rules = [record.rule for record in out.trace]
        assert rules.count("RR6") >= 5
        assert "RR2" in rules and "RR3.1" in rules
        black_rules = sum(1 for rule in rules if rule == "RR2" or rule.startswith("RR3."))
        assert len(calls) <= black_rules + 1


def disjoint_union(*graphs):
    vertices, edges, base = [], [], 0
    for g in graphs:
        vertices += [base + v for v in g.vertex_ids]
        edges += [(base + u, base + v) for u, v in g.edges()]
        base += g.n
    return Graph(vertices, edges)


def book(pages):
    """An edge (the spine 0-1) with ``pages`` triangles on it; 3-closed."""
    return Graph(range(pages + 2), [(0, 1)] + [(s, p) for p in range(2, pages + 2) for s in (0, 1)])


def restarting_black_rules(inst, c):
    """RR2 and RR3.1..RR3.(c-r), restarted from RR2 after every change, each
    listing the cliques of the instance it is given."""
    rules = [lambda i: rr_clique(i, c, iter(maximal_cliques(i.graph)))] + [
        lambda i, stage=stage: rr_common_neighborhood(
            i, c, stage, iter(cliques_of_size(i.graph, c - stage))
        )
        for stage in range(1, c - inst.r + 1)
    ]
    inst, trace, _ = exhaust(inst, rules)
    return inst, trace


def _hitting_set_instance():
    # Element 0 lies in 7 sets and element 1 in 6 more: once RR2 has whitened
    # the universe clique, RR3.2 fires on both elements.
    sets = [frozenset({0, x}) for x in range(1, 8)] + [frozenset({1, x}) for x in range(2, 8)]
    hs = HittingSetInstance(universe=tuple(range(8)), sets=tuple(sets), set_size=2, k=1)
    return bw(hitting_set_to_ds(hs).graph, k=1)


def _community_instance(seed, white_fraction):
    """Planted 6-, 5-, 4- and 4-cliques plus ten more vertices, with random
    edges kept 3-closed, at k = 1."""
    cliques = disjoint_union(*map(complete_graph, (6, 5, 4, 4)))
    g = random_c_closed_graph(cliques.n + 10, 3, 0.4, seed, base_edges=cliques.edges())
    rng = random.Random(seed)
    return bw(g, k=1, white=frozenset(v for v in g.vertex_ids if rng.random() < white_fraction))


# (c, instance, how often each black-bounding rule fires)
SWEEP_CASES = {
    "stars-c2": (2, lambda: bw(disjoint_union(star_graph(7), star_graph(9)), k=1),
                 {"RR2": 2, "RR3.1": 2}),
    "stars-c3": (3, lambda: bw(disjoint_union(*[star_graph(6)] * 3), k=1), {"RR3.2": 3}),
    # 20 blacks against T_1 = 8; after the first firing 11 are left.
    "stars-c2-k2": (2, lambda: bw(disjoint_union(star_graph(9), star_graph(9)), k=2),
                    {"RR3.1": 2}),
    "books-c3": (3, lambda: bw(disjoint_union(book(5), book(6)), k=1), {"RR2": 2, "RR3.1": 2}),
    "book-and-star-c3": (3, lambda: bw(disjoint_union(book(5), star_graph(7)), k=1),
                         {"RR2": 1, "RR3.1": 1, "RR3.2": 1}),
    "hitting-set-c3": (3, _hitting_set_instance, {"RR2": 1, "RR3.2": 2}),
    "community-c3": (3, lambda: _community_instance(0, 0.3), {"RR2": 4, "RR3.2": 1}),
    "community-c3-rr3.1": (3, lambda: _community_instance(34, 0.5), {"RR2": 1, "RR3.1": 1}),
    "r-equals-c": (2, lambda: bw(
        disjoint_union(complete_graph(4), complete_graph(4), star_graph(6)), k=2, r=2),
        {"RR2": 2}),
    "r-above-c": (3, lambda: bw(
        disjoint_union(complete_graph(3), book(2), complete_graph(4)), k=1, r=4),
        {"RR2": 3}),
    "r-equals-c-no": (2, lambda: bw(star_graph(5), k=1, r=2), {"RR2": 1}),
}


class TestCliqueSweeps:
    """RR2 and each RR3.i stage, swept over one clique listing, give the
    records of restarting from RR2 after every change."""

    @pytest.mark.parametrize("name", sorted(SWEEP_CASES))
    def test_sweep_matches_restarting_rules(self, name):
        c, make, fired = SWEEP_CASES[name]
        inst = make()
        assert compute_closure(inst.graph).c <= c
        swept = sweep_black_rules(inst, c)
        assert swept == restarting_black_rules(inst, c)
        assert Counter(record.rule for record in swept[1]) == fired
        assert kernelize_bwtds(inst, c) == restart_kernelize_bwtds(inst, c)

    @settings(max_examples=150)
    @given(
        st.integers(0, 10 ** 6),
        st.lists(st.tuples(st.sampled_from("scb"), st.integers(1, 10)), min_size=1, max_size=4),
        st.integers(2, 4),
        st.integers(1, 3),
        st.integers(1, 5),
        st.sampled_from([0.0, 0.3, 0.6]),
    )
    def test_structured_instances_match_restarting_rules(self, seed, parts, c, k, r, white_p):
        make = {"s": star_graph, "c": lambda n: complete_graph(min(n, 8)), "b": book}
        g = disjoint_union(*(make[kind](size) for kind, size in parts))
        g = random_c_closed_graph(g.n, c, 0.03, seed, base_edges=g.edges())
        if compute_closure(g).c > c:
            return  # a book is 3-closed, a star 2-closed
        rng = random.Random(seed)
        inst = bw(g, k=k, r=r, white=frozenset(v for v in g.vertex_ids if rng.random() < white_p))
        assert sweep_black_rules(inst, c) == restarting_black_rules(inst, c)
        assert kernelize_bwtds(inst, c) == restart_kernelize_bwtds(inst, c)

    @settings(max_examples=100)
    @given(st.integers(0, 10 ** 6), st.integers(0, 14), st.integers(1, 3), st.floats(0.1, 0.7))
    def test_clique_preprocessing_of_the_solver_matches_restarting(self, seed, n, c, p):
        # solve_tds sweeps RR2 alone, at every r, whenever c*k >= 2.
        g = random_c_closed_graph(n, c, p, seed)
        for k in range(1, 4):
            if c * k < 2:
                continue
            inst = bw(g, k=k, r=1 + seed % 3)
            rest = iter(maximal_cliques(g))
            swept = exhaust(inst, [lambda i: rr_clique(i, c, rest)])
            assert swept == exhaust(inst, [lambda i: rr_clique(i, c, iter(maximal_cliques(i.graph)))])

    @settings(max_examples=100)
    @given(st.integers(0, 10 ** 6), st.integers(0, 14), st.integers(2, 4), st.integers(1, 2))
    def test_clique_no_check_matches_the_unfiltered_scan(self, seed, n, c, k):
        rng = random.Random(seed)
        g = random_c_closed_graph(n, c, rng.uniform(0.2, 0.8), seed)
        inst = bw(g, k=k, r=c, white=frozenset(v for v in g.vertex_ids if rng.random() < 0.3))
        rho = ramsey_threshold(c, c * k, k + 1)
        black = inst.black_vertices()
        unfiltered = any(
            len(common_neighborhood(g, q) & black) > rho for q in cliques_of_size(g, c - 1)
        )
        assert rr_clique_no(inst, c) == unfiltered

    def test_one_listing_per_rule(self, monkeypatch):
        listings = Counter()

        def count(module, name):
            original = getattr(module, name)

            def counted(g, *size):
                listings[(name, *size)] += 1
                return original(g, *size)

            monkeypatch.setattr(module, name, counted)

        count(kernel_ds, "maximal_cliques")
        count(kernel_ds, "cliques_of_size")
        count(solver, "maximal_cliques")
        c, make, fired = SWEEP_CASES["book-and-star-c3"]
        out = kernelize_bwtds(make(), c)
        assert Counter(r.rule for r in out.trace if r.rule != "RR6") == fired
        # RR2 lists the maximal cliques with at least c*k = 3 vertices.
        assert listings == {("maximal_cliques", 3): 1, ("cliques_of_size", 2): 1, ("cliques_of_size", 1): 1}

        listings.clear()
        fires = []
        original_rule = solver.rr_clique

        def counted_rule(*args):
            record = original_rule(*args)
            fires.append(record is not None)
            return record

        monkeypatch.setattr(solver, "rr_clique", counted_rule)
        solve_tds(disjoint_union(complete_graph(3), complete_graph(4), complete_graph(3)), 2, 1, 1)
        assert fires.count(True) == 3
        assert listings == {("maximal_cliques", 2): 1}

    @pytest.mark.parametrize("k, r", [(1, 2), (2, 1), (2, 2), (6, 1)])
    def test_a_warm_clique_memo_changes_no_output(self, k, r):
        """The DS kernel, the BW-TDS kernel and the TDS solver each run RR2
        on the maximal cliques of their input graph at c*k. On a graph whose
        listing is memoized already they return the traces, witnesses and
        reduced instances they return on a freshly built equal graph."""
        c = 4
        rng = random.Random(10 * k + r)
        for g in community_graphs(10 * k + r, 3):
            white = frozenset(v for v in g.vertex_ids if rng.random() < 0.3)
            runs = [
                lambda h: kernelize_ds(Instance(problem=Problem.DS, graph=h, k=k), c),
                lambda h: kernelize_bwtds(bw(h, k, r, white), c),
                lambda h: solve_tds(h, c, r, k),
            ]
            maximal_cliques(g, c * k)
            for run in runs:
                assert run(g) == run(Graph(g.vertex_ids, g.edges()))
            assert list(g._cliques) == [c * k]

    def test_threshold_filter_skips_common_neighborhoods(self, monkeypatch):
        # Only the star center has more black neighbors than a stage needs
        # (3 for RR3.1, 5 for RR3.2), so the one common neighborhood computed
        # is that of the center alone, where RR3.2 fires.
        inst = bw(disjoint_union(star_graph(7), *[complete_graph(2)] * 20), k=1)
        assert [common_neighborhood_threshold(3, 1, i) for i in (1, 2)] == [3, 5]
        calls = []
        original = kernel_ds.common_neighborhood

        def counted(g, clique):
            calls.append(clique)
            return original(g, clique)

        monkeypatch.setattr(kernel_ds, "common_neighborhood", counted)
        swept = sweep_black_rules(inst, 3)
        monkeypatch.undo()
        assert swept == restarting_black_rules(inst, 3)
        assert calls == [(0,)]


def restart_kernelize_ds(inst, c):
    """``kernelize_ds`` through the restarting BW-TDS reference."""
    outcome = restart_kernelize_bwtds(all_black_twin(inst), c)
    if isinstance(outcome, Decided):
        witness = outcome.witness
        return replace(outcome, witness=witness and replace(witness, problem=Problem.DS))
    gadget, record = uncolor_gadget(outcome.instance)
    return Reduced(gadget, outcome.trace + (record,))


class TestBlackCountSkip:
    """A stage RR3.i lists no clique, and the r >= c No-check scans none, when
    the instance has at most the threshold's number of black vertices: a
    common black neighborhood is a set of black vertices."""

    @pytest.mark.parametrize("c, k", [(2, 2), (3, 1), (4, 1), (4, 2)])
    @pytest.mark.parametrize("above", [0, 1])
    def test_a_stage_lists_only_above_its_threshold(self, monkeypatch, c, k, above):
        sizes = []
        original = kernel_ds.cliques_of_size

        def counted(g, size):
            sizes.append(size)
            return original(g, size)

        monkeypatch.setattr(kernel_ds, "cliques_of_size", counted)
        for stage in range(1, c):
            blacks = common_neighborhood_threshold(c, k, stage) + above
            inst = bw(Graph(range(blacks + 1)), k=k, white={blacks})
            sizes.clear()
            assert sweep_black_rules(inst, c) == (inst, [])
            # Every earlier stage lists; this one only with T_i + 1 blacks.
            assert sizes == [c - i for i in range(1, stage + above)]
        rho = common_neighborhood_threshold(c, k, 1)
        sizes.clear()
        assert not rr_clique_no(bw(Graph(range(rho + above)), k=k, r=c), c)
        assert sizes == [c - 1] * above

    @pytest.mark.parametrize("seed", range(3))
    def test_black_rich_cliques_are_the_cliques_among_rich_vertices(self, seed):
        """The filtered listing is the listing of the subgraph induced by the
        vertices with more than ``bound`` black neighbours, in the same
        order, so it could list that subgraph instead of the whole graph."""
        rng = random.Random(seed)
        for g in community_graphs(seed, 3):
            share = rng.uniform(0.1, 0.9)
            inst = bw(g, k=1, white=frozenset(v for v in g.vertex_ids if rng.random() < share))
            black = inst.black_vertices()
            for size in range(1, 4):
                for bound in range(5):
                    rich = {v for v in g.vertex_ids if len(g.neighbors(v) & black) > bound}
                    listed = list(kernel_ds._black_rich_cliques(inst, size, bound))
                    assert listed == cliques_of_size(g.induced(rich), size), (seed, size, bound)

    def test_black_rich_cliques_with_no_rich_vertex(self):
        """Blacks that no vertex sees twice: more blacks than the bound of 1,
        so the listing runs, but no vertex is rich and nothing is listed."""
        g = next(community_graphs(11, 1))
        black: set[int] = set()
        for v in g.vertex_ids:
            if all(not g.neighbors(u) & black for u in g.neighbors(v)):
                black.add(v)
        inst = bw(g, k=1, white=frozenset(g.vertex_ids) - black)
        assert len(black) > 1
        assert all(len(g.neighbors(v) & black) <= 1 for v in g.vertex_ids)
        for size in range(1, 4):
            assert list(kernel_ds._black_rich_cliques(inst, size, 1)) == []
            assert cliques_of_size(g.induced(set()), size) == []

    @settings(max_examples=100)
    @given(
        st.integers(0, 10 ** 6),
        st.lists(st.tuples(st.sampled_from("scb"), st.integers(1, 10)), min_size=1, max_size=4),
        st.integers(0, 1),
        st.integers(1, 2),
        st.integers(1, 5),
        st.integers(-1, 1),
    )
    def test_boundary_black_counts_match_restarting(self, seed, parts, lift, k, r, offset):
        # The black count lands on T_i - 1, T_i or T_i + 1 for a stage i the
        # instance runs (T_1 = rho when r >= c). The blacks are the neighbors
        # of a white vertex of top degree first, so at T_i + 1 a stage can
        # fire on it; isolated vertices make up any shortfall.
        make = {"s": star_graph, "c": lambda n: complete_graph(min(n, 8)), "b": book}
        g = disjoint_union(*(make[kind](size) for kind, size in parts))
        c = max(2, compute_closure(g).c) + lift
        rng = random.Random(seed)
        stage = rng.randint(1, c - r) if r < c else 1
        bound = common_neighborhood_threshold(c, k, stage)
        blacks = bound + offset
        if g.n <= blacks:
            g = disjoint_union(g, Graph(range(blacks + 1 - g.n)))
        hub = max(g.vertex_ids, key=g.degree)
        order = sorted(g.vertex_ids, key=lambda v: (v != hub, v not in g.neighbors(hub), rng.random()))
        inst = bw(g, k=k, r=r, white=frozenset(order[:1] + order[blacks + 1:]))
        assert len(inst.black_vertices()) == blacks
        assert sweep_black_rules(inst, c) == restarting_black_rules(inst, c)
        assert kernelize_bwtds(inst, c) == restart_kernelize_bwtds(inst, c)
        if r >= c:
            black = inst.black_vertices()
            unfiltered = any(
                len(common_neighborhood(g, q) & black) > bound
                for q in cliques_of_size(g, c - 1)
            )
            assert rr_clique_no(inst, c) == unfiltered
        ds = Instance(problem=Problem.DS, graph=g.induced(order[:blacks]), k=k)
        assert kernelize_ds(ds, c) == restart_kernelize_ds(ds, c)


class TestGadget:
    def test_construction_single_white(self):
        g = path_graph(3)
        inst = bw(g, k=1, white=frozenset({1}))
        gadget, record = uncolor_gadget(inst)
        assert record.vertices_added == (3, 4)
        assert gadget.graph.has_edge(3, 4)
        assert gadget.graph.has_edge(1, 3) and not gadget.graph.has_edge(1, 4)
        assert gadget.k == 2
        assert gadget.problem is Problem.DS
        assert list(record.payload) == ["uncolor", "clique", "declared_closure"]
        # The closure is computed on the graph the record replays to, which keeps it.
        assert gadget.graph._closure is not None
        assert record.payload["declared_closure"] == compute_closure(gadget.graph).c

    def test_no_whites_still_adds_clique(self):
        inst = bw(path_graph(2), k=1)
        gadget, record = uncolor_gadget(inst)
        assert gadget.graph.n == 4
        assert oracle_answer(inst) == oracle_answer(gadget)

    @pytest.mark.parametrize(
        "k, found, lifted",
        [(1, {1, 4}, {1}), (2, {1, 3, 4}, {1})],
        ids=["last-swapped-for-its-outside-neighbour", "last-dropped-beside-the-whole-clique"],
    )
    def test_lift_witness_pushes_out_the_last_gadget_vertex(self, k, found, lifted):
        """On a path 0-1-2 with 1 white, the gadget adds the edge 3-4 and
        wires 3 to 1; the last gadget vertex 4 leaves any solution."""
        inst = bw(path_graph(3), k=k, white=frozenset({1}))
        gadget, record = uncolor_gadget(inst)
        witness = Witness.vertex_set(found, Problem.DS)
        assert validate_witness(gadget, witness)
        assert lift(inst, [record], witness) == Witness.vertex_set(lifted, Problem.BW_TDS)

    @settings(max_examples=80)
    @given(st.integers(0, 10 ** 6), st.integers(0, 8), st.integers(0, 2), st.integers(1, 2))
    def test_equivalence_across_gadget(self, seed, n, k, r):
        rng = random.Random(seed)
        g = random_graph(n, 0.4, seed)
        white = frozenset(v for v in g.vertex_ids if rng.random() < 0.5)
        inst = bw(g, k=k, r=r, white=white)
        gadget, record = uncolor_gadget(inst)
        assert oracle_answer(inst) == oracle_answer(gadget)

    @settings(max_examples=60)
    @given(st.integers(0, 10 ** 6), st.integers(1, 7), st.integers(0, 2), st.integers(1, 2))
    def test_witness_lifting_roundtrip(self, seed, n, k, r):
        rng = random.Random(seed)
        g = random_graph(n, 0.5, seed)
        white = frozenset(v for v in g.vertex_ids if rng.random() < 0.5)
        inst = bw(g, k=k, r=r, white=white)
        gadget, record = uncolor_gadget(inst)
        opt = oracle_tds(gadget.graph, None, r)
        if opt is None or opt > gadget.k:
            return  # gadget instance is a No; nothing to lift
        # build an optimal solution by brute force, preferring sets with the
        # full gadget clique (always possible by the theorem)
        from itertools import combinations

        found = None
        ids = gadget.graph.vertex_ids
        for size in range(gadget.k + 1):
            for combo in combinations(ids, size):
                w = Witness.vertex_set(combo, gadget.problem)
                if validate_witness(gadget, w):
                    found = w
                    break
            if found:
                break
        assert found is not None
        lifted = lift(inst, [record], found)
        assert validate_witness(inst, lifted)


class TestKernelizeDs:
    def test_examples(self):
        for g, k in [(star_graph(4), 1), (path_graph(4), 1), (cycle_graph(6), 2)]:
            inst = Instance(problem=Problem.DS, graph=g, k=k)
            out = kernelize_ds(inst, compute_closure(g).c)
            expected = oracle_ds(g) <= k
            if isinstance(out, Decided):
                assert out.answer == expected
            else:
                assert out.instance.problem is Problem.DS
                assert oracle_answer(out.instance) == expected

    def test_k0_empty_graph(self):
        out = kernelize_ds(Instance(problem=Problem.DS, graph=Graph(), k=0), 1)
        assert isinstance(out, Decided) and out.answer

    @settings(max_examples=100)
    @given(st.integers(0, 10 ** 6), st.integers(0, 8), st.integers(0, 3))
    def test_randomized_equivalence(self, seed, n, k):
        g = random_graph(n, 0.4, seed)
        inst = Instance(problem=Problem.DS, graph=g, k=k)
        c = compute_closure(g).c
        expected = oracle_ds(g) <= k
        out = kernelize_ds(inst, c)
        if isinstance(out, Decided):
            assert out.answer == expected
        else:
            assert oracle_answer(out.instance) == expected
            # trace replays to the output bit-exactly
            colored = Instance(
                problem=Problem.BW_TDS, graph=g, k=k, r=1, coloring=Coloring()
            )
            final = replay_trace(colored, out.trace)
            assert final.graph == out.instance.graph
            assert final.problem is Problem.DS


class TestBipartitePipeline:
    def make_bipartite(self, seed, n, k, p=0.4):
        rng = random.Random(seed)
        left = n // 2
        g = Graph(
            range(n),
            [(u, v) for u in range(left) for v in range(left, n) if rng.random() < p],
        )
        white = frozenset(v for v in g.vertex_ids if rng.random() < 0.4)
        inst = Instance(
            problem=Problem.BW_TDS,
            graph=g,
            k=k,
            r=1,
            coloring=Coloring(white),
            bipartition=Bipartition(frozenset(range(left))),
        )
        return inst

    def test_high_degree_rule_example(self):
        # c=2, k=2: center with 4 black leaves is removed, k drops
        g = star_graph(4)
        inst = Instance(
            problem=Problem.BW_TDS,
            graph=g,
            k=2,
            r=1,
            coloring=Coloring(),
            bipartition=Bipartition(frozenset({0})),
        )
        out = kernelize_bipartite_bwds(inst, inst.bipartition, 2)
        assert isinstance(out, Decided) and out.answer
        assert out.witness is not None and 0 in out.witness.elements

    def test_too_many_blacks_is_no(self):
        # c=1, k=1: ck^2 = 1 isolated black vertices -> 2 blacks is a No
        g = Graph(range(2))
        inst = Instance(
            problem=Problem.BW_TDS,
            graph=g,
            k=1,
            r=1,
            coloring=Coloring(),
            bipartition=Bipartition(frozenset({0, 1})),
        )
        out = kernelize_bipartite_bwds(inst, inst.bipartition, 1)
        assert out == Decided(inst, (), False)

    def test_white_leaf_removed(self):
        g = path_graph(2)
        inst = Instance(
            problem=Problem.BW_TDS,
            graph=g,
            k=1,
            r=1,
            coloring=Coloring(frozenset({1})),
            bipartition=Bipartition(frozenset({0})),
        )
        out = kernelize_bipartite_bwds(inst, inst.bipartition, 1)
        if isinstance(out, Reduced):
            assert 1 not in out.instance.graph.vertex_ids

    def test_non_bipartite_rejected(self):
        g = complete_graph(3)
        inst = Instance(
            problem=Problem.BW_TDS, graph=g, k=1, r=1, coloring=Coloring()
        )
        from cclose import BipartitionError

        with pytest.raises(BipartitionError):
            kernelize_bipartite_bwds(inst, Bipartition(frozenset({0})), 1)

    @settings(max_examples=120)
    @given(st.integers(0, 10 ** 6), st.integers(0, 10), st.integers(0, 3))
    def test_randomized_equivalence(self, seed, n, k):
        inst = self.make_bipartite(seed, n, k)
        c = compute_closure(inst.graph).c
        expected = oracle_answer(inst)
        out = kernelize_bipartite_bwds(inst, inst.bipartition, c)
        if isinstance(out, Decided):
            assert out.answer == expected
            if out.answer:
                assert out.witness is not None and validate_witness(inst, out.witness)
        else:
            assert oracle_answer(out.instance) == expected
            kk = out.instance.k
            assert out.instance.graph.n <= c * kk * kk + c * comb(c * kk * kk, 2)
            state = inst
            for record in out.trace:
                state = replay(state, record)
                assert is_c_closed(state.graph, c)
                assert oracle_answer(state) == expected


class TestHittingSetReduction:
    def test_example(self):
        hs = HittingSetInstance(
            universe=(0, 1, 2), sets=(frozenset({0, 1}), frozenset({1, 2})), set_size=2, k=1
        )
        inst = hitting_set_to_ds(hs)
        assert inst.graph.n == 5
        assert oracle_ds(inst.graph) <= 1  # {1} hits everything and dominates

    def test_empty_family_is_clique(self):
        hs = HittingSetInstance(universe=(0, 1, 2), sets=(), set_size=2, k=1)
        inst = hitting_set_to_ds(hs)
        assert inst.graph.is_clique([0, 1, 2])
        assert oracle_ds(inst.graph) == 1

    def test_nonuniform_rejected(self):
        with pytest.raises(ValueError):
            HittingSetInstance(
                universe=(0, 1, 2),
                sets=(frozenset({0}), frozenset({1, 2})),
                set_size=2,
                k=1,
            )

    @settings(max_examples=80)
    @given(st.integers(0, 10 ** 6), st.integers(2, 3), st.integers(1, 3))
    def test_answers_match_and_closure_bounded(self, seed, lam, k):
        rng = random.Random(seed)
        universe = tuple(range(rng.randrange(lam, 8)))
        from itertools import combinations

        all_sets = [frozenset(s) for s in combinations(universe, lam)]
        rng.shuffle(all_sets)
        sets = tuple(all_sets[: rng.randrange(0, min(6, len(all_sets)) + 1)])
        hs = HittingSetInstance(universe=universe, sets=sets, set_size=lam, k=k)
        inst = hitting_set_to_ds(hs)
        hit = brute_hitting_set(universe, sets)
        assert (hit is not None and hit <= k) == (oracle_ds(inst.graph) <= k)
        assert compute_closure(inst.graph).c <= lam + 1


# An instance of a problem none of the kernels below takes; each one names
# the problem it expected.
IS_PATH = Instance(problem=Problem.IS, graph=path_graph(2), k=1)
IS_PARTS = Bipartition(frozenset({0}))


@pytest.mark.parametrize(
    "kernel",
    [
        lambda: kernelize_bwtds(IS_PATH, 2),
        lambda: uncolor_gadget(IS_PATH),
        lambda: kernelize_ds(IS_PATH, 2),
        lambda: kernelize_bipartite_bwds(IS_PATH, IS_PARTS, 2),
        lambda: kernelize_im(IS_PATH, 2),
        lambda: kernelize_im_bipartite(IS_PATH, IS_PARTS, "delta", 2),
        lambda: kernelize_irs(IS_PATH, 2),
    ],
    ids=[
        "kernelize_bwtds",
        "uncolor_gadget",
        "kernelize_ds",
        "kernelize_bipartite_bwds",
        "kernelize_im",
        "kernelize_im_bipartite",
        "kernelize_irs",
    ],
)
def test_a_kernel_rejects_an_instance_of_another_problem(kernel):
    with pytest.raises(ValueError, match="expected a"):
        kernel()


# Two disjoint edges and two isolated vertices, the sides passed apart from
# the instance: each bipartite kernel reduces it, keeping vertices 0, 2 and 3
# (IM drops the isolated vertices; BW-DS drops the whites 1, 4 and 5).
TWO_EDGES = Graph(range(6), [(0, 1), (2, 3)])
TWO_EDGES_PARTS = Bipartition(frozenset({0, 2, 4}))


@pytest.mark.parametrize(
    "inst, kernel",
    [
        (Instance(problem=Problem.IM, graph=TWO_EDGES, k=2),
         lambda inst, parts: kernelize_im_bipartite(inst, parts, "delta")),
        (bw(TWO_EDGES, k=2, white={1, 4, 5}),
         lambda inst, parts: kernelize_bipartite_bwds(inst, parts, 1)),
    ],
    ids=["kernelize_im_bipartite", "kernelize_bipartite_bwds"],
)
def test_a_bipartite_kernel_reduces_on_the_sides_it_is_given(inst, kernel):
    out = kernel(inst, TWO_EDGES_PARTS)
    sided = replace(inst, bipartition=TWO_EDGES_PARTS)
    assert isinstance(out, Reduced)
    assert out.instance.bipartition == Bipartition(frozenset({0, 2}))
    assert out.instance == replay_trace(sided, out.trace)
    assert kernel(sided, TWO_EDGES_PARTS) == out
    with pytest.raises(ValueError, match="differ"):
        kernel(replace(inst, bipartition=Bipartition(frozenset({1, 2, 4}))), TWO_EDGES_PARTS)
