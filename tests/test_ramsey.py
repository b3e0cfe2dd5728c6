import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclose import (
    Bipartition,
    Clique,
    ExtractionError,
    Graph,
    IndependentSet,
    Matching,
    PreconditionError,
    Problem,
    ceil_sqrt,
    clique_or_im,
    clique_or_im_saturating,
    clique_or_independent_set,
    closure_repair,
    compute_closure,
    dense_bipartite_threshold,
    disjoint_cliques,
    im_bipartite_from_matching,
    im_dense_bipartite,
    im_from_bounded_degree,
    im_from_high_degree,
    is_induced_matching,
    matching_threshold,
    max_matching_general,
    ramsey_threshold,
    saturated_threshold,
    unrestricted_threshold,
)
from cclose import ramsey

from helpers import (
    cycle_graph,
    oracle_yes,
    random_c_closed_bipartite,
    random_c_closed_graph,
    star_graph,
)

import random


class TestThresholds:
    def test_formula_examples(self):
        assert ramsey_threshold(2, 3, 3) == 6
        assert ramsey_threshold(1, 2, 2) == 2
        assert matching_threshold(1, 2) == 12
        assert (ramsey_threshold(2, 3, 3), matching_threshold(2, 3)) == (6, 2 * 2 * 9 + 6)
        assert saturated_threshold(2, 3, 3) == matching_threshold(2, 6)
        assert unrestricted_threshold(2, 3, 3) == matching_threshold(2, ramsey_threshold(2, 3, 6))

    def test_unit_clique_clamp(self):
        assert ramsey_threshold(3, 1, 4) == 1
        assert ramsey_threshold(1, 1, 9) == 1

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            ramsey_threshold(0, 1, 1)
        for threshold in (ramsey_threshold, saturated_threshold, unrestricted_threshold):
            with pytest.raises(ValueError):
                threshold(1, 1, 0)

    @given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 8))
    def test_monotone_in_each_argument(self, c, a, b):
        base = ramsey_threshold(c, a, b)
        assert ramsey_threshold(c + 1, a, b) >= base
        assert ramsey_threshold(c, a + 1, b) >= base
        assert ramsey_threshold(c, a, b + 1) >= base
        assert matching_threshold(c, b) <= matching_threshold(c + 1, b)
        assert saturated_threshold(c, a, b) <= saturated_threshold(c, a + 1, b)
        assert unrestricted_threshold(c, a, b) >= saturated_threshold(c, a, b) or b == 0

    @given(st.integers(0, 10 ** 6))
    def test_ceil_sqrt(self, x):
        t = ceil_sqrt(x)
        assert t * t >= x and (t == 0 or (t - 1) * (t - 1) < x)


class TestCliqueOrIndependentSet:
    def test_c6_gives_independent_set(self):
        out = clique_or_independent_set(cycle_graph(6), 2, 3, 3)
        assert isinstance(out, IndependentSet)
        assert out.vertices == {0, 2, 4}

    def test_c5_below_threshold(self):
        with pytest.raises(PreconditionError):
            clique_or_independent_set(cycle_graph(5), 2, 3, 3)

    def test_tight_family_fails_precondition(self):
        # b-1 cliques of size a-1 has exactly R_1(a, b) - 1 vertices
        a, b = 4, 3
        g = disjoint_cliques(b - 1, a - 1)
        assert g.n == ramsey_threshold(1, a, b) - 1
        with pytest.raises(PreconditionError):
            clique_or_independent_set(g, 1, a, b)

    def test_cluster_graph(self):
        g = disjoint_cliques(2, 3)
        out = clique_or_independent_set(g, 1, 3, 2)
        if isinstance(out, Clique):
            assert g.is_clique(out.vertices) and len(out.vertices) == 3
        else:
            assert g.is_independent_set(out.vertices) and len(out.vertices) == 2

    def test_unit_clique(self):
        out = clique_or_independent_set(Graph(range(1)), 1, 1, 5)
        assert isinstance(out, Clique) and len(out.vertices) == 1

    def test_not_c_closed_rejected(self):
        with pytest.raises(ValueError):
            clique_or_independent_set(cycle_graph(4), 2, 2, 2)

    @settings(max_examples=60)
    @given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4))
    def test_randomized_valid_witnesses(self, seed, c, a, b):
        need = ramsey_threshold(c, a, b)
        rng = random.Random(seed)
        n = need + rng.randrange(6)
        g = random_c_closed_graph(n, c, 0.35, seed)
        out = clique_or_independent_set(g, c, a, b)
        if isinstance(out, Clique):
            assert len(out.vertices) == a and g.is_clique(out.vertices)
        else:
            assert len(out.vertices) == b and g.is_independent_set(out.vertices)


class TestBoundedDegreePeeling:
    def test_disjoint_edges(self):
        # Delta = 1, so a matching of 2b disjoint edges meets the bound
        b = 3
        g = Graph(range(4 * b), [(2 * i, 2 * i + 1) for i in range(2 * b)])
        m = Matching.of(g.edges())
        out = im_from_bounded_degree(g, m, b)
        assert len(out) == b
        assert out.sorted_edges() == [(0, 1), (2, 3), (4, 5)]

    def test_c8(self):
        g = cycle_graph(8)
        m = Matching.of([(0, 1), (2, 3), (4, 5), (6, 7)])
        out = im_from_bounded_degree(g, m, 1)
        assert is_induced_matching(g, out.edges)

    def test_p9_with_maximum_matching(self):
        g = Graph(range(9), [(i, i + 1) for i in range(8)])
        m = max_matching_general(g)
        assert len(m) == 4  # = 2 * Delta * b with b = 1
        out = im_from_bounded_degree(g, m, 1)
        assert is_induced_matching(g, out.edges) and len(out) == 1

    def test_precondition(self):
        g = cycle_graph(8)
        with pytest.raises(PreconditionError):
            im_from_bounded_degree(g, Matching.of([(0, 1)]), 2)

    @settings(max_examples=40)
    @given(st.integers(0, 10 ** 6), st.integers(1, 3))
    def test_randomized(self, seed, b):
        rng = random.Random(seed)
        pairs = rng.randrange(8, 16)
        base = [(2 * i, 2 * i + 1) for i in range(pairs)]
        g = Graph(range(2 * pairs), base)
        extra = rng.randrange(6)
        for _ in range(extra):  # add noise but keep max degree low
            u, v = rng.randrange(2 * pairs), rng.randrange(2 * pairs)
            if u != v and not g.has_edge(u, v) and g.degree(u) < 3 and g.degree(v) < 3:
                g = g.with_edges([(u, v)])
        m = Matching.of(base)
        if len(m) >= 2 * g.max_degree() * b:
            out = im_from_bounded_degree(g, m, b)
            assert len(out) == b and is_induced_matching(g, out.edges)


class TestHighDegree:
    def test_single_high_degree_vertex(self):
        g = star_graph(4)
        out = im_from_high_degree(g, Bipartition(frozenset({0})), 2, 1)
        assert len(out) == 1

    def test_two_disjoint_neighborhoods(self):
        g = Graph(range(6), [(0, 2), (0, 3), (1, 4), (1, 5)])
        parts = Bipartition(frozenset({0, 1}))
        out = im_from_high_degree(g, parts, 1, 2)
        assert len(out) == 2 and is_induced_matching(g, out.edges)

    def test_double_star(self):
        # bipartite double star: two centers with 4 private leaves each
        edges = [(0, i) for i in range(2, 6)] + [(1, i) for i in range(6, 10)]
        g = Graph(range(10), edges)
        parts = Bipartition(frozenset({0, 1}))
        out = im_from_high_degree(g, parts, 2, 2)
        assert len(out) == 2 and is_induced_matching(g, out.edges)
        assert oracle_yes(Problem.IM, g, 2)

    def test_no_side_with_b_high_degree_vertices(self):
        # 0 and 2 have degree 2 = c * b, one on each side.
        g = Graph(range(4), [(0, 2), (0, 3), (1, 2)])
        with pytest.raises(PreconditionError, match="no side holds 2 vertices of degree >= 2"):
            im_from_high_degree(g, Bipartition(frozenset({0, 1})), 1, 2)

    def test_falls_back_to_the_other_side(self):
        # Left picks 0 and 1 share both their neighbours; right picks 4 and 5
        # keep 2 and 3 private.
        g = Graph(range(6), [(0, 4), (0, 5), (1, 4), (1, 5), (2, 4), (3, 5)])
        out = im_from_high_degree(g, Bipartition(frozenset({0, 1, 2, 3})), 1, 2)
        assert out.edges == {(2, 4), (3, 5)}

    @settings(max_examples=40)
    @given(st.integers(0, 10 ** 6), st.integers(1, 2), st.integers(1, 2))
    def test_randomized(self, seed, c, b):
        rng = random.Random(seed)
        hubs = 2 * b
        base = []
        nxt = hubs
        for h in range(hubs):  # plant 2b hubs of degree c*b (hubs on the left)
            for _ in range(c * b):
                base.append((h, nxt))
                nxt += 1
        g = Graph(range(nxt), base)
        g2, parts = random_c_closed_bipartite(hubs, nxt - hubs, c, 0.2, seed, base_edges=base)
        out = im_from_high_degree(g2, parts, c, b)
        assert len(out) == b and is_induced_matching(g2, out.edges)


class TestBipartiteFromMatching:
    def test_disjoint_edges_padded(self):
        c, b = 1, 2
        need = matching_threshold(c, b)
        g = Graph(range(2 * need), [(2 * i, 2 * i + 1) for i in range(need)])
        parts = Bipartition(frozenset(2 * i for i in range(need)))
        m = Matching.of(g.edges())
        out = im_bipartite_from_matching(g, parts, c, m, b)
        assert len(out) == b and is_induced_matching(g, out.edges)

    def test_below_threshold(self):
        g = Graph(range(4), [(0, 1), (2, 3)])
        parts = Bipartition(frozenset({0, 2}))
        with pytest.raises(PreconditionError):
            im_bipartite_from_matching(g, parts, 1, Matching.of(g.edges()), 2)

    @settings(max_examples=30)
    @given(st.integers(0, 10 ** 6), st.integers(1, 2), st.integers(1, 2))
    def test_randomized(self, seed, c, b):
        need = matching_threshold(c, b)
        base = [(i, need + i) for i in range(need)]
        g, parts = random_c_closed_bipartite(need, need, c, 0.08, seed, base_edges=base)
        out = im_bipartite_from_matching(g, parts, c, Matching.of(base), b)
        assert len(out) == b and is_induced_matching(g, out.edges)
        if g.n <= 16:
            assert oracle_yes(Problem.IM, g, b)


class TestSaturatingChain:
    def test_unit_clique(self):
        g = Graph(range(8), [(i, 4 + i) for i in range(4)])
        m = Matching.of(g.edges())
        out = clique_or_im_saturating(g, 1, frozenset(range(4)), m, 1, 1)
        assert isinstance(out, Clique) and len(out.vertices) == 1

    def test_c1_shapes(self):
        g = Graph(range(8), [(i, 4 + i) for i in range(4)])
        m = Matching.of(g.edges())
        out = clique_or_im_saturating(g, 1, frozenset(range(4)), m, 2, 1)
        if isinstance(out, Clique):
            assert g.is_clique(out.vertices) and len(out.vertices) == 2
        else:
            assert len(out) == 1 and is_induced_matching(g, out.edges)

    @settings(max_examples=25)
    @given(st.integers(0, 10 ** 6), st.integers(1, 2), st.integers(2, 3), st.integers(1, 2))
    def test_randomized(self, seed, c, a, b):
        need = saturated_threshold(c, a, b)
        base = [(i, need + i) for i in range(need)]
        # keep the planted set independent, let the far side get extra edges
        forbidden = frozenset(
            (i, j) for i in range(need) for j in range(i + 1, need)
        )
        g = random_c_closed_graph(
            2 * need, c, 0.05, seed, base_edges=base, forbidden_pairs=forbidden
        )
        m = Matching.of(base)
        out = clique_or_im_saturating(g, c, frozenset(range(need)), m, a, b)
        if isinstance(out, Clique):
            assert len(out.vertices) == a and g.is_clique(out.vertices)
        else:
            assert len(out) == b and is_induced_matching(g, out.edges)


class TestUnrestrictedChain:
    def test_unit_clique(self):
        g = Graph(range(8), [(i, 4 + i) for i in range(4)])
        out = clique_or_im(g, 1, Matching.of(g.edges()), 1, 3)
        assert isinstance(out, Clique)

    def test_c1_shapes(self):
        need = unrestricted_threshold(1, 2, 1)
        g = Graph(range(2 * need), [(2 * i, 2 * i + 1) for i in range(need)])
        out = clique_or_im(g, 1, Matching.of(g.edges()), 2, 1)
        if isinstance(out, Clique):
            assert g.is_clique(out.vertices)
        else:
            assert is_induced_matching(g, out.edges) and len(out) == 1

    @settings(max_examples=15)
    @given(st.integers(0, 10 ** 6), st.integers(1, 2), st.integers(2, 3), st.integers(1, 2))
    def test_randomized(self, seed, c, a, b):
        need = unrestricted_threshold(c, a, b)
        if need > 200:  # keep the biggest parameter combinations out of CI
            return
        base = [(2 * i, 2 * i + 1) for i in range(need)]
        g = random_c_closed_graph(2 * need, c, 0.03, seed, base_edges=base)
        out = clique_or_im(g, c, Matching.of(base), a, b)
        if isinstance(out, Clique):
            assert len(out.vertices) == a and g.is_clique(out.vertices)
        else:
            assert len(out) == b and is_induced_matching(g, out.edges)


def rook_graph(rows, cols):
    """K_rows □ K_cols: cell (i, j) is vertex i * cols + j, adjacent to every
    other cell of its row and of its column. Two cells in neither share
    exactly two neighbours, so the graph is 3-closed."""
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    edges = [
        (i * cols + j, h * cols + l)
        for (i, j) in cells
        for (h, l) in cells
        if (i, j) < (h, l) and (i == h or j == l)
    ]
    return Graph(range(rows * cols), edges)


# clique_or_im at (a, b) = (2, 2) on a maximum matching past its threshold.
# The two xfail cases raise ExtractionError("no private neighbor for vertex
# ...") today: the split graph handed to clique_or_im_saturating drops the
# edges inside the low side, so it is not c-closed (ROADMAP item 16).
UNRESTRICTED_FAILURES = pytest.mark.xfail(strict=True, raises=ExtractionError)


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(rook_graph(8, 8), id="rook-8x8"),
        pytest.param(rook_graph(10, 12), id="rook-10x12", marks=UNRESTRICTED_FAILURES),
        pytest.param(closure_repair(60, 0.08, 2, 0), id="closure-repair-60", marks=UNRESTRICTED_FAILURES),
    ],
)
def test_clique_or_im_on_a_dense_c_closed_graph(g):
    c = compute_closure(g).c
    m = max_matching_general(g)
    assert len(m) >= unrestricted_threshold(c, 2, 2)
    out = clique_or_im(g, c, m, 2, 2)
    if isinstance(out, Clique):
        assert len(out.vertices) == 2 and g.is_clique(out.vertices)
    else:
        assert len(out) == 2 and is_induced_matching(g, out.edges)


class TestDenseBipartite:
    def test_perfect_matching_graph(self):
        b = 2
        g = Graph(range(8 * b), [(2 * i, 2 * i + 1) for i in range(4 * b)])
        parts = Bipartition(frozenset(2 * i for i in range(4 * b)))
        out = im_dense_bipartite(g, parts, b)
        assert len(out) == b and is_induced_matching(g, out.edges)

    @pytest.mark.parametrize("centres_left", [True, False])
    def test_small_konig_cover_peels_the_stars(self, monkeypatch, centres_left):
        # 49 disjoint K_{1,16}: 833 vertices reach the threshold of 832 for
        # b = 2, but the matching of 49 is below 2 * Delta * b = 64, so the
        # cover branch runs; with the centres on either side, both
        # (near, far) orders are taken.
        b, delta, stars = 2, 16, 49
        edges = [(17 * s, 17 * s + j) for s in range(stars) for j in range(1, delta + 1)]
        g = Graph(range(17 * stars), edges)
        assert g.n == dense_bipartite_threshold(delta, b) + 1
        centres = frozenset(range(0, g.n, 17))
        parts = Bipartition(centres if centres_left else frozenset(g.vertex_ids) - centres)

        def bounded_degree(*args):
            raise AssertionError("the matching branch ran")

        monkeypatch.setattr(ramsey, "im_from_bounded_degree", bounded_degree)
        out = im_dense_bipartite(g, parts, b)
        assert len(out) == b and is_induced_matching(g, out.edges)

    def test_b1_any_edge(self):
        g = Graph(range(10), [(0, 5), (1, 5), (2, 5), (3, 5), (4, 5), (0, 6), (1, 7), (2, 8), (3, 9)])
        parts = Bipartition(frozenset(range(5)))
        need = dense_bipartite_threshold(g.max_degree(), 1)
        if g.n >= need:
            out = im_dense_bipartite(g, parts, 1)
            assert len(out) == 1

    def test_below_threshold(self):
        g = Graph(range(4), [(0, 1)])
        with pytest.raises(PreconditionError):
            im_dense_bipartite(g, Bipartition(frozenset({0, 2})), 2)

    @settings(max_examples=40)
    @given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 4))
    def test_randomized(self, seed, b, delta):
        rng = random.Random(seed)
        side = dense_bipartite_threshold(delta, b)  # generous
        edges = []
        degree = [0] * (2 * side)
        for u in range(side):
            for v in range(side, 2 * side):
                if degree[u] < delta and degree[v] < delta and rng.random() < 0.3:
                    edges.append((u, v))
                    degree[u] += 1
                    degree[v] += 1
        g = Graph(range(2 * side), edges)
        parts = Bipartition(frozenset(range(side)))
        live = sum(1 for v in g.vertex_ids if g.degree(v) > 0)
        if g.max_degree() > 0 and live >= dense_bipartite_threshold(g.max_degree(), b):
            out = im_dense_bipartite(g, parts, b)
            assert len(out) == b and is_induced_matching(g, out.edges)
            if g.n <= 16:
                assert oracle_yes(Problem.IM, g, b)
