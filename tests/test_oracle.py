import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cclose import (
    Coloring,
    Graph,
    Instance,
    Problem,
    ResourceLimitError,
    Witness,
    is_induced_matching,
    is_irredundant,
    oracle_answer,
    oracle_ds,
    oracle_tds,
    path_graph,
    validate_witness,
)
from cclose.errors import ExtractionError
from cclose.oracle import LIMIT, _counting_start, _im_conflicts, _index, certified_witness, r_dominates_blacks

from helpers import (
    atlas_graphs,
    complete_graph,
    cycle_graph,
    mask_induced_matching,
    mask_irredundant,
    random_graph,
    reference_im_conflicts,
    scan_im,
    scan_irs,
    scan_is,
    scan_tds,
    scattered_graphs,
    star_graph,
)


def optimum(problem: Problem, g: Graph) -> int:
    """The largest k at which ``oracle_answer`` says yes for an IS, IM or
    IRS instance on ``g``."""
    k = 0
    while oracle_answer(Instance(problem=problem, graph=g, k=k + 1)):
        k += 1
    return k


def test_hand_values():
    c5 = cycle_graph(5)
    assert optimum(Problem.IS, c5) == 2
    assert oracle_ds(c5) == 2
    assert optimum(Problem.IM, c5) == 1
    assert oracle_tds(complete_graph(3), r=2) == 2
    assert optimum(Problem.IRS, complete_graph(7)) == 1
    assert optimum(Problem.IRS, Graph(range(6))) == 6


def test_more_hand_values():
    assert optimum(Problem.IS, path_graph(4)) == 2
    assert oracle_ds(path_graph(4)) == 2
    assert optimum(Problem.IM, path_graph(5)) == 2
    assert optimum(Problem.IM, path_graph(4)) == 1
    assert oracle_ds(star_graph(5)) == 1
    assert oracle_ds(cycle_graph(6)) == 2


def test_tds_infeasible():
    assert oracle_tds(Graph(range(2)), r=2) is None
    assert oracle_tds(Graph(range(2), [(0, 1)]), r=2) == 2
    assert oracle_tds(Graph(range(3)), coloring=Coloring(frozenset({0, 1, 2})), r=5) == 0


def test_tds_black_only_demand():
    # one black vertex with a white neighbor: picking either dominates it
    g = path_graph(2)
    assert oracle_tds(g, coloring=Coloring(frozenset({1})), r=1) == 1


def test_empty_graph():
    empty = Graph()
    assert optimum(Problem.IS, empty) == 0
    assert oracle_ds(empty) == 0
    assert optimum(Problem.IM, empty) == 0
    assert optimum(Problem.IRS, empty) == 0


def test_open_privacy_variant():
    # under open privacy, an adjacent pair certifies each other in a clique
    k4 = complete_graph(4)
    assert scan_irs(k4, open_privacy=True) == 2
    assert optimum(Problem.IRS, k4) == 1


def test_resource_limit():
    # One limit for every oracle: a path on LIMIT = 16 vertices is answered,
    # and one on 17 is refused.
    assert LIMIT == 16
    for n in (LIMIT, LIMIT + 1):
        g = path_graph(n)
        black_odd = Coloring(frozenset(range(0, n, 2)))
        instances = [
            Instance(problem=Problem.IS, graph=g, k=8),
            Instance(problem=Problem.IM, graph=g, k=6),
            Instance(problem=Problem.IRS, graph=g, k=8),
            Instance(problem=Problem.DS, graph=g, k=6),
            Instance(problem=Problem.TDS, graph=g, k=11, r=2),
            Instance(problem=Problem.BW_TDS, graph=g, k=8, r=1, coloring=black_odd),
        ]
        calls = [lambda: oracle_ds(g), lambda: oracle_tds(g, black_odd, 2)]
        calls += [lambda inst=inst: oracle_answer(inst) for inst in instances]
        for call in calls:
            if n > LIMIT:
                with pytest.raises(ResourceLimitError, match="oracle limit is 16 vertices, got 17"):
                    call()
            else:
                assert call() is not None


@given(st.integers(0, 2 ** 31), st.integers(0, 9))
def test_ds_equals_tds_r1_all_black(seed, n):
    g = random_graph(n, 0.4, seed)
    assert oracle_ds(g) == oracle_tds(g, coloring=Coloring(), r=1)


@given(st.integers(0, 2 ** 31), st.integers(0, 8))
def test_irs_at_least_is(seed, n):
    # independent sets are irredundant, so IR >= alpha
    g = random_graph(n, 0.5, seed)
    alpha = optimum(Problem.IS, g)
    assert oracle_answer(Instance(problem=Problem.IRS, graph=g, k=alpha))


# -- the ordered-extension search against the subset-scan references ---------

SCANS = {Problem.IS: scan_is, Problem.IM: scan_im, Problem.IRS: scan_irs}


def sparse_id_graph(seed: int, n: int, p: float) -> Graph:
    """A G(n, p) graph on n distinct ids drawn from 0..99, not 0..n-1."""
    rng = random.Random(seed)
    ids = sorted(rng.sample(range(100), n))
    edges = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:] if rng.random() < p]
    return Graph(ids, edges)


def assert_matches_scan(problem: Problem, g: Graph) -> None:
    """``oracle_answer`` says yes exactly for the budgets up to the scan's
    value, for every k from 0 to n + 1."""
    best = SCANS[problem](g)
    answers = [oracle_answer(Instance(problem=problem, graph=g, k=k)) for k in range(g.n + 2)]
    assert answers == [best >= k for k in range(g.n + 2)]


graph_params = (st.integers(0, 2 ** 31), st.integers(0, 14), st.sampled_from([0.1, 0.3, 0.5, 0.8]))


@pytest.mark.parametrize("problem", list(SCANS))
@given(*graph_params)
def test_search_matches_scan(problem, seed, n, p):
    assert_matches_scan(problem, sparse_id_graph(seed, n, p))


def test_search_matches_scan_on_atlas():
    for g in atlas_graphs():
        for problem in SCANS:
            assert_matches_scan(problem, g)


@given(st.integers(0, 2 ** 31), st.integers(0, LIMIT), st.sampled_from([0.1, 0.3, 0.5, 0.8, 1.0]))
def test_im_conflicts_match_the_per_edge_reference(seed, n, p):
    # The per-vertex masks or'ed pairwise equal the bit-by-bit or over
    # N[a] ∪ N[b], edge for edge, up to the oracle's size limit.
    g = sparse_id_graph(seed, n, p)
    assert _im_conflicts(g) == reference_im_conflicts(g)


def test_im_conflicts_match_the_per_edge_reference_on_atlas():
    for g in atlas_graphs():
        assert _im_conflicts(g) == reference_im_conflicts(g)


@pytest.mark.parametrize("problem", [Problem.DS, Problem.TDS, Problem.BW_TDS])
@given(st.integers(0, 2 ** 31), st.integers(0, 10), st.sampled_from([0.1, 0.3, 0.5, 0.8]))
def test_domination_answers_compare_the_optimum_with_k(problem, seed, n, p):
    g = sparse_id_graph(seed, n, p)
    rng = random.Random(seed)
    r = coloring = None
    if problem is Problem.DS:
        opt = oracle_ds(g)
    else:
        r = rng.randint(1, 3)
        if problem is Problem.BW_TDS:
            coloring = Coloring(frozenset(v for v in g.vertex_ids if rng.random() < 0.5))
        opt = oracle_tds(g, coloring, r)
    for k in range(g.n + 2):
        inst = Instance(problem=problem, graph=g, k=k, r=r, coloring=coloring)
        assert oracle_answer(inst) == (opt is not None and opt <= k)


# -- the DS/TDS candidate test against the bit-by-bit scan -------------------


def assert_domination_matches_scan(g: Graph, coloring: Coloring | None, r: int) -> None:
    """``oracle_tds`` equals the scan's optimum, None included, and
    ``oracle_answer`` says yes exactly for the budgets at or above it, for
    every k from 0 to n + 1. Uncoloured graphs are TDS instances, and at
    r = 1 also DS instances, where ``oracle_ds`` gives the same optimum;
    coloured graphs are BW-TDS instances."""
    best = scan_tds(g, coloring, r)
    assert oracle_tds(g, coloring, r) == best
    if coloring is not None:
        kinds = [dict(problem=Problem.BW_TDS, r=r, coloring=coloring)]
    else:
        kinds = [dict(problem=Problem.TDS, r=r)]
        if r == 1:
            assert oracle_ds(g) == best
            kinds.append(dict(problem=Problem.DS))
    budgets = range(g.n + 2)
    for fields in kinds:
        answers = [oracle_answer(Instance(graph=g, k=k, **fields)) for k in budgets]
        assert answers == [best is not None and best <= k for k in budgets]


@given(
    st.integers(0, 2 ** 31),
    st.integers(0, 12),
    st.sampled_from([0.1, 0.3, 0.5, 0.8]),
    st.sampled_from([1, 2, 3]),
    st.booleans(),
)
def test_domination_matches_scan(seed, n, p, r, coloured):
    g = sparse_id_graph(seed, n, p)
    coloring = None
    if coloured:
        rng = random.Random(seed)
        coloring = Coloring(frozenset(v for v in g.vertex_ids if rng.random() < 0.5))
    assert_domination_matches_scan(g, coloring, r)


def test_domination_matches_scan_on_atlas():
    for g in atlas_graphs():
        odd = Coloring(frozenset(g.vertex_ids[1::2]))
        for r in (1, 2, 3):
            assert_domination_matches_scan(g, None, r)
            assert_domination_matches_scan(g, odd, r)


# -- where the DS/TDS scan starts ---------------------------------------------


def counting_start(g: Graph, coloring: Coloring | None, r: int) -> int:
    """The size ``oracle_tds`` starts its scan at on ``g``."""
    pos, _, cnbr = _index(g)
    black = g.vertex_ids if coloring is None else coloring.black_of(g)
    return _counting_start(cnbr, [pos[v] for v in black], r)


@given(
    st.integers(0, 2 ** 31),
    st.integers(0, 14),
    st.sampled_from([0.1, 0.3, 0.5, 0.8]),
    st.sampled_from([1, 2, 3]),
    st.booleans(),
)
def test_counting_start_never_exceeds_the_scan(seed, n, p, r, coloured):
    g = sparse_id_graph(seed, n, p)
    coloring = None
    if coloured:
        rng = random.Random(seed)
        coloring = Coloring(frozenset(v for v in g.vertex_ids if rng.random() < 0.5))
    best = scan_tds(g, coloring, r)
    if best is not None:
        assert counting_start(g, coloring, r) <= best


def disjoint_stars(leaves: list[int]) -> Graph:
    """Disjoint stars K_{1,t}, one per entry t of ``leaves`` (t = 0 is an
    isolated vertex, t = 1 an edge), each centre followed by its leaves, on
    the ids 0, 7, 14, ..."""
    edges, n = [], 0
    for t in leaves:
        edges += [(7 * n, 7 * (n + i)) for i in range(1, t + 1)]
        n += t + 1
    return Graph(range(0, 7 * n, 7), edges)


def white_leaves(g: Graph) -> Coloring:
    """The vertices of degree 1 are white: the leaves of stars with at least
    two leaves each."""
    return Coloring(frozenset(v for v in g.vertex_ids if g.degree(v) == 1))


@pytest.mark.parametrize(
    "leaves, coloured, r, best",
    [
        *[([1] * k, False, 1, k) for k in range(9)],
        *[([1] * k, False, 2, 2 * k) for k in (1, 3, 8)],
        *[([0] * n, False, 1, n) for n in (1, 5, 16)],
        ([1, 2, 3, 4], False, 1, 4),
        ([15], False, 1, 1),
        ([2, 3, 4], True, 1, 3),
        ([2, 3, 4], True, 2, 6),
    ],
)
def test_counting_start_is_tight_on_disjoint_stars(leaves, coloured, r, best):
    # families on which the counting bound is the optimum, so a start one
    # higher would skip it
    g = disjoint_stars(leaves)
    coloring = white_leaves(g) if coloured else None
    assert counting_start(g, coloring, r) == best == oracle_tds(g, coloring, r)


@pytest.mark.parametrize("r", [0, -1])
def test_tds_rejects_r_below_one(r):
    with pytest.raises(ValueError, match="r must be positive"):
        oracle_tds(path_graph(3), r=r)


@pytest.mark.parametrize("problem", list(SCANS))
def test_size_limit_comes_before_any_answer(problem):
    # verify counts ResourceLimitError as "too large to cross-check", so the
    # limit must hold for every budget, k = 0 included
    g = sparse_id_graph(7, LIMIT + 1, 0.3)
    for k in range(g.n + 2):
        with pytest.raises(ResourceLimitError):
            oracle_answer(Instance(problem=problem, graph=g, k=k))


class TestPredicates:
    def test_induced_matching_predicate(self):
        c4 = cycle_graph(4)
        assert is_induced_matching(c4, [(0, 1)])
        assert not is_induced_matching(c4, [(0, 1), (2, 3)])  # cross edges exist
        g = Graph(range(4), [(0, 1), (2, 3)])
        assert is_induced_matching(g, [(0, 1), (2, 3)])
        assert not is_induced_matching(g, [(0, 2)])  # not an edge

    def test_irredundant_predicate(self):
        k3 = complete_graph(3)
        assert is_irredundant(k3, [0])
        assert not is_irredundant(k3, [0, 1])

    def test_validate_witness_is(self):
        inst = Instance(problem=Problem.IS, graph=cycle_graph(4), k=2)
        assert validate_witness(inst, Witness.vertex_set({0, 2}, Problem.IS))
        assert not validate_witness(inst, Witness.vertex_set({0, 1}, Problem.IS))
        assert not validate_witness(inst, Witness.vertex_set({0}, Problem.IS))

    def test_validate_witness_ds(self):
        inst = Instance(problem=Problem.DS, graph=star_graph(3), k=1)
        assert validate_witness(inst, Witness.vertex_set({0}, Problem.DS))
        assert not validate_witness(inst, Witness.vertex_set({1}, Problem.DS))

    def test_validate_witness_im(self):
        g = Graph(range(4), [(0, 1), (2, 3)])
        inst = Instance(problem=Problem.IM, graph=g, k=2)
        assert validate_witness(inst, Witness.edge_set([(0, 1), (2, 3)], Problem.IM))
        bad = Instance(problem=Problem.IM, graph=cycle_graph(4), k=2)
        assert not validate_witness(bad, Witness.edge_set([(0, 1), (2, 3)], Problem.IM))

    @pytest.mark.parametrize(
        "check",
        [
            lambda: r_dominates_blacks(path_graph(2), [0, 5], None, 1),
            lambda: is_induced_matching(path_graph(2), [(0, 1), (1, 0)]),
            lambda: is_induced_matching(path_graph(3), [(0, 1), (1, 2)]),
            lambda: is_irredundant(path_graph(2), [7]),
            lambda: validate_witness(
                Instance(problem=Problem.DS, graph=path_graph(2), k=2),
                Witness.vertex_set({0, 9}, Problem.DS),
            ),
        ],
        ids=[
            "dominator-outside-the-graph",
            "edge-listed-twice",
            "edges-sharing-an-endpoint",
            "irredundant-member-outside-the-graph",
            "witness-vertex-outside-the-graph",
        ],
    )
    def test_validators_reject(self, check):
        assert check() is False

    def test_mismatched_problem_rejected(self):
        inst = Instance(problem=Problem.IS, graph=cycle_graph(4), k=1)
        with pytest.raises(ValueError):
            validate_witness(inst, Witness.vertex_set({0}, Problem.DS))


@st.composite
def scattered_edge_lists(draw):
    """A sparse graph on up to 10 ids from 0..20 (a pair is an edge when a
    drawn 0..3 is 0), and a list of pairs: either an induced matching peeled
    greedily from its edges in a drawn order, or up to 4 of its edges in
    either order and pairs of members from 0..21 (self pairs, non-edges and
    ids outside the graph); then at times one more such pair, or a reversed
    repeat of the first pair."""
    ids = sorted(draw(st.sets(st.integers(0, 20), max_size=10)))
    slots = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    picks = draw(st.lists(st.integers(0, 3), min_size=len(slots), max_size=len(slots)))
    g = Graph(ids, [slot for slot, pick in zip(slots, picks) if pick == 0])
    member = st.sampled_from(g.vertex_ids) | st.integers(0, 21) if g.n else st.integers(0, 21)
    pair = st.tuples(member, member) | member.map(lambda v: (v, v))
    if g.m:
        edge = st.sampled_from(g.edges())
        pair = edge | edge.map(lambda e: e[::-1]) | pair
    if draw(st.booleans()):
        pairs, near = [], set()
        for u, v in draw(st.permutations(g.edges())):
            if u not in near and v not in near:
                pairs.append((u, v) if draw(st.booleans()) else (v, u))
                near |= g.closed_neighborhood(u) | g.closed_neighborhood(v)
    else:
        pairs = draw(st.lists(pair, max_size=4))
    extra = draw(st.sampled_from(["none", "pair", "reversed repeat"]))
    if extra == "pair":
        pairs.append(draw(pair))
    elif extra == "reversed repeat" and pairs:
        pairs.append(pairs[0][::-1])
    return g, pairs


@given(scattered_edge_lists())
def test_is_induced_matching_agrees_with_the_mask_scan(case):
    g, pairs = case
    expected = mask_induced_matching(g, pairs)
    assert is_induced_matching(g, pairs) == expected
    assert is_induced_matching(g, tuple(pairs)) == expected
    assert is_induced_matching(g, (tuple(p) for p in pairs)) == expected
    assert is_induced_matching(g, [])


@given(scattered_graphs())
def test_is_irredundant_agrees_with_the_mask_scan(case):
    g, vs = case
    for members in (vs, [v for v in vs if g.has_vertex(v)]):
        expected = mask_irredundant(g, members)
        assert is_irredundant(g, members) == expected
        assert is_irredundant(g, iter(members)) == expected
        assert is_irredundant(g, frozenset(members)) == expected
    assert is_irredundant(g, [])


@given(scattered_graphs(), st.none() | st.frozensets(st.integers(0, 21)), st.integers(0, 3))
def test_r_dominates_blacks_agrees_with_the_per_black_count(case, white, r):
    g, vs = case
    coloring = None if white is None else Coloring(white)
    black = [v for v in g.vertex_ids if white is None or v not in white]
    for d in (vs, [v for v in vs if g.has_vertex(v)]):
        dset = set(d)
        expected = all(g.has_vertex(v) for v in dset) and all(
            len(g.closed_neighborhood(v) & dset) >= r for v in black
        )
        assert r_dominates_blacks(g, d, coloring, r) == expected
        assert r_dominates_blacks(g, iter(d), coloring, r) == expected
    assert r_dominates_blacks(g, [], coloring, r) == (r == 0 or not black)


class TestCertifiedWitness:
    """``certified_witness`` returns a valid witness and raises on an invalid
    one."""

    inst = Instance(problem=Problem.IS, graph=path_graph(3), k=2)

    def test_valid_witness_passes_either_way(self):
        w = Witness.vertex_set({0, 2}, Problem.IS)
        assert certified_witness(self.inst, w) is w

    def test_failed_validation(self):
        with pytest.raises(ExtractionError, match="extracted IS witness fails validation"):
            certified_witness(self.inst, Witness.vertex_set({0, 1}, Problem.IS))
