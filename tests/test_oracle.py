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
from cclose.oracle import LIMIT, certified_witness, r_dominates_blacks

from helpers import (
    atlas_graphs,
    complete_graph,
    cycle_graph,
    random_graph,
    scan_im,
    scan_irs,
    scan_is,
    scan_tds,
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
