import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclose import (
    Graph,
    Instance,
    Problem,
    compute_closure,
    oracle_ds,
    oracle_tds,
    path_graph,
    solve_ds,
    solve_tds,
    validate_witness,
)

from helpers import complete_graph, cycle_graph, random_graph, star_graph


def test_star_yes_with_center():
    answer, witness = solve_tds(star_graph(4), 2, 1, 1)
    assert answer and witness.elements == {0}


def test_p4_needs_two():
    assert solve_tds(path_graph(4), 2, 1, 1) == (False, None)
    answer, witness = solve_tds(path_graph(4), 2, 1, 2)
    assert answer and len(witness.elements) <= 2


def test_k3_double_domination():
    answer, witness = solve_tds(complete_graph(3), 1, 2, 2)
    assert answer and len(witness.elements) == 2


def test_infeasible_r():
    assert solve_tds(Graph(range(2)), 1, 2, 2) == (False, None)


def test_empty_graph_k0():
    answer, witness = solve_ds(Graph(), 1, 0)
    assert answer and witness.elements == frozenset()


def test_ds_cycle():
    assert solve_ds(cycle_graph(6), 3, 2)[0]
    assert not solve_ds(cycle_graph(6), 3, 1)[0]


def test_not_c_closed_rejected():
    with pytest.raises(ValueError):
        solve_ds(cycle_graph(4), 2, 1)


@settings(max_examples=150)
@given(st.integers(0, 10 ** 6), st.integers(0, 10), st.integers(0, 3))
def test_ds_agrees_with_oracle(seed, n, k):
    g = random_graph(n, 0.4, seed)
    c = compute_closure(g).c
    answer, witness = solve_ds(g, c, k)
    assert answer == (oracle_ds(g) <= k)
    if answer:
        assert validate_witness(Instance(problem=Problem.DS, graph=g, k=k), witness)


@settings(max_examples=150)
@given(st.integers(0, 10 ** 6), st.integers(0, 10), st.integers(0, 3), st.integers(1, 2))
def test_tds_agrees_with_oracle(seed, n, k, r):
    g = random_graph(n, 0.45, seed)
    c = compute_closure(g).c
    answer, witness = solve_tds(g, c, r, k)
    opt = oracle_tds(g, None, r)
    assert answer == (opt is not None and opt <= k)
    if answer:
        assert validate_witness(Instance(problem=Problem.TDS, graph=g, k=k, r=r), witness)


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6), st.integers(0, 3), st.integers(1, 2))
def test_colored_leaves_match_oracle(seed, k, r):
    # denser graphs push the solver into the branching arm
    g = random_graph(9, 0.65, seed)
    c = compute_closure(g).c
    answer, _ = solve_tds(g, c, r, k)
    opt = oracle_tds(g, None, r)
    assert answer == (opt is not None and opt <= k)
