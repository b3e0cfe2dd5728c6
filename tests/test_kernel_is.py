import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclose import (
    Decided,
    Graph,
    Instance,
    Problem,
    Reduced,
    compute_closure,
    is_c_closed,
    kernelize_is,
    oracle_answer,
    replay_trace,
    validate_witness,
)
from cclose import kernel_is
from cclose.errors import ExtractionError

from helpers import (
    complete_graph,
    cycle_graph,
    oracle_yes,
    random_graph,
    restart_kernelize_is,
    star_graph,
)


def make(g, k, problem=Problem.IS):
    return Instance(problem=problem, graph=g, k=k)


def test_k5_strips_to_single_vertex():
    out = kernelize_is(make(complete_graph(5), 2), 1)
    assert isinstance(out, Reduced)
    assert out.instance.graph.n == 1
    assert oracle_answer(out.instance) == oracle_yes(Problem.IS, complete_graph(5), 2)


def test_star_decides_yes_with_witness():
    out = kernelize_is(make(star_graph(5), 2), 2)
    assert isinstance(out, Decided) and out.answer
    assert validate_witness(make(star_graph(5), 2), out.witness)


def test_k0_trivially_yes():
    out = kernelize_is(make(complete_graph(3), 0), 1)
    assert isinstance(out, Decided) and out.answer and out.witness.elements == frozenset()


def test_wrong_problem_rejected():
    with pytest.raises(ValueError):
        kernelize_is(Instance(problem=Problem.IM, graph=star_graph(2), k=1), 1)


def test_not_c_closed_rejected():
    with pytest.raises(ValueError):
        kernelize_is(make(cycle_graph(4), 1), 2)


@settings(max_examples=120)
@given(st.integers(0, 10 ** 6), st.integers(0, 10), st.integers(0, 3))
def test_equivalence_and_size_bound(seed, n, k):
    g = random_graph(n, 0.45, seed)
    c = compute_closure(g).c
    inst = make(g, k)
    expected = oracle_answer(inst)
    out = kernelize_is(inst, c)
    if isinstance(out, Decided):
        assert out.answer == expected
        if out.witness is not None:
            assert validate_witness(inst, out.witness)
    else:
        assert oracle_answer(out.instance) == expected
        assert out.instance.graph.n <= c * k * k
        # every intermediate state stays c-closed and equivalent
        state = inst
        for record in out.trace:
            from cclose.instances import replay

            state = replay(state, record)
            assert is_c_closed(state.graph, c)
            assert oracle_answer(state) == expected
        assert replay_trace(inst, out.trace).graph == out.instance.graph


@given(st.integers(0, 10 ** 6))
def test_rr1_strips_high_degree(seed):
    g = random_graph(9, 0.5, seed)
    c = compute_closure(g).c
    k = 2
    out = kernelize_is(make(g, k), c)
    if isinstance(out, Reduced):
        assert out.instance.graph.max_degree() <= (c - 1) * (k - 1)


@settings(max_examples=150)
@given(
    st.integers(0, 10 ** 6),
    st.integers(0, 16),
    st.floats(0.1, 0.8),
    st.integers(0, 4),
    st.integers(0, 1),
)
def test_single_pass_matches_restarting_rr1(seed, n, p, k, slack):
    # The same outcome, trace and reduced graph as restarting the degree rule
    # from the smallest id after every removal.
    g = random_graph(n, p, seed)
    c = compute_closure(g).c + slack
    inst = make(g, k)
    assert kernelize_is(inst, c) == restart_kernelize_is(inst, c)


def test_a_corrupted_greedy_witness_raises(monkeypatch):
    # On the path 0-...-5 at c = 2, k = 2, RR1 drops 1 and 3 and leaves four
    # vertices, enough for the greedy pick, which here returns an edge.
    inst = make(Graph(range(6), [(i, i + 1) for i in range(5)]), 2)
    assert isinstance(kernelize_is(inst, 2), Decided)
    monkeypatch.setattr(kernel_is, "_greedy_low_degree_is", lambda g, k: [4, 5])
    with pytest.raises(ExtractionError):
        kernelize_is(inst, 2)
