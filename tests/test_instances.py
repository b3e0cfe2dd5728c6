import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclose import (
    Bipartition,
    BipartitionError,
    Coloring,
    Graph,
    Decided,
    ExtractionError,
    Instance,
    Problem,
    RuleRecord,
    Witness,
    compute_closure,
    disjoint_cliques,
    lift,
    path_graph,
    replay,
    replay_trace,
)
from cclose.instances import exhaust, replay_removals
from cclose.kernel_ds import all_black_twin, sweep_black_rules
from cclose.kernel_im import rr_leaf_rules
from cclose.matching import vclp_half_integral
from cclose.oracle import certified_witness
from cclose.problems import pipeline_of
from cclose.verify import random_instance

from helpers import cycle_graph, random_graph, star_graph


def test_instance_validation():
    g = path_graph(2)
    with pytest.raises(ValueError):
        Instance(problem=Problem.IS, graph=g, k=-1)
    with pytest.raises(ValueError):
        Instance(problem=Problem.TDS, graph=g, k=1)  # missing r
    with pytest.raises(ValueError):
        Instance(problem=Problem.DS, graph=g, k=1, r=1)  # stray r
    with pytest.raises(ValueError):
        Instance(problem=Problem.BW_TDS, graph=g, k=1, r=1)  # missing coloring
    with pytest.raises(ValueError):
        Instance(problem=Problem.IS, graph=g, k=1, coloring=Coloring())


def test_coloring_defaults_black():
    g = path_graph(3)
    coloring = Coloring(frozenset({1}))
    assert coloring.white_of(g) == {1}
    assert coloring.black_of(g) == {0, 2}


@st.composite
def graphs_and_named_sets(draw):
    """A graph on 0..n-1 with some vertices deleted, and a set of ids that
    may name deleted vertices and ids past n, as a frozenset or a set."""
    n = draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(range(n), [pair for pair, flag in zip(pairs, flags) if flag])
    g = g.without_vertices(draw(st.sets(st.integers(0, n - 1))) if n else ())
    named = draw(st.sets(st.integers(0, n + 4)))
    return g, draw(st.sampled_from([frozenset(named), named]))


@given(graphs_and_named_sets())
def test_coloring_and_bipartition_views_equal_their_per_vertex_definitions(case):
    g, named = case
    coloring, parts = Coloring(named), Bipartition(named)
    named_in_g = frozenset(v for v in named if g.has_vertex(v))
    views = {
        "black_of": (coloring.black_of(g), frozenset(v for v in g.vertex_ids if v not in named)),
        "white_of": (coloring.white_of(g), frozenset(v for v in g.vertex_ids if v in named)),
        "Coloring.restricted_to": (coloring.restricted_to(g).white, named_in_g),
        "left_of": (parts.left_of(g), frozenset(v for v in g.vertex_ids if v in named)),
        "right_of": (parts.right_of(g), frozenset(v for v in g.vertex_ids if v not in named)),
        "Bipartition.restricted_to": (parts.restricted_to(g).left, named_in_g),
    }
    for name, (got, expected) in views.items():
        assert type(got) is frozenset and got == expected, name


def test_replay_add_recolor_remove():
    g = path_graph(3)
    inst = Instance(
        problem=Problem.BW_TDS, graph=g, k=2, r=1, coloring=Coloring()
    )
    record = RuleRecord(
        rule="RR2",
        vertices_added=(3,),
        edges_added=((3, 0), (3, 1)),
        recolored=((0, "white"), (1, "white")),
    )
    post = replay(inst, record)
    assert post.graph.neighbors(3) == {0, 1}
    assert post.white_vertices() == {0, 1}
    assert post.k == 2

    removal = RuleRecord(rule="RR6", vertices_removed=(0,), k_delta=-1)
    post2 = replay(post, removal)
    assert not post2.graph.has_vertex(0)
    assert post2.k == 1
    assert post2.white_vertices() == {1}


@pytest.mark.parametrize(
    "inst, recolored",
    [
        (Instance(problem=Problem.BW_TDS, graph=path_graph(2), k=1, r=1, coloring=Coloring()), ((0, "black"),)),
        (Instance(problem=Problem.IS, graph=path_graph(2), k=1), ((0, "white"),)),
    ],
    ids=["black", "uncolored-instance"],
)
def test_replay_rejects_a_recoloring_that_is_not_a_whitening(inst, recolored):
    with pytest.raises(ValueError, match="record recolors a vertex black or an uncolored instance"):
        replay(inst, RuleRecord(rule="RR2", recolored=recolored))


def test_replay_uncolor_gadget_record():
    g = path_graph(2)
    inst = Instance(
        problem=Problem.BW_TDS,
        graph=g,
        k=1,
        r=1,
        coloring=Coloring(frozenset({1})),
    )
    record = RuleRecord(
        rule="gadget",
        vertices_added=(2, 3),
        edges_added=((2, 3), (1, 2)),
        k_delta=1,
        payload={"uncolor": True, "declared_closure": 2},
    )
    post = replay(inst, record)
    assert post.problem is Problem.DS
    assert post.coloring is None and post.r is None
    assert post.k == 2


def test_replay_trace_composes():
    g = path_graph(4)
    inst = Instance(problem=Problem.IS, graph=g, k=2)
    trace = [
        RuleRecord(rule="RR1", vertices_removed=(1,)),
        RuleRecord(rule="RR1", vertices_removed=(2,)),
    ]
    final = replay_trace(inst, trace)
    assert final.graph.vertex_ids == (0, 3)


@st.composite
def removal_cases(draw):
    """A colored (BW-TDS) or uncolored (IM) instance on scattered vertex ids,
    optionally with a bipartition, and removal-only records that delete a
    random selection of its vertices in random order and chunks."""
    ids = sorted(draw(st.sets(st.integers(0, 60), max_size=14)))
    left = frozenset(v for v in ids if draw(st.booleans()))
    bipartite = draw(st.booleans())
    pairs = [
        (u, v)
        for i, u in enumerate(ids)
        for v in ids[i + 1:]
        if not bipartite or (u in left) != (v in left)
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(ids, edges)
    parts = Bipartition(left) if bipartite else None
    if draw(st.booleans()):
        white = frozenset(v for v in ids if draw(st.booleans()))
        inst = Instance(
            problem=Problem.BW_TDS, graph=g, k=2, r=1, coloring=Coloring(white), bipartition=parts
        )
    else:
        inst = Instance(problem=Problem.IM, graph=g, k=2, bipartition=parts)
    order = draw(st.permutations(ids))
    removed = order[: draw(st.integers(0, len(ids)))]
    records = []
    while removed:
        size = draw(st.integers(1, 3))
        chunk, removed = tuple(removed[:size]), removed[size:]
        rule = draw(st.sampled_from(["RR6", "RR9"]))
        records.append(RuleRecord(rule=rule, vertices_removed=chunk))
    return inst, records


@settings(max_examples=200)
@given(removal_cases())
def test_replay_removals_matches_replay_trace(case):
    inst, records = case
    assert replay_removals(inst, records) == replay_trace(inst, records)


def test_rule_record_json():
    record = RuleRecord(
        rule="RR3.1",
        vertices_added=(9,),
        edges_added=((9, 1),),
        recolored=((1, "white"),),
        payload={"common_black": [2, 3]},
    )
    blob = record.to_json()
    assert blob["rule"] == "RR3.1"
    assert blob["payload"]["common_black"] == [2, 3]
    assert blob["edges_added"] == [[9, 1]]
    # a payload is written as held, so one that is not JSON does not encode
    with pytest.raises(TypeError):
        json.dumps(replace(record, payload={"common_black": {3, 2}}).to_json())


def _stars(*leaves):
    """Disjoint stars with ``leaves`` leaves each, on consecutive ids."""
    edges, centre = [], 0
    for count in leaves:
        edges += [(centre, centre + i) for i in range(1, count + 1)]
        centre += count + 1
    return Graph(range(centre), edges)


def _windmill(blades):
    """Triangles sharing the vertex 0."""
    edges = [e for i in range(1, 2 * blades, 2) for e in ((0, i), (0, i + 1), (i, i + 1))]
    return Graph(range(2 * blades + 1), edges)


def _bw(g, k, white=(), bipartite=False):
    parts = Bipartition(g.two_color()) if bipartite else None
    return Instance(
        problem=Problem.BW_TDS, graph=g, k=k, r=1, coloring=Coloring(frozenset(white)),
        bipartition=parts,
    )


# (c, instance) per kernel shape; together their traces use every rule.
RULE_CASES = {
    # RR1 takes the centre.
    "is": (3, Instance(problem=Problem.IS, graph=star_graph(5), k=2)),
    # RR2 and RR3.1 on each star; RR6 drops the whites of the path.
    "bwtds-c2": (
        2, _bw(Graph(range(21), _stars(7, 9).edges() + [(18, 19), (19, 20)]), 1, {18, 19})
    ),
    # RR3.2 on each star.
    "bwtds-c3": (3, _bw(_stars(6, 6, 6), 1)),
    # The color-removal gadget.
    "ds": (2, Instance(problem=Problem.DS, graph=cycle_graph(6), k=2)),
    # RR7 takes the centre 0 of a star whose leaves carry whites; RR9 drops
    # the whites.
    "bipartite-ds": (2, _bw(
        Graph(range(12), _stars(4).edges() + [(1, 5), (2, 6), (3, 7), (4, 8), (9, 10), (9, 11)]),
        2, {5, 6, 7, 8, 11}, bipartite=True,
    )),
    # RR10 removes the shared vertex.
    "im-windmill": (2, Instance(problem=Problem.IM, graph=_windmill(4), k=1)),
    # RR14, then RR15.
    "im-leaves": (3, Instance(problem=Problem.IM, graph=Graph(
        range(7), [(0, 1), (0, 2), (0, 3), (1, 3), (2, 6), (3, 4), (3, 6), (5, 6)]), k=2)),
    # RR13, then isolated-vertex removal.
    "im-isolated": (2, Instance(
        problem=Problem.IM, graph=Graph(range(6), [(0, 1), (1, 4), (1, 5), (2, 4)]), k=2)),
    # RR16 in each triangle.
    "irs": (2, Instance(problem=Problem.IRS, graph=Graph(
        range(7), [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (5, 6)]), k=2)),
}
EVERY_RULE = {
    "RR1", "RR2", "RR3.1", "RR3.2", "RR6", "gadget", "RR7", "RR9", "RR10", "RR13", "RR14",
    "RR15", "drop-isolated", "RR16",
}


def assert_records_round_trip(inst, trace):
    """Each record, read back from its JSON text, encodes to the same JSON,
    equals the record and replays to the same instance. DS and TDS traces
    start from the all-black BW-TDS twin, as their kernel does."""
    if inst.problem in (Problem.DS, Problem.TDS):
        inst = all_black_twin(inst)
    for record in trace:
        blob = json.loads(json.dumps(record.to_json()))
        back = RuleRecord.from_json(blob)
        assert back.to_json() == record.to_json() == blob
        assert back == record
        post = replay(inst, record)
        assert replay(inst, back) == post
        inst = post


def test_rule_cases_fire_every_rule():
    fired = set()
    for c, inst in RULE_CASES.values():
        assert compute_closure(inst.graph).c <= c
        fired |= {record.rule for record in pipeline_of(inst).kernel().run(inst, c).trace}
    assert fired == EVERY_RULE


@pytest.mark.parametrize("name", sorted(RULE_CASES))
def test_rule_record_from_json_inverts_to_json(name):
    c, inst = RULE_CASES[name]
    assert_records_round_trip(inst, pipeline_of(inst).kernel().run(inst, c).trace)


@settings(max_examples=150)
@given(
    st.sampled_from(
        [("is", 1, False), ("ds", 1, False), ("ds", 1, True), ("tds", 2, False),
         ("bwtds", 2, False), ("im", 1, False), ("im", 1, True), ("irs", 1, False)]
    ),
    st.integers(0, 10 ** 6),
)
def test_random_kernel_traces_round_trip(shape, seed):
    problem, r, bipartite = shape
    inst = random_instance(problem, 10, 3, r, bipartite, seed)
    outcome = pipeline_of(inst).kernel().run(inst, compute_closure(inst.graph).c)
    assert_records_round_trip(inst, getattr(outcome, "trace", ()))


def test_witness_constructors():
    w = Witness.vertex_set([3, 1], Problem.IS)
    assert w.sorted_elements() == [1, 3]
    e = Witness.edge_set([(5, 2), (1, 0)], Problem.IM)
    assert e.sorted_elements() == [(0, 1), (2, 5)]


def _two_clique_rr2_trace():
    """Two disjoint 4-cliques as TDS at r = 1, k = 2 and c = 1, with the RR2
    records of their all-black twin: fresh 8 on {0..3}, then 9 on {4..7}."""
    original = Instance(problem=Problem.TDS, graph=disjoint_cliques(2, 4), k=2, r=1)
    _, trace = sweep_black_rules(all_black_twin(original), 1)
    assert [(rec.rule, rec.vertices_added) for rec in trace] == [("RR2", (8,)), ("RR2", (9,))]
    return original, trace


def test_lift_over_a_tampered_rr2_clique_fails_certification():
    # Each fresh vertex goes for the smallest clique member not taken;
    # naming the second clique in the first record takes 5 in place of 0.
    original, trace = _two_clique_rr2_trace()
    lifted = lift(original, trace, Witness.vertex_set({8, 9}, Problem.TDS))
    assert certified_witness(original, lifted) == Witness.vertex_set({0, 4}, Problem.TDS)
    tampered = [replace(trace[0], payload={**trace[0].payload, "clique": [4, 5, 6, 7]}), trace[1]]
    lifted = lift(original, tampered, Witness.vertex_set({8, 9}, Problem.TDS))
    assert lifted == Witness.vertex_set({4, 5}, Problem.TDS)
    with pytest.raises(ExtractionError):
        certified_witness(original, lifted)


def test_lift_over_a_tampered_rr14_shadowed_vertex_fails_certification():
    # RR14 hangs the leaf 7 on the anchor 0 in place of the shadowed vertex
    # 1; naming 2 instead lifts to (0, 2), which the edge 2-6 ties to (5, 6).
    g = Graph(range(7), [(0, 1), (0, 2), (0, 3), (1, 3), (2, 6), (3, 4), (3, 6), (5, 6)])
    original = Instance(problem=Problem.IM, graph=g, k=2)
    record = rr_leaf_rules(original, vclp_half_integral(g))
    assert record.payload == {"anchor": 0, "shadowed": 1}
    through_leaf = Witness.edge_set([(0, 7), (5, 6)], Problem.IM)
    assert certified_witness(original, lift(original, [record], through_leaf))
    tampered = replace(record, payload={"anchor": 0, "shadowed": 2})
    with pytest.raises(ExtractionError):
        certified_witness(original, lift(original, [tampered], through_leaf))


def test_lift_refuses_a_rule_without_a_clause():
    original, _ = _two_clique_rr2_trace()
    record = RuleRecord(rule="RR3.1", vertices_added=(8,), edges_added=((8, 0), (8, 1)))
    with pytest.raises(ValueError, match="RR3.1"):
        lift(original, [record], Witness.vertex_set({8}, Problem.TDS))


def _remove(rule, v):
    return RuleRecord(rule=rule, vertices_removed=(v,))


def test_exhaust_tries_each_shared_candidate_once_on_the_current_instance():
    seen = []

    def drops_a_present_vertex(inst, rest):
        for v in rest:
            seen.append((inst.graph.n, v))
            if inst.graph.has_vertex(v):
                return _remove("D", v)
        return None

    inst = Instance(problem=Problem.IS, graph=path_graph(6), k=1)
    rest = iter([4, 1, 4, 9, 2])
    post, trace, decided = exhaust(inst, [lambda i: drops_a_present_vertex(i, rest)])
    assert decided is None
    assert [r.vertices_removed for r in trace] == [(4,), (1,), (2,)]
    # Each record is replayed before the rule resumes after its candidate.
    assert seen == [(6, 4), (5, 1), (4, 4), (4, 9), (4, 2)]
    assert post == replay_trace(inst, trace) and post.graph == Graph([0, 3, 5], [])


def test_exhaust_restarts_from_the_first_rule():
    calls = []

    def odd_drops_max(inst):
        calls.append("A")
        g = inst.graph
        return _remove("A", max(g.vertex_ids)) if g.n % 2 else None

    def drops_min(inst):
        calls.append("B")
        g = inst.graph
        return _remove("B", min(g.vertex_ids)) if g.n > 1 else None

    inst = Instance(problem=Problem.IS, graph=path_graph(4), k=1)
    post, trace, decided = exhaust(inst, [odd_drops_max, drops_min])
    assert decided is None
    assert [(r.rule, r.vertices_removed) for r in trace] == [
        ("B", (0,)), ("A", (3,)), ("B", (1,)), ("A", (2,)),
    ]
    assert calls == ["A", "B", "A", "A", "B", "A", "A", "B"]
    assert post == replay_trace(inst, trace) and post.graph.n == 0


def test_exhaust_stops_at_a_verdict():
    def drops_max(inst):
        g = inst.graph
        return _remove("A", max(g.vertex_ids)) if g.n > 2 else None

    def never_reached(inst):
        raise AssertionError("a rule after the verdict ran")

    inst = Instance(problem=Problem.IS, graph=path_graph(5), k=1)
    verdict = Witness.vertex_set((0,), Problem.IS)
    post, trace, decided = exhaust(inst, [drops_max, lambda i: verdict, never_reached])
    assert decided is verdict
    assert [r.vertices_removed for r in trace] == [(4,), (3,), (2,)]
    assert post.graph == path_graph(2)


def test_exhaust_bounds_a_rule_that_fires_forever():
    calls = []

    def adds_a_vertex(inst):
        calls.append(inst)
        return RuleRecord(rule="grow", vertices_added=(inst.graph.fresh_id(),))

    inst = Instance(problem=Problem.IS, graph=path_graph(3), k=1)
    with pytest.raises(ExtractionError, match="fixpoint"):
        exhaust(inst, [adds_a_vertex])
    assert len(calls) == 20 * (3 + 1 + 10)


@given(
    st.integers(0, 2 ** 31),
    st.integers(0, 14),
    st.sampled_from([0.1, 0.3, 0.6]),
    st.sets(st.integers(0, 16)),
    st.sets(st.integers(0, 13), max_size=3),
    st.integers(0, 2),
)
def test_bipartition_validate_names_the_smallest_noncrossing_edge(seed, n, p, left, dropped, stray):
    """The set checks pass exactly when the sorted edge scan finds nothing,
    and a failure names the scan's first edge; ids need not be contiguous and
    the left side may hold ids that are not in the graph."""
    g = random_graph(n, p, seed).without_vertices(dropped & set(range(n)))
    crossing = [(u, v) for u, v in g.edges() if (u in left) != (v in left)]
    noncrossing = [(u, v) for u, v in g.edges() if (u in left) == (v in left)]
    kept = random.Random(seed).sample(noncrossing, min(stray, len(noncrossing)))
    g = Graph(g.vertex_ids, crossing + kept)
    expected = next(
        (f"edge ({u}, {v}) does not cross the bipartition"
         for u, v in g.edges() if (u in left) == (v in left)),
        None,
    )
    try:
        Bipartition(frozenset(left)).validate(g)
        raised = None
    except BipartitionError as exc:
        raised = str(exc)
    assert raised == expected
