"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. All trials are seeded, so the suite is deterministic.
"""

import random
import time
from itertools import combinations
from math import comb

from cclose import (
    Bipartition,
    Clique,
    Coloring,
    Decided,
    Graph,
    Instance,
    Matching,
    PreconditionError,
    Problem,
    Reduced,
    clique_or_im,
    clique_or_im_saturating,
    clique_or_independent_set,
    compute_closure,
    im_bipartite_from_matching,
    im_dense_bipartite,
    im_from_bounded_degree,
    im_from_high_degree,
    dense_bipartite_threshold,
    hitting_set_to_ds,
    HittingSetInstance,
    is_c_closed,
    is_induced_matching,
    kernelize_bipartite_bwds,
    kernelize_bwtds,
    kernelize_im,
    kernelize_irs,
    kernelize_is,
    matching_threshold,
    maximal_cliques,
    oracle_answer,
    oracle_ds,
    oracle_tds,
    ramsey_threshold,
    saturated_threshold,
    solve_tds,
    uncolor_gadget,
    unrestricted_threshold,
    validate_witness,
    vclp_half_integral,
)
from cclose.instances import replay
from cclose.kernel_irs import irs_thresholds
from cclose.matching import bipartite_matching_with_cover, validate_matching

from helpers import (
    atlas_graphs,
    brute_hitting_set,
    brute_max_matching,
    clique_count_bound_holds,
    closure_by_matrix,
    cycle_graph,
    double_cover,
    lp_cost,
    lp_value,
    random_c_closed_bipartite,
    random_c_closed_graph,
    random_graph,
    scan_is,
)


def test_criterion_1_closure_matches_independent_scan():
    started = time.time()
    rng = random.Random(10_001)
    for trial in range(500):
        n = rng.randrange(31)
        p = 0.1 + 0.7 * rng.random()
        g = random_graph(n, p, seed=rng.randrange(2 ** 32))
        assert compute_closure(g).c == closure_by_matrix(g)
    elapsed = time.time() - started
    assert elapsed < 5.0, f"closure check took {elapsed:.2f}s"
    print(f"criterion 1 (closure correctness, 500 graphs, {elapsed:.2f}s): PASS")


def test_criterion_2_ramsey_extraction():
    total = 0
    for c in range(1, 4):
        for a in range(1, 5):
            for b in range(1, 5):
                need = ramsey_threshold(c, a, b)
                for trial in range(200):
                    seed = 20_000 + 9973 * (c * 100 + a * 10 + b) + trial
                    rng = random.Random(seed)
                    n = need + rng.randrange(6)
                    g = random_c_closed_graph(n, c, 0.1 + 0.5 * rng.random(), seed)
                    out = clique_or_independent_set(g, c, a, b)
                    if isinstance(out, Clique):
                        assert len(out.vertices) == a and g.is_clique(out.vertices)
                    else:
                        assert len(out.vertices) == b and g.is_independent_set(out.vertices)
                    total += 1
    # R_2(3, 3) = 6 is tight: C_5 is 2-closed with no K_3 and no I_3
    c5 = cycle_graph(5)
    assert compute_closure(c5).c == 2
    assert scan_is(c5) == 2
    assert max(len(q) for q in maximal_cliques(c5)) == 2
    assert ramsey_threshold(2, 3, 3) == 6
    try:
        clique_or_independent_set(c5, 2, 3, 3)
        raise AssertionError("below-threshold extraction should fail")
    except PreconditionError:
        pass
    print(f"criterion 2 (Ramsey extraction, {total} trials): PASS")


def _check_outcome(base, outcome, expected, c, answer_of):
    """Outcome equivalence plus per-rule equivalence and closure checks."""
    if isinstance(outcome, Decided):
        assert outcome.answer == expected
        return
    assert answer_of(outcome.instance) == expected
    state = base
    for record in outcome.trace:
        state = replay(state, record)
        if not record.payload.get("uncolor"):
            assert is_c_closed(state.graph, c), f"rule {record.rule} broke closure"
        assert answer_of(state) == expected, f"rule {record.rule} broke equivalence"
    assert state.graph == outcome.instance.graph


def test_criterion_3_kernel_equivalence_exhaustive():
    started = time.time()
    graphs = atlas_graphs()
    checks = 0
    for gi, g in enumerate(graphs):
        c = compute_closure(g).c
        rng = random.Random(30_000 + gi)
        random_white = frozenset(v for v in g.vertex_ids if rng.random() < 0.5)
        left = g.two_color()
        for k in range(4):
            # RR1 pipeline
            inst = Instance(problem=Problem.IS, graph=g, k=k)
            expected = oracle_answer(inst)
            _check_outcome(inst, kernelize_is(inst, c), expected, c, oracle_answer)
            checks += 1
            # RR10-RR15 pipeline
            inst = Instance(problem=Problem.IM, graph=g, k=k)
            expected = oracle_answer(inst)
            _check_outcome(inst, kernelize_im(inst, c), expected, c, oracle_answer)
            checks += 1
            # RR16 pipeline
            inst = Instance(problem=Problem.IRS, graph=g, k=k)
            expected = oracle_answer(inst)
            _check_outcome(inst, kernelize_irs(inst, c), expected, c, oracle_answer)
            checks += 1
            # RR2-RR6 pipeline plus the gadget
            for r in (1, 2):
                for white in (frozenset(), random_white):
                    inst = Instance(
                        problem=Problem.BW_TDS, graph=g, k=k, r=r,
                        coloring=Coloring(white),
                    )
                    expected = oracle_answer(inst)
                    _check_outcome(
                        inst, kernelize_bwtds(inst, c), expected, c, oracle_answer
                    )
                    gadget, _ = uncolor_gadget(inst)
                    assert oracle_answer(gadget) == expected
                    checks += 1
            # RR7-RR9 pipeline on bipartite graphs
            if left is not None:
                parts = Bipartition(left)
                for white in (frozenset(), random_white):
                    inst = Instance(
                        problem=Problem.BW_TDS, graph=g, k=k, r=1,
                        coloring=Coloring(white), bipartition=parts,
                    )
                    expected = oracle_answer(inst)
                    _check_outcome(
                        inst,
                        kernelize_bipartite_bwds(inst, parts, c),
                        expected,
                        c,
                        oracle_answer,
                    )
                    checks += 1
    elapsed = time.time() - started
    assert elapsed < 600, f"exhaustive sweep took {elapsed:.0f}s"
    print(
        f"criterion 3 (kernel equivalence, {len(graphs)} graphs, "
        f"{checks} pipeline checks, {elapsed:.0f}s): PASS"
    )


def test_criterion_4_reduced_size_bounds():
    from cclose.kernel_ds import per_vertex_black_bound

    rng = random.Random(40_001)
    checked = {"is": 0, "bip": 0, "im": 0, "irs": 0}
    for trial in range(250):
        n = rng.randrange(10)
        k = rng.randrange(4)
        g = random_graph(n, 0.45, rng.randrange(2 ** 32))
        c = compute_closure(g).c
        out = kernelize_is(Instance(problem=Problem.IS, graph=g, k=k), c)
        if isinstance(out, Reduced):
            assert out.instance.graph.n <= c * k * k
            checked["is"] += 1
        out = kernelize_im(Instance(problem=Problem.IM, graph=g, k=k), c)
        if isinstance(out, Reduced):
            p = vclp_half_integral(out.instance.graph)
            a = 4 * c * k + 1
            assert len(p.v_half) < 3 * unrestricted_threshold(c, a, k)
            assert len(p.v1) < saturated_threshold(c, a, k)
            assert len(p.v0) <= len(p.v1) + c * comb(len(p.v1), 2)
            checked["im"] += 1
        out = kernelize_irs(Instance(problem=Problem.IRS, graph=g, k=k), c)
        if isinstance(out, Reduced):
            assert out.instance.graph.n < irs_thresholds(c, k)[2]
            checked["irs"] += 1
        # bipartite BW-DS bound
        left = n // 2
        bg = Graph(
            range(n),
            [
                (u, v)
                for u in range(left)
                for v in range(left, n)
                if rng.random() < 0.5
            ],
        )
        bc = compute_closure(bg).c
        white = frozenset(v for v in bg.vertex_ids if rng.random() < 0.4)
        parts = Bipartition(frozenset(range(left)))
        inst = Instance(
            problem=Problem.BW_TDS, graph=bg, k=k, r=1,
            coloring=Coloring(white), bipartition=parts,
        )
        out = kernelize_bipartite_bwds(inst, parts, bc)
        if isinstance(out, Reduced):
            kk = out.instance.k
            assert out.instance.graph.n <= bc * kk * kk + bc * comb(bc * kk * kk, 2)
            blacks = len(out.instance.black_vertices())
            assert blacks <= kk * per_vertex_black_bound(bc, kk, 1) + kk
            checked["bip"] += 1
    assert all(count > 0 for count in checked.values()), checked
    print(f"criterion 4 (size bounds on reduced outputs, {checked}): PASS")


def test_criterion_5_closure_preserved_by_every_rule():
    rng = random.Random(50_001)
    steps = 0
    for trial in range(300):
        n = rng.randrange(10)
        k = rng.randrange(4)
        r = rng.randrange(1, 3)
        g = random_graph(n, 0.5, rng.randrange(2 ** 32))
        c = compute_closure(g).c
        white = frozenset(v for v in g.vertex_ids if rng.random() < 0.4)
        runs = [
            (
                Instance(problem=Problem.IS, graph=g, k=k),
                lambda inst: kernelize_is(inst, c),
            ),
            (
                Instance(problem=Problem.IM, graph=g, k=k),
                lambda inst: kernelize_im(inst, c),
            ),
            (
                Instance(problem=Problem.IRS, graph=g, k=k),
                lambda inst: kernelize_irs(inst, c),
            ),
            (
                Instance(
                    problem=Problem.BW_TDS, graph=g, k=k, r=r, coloring=Coloring(white)
                ),
                lambda inst: kernelize_bwtds(inst, c),
            ),
        ]
        for inst, pipeline in runs:
            out = pipeline(inst)
            if not isinstance(out, Reduced):
                continue
            state = inst
            for record in out.trace:
                state = replay(state, record)
                if record.payload.get("uncolor"):
                    assert record.payload["declared_closure"] == compute_closure(state.graph).c
                    continue
                assert is_c_closed(state.graph, c), record.rule
                steps += 1
    print(f"criterion 5 (closure preserved across {steps} rule applications): PASS")


def test_criterion_6_solver_vs_oracle():
    rng = random.Random(60_001)
    witnesses = 0
    for trial in range(1000):
        n = rng.randrange(12)
        k = rng.randrange(4)
        r = rng.randrange(1, 3)
        g = random_graph(n, 0.15 + 0.55 * rng.random(), rng.randrange(2 ** 32))
        c = compute_closure(g).c
        answer, witness = solve_tds(g, c, r, k)
        opt = oracle_tds(g, None, r)
        assert answer == (opt is not None and opt <= k), (trial, n, k, r)
        if answer:
            inst = Instance(problem=Problem.TDS, graph=g, k=k, r=r)
            assert validate_witness(inst, witness)
            witnesses += 1
    print(f"criterion 6 (solver vs oracle, 1000 trials, {witnesses} witnesses): PASS")


def test_criterion_7_clique_count_bound():
    rng = random.Random(70_001)
    for trial in range(500):
        n = rng.randrange(15)
        g = random_graph(n, 0.1 + 0.7 * rng.random(), rng.randrange(2 ** 32))
        assert clique_count_bound_holds(g)
    print("criterion 7 (clique-count bound, 500 graphs): PASS")


def _lp_certified(g):
    p = vclp_half_integral(g)
    # certificate: a matching and a cover of equal size in the double cover
    dg, parts = double_cover(g)
    matching, cover = bipartite_matching_with_cover(dg, parts)
    validate_matching(dg, matching)
    for u, v in dg.edges():
        assert u in cover or v in cover
    assert len(cover) == len(matching)  # König equality proves both optimal
    assert 2 * lp_cost(p) == len(cover)
    for u, v in g.edges():
        assert lp_value(p, u) + lp_value(p, v) >= 1
    vc = g.n - scan_is(g)  # Gallai: a cover is the complement of an independent set
    mm = brute_max_matching(g)
    assert vc + mm >= 2 * lp_cost(p)
    assert lp_cost(p) <= vc


def test_criterion_8_lp_machinery():
    started = time.time()
    count = 0
    # exhaustive over all labeled graphs with up to 6 vertices
    for n in range(7):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(pairs)):
            g = Graph(range(n), [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            _lp_certified(g)
            count += 1
    # the canonical catalog covers n = 7
    for g in atlas_graphs():
        _lp_certified(g)
        count += 1
    # seeded random graphs cover n = 8
    rng = random.Random(80_001)
    for trial in range(2000):
        g = random_graph(8, 0.1 + 0.8 * rng.random(), rng.randrange(2 ** 32))
        _lp_certified(g)
        count += 1
    elapsed = time.time() - started
    print(f"criterion 8 (LP machinery on {count} graphs, {elapsed:.0f}s): PASS")


def test_criterion_9_hitting_set_reduction():
    rng = random.Random(90_001)
    for trial in range(200):
        lam = rng.choice((2, 3))
        size = rng.randrange(lam, 9)
        universe = tuple(range(size))
        pool = [frozenset(s) for s in combinations(universe, lam)]
        rng.shuffle(pool)
        sets = tuple(pool[: rng.randrange(0, min(7, len(pool)) + 1)])
        k = rng.randrange(1, 4)
        hs = HittingSetInstance(universe=universe, sets=sets, set_size=lam, k=k)
        inst = hitting_set_to_ds(hs)
        hit = brute_hitting_set(universe, sets)
        assert (hit is not None and hit <= k) == (oracle_ds(inst.graph) <= k)
        assert compute_closure(inst.graph).c <= lam + 1
    print("criterion 9 (hitting-set reduction, 200 instances): PASS")


def test_criterion_10_induced_matching_chain():
    started = time.time()
    rng = random.Random(100_001)
    runs = {"peel": 0, "high": 0, "bip": 0, "sat": 0, "chain": 0, "dense": 0}

    for trial in range(40):  # bounded-degree peeling (Delta <= 4)
        b = rng.randrange(1, 3)
        pairs = rng.randrange(20, 30)
        g = Graph(range(2 * pairs), [(2 * i, 2 * i + 1) for i in range(pairs)])
        for _ in range(rng.randrange(10)):
            u, v = rng.randrange(2 * pairs), rng.randrange(2 * pairs)
            if u != v and not g.has_edge(u, v) and g.degree(u) < 4 and g.degree(v) < 4:
                g = g.with_edges([(u, v)])
        m = Matching.of([(2 * i, 2 * i + 1) for i in range(pairs)])
        if len(m) >= 2 * g.max_degree() * b:
            out = im_from_bounded_degree(g, m, b)
            assert len(out) == b and is_induced_matching(g, out.edges)
            runs["peel"] += 1

    for trial in range(40):  # high-degree private neighbors
        c = rng.randrange(1, 3)
        b = rng.randrange(1, 3)
        base = []
        nxt = 2 * b
        for hub in range(2 * b):
            for _ in range(c * b):
                base.append((hub, nxt))
                nxt += 1
        g, parts = random_c_closed_bipartite(
            2 * b, nxt - 2 * b, c, 0.15, rng.randrange(2 ** 32), base_edges=base
        )
        out = im_from_high_degree(g, parts, c, b)
        assert len(out) == b and is_induced_matching(g, out.edges)
        runs["high"] += 1

    for trial in range(30):  # bipartite matching threshold
        c = rng.randrange(1, 3)
        b = rng.randrange(1, 3)
        need = matching_threshold(c, b)
        base = [(i, need + i) for i in range(need)]
        g, parts = random_c_closed_bipartite(
            need, need, c, 0.06, rng.randrange(2 ** 32), base_edges=base
        )
        out = im_bipartite_from_matching(g, parts, c, Matching.of(base), b)
        assert len(out) == b and is_induced_matching(g, out.edges)
        runs["bip"] += 1

    for trial in range(25):  # saturated independent set
        c = rng.randrange(1, 3)
        a = rng.randrange(2, 4)
        b = rng.randrange(1, 3)
        need = saturated_threshold(c, a, b)
        base = [(i, need + i) for i in range(need)]
        forbidden = frozenset(
            (i, j) for i in range(need) for j in range(i + 1, need)
        )
        g = random_c_closed_graph(
            2 * need, c, 0.04, rng.randrange(2 ** 32),
            base_edges=base, forbidden_pairs=forbidden,
        )
        out = clique_or_im_saturating(g, c, frozenset(range(need)), Matching.of(base), a, b)
        if isinstance(out, Clique):
            assert len(out.vertices) == a and g.is_clique(out.vertices)
        else:
            assert len(out) == b and is_induced_matching(g, out.edges)
        runs["sat"] += 1

    for trial in range(12):  # unrestricted matching chain
        c = rng.randrange(1, 3)
        a = rng.randrange(2, 4)
        b = rng.randrange(1, 3)
        need = unrestricted_threshold(c, a, b)
        if need > 200:
            continue
        base = [(2 * i, 2 * i + 1) for i in range(need)]
        g = random_c_closed_graph(
            2 * need, c, 0.03, rng.randrange(2 ** 32), base_edges=base
        )
        out = clique_or_im(g, c, Matching.of(base), a, b)
        if isinstance(out, Clique):
            assert len(out.vertices) == a and g.is_clique(out.vertices)
        else:
            assert len(out) == b and is_induced_matching(g, out.edges)
        runs["chain"] += 1

    for trial in range(40):  # dense bipartite (Delta <= 4)
        b = rng.randrange(1, 3)
        delta = rng.randrange(1, 5)
        side = dense_bipartite_threshold(delta, b)
        degree = [0] * (2 * side)
        edges = []
        for u in range(side):
            for v in range(side, 2 * side):
                if degree[u] < delta and degree[v] < delta and rng.random() < 0.4:
                    edges.append((u, v))
                    degree[u] += 1
                    degree[v] += 1
        g = Graph(range(2 * side), edges)
        parts = Bipartition(frozenset(range(side)))
        live = sum(1 for v in g.vertex_ids if g.degree(v) > 0)
        if g.max_degree() > 0 and live >= dense_bipartite_threshold(g.max_degree(), b):
            out = im_dense_bipartite(g, parts, b)
            assert len(out) == b and is_induced_matching(g, out.edges)
            runs["dense"] += 1

    elapsed = time.time() - started
    assert elapsed < 60, f"chain extraction took {elapsed:.1f}s"
    assert all(count > 0 for count in runs.values()), runs
    print(f"criterion 10 (induced-matching chain, {runs}, {elapsed:.1f}s): PASS")
