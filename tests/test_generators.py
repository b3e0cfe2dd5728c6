import pytest

from cclose import (
    closure_repair,
    compute_closure,
    disjoint_cliques,
    er_graph,
    generate,
    is_c_closed,
    theta_graph,
)

from helpers import brute_maximal_cliques, scan_is


def test_disjoint_cliques_tight_family():
    # count = b-1 = 2 cliques of size a-1 = 3: no K_4, no independent 3-set
    g = disjoint_cliques(2, 3)
    assert g.n == 6
    assert max(len(c) for c in brute_maximal_cliques(g)) == 3
    assert scan_is(g) == 2
    assert compute_closure(g).c == 1


def test_theta_closure():
    g = theta_graph(5)
    report = compute_closure(g)
    assert report.c == 6
    assert report.witness_pair == (0, 1)


def test_er_empty():
    assert er_graph(0, 0.5, seed=1).n == 0


def test_er_reproducible():
    a = er_graph(12, 0.3, seed=99)
    b = er_graph(12, 0.3, seed=99)
    assert a == b and a.edges() == b.edges()
    c = er_graph(12, 0.3, seed=100)
    assert a != c or a.edges() == c.edges()  # different seed, almost surely different


def test_closure_repair_is_c_closed():
    for seed in range(10):
        g = closure_repair(12, 0.4, 2, seed=seed)
        assert is_c_closed(g, 2)


def test_closure_repair_deterministic():
    assert closure_repair(10, 0.5, 3, seed=4) == closure_repair(10, 0.5, 3, seed=4)


def test_generate_dispatch():
    assert generate("cliques", count=2, size=3).n == 6
    assert generate("theta", paths=3).n == 5
    assert generate("er", n=5, p=0.0, seed=0).m == 0
    assert is_c_closed(generate("closure_repair", n=8, p=0.5, c=2, seed=1), 2)
    with pytest.raises(ValueError):
        generate("unknown")


def test_generate_names_missing_parameters():
    with pytest.raises(ValueError, match="needs p"):
        generate("er", n=5)
    with pytest.raises(ValueError, match="needs n and p and c"):
        generate("closure_repair")


@pytest.mark.parametrize("bad", [0, -1])
def test_nonpositive_sizes_rejected(bad):
    with pytest.raises(ValueError):
        disjoint_cliques(bad, 3)
    with pytest.raises(ValueError):
        disjoint_cliques(2, bad)
    with pytest.raises(ValueError):
        theta_graph(bad)
