import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cclose import (
    Bipartition,
    Coloring,
    Graph,
    ParseError,
    graphio,
    parse_graph,
    serialize_graph,
)
from cclose.errors import ResourceLimitError

from helpers import random_graph, reference_parse_graph, renumbered


def test_parse_basic():
    g, coloring, parts = parse_graph("# a square\np 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n")
    assert g.n == 4 and g.m == 4
    assert coloring is None and parts is None


def test_parse_colors_and_sides():
    text = "p 3\ne 0 1\ne 1 2\nc 2 white\nb 0 left\nb 1 right\nb 2 left\n"
    g, coloring, parts = parse_graph(text)
    assert coloring.white_of(g) == {2}
    assert coloring.black_of(g) == {0, 1}
    assert parts.left == {0, 2}


def test_roundtrip_is_identity_on_canonical_files():
    g = Graph(range(5), [(0, 3), (1, 2), (0, 1)])
    coloring = Coloring(frozenset({4}))
    parts = None
    text = serialize_graph(g, coloring, parts)
    g2, c2, p2 = parse_graph(text)
    assert serialize_graph(g2, c2, p2) == text


@given(st.integers(0, 9), st.integers(0, 2 ** 31))
def test_roundtrip_random(n, seed):
    g = random_graph(n, 0.4, seed)
    text = serialize_graph(g)
    g2, _, _ = parse_graph(text)
    assert g2 == g
    assert serialize_graph(g2) == text


PARSE_ERRORS = [
    ("e 0 1\n", 1, "vertex record before p record"),
    ("p 2\ne 0 0\n", 2, "self-loop at vertex 0"),
    ("p 2\ne 0 5\n", 2, "vertex 5 out of range [0, 2)"),
    ("p 2\ne 7 1\n", 2, "vertex 7 out of range [0, 2)"),
    ("p 2\ne 9 x\n", 2, "vertex 9 out of range [0, 2)"),
    ("p 2\ne 0 1\ne 1 0\n", 3, "duplicate edge (1, 0)"),
    ("p 2\ne 0 1\ne 0 1\n", 3, "duplicate edge (0, 1)"),
    ("p 2\ne 0\n", 2, "e record takes exactly two fields"),
    ("p 2\ne 0 x\n", 2, "expected an integer in field 2"),
    ("p 2\ne x 9\n", 2, "expected an integer in field 1"),
    ("p 2\nq 1\n", 2, "unknown record type 'q'"),
    ("p 2\np 3\n", 2, "duplicate p record"),
    ("p x\n", 1, "expected an integer in field 1"),
    ("p\n", 1, "expected an integer in field 1"),
    ("p 2 3\n", 1, "p record takes exactly one field"),
    ("p -1\n", 1, "vertex count must be nonnegative"),
    ("p 2\nc 0 grey\n", 2, "c record needs a vertex and black|white"),
    ("p 2\nc 0 white\nc 0 black\n", 3, "duplicate color for vertex 0"),
    ("p 2\nb 0 up\n", 2, "b record needs a vertex and left|right"),
    ("p 2\nb 1 left\nb 1 left\n", 3, "duplicate side for vertex 1"),
]


@pytest.mark.parametrize(
    "text, line, message", PARSE_ERRORS, ids=[f"{text}-{line}" for text, line, _ in PARSE_ERRORS]
)
def test_parse_errors_carry_line_numbers(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_missing_p_record():
    with pytest.raises(ParseError):
        parse_graph("# nothing\n")


def test_incomplete_bipartition_rejected():
    with pytest.raises(ParseError):
        parse_graph("p 2\nb 0 left\n")


def test_noncrossing_bipartition_rejected():
    from cclose import BipartitionError

    with pytest.raises(BipartitionError):
        parse_graph("p 2\ne 0 1\nb 0 left\nb 1 left\n")


def test_bipartition_serializes_every_vertex():
    g = Graph(range(2), [(0, 1)])
    parts = Bipartition(frozenset({0}))
    text = serialize_graph(g, None, parts)
    assert "b 0 left" in text and "b 1 right" in text


def test_serialize_numbers_ids_after_deletion():
    g = Graph(range(4), [(1, 3)]).without_vertices([0])
    assert serialize_graph(g) == "p 3\ne 0 2\n"


def test_p_above_vertex_limit_is_a_resource_error(monkeypatch):
    monkeypatch.setattr(graphio, "MAX_VERTICES", 5)
    assert parse_graph("p 5\n")[0].n == 5
    with pytest.raises(ResourceLimitError, match="line 2: vertex count 6 exceeds the limit of 5"):
        parse_graph("# header\np 6\n")


def _record_lines(n: int):
    """Single records around a graph on n vertices: mostly valid, some not."""
    token = st.sampled_from(["x", "1.5", "", "+1", "0x1"])
    vertex = st.one_of(st.integers(-1, n + 1).map(str), token)
    return st.one_of(
        st.tuples(vertex, vertex).map(lambda e: f"e {e[0]} {e[1]}"),
        st.tuples(vertex, st.sampled_from(["black", "white", "grey"])).map(
            lambda r: f"c {r[0]} {r[1]}"
        ),
        st.tuples(vertex, st.sampled_from(["left", "right", "up"])).map(
            lambda r: f"b {r[0]} {r[1]}"
        ),
        st.tuples(st.sampled_from("pecb"), token, token).map(" ".join),
        st.sampled_from(["", "   ", "# note", "e 0 1 2", "e 0", "q 1", f"p {n}", "p -1", "p 2 3"]),
    )


@st.composite
def graph_texts(draw):
    """A file on n <= 12 vertices: a p record, edges in random orientation,
    optional colors and sides, comments and blank lines, and a few inserted
    records that may break it (duplicates, self-loops, bad ids and fields)."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    lines = [f"p {n}"]
    for u, v in edges:
        lines.append(f"e {v} {u}" if draw(st.booleans()) else f"e {u} {v}")
    whites = draw(st.sets(st.integers(0, max(n - 1, 0)))) if n else set()
    lines += [f"c {v} white" for v in sorted(whites)]
    if n and draw(st.booleans()):
        left = draw(st.sets(st.integers(0, n - 1)))
        lines += [f"b {v} {'left' if v in left else 'right'}" for v in range(n)]
    if draw(st.booleans()):
        lines[1:] = draw(st.permutations(lines[1:]))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        if edges and draw(st.booleans()):
            u, v = draw(st.sampled_from(edges))
            record = draw(st.sampled_from([f"e {u} {v}", f"e {v} {u}"]))
        else:
            record = draw(_record_lines(n))
        lines.insert(at, record)
    lines = [
        line + ("  # trailing" if draw(st.booleans()) else "") for line in lines
    ]
    return "\n".join(lines) + "\n"


def _parse_outcome(parse, text):
    try:
        g, coloring, parts = parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    order = [(v, list(nbrs)) for v, nbrs in g._adj.items()]
    return g, order, coloring, parts


@given(graph_texts())
def test_parse_graph_matches_reference(text):
    """Same graph (adjacency insertion order included), coloring and
    bipartition, or the same error with the same message and line."""
    assert _parse_outcome(parse_graph, text) == _parse_outcome(reference_parse_graph, text)


@given(
    st.integers(1, 12), st.integers(0, 2 ** 31), st.sets(st.integers(0, 11)),
    st.booleans(), st.booleans(),
)
def test_serialize_matches_renumbered_graph(n, seed, dropped, colored, sided):
    """A graph with scattered ids is written as its rebuild on 0..n-1, and
    reads back as that rebuild, coloring and sides included."""
    rng = random.Random(seed)
    left = frozenset(v for v in range(n) if rng.random() < 0.5)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.4 and (not sided or (u in left) != (v in left))
    ]
    g = Graph(range(n), edges).without_vertices(sorted(dropped & set(range(n))))
    coloring = Coloring(frozenset(v for v in range(n) if rng.random() < 0.3)) if colored else None
    bipartition = Bipartition(left) if sided else None
    expected = renumbered(g, coloring, bipartition)
    text = serialize_graph(g, coloring, bipartition)
    assert text == serialize_graph(*expected)
    graph, col, bip = parse_graph(text)
    assert graph == expected[0]
    assert (col.white if col else frozenset()) == (expected[1].white if colored else frozenset())
    assert bip == (expected[2] if sided and g.n else None)


@st.composite
def canonical_files(draw, min_n=0):
    """``serialize_graph`` output on n <= 60 vertices, with or without a
    coloring and a bipartition; the edges usually cross the bipartition."""
    n = draw(st.integers(min_n, 60))
    rng = random.Random(draw(st.integers(0, 2 ** 31)))
    p = draw(st.sampled_from([0.05, 0.2, 0.5]))
    left = frozenset(v for v in range(n) if rng.random() < 0.5)
    crossing = draw(st.integers(0, 3)) > 0
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p and (not crossing or (u in left) != (v in left))
    ]
    coloring = None
    if draw(st.booleans()):
        coloring = Coloring(frozenset(v for v in range(n) if rng.random() < 0.3))
    bipartition = Bipartition(left) if draw(st.booleans()) else None
    return serialize_graph(Graph(range(n), edges), coloring, bipartition)


LONG_ID = "1" * 4301  # one digit past the default limit of int()


@st.composite
def corrupted_canonical_files(draw):
    """A canonical file with one record changed so that the file keeps the
    canonical shape: a duplicate or reversed edge, a self-loop, an id out of
    range, an id with leading zeros, a 4301-digit id, a duplicate color or
    side, or a missing side."""
    lines = draw(canonical_files(min_n=1)).splitlines()
    n = int(lines[0].split()[1])
    at = {tag: [i for i, line in enumerate(lines) if line[0] == tag] for tag in "pecb"}
    kinds = ["self-loop", "leading zeros", "long id"]
    if len(lines) > 1:
        kinds.append("out of range")
    if at["e"]:
        kinds += ["duplicate edge", "reversed edge"]
    if at["c"]:
        kinds.append("duplicate color")
    if at["b"]:
        kinds += ["duplicate side", "missing side"]
    kind = draw(st.sampled_from(kinds))
    if kind == "self-loop":
        u = draw(st.integers(0, n - 1))
        lines.insert(draw(st.integers(1, len(at["e"]) + 1)), f"e {u} {u}")
    elif kind == "duplicate edge" or kind == "reversed edge":
        i = draw(st.sampled_from(at["e"]))
        _, u, v = lines[i].split()
        lines.insert(draw(st.sampled_from([i, i + 1])), f"e {u} {v}" if kind == "duplicate edge" else f"e {v} {u}")
    elif kind == "duplicate color":
        i = draw(st.sampled_from(at["c"]))
        lines.insert(i, lines[i])
    elif kind == "duplicate side":
        i = draw(st.sampled_from(at["b"]))
        u = lines[i].split()[1]
        lines.insert(i + 1, f"b {u} {draw(st.sampled_from(['left', 'right']))}")
    elif kind == "missing side":
        del lines[draw(st.sampled_from(at["b"]))]
    else:
        i = draw(st.integers(kind == "out of range", len(lines) - 1))
        tag, *fields = lines[i].split()
        field = draw(st.integers(0, len(fields) - 1 if tag == "e" else 0))
        fields[field] = {
            "out of range": str(draw(st.sampled_from([n, n + 1, 10 ** 20]))),
            "leading zeros": "0" * draw(st.integers(1, 3)) + fields[field],
            "long id": LONG_ID,
        }[kind]
        lines[i] = " ".join([tag, *fields])
    return "\n".join(lines) + "\n"


@given(corrupted_canonical_files(), st.sampled_from([1, 8, 40, graphio.CHUNK_CHARS]))
def test_corrupted_canonical_files_match_reference(text, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphio, "CHUNK_CHARS", chunk)
        assert _parse_outcome(parse_graph, text) == _parse_outcome(reference_parse_graph, text)


@given(canonical_files(), st.sampled_from([1, 8, 40, graphio.CHUNK_CHARS]))
def test_canonical_files_take_the_bulk_path(text, chunk):
    def refuse(text):
        raise AssertionError("a canonical file reached the line parser")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphio, "_parse_lines", refuse)
        mp.setattr(graphio, "CHUNK_CHARS", chunk)
        assert _parse_outcome(parse_graph, text) == _parse_outcome(reference_parse_graph, text)


def test_bulk_parse_holds_one_chunk_at_a_time(monkeypatch):
    """The scratch memory of a bulk parse follows the chunk, not the file: a
    whole-file match or split of these 40,000 edges would take megabytes."""
    rng = random.Random(3)
    edges = sorted({tuple(sorted(rng.sample(range(10_000), 2))) for _ in range(40_000)})
    text = "p 10000\n" + "".join(f"e {u} {v}\n" for u, v in edges)
    monkeypatch.setattr(graphio, "CHUNK_CHARS", 1 << 12)
    tracemalloc.start()
    try:
        g, _, _ = parse_graph(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == len(edges)
    assert peak - kept < 1 << 20
