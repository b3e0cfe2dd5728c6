"""The on-disk text format for graphs, colorings, and bipartitions.

One record per line, whitespace-separated, ``#`` starts a comment:

    p <n>              vertex count; vertices are 0..n-1
    e <u> <v>          undirected edge
    c <u> black|white  optional color (default black)
    b <u> left|right   optional bipartition side

Canonical serialization emits ``p`` first, edges sorted by (min, max), then
colors (white vertices only, since black is the default), then sides for
every vertex. Parsing a canonical file and re-serializing is the identity.
"""

from __future__ import annotations

from .errors import ParseError, ResourceLimitError
from .graph import Graph
from .instances import BLACK, LEFT, RIGHT, WHITE, Bipartition, Coloring


# A ``p`` record above this vertex count is refused before anything is
# allocated for it (CLI exit 3).
MAX_VERTICES = 10**6


def parse_graph(text: str) -> tuple[Graph, Coloring | None, Bipartition | None]:
    """Parse the text format in one pass, filling the adjacency as edges arrive.

    Raises ``ParseError`` (with the offending line) on malformed input and
    ``ResourceLimitError`` on a ``p`` record above ``MAX_VERTICES``.
    """
    n: int | None = None
    adj: dict[int, set[int]] = {}
    colors: dict[int, str] = {}
    sides: dict[int, str] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[: line.index("#")]
        fields = line.split()
        if not fields:
            continue
        tag = fields[0]
        if tag == "e":
            if len(fields) != 3:
                raise ParseError("e record takes exactly two fields", lineno)
            if n is None:
                raise ParseError("vertex record before p record", lineno)
            try:
                u = int(fields[1])
            except ValueError:
                raise ParseError("expected an integer in field 1", lineno) from None
            if not 0 <= u < n:
                raise ParseError(f"vertex {u} out of range [0, {n})", lineno)
            try:
                v = int(fields[2])
            except ValueError:
                raise ParseError("expected an integer in field 2", lineno) from None
            if not 0 <= v < n:
                raise ParseError(f"vertex {v} out of range [0, {n})", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            nbrs = adj[u]
            if v in nbrs:
                raise ParseError(f"duplicate edge ({u}, {v})", lineno)
            nbrs.add(v)
            adj[v].add(u)
        elif tag == "p":
            if n is not None:
                raise ParseError("duplicate p record", lineno)
            n = _int_field(fields, 1, lineno)
            if len(fields) != 2:
                raise ParseError("p record takes exactly one field", lineno)
            if n < 0:
                raise ParseError("vertex count must be nonnegative", lineno)
            if n > MAX_VERTICES:
                raise ResourceLimitError(
                    f"line {lineno}: vertex count {n} exceeds the limit of {MAX_VERTICES}"
                )
            adj = {v: set() for v in range(n)}
        elif tag == "c":
            if len(fields) != 3 or fields[2] not in (BLACK, WHITE):
                raise ParseError("c record needs a vertex and black|white", lineno)
            u = _vertex_field(fields, 1, n, lineno)
            if u in colors:
                raise ParseError(f"duplicate color for vertex {u}", lineno)
            colors[u] = fields[2]
        elif tag == "b":
            if len(fields) != 3 or fields[2] not in (LEFT, RIGHT):
                raise ParseError("b record needs a vertex and left|right", lineno)
            u = _vertex_field(fields, 1, n, lineno)
            if u in sides:
                raise ParseError(f"duplicate side for vertex {u}", lineno)
            sides[u] = fields[2]
        else:
            raise ParseError(f"unknown record type {tag!r}", lineno)

    if n is None:
        raise ParseError("missing p record", None)
    g = Graph._from_adj(adj)

    coloring = None
    if colors:
        coloring = Coloring(frozenset(u for u, col in colors.items() if col == WHITE))

    bipartition = None
    if sides:
        missing = [v for v in range(n) if v not in sides]
        if missing:
            raise ParseError(f"bipartition incomplete: vertex {missing[0]} has no side", None)
        bipartition = Bipartition(frozenset(u for u, s in sides.items() if s == LEFT))
        bipartition.validate(g)

    return g, coloring, bipartition


def _int_field(fields: list[str], idx: int, lineno: int) -> int:
    try:
        return int(fields[idx])
    except (IndexError, ValueError):
        raise ParseError(f"expected an integer in field {idx}", lineno) from None


def _vertex_field(fields: list[str], idx: int, n: int | None, lineno: int) -> int:
    if n is None:
        raise ParseError("vertex record before p record", lineno)
    u = _int_field(fields, idx, lineno)
    if not 0 <= u < n:
        raise ParseError(f"vertex {u} out of range [0, {n})", lineno)
    return u


def serialize_graph(
    g: Graph,
    coloring: Coloring | None = None,
    bipartition: Bipartition | None = None,
) -> str:
    """Canonical text form; vertices must be 0..n-1."""
    ids = g.vertex_ids
    if ids and (ids[0] != 0 or ids[-1] != len(ids) - 1):
        raise ValueError("serialization requires contiguous vertex ids 0..n-1")
    lines = [f"p {g.n}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    if coloring is not None:
        lines.extend(f"c {v} {WHITE}" for v in sorted(coloring.white_of(g)))
    if bipartition is not None:
        lines.extend(f"b {v} {bipartition.side_of(v)}" for v in ids)
    return "\n".join(lines) + "\n"


def normalize_ids(g: Graph) -> tuple[Graph, dict[int, int]]:
    """Relabel vertices to 0..n-1 (needed before serialization after deletions).

    Returns the relabeled graph and the old-id -> new-id mapping.
    """
    mapping = {v: i for i, v in enumerate(g.vertex_ids)}
    adj = g._adj
    relabeled = Graph._from_adj({i: {mapping[w] for w in adj[v]} for v, i in mapping.items()})
    return relabeled, mapping


def load_graph(path) -> tuple[Graph, Coloring | None, Bipartition | None]:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(path, g: Graph, coloring=None, bipartition=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_graph(g, coloring, bipartition))
