"""The on-disk text format for graphs, colorings, and bipartitions.

One record per line, whitespace-separated, ``#`` starts a comment:

    p <n>              vertex count; vertices are 0..n-1
    e <u> <v>          undirected edge
    c <u> black|white  optional color (default black)
    b <u> left|right   optional bipartition side

Canonical serialization writes each vertex as its rank in id order, so a
graph whose ids have gaps (a kernel deleted vertices) is written on 0..n-1,
and a graph already on 0..n-1 keeps its ids. The renumbering is monotone, so
sorted orders survive it. It emits ``p`` first, edges sorted by (min, max),
then colors (white vertices only, since black is the default), then sides
for every vertex. Parsing a canonical file and re-serializing is the
identity.

A file in the shape ``serialize_graph`` writes is parsed in bulk: a ``p``
line, then blocks of ``e``, ``c <u> white`` and ``b`` lines, with single
spaces, ASCII digits and ``\n`` endings (edges in any order and orientation,
ids with leading zeros allowed). Its ids are converted a chunk of lines at a
time and its edges added in file order, so the adjacency, insertion order
included, is the one the line parser builds. Every other file, and every
bulk-shaped file that breaks a rule (a self-loop, a duplicate edge, color
or side, an id out of range or too long for ``int``, a missing side, a ``p``
above ``MAX_VERTICES``), goes to the line parser, which owns every
``ParseError`` and ``ResourceLimitError`` and names the line at fault.
"""

from __future__ import annotations

import re

from .errors import ParseError, ResourceLimitError
from .graph import Graph
from .instances import BLACK, LEFT, RIGHT, WHITE, Bipartition, Coloring


# A ``p`` record above this vertex count is refused before anything is
# allocated for it (CLI exit 3).
MAX_VERTICES = 10**6


def parse_graph(text: str) -> tuple[Graph, Coloring | None, Bipartition | None]:
    """Parse the text format: in bulk if the file is in canonical shape and
    breaks no rule, else line by line.

    Raises ``ParseError`` (with the offending line) on malformed input,
    ``ResourceLimitError`` on a ``p`` record above ``MAX_VERTICES`` and
    ``BipartitionError`` on a side assignment that an edge does not cross.
    """
    g, coloring, bipartition = _parse_canonical(text) or _parse_lines(text)
    if bipartition is not None:
        bipartition.validate(g)
    return g, coloring, bipartition


# The canonical shape, block by block; each block pattern matches whole lines.
_HEAD = re.compile(r"p ([0-9]+)\n")
_EDGE_LINES = re.compile(r"(?:e [0-9]+ [0-9]+\n)*")
_COLOR_LINES = re.compile(r"(?:c [0-9]+ white\n)*")
_SIDE_LINES = re.compile(r"(?:b [0-9]+ (?:left|right)\n)*")
# Lines are matched and split this many characters at a time (rounded up to
# a whole line): the regex engine keeps state per repeated line until a match
# ends, and a whole-file split would hold three strings per edge.
CHUNK_CHARS = 1 << 18


def _parse_canonical(text: str) -> tuple[Graph, Coloring | None, Bipartition | None] | None:
    """The parse of a canonical-shape file that breaks no rule, else None.

    Self-loops and duplicate edges show up as a degree sum below 2m, repeated
    colors or sides as a set smaller than its record count.
    """
    head = _HEAD.match(text)
    if head is None:
        return None
    try:
        n = int(head[1])
    except ValueError:
        return None
    if n > MAX_VERTICES:
        return None
    side_at = _block_start(text, "b", head.end(), len(text))
    color_at = _block_start(text, "c", head.end(), side_at)
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    m = 0
    whites: list[int] = []
    sided: list[int] = []
    left: list[int] = []
    try:
        for tokens in _chunks(text, head.end(), color_at, _EDGE_LINES):
            us, vs = list(map(int, tokens[1::3])), list(map(int, tokens[2::3]))
            if max(us) >= n or max(vs) >= n:
                return None
            for u, v in zip(us, vs):
                adj[u].add(v)
                adj[v].add(u)
            m += len(us)
        for tokens in _chunks(text, color_at, side_at, _COLOR_LINES):
            whites.extend(map(int, tokens[1::3]))
        for tokens in _chunks(text, side_at, len(text), _SIDE_LINES):
            ids = list(map(int, tokens[1::3]))
            sided.extend(ids)
            left.extend(u for u, side in zip(ids, tokens[2::3]) if side == LEFT)
    except ValueError:
        return None
    white = frozenset(whites)
    if (
        sum(map(len, adj.values())) != 2 * m
        or len(white) != len(whites)
        or max(whites, default=-1) >= n
        or sided and (len(sided) != n or len(set(sided)) != n or max(sided) >= n)
    ):
        return None
    coloring = Coloring(white) if whites else None
    bipartition = Bipartition(frozenset(left)) if sided else None
    return Graph._from_sets(adj), coloring, bipartition


def _block_start(text: str, tag: str, start: int, end: int) -> int:
    """Where the first line of [start, end) that begins with ``tag`` starts,
    or ``end``; ``start`` follows a newline."""
    at = text.find(f"\n{tag} ", start - 1, end)
    return end if at < 0 else at + 1


def _chunks(text: str, start: int, end: int, lines: re.Pattern):
    """The whitespace-split tokens of [start, end), a chunk of whole lines at
    a time; raises ``ValueError`` on a chunk that ``lines`` does not match."""
    while start < end:
        stop = text.find("\n", start + CHUNK_CHARS, end) + 1 or end
        if lines.fullmatch(text, start, stop) is None:
            raise ValueError("not in the canonical shape")
        yield text[start:stop].split()
        start = stop


def _parse_lines(text: str) -> tuple[Graph, Coloring | None, Bipartition | None]:
    """Parse the text format one line at a time, filling the adjacency as
    edges arrive; the bipartition is returned unchecked."""
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
            u = _vertex_field(fields, 1, n, lineno)
            v = _vertex_field(fields, 2, n, lineno)
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
    g = Graph._from_sets(adj)

    coloring = None
    if colors:
        coloring = Coloring(frozenset(u for u, col in colors.items() if col == WHITE))

    bipartition = None
    if sides:
        missing = [v for v in range(n) if v not in sides]
        if missing:
            raise ParseError(f"bipartition incomplete: vertex {missing[0]} has no side", None)
        bipartition = Bipartition(frozenset(u for u, s in sides.items() if s == LEFT))

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
    """Canonical text form, each vertex written as its rank in ``g.vertex_ids``."""
    ids = g.vertex_ids
    rank = {v: i for i, v in enumerate(ids)}
    lines = [f"p {g.n}"]
    lines.extend(f"e {rank[u]} {rank[v]}" for u, v in g.edges())
    if coloring is not None:
        lines.extend(f"c {rank[v]} {WHITE}" for v in sorted(coloring.white_of(g)))
    if bipartition is not None:
        lines.extend(f"b {i} {bipartition.side_of(v)}" for i, v in enumerate(ids))
    return "\n".join(lines) + "\n"


def load_graph(path) -> tuple[Graph, Coloring | None, Bipartition | None]:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(path, g: Graph, coloring=None, bipartition=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_graph(g, coloring, bipartition))
