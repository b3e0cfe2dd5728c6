"""Simple undirected graphs with stable vertex identifiers."""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable


class Graph:
    """An immutable simple undirected graph.

    Vertex identifiers are non-negative integers and stay stable across
    deletions: removing a vertex never renumbers the others, so rule traces
    and witnesses remain valid references. The adjacency is never changed
    after construction: every mutating operation returns a new graph, so
    values can be shared freely between threads.

    Each neighbourhood is a frozenset, frozen once when the graph is built
    from vertex and edge lists or from a parser's sets. ``neighbors`` hands
    out that row itself, and a derived graph (``with_vertex``,
    ``with_vertices``, ``with_edges``, ``without_vertices``) copies only the
    dict of rows: it rebuilds the rows it changes and shares every other row
    with the graph it came from (structural sharing, as in the persistent
    data structures of Driscoll, Sarnak, Sleator & Tarjan, 1989).

    No row holds its own vertex: every constructor rejects a self-loop, and a
    derived graph only unites, subtracts or intersects rows. ``is_clique``
    relies on this to reject a repeated member.

    Because the adjacency is fixed, a graph also memoizes what is read off
    it more than once:

    - ``_closure``, its closure report: ``closure.compute_closure`` fills it
      and ``closure.is_c_closed`` answers from it;
    - ``_ids``, the sorted tuple ``vertex_ids`` returns, made on first use;
    - ``_cliques``, a dict from a lower size bound to the tuple of maximal
      cliques ``cliques.maximal_cliques`` listed at it.

    Every graph starts with all three empty, derived graphs included, so no
    memo outlives the adjacency it describes; equality ignores them. Two
    threads may fill a memo at once: each computes the same value from the
    same adjacency, and whichever write lands last is kept, so the race is
    benign.
    """

    __slots__ = ("_adj", "_closure", "_ids", "_cliques")

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        adj = {v: set() for v in vertices}
        _add_edges(adj, adj, edges)
        self._adj = _freeze_rows(adj)
        self._closure = None
        self._ids = None
        self._cliques = {}

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _from_adj(cls, adj: dict[int, frozenset[int]]) -> "Graph":
        """A graph on ``adj`` as it is: its rows are frozensets, shared."""
        g = cls.__new__(cls)
        g._adj = adj
        g._closure = None
        g._ids = None
        g._cliques = {}
        return g

    @classmethod
    def _from_sets(cls, adj: dict[int, set[int]]) -> "Graph":
        """A graph on a parser's adjacency of sets, frozen row by row in
        place, so that no second copy of the adjacency is ever held."""
        return cls._from_adj(_freeze_rows(adj))

    # -- basic queries -------------------------------------------------------

    @property
    def vertex_ids(self) -> tuple[int, ...]:
        """The vertex ids in ascending order, sorted once per graph."""
        if self._ids is None:
            self._ids = tuple(sorted(self._adj))
        return self._ids

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: int) -> frozenset[int]:
        """The row of ``v`` itself, not a copy."""
        try:
            return self._adj[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v}") from None

    def closed_neighborhood(self, v: int) -> frozenset[int]:
        return self.neighbors(v) | {v}

    def closed_neighborhood_counts(self, vertices: Iterable[int]) -> Counter[int]:
        """How many of ``vertices`` each closed neighbourhood holds: x maps
        to |N[x] ∩ vertices|, counted in one pass over the rows of the
        distinct members. Ids that are not vertices count for nothing, and
        a vertex with a count of 0 is absent, as a ``Counter`` reads it."""
        adj = self._adj
        members = {v for v in vertices if v in adj}
        counts = Counter(members)
        for v in members:
            counts.update(adj[v])
        return counts

    def degree(self, v: int) -> int:
        if v not in self._adj:
            raise ValueError(f"unknown vertex {v}")
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self._adj.values()), default=0)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (min, max) pairs, sorted."""
        out = [(u, v) for u in self._adj for v in self._adj[u] if u < v]
        out.sort()
        return out

    def isolated_vertices(self) -> list[int]:
        return sorted(v for v, nbrs in self._adj.items() if not nbrs)

    def fresh_id(self) -> int:
        """Smallest integer larger than every existing vertex id."""
        return max(self._adj, default=-1) + 1

    # -- predicates ----------------------------------------------------------

    def is_clique(self, vertices: Iterable[int]) -> bool:
        """Whether ``vertices`` are distinct vertices of the graph, pairwise
        adjacent. Members are popped off a list one at a time, and each
        member's row is checked against the members still before it in one
        ``issuperset`` call, so no set is built. A repeated member fails
        because no row holds its own vertex."""
        vs = list(vertices)
        adj = self._adj
        while vs:
            row = adj.get(vs.pop())
            if row is None or not row.issuperset(vs):
                return False
        return True

    def is_independent_set(self, vertices: Iterable[int]) -> bool:
        """Whether ``vertices`` are vertices of the graph, no two adjacent;
        each member's row is checked against the whole set in one
        ``isdisjoint`` call. A repeated member counts once: no vertex is its
        own neighbour."""
        vs = set(vertices)
        return all((row := self._adj.get(v)) is not None and row.isdisjoint(vs) for v in vs)

    # -- value-style mutations -----------------------------------------------

    def with_vertex(self, v: int) -> "Graph":
        return self.with_vertices((v,))

    def with_vertices(self, vs: Iterable[int]) -> "Graph":
        adj = dict(self._adj)
        for v in vs:
            if v in adj:
                raise ValueError(f"vertex {v} already present")
            adj[v] = frozenset()
        return Graph._from_adj(adj)

    def with_edges(self, pairs: Iterable[tuple[int, int]]) -> "Graph":
        adj = dict(self._adj)
        gained: defaultdict[int, set[int]] = defaultdict(set)
        _add_edges(gained, adj, pairs)
        adj.update((v, adj[v] | nbrs) for v, nbrs in gained.items())
        return Graph._from_adj(adj)

    def without_vertices(self, vs: Iterable[int]) -> "Graph":
        drop = set(vs)
        adj = dict(self._adj)
        for v in drop:
            if v not in adj:
                raise ValueError(f"unknown vertex {v}")
        for v in set().union(*map(adj.pop, drop)) - drop:
            adj[v] = adj[v] - drop
        return Graph._from_adj(adj)

    def induced(self, vertices: Iterable[int]) -> "Graph":
        keep = set(vertices)
        for v in keep:
            if v not in self._adj:
                raise ValueError(f"unknown vertex {v}")
        adj = {v: self._adj[v] & keep for v in keep}
        return Graph._from_adj(adj)

    def between(self, a: Iterable[int], b: Iterable[int]) -> "Graph":
        """The bipartite subgraph between the disjoint vertex sets ``a`` and
        ``b``: their vertices and the edges with one end in each."""
        a, b = set(a), set(b)
        if not a.isdisjoint(b):
            raise ValueError("the two sides overlap")
        for v in a | b:
            if v not in self._adj:
                raise ValueError(f"unknown vertex {v}")
        adj = {v: self._adj[v] & b for v in a}
        adj.update({v: self._adj[v] & a for v in b})
        return Graph._from_adj(adj)

    # -- structure -----------------------------------------------------------

    def components(self) -> list[frozenset[int]]:
        """Connected components, sorted by smallest member."""
        seen: set[int] = set()
        comps = []
        for start in sorted(self._adj):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for w in self._adj[u]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def two_color(self) -> frozenset[int] | None:
        """One side of a proper 2-coloring, or None if the graph is odd-cyclic.

        Within each component the side containing the smallest vertex id is
        chosen as "left", so the result is deterministic.
        """
        side: dict[int, int] = {}
        for start in sorted(self._adj):
            if start in side:
                continue
            side[start] = 0
            stack = [start]
            while stack:
                u = stack.pop()
                for w in self._adj[u]:
                    if w not in side:
                        side[w] = 1 - side[u]
                        stack.append(w)
                    elif side[w] == side[u]:
                        return None
        return frozenset(v for v, s in side.items() if s == 0)

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _add_edges(rows: dict[int, set[int]], adj: dict, pairs: Iterable[tuple[int, int]]) -> None:
    """Add each pair to ``rows`` as an edge between two vertices of ``adj``."""
    for u, v in pairs:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if u not in adj or v not in adj:
            raise ValueError(f"edge ({u}, {v}) references an unknown vertex")
        rows[u].add(v)
        rows[v].add(u)


def _freeze_rows(adj: dict[int, set[int]]) -> dict[int, frozenset[int]]:
    """``adj`` with each row replaced, in place, by a frozenset of it."""
    for v, nbrs in adj.items():
        adj[v] = frozenset(nbrs)
    return adj


def path_graph(n: int) -> Graph:
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])
