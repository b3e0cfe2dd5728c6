"""Problem instances, solution witnesses, kernel outcomes, and rule traces."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any

from .errors import BipartitionError, ExtractionError
from .graph import Graph

BLACK = "black"
WHITE = "white"
LEFT = "left"
RIGHT = "right"


class Problem(str, Enum):
    IS = "IS"
    DS = "DS"
    TDS = "TDS"
    BW_TDS = "BW-TDS"
    IM = "IM"
    IRS = "IRS"


# The problems whose instances take r, the domination multiplicity, and
# those whose instances take a black/white coloring.
TAKES_R = (Problem.TDS, Problem.BW_TDS)
COLORED = (Problem.BW_TDS,)


@dataclass(frozen=True)
class Coloring:
    """A total black/white coloring; vertices default to black.

    Only the white side is stored, so the coloring is automatically total
    over any vertex set, and ``white`` may name vertices a graph lacks. The
    black and white vertices of a graph are set algebra between its vertex
    set (the keys of ``g._adj``) and ``white``, with no per-vertex loop.
    """

    white: frozenset[int] = frozenset()

    def black_of(self, g: Graph) -> frozenset[int]:
        return frozenset(g._adj.keys() - self.white)

    def white_of(self, g: Graph) -> frozenset[int]:
        return frozenset(g._adj.keys() & self.white)

    def whiten(self, vs: Iterable[int]) -> "Coloring":
        return Coloring(self.white | set(vs))

    def restricted_to(self, g: Graph) -> "Coloring":
        return Coloring(self.white_of(g))


@dataclass(frozen=True)
class Bipartition:
    """A total left/right split; valid only if every edge crosses sides.

    As in ``Coloring``, only one side is stored, and a graph's sides are set
    algebra between its vertex set and ``left``.
    """

    left: frozenset[int]

    def side_of(self, v: int) -> str:
        return LEFT if v in self.left else RIGHT

    def left_of(self, g: Graph) -> frozenset[int]:
        return frozenset(g._adj.keys() & self.left)

    def right_of(self, g: Graph) -> frozenset[int]:
        return frozenset(g._adj.keys() - self.left)

    def validate(self, g: Graph) -> None:
        """Raise ``BipartitionError`` naming the smallest edge of g that does
        not cross, if there is one.

        Each vertex is checked with one set operation: a left vertex's
        neighbours must avoid the left side, a right vertex's must lie in it.
        Only a failing graph pays for the sorted edge scan that names the edge.
        """
        left = self.left
        for v, nbrs in g._adj.items():
            if not (left.isdisjoint(nbrs) if v in left else left.issuperset(nbrs)):
                break
        else:
            return
        for u, v in g.edges():
            if (u in left) == (v in left):
                raise BipartitionError(f"edge ({u}, {v}) does not cross the bipartition")

    def restricted_to(self, g: Graph) -> "Bipartition":
        return Bipartition(self.left_of(g))


VERTEX_SET = "vertex-set"
EDGE_SET = "edge-set"


@dataclass(frozen=True)
class Witness:
    """A certified solution object: a vertex set or an edge set."""

    kind: str
    elements: frozenset
    problem: Problem

    @classmethod
    def vertex_set(cls, vs: Iterable[int], problem: Problem) -> "Witness":
        return cls(VERTEX_SET, frozenset(vs), problem)

    @classmethod
    def edge_set(cls, edges: Iterable[tuple[int, int]], problem: Problem) -> "Witness":
        return cls(EDGE_SET, frozenset((min(u, v), max(u, v)) for u, v in edges), problem)

    def sorted_elements(self) -> list:
        return sorted(self.elements)


@dataclass(frozen=True)
class Instance:
    """A parameterized problem instance; ``r`` is present exactly when
    ``problem`` is in ``TAKES_R``, and a coloring when it is in ``COLORED``."""

    problem: Problem
    graph: Graph
    k: int
    r: int | None = None
    coloring: Coloring | None = None
    bipartition: Bipartition | None = None

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("budget k must be nonnegative")
        if (self.problem in TAKES_R) != (self.r is not None):
            raise ValueError(f"r must be present iff problem is {'/'.join(TAKES_R)} (got {self.problem})")
        if self.r is not None and self.r < 1:
            raise ValueError("r must be positive")
        if (self.problem in COLORED) != (self.coloring is not None):
            raise ValueError(f"coloring must be present iff problem is {'/'.join(COLORED)}")
        if self.bipartition is not None:
            self.bipartition.validate(self.graph)

    def black_vertices(self) -> frozenset[int]:
        assert self.coloring is not None
        return self.coloring.black_of(self.graph)

    def white_vertices(self) -> frozenset[int]:
        assert self.coloring is not None
        return self.coloring.white_of(self.graph)

    def on_sides(self, parts: Bipartition) -> "Instance":
        """This instance carrying the bipartition ``parts``, which is
        validated; a bipartite kernel runs on it, so its reduction carries
        the sides it read. Raises ``ValueError`` when the instance already
        carries a different bipartition."""
        if self.bipartition is None:
            return replace(self, bipartition=parts)
        if self.bipartition != parts:
            raise ValueError("parts differ from the instance's bipartition")
        return self


@dataclass(frozen=True)
class RuleRecord:
    """One replayable reduction-rule application.

    Replay order: add vertices, add edges, whiten the recolored vertices
    (rules only ever whiten), remove vertices, then shift the budget by
    ``k_delta``.
    """

    rule: str
    vertices_added: tuple[int, ...] = ()
    edges_added: tuple[tuple[int, int], ...] = ()
    recolored: tuple[tuple[int, str], ...] = ()
    vertices_removed: tuple[int, ...] = ()
    k_delta: int = 0
    payload: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        """The record as JSON values; its payload, which holds JSON values
        (ints, bools and lists of ints), is written as held."""
        return {
            "rule": self.rule,
            "vertices_added": list(self.vertices_added),
            "edges_added": [list(e) for e in self.edges_added],
            "recolored": [list(rc) for rc in self.recolored],
            "vertices_removed": list(self.vertices_removed),
            "k_delta": self.k_delta,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> "RuleRecord":
        """The record whose ``to_json`` is ``obj``, as read back by
        ``json.load``: id lists become tuples again, and the payload, JSON
        values written as held, is kept as decoded."""
        return cls(
            rule=obj["rule"],
            vertices_added=tuple(obj["vertices_added"]),
            edges_added=tuple(map(tuple, obj["edges_added"])),
            recolored=tuple(map(tuple, obj["recolored"])),
            vertices_removed=tuple(obj["vertices_removed"]),
            k_delta=obj["k_delta"],
            payload=dict(obj["payload"]),
        )


def replay(inst: Instance, record: RuleRecord) -> Instance:
    """Apply a recorded rule to an instance, reproducing its post-state.

    A record with ``payload["uncolor"]`` set marks the color-removal gadget:
    the result is an uncolored TDS (or DS, for r = 1) instance, and the
    payload carries the recomputed closure of the transformed graph.
    """
    g = inst.graph
    if record.vertices_added:
        g = g.with_vertices(record.vertices_added)
    if record.edges_added:
        g = g.with_edges(record.edges_added)
    coloring = inst.coloring
    if record.recolored:
        if coloring is None or any(color != WHITE for _, color in record.recolored):
            raise ValueError(f"{record.rule} record recolors a vertex black or an uncolored instance")
        coloring = coloring.whiten(v for v, _ in record.recolored)
    if record.vertices_removed:
        g = g.without_vertices(record.vertices_removed)
    if coloring is not None:
        coloring = coloring.restricted_to(g)
    bip = inst.bipartition.restricted_to(g) if inst.bipartition is not None else None
    problem, r = inst.problem, inst.r
    if record.payload.get("uncolor"):
        problem, coloring = (Problem.DS if r == 1 else Problem.TDS), None
        r = r if problem in TAKES_R else None
    return Instance(problem, g, inst.k + record.k_delta, r, coloring, bip)


def replay_trace(inst: Instance, trace: Iterable[RuleRecord]) -> Instance:
    for record in trace:
        inst = replay(inst, record)
    return inst


# Removals and whitenings that keep k: the post-state is an induced
# subinstance, so its solutions solve the pre-state as they are.
_LIFTS_UNCHANGED = frozenset({"RR1", "RR6", "RR9", "RR10", "RR13", "RR15", "RR16", "drop-isolated"})


def lift(original: Instance, trace: Sequence[RuleRecord], witness: Witness) -> Witness:
    """The inverse of ``replay_trace(original, trace)`` on witnesses: a
    solution of the trace's last instance, mapped back through the records,
    last first, by each rule's safeness lemma. It reads the records alone,
    with no replay and no graph, and returns the set labelled
    ``original.problem`` unvalidated: a caller certifies it on ``original``.
    A rule with no clause here raises ``ValueError``."""
    elements = set(witness.elements)
    for record in reversed(trace):
        rule, added = record.rule, record.vertices_added
        if rule in _LIFTS_UNCHANGED:
            continue
        if rule == "RR2":
            if added[0] in elements:
                if not (partners := set(record.payload["clique"]) - elements):
                    raise ExtractionError("no swap partner when lifting over the clique rule")
                elements.remove(added[0])
                elements.add(min(partners))
        elif rule == "RR7":
            elements.add(record.vertices_removed[0])
        elif rule == "RR14":
            anchor, shadowed = record.payload["anchor"], record.payload["shadowed"]
            if (leaf_edge := (min(added[0], anchor), max(added[0], anchor))) in elements:
                elements.remove(leaf_edge)
                elements.add((min(shadowed, anchor), max(shadowed, anchor)))
        elif rule == "gadget":
            # N(last) is the other gadget vertices: the last goes for the
            # smallest of them not taken, then all of them must be taken
            *forced, last = added
            if last in elements:
                elements.remove(last)
                if outside := set(forced) - elements:
                    elements.add(min(outside))
            if not elements.issuperset(forced):
                raise ExtractionError("gadget clique not forced into the solution")
            elements.difference_update(added)
        else:
            raise ValueError(f"no lift over a {rule} record")
    return Witness(witness.kind, frozenset(elements), original.problem)


def replay_removals(inst: Instance, records: Sequence[RuleRecord]) -> Instance:
    """``replay_trace`` for records that only remove vertices, in one step.

    Such a record adds nothing, recolors nothing and keeps the budget.
    Deleting vertex sets one after another leaves the same graph as deleting
    their union at once, and ``replay`` restricts the coloring and the
    bipartition to the surviving vertices alone, so one ``replay`` of a
    record removing the union gives the instance that replaying the records
    one by one would, without a graph copy and a bipartition check per
    record.
    """
    if not records:
        return inst
    removed: list[int] = []
    for record in records:
        assert not (
            record.vertices_added
            or record.edges_added
            or record.recolored
            or record.k_delta
            or record.payload.get("uncolor")
        ), f"{record.rule} record does more than remove vertices"
        removed.extend(record.vertices_removed)
    return replay(inst, RuleRecord(rule="removals", vertices_removed=tuple(removed)))


def exhaust(
    inst: Instance, rules: Sequence[Callable[[Instance], RuleRecord | Witness | None]]
) -> tuple[Instance, list[RuleRecord], Witness | None]:
    """Apply the first rule that fires, replay its record and start again
    from the first rule, until no rule fires or one decides the instance.

    A rule may draw its candidates from an iterator it keeps between calls,
    as ``lambda i: rr_clique(i, c, rest)`` does, ``rest`` iterating over one
    listing of the cliques: each call resumes after the candidate that fired
    last, so each candidate is tried once, on the instance current when it
    is drawn.
    That gives the records of listing afresh after every change only where
    no record can make a passed candidate, or one a fresh listing would add,
    fire; the caller has to show that.

    A rule decides by returning the certified witness of a Yes. Returns the
    instance and the records applied when the run stopped, and that witness
    (None at a fixpoint). Running out of the 20*(n+k+10) applications
    allowed raises ExtractionError.
    """
    trace: list[RuleRecord] = []
    for _ in range(20 * (inst.graph.n + inst.k + 10)):
        for rule in rules:
            outcome = rule(inst)
            if outcome is not None:
                break
        else:
            return inst, trace, None
        if isinstance(outcome, Witness):
            return inst, trace, outcome
        inst = replay(inst, outcome)
        trace.append(outcome)
    raise ExtractionError("the rules failed to reach a fixpoint")


@dataclass(frozen=True)
class KernelOutcome:
    """What a kernel returns: an instance and the rule trace that produced it.

    ``instance == replay_trace(base, trace)``, whole, where ``base`` is the
    instance the kernel ran on (the all-black twin for the DS and TDS
    kernels). Each rule is safe by its own lemma, so the trace certifies the
    run, whether it ends decided or reduced.
    """

    instance: Instance
    trace: tuple[RuleRecord, ...]


@dataclass(frozen=True)
class Reduced(KernelOutcome):
    """An equivalent smaller instance: ``instance`` is the kernel."""


@dataclass(frozen=True)
class Decided(KernelOutcome):
    """The kernel solved its input outright; ``instance`` and ``trace`` are
    those at the point of decision, ``(base, ())`` for a decision taken
    before any rule ran. A Yes carries its certified witness, a solution of
    the input rather than of ``instance``."""

    answer: bool
    witness: Witness | None = None
