"""Randomized agreement checking of pipelines against the brute-force oracles.

Each trial draws a seeded random instance, computes its closure, runs the
pipelines of its entry in ``problems``' table, and compares outcomes with
the oracle answer. Trace replay and closure preservation are checked on
every outcome, size bounds on every reduction, even one too large for the
oracle to cross-check. A reduction is decided by the oracle again only
when its trace has records: an empty trace replays to the input or its
all-black twin, whose answer is the one already computed. Disagreements
are shrunk by greedy vertex deletion before being reported.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

from .closure import compute_closure, is_c_closed
from .errors import ResourceLimitError
from .generators import er_graph
from .graph import Graph
from .graphio import serialize_graph
from .instances import COLORED, Coloring, Decided, Instance, KernelOutcome, RuleRecord, replay
from .kernel_ds import all_black_twin, rr_black_count
from .oracle import oracle_answer, validate_witness
from .problems import PIPELINES, Kernel, lookup, names, pipeline_of

PROBLEMS = tuple(names(PIPELINES))


@dataclass
class TrialResult:
    index: int
    n: int
    m: int
    k: int
    c: int
    agreed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class VerifyReport:
    problem: str
    n_max: int
    trials: int
    seed: int
    k_max: int
    r: int
    bipartite: bool
    results: list[TrialResult] = field(default_factory=list)
    reproducer: str | None = None

    @property
    def disagreements(self) -> list[TrialResult]:
        return [t for t in self.results if not t.agreed]

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "problem": self.problem,
            "n_max": self.n_max,
            "trials": self.trials,
            "seed": self.seed,
            "k_max": self.k_max,
            "r": self.r,
            "bipartite": self.bipartite,
            "agreements": sum(t.agreed for t in self.results),
            "disagreements": [t.to_json() for t in self.disagreements],
            "reproducer": self.reproducer,
            "status": "ok" if self.ok else "disagreement",
        }


def random_instance(problem: str, n_max: int, k_max: int, r: int, bipartite: bool, seed: int) -> Instance:
    rng = random.Random(seed)
    n = rng.randrange(n_max + 1)
    p = 0.15 + 0.5 * rng.random()
    if bipartite:
        left = n // 2
        g = Graph(range(n), [(u, v) for u in range(left) for v in range(left, n) if rng.random() < p])
    else:
        g = er_graph(n, p, seed=rng.randrange(2 ** 32))
    k = rng.randrange(k_max + 1)
    entry = lookup(PIPELINES, problem, bipartite)
    coloring = None
    if entry.problem in COLORED:
        coloring = Coloring(frozenset(v for v in g.vertex_ids if rng.random() < 0.5))
    return entry.instance(g, k, r, coloring)


def run_verify(
    problem: str,
    n_max: int = 8,
    trials: int = 100,
    seed: int = 0,
    k_max: int = 3,
    r: int = 1,
    bipartite: bool = False,
) -> VerifyReport:
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r} (expected one of {PROBLEMS})")
    report = VerifyReport(
        problem=problem, n_max=n_max, trials=trials, seed=seed, k_max=k_max, r=r, bipartite=bipartite
    )
    for idx in range(trials):
        trial_seed = seed * 1_000_003 + idx
        inst = random_instance(problem, n_max, k_max, r, bipartite, trial_seed)
        agreed, detail = check_instance(problem, inst, bipartite)
        c = compute_closure(inst.graph).c
        report.results.append(TrialResult(idx, inst.graph.n, inst.graph.m, inst.k, c, agreed, detail))
    bad = report.disagreements
    if bad:
        failing = random_instance(problem, n_max, k_max, r, bipartite, seed * 1_000_003 + bad[0].index)
        shrunk = shrink_instance(problem, failing, bipartite)
        report.reproducer = serialize_graph(shrunk.graph, shrunk.coloring, shrunk.bipartition)
    return report


def check_instance(problem: str, inst: Instance, bipartite: bool) -> tuple[bool, str]:
    """Run the pipeline(s) for one instance; empty detail means agreement.

    The pipelines follow from ``inst`` alone; ``problem`` and ``bipartite``
    name the draw it came from."""
    expected = oracle_answer(inst)
    c = compute_closure(inst.graph).c
    try:
        outcomes = _run_pipelines(inst, c)
    except ResourceLimitError:
        raise
    except Exception as exc:  # pipeline crash counts as disagreement
        return False, f"pipeline error: {exc!r}"
    for kernel, base, outcome in outcomes:
        ok, why = _outcome_agrees(kernel, inst, base, outcome, expected, c)
        if not ok:
            return False, f"{kernel.name}: {why}"
    return True, ""


def kernelize(inst: Instance, c: int | None, mode: str = "delta") -> KernelOutcome:
    """Run the kernel of ``inst``'s entry in ``problems``' table, in ``mode``
    where it has modes; ``c`` may be None where that kernel does not read it."""
    return pipeline_of(inst).kernel(mode).run(inst, c)


def _run_pipelines(inst: Instance, c: int) -> list[tuple[Kernel, Instance, KernelOutcome]]:
    """Every kernel of ``inst``'s entry, then its solver, each run beside
    the instance its trace replays from."""
    entry = pipeline_of(inst)
    base = all_black_twin(inst) if entry.twin else inst
    out = [(kernel, base, kernel.run(inst, c)) for kernel in entry.kernels]
    if entry.solver is not None:
        out.append((entry.solver, inst, entry.solver.run(inst, c)))
    return out


def _outcome_agrees(
    kernel: Kernel, inst: Instance, base: Instance, outcome: KernelOutcome, expected: bool, c: int
) -> tuple[bool, str]:
    """Whether the ``outcome`` of ``kernel`` on the drawn ``inst`` agrees
    with the oracle's ``expected`` answer and, reduced, keeps ``kernel``'s
    size bound; ``base`` is the instance its trace replays from, decided or
    not. A witness is validated against whichever of the two has its
    problem: a kernel may run on the all-black twin but return a witness of
    ``inst``.

    A reduction is decided again only when its trace has records. Once
    ``_closure_preserved`` accepts an empty trace, the reduction equals
    ``base``: ``inst`` or its all-black twin, which the oracle answers as it
    answers ``inst`` (``oracle_tds`` reads an all-black coloring as none).
    A second decision would compare ``expected`` with itself."""
    ok, why = _closure_preserved(base, outcome, c)
    if not ok:
        return False, why
    if isinstance(outcome, Decided):
        if outcome.answer != expected:
            return False, f"decided {outcome.answer}, oracle says {expected}"
        if outcome.answer and outcome.witness is None:
            return False, "decided yes without a witness"
        if outcome.witness is not None:
            target = base if outcome.witness.problem is base.problem else inst
            if not validate_witness(target, outcome.witness):
                return False, "decided-yes witness fails validation"
        return True, ""
    reduced = outcome.instance
    if outcome.trace:
        try:
            if oracle_answer(reduced) != expected:
                return False, f"reduced instance answers {not expected}, oracle says {expected}"
        except ResourceLimitError:
            pass  # too large to cross-check; the structural checks still run
    violation = kernel.bound(reduced, c)
    return (False, violation) if violation else (True, "")


def _closure_preserved(inst: Instance, outcome: KernelOutcome, c: int) -> tuple[bool, str]:
    """Whether ``outcome``'s trace, replayed from ``inst``, keeps the graph
    c-closed and ends at ``outcome.instance``. Only a record that adds a
    vertex or an edge is rescanned, which is exact: c is the closure of
    ``inst.graph``, and an induced subgraph of a c-closed graph is c-closed,
    so removing vertices, whitening them or shifting k cannot break it."""
    state = inst
    for record in outcome.trace:
        # the gadget may raise the closure, which it recomputes; the colored
        # instance it starts from is where the DS kernel's black count is bounded
        gadget = record.payload.get("uncolor")
        if gadget and rr_black_count(state, c):
            return False, "black-count bound violated"
        state = replay(state, record)
        grows = record.vertices_added or record.edges_added
        if grows and not gadget and not is_c_closed(state.graph, c):
            return False, f"rule {record.rule} broke c-closedness"
    if state != outcome.instance:
        return False, "trace replay does not reproduce the outcome's instance"
    return True, ""


def shrink_instance(problem: str, inst: Instance, bipartite: bool) -> Instance:
    """Greedy vertex-deletion shrinking while the disagreement persists."""
    changed = True
    while changed:
        changed = False
        for v in list(inst.graph.vertex_ids):
            candidate = replay(inst, RuleRecord(rule="shrink", vertices_removed=(v,)))
            if not check_instance(problem, candidate, bipartite)[0]:
                inst = candidate
                changed = True
                break
    return inst
