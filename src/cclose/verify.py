"""Randomized agreement checking of pipelines against the brute-force oracles.

Each trial draws a seeded random instance, computes its closure, runs the
problem's pipeline(s), and compares outcomes with the oracle answer. Trace
replay and closure preservation are checked on every outcome, size bounds
on every reduction, even one too large for the oracle to cross-check. A
reduction is decided by the oracle again only when its trace has records:
an empty trace replays to the input or its all-black twin, whose answer is
the one already computed. Disagreements are shrunk by greedy vertex
deletion before being reported.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

from .closure import compute_closure, is_c_closed
from .errors import ResourceLimitError
from .generators import er_graph
from .graph import Graph
from .graphio import serialize_graph
from .instances import (
    Bipartition,
    Coloring,
    Decided,
    Instance,
    KernelOutcome,
    Problem,
    RuleRecord,
    replay,
)
from .kernel_ds import (
    all_black_twin,
    bipartite_kernel_bound,
    kernelize_bipartite_bwds,
    kernelize_bwtds,
    kernelize_ds,
    rr_black_count,
)
from .kernel_im import kernelize_im, kernelize_im_bipartite, partition_bound_violation
from .kernel_irs import irs_thresholds, kernelize_irs
from .kernel_is import independent_set_kernel_bound, kernelize_is
from .matching import vclp_half_integral
from .oracle import oracle_answer, validate_witness
from .solver import solve_ds, solve_tds

# The instance each problem's trials draw; bipartite DS draws BW-TDS instead.
_TAGS = {
    "is": Problem.IS,
    "ds": Problem.DS,
    "tds": Problem.TDS,
    "bwtds": Problem.BW_TDS,
    "im": Problem.IM,
    "irs": Problem.IRS,
}
PROBLEMS = tuple(_TAGS)


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
        g = _random_bipartite(n, p, rng)
    else:
        g = er_graph(n, p, seed=rng.randrange(2 ** 32))
    k = rng.randrange(k_max + 1)
    # Only DS and IM have bipartite kernels, so only their draws carry the
    # bipartition; bipartite DS is the r = 1 colored problem.
    has_parts = bipartite and problem in ("ds", "im")
    tag = Problem.BW_TDS if has_parts and problem == "ds" else _TAGS[problem]
    coloring = None
    if tag is Problem.BW_TDS:
        coloring = Coloring(frozenset(v for v in g.vertex_ids if rng.random() < 0.5))
    return Instance(
        problem=tag,
        graph=g,
        k=k,
        r=(1 if problem == "ds" else r) if tag in (Problem.TDS, Problem.BW_TDS) else None,
        coloring=coloring,
        bipartition=Bipartition(g.two_color() or frozenset()) if has_parts else None,
    )


def _random_bipartite(n: int, p: float, rng: random.Random) -> Graph:
    left = n // 2
    edges = [
        (u, v)
        for u in range(left)
        for v in range(left, n)
        if rng.random() < p
    ]
    return Graph(range(n), edges)


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
        report.results.append(
            TrialResult(
                index=idx,
                n=inst.graph.n,
                m=inst.graph.m,
                k=inst.k,
                c=compute_closure(inst.graph).c,
                agreed=agreed,
                detail=detail,
            )
        )
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
    for name, base, outcome in outcomes:
        ok, why = _outcome_agrees(name, inst, base, outcome, expected, c)
        if not ok:
            return False, f"{name}: {why}"
    return True, ""


def kernelize(inst: Instance, c: int | None, mode: str = "delta") -> KernelOutcome:
    """Run the paper's kernel for ``inst``, picked from the instance alone.

    IS, DS, IM and IRS each go to their own kernel, and TDS to the BW-TDS
    kernel on its all-black twin. BW-TDS with a bipartition and r = 1 goes to
    the bipartite BW-DS kernel, any other BW-TDS to the general one. IM with a
    bipartition goes to the bipartite IM kernel in ``mode``; ``c`` may be None
    only there, in a mode that does not read it.
    """
    return _kernel(inst, c, mode)[1]


def _kernel(inst: Instance, c: int | None, mode: str = "delta") -> tuple[str, KernelOutcome]:
    """The name of the kernel ``kernelize`` picks for ``inst``, as verify
    reports it, and its outcome."""
    problem, parts = inst.problem, inst.bipartition
    if problem is Problem.IS:
        return "kernelize_is", kernelize_is(inst, c)
    if problem is Problem.DS:
        return "kernelize_ds", kernelize_ds(inst, c)
    if problem is Problem.TDS:
        return "kernelize_bwtds", kernelize_bwtds(all_black_twin(inst), c)
    if problem is Problem.BW_TDS and parts is not None and inst.r == 1:
        return "kernelize_bipartite_bwds", kernelize_bipartite_bwds(inst, parts, c)
    if problem is Problem.BW_TDS:
        return "kernelize_bwtds", kernelize_bwtds(inst, c)
    if problem is Problem.IM and parts is not None:
        return f"kernelize_im_bipartite[{mode}]", kernelize_im_bipartite(inst, parts, mode, c)
    if problem is Problem.IM:
        return "kernelize_im", kernelize_im(inst, c)
    return "kernelize_irs", kernelize_irs(inst, c)


def _run_pipelines(inst: Instance, c: int) -> list[tuple[str, Instance, KernelOutcome]]:
    """The kernel ``kernelize`` picks, then the solver of DS and TDS, or the
    closure mode and the general kernel of bipartite IM; each run with its
    name and the instance its trace replays from."""
    name, outcome = _kernel(inst, c)
    base = all_black_twin(inst) if inst.problem in (Problem.DS, Problem.TDS) else inst
    out = [(name, base, outcome)]
    if inst.problem is Problem.DS:
        out.append(("solve_ds", inst, Decided(inst, (), *solve_ds(inst.graph, c, inst.k))))
    elif inst.problem is Problem.TDS:
        out.append(("solve_tds", inst, Decided(inst, (), *solve_tds(inst.graph, c, inst.r, inst.k))))
    elif inst.problem is Problem.IM and inst.bipartition is not None:
        name, outcome = _kernel(inst, c, "closure")
        out.append((name, inst, outcome))
        out.append(("kernelize_im", inst, kernelize_im(inst, c)))
    return out


def _outcome_agrees(
    name: str, inst: Instance, base: Instance, outcome: KernelOutcome, expected: bool, c: int
) -> tuple[bool, str]:
    """Whether the ``outcome`` of the pipeline ``name`` on the drawn ``inst``
    agrees with the oracle's ``expected`` answer; ``base`` is the instance
    its trace replays from, decided or not. A witness is validated against
    whichever of the two has its problem: the DS kernel runs on the
    all-black twin but returns a DS witness.

    A reduction is decided again only when its trace has records. Once
    ``_closure_preserved`` accepts an empty trace, the reduction equals
    ``base``: ``inst`` itself, or for DS and TDS its all-black twin, which
    the oracle answers as it answers ``inst`` (with every vertex black,
    ``oracle_tds`` reads the twin's coloring as no coloring). A second
    decision would compare ``expected`` with itself."""
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
    return _size_bound_holds(name, reduced, c)


def _size_bound_holds(name: str, reduced: Instance, c: int) -> tuple[bool, str]:
    """The size bound of the kernel ``name`` on its output ``reduced``, each
    taken from that kernel's module. The bipartite IM kernels only promise
    to sit below their size thresholds, so they have none."""
    n, k = reduced.graph.n, reduced.k
    if name == "kernelize_is" and n > independent_set_kernel_bound(c, k):
        return False, f"IS kernel has {n} > c*k^2 vertices"
    if name == "kernelize_bipartite_bwds" and n > (bound := bipartite_kernel_bound(c, k)):
        return False, f"bipartite kernel has {n} > {bound} vertices"
    if reduced.problem is Problem.BW_TDS and rr_black_count(reduced, c):
        return False, "black-count bound violated"
    if name == "kernelize_irs":
        # the kernel decides every instance at k = 0, where the bound is undefined
        total = irs_thresholds(c, k)[2] if k else 0
        if n >= total:
            return False, f"IRS kernel has {n} >= {total} vertices"
    if name == "kernelize_im":
        violation = partition_bound_violation(c, k, vclp_half_integral(reduced.graph))
        if violation is not None:
            return False, violation
    return True, ""


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

    def still_failing(candidate: Instance) -> bool:
        agreed, _ = check_instance(problem, candidate, bipartite)
        return not agreed

    changed = True
    while changed:
        changed = False
        for v in list(inst.graph.vertex_ids):
            candidate = replay(inst, RuleRecord(rule="shrink", vertices_removed=(v,)))
            if still_failing(candidate):
                inst = candidate
                changed = True
                break
    return inst
