"""One table of problems: what each name that verify and the CLI take means.

An entry, keyed by a name and a bipartite flag, holds the ``Problem`` of its
instances and the r it fixes, whether its traces replay from the all-black
twin, its kernels in verify's order under the names verify reports, each
with its size bound, and the solver that runs beside them. It reaches them
through this module's names at call time, so a wrapper or patch bound over
one of those names here sees every call."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial

from .graph import Graph
from .instances import COLORED, TAKES_R, Bipartition, Coloring, Decided, Instance, KernelOutcome, Problem
from .kernel_ds import (
    all_black_twin,
    bipartite_kernel_bound,
    kernelize_bipartite_bwds,
    kernelize_bwtds,
    kernelize_ds,
    rr_black_count,
)
from .kernel_im import BIPARTITE_MODES, kernelize_im, kernelize_im_bipartite, partition_bound_violation
from .kernel_irs import irs_thresholds, kernelize_irs
from .kernel_is import independent_set_kernel_bound, kernelize_is
from .matching import vclp_half_integral
from .solver import solve_ds, solve_tds


@dataclass(frozen=True)
class Kernel:
    """A named run: ``run(inst, c)`` returns its outcome, and ``bound(reduced,
    c)`` names the size bound a reduction it returned breaks, or is None; the
    bipartite IM kernels, which promise only to sit below their thresholds,
    have none. Those run in ``mode``, which may not read c."""

    name: str
    run: Callable[[Instance, int | None], KernelOutcome]
    bound: Callable[[Instance, int], str | None] = lambda reduced, c: None
    mode: str | None = None
    reads_c: bool = True


@dataclass(frozen=True)
class Pipeline:
    """An entry of the table. ``cli`` is the name ``cclose kernelize`` gives
    it; that command reads the file's coloring, so its ``tds`` is BW-TDS."""

    name: str
    problem: Problem
    kernels: tuple[Kernel, ...]
    solver: Kernel | None = None
    twin: bool = False
    r: int | None = None
    bipartite: bool = False
    cli: str | None = None

    def instance(
        self, g: Graph, k: int, r: int, coloring: Coloring | None = None, parts: Bipartition | None = None
    ) -> Instance:
        """An instance of this entry on ``g``: the entry's r or ``r``, and
        ``coloring`` or all black, where its problem takes them; on a
        bipartite entry, ``parts`` or a two-coloring, which ``g`` must have."""
        if self.bipartite and parts is None:
            if (left := g.two_color()) is None:
                raise ValueError("graph is not bipartite")
            parts = Bipartition(left)
        p = self.problem
        coloring = (coloring or Coloring()) if p in COLORED else None
        r = (self.r or r) if p in TAKES_R else None
        return Instance(p, g, k, r, coloring, parts if self.bipartite else None)

    def kernel(self, mode: str = "delta") -> Kernel:
        """The kernel ``verify.kernelize`` runs: the first, or the one in
        ``mode`` where the kernels have modes."""
        moded = {k.mode: k for k in self.kernels if k.mode}
        if moded and mode not in moded:
            raise ValueError(f"unknown mode {mode!r} (expected {' or '.join(map(repr, moded))})")
        return moded.get(mode, self.kernels[0])


def _black_count(reduced: Instance, c: int) -> str | None:
    return "black-count bound violated" if rr_black_count(reduced, c) else None


def _bwds_bound(reduced: Instance, c: int) -> str | None:
    n, bound = reduced.graph.n, bipartite_kernel_bound(c, reduced.k)
    return f"bipartite kernel has {n} > {bound} vertices" if n > bound else _black_count(reduced, c)


def _is_bound(reduced: Instance, c: int) -> str | None:
    n, bound = reduced.graph.n, independent_set_kernel_bound(c, reduced.k)
    return f"IS kernel has {n} > c*k^2 vertices" if n > bound else None


def _im_bound(reduced: Instance, c: int) -> str | None:
    return partition_bound_violation(c, reduced.k, vclp_half_integral(reduced.graph))


def _irs_bound(reduced: Instance, c: int) -> str | None:
    # the kernel decides every instance at k = 0, where the bound is undefined
    n, total = reduced.graph.n, irs_thresholds(c, reduced.k)[2] if reduced.k else 0
    return f"IRS kernel has {n} >= {total} vertices" if n >= total else None


def _im_bipartite(mode: str, inst: Instance, c: int | None) -> KernelOutcome:
    return kernelize_im_bipartite(inst, inst.bipartition, mode, c)


_IS = Kernel("kernelize_is", lambda i, c: kernelize_is(i, c), _is_bound)
_DS = Kernel("kernelize_ds", lambda i, c: kernelize_ds(i, c))
_BWDS = Kernel(
    "kernelize_bipartite_bwds", lambda i, c: kernelize_bipartite_bwds(i, i.bipartition, c), _bwds_bound
)
_BWTDS = Kernel("kernelize_bwtds", lambda i, c: kernelize_bwtds(i, c), _black_count)
_TWIN_BWTDS = replace(_BWTDS, run=lambda i, c: kernelize_bwtds(all_black_twin(i), c))
_IM = Kernel("kernelize_im", lambda i, c: kernelize_im(i, c), _im_bound)
_IM_MODES = tuple(
    Kernel(f"kernelize_im_bipartite[{m}]", partial(_im_bipartite, m), mode=m, reads_c=reads_c)
    for m, reads_c in BIPARTITE_MODES.items()
)
_IRS = Kernel("kernelize_irs", lambda i, c: kernelize_irs(i, c), _irs_bound)
_SOLVE_DS = Kernel("solve_ds", lambda i, c: Decided(i, (), *solve_ds(i.graph, c, i.k)))
_SOLVE_TDS = Kernel("solve_tds", lambda i, c: Decided(i, (), *solve_tds(i.graph, c, i.r, i.k)))

# Each problem's bipartite entry follows its general one.
_TABLE = (
    Pipeline("is", Problem.IS, (_IS,), cli="is"),
    Pipeline("ds", Problem.DS, (_DS,), _SOLVE_DS, twin=True, cli="ds"),
    Pipeline("tds", Problem.TDS, (_TWIN_BWTDS,), _SOLVE_TDS, twin=True),
    Pipeline("bwtds", Problem.BW_TDS, (_BWTDS,), cli="tds"),
    Pipeline("ds", Problem.BW_TDS, (_BWDS,), r=1, bipartite=True, cli="ds"),
    Pipeline("im", Problem.IM, (_IM,), cli="im"),
    Pipeline("im", Problem.IM, (*_IM_MODES, _IM), bipartite=True, cli="im"),
    Pipeline("irs", Problem.IRS, (_IRS,), cli="irs"),
)

# The entries under the names verify, ``cclose kernelize`` and ``cclose
# solve`` take, keyed by (name, bipartite).
PIPELINES = {(p.name, p.bipartite): p for p in _TABLE}
KERNELIZE = {(p.cli, p.bipartite): p for p in _TABLE if p.cli}
SOLVE = {(p.name, p.bipartite): p for p in _TABLE if p.solver}


def names(table: dict[tuple[str, bool], Pipeline]) -> list[str]:
    """The names ``table`` takes, in table order."""
    return list(dict.fromkeys(name for name, _ in table))


def lookup(table: dict[tuple[str, bool], Pipeline], name: str, bipartite: bool = False) -> Pipeline:
    """``name``'s entry in ``table``: its bipartite one if asked for and present, else its general one."""
    return table.get((name, bipartite)) or table[name, False]


def pipeline_of(inst: Instance) -> Pipeline:
    """The entry ``inst`` has the shape of: the last of its problem's that is
    general, or bipartite with the sides and r ``inst`` carries."""
    sided = inst.bipartition is not None
    shapes = (p for p in _TABLE if p.problem is inst.problem)
    return [p for p in shapes if not p.bipartite or sided and p.r in (None, inst.r)][-1]
