"""Kernelization pipelines, Ramsey-type extractors, and exact solvers for
graph problems parameterized by solution size and closure."""

from .closure import ClosureReport, compute_closure, is_c_closed
from .cliques import cliques_of_size, maximal_cliques
from .errors import (
    BipartitionError,
    ExtractionError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
)
from .generators import closure_repair, disjoint_cliques, er_graph, generate, theta_graph
from .graph import Graph, path_graph
from .graphio import load_graph, parse_graph, save_graph, serialize_graph
from .instances import (
    Bipartition,
    Coloring,
    Decided,
    Instance,
    KernelOutcome,
    Problem,
    Reduced,
    RuleRecord,
    Witness,
    lift,
    replay,
    replay_trace,
)
from .kernel_ds import (
    HittingSetInstance,
    hitting_set_to_ds,
    kernelize_bipartite_bwds,
    kernelize_bwtds,
    kernelize_ds,
    uncolor_gadget,
)
from .kernel_im import kernelize_im, kernelize_im_bipartite
from .kernel_irs import extract_irs_witness, irs_thresholds, kernelize_irs
from .kernel_is import kernelize_is
from .matching import (
    Matching,
    VclpPartition,
    bipartite_matching_with_cover,
    crown_from_vclp,
    is_two_maximal,
    max_matching_general,
    two_maximal_independent_set,
    vclp_half_integral,
)
from .oracle import (
    is_induced_matching,
    is_irredundant,
    oracle_answer,
    oracle_ds,
    oracle_tds,
    validate_witness,
)
from .ramsey import (
    Clique,
    IndependentSet,
    ceil_sqrt,
    clique_or_im,
    clique_or_im_saturating,
    clique_or_independent_set,
    dense_bipartite_threshold,
    im_bipartite_from_matching,
    im_dense_bipartite,
    im_from_bounded_degree,
    im_from_high_degree,
    matching_threshold,
    ramsey_threshold,
    saturated_threshold,
    unrestricted_threshold,
)
from .solver import solve_ds, solve_tds
from .verify import run_verify

__version__ = "0.1.0"
