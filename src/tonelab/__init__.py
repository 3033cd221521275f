"""t-tone graph coloring toolkit.

A t-tone coloring gives every vertex a set of t distinct colors so that
vertices at distance d share at most d-1 colors; the t-tone chromatic
number is the smallest palette admitting one. This package bundles an
exact branch-and-bound solver with certificates, a verifier, closed-form
bound calculators, the constructive colorings behind the small-case
tables, Latin-square machinery for squared cliques, and a CLI.
"""

from .bounds import (
    BoundReport,
    degree_lower_bound,
    multipartite_lower,
    pairsum_bound,
    path_formula,
)
from .coloring import (
    ToneColoring,
    VerificationReport,
    colors_used,
    format_coloring,
    load_coloring,
    parse_coloring,
    save_coloring,
    verify,
)
from .constructions import (
    greedy_large_t_coloring,
    mols_coloring_knn,
    multipartite_coloring,
    star_coloring,
    tree_scheme_coloring,
    two_tone_via_decomposition,
)
from .graphs import (
    Graph,
    build_complete,
    build_complete_multipartite,
    build_gnp,
    build_path,
    build_star,
    build_truncated_regular_tree,
    cartesian_power,
    cartesian_product,
    distance_ball,
    distance_levels,
    format_graph,
    load_graph,
    parse_graph,
    save_graph,
)
from .mols import (
    MolsFamily,
    macneish_product,
    prime_mols,
)
from .solver import (
    FeasibilityResult,
    SearchBudget,
    SolveOutcome,
    feasible,
    tau_exact,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
