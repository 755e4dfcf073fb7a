"""Graph energy toolkit.

Builds the two regular graph families whose energy ratio E/e0 is driven
toward 0 (the ring of cliques) and toward 1 (Paley graphs), computes graph
energy with a from-scratch threshold-cyclic Jacobi eigensolver, evaluates
the Koolen-Moulton bound e0 = k + sqrt(k(n-1)(n-k)), and exposes the
edge-deletion inequality and both families' closed forms as checkable
operations.
"""

from .bounds import (
    EdgeDeletionCheck,
    EnergyReport,
    RatioRow,
    bounds_suite,
    e0,
    edge_deletion_check,
    energy_report,
    lemma_suite,
    paley_energy_closed,
    paley_ratio_closed,
    paley_ratio_lower,
    ratio_table,
    ring_clique_energy_closed,
    ring_clique_energy_upper,
    ring_clique_ratio_upper,
)
from .finitefield import is_prime
from .graphcore import (
    Graph,
    check_paley_parameter,
    complete,
    cycle,
    delete_edge,
    empty,
    format_edge_list,
    from_edge_list,
    paley,
    paley_primes,
    parse_edge_list,
    permute,
    random_graph,
    read_edge_list,
    ring_of_cliques,
    splitmix64,
    write_edge_list,
)
from .spectral import (
    ConvergenceError,
    SuiteResult,
    closed_forms_suite,
    eigenvalues,
    energy,
    jacobi_eigenvalues,
    paley_spectrum_closed,
    ring_clique_spectrum_closed,
    trace_suite,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "EdgeDeletionCheck",
    "EnergyReport",
    "Graph",
    "RatioRow",
    "SuiteResult",
    "bounds_suite",
    "check_paley_parameter",
    "closed_forms_suite",
    "complete",
    "cycle",
    "delete_edge",
    "e0",
    "edge_deletion_check",
    "eigenvalues",
    "empty",
    "energy",
    "energy_report",
    "format_edge_list",
    "from_edge_list",
    "is_prime",
    "jacobi_eigenvalues",
    "lemma_suite",
    "paley",
    "paley_energy_closed",
    "paley_primes",
    "paley_ratio_closed",
    "paley_ratio_lower",
    "paley_spectrum_closed",
    "parse_edge_list",
    "permute",
    "random_graph",
    "ratio_table",
    "read_edge_list",
    "ring_clique_energy_closed",
    "ring_clique_energy_upper",
    "ring_clique_ratio_upper",
    "ring_clique_spectrum_closed",
    "ring_of_cliques",
    "splitmix64",
    "trace_suite",
    "write_edge_list",
]
