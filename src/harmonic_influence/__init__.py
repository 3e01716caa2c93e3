"""Harmonic influence of social-network nodes: exact computation via
grounded Laplacian solves and a distributed message passing
approximation, with the digraph machinery to verify convergence."""

from .analysis import (
    GeneralizedDynamicsState,
    check_convergence_hypothesis,
    initial_generalized_state,
    run_generalized,
    spearman,
    spectral_radius_diagnostic,
)
from .electrical import (
    ConductanceNetwork,
    InfluenceWeights,
    build_weights,
    exact_message_potentials,
    grounded_laplacian_solve,
    harmonic_influence_exact,
    uniform_network,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    GraphFile,
    GraphRunReport,
    generate_graphs,
    load_graph,
    run_experiment,
    save_graph,
    save_report,
)
from .graphs import (
    CondensationDigraph,
    Digraph,
    MessageDigraph,
    UndirectedGraph,
    add_extra_edges,
    condensation,
    diameter,
    erdos_renyi,
    is_connected,
    message_digraph,
    spanning_tree,
)
from .mpa import (
    MessageState,
    MpaResult,
    error_trace,
    initial_messages,
    run_mpa,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
