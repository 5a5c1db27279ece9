"""Spectral toolkit: matrices, gaps, conductance, mixing, directed Cheeger."""

from .conductance import (
    ConductanceEstimate,
    cheeger_interval,
    conductance_estimate,
    conductance_exact,
    conductance_sweep,
    cut_size,
    set_conductance,
)
from .directed import (
    chung_convergence_steps,
    chung_lambda_bounds,
    circulation,
    circulation_balance_residual,
    directed_cheeger_exact,
    directed_laplacian_lambda1,
    walt_pair_cheeger_lower_bound,
)
from .gap import (
    fiedler_vector,
    lambda2_normalized_laplacian,
    relaxation_time,
    spectral_gap,
)
from .matrices import (
    adjacency_matrix,
    combinatorial_laplacian,
    normalized_adjacency,
    normalized_laplacian,
    transition_matrix,
)
from .mixing import (
    mixing_time_tv,
    pointwise_mixing_bound_steps,
    theorem8_epoch_length,
)
from .stationary import (
    chi_square_distance,
    evolve,
    stationary_distribution,
    stationary_of_chain,
    total_variation,
)

__all__ = [
    "ConductanceEstimate",
    "cheeger_interval",
    "conductance_estimate",
    "conductance_exact",
    "conductance_sweep",
    "cut_size",
    "set_conductance",
    "chung_convergence_steps",
    "chung_lambda_bounds",
    "circulation",
    "circulation_balance_residual",
    "directed_cheeger_exact",
    "directed_laplacian_lambda1",
    "walt_pair_cheeger_lower_bound",
    "fiedler_vector",
    "lambda2_normalized_laplacian",
    "relaxation_time",
    "spectral_gap",
    "adjacency_matrix",
    "combinatorial_laplacian",
    "normalized_adjacency",
    "normalized_laplacian",
    "transition_matrix",
    "mixing_time_tv",
    "pointwise_mixing_bound_steps",
    "theorem8_epoch_length",
    "chi_square_distance",
    "evolve",
    "stationary_distribution",
    "stationary_of_chain",
    "total_variation",
]
