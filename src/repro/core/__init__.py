"""The paper's contribution: cobra walks, Walt, biased walks, bounds."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, (
    (".biased", (
        "BiasedWalk",
        "MetropolisChain",
        "epsilon_biased_transition",
        "exact_hitting_times",
        "exact_return_time",
        "inverse_degree_biased_transition",
        "metropolis_chain_lemma16",
        "return_time_bound_cor17",
        "sigma_hat_exact",
        "sigma_hat_lemma18_bound",
        "stationary_lower_bound_thm13",
        "toward_target_controller",
    )),
    (".bounds", (
        "cor9_expander_cover",
        "harmonic_number",
        "matthews_cover_bound",
        "push_gossip_cover",
        "rw_lollipop_cover",
        "rw_regular_cover",
        "rw_worst_case_cover",
        "star_cobra_lower_bound",
        "thm3_grid_cover",
        "thm8_conductance_cover",
        "thm15_regular_hitting",
        "thm20_general_cover",
        "thm20_general_hitting",
        "walt_epoch_count",
    )),
    (".cobra", ("CobraWalk", "cobra_step", "cobra_step_reference")),
    (".coupling", (
        "DominanceReport",
        "stochastic_dominance_fraction",
        "walt_dominates_cobra_report",
    )),
    (".grid_walk", (
        "PessimisticGridWalk",
        "grid_chain_hitting_time",
        "lemma4_drift_bounds",
    )),
    (".hitting", ("max_hitting_time_estimate",)),
    (".matthews", ("MatthewsCheck", "matthews_check")),
    (".walt", (
        "WaltProcess",
        "walt_start_positions",
        "walt_step_positions",
    )),
))
