"""Unbiased expectation and policy-gradient estimators over finite discrete
distributions, built on sampling without replacement, with exact enumeration
oracles and a toy benchmark harness."""

from .distributions import (
    CategoricalDist,
    FactorizedDist,
    Objective,
    as_objective,
    dist_from_dict,
    from_logits,
    from_probs,
    grad_log_prob,
    restricted_log_prob,
)
from .errors import SworgradError
from .estimators import (
    GradEstimate,
    det_sum_and_sample,
    fuspg,
    importance_weighted,
    iwpg,
    posterior_weights,
    reinforce_sampled_baseline,
    reinforce_wr,
    risk_grad,
    stoch_sum_and_sample,
    unordered_set_estimate,
    uspg,
    uspg_baseline,
    uspg_baseline_control_variate,
)
from .sampling import (
    OrderedSample,
    Rng,
    Threshold,
    UnorderedSample,
    gumbel_perturb,
    gumbel_top_k,
    sequential_swor,
    stochastic_beam_search,
)
from .setprob import LooRatios, loo_ratios, p_set_exact, p_set_integral, p_set_naive

__version__ = "0.1.0"

__all__ = [
    "CategoricalDist",
    "FactorizedDist",
    "GradEstimate",
    "LooRatios",
    "Objective",
    "OrderedSample",
    "Rng",
    "SworgradError",
    "Threshold",
    "UnorderedSample",
    "as_objective",
    "det_sum_and_sample",
    "dist_from_dict",
    "from_logits",
    "from_probs",
    "fuspg",
    "grad_log_prob",
    "gumbel_perturb",
    "gumbel_top_k",
    "importance_weighted",
    "iwpg",
    "loo_ratios",
    "p_set_exact",
    "p_set_integral",
    "p_set_naive",
    "posterior_weights",
    "reinforce_sampled_baseline",
    "reinforce_wr",
    "restricted_log_prob",
    "risk_grad",
    "sequential_swor",
    "stoch_sum_and_sample",
    "stochastic_beam_search",
    "unordered_set_estimate",
    "uspg",
    "uspg_baseline",
    "uspg_baseline_control_variate",
    "__version__",
]
