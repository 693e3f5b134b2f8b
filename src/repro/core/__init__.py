"""Differential fairness: the paper's primary contribution.

The measurement pipeline is:

1. obtain group-conditional outcome probabilities ``P(M(x) = y | s, θ)`` —
   empirically from counts (:func:`dataset_edf`), analytically
   (:func:`gaussian_threshold_epsilon`), by integration/Monte Carlo over a
   mechanism (:func:`mechanism_epsilon`), or from a posterior
   (:mod:`repro.core.bayesian`);
2. take the max absolute log probability ratio over outcomes and group
   pairs (:func:`epsilon_from_probabilities`);
3. interpret it: subset guarantees (:func:`subset_sweep`), privacy bounds
   (:mod:`repro.core.privacy`), qualitative regimes
   (:func:`interpret_epsilon`), and bias amplification
   (:func:`bias_amplification`).
"""

from repro.core.amplification import BiasAmplification, bias_amplification
from repro.core.analytic import (
    WorkedExample,
    gaussian_threshold_epsilon,
    paper_worked_example,
)
from repro.core.batch import (
    epsilon_batch,
    per_outcome_epsilon_batch,
    witness_batch,
)
from repro.core.bayesian import (
    PosteriorEpsilon,
    epsilon_over_sampled_theta,
    posterior_epsilon,
    posterior_epsilon_samples,
    summarize_epsilon_samples,
)
from repro.core.conditional import ConditionalEpsilon, conditional_edf
from repro.core.empirical import dataset_edf, edf_from_contingency
from repro.core.epsilon import epsilon_from_probabilities, pairwise_log_ratio_matrix
from repro.core.estimators import (
    DirichletEstimator,
    MLEEstimator,
    ProbabilityEstimator,
    as_estimator,
)
from repro.core.interpretation import (
    HIGH_FAIRNESS_THRESHOLD,
    RANDOMIZED_RESPONSE_EPSILON,
    FairnessRegime,
    Interpretation,
    interpret_epsilon,
    utility_factor,
)
from repro.core.mechanism import group_outcome_probabilities, mechanism_epsilon
from repro.core.metrics import (
    FairnessMetric,
    get_metric,
    metric_values,
    register_metric,
    registered_metrics,
    unregister_metric,
)
from repro.core.model_based import group_design_matrix, model_based_edf
from repro.core.privacy import (
    UtilityDisparity,
    expected_group_utilities,
    posterior_group_probabilities,
    posterior_odds_interval,
    privacy_violations,
    utility_disparity,
    utility_disparity_bound,
)
from repro.core.result import EpsilonResult, Witness
from repro.core.streaming import StreamingContingency, canonical_level_order
from repro.core.subsets import (
    SubsetSweep,
    all_nonempty_subsets,
    subset_sweep,
    theorem_subset_bound,
)
from repro.core.sweep import (
    MetricSubsetSweep,
    PosteriorSubsetSweep,
    marginal_count_lattice,
    metric_subset_sweep,
    metric_sweep_results,
    posterior_subset_sweep,
    sweep_results,
)

__all__ = [
    "BiasAmplification",
    "ConditionalEpsilon",
    "DirichletEstimator",
    "EpsilonResult",
    "FairnessMetric",
    "FairnessRegime",
    "HIGH_FAIRNESS_THRESHOLD",
    "Interpretation",
    "MLEEstimator",
    "MetricSubsetSweep",
    "PosteriorEpsilon",
    "PosteriorSubsetSweep",
    "ProbabilityEstimator",
    "RANDOMIZED_RESPONSE_EPSILON",
    "StreamingContingency",
    "SubsetSweep",
    "UtilityDisparity",
    "Witness",
    "WorkedExample",
    "all_nonempty_subsets",
    "as_estimator",
    "bias_amplification",
    "canonical_level_order",
    "conditional_edf",
    "dataset_edf",
    "edf_from_contingency",
    "epsilon_batch",
    "epsilon_from_probabilities",
    "epsilon_over_sampled_theta",
    "expected_group_utilities",
    "gaussian_threshold_epsilon",
    "get_metric",
    "group_design_matrix",
    "group_outcome_probabilities",
    "interpret_epsilon",
    "marginal_count_lattice",
    "mechanism_epsilon",
    "metric_subset_sweep",
    "metric_sweep_results",
    "metric_values",
    "model_based_edf",
    "pairwise_log_ratio_matrix",
    "paper_worked_example",
    "per_outcome_epsilon_batch",
    "posterior_epsilon",
    "posterior_epsilon_samples",
    "posterior_group_probabilities",
    "posterior_odds_interval",
    "posterior_subset_sweep",
    "privacy_violations",
    "register_metric",
    "registered_metrics",
    "subset_sweep",
    "summarize_epsilon_samples",
    "sweep_results",
    "theorem_subset_bound",
    "unregister_metric",
    "utility_disparity",
    "utility_disparity_bound",
    "utility_factor",
    "witness_batch",
]
