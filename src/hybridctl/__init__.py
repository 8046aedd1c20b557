"""Hybrid-controlled-trial estimators and their Monte Carlo harness.

Simulates randomized trials whose control arm is augmented with
historical control pools, applies frequentist (propensity matching and
weighting, mixed models, stratified power priors) and Bayesian
(meta-analytic predictive priors) borrowing estimators, and summarizes
operating characteristics across replicates.
"""

from .borrow import (
    ArmSummaries,
    arm_summaries,
    build_strata,
    credible_interval,
    effect_posterior,
    estimate_pss_cl,
    estimate_pss_pp,
    map_estimates,
    map_prior,
    posterior_update,
    power_prior_update,
    robustify,
)
from .harness import (
    Cell,
    ConfigError,
    RunConfig,
    ScenarioConfig,
    ScenarioResult,
    load_config,
    run_replicate,
    run_scenario,
)
from .metrics import EffectEstimate, SummaryRow, essr, summarize
from .mixed import LmmFit, estimate_mm, fit_lmm
from .propensity import (
    MatchSet,
    PsFit,
    estimate_ps,
    estimate_psm,
    estimate_psw,
    ipw_weights,
    match_nearest,
    stratify,
)
from .regress import (
    ArmContrast,
    SeparationError,
    SingularDesignError,
    arm_contrast,
    fit_logistic,
)
from .trialdata import (
    GenCoefficients,
    PRESETS,
    SubjectGroup,
    TrialDataset,
    build_replicate,
    load_subjects_csv,
    preset,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GenCoefficients",
    "PRESETS",
    "SubjectGroup",
    "TrialDataset",
    "build_replicate",
    "load_subjects_csv",
    "preset",
    "ArmContrast",
    "SeparationError",
    "SingularDesignError",
    "arm_contrast",
    "fit_logistic",
    "PsFit",
    "MatchSet",
    "estimate_ps",
    "match_nearest",
    "ipw_weights",
    "stratify",
    "estimate_psm",
    "estimate_psw",
    "map_prior",
    "robustify",
    "posterior_update",
    "effect_posterior",
    "credible_interval",
    "power_prior_update",
    "ArmSummaries",
    "arm_summaries",
    "map_estimates",
    "build_strata",
    "estimate_pss_pp",
    "estimate_pss_cl",
    "LmmFit",
    "fit_lmm",
    "estimate_mm",
    "EffectEstimate",
    "SummaryRow",
    "essr",
    "summarize",
    "Cell",
    "ConfigError",
    "RunConfig",
    "ScenarioConfig",
    "ScenarioResult",
    "load_config",
    "run_replicate",
    "run_scenario",
]
