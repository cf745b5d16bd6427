"""Equipment deterioration analytics: hierarchical hazard random effects
and group-stratified linear non-Gaussian causal discovery."""

from .data import (
    CovariateSeries,
    Dataset,
    Inspections,
    build_transitions,
    ingest_inspections,
    ingest_timeseries,
)
from .diagnostics import ess, extract_random_effects, hdi, split_rhat
from .features import (
    DEFAULT_ACTIVE_FEATURES,
    FEATURE_NAMES,
    FeatureMatrix,
    extract_features,
    window_features,
)
from .grouping import Group, GroupDataset, group_datasets, sign_groups
from .hazard import ParamLayout, PriorSpec, grad_log_posterior, make_logp_and_grad
from .lingam import (
    CausalModel,
    IcaResult,
    LingamConfig,
    StandardizedData,
    bootstrap_cis,
    causal_order,
    discover,
    estimate_effects,
    fast_ica,
    standardize,
)
from .nuts import PosteriorSamples, SamplerConfig, sample
from .synth import (
    GroundTruth,
    SynthConfig,
    generate_hazard_data,
    generate_lingam_scenario,
    generate_sem_data,
    generate_two_group_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "CovariateSeries", "Dataset", "Inspections",
    "build_transitions", "ingest_inspections", "ingest_timeseries",
    "ess", "extract_random_effects", "hdi", "split_rhat",
    "DEFAULT_ACTIVE_FEATURES", "FEATURE_NAMES", "FeatureMatrix",
    "extract_features", "window_features",
    "Group", "GroupDataset", "group_datasets", "sign_groups",
    "ParamLayout", "PriorSpec", "grad_log_posterior", "make_logp_and_grad",
    "CausalModel", "IcaResult", "LingamConfig", "StandardizedData",
    "bootstrap_cis", "causal_order", "discover", "estimate_effects",
    "fast_ica", "standardize",
    "PosteriorSamples", "SamplerConfig", "sample",
    "GroundTruth", "SynthConfig", "generate_hazard_data",
    "generate_lingam_scenario", "generate_sem_data", "generate_two_group_scenario",
]
