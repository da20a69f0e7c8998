"""Sensor field reconstruction from partial uploads.

GP regression over sensor locations, active upload ordering (max-variance,
random, virtual-target, and application-weighted policies), and a
multichannel ALOHA uploading simulator with prediction feedback and
dual-ascent load control.
"""

from .aloha import (
    AlohaConfig,
    AlohaRound,
    DualState,
    contend,
    dual_ascent_step,
    equal_upload_probability,
    expected_throughput,
    per_sensor_success_probability,
    run_aloha,
    run_aloha_batches,
    sleep_adjusted_q,
    sse_lower_bound,
    upload_probabilities,
)
from .apps import (
    LinearApplication,
    application_mse,
    application_output,
    build_candidate_set,
    estimate_covariance,
    select_for_application,
    select_max_value_app,
    select_weighted_sum,
    uniform_mean_application,
)
from .das import (
    DasRound,
    DasState,
    FieldEstimate,
    estimate,
    run_das,
    run_das_batches,
    select_max_variance,
    select_random,
    select_virtual_target,
)
from .experiments import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    RunResult,
    config_from_mapping,
    emit_results,
    load_config_file,
    run_experiment,
)
from .fields import (
    FieldSpec,
    SensorField,
    bump_2d_mean,
    gen_1d,
    gen_2d,
    gen_random_sinusoid,
    load_csv,
    sample_sinusoid,
    sinusoid_mean,
    smooth_1d_mean,
)
from .gp import (
    GprPosterior,
    IncrementalConditioner,
    KernelParams,
    gram,
    kernel,
    pointwise_conditional,
    posterior,
    posterior_mean_and_variance,
)

__version__ = "0.1.0"
