"""Sensor field reconstruction from partial uploads.

GP regression over sensor locations, active upload ordering (max-variance,
random, virtual-target, and application-weighted policies), and a
multichannel ALOHA uploading simulator with prediction feedback and
dual-ascent load control.
"""

from .aloha import (
    AlohaConfig,
    dual_ascent_step,
    equal_upload_probability,
    expected_throughput,
    per_sensor_success_probability,
    run_aloha_batches,
    sleep_adjusted_q,
    sse_lower_bound,
    upload_probabilities,
)
from .das import FieldEstimate, run_das_batches
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
    posterior,
)

__version__ = "0.1.0"
