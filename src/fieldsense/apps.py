"""Application-driven sensor selection.

Downstream consumers of the reconstructed field are modeled as linear
functionals (a weight vector per application) plus one nonlinear special
case, the field maximum.  Each application can nominate the upload that most
reduces its own output error; several applications together yield a
candidate set of up to Q sensors for a contention round.
"""

from dataclasses import dataclass

import numpy as np

from .das import (
    DasState,
    FieldEstimate,
    _app_rows,
    _conditioner,
    _min_residual_pick,
    quantize,
)
from .fields import SensorField
from .gp import VARIANCE_CLAMP, KernelParams, posterior


@dataclass
class LinearApplication:
    """An application whose output is weights . estimate."""

    weights: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights contain non-finite entries")


def uniform_mean_application(n_sensors: int) -> LinearApplication:
    """The field-average application: every sensor weighted 1/L."""
    return LinearApplication(np.full(n_sensors, 1.0 / n_sensors), "mean")


def estimate_covariance(field: SensorField, state: DasState, params: KernelParams) -> np.ndarray:
    """Error covariance of the full-field estimate, in block form.

    Uploaded rows and columns are exactly zero (those entries are reported
    measurements); the remaining block is the GP posterior covariance.
    """
    state.check_against(field)
    n = field.n_sensors
    cov = np.zeros((n, n))
    rem = state.remaining_index
    if rem.size:
        post = posterior(
            field.locations[state.order],
            state.values,
            field.locations[rem],
            params,
            field.noise_variance,
        )
        cov[np.ix_(rem, rem)] = post.covariance
    return cov


def application_output(app: LinearApplication, est: FieldEstimate) -> float:
    """The application's value on the current estimate: weights . values."""
    if app.weights.shape[0] != est.values.shape[0]:
        raise ValueError(
            f"{app.weights.shape[0]} weights but {est.values.shape[0]} estimate entries"
        )
    return float(app.weights @ est.values)


def application_mse(app: LinearApplication, cov: np.ndarray) -> float:
    """Output error variance w' Sigma w for the given estimate covariance."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (app.weights.shape[0],) * 2:
        raise ValueError(
            f"covariance shape {cov.shape} does not match {app.weights.shape[0]} weights"
        )
    value = float(app.weights @ cov @ app.weights)
    if value < VARIANCE_CLAMP:
        raise ValueError(f"application MSE {value:g} below round-off tolerance")
    return max(value, 0.0)


def select_weighted_sum(
    apps, betas, field: SensorField, state: DasState, params: KernelParams
) -> int:
    """Candidate minimizing the beta-weighted sum of application MSEs.

    Each application's MSE after a candidate's upload is w'Sigma'w over the
    sensors still missing, scored for all candidates at once by
    :meth:`IncrementalConditioner.residual_variance`.
    """
    state.check_against(field)
    weights, betas = _app_rows([app.weights for app in apps], betas, field.n_sensors)
    if not state.remaining_index.size:
        raise ValueError("no sensors remaining")
    weights[:, state.mask] = 0.0  # uploaded entries carry no error
    cond = _conditioner(field, state, params)
    return int(_min_residual_pick(cond, state.remaining_index[None], weights, betas)[0])


def select_max_value_app(
    field: SensorField, state: DasState, est: FieldEstimate
) -> int | None:
    """For a max-of-field application: the sensor holding the largest estimate.

    Returns its index when that entry is still a prediction (worth
    verifying), or None when the maximum is already a reported measurement.
    """
    state.check_against(field)
    if est.values.shape[0] != field.n_sensors:
        raise ValueError("estimate does not match the field")
    idx = int(np.argmax(est.values))
    return None if state.mask[idx] else idx


def build_candidate_set(
    selections, field: SensorField, state: DasState, params: KernelParams,
    Q: int,
) -> list[int]:
    """Merge per-application picks into an ordered candidate set of size Q.

    Deduplicates the picks (None entries contribute nothing), then pads with
    not-yet-chosen sensors in descending posterior-variance order (ties toward
    the lowest index).  The result is capped at min(Q, #remaining) and is
    always a duplicate-free subset of the remaining sensors.
    """
    if Q < 1:
        raise ValueError(f"Q must be at least 1, got {Q}")
    state.check_against(field)
    rem = state.remaining_index
    chosen: list[int] = []
    for sel in selections:
        if sel is None:
            continue
        sel = int(sel)
        if not 0 <= sel < state.n_sensors or state.mask[sel]:
            raise ValueError(f"selection {sel} is not a remaining sensor")
        if sel not in chosen:
            chosen.append(sel)
    limit = min(Q, rem.size)
    if len(chosen) < limit:
        var = quantize(_conditioner(field, state, params).variance[rem])
        order = rem[np.argsort(-var, kind="stable")].tolist()
        chosen += [c for c in order if c not in chosen]
    return chosen[:limit]
