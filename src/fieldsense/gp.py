"""Gaussian process regression core: kernel evaluation and posterior inference.

The model is a zero-mean GP over spatial locations with a squared-exponential
kernel and iid Gaussian observation noise.  Conditioning on observed
measurements yields closed-form posterior means and covariances over any
target location set; all solves go through a Cholesky factorization of the
noise-augmented kernel matrix (never an explicit inverse), with diagonal
jitter escalation as a fallback for nearly singular systems.

Locations are represented as rows of a float array of shape (n, d); 1-D
inputs (scalars, flat lists) are promoted to shape (n, 1).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular

# Negative posterior variances above this floor are treated as round-off and
# clamped to zero; anything more negative indicates a real defect.
VARIANCE_CLAMP = -1e-10

_JITTER_START = 1e-10
_JITTER_MAX = 1e-6


@dataclass(frozen=True)
class KernelParams:
    """Squared-exponential kernel parameters.

    k(a, b) = signal_variance * exp(-||a - b||^2 / (2 * length_scale^2))
    """

    length_scale: float = 1.0
    signal_variance: float = 1.0

    def __post_init__(self):
        if not (self.length_scale > 0 and math.isfinite(self.length_scale)):
            raise ValueError(f"length_scale must be positive, got {self.length_scale}")
        if not (self.signal_variance > 0 and math.isfinite(self.signal_variance)):
            raise ValueError(
                f"signal_variance must be positive, got {self.signal_variance}"
            )


@dataclass
class GprPosterior:
    """Posterior of the latent field over an ordered set of target locations."""

    mean: np.ndarray
    covariance: np.ndarray
    target_locations: np.ndarray

    @property
    def variance(self) -> np.ndarray:
        return np.diag(self.covariance).copy()


def as_points(locs, dim: int | None = None) -> np.ndarray:
    """Normalize location input to a float array of shape (n, d).

    Accepts a scalar (one 1-D point), a flat sequence (n 1-D points), a
    sequence of coordinate tuples, or an (n, d) array.
    """
    arr = np.asarray(locs, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        # A flat vector is a list of 1-D points unless a higher dim is forced.
        arr = arr.reshape(-1, 1) if dim in (None, 1) else arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ValueError(f"locations must be at most 2-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("locations contain non-finite coordinates")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"expected {dim}-dimensional locations, got {arr.shape[1]}")
    return arr


def as_single_point(loc) -> np.ndarray:
    """Normalize one location (scalar or coordinate vector) to shape (1, d)."""
    arr = np.atleast_1d(np.asarray(loc, dtype=float)).ravel()
    if not np.all(np.isfinite(arr)):
        raise ValueError("location contains non-finite coordinates")
    return arr.reshape(1, -1)


def kernel(a, b, params: KernelParams) -> float:
    """Covariance between two locations under the squared-exponential kernel."""
    av = np.atleast_1d(np.asarray(a, dtype=float)).ravel()
    bv = np.atleast_1d(np.asarray(b, dtype=float)).ravel()
    if av.shape != bv.shape:
        raise ValueError(f"dimension mismatch: {av.shape} vs {bv.shape}")
    d2 = float(np.sum((av - bv) ** 2))
    return params.signal_variance * math.exp(-d2 / (2.0 * params.length_scale**2))


def gram(rows, cols, params: KernelParams) -> np.ndarray:
    """Kernel matrix with entry (i, j) = kernel(rows[i], cols[j]).

    Empty inputs are allowed and produce a correspondingly empty matrix.
    When ``rows`` and ``cols`` are the same list the result is exactly
    symmetric (distances are computed from pairwise differences).
    """
    r = as_points(rows)
    c = as_points(cols)
    if r.size and c.size and r.shape[1] != c.shape[1]:
        raise ValueError(f"dimension mismatch: {r.shape[1]} vs {c.shape[1]}")
    if r.shape[0] == 0 or c.shape[0] == 0:
        return np.zeros((r.shape[0], c.shape[0]))
    diff = r[:, None, :] - c[None, :, :]
    d2 = np.sum(diff * diff, axis=-1)
    return params.signal_variance * np.exp(-d2 / (2.0 * params.length_scale**2))


def _chol_with_jitter(mat: np.ndarray, params: KernelParams) -> np.ndarray:
    """Lower Cholesky factor of ``mat``, escalating diagonal jitter on failure."""
    try:
        return cholesky(mat, lower=True, check_finite=False)
    except LinAlgError:
        pass
    jitter = _JITTER_START * params.signal_variance
    limit = _JITTER_MAX * params.signal_variance
    eye = np.eye(mat.shape[0])
    while jitter <= limit * (1 + 1e-12):
        try:
            return cholesky(mat + jitter * eye, lower=True, check_finite=False)
        except LinAlgError:
            jitter *= 10.0
    raise LinAlgError(
        "kernel matrix is not positive definite after jitter escalation "
        f"(up to {limit:g})"
    )


def _clamp_variances(var: np.ndarray) -> np.ndarray:
    low = float(var.min()) if var.size else 0.0
    if low < VARIANCE_CLAMP:
        raise ValueError(
            f"posterior variance {low:g} below round-off tolerance {VARIANCE_CLAMP:g}"
        )
    return np.maximum(var, 0.0)


def _condition(observed_locs, observed_values, target_locs, params: KernelParams,
               noise_variance: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated targets T, with v = L^-1 K(O, T) and alpha = L^-1 y.

    L is the lower Cholesky factor of K(O, O) + noise I (jittered if need
    be), so the posterior mean is v' alpha and the covariance K(T, T) - v'v.
    With no observations v and alpha are empty and both reduce to the prior.
    """
    targets = as_points(target_locs)
    if targets.shape[0] == 0:
        raise ValueError("target location set is empty")
    dim = targets.shape[1]
    obs = as_points(observed_locs, dim=dim) if np.size(observed_locs) else np.zeros((0, dim))
    values = np.asarray(observed_values, dtype=float).ravel()
    if obs.shape[0] != values.shape[0]:
        raise ValueError(
            f"{obs.shape[0]} observed locations but {values.shape[0]} values"
        )
    if not (noise_variance > 0 and math.isfinite(noise_variance)):
        raise ValueError(f"noise_variance must be positive, got {noise_variance}")
    if values.size and not np.all(np.isfinite(values)):
        raise ValueError("observed values contain non-finite entries")
    if obs.shape[0] == 0:
        return targets, np.zeros((0, targets.shape[0])), values

    k_oo = gram(obs, obs, params)
    chol = _chol_with_jitter(k_oo + noise_variance * np.eye(obs.shape[0]), params)
    v = solve_triangular(chol, gram(obs, targets, params), lower=True, check_finite=False)
    alpha = solve_triangular(chol, values, lower=True, check_finite=False)
    return targets, v, alpha


def posterior(
    observed_locs,
    observed_values,
    target_locs,
    params: KernelParams,
    noise_variance: float,
) -> GprPosterior:
    """Posterior mean and covariance of the field at ``target_locs``.

    mean = K(T, O) (K(O, O) + noise I)^-1 y
    cov  = K(T, T) - K(T, O) (K(O, O) + noise I)^-1 K(O, T)

    With no observations this degenerates to the zero-mean prior.  The
    returned covariance is symmetrized and its diagonal clamped at zero
    (round-off negatives only; see VARIANCE_CLAMP).
    """
    targets, v, alpha = _condition(
        observed_locs, observed_values, target_locs, params, noise_variance
    )
    cov = gram(targets, targets, params) - v.T @ v
    cov = 0.5 * (cov + cov.T)
    diag = _clamp_variances(np.diag(cov).copy())
    np.fill_diagonal(cov, diag)
    return GprPosterior(v.T @ alpha, cov, targets)


def posterior_mean_and_variance(
    observed_locs,
    observed_values,
    target_locs,
    params: KernelParams,
    noise_variance: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Marginal posterior means and variances at ``target_locs``.

    Same conditioning as :func:`posterior` but computes only the diagonal of
    the covariance, which is all the field estimate needs.
    """
    targets, v, alpha = _condition(
        observed_locs, observed_values, target_locs, params, noise_variance
    )
    prior_var = np.full(targets.shape[0], params.signal_variance)
    return v.T @ alpha, _clamp_variances(prior_var - np.sum(v * v, axis=0))


def pointwise_conditional(
    observed_locs,
    observed_values,
    target,
    params: KernelParams,
    noise_variance: float,
) -> tuple[float, float]:
    """Posterior mean and variance of the field at a single location."""
    mean, var = posterior_mean_and_variance(
        observed_locs, observed_values, as_single_point(target), params, noise_variance
    )
    return float(mean[0]), float(var[0])


class IncrementalConditioner:
    """Conditions the GP on observations added one at a time.

    Targets are fixed up front; observations must be drawn from the target
    set (which is the case in the round loop, where every sensor is a
    target).  Appending an observation extends the Cholesky factor of the
    noise-augmented kernel matrix by one row, so per-target posterior means
    and variances stay current at O(n_obs * n_targets) cost per round
    instead of a fresh factorization.

    The collection loop, every selection policy and the ALOHA rounds run on
    it; results agree with the from-scratch :func:`posterior_mean_and_variance`
    to within accumulated round-off (tested at 1e-8).  Variances follow the
    same numerical policy as the batch path: round-off negatives above
    ``VARIANCE_CLAMP`` clamp to zero, anything lower raises.
    """

    def __init__(self, target_locs, params: KernelParams, noise_variance: float):
        targets = as_points(target_locs)
        if not (noise_variance > 0 and math.isfinite(noise_variance)):
            raise ValueError(f"noise_variance must be positive, got {noise_variance}")
        self.params = params
        self.noise_variance = noise_variance
        self.target_locations = targets
        n = targets.shape[0]
        self._prior = gram(targets, targets, params)
        # Row t of _a is the t-th row of L^-1 K(obs, targets); _c is L^-1 y.
        self._a = np.empty((n, n))
        self._c = np.empty(n)
        self._n_obs = 0
        self.mean = np.zeros(n)
        self.variance = np.full(n, params.signal_variance)

    @property
    def n_observations(self) -> int:
        return self._n_obs

    def observe(self, index: int, value: float):
        """Condition on a (noisy) measurement at target ``index``.

        Raises ``ValueError``, leaving the conditioner unchanged, if the
        update would push a variance below ``VARIANCE_CLAMP``.
        """
        if not 0 <= index < self.target_locations.shape[0]:
            raise IndexError(f"target index {index} out of range")
        if not math.isfinite(value):
            raise ValueError("observed value is not finite")
        t = self._n_obs
        lvec = self._a[:t, index]
        d = math.sqrt(self.variance[index] + self.noise_variance)
        row = (self._prior[index] - lvec @ self._a[:t]) / d
        c_new = (value - lvec @ self._c[:t]) / d
        variance = _clamp_variances(self.variance - row * row)
        self._a[t] = row
        self._c[t] = c_new
        self._n_obs = t + 1
        self.mean += row * c_new
        self.variance = variance

    def residual_variance(self, weights, candidates) -> np.ndarray:
        """Error variance of weighted sums of the targets after each candidate uploads.

        Entry (r, j) is w'S w for weight row r once target ``candidates[j]``
        (c) is observed, where S = Sigma - Sigma[:, c] Sigma[c, :] /
        (Sigma[c, c] + noise) is the rank-one Schur update of the current
        posterior covariance Sigma, and w has c's own entry zeroed because
        an uploaded entry is exact.  Every selection policy scores candidates
        this way: unit rows give the variance left at single targets, an
        application's weights the error variance of its output.  Value-free:
        the covariance of a Gaussian does not depend on the measurement.
        """
        w = np.atleast_2d(np.asarray(weights, dtype=float))
        cand = np.asarray(candidates, dtype=int)
        a = self._a[: self._n_obs]
        s = w @ self._prior - (w @ a.T) @ a  # rows of W Sigma
        wc, sc, dc = w[:, cand], s[:, cand], self.variance[cand]
        own = np.einsum("ij,ij->i", w, s)[:, None] - wc * (2.0 * sc - wc * dc)
        cross = sc - wc * dc
        return own - cross * cross / (dc + self.noise_variance)
