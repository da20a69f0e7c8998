"""From-scratch reference paths for the posterior, the round loops and the selection rules.

``posterior`` and ``posterior_mean_and_variance`` here are the batch solve:
one Cholesky factorization of the noise-augmented kernel matrix (with
diagonal jitter escalation when it is not numerically positive definite)
and triangular solves, where the library conditions one observation at a
time on its incremental conditioner.  Each scorer conditions the GP anew,
once per candidate; ``run_das`` repeats the whole collection loop that way,
recomputing the estimate every round, and ``run_aloha`` re-solves each
contention round's predictions.  The library runs both loops on one
incremental conditioner and scores all candidates at once by a rank-one
update, so these are the oracles its fast paths are tested against.
"""

import collections
import math

import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular

from fieldsense.aloha import (
    AlohaRound,
    equal_upload_probability,
    upload_probabilities,
)
from fieldsense.das import DasRound, FieldEstimate, quantize
from fieldsense.gp import VARIANCE_CLAMP, GprPosterior, as_points, gram

_JITTER_START = 1e-10
_JITTER_MAX = 1e-6


def _chol_with_jitter(mat, params):
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


def sq_exp_reduced(diff, params):
    """Kernel values for coordinate differences along the last axis of ``diff``,
    the squared distance taken by one reduction over that axis (the library's
    former form, which sums the coordinates one at a time instead)."""
    d2 = np.sum(diff * diff, axis=-1)
    return params.signal_variance * np.exp(-d2 / (2.0 * params.length_scale**2))


def _clamp_variances(var):
    low = float(var.min()) if var.size else 0.0
    if low < VARIANCE_CLAMP:
        raise ValueError(
            f"posterior variance {low:g} below round-off tolerance {VARIANCE_CLAMP:g}"
        )
    return np.maximum(var, 0.0)


def _condition(observed_locs, observed_values, target_locs, params, noise_variance):
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


def posterior(observed_locs, observed_values, target_locs, params, noise_variance):
    """Posterior mean and covariance at ``target_locs`` by one batch solve.

    The covariance is symmetrized and its diagonal clamped at zero
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


def posterior_mean_and_variance(observed_locs, observed_values, target_locs, params,
                                noise_variance):
    """Marginal posterior means and variances at ``target_locs`` by one batch solve."""
    targets, v, alpha = _condition(
        observed_locs, observed_values, target_locs, params, noise_variance
    )
    prior_var = np.full(targets.shape[0], params.signal_variance)
    return v.T @ alpha, _clamp_variances(prior_var - np.sum(v * v, axis=0))


def remaining(field, uploaded):
    """The sensors not in ``uploaded``, in ascending order."""
    done = set(uploaded)
    return [i for i in range(field.n_sensors) if i not in done]


def _uploads(field, uploaded):
    """Locations and measurements of the sensors in ``uploaded``, in upload order."""
    uploaded = list(uploaded)
    return field.locations[uploaded], field.measurements[uploaded]


def estimate(field, uploaded, params):
    """The full-field estimate ``fieldsense.das.run_das`` logs once the sensors
    in ``uploaded`` (indices, in upload order) have reported, by one batch solve."""
    rem = remaining(field, uploaded)
    values = field.measurements.copy()
    variance = np.zeros(field.n_sensors)
    if rem:
        values[rem], variance[rem] = posterior_mean_and_variance(
            *_uploads(field, uploaded), field.locations[rem], params, field.noise_variance)
    return FieldEstimate(values, variance, float(np.sum(variance)))


def remaining_variances(field, uploaded, params):
    """Posterior variance of each sensor not in ``uploaded``, in ascending order."""
    _, var = posterior_mean_and_variance(
        *_uploads(field, uploaded), field.locations[remaining(field, uploaded)], params,
        field.noise_variance)
    return var


def hypothetical_reduction(target_locs, observed, index, params, noise):
    """Variance removed at every target if target ``index`` were observed next.

    ``observed`` lists the target indices already observed; no values are
    needed because the posterior covariance does not depend on them.
    """
    targets = as_points(target_locs)

    def variances(idx):
        _, var = posterior_mean_and_variance(
            targets[idx], np.zeros(len(idx)), targets, params, noise
        )
        return var

    return variances(list(observed)) - variances(list(observed) + [index])


def virtual_traces(field, uploaded, virtual, params):
    """Trace of the posterior covariance at ``virtual`` after each sensor not in
    ``uploaded`` uploads, the candidates in ascending order."""
    obs, _ = _uploads(field, uploaded)
    rem = remaining(field, uploaded)
    traces = np.empty(len(rem))
    for j, cand in enumerate(rem):
        locs = np.vstack([obs, field.locations[cand : cand + 1]])
        _, var = posterior_mean_and_variance(
            locs, np.zeros(locs.shape[0]), virtual, params, field.noise_variance
        )
        traces[j] = var.sum()
    return traces


def hypothetical_mses(weights, field, uploaded, params):
    """Error variance of each application after each candidate's upload.

    ``weights`` holds one row per application over the sensors, and the
    candidates are the sensors not in ``uploaded``, in ascending order.
    Returns an array of shape (n_candidates, n_apps); the candidate and the
    uploaded sensors carry no error, so only the other candidates' weights
    count.
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    obs, _ = _uploads(field, uploaded)
    rem = remaining(field, uploaded)
    out = np.empty((len(rem), weights.shape[0]))
    for j, cand in enumerate(rem):
        rest = [i for i in rem if i != cand]
        if not rest:
            out[j] = 0.0
            continue
        locs = np.vstack([obs, field.locations[cand : cand + 1]])
        post = posterior(
            locs, np.zeros(locs.shape[0]), field.locations[rest], params,
            field.noise_variance,
        )
        for q, w in enumerate(weights[:, rest]):
            out[j, q] = w @ post.covariance @ w
    return out


def dense_residual_variance(cond, weights, candidates, uploaded, prior=None):
    """``IncrementalConditioner.residual_variance`` by the dense form: each
    seed's weight rows zeroed at the targets in its list of ``uploaded``
    (an uploaded entry is exact), then multiplied through that seed's (n, n)
    prior, built by ``gram`` from its own targets unless ``prior`` (S, n, n)
    is given, and through the conditioner's factor.  The library keeps the
    rows' products with the prior and downdates them per upload, where this
    multiplies the zeroed rows through the whole prior every call; with
    one-hot rows both products are the rows they select, so the two agree
    bit for bit.  Returns (S, k, m) scores for (S, m) ``candidates``."""
    if prior is None:
        prior = np.stack([gram(locs, locs, cond.params) for locs in cond.target_locations])
    n_seeds, n = prior.shape[:2]
    w = np.asarray(weights, dtype=float)
    w = np.array(np.broadcast_to(w, (n_seeds, *w.shape[-2:])))
    for s, done in enumerate(uploaded):
        w[s][:, list(done)] = 0.0
    cand = np.asarray(candidates, dtype=int)
    a = cond._a[:, : max(cond.n_observations)]
    s = w @ prior - (w @ a.mT) @ a  # rows of W Sigma
    seeds, rows = np.ogrid[:n_seeds, : w.shape[1]]
    sc = s[seeds[..., None], rows[..., None], cand[:, None, :]]
    wc = w[seeds[..., None], rows[..., None], cand[:, None, :]]
    dc = cond.variance[seeds, cand][:, None, :]  # the posterior variances, clamped
    wd = wc * dc
    own = np.einsum("...ij,...ij->...i", w, s)[..., None] - wc * (2.0 * sc - wd)
    cross = sc - wd
    return own - cross * cross / (dc + cond.noise_variance)


def run_das(field, policy, rounds, params, rng=None, virtual_locs=None,
            log_estimates=False, apps=None):
    """The collection loop of ``fieldsense.das.run_das``, from scratch every round."""
    virtual = None if virtual_locs is None else as_points(virtual_locs, dim=field.dim)
    uploaded = []
    logs = []
    for t in range(rounds):
        rem = remaining(field, uploaded)
        if policy == "random":
            idx = rem[rng.integers(len(rem))]
        elif policy == "max-variance":
            idx = rem[int(np.argmax(quantize(remaining_variances(field, uploaded, params))))]
        elif policy == "virtual":
            traces = virtual_traces(field, uploaded, virtual, params)
            idx = rem[int(np.argmin(quantize(traces)))]
        elif policy == "app-weighted":
            weights, betas = apps
            totals = hypothetical_mses(weights, field, uploaded, params) @ np.asarray(betas)
            idx = rem[int(np.argmin(quantize(totals)))]
        else:
            raise ValueError(f"unknown policy {policy!r}")
        uploaded.append(int(idx))
        est = estimate(field, uploaded, params)
        logs.append(DasRound(t + 1, int(idx), est.mse, est if log_estimates else None))
    return logs


def run_aloha(field, cfg, rounds, params, rng):
    """The contention loop of ``fieldsense.aloha.run_aloha``, re-solving predictions
    every round and counting each channel's transmitters to find the collisions."""
    uploaded = []
    psi = cfg.psi0
    logs = []
    for _ in range(rounds):
        cand = []
        rem = remaining(field, uploaded)
        if rem:
            k = min(cfg.candidates, len(rem))
            cand = sorted(int(i) for i in rng.choice(rem, size=k, replace=False))
        predictions = np.zeros(0)
        if cand:
            predictions, _ = posterior_mean_and_variance(
                *_uploads(field, uploaded), field.locations[cand], params, field.noise_variance)
        errors = predictions - field.measurements[cand]
        if cfg.mode == "conventional":
            probabilities = np.full(len(cand), equal_upload_probability(cfg))
        else:
            probabilities = upload_probabilities(errors**2, psi)
        dormant = rng.random(len(cand)) < cfg.p_sleep
        active = rng.random(len(cand)) < np.where(dormant, 0.0, probabilities)
        channel = np.where(active, rng.integers(0, cfg.channels, size=len(cand)), -1)
        on_channel = collections.Counter(channel[active].tolist())  # no entry for -1
        success = np.array([on_channel[c] == 1 for c in channel.tolist()], dtype=bool)
        cand_arr = np.asarray(cand, dtype=int)
        successes = [int(i) for i in cand_arr[success]]
        collided = [int(i) for i in cand_arr[active & ~success]]
        psi_used = psi
        if cfg.mode == "modified":
            psi = psi + cfg.mu * (int(active.sum()) - cfg.channels)
        uploaded += successes
        sse = float(np.sum(errors[~success] ** 2))
        logs.append(AlohaRound(cand, predictions, errors, probabilities, active, channel,
                               successes, collided, sse, psi_used))
    return logs
