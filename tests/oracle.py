"""From-scratch reference paths for the round loops and the selection rules.

Each scorer here conditions the GP anew, once per candidate, with
``fieldsense.gp.posterior`` / ``posterior_mean_and_variance``; ``run_das``
repeats the whole collection loop that way, recomputing the estimate every
round, and ``run_aloha`` re-solves each contention round's predictions.  The
library runs both loops on one incremental conditioner and scores all
candidates at once by a rank-one update, so these are the oracles its fast
paths are tested against.
"""

import numpy as np

from fieldsense.aloha import (
    AlohaRound,
    DualState,
    contend,
    dual_ascent_step,
    equal_upload_probability,
    upload_probabilities,
)
from fieldsense.das import (
    DasRound,
    DasState,
    estimate,
    quantize,
    select_random,
)
from fieldsense.gp import as_points, posterior, posterior_mean_and_variance


def remaining_variances(field, state, params):
    """Posterior variance of each remaining sensor, ordered like ``state.remaining``."""
    _, var = posterior_mean_and_variance(
        field.locations[list(state.uploaded)],
        np.asarray(state.uploaded_values),
        field.locations[list(state.remaining)],
        params,
        field.noise_variance,
    )
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


def virtual_traces(field, state, virtual, params):
    """Trace of the posterior covariance at ``virtual`` after each candidate uploads."""
    obs = field.locations[list(state.uploaded)]
    traces = np.empty(len(state.remaining))
    for j, cand in enumerate(state.remaining):
        locs = np.vstack([obs, field.locations[cand : cand + 1]])
        _, var = posterior_mean_and_variance(
            locs, np.zeros(locs.shape[0]), virtual, params, field.noise_variance
        )
        traces[j] = var.sum()
    return traces


def hypothetical_mses(weights, field, state, params):
    """Error variance of each application after each candidate's upload.

    ``weights`` holds one row per application over the sensors.  Returns an
    array of shape (n_remaining, n_apps), rows ordered like
    ``state.remaining``; the candidate and the uploaded sensors carry no
    error, so only the other remaining sensors' weights count.
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    obs = field.locations[list(state.uploaded)]
    out = np.empty((len(state.remaining), weights.shape[0]))
    for j, cand in enumerate(state.remaining):
        rest = [i for i in state.remaining if i != cand]
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


def run_das(field, policy, rounds, params, rng=None, virtual_locs=None,
            log_estimates=False, apps=None):
    """The collection loop of ``fieldsense.das.run_das``, from scratch every round."""
    state = DasState.fresh(field.n_sensors)
    virtual = None if virtual_locs is None else as_points(virtual_locs, dim=field.dim)
    logs = []
    for _ in range(rounds):
        rem = state.remaining
        if policy == "random":
            idx = select_random(state, rng)
        elif policy == "max-variance":
            idx = rem[int(np.argmax(quantize(remaining_variances(field, state, params))))]
        elif policy == "virtual":
            traces = virtual_traces(field, state, virtual, params)
            idx = rem[int(np.argmin(quantize(traces)))]
        elif policy == "app-weighted":
            weights, betas = apps
            totals = hypothetical_mses(weights, field, state, params) @ np.asarray(betas)
            idx = rem[int(np.argmin(quantize(totals)))]
        else:
            raise ValueError(f"unknown policy {policy!r}")
        state = state.with_uploads([idx], [float(field.measurements[idx])])
        est = estimate(field, state, params)
        logs.append(DasRound(state.round, int(idx), est.mse, est if log_estimates else None))
    return logs


def run_aloha(field, cfg, rounds, params, rng):
    """The contention loop of ``fieldsense.aloha.run_aloha``, re-solving predictions every round."""
    state = DasState.fresh(field.n_sensors)
    dual = DualState(cfg.psi0)
    logs = []
    for _ in range(rounds):
        cand = []
        if state.remaining:
            rem = np.asarray(state.remaining)
            k = min(cfg.candidates, rem.size)
            cand = sorted(int(i) for i in rng.choice(rem, size=k, replace=False))
        predictions = np.zeros(0)
        if cand:
            predictions, _ = posterior_mean_and_variance(
                field.locations[list(state.uploaded)], np.asarray(state.uploaded_values),
                field.locations[cand], params, field.noise_variance,
            )
        errors = predictions - field.measurements[cand]
        if cfg.mode == "conventional":
            probabilities = np.full(len(cand), equal_upload_probability(cfg))
        else:
            probabilities = upload_probabilities(errors**2, dual.psi)
        dormant = rng.random(len(cand)) < cfg.p_sleep
        active, channel, success = contend(
            np.where(dormant, 0.0, probabilities), cfg.channels, rng
        )
        cand_arr = np.asarray(cand, dtype=int)
        successes = [int(i) for i in cand_arr[success]]
        collided = [int(i) for i in cand_arr[active & ~success]]
        psi = dual.psi
        if cfg.mode == "modified":
            dual = dual_ascent_step(dual, int(active.sum()), cfg.channels, cfg.mu)
        state = state.with_uploads(successes, field.measurements[successes])
        sse = float(np.sum(errors[~success] ** 2))
        logs.append(AlohaRound(cand, predictions, errors, probabilities, active, channel,
                               successes, collided, sse, psi))
    return logs
