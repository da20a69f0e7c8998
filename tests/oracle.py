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

Both loops log one seed's rounds as :class:`DasRound` or :class:`AlohaRound`
records.  The library plays its loops on seed batches only, yielding each
round as the batch's columns; :func:`rows` reads a batch round as each
seed's record, :func:`by_seed` a whole batch stream, and :func:`das_logs`
and :func:`aloha_logs` a batch of one seed, so a test compares the library
with these loops record by record.
"""

import collections
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular

from fieldsense.aloha import equal_upload_probability, run_aloha_batches, upload_probabilities
from fieldsense.das import DasBatchRound, FieldEstimate, quantize, run_das_batches
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


def _clamp_variances(var, params):
    low = float(var.min()) if var.size else 0.0
    clamp = VARIANCE_CLAMP * params.signal_variance
    if low < clamp:
        raise ValueError(f"posterior variance {low:g} below round-off tolerance {clamp:g}")
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
    diag = _clamp_variances(np.diag(cov).copy(), params)
    np.fill_diagonal(cov, diag)
    return GprPosterior(v.T @ alpha, cov, targets)


def posterior_mean_and_variance(observed_locs, observed_values, target_locs, params,
                                noise_variance):
    """Marginal posterior means and variances at ``target_locs`` by one batch solve."""
    targets, v, alpha = _condition(
        observed_locs, observed_values, target_locs, params, noise_variance
    )
    prior_var = np.full(targets.shape[0], params.signal_variance)
    return v.T @ alpha, _clamp_variances(prior_var - np.sum(v * v, axis=0), params)


def remaining(field, uploaded):
    """The sensors not in ``uploaded``, in ascending order."""
    done = set(uploaded)
    return [i for i in range(field.n_sensors) if i not in done]


def _uploads(field, uploaded):
    """Locations and measurements of the sensors in ``uploaded``, in upload order."""
    uploaded = list(uploaded)
    return field.locations[uploaded], field.measurements[uploaded]


def estimate(field, uploaded, params):
    """The full-field estimate the collection loop logs once the sensors
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


@dataclass
class DasRound:
    """One seed's round of the collection loop: what was picked and what it bought."""

    round: int
    selected: int
    mse: float
    estimate: FieldEstimate | None = None


@dataclass
class AlohaRound:
    """Everything that happened to one seed in one contention round."""

    candidates: list[int]
    predictions: np.ndarray
    errors: np.ndarray
    probabilities: np.ndarray
    activity: np.ndarray
    channel_choice: np.ndarray  # -1 for sensors that did not transmit
    successes: list[int]
    collided: list[int]
    sse: float
    psi: float  # dual value the sensors used this round


def rows(rnd) -> list:
    """A round of ``run_das_batches`` or ``run_aloha_batches``, the batch's
    columns, as each seed's :class:`DasRound` or :class:`AlohaRound`, row
    by row; an ALOHA record's arrays are its row's, cut to its candidates."""
    if isinstance(rnd, DasBatchRound):
        estimates = rnd.estimates or [None] * len(rnd.picks)
        return [DasRound(rnd.round, *entry) for entry in zip(rnd.picks, rnd.mse, estimates)]
    channel = np.where(rnd.activity, rnd.draws, -1)
    cut = [[row[:k] for row, k in zip(x, rnd.lens)] for x in (
        rnd.candidates, rnd.predictions, rnd.errors, rnd.probabilities, rnd.activity,
        channel, rnd.success)]
    out = []
    for s, (cand, pred, err, prob, act, chan, ok) in enumerate(zip(*cut)):
        cands = cand.tolist()
        collided = [c for c, a, won in zip(cands, act.tolist(), ok.tolist()) if a and not won]
        out.append(AlohaRound(cands, pred, err, prob, act, chan, rnd.successes[s], collided,
                              rnd.sse[s], rnd.psi[s]))
    return out


def by_seed(batch_rounds):
    """The batch stream of ``run_das_batches`` or ``run_aloha_batches`` as
    {seed: (field, [record, ...] or the error)}: each seed's records, read
    from its batch rounds by :func:`rows`, until its row is reported failed,
    and then a ``ValueError`` with the message reported."""
    out = {}
    for batch, fields, t, rnd, failed in batch_rounds:
        for row, (seed, field, log) in enumerate(zip(batch, fields, rows(rnd))):
            _, logs = out.setdefault(seed, (field, []))
            if row in failed:
                out[seed] = (field, ValueError(failed[row]))
            elif isinstance(logs, list):
                assert t == len(logs) + 1
                logs.append(log)
    return out


def _one_seed(stream):
    """The records of the one seed a batch stream plays; raises its failure."""
    ((_, logs),) = by_seed(stream).values()
    if isinstance(logs, ValueError):
        raise logs
    return logs


def _field_maker(field):
    """``field`` as a ``make_field`` argument: a function of the seed's
    generator that builds a field is kept, and a field becomes the function
    that returns it whatever the generator."""
    return field if callable(field) else lambda rng: field


def das_logs(field, policy, rounds, params, seed=0, **kwargs) -> list[DasRound]:
    """The library's collection loop as the batch of one ``seed``:
    ``run_das_batches([seed], ...)``'s rounds as records.  ``field`` is the
    field, or a function of the seed's generator that builds it; the random
    policy draws from that generator after it.  Raises the seed's failure."""
    return _one_seed(run_das_batches([seed], _field_maker(field), policy, rounds, params,
                                     **kwargs))


def aloha_logs(field, cfg, rounds, params, seed=0) -> list[AlohaRound]:
    """The library's contention loop as the batch of one ``seed``, as
    :func:`das_logs` runs the collection loop."""
    return _one_seed(run_aloha_batches([seed], _field_maker(field), cfg, rounds, params))


def run_das(field, policy, rounds, params, rng=None, virtual_locs=None,
            log_estimates=False, apps=None):
    """The library's collection loop (``fieldsense.das.run_das_batches`` on one
    seed, ``rng`` its generator), from scratch every round."""
    virtual = None if virtual_locs is None else as_points(virtual_locs, dim=field.dim)
    uploaded = []
    logs = []
    for t in range(rounds):
        rem = remaining(field, uploaded)
        if policy == "random":
            idx = rem[rng.integers(len(rem))]
        elif policy == "max-variance":
            idx = rem[int(np.argmax(quantize(remaining_variances(field, uploaded, params),
                                             params.signal_variance)))]
        elif policy == "virtual":
            traces = virtual_traces(field, uploaded, virtual, params)
            idx = rem[int(np.argmin(quantize(traces, params.signal_variance)))]
        elif policy == "app-weighted":
            weights, betas = apps
            totals = hypothetical_mses(weights, field, uploaded, params) @ np.asarray(betas)
            idx = rem[int(np.argmin(quantize(totals, params.signal_variance)))]
        else:
            raise ValueError(f"unknown policy {policy!r}")
        uploaded.append(int(idx))
        est = estimate(field, uploaded, params)
        logs.append(DasRound(t + 1, int(idx), est.mse, est if log_estimates else None))
    return logs


def run_aloha(field, cfg, rounds, params, rng):
    """The library's contention loop (``fieldsense.aloha.run_aloha_batches`` on
    one seed, ``rng`` its generator), re-solving predictions every round and
    counting each channel's transmitters to find the collisions."""
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
