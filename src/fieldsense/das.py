"""Round-by-round data-aided sensing: one sensor uploads per round, chosen so
the reconstruction of the whole field improves as fast as possible.

The round loop plays a batch of seeds in lockstep on one conditioner with a
seed axis; a run of one field is the batch of one.  Its round state is a
mask of the sensors still waiting, and it indexes the conditioner with the
flat positions of each seed's sensors still missing, ascending.  The field
estimate copies uploaded measurements verbatim and fills the rest with GP
posterior means; its MSE is the sum of the posterior variances of the
sensors still missing.  Selection policies pick the largest current variance
(which minimizes next-round MSE in Lemma 1's sense: the current variances
minus the picked sensor's own term), pick by uniform chance, or minimize the
variance left at virtual target locations or in application outputs.  An
application is a linear functional of the field, one weight row over the
sensors, and the app-weighted policy sums the output MSEs of several with
positive betas.  All of them score every candidate of every seed at once
from the conditioner, by the rank-one update the candidate's upload would
make to the posterior covariance.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .fields import SensorField
from .gp import IncrementalConditioner, KernelParams, as_points

# Variance scores are snapped to this grid, in units of the signal variance,
# before argmax/argmin so that selection traces do not flip on
# platform-dependent last-bit noise.  A change of units scales every score
# and the grid alike, so no pick moves.
_QUANTUM = 1e-12

POLICIES = ("max-variance", "random", "app-weighted", "virtual")

# The most bytes the seeds of one batch of run_das_batches or
# aloha.run_aloha_batches may hold at their worst case (see _in_flight).  A
# small field's round is mostly numpy call overhead, which a batch pays once;
# a large field's is its own O(t * L) products, which batching does not
# share, so it plays alone and memory stays that of one seed.
_BATCH_BYTES = 4 * 2**20


def quantize(values, signal_variance: float):
    """Snap scores to the comparison grid used by all selection rules: steps
    of 1e-12 times ``signal_variance``, the unit every score is in."""
    quantum = _QUANTUM * signal_variance
    return np.round(np.asarray(values, dtype=float) / quantum) * quantum


@dataclass
class FieldEstimate:
    """Full-field reconstruction at some round.

    Uploaded entries are the raw measurements (zero variance); the rest are
    posterior means with their marginal variances.  ``mse`` is the sum of
    ``per_sensor_variance``.
    """

    values: np.ndarray
    per_sensor_variance: np.ndarray
    mse: float


def _pack_estimate(field: SensorField, rem: np.ndarray, mean, var) -> FieldEstimate:
    """Measurements at the uploaded sensors; ``mean`` and ``var`` at ``rem``."""
    values = field.measurements.copy()
    variance = np.zeros(field.n_sensors)
    values[rem] = mean
    variance[rem] = var
    return FieldEstimate(values, variance, float(np.sum(variance)))


def _max_variance_pick(var: np.ndarray, rem: np.ndarray, signal_variance: float) -> np.ndarray:
    """For each row of ``rem`` (S, m), one seed's candidates in ascending
    order, the one with the largest quantized variance, ``var`` (S, m)
    holding theirs; ties go to the lowest index."""
    return rem[np.arange(rem.shape[0]), np.argmax(quantize(var, signal_variance), axis=1)]


def _min_residual_pick(cond: IncrementalConditioner, rem: np.ndarray, betas):
    """For each row of ``rem`` (S, m), the candidate minimizing the beta-weighted
    residual variance of the conditioner's weight rows; ties go to the lowest index."""
    scores = betas @ cond.residual_variance(rem)
    return rem[np.arange(rem.shape[0]),
               np.argmin(quantize(scores, cond.params.signal_variance), axis=-1)]


def _positive_betas(betas) -> np.ndarray:
    """``betas`` as a flat float array, checked finite and positive."""
    betas = np.asarray(betas, dtype=float).ravel()
    if not np.all(np.isfinite(betas) & (betas > 0)):
        raise ValueError(f"betas must be finite and positive, got {betas.tolist()}")
    return betas


def _app_rows(weights, betas, n_sensors: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated application weight rows and their betas."""
    betas = _positive_betas(betas)
    if len(weights) != betas.shape[0]:
        raise ValueError(f"{len(weights)} applications but {betas.shape[0]} betas")
    rows = [np.asarray(w, dtype=float).ravel() for w in weights]
    for i, w in enumerate(rows):
        if w.size != n_sensors:
            raise ValueError(f"application {i} has {w.size} weights for {n_sensors} sensors")
        if not np.all(np.isfinite(w)):
            raise ValueError(f"application {i} has non-finite weights")
    return np.array(rows).reshape(len(betas), n_sensors), betas


def _virtual_points(virtual_locs, dim: int) -> np.ndarray:
    """The virtual locations as ``dim``-dimensional points; there must be one."""
    virtual = as_points(virtual_locs, dim=dim)
    if virtual.shape[0] == 0:
        raise ValueError("virtual location set is empty")
    return virtual


class DasBatchRound:
    """One round of the collection loop on a seed batch, as columns: entry s
    is seed s's pick, its MSE and, if the loop logs them, its field estimate
    (``estimates`` is None otherwise)."""

    __slots__ = ("round", "picks", "mse", "estimates")

    def __init__(self, round: int, picks: list, mse: list, estimates: list | None):
        self.round, self.picks, self.mse, self.estimates = round, picks, mse, estimates


def run_das_batches(seeds, make_field, policy, rounds: int, params: KernelParams,
                    virtual_locs=None, log_estimates: bool = False, apps=None):
    """Run the collection loop for ``rounds`` rounds on every seed's field,
    the seeds played in lockstep batches, and yield each round as the
    batch's columns.

    ``policy`` is one of ``POLICIES``.  ``virtual_locs`` are the points the
    virtual policy scores at.  ``apps`` is the pair ``(weights, betas)`` the
    app-weighted policy needs: one finite weight row per application over
    the sensors, and the finite positive betas that sum their output MSEs.
    Seed ``seed`` gets the generator ``np.random.default_rng(seed)``, which
    builds its field through ``make_field(rng)`` and then draws the random
    policy's picks, so every seed's numbers are bit-identical to those of
    its batch of one, ``[seed]``.  The fields must share their number of
    sensors and noise variance.  A batch holds as many seeds as fit a 4 MB
    budget (:func:`_in_flight`) over their factors (``rounds`` rows over the
    targets each) and, for the scored policies, the weight rows they score
    and those rows' products with the prior (two rows over the targets per
    application or virtual point), so a large field plays one seed at a
    time; batches are of near-equal size.

    Yields ``(batch, fields, t, round, failed)`` for each round t of each
    batch, as :func:`play_seed_batches` does: ``round`` is the batch's
    :class:`DasBatchRound`.  ``failed`` maps the row of each seed whose run
    failed in round t to its ``ValueError`` message; that row's entries,
    from round t on, belong to no run, and the other seeds play on.
    """
    def in_flight(field: SensorField) -> int:
        n = field.n_sensors
        if policy == "virtual" and virtual_locs is not None:
            k = _virtual_points(virtual_locs, field.dim).shape[0]
            return _in_flight(n + k, rounds, 2 * k)
        if policy == "app-weighted" and apps is not None:
            return _in_flight(n, rounds, 2 * len(apps[0]))
        return _in_flight(n, rounds)

    return play_seed_batches(seeds, make_field, in_flight, lambda fields, rngs: _play(
        fields, rngs, policy, rounds, params, virtual_locs, log_estimates, apps))


def _in_flight(n_targets: int, rows: int, score_rows: int = 0) -> int:
    """Most seeds a batch may play at once: as many as fit ``_BATCH_BYTES``
    at each seed's worst case, ``rows`` factor rows, a posterior mean and
    variance and ``score_rows`` rows to score from (for k weight rows, the
    rows and their products with the prior, 2k), all over ``n_targets``
    targets.  Factor rows become resident only once written, so a batch
    holds less than this until its seeds fill their rows."""
    per_seed = 8 * n_targets * (rows + 2 + score_rows)
    return max(1, _BATCH_BYTES // per_seed)


def play_seed_batches(seeds, make_field, in_flight, play):
    """Play every seed's run, the seeds in lockstep batches, and yield each
    batch's rounds.

    Seed ``seed`` gets the generator ``np.random.default_rng(seed)``, which
    builds its field through ``make_field(rng)``.  ``in_flight(field)``,
    given the first seed's field, bounds the seeds of a batch, so memory
    follows that number, not the number of seeds; the batches are of
    near-equal size, so none pays a round's shared cost for a few seeds.
    ``play(fields, rngs)`` plays one batch: after each round it yields the
    batch's round, as columns with one entry per field, and the fields
    (rows) whose run failed in that round, with messages.  A failed row's
    entries, from the round it fails on, belong to no run.

    Yields ``(batch, fields, t, round, failed)`` for each round t of each
    batch: ``batch`` lists its seeds in the order given and ``fields`` their
    fields, row by row.
    """
    seeds = list(seeds)
    if not seeds:
        return
    made = ((rng, make_field(rng)) for rng in map(np.random.default_rng, seeds))
    first = next(made)
    made = itertools.chain([first], made)
    n_batches = -(-len(seeds) // in_flight(first[1]))
    for i in range(n_batches):
        batch = seeds[i * len(seeds) // n_batches : (i + 1) * len(seeds) // n_batches]
        rngs, fields = map(list, zip(*itertools.islice(made, len(batch))))
        for t, (rnd, failed) in enumerate(play(fields, rngs), start=1):
            yield batch, fields, t, rnd, failed


def _play(fields, rngs, policy, rounds: int, params: KernelParams, virtual_locs=None,
          log_estimates: bool = False, apps=None):
    """Play ``rounds`` rounds of ``policy`` on each field with its generator, all
    fields at once.

    One conditioner with a seed axis carries every field's posterior, each
    factor sized to ``rounds`` rows; max-variance and the scored policies
    pick for the whole batch at once, the random policy seed by seed from
    each seed's generator.  After each round, yields the batch's
    :class:`DasBatchRound` and the fields (rows) whose run failed in that
    round, with messages.  A failed row observes nothing afterwards; its
    picks go on, unlogged, so the rows keep one length of sensors left, and
    the others play on, unchanged by it.
    """
    first = fields[0]
    n = first.n_sensors
    if not 1 <= rounds <= n:
        raise ValueError(f"rounds must be in [1, {n}], got {rounds}")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if any(f.n_sensors != n or f.noise_variance != first.noise_variance for f in fields):
        raise ValueError("a seed batch needs fields of one size and noise variance")
    n_seeds = len(fields)
    targets = np.stack([f.locations for f in fields])
    weights = None
    if policy == "virtual":
        if virtual_locs is None:
            raise ValueError("virtual policy needs virtual_locs")
        virtual = _virtual_points(virtual_locs, first.dim)
        k = virtual.shape[0]
        weights, betas = np.eye(k, n + k, n), np.ones(k)  # one-hot on the virtual points
        targets = np.concatenate(
            [targets, np.broadcast_to(virtual, (n_seeds, *virtual.shape))], axis=1)
    elif policy == "app-weighted":
        if apps is None:
            raise ValueError("app-weighted policy needs apps")
        weights, betas = _app_rows(*apps, n)

    cond = IncrementalConditioner(targets, params, first.noise_variance, capacity=rounds,
                                  weights=weights)
    meas = np.stack([f.measurements for f in fields])
    # The one record of the uploads: which sensors are still waiting, laid over
    # every target so that its flat positions index the conditioner's (S, n_t)
    # arrays.
    n_t = targets.shape[1]
    waiting = np.zeros((n_seeds, n_t), dtype=bool)
    waiting[:, :n] = True
    seeds = np.arange(n_seeds)
    offsets = seeds * n_t  # flat position of each row's first target
    flat = np.flatnonzero(waiting).reshape(n_seeds, n)  # each row's sensors still waiting
    var = cond.variance.take(flat)  # and their variances
    ended: set[int] = set()
    live = seeds
    for t in range(rounds):
        if policy == "max-variance":
            picks = _max_variance_pick(var, flat, params.signal_variance) - offsets
        else:
            rem = flat - offsets[:, None]
            if policy == "random":
                picks = np.array([rem[s, 0] if s in ended else rem[s, int(rng.integers(n - t))]
                                  for s, rng in enumerate(rngs)])
            else:
                picks = _min_residual_pick(cond, rem, betas)
        measured = meas[seeds, picks]
        waiting[seeds, picks] = False
        failed = cond.observe(picks[live], measured[live], live)
        if failed:  # a failed seed's run has ended
            ended.update(failed)
            live = np.setdiff1d(seeds, list(ended))
        flat = np.flatnonzero(waiting).reshape(n_seeds, n - t - 1)
        var = cond.variance.take(flat)
        estimates = [_pack_estimate(fields[s], flat[s] - offsets[s],
                                    cond.mean.take(flat[s]), var[s])
                     for s in range(n_seeds)] if log_estimates else None
        yield DasBatchRound(t + 1, picks.tolist(), var.sum(axis=1).tolist(), estimates), failed
