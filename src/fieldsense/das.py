"""Round-by-round data-aided sensing: one sensor uploads per round, chosen so
the reconstruction of the whole field improves as fast as possible.

The round loop plays a batch of seeds in lockstep on one conditioner with a
seed axis; a run of one field is the batch of one.  Its round state is one
array record of the batch's uploads (a mask of the sensors still waiting,
the upload order and the measured values), and it indexes the conditioner
with the flat positions of each seed's sensors still missing, ascending.  The field estimate copies
uploaded measurements verbatim and fills the rest with GP posterior means;
its MSE is the sum of the posterior variances of the sensors still missing.
Selection policies pick the largest current variance (which minimizes
next-round MSE in Lemma 1's sense: the current variances minus the picked
sensor's own term), pick by uniform chance, or minimize the variance left at
virtual target locations or in application outputs.  All of them score
every candidate of every seed at once from the conditioner, by the rank-one
update the candidate's upload would make to the posterior covariance.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .fields import SensorField
from .gp import IncrementalConditioner, KernelParams, as_points

# Variance scores are snapped to this grid before argmax/argmin so that
# selection traces do not flip on platform-dependent last-bit noise.
_QUANTUM = 1e-12

POLICIES = ("max-variance", "random", "app-weighted", "virtual")

# The most bytes the seeds of one batch of run_das_batches or
# aloha.run_aloha_batches may hold at their worst case (see _in_flight).  A
# small field's round is mostly numpy call overhead, which a batch pays once;
# a large field's is its own O(t * L) products, which batching does not
# share, so it plays alone and memory stays that of one seed.
_BATCH_BYTES = 4 * 2**20


def quantize(values):
    """Snap scores to the comparison grid used by all selection rules."""
    return np.round(np.asarray(values, dtype=float) / _QUANTUM) * _QUANTUM


def _appended(arr: np.ndarray, items: list) -> np.ndarray:
    """A new array: ``arr`` followed by ``items``, in ``arr``'s dtype."""
    out = np.empty(arr.size + len(items), dtype=arr.dtype)
    out[: arr.size] = arr
    out[arr.size :] = items
    return out


class DasState:
    """Upload bookkeeping: which sensors have reported, in what order.

    One array record backs the state: ``mask`` (length n, True once a sensor
    has uploaded), ``order`` (the uploaded indices in upload order) and
    ``values`` (their measurements).  ``remaining_index`` is the ascending
    array of sensors still waiting.  The library reads these arrays; the
    tuple views ``uploaded``, ``remaining`` and ``uploaded_values`` are built
    on first access.  All of them are cached and read-only, and a state never
    changes: :meth:`with_uploads` returns a new one.

    The constructor takes the tuple form and raises ``ValueError`` unless
    ``uploaded`` and ``remaining`` partition ``range(n)`` and every upload
    has a value.
    """

    def __init__(self, uploaded, remaining, uploaded_values, round: int = 0):
        order = np.array(uploaded, dtype=int).ravel()
        rest = np.array(remaining, dtype=int).ravel()
        values = np.array(uploaded_values, dtype=float).ravel()
        n = order.size + rest.size
        both = np.concatenate([order, rest])
        if n and not (0 <= both.min() and both.max() < n):
            raise ValueError(f"sensor indices must lie in [0, {n})")
        if np.any(np.bincount(both, minlength=n) != 1):  # each sensor exactly once
            raise ValueError("uploaded and remaining sensors must partition the field")
        if values.size != order.size:
            raise ValueError(f"{order.size} uploads but {values.size} values")
        mask = np.zeros(n, dtype=bool)
        mask[order] = True
        self._set(mask, order, values, round)

    def _set(self, mask, order, values, round):
        for arr in (mask, order, values):
            arr.setflags(write=False)
        self.mask, self.order, self.values, self.round = mask, order, values, round
        self._remaining = None
        self._views = {}

    @classmethod
    def fresh(cls, n_sensors: int) -> "DasState":
        if n_sensors < 1:
            raise ValueError("need at least one sensor")
        return cls._of(np.zeros(n_sensors, dtype=bool), np.empty(0, dtype=int),
                       np.empty(0), 0)

    @classmethod
    def _of(cls, mask, order, values, round) -> "DasState":
        state = cls.__new__(cls)
        state._set(mask, order, values, round)
        return state

    @property
    def n_sensors(self) -> int:
        return self.mask.size

    @property
    def remaining_index(self) -> np.ndarray:
        """Ascending indices of the sensors that have not uploaded."""
        if self._remaining is None:
            self._remaining = (~self.mask).nonzero()[0]
            self._remaining.setflags(write=False)
        return self._remaining

    @property
    def uploaded(self) -> tuple[int, ...]:
        return self._tuple("uploaded", self.order)

    @property
    def remaining(self) -> tuple[int, ...]:
        """Sorted ascending."""
        return self._tuple("remaining", self.remaining_index)

    @property
    def uploaded_values(self) -> tuple[float, ...]:
        return self._tuple("uploaded_values", self.values)

    def _tuple(self, name: str, arr: np.ndarray) -> tuple:
        """The tuple view ``name`` of ``arr``, built on first use."""
        if name not in self._views:
            self._views[name] = tuple(arr.tolist())
        return self._views[name]

    def __repr__(self):
        return (f"DasState(uploaded={self.uploaded}, remaining={self.remaining}, "
                f"uploaded_values={self.uploaded_values}, round={self.round})")

    def with_uploads(self, indices, values) -> "DasState":
        """New state after the given sensors upload; advances the round counter."""
        indices = [int(i) for i in indices]
        values = [float(v) for v in values]
        if len(indices) != len(values):
            raise ValueError("indices and values disagree in length")
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate upload indices: {indices}")
        mask = self.mask.copy()
        for i in indices:
            if not 0 <= i < mask.size or mask[i]:
                raise ValueError(f"sensor {i} is not awaiting upload")
            mask[i] = True
        return DasState._of(mask, _appended(self.order, indices),
                            _appended(self.values, values), self.round + 1)

    def check_against(self, field: SensorField):
        if self.n_sensors != field.n_sensors:
            raise ValueError(
                f"state tracks {self.n_sensors} sensors, field has {field.n_sensors}"
            )


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


def estimate(field: SensorField, state: DasState, params: KernelParams) -> FieldEstimate:
    """Reconstruct the full field from the uploads recorded in ``state``."""
    state.check_against(field)
    cond = _conditioner(field, state, params)
    rem = state.remaining_index
    return _pack_estimate(field, rem, cond.mean[rem], cond.variance[rem])


def _conditioner(field: SensorField, state: DasState, params: KernelParams,
                 extra_locs=None) -> IncrementalConditioner:
    """Conditioner over the sensors (then ``extra_locs``) holding ``state``'s uploads."""
    targets = field.locations if extra_locs is None else np.vstack([field.locations, extra_locs])
    cond = IncrementalConditioner(targets, params, field.noise_variance,
                                  capacity=state.order.size)
    for idx, value in zip(state.order.tolist(), state.values.tolist()):
        cond.observe(idx, value)
    return cond


def _max_variance_pick(var: np.ndarray, rem: np.ndarray) -> np.ndarray:
    """For each row of ``rem`` (S, m), one seed's candidates in ascending
    order, the one with the largest quantized variance, ``var`` (S, m)
    holding theirs; ties go to the lowest index."""
    return rem[np.arange(rem.shape[0]), np.argmax(quantize(var), axis=1)]


def _min_residual_pick(cond: IncrementalConditioner, rem: np.ndarray, weights,
                       betas) -> np.ndarray:
    """For each row of ``rem`` (S, m), the candidate minimizing the beta-weighted
    residual variance of that seed's weight rows; ties go to the lowest index."""
    scores = betas @ cond.residual_variance(weights, rem)
    return rem[np.arange(rem.shape[0]), np.argmin(quantize(scores), axis=-1)]


def _app_rows(weights, betas, n_sensors: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated application weight rows (a fresh copy) and their betas."""
    betas = np.asarray(betas, dtype=float).ravel()
    if len(weights) != betas.shape[0]:
        raise ValueError(f"{len(weights)} applications but {betas.shape[0]} betas")
    if not np.all(betas > 0):
        raise ValueError("betas must be positive")
    return np.array(weights, dtype=float).reshape(len(betas), n_sensors), betas


def select_max_variance(field: SensorField, state: DasState, params: KernelParams) -> int:
    """Sensor with the largest posterior variance among those not yet uploaded.

    This choice minimizes the next-round MSE in Lemma 1's sense: the current
    per-sensor variances summed, minus the uploaded sensor's own term.  (It
    need not minimize the variance sum after re-conditioning on the upload.)
    It depends only on locations, never on measured values.  Ties break
    toward the lowest sensor index.
    """
    state.check_against(field)
    if not state.remaining_index.size:
        raise ValueError("no sensors remaining")
    rem = state.remaining_index
    var = _conditioner(field, state, params).variance[rem]
    return int(_max_variance_pick(var[None], rem[None])[0])


def select_random(state: DasState, rng: np.random.Generator) -> int:
    """Uniform pick among the sensors that have not uploaded yet."""
    rem = state.remaining_index
    if not rem.size:
        raise ValueError("no sensors remaining")
    return int(rem[int(rng.integers(rem.size))])


def _virtual_rows(field: SensorField, virtual_locs) -> tuple[np.ndarray, np.ndarray]:
    """Virtual points, and unit weight rows on them as targets after the sensors."""
    virtual = as_points(virtual_locs, dim=field.dim)
    if virtual.shape[0] == 0:
        raise ValueError("virtual location set is empty")
    k = virtual.shape[0]
    return virtual, np.hstack([np.zeros((k, field.n_sensors)), np.eye(k)])


def select_virtual_target(
    field: SensorField,
    state: DasState,
    virtual_locs,
    params: KernelParams,
) -> int:
    """Candidate whose upload would most shrink uncertainty at virtual locations.

    Scores each remaining sensor by the trace of the posterior covariance
    over ``virtual_locs`` after hypothetically adding that sensor; the
    covariance of a Gaussian is measurement-free, so no value is needed.
    """
    state.check_against(field)
    if not state.remaining_index.size:
        raise ValueError("no sensors remaining")
    virtual, rows = _virtual_rows(field, virtual_locs)
    cond = _conditioner(field, state, params, virtual)
    return int(_min_residual_pick(cond, state.remaining_index[None], rows, np.ones(len(rows)))[0])


@dataclass
class DasRound:
    """One round of the collection loop: what was picked and what it bought."""

    round: int
    selected: int
    mse: float
    estimate: FieldEstimate | None = None


class DasBatchRound:
    """One round of the collection loop on a seed batch, as columns: entry s
    is seed s's pick, its MSE and, if the loop logs them, its field estimate
    (``estimates`` is None otherwise).  :meth:`logs` builds the per-seed
    :class:`DasRound` views."""

    __slots__ = ("round", "picks", "mse", "estimates")

    def __init__(self, round: int, picks: list, mse: list, estimates: list | None):
        self.round, self.picks, self.mse, self.estimates = round, picks, mse, estimates

    def logs(self) -> list[DasRound]:
        estimates = self.estimates or [None] * len(self.picks)
        return [DasRound(self.round, *entry) for entry in zip(self.picks, self.mse, estimates)]


def run_das(
    field: SensorField,
    policy,
    rounds: int,
    params: KernelParams,
    rng: np.random.Generator | None = None,
    virtual_locs=None,
    log_estimates: bool = False,
    apps=None,
) -> list[DasRound]:
    """Run the collection loop for ``rounds`` rounds and log each round.

    ``policy`` is one of ``POLICIES`` or a callable
    ``(field, state, params, rng) -> sensor index``.  ``apps`` is the pair
    ``(weights, betas)`` the app-weighted policy needs: one weight row per
    application over the sensors, and the positive betas that sum their
    output MSEs.  One incremental conditioner carries the posterior and
    scores every policy.  This runs the round loop of :func:`run_das_batches`
    on a batch of one field.
    """
    if policy == "random" and rng is None:
        rng = np.random.default_rng()
    logs = []
    for rnd, failed in _play([field], [rng], policy, rounds, params, virtual_locs,
                             log_estimates, apps):
        if failed:
            raise ValueError(failed[0])
        logs += rnd.logs()
    return logs


def run_das_batches(seeds, make_field, policy, rounds: int, params: KernelParams,
                    virtual_locs=None, log_estimates: bool = False, apps=None):
    """:func:`run_das` for every seed, the seeds played in lockstep batches,
    each round yielded as the batch's columns.

    Seed ``seed`` gets the generator ``np.random.default_rng(seed)``, which
    builds its field through ``make_field(rng)`` and then draws the random
    policy's picks, exactly as a run of its own would, so every seed's
    numbers are bit-identical to its own :func:`run_das`.  The fields must
    share their number of sensors and noise variance.  A batch holds as many
    seeds as fit a 4 MB budget (:func:`_in_flight`) over their factors
    (``rounds`` rows over the targets each) and, for the scored policies,
    their priors (targets squared), so a large field plays one seed at a
    time; batches are of near-equal size.

    Yields ``(batch, fields, t, round, failed)`` for each round t of each
    batch, as :func:`play_seed_batches` does: ``round`` is the batch's
    :class:`DasBatchRound`, whose ``logs()`` gives each seed's
    :class:`DasRound`.  ``failed`` maps the row of each seed whose run failed
    in round t to the ``ValueError`` message its own :func:`run_das` would
    raise; that row's entries, from round t on, belong to no run, and the
    other seeds play on.
    """
    def in_flight(field: SensorField) -> int:
        n = field.n_sensors
        if policy == "virtual" and virtual_locs is not None:
            n += as_points(virtual_locs, dim=field.dim).shape[0]
        return _in_flight(n, rounds, policy in ("app-weighted", "virtual"))

    return play_seed_batches(seeds, make_field, in_flight, lambda fields, rngs: _play(
        fields, rngs, policy, rounds, params, virtual_locs, log_estimates, apps))


def _in_flight(n_targets: int, rows: int, scored: bool = False) -> int:
    """Most seeds a batch may play at once: as many as fit ``_BATCH_BYTES``
    at each seed's worst case, ``rows`` factor rows and a posterior mean and
    variance over ``n_targets`` targets, and a prior over them (targets
    squared) if ``scored``.  Factor rows become resident only once written,
    so a batch holds less than this until its seeds fill their rows."""
    per_seed = 8 * n_targets * (rows + 2 + (n_targets if scored else 0))
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
    pick for the whole batch at once, the random and callable policies seed
    by seed.  After each round, yields the batch's :class:`DasBatchRound`
    and the fields (rows) whose run failed in that round, with messages.  A
    failed row observes nothing afterwards; its picks go on, unlogged, so
    the rows keep one length of sensors left, and the others play on,
    unchanged by it.
    """
    first = fields[0]
    n = first.n_sensors
    if not 1 <= rounds <= n:
        raise ValueError(f"rounds must be in [1, {n}], got {rounds}")
    if isinstance(policy, str) and policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if any(f.n_sensors != n or f.noise_variance != first.noise_variance for f in fields):
        raise ValueError("a seed batch needs fields of one size and noise variance")
    n_seeds = len(fields)
    targets = np.stack([f.locations for f in fields])
    if policy == "virtual":
        if virtual_locs is None:
            raise ValueError("virtual policy needs virtual_locs")
        virtual, weights = _virtual_rows(first, virtual_locs)
        targets = np.concatenate(
            [targets, np.broadcast_to(virtual, (n_seeds, *virtual.shape))], axis=1)
        betas = np.ones(len(weights))
    elif policy == "app-weighted":
        if apps is None:
            raise ValueError("app-weighted policy needs apps")
        rows, betas = _app_rows(*apps, n)
        weights = np.repeat(rows[None], n_seeds, axis=0)  # each seed zeroes its own uploads

    cond = IncrementalConditioner(targets, params, first.noise_variance, capacity=rounds)
    meas = np.stack([f.measurements for f in fields])
    # The one record of the uploads: which sensors are still waiting, laid over
    # every target so that its flat positions index the conditioner's (S, n_t)
    # arrays; the upload order; the measured values.
    n_t = targets.shape[1]
    waiting = np.zeros((n_seeds, n_t), dtype=bool)
    waiting[:, :n] = True
    order = np.zeros((n_seeds, rounds), dtype=int)
    values = np.zeros((n_seeds, rounds))
    seeds = np.arange(n_seeds)
    offsets = seeds * n_t  # flat position of each row's first target
    flat = np.flatnonzero(waiting).reshape(n_seeds, n)  # each row's sensors still waiting
    var = cond.variance.take(flat)  # and their variances
    ended: set[int] = set()
    for t in range(rounds):
        if policy == "max-variance":
            picks = _max_variance_pick(var, flat) - offsets
        else:
            rem = flat - offsets[:, None]
            if callable(policy):
                picks = np.array([rem[s, 0] if s in ended else _called_pick(
                    policy, fields[s], params, rngs[s], ~waiting[s, :n], order[s, :t],
                    values[s, :t]) for s in range(n_seeds)])
            elif policy == "random":
                picks = np.array([rem[s, 0] if s in ended else rem[s, int(rng.integers(n - t))]
                                  for s, rng in enumerate(rngs)])
            else:
                picks = _min_residual_pick(cond, rem, weights, betas)
        measured = meas[seeds, picks]
        waiting[seeds, picks] = False
        order[:, t] = picks
        values[:, t] = measured
        live = [s for s in range(n_seeds) if s not in ended] if ended else seeds
        failed = cond.observe(picks[live], measured[live], live)  # a failed seed's run ends
        ended.update(failed)
        if policy == "app-weighted":
            weights[seeds, :, picks] = 0.0  # an uploaded entry carries no error
        flat = np.flatnonzero(waiting).reshape(n_seeds, n - t - 1)
        var = cond.variance.take(flat)
        estimates = [_pack_estimate(fields[s], flat[s] - offsets[s],
                                    cond.mean.take(flat[s]), var[s])
                     for s in range(n_seeds)] if log_estimates else None
        yield DasBatchRound(t + 1, picks.tolist(), var.sum(axis=1).tolist(), estimates), failed


def _called_pick(policy, field: SensorField, params: KernelParams, rng, mask, order,
                 values) -> int:
    """A callable policy's pick for one seed, given that seed's row of the
    upload record (``mask`` a fresh array) as a :class:`DasState`, checked
    against its uploads."""
    state = DasState._of(mask, order.copy(), values.copy(), order.size)
    idx = int(policy(field, state, params, rng))
    if not 0 <= idx < state.n_sensors or state.mask[idx]:
        raise ValueError(f"sensor {idx} is not awaiting upload")
    return idx
