"""Round-by-round data-aided sensing: one sensor uploads per round, chosen so
the reconstruction of the whole field improves as fast as possible.

The round state is one array record of the uploads (an upload mask, the
upload order and the measured values), so a round costs one mask copy and
one append, and the loop indexes the conditioner with the ascending array of
sensors still missing.  The field estimate
copies uploaded measurements verbatim and fills the rest with GP posterior
means; its MSE is the sum of the posterior variances of the sensors still
missing.  Selection policies pick the largest current variance (which
minimizes next-round MSE in Lemma 1's sense: the current variances minus the
picked sensor's own term), pick by uniform chance, or minimize the variance
left at virtual target locations or in application outputs.  All of them
score every candidate at once from one incremental conditioner, by the
rank-one update the candidate's upload would make to the posterior
covariance.
"""

from dataclasses import dataclass

import numpy as np

from .fields import SensorField
from .gp import IncrementalConditioner, KernelParams, as_points

# Variance scores are snapped to this grid before argmax/argmin so that
# selection traces do not flip on platform-dependent last-bit noise.
_QUANTUM = 1e-12

POLICIES = ("max-variance", "random", "app-weighted", "virtual")


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
        if np.unique(both).size != n:
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
    cond = IncrementalConditioner(targets, params, field.noise_variance)
    for idx, value in zip(state.order.tolist(), state.values.tolist()):
        cond.observe(idx, value)
    return cond


def _max_variance_pick(cond: IncrementalConditioner, rem: np.ndarray) -> int:
    return int(rem[int(np.argmax(quantize(cond.variance[rem])))])


def _min_residual_pick(cond: IncrementalConditioner, rem: np.ndarray, weights, betas) -> int:
    """Candidate minimizing the beta-weighted residual variance of the weight rows."""
    scores = betas @ cond.residual_variance(weights, rem)
    return int(rem[int(np.argmin(quantize(scores)))])


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
    return _max_variance_pick(_conditioner(field, state, params), state.remaining_index)


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
    return _min_residual_pick(cond, state.remaining_index, rows, np.ones(len(rows)))


@dataclass
class DasRound:
    """One round of the collection loop: what was picked and what it bought."""

    round: int
    selected: int
    mse: float
    estimate: FieldEstimate | None = None


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
    scores every policy.
    """
    n = field.n_sensors
    if not 1 <= rounds <= n:
        raise ValueError(f"rounds must be in [1, {n}], got {rounds}")
    if isinstance(policy, str) and policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if policy == "random" and rng is None:
        rng = np.random.default_rng()
    virtual = None
    if policy == "virtual":
        if virtual_locs is None:
            raise ValueError("virtual policy needs virtual_locs")
        virtual, rows = _virtual_rows(field, virtual_locs)
        betas = np.ones(len(rows))
    elif policy == "app-weighted":
        if apps is None:
            raise ValueError("app-weighted policy needs apps")
        rows, betas = _app_rows(*apps, n)

    state = DasState.fresh(n)
    cond = _conditioner(field, state, params, virtual)
    logs: list[DasRound] = []
    for _ in range(rounds):
        rem = state.remaining_index
        if callable(policy):
            idx = int(policy(field, state, params, rng))
        elif policy == "random":
            idx = select_random(state, rng)
        elif policy == "max-variance":
            idx = _max_variance_pick(cond, rem)
        else:
            idx = _min_residual_pick(cond, rem, rows, betas)
        value = float(field.measurements[idx])
        state = state.with_uploads([idx], [value])
        cond.observe(idx, value)
        if policy == "app-weighted":
            rows[:, idx] = 0.0  # an uploaded entry carries no error
        left = state.remaining_index
        var = cond.variance[left]
        est = _pack_estimate(field, left, cond.mean[left], var) if log_estimates else None
        logs.append(DasRound(state.round, idx, float(np.sum(var)), est))
    return logs
