"""Multichannel slotted-ALOHA uploading with prediction feedback.

Each round the base station invites Q candidate sensors.  In conventional
mode every candidate transmits with probability B/Q; in modified mode the
station broadcasts its current prediction of each candidate's measurement
plus a shared dual variable, and each sensor derives its own upload
probability from its squared prediction error.  Active sensors pick one of B
channels uniformly; a channel with two or more transmitters loses all of
them.  The dual variable is driven by dual ascent to hold the expected
number of active sensors near the channel count.
"""

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .das import _in_flight, play_seed_batches
from .fields import SensorField
from .gp import IncrementalConditioner, KernelParams

MODES = ("conventional", "modified")


@dataclass(frozen=True)
class AlohaConfig:
    """Contention parameters for one simulation."""

    channels: int
    candidates: int
    p_sleep: float = 0.0
    mu: float = 0.5
    psi0: float = 0.0
    mode: str = "conventional"

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError(f"channels must be at least 1, got {self.channels}")
        if self.candidates < 1:
            raise ValueError(f"candidates must be at least 1, got {self.candidates}")
        if not 0.0 <= self.p_sleep < 1.0:
            raise ValueError(f"p_sleep must be in [0, 1), got {self.p_sleep}")
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not math.isfinite(self.psi0):
            raise ValueError(f"psi0 must be finite, got {self.psi0}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


def equal_upload_probability(cfg: AlohaConfig) -> float:
    """Throughput-optimal common upload probability, B/Q capped at 1."""
    return min(1.0, cfg.channels / cfg.candidates)


def expected_throughput(p_up: float, cfg: AlohaConfig) -> float:
    """Mean successful uploads per round when all Q sensors use ``p_up``.

    S = p_up * Q * (1 - p_up / B)^(Q - 1); at p_up = B/Q this approaches
    B/e for large Q.
    """
    if not 0.0 <= p_up <= 1.0:
        raise ValueError(f"p_up must be in [0, 1], got {p_up}")
    return p_up * cfg.candidates * (1.0 - p_up / cfg.channels) ** (cfg.candidates - 1)


def sleep_adjusted_q(channels: int, p_sleep: float) -> int:
    """Candidate-set size keeping the expected active count at B under sleep.

    Q = B / (1 - p_sleep), rounded, never below B.
    """
    if channels < 1:
        raise ValueError(f"channels must be at least 1, got {channels}")
    if not 0.0 <= p_sleep < 1.0:
        raise ValueError(f"p_sleep must be in [0, 1), got {p_sleep}")
    return max(channels, round(channels / (1.0 - p_sleep)))


def per_sensor_success_probability(p_vec, channels: int) -> np.ndarray:
    """Probability that each sensor uploads without collision.

    s_q = p_q * prod_{t != q} (1 - p_t / B), from independence of the
    per-sensor transmit decisions.
    """
    p = np.asarray(p_vec, dtype=float).ravel()
    if p.size and (p.min() < 0 or p.max() > 1):
        raise ValueError("upload probabilities must lie in [0, 1]")
    factors = 1.0 - p / channels
    out = np.empty_like(p)
    for q in range(p.size):
        out[q] = p[q] * np.prod(np.delete(factors, q))
    return out


def upload_probabilities(err_sq, psi: float) -> np.ndarray:
    """Per-sensor upload probabilities from squared prediction errors.

    p = clamp(e * (ln(e_sq) - psi), 0, 1); a zero error never transmits.
    """
    err_sq = np.asarray(err_sq, dtype=float)
    if err_sq.size and err_sq.min() < 0:
        raise ValueError(f"squared errors must be nonnegative, got {err_sq.min()}")
    with np.errstate(divide="ignore"):
        raw = math.e * (np.log(err_sq) - psi)  # -inf at zero error, clipped below
    return np.minimum(np.maximum(raw, 0.0), 1.0)  # np.clip's values, without its wrapper


def dual_ascent_step(psi, K, channels: int, mu: float):
    """One dual-ascent update, psi + mu * (K - B), K the observed active count.

    ``psi`` and ``K`` are floats, or arrays with one entry per seed.
    """
    if np.min(K) < 0:
        raise ValueError(f"active count must be nonnegative, got {np.min(K)}")
    return psi + mu * (K - channels)


def _alone(active, draws, channels: int) -> np.ndarray:
    """The contention rule: the active sensors that have their drawn channel
    to themselves.  A channel drawn by two or more active sensors loses them all.

    On a 2-D batch each row contends on channels of its own.
    """
    rows = 1
    if draws.ndim == 2:
        rows = draws.shape[0]
        draws = draws + np.arange(0, channels * rows, channels)[:, None]
    counts = np.bincount(draws[active], minlength=channels * rows)
    return active & (counts[draws] == 1)


class AlohaBatchRound:
    """One contention round of a seed batch, as columns: entry or row s is seed s's.

    ``candidates`` (S, width) holds each seed's candidates in its first
    ``lens[s]`` entries; ``predictions``, ``errors``, ``probabilities``,
    ``activity``, ``draws`` (the channels drawn) and ``success`` are
    (S, width) arrays over them, a shorter row's padding never active.
    ``successes``, ``sse``, ``psi`` and ``active`` hold each seed's
    successes in candidate order, its SSE, the dual value it used and its
    active count.
    """

    __slots__ = ("candidates", "lens", "predictions", "errors", "probabilities", "activity",
                 "draws", "success", "successes", "sse", "psi", "active")

    def __init__(self, candidates, lens, predictions, errors, probabilities, activity, draws,
                 success, successes, sse, psi, active):
        self.candidates, self.lens, self.predictions = candidates, lens, predictions
        self.errors, self.probabilities, self.activity = errors, probabilities, activity
        self.draws, self.success, self.successes = draws, success, successes
        self.sse, self.psi, self.active = sse, psi, active


def _play_round(cand, lens, meas, mask, psi, cfg: AlohaConfig, cond: IncrementalConditioner,
                rngs) -> tuple[AlohaBatchRound, dict[int, str]]:
    """One contention round for every seed of a batch, one row per seed.

    ``cand`` (S, width) holds each seed's candidates in its first ``lens[s]``
    entries (the rest are padding, any sensor), ``meas`` (S, n) its field's
    measurements and ``mask`` (S, n) its record of which sensors have
    uploaded; ``psi`` (S,) is each seed's dual variable and ``rngs`` its
    generator.  Each generator draws sleep, activity and channels for its
    own candidates; the rest runs once for the batch, on (S, width) arrays:
    predictions and measurements gathered at the candidates' flat
    positions, upload probabilities, contention and the dual step.  Every
    success is then observed on ``cond`` in one call, each seed's in
    candidate order; a seed whose observation fails takes no further one.
    Each seed's SSE sums its squared errors outside its successes, in
    candidate order.  ``mask``, ``psi`` and ``cond`` are updated in place.
    Each seed's candidates must be distinct sensors that have not uploaded;
    it is not checked here.

    Returns the batch's round and, for the seeds whose upload the
    conditioner could not take, their messages by row.
    """
    n_seeds, width = cand.shape
    valid = np.arange(width) < np.array(lens)[:, None] if min(lens) < width else True
    at = cand + np.arange(0, meas.size, meas.shape[1])[:, None]  # flat positions over (S, n)

    # Each seed's own draws, in its generator's order, into its rows; padding
    # never transmits.  One draw of 2k uniforms is the sleep draw of k then the
    # activity draw of k: a generator hands out doubles one after another,
    # keeping nothing back, so each row draws them as two.
    u_sleep, u_active = np.ones((2, n_seeds, width))
    draws = np.zeros((n_seeds, width), dtype=int)
    for rng, k, sleep, act, drawn in zip(rngs, lens, u_sleep, u_active, draws):
        rng.random(out=sleep[:k])
        rng.random(out=act[:k])
        drawn[:k] = rng.integers(0, cfg.channels, size=k)

    predictions = cond.mean.take(at)
    measured = meas.take(at)
    errors = predictions - measured
    err_sq = errors**2
    if cfg.mode == "conventional":
        probabilities = np.full((n_seeds, width), equal_upload_probability(cfg))
    else:
        probabilities = upload_probabilities(err_sq, psi[:, None])
    # uniforms lie in [0, 1): without sleep, no sensor sleeps
    awake = np.where(u_sleep < cfg.p_sleep, 0.0, probabilities)
    active = u_active < awake
    success = _alone(active, draws, cfg.channels)

    who = success.nonzero()[0]  # row-major: each seed's successes in candidate order
    sensors = cand[success]
    mask[who, sensors] = True
    failed = cond.observe(sensors, measured[success], who)

    psi_used = psi.tolist()
    k = active.sum(axis=1)
    if cfg.mode == "modified":
        psi[:] = dual_ascent_step(psi, k, cfg.channels, cfg.mu)
    successes = _grouped(n_seeds, who, sensors)
    missed = ~success if valid is True else valid & ~success
    lost = err_sq[missed]  # row-major: each seed's squared errors are one run
    ends = list(itertools.accumulate(q - len(won) for q, won in zip(lens, successes)))
    total = np.add.reduce  # a slice's sum, as ndarray.sum gives it
    sse = [float(total(lost[a:b])) for a, b in zip([0, *ends], ends)]
    return AlohaBatchRound(cand, lens, predictions, errors, probabilities, active, draws, success,
                           successes, sse, psi_used, k.tolist()), failed


def _drawn(mask, q: int, rngs, ended) -> tuple[np.ndarray, list[int]]:
    """Each seed's candidates: a uniform random subset of at most ``q`` of its
    sensors still waiting (all of them once fewer remain), drawn from its
    generator, ascending.  Returns them as the rows of one array, padded
    with any sensor, and each row's length; a seed in ``ended`` draws none.

    A seed draws positions among its waiting sensors, ``choice`` over their
    count: the draw and its stream are those of ``choice`` over the sensors
    themselves, which returns the sensors at those positions.  Every seed's
    waiting sensors are one ascending run of flat positions over the (S, n)
    mask, and one search finds where each seed's run starts.
    """
    n_seeds, n = mask.shape
    rest = (~mask).ravel().nonzero()[0]
    starts = rest.searchsorted(np.arange(0, mask.size + 1, n))
    bounds = starts.tolist()
    left = [b - a for a, b in zip(bounds, bounds[1:])]
    lens = [0 if s in ended else min(q, k) for s, k in enumerate(left)]
    pick = np.empty((n_seeds, max(lens)), dtype=int)
    pick.fill(n)  # padding sorts last
    for rng, k, n_left, row in zip(rngs, lens, left, pick):
        if k:
            row[:k] = rng.choice(n_left, size=k, replace=False)
    pick.sort(axis=1)
    pick += starts[:-1, None]
    return rest.take(pick, mode="clip") % n, lens


def _grouped(n_seeds: int, who: np.ndarray, items: np.ndarray) -> list[list[int]]:
    """``items`` split into one list per seed by ``who`` (ascending, as nonzero gives)."""
    out: list[list[int]] = [[] for _ in range(n_seeds)]
    for s, item in zip(who.tolist(), items.tolist()):
        out[s].append(item)
    return out


def sse_lower_bound(sigma_sq: float, Q: int, channels: int) -> float:
    """Residual error floor when predictions are perfect: sigma^2 (Q - B/e).

    Only collision losses remain at that point.  Negative values (possible
    when B/e exceeds Q, outside the intended Q >= B regime) clamp to zero
    with a warning.
    """
    if sigma_sq < 0:
        raise ValueError(f"sigma_sq must be nonnegative, got {sigma_sq}")
    if Q < 1 or channels < 1:
        raise ValueError("Q and channels must be at least 1")
    raw = sigma_sq * (Q - channels / math.e)
    if raw < 0:
        warnings.warn(
            f"SSE bound clamped to 0: B/e = {channels / math.e:.3f} exceeds Q = {Q}",
            stacklevel=2,
        )
        return 0.0
    return raw


def run_aloha_batches(seeds, make_field, cfg: AlohaConfig, rounds: int, params: KernelParams):
    """Simulate ``rounds`` contention rounds on every seed's field, the seeds
    played in lockstep batches, and yield each round as the batch's columns.

    Each round's candidates are a uniform random subset of size Q of the
    sensors that have not uploaded yet, drawn from the seed's generator (all
    of them once fewer than Q remain).  Once the pool is exhausted, rounds
    proceed with empty candidate sets and zero SSE.  One conditioner over
    the sensors carries the predictions across rounds.  Seed ``seed`` gets
    the generator ``np.random.default_rng(seed)``, which builds its field
    through ``make_field(rng)`` and then draws its rounds, so every seed's
    numbers are bit-identical to those of its batch of one, ``[seed]``.  The
    seeds play in batches of near-equal size, each holding as many seeds as
    fit the 4 MB budget of :func:`fieldsense.das._in_flight` at their worst
    case, ``min(L, rounds * B)`` factor rows each (B successes a round at
    most), so memory follows that bound, not the number of seeds.

    Yields ``(batch, fields, t, round, failed)`` for each round t of each
    batch, as :func:`fieldsense.das.play_seed_batches` does: ``round`` is
    the batch's :class:`AlohaBatchRound`.  ``failed`` maps the row of each
    seed whose run failed in round t to its ``ValueError`` message; that
    row's entries, from round t on, belong to no run, and the other seeds
    play on.
    """
    return play_seed_batches(
        seeds, make_field, lambda field: _in_flight(field.n_sensors, _capacity(field, cfg, rounds)),
        lambda fields, rngs: _play(fields, rngs, cfg, rounds, params))


def _capacity(field: SensorField, cfg: AlohaConfig, rounds: int) -> int:
    """The most uploads a seed's run can take: B a round, each sensor once."""
    return min(field.n_sensors, rounds * cfg.channels)


def _play(fields, rngs, cfg: AlohaConfig, rounds: int, params: KernelParams):
    """Play ``rounds`` rounds on each field with its generator, all fields at once.

    Each round, every seed draws its candidates from its own generator
    (:func:`_drawn`) and the batch contends in one :func:`_play_round`.
    After each round, yields the batch's :class:`AlohaBatchRound` and the
    fields (rows) whose run failed in that round, with messages.  A failed
    row draws and observes nothing afterwards, with no candidates; the
    others play on, unchanged by it.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    first = fields[0]
    if any(f.n_sensors != first.n_sensors or f.noise_variance != first.noise_variance
           for f in fields):
        raise ValueError("a seed batch needs fields of one size and noise variance")
    cond = IncrementalConditioner(np.stack([f.locations for f in fields]), params,
                                  first.noise_variance, capacity=_capacity(first, cfg, rounds))
    meas = np.stack([f.measurements for f in fields])
    mask = np.zeros(meas.shape, dtype=bool)  # the one record of the uploads
    psi = np.full(len(fields), float(cfg.psi0))
    ended: set[int] = set()
    for _ in range(rounds):
        cand, lens = _drawn(mask, cfg.candidates, rngs, ended)
        rnd, failed = _play_round(cand, lens, meas, mask, psi, cfg, cond, rngs)
        ended.update(failed)
        yield rnd, failed
