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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .das import DasState
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
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class DualState:
    """The shared dual variable and its update history."""

    psi: float
    history: tuple[tuple[int, int, float], ...] = ()  # (round, K, psi after update)


@dataclass
class AlohaRound:
    """Everything that happened in one contention round."""

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
    return np.clip(raw, 0.0, 1.0)


def dual_ascent_step(state: DualState, K: int, channels: int, mu: float) -> DualState:
    """One dual-ascent update: psi += mu * (K - B), K the observed active count."""
    if K < 0:
        raise ValueError(f"active count must be nonnegative, got {K}")
    psi = state.psi + mu * (K - channels)
    return DualState(psi, state.history + ((len(state.history) + 1, int(K), psi),))


def contend(p_vec, channels: int, rng: np.random.Generator):
    """One slotted contention: activity draws, then channel draws.

    Returns (active, channel, success) arrays; ``channel`` is -1 for
    inactive sensors.  Both random vectors are drawn at full length so the
    stream position never depends on the outcomes.
    """
    p = np.asarray(p_vec, dtype=float).ravel()
    n = p.size
    active = rng.random(n) < p
    draws = rng.integers(0, channels, size=n)
    counts = np.bincount(draws[active], minlength=channels)
    success = active & (counts[draws] == 1)
    channel = np.where(active, draws, -1)
    return active, channel, success


def simulate_round(
    candidates,
    field: SensorField,
    state: DasState,
    dual: DualState,
    cfg: AlohaConfig,
    cond: IncrementalConditioner,
    rng: np.random.Generator,
) -> tuple[AlohaRound, DasState, DualState]:
    """Play one contention round and fold the successful uploads into ``state``.

    ``cond`` is the run's conditioner over the sensors, in lockstep with
    ``state`` (holding exactly its uploads, else ``ValueError``): its means are
    the predictions fed back, and each success is observed on it in place.
    Random draws happen in a fixed order (sleep, activity, channels), each at
    full candidate length, so switching modes does not shift unrelated draws.
    """
    state.check_against(field)
    if cond.n_observations != state.order.size:
        raise ValueError(
            f"conditioner holds {cond.n_observations} observations, "
            f"state has {state.order.size} uploads"
        )
    cand = [int(c) for c in candidates]
    if len(set(cand)) != len(cand):
        raise ValueError(f"duplicate candidates: {cand}")
    cand_arr = np.array(cand, dtype=int)
    for c in cand:
        if not 0 <= c < state.n_sensors or state.mask[c]:
            raise ValueError(f"candidate {c} is not a remaining sensor")
    n = len(cand)
    predictions = cond.mean[cand_arr]
    errors = predictions - field.measurements[cand_arr]
    if cfg.mode == "conventional":
        probabilities = np.full(n, equal_upload_probability(cfg))
    else:
        probabilities = upload_probabilities(errors**2, dual.psi)

    dormant = rng.random(n) < cfg.p_sleep
    active, channel, success = contend(np.where(dormant, 0.0, probabilities), cfg.channels, rng)

    successes = [int(i) for i in cand_arr[success]]
    collided = [int(i) for i in cand_arr[active & ~success]]
    new_state = state.with_uploads(successes, field.measurements[successes])
    for i in successes:
        cond.observe(i, float(field.measurements[i]))
    new_dual = dual
    if cfg.mode == "modified":
        new_dual = dual_ascent_step(dual, int(active.sum()), cfg.channels, cfg.mu)
    sse = float(np.sum(errors[~success] ** 2))
    round_log = AlohaRound(
        candidates=cand,
        predictions=predictions,
        errors=errors,
        probabilities=probabilities,
        activity=active,
        channel_choice=channel,
        successes=successes,
        collided=collided,
        sse=sse,
        psi=dual.psi,
    )
    return round_log, new_state, new_dual


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


def run_aloha(
    field: SensorField,
    cfg: AlohaConfig,
    rounds: int,
    params: KernelParams,
    rng: np.random.Generator,
    candidate_policy=None,
) -> list[AlohaRound]:
    """Simulate ``rounds`` contention rounds on one field.

    Candidates default to a uniform random subset of size Q from the sensors
    that have not uploaded yet (all of them once fewer than Q remain); a
    callable ``(field, state, rng) -> index list`` overrides that.  Once the
    pool is exhausted, rounds proceed with empty candidate sets and zero SSE.
    One conditioner over the sensors carries the predictions across rounds.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    state = DasState.fresh(field.n_sensors)
    cond = IncrementalConditioner(field.locations, params, field.noise_variance)
    dual = DualState(cfg.psi0)
    logs: list[AlohaRound] = []
    for _ in range(rounds):
        if candidate_policy is not None:
            cand = list(candidate_policy(field, state, rng))
        elif state.remaining_index.size:
            rem = state.remaining_index
            k = min(cfg.candidates, rem.size)
            cand = sorted(int(i) for i in rng.choice(rem, size=k, replace=False))
        else:
            cand = []
        round_log, state, dual = simulate_round(cand, field, state, dual, cfg, cond, rng)
        logs.append(round_log)
    return logs
