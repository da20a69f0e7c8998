"""Experiment orchestration: configs, seed batches, and the cells that run them.

A run configuration names an experiment family (1-D / 2-D / CSV field
collection, virtual-target collection, or ALOHA uploading), the field and
kernel parameters, one or more selection policies or contention modes, and a
seed batch.  Running it produces per-seed per-round records plus per-round
aggregates (mean and population standard deviation), written as CSV or JSON
by :mod:`fieldsense.records`.  Outputs are canonicalized so identical configs
yield identical bytes.

Config files are flat ``key = value`` text; the shipped presets use the same
key set and can be overridden by a file or command-line flags.
"""

import functools
import itertools
import os
import pickle
import threading
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import aloha as aloha_mod
from . import das as das_mod
from .fields import FieldSpec, load_csv
from .gp import KernelParams
from .records import (  # noqa: F401 - the records' own names are this module's too
    AggRecord,
    RunRecord,
    RunResult,
    build_block,
    constant_block,
    emit_results,
    read_records_csv,
)

EXPERIMENTS = ("das-1d", "das-2d", "das-csv", "das-virtual", "aloha")

# Every figure-style experiment ships as a preset config; values use the
# same flat key=value vocabulary as config files.
PRESETS = {
    "fig2": {
        "experiment": "das-1d", "L": "100", "sigma2": "0.01",
        "rounds": "100", "policy": "max-variance,random", "seeds": "1",
    },
    "fig3": {
        "experiment": "das-2d", "L": "100", "sigma2": "0.1",
        "rounds": "20", "policy": "max-variance,random", "seeds": "1",
    },
    "fig4": {
        "experiment": "das-1d", "L": "30", "sigma2": "0.1",
        "rounds": "30", "policy": "max-variance,random", "seeds": "1..1000",
    },
    "fig6": {
        "experiment": "aloha", "L": "200", "sigma2": "0.1", "T": "10",
        "rounds": "40", "B": "3", "Q": "10", "mu": "0.5", "psi0": "0",
        "mode": "conventional,modified", "seeds": "1..1000",
    },
    "fig7": {
        "experiment": "aloha", "L": "200", "sigma2": "0.1", "T": "10",
        "rounds": "40", "B": "1,2,3,4,5", "Q": "10", "mu": "0.5", "psi0": "0",
        "mode": "conventional,modified", "seeds": "1..1000",
    },
    "fig8": {
        "experiment": "aloha", "L": "200", "sigma2": "0.1", "T": "10",
        "rounds": "40", "B": "4", "Q": "4,6,8,10,12", "mu": "0.5", "psi0": "0",
        "mode": "conventional,modified", "seeds": "1..1000",
    },
}

_DAS_KEYS = {"experiment", "policy", "rounds", "seeds", "L", "sigma2", "T",
             "csv", "length_scale", "signal_variance", "virtual", "apps",
             "betas", "out", "format"}
_ALOHA_KEYS = {"experiment", "rounds", "seeds", "L", "sigma2", "T",
               "length_scale", "signal_variance", "B", "Q", "p_sleep", "mu",
               "psi0", "mode", "out", "format"}

DEFAULT_VIRTUAL_1D = ((1.0,), (3.0,), (5.0,), (7.0,), (9.0,))

# The most bytes of fields a run keeps, in each of its processes, to build
# each seed's field once for all of its cells.
_BUILT_BYTES = 16 * 2**20


class ConfigError(ValueError):
    """Raised for any malformed or inconsistent run configuration."""


def _check_distinct(name: str, values, error):
    """Raise ``error`` if a value repeats: each names one metric's records."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise error(f"{name} {value!r} is repeated; each names one set of records")


def _app_index(spec: str) -> int | None:
    """Sensor index of an ``e:<index>`` app spec; None for the ``mean`` app."""
    if spec == "mean":
        return None
    if spec.startswith("e:") and spec[2:].isdecimal():
        return int(spec[2:])
    raise ConfigError(f"unknown app spec {spec!r} (use 'mean' or 'e:<index>')")


@dataclass(frozen=True)
class AlohaSettings:
    b_values: tuple[int, ...]
    q_values: tuple[int, ...]
    p_sleep: float = 0.0
    mu: float = 0.5
    psi0: float = 0.0
    modes: tuple[str, ...] = ("conventional",)

    def __post_init__(self):
        for name, values in (("B", self.b_values), ("Q", self.q_values), ("mode", self.modes)):
            _check_distinct(name, values, ValueError)
        for b, q, mode in itertools.product(self.b_values, self.q_values, self.modes):
            self.contention(b, q, mode)  # AlohaConfig rejects any bad value

    def contention(self, b: int, q: int, mode: str) -> aloha_mod.AlohaConfig:
        """Contention parameters of one (B, Q, mode) cell of the sweep."""
        return aloha_mod.AlohaConfig(
            channels=b, candidates=q, p_sleep=self.p_sleep, mu=self.mu,
            psi0=self.psi0, mode=mode,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    rounds: int
    seeds: tuple[int, ...]
    L: int = 100
    sigma_sq: float = 0.1
    T: int = 10
    policies: tuple[str, ...] = ("max-variance",)
    csv_path: str | None = None
    length_scale: float = 1.0
    signal_variance: float = 1.0
    virtual: tuple[tuple[float, ...], ...] | None = None
    app_specs: tuple[str, ...] = ("mean",)
    betas: tuple[float, ...] = (1.0,)
    aloha: AlohaSettings | None = None
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.rounds < 1:
            raise ConfigError(f"rounds must be at least 1, got {self.rounds}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        _check_seeds(self.seeds)
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        if (self.aloha is not None) != (self.experiment == "aloha"):
            raise ConfigError("aloha settings go with the aloha experiment only")
        try:  # building them checks the kernel and field values
            self.kernel_params
            self.field_spec
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.experiment == "aloha":
            return
        for p in self.policies:
            if p not in das_mod.POLICIES:
                raise ConfigError(f"unknown policy {p!r}; expected one of {das_mod.POLICIES}")
        _check_distinct("policy", self.policies, ConfigError)
        if self.experiment == "das-csv" and not self.csv_path:
            raise ConfigError("das-csv needs a csv path")
        if "virtual" in self.policies and self.virtual is None:
            raise ConfigError("the virtual policy needs virtual locations")
        if len(self.app_specs) != len(self.betas):
            raise ConfigError(
                f"{len(self.app_specs)} apps but {len(self.betas)} betas"
            )
        for spec in self.app_specs:
            _app_index(spec)
        try:
            das_mod._positive_betas(self.betas)
            domain = self.field_spec.domain  # None for a CSV field: its file sets the dimension
            if self.virtual is not None and domain is not None:
                das_mod._virtual_points(self.virtual, len(domain))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def kernel_params(self) -> KernelParams:
        return KernelParams(self.length_scale, self.signal_variance)

    @property
    def field_spec(self) -> FieldSpec:
        kind = {"das-1d": "1d", "das-virtual": "1d", "das-2d": "2d",
                "das-csv": "csv", "aloha": "sinusoid"}[self.experiment]
        return FieldSpec(kind, self.L, self.sigma_sq, self.T, self.csv_path)


# ---------------------------------------------------------------------------
# config parsing


def load_config_file(path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file; '#' starts a comment line."""
    mapping: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            mapping[key.strip()] = value.strip()
    return mapping


def parse_seeds(spec: str) -> tuple[int, ...]:
    """Seed spec: a single integer, 'a..b' (inclusive), or a comma list.

    Seeds are non-negative and distinct: each names one run, and a batch
    reports its failures by seed.
    """
    spec = str(spec).strip()
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ConfigError(f"empty seed range {spec!r}")
            seeds = tuple(range(lo, hi + 1))
        elif "," in spec:
            seeds = tuple(int(s) for s in spec.split(","))
        else:
            seeds = (int(spec),)
    except ValueError:
        raise ConfigError(f"bad seed spec {spec!r}") from None
    _check_seeds(seeds)
    return seeds


def _check_seeds(seeds):
    seen = set()
    for seed in seeds:
        if seed < 0:
            raise ConfigError(f"seed {seed} is negative; seeds are non-negative integers")
        if seed in seen:
            raise ConfigError(f"seed {seed} is repeated; each seed names one run")
        seen.add(seed)


def _parse_points(spec: str) -> tuple[tuple[float, ...], ...]:
    points = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if chunk:
            points.append(tuple(float(c) for c in chunk.split(",")))
    return tuple(points)


def _split_list(spec: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in str(spec).split(",") if s.strip())


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from a flat key=value mapping."""
    m = dict(mapping)
    experiment = m.get("experiment")
    if experiment is None:
        raise ConfigError("config is missing the 'experiment' key")
    allowed = _ALOHA_KEYS if experiment == "aloha" else _DAS_KEYS
    unknown = set(m) - allowed
    if unknown:
        raise ConfigError(
            f"unknown keys for {experiment}: {', '.join(sorted(unknown))}"
        )
    try:
        L = int(m.get("L", 100))
        sigma_sq = float(m.get("sigma2", 0.1))
        T = int(m.get("T", 10))
        length_scale = float(m.get("length_scale", 1.0))
        signal_variance = float(m.get("signal_variance", 1.0))
        default_rounds = 40 if experiment == "aloha" else L
        rounds = int(m.get("rounds", default_rounds))
    except ValueError as exc:
        raise ConfigError(f"bad numeric value: {exc}") from None
    seeds = parse_seeds(m.get("seeds", "1"))

    common = dict(
        experiment=experiment, rounds=rounds, seeds=seeds, L=L,
        sigma_sq=sigma_sq, T=T, length_scale=length_scale,
        signal_variance=signal_variance, out=m.get("out"),
        fmt=m.get("format", "csv"),
    )
    if experiment == "aloha":
        try:
            settings = AlohaSettings(
                b_values=tuple(int(v) for v in _split_list(m.get("B", "3"))),
                q_values=tuple(int(v) for v in _split_list(m.get("Q", "10"))),
                p_sleep=float(m.get("p_sleep", 0.0)),
                mu=float(m.get("mu", 0.5)),
                psi0=float(m.get("psi0", 0.0)),
                modes=_split_list(m.get("mode", "conventional")),
            )
        except ValueError as exc:
            raise ConfigError(f"bad aloha value: {exc}") from None
        if not settings.b_values or not settings.q_values:
            raise ConfigError("aloha needs at least one B and one Q")
        return ExperimentConfig(aloha=settings, **common)

    policies = _split_list(m.get("policy", ""))
    if not policies:
        policies = ("virtual",) if experiment == "das-virtual" else ("max-variance",)
    virtual = DEFAULT_VIRTUAL_1D if experiment == "das-virtual" else None
    try:
        if "virtual" in m:
            virtual = _parse_points(m["virtual"])
        betas = tuple(float(b) for b in _split_list(m.get("betas", "1")))
    except ValueError as exc:
        raise ConfigError(f"bad numeric value: {exc}") from None
    return ExperimentConfig(
        policies=policies,
        csv_path=m.get("csv"),
        virtual=virtual,
        app_specs=_split_list(m.get("apps", "mean")),
        betas=betas,
        **common,
    )


# ---------------------------------------------------------------------------
# running


def _build_apps(config: ExperimentConfig, n_sensors: int) -> list[np.ndarray]:
    """One weight row over the sensors per app spec: 1/L everywhere for the
    field mean, a unit entry for ``e:<index>``."""
    rows = []
    for spec in config.app_specs:
        idx = _app_index(spec)
        if idx is None:
            rows.append(np.full(n_sensors, 1.0 / n_sensors))
        elif not 0 <= idx < n_sensors:
            raise ConfigError(f"app {spec!r} names no sensor of the L = {n_sensors} field")
        else:
            w = np.zeros(n_sensors)
            w[idx] = 1.0
            rows.append(w)
    return rows


def check_app_indices(config: ExperimentConfig):
    """Reject ``e:<index>`` apps naming no sensor of a synthetic field, before a run
    (the config accepts them, and a batch run reports each seed's failure)."""
    if config.experiment not in ("aloha", "das-csv"):
        _build_apps(config, config.L)


def _holdout_mse(field, est) -> float:
    held = est.per_sensor_variance > 0
    if not np.any(held):
        return 0.0
    diff = est.values[held] - field.measurements[held]
    return float(np.mean(diff**2))


def _aloha_metric(mode: str, settings: AlohaSettings, b: int, q: int) -> str:
    name = f"sse.{mode}"
    if len(settings.b_values) > 1:
        name += f".B{b}"
    if len(settings.q_values) > 1:
        name += f".Q{q}"
    return name


@dataclass(frozen=True)
class _Cell:
    """One (B, Q, mode) cell of an ALOHA sweep."""

    b: int
    q: int
    mode: str

    def __str__(self):
        return f"B={self.b} Q={self.q} {self.mode}"


def _run_cell(config: ExperimentConfig, make_field, n_sensors: int, cell) -> tuple:
    """Every seed's records of one cell as a record block, their aggregates,
    and the cell's per-seed failures in the config's seed order.

    A cell is a DAS policy, which labels its failures, or an ALOHA
    :class:`_Cell`, whose metric labels them.  Its seed batches' rounds
    arrive as columns, one entry per seed, and a batch's record slots are
    written once it has played; no per-seed round log is built.  A seed
    whose run raises ``ValueError`` fails alone; so does every seed of
    ``app-weighted`` if an app names no sensor of the field.
    """
    failed = {}
    if isinstance(cell, _Cell):
        rounds, label = config.rounds, _aloha_metric(cell.mode, config.aloha, cell.b, cell.q)
        metrics, row = (label,), _aloha_row
        runs = aloha_mod.run_aloha_batches(config.seeds, make_field,
                                           config.aloha.contention(cell.b, cell.q, cell.mode),
                                           rounds, config.kernel_params)
    else:
        rounds, label = min(config.rounds, n_sensors), cell
        holdout = config.experiment == "das-csv"
        metrics, row = (f"mse.{cell}", f"holdout-mse.{cell}")[:1 + holdout], _das_row
        try:
            apps = ((_build_apps(config, n_sensors), config.betas)
                    if cell == "app-weighted" else None)
        except ConfigError as exc:  # an app names no sensor: every seed fails alike
            runs, failed = (), dict.fromkeys(config.seeds, str(exc))
        else:
            runs = das_mod.run_das_batches(config.seeds, make_field, cell, rounds,
                                           config.kernel_params, virtual_locs=config.virtual,
                                           log_estimates=holdout, apps=apps)
    seeds = sorted(config.seeds)
    place = {seed: i for i, seed in enumerate(seeds)}
    # each metric's (seed, round) grid and the extras', seeds ascending
    values = np.zeros((len(metrics), len(seeds), rounds))
    extras = np.full((len(seeds), rounds), "", dtype=object)
    played = []  # the current batch's rows, round by round
    for batch, fields, t, rnd, batch_failed in runs:
        for r, message in batch_failed.items():
            failed[batch[r]] = message
        played.append(row(fields, rnd))
        if t == rounds:  # a batch plays every round: its slots are all known
            at = [place[seed] for seed in batch]
            values[:, at] = np.array([vals for vals, _ in played]).transpose(1, 2, 0)
            extras[at] = np.array([extra for _, extra in played], dtype=object).T
            played = []
    extras = extras.ravel().tolist()
    block, aggs = build_block(seeds, rounds, {metric: (grid.ravel().tolist(), extras)
                                              for metric, grid in zip(metrics, values)}, failed)
    return block, aggs, [(seed, label, failed[seed]) for seed in config.seeds if seed in failed]


def _das_row(fields, rnd) -> tuple:
    """A DAS batch round's MSEs, with holdout MSEs if it logged its estimates,
    and each seed's extra."""
    mse = (rnd.mse,) if rnd.estimates is None else (
        rnd.mse, list(map(_holdout_mse, fields, rnd.estimates)))
    return mse, [f"selected={pick}" for pick in rnd.picks]


def _aloha_row(fields, rnd) -> tuple:
    """An ALOHA batch round's SSEs, with each seed's successes, psi and active count."""
    return (rnd.sse,), [f"succ={'|'.join(map(str, succ))};psi={psi!r};k={k}"
                        for succ, psi, k in zip(rnd.successes, rnd.psi, rnd.active)]


def _field_source(config: ExperimentConfig, n_cells: int) -> tuple:
    """How ``n_cells`` cells get each seed's field, and its number of sensors.

    A CSV field, the same for every seed, is parsed once.  A synthetic field
    is built once per seed in each process if more than one cell uses it,
    and afresh for each call otherwise, so a one-cell run keeps no field.
    """
    spec = config.field_spec
    if spec.kind == "csv":
        field = load_csv(spec.path, spec.noise_variance)
        return (lambda rng: field), field.n_sensors
    return (_built_once(spec.build) if n_cells > 1 else spec.build), config.L


def _built_once(make_field):
    """``make_field``, building each seed's field once for all the calls it gets.

    Every call gets a seed's fresh generator, whose state identifies the
    seed.  The first call for a seed builds the field and keeps it with the
    state the build left the generator in; a later one returns that field
    and moves its generator to that state, so every later draw is as it
    would have been.  Fields are kept up to ``_BUILT_BYTES`` in all.
    """
    built = {}

    def make(rng):
        bitgen = rng.bit_generator
        start = bitgen.state["state"]
        key = start["state"], start["inc"]
        if key in built:
            field, bitgen.state = built[key]
            return field
        field = make_field(rng)
        size = field.locations.nbytes + field.true_means.nbytes + field.measurements.nbytes
        if (len(built) + 1) * size <= _BUILT_BYTES:
            built[key] = field, bitgen.state
        return field

    return make


def _shares(n_cells: int) -> int:
    """How many processes ``n_cells`` independent cells are split between: one
    per CPU this process may run on, at most one per cell.  One where fork is
    missing, or unsafe because another thread runs (a forked child inherits
    whatever locks it holds)."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(n_cells, len(os.sched_getaffinity(0)))


def _run_share(fn, cells) -> list:
    """``[fn(cell) for cell in cells]``; an exception names the cell it came from."""
    out = []
    for cell in cells:
        try:
            out.append(fn(cell))
        except Exception as exc:  # noqa: BLE001 - re-raised with the cell named
            raise RuntimeError(f"cell {cell}: {exc}") from exc
    return out


def _map_in_shares(fn, cells: list) -> list:
    """``[fn(cell) for cell in cells]``, the cells dealt out in turn between
    this process and one forked child per further share (:func:`_shares`).

    Each child runs its share, sends the pickled results up its own pipe and
    leaves through ``os._exit``, so it flushes no buffer of its parent's and
    runs no exit handler.  Results come back in cell order.  A cell that
    raises in a child raises here, naming it; a child that dies or sends a
    truncated payload raises, naming its cells.  Every child is reaped before
    this returns or raises, and killed first if its results are not needed.
    """
    shares = _shares(len(cells))
    if shares < 2:
        return _run_share(fn, cells)
    children: dict[int, int | None] = {}  # pid -> read end of its pipe, until closed
    try:
        for w in range(1, shares):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child
                code = 1
                try:
                    for fd in (read_fd, *children.values()):
                        os.close(fd)
                    try:
                        payload = ("ok", _run_share(fn, cells[w::shares]))
                    except Exception as exc:  # noqa: BLE001 - reported to the parent
                        payload = ("error", str(exc))
                    with os.fdopen(write_fd, "wb") as fh:
                        fh.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children[pid] = read_fd
        out = [None] * len(cells)
        out[0::shares] = _run_share(fn, cells[0::shares])
        del fn  # and what it holds, before the children's results arrive
        for w, pid in enumerate(list(children), start=1):
            read_fd, children[pid] = children[pid], None
            with os.fdopen(read_fd, "rb") as fh:
                try:  # unpickled from the pipe as it arrives: the bytes are never held
                    payload = pickle.load(fh)
                except Exception:  # noqa: BLE001 - a truncated payload
                    payload = None
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            out[w::shares] = _child_results(payload, status, cells[w::shares])
        return out
    finally:
        if children:
            import signal  # only on this error path, so a run imports nothing new

            for pid, read_fd in children.items():
                if read_fd is not None:
                    os.close(read_fd)
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                os.waitpid(pid, 0)


def _child_results(payload, status: int, cells) -> list:
    """A child's results from its unpickled payload (None if it was
    truncated) and exit status (as ``os.waitstatus_to_exitcode`` gives it);
    raises if it did not finish."""
    kind, value = payload if status == 0 and payload is not None else (None, None)
    if kind == "ok":
        return value
    if kind == "error":
        raise RuntimeError(value)
    ended = f"exit status {status}" if status >= 0 else f"signal {-status}"
    raise RuntimeError(f"cells {', '.join(map(str, cells))}: the process running them "
                       f"ended ({ended}) without returning their results")


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Execute every (policy-or-mode, seed) run in the config.

    Deterministic given the config: each seed gets its own generator, so seed
    batches can be split and concatenated without changing any record.  An
    ALOHA sweep's (B, Q, mode) cells are shared out between this process and
    forked children, one per further usable CPU, with the same records
    however they are split; a DAS run's policies run here.  Each cell
    formats its records' lines and reduces their aggregates where it runs.
    A seed's failure is collected rather than aborting the batch; any other
    error in a cell raises, naming the cell.
    """
    settings = config.aloha
    if settings is None:  # one cell for each DAS policy, all run here
        cells, run_cells = list(config.policies), _run_share
    else:
        cells = [_Cell(b, q, mode) for b, q, mode in
                 itertools.product(settings.b_values, settings.q_values, settings.modes)]
        run_cells = _map_in_shares
    # only run_cells holds the field source, so _map_in_shares drops the fields
    # it keeps before the children's results arrive
    done = run_cells(functools.partial(_run_cell, config, *_field_source(config, len(cells))),
                     cells)
    blocks = [block for block, _, _ in done]
    aggs = [agg for _, cell_aggs, _ in done for agg in cell_aggs]
    failures = [failure for _, _, cell_failures in done for failure in cell_failures]
    if settings is not None:
        seeds = sorted(config.seeds)
        for b, q in itertools.product(settings.b_values, settings.q_values):
            block, bound_aggs = constant_block(
                seeds, config.rounds, _aloha_metric("lower-bound", settings, b, q),
                aloha_mod.sse_lower_bound(config.sigma_sq, q, b))
            blocks.append(block)
            aggs += bound_aggs
    aggs.sort(key=attrgetter("metric"))  # stable: each metric's rounds stay ascending
    return RunResult(blocks, aggs, failures)
