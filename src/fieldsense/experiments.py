"""Experiment orchestration: configs, seed batches, and result files.

A run configuration names an experiment family (1-D / 2-D / CSV field
collection, virtual-target collection, or ALOHA uploading), the field and
kernel parameters, one or more selection policies or contention modes, and a
seed batch.  Running it produces per-seed per-round records plus per-round
aggregates (mean and population standard deviation), either as CSV or JSON.
Outputs are canonicalized so identical configs yield identical bytes.

Config files are flat ``key = value`` text; the shipped presets use the same
key set and can be overridden by a file or command-line flags.
"""

import csv
import itertools
import json
import os
import pickle
import threading
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timezone
from operator import attrgetter

import numpy as np

from . import aloha as aloha_mod
from . import das as das_mod
from .apps import LinearApplication, uniform_mean_application
from .fields import FieldSpec, load_csv
from .gp import KernelParams

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


class ConfigError(ValueError):
    """Raised for any malformed or inconsistent run configuration."""


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

    @property
    def kernel_params(self) -> KernelParams:
        return KernelParams(self.length_scale, self.signal_variance)

    @property
    def field_spec(self) -> FieldSpec:
        kind = {"das-1d": "1d", "das-virtual": "1d", "das-2d": "2d",
                "das-csv": "csv", "aloha": "sinusoid"}[self.experiment]
        return FieldSpec(kind, self.L, self.sigma_sq, self.T, self.csv_path)


@dataclass(frozen=True, slots=True)
class RunRecord:
    seed: int
    round: int
    metric: str
    value: float
    extra: str = ""


@dataclass(frozen=True, slots=True)
class AggRecord:
    metric: str
    round: int
    mean: float
    std: float
    n: int


@dataclass
class RunResult:
    records: list[RunRecord]
    aggregates: list[AggRecord]
    failures: list[tuple[int, str, str]] = dc_field(default_factory=list)


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


def _build_apps(config: ExperimentConfig, n_sensors: int) -> list[LinearApplication]:
    apps = []
    for spec in config.app_specs:
        idx = _app_index(spec)
        if idx is None:
            apps.append(uniform_mean_application(n_sensors))
        elif not 0 <= idx < n_sensors:
            raise ConfigError(f"app {spec!r} names no sensor of the L = {n_sensors} field")
        else:
            w = np.zeros(n_sensors)
            w[idx] = 1.0
            apps.append(LinearApplication(w, spec))
    return apps


def check_app_indices(config: ExperimentConfig):
    """Reject ``e:<index>`` apps naming no sensor of a synthetic field, before a run
    (the config accepts them, and a batch run reports each seed's failure)."""
    if config.experiment not in ("aloha", "das-csv"):
        _build_apps(config, config.L)


def _run_das_records(config: ExperimentConfig) -> tuple[list[RunRecord], list]:
    records: list[RunRecord] = []
    failures = []
    params = config.kernel_params
    spec = config.field_spec
    # csv fields are the same for every seed; parse once
    csv_field = load_csv(spec.path, spec.noise_variance) if spec.kind == "csv" else None
    make_field = spec.build if csv_field is None else (lambda rng: csv_field)
    n_sensors = config.L if csv_field is None else csv_field.n_sensors
    rounds = min(config.rounds, n_sensors)
    want_holdout = csv_field is not None
    for policy in config.policies:
        start, failed, done = len(records), {}, set()
        try:
            apps = None
            if policy == "app-weighted":
                apps = ([app.weights for app in _build_apps(config, n_sensors)], config.betas)
            runs = das_mod.run_das_seeds(
                config.seeds, make_field, policy, rounds, params,
                virtual_locs=config.virtual, log_estimates=want_holdout, apps=apps,
            )
            for seed, field, t, log in runs:
                if isinstance(log, ValueError):
                    failed[seed] = str(log)
                    continue
                extra = f"selected={log.selected}"
                records.append(RunRecord(seed, t, f"mse.{policy}", log.mse, extra))
                if want_holdout:
                    records.append(RunRecord(seed, t, f"holdout-mse.{policy}",
                                             _holdout_mse(field, log.estimate), extra))
                if t == rounds:
                    done.add(seed)
        except Exception as exc:  # noqa: BLE001 - reported for every seed it stopped
            for seed in config.seeds:
                if seed not in done:
                    failed.setdefault(seed, str(exc))
        if failed:  # reported per seed; a failed seed writes no records
            records[start:] = [r for r in records[start:] if r.seed not in failed]
            failures += [(seed, policy, failed[seed])
                         for seed in config.seeds if seed in failed]
    return records, failures


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


def _aloha_cell(config: ExperimentConfig, cell: _Cell) -> tuple[list[tuple], list]:
    """Every seed's records of one cell, as ``RunRecord`` field tuples (cheap
    to pickle), and its per-seed failures in seed order."""
    settings = config.aloha
    metric = _aloha_metric(cell.mode, settings, cell.b, cell.q)
    rows, failed = [], {}
    runs = aloha_mod.run_aloha_seeds(config.seeds, config.field_spec.build,
                                     settings.contention(cell.b, cell.q, cell.mode),
                                     config.rounds, config.kernel_params)
    for seed, _, t, log in runs:
        if isinstance(log, ValueError):
            failed[seed] = str(log)
            continue
        succ = "|".join(map(str, log.successes))
        k = len(log.successes) + len(log.collided)  # the active count
        rows.append((seed, t, metric, log.sse, f"succ={succ};psi={log.psi!r};k={k}"))
    if failed:  # reported per seed; a failed seed writes no records
        rows = [row for row in rows if row[0] not in failed]
    return rows, [(seed, metric, failed[seed]) for seed in config.seeds if seed in failed]


def _run_aloha_records(config: ExperimentConfig) -> tuple[list[RunRecord], list]:
    settings = config.aloha
    cells = [_Cell(b, q, mode) for b, q, mode in
             itertools.product(settings.b_values, settings.q_values, settings.modes)]
    done = iter(_map_in_shares(lambda cell: _aloha_cell(config, cell), cells))
    records: list[RunRecord] = []
    failures = []
    for b, q in itertools.product(settings.b_values, settings.q_values):
        for _ in settings.modes:
            rows, cell_failures = next(done)
            records += itertools.starmap(RunRecord, rows)
            failures += cell_failures
        bound = aloha_mod.sse_lower_bound(config.sigma_sq, q, b)
        bound_metric = _aloha_metric("lower-bound", settings, b, q)
        records += [RunRecord(seed, t, bound_metric, bound, "")
                    for seed in config.seeds for t in range(1, config.rounds + 1)]
    return records, failures


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
        for w, pid in enumerate(list(children), start=1):
            read_fd, children[pid] = children[pid], None
            with os.fdopen(read_fd, "rb") as fh:
                data = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            out[w::shares] = _child_results(data, status, cells[w::shares])
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


def _child_results(data: bytes, status: int, cells) -> list:
    """A child's results from its payload and exit status (as
    ``os.waitstatus_to_exitcode`` gives it); raises if it did not finish."""
    try:
        kind, value = pickle.loads(data) if status == 0 else (None, None)
    except Exception:  # noqa: BLE001 - a truncated payload
        kind = value = None
    if kind == "ok":
        return value
    if kind == "error":
        raise RuntimeError(value)
    ended = f"exit status {status}" if status >= 0 else f"signal {-status}"
    raise RuntimeError(f"cells {', '.join(map(str, cells))}: the process running them "
                       f"ended ({ended}) without returning their results")


def aggregate(records: list[RunRecord]) -> list[AggRecord]:
    """Per-(metric, round) mean and population standard deviation."""
    groups: dict[tuple[str, int], list[float]] = {}
    for rec in records:
        groups.setdefault((rec.metric, rec.round), []).append(rec.value)
    out = []
    for (metric, rnd) in sorted(groups):
        vals = np.asarray(groups[(metric, rnd)])
        out.append(AggRecord(metric, rnd, float(vals.mean()),
                             float(vals.std(ddof=0)), vals.size))
    return out


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Execute every (policy-or-mode, seed) run in the config.

    Deterministic given the config: each seed gets its own generator, so seed
    batches can be split and concatenated without changing any record.  An
    ALOHA sweep's (B, Q, mode) cells are shared out between this process and
    forked children, one per further usable CPU, with the same records
    however they are split.  Per-seed failures are collected rather than
    aborting the batch.
    """
    if config.experiment == "aloha":
        records, failures = _run_aloha_records(config)
    else:
        records, failures = _run_das_records(config)
    # Stable passes, least significant key first: the order of sorting by
    # (seed, round, metric), without a key tuple per record.
    for name in ("metric", "round", "seed"):
        records.sort(key=attrgetter(name))
    return RunResult(records, aggregate(records), failures)


# ---------------------------------------------------------------------------
# emitting


def emit_results(result: RunResult, fmt: str, path, timestamp: bool = False):
    """Write records to ``path`` and aggregates to ``path + '.agg'``.

    CSV columns: seed,round,metric,value,extra (aggregates:
    metric,round,mean,std,n).  JSON mirrors the same rows as object lists.
    Output bytes are deterministic unless ``timestamp`` is set.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    stamp = datetime.now(timezone.utc).isoformat() if timestamp else None
    agg_path = str(path) + ".agg"
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if stamp:
                fh.write(f"# generated {stamp}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["seed", "round", "metric", "value", "extra"])
            for r in result.records:
                writer.writerow([r.seed, r.round, r.metric, repr(r.value), r.extra])
        with open(agg_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["metric", "round", "mean", "std", "n"])
            for a in result.aggregates:
                writer.writerow([a.metric, a.round, repr(a.mean), repr(a.std), a.n])
    else:
        records = [
            {"seed": r.seed, "round": r.round, "metric": r.metric,
             "value": r.value, "extra": r.extra}
            for r in result.records
        ]
        payload = {"generated": stamp, "records": records} if stamp else records
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
        aggs = [
            {"metric": a.metric, "round": a.round, "mean": a.mean,
             "std": a.std, "n": a.n}
            for a in result.aggregates
        ]
        with open(agg_path, "w", encoding="utf-8") as fh:
            json.dump(aggs, fh, sort_keys=True, indent=1)
            fh.write("\n")


def read_records_csv(path) -> list[RunRecord]:
    """Re-parse a CSV records file (the round-trip inverse of emit_results)."""
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    for row in rows[1:]:
        out.append(RunRecord(int(row[0]), int(row[1]), row[2], float(row[3]), row[4]))
    return out
