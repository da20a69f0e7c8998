"""The record pipeline against a plain-Python oracle.

For small random DAS and ALOHA configs, each seed's records are recomputed
from its own single-seed run (``run_das`` / ``run_aloha`` with the seed's
fresh generator), sorted by (seed, round, metric), and written with
``csv.writer`` and ``json.dump``; the aggregates are numpy's ``mean`` and
``std`` of each (metric, round) group in ascending seed order.  The batched,
celled and merged pipeline (``run_experiment`` then ``emit_results``) must
give the same records, aggregates and bytes.
"""

import csv
import io
import itertools
import json
import math
import os

import numpy as np
import pytest

import fieldsense.experiments
import fieldsense.gp
from fieldsense.aloha import AlohaConfig, run_aloha
from fieldsense.cli import main
from fieldsense.das import run_das
from fieldsense.experiments import (
    AggRecord,
    RunRecord,
    config_from_mapping,
    emit_results,
    run_experiment,
)
from fieldsense.fields import load_csv

from test_das import poisoning_observe

SHARES = (1, 3)  # this process alone, and with two forked children
# csv.writer quotes a field holding any of these; no metric or extra may.
QUOTED = (",", '"', "\r", "\n")


def scattered_seeds(rng, n):
    """``n`` distinct seeds, out of order and not contiguous, as a seed spec."""
    return ",".join(map(str, rng.choice(60, size=n, replace=False).tolist()))


def random_das_mapping(rng):
    experiment = ["das-1d", "das-2d", "das-virtual"][int(rng.integers(3))]
    L = int(rng.integers(8, 20))
    policies = ["max-variance", "random", "app-weighted"]
    if experiment == "das-virtual":
        policies.append("virtual")
    chosen = rng.choice(policies, size=int(rng.integers(1, len(policies) + 1)), replace=False)
    return {"experiment": experiment, "L": str(L), "sigma2": str(rng.choice([0.01, 0.1])),
            "rounds": str(int(rng.integers(3, L + 1))), "policy": ",".join(chosen),
            "apps": "mean,e:2", "betas": "1,0.5",
            "seeds": scattered_seeds(rng, int(rng.integers(2, 6)))}


def random_aloha_mapping(rng):
    b_values = sorted(rng.choice(np.arange(1, 5), size=int(rng.integers(1, 3)), replace=False))
    q_values = sorted(rng.choice(np.arange(3, 9), size=int(rng.integers(1, 3)), replace=False))
    modes = [["conventional"], ["modified"], ["conventional", "modified"]][int(rng.integers(3))]
    return {"experiment": "aloha", "L": str(int(rng.integers(15, 40))), "sigma2": "0.1",
            "rounds": str(int(rng.integers(4, 12))), "B": ",".join(map(str, b_values)),
            "Q": ",".join(map(str, q_values)), "mode": ",".join(modes),
            "p_sleep": str(rng.choice([0.0, 0.3])), "mu": "0.5", "psi0": "0.2",
            "seeds": scattered_seeds(rng, int(rng.integers(2, 6)))}


RNG = np.random.default_rng(20261019)
DAS_MAPPINGS = [random_das_mapping(RNG) for _ in range(4)]
ALOHA_MAPPINGS = [random_aloha_mapping(RNG) for _ in range(4)]


def own_das_records(config):
    """Every (policy, seed) run's records, each seed on a run of its own; a
    seed whose run raises ``ValueError`` writes none."""
    spec = config.field_spec
    csv_field = load_csv(spec.path, spec.noise_variance) if spec.kind == "csv" else None
    records = []
    for policy in config.policies:
        for seed in config.seeds:
            rng = np.random.default_rng(seed)
            field = csv_field if csv_field is not None else spec.build(rng)
            n = field.n_sensors
            apps = None
            if policy == "app-weighted":
                weights = []
                for app in config.app_specs:
                    if app == "mean":
                        weights.append(np.full(n, 1.0 / n))
                    else:
                        w = np.zeros(n)
                        w[int(app[2:])] = 1.0
                        weights.append(w)
                apps = (weights, config.betas)
            try:
                logs = run_das(field, policy, min(config.rounds, n), config.kernel_params,
                               rng=rng, virtual_locs=config.virtual,
                               log_estimates=csv_field is not None, apps=apps)
            except ValueError:
                continue
            for log in logs:
                extra = f"selected={log.selected}"
                records.append(RunRecord(seed, log.round, f"mse.{policy}", log.mse, extra))
                if csv_field is not None:
                    est = log.estimate
                    held = est.per_sensor_variance > 0
                    diff = est.values[held] - field.measurements[held]
                    holdout = float(np.mean(diff**2)) if held.any() else 0.0
                    records.append(RunRecord(seed, log.round, f"holdout-mse.{policy}",
                                             holdout, extra))
    return records


def own_aloha_records(config):
    """Every (B, Q, mode, seed) run's records, each seed on a run of its own,
    and each (B, Q)'s bound records for every seed; a seed whose run raises
    ``ValueError`` writes no records of that cell."""
    s = config.aloha
    records = []
    for b, q in itertools.product(s.b_values, s.q_values):
        label = ((f".B{b}" if len(s.b_values) > 1 else "")
                 + (f".Q{q}" if len(s.q_values) > 1 else ""))
        for mode in s.modes:
            cfg = AlohaConfig(b, q, s.p_sleep, s.mu, s.psi0, mode)
            for seed in config.seeds:
                rng = np.random.default_rng(seed)
                field = config.field_spec.build(rng)
                try:
                    logs = run_aloha(field, cfg, config.rounds, config.kernel_params, rng)
                except ValueError:
                    continue
                for t, log in enumerate(logs, start=1):
                    succ = "|".join(map(str, log.successes))
                    k = len(log.successes) + len(log.collided)
                    records.append(RunRecord(seed, t, f"sse.{mode}{label}", log.sse,
                                             f"succ={succ};psi={log.psi!r};k={k}"))
        bound = max(0.0, config.sigma_sq * (q - b / math.e))
        records += [RunRecord(seed, t, f"sse.lower-bound{label}", bound, "")
                    for seed in config.seeds for t in range(1, config.rounds + 1)]
    return records


def expected(records):
    """The records sorted by (seed, round, metric), and their aggregates."""
    records = sorted(records, key=lambda r: (r.seed, r.round, r.metric))
    groups = {}
    for rec in records:  # ascending seed order within each group
        groups.setdefault((rec.metric, rec.round), []).append(rec.value)
    aggs = [AggRecord(metric, rnd, float(np.mean(vals)), float(np.std(vals)), len(vals))
            for (metric, rnd), vals in sorted(groups.items())]
    return records, aggs


def written(records, aggs, fmt):
    """The records file and ``.agg`` file, as ``csv.writer`` or ``json.dump`` write them."""
    out, agg = io.StringIO(), io.StringIO()
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["seed", "round", "metric", "value", "extra"])
        writer.writerows([r.seed, r.round, r.metric, repr(r.value), r.extra] for r in records)
        writer = csv.writer(agg, lineterminator="\n")
        writer.writerow(["metric", "round", "mean", "std", "n"])
        writer.writerows([a.metric, a.round, repr(a.mean), repr(a.std), a.n] for a in aggs)
    else:
        rows = [{"seed": r.seed, "round": r.round, "metric": r.metric, "value": r.value,
                 "extra": r.extra} for r in records]
        json.dump(rows, out, sort_keys=True, indent=1)
        out.write("\n")
        json.dump([{"metric": a.metric, "round": a.round, "mean": a.mean, "std": a.std,
                    "n": a.n} for a in aggs], agg, sort_keys=True, indent=1)
        agg.write("\n")
    return out.getvalue().encode(), agg.getvalue().encode()


def check_pipeline(config, own, tmp_path):
    records, aggs = expected(own)
    assert records, "the oracle wrote no records"
    for rec in records:
        assert not any(c in rec.metric or c in rec.extra for c in QUOTED), rec
    result = run_experiment(config)
    assert result.records == records
    assert result.aggregates == aggs
    for fmt in ("csv", "json"):
        path = tmp_path / f"r.{fmt}"
        emit_results(result, fmt, path)
        want, want_agg = written(records, aggs, fmt)
        assert path.read_bytes() == want
        assert (tmp_path / f"r.{fmt}.agg").read_bytes() == want_agg
    return result


def split_between(monkeypatch, shares):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(shares)))
    assert fieldsense.experiments._shares(10) == shares


@pytest.mark.parametrize("mapping", DAS_MAPPINGS, ids=[m["experiment"] for m in DAS_MAPPINGS])
def test_das_pipeline_matches_the_oracle(mapping, tmp_path):
    config = config_from_mapping(mapping)
    result = check_pipeline(config, own_das_records(config), tmp_path)
    assert not result.failures


def test_das_csv_pipeline_matches_the_oracle(tmp_path):
    rng = np.random.default_rng(5)
    xy = rng.uniform(0, 5, size=(30, 2))
    path = tmp_path / "stations.csv"
    path.write_text("".join(f"{a},{b},{v}\n" for (a, b), v in
                            zip(xy, np.sin(xy[:, 0]) + rng.normal(0, 0.05, 30))))
    config = config_from_mapping({
        "experiment": "das-csv", "csv": str(path), "sigma2": "0.01", "rounds": "8",
        "policy": "random,max-variance,app-weighted", "apps": "mean,e:7", "betas": "1,1",
        "seeds": "5,2,11"})
    check_pipeline(config, own_das_records(config), tmp_path)


@pytest.mark.parametrize("shares", SHARES)
@pytest.mark.parametrize("mapping", ALOHA_MAPPINGS, ids=[f"B{m['B']}-Q{m['Q']}-{m['mode']}"
                                                        for m in ALOHA_MAPPINGS])
def test_aloha_pipeline_matches_the_oracle(mapping, shares, tmp_path, monkeypatch):
    split_between(monkeypatch, shares)
    config = config_from_mapping(mapping)
    result = check_pipeline(config, own_aloha_records(config), tmp_path)
    assert not result.failures


@pytest.mark.parametrize("shares", SHARES)
def test_failed_aloha_seed_matches_the_oracle(shares, tmp_path, monkeypatch):
    mapping = {"experiment": "aloha", "L": "60", "sigma2": "0.1", "rounds": "40", "B": "3",
               "Q": "10", "mode": "conventional,modified", "seeds": "9,4,1,7,3"}
    config = config_from_mapping(mapping)
    doomed = config.field_spec.build(np.random.default_rng(4))
    split_between(monkeypatch, shares)
    monkeypatch.setattr(fieldsense.gp.IncrementalConditioner, "observe",
                        poisoning_observe(doomed.locations, at=3))
    own = own_aloha_records(config)
    assert {r.metric for r in own if r.seed == 4} == {"sse.lower-bound"}
    result = check_pipeline(config, own, tmp_path)
    assert [(seed, label) for seed, label, _ in result.failures] == [
        (4, "sse.conventional"), (4, "sse.modified")]


def test_failed_das_seed_matches_the_oracle(tmp_path, monkeypatch):
    mapping = {"experiment": "das-1d", "L": "30", "sigma2": "0.1", "rounds": "20",
               "policy": "max-variance,random", "seeds": "7,4,2,9"}
    config = config_from_mapping(mapping)
    doomed = config.field_spec.build(np.random.default_rng(4))
    monkeypatch.setattr(fieldsense.gp.IncrementalConditioner, "observe",
                        poisoning_observe(doomed.locations, at=3))
    own = own_das_records(config)
    assert not [r for r in own if r.seed == 4]
    result = check_pipeline(config, own, tmp_path)
    assert [(seed, label) for seed, label, _ in result.failures] == [
        (4, "max-variance"), (4, "random")]


def test_an_empty_result_writes_the_headers_alone(tmp_path):
    result = fieldsense.experiments.RunResult([], [], [(2, "mse.random", "boom")])
    for fmt in ("csv", "json"):
        path = tmp_path / f"r.{fmt}"
        emit_results(result, fmt, path)
        assert path.read_bytes() == written([], [], fmt)[0]
        assert (tmp_path / f"r.{fmt}.agg").read_bytes() == written([], [], fmt)[1]


def test_cli_counts_the_records_it_wrote(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["aloha", "--preset", "fig7", "--seed", "3,1", "--rounds", "4",
                 "--out", str(out)]) == 0
    n = len(out.read_text().splitlines()) - 1
    assert n == 2 * 4 * 5 * 3
    assert capsys.readouterr().out.startswith(f"wrote {n} records to {out} ")
