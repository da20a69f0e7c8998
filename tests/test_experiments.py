"""Orchestration: config parsing, determinism, emission, CLI contracts."""

import importlib.util
import json
import os
import pathlib
import pickle
import subprocess
import sys
import threading

import numpy as np
import pytest

import fieldsense.aloha
import fieldsense.experiments
import fieldsense.gp
from fieldsense.cli import main
from fieldsense.das import run_das
from fieldsense.experiments import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    RunRecord,
    RunResult,
    _build_apps,
    _holdout_mse,
    aggregate,
    config_from_mapping,
    emit_results,
    load_config_file,
    parse_seeds,
    read_records_csv,
    run_experiment,
)

from test_das import poisoning_observe

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
OBSERVE = fieldsense.gp.IncrementalConditioner.observe
SHARES = (1, 3)  # this process alone, and with two forked children


def split_between(monkeypatch, shares):
    """Split an ALOHA sweep's cells between this process and forked children
    as if this process could run on ``shares`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(shares)))
    assert fieldsense.experiments._shares(10) == shares


def small_das_mapping(**overrides):
    m = {"experiment": "das-1d", "L": "12", "sigma2": "0.1",
         "rounds": "6", "policy": "max-variance,random", "seeds": "1..4"}
    m.update(overrides)
    return m


def small_aloha_mapping(**overrides):
    m = {"experiment": "aloha", "L": "30", "sigma2": "0.1", "rounds": "5",
         "B": "3", "Q": "10", "mode": "conventional,modified", "seeds": "1..3"}
    m.update(overrides)
    return m


class TestParsing:
    def test_parse_seeds(self):
        assert parse_seeds("5") == (5,)
        assert parse_seeds("1..4") == (1, 2, 3, 4)
        assert parse_seeds("3,9,1") == (3, 9, 1)
        with pytest.raises(ConfigError):
            parse_seeds("x")
        with pytest.raises(ConfigError):
            parse_seeds("5..2")

    @pytest.mark.parametrize("spec,named", [
        ("-1,2", "seed -1 is negative"), ("-3..2", "seed -3 is negative"),
        ("-4", "seed -4 is negative"), ("1,1", "seed 1 is repeated"),
        ("3,9,4,9", "seed 9 is repeated"),
    ])
    def test_parse_seeds_rejects_negative_and_repeated_seeds(self, spec, named):
        with pytest.raises(ConfigError, match=named):
            parse_seeds(spec)

    @pytest.mark.parametrize("seeds,named", [((2, -1), "seed -1 is negative"),
                                             ((5, 2, 5), "seed 5 is repeated")])
    def test_config_rejects_negative_and_repeated_seeds(self, seeds, named):
        with pytest.raises(ConfigError, match=named):
            ExperimentConfig(experiment="das-1d", rounds=2, seeds=seeds, L=10)

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nexperiment = das-1d\nL=20\n\nseeds = 1..2\n")
        assert load_config_file(path) == {
            "experiment": "das-1d", "L": "20", "seeds": "1..2"
        }
        bad = tmp_path / "bad.cfg"
        bad.write_text("experiment das-1d\n")
        with pytest.raises(ConfigError, match="line 1"):
            load_config_file(bad)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_mapping(small_das_mapping(B="3"))
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_mapping(small_aloha_mapping(policy="random"))

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            config_from_mapping({"L": "10"})

    def test_bad_policy(self):
        with pytest.raises(ConfigError, match="policy"):
            config_from_mapping(small_das_mapping(policy="greedy"))

    def test_das_csv_requires_path(self):
        with pytest.raises(ConfigError, match="csv"):
            config_from_mapping({"experiment": "das-csv", "seeds": "1", "rounds": "2"})

    def test_das_virtual_gets_default_grid(self):
        cfg = config_from_mapping({"experiment": "das-virtual", "L": "10",
                                   "rounds": "3", "seeds": "1"})
        assert cfg.policies == ("virtual",)
        assert cfg.virtual is not None and len(cfg.virtual) == 5

    def test_virtual_points_parse_2d(self):
        cfg = config_from_mapping({"experiment": "das-2d", "L": "10", "rounds": "3",
                                   "seeds": "1", "policy": "virtual",
                                   "virtual": "0.1,0.2;0.5,0.5"})
        assert cfg.virtual == ((0.1, 0.2), (0.5, 0.5))

    def test_presets_all_build(self):
        for name, preset in PRESETS.items():
            cfg = config_from_mapping(preset)
            assert cfg.rounds >= 1, name

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            config_from_mapping(small_aloha_mapping(mode="turbo"))


def station_csv(tmp_path, n=40):
    """A das-csv station file of ``n`` random 2-D stations; returns its path."""
    rng = np.random.default_rng(0)
    xy = rng.uniform(0, 5, size=(n, 2))
    vals = np.sin(xy[:, 0]) + rng.normal(0, 0.05, n)
    path = tmp_path / "stations.csv"
    path.write_text("".join(f"{a},{b},{v}\n" for (a, b), v in zip(xy, vals)))
    return str(path)


class TestRunExperiment:
    def test_records_sorted_and_deterministic(self):
        cfg = config_from_mapping(small_das_mapping())
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.records == b.records
        keys = [(r.seed, r.round, r.metric) for r in a.records]
        assert keys == sorted(keys)
        assert not a.failures

    def test_seed_batches_partition(self):
        whole = run_experiment(config_from_mapping(small_das_mapping(seeds="1..6")))
        lo = run_experiment(config_from_mapping(small_das_mapping(seeds="1..3")))
        hi = run_experiment(config_from_mapping(small_das_mapping(seeds="4..6")))
        assert sorted(whole.records, key=lambda r: (r.seed, r.round, r.metric)) == \
            sorted(lo.records + hi.records, key=lambda r: (r.seed, r.round, r.metric))

    def test_full_sweep_ends_at_zero(self):
        cfg = config_from_mapping(small_das_mapping(rounds="12", policy="max-variance",
                                                    seeds="1..2"))
        result = run_experiment(cfg)
        final = [r for r in result.records if r.round == 12]
        assert final and all(abs(r.value) < 1e-9 for r in final)

    def test_active_beats_random_at_round_20(self):
        cfg = config_from_mapping({
            "experiment": "das-1d", "L": "100", "sigma2": "0.01",
            "rounds": "20", "policy": "max-variance,random", "seeds": "1..30",
        })
        result = run_experiment(cfg)
        means = {(a.metric, a.round): a.mean for a in result.aggregates}
        assert means[("mse.max-variance", 20)] < means[("mse.random", 20)]

    def test_aggregates_recomputable(self):
        cfg = config_from_mapping(small_das_mapping())
        result = run_experiment(cfg)
        for agg in result.aggregates:
            vals = [r.value for r in result.records
                    if r.metric == agg.metric and r.round == agg.round]
            assert agg.n == len(vals)
            assert agg.mean == pytest.approx(np.mean(vals), abs=1e-12)
            assert agg.std == pytest.approx(np.std(vals), abs=1e-12)

    def test_aloha_run_has_bound_and_modes(self):
        result = run_experiment(config_from_mapping(small_aloha_mapping()))
        metrics = {r.metric for r in result.records}
        assert metrics == {"sse.conventional", "sse.modified", "sse.lower-bound"}
        bound_vals = {r.value for r in result.records if r.metric == "sse.lower-bound"}
        assert len(bound_vals) == 1
        assert bound_vals.pop() == pytest.approx(0.8896361676485673, rel=1e-12)
        one = next(r for r in result.records if r.metric == "sse.modified")
        assert "psi=" in one.extra and "k=" in one.extra

    def test_aloha_sweep_labels(self):
        result = run_experiment(config_from_mapping(small_aloha_mapping(
            B="2,3", mode="conventional", seeds="1",
        )))
        metrics = {r.metric for r in result.records}
        assert metrics == {"sse.conventional.B2", "sse.conventional.B3",
                           "sse.lower-bound.B2", "sse.lower-bound.B3"}

    def test_per_seed_failures_reported(self):
        # an application weight index past the field length blows up inside
        # each per-seed run; the batch reports every failure instead of dying
        cfg = config_from_mapping(small_das_mapping(
            policy="app-weighted", apps="e:999", seeds="1..3",
        ))
        result = run_experiment(cfg)
        assert result.records == []
        assert len(result.failures) == 3
        assert all(label == "app-weighted" for _, label, _ in result.failures)

    @pytest.mark.parametrize("overrides", [
        dict(L="200", B="1,5", Q="10", rounds="40"),  # fig7's field and grid ends
        dict(L="30", B="4", Q="10", p_sleep="0.3", rounds="40"),  # pools run dry unevenly
    ], ids=["fig7-grid", "sleep-exhaustion"])
    def test_aloha_seed_batches_partition(self, overrides, monkeypatch):
        # 1..40 plays five full batches of 8 seeds; the parts play one batch
        # of 7, two of 8, and three (of 5, 6 and 6), each cell in whichever
        # process its share falls to
        def records(seeds):
            return run_experiment(config_from_mapping(small_aloha_mapping(
                seeds=seeds, **overrides))).records

        key = lambda r: (r.seed, r.round, r.metric)  # noqa: E731
        for shares in SHARES:
            split_between(monkeypatch, shares)
            whole = records("1..40")
            parts = records("1..7") + records("8..23") + records("24..40")
            assert len(whole) == 40 * 40 * 3 * len(overrides["B"].split(","))
            assert sorted(whole, key=key) == sorted(parts, key=key)

    def test_failed_aloha_seed_leaves_the_others_records_alone(self, monkeypatch):
        # two cells, so with more than one share the modified one fails in a
        # child, which inherits the poisoned observe
        mapping = small_aloha_mapping(L="60", rounds="40", seeds="1..9")
        doomed = config_from_mapping(mapping).field_spec.build(np.random.default_rng(4))
        clean = run_experiment(config_from_mapping({**mapping, "seeds": "1,2,3,5,6,7,8,9"}))
        for shares in SHARES:
            split_between(monkeypatch, shares)
            monkeypatch.setattr(fieldsense.gp.IncrementalConditioner, "observe",
                                poisoning_observe(doomed.locations, at=3))
            hit = run_experiment(config_from_mapping(mapping))
            monkeypatch.setattr(fieldsense.gp.IncrementalConditioner, "observe", OBSERVE)
            assert [(seed, label) for seed, label, _ in hit.failures] == [
                (4, "sse.conventional"), (4, "sse.modified")]
            assert all("below round-off" in message for _, _, message in hit.failures)
            # seed 4 keeps only its bound records; everything else is unchanged
            assert [r for r in hit.records if r.seed != 4] == clean.records
            assert {r.metric for r in hit.records if r.seed == 4} == {"sse.lower-bound"}

    @pytest.mark.parametrize("case", ["das-select", "fig4", "das-csv"])
    def test_das_seed_batches_partition(self, case, tmp_path):
        # 1..20 plays batches of 6, 7 and 7 seeds; the parts one batch each,
        # of 7, 6 and 7.  das-select scores virtual targets and an
        # application, fig4 picks by max variance and by chance, das-csv
        # logs the holdout estimates of every policy.
        if case == "das-select":
            mapping = load_config_file(WORKLOADS / "das-select.cfg")
        elif case == "fig4":
            mapping = dict(PRESETS["fig4"])
        else:
            mapping = {"experiment": "das-csv", "csv": station_csv(tmp_path), "sigma2": "0.01",
                       "rounds": "15", "policy": "max-variance,random,app-weighted",
                       "apps": "mean,e:7", "betas": "1,0.5"}

        def records(seeds):
            result = run_experiment(config_from_mapping({**mapping, "seeds": seeds}))
            assert not result.failures
            return result.records

        key = lambda r: (r.seed, r.round, r.metric)  # noqa: E731
        whole = sorted(records("1..20"), key=key)
        assert whole == sorted(records("1..7") + records("8..13") + records("14..20"), key=key)
        # and every seed is the run of its own run_das, bit for bit
        config = config_from_mapping({**mapping, "seeds": "1..20"})
        holdout, own = config.experiment == "das-csv", []
        for policy in config.policies:
            for seed in config.seeds:
                rng = np.random.default_rng(seed)
                field = config.field_spec.build(rng)
                apps = None
                if policy == "app-weighted":
                    apps = ([a.weights for a in _build_apps(config, field.n_sensors)], config.betas)
                for log in run_das(field, policy, min(config.rounds, field.n_sensors),
                                   config.kernel_params, rng=rng, virtual_locs=config.virtual,
                                   log_estimates=holdout, apps=apps):
                    extra = f"selected={log.selected}"
                    own.append(RunRecord(seed, log.round, f"mse.{policy}", log.mse, extra))
                    if holdout:
                        own.append(RunRecord(seed, log.round, f"holdout-mse.{policy}",
                                             _holdout_mse(field, log.estimate), extra))
        assert whole == sorted(own, key=key)

    def test_failed_das_seed_leaves_the_others_records_alone(self, monkeypatch):
        mapping = small_das_mapping(L="30", rounds="20", policy="max-variance", seeds="1..9")
        doomed = config_from_mapping(mapping).field_spec.build(np.random.default_rng(4))
        monkeypatch.setattr(fieldsense.gp.IncrementalConditioner, "observe",
                            poisoning_observe(doomed.locations, at=3))
        hit = run_experiment(config_from_mapping(mapping))
        monkeypatch.undo()
        clean = run_experiment(config_from_mapping({**mapping, "seeds": "1,2,3,5,6,7,8,9"}))
        assert len(hit.failures) == 1
        seed, label, message = hit.failures[0]
        assert (seed, label) == (4, "max-variance") and "below round-off" in message
        assert [r for r in hit.records if r.seed != 4] == clean.records
        assert not [r for r in hit.records if r.seed == 4]

    def test_csv_experiment_holdout_metric(self, tmp_path):
        cfg = config_from_mapping({
            "experiment": "das-csv", "csv": station_csv(tmp_path, n=25), "sigma2": "0.01",
            "rounds": "5", "policy": "max-variance", "seeds": "1..2",
        })
        result = run_experiment(cfg)
        metrics = {r.metric for r in result.records}
        assert metrics == {"mse.max-variance", "holdout-mse.max-variance"}


class TestEmit:
    def test_csv_round_trip_bitwise(self, tmp_path):
        result = run_experiment(config_from_mapping(small_das_mapping(seeds="1..2")))
        out = tmp_path / "r.csv"
        emit_results(result, "csv", out)
        back = read_records_csv(out)
        assert back == result.records

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reemit_byte_identical(self, tmp_path, fmt):
        cfg = config_from_mapping(small_aloha_mapping(seeds="1..2"))
        a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        emit_results(run_experiment(cfg), fmt, a)
        emit_results(run_experiment(cfg), fmt, b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / f"a.{fmt}.agg").read_bytes() == \
            (tmp_path / f"b.{fmt}.agg").read_bytes()

    def test_row_counts(self, tmp_path):
        cfg = config_from_mapping(small_das_mapping(seeds="1", rounds="2",
                                                    policy="max-variance"))
        out = tmp_path / "r.csv"
        emit_results(run_experiment(cfg), "csv", out)
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2  # header + one record per round
        agg_lines = (tmp_path / "r.csv.agg").read_text().strip().split("\n")
        assert len(agg_lines) == 1 + 2  # header + one aggregate per round

    def test_json_mirrors_records(self, tmp_path):
        result = run_experiment(config_from_mapping(small_das_mapping(seeds="1")))
        out = tmp_path / "r.json"
        emit_results(result, "json", out)
        data = json.loads(out.read_text())
        assert len(data) == len(result.records)
        assert data[0]["metric"] == result.records[0].metric
        aggs = json.loads((tmp_path / "r.json.agg").read_text())
        assert len(aggs) == len(result.aggregates)

    def test_unwritable_path(self, tmp_path):
        result = run_experiment(config_from_mapping(small_das_mapping(seeds="1")))
        with pytest.raises(OSError):
            emit_results(result, "csv", tmp_path / "missing" / "r.csv")

    def test_aggregate_matches_spec_example(self):
        records = [RunRecord(1, 1, "m", 2.0), RunRecord(2, 1, "m", 4.0)]
        aggs = aggregate(records)
        assert aggs[0].mean == 3.0 and aggs[0].n == 2


class TestCli:
    def test_preset_with_overrides(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        code = main(["das", "--preset", "fig4", "--seed", "1..3",
                     "--rounds", "5", "--out", str(out)])
        assert code == 0
        assert out.exists() and (tmp_path / "fig4.csv.agg").exists()
        assert "wrote" in capsys.readouterr().out

    def test_config_file_plus_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment = das-1d\nL = 15\nrounds = 4\nseeds = 1\n")
        out = tmp_path / "r.json"
        code = main(["das", "--config", str(cfg), "--policy", "random",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert {d["metric"] for d in data} == {"mse.random"}

    def test_aloha_subcommand(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rounds = 3\nL = 20\nseeds = 1\nB = 2\nQ = 5\n")
        out = tmp_path / "a.csv"
        assert main(["aloha", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()

    def test_bad_config_exits_2(self, capsys):
        assert main(["das", "--policy", "warp"]) == 2
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,text",
        [
            ("das", "experiment = das-1d\nL = 12\nbetas = x\n"),
            ("das", "experiment = das-1d\nL = 12\npolicy = virtual\nvirtual = 1,a\n"),
            ("aloha", "L = 20\nB = 0\n"),
            ("aloha", "L = 20\nQ = 0\n"),
            ("aloha", "L = 20\np_sleep = 1\n"),
            ("aloha", "L = 20\nmu = 0\n"),
            ("das", "experiment = das-1d\nL = 12\nlength_scale = 0\n"),
            ("das", "experiment = das-1d\nL = 12\nsignal_variance = -1\n"),
            ("das", "experiment = das-1d\nL = 0\nrounds = 5\n"),
            ("das", "experiment = das-1d\nL = 12\nsigma2 = 0\n"),
            ("das", "experiment = das-1d\nL = 12\npolicy = app-weighted\napps = e:x\n"),
            ("das", "experiment = das-1d\nL = 20\npolicy = app-weighted\napps = e:500\n"),
            ("aloha", "L = 20\nT = 0\n"),
        ],
        ids=["betas", "virtual", "B", "Q", "p_sleep", "mu", "length_scale",
             "signal_variance", "L", "sigma2", "app_spec", "app_index", "T"],
    )
    def test_bad_config_value_exits_2(self, tmp_path, capsys, command, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("fieldsense: config: ")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command,seeds,named", [
        ("das", "-1,2", "seed -1 is negative"),
        ("aloha", "-1,2", "seed -1 is negative"),
        ("das", "1,1", "seed 1 is repeated"),
        ("aloha", "1,1", "seed 1 is repeated"),
    ])
    def test_bad_seeds_exit_2(self, tmp_path, capsys, command, seeds, named):
        out = tmp_path / "x.csv"
        preset = "fig4" if command == "das" else "fig6"
        code = main([command, "--preset", preset, f"--seed={seeds}", "--rounds", "2",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("fieldsense: config: ") and named in err
        assert not out.exists()

    def test_subcommand_mismatch_exits_2(self, tmp_path, capsys):
        assert main(["das", "--preset", "fig6", "--out", str(tmp_path / "x.csv")]) == 2
        assert "config" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, capsys):
        assert main(["das", "--config", "/nonexistent/path.cfg"]) == 2

    def test_unwritable_out_exits_4(self, tmp_path, capsys):
        code = main(["das", "--preset", "fig4", "--seed", "1", "--rounds", "2",
                     "--out", str(tmp_path / "nope" / "x.csv")])
        assert code == 4
        assert "emit" in capsys.readouterr().err

    def test_module_invocation(self, tmp_path):
        out = tmp_path / "m.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "fieldsense", "das", "--preset", "fig4",
             "--seed", "1", "--rounds", "3", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


def no_child_left():
    """True if this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestForkedCells:
    """An ALOHA sweep's cells dealt out between this process and forked
    children: fig7 at three shares puts B=2 conventional in a child and B=2
    modified in this process."""

    SWEEP = ["aloha", "--preset", "fig7", "--seed", "1..2", "--rounds", "3"]

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

    def fail_at(self, monkeypatch, where, fate):
        """Make the B=2 cell run in ``where`` (a child or this process) end by
        ``fate``: its process exits at once, or the cell raises."""
        parent, real = os.getpid(), fieldsense.aloha.run_aloha_seeds

        def run_aloha_seeds(seeds, make_field, cfg, rounds, params):
            if cfg.channels == 2 and (os.getpid() == parent) == (where == "parent"):
                if fate == "exit":
                    os._exit(1)
                raise RuntimeError("boom")
            return real(seeds, make_field, cfg, rounds, params)

        monkeypatch.setattr(fieldsense.aloha, "run_aloha_seeds", run_aloha_seeds)

    @pytest.mark.parametrize("where,fate,named", [
        ("child", "exit", "cells B=2 Q=10 conventional, B=3 Q=10 modified, "
                          "B=5 Q=10 conventional: the process running them ended "
                          "(exit status 1)"),
        ("child", "raise", "cell B=2 Q=10 conventional: boom"),
        ("parent", "raise", "cell B=2 Q=10 modified: boom"),
    ], ids=["child-exits", "child-raises", "parent-raises"])
    def test_a_failed_cell_is_a_run_error(self, tmp_path, capsys, monkeypatch, where,
                                          fate, named):
        self.fail_at(monkeypatch, where, fate)
        assert main([*self.SWEEP, "--out", str(tmp_path / "x.csv")]) == 3
        out, err = capsys.readouterr()
        assert f"fieldsense: run: {named}" in err and not out
        assert no_child_left()

    @pytest.mark.parametrize("args,code", [
        ([], 0),
        (["--rounds", "0"], 2),
        (["--out", "missing/x.csv"], 4),
    ], ids=["ok", "config", "emit"])
    def test_no_child_outlives_the_cli(self, tmp_path, monkeypatch, args, code):
        monkeypatch.chdir(tmp_path)
        assert main([*self.SWEEP, "--out", "x.csv", *args]) == code
        assert no_child_left()

    def test_a_threaded_caller_runs_every_cell_itself(self, monkeypatch):
        self.fail_at(monkeypatch, "child", "exit")
        config = config_from_mapping(small_aloha_mapping(B="1,2,3"))
        stop = threading.Event()
        waiter = threading.Thread(target=stop.wait)
        waiter.start()
        try:
            result = run_experiment(config)
        finally:
            stop.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert not result.failures and len(result.records) == 3 * 3 * 5 * 3

    def test_a_truncated_payload_is_a_run_error(self):
        cells = [fieldsense.experiments._Cell(2, 10, "modified")]
        payload = pickle.dumps(("ok", [([], [])]), pickle.HIGHEST_PROTOCOL)
        assert fieldsense.experiments._child_results(payload, 0, cells) == [([], [])]
        with pytest.raises(RuntimeError, match=r"^cells B=2 Q=10 modified: .*exit status 0"):
            fieldsense.experiments._child_results(payload[:-3], 0, cells)


def load_run_figures():
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_figures.py"
    spec = importlib.util.spec_from_file_location("run_figures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("failures,code", [([], 0), ([(2, "mse.random", "boom")], 3)])
def test_run_figures_exits_3_on_failed_seed(tmp_path, monkeypatch, capsys, failures, code):
    script = load_run_figures()
    monkeypatch.setattr(script, "run_experiment", lambda config: RunResult([], [], failures))
    assert script.main(["--out", str(tmp_path), "--only", "fig4", "fig2"]) == code
    assert (tmp_path / "fig2.csv").exists() and (tmp_path / "fig4.csv").exists()
    assert ("seed 2 (mse.random) failed: boom" in capsys.readouterr().err) == bool(failures)
