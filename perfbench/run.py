#!/usr/bin/env python3
"""fieldsense benchmark: figure-style experiments run the way a user runs them.

    python3 perfbench/run.py --workload aloha-sweep --seed 1 --seconds 30 --trace 0

Every CLI invocation runs in a fresh interpreter (``perfbench/child.py``)
that calls ``fieldsense.cli.main(argv)`` with the argv a user would type:
``aloha --preset fig7`` or ``das --config perfbench/workloads/<name>.cfg``,
plus ``--seed a..b`` and ``--out`` in a scratch directory.  Each workload is
a closed loop: one caller, the next invocation starts when the previous one
has finished.  ``--seed`` picks the seed batches, so the same seed gives the
same inputs.

A run first executes the reference seed batch, which also warms the page
cache and bytecode cache and is left out of the metrics, and compares its
records with the traces in ``perfbench/reference``.  Then:

- ``--trace 0`` runs successive seed batches for ``--seconds`` (at least
  MIN_MEASURED invocations) and reports the end-to-end metrics: ``setup_s``
  and ``peak_rss_mb`` as medians over the invocations, ``runs_per_s`` as all
  seed-runs over all wall-clock seconds spent in ``cli.main``.  Times are
  rescaled by a host-speed calibration (see CALIB_REF_S); the unscaled
  figures are printed alongside;
- ``--trace 1`` alternates an untraced and a traced invocation of one fixed
  seed batch for ``--seconds`` (at least two traced) and reports per-layer
  metrics: counts, which must be identical across the traced invocations,
  and median self times.  Spans are left in ``.perfbench-work/spans``.

Every invocation's records pass the correctness gate (``gate.py``).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (seed-runs) and ``metrics``; the exit code is 1
when the gate fails and 2 when the fieldsense sources are missing.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference"

# One BLAS thread per child.  Two OpenBLAS threads (the default on a 2-core
# host) double the CPU time of das-select with no wall-clock gain, and one
# keeps the count within nproc on any host.
BLAS_THREADS = 1
MIN_MEASURED = 3
# Reported times are wall-clock seconds rescaled to a host on which one
# calibration pass (child.calibrate) takes this long: t * CALIB_REF_S /
# calib_s.  The speed of the 2-core host this was tuned on drifted by up to
# 2x within minutes, in CPU time as much as in wall time, and the
# calibration tracked most of that drift.  Unscaled figures are printed
# alongside.
CALIB_REF_S = 0.008
# Every child must end within this many seconds of the run's start.
HARD_LIMIT_S = 170.0
MAX_ERRORS_SHOWN = 20


@dataclass(frozen=True)
class Workload:
    command: str
    source: tuple[str, str]  # ("--preset", name) or ("--config", path)
    seeds_per_child: int
    runs_per_seed: int  # seed-runs: fields x policies, or (mode, B, Q) cells
    records_per_seed: int  # what the grid implies, checked by the gate
    reference_seeds: str


WORKLOADS = {
    # fig7 grid: B in 1..5 x {conventional, modified}, 40 rounds of a
    # from-scratch posterior on <= 45 observations; many records, tiny grams.
    "aloha-sweep": Workload("aloha", ("--preset", "fig7"), seeds_per_child=10,
                            runs_per_seed=10, records_per_seed=40 * 5 * 3,
                            reference_seeds="1..2"),
    # L=5000 2-D field, 200 max-variance rounds: the L x L prior gram and
    # conditioner set time and memory; no aloha, no apps, few records.
    "das-large": Workload("das", ("--config", "perfbench/workloads/das-large.cfg"),
                          seeds_per_child=1, runs_per_seed=1, records_per_seed=200,
                          reference_seeds="1"),
    # L=60, 30 rounds of app-weighted (a full posterior per candidate) and
    # virtual (rank-one reductions per candidate) selection.
    "das-select": Workload("das", ("--config", "perfbench/workloads/das-select.cfg"),
                           seeds_per_child=4, runs_per_seed=2, records_per_seed=60,
                           reference_seeds="1..2"),
}

END_TO_END = (("setup_s", "s"), ("runs_per_s", "1/s"), ("peak_rss_mb", "MB"))
# Printed for information only: the same figures without rescaling.
RAW = (("wall.runs_per_s", "1/s"), ("wall.setup_s", "s"), ("calib_s", "s"))

# Per-layer metrics in the order printed.  "calls" and counts come from the
# spans and counters of tracing.py.  *.self_s are self times; the inclusive
# span times are cli.main.s and gp.conditioner.init_s (which holds the prior
# gram it builds, so it overlaps gp.gram.self_s).
PER_LAYER = (
    ("gp.gram.calls", "count"), ("gp.gram.cells", "count"), ("gp.gram.self_s", "s"),
    ("gp.conditioner.init.calls", "count"), ("gp.conditioner.init_s", "s"),
    ("gp.conditioner.observe.calls", "count"), ("gp.conditioner.observe.self_s", "s"),
    ("gp.conditioner.hypothetical_reduction.calls", "count"),
    ("gp.conditioner.hypothetical_reduction.self_s", "s"),
    ("gp.posterior_mean_and_variance.calls", "count"),
    ("gp.posterior_mean_and_variance.self_s", "s"),
    ("gp.posterior_mean_and_variance.obs_mean", "count"),
    ("gp.posterior.calls", "count"), ("gp.posterior.self_s", "s"),
    ("apps.select_weighted_sum.calls", "count"), ("apps.select_weighted_sum.self_s", "s"),
    ("das.run_das.calls", "count"), ("das.run_das.self_s", "s"),
    ("aloha.run_aloha.calls", "count"), ("aloha.run_aloha.self_s", "s"),
    ("aloha.simulate_round.calls", "count"), ("aloha.simulate_round.self_s", "s"),
    ("aloha.contend.calls", "count"), ("aloha.contend.self_s", "s"),
    ("aloha.active", "count"), ("aloha.successes", "count"),
    ("aloha.success_ratio", "ratio"),
    ("fields.gen.calls", "count"), ("fields.gen.self_s", "s"),
    ("experiments.run_experiment.self_s", "s"), ("experiments.emit_results.self_s", "s"),
    ("experiments.records", "count"), ("experiments.bytes_written", "B"),
    ("cli.main.s", "s"), ("other.self_s", "s"),
    ("trace.overhead_ratio", "ratio"), ("trace.absent_layers", "count"),
    ("trace.spans", "count"),
)
SECONDS = [name for name, unit in PER_LAYER if unit == "s"]


def seed_batch(seed, index, size):
    """Seed spec of the index-th invocation of a run with this --seed."""
    start = 1000 + seed * 100_000 + index * size
    return f"{start}..{start + size - 1}"


def count_seeds(spec):
    lo, _, hi = spec.partition("..")
    return int(hi or lo) - int(lo) + 1


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def environment(child_env):
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": child_env.get("numpy"),
        "scipy": child_env.get("scipy"),
        "blas": child_env.get("blas"),
        "blas_threads_set": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def calibration(result):
    """Rescaling factor of an invocation's times (see CALIB_REF_S)."""
    return CALIB_REF_S / result["calib_s"]


class Session:
    """Runs child invocations for one workload and gathers failures."""

    def __init__(self, name, workload, tmp):
        self.name = name
        self.workload = workload
        self.tmp = tmp
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.child_env = {}
        self.env = dict(os.environ)
        threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                        OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                        MKL_NUM_THREADS=threads)

    def invoke(self, tag, seeds, n_seeds, spans=None, reference=None):
        """One fresh-interpreter CLI run; its result dict, or None if it failed.

        The records are checked by the gate, against ``reference`` if given,
        and deleted.
        """
        wl = self.workload
        out = self.tmp / f"{tag}.csv"
        flag, value = wl.source
        runs = n_seeds * wl.runs_per_seed
        self.attempted += runs
        timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - self.start))
        job = {
            "argv": [wl.command, flag, value, "--seed", seeds, "--out", str(out)],
            "out": str(out), "src": str(SRC), "spans": str(spans) if spans else None,
            "spawned": time.monotonic(),
        }
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(job)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.failed += runs
            self.errors.append(f"{tag}: no result within {timeout:.0f} s")
            return None
        seed_failures = sum("failed:" in line for line in proc.stderr.splitlines())
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None or result["rc"] != 0:
            self.failed += seed_failures or runs
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            self.errors.append(f"{tag}: exit {proc.returncode}: {tail}")
            return None
        self.child_env = result["env"]
        try:
            records = gate.read_records(out)
            errors = gate.check_records(records, wl, n_seeds)
            if reference is not None:
                errors += gate.compare_reference(records, gate.read_records(reference))
        except (OSError, ValueError, KeyError) as exc:
            errors = [f"unreadable records: {exc!r}"]
        self.errors += [f"{tag}: {e}" for e in errors]
        out.unlink(missing_ok=True)
        Path(f"{out}.agg").unlink(missing_ok=True)
        return None if errors else result

    def reference(self):
        spec = self.workload.reference_seeds
        return self.invoke("reference", spec, count_seeds(spec),
                           reference=REFERENCE / f"{self.name}.csv")


def measure_end_to_end(session, seed, seconds):
    size = session.workload.seeds_per_child
    results = []
    deadline = time.monotonic() + seconds
    index = 0
    while index < MIN_MEASURED or time.monotonic() < deadline:
        result = session.invoke(f"batch{index}", seed_batch(seed, index, size), size)
        if result is not None:
            results.append(result)
        index += 1
        if time.monotonic() - session.start > HARD_LIMIT_S / 2:
            break
    if not results:
        return {}, 0
    runs = size * session.workload.runs_per_seed * len(results)
    return {
        "setup_s": statistics.median(r["setup_s"] * calibration(r) for r in results),
        "runs_per_s": runs / sum(r["run_s"] * calibration(r) for r in results),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in results),
        "wall.runs_per_s": runs / sum(r["run_s"] for r in results),
        "wall.setup_s": statistics.median(r["setup_s"] for r in results),
        "calib_s": statistics.median(r["calib_s"] for r in results),
    }, len(results)


def _layer_values(summary, n_spans, result):
    values = {}
    for layer, row in summary.items():
        values[f"{layer}.calls"] = row["calls"]
        values[f"{layer}.self_s"] = row["self_s"]
    counters = result["counters"]
    pmv_calls = summary["gp.posterior_mean_and_variance"]["calls"]
    active = counters["aloha.active"]
    main = summary["cli.main"]["total_s"]
    values.update({
        "gp.gram.cells": counters["gp.gram.cells"],
        "gp.conditioner.init_s": summary["gp.conditioner.init"]["total_s"],
        "gp.posterior_mean_and_variance.obs_mean":
            counters["gp.posterior_mean_and_variance.obs"] / pmv_calls if pmv_calls else 0.0,
        "aloha.active": active,
        "aloha.successes": counters["aloha.successes"],
        "aloha.success_ratio": counters["aloha.successes"] / active if active else 0.0,
        "experiments.records": counters["experiments.records"],
        "experiments.bytes_written": result["bytes_written"],
        "cli.main.s": main,
        "other.self_s": main - sum(row["self_s"] for layer, row in summary.items()
                                   if layer != "cli.main"),
        "trace.absent_layers": len(result["absent"]),
        "trace.spans": n_spans,
    })
    return values


def measure_layers(session, seed, seconds):
    n = session.workload.seeds_per_child
    seeds = seed_batch(seed, 0, n)
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    plain, traced, absent = [], [], []
    deadline = time.monotonic() + seconds
    rep = 0
    while len(traced) < 2 or time.monotonic() < deadline:
        untraced = session.invoke(f"plain{rep}", seeds, n)
        spans = spans_dir / f"{session.name}.{rep}.jsonl"
        result = session.invoke(f"traced{rep}", seeds, n, spans=spans)
        if untraced is None or result is None:
            break
        summary, n_spans = tracing.summarize(spans)
        values = _layer_values(summary, n_spans, result)
        factor = calibration(result)
        for name in SECONDS:
            values[name] *= factor
        values["run_s"] = result["run_s"] * factor
        traced.append(values)
        plain.append(untraced["run_s"] * calibration(untraced))
        absent = result["absent"]
        rep += 1
        if time.monotonic() - session.start > HARD_LIMIT_S / 2:
            break
    if len(traced) < 2:
        session.errors.append("fewer than two traced invocations completed")
        return {}, absent
    metrics = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead_ratio":
            continue
        values = [t[name] for t in traced]
        if name in SECONDS:
            metrics[name] = statistics.median(values)
        elif len(set(values)) != 1:
            session.errors.append(f"count {name} differs between traced runs: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = values[0]
    metrics["trace.overhead_ratio"] = (statistics.median(t["run_s"] for t in traced)
                                       / statistics.median(plain))
    return metrics, absent


def _print_table(metrics, units, note=None):
    main = metrics.get("cli.main.s")
    for name, unit in units:
        if name not in metrics:
            continue
        line = f"  {name:<48} {metrics[name]:>14.6g} {unit}"
        if main and unit == "s" and name != "cli.main.s":
            line += f"  ({100 * metrics[name] / main:5.1f}% of cli.main)"
        print(line)
    if note:
        print(f"  {note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "fieldsense" / "__init__.py").is_file():
        print(f"run.py: no fieldsense sources under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        session = Session(args.workload, WORKLOADS[args.workload], tmp)
        print(f"fieldsense benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        session.reference()
        if args.trace:
            metrics, absent = measure_layers(session, args.seed, args.seconds)
            print("per-layer (traced batch, median over traced invocations):")
            _print_table(metrics, PER_LAYER,
                         f"absent layers: {', '.join(absent) or 'none'}")
            units = PER_LAYER
        else:
            metrics, n = measure_end_to_end(session, args.seed, args.seconds)
            print(f"end-to-end over {n} fresh-interpreter invocations:")
            _print_table(metrics, END_TO_END + RAW)
            units = END_TO_END
        print(f"  {'failed_frac':<48} {session.failed / max(1, session.attempted):>14.6g} "
              f"({session.failed} of {session.attempted} seed-runs)")
        print("env: " + json.dumps(environment(session.child_env), sort_keys=True))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = not session.errors and all(name in metrics for name, _ in units)
    print("gate: " + ("ok" if correct else "FAILED"))
    for error in session.errors[:MAX_ERRORS_SHOWN]:
        print(f"  {error}")
    if len(session.errors) > MAX_ERRORS_SHOWN:
        print(f"  ... and {len(session.errors) - MAX_ERRORS_SHOWN} more")
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
