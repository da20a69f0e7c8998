#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --seeds 1..10 [--workloads a,b] [--traced] [--out F]

Runs the ``command`` of BENCHMARK.json once per workload and seed with
``--seconds run_seconds --trace 0``, in that order (workload-major), and
prints for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median.  ``--traced`` adds one ``--trace 1`` run per workload on the first
seed.  ``--out`` writes every run's values, the summaries, the traced
per-layer tables and the recorded environment as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if argv[0] in ("python3", "python"):
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[5:]) for line in lines if line.startswith("env: ")), None)
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), env


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1..10", help="a..b")
    parser.add_argument("--workloads", help="comma list (default: all)")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    lo, _, hi = args.seeds.partition("..")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seeds": seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            result, env = run_once(bench["command"], name, seed, bench["run_seconds"], 0)
            report.setdefault("env", env)
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            runs[-1]["failed_frac"] = result["failed"] / result["attempted"]
            print(f"{name} seed {seed}: " + "  ".join(
                f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        entry = {"runs": runs, "summary": {}}
        for metric in bounds:
            s = summarize([r[metric] for r in runs])
            entry["summary"][metric] = s
            flag = "" if s["spread"] < bounds[metric] / 3 else "  (>= bound/3)"
            print(f"{name} {metric}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"bound {bounds[metric]}{flag}", flush=True)
        if args.traced:
            result, _ = run_once(bench["command"], name, seeds[0], bench["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
