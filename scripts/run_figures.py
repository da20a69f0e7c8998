#!/usr/bin/env python3
"""Run every shipped figure preset and drop records + aggregates in a directory.

The full presets use their paper-scale seed batches (1000 seeds for fig4 and
the contention figures), which takes a few minutes; pass --seeds to trim.
Exits 3 if any seed failed (as ``fieldsense`` does), after every preset ran.

    python scripts/run_figures.py --out results/ [--seeds 1..100] [--only fig6]
"""

import argparse
import pathlib
import sys
import time

from fieldsense.experiments import (
    PRESETS,
    config_from_mapping,
    emit_results,
    run_experiment,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--seeds", help="override each preset's seed batch")
    parser.add_argument("--only", nargs="*", choices=sorted(PRESETS),
                        help="subset of presets to run")
    parser.add_argument("--format", default="csv", choices=["csv", "json"])
    args = parser.parse_args(argv)

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = args.only or sorted(PRESETS)
    failed = 0
    for name in names:
        mapping = dict(PRESETS[name])
        if args.seeds:
            mapping["seeds"] = args.seeds
        config = config_from_mapping(mapping)
        start = time.time()
        result = run_experiment(config)
        path = out_dir / f"{name}.{args.format}"
        emit_results(result, args.format, path)
        print(f"{name}: {result.n_records} records -> {path} "
              f"({time.time() - start:.1f}s)")
        for seed, label, message in result.failures:
            print(f"  seed {seed} ({label}) failed: {message}", file=sys.stderr)
        failed += len(result.failures)
    return 3 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
