#!/usr/bin/env python3
"""Write the CLI outputs of a fixed run matrix, for a byte-for-byte comparison.

Runs each case through ``python -m fieldsense`` on this checkout's ``src/``
(one BLAS thread) and writes its records and ``.agg`` file into OUTDIR, and
its exit code, stdout and stderr into ``<name>.log``.  Two checkouts compare
with ``diff -r``:

    python scripts/golden_outputs.py /tmp/before    # in the old checkout
    python scripts/golden_outputs.py /tmp/after     # in the new checkout
    diff -r /tmp/before /tmp/after

The matrix covers every selection policy, both ALOHA modes and the das-csv
holdout records:

- ``das-select.cfg`` at seeds 1..20 and ``das-large.cfg`` at seeds 1..2
  (the benchmark's DAS workloads);
- ``das --preset fig2|fig3|fig4`` at seeds 1..5, and fig4 again at seeds
  1..40, which span several seed batches;
- ``das-select.cfg`` at seeds 20,3,9,1: out of order and not contiguous;
- ``aloha --preset fig6|fig7|fig8`` at seeds 1..30;
- ``aloha --preset fig7`` at 25 seeds out of order and not contiguous
  (``SCATTERED``), which play in three seed batches: each batch seed's
  records land in that seed's slots;
- das-csv on 120 stations from ``make_station_csv.py``, max-variance, random
  and app-weighted (``apps = mean,e:7``, unit betas), 40 rounds, seeds 1..3;
- ALOHA with sleep and pool exhaustion (L = 30, B = 4, Q = 10,
  ``p_sleep = 0.3``, both modes, 40 rounds) at seeds 1..40: seeds run dry
  in different rounds, so one seed batch holds ragged candidate sets;
- ALOHA with at least as many channels as candidates (L = 60, B = 6, Q = 4,
  both modes, 40 rounds) at seeds 1..30: many rounds take three or four
  successes of a seed, so its uploads are observed in slots three or four
  deep;
- ``--format json``: ``aloha --preset fig7`` at seeds 1..5 and
  ``das-select.cfg`` at seeds 20,3,9,1;
- das-csv as above with ``apps = mean,e:500``, naming no station: every
  seed of app-weighted fails, so the run exits 3 with one failure line per
  seed and the other policies' records;
- das-2d on 400 sensors, 60 rounds of app-weighted (``apps =
  mean,e:7,e:350``, betas 1, 2 and 1), virtual (three points) and
  max-variance, at seeds 1..6: long scored runs on a 2-D field.

``tests/test_golden.py`` runs the same matrix in-process and compares the
files' digests with a committed manifest.

Uses the standard library, and numpy for the station file.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads"

CSV_CONFIG = """\
experiment = das-csv
csv = stations.csv
sigma2 = 0.1
rounds = 40
policy = max-variance,random,app-weighted
apps = mean,e:7
betas = 1,1
"""

BAD_APP_CONFIG = CSV_CONFIG.replace("apps = mean,e:7", "apps = mean,e:500")

SLEEP_CONFIG = """\
experiment = aloha
L = 30
sigma2 = 0.1
rounds = 40
B = 4
Q = 10
p_sleep = 0.3
mode = conventional,modified
"""

# 25 seeds, neither ascending nor contiguous
SCATTERED = "41,7,30,2,19,55,13,26,3,48,11,37,22,9,60,5,33,17,44,28,1,52,15,39,24"

SCORED_2D_CONFIG = """\
experiment = das-2d
L = 400
sigma2 = 0.1
rounds = 60
policy = app-weighted,virtual,max-variance
apps = mean,e:7,e:350
betas = 1,2,1
virtual = 0.2,0.2;0.5,0.5;0.8,0.3
"""

WIDE_CONFIG = """\
experiment = aloha
L = 60
sigma2 = 0.1
rounds = 40
B = 6
Q = 4
mode = conventional,modified
"""


def cases():
    """(name, fieldsense arguments) for every run of the matrix; the records
    go to ``<name>.csv``, or ``<name>.json`` for a ``--format json`` case."""
    yield "das-select", ["das", "--config", str(WORKLOADS / "das-select.cfg"),
                         "--seed", "1..20"]
    yield "das-large", ["das", "--config", str(WORKLOADS / "das-large.cfg"),
                        "--seed", "1..2"]
    for fig in ("fig2", "fig3", "fig4"):
        yield fig, ["das", "--preset", fig, "--seed", "1..5"]
    yield "fig4-batches", ["das", "--preset", "fig4", "--seed", "1..40"]
    yield "das-select-scattered", ["das", "--config", str(WORKLOADS / "das-select.cfg"),
                                   "--seed", "20,3,9,1"]
    for fig in ("fig6", "fig7", "fig8"):
        yield fig, ["aloha", "--preset", fig, "--seed", "1..30"]
    yield "aloha-scattered", ["aloha", "--preset", "fig7", "--seed", SCATTERED]
    yield "das-csv", ["das", "--config", "das-csv.cfg", "--seed", "1..3"]
    yield "das-csv-bad-app", ["das", "--config", "das-csv-bad-app.cfg", "--seed", "1..3"]
    yield "aloha-sleep", ["aloha", "--config", "aloha-sleep.cfg", "--seed", "1..40"]
    yield "aloha-wide", ["aloha", "--config", "aloha-wide.cfg", "--seed", "1..30"]
    yield "fig7-json", ["aloha", "--preset", "fig7", "--seed", "1..5", "--format", "json"]
    yield "das-select-scattered-json", ["das", "--config", str(WORKLOADS / "das-select.cfg"),
                                        "--seed", "20,3,9,1", "--format", "json"]
    yield "das-2d-scored", ["das", "--config", "das-2d-scored.cfg", "--seed", "1..6"]


def write_matrix(out: Path, run) -> None:
    """Write the matrix's inputs and, for each case, its records and log into
    ``out``.  ``run(args, cwd)`` runs fieldsense with ``args`` in ``cwd`` and
    returns its exit code, stdout and stderr."""
    spec = importlib.util.spec_from_file_location("make_station_csv",
                                                  ROOT / "scripts" / "make_station_csv.py")
    stations = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stations)
    with contextlib.redirect_stdout(io.StringIO()):
        stations.main([str(out / "stations.csv"), "--n", "120"])
    (out / "das-csv.cfg").write_text(CSV_CONFIG, encoding="utf-8")
    (out / "aloha-sleep.cfg").write_text(SLEEP_CONFIG, encoding="utf-8")
    (out / "aloha-wide.cfg").write_text(WIDE_CONFIG, encoding="utf-8")
    (out / "das-csv-bad-app.cfg").write_text(BAD_APP_CONFIG, encoding="utf-8")
    (out / "das-2d-scored.cfg").write_text(SCORED_2D_CONFIG, encoding="utf-8")
    for name, fs_args in cases():
        path = f"{name}.json" if "json" in fs_args else f"{name}.csv"
        code, stdout, stderr = run([*fs_args, "--out", path], out)
        (out / f"{name}.log").write_text(
            f"exit {code}\n--- stdout\n{stdout}--- stderr\n{stderr}", encoding="utf-8")
        print(f"{name}: exit {code}, {out / path}", flush=True)


def blas_env() -> dict:
    """This environment with one BLAS thread and this checkout's ``src/`` first
    on the path."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_fresh(args, cwd):
    """Run ``python -m fieldsense args`` in a fresh interpreter (one BLAS thread)."""
    proc = subprocess.run([sys.executable, "-m", "fieldsense", *args],
                          cwd=cwd, env=blas_env(), capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(args, cwd):
    """Run ``fieldsense.cli.main(args)`` in this interpreter, in ``cwd``."""
    from fieldsense.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)
    finally:
        os.chdir(here)
    return code, stdout.getvalue(), stderr.getvalue()


def digests(out: Path) -> dict:
    """The SHA-256 of every file in ``out``, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", help="directory for the records (created if missing)")
    args = parser.parse_args(argv)
    out = Path(args.outdir).resolve()
    out.mkdir(parents=True, exist_ok=True)
    write_matrix(out, run_fresh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
