"""Correctness gate over the records a fieldsense run emitted.

Invariants hold on any seed batch:
- the record count is what the workload's grid implies;
- DAS: per seed-run, rounds run 1..R, ``mse`` never increases and the
  ``selected`` sensors are distinct;
- ALOHA: per round, |succ| <= min(B, k); no sensor succeeds twice in one
  seed-run; psi stays at psi0 in conventional mode.

On the reference seed batch the records must also match the traces recorded
at the seed commit: integer traces (``selected``, ``succ``, ``k``) exactly
and floats (``value``, ``psi``) within REL_TOL/ABS_TOL, so that reordered
arithmetic (about 4e-14 on ALOHA SSE) passes and a changed result does not.
"""

import csv
import math

REL_TOL = 1e-9
ABS_TOL = 1e-12
INT_KEYS = ("selected", "succ", "k")

# Allowed rise of a DAS mse between rounds, relative to its size: round-off
# only; the posterior variance sum cannot grow when a sensor is observed.
MSE_RISE = 1e-12

# psi0 of the fig7 preset, the only ALOHA workload.
ALOHA_PSI0 = 0.0


def read_records(path):
    """Rows of a records CSV as (seed, round, metric, value, extra dict)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["seed", "round", "metric", "value", "extra"]:
        raise ValueError(f"{path}: not a records CSV")
    out = []
    for seed, rnd, metric, value, extra in rows[1:]:
        fields = dict(item.split("=", 1) for item in extra.split(";") if item)
        out.append((int(seed), int(rnd), metric, float(value), fields))
    return out


def _ints(text):
    return [int(s) for s in text.split("|") if s]


def _check_das(records):
    errors = []
    runs = {}
    for seed, rnd, metric, value, extra in records:
        runs.setdefault((seed, metric), []).append((rnd, value, int(extra["selected"])))
    for (seed, metric), rows in runs.items():
        rows.sort()
        if [r for r, _, _ in rows] != list(range(1, len(rows) + 1)):
            errors.append(f"seed {seed} {metric}: rounds are not 1..{len(rows)}")
        for (r0, v0, _), (r1, v1, _) in zip(rows, rows[1:]):
            if v1 > v0 + MSE_RISE * max(1.0, abs(v0)):
                errors.append(f"seed {seed} {metric}: mse rose from {v0!r} "
                              f"(round {r0}) to {v1!r} (round {r1})")
                break
        picks = [s for _, _, s in rows]
        if len(set(picks)) != len(picks):
            errors.append(f"seed {seed} {metric}: a sensor was selected twice")
    return errors


def _check_aloha(records, psi0):
    errors = []
    seen = {}
    for seed, rnd, metric, _, extra in records:
        parts = metric.split(".")
        mode = parts[1]
        if mode == "lower-bound":
            continue
        channels = [int(p[1:]) for p in parts[2:] if p.startswith("B")]
        if len(channels) != 1:
            errors.append(f"{metric}: no channel count B in the metric name")
            continue
        succ, k = _ints(extra["succ"]), int(extra["k"])
        where = f"seed {seed} round {rnd} {metric}"
        if len(succ) > min(channels[0], k):
            errors.append(f"{where}: {len(succ)} successes with B={channels[0]}, k={k}")
        done = seen.setdefault((seed, metric), set())
        if done.intersection(succ) or len(set(succ)) != len(succ):
            errors.append(f"{where}: a sensor succeeded twice")
        done.update(succ)
        if mode == "conventional" and float(extra["psi"]) != psi0:
            errors.append(f"{where}: psi {extra['psi']} != psi0 {psi0!r} in conventional mode")
    return errors


def check_records(records, workload, n_seeds):
    """Invariant violations in one run's records, as messages."""
    expected = n_seeds * workload.records_per_seed
    errors = []
    if len(records) != expected:
        errors.append(f"{len(records)} records, expected {expected}")
    if workload.command == "aloha":
        errors += _check_aloha(records, ALOHA_PSI0)
    else:
        errors += _check_das(records)
    return errors[:20]


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare_reference(records, reference):
    """Differences between records and the reference trace, as messages."""
    if len(records) != len(reference):
        return [f"{len(records)} records, reference has {len(reference)}"]
    errors = []
    for got, want in zip(records, reference):
        key = got[:3]
        if key != want[:3]:
            errors.append(f"record {key} where the reference has {want[:3]}")
        elif not _close(got[3], want[3]):
            errors.append(f"{key}: value {got[3]!r} vs reference {want[3]!r}")
        elif got[4].keys() != want[4].keys():
            errors.append(f"{key}: extra fields {sorted(got[4])} vs {sorted(want[4])}")
        else:
            for name, text in want[4].items():
                same = (got[4][name] == text if name in INT_KEYS
                        else _close(float(got[4][name]), float(text)))
                if not same:
                    errors.append(f"{key}: {name}={got[4][name]} vs reference {text}")
        if len(errors) >= 20:
            break
    return errors
