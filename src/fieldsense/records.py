"""Run records: the blocks a run's cells make, their aggregates, and the result files.

Each cell of a run (an ALOHA (B, Q, mode) cell, or a DAS policy) formats its
records' CSV lines and reduces their aggregates where it runs, into a
:class:`RecordBlock`.  Emission merges the blocks' lines into (seed, round,
metric) order, a run of seeds at a time, and writes them as ``csv.writer``
or ``json.dump`` would.  :class:`RunRecord` and :func:`read_records_csv` are
the read-side view of the same records.
"""

import csv
import json
from dataclasses import dataclass, field as dc_field
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One record, as a test or a reader of a records file sees it."""

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


class RecordBlock:
    """The records of one cell of a run: rounds 1..``rounds`` of each metric
    in ``metrics`` (sorted) for each seed in ``seeds`` (ascending), as CSV
    lines in (seed, round, metric) order.

    ``text`` holds each record's line ``seed,round,metric,value,extra`` and
    its newline, as ``csv.writer`` writes the row: no field needs quoting,
    since seeds and rounds are integers, values are float reprs, and metric
    names and extras hold no comma, quote or line break.  Seed ``seeds[j]``'s
    lines are ``text[offsets[j]:offsets[j + 1]]``.
    """

    # a plain class: a frozen dataclass costs about 1 ms more at import
    __slots__ = ("metrics", "seeds", "rounds", "offsets", "text")

    def __init__(self, metrics: tuple[str, ...], seeds: np.ndarray, rounds: int,
                 offsets: np.ndarray, text: str):
        self.metrics, self.seeds, self.rounds = metrics, seeds, rounds
        self.offsets, self.text = offsets, text

    def __len__(self):
        return self.seeds.size * self.rounds * len(self.metrics)


@dataclass
class RunResult:
    """A run's records, in the blocks its cells made, their aggregates, and
    the seeds that failed, as (seed, label, message)."""

    blocks: list[RecordBlock]
    aggregates: list[AggRecord]
    failures: list[tuple[int, str, str]] = dc_field(default_factory=list)

    @property
    def n_records(self) -> int:
        return sum(map(len, self.blocks))

    @property
    def records(self) -> list[RunRecord]:
        """Every record in (seed, round, metric) order, read back from its line."""
        return [_record(line.split(",", 4))
                for lines in _merged_lines(self.blocks) for line in lines]


def build_block(seeds, rounds: int, columns: dict, failed=()) -> tuple:
    """A cell's :class:`RecordBlock` and its aggregates.

    ``columns`` maps each metric to its values and extras, each a list over
    ``seeds`` (ascending) and rounds 1..``rounds`` in (seed, round) order.
    The seeds in ``failed`` are dropped: a failed seed writes no records.
    """
    metrics = tuple(sorted(columns))
    kept = [i for i, seed in enumerate(seeds) if seed not in failed]
    cols = [(metric, *columns[metric]) for metric in metrics]
    lines = [f"{seeds[i]},{j - i * rounds + 1},{metric},{values[j]!r},{extras[j]}"
             for i in kept for j in range(i * rounds, (i + 1) * rounds)
             for metric, values, extras in cols]
    aggs = []
    if kept:
        for metric in metrics:  # each metric's (seeds, rounds) grid, seeds ascending
            grid = np.array(columns[metric][0], dtype=float).reshape(len(seeds), rounds)
            aggs += _agg_rows(metric, range(1, rounds + 1), np.ascontiguousarray(grid[kept].T))
    return _block(metrics, np.array(seeds, dtype=np.int64)[kept], rounds, lines), aggs


def _block(metrics, seeds: np.ndarray, rounds: int, lines: list[str]) -> RecordBlock:
    """The block of ``lines`` (without newlines), ``rounds * len(metrics)``
    of them for each seed in ``seeds``."""
    lengths = np.fromiter(map(len, lines), np.int64, len(lines)) + 1
    per_seed = lengths.reshape(seeds.size, rounds * len(metrics)).sum(axis=1)
    return RecordBlock(metrics, seeds, rounds, np.concatenate(([0], np.cumsum(per_seed))),
                       "\n".join(lines) + "\n" if lines else "")


def _agg_rows(metric: str, rounds, block: np.ndarray) -> list[AggRecord]:
    """Mean and population standard deviation of each round of ``metric``,
    one row of the C-contiguous (rounds, values) ``block`` per round.

    numpy reduces each row as it would the round's values alone, so the
    bits are those of ``np.mean`` and ``np.std`` of each round's values.
    """
    return [AggRecord(metric, t, mean, std, block.shape[1]) for t, mean, std in
            zip(rounds, block.mean(axis=1).tolist(), block.std(axis=1).tolist())]


# About how many records the merge orders and writes at a time.  It holds
# each as a string object meanwhile, so runs of this size keep the writer's
# memory below what the cells freed before it.
_MERGE_LINES = 1 << 11


def _merged_lines(blocks):
    """Every block's CSV lines, without newlines, in (seed, round, metric) order.

    Yields them a run of seeds at a time, about ``_MERGE_LINES`` lines a
    run.  A run of seeds is one stretch of each block's text; one
    ``np.lexsort`` over the stretches orders the run.
    """
    blocks = [b for b in blocks if len(b)]
    if not blocks:
        return
    names = sorted({name for b in blocks for name in b.metrics})
    ranks = [np.array([names.index(name) for name in b.metrics]) for b in blocks]
    seeds = np.array(sorted({seed for b in blocks for seed in b.seeds.tolist()}))
    step = max(1, _MERGE_LINES * seeds.size // sum(map(len, blocks)))
    for i in range(0, seeds.size, step):
        run = seeds[i : i + step]
        lines, keys = [], []
        for b, rank in zip(blocks, ranks):
            # the run's last seed may be 2**63 - 1, so no seed past it is formed
            lo, hi = b.seeds.searchsorted(run[0]), b.seeds.searchsorted(run[-1], side="right")
            if lo < hi:
                lines += b.text[b.offsets[lo] : b.offsets[hi] - 1].split("\n")
                keys.append((np.repeat(b.seeds[lo:hi], b.rounds * rank.size),
                             np.tile(np.repeat(np.arange(b.rounds), rank.size), hi - lo),
                             np.tile(rank, (hi - lo) * b.rounds)))
        seed, rnd, metric = map(np.concatenate, zip(*keys))
        yield [lines[k] for k in np.lexsort((metric, rnd, seed)).tolist()]


# How json.dump writes a non-finite float; any other float is its repr.
_JSON_FLOAT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write_json_records(fh, blocks):
    """Write the records as ``json.dump(..., sort_keys=True, indent=1)``
    writes their list of objects."""
    sep = "[\n"
    for lines in _merged_lines(blocks):
        items = []
        for line in lines:
            seed, rnd, metric, value, extra = line.split(",", 4)
            items.append(f' {{\n  "extra": {_json_str(extra)},\n  "metric": {_json_str(metric)},\n'
                         f'  "round": {rnd},\n  "seed": {seed},\n'
                         f'  "value": {_JSON_FLOAT.get(value, value)}\n }}')
        fh.write(sep + ",\n".join(items))
        sep = ",\n"
    fh.write("[]" if sep == "[\n" else "\n]")


def emit_results(result: RunResult, fmt: str, path):
    """Write records to ``path`` and aggregates to ``path + '.agg'``.

    CSV columns: seed,round,metric,value,extra (aggregates:
    metric,round,mean,std,n).  JSON mirrors the same rows as object lists.
    Records come in (seed, round, metric) order.  The bytes are those of
    ``csv.writer`` and ``json.dump(..., sort_keys=True, indent=1)`` over the
    rows, so identical results write identical files.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    agg_path = str(path) + ".agg"
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("seed,round,metric,value,extra\n")
            for lines in _merged_lines(result.blocks):
                fh.write("\n".join(lines) + "\n")
        with open(agg_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("metric,round,mean,std,n\n")
            fh.write("".join(f"{a.metric},{a.round},{a.mean!r},{a.std!r},{a.n}\n"
                             for a in result.aggregates))
    else:
        with open(path, "w", encoding="utf-8") as fh:
            _write_json_records(fh, result.blocks)
            fh.write("\n")
        aggs = [
            {"metric": a.metric, "round": a.round, "mean": a.mean,
             "std": a.std, "n": a.n}
            for a in result.aggregates
        ]
        with open(agg_path, "w", encoding="utf-8") as fh:
            json.dump(aggs, fh, sort_keys=True, indent=1)
            fh.write("\n")


def _record(row) -> RunRecord:
    """The record of a records CSV row (its five fields as strings)."""
    return RunRecord(int(row[0]), int(row[1]), row[2], float(row[3]), row[4])


def read_records_csv(path) -> list[RunRecord]:
    """Re-parse a CSV records file (the round-trip inverse of emit_results)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    return [_record(row) for row in rows[1:]]
