"""Per-layer spans for fieldsense, recorded from outside the package.

`Tracer.install` replaces each layer's public functions with timing wrappers
in every ``fieldsense`` module that holds a reference to them, so a function
imported by name into another module (``posterior_mean_and_variance`` in
``das`` and ``aloha``, ``run_experiment`` in ``cli``) is timed wherever it is
called.  Methods are wrapped on their class.  A layer whose module or name no
longer exists is recorded as absent instead of failing.

Spans are kept in memory as ``(name, start, end, parent, run)`` and written
as JSON lines when the traced process ends.  ``run`` identifies the seed-run
(one ``run_das`` or ``run_aloha`` call) a span belongs to, ``-`` outside one.
`summarize` turns a span file into per-layer call counts and self times,
where self time is a span's duration minus that of its child spans.
"""

import functools
import importlib
import json
import sys
import time

import numpy as np

# (layer, module, attribute); a dotted attribute names a method on a class.
# Several entries may share a layer.
LAYERS = (
    ("gp.gram", "fieldsense.gp", "gram"),
    ("gp.posterior", "fieldsense.gp", "posterior"),
    ("gp.posterior_mean_and_variance", "fieldsense.gp", "posterior_mean_and_variance"),
    ("gp.conditioner.init", "fieldsense.gp", "IncrementalConditioner.__init__"),
    ("gp.conditioner.observe", "fieldsense.gp", "IncrementalConditioner.observe"),
    ("gp.conditioner.hypothetical_reduction", "fieldsense.gp",
     "IncrementalConditioner.hypothetical_reduction"),
    ("apps.select_weighted_sum", "fieldsense.apps", "select_weighted_sum"),
    ("das.run_das", "fieldsense.das", "run_das"),
    ("aloha.run_aloha", "fieldsense.aloha", "run_aloha"),
    ("aloha.simulate_round", "fieldsense.aloha", "simulate_round"),
    ("aloha.contend", "fieldsense.aloha", "contend"),
    ("fields.gen", "fieldsense.fields", "gen_1d"),
    ("fields.gen", "fieldsense.fields", "gen_2d"),
    ("fields.gen", "fieldsense.fields", "gen_random_sinusoid"),
    ("experiments.run_experiment", "fieldsense.experiments", "run_experiment"),
    ("experiments.emit_results", "fieldsense.experiments", "emit_results"),
    ("cli.main", "fieldsense.cli", "main"),
)

# Layers whose call starts a new seed-run.
SEED_RUN_LAYERS = ("das.run_das", "aloha.run_aloha")


def _count_gram(counters, args, kwargs, result):
    counters["gp.gram.cells"] += int(np.size(result))


def _count_posterior_obs(counters, args, kwargs, result):
    values = args[1] if len(args) > 1 else kwargs["observed_values"]
    counters["gp.posterior_mean_and_variance.obs"] += int(np.size(values))


def _count_contend(counters, args, kwargs, result):
    active, _, success = result
    counters["aloha.active"] += int(np.sum(active))
    counters["aloha.successes"] += int(np.sum(success))


def _count_records(counters, args, kwargs, result):
    counters["experiments.records"] += len(result.records)


# Counts taken from a layer's arguments or result, at its boundary.
COUNTERS = {
    "gp.gram": _count_gram,
    "gp.posterior_mean_and_variance": _count_posterior_obs,
    "aloha.contend": _count_contend,
    "experiments.run_experiment": _count_records,
}
COUNTER_NAMES = ("gp.gram.cells", "gp.posterior_mean_and_variance.obs",
                 "aloha.active", "aloha.successes", "experiments.records")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.absent = []
        self._stack = []
        self._run = "-"
        self._n_runs = 0

    def _wrap(self, layer, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = COUNTERS.get(layer)
        new_run = layer in SEED_RUN_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_run = self._run
            if new_run:
                self._run = str(self._n_runs)
                self._n_runs += 1
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self._run]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                self._run = outer_run
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every layer in LAYERS; return the layers found absent."""
        found = set()
        for layer, module_name, attr in LAYERS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                continue
            found.add(layer)
            wrapped = self._wrap(layer, fn)
            if owner_name:
                setattr(owner, leaf, wrapped)
                continue
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "fieldsense" or name.startswith("fieldsense.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
        layers = dict.fromkeys(layer for layer, _, _ in LAYERS)
        self.absent = [layer for layer in layers if layer not in found]
        return self.absent

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_names():
    return list(dict.fromkeys(layer for layer, _, _ in LAYERS))


def summarize(span_path):
    """Per-layer ``{"calls", "self_s", "total_s"}`` from a span file."""
    with open(span_path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {layer: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for layer in layer_names()}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return out, len(spans)
