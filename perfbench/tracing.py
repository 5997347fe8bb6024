"""Spans and counters around the public functions of each scdl module.

The functions are wrapped from outside: every name under which a module
of the package refers to a traced function is rebound to the wrapper,
so calls between modules (`from .tagger import forward`) are seen too.
The calls made once per sentence or token, hashing, span extraction and
BIO repair, are only counted: a span on each of them costs more than
the work it would measure.
"""

from __future__ import annotations

import contextlib
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _nbytes(params) -> int:
    return sum(block.nbytes for block in params.blocks())


def _add_text_bytes(counts, args, result, note):
    counts["cli.atomic_write_text.bytes"] += len(args[1].encode("utf-8"))


def _add_sgd_bytes(counts, args, result, note):
    # reads parameters and gradient, writes the new parameters
    counts["tagger.sgd_step.bytes"] += 3 * _nbytes(args[0])


def _add_ema_bytes(counts, args, result, note):
    # reads teacher and student, writes the new teacher
    counts["denoise.ema_update.bytes"] += 3 * _nbytes(args[0].teacher)


def _add_checkpoint_bytes(counts, args, result, note):
    counts["tagger.save_checkpoint.bytes"] += os.path.getsize(args[1])


def _add_selection(counts, args, result, note):
    stats = result[1]
    counts["denoise.selected"] += stats.selected
    counts["denoise.seen"] += stats.total


def _snapshot_tracks(state, vocab):
    return [(list(s.noisy_i), list(s.noisy_ii)) for s in state.sentences]


def _add_changed_tokens(counts, args, result, before):
    changed = 0
    for (old_i, old_ii), s in zip(before, args[0].sentences):
        changed += sum(a != b for a, b in zip(old_i, s.noisy_i))
        changed += sum(a != b for a, b in zip(old_ii, s.noisy_ii))
    counts["training.collaborative_update.changed_tokens"] += changed


# "module.function" -> (before hook, after hook); hooks run outside the span.
SPANS = {
    "cli.main": (None, None),
    "cli.atomic_write_text": (None, _add_text_bytes),
    "corpus.parse_conll": (None, None),
    "corpus.write_conll": (None, None),
    "corpus.distant_annotate": (None, None),
    "tagger.forward": (None, None),
    "tagger.predict_labels": (None, None),
    "tagger.loss_hard": (None, None),
    "tagger.loss_soft": (None, None),
    "tagger.sgd_step": (None, _add_sgd_bytes),
    "tagger.save_checkpoint": (None, _add_checkpoint_bytes),
    "denoise.ema_update": (None, _add_ema_bytes),
    "training.pretrain": (None, None),
    "training.self_denoise_step": (None, _add_selection),
    "training.collaborative_update": (_snapshot_tracks, _add_changed_tokens),
    "training.evaluate_models": (None, None),
    "metrics.span_prf1": (None, None),
    "metrics.refinery_report": (None, None),
}

# "module.function" -> whether to also count the tokens of its first argument
COUNTERS = {
    "tagger.token_ids": True,
    "corpus.spans_from_bio": False,
    "corpus.repair_bio": False,
}

BYTES = (
    "tagger.sgd_step.bytes",
    "denoise.ema_update.bytes",
    "tagger.save_checkpoint.bytes",
    "cli.atomic_write_text.bytes",
)
COUNTS = (
    "training.collaborative_update.changed_tokens",
    "tagger.token_ids.calls",
    "tagger.token_ids.tokens",
    "corpus.spans_from_bio.calls",
    "corpus.repair_bio.calls",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced mode reports, with its unit."""
    units = {}
    for name in SPANS:
        units.update({f"{name}.s": "s", f"{name}.self_s": "s", f"{name}.calls": "count"})
    units.update({name: "bytes" for name in BYTES})
    units.update({name: "count" for name in COUNTS})
    units.update(
        {
            "training.self_denoise_step.p50_ms": "ms",
            "training.self_denoise_step.p99_ms": "ms",
            "denoise.selected_ratio": "ratio",
            "trace.overhead_s": "s",
            "trace.overhead_pct": "%",
        }
    )
    return units


class Tracer:
    """Spans (name, start, end, parent, run) kept in flat arrays until the end."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("i")
        self.run_id = 0
        self.counts = defaultdict(int)
        self._stack = [-1]
        self._undo = []

    def _span(self, name, fn, before, after):
        name_id = len(self.names)
        self.names.append(name)
        names, starts, ends, parents, runs = self.name, self.start, self.end, self.parent, self.run
        stack, counts = self._stack, self.counts

        def wrapper(*args, **kwargs):
            note = before(*args) if before else None
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after:
                after(counts, args, result, note)
            return result

        return wrapper

    def _counter(self, name, fn, sized):
        counts, calls, tokens = self.counts, f"{name}.calls", f"{name}.tokens"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if sized:
                counts[tokens] += len(args[0])
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, modules, name, make):
        module, function = name.split(".")
        original = getattr(sys.modules[f"scdl.{module}"], function)
        wrapped = make(original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapped)
                    self._undo.append((m, attr, original))

    @contextlib.contextmanager
    def installed(self):
        """Trace every call into the package inside the block as run `run_id`."""
        modules = [m for n, m in list(sys.modules.items()) if n == "scdl" or n.startswith("scdl.")]
        for name, (before, after) in SPANS.items():
            self._rebind(modules, name, lambda fn: self._span(name, fn, before, after))
        for name, sized in COUNTERS.items():
            self._rebind(modules, name, lambda fn: self._counter(name, fn, sized))
        try:
            yield self
        finally:
            for m, attr, original in reversed(self._undo):
                setattr(m, attr, original)
            self._undo.clear()
            self.run_id += 1

    def metrics(self, runs: int) -> dict[str, float]:
        """Per-run totals: time, self time and calls per function, plus the counts.

        Spans come from one thread and nest strictly, so the children of a
        span never overlap and the part of it they cover is the sum of
        their durations.
        """
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += duration[i]
        totals = defaultdict(float)
        denoise_steps = []
        for i in range(n):
            name = self.names[self.name[i]]
            totals[f"{name}.s"] += duration[i]
            totals[f"{name}.self_s"] += duration[i] - covered[i]
            totals[f"{name}.calls"] += 1
            if name == "training.self_denoise_step":
                denoise_steps.append(duration[i] * 1e3)
        out = {}
        for name in SPANS:
            for key in (f"{name}.s", f"{name}.self_s", f"{name}.calls"):
                out[key] = totals[key] / runs
        for key in BYTES + COUNTS:
            out[key] = self.counts[key] / runs
        p50, p99 = np.percentile(denoise_steps, [50, 99]).tolist() if denoise_steps else (0.0, 0.0)
        out["training.self_denoise_step.p50_ms"] = p50
        out["training.self_denoise_step.p99_ms"] = p99
        seen = self.counts["denoise.seen"]
        out["denoise.selected_ratio"] = self.counts["denoise.selected"] / seen if seen else 0.0
        return out

    def write(self, path) -> None:
        """All spans as CSV: name, start, end, parent index (-1 for a root), run."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,run\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.parent[i]},{self.run[i]}\n"
                )
