"""Span-level scoring and learning-curve emission."""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .corpus import TagVocabulary, bio_spans, flat_tags, flatten


@dataclass(frozen=True)
class SpanScore:
    true_positives: int
    predicted: int
    gold: int

    @property
    def precision(self) -> float:
        return self.true_positives / self.predicted if self.predicted else 0.0

    @property
    def recall(self) -> float:
        return self.true_positives / self.gold if self.gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


def score_tags(predicted, gold, vocab: TagVocabulary, offsets=None) -> SpanScore:
    """Exact-match span score of flat predicted tags against flat gold tags.

    Both lay the same sentences end to end, `offsets` as in repair_bio.
    """
    if len(predicted) != len(gold):
        raise ValueError("predicted and gold tags differ in length")
    p_begin, p_end, p_code = bio_spans(predicted, vocab, offsets)
    g_begin, g_end, g_code = bio_spans(gold, vocab, offsets)
    # begins are unique within a track: a match shares its begin, end and code
    _, p, g = np.intersect1d(p_begin, g_begin, assume_unique=True, return_indices=True)
    tp = int(np.count_nonzero((p_end[p] == g_end[g]) & (p_code[p] == g_code[g])))
    return SpanScore(tp, len(p_begin), len(g_begin))


def span_prf1(predicted, gold, vocab: TagVocabulary) -> SpanScore:
    """Exact-match micro-averaged span score.

    A predicted span is correct only when start, end and type all match
    a gold span of the same sentence.
    """
    if len(predicted) != len(gold):
        raise ValueError("predicted and gold corpora differ in length")
    (tags, offsets), (gold_tags, gold_offsets) = flat_tags(predicted), flat_tags(gold)
    misfit = np.flatnonzero(offsets != gold_offsets)
    if len(misfit):
        i = int(misfit[0]) - 1  # offsets[i + 1] is the first that differs
        raise ValueError(f"sentence {i}: {len(predicted[i])} predicted tags for {len(gold[i])} gold tags")
    return score_tags(tags, gold_tags, vocab, offsets)


def refinery_report(sentences, vocab: TagVocabulary, track: str = "noisy_i") -> SpanScore:
    """How close a rewritten noisy track has come to the gold labels."""
    _, offsets, tracks = flatten(sentences, "gold", track)
    return score_tags(tracks[track], tracks["gold"], vocab, offsets)


@dataclass(frozen=True)
class CurvePoint:
    step: int
    model: str
    split: str
    precision: float
    recall: float
    f1: float


def emit_curve(history) -> str:
    """CSV learning curve, rows sorted by step then model then split."""
    points = list(history)
    if not points:
        raise ValueError("empty metric history")
    points.sort(key=lambda p: (p.step, p.model, p.split))
    out = io.StringIO()
    out.write("step,model,split,precision,recall,f1\n")
    for p in points:
        out.write(
            f"{p.step},{p.model},{p.split},{p.precision:.6f},{p.recall:.6f},{p.f1:.6f}\n"
        )
    return out.getvalue()
