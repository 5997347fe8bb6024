"""Span-level scoring and learning-curve emission."""

from __future__ import annotations

import io
from dataclasses import dataclass

from .corpus import TagVocabulary, spans_from_bio


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


def corpus_spans(tags_corpus, vocab: TagVocabulary) -> list[set]:
    """The span set of each sentence, to score many predictions against."""
    return [set(spans_from_bio(tags, vocab)) for tags in tags_corpus]


def score_spans(predicted, gold_spans, vocab: TagVocabulary) -> SpanScore:
    """span_prf1 against one gold span set per sentence; lengths are not checked."""
    tp = n_pred = n_gold = 0
    for pred_tags, gold in zip(predicted, gold_spans):
        pred = set(spans_from_bio(pred_tags, vocab))
        tp += len(pred & gold)
        n_pred += len(pred)
        n_gold += len(gold)
    return SpanScore(tp, n_pred, n_gold)


def span_prf1(predicted, gold, vocab: TagVocabulary) -> SpanScore:
    """Exact-match micro-averaged span score.

    A predicted span is correct only when start, end and type all match
    a gold span of the same sentence.
    """
    if len(predicted) != len(gold):
        raise ValueError("predicted and gold corpora differ in length")
    if any(len(p) != len(g) for p, g in zip(predicted, gold)):
        raise ValueError("sentence length mismatch")
    return score_spans(predicted, (set(spans_from_bio(g, vocab)) for g in gold), vocab)


def refinery_report(
    sentences, vocab: TagVocabulary, track: str = "noisy_i", gold_spans=None
) -> SpanScore:
    """How close a rewritten noisy track has come to the gold labels.

    `gold_spans` (from corpus_spans) saves re-extracting the gold spans.
    """
    if gold_spans is None:
        for s in sentences:
            if s.gold is None:
                raise ValueError("refinery report requires the gold track")
        return span_prf1([s.track(track) for s in sentences], [s.gold for s in sentences], vocab)
    return score_spans([s.track(track) for s in sentences], gold_spans, vocab)


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
