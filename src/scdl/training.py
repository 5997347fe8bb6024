"""Training orchestration: pre-training, self denoising, collaborative label rewriting.

Two structurally distinct teacher-student networks train on the same batch
stream. Each network selects trustworthy tokens against its own noisy
track; every `update_cycle` steps the teachers rewrite each other's track.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .corpus import AnnotatedSentence, TagVocabulary
from .denoise import TeacherStudentPair, confident_mask, consistent_mask, ema_update
from .metrics import CurvePoint, SpanScore, score_tags
from .tagger import (
    PAD_BUCKET,
    TaggerConfig,
    TaggerParams,
    TokenBatch,
    _one_hot,
    as_batch,
    encode,
    forward,
    init_params,
    labels_from_dists,
    loss_hard,
    loss_soft,
    predict_labels,
    sgd_step,
)

ABLATIONS = ("no_consistency", "no_confidence", "single_network", "no_teachers", "hard_labels")

MODEL_ORDER = ("teacher1", "student1", "teacher2", "student2")

TRACKS = ("noisy_i", "noisy_ii")  # network k trains on TRACKS[k - 1]


class TrainingDiverged(RuntimeError):
    """A loss or parameter went non-finite; message carries diagnostics."""


@dataclass(frozen=True)
class ScdlConfig:
    batch_size: int = 16
    max_epochs: int = 7
    gamma: float = 2.0
    alpha: float = 0.995
    delta: float = 0.9
    update_cycle: int = 0  # 0 means "about seven epochs of the loaded corpus"
    pretrain_epochs: int = 6
    seed: int = 0
    hash_buckets: int = 4096
    net1_embed_dim: int = 24
    net1_window: int = 1
    net1_hidden_dim: int = 32
    net2_embed_dim: int = 20
    net2_window: int = 1
    net2_hidden_dim: int = 20
    student_word_dropout: float = 0.0
    ablations: frozenset = frozenset()

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("gamma must be finite and > 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must be in (0, 1]")
        if self.update_cycle < 0:
            raise ValueError("update_cycle must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 0 or self.pretrain_epochs < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 <= self.student_word_dropout < 1.0:
            raise ValueError("student_word_dropout must be in [0, 1)")
        unknown = set(self.ablations) - set(ABLATIONS)
        if unknown:
            raise ValueError(f"unknown ablations: {sorted(unknown)}")
        self.tagger_configs(1)  # TaggerConfig checks hash_buckets and the dimensions

    def tagger_configs(self, num_tags: int) -> tuple[TaggerConfig, TaggerConfig]:
        c1 = TaggerConfig(
            num_tags=num_tags,
            vocab_hash_buckets=self.hash_buckets,
            embed_dim=self.net1_embed_dim,
            window=self.net1_window,
            hidden_dim=self.net1_hidden_dim,
            init_seed=11,
        )
        c2 = TaggerConfig(
            num_tags=num_tags,
            vocab_hash_buckets=self.hash_buckets,
            embed_dim=self.net2_embed_dim,
            window=self.net2_window,
            hidden_dim=self.net2_hidden_dim,
            init_seed=23,
        )
        return c1, c2

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "ablations":
                value = ",".join(sorted(value))
            lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ScdlConfig":
        typed = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or key not in typed:
                raise ValueError(f"config line {lineno}: unknown entry {line!r}")
            if key == "ablations":
                kwargs[key] = frozenset(v for v in value.split(",") if v)
                continue
            try:
                kwargs[key] = int(value) if typed[key] == "int" else float(value)
            except ValueError:
                raise ValueError(f"config line {lineno}: bad value for {key}: {value!r}") from None
        return cls(**kwargs)


@dataclass
class MaskStats:
    selected: int
    total: int
    loss: float


@dataclass
class TrainState:
    """The two pairs and the training corpus hashed once, whose flat noisy
    tracks the rewrites replace; `tokens` are the sentences' token lists."""

    pair1: TeacherStudentPair
    pair2: TeacherStudentPair
    corpus: TokenBatch
    tokens: list[list[str]]
    step: int = 0

    @property
    def sentences(self) -> list[AnnotatedSentence]:
        """The training sentences with their tracks split from `corpus`,
        built anew on each access; a track the batch lacks is None."""
        rows = {name: self.corpus.split(tags) for name, tags in self.corpus.tracks.items()}
        return [
            AnnotatedSentence(tokens, **{name: tags[i] for name, tags in rows.items()})
            for i, tokens in enumerate(self.tokens)
        ]

    def models(self) -> dict[str, TaggerParams]:
        """The four models by name, in MODEL_ORDER."""
        return dict(
            zip(
                MODEL_ORDER,
                (self.pair1.teacher, self.pair1.student, self.pair2.teacher, self.pair2.student),
            )
        )


@dataclass
class TrainResult:
    best_model: str
    best_params: TaggerParams
    best_f1: float
    history: list[CurvePoint]
    refinery: list[tuple[int, str, SpanScore]]  # (step, track, score)
    state: TrainState = None
    selection_trace: list[tuple[int, str, int, int]] = field(default_factory=list)


def _check_finite(loss: float, where: str) -> None:
    if not math.isfinite(loss):
        raise TrainingDiverged(f"non-finite loss {loss!r} during {where}")


def _check_parameters(models: dict[str, TaggerParams], where: str) -> None:
    for name, params in models.items():
        for block in TaggerParams.BLOCK_NAMES:
            if not np.isfinite(getattr(params, block)).all():
                raise TrainingDiverged(f"non-finite parameter in {name}.{block} {where}")


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        yield order[start : start + batch_size].tolist()


def pretrain(
    config: ScdlConfig,
    corpus,
    vocab: TagVocabulary,
    rng: np.random.Generator | None = None,
) -> tuple[TaggerParams, TaggerParams]:
    """Warm up both taggers with hard cross entropy on the distant labels.

    `corpus` is a list of sentences or a TokenBatch of them.
    """
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    params = [init_params(c) for c in config.tagger_configs(vocab.size)]
    corpus = as_batch(corpus, config.hash_buckets)
    for p in params:
        corpus.context_ids(p.config.window)  # built once; every batch takes its rows
    for epoch in range(config.pretrain_epochs):
        order = rng.permutation(len(corpus))
        for batch_idx in _batches(order, config.batch_size):
            batch = corpus.take(batch_idx)
            for k, track in enumerate(TRACKS):
                loss, grad = loss_hard(params[k], batch, track)
                _check_finite(loss, f"pretrain epoch {epoch} (network {k + 1})")
                sgd_step(params[k], grad, config.gamma, in_place=True)
        _check_parameters(
            {f"network{k + 1}": p for k, p in enumerate(params)}, f"after pretrain epoch {epoch}"
        )
    return tuple(params)


def self_denoise_step(
    pair: TeacherStudentPair,
    batch,
    track: str,
    config: ScdlConfig,
    vocab: TagVocabulary,
    dropout_rng: np.random.Generator | None = None,
    *,
    in_place: bool = False,
) -> tuple[TeacherStudentPair, MaskStats]:
    """One inner-loop step: select tokens, update student, EMA the teacher.

    `batch` is a list of sentences or a TokenBatch of them. The teacher
    predicts on clean input. While teacher and student are equal, soft
    targets are the student's own output and the gradient is exactly
    zero. Every pair starts so after pretraining; with
    student_word_dropout = 0, the default, it stays there up to rounding
    in the EMA and no model's dev F1 moves. With student_word_dropout > 0
    the student trains on a copy with random tokens blanked to the
    padding bucket, which moves it off that point; it needs
    `dropout_rng`. When nothing is selected, both models are left
    untouched. The updated models are copies or, with `in_place`, the
    pair's own buffers written over.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    if config.student_word_dropout > 0.0 and dropout_rng is None:
        raise ValueError("student_word_dropout > 0 needs a dropout_rng")
    abl = config.ablations
    batch = as_batch(batch, pair.student.config.vocab_hash_buckets)
    noisy = batch.track(track)
    dists = forward(pair.teacher, batch)
    mask = np.ones(len(noisy), dtype=bool)
    if "no_consistency" not in abl:
        mask &= consistent_mask(noisy, labels_from_dists(dists, vocab, batch.starts))
    if "no_confidence" not in abl:
        mask &= confident_mask(dists, config.delta)
    selected = int(mask.sum())
    if selected == 0:
        return pair, MaskStats(0, len(noisy), 0.0)
    targets = _one_hot(noisy, vocab.size) if "hard_labels" in abl else dists
    student_batch = batch
    if config.student_word_dropout > 0.0:
        drop = dropout_rng.random(len(noisy)) < config.student_word_dropout
        student_batch = TokenBatch(np.where(drop, PAD_BUCKET, batch.ids), batch.offsets, batch.buckets)
    loss, grad = loss_soft(pair.student, student_batch, targets, mask)
    _check_finite(loss, "self denoising")
    student = sgd_step(pair.student, grad, config.gamma, in_place=in_place)
    pair = ema_update(TeacherStudentPair(pair.teacher, student, pair.alpha), in_place=in_place)
    return pair, MaskStats(selected, len(noisy), loss)


def collaborative_update(state: TrainState, vocab: TagVocabulary) -> None:
    """Teachers rewrite each other's noisy track over the whole training set."""
    for track, teacher in (("noisy_i", state.pair2.teacher), ("noisy_ii", state.pair1.teacher)):
        state.corpus.tracks[track] = predict_labels(teacher, state.corpus, vocab)


def select_best(candidates) -> tuple[str, TaggerParams, float]:
    """First maximal dev score in the fixed model order."""
    best = None
    for name, params, score in candidates:
        if not math.isfinite(score):
            raise ValueError(f"non-finite dev score for {name}")
        if best is None or score > best[2]:
            best = (name, params, score)
    return best


def evaluate_models(state: TrainState, dev: TokenBatch, vocab: TagVocabulary) -> dict[str, SpanScore]:
    """Span score of each model on `dev`, which carries the gold track."""
    gold, starts = dev.track("gold"), dev.starts
    return {
        name: score_tags(predict_labels(p, dev, vocab), gold, vocab, starts)
        for name, p in state.models().items()
    }


def train(
    config: ScdlConfig,
    train_corpus,
    dev_corpus,
    vocab: TagVocabulary,
    epoch_callback=None,
) -> TrainResult:
    """Full pipeline; returns the best of the four models on dev span F1.

    The caller's corpora are not mutated: `encode` copies their tags. The
    live rewritten tracks are `result.state.corpus.tracks["noisy_i"]` and
    `["noisy_ii"]`, flat in the batch layout; `result.state.sentences` is
    a copy built on each access, so editing its tags changes nothing.
    Training writes SGD and EMA steps into the models' own buffers: the
    models of `result.state`, and of the state `epoch_callback` receives,
    are live, so a callback that keeps them must copy them.
    `result.best_params` is a copy.
    """
    if not dev_corpus or any(s.gold is None for s in [*train_corpus, *dev_corpus]):
        raise ValueError("training and dev corpora with gold track required")
    rng = np.random.default_rng(config.seed)
    corpus = encode(train_corpus, config.hash_buckets, ("gold",) + TRACKS)
    dev = encode(dev_corpus, config.hash_buckets, ("gold",))
    gold, starts = corpus.track("gold"), corpus.starts
    p1, p2 = pretrain(config, corpus, vocab, rng)
    alpha = 0.0 if "no_teachers" in config.ablations else config.alpha
    state = TrainState(
        pair1=TeacherStudentPair.from_params(p1, alpha),
        pair2=TeacherStudentPair.from_params(p2, alpha),
        corpus=corpus,
        tokens=[s.tokens for s in train_corpus],
    )
    single = "single_network" in config.ablations
    networks = [(k, TRACKS[k - 1], np.random.default_rng([config.seed, k])) for k in (1, 2)]
    if single:
        networks = networks[:1]
    per_epoch = math.ceil(len(corpus) / config.batch_size)
    cycle = config.update_cycle or 7 * per_epoch

    history: list[CurvePoint] = []
    refinery: list[tuple[int, str, SpanScore]] = []
    selection_trace: list[tuple[int, str, int, int]] = []
    best = None

    def record(step: int):
        nonlocal best
        _check_parameters(state.models(), f"at step {step}")
        scores = evaluate_models(state, dev, vocab)
        for name in MODEL_ORDER:
            s = scores[name]
            history.append(CurvePoint(step, name, "dev", s.precision, s.recall, s.f1))
        for track in TRACKS:
            refinery.append((step, track, score_tags(corpus.track(track), gold, vocab, starts)))
        name, params, f1 = select_best(
            (name, params, scores[name].f1) for name, params in state.models().items()
        )
        if best is None or f1 > best[2]:
            best = (name, params.copy(), f1)

    record(step=0)
    if epoch_callback is not None:
        epoch_callback(0, state)
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(corpus))
        for batch_idx in _batches(order, config.batch_size):
            batch = corpus.take(batch_idx)
            state.step += 1
            for k, track, drop_rng in networks:
                pair, stats = self_denoise_step(
                    getattr(state, f"pair{k}"), batch, track, config, vocab, drop_rng, in_place=True
                )
                setattr(state, f"pair{k}", pair)
                selection_trace.append((state.step, f"net{k}", stats.selected, stats.total))
            if not single and state.step % cycle == 0:
                collaborative_update(state, vocab)
        record(state.step)
        if epoch_callback is not None:
            epoch_callback(epoch, state)

    name, params, f1 = best
    return TrainResult(
        best_model=name,
        best_params=params,
        best_f1=f1,
        history=history,
        refinery=refinery,
        state=state,
        selection_trace=selection_trace,
    )
