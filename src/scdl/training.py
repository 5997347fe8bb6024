"""Training orchestration: pre-training, self denoising, collaborative label rewriting.

Two structurally distinct teacher-student networks train on the same batch
stream. Each network selects trustworthy tokens against its own noisy
track; every `update_cycle` steps the teachers rewrite each other's track.
Between rewrites the networks share nothing, so each trains a segment,
the batches up to the next rewrite, on its own: network 2 in a forked child
process over parameters, tracks and EMA masks in shared memory while
network 1 trains in the caller.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
import signal
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from .corpus import AnnotatedSentence, TagVocabulary, flatten, unflatten
from .denoise import TeacherStudentPair, confident_mask, consistent_mask, ema_update
from .metrics import CurvePoint, SpanScore, score_tags
from .tagger import (
    PAD_BUCKET,
    TaggerConfig,
    TaggerParams,
    TokenBatch,
    as_batch,
    forward,
    init_params,
    labels_from_dists,
    loss_hard,
    loss_soft,
    predict_labels,
    sgd_step,
    token_ids,
)

ABLATIONS = ("no_consistency", "no_confidence", "single_network", "no_teachers", "hard_labels")

MODEL_ORDER = ("teacher1", "student1", "teacher2", "student2")

TRACKS = ("noisy_i", "noisy_ii")  # network k trains on TRACKS[k - 1]


class TrainingDiverged(RuntimeError):
    """A loss, parameter or tag probability went non-finite; message carries diagnostics."""


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
        return tuple(
            TaggerConfig(
                num_tags=num_tags,
                vocab_hash_buckets=self.hash_buckets,
                **{name: getattr(self, f"net{k}_{name}") for name in ("embed_dim", "window", "hidden_dim")},
                init_seed=seed,
            )
            for k, seed in ((1, 11), (2, 23))
        )

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
                kwargs[key] = frozenset(filter(None, (v.strip() for v in value.split(","))))
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
    """The two pairs, the training corpus hashed once, whose flat noisy tracks the
    rewrites replace, and a flat copy of its tokens. The tracks are complete at epoch
    ends, in `epoch_callback` and in the result; elsewhere only where the next segment reads."""

    pair1: TeacherStudentPair
    pair2: TeacherStudentPair
    corpus: TokenBatch
    tokens: list[str]
    step: int = 0

    @property
    def sentences(self) -> list[AnnotatedSentence]:
        """Copies of the training sentences with their tracks split from
        `corpus`, built anew on each access; a track the batch lacks is None."""
        return unflatten(self.tokens, self.corpus.offsets, self.corpus.tracks)

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


def _gathered(corpus: TokenBatch, batches, model: TaggerParams) -> list[TokenBatch]:
    """Views of one `take` of `batches` (lists of sentence indices) in batch order, carrying
    `model`'s window rows, built on `corpus` first; valid while no track changes."""
    corpus.context_ids(model.config.window)
    whole = corpus.take(np.concatenate(batches))
    bounds = np.cumsum([0, *map(len, batches)]).tolist()
    return [whole.view(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _shared(a: np.ndarray) -> np.ndarray:
    """A copy of `a` in its own anonymous shared mapping, page-aligned by the
    kernel: what a forked child writes into it in place, the caller sees."""
    copy = np.frombuffer(mmap.mmap(-1, max(a.nbytes, 1)), a.dtype, a.size).reshape(a.shape)
    copy[...] = a
    return copy


def _shared_params(params: TaggerParams) -> TaggerParams:
    return TaggerParams(params.config, *map(_shared, params.blocks()))


# Network 2 trains in a child forked from the caller where the platform can fork.
_FORK = multiprocessing.get_context("fork") if "fork" in multiprocessing.get_all_start_methods() else None


def _can_fork() -> bool:
    """Whether network 2 should train in a forked child: the platform can
    fork, this process may run on more than one CPU, it is no daemonic
    worker (which may start no process), and it runs no other thread (whose
    held locks the child would inherit held)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        _FORK is not None
        and (cpus or 1) > 1
        and not multiprocessing.current_process().daemon
        and threading.active_count() == 1
    )


def _cpu() -> int | None:
    """The CPU this process runs on, where /proc says (Linux)."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _serve(conn, parent_end, run, parent_cpu) -> None:
    """The child's loop: network 2 on each segment received, until the pipe
    closes or a segment fails."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles Ctrl-C and ends this process
    parent_end.close()
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    if parent_cpu in allowed and len(allowed) > 1:
        # A fork can start on the caller's CPU and stay there for long
        # stretches; move off it once, then let the scheduler place it freely.
        try:
            os.sched_setaffinity(0, allowed - {parent_cpu})
            os.sched_setaffinity(0, allowed)
        except OSError:  # only a placement hint
            pass
    while True:
        try:
            segment = conn.recv()
        except EOFError:
            return
        reply = run(2, segment)
        conn.send(reply)
        if reply[1] is not None:
            return


class _Peer:
    """How the two networks run.

    `run(k, segment)` trains network k over one segment, does network k's
    share of the work where the segment ends, and returns what it made
    (its reply) and its first failure, `(serial position, exception)`,
    or None. `both(segment)` runs network 1 here and network 2 in one
    child, forked at the first call and kept for every later one, or,
    where `_can_fork()` is false, here after network 1 has run the whole
    segment. It raises the failure a serial run reaches first and returns
    each network's reply. With `networks=1` it runs network 1 alone and
    starts no child. Leaving the `with` block ends the child.
    """

    def __init__(self, run, networks: int = 2):
        self.run, self.networks = run, networks
        self.conn = self.process = None
        self.forks = networks == 2 and _can_fork()

    def both(self, segment) -> list[list]:
        if self.forks:
            if self.process is None:
                self.conn, child_end = _FORK.Pipe()
                process = _FORK.Process(
                    target=_serve, args=(child_end, self.conn, self.run, _cpu()), daemon=True
                )
                process.start()
                self.process = process
                child_end.close()  # so the child's exit ends `recv`
            try:
                self.conn.send(segment)
            except ConnectionError:  # it died after its last reply
                raise self._exited() from None
        replies = [self.run(1, segment)]
        if self.forks:
            try:
                replies.append(self.conn.recv())
            except (EOFError, ConnectionError):
                raise self._exited() from None
        elif self.networks == 2:
            replies.append(self.run(2, segment))
        failures = [failure for _, failure in replies if failure is not None]
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        return [reply for reply, _ in replies]

    def _exited(self) -> ChildProcessError:
        self.process.join()
        return ChildProcessError(
            f"network 2's process exited with code {self.process.exitcode} without replying"
        )

    def __enter__(self) -> "_Peer":
        return self

    def __exit__(self, *exc) -> None:
        if self.process is not None:
            self.process.terminate()
            self.process.join()
            self.process.close()
        if self.conn is not None:
            self.conn.close()


def pretrain(
    config: ScdlConfig,
    corpus,
    vocab: TagVocabulary,
    rng: np.random.Generator | None = None,
) -> tuple[TaggerParams, TaggerParams]:
    """Warm up both taggers with hard cross entropy on the distant labels.

    `corpus` is a list of sentences or a TokenBatch of them. All steps
    form one segment, which network 1 trains here and network 2 in a
    forked child or here after network 1 (see `_Peer`); the models
    returned are views of shared memory. Each network gathers each epoch's
    batches with one `take` of the corpus, which caches its window table.
    """
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    params = [_shared_params(init_params(c)) for c in config.tagger_configs(vocab.size)]
    corpus = as_batch(corpus, config.hash_buckets)
    orders = [rng.permutation(len(corpus)) for _ in range(config.pretrain_epochs)]  # drawn before training
    epochs = [list(_batches(order, config.batch_size)) for order in orders]

    def run(k: int, segment):
        p, track, where = params[k - 1], TRACKS[k - 1], (0, 0, k)
        try:
            for epoch, batches in enumerate(segment):
                for b, batch in enumerate(_gathered(corpus, batches, p)):
                    where = (epoch, b, k)
                    loss, grad = loss_hard(p, batch, track)
                    _check_finite(loss, f"pretrain epoch {epoch} (net{k})")
                    sgd_step(p, grad, config.gamma)
                where = (epoch, len(batches), k)  # after the epoch's last batch
                _check_parameters({f"net{k}": p}, f"after pretrain epoch {epoch}")
        except Exception as exc:
            return [], (where, exc)
        return [], None

    with _Peer(run) as peer:
        if epochs:
            peer.both(epochs)  # one segment of every step
    return tuple(params)


def self_denoise_step(
    pair: TeacherStudentPair,
    batch,
    track: str,
    config: ScdlConfig,
    vocab: TagVocabulary,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[TeacherStudentPair, MaskStats]:
    """One inner-loop step in place: select tokens, SGD the student, EMA the teacher.

    `batch` is a list of sentences or a TokenBatch of them. The teacher
    predicts on clean input. While teacher and student are equal, soft
    targets are the student's own output and the gradient is exactly
    zero. Every pair starts so after pretraining; with
    student_word_dropout = 0, the default, it stays there up to rounding
    in the EMA and no model's dev F1 moves. With student_word_dropout > 0
    the student trains on a copy with random tokens blanked to the
    padding bucket, which moves it off that point; it needs
    `dropout_rng`. When nothing is selected, both models are left
    untouched. Returns the given pair and the stats; under `hard_labels` the
    targets are the noisy labels; `pair.moving` gets the gradient's rows marked.
    A non-finite teacher probability raises TrainingDiverged.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    if config.student_word_dropout > 0.0 and dropout_rng is None:
        raise ValueError("student_word_dropout > 0 needs a dropout_rng")
    abl = config.ablations
    batch = as_batch(batch, pair.student.config.vocab_hash_buckets)
    noisy = batch.track(track)
    dists = forward(pair.teacher, batch)
    if not np.isfinite(dists).all():
        raise TrainingDiverged(f"non-finite tag probabilities from the teacher on {track}")
    mask = np.ones(len(noisy), dtype=bool)
    if "no_consistency" not in abl:
        mask &= consistent_mask(noisy, labels_from_dists(dists, vocab, batch.offsets))
    if "no_confidence" not in abl:
        mask &= confident_mask(dists, config.delta)
    selected = int(mask.sum())
    if selected == 0:
        return pair, MaskStats(0, len(noisy), 0.0)
    targets = noisy if "hard_labels" in abl else dists
    student_batch = batch
    if config.student_word_dropout > 0.0:
        drop = dropout_rng.random(len(noisy)) < config.student_word_dropout
        student_batch = TokenBatch(np.where(drop, PAD_BUCKET, batch.ids), batch.offsets, batch.buckets)
    loss, grad = loss_soft(pair.student, student_batch, targets, mask)
    _check_finite(loss, "self denoising")
    sgd_step(pair.student, grad, config.gamma)
    if pair.moving is not None:
        pair.moving[grad.rows] = True
    return ema_update(pair), MaskStats(selected, len(noisy), loss)


def collaborative_update(state: TrainState, predicted: dict[str, np.ndarray], *, sentences=None) -> None:
    """Teachers rewrite each other's noisy track: `predicted` maps each track
    to the labels its peer's teacher predicted for it in its own process, of
    the whole training set or of `sentences` (indices) in that order, which are
    written in place into the arrays network 2's process reads too (see `train`)."""
    tokens = slice(None) if sentences is None else state.corpus.positions(sentences)[0]
    for track, labels in predicted.items():
        state.corpus.tracks[track][tokens] = labels


def _labels(params: TaggerParams, batch, vocab: TagVocabulary, where: str) -> np.ndarray:
    """predict_labels; non-finite probabilities raise TrainingDiverged naming `where`."""
    try:
        return predict_labels(params, batch, vocab)
    except FloatingPointError as exc:
        raise TrainingDiverged(f"{exc} from {where}") from None


def evaluate_models(
    models: dict[str, TaggerParams], dev: TokenBatch, vocab: TagVocabulary, where: str
) -> dict[str, SpanScore]:
    """Span score on `dev`, which carries the gold track, of each of `models`
    (name -> params, as `TrainState.models()` gives them). A non-finite parameter, checked
    first, or tag probability raises TrainingDiverged naming the model and `where` ("at step 6")."""
    _check_parameters(models, where)
    gold = dev.track("gold")
    return {
        name: score_tags(_labels(p, dev, vocab, f"{name} {where}"), gold, vocab, dev.offsets)
        for name, p in models.items()
    }


def train(
    config: ScdlConfig,
    train_corpus,
    dev_corpus,
    vocab: TagVocabulary,
    epoch_callback=None,
) -> TrainResult:
    """Full pipeline; returns the best of the four models on dev span F1.

    Every training sentence needs its gold, noisy_i and noisy_ii tracks
    and every dev sentence its gold track; `flatten` checks both before
    any training starts.

    The caller's corpora are not mutated: `flatten` copies their tokens and
    tags, so later edits to them do not reach `result.state` either. The
    live rewritten tracks are `result.state.corpus.tracks["noisy_i"]` and
    `["noisy_ii"]`, flat in the batch layout; `result.state.sentences` is
    a copy built on each access, so editing its tags changes nothing.
    Training writes SGD and EMA steps into the models' own buffers: the
    models of `result.state`, and of the state `epoch_callback` receives,
    and each pair's EMA mask (`pair1.moving`, `pair2.moving`) are live views
    of shared memory, so a callback that keeps them must copy them.
    `result.best_params` is a copy.

    The networks train one segment at a time, the batches up to the next
    rewrite or epoch end, with one `_Peer` call each: network 2 in a
    forked child while network 1 trains here, or here after network 1.
    Each network ends its segment in its own process: at a rewrite its
    teacher predicts the peer's track, only at the next segment's sentences
    where that segment ends in a rewrite too, so the tracks are complete at
    each epoch end, in `epoch_callback` and in the result, and in between
    current where the next segment reads; at an epoch end it checks its
    teacher's and student's parameters and scores both on dev. Once both
    have replied, the tracks are written here (`collaborative_update`),
    the scores merged in MODEL_ORDER and recorded, and `epoch_callback`
    runs. The step-0 scoring of all four models runs here, and so does
    all of it under `single_network`, which predicts no rewrite. A
    failure raised is the one a serial run reaches first, and results are
    those of a serial run bit for bit.
    """
    rng = np.random.default_rng(config.seed)
    tokens, offsets, tracks = flatten(train_corpus, "gold", *TRACKS)
    corpus = TokenBatch(token_ids(tokens, config.hash_buckets), offsets, config.hash_buckets, tracks)
    dev_tokens, dev_offsets, dev_tracks = flatten(dev_corpus, "gold")
    dev = TokenBatch(token_ids(dev_tokens, config.hash_buckets), dev_offsets, config.hash_buckets, dev_tracks)
    if len(dev) == 0:
        raise ValueError("empty dev corpus")
    if len(corpus) == 0:
        raise ValueError("empty training corpus")
    gold = corpus.track("gold")
    p1, p2 = pretrain(config, corpus, vocab, rng)
    corpus.tracks.update({track: _shared(corpus.tracks[track]) for track in TRACKS})
    alpha = 0.0 if "no_teachers" in config.ablations else config.alpha
    moving = np.ones(config.hash_buckets, dtype=bool)  # every row moves at first (see ema_update)
    state = TrainState(
        pair1=TeacherStudentPair(_shared_params(p1), p1, alpha, _shared(moving)),
        pair2=TeacherStudentPair(_shared_params(p2), p2, alpha, _shared(moving)),
        corpus=corpus,
        tokens=tokens,
    )
    single = "single_network" in config.ablations
    drop_rngs = {k: np.random.default_rng([config.seed, k]) for k in (1, 2)}
    per_epoch = math.ceil(len(corpus) / config.batch_size)
    cycle = config.update_cycle or 7 * per_epoch

    history: list[CurvePoint] = []
    refinery: list[tuple[int, str, SpanScore]] = []
    selection_trace: list[tuple[int, str, int, int]] = []
    best = None

    def record(step: int, scores: dict[str, SpanScore]):
        nonlocal best
        for name in MODEL_ORDER:
            s = scores[name]
            history.append(CurvePoint(step, name, "dev", s.precision, s.recall, s.f1))
        for track in TRACKS:
            refinery.append((step, track, score_tags(corpus.track(track), gold, vocab, corpus.offsets)))
        name = max(MODEL_ORDER, key=lambda name: scores[name].f1)  # the first of equals
        if best is None or scores[name].f1 > best[2]:  # an equal score keeps the earlier step's
            best = (name, state.models()[name].copy(), scores[name].f1)

    def run(k: int, segment):
        """Network k's steps over (first step, batches, rewrite, sentences, epoch
        end), then at a rewrite its teacher's labels for the peer's track, of
        `sentences` or, where None, of all, and at an epoch end its models' dev
        scores: ((selected, total) per step, labels or None, scores or None)."""
        first, batches, rewrite, sentences, epoch_end = segment
        pair, stats, step, track = getattr(state, f"pair{k}"), [], first, TRACKS[k - 1]
        try:
            for step, batch in enumerate(_gathered(corpus, batches, pair.student), start=first):
                try:
                    _, mask_stats = self_denoise_step(pair, batch, track, config, vocab, drop_rngs[k])
                except TrainingDiverged as exc:  # the step knows neither its network nor its number
                    raise TrainingDiverged(f"{exc} (net{k} at step {step})") from None
                stats.append((mask_stats.selected, mask_stats.total))
            step += 1  # a serial run reaches this work after every step of the segment
            read = corpus if sentences is None else corpus.take(sentences)
            labels = _labels(pair.teacher, read, vocab, f"teacher{k} at step {step - 1}") if rewrite else None
            names = MODEL_ORDER if single else MODEL_ORDER[2 * k - 2 : 2 * k]  # network k's models
            models = {name: m for name, m in state.models().items() if name in names}
            scores = evaluate_models(models, dev, vocab, f"at step {step - 1}") if epoch_end else None
        except Exception as exc:
            return None, ((step, k), exc)
        return (stats, labels, scores), None

    record(0, evaluate_models(state.models(), dev, vocab, "at step 0"))
    if epoch_callback is not None:
        epoch_callback(0, state)
    with _Peer(run, networks=1 if single else 2) as peer:
        for epoch in range(1, config.max_epochs + 1):
            batches = list(_batches(rng.permutation(len(corpus)), config.batch_size))
            while batches:  # segments end at a rewrite or at the epoch's end
                n = min(len(batches), cycle - state.step % cycle)
                rewrite = not single and (state.step + n) % cycle == 0
                partial = rewrite and len(batches) - n >= cycle  # the next segment ends in a rewrite too
                sentences = np.concatenate(batches[n : n + cycle]) if partial else None
                segment = (state.step + 1, batches[:n], rewrite, sentences, n == len(batches))
                stats, labels, scores = zip(*peer.both(segment))
                for step, selections in enumerate(zip(*stats), start=state.step + 1):
                    for k, (selected, total) in enumerate(selections, start=1):
                        selection_trace.append((step, f"net{k}", selected, total))
                batches = batches[n:]
                state.step += n
                if rewrite:  # only now that neither network reads its track
                    predicted = {"noisy_i": labels[1], "noisy_ii": labels[0]}
                    collaborative_update(state, predicted, sentences=sentences)
            record(state.step, {name: s for part in scores for name, s in part.items()})
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
