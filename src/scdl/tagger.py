"""Tiny windowed token classifier with analytic gradients.

Hashed word embeddings -> window concatenation -> tanh hidden layer ->
softmax over tags. Small enough for exhaustive finite-difference checks,
expressive enough to memorize label noise.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
import zlib
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import AnnotatedSentence, TagVocabulary, repair_bio

PAD_BUCKET = 0  # reserved for window overflow
PAD_TOKEN = "\x00<pad>"  # surface sentinel that hashes to PAD_BUCKET


@dataclass(frozen=True)
class TaggerConfig:
    num_tags: int
    vocab_hash_buckets: int = 2**15
    embed_dim: int = 16
    window: int = 1
    hidden_dim: int = 24
    init_seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self):
        if self.num_tags < 1 or self.embed_dim < 1 or self.hidden_dim < 1:
            raise ValueError("dimensions must be >= 1")
        if self.vocab_hash_buckets < 2:
            raise ValueError("need at least one non-padding bucket")
        if self.window < 0:
            raise ValueError("window must be >= 0")
        if self.init_scale <= 0:
            raise ValueError("init_scale must be positive")

    @property
    def context_width(self) -> int:
        return 2 * self.window + 1

    def block_shapes(self) -> tuple[tuple[int, ...], ...]:
        """Shape of each parameter block, in TaggerParams.BLOCK_NAMES order."""
        return (
            (self.vocab_hash_buckets, self.embed_dim),
            (self.context_width * self.embed_dim, self.hidden_dim),
            (self.hidden_dim,),
            (self.hidden_dim, self.num_tags),
            (self.num_tags,),
        )


@dataclass
class TaggerParams:
    """All learnable numbers; also doubles as gradient storage."""

    config: TaggerConfig
    embedding: np.ndarray  # (buckets, embed_dim)
    hidden_w: np.ndarray  # (context_width * embed_dim, hidden_dim)
    hidden_b: np.ndarray  # (hidden_dim,)
    out_w: np.ndarray  # (hidden_dim, num_tags)
    out_b: np.ndarray  # (num_tags,)

    BLOCK_NAMES = ("embedding", "hidden_w", "hidden_b", "out_w", "out_b")

    def blocks(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.BLOCK_NAMES]

    def copy(self) -> "TaggerParams":
        return TaggerParams(self.config, *[b.copy() for b in self.blocks()])


def init_params(config: TaggerConfig) -> TaggerParams:
    rng = np.random.default_rng(config.init_seed)
    s = config.init_scale
    return TaggerParams(config, *(rng.uniform(-s, s, size=shape) for shape in config.block_shapes()))


def zeros_like(params: TaggerParams) -> TaggerParams:
    return TaggerParams(params.config, *[np.zeros_like(b) for b in params.blocks()])


@dataclass
class RowSparseGrad:
    """A gradient whose embedding block is zero outside the rows a batch touched.

    `rows` are the touched buckets in increasing order and `row_values`
    their gradient rows; the other blocks are dense. `embedding` and
    `blocks()` give the dense table, as a TaggerParams gradient would.
    """

    config: TaggerConfig
    rows: np.ndarray  # (touched,)
    row_values: np.ndarray  # (touched, embed_dim)
    hidden_w: np.ndarray
    hidden_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray

    @property
    def embedding(self) -> np.ndarray:
        dense = np.zeros((self.config.vocab_hash_buckets, self.config.embed_dim))
        dense[self.rows] = self.row_values
        return dense

    def blocks(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in TaggerParams.BLOCK_NAMES]


def token_ids(tokens, buckets: int) -> np.ndarray:
    """Deterministic surface-form hashing into [1, buckets); each distinct form is hashed once."""
    bucket = {
        t: PAD_BUCKET if t == PAD_TOKEN else 1 + zlib.crc32(t.encode("utf-8")) % (buckets - 1)
        for t in set(tokens)
    }
    return np.fromiter(map(bucket.__getitem__, tokens), dtype=np.int64, count=len(tokens))


@dataclass(eq=False)
class TokenBatch:
    """Sentences hashed once and laid end to end.

    Sentence i is `ids[offsets[i]:offsets[i + 1]]`; `tracks` holds label
    tracks in the same flat layout. Window ids are built per window size
    on first use and carried over by `take`, so a corpus is hashed and
    windowed once however many batches are drawn from it.
    """

    ids: np.ndarray  # (tokens,) hash buckets
    offsets: np.ndarray  # (sentences + 1,)
    buckets: int
    tracks: dict[str, np.ndarray] = field(default_factory=dict)
    _windows: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def track(self, name: str) -> np.ndarray:
        if name not in self.tracks:
            raise ValueError(f"track {name!r} missing from the batch")
        return self.tracks[name]

    def context_ids(self, window: int) -> np.ndarray:
        """(tokens, 2 * window + 1) ids of each token's window, PAD past sentence edges."""
        if window not in self._windows:
            n = len(self.ids)
            lengths = np.diff(self.offsets)
            pos = np.arange(n) - np.repeat(self.offsets[:-1], lengths)  # index in sentence
            left = np.repeat(lengths, lengths) - pos  # tokens from here to the sentence end
            columns = []
            for k in range(-window, window + 1):
                inside = (pos + k >= 0) & (k < left)
                source = np.clip(np.arange(n) + k, 0, max(n - 1, 0))
                columns.append(np.where(inside, self.ids[source], PAD_BUCKET))
            self._windows[window] = np.stack(columns, axis=1)
        return self._windows[window]

    def take(self, sentences) -> "TokenBatch":
        """The given sentences, in the given order, as a new batch that copies
        their ids, tracks and window rows: a shuffled training batch."""
        sentences = np.asarray(sentences, dtype=np.int64)
        lengths = self.offsets[sentences + 1] - self.offsets[sentences]
        offsets = np.zeros(len(sentences) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        tokens = np.arange(offsets[-1]) + np.repeat(self.offsets[sentences] - offsets[:-1], lengths)
        batch = TokenBatch(
            self.ids[tokens],
            offsets,
            self.buckets,
            {name: tags[tokens] for name, tags in self.tracks.items()},
        )
        batch._windows.update((w, ctx[tokens]) for w, ctx in self._windows.items())
        return batch

    def split(self, values) -> list[list]:
        """A flat per-token array as one list per sentence."""
        flat = np.asarray(values).tolist()
        bounds = self.offsets.tolist()
        return [flat[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def encode(sentences, buckets: int) -> TokenBatch:
    """Hash sentences into one flat batch with every track that all of them carry."""
    lengths = [len(s.tokens) for s in sentences]
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    ids = token_ids(list(chain.from_iterable(s.tokens for s in sentences)), buckets)
    flat = {}
    for name in AnnotatedSentence.TRACKS:
        values = [getattr(s, name) for s in sentences]
        if all(v is not None for v in values):
            flat[name] = np.fromiter(chain.from_iterable(values), dtype=np.int64, count=len(ids))
    return TokenBatch(ids, offsets, buckets, flat)


def as_batch(batch, buckets: int) -> TokenBatch:
    """A TokenBatch as is, or a sequence of sentences hashed into one."""
    if not isinstance(batch, TokenBatch):
        return encode(batch, buckets)
    if batch.buckets != buckets:
        raise ValueError(f"batch hashed into {batch.buckets} buckets, model has {buckets}")
    return batch


def _forward_cache(params: TaggerParams, ctx: np.ndarray):
    x = params.embedding[ctx].reshape(len(ctx), params.hidden_w.shape[0])
    h = np.tanh(x @ params.hidden_w + params.hidden_b)
    logits = h @ params.out_w + params.out_b
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    probs = e / e.sum(axis=1, keepdims=True)
    return x, h, probs


def forward(params: TaggerParams, batch) -> np.ndarray:
    """Per-token tag distributions of a batch, shape (tokens, num_tags)."""
    cfg = params.config
    ctx = as_batch(batch, cfg.vocab_hash_buckets).context_ids(cfg.window)
    return _forward_cache(params, ctx)[2]


def _backprop(params, ctx, x, h, dlogits) -> RowSparseGrad:
    dh = dlogits @ params.out_w.T
    dpre = dh * (1.0 - h * h)
    dx = dpre @ params.hidden_w.T
    buckets, dim = params.embedding.shape
    seen = np.zeros(buckets, dtype=bool)
    seen[ctx] = True
    rows = np.flatnonzero(seen)
    local = np.empty(buckets, dtype=np.int64)
    local[rows] = np.arange(len(rows))
    # the rows of repeated ids summed in token order, as np.add.at would
    cells = (local[ctx].reshape(-1, 1) * dim + np.arange(dim)).reshape(-1)
    values = np.bincount(cells, weights=dx.reshape(-1), minlength=len(rows) * dim)
    return RowSparseGrad(
        params.config,
        rows,
        values.reshape(len(rows), dim),
        x.T @ dpre,
        dpre.sum(axis=0),
        h.T @ dlogits,
        dlogits.sum(axis=0),
    )


def _one_hot(tags, num_tags) -> np.ndarray:
    out = np.zeros((len(tags), num_tags))
    out[np.arange(len(tags)), tags] = 1.0
    return out


def loss_hard(params: TaggerParams, batch, track: str):
    """Mean token-level cross entropy on the chosen track, with gradient."""
    batch = as_batch(batch, params.config.vocab_hash_buckets)
    tags = batch.track(track)
    targets = _one_hot(tags, params.config.num_tags)
    return loss_soft(params, batch, targets, np.ones(len(tags), dtype=bool))


def _flat_rows(batch: TokenBatch, rows, what: str) -> np.ndarray:
    """One array for the batch, from a flat array or one array per sentence."""
    if isinstance(rows, np.ndarray):
        if len(rows) != len(batch.ids):
            raise ValueError(f"{what} length differs from the batch's token count")
        return rows
    if [len(r) for r in rows] != np.diff(batch.offsets).tolist():
        raise ValueError(f"{what} length differs from sentence length")
    return np.concatenate(rows)


def loss_soft(params: TaggerParams, batch, teacher_dists, masks):
    """Soft-label cross entropy over the selected tokens only.

    `teacher_dists` and `masks` are flat over the batch's tokens, or one
    array per sentence; masks are boolean and unselected tokens
    contribute nothing to loss or gradient. The loss is divided by the
    number of tokens in the batch. With no token selected the result is
    (0, zero gradient).
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    batch = as_batch(batch, params.config.vocab_hash_buckets)
    mask = _flat_rows(batch, masks, "mask")
    if mask.dtype != bool:
        raise ValueError("mask must be a boolean array")
    if not mask.any():
        return 0.0, zeros_like(params)
    target = _flat_rows(batch, teacher_dists, "target")[mask]
    z = len(batch.ids)
    ctx = batch.context_ids(params.config.window)[mask]
    x, h, probs = _forward_cache(params, ctx)
    loss = -float((target * np.log(probs)).sum())
    dlogits = (probs - target) / z
    return loss / z, _backprop(params, ctx, x, h, dlogits)


def sgd_step(params: TaggerParams, grad, lr: float, *, in_place: bool = False) -> TaggerParams:
    """params - lr * grad, into a copy or, with `in_place`, into `params` itself.

    A RowSparseGrad changes only its touched embedding rows; on the rest
    p - lr * 0.0 == p, so the result is the dense step's bit for bit.
    """
    if not (lr > 0 and math.isfinite(lr)):
        raise ValueError("learning rate must be finite and positive")
    if isinstance(grad, RowSparseGrad):
        updates = [("embedding", grad.rows, grad.row_values)]
    else:
        updates = [("embedding", None, grad.embedding)]
    updates += [(name, None, getattr(grad, name)) for name in TaggerParams.BLOCK_NAMES[1:]]
    for name, rows, g in updates:  # (block, touched rows or None for all, values)
        p = getattr(params, name)
        shape = p.shape if rows is None else (len(rows), *p.shape[1:])
        if shape != g.shape:
            raise ValueError(f"shape mismatch: {shape} vs {g.shape}")
    if not in_place:
        params = params.copy()
    for name, rows, g in updates:
        p = getattr(params, name)
        if rows is None:
            p -= lr * g
        else:
            p[rows] -= lr * g
    return params


def labels_from_dists(dists: np.ndarray, vocab: TagVocabulary, offsets=None) -> np.ndarray:
    """Argmax (ties -> lowest code) followed by BIO repair; `offsets` as in repair_bio."""
    return repair_bio(np.argmax(dists, axis=1), vocab, offsets)


PREDICT_CHUNK = 256  # sentences per forward pass when predicting a whole corpus


def predict_labels(params: TaggerParams, batch, vocab: TagVocabulary) -> np.ndarray:
    """Flat labels of a batch: argmax over rows of its cached window table,
    PREDICT_CHUNK sentences per forward pass, then one BIO repair of all."""
    batch = as_batch(batch, params.config.vocab_hash_buckets)
    ctx = batch.context_ids(params.config.window)
    bounds = batch.offsets[np.append(np.arange(0, len(batch), PREDICT_CHUNK), len(batch))].tolist()
    codes = np.empty(len(ctx), dtype=np.int64)
    for a, b in zip(bounds[:-1], bounds[1:]):
        codes[a:b] = np.argmax(_forward_cache(params, ctx[a:b])[2], axis=1)
    return repair_bio(codes, vocab, batch.offsets)


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Write-then-rename, so the file at `path` is the old one or the complete new one."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


CHECKPOINT_MAGIC = "SCDL-TAGGER 1"
HEADER_LINE_LIMIT = 1 << 17  # bytes per header line read; a real header is under 300


def save_checkpoint(params: TaggerParams, path) -> None:
    header = json.dumps(
        {
            "num_tags": params.config.num_tags,
            "vocab_hash_buckets": params.config.vocab_hash_buckets,
            "embed_dim": params.config.embed_dim,
            "window": params.config.window,
            "hidden_dim": params.config.hidden_dim,
            "init_seed": params.config.init_seed,
            "init_scale": params.config.init_scale,
        }
    )
    with atomic_open(path, "wb") as fh:
        fh.write(f"{CHECKPOINT_MAGIC}\n{header}\n".encode("utf-8"))
        for block in params.blocks():
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def _header_line(fh) -> str:
    line = fh.readline(HEADER_LINE_LIMIT)
    if len(line) == HEADER_LINE_LIMIT and not line.endswith(b"\n"):
        raise ValueError(f"checkpoint header line longer than {HEADER_LINE_LIMIT} bytes")
    return line.decode("utf-8")


def load_checkpoint(path) -> TaggerParams:
    with open(path, "rb") as fh:
        magic = _header_line(fh).rstrip("\n")
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a tagger checkpoint: {magic!r}")
        try:
            header = json.loads(_header_line(fh))
        except RecursionError:
            raise ValueError("checkpoint header nests too deeply") from None
        if not isinstance(header, dict):
            raise ValueError(f"checkpoint header is not a JSON object: {header!r}")
        for key in ("num_tags", "vocab_hash_buckets", "embed_dim", "window", "hidden_dim"):
            if key in header and type(header[key]) is not int:
                raise ValueError(f"bad checkpoint header: {key} is not an integer: {header[key]!r}")
        try:
            config = TaggerConfig(**header)
        except TypeError as exc:
            raise ValueError(f"bad checkpoint header: {exc}") from None
        shapes = config.block_shapes()
        # sized from the header before anything is allocated
        expected = 8 * sum(math.prod(shape) for shape in shapes)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < expected:
            raise ValueError("truncated checkpoint")
        if left > expected:
            raise ValueError("trailing bytes after checkpoint data")
        blocks = [
            np.frombuffer(fh.read(8 * math.prod(shape)), dtype="<f8").reshape(shape).copy()
            for shape in shapes
        ]
    return TaggerParams(config, *blocks)
