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
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .corpus import TagVocabulary, flatten, repair_bio

PAD_BUCKET = 0  # window edges and word dropout; no surface form hashes here


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
    bucket = {t: 1 + zlib.crc32(t.encode("utf-8")) % (buckets - 1) for t in set(tokens)}
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
            table = np.full((n, 2 * window + 1), PAD_BUCKET, dtype=self.ids.dtype)
            for k in range(-window, window + 1):
                m = max(n - abs(k), 0)  # tokens whose k-th neighbour lies in the batch
                if k >= 0:
                    np.copyto(table[:m, window + k], self.ids[k : k + m], where=left[:m] > k)
                else:
                    np.copyto(table[n - m :, window + k], self.ids[:m], where=pos[n - m :] >= -k)
            self._windows[window] = table
        return self._windows[window]

    def positions(self, sentences) -> tuple[np.ndarray, np.ndarray]:
        """The flat positions of the given sentences' tokens, in the given
        order, and the offsets of those sentences laid end to end."""
        sentences = np.asarray(sentences, dtype=np.int64)
        lengths = self.offsets[sentences + 1] - self.offsets[sentences]
        offsets = np.zeros(len(sentences) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        tokens = np.arange(offsets[-1]) + np.repeat(self.offsets[sentences] - offsets[:-1], lengths)
        return tokens, offsets

    def take(self, sentences) -> "TokenBatch":
        """The given sentences, in the given order, as a new batch that copies
        their ids, every track and the rows of every cached window table: the
        batches of a training segment or pretraining epoch, each step a `view`."""
        tokens, offsets = self.positions(sentences)
        batch = TokenBatch(
            self.ids[tokens],
            offsets,
            self.buckets,
            {name: tags[tokens] for name, tags in self.tracks.items()},
        )
        batch._windows.update((w, ctx[tokens]) for w, ctx in self._windows.items())
        return batch

    def view(self, start: int, stop: int) -> "TokenBatch":
        """Sentences start..stop as a batch of views of this one's ids, tracks
        and window rows, with offsets rebased to 0: one step of a gathered segment."""
        a, b = self.offsets[start], self.offsets[stop]
        tracks = {name: tags[a:b] for name, tags in self.tracks.items()}
        batch = TokenBatch(self.ids[a:b], self.offsets[start : stop + 1] - a, self.buckets, tracks)
        batch._windows.update((w, ctx[a:b]) for w, ctx in self._windows.items())
        return batch


def encode(sentences, buckets: int) -> TokenBatch:
    """Hash sentences into one flat batch with every track that all of them carry (`flatten`)."""
    tokens, offsets, tracks = flatten(sentences)
    return TokenBatch(token_ids(tokens, buckets), offsets, buckets, tracks)


def as_batch(batch, buckets: int) -> TokenBatch:
    """A TokenBatch as is, or a sequence of sentences hashed into one."""
    if not isinstance(batch, TokenBatch):
        return encode(batch, buckets)
    if batch.buckets != buckets:
        raise ValueError(f"batch hashed into {batch.buckets} buckets, model has {buckets}")
    return batch


def _forward_cache(params: TaggerParams, ctx: np.ndarray):
    x = np.take(params.embedding, ctx, axis=0).reshape(len(ctx), params.hidden_w.shape[0])
    h = x @ params.hidden_w
    h += params.hidden_b
    np.tanh(h, out=h)
    probs = h @ params.out_w  # logits until normalised
    probs += params.out_b
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
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


def _cross_entropy(params: TaggerParams, ctx: np.ndarray, targets: np.ndarray, z: int):
    """Cross entropy of window rows `ctx`, summed over `z`, with gradient, against one
    label or distribution per row; 1.0 off at a label gives probs - one_hot's bits."""
    x, h, probs = _forward_cache(params, ctx)
    if targets.ndim == 1:
        rows = np.arange(len(targets))
        loss = -float(np.log(probs[rows, targets]).sum())
        probs[rows, targets] -= 1.0
    else:
        held = targets != 0
        loss = -float((targets[held] * np.log(probs[held])).sum())
        probs -= targets
    return loss / z, _backprop(params, ctx, x, h, probs / z)


def loss_hard(params: TaggerParams, batch, track: str):
    """Mean token-level cross entropy on the chosen track, with gradient."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    batch = as_batch(batch, params.config.vocab_hash_buckets)
    tags = batch.track(track)
    if len(tags) == 0:
        return 0.0, zeros_like(params)
    return _cross_entropy(params, batch.context_ids(params.config.window), tags, len(tags))


def _flat_rows(batch: TokenBatch, rows, what: str) -> np.ndarray:
    """One array for the batch, from a flat array or one array per sentence."""
    if isinstance(rows, np.ndarray):
        if len(rows) != len(batch.ids):
            raise ValueError(f"{what} length differs from the batch's token count")
        return rows
    if [len(r) for r in rows] != np.diff(batch.offsets).tolist():
        raise ValueError(f"{what} length differs from sentence length")
    return np.concatenate(rows)


def loss_soft(params: TaggerParams, batch, targets, masks):
    """Cross entropy over the selected tokens only.

    `targets` (one distribution or label per token; a label gives its one-hot
    row's bits) and boolean `masks` are flat over the batch's tokens, or one
    array per sentence. Unselected tokens add nothing to loss or gradient, nor
    zero targets to the loss. The loss is divided by the batch's token count;
    with no token selected the result is (0, zero gradient).
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    batch = as_batch(batch, params.config.vocab_hash_buckets)
    mask = _flat_rows(batch, masks, "mask")
    if mask.dtype != bool:
        raise ValueError("mask must be a boolean array")
    if not mask.any():
        return 0.0, zeros_like(params)
    target = _flat_rows(batch, targets, "target")[mask]
    ctx = batch.context_ids(params.config.window)[mask]
    return _cross_entropy(params, ctx, target, len(batch.ids))


def sgd_step(params: TaggerParams, grad, lr: float) -> TaggerParams:
    """params -= lr * grad, into `params`, which is returned; every shape is checked first.

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
    PREDICT_CHUNK sentences per forward pass, then one BIO repair of all.
    A pass that gives a non-finite probability raises FloatingPointError."""
    batch = as_batch(batch, params.config.vocab_hash_buckets)
    ctx = batch.context_ids(params.config.window)
    bounds = batch.offsets[np.append(np.arange(0, len(batch), PREDICT_CHUNK), len(batch))].tolist()
    codes = np.empty(len(ctx), dtype=np.int64)
    for a, b in zip(bounds[:-1], bounds[1:]):
        probs = _forward_cache(params, ctx[a:b])[2]
        if not np.isfinite(probs).all():
            raise FloatingPointError("non-finite tag probabilities")
        codes[a:b] = np.argmax(probs, axis=1)
    return repair_bio(codes, vocab, batch.offsets)


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Write-then-rename, so the file at `path` is the old one or the complete new one."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    except OSError as exc:  # named by the target, not by the temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
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
    header = json.dumps(asdict(params.config))  # what load_checkpoint hands to TaggerConfig(**header)
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
    for name, block in zip(TaggerParams.BLOCK_NAMES, blocks):
        if not np.isfinite(block).all():
            raise ValueError(f"non-finite value in checkpoint block {name}")
    return TaggerParams(config, *blocks)
