"""BIO-tagged corpora: interchange format, gazetteer matching, noise injection."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import chain

import numpy as np


class ConllFormatError(ValueError):
    """Malformed interchange text (bad columns, unknown tag name)."""


class BioValidationError(ValueError):
    """A tag sequence violates the BIO scheme at token `index`."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class TagVocabulary:
    """Closed set of BIO labels: O first, then B-t/I-t per entity type.

    Codes are stable: O=0, and type number k owns codes 2k+1 (B) and
    2k+2 (I).
    """

    def __init__(self, entity_types):
        types = tuple(entity_types)
        if len(set(types)) != len(types):
            raise ValueError(f"duplicate entity types: {types}")
        self.entity_types = types
        tags = ["O"]
        for t in types:
            tags.append(f"B-{t}")
            tags.append(f"I-{t}")
        self.tags = tuple(tags)
        self._code = {tag: i for i, tag in enumerate(self.tags)}

    @property
    def size(self) -> int:
        return len(self.tags)

    def encode(self, tag: str) -> int:
        try:
            return self._code[tag]
        except KeyError:
            raise KeyError(f"unknown tag {tag!r}") from None

    def decode(self, code: int) -> str:
        return self.tags[code]

    def b_code(self, entity_type: str) -> int:
        return self.encode(f"B-{entity_type}")

    def i_code(self, entity_type: str) -> int:
        return self.encode(f"I-{entity_type}")

    def is_b(self, code: int) -> bool:
        return code > 0 and code % 2 == 1

    def is_i(self, code: int) -> bool:
        return code > 0 and code % 2 == 0

    def type_of(self, code: int) -> str:
        if code == 0:
            raise ValueError("O carries no entity type")
        return self.entity_types[(code - 1) // 2]

    def __eq__(self, other):
        return isinstance(other, TagVocabulary) and self.entity_types == other.entity_types

    def __repr__(self):
        return f"TagVocabulary({list(self.entity_types)!r})"


def validate_bio(tags, vocab: TagVocabulary) -> None:
    """Raise BioValidationError at the first I-t not preceded by B-t or I-t."""
    prev = 0
    for j, code in enumerate(tags):
        if vocab.is_i(code) and prev not in (code, code - 1):
            raise BioValidationError(
                f"token {j}: {vocab.decode(code)} does not continue an entity", j
            )
        prev = code


def repair_bio(tags, vocab: TagVocabulary, starts=None) -> np.ndarray:
    """Turn every illegal I-t into B-t; legal sequences come back unchanged.

    `tags` may hold several sentences back to back, with the boolean
    `starts` marking the first token of each; by default it is one
    sentence. I-t is legal after B-t or I-t, and a repaired I-t (now B-t)
    keeps the next I-t legal, so each token depends only on the original
    tag before it.
    """
    codes = np.asarray(tags, dtype=np.int64)
    prev = np.zeros_like(codes)
    prev[1:] = codes[:-1]
    if starts is not None:
        prev[starts] = 0
    is_i = (codes > 0) & (codes % 2 == 0)
    return codes - (is_i & (prev != codes) & (prev != codes - 1))


@dataclass
class AnnotatedSentence:
    tokens: list[str]
    gold: list[int] | None = None
    noisy_i: list[int] | None = None
    noisy_ii: list[int] | None = None

    TRACKS = ("gold", "noisy_i", "noisy_ii")

    def __len__(self) -> int:
        return len(self.tokens)

    def track(self, name: str) -> list[int]:
        if name not in self.TRACKS:
            raise ValueError(f"unknown track {name!r}")
        value = getattr(self, name)
        if value is None:
            raise ValueError(f"track {name!r} missing on sentence {self.tokens!r}")
        return value

    def set_track(self, name: str, tags) -> None:
        if name not in self.TRACKS:
            raise ValueError(f"unknown track {name!r}")
        if len(tags) != len(self.tokens):
            raise ValueError("tag list length differs from token count")
        setattr(self, name, list(tags))


@dataclass(frozen=True, order=True, slots=True)
class Span:
    start: int
    end: int  # inclusive
    entity_type: str


def bio_spans(tags, vocab: TagVocabulary, starts=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(begin, end, code) arrays of the maximal entity spans of BIO-valid tags.

    `tags` and `starts` are as in repair_bio, so a span never crosses a
    sentence start. `end` is inclusive and `code` is the span's B-t code;
    spans come sorted by begin. A tag that repair_bio would change raises
    BioValidationError naming its flat index.
    """
    codes = np.asarray(tags, dtype=np.int64)
    bad = np.flatnonzero(repair_bio(codes, vocab, starts) != codes)
    if len(bad):
        j = int(bad[0])
        raise BioValidationError(f"token {j}: {vocab.decode(codes[j])} does not continue an entity", j)
    is_i = (codes > 0) & (codes % 2 == 0)
    begin = np.flatnonzero(codes % 2 == 1)
    # in valid BIO a span ends where the next token does not continue it
    end = np.flatnonzero((codes > 0) & ~np.append(is_i[1:], False))
    return begin, end, codes[begin]


def flat_tags(rows) -> tuple[np.ndarray, np.ndarray]:
    """Per-sentence tag lists laid end to end, with repair_bio's `starts` mask."""
    lengths = np.fromiter((len(r) for r in rows), dtype=np.int64, count=len(rows))
    tags = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum()))
    starts = np.zeros(len(tags), dtype=bool)
    starts[(np.cumsum(lengths) - lengths)[lengths > 0]] = True
    return tags, starts


def spans_from_bio(tags, vocab: TagVocabulary) -> list[Span]:
    """Maximal entity spans of a BIO-valid sequence, sorted by start."""
    begin, end, code = bio_spans(tags, vocab)
    return [
        Span(b, e, vocab.type_of(c)) for b, e, c in zip(begin.tolist(), end.tolist(), code.tolist())
    ]


def bio_from_spans(spans, length: int, vocab: TagVocabulary) -> list[int]:
    tags = [0] * length
    for span in spans:
        if not 0 <= span.start <= span.end < length:
            raise ValueError(f"span {span} out of bounds for length {length}")
        tags[span.start] = vocab.b_code(span.entity_type)
        for j in range(span.start + 1, span.end + 1):
            tags[j] = vocab.i_code(span.entity_type)
    return tags


def infer_vocab(text: str) -> TagVocabulary:
    """Entity types found in interchange text, in sorted order."""
    types = set()
    for line in text.splitlines():
        line = line.rstrip("\n")
        if not line.strip():
            continue
        _, _, tag = line.partition("\t")
        if tag.startswith(("B-", "I-")):
            types.add(tag[2:])
    return TagVocabulary(sorted(types))


def parse_conll(text: str, vocab: TagVocabulary) -> list[AnnotatedSentence]:
    """Read "token<TAB>tag" lines, blank line between sentences.

    Noisy tracks start as copies of gold. Errors name the offending
    1-based line number.
    """
    sentences: list[AnnotatedSentence] = []
    tokens: list[str] = []
    tags: list[int] = []
    start_line = 1

    def flush():
        nonlocal tokens, tags
        if not tokens:
            return
        try:
            validate_bio(tags, vocab)
        except BioValidationError as exc:
            raise BioValidationError(f"line {start_line + exc.index}: {exc}", exc.index) from None
        sentences.append(
            AnnotatedSentence(tokens, gold=list(tags), noisy_i=list(tags), noisy_ii=list(tags))
        )
        tokens, tags = [], []

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            flush()
            start_line = lineno + 1
            continue
        token, sep, tag = line.partition("\t")
        if not sep or not token or not tag:
            raise ConllFormatError(f"line {lineno}: expected 'token<TAB>tag', got {line!r}")
        try:
            code = vocab.encode(tag)
        except KeyError:
            raise ConllFormatError(f"line {lineno}: unknown tag {tag!r}") from None
        tokens.append(token)
        tags.append(code)
    flush()
    return sentences


def write_conll(sentences, vocab: TagVocabulary, track: str = "gold") -> str:
    """Inverse of parse_conll for the chosen track."""
    blocks = []
    for sentence in sentences:
        tags = sentence.track(track)
        blocks.append(
            "\n".join(f"{tok}\t{vocab.decode(c)}" for tok, c in zip(sentence.tokens, tags))
        )
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


@dataclass
class Gazetteer:
    """Surface form (token tuple) to the ordered entity types it may denote."""

    entries: dict[tuple[str, ...], tuple[str, ...]] = field(default_factory=dict)
    max_len: int = field(init=False, repr=False, compare=False)  # longest surface, in tokens

    def __post_init__(self):
        for surface, types in self.entries.items():
            if not surface:
                raise ValueError("empty surface form")
            if not types:
                raise ValueError(f"no types for surface {surface!r}")
        self.max_len = max((len(s) for s in self.entries), default=0)

    @classmethod
    def parse(cls, text: str) -> "Gazetteer":
        """Read "surface form<TAB>TYPE1,TYPE2" lines."""
        entries = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            surface, sep, types = line.partition("\t")
            if not sep or not surface.strip() or not types:
                raise ConllFormatError(
                    f"line {lineno}: expected 'surface<TAB>TYPE1,TYPE2', got {line!r}"
                )
            types = tuple(t.strip() for t in types.split(","))
            if "" in types:
                raise ConllFormatError(f"line {lineno}: empty entity type in {line!r}")
            entries[tuple(surface.split())] = types
        return cls(entries)

    def write(self) -> str:
        return "".join(
            f"{' '.join(surface)}\t{','.join(types)}\n"
            for surface, types in self.entries.items()
        )


def distant_annotate(
    tokens,
    gaz: Gazetteer,
    vocab: TagVocabulary,
    coverage: float = 1.0,
    ambiguity_rule: str = "first",
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> list[int]:
    """Longest-match left-to-right gazetteer tagging with dropout.

    Each match is applied with probability `coverage` (a dropped match
    stays O: incomplete noise). Ambiguous entries resolve by
    `ambiguity_rule` ("first" or "random"), which may mislabel.
    """
    if not 0.0 <= coverage <= 1.0:
        raise ValueError(f"coverage must be in [0, 1], got {coverage!r}")
    if rng is None:
        rng = np.random.default_rng(seed)
    if ambiguity_rule not in ("first", "random"):
        raise ValueError(f"unknown ambiguity rule {ambiguity_rule!r}")
    tags = [0] * len(tokens)
    i = 0
    while i < len(tokens):
        matched = 0
        types = None
        for length in range(min(gaz.max_len, len(tokens) - i), 0, -1):
            candidate = tuple(tokens[i : i + length])
            if candidate in gaz.entries:
                matched, types = length, gaz.entries[candidate]
                break
        if not matched:
            i += 1
            continue
        if rng.random() < coverage:
            if len(types) == 1 or ambiguity_rule == "first":
                chosen = types[0]
            else:
                chosen = types[int(rng.integers(len(types)))]
            tags[i] = vocab.b_code(chosen)
            for j in range(i + 1, i + matched):
                tags[j] = vocab.i_code(chosen)
        i += matched
    return tags


@dataclass(frozen=True)
class Alteration:
    sent_idx: int
    start: int
    end: int
    old_type: str
    new_label: str  # an entity type name, or "O" for erasure


def format_alteration_log(alterations) -> str:
    return "".join(
        f"{a.sent_idx}\t{a.start}\t{a.end}\t{a.old_type}\t{a.new_label}\n"
        for a in alterations
    )


def inject_noise(
    sentences,
    k_percent: float,
    vocab: TagVocabulary,
    seed: int = 0,
) -> tuple[list[AnnotatedSentence], list[Alteration]]:
    """Alter round(k% of gold mentions): retype (boundary-preserving) or erase.

    Both noisy tracks of the returned sentences hold the altered copy of
    gold; everything outside chosen mentions is untouched.
    """
    if not 0 <= k_percent <= 100:
        raise ValueError(f"k_percent out of range: {k_percent}")
    rng = np.random.default_rng(seed)
    gold, starts = flat_tags([s.track("gold") for s in sentences])
    begin, end, code = bio_spans(gold, vocab, starts)
    offsets = np.cumsum([0] + [len(s.gold) for s in sentences])
    sent_idx = np.searchsorted(offsets, begin, side="right") - 1  # the sentence of each begin
    n_alter = round(k_percent / 100 * len(begin))
    if not len(begin) and k_percent > 0:
        warnings.warn("corpus has no entity mentions; noise injection is a no-op")
    noisy = gold.copy()
    log = []
    if n_alter:
        chosen = sorted(rng.choice(len(begin), size=n_alter, replace=False).tolist())
        others = {t: [u for u in vocab.entity_types if u != t] for t in vocab.entity_types}
        for m in chosen:
            b, e, old_type = int(begin[m]), int(end[m]), vocab.type_of(int(code[m]))
            retype = rng.random() < 0.5
            if retype and others[old_type]:
                pool = others[old_type]
                new_label = pool[int(rng.integers(len(pool)))]
                noisy[b] = vocab.b_code(new_label)
                noisy[b + 1 : e + 1] = vocab.i_code(new_label)
            else:
                noisy[b : e + 1] = 0
                new_label = "O"
            idx = int(sent_idx[m])
            start = int(offsets[idx])
            log.append(Alteration(idx, b - start, e - start, old_type, new_label))
        bio_spans(noisy, vocab, starts)  # an alteration replaces a whole span: BIO stays valid
    flat = noisy.tolist()
    out = [
        AnnotatedSentence(
            list(s.tokens), gold=list(s.track("gold")), noisy_i=flat[a:b], noisy_ii=flat[a:b]
        )
        for s, a, b in zip(sentences, offsets[:-1].tolist(), offsets[1:].tolist())
    ]
    return out, log
