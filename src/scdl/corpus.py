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

    def __post_init__(self):
        for name in self.TRACKS:
            tags = getattr(self, name)
            if tags is not None and len(tags) != len(self.tokens):
                raise ValueError(f"{name} has {len(tags)} tags for {len(self.tokens)} tokens")

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


def sentence_starts(offsets) -> np.ndarray:
    """repair_bio's `starts` mask of sentences laid end to end at `offsets`."""
    offsets = np.asarray(offsets)
    starts = np.zeros(int(offsets[-1]), dtype=bool)
    starts[offsets[:-1][np.diff(offsets) > 0]] = True
    return starts


def flat_tags(rows) -> tuple[np.ndarray, np.ndarray]:
    """Per-sentence tag lists laid end to end, with repair_bio's `starts` mask."""
    lengths = np.fromiter((len(r) for r in rows), dtype=np.int64, count=len(rows))
    tags = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum()))
    return tags, sentence_starts(np.concatenate(([0], np.cumsum(lengths))))


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


def read_conll(text: str, vocab: TagVocabulary | None = None):
    """Tokens, int64 tag codes, sentence offsets and vocabulary of CoNLL text, in one pass.

    Sentence i is tokens[offsets[i]:offsets[i + 1]], and none is empty. By
    default the vocabulary holds the sorted types of the B-t and I-t tags.
    Errors name the 1-based line of the first malformed line or unknown
    tag, unless a sentence closed before it breaks BIO.
    """
    tokens, tags = [], []
    offsets, first_lines = [0], []  # where each sentence starts, in tokens and in lines
    start, malformed = 1, None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            if len(tokens) > offsets[-1]:
                offsets.append(len(tokens))
                first_lines.append(start)
            start = lineno + 1
            continue
        token, _, tag = line.partition("\t")
        if not (token and tag):
            malformed = ConllFormatError(f"line {lineno}: expected 'token<TAB>tag', got {line!r}")
            break
        tokens.append(token)
        tags.append(tag)
    closed = len(first_lines)  # sentences a blank line, or the end of the text, closed
    if len(tokens) > offsets[-1]:
        offsets.append(len(tokens))
        first_lines.append(start)
        closed += malformed is None
    offsets = np.array(offsets, dtype=np.int64)
    distinct = set(tags)
    if vocab is None:
        vocab = TagVocabulary(sorted({t[2:] for t in distinct if t.startswith(("B-", "I-"))}))
    table = {t: vocab._code.get(t, -1) for t in distinct}
    codes = np.fromiter(map(table.__getitem__, tags), dtype=np.int64, count=len(tags))

    def locate(j):  # the sentence of flat token j, and j's index in it
        s = int(np.searchsorted(offsets, j, side="right")) - 1
        return s, j - int(offsets[s])

    error = malformed
    unknown = np.flatnonzero(codes < 0)
    if len(unknown):  # the scan stopped at a malformed line, so this one comes first
        u = int(unknown[0])
        closed, j = locate(u)
        error = ConllFormatError(f"line {first_lines[closed] + j}: unknown tag {tags[u]!r}")
    try:
        bio_spans(codes[: offsets[closed]], vocab, sentence_starts(offsets[: closed + 1]))
    except BioValidationError as exc:
        s, j = locate(exc.index)
        message = f"line {first_lines[s] + j}: token {j}: {tags[exc.index]}"
        raise BioValidationError(f"{message} does not continue an entity", j) from None
    if error is not None:
        raise error
    return tokens, codes, offsets, vocab


def infer_vocab(text: str) -> TagVocabulary:
    """Entity types found in interchange text, in sorted order; raises as read_conll."""
    return read_conll(text)[3]


def annotated_sentences(tokens, codes, offsets) -> list[AnnotatedSentence]:
    """Flat tokens and gold codes split into sentences whose noisy tracks start as copies of gold."""
    tags, bounds = np.asarray(codes).tolist(), np.asarray(offsets).tolist()
    return [
        AnnotatedSentence(tokens[a:b], gold=tags[a:b], noisy_i=tags[a:b], noisy_ii=tags[a:b])
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


def parse_conll(text: str, vocab: TagVocabulary) -> list[AnnotatedSentence]:
    """Read "token<TAB>tag" lines, blank line between sentences.

    Noisy tracks start as copies of gold. Errors name the offending
    1-based line number.
    """
    return annotated_sentences(*read_conll(text, vocab)[:3])


def format_conll(tokens, codes, offsets, vocab: TagVocabulary) -> str:
    """Flat tokens and tag codes as interchange text, a blank line between sentences."""
    lines = [f"{tok}\t{vocab.tags[c]}" for tok, c in zip(tokens, np.asarray(codes).tolist())]
    bounds = np.asarray(offsets).tolist()
    return "\n".join("\n".join(lines[a:b]) + "\n" for a, b in zip(bounds[:-1], bounds[1:]))


def write_conll(sentences, vocab: TagVocabulary, track: str = "gold") -> str:
    """Inverse of parse_conll for the chosen track."""
    rows = [list(zip(s.tokens, s.track(track))) for s in sentences]
    pairs = list(chain.from_iterable(rows))
    offsets = np.cumsum([0] + [len(row) for row in rows])
    return format_conll([tok for tok, _ in pairs], [c for _, c in pairs], offsets, vocab)


@dataclass
class Gazetteer:
    """Surface form (token tuple) to the ordered entity types it may denote."""

    entries: dict[tuple[str, ...], tuple[str, ...]] = field(default_factory=dict)
    max_len: int = field(init=False, repr=False, compare=False)  # longest surface, in tokens
    first_tokens: frozenset = field(init=False, repr=False, compare=False)  # of every surface

    def __post_init__(self):
        for surface, types in self.entries.items():
            if not surface:
                raise ValueError("empty surface form")
            if not types:
                raise ValueError(f"no types for surface {surface!r}")
        self.max_len = max((len(s) for s in self.entries), default=0)
        self.first_tokens = frozenset(s[0] for s in self.entries)

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
    end = 0  # tokens before `end` belong to an earlier match
    for i, token in enumerate(tokens):
        if i < end or token not in gaz.first_tokens:
            continue
        for length in range(min(gaz.max_len, len(tokens) - i), 0, -1):
            types = gaz.entries.get(tuple(tokens[i : i + length]))
            if types is not None:
                break
        else:
            continue
        end = i + length
        if rng.random() < coverage:
            if len(types) == 1 or ambiguity_rule == "first":
                chosen = types[0]
            else:
                chosen = types[int(rng.integers(len(types)))]
            tags[i] = vocab.b_code(chosen)
            for j in range(i + 1, end):
                tags[j] = vocab.i_code(chosen)
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
