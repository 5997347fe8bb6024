"""BIO-tagged corpora: interchange format, gazetteer matching, noise injection."""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np


class ConllFormatError(ValueError):
    """Malformed interchange text (bad columns, unknown tag name)."""


class BioValidationError(ValueError):
    """A tag sequence violates the BIO scheme at token `index`."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index

    def __reduce__(self):  # pickled with its index, so a child process can send it
        return type(self), (*self.args, self.index)


class TagVocabulary:
    """Closed set of BIO labels: O first, then B-t/I-t per entity type.

    Codes are stable: O=0, and type number k owns codes 2k+1 (B) and
    2k+2 (I).
    """

    def __init__(self, entity_types):
        types = tuple(entity_types)
        if len(set(types)) != len(types):
            raise ValueError(f"duplicate entity types: {types}")
        if "" in types:
            raise ValueError(f"empty entity type in {types}")
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

    def type_of(self, code: int) -> str:
        if code == 0:
            raise ValueError("O carries no entity type")
        return self.entity_types[(code - 1) // 2]

    def __eq__(self, other):
        return isinstance(other, TagVocabulary) and self.entity_types == other.entity_types

    def __repr__(self):
        return f"TagVocabulary({list(self.entity_types)!r})"


def repair_bio(tags, vocab: TagVocabulary, offsets=None) -> np.ndarray:
    """Turn every illegal I-t into B-t; legal sequences come back unchanged.

    `tags` may hold several sentences back to back, sentence i at
    tags[offsets[i]:offsets[i + 1]] and offsets[-1] == len(tags); by default
    it is one sentence. I-t is legal after B-t or I-t, and a repaired I-t
    (now B-t) keeps the next I-t legal, so each token depends only on the
    original tag before it.
    """
    codes = np.asarray(tags, dtype=np.int64)
    prev = np.zeros(len(codes) + 1, dtype=np.int64)  # the spare last slot takes empty last sentences
    prev[1:-1] = codes[:-1]
    if offsets is not None:
        offsets = np.asarray(offsets)
        if offsets[-1] != len(codes):
            raise ValueError(f"offsets end at {int(offsets[-1])} for {len(codes)} tags")
        prev[offsets[:-1]] = 0
    prev = prev[:-1]
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


@dataclass(frozen=True, order=True, slots=True)
class Span:
    start: int
    end: int  # inclusive
    entity_type: str


def bio_spans(tags, vocab: TagVocabulary, offsets=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(begin, end, code) arrays of the maximal entity spans of BIO-valid tags.

    `tags` and `offsets` are as in repair_bio, so a span never crosses a
    sentence start. `end` is inclusive and `code` is the span's B-t code;
    spans come sorted by begin. A tag that repair_bio would change raises
    BioValidationError naming its flat index.
    """
    codes = np.asarray(tags, dtype=np.int64)
    bad = np.flatnonzero(repair_bio(codes, vocab, offsets) != codes)
    if len(bad):
        j = int(bad[0])
        raise BioValidationError(f"token {j}: {vocab.decode(codes[j])} does not continue an entity", j)
    is_i = (codes > 0) & (codes % 2 == 0)
    begin = np.flatnonzero(codes % 2 == 1)
    # in valid BIO a span ends where the next token does not continue it
    end = np.flatnonzero((codes > 0) & ~np.append(is_i[1:], False))
    return begin, end, codes[begin]


def flat_tags(rows) -> tuple[np.ndarray, np.ndarray]:
    """Per-sentence tag lists laid end to end, with their sentence offsets as in repair_bio."""
    lengths = np.fromiter((len(r) for r in rows), dtype=np.int64, count=len(rows))
    tags = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum()))
    return tags, np.concatenate(([0], np.cumsum(lengths)))


def flatten(sentences, *needed) -> tuple[list[str], np.ndarray, dict[str, np.ndarray]]:
    """The sentences' tokens laid end to end, their offsets as in repair_bio, and an
    int64 array in that layout of each track that all of them carry. `needed` names
    the tracks the caller reads: the first sentence that lacks one raises ValueError,
    and so does a track whose length differs from its sentence's (one reassigned later)."""
    for name in needed:
        if name not in AnnotatedSentence.TRACKS:
            raise ValueError(f"unknown track {name!r}")
    lacking = [(i, name) for i, s in enumerate(sentences) for name in needed if getattr(s, name) is None]
    if lacking:
        raise ValueError("sentence {}: no {} track".format(*lacking[0]))
    tracks = {}
    for name in AnnotatedSentence.TRACKS:
        rows = [getattr(s, name) for s in sentences]
        if all(tags is not None for tags in rows):
            for i, (s, tags) in enumerate(zip(sentences, rows)):
                if len(tags) != len(s.tokens):
                    raise ValueError(f"sentence {i}: {name} has {len(tags)} tags for {len(s.tokens)} tokens")
            tracks[name] = flat_tags(rows)[0]
    tokens = list(chain.from_iterable(s.tokens for s in sentences))
    return tokens, np.cumsum([0, *map(len, sentences)], dtype=np.int64), tracks


def unflatten(tokens, offsets, tracks) -> list[AnnotatedSentence]:
    """Flat tokens and tracks (name -> tags) split into sentences, sentence i at
    [offsets[i]:offsets[i + 1]], each owning its lists: flatten's inverse."""
    bounds = np.asarray(offsets).tolist()
    rows = {name: np.asarray(tags).tolist() for name, tags in tracks.items()}
    return [
        AnnotatedSentence(tokens[a:b], **{name: tags[a:b] for name, tags in rows.items()})
        for a, b in zip(bounds, bounds[1:])
    ]


def spans_from_bio(tags, vocab: TagVocabulary) -> list[Span]:
    """Maximal entity spans of a BIO-valid sequence, sorted by start."""
    begin, end, code = bio_spans(tags, vocab)
    return [
        Span(b, e, vocab.type_of(c)) for b, e, c in zip(begin.tolist(), end.tolist(), code.tolist())
    ]


# str.splitlines breaks lines at each of these as well as at \n
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# bytes.translate tables that mark one kind of byte, read as bools. Byte-wise NumPy
# comparisons would load uint8 kernels that nothing else here uses: about 0.7 MB more
# peak RSS in a training run.
_NEWLINE = bytes(b == 10 for b in range(256))
_TAB = bytes(b == 9 for b in range(256))
_TAG_START = bytes(32 < b < 128 for b in range(256))  # printable ASCII, no space


SPLIT_SIZE = 160 << 10  # characters; two processes broke even near 155 KB on 2 x86 cores


def split_conll(text: str) -> list[tuple[str, int]]:
    """CoNLL text as one or two parts, each with the number of its first line: a text
    of SPLIT_SIZE characters or more is cut after the first blank line from its middle
    on. read_conll reads a part, from its first line, as within the text."""
    blank_line = re.compile(r"\n\r?\n")  # a line end, then a line with no character
    cut = blank_line.search(text, len(text) // 2) if len(text) >= SPLIT_SIZE else None
    if cut is None:
        return [(text, 1)]
    head = text[: cut.end()]
    # the head ends with a line end, so where \n is its only line break it has one line per \n
    lines = len(head.splitlines()) if any(brk in head for brk in _OTHER_BREAKS) else head.count("\n")
    return [(head, 1), (text[cut.end() :], lines + 1)]


def _plain_shape(text: str):
    """Line ends, blank-line flags and tab positions of plain CoNLL text, or None.

    `text` ends with \n. Plain text breaks lines with \n alone, has a single
    blank line between sentences and none first, and every other line is
    token<TAB>tag with a non-empty token and a tag that starts with a
    printable ASCII character. So no line of it is whitespace-only, which
    the line loop would read as blank. The shape is checked on the bytes.
    """
    if any(brk in text for brk in _OTHER_BREAKS):
        return None
    try:
        data = text.encode("utf-8")  # \t and \n bytes occur in no multi-byte character
    except UnicodeEncodeError:
        return None
    if data.startswith(b"\n") or b"\n\n\n" in data:
        return None
    newline = np.frombuffer(data.translate(_NEWLINE), dtype=bool)
    ends = np.flatnonzero(newline)  # of every line
    blank = newline[ends - 1]
    full, tabs = ends[~blank], np.flatnonzero(np.frombuffer(data.translate(_TAB), dtype=bool))
    # the k-th tab stands inside the k-th token line, after a byte that is not a line
    # end (newline[-1] is the final \n, so a tab at 0 reads as an empty token)
    if not (
        len(tabs) == len(full)
        and np.all(tabs < full)
        and np.all(tabs[1:] > full[:-1])
        and not np.any(newline[tabs - 1])
    ):
        return None
    tag_start = np.frombuffer(data, dtype=np.uint8)[tabs + 1].tobytes().translate(_TAG_START)
    return (ends, blank, tabs) if 0 not in tag_start else None


def _plain_lines(text: str, first_line: int = 1):
    """_conll_lines' result for plain text (see _plain_shape), or None."""
    if not text.endswith("\n"):
        text += "\n"  # splitlines reads the same lines either way
    shape = _plain_shape(text)
    if shape is None:
        return None
    ends, blank, tabs = shape
    fields = list(filter(None, text.replace("\n", "\t").split("\t")))  # blank lines split empty
    offsets = np.concatenate(([0], np.searchsorted(tabs, ends[blank]), [len(tabs)]))
    if blank[-1]:  # the text ends in a blank line, which closed the last sentence
        offsets = offsets[:-1]
    first_lines = (offsets[:-1] + np.arange(len(offsets) - 1) + first_line).tolist()
    return fields[0::2], fields[1::2], offsets, first_lines, len(first_lines), None


def _conll_lines(text: str, first_line: int = 1):
    """Tokens, tag strings, sentence offsets and first lines of CoNLL text, line by line.

    Also the number of sentences a blank line, or the end of the text,
    closed, and the ConllFormatError of the first malformed line, where
    the scan stopped, or None.
    """
    tokens, tags = [], []
    offsets, first_lines = [0], []  # where each sentence starts, in tokens and in lines
    start, malformed = first_line, None
    for lineno, line in enumerate(text.splitlines(), start=first_line):
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
    closed = len(first_lines)
    if len(tokens) > offsets[-1]:
        offsets.append(len(tokens))
        first_lines.append(start)
        closed += malformed is None
    return tokens, tags, offsets, first_lines, closed, malformed


def read_conll(text: str, vocab: TagVocabulary | None = None, first_line: int = 1):
    """Tokens, int64 tag codes, sentence offsets and vocabulary of CoNLL text, in one pass.

    Sentence i is tokens[offsets[i]:offsets[i + 1]], and none is empty. By
    default the vocabulary holds the sorted types of the B-t and I-t tags; a
    typeless B- or I-, or a type with leading or trailing whitespace, is an
    unknown tag. Errors name the line of the first malformed line or unknown
    tag, unless a sentence closed before it breaks BIO, counting the text's
    first line as `first_line`. Plain text is split with str methods, and any
    other text line by line, to the same result.
    """
    lines = _plain_lines(text, first_line)
    if lines is None:
        lines = _conll_lines(text, first_line)
    tokens, tags, offsets, first_lines, closed, malformed = lines
    offsets = np.array(offsets, dtype=np.int64)
    distinct = set(tags)
    if vocab is None:
        types = {t[2:] for t in distinct if t.startswith(("B-", "I-"))}
        vocab = TagVocabulary(sorted(t for t in types if t == t.strip() != ""))
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
        bio_spans(codes[: offsets[closed]], vocab, offsets[: closed + 1])
    except BioValidationError as exc:
        s, j = locate(exc.index)
        message = f"line {first_lines[s] + j}: token {j}: {tags[exc.index]}"
        raise BioValidationError(f"{message} does not continue an entity", j) from None
    if error is not None:
        raise error
    return tokens, codes, offsets, vocab


def parse_conll(text: str, vocab: TagVocabulary) -> list[AnnotatedSentence]:
    """Read "token<TAB>tag" lines, blank line between sentences.

    Noisy tracks start as copies of gold. Errors name the offending
    1-based line number.
    """
    tokens, codes, offsets, _ = read_conll(text, vocab)
    return unflatten(tokens, offsets, dict.fromkeys(AnnotatedSentence.TRACKS, codes))


def format_conll(tokens, codes, offsets, vocab: TagVocabulary) -> str:
    """Flat tokens and tag codes as interchange text, a blank line between sentences."""
    if len(codes) != len(tokens):
        raise ValueError(f"{len(codes)} tag codes for {len(tokens)} tokens")
    if offsets[-1] != len(tokens):
        raise ValueError(f"offsets end at {int(offsets[-1])} for {len(tokens)} tokens")
    offsets = np.asarray(offsets)
    # blank lines before each flat token and at the end: one per inner sentence boundary and empty sentence
    blank = np.bincount(np.r_[offsets[1:-1], offsets[:-1][np.diff(offsets) == 0]], minlength=len(tokens) + 1)
    ends = ["\n" * k for k in range(1, int(blank.max()) + 2)]  # a line end, then k - 1 blank lines
    parts = ["\t"] * (4 * len(tokens))  # token, tab, tag and line end of each line: no string per line
    parts[0::4] = tokens
    parts[2::4] = map(vocab.tags.__getitem__, np.asarray(codes).tolist())
    parts[3::4] = map(ends.__getitem__, blank[1:].tolist())
    return "\n" * int(blank[0]) + "".join(parts)


def write_conll(sentences, vocab: TagVocabulary, track: str = "gold") -> str:
    """Inverse of parse_conll for the chosen track."""
    tokens, offsets, tracks = flatten(sentences, track)
    return format_conll(tokens, tracks[track], offsets, vocab)


@dataclass
class Gazetteer:
    """Surface form (token tuple) to the ordered entity types it may denote."""

    entries: dict[tuple[str, ...], tuple[str, ...]] = field(default_factory=dict)
    max_len: int = field(init=False, repr=False, compare=False)  # longest surface, in tokens
    _trie: tuple = field(init=False, repr=False, compare=False)  # see __post_init__
    _types: list = field(init=False, repr=False, compare=False)  # of each surface, in order
    _kinds: np.ndarray = field(init=False, repr=False, compare=False)  # len() of each _types

    def __post_init__(self):
        for surface, types in self.entries.items():
            if not surface:
                raise ValueError("empty surface form")
            if not types:
                raise ValueError(f"no types for surface {surface!r}")
        self.max_len = max((len(s) for s in self.entries), default=0)
        # A trie over the surfaces, node 0 its root. The edge from node n on the w-th
        # distinct word is keyed n * (number of words) + w: with T tokens in all surfaces,
        # keys stay below (T + 1) ** 2, which int64 holds for any gazetteer in memory.
        words, edges, ends = {}, {}, []
        for surface in self.entries:
            node = 0
            for token in surface:
                node = edges.setdefault((node, words.setdefault(token, len(words))), len(edges) + 1)
            ends.append(node)
        keys = np.array([n * len(words) + w for n, w in edges], dtype=np.int64)
        order = np.argsort(keys)
        child = np.array(list(edges.values()), dtype=np.int64)[order]
        surface = np.full(len(edges) + 1, -1, dtype=np.int64)  # number of the surface a node ends
        surface[ends] = np.arange(len(ends))
        self._trie = (words, keys[order], child, surface)
        self._types = list(self.entries.values())
        self._kinds = np.array([len(t) for t in self._types], dtype=np.int64)

    @classmethod
    def parse(cls, text: str) -> "Gazetteer":
        """Read "surface form<TAB>TYPE1,TYPE2" lines, one line per surface."""
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
            repeated = [t for i, t in enumerate(types) if t in types[:i]]
            if repeated:
                raise ConllFormatError(f"line {lineno}: repeated type {repeated[0]!r} in {line!r}")
            surface = tuple(surface.split())
            if surface in entries:
                raise ConllFormatError(f"line {lineno}: repeated surface {' '.join(surface)!r}")
            entries[surface] = types
        return cls(entries)

    def taken_matches(self, tokens, offsets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(begin, length, surface number) of the matches annotate_corpus takes in `tokens`,
        sorted by begin: the longest surface at each position no taken match, applied or not, covers.

        Sentence i is tokens[offsets[i]:offsets[i + 1]], and no match crosses
        a sentence end. Surfaces are numbered in the order of `entries`.
        """
        words, keys, child, surface = self._trie
        offsets = np.asarray(offsets, dtype=np.int64)
        word = np.fromiter(map(words.get, tokens, repeat(-1)), dtype=np.int64, count=len(tokens))
        begin = np.flatnonzero(word >= 0)
        room = offsets[np.searchsorted(offsets, begin, side="right")] - begin  # to the sentence end
        node = np.zeros(len(begin), dtype=np.int64)
        length = np.zeros(len(begin), dtype=np.int64)
        found = np.zeros(len(begin), dtype=np.int64)
        live = np.arange(len(begin))  # begins whose walk down the trie goes on
        for depth in range(self.max_len):
            live = live[room[live] > depth]
            w = word[begin[live] + depth]
            live, w = live[w >= 0], w[w >= 0]
            key = node[live] * len(words) + w
            j = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
            hit = keys[j] == key
            live = live[hit]
            node[live] = child[j[hit]]
            ends = surface[node[live]]
            length[live[ends >= 0]] = depth + 1
            found[live[ends >= 0]] = ends[ends >= 0]
        begin, length, found = (a[length > 0] for a in (begin, length, found))
        # a match that no earlier match reaches is taken, so only the others are decided one by one
        end, taken = begin + length, np.ones(len(begin), dtype=bool)
        for k in (np.flatnonzero(begin[1:] < np.maximum.accumulate(end)[:-1]) + 1).tolist():
            j = k - 1  # the last match taken before k, whose end is the furthest
            while not taken[j]:
                j -= 1
            taken[k] = begin[k] >= end[j]
        return begin[taken], length[taken], found[taken]


def draw_matches(gaz: Gazetteer, which, coverage: float, ambiguity_rule: str, rng) -> tuple:
    """annotate_corpus's draws for taken matches of the surfaces numbered `which`: whether
    each is applied, and the number of the type picked for it. rng.random(k) draws what k
    calls of rng.random() draw, so only an ambiguous match's integers() ends a run."""
    kinds = gaz._kinds[which]
    draw, pick, drawn = np.empty(len(kinds)), np.zeros(len(kinds), dtype=np.int64), 0
    if ambiguity_rule == "random":
        for k in np.flatnonzero(kinds > 1).tolist():
            draw[drawn : k + 1] = rng.random(k + 1 - drawn)
            drawn = k + 1
            if draw[k] < coverage:
                pick[k] = rng.integers(kinds[k])
    draw[drawn:] = rng.random(len(kinds) - drawn)
    return draw < coverage, pick


def tag_matches(size: int, matches, applied, pick, gaz: Gazetteer, vocab: TagVocabulary) -> np.ndarray:
    """int64 tags of `size` tokens: O but where draw_matches applied a taken match."""
    begin, length, which = (a[applied] for a in matches)
    chosen = [gaz._types[s][p] for s, p in zip(which.tolist(), pick[applied].tolist())]
    # vocab.b_code raises for a type the vocabulary lacks, at its first use as before
    b_code = {t: vocab.b_code(t) for t in dict.fromkeys(chosen)}
    code = np.fromiter(map(b_code.__getitem__, chosen), dtype=np.int64, count=len(chosen))
    inside = np.arange(length.sum()) + np.repeat(begin - np.cumsum(length) + length, length)
    tags = np.zeros(size, dtype=np.int64)
    tags[inside] = np.repeat(code + 1, length)  # I-t throughout, then B-t at each begin
    tags[begin] = code
    return tags


def annotate_corpus(
    tokens,
    offsets,
    gaz: Gazetteer,
    vocab: TagVocabulary,
    coverage: float = 1.0,
    ambiguity_rule: str = "first",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """distant_annotate of each sentence tokens[offsets[i]:offsets[i + 1]] in turn, in one pass.

    Returns the int64 tags laid end to end. The draws are distant_annotate's,
    match by match from left to right: one rng.random() per longest match,
    then rng.integers(len(types)) if the match is applied, ambiguous and
    resolved by the "random" rule.
    """
    if not 0.0 <= coverage <= 1.0:
        raise ValueError(f"coverage must be in [0, 1], got {coverage!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    if ambiguity_rule not in ("first", "random"):
        raise ValueError(f"unknown ambiguity rule {ambiguity_rule!r}")
    matches = gaz.taken_matches(tokens, offsets)
    applied, pick = draw_matches(gaz, matches[2], coverage, ambiguity_rule, rng)
    return tag_matches(len(tokens), matches, applied, pick, gaz, vocab)


def distant_annotate(
    tokens,
    gaz: Gazetteer,
    vocab: TagVocabulary,
    coverage: float = 1.0,
    ambiguity_rule: str = "first",
    rng: np.random.Generator | None = None,
) -> list[int]:
    """Longest-match left-to-right gazetteer tagging with dropout.

    Each match is applied with probability `coverage` (a dropped match
    stays O: incomplete noise). Ambiguous entries resolve by
    `ambiguity_rule` ("first" or "random"), which may mislabel. Draws
    come from `rng`, by default one seeded with 0.

    Each call runs annotate_corpus's whole-corpus pass, some 40 NumPy
    calls, on one sentence: about 121 µs a sentence on a 2-core x86 host,
    against 13 µs for the per-sentence loop it replaced. Callers that loop
    over sentences should make one annotate_corpus call over all of them.
    """
    return annotate_corpus(
        tokens, [0, len(tokens)], gaz, vocab, coverage, ambiguity_rule, rng
    ).tolist()


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
    tokens, offsets, tracks = flatten(sentences, "gold")
    begin, end, code = bio_spans(tracks["gold"], vocab, offsets)
    sent_idx = np.searchsorted(offsets, begin, side="right") - 1  # the sentence of each begin
    n_alter = round(k_percent / 100 * len(begin))
    if not len(begin) and k_percent > 0:
        warnings.warn("corpus has no entity mentions; noise injection is a no-op")
    noisy = tracks["gold"].copy()
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
        bio_spans(noisy, vocab, offsets)  # an alteration replaces a whole span: BIO stays valid
    return unflatten(tokens, offsets, {"gold": tracks["gold"], "noisy_i": noisy, "noisy_ii": noisy}), log
