import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scdl.corpus import (
    Alteration,
    AnnotatedSentence,
    BioValidationError,
    ConllFormatError,
    Gazetteer,
    Span,
    TagVocabulary,
    annotate_corpus,
    bio_spans,
    distant_annotate,
    flat_tags,
    flatten,
    format_alteration_log,
    format_conll,
    inject_noise,
    parse_conll,
    read_conll,
    repair_bio,
    spans_from_bio,
    unflatten,
    write_conll,
)
from scdl import corpus as corpus_module
from synthdata import make_synthetic_corpus


class TestTagVocabulary:
    def test_code_layout(self, vocab):
        assert vocab.tags[0] == "O"
        for k, t in enumerate(vocab.entity_types):
            assert vocab.b_code(t) == 2 * k + 1
            assert vocab.i_code(t) == 2 * k + 2
            assert vocab.type_of(2 * k + 1) == t
            assert vocab.type_of(2 * k + 2) == t

    def test_encode_decode_roundtrip(self, vocab):
        for code, tag in enumerate(vocab.tags):
            assert vocab.encode(tag) == code
            assert vocab.decode(code) == tag

    def test_unknown_tag(self, vocab):
        with pytest.raises(KeyError):
            vocab.encode("B-XYZ")

    def test_type_of_o_rejected(self, vocab):
        with pytest.raises(ValueError):
            vocab.type_of(0)

    def test_duplicate_types_rejected(self):
        with pytest.raises(ValueError):
            TagVocabulary(["PER", "PER"])


class TestBioValidation:
    def test_valid_sequences(self, vocab):
        bio_spans([], vocab)
        bio_spans([0, 1, 2, 2, 0], vocab)
        bio_spans([1, 1], vocab)  # adjacent B-PER mentions

    def test_dangling_i_rejected(self, vocab):
        with pytest.raises(BioValidationError, match="^token 0: I-PER does not continue an entity$") as info:
            bio_spans([2], vocab)
        assert info.value.index == 0
        with pytest.raises(BioValidationError, match="^token 1: I-PER does not continue an entity$") as info:
            bio_spans([0, 2], vocab)
        assert info.value.index == 1

    def test_type_switch_rejected(self, vocab):
        with pytest.raises(BioValidationError, match="^token 1: I-LOC") as info:
            bio_spans([1, 4], vocab)  # B-PER then I-LOC
        assert info.value.index == 1

    def test_repair_fixes_illegal_i(self, vocab):
        assert repair_bio([2], vocab).tolist() == [1]
        assert repair_bio([0, 2, 2], vocab).tolist() == [0, 1, 2]
        assert repair_bio([1, 4], vocab).tolist() == [1, 3]

    def test_repair_keeps_legal(self, vocab):
        seq = [0, 1, 2, 0, 3, 4, 4]
        assert repair_bio(seq, vocab).tolist() == seq

    @given(st.lists(st.lists(st.integers(0, 8), max_size=6), max_size=6))
    @settings(max_examples=300)
    def test_flat_repair_equals_sentence_loop(self, sentences):
        """Repair of sentences laid end to end, at their offsets, equals
        the sequential loop run on each sentence alone."""
        vocab = TagVocabulary(["PER", "LOC", "ORG", "MISC"])

        def repair_loop(tags):
            out, prev = [], 0
            for code in tags:
                if code > 0 and code % 2 == 0 and prev not in (code, code - 1):
                    code = code - 1
                out.append(code)
                prev = code
            return out

        flat = [c for tags in sentences for c in tags]
        offsets = [0]
        for tags in sentences:
            offsets.append(offsets[-1] + len(tags))
        expected = [c for tags in sentences for c in repair_loop(tags)]
        assert repair_bio(flat, vocab, offsets).tolist() == expected
        for tags in sentences:
            assert repair_bio(tags, vocab).tolist() == repair_loop(tags)


def bio_from_spans(spans, length, vocab):
    """BIO codes of `length` tokens holding `spans`: the inverse of spans_from_bio."""
    tags = [0] * length
    for span in spans:
        if not 0 <= span.start <= span.end < length:
            raise ValueError(f"span {span} out of bounds for length {length}")
        tags[span.start] = vocab.b_code(span.entity_type)
        for j in range(span.start + 1, span.end + 1):
            tags[j] = vocab.i_code(span.entity_type)
    return tags


@st.composite
def span_layouts(draw):
    """Non-overlapping, non-touching-same-type spans with their length."""
    n_types = 4
    pieces = draw(
        st.lists(
            st.tuples(
                st.integers(0, 2),  # gap before the span
                st.integers(1, 3),  # span length
                st.integers(0, n_types - 1),
            ),
            max_size=6,
        )
    )
    spans = []
    pos = 0
    prev_type = None
    types = ("PER", "LOC", "ORG", "MISC")
    for gap, length, t in pieces:
        # a zero gap between same-type spans would merge them in BIO
        if gap == 0 and prev_type == types[t]:
            gap = 1
        pos += gap
        spans.append(Span(pos, pos + length - 1, types[t]))
        pos += length
        prev_type = types[t]
    tail = draw(st.integers(0, 2))
    return spans, pos + tail


class TestSpans:
    def test_simple_extraction(self, vocab):
        tags = [1, 2, 0, 3, 0]
        assert spans_from_bio(tags, vocab) == [Span(0, 1, "PER"), Span(3, 3, "LOC")]

    def test_adjacent_b_splits(self, vocab):
        assert spans_from_bio([1, 1], vocab) == [Span(0, 0, "PER"), Span(1, 1, "PER")]

    def test_bio_from_spans_bounds(self, vocab):
        with pytest.raises(ValueError):
            bio_from_spans([Span(0, 3, "PER")], 3, vocab)

    @given(span_layouts())
    @settings(max_examples=200)
    def test_roundtrip(self, layout):
        vocab = TagVocabulary(["PER", "LOC", "ORG", "MISC"])
        spans, length = layout
        tags = bio_from_spans(spans, length, vocab)
        bio_spans(tags, vocab)
        assert spans_from_bio(tags, vocab) == sorted(spans)

    @given(st.lists(st.integers(0, 8), max_size=12))
    @settings(max_examples=200)
    def test_repair_always_validates(self, tags):
        vocab = TagVocabulary(["PER", "LOC", "ORG", "MISC"])
        bio_spans(repair_bio(tags, vocab), vocab)


def spans_loop(tags, vocab):
    """Reference: (start, end, type) of each maximal span, one scan over valid BIO."""
    spans = []
    start = None
    for j, code in enumerate(tags):
        if code == 0 or code % 2 == 1:  # O or B-t closes the open span; I-t continues it
            if start is not None:
                spans.append((start, j - 1, vocab.type_of(tags[start])))
            start = j if code else None
    if start is not None:
        spans.append((start, len(tags) - 1, vocab.type_of(tags[start])))
    return spans


class TestFlatSpans:
    @given(st.lists(st.lists(st.integers(0, 8), max_size=6), max_size=6))
    @settings(max_examples=300)
    def test_flat_spans_equal_sentence_loop(self, raw):
        """Spans of sentences laid end to end, including empty and 1-token
        ones, equal the reference loop on each sentence shifted by its offset."""
        vocab = TagVocabulary(["PER", "LOC", "ORG", "MISC"])
        sentences = [repair_bio(tags, vocab).tolist() for tags in raw]
        expected, offsets = [], [0]
        for tags in sentences:
            offset = offsets[-1]
            expected += [(b + offset, e + offset, t) for b, e, t in spans_loop(tags, vocab)]
            offsets.append(offset + len(tags))
            assert [(s.start, s.end, s.entity_type) for s in spans_from_bio(tags, vocab)] == (
                spans_loop(tags, vocab)
            )
        flat, flat_offsets = flat_tags(sentences)
        assert flat.tolist() == [c for tags in sentences for c in tags]
        assert flat_offsets.tolist() == offsets
        begin, end, code = bio_spans(flat, vocab, flat_offsets)
        got = [(b, e, vocab.type_of(c)) for b, e, c in zip(begin.tolist(), end.tolist(), code.tolist())]
        assert got == expected

    def test_i_at_sentence_start_raises(self, vocab):
        b, i = vocab.b_code("PER"), vocab.i_code("PER")
        tags, offsets = flat_tags([[0, b], [i, 0]])
        with pytest.raises(BioValidationError, match="token 2") as info:
            bio_spans(tags, vocab, offsets)
        assert info.value.index == 2
        begin, end, _ = bio_spans(tags, vocab)  # one sentence: B-PER I-PER is a span
        assert (begin.tolist(), end.tolist()) == ([1], [2])

    @pytest.mark.parametrize("offsets", [[0, 2], [0, 2, 4], [0, 1, 3, 4]])
    def test_offsets_must_end_at_the_tag_count(self, vocab, offsets):
        tags = [0, 1, 2]
        with pytest.raises(ValueError, match=f"offsets end at {offsets[-1]} for 3 tags"):
            repair_bio(tags, vocab, offsets)
        with pytest.raises(ValueError, match=f"offsets end at {offsets[-1]} for 3 tags"):
            bio_spans(tags, vocab, offsets)

    def test_invalid_tag_raises(self, vocab):
        with pytest.raises(BioValidationError, match="token 1"):
            bio_spans([1, 4], vocab)  # B-PER then I-LOC
        with pytest.raises(BioValidationError, match="token 0"):
            spans_from_bio([2], vocab)


CONLL_SAMPLE = "Jack\tB-PER\nLucas\tI-PER\nvisited\tO\nParis\tB-LOC\n\nEOF\tO\n"


class TestConll:
    def test_parse_writes_back(self, vocab):
        sentences = parse_conll(CONLL_SAMPLE, vocab)
        assert len(sentences) == 2
        assert sentences[0].tokens == ["Jack", "Lucas", "visited", "Paris"]
        assert sentences[0].gold == [1, 2, 0, 3]
        assert sentences[0].noisy_i == sentences[0].gold
        assert sentences[0].noisy_i is not sentences[0].gold
        assert write_conll(sentences, vocab, "gold") == CONLL_SAMPLE

    def test_roundtrip_synthetic(self, vocab):
        sentences = make_synthetic_corpus(25, vocab, seed=7)
        text = write_conll(sentences, vocab, "gold")
        again = parse_conll(text, vocab)
        assert [s.tokens for s in again] == [s.tokens for s in sentences]
        assert [s.gold for s in again] == [s.gold for s in sentences]

    def test_missing_tab_names_line(self, vocab):
        with pytest.raises(ConllFormatError, match="line 2"):
            parse_conll("a\tO\nbad line\n", vocab)

    def test_unknown_tag_names_line(self, vocab):
        with pytest.raises(ConllFormatError, match="line 1"):
            parse_conll("a\tB-XYZ\n", vocab)

    def test_invalid_bio_names_line(self, vocab):
        with pytest.raises(BioValidationError, match="line 3"):
            parse_conll("a\tO\n\nb\tI-PER\n", vocab)
        with pytest.raises(BioValidationError, match="line 2") as info:
            parse_conll("a\tO\nb\tI-PER\n", vocab)
        assert info.value.index == 1

    def test_empty_text(self, vocab):
        assert parse_conll("", vocab) == []
        assert write_conll([], vocab) == ""

    def test_write_rejects_an_unknown_track(self, vocab):
        """Even with no sentence to lack it."""
        with pytest.raises(ValueError, match="^unknown track 'bogus'$"):
            write_conll([], vocab, "bogus")

    def test_infer_vocab_sorted(self):
        v = read_conll("a\tB-ZOO\nb\tI-ZOO\nc\tB-ANT\n")[3]
        assert v.entity_types == ("ANT", "ZOO")


def infer_vocab_loop(text):
    """read_conll's inferred vocabulary as a loop over the lines: the reference."""
    types = set()
    for line in text.splitlines():
        if not line.strip():
            continue
        _, _, tag = line.partition("\t")
        if tag.startswith(("B-", "I-")):
            types.add(tag[2:])
    return TagVocabulary(sorted(types))


def parse_conll_loop(text, vocab):
    """parse_conll as it was written line by line, one BIO check per sentence: the reference."""
    sentences, tokens, tags = [], [], []
    start_line = 1

    def flush():
        nonlocal tokens, tags
        if not tokens:
            return
        try:
            bio_spans(tags, vocab)
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


def write_conll_loop(sentences, vocab, track="gold"):
    """write_conll as it was written sentence by sentence: the reference."""
    blocks = []
    for sentence in sentences:
        tags = sentence.track(track)
        blocks.append(
            "\n".join(f"{tok}\t{vocab.decode(c)}" for tok, c in zip(sentence.tokens, tags))
        )
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


def outcome(parse, *args):
    """What a reader returns, or the class, message and BIO index of what it raises."""
    try:
        return parse(*args)
    except (ConllFormatError, BioValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


CONLL_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", "\u2028", " "]


@st.composite
def conll_texts(draw):
    """CoNLL-like text: token lines, blank and whitespace-only lines, malformed
    lines and unknown tags, joined by line breaks that str.splitlines knows
    or by a space, which puts a space into the tag before it."""
    token = st.text(alphabet="ab é", min_size=1, max_size=3)
    tag = st.sampled_from(["O", "B-PER", "I-PER", "B-LOC", "I-LOC", "I-ORG", "B-XYZ", "X", "O\tO"])
    good = st.builds(lambda t, g: f"{t}\t{g}", token, tag)
    bad = st.sampled_from(["a", "\tO", "a\t", "a O", "\t"])
    blank = st.sampled_from(["", " ", "\t", " \t "])
    kind = st.sampled_from(["good"] * 6 + ["blank"] * 2 + ["bad"])
    lines = [draw({"good": good, "blank": blank, "bad": bad}[k]) for k in draw(st.lists(kind))]
    breaks = [draw(st.sampled_from(CONLL_BREAKS)) for _ in lines]
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    return text[: -len(breaks[-1])] if lines and draw(st.booleans()) else text


# flaws a plain CoNLL text may carry, and the line or text each makes of token line i
PLAIN_FLAWS = {
    "no tab": lambda line: line.replace("\t", " "),
    "two tabs": lambda line: line + "\tO",
    "empty token": lambda line: line[line.index("\t") :],
    "empty tag": lambda line: line[: line.index("\t") + 1],
    "whitespace-only line": lambda line: " \t ",
    "unicode whitespace-only line": lambda line: "\xa0\t\u3000",
    "unencodable token": lambda line: "\udcff" + line,
    "unknown tag": lambda line: line.split("\t")[0] + "\tX",
    "BIO break": lambda line: line.split("\t")[0] + "\tI-ORG",
    "blank lines doubled": lambda line: line + "\n\n",
    "leading blank line": lambda line: "\n" + line,  # planted in the first line
}
# ... or the line break after token line i, in place of \n or before it
PLAIN_BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# flaws the plain-text path reads itself, to the line loop's result or error
PLAIN_READABLE = {"", "no final newline", "unknown tag", "BIO break"}


@st.composite
def plain_conll_texts(draw):
    """Plain CoNLL text (\\n breaks, one blank line between sentences, token<TAB>tag
    lines of BIO-valid tags) with at most one planted flaw, and the flaw's name."""
    token = st.text(alphabet="ab é\u3000", min_size=1, max_size=3)
    kinds = st.sampled_from(["O", "PER", "PER", "LOC", "MISC"])
    sentences = []
    for kind_list in draw(st.lists(st.lists(kinds, min_size=1, max_size=6), min_size=1, max_size=5)):
        tags, prev = [], "O"
        for kind in kind_list:
            inside = kind != "O" and kind == prev and draw(st.booleans())
            tags.append("O" if kind == "O" else ("I-" if inside else "B-") + kind)
            prev = kind
        sentences.append([f"{draw(token)}\t{tag}" for tag in tags])
    lines = [line for sentence in sentences for line in sentence + [""]][:-1]
    breaks = ["\n"] * len(lines)
    flaw = draw(st.sampled_from([""] * 3 + sorted(PLAIN_FLAWS) + ["line break"] * 3 + ["no final newline"]))
    i = 0 if flaw == "leading blank line" else draw(st.sampled_from([k for k, x in enumerate(lines) if x]))
    if flaw == "line break":
        breaks[i] = draw(st.sampled_from(PLAIN_BREAKS)) + draw(st.sampled_from(["", "\n"]))
    elif flaw in PLAIN_FLAWS:
        lines[i] = PLAIN_FLAWS[flaw](lines[i])
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    return (text[:-1] if flaw == "no final newline" else text), flaw


class TestFlatReader:
    @given(conll_texts())
    @settings(max_examples=500)
    @example("a\tI-PER\nb\n")  # the BIO error's sentence is still open at the malformed line
    @example("a\tI-PER\n\nb\n")  # it closed before
    @example("a\tI-PER\nb\tX\n")
    @example("a\tI-PER\n\nb\tX\n")
    @example("a\tO\n \t \nb\tI-PER\r\nc\tO\u2028\x85d e\tB-PER\x1cf\tI-PER\x0b")
    def test_parse_equals_line_loop(self, text):
        vocab = TagVocabulary(["PER", "LOC"])
        assert outcome(parse_conll, text, vocab) == outcome(parse_conll_loop, text, vocab)

    @given(conll_texts())
    @settings(max_examples=500)
    @example("a\tB-XYZ\nb\tI-PER\n\nc\tI-XYZ\n")
    def test_inferred_vocab_equals_two_passes(self, text):
        vocab = infer_vocab_loop(text)
        expected = outcome(parse_conll_loop, text, vocab)
        got = outcome(read_conll, text)
        if isinstance(expected, list):
            tokens, codes, offsets, inferred = got
            assert inferred == vocab
            assert unflatten(tokens, offsets, dict.fromkeys(AnnotatedSentence.TRACKS, codes)) == expected
            assert offsets.dtype == codes.dtype == np.int64
        else:
            assert got == expected

    @given(plain_conll_texts())
    @settings(max_examples=500)
    @example(("a\tB-PER\n\nb\tI-PER\n", "BIO break"))
    @example(("a\tB-PER\n\n\nb\tO\n", "blank lines doubled"))
    def test_plain_text_equals_line_loop(self, planted):
        """Plain text reads as the line loop reads it, and only the flaws the plain
        path cannot read send it to the loop."""
        text, flaw = planted
        vocab = infer_vocab_loop(text)
        expected = outcome(parse_conll_loop, text, vocab)
        got = outcome(read_conll, text)
        if isinstance(expected, list):
            tokens, codes, offsets, inferred = got
            assert inferred == vocab
            assert unflatten(tokens, offsets, dict.fromkeys(AnnotatedSentence.TRACKS, codes)) == expected
            assert offsets.dtype == codes.dtype == np.int64
        else:
            assert got == expected
        fixed = TagVocabulary(["PER", "LOC", "MISC"])
        assert outcome(parse_conll, text, fixed) == outcome(parse_conll_loop, text, fixed)
        assert (corpus_module._plain_lines(text) is not None) == (flaw in PLAIN_READABLE)

    @given(
        st.lists(
            st.lists(
                st.tuples(st.text(alphabet="ab é", min_size=1, max_size=3), st.integers(0, 4)),
                max_size=4,
            ),
            max_size=5,
        )
    )
    @settings(max_examples=300)
    def test_write_equals_sentence_loop(self, rows):
        """Bytes equal, for empty sentences too."""
        vocab = TagVocabulary(["PER", "LOC"])
        sentences = [
            AnnotatedSentence([token for token, _ in row], gold=[tag for _, tag in row])
            for row in rows
        ]
        assert write_conll(sentences, vocab) == write_conll_loop(sentences, vocab)

    @pytest.mark.parametrize(
        "tokens, codes, offsets, message",
        [
            (["a", "b"], [0], [0, 2], "1 tag codes for 2 tokens"),
            (["a", "b", "c"], [0, 1, 2], [0, 2], "offsets end at 2 for 3 tokens"),
        ],
    )
    def test_format_rejects_counts_that_disagree(self, vocab, tokens, codes, offsets, message):
        with pytest.raises(ValueError, match=message):
            format_conll(tokens, codes, offsets, vocab)

    @pytest.mark.parametrize(
        "offsets", [[0], [0, 0], [0, 0, 0], [0, 2, 2, 3], [0, 0, 3], [0, 3, 3], [0, 1, 1, 1, 3]]
    )
    def test_format_keeps_empty_sentences(self, vocab, offsets):
        """Empty sentences first, between others and last each keep their blank line."""
        tokens, codes = ["a", "b", "c"][: offsets[-1]], [1, 2, 0][: offsets[-1]]
        sentences = [
            AnnotatedSentence(tokens[a:b], gold=codes[a:b]) for a, b in zip(offsets[:-1], offsets[1:])
        ]
        expected = write_conll_loop(sentences, vocab)
        assert format_conll(tokens, codes, offsets, vocab) == expected
        assert format_conll(tokens, np.array(codes), np.array(offsets), vocab) == expected

    @pytest.mark.parametrize("tags", [[1], [0, 0, 0]])
    def test_write_rejects_a_reassigned_track(self, vocab, tags):
        sentences = [AnnotatedSentence(["x"], gold=[0]), AnnotatedSentence(["a", "b"], gold=[0, 0])]
        sentences[1].gold = tags
        with pytest.raises(ValueError, match=f"sentence 1: gold has {len(tags)} tags for 2 tokens"):
            write_conll(sentences, vocab)


class TestGazetteer:
    def test_parse(self):
        text = "Jack Lucas\tPER\nAmazon\tORG,LOC\n"
        gaz = Gazetteer.parse(text)
        assert gaz.entries[("Jack", "Lucas")] == ("PER",)
        assert gaz.entries[("Amazon",)] == ("ORG", "LOC")
        assert gaz.max_len == 2

    def test_malformed_line(self):
        with pytest.raises(ConllFormatError, match="line 1"):
            Gazetteer.parse("no-tab-here\n")

    def test_empty_gazetteer(self):
        assert Gazetteer.parse("").max_len == 0

    def test_empty_type_or_surface_names_line(self):
        with pytest.raises(ConllFormatError, match="line 1: empty entity type"):
            Gazetteer.parse("paris\tLOC,\n")
        with pytest.raises(ConllFormatError, match="line 2: empty entity type"):
            Gazetteer.parse("paris\tLOC\nrome\t, LOC\n")
        with pytest.raises(ConllFormatError, match="line 2: expected"):
            Gazetteer.parse("paris\tLOC\n \tLOC\n")


class TestDistantAnnotate:
    def test_ambiguous_surface_mislabels(self, vocab):
        # "Amazon" the river is tagged ORG because ORG is listed first.
        gaz = Gazetteer.parse("Amazon\tORG,LOC\n")
        tokens = "the Amazon river".split()
        tags = distant_annotate(tokens, gaz, vocab)
        assert tags == [0, vocab.b_code("ORG"), 0]

    def test_missing_entry_gives_incomplete(self, vocab):
        gaz = Gazetteer.parse("Paris\tLOC\n")
        tags = distant_annotate("Jack Lucas visited Paris".split(), gaz, vocab)
        assert tags == [0, 0, 0, vocab.b_code("LOC")]

    def test_longest_match_wins(self, vocab):
        gaz = Gazetteer.parse("New York\tLOC\nNew York City\tLOC\nYork\tORG\n")
        tags = distant_annotate("New York City".split(), gaz, vocab)
        assert tags == [vocab.b_code("LOC"), vocab.i_code("LOC"), vocab.i_code("LOC")]

    def test_case_sensitive(self, vocab):
        gaz = Gazetteer.parse("Amazon\tORG\n")
        assert distant_annotate(["amazon"], gaz, vocab) == [0]

    def test_zero_coverage_drops_and_consumes(self, vocab):
        gaz = Gazetteer.parse("New York\tLOC\nYork\tORG\n")
        tags = distant_annotate("New York".split(), gaz, vocab, coverage=0.0)
        # the dropped longest match consumes its tokens: no nested "York" hit
        assert tags == [0, 0]

    def test_random_rule_only_picks_listed_types(self, vocab):
        gaz = Gazetteer.parse("Amazon\tORG,LOC\n")
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(50):
            tags = distant_annotate(["Amazon"], gaz, vocab, ambiguity_rule="random", rng=rng)
            seen.add(vocab.type_of(tags[0]))
        assert seen == {"ORG", "LOC"}

    def test_bad_rule(self, vocab):
        with pytest.raises(ValueError):
            distant_annotate(["a"], Gazetteer.parse("a\tPER\n"), vocab, ambiguity_rule="last")

    def test_output_is_bio_valid(self, vocab):
        gaz = Gazetteer.parse("a b\tPER\nb\tLOC\n")
        rng = np.random.default_rng(3)
        tags = distant_annotate("a b b a b".split(), gaz, vocab, coverage=0.7, rng=rng)
        bio_spans(tags, vocab)

    @pytest.mark.parametrize("coverage", [1.5, -0.1, float("nan")])
    def test_coverage_out_of_range(self, vocab, coverage):
        with pytest.raises(ValueError, match="coverage must be in"):
            distant_annotate(["a"], Gazetteer.parse("a\tPER\n"), vocab, coverage=coverage)


def distant_annotate_loop(tokens, gaz, vocab, coverage, ambiguity_rule, rng):
    """distant_annotate as it was written, trying every position: the reference."""
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


TYPE_LISTS = st.lists(st.sampled_from(["PER", "LOC", "ORG"]), min_size=1, max_size=3, unique=True)


@st.composite
def gazetteer_corpora(draw):
    """A gazetteer and sentences pieced together from its surfaces and loose words."""
    words = st.sampled_from(["a", "b", "c", "d"]) | st.integers(0, 300).map(str)
    surfaces = draw(st.lists(st.lists(words, min_size=1, max_size=6).map(tuple), max_size=8))
    entries = {surface: tuple(draw(TYPE_LISTS)) for surface in surfaces}
    piece = words.map(lambda w: (w,))
    if surfaces:
        piece = piece | st.sampled_from(surfaces) | st.sampled_from(surfaces).map(lambda s: s[:-1])
    sentences = st.lists(st.lists(piece, max_size=5).map(lambda ps: [t for p in ps for t in p]))
    return entries, draw(sentences.filter(lambda c: len(c) <= 8))


def _wide_gazetteer():
    """300 distinct words in surfaces of up to 8 tokens: a key of base 300 would overflow int64."""
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(300)]
    entries = {}
    for _ in range(400):
        surface = tuple(rng.choice(words, size=int(rng.integers(1, 9))).tolist())
        entries[surface] = tuple(rng.permutation(["PER", "LOC", "ORG"])[: rng.integers(1, 4)].tolist())
    surfaces = list(entries)
    corpus = []
    for _ in range(60):
        sentence = []
        for _ in range(int(rng.integers(0, 5))):
            surface = surfaces[int(rng.integers(len(surfaces)))]
            sentence += surface[: int(rng.integers(1, len(surface) + 1))]
        corpus.append(sentence)
    return entries, corpus


WIDE = _wide_gazetteer()


class TestDistantAnnotateLoop:
    words = st.sampled_from(["a", "b", "c", "d"])

    @given(
        st.dictionaries(
            st.lists(words, min_size=1, max_size=3).map(tuple),
            st.lists(st.sampled_from(["PER", "LOC", "ORG"]), min_size=1, max_size=3, unique=True),
            max_size=6,
        ),
        st.lists(st.lists(words, max_size=8), max_size=5),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from(["first", "random"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=400)
    def test_equals_every_position_loop(self, entries, corpus, coverage, rule, seed):
        """Equal tags and the same draws, one generator across the sentences."""
        gaz = Gazetteer({surface: tuple(types) for surface, types in entries.items()})
        vocab = TagVocabulary(["PER", "LOC", "ORG"])
        rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for tokens in corpus:
            expected = distant_annotate_loop(tokens, gaz, vocab, coverage, rule, expected_rng)
            got = distant_annotate(tokens, gaz, vocab, coverage, ambiguity_rule=rule, rng=rng)
            assert got == expected
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    @given(
        gazetteer_corpora(),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from(["first", "random"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=400)
    @example(({("a", "b"): ("PER",)}, [["a"], ["b", "a"], ["b"]]), 1.0, "first", 0)  # across ends
    @example(({("a", "b"): ("PER", "LOC")}, [["a"], ["b", "a", "b"]]), 0.0, "random", 0)
    @example(({}, [["a", "b"], []]), 1.0, "random", 0)
    @example(({("a", "b"): ("PER",), ("b", "c", "d"): ("LOC",), ("c",): ("ORG",)}, [["a", "b", "c", "d"]]),
             1.0, "first", 0)  # "c" starts inside a match left untaken, where a taken one ends
    @example(WIDE, 1.0, "random", 1)
    @example(WIDE, 0.0, "first", 1)
    def test_flat_pass_equals_sentence_loop(self, gazetteer_corpus, coverage, rule, seed):
        """One pass over the corpus tags it as the loop does sentence by sentence on one
        generator, and leaves the generator in the same state."""
        entries, corpus = gazetteer_corpus
        gaz = Gazetteer(entries)
        vocab = TagVocabulary(["PER", "LOC", "ORG"])
        rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [
            c for tokens in corpus
            for c in distant_annotate_loop(tokens, gaz, vocab, coverage, rule, expected_rng)
        ]
        tokens = [t for sentence in corpus for t in sentence]
        offsets = np.cumsum([0] + [len(sentence) for sentence in corpus])
        got = annotate_corpus(tokens, offsets, gaz, vocab, coverage, rule, rng)
        assert got.dtype == np.int64 and got.tolist() == expected
        assert rng.bit_generator.state == expected_rng.bit_generator.state


def inject_noise_loop(sentences, k_percent, vocab, seed=0):
    """inject_noise as it was written sentence by sentence: the reference."""
    rng = np.random.default_rng(seed)
    mentions = []
    for idx, sentence in enumerate(sentences):
        for span in spans_from_bio(sentence.track("gold"), vocab):
            mentions.append((idx, span))
    n_alter = round(k_percent / 100 * len(mentions))
    out = [
        AnnotatedSentence(
            list(s.tokens),
            gold=list(s.track("gold")),
            noisy_i=list(s.track("gold")),
            noisy_ii=list(s.track("gold")),
        )
        for s in sentences
    ]
    if n_alter == 0:
        return out, []
    chosen = sorted(rng.choice(len(mentions), size=n_alter, replace=False).tolist())
    log = []
    others = {t: [u for u in vocab.entity_types if u != t] for t in vocab.entity_types}
    for m in chosen:
        idx, span = mentions[m]
        retype = rng.random() < 0.5
        if retype and others[span.entity_type]:
            pool = others[span.entity_type]
            new_type = pool[int(rng.integers(len(pool)))]
            new_tags = [vocab.b_code(new_type)] + [vocab.i_code(new_type)] * (
                span.end - span.start
            )
            new_label = new_type
        else:
            new_tags = [0] * (span.end - span.start + 1)
            new_label = "O"
        for track in ("noisy_i", "noisy_ii"):
            tags = out[idx].track(track)
            tags[span.start : span.end + 1] = new_tags
        log.append(Alteration(idx, span.start, span.end, span.entity_type, new_label))
    for sentence in out:
        bio_spans(sentence.noisy_i, vocab)
    return out, log


class TestInjectNoise:
    def _mention_count(self, sentences, vocab):
        return sum(len(spans_from_bio(s.gold, vocab)) for s in sentences)

    def test_zero_percent_noop(self, vocab):
        sentences = make_synthetic_corpus(10, vocab, seed=0)
        noisy, log = inject_noise(sentences, 0, vocab)
        assert log == []
        assert all(s.noisy_i == s.gold for s in noisy)

    def test_alteration_count(self, vocab):
        sentences = make_synthetic_corpus(50, vocab, seed=1)
        total = self._mention_count(sentences, vocab)
        noisy, log = inject_noise(sentences, 40, vocab, seed=0)
        assert len(log) == round(0.4 * total)

    def test_log_matches_diff(self, vocab):
        sentences = make_synthetic_corpus(50, vocab, seed=2)
        noisy, log = inject_noise(sentences, 60, vocab, seed=5)
        altered = {(a.sent_idx, a.start, a.end) for a in log}
        for a in log:
            tags = noisy[a.sent_idx].noisy_i
            segment = tags[a.start : a.end + 1]
            if a.new_label == "O":
                assert segment == [0] * len(segment)
            else:
                assert a.new_label != a.old_type
                expected = [vocab.b_code(a.new_label)] + [vocab.i_code(a.new_label)] * (
                    a.end - a.start
                )
                assert segment == expected
        # everything outside logged mentions is untouched
        for idx, (orig, new) in enumerate(zip(sentences, noisy)):
            for j, (g, n) in enumerate(zip(orig.gold, new.noisy_i)):
                if not any(
                    s <= j <= e for (i, s, e) in altered if i == idx
                ):
                    assert g == n

    def test_tracks_equal_and_valid(self, vocab):
        sentences = make_synthetic_corpus(30, vocab, seed=3)
        noisy, _ = inject_noise(sentences, 100, vocab, seed=1)
        for s in noisy:
            assert s.noisy_i == s.noisy_ii
            bio_spans(s.noisy_i, vocab)
            bio_spans(s.noisy_ii, vocab)

    def test_gold_untouched(self, vocab):
        sentences = make_synthetic_corpus(20, vocab, seed=4)
        noisy, _ = inject_noise(sentences, 100, vocab, seed=1)
        assert [s.gold for s in noisy] == [s.gold for s in sentences]

    def test_deterministic(self, vocab):
        sentences = make_synthetic_corpus(20, vocab, seed=5)
        a, log_a = inject_noise(sentences, 50, vocab, seed=9)
        b, log_b = inject_noise(sentences, 50, vocab, seed=9)
        assert log_a == log_b
        assert [s.noisy_i for s in a] == [s.noisy_i for s in b]

    def test_out_of_range_k(self, vocab):
        with pytest.raises(ValueError):
            inject_noise([], 101, vocab)

    def test_warns_without_mentions(self, vocab):
        plain = [AnnotatedSentence(["a"], gold=[0])]
        with pytest.warns(UserWarning):
            inject_noise(plain, 50, vocab)

    @given(
        st.lists(st.lists(st.integers(0, 8), max_size=7), max_size=10),
        st.floats(0, 100),
        st.integers(0, 2**32 - 1),
        st.sampled_from([("PER", "LOC", "ORG", "MISC"), ("PER",)]),
    )
    @settings(max_examples=300)
    def test_flat_pass_equals_sentence_loop(self, raw, k, seed, types):
        vocab = TagVocabulary(types)
        sentences = [
            AnnotatedSentence([f"w{j}" for j in range(len(r))], gold=repair_bio(
                [c % vocab.size for c in r], vocab).tolist())
            for r in raw
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            noisy, log = inject_noise(sentences, k, vocab, seed=seed)
            expected, expected_log = inject_noise_loop(sentences, k, vocab, seed=seed)
        assert noisy == expected
        assert log == expected_log
        assert format_alteration_log(log) == format_alteration_log(expected_log)
        assert all(s.noisy_i is not s.noisy_ii for s in noisy)

    def test_log_format(self, vocab):
        sentences = make_synthetic_corpus(10, vocab, seed=6)
        _, log = inject_noise(sentences, 100, vocab, seed=2)
        lines = format_alteration_log(log).splitlines()
        assert len(lines) == len(log)
        for line, a in zip(lines, log):
            assert line == f"{a.sent_idx}\t{a.start}\t{a.end}\t{a.old_type}\t{a.new_label}"


class TestFlatten:
    @given(
        st.lists(
            st.integers(0, 4).flatmap(
                lambda n: st.tuples(
                    st.lists(st.sampled_from(["a", "b", "é"]), min_size=n, max_size=n),
                    st.lists(st.integers(0, 4), min_size=n, max_size=n),
                    st.none() | st.lists(st.integers(0, 4), min_size=n, max_size=n),
                )
            ),
            max_size=5,
        )
    )
    def test_unflatten_inverts_flatten(self, rows):
        """Each track all sentences carry comes back, in sentences that own their lists."""
        sentences = [AnnotatedSentence(t, gold=g, noisy_i=n) for t, g, n in rows]
        tokens, offsets, tracks = flatten(sentences)
        assert offsets.dtype == np.int64 and all(tags.dtype == np.int64 for tags in tracks.values())
        carried = [n for n in AnnotatedSentence.TRACKS if all(getattr(s, n) is not None for s in sentences)]
        assert list(tracks) == carried
        rebuilt = unflatten(tokens, offsets, tracks)
        assert rebuilt == [AnnotatedSentence(s.tokens, **{n: getattr(s, n) for n in carried}) for s in sentences]
        for old, new in zip(sentences, rebuilt):
            assert new.tokens is not old.tokens and new.gold is not old.gold

    def test_inject_noise_rejects_a_reassigned_track(self, vocab):
        sentences = [AnnotatedSentence(["x"], gold=[0]), AnnotatedSentence(["a", "b"], gold=[1, 2])]
        sentences[1].gold = [1, 2, 0]
        with pytest.raises(ValueError, match="sentence 1: gold has 3 tags for 2 tokens"):
            inject_noise(sentences, 50, vocab)


class TestAnnotatedSentence:
    def test_track_access(self, vocab):
        s = AnnotatedSentence(["a"], gold=[0])
        assert s.track("gold") == [0]
        with pytest.raises(ValueError):
            s.track("noisy_i")
        with pytest.raises(ValueError):
            s.track("bogus")

    @pytest.mark.parametrize("track", AnnotatedSentence.TRACKS)
    @pytest.mark.parametrize("tags", [[0], [0, 0, 0]])
    def test_track_length_checked_at_construction(self, track, tags):
        """A track shorter than its tokens would make write_conll drop tokens."""
        with pytest.raises(ValueError, match=f"{track} has {len(tags)} tags for 2 tokens"):
            AnnotatedSentence(["a", "b"], **{track: tags})
