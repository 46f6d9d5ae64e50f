import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsalign.core import (
    EmptyTranscript,
    Segment,
    Span,
    TokenSequence,
    ValidationError,
    Vocabulary,
    at_line,
    data_lines,
    detokenize,
    tab_fields,
    tokenize,
    validate_recording_segments,
)
from lsalign.scorer import ProtocolError


def test_tokenize_char_mode():
    seq, vocab = tokenize("abc", "char")
    assert [vocab.token_of(i) for i in seq.ids] == ["a", "b", "c"]


def test_tokenize_whitespace_mode():
    seq, vocab = tokenize("my cat", "whitespace")
    assert [vocab.token_of(i) for i in seq.ids] == ["my", "cat"]


def test_tokenize_char_mode_drops_whitespace():
    seq, vocab = tokenize("a b", "char")
    assert [vocab.token_of(i) for i in seq.ids] == ["a", "b"]


def test_tokenize_keeps_punctuation():
    seq, vocab = tokenize("a,b.", "char")
    assert [vocab.token_of(i) for i in seq.ids] == ["a", ",", "b", "."]


def test_tokenize_empty_raises():
    with pytest.raises(EmptyTranscript):
        tokenize("   \n\t ", "char")
    with pytest.raises(EmptyTranscript):
        tokenize("", "whitespace")


def test_tokenize_nfc_normalizes_composition():
    composed = "é"  # é
    decomposed = "é"
    s1, v1 = tokenize(composed, "char")
    s2, v2 = tokenize(decomposed, "char")
    assert detokenize(s1.ids, v1) == detokenize(s2.ids, v2) == composed


def test_tokenize_fixed_vocab_rejects_unknown():
    vocab = Vocabulary(("a", "b"))
    with pytest.raises(ValidationError):
        tokenize("abc", "char", vocab, extend=False)


def test_tokenize_extends_existing_vocab_stably():
    seq1, vocab = tokenize("ab", "char")
    seq2, vocab2 = tokenize("ba c", "char", vocab)
    assert vocab2.tokens[:2] == vocab.tokens
    assert seq2.ids[:2] == (seq1.ids[1], seq1.ids[0])


@given(st.text(min_size=1, max_size=40))
def test_char_roundtrip_matches_nfc_without_whitespace(text):
    expected = "".join(
        ch for ch in unicodedata.normalize("NFC", text) if not ch.isspace()
    )
    if not expected:
        with pytest.raises(EmptyTranscript):
            tokenize(text, "char")
        return
    seq, vocab = tokenize(text, "char")
    assert detokenize(seq.ids, vocab, "char") == expected


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=100))
def test_span_token_count(l_s, extra):
    span = Span(l_s, l_s + extra)
    assert len(span) == extra + 1 >= 1


def test_span_rejects_inverted():
    with pytest.raises(ValidationError):
        Span(3, 2)
    with pytest.raises(ValidationError):
        Span(0, 1)


def test_vocabulary_bijection_and_eos():
    vocab = Vocabulary(("x", "y", "z"))
    for i, tok in enumerate(vocab.tokens):
        assert vocab.ids_of([tok]) == (i,)
        assert vocab.token_of(i) == tok
    assert "x" in vocab and "w" not in vocab


def test_vocabulary_rejects_duplicates_and_empty():
    with pytest.raises(ValidationError):
        Vocabulary(("a", "a"))
    with pytest.raises(ValidationError):
        Vocabulary(("a", ""))


def test_token_sequence_positions_are_one_based():
    seq = TokenSequence((5, 6, 7))
    assert seq.token_id_at(1) == 5
    assert seq.token_id_at(3) == 7
    assert seq.slice_ids(2, 3) == (6, 7)
    with pytest.raises(ValidationError):
        seq.token_id_at(0)
    with pytest.raises(ValidationError):
        seq.token_id_at(4)


def test_token_sequence_must_be_nonempty():
    with pytest.raises(ValidationError):
        TokenSequence(())


def test_segment_validation():
    with pytest.raises(ValidationError):
        Segment(2.0, 2.0, "s", "r")
    with pytest.raises(ValidationError):
        Segment(-0.1, 1.0, "s", "r")
    assert Segment(0.5, 2.0, "s", "r").duration_sec == 1.5


def test_recording_segments_sorted_and_checked():
    a = Segment(0.0, 1.0, "a", "r")
    b = Segment(1.2, 2.0, "b", "r")
    assert validate_recording_segments([b, a]) == [a, b]
    with pytest.raises(ValidationError):
        validate_recording_segments([a, Segment(0.5, 1.5, "c", "r")])
    with pytest.raises(ValidationError):
        validate_recording_segments([a, Segment(2.0, 3.0, "a", "r")])
    with pytest.raises(ValidationError):
        validate_recording_segments([a, Segment(2.0, 3.0, "d", "other")])


def test_data_lines_skip_blank_and_comment_lines_and_keep_line_numbers(tmp_path):
    path = tmp_path / "input.tsv"
    path.write_text("a\tb\n\n   \n# note\n  # indented note\n\tc\n", encoding="utf-8")
    assert list(data_lines(path)) == [(1, "a\tb"), (6, "\tc")]


def test_tab_fields_counts_fields():
    assert tab_fields("a\t\tc", 3) == ["a", "", "c"]
    with pytest.raises(ValueError, match="^expected 2 tab-separated fields, got 3$"):
        tab_fields("a\tb\tc", 2)


def test_at_line_prefixes_the_error_and_keeps_package_classes():
    with pytest.raises(ValidationError, match="^f.tsv:3: bad$"):
        with at_line("f.tsv", 3):
            raise ValueError("bad")
    with pytest.raises(ProtocolError, match="^f.tsv:3: bad$"):
        with at_line("f.tsv", 3, ProtocolError):
            raise ValueError("bad")
    with pytest.raises(EmptyTranscript, match="^f.tsv:4: empty$"):
        with at_line("f.tsv", 4, ProtocolError):
            raise EmptyTranscript("empty")
    with pytest.raises(KeyError):  # anything else is not a bad value: it passes unchanged
        with at_line("f.tsv", 5):
            raise KeyError("k")
