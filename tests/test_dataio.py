import json

import pytest

from lsalign.aligner import (
    AlignedPair,
    AlignerConfig,
    AlignmentResult,
    CandidateResult,
    RejectedSegment,
)
from lsalign.core import Segment, Span, TokenSequence, ValidationError
from lsalign.corpus import Recording, SimConfig
from lsalign.dataio import (
    load_corpus,
    parse_alignment_output,
    parse_segments_file,
    parse_transcripts_file,
    parse_truth_file,
    save_corpus,
    write_alignment_output,
    write_truth_file,
)
from lsalign.simulator import generate_corpus


def test_parse_segments_basic(tmp_path):
    path = tmp_path / "segments.tsv"
    path.write_text("s1\trecA\t0.0\t2.5\ns2\trecA\t2.6\t3.0\n", encoding="utf-8")
    parsed = parse_segments_file(path)
    assert list(parsed) == ["recA"]
    seg = parsed["recA"][0]
    assert (seg.segment_id, seg.recording_id, seg.start_sec, seg.end_sec) == ("s1", "recA", 0.0, 2.5)


def test_parse_segments_sorts_within_recording(tmp_path):
    path = tmp_path / "segments.tsv"
    path.write_text("s2\trecA\t2.6\t3.0\ns1\trecA\t0.0\t2.5\n", encoding="utf-8")
    parsed = parse_segments_file(path)
    assert [s.segment_id for s in parsed["recA"]] == ["s1", "s2"]


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("s1\trecA\t0.0\n", ":1"),  # missing column
        ("s1\trecA\tzero\t1.0\n", ":1"),  # bad float
        ("s1\trecA\t2.0\t1.0\n", "exceed"),  # end <= start
        ("s1\trecA\t0.0\t2.0\ns2\trecA\t1.5\t3.0\n", "overlap"),
        ("s1\trecA\t0.0\t1.0\ns1\trecA\t2.0\t3.0\n", "duplicate"),
    ],
)
def test_parse_segments_errors(tmp_path, body, fragment):
    path = tmp_path / "segments.tsv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ValidationError, match=fragment):
        parse_segments_file(path)


def test_parse_segments_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "segments.tsv"
    path.write_text("# id\trecording\tstart\tend\n\ns1\trecA\t0.0\t1.0\n  \n  # next\ns2\trecA\tx\t2.0\n")
    with pytest.raises(ValidationError, match=r"segments.tsv:6: could not convert string to float: 'x'$"):
        parse_segments_file(path)
    path.write_text("# id\trecording\tstart\tend\n\ns1\trecA\t0.0\t1.0\n  \n  # next\n")
    assert [s.segment_id for s in parse_segments_file(path)["recA"]] == ["s1"]


def test_parse_segments_rejects_empty_file(tmp_path):
    path = tmp_path / "segments.tsv"
    path.write_text("# just a comment\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="no segments"):
        parse_segments_file(path)


def test_transcripts_roundtrip(tmp_path):
    path = tmp_path / "transcripts.tsv"
    path.write_text("recA\thello world\nrecB\tfoo\n", encoding="utf-8")
    assert parse_transcripts_file(path) == {"recA": "hello world", "recB": "foo"}
    bad = tmp_path / "bad.tsv"
    bad.write_text("recA hello\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        parse_transcripts_file(bad)


def test_transcripts_skip_blank_and_comment_lines(tmp_path):
    path = tmp_path / "transcripts.tsv"
    path.write_text("# recording\ttext\n\nrecA\ta b\n \t \n# recB\tnot read\nrecA\tagain\n")
    with pytest.raises(ValidationError, match=r"transcripts.tsv:6: duplicate recording 'recA'$"):
        parse_transcripts_file(path)
    path.write_text("# recording\ttext\n\nrecA\ta b\n \t \n# recB\tnot read\n")
    assert parse_transcripts_file(path) == {"recA": "a b"}


def test_truth_roundtrip(tmp_path):
    segments = (Segment(0.0, 1.0, "s1", "recA"), Segment(1.5, 2.0, "f1", "recA"))
    path = tmp_path / "truth.json"
    write_truth_file(path, [Recording("recA", segments, TokenSequence((0, 1, 2)), (Span(1, 3), None))])
    assert parse_truth_file(path) == {"recA": {"s1": Span(1, 3), "f1": None}}


def test_corpus_roundtrip(tmp_path):
    corpus = generate_corpus(SimConfig(n_recordings=3, filler_segment_prob=0.25, seed=31))
    out = save_corpus(corpus, tmp_path / "corpus")
    reloaded = load_corpus(out)
    assert reloaded == corpus


def test_load_corpus_takes_only_whitespace_tokenized_corpora(tmp_path):
    """align --corpus reports and joins text in whitespace mode, so a corpus
    naming another mode would read unlike its files given as flags."""
    out = save_corpus(generate_corpus(SimConfig(n_recordings=1, seed=1)), tmp_path / "corpus")
    meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
    meta["tokenize_mode"] = "char"
    (out / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(ValidationError, match="meta.json: tokenize_mode must be 'whitespace', got 'char'$"):
        load_corpus(out)


def test_corpus_files_deterministic(tmp_path):
    corpus = generate_corpus(SimConfig(n_recordings=2, seed=5))
    a = save_corpus(corpus, tmp_path / "a")
    b = save_corpus(corpus, tmp_path / "b")
    for name in ("segments.tsv", "transcripts.tsv", "ground_truth.json", "meta.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _result():
    accepted = (
        AlignedPair("s1", Span(2, 4), 0.85, "my cat has"),
        AlignedPair("s2", Span(5, 6), 0.9125, "no more"),
    )
    rejected = (
        RejectedSegment(
            "s3",
            (CandidateResult(7, 8, 7, True, (0.2, 0.1), 0.15000000000000002),),
            "below-threshold",
        ),
        RejectedSegment("s4", (), "transcript-exhausted"),
    )
    return AlignmentResult("recA", accepted, rejected, (9,), ("line1", "line2"))


def test_write_alignment_output_format(tmp_path):
    out = write_alignment_output([_result()], tmp_path / "run", AlignerConfig())
    lines = (out / "aligned.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "segment_id\tl_s\tl_e\tconfidence\ttext"
    assert lines[1] == "s1\t2\t4\t0.8500\tmy cat has"
    assert lines[2] == "s2\t5\t6\t0.9125\tno more"
    rejected = (out / "rejected.tsv").read_text(encoding="utf-8").splitlines()
    assert rejected[1].startswith("s3\tbelow-threshold\t7\t8\t7\t1\t")
    assert rejected[2] == "s4\ttranscript-exhausted\t\t\t\t\t\t"


def test_write_alignment_output_empty_result(tmp_path):
    empty = AlignmentResult("recA", (), (), (1,), ())
    out = write_alignment_output([empty], tmp_path / "run", AlignerConfig())
    assert (out / "aligned.tsv").read_text(encoding="utf-8") == "segment_id\tl_s\tl_e\tconfidence\ttext\n"
    report = (out / "report.json").read_text(encoding="utf-8")
    assert '"accepted": 0' in report
    assert report.endswith("\n")


def test_write_alignment_output_deterministic(tmp_path):
    results = [_result()]
    a = write_alignment_output(results, tmp_path / "a", AlignerConfig())
    b = write_alignment_output(results, tmp_path / "b", AlignerConfig())
    for name in ("aligned.tsv", "rejected.tsv", "report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_alignment_output_roundtrip(tmp_path):
    result = _result()
    out = write_alignment_output([result], tmp_path / "run", AlignerConfig())
    segments = tuple(Segment(float(i), i + 0.5, sid, "recA") for i, sid in enumerate(("s1", "s2", "s3", "s4")))
    recording = Recording("recA", segments, TokenSequence(tuple(range(9))), None)
    # confidences fit in 4 decimals here; repr floats round-trip exactly
    read = AlignmentResult("recA", result.accepted, result.rejected, (), ())
    assert parse_alignment_output(out, [recording]) == [read]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["recordings"]["recA"]["final_queue"] == [9]
