"""File formats: segments TSV, transcripts TSV, ground-truth JSON, corpus
directories, and alignment outputs.

`load_inputs` reads and cross-checks a run's inputs, given as explicit
files or as a corpus directory (`load_corpus`), into `Recording`s.
Line-based files skip blank and ``#`` lines and report a bad line as
``PATH:LINE: reason``.

All writers emit deterministic bytes: stable ordering, fixed float
formatting, trailing newline, UTF-8.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .aligner import (
    AlignedPair, AlignerConfig, AlignmentResult, CandidateResult, RejectedSegment, structure_error,
)
from .core import (
    TOKENIZE_MODES,
    Segment,
    Span,
    TokenSequence,
    ValidationError,
    Vocabulary,
    at_line,
    data_lines,
    read_text,
    tab_fields,
    tokenize,
    validate_recording_segments,
    write_text,
    writing,
)
from .corpus import Recording, SimConfig, SimCorpus
from .metrics import EvalReport

SEGMENTS_FILE = "segments.tsv"
TRANSCRIPTS_FILE = "transcripts.tsv"
TRUTH_FILE = "ground_truth.json"
META_FILE = "meta.json"
ALIGNED_FILE = "aligned.tsv"
REJECTED_FILE = "rejected.tsv"
REPORT_FILE = "report.json"

ALIGNED_HEADER = "segment_id\tl_s\tl_e\tconfidence\ttext"
REJECTED_HEADER = "segment_id\treason\tl_start\tl_e\tl_s\tcapped\tconfidence\tbackward_posteriors"


# -- JSON inputs ------------------------------------------------------------


def read_json(path: str | Path) -> dict:
    """The JSON object in an input file; text that is not JSON, or JSON
    that is not an object, raises ValidationError naming the file."""
    try:
        obj = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return obj


def json_layout_error(path: str | Path, exc: Exception) -> ValidationError:
    """The error for a JSON input lacking a key or holding a value of the
    wrong type (the KeyError or TypeError ``exc`` its reader raised)."""
    detail = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)
    return ValidationError(f"{path}: {detail}")


# -- segments ---------------------------------------------------------------


def parse_segments_file(path: str | Path) -> dict[str, list[Segment]]:
    """Parse a segments TSV (segment_id, recording_id, start_sec, end_sec)
    into per-recording lists, sorted and validated. A segment id names one
    segment of one recording: run outputs and the oracle key by it alone."""
    raw: dict[str, list[Segment]] = {}
    owners: dict[str, str] = {}
    for lineno, line in data_lines(path):
        with at_line(path, lineno):
            segment_id, recording_id, start, end = tab_fields(line, 4)
            if not segment_id or not recording_id:
                raise ValueError("empty id field")
            owner = owners.setdefault(segment_id, recording_id)
            if owner != recording_id:
                raise ValueError(f"segment id {segment_id!r} is already used by recording {owner!r}")
            seg = Segment(float(start), float(end), segment_id, recording_id)
        raw.setdefault(recording_id, []).append(seg)
    if not raw:
        raise ValidationError(f"{path}: no segments found")
    out: dict[str, list[Segment]] = {}
    for recording_id in sorted(raw):
        out[recording_id] = validate_recording_segments(raw[recording_id])
    return out


def write_segments_file(path: str | Path, recordings: Sequence[Recording]) -> None:
    lines = [
        f"{seg.segment_id}\t{seg.recording_id}\t{seg.start_sec:.3f}\t{seg.end_sec:.3f}"
        for rec in recordings
        for seg in rec.segments
    ]
    write_text(path, "\n".join(lines) + "\n")


# -- transcripts -------------------------------------------------------------


def parse_transcripts_file(path: str | Path) -> dict[str, str]:
    """recording_id<TAB>text, one recording per line."""
    out: dict[str, str] = {}
    for lineno, line in data_lines(path):
        with at_line(path, lineno):
            recording_id, sep, text = line.partition("\t")
            if not sep or not recording_id:
                raise ValueError("expected recording_id<TAB>text")
            if recording_id in out:
                raise ValueError(f"duplicate recording {recording_id!r}")
        out[recording_id] = text
    return out


def write_transcripts_file(path: str | Path, transcripts: Mapping[str, str]) -> None:
    lines = [f"{rid}\t{transcripts[rid]}" for rid in sorted(transcripts)]
    write_text(path, "\n".join(lines) + "\n")


# -- ground truth -------------------------------------------------------------


def write_truth_file(path: str | Path, recordings: Sequence[Recording]) -> None:
    payload = {
        "recordings": {
            rec.recording_id: [
                {"segment_id": seg.segment_id, "kind": "filler"}
                if span is None
                else {"segment_id": seg.segment_id, "kind": "utterance", "l_s": span.l_s, "l_e": span.l_e}
                for seg, span in zip(rec.segments, rec.truth)
            ]
            for rec in recordings
        }
    }
    write_text(path, json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n")


def parse_truth_file(path: str | Path) -> dict[str, dict[str, Span | None]]:
    payload = read_json(path)
    out: dict[str, dict[str, Span | None]] = {}
    try:
        for rid, entries in payload["recordings"].items():
            rec: dict[str, Span | None] = {}
            for entry in entries:
                sid = entry["segment_id"]
                if entry["kind"] == "filler":
                    rec[sid] = None
                    continue
                l_s, l_e = entry["l_s"], entry["l_e"]
                if type(l_s) is not int or type(l_e) is not int:  # a bool is no bound either
                    raise ValidationError(
                        f"{path}: segment {sid}: span bounds must be integers, got [{l_s!r}, {l_e!r}]"
                    )
                try:
                    rec[sid] = Span(l_s, l_e)
                except ValidationError as exc:
                    raise ValidationError(f"{path}: segment {sid}: {exc}") from None
            out[rid] = rec
    except (AttributeError, KeyError, TypeError) as exc:
        raise json_layout_error(path, exc) from None
    return out


# -- a run's inputs -------------------------------------------------------------


def read_meta(path: str | Path) -> tuple[dict, Vocabulary, str | None]:
    """A meta.json: its object, the vocabulary it fixes, and the tokenize
    mode it names (None when it names none)."""
    meta = read_json(path)
    try:
        tokens = meta["vocab"]
    except KeyError as exc:
        raise json_layout_error(path, exc) from None
    if not isinstance(tokens, list) or not all(isinstance(token, str) for token in tokens):
        raise ValidationError(f"{path}: vocab must be a list of strings")
    mode = meta.get("tokenize_mode")
    if mode is not None and mode not in TOKENIZE_MODES:
        modes = " or ".join(map(repr, TOKENIZE_MODES))
        raise ValidationError(f"{path}: tokenize_mode must be {modes}, got {mode!r}")
    try:
        return meta, Vocabulary(tuple(tokens)), mode
    except ValidationError as exc:  # an empty or repeated token
        raise ValidationError(f"{path}: {exc}") from None


def load_inputs(
    segments_path: str | Path,
    transcripts_path: str | Path,
    vocab: Vocabulary | None,
    truth_path: str | Path | None,
    mode: str,
    strip: str = "",
) -> tuple[tuple[Recording, ...], Vocabulary]:
    """The run's recordings, ordered by id, and its vocabulary.

    Transcripts lose the ``strip`` characters and are tokenized with
    ``vocab`` fixed, or, when it is None, into a vocabulary grown in
    recording order. Each recording of the segments file needs a
    transcript, and a truth naming exactly its segments; transcripts and
    truth of other recordings are ignored. Without ``truth_path`` every
    recording's truth is None.
    """
    segments = parse_segments_file(segments_path)
    transcripts = parse_transcripts_file(transcripts_path)
    missing = sorted(set(segments) - set(transcripts))
    if missing:
        raise ValidationError(f"{transcripts_path}: no transcript for recordings: {', '.join(missing)}")
    drop = set(strip)
    sequences: dict[str, TokenSequence] = {}
    current = vocab if vocab is not None else Vocabulary(())
    for rid in segments:
        text = "".join(ch for ch in transcripts[rid] if ch not in drop) if drop else transcripts[rid]
        try:
            sequences[rid], current = tokenize(text, mode, current, extend=vocab is None)
        except ValidationError as exc:
            raise type(exc)(f"{transcripts_path}: recording {rid}: {exc}") from None
    if not truth_path:
        return tuple(Recording(rid, tuple(segs), sequences[rid], None) for rid, segs in segments.items()), current
    truth = parse_truth_file(truth_path)
    missing = sorted(set(segments) - set(truth))
    if missing:
        raise ValidationError(f"{truth_path}: no ground truth for recordings: {', '.join(missing)}")
    recordings = []
    for rid, segs in segments.items():
        ids = {seg.segment_id for seg in segs}
        if ids != truth[rid].keys():
            lacking, unknown = sorted(ids - truth[rid].keys()), sorted(truth[rid].keys() - ids)
            raise ValidationError(
                f"{truth_path}: recording {rid}: no truth for {lacking}, unknown segments {unknown}"
            )
        length = len(sequences[rid])
        for sid, span in truth[rid].items():
            if span is not None and span.l_e > length:
                raise ValidationError(
                    f"{truth_path}: segment {sid}: span [{span.l_s}, {span.l_e}] "
                    f"runs past the {length}-token transcript of recording {rid}"
                )
        spans = tuple(truth[rid][seg.segment_id] for seg in segs)
        recordings.append(Recording(rid, tuple(segs), sequences[rid], spans))
    return tuple(recordings), current


# -- corpus directories --------------------------------------------------------


def save_corpus(corpus: SimCorpus, out_dir: str | Path) -> Path:
    """Write a simulated corpus as the same files the CLI ingests."""
    out = Path(out_dir)
    with writing(out):
        out.mkdir(parents=True, exist_ok=True)
    write_segments_file(out / SEGMENTS_FILE, corpus.recordings)
    transcripts = {
        r.recording_id: " ".join(corpus.vocab.token_of(i) for i in r.transcript.ids)
        for r in corpus.recordings
    }
    write_transcripts_file(out / TRANSCRIPTS_FILE, transcripts)
    write_truth_file(out / TRUTH_FILE, corpus.recordings)
    meta = {
        "format": "lsalign-corpus",
        "version": 1,
        "tokenize_mode": "whitespace",
        "vocab": list(corpus.vocab.tokens),
        "sim_config": {name: getattr(corpus.config, name) for name in SimConfig.__slots__},
    }
    write_text(out / META_FILE, json.dumps(meta, ensure_ascii=False, indent=2, sort_keys=True) + "\n")
    return out


def load_corpus(corpus_dir: str | Path) -> SimCorpus:
    """Reload a corpus directory: `load_inputs` reads its files with meta.json's vocabulary."""
    corpus_dir = Path(corpus_dir)
    meta_path = corpus_dir / META_FILE
    meta, vocab, mode = read_meta(meta_path)
    if meta.get("format") != "lsalign-corpus":
        raise ValidationError(f"{corpus_dir}: not a corpus directory")
    try:
        cfg = dict(meta["sim_config"])
        for key in ("tokens_per_utterance", "utterances_per_recording"):
            cfg[key] = tuple(cfg[key])
        config = SimConfig(**cfg)
    except (KeyError, TypeError) as exc:
        raise json_layout_error(meta_path, exc) from None
    if mode != "whitespace":  # as save_corpus writes it, and as the CLI reports a corpus run
        raise ValidationError(f"{meta_path}: tokenize_mode must be 'whitespace', got {mode!r}")
    recordings, vocab = load_inputs(
        corpus_dir / SEGMENTS_FILE, corpus_dir / TRANSCRIPTS_FILE, vocab, corpus_dir / TRUTH_FILE, mode
    )
    return SimCorpus(config, vocab, recordings)


# -- alignment outputs -----------------------------------------------------------


def aligner_config_dict(config: AlignerConfig) -> dict:
    return {
        "theta": config.theta,
        "max_token_rate": config.max_token_rate,
        "eos_rule": config.eos_rule.name,
        "p_eos_min": config.eos_rule.p_eos_min,
        "queue_cap": config.queue_cap,
    }


def trace_digest(result: AlignmentResult) -> str:
    blob = "\n".join(result.trace).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def write_alignment_output(
    results: Sequence[AlignmentResult],
    out_dir: str | Path,
    config: AlignerConfig,
    *,
    tokenize_mode: str = "char",
    report: EvalReport | None = None,
) -> Path:
    """Write aligned.tsv, rejected.tsv and report.json for one run.

    Recordings keep the order of ``results`` (that of `load_inputs`: by
    id) and segments the engine's decision order, so repeated runs on
    identical inputs are byte-identical.
    """
    out = Path(out_dir)
    with writing(out):
        out.mkdir(parents=True, exist_ok=True)

    aligned_lines = [ALIGNED_HEADER]
    rejected_lines = [REJECTED_HEADER]
    recordings_report = {}
    for result in results:
        for pair in result.accepted:
            aligned_lines.append(
                f"{pair.segment_id}\t{pair.span.l_s}\t{pair.span.l_e}"
                f"\t{pair.confidence:.4f}\t{pair.text}"
            )
        for rej in result.rejected:
            if not rej.candidates:
                rejected_lines.append(f"{rej.segment_id}\t{rej.reason}\t\t\t\t\t\t")
            for cand in rej.candidates:
                posts = ",".join(repr(p) for p in cand.backward_posteriors)
                rejected_lines.append(
                    f"{rej.segment_id}\t{rej.reason}\t{cand.l_start}\t{cand.l_e}"
                    f"\t{cand.l_s}\t{int(cand.capped)}\t{cand.confidence!r}\t{posts}"
                )
        recordings_report[result.recording_id] = {
            "n_segments": len(result.accepted) + len(result.rejected),
            "n_accepted": len(result.accepted),
            "n_rejected": len(result.rejected),
            "final_queue": list(result.final_queue),
            "partial": result.partial,
            "trace_sha256": trace_digest(result),
        }

    write_text(out / ALIGNED_FILE, "\n".join(aligned_lines) + "\n")
    write_text(out / REJECTED_FILE, "\n".join(rejected_lines) + "\n")

    payload: dict = {
        "aligner": aligner_config_dict(config),
        "tokenize_mode": tokenize_mode,
        "partial": any(r.partial for r in results),
        "totals": {
            "recordings": len(results),
            "segments": sum(len(r.accepted) + len(r.rejected) for r in results),
            "accepted": sum(len(r.accepted) for r in results),
            "rejected": sum(len(r.rejected) for r in results),
        },
        "recordings": recordings_report,
    }
    if report is not None:
        payload["metrics"] = report.summary_dict()  # per-segment detail stays in TSVs
    write_text(out / REPORT_FILE, json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n")
    return out


def _run_lines(path: Path, header: str) -> Iterator[tuple[int, str]]:
    """(line number, line) for each data line of a run's TSV below its header."""
    lines = data_lines(path)
    if next(lines, (0, None))[1] != header:
        raise ValidationError(f"{path}: bad header")
    return lines


def parse_alignment_output(out_dir: str | Path, recordings: Sequence[Recording]) -> list[AlignmentResult]:
    """Read a run back as one AlignmentResult per recording, with no final
    queue or trace.

    Accepted confidences come back at their 4-decimal file precision;
    rejected candidate floats round-trip exactly via repr. Every line must
    name a segment of ``recordings``, and no accepted span may run past
    its recording's transcript. The lines of a rejected segment must be
    adjacent and share one reason, and list each candidate once, or be one
    line without a candidate; a file that breaks this raises
    ValidationError naming the line. So does a run whose recording breaks
    the engine's structure (`structure_error`), naming the run.
    """
    out = Path(out_dir)
    index = {seg.segment_id: i for i, rec in enumerate(recordings) for seg in rec.segments}

    def owner(segment_id: str) -> int:
        try:
            return index[segment_id]
        except KeyError:
            raise ValueError(f"segment {segment_id!r} is not in the given inputs") from None

    accepted: list[list[AlignedPair]] = [[] for _ in recordings]
    path = out / ALIGNED_FILE
    for lineno, line in _run_lines(path, ALIGNED_HEADER):
        with at_line(path, lineno):
            segment_id, l_s, l_e, conf, text = tab_fields(line, 5)
            i = owner(segment_id)
            span, length = Span(int(l_s), int(l_e)), len(recordings[i].transcript)
            if span.l_e > length:
                raise ValueError(
                    f"span [{span.l_s}, {span.l_e}] runs past the "
                    f"{length}-token transcript of recording {recordings[i].recording_id}"
                )
            accepted[i].append(AlignedPair(segment_id, span, float(conf), text))
    path = out / REJECTED_FILE
    pending: dict[str, tuple[int, str, list[CandidateResult]]] = {}
    previous = None  # the segment id of the line before
    for lineno, line in _run_lines(path, REJECTED_HEADER):
        with at_line(path, lineno):
            segment_id, reason, l_start, l_e, l_s, capped, conf, posts = tab_fields(line, 8)
            if segment_id not in pending:
                pending[segment_id] = (owner(segment_id), reason, [])
            elif segment_id != previous:
                raise ValueError(f"segment {segment_id} continues after the lines of another segment")
            else:
                first_reason, cands = pending[segment_id][1:]
                if reason != first_reason:
                    raise ValueError(f"segment {segment_id} has reason {reason!r} after {first_reason!r}")
                if not l_start or not cands:
                    raise ValueError(f"segment {segment_id} has a line without a candidate beside another line")
                if any(cand.l_start == int(l_start) for cand in cands):
                    raise ValueError(f"segment {segment_id} repeats its candidate from position {l_start}")
            previous = segment_id
            if l_start:
                posteriors = tuple(float(p) for p in posts.split(",")) if posts else ()
                pending[segment_id][2].append(CandidateResult(
                    int(l_start), int(l_e), int(l_s), bool(int(capped)), posteriors, float(conf)
                ))
    rejected: list[list[RejectedSegment]] = [[] for _ in recordings]
    for segment_id, (i, reason, cands) in pending.items():
        rejected[i].append(RejectedSegment(segment_id, tuple(cands), reason))
    read_json(out / REPORT_FILE)  # a run without its report is not a whole run
    results = []
    for rec, acc, rej in zip(recordings, accepted, rejected):
        result = AlignmentResult(rec.recording_id, tuple(acc), tuple(rej), (), ())
        problem = structure_error(result, rec.segments)
        if problem is not None:
            raise ValidationError(f"{out_dir}: recording {rec.recording_id}: {problem}")
        results.append(result)
    return results
