"""Alignment quality metrics: edit distance, CER, NRR, span accuracy.

Hypotheses and references may be TokenSequence objects or plain sequences
of hashable symbols; empty hypotheses are allowed (rejected segments).
"""

from __future__ import annotations

from typing import Sequence

from .aligner import AlignmentResult
from .core import Record, Span, TokenSequence, _set
from .corpus import Recording


def _symbols(seq: TokenSequence | Sequence) -> tuple:
    if isinstance(seq, TokenSequence):
        return seq.ids
    return tuple(seq)


class EditCounts(Record):
    __slots__ = ("subs", "ins", "dels")

    def __init__(self, subs: int, ins: int, dels: int) -> None:
        _set(self, "subs", subs)
        _set(self, "ins", ins)
        _set(self, "dels", dels)

    @property
    def total(self) -> int:
        return self.subs + self.ins + self.dels

    def __add__(self, other: EditCounts) -> EditCounts:
        return EditCounts(self.subs + other.subs, self.ins + other.ins, self.dels + other.dels)


def edit_distance(hyp: TokenSequence | Sequence, ref: TokenSequence | Sequence) -> EditCounts:
    """Minimal-cost Levenshtein counts for transforming ref into hyp.

    Insertions are hypothesis tokens with no reference counterpart;
    deletions are reference tokens missing from the hypothesis. Ties in
    total cost prefer substitutions over deletion/insertion pairs, which
    pins the split deterministically (given the total and the substitution
    count, the rest is forced by the length difference) and keeps
    edit_distance(a, b) equal to edit_distance(b, a) with ins/dels swapped.
    """
    a = _symbols(hyp)
    b = _symbols(ref)
    if a == b:  # as every accepted span on clean data
        return EditCounts(0, 0, 0)
    # Some fewest-edit, most-substitution alignment matches a shared prefix
    # and suffix token for token (moving a match onto the shared token
    # never costs more), so both are trimmed before the DP. Each end loses
    # as many tokens of a as of b, leaving the length difference as it is.
    n = min(len(a), len(b))
    start = 0
    while start < n and a[start] == b[start]:
        start += 1
    end = 0
    while end < n - start and a[-1 - end] == b[-1 - end]:
        end += 1
    if start or end:
        a = a[start : len(a) - end]
        b = b[start : len(b) - end]
    # cell key = total * k - subs with k > any subs count, so the smallest
    # key has the lowest total, then the most substitutions; given those two
    # and the length difference, ins/dels are forced
    k = len(a) + len(b) + 1
    sub = k - 1  # one more edit, one more substitution
    prev = list(range(0, (len(b) + 1) * k, k))
    for ai in a:
        cell = prev[0] + k  # all of a[:i] inserted
        cur = [cell]
        for bj, diag, up in zip(b, prev, prev[1:]):
            # cell still holds the left neighbour: one indel from the cheaper
            # of left and up, or a match/substitution from the diagonal
            if up < cell:
                cell = up
            cell += k
            if ai != bj:
                diag += sub
            if diag < cell:
                cell = diag
            cur.append(cell)
        prev = cur
    key = prev[-1]
    total = -(-key // k)
    subs = total * k - key
    indels = total - subs
    diff = len(a) - len(b)
    return EditCounts(subs, (indels + diff) // 2, (indels - diff) // 2)


class SegmentEval(Record):
    __slots__ = (
        "recording_id", "segment_id", "status", "truth_span", "hyp_span", "edits", "ref_len"
    )

    def __init__(
        self,
        recording_id: str,
        segment_id: str,
        status: str,  # "accepted" | "rejected"
        truth_span: Span | None,
        hyp_span: Span | None,
        edits: EditCounts,
        ref_len: int,
    ) -> None:
        _set(self, "recording_id", recording_id)
        _set(self, "segment_id", segment_id)
        _set(self, "status", status)
        _set(self, "truth_span", truth_span)
        _set(self, "hyp_span", hyp_span)
        _set(self, "edits", edits)
        _set(self, "ref_len", ref_len)


class EvalReport(Record):
    __slots__ = (
        "nrr",
        "cer_non_rejected",
        "cer_with_rejected_as_deletions",
        "span_exact_match",
        "per_segment",
    )

    def __init__(
        self,
        nrr: float,
        cer_non_rejected: float | None,
        cer_with_rejected_as_deletions: float | None,
        span_exact_match: float | None,
        per_segment: tuple[SegmentEval, ...],
    ) -> None:
        _set(self, "nrr", nrr)
        _set(self, "cer_non_rejected", cer_non_rejected)
        _set(self, "cer_with_rejected_as_deletions", cer_with_rejected_as_deletions)
        _set(self, "span_exact_match", span_exact_match)
        _set(self, "per_segment", per_segment)

    def summary_dict(self) -> dict:
        """The corpus-level metrics, rounded to 6 decimals, as report.json holds them."""

        def opt(x: float | None) -> float | None:
            return None if x is None else round(x, 6)

        return {
            "nrr": round(self.nrr, 6),
            "cer_non_rejected": opt(self.cer_non_rejected),
            "cer_with_rejected_as_deletions": opt(self.cer_with_rejected_as_deletions),
            "span_exact_match": opt(self.span_exact_match),
        }

    def to_json_dict(self) -> dict:
        """The summary plus one entry per segment."""
        return {
            **self.summary_dict(),
            "segments": [
                {
                    "recording_id": s.recording_id,
                    "segment_id": s.segment_id,
                    "status": s.status,
                    "truth_span": None if s.truth_span is None else [s.truth_span.l_s, s.truth_span.l_e],
                    "hyp_span": None if s.hyp_span is None else [s.hyp_span.l_s, s.hyp_span.l_e],
                    "subs": s.edits.subs,
                    "ins": s.edits.ins,
                    "dels": s.edits.dels,
                    "ref_len": s.ref_len,
                }
                for s in self.per_segment
            ],
        }

    def render_table(self) -> str:
        def fmt(x: float | None) -> str:
            return "n/a" if x is None else f"{x:.4f}"

        lines = [
            "metric                            value",
            "--------------------------------  ------",
            f"nrr                               {fmt(self.nrr)}",
            f"cer_non_rejected                  {fmt(self.cer_non_rejected)}",
            f"cer_with_rejected_as_deletions    {fmt(self.cer_with_rejected_as_deletions)}",
            f"span_exact_match                  {fmt(self.span_exact_match)}",
        ]
        return "\n".join(lines)


def evaluate_with_truth(items: Sequence[tuple[AlignmentResult, Recording]]) -> EvalReport:
    """Corpus evaluation of each result against its recording's ground
    truth, per segment in segment order.

    Per segment the hypothesis is the accepted span's tokens (empty when
    rejected) and the reference is the true span's tokens (empty for
    fillers). Both CER variants pool edits over pooled reference length;
    the non-rejected variant skips rejected segments, the other counts
    their reference tokens as deletions. The span exact match is the
    share of true utterances accepted with their true span; fillers do
    not count.
    """
    per_segment: list[SegmentEval] = []
    edits_nr = EditCounts(0, 0, 0)
    ref_nr = 0
    edits_all = EditCounts(0, 0, 0)
    ref_all = 0
    covered = 0
    total_tokens = 0
    matches = 0
    utterances = 0
    for result, recording in items:
        transcript = recording.transcript
        accepted = {pair.segment_id: pair.span for pair in result.accepted}
        total_tokens += len(transcript)
        for segment, truth_span in zip(recording.segments, recording.truth):
            segment_id = segment.segment_id
            hyp_span = accepted.get(segment_id)
            if truth_span is not None:
                utterances += 1
                matches += hyp_span == truth_span
            hyp_ids = () if hyp_span is None else transcript.slice_ids(hyp_span.l_s, hyp_span.l_e)
            ref_ids = () if truth_span is None else transcript.slice_ids(truth_span.l_s, truth_span.l_e)
            counts = edit_distance(hyp_ids, ref_ids)
            status = "accepted" if segment_id in accepted else "rejected"
            if status == "accepted":
                covered += len(hyp_ids)
                edits_nr = edits_nr + counts
                ref_nr += len(ref_ids)
            edits_all = edits_all + counts
            ref_all += len(ref_ids)
            per_segment.append(
                SegmentEval(
                    result.recording_id, segment_id, status, truth_span, hyp_span, counts, len(ref_ids)
                )
            )
    return EvalReport(
        nrr=covered / max(1, total_tokens),
        cer_non_rejected=edits_nr.total / max(1, ref_nr),
        cer_with_rejected_as_deletions=edits_all.total / max(1, ref_all),
        span_exact_match=(matches / utterances) if utterances else 1.0,
        per_segment=tuple(per_segment),
    )


def evaluate_without_truth(
    items: Sequence[tuple[AlignmentResult, TokenSequence]],
) -> EvalReport:
    """Evaluation with only the reference transcript: NRR plus a coarse CER
    comparing the concatenated accepted text against the whole transcript
    (unaccepted spans surface as deletions).

    Accepted spans are ordered and disjoint, so the concatenated text is a
    subsequence of the transcript and its edits are exactly the
    len(transcript) - covered deletions; no edit-distance table is needed.
    """
    covered = 0
    total_tokens = 0
    for result, transcript in items:
        total_tokens += len(transcript)
        covered += sum(len(pair.span) for pair in result.accepted)
    return EvalReport(
        nrr=covered / max(1, total_tokens),
        cer_non_rejected=None,
        cer_with_rejected_as_deletions=(total_tokens - covered) / max(1, total_tokens),
        span_exact_match=None,
        per_segment=(),
    )
