"""Label-synchronous alignment engine.

Per segment: a forward scorer scans the transcript under teacher-forcing
until its eos prediction fires (final token), a backward scorer scans back
from there until eos fires again (initial token), and the median of the
backward scorer's reference-token posteriors gates acceptance. A queue of
candidate start positions couples consecutive segments: accepted segments
reset it to the position after their final token, rejected candidates
append theirs, so misfits (noise, laughter) are skipped without losing
track of the transcript.

The engine does no I/O: ``align_steps`` yields each scan it needs and is
sent that scan's rows. ``align_recordings`` is the one driver, for every
scorer: each round it hands the forward scans of all waiting recordings
to the forward scorer in one ``scans`` call, then the backward scans to
the backward scorer.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from typing import Generator, Sequence

from .core import (
    Record,
    Segment,
    Span,
    TokenSequence,
    ValidationError,
    Vocabulary,
    _set,
    detokenize,
    validate_recording_segments,
)
from .scorer import Direction, EosRule, PosteriorRow, PosteriorScorer, ScanRequest

REASON_BELOW_THRESHOLD = "below-threshold"
REASON_TRANSCRIPT_EXHAUSTED = "transcript-exhausted"
REASON_QUEUE_OVERFLOW = "queue-overflow"

# Start positions a segment tries beyond the queue it started with: the
# ones its own rejected candidates append. Trying them all lets fillers
# walk the queue into its cap; trying none loses a segment whose span
# lies past a short scan's reach.
MAX_RETRIES = 2


class AlignerConfig(Record):
    __slots__ = ("theta", "max_token_rate", "eos_rule", "queue_cap")

    def __init__(
        self,
        theta: float = 0.7,
        max_token_rate: float = 25.0,
        eos_rule: EosRule = EosRule(),
        queue_cap: int = 64,
    ) -> None:
        if not 0.0 <= theta <= 1.0:
            raise ValidationError(f"theta must be in [0, 1], got {theta}")
        if not math.isfinite(max_token_rate):
            raise ValidationError(f"max_token_rate must be finite, got {max_token_rate}")
        if max_token_rate <= 0:
            raise ValidationError(f"max_token_rate must be positive, got {max_token_rate}")
        if queue_cap < 1:
            raise ValidationError(f"queue_cap must be >= 1, got {queue_cap}")
        _set(self, "theta", theta)
        _set(self, "max_token_rate", max_token_rate)
        _set(self, "eos_rule", eos_rule)
        _set(self, "queue_cap", queue_cap)


class CandidateResult(Record):
    """One evaluated start position: spans, posteriors, confidence.

    An empty-span candidate (backward eos fired before any token was
    consumed) has no posteriors and confidence 0; it is always rejected.
    """

    __slots__ = ("l_start", "l_e", "l_s", "capped", "backward_posteriors", "confidence")

    def __init__(
        self,
        l_start: int,
        l_e: int,
        l_s: int,
        capped: bool,
        backward_posteriors: tuple[float, ...],
        confidence: float,
    ) -> None:
        if not (l_start <= l_e and l_s <= l_e):
            raise ValidationError(
                f"inconsistent candidate positions l_start={l_start} l_s={l_s} l_e={l_e}"
            )
        n = len(backward_posteriors)
        if n and n != l_e - l_s + 1:
            raise ValidationError(f"candidate has {n} posteriors for span [{l_s}, {l_e}]")
        _set(self, "l_start", l_start)
        _set(self, "l_e", l_e)
        _set(self, "l_s", l_s)
        _set(self, "capped", capped)
        _set(self, "backward_posteriors", backward_posteriors)
        _set(self, "confidence", confidence)

    @property
    def empty_span(self) -> bool:
        return not self.backward_posteriors


class AlignedPair(Record):
    __slots__ = ("segment_id", "span", "confidence", "text")

    def __init__(self, segment_id: str, span: Span, confidence: float, text: str) -> None:
        _set(self, "segment_id", segment_id)
        _set(self, "span", span)
        _set(self, "confidence", confidence)
        _set(self, "text", text)


class RejectedSegment(Record):
    __slots__ = ("segment_id", "candidates", "reason")

    def __init__(
        self, segment_id: str, candidates: tuple[CandidateResult, ...], reason: str
    ) -> None:
        _set(self, "segment_id", segment_id)
        _set(self, "candidates", candidates)
        _set(self, "reason", reason)


class AlignmentResult(Record):
    __slots__ = ("recording_id", "accepted", "rejected", "final_queue", "trace", "partial")

    def __init__(
        self,
        recording_id: str,
        accepted: tuple[AlignedPair, ...],
        rejected: tuple[RejectedSegment, ...],
        final_queue: tuple[int, ...],
        trace: tuple[str, ...],
        partial: bool = False,
    ) -> None:
        _set(self, "recording_id", recording_id)
        _set(self, "accepted", accepted)
        _set(self, "rejected", rejected)
        _set(self, "final_queue", final_queue)
        _set(self, "trace", trace)
        _set(self, "partial", partial)


def scan_cap(duration_sec: float, max_token_rate: float) -> int:
    """Token budget for one scan; bounds runaway scans when eos never fires.
    A budget past any transcript's length (even an overflowing one) is
    clamped to ``sys.maxsize``."""
    return max(1, math.ceil(min(duration_sec * max_token_rate, sys.maxsize)))


def confidence(backward_posteriors: Sequence[float]) -> float:
    """Median of the backward scorer's reference-token posteriors.

    Even count averages the two central values; an empty list (empty-span
    candidate) is defined as 0.
    """
    if not backward_posteriors:
        return 0.0
    ordered = sorted(backward_posteriors)
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def forward_scan(
    segment: Segment,
    l_start: int,
    transcript: TokenSequence,
    cap: int,
    eos_rule: EosRule,
) -> ScanRequest:
    """Step 1's scan: the window from l_start up to the budget; its k-th
    row answers the prefix that ends at l_start + k - 1."""
    length = len(transcript)
    if not 1 <= l_start <= length:
        raise ValidationError(f"l_start {l_start} outside [1, {length}]")
    if cap < 1:
        raise ValidationError(f"cap must be >= 1, got {cap}")
    stop = min(length, l_start + cap - 1)
    window = transcript.ids[l_start - 1 : stop]
    return ScanRequest(segment.segment_id, Direction.FORWARD, window, 1, eos_rule)


def estimate_final(
    scan: ScanRequest, rows: Sequence[PosteriorRow], l_start: int
) -> tuple[int, bool]:
    """The token being read when eos fires is the final token. Returns
    (l_e, capped); capped means the scan hit the token budget or the end
    of the transcript without eos."""
    # a scan ends early only on a firing row, so an unfired one ends at stop
    return l_start + len(rows) - 1, not scan.rule(rows[-1])


def backward_scan(
    segment: Segment,
    l_e: int,
    floor: int,
    cap: int,
    transcript: TokenSequence,
    eos_rule: EosRule,
) -> ScanRequest:
    """Step 2's scan: back from l_e in consumption order (highest position
    first), never below ``floor`` and at most ``cap`` tokens."""
    if not 1 <= floor <= l_e <= len(transcript):
        raise ValidationError(f"invalid backward scan bounds floor={floor} l_e={l_e}")
    if cap < 1:
        raise ValidationError(f"cap must be >= 1, got {cap}")
    stop = max(floor, l_e - cap + 1)
    window = transcript.ids[stop - 1 : l_e][::-1]  # consumption order
    return ScanRequest(segment.segment_id, Direction.BACKWARD, window, 0, eos_rule)


def estimate_initial(
    rows: Sequence[PosteriorRow], l_e: int
) -> tuple[int, tuple[float, ...]] | None:
    """The token being read when eos fires is the initial token. Returns
    (l_s, the reference-token masses in consumption order), or None when
    eos fires on the first row, before any token is consumed (empty span).
    A scan that reaches its floor or cap returns that position."""
    # row k answers the prefix window[:k]: its next mass scores window[k]
    # before that token is consumed; the last row is read after the last token
    posteriors = tuple([row.next_mass for row in rows[:-1]])
    if not posteriors:
        return None
    return l_e - len(posteriors) + 1, posteriors


def candidate_accepted(candidate: CandidateResult, theta: float) -> bool:
    """Gate: empty-span candidates never pass; otherwise confidence >= theta."""
    if candidate.empty_span:
        return False
    return candidate.confidence >= theta


def evaluate_candidate(
    segment: Segment, l_start: int, final: tuple[int, bool], initial: tuple | None
) -> CandidateResult:
    """Step 3 for one of ``segment``'s start positions, from what its two
    scans read (``estimate_final``, ``estimate_initial``)."""
    l_e, capped = final
    if initial is None:
        return CandidateResult(l_start, l_e, l_e, capped, (), 0.0)
    l_s, posteriors = initial
    return CandidateResult(l_start, l_e, l_s, capped, posteriors, confidence(posteriors))


# one recording's engine: yields scans, is sent their rows, returns the result
Steps = Generator[ScanRequest, Sequence[PosteriorRow], AlignmentResult]


def align_recording(
    segments: Sequence[Segment],
    transcript: TokenSequence,
    fwd: PosteriorScorer,
    bwd: PosteriorScorer,
    config: AlignerConfig,
    vocab: Vocabulary,
    *,
    mode: str = "char",
) -> AlignmentResult:
    """``align_recordings`` run on one recording."""
    [result] = align_recordings(
        [align_steps(segments, transcript, config, vocab, mode=mode)], fwd, bwd
    )
    return result


def align_recordings(
    steps: Sequence[Steps], fwd: PosteriorScorer, bwd: PosteriorScorer
) -> list[AlignmentResult]:
    """Run each recording's engine (``align_steps``) to its result, in
    order. Rounds alternate: ``fwd.scans`` gets the forward scans that the
    waiting engines ask for, then ``bwd.scans`` the backward ones. Every
    candidate is one forward scan and then one backward scan, so the
    engines keep in step, and each round advances every unfinished
    recording by one scan."""
    results: list = [None] * len(steps)
    waiting: list[tuple[int, Steps, ScanRequest]] = []

    def advance(i: int, gen: Steps, rows: Sequence[PosteriorRow] | None) -> None:
        try:
            waiting.append((i, gen, gen.send(rows)))
        except StopIteration as done:
            results[i] = done.value

    for i, gen in enumerate(steps):
        advance(i, gen, None)
    while waiting:
        for scorer, direction in ((fwd, Direction.FORWARD), (bwd, Direction.BACKWARD)):
            batch = [item for item in waiting if item[2].direction is direction]
            if batch:
                waiting = [item for item in waiting if item[2].direction is not direction]
                for (i, gen, _), rows in zip(batch, scorer.scans([req for _, _, req in batch])):
                    advance(i, gen, rows)
    return results


def align_steps(
    segments: Sequence[Segment],
    transcript: TokenSequence,
    config: AlignerConfig,
    vocab: Vocabulary,
    *,
    mode: str = "char",
) -> Steps:
    """Align one recording's segments to its transcript (Steps 1-3 per
    candidate, start-position queue across segments): yield each scan,
    be sent its rows, return the AlignmentResult.

    Candidate start positions are taken from the queue in FIFO order: the
    queue as it stood when the segment began, then at most MAX_RETRIES of
    the positions the segment's own rejected candidates append. Acceptance
    resets the queue to the position after the final token (kept even
    past the transcript end, where it marks exhaustion); rejection appends
    it unless it falls past the end. The backward scan is floored at the
    earliest pending start so accepted spans can never overlap.

    If the queue would outgrow ``config.queue_cap``, the result comes back
    with ``partial`` set and every remaining segment rejected as
    queue-overflow.
    """
    segs = validate_recording_segments(segments)
    transcript.validate_against(vocab)
    recording_id = segs[0].recording_id
    eos_rule = config.eos_rule
    length = len(transcript)

    queue: list[int] = [1]
    accepted: list[AlignedPair] = []
    rejected: list[RejectedSegment] = []
    trace: list[str] = []
    overflowed = False

    for segment in segs:
        sid = segment.segment_id
        if overflowed:
            rejected.append(RejectedSegment(sid, (), REASON_QUEUE_OVERFLOW))
            trace.append(f"segment={sid} rejected reason={REASON_QUEUE_OVERFLOW}")
            continue
        if not queue or min(queue) > length:
            # the accept-path reset may leave a single position past the
            # transcript end; nothing is left to align
            rejected.append(RejectedSegment(sid, (), REASON_TRANSCRIPT_EXHAUSTED))
            trace.append(f"segment={sid} rejected reason={REASON_TRANSCRIPT_EXHAUSTED}")
            continue
        cap = scan_cap(segment.duration_sec, config.max_token_rate)
        candidates: list[CandidateResult] = []
        winner: CandidateResult | None = None
        index = 0
        stop = len(queue) + MAX_RETRIES
        while index < min(len(queue), stop):
            l_start = queue[index]
            index += 1
            floor = min(queue)
            scan = forward_scan(segment, l_start, transcript, cap, eos_rule)
            final = estimate_final(scan, (yield scan), l_start)
            scan = backward_scan(segment, final[0], floor, cap, transcript, eos_rule)
            initial = estimate_initial((yield scan), final[0])
            cand = evaluate_candidate(segment, l_start, final, initial)
            candidates.append(cand)
            decision = "accept" if candidate_accepted(cand, config.theta) else "reject"
            trace.append(
                f"segment={sid} l_start={cand.l_start} floor={floor} cap={cap} "
                f"l_e={cand.l_e} capped={int(cand.capped)} l_s={cand.l_s} "
                f"empty_span={int(cand.empty_span)} confidence={cand.confidence!r} "
                f"decision={decision}"
            )
            if decision == "accept":
                winner = cand
                break
            nxt = cand.l_e + 1
            if nxt > length:
                trace.append(f"segment={sid} queue discard {nxt} beyond transcript")
            elif nxt in queue:
                trace.append(f"segment={sid} queue skip duplicate {nxt}")
            elif len(queue) + 1 > config.queue_cap:
                overflowed = True
                trace.append(
                    f"segment={sid} queue overflow: cap {config.queue_cap} "
                    f"exceeded appending {nxt}"
                )
                break
            else:
                queue.append(nxt)
                trace.append(f"segment={sid} queue append {nxt}")
        if winner is not None:
            pair = AlignedPair(
                segment_id=sid,
                span=Span(winner.l_s, winner.l_e),
                confidence=winner.confidence,
                text=detokenize(transcript.slice_ids(winner.l_s, winner.l_e), vocab, mode),
            )
            accepted.append(pair)
            queue = [winner.l_e + 1]
            trace.append(
                f"segment={sid} accepted span=[{winner.l_s},{winner.l_e}] "
                f"confidence={winner.confidence!r} queue reset {queue}"
            )
        else:
            reason = REASON_QUEUE_OVERFLOW if overflowed else REASON_BELOW_THRESHOLD
            rejected.append(RejectedSegment(sid, tuple(candidates), reason))
            trace.append(f"segment={sid} rejected reason={reason} candidates={len(candidates)}")

    result = AlignmentResult(
        recording_id=recording_id,
        accepted=tuple(accepted),
        rejected=tuple(rejected),
        final_queue=tuple(queue),
        trace=tuple(trace),
        partial=overflowed,
    )
    _assert_result_invariants(result, segs, config)
    return result


def _assert_result_invariants(
    result: AlignmentResult, segments: Sequence[Segment], config: AlignerConfig
) -> None:
    problem = structure_error(result, segments)
    if problem is not None:
        raise AssertionError(problem)
    for pair in result.accepted:
        if not (config.theta <= pair.confidence <= 1.0):
            raise AssertionError(
                f"accepted pair {pair.segment_id} confidence {pair.confidence} "
                f"violates gate theta={config.theta}"
            )


def structure_error(result: AlignmentResult, segments: Sequence[Segment]) -> str | None:
    """What breaks the structure of a recording's result, or None: accepted
    spans in transcript order and disjoint, and each of the recording's
    ``segments`` decided exactly once, accepted or rejected."""
    prev_end = 0
    for pair in result.accepted:
        if pair.span.l_s <= prev_end:
            return f"accepted spans overlap or are out of order at segment {pair.segment_id}"
        prev_end = pair.span.l_e
    decided = Counter(p.segment_id for p in result.accepted)
    decided.update(r.segment_id for r in result.rejected)
    for seg in segments:
        if decided[seg.segment_id] != 1:
            return f"segment {seg.segment_id} is decided {decided[seg.segment_id]} times, not once"
    unknown = sorted(set(decided) - {seg.segment_id for seg in segments})
    if unknown:
        return f"segment {unknown[0]} is decided but is not a segment of the recording"
    return None
