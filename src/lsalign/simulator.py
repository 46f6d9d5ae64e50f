"""Synthetic corpus generation with ground truth, and the reference interpreter.

``generate_corpus`` builds each corpus that the oracle scorers
(``oracle.py``) answer from. ``reference_align`` is a straight-line
transcription of the alignment pseudocode that shares no scan or queue
code with the engine, so tests can check the engine against it.
"""

from __future__ import annotations

import random

from .aligner import (
    MAX_RETRIES,
    REASON_BELOW_THRESHOLD,
    REASON_QUEUE_OVERFLOW,
    REASON_TRANSCRIPT_EXHAUSTED,
    AlignedPair,
    AlignerConfig,
    AlignmentResult,
    CandidateResult,
    RejectedSegment,
    scan_cap,
)
from .core import (
    LsalignError,
    Segment,
    Span,
    TokenSequence,
    Vocabulary,
    detokenize,
)
from .corpus import Recording, SimConfig, SimCorpus
from .scorer import Direction, EosRule, PosteriorRow, PosteriorScorer, ScanRequest


class TooLargeForOracle(LsalignError):
    """Instance exceeds the reference interpreter's size bounds."""


SECONDS_PER_TOKEN = 0.15


def _token_string(i: int) -> str:
    if i < 26:
        return chr(ord("a") + i)
    return f"t{i}"


def generate_corpus(config: SimConfig) -> SimCorpus:
    """Pseudorandom corpus, fully determined by config.seed.

    Utterance spans tile each recording's transcript in order; filler
    segments (no transcript tokens) are interleaved with probability
    filler_segment_prob. Durations are proportional to span length
    (0.15 s/token plus jitter); fillers get short random durations. All
    times are rounded to milliseconds so serialization round-trips exactly.
    """
    rng = random.Random(config.seed)
    vocab = Vocabulary(tuple(_token_string(i) for i in range(config.vocab_size)))
    recordings = []
    for r in range(config.n_recordings):
        rec_id = f"rec{r:04d}"
        n_utts = rng.randint(*config.utterances_per_recording)
        utt_lens = [rng.randint(*config.tokens_per_utterance) for _ in range(n_utts)]
        ids = tuple(rng.randrange(config.vocab_size) for _ in range(sum(utt_lens)))
        transcript = TokenSequence(ids)

        segments: list[Segment] = []
        truth: list[Span | None] = []
        cursor = round(rng.uniform(0.0, 0.2), 3)
        seg_idx = 0

        def add_segment(duration: float, span: Span | None) -> None:
            nonlocal cursor, seg_idx
            start = cursor
            end = round(start + max(duration, 0.05), 3)
            segments.append(Segment(start, end, f"{rec_id}_s{seg_idx:04d}", rec_id))
            truth.append(span)
            seg_idx += 1
            cursor = round(end + rng.uniform(0.01, 0.1), 3)

        pos = 1
        for ulen in utt_lens:
            if rng.random() < config.filler_segment_prob:
                add_segment(rng.uniform(0.3, 1.0), None)
            add_segment(SECONDS_PER_TOKEN * ulen + rng.uniform(0.0, 0.1), Span(pos, pos + ulen - 1))
            pos += ulen
        if rng.random() < config.filler_segment_prob:
            add_segment(rng.uniform(0.3, 1.0), None)

        recordings.append(Recording(rec_id, tuple(segments), transcript, tuple(truth)))
    return SimCorpus(config, vocab, tuple(recordings))


def reference_align(
    recording: Recording,
    fwd: PosteriorScorer,
    bwd: PosteriorScorer,
    config: AlignerConfig,
    vocab: Vocabulary,
    *,
    mode: str = "whitespace",
    max_tokens: int = 8,
    max_segments: int = 3,
) -> AlignmentResult:
    """Straight-line transcription of the alignment pseudocode, for tiny
    instances only. No shared scan/queue code with align_recording: this is
    the equivalence oracle it is checked against.
    """
    import statistics  # only this test oracle needs it; keeps the scorer import light

    transcript = recording.transcript
    length = len(transcript)
    n_segments = len(recording.segments)
    if length > max_tokens or n_segments > max_segments:
        raise TooLargeForOracle(
            f"instance has L={length}, N={n_segments}; bounds are "
            f"L<={max_tokens}, N<={max_segments}"
        )
    eos_fires = config.eos_rule
    every_row = EosRule("threshold", 0.0)  # fires on every row: a scan of one row

    def ask(
        scorer: PosteriorScorer, direction: Direction, prefix: list[int], next_id: int | None
    ) -> PosteriorRow:
        """The scorer's row for one prefix, given the token read next (if any)."""
        window = (*prefix, next_id) if next_id is not None else tuple(prefix)
        req = ScanRequest(segment.segment_id, direction, window, len(prefix), every_row)
        return scorer.scan(req)[0]

    queue: list[int] = [1]
    accepted: list[AlignedPair] = []
    rejected: list[RejectedSegment] = []
    overflowed = False
    n = 1
    while n <= n_segments:
        segment = recording.segments[n - 1]
        if overflowed:
            rejected.append(RejectedSegment(segment.segment_id, (), REASON_QUEUE_OVERFLOW))
            n = n + 1
            continue
        if len(queue) == 0 or min(queue) > length:
            rejected.append(RejectedSegment(segment.segment_id, (), REASON_TRANSCRIPT_EXHAUSTED))
            n = n + 1
            continue
        cap = scan_cap(segment.duration_sec, config.max_token_rate)
        candidates: list[CandidateResult] = []
        stored = False
        pending = len(queue)  # positions appended from here on are retries
        retries = 0
        i = 0
        while i < len(queue):
            if i >= pending:
                if retries == MAX_RETRIES:
                    break
                retries = retries + 1
            l_start = queue[i]
            floor = min(queue)

            # Step 1: forward scan for the final token.
            l_e = None
            capped = False
            consumed: list[int] = []
            scan_end = min(length, l_start + cap - 1)
            for l in range(l_start, scan_end + 1):
                consumed.append(transcript.token_id_at(l))
                following = transcript.token_id_at(l + 1) if l < scan_end else None
                row = ask(fwd, Direction.FORWARD, consumed, following)
                if eos_fires(row):
                    l_e = l
                    break
            if l_e is None:
                l_e = scan_end
                capped = True

            # Step 2: backward scan for the initial token.
            row = ask(bwd, Direction.BACKWARD, [], transcript.token_id_at(l_e))
            if eos_fires(row):
                l_s = l_e
                posteriors: tuple[float, ...] = ()
            else:
                back_stop = max(floor, l_e - cap + 1)
                consumed = []
                recorded: list[float] = []
                l_s = back_stop
                for l in range(l_e, back_stop - 1, -1):
                    recorded.append(row.next_mass)  # the mass of the token at l
                    consumed.append(transcript.token_id_at(l))
                    following = transcript.token_id_at(l - 1) if l > back_stop else None
                    row = ask(bwd, Direction.BACKWARD, consumed, following)
                    if eos_fires(row):
                        l_s = l
                        break
                posteriors = tuple(recorded)

            # Step 3: confidence = median of the recorded posteriors.
            if len(posteriors) == 0:
                conf = 0.0
            else:
                conf = float(statistics.median(posteriors))
            cand = CandidateResult(l_start, l_e, l_s, capped, posteriors, conf)
            candidates.append(cand)

            if len(posteriors) > 0 and conf >= config.theta:
                accepted.append(
                    AlignedPair(
                        segment.segment_id,
                        Span(l_s, l_e),
                        conf,
                        detokenize(transcript.slice_ids(l_s, l_e), vocab, mode),
                    )
                )
                queue = [l_e + 1]
                stored = True
                break
            nxt = l_e + 1
            if nxt <= length and nxt not in queue:
                if len(queue) + 1 > config.queue_cap:
                    overflowed = True
                    break
                queue.append(nxt)
            i = i + 1
        if not stored:
            reason = REASON_QUEUE_OVERFLOW if overflowed else REASON_BELOW_THRESHOLD
            rejected.append(RejectedSegment(segment.segment_id, tuple(candidates), reason))
        n = n + 1

    return AlignmentResult(
        recording_id=recording.recording_id,
        accepted=tuple(accepted),
        rejected=tuple(rejected),
        final_queue=tuple(queue),
        trace=(),
        partial=overflowed,
    )


def results_equivalent(a: AlignmentResult, b: AlignmentResult) -> bool:
    """Equality modulo trace (the reference interpreter emits none)."""
    return (
        a.recording_id == b.recording_id
        and a.accepted == b.accepted
        and a.rejected == b.rejected
        and a.final_queue == b.final_queue
        and a.partial == b.partial
    )
