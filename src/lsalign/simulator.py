"""Synthetic corpora with ground truth, plus oracle scorers.

The simulator stands in for trained forward/backward models: segments are
opaque ids with durations, and an oracle answers posterior queries straight
from the ground-truth spans. Noise is injected as deterministic
per-position events (hashed from the corpus seed), so identical corpora
always yield identical rows, in-process or over the wire.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator, Sequence

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
from .corpus import SimConfig, SimCorpus, SimRecording
from .scorer import (
    Direction,
    EosRule,
    PosteriorRow,
    PosteriorScorer,
    ScanRequest,
    UnknownSegment,
)


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

        recordings.append(SimRecording(rec_id, tuple(segments), transcript, tuple(truth)))
    return SimCorpus(config, vocab, tuple(recordings))


class OracleScorer(PosteriorScorer):
    """Posterior oracle backed by ground truth; serves both directions.

    In-span queries concentrate mass ``concentration`` on the true next
    token and fire eos at the span boundary; queries whose position falls
    outside the segment's span get a flat, low-information row (the
    "audio" carries no evidence there). Of each such distribution a row
    gives the eos mass, the largest token mass and the mass of the window
    token that follows the prefix. A prefix is located in the
    transcript by preferring the anchoring consistent with the span
    boundary the scan should have started from, falling back to the
    leftmost exact match; prefixes that match nowhere get a pure-eos row.

    A scan is answered in one pass: each row extends the previous prefix's
    anchor by one token, which is one comparison while the boundary anchor
    holds; once it fails, the leftmost-match starts are found once, from
    the positions of the scan's first token, and filtered as tokens are
    added.

    eps_eos_miss / eps_eos_false are probabilities of per-position noise
    events (boundary rows losing their eos spike / other rows gaining
    one), drawn by hashing (seed, segment, direction, position). Absent an
    event, eos mass is exactly (1 - eps_eos_miss) at the boundary and
    eps_eos_false elsewhere, except on a flat row, where it is at most
    0.5/(V+1): below every id's share, so that eos does not beat the
    tokens there whatever V. Filler segments fire eos on the first
    backward query and are flat otherwise.
    """

    def __init__(self, corpus: SimCorpus) -> None:
        cfg = corpus.config
        self._eps_miss = cfg.eps_eos_miss
        self._eps_false = cfg.eps_eos_false
        self._c = cfg.concentration
        self._vocab_size = corpus.vocab.size
        self._seed = cfg.seed
        self._noisy = self._eps_miss > 0.0 or self._eps_false > 0.0
        self._entries: dict[str, tuple[tuple[int, ...], Span | None]] = {}
        # per segment, its recording's token id -> 1-based positions, ascending
        self._positions: dict[str, dict[int, list[int]]] = {}
        for rec in corpus.recordings:
            positions: dict[int, list[int]] = {}
            for pos, token in enumerate(rec.transcript.ids, 1):
                positions.setdefault(token, []).append(pos)
            for seg, span in zip(rec.segments, rec.truth):
                self._entries[seg.segment_id] = (rec.transcript.ids, span)
                self._positions[seg.segment_id] = positions

    def scan(self, req: ScanRequest) -> list[PosteriorRow]:
        return req.take(self._rows(req.segment_id, req.direction, req.tokens, req.first))

    # -- row construction ------------------------------------------------

    def _rows(
        self, segment_id: str, direction: Direction, tokens: Sequence[int], first: int
    ) -> Iterator[PosteriorRow]:
        """The rows for the prefixes tokens[:first], tokens[:first + 1], ...,
        tokens[:len(tokens)], in order."""
        entry = self._entries.get(segment_id)
        if entry is None:
            raise UnknownSegment(f"oracle knows no segment {segment_id!r}")
        ids, span = entry
        following = (*tokens, None)  # the token after each prefix; none after the window
        if span is None:
            backward = direction is Direction.BACKWARD
            for k in range(first, len(tokens) + 1):
                eos_mass = 1.0 - self._eps_miss if backward and k == 0 else self._eps_false
                yield self._flat_row(eos_mass, following[k])
            return
        a, b = span.l_s, span.l_e
        length = len(ids)
        forward = direction is Direction.FORWARD
        # The j-th prefix token sits at origin + step * j. The boundary
        # anchor's origin is the span start (forward) or end (backward); a
        # backward prefix is the transcript read downwards, and its empty
        # prefix is the virtual position past the span end.
        step, origin, far = (1, a, b) if forward else (-1, b, a)
        starts: list[int] | None = None  # once the boundary anchor fails: matching origins, ascending
        for k in range(len(tokens) + 1):
            if k:
                j = k - 1
                if starts is not None:
                    starts = _matching(ids, starts, step, j, tokens[j])
                elif not 0 < origin + step * j <= length or ids[origin + step * j - 1] != tokens[j]:
                    # shared by the recording's segments: _matching builds new lists
                    starts = self._positions[segment_id].get(tokens[0], [])
                    for i in range(1, k):
                        starts = _matching(ids, starts, step, i, tokens[i])
            if k < first:
                continue
            if (forward and k == 0) or starts == []:
                yield self._pure_eos_row(following[k])
                continue
            pos = (origin if starts is None else starts[0]) + step * (k - 1)
            boundary = pos == far
            target = pos + step
            eos_mass = self._eos_mass(segment_id, direction, pos, boundary)
            if (a <= target <= b or boundary) and 1 <= target <= length:
                yield self._concentrated_row(ids[target - 1], eos_mass, following[k])
            else:
                yield self._flat_row(eos_mass, following[k])

    def _eos_mass(self, segment_id: str, direction: Direction, pos: int, boundary: bool) -> float:
        spike = 1.0 - self._eps_miss
        base = self._eps_false
        if not self._noisy:
            return spike if boundary else base
        u = self._draw(segment_id, direction, pos)
        if boundary:
            return base if u < self._eps_miss else spike
        return spike if u < self._eps_false else base

    def _draw(self, segment_id: str, direction: Direction, pos: int) -> float:
        key = f"{self._seed}|{segment_id}|{direction.value}|{pos}".encode("utf-8")
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0**64

    def _concentrated_row(self, target_id: int, eos_mass: float, next_id: int | None) -> PosteriorRow:
        """``concentration`` of the non-eos mass on the target, the rest spread evenly."""
        rest = 1.0 - eos_mass
        hit = rest * self._c
        share = (rest * (1.0 - self._c)) / (self._vocab_size - 1)
        nxt = None if next_id is None else hit if next_id == target_id else share
        return PosteriorRow(eos_mass, max(hit, share), nxt)

    def _flat_row(self, eos_mass: float, next_id: int | None) -> PosteriorRow:
        """The non-eos mass spread evenly over every id. Without an eos
        event, eos gets at most 0.5/(V+1), below every id's share, so it is
        not the argmax where the audio carries no evidence, whatever V."""
        if eos_mass == self._eps_false:
            eos_mass = min(eos_mass, 0.5 / (self._vocab_size + 1))
        share = (1.0 - eos_mass) / self._vocab_size
        return PosteriorRow(eos_mass, share, None if next_id is None else share)

    def _pure_eos_row(self, next_id: int | None) -> PosteriorRow:
        return PosteriorRow(1.0, 0.0, None if next_id is None else 0.0)


def _matching(ids: tuple[int, ...], starts: list[int], step: int, j: int, token: int) -> list[int]:
    """The origins in ``starts`` whose j-th position along ``step`` holds ``token``."""
    offset = step * j - 1
    length = len(ids)
    return [s for s in starts if 0 <= s + offset < length and ids[s + offset] == token]


def reference_align(
    recording: SimRecording,
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
