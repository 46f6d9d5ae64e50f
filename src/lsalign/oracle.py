"""Oracle scorers: posterior rows straight from a simulated corpus's ground truth.

The oracle stands in for trained forward/backward models: segments are
opaque ids with durations, and it answers scans from the ground-truth
spans. Noise is injected as deterministic per-position events (hashed from
the corpus seed), so the same corpus always yields the same rows,
in-process or over the wire.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Sequence

from .core import Span
from .corpus import SimCorpus
from .scorer import Direction, PosteriorRow, PosteriorScorer, ScanRequest, UnknownSegment

# the kinds of row an oracle answers; with the eos mass and what the
# next window token is, the kind decides the row
_HIT = "concentrated"  # mass on the span's next token
_FLAT = "flat"  # no evidence: every id alike
_EOS = "pure-eos"  # a prefix that matches nowhere in the transcript


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
    added. Those positions come from a per-recording index of token
    positions, built on the first boundary anchor that fails in the
    recording, so clean data never builds it.

    A row is decided by its kind (concentrated, flat or pure eos), its eos
    mass and whether the next window token is the one the row concentrates
    on (or whether no token follows). Rows are immutable, so each distinct
    row is built, and checked, once per oracle and then shared by every
    scan that answers it: a clean corpus has four distinct rows.

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
        # per segment: its recording's id and token ids, and its true span
        self._entries: dict[str, tuple[str, tuple[int, ...], Span | None]] = {
            seg.segment_id: (rec.recording_id, rec.transcript.ids, span)
            for rec in corpus.recordings
            for seg, span in zip(rec.segments, rec.truth)
        }
        # per recording: token id -> 1-based positions, ascending (see _starts)
        self._positions: dict[str, dict[int, list[int]]] = {}
        # The two connection threads of a served oracle may both build a
        # missing row; either copy is the same immutable value, so the
        # cache needs no lock.
        self._cache: dict[tuple[str, float, bool | None], PosteriorRow] = {}

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
        recording_id, ids, span = entry
        cache, noisy = self._cache, self._noisy
        eps_miss, eps_false = self._eps_miss, self._eps_false
        spike, base = 1.0 - eps_miss, eps_false
        following = (*tokens, None)  # the token after each prefix; none after the window
        if span is None:
            backward = direction is Direction.BACKWARD
            for k in range(first, len(tokens) + 1):
                eos_mass = spike if backward and k == 0 else base
                key = (_FLAT, eos_mass, None if following[k] is None else False)
                yield cache.get(key) or self._new_row(key)
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
                    starts = self._starts(recording_id, ids, tokens[0])
                    for i in range(1, k):
                        starts = _matching(ids, starts, step, i, tokens[i])
            if k < first:
                continue
            nxt = following[k]
            if (forward and k == 0) or starts == []:
                key = (_EOS, 1.0, None if nxt is None else False)
            else:
                pos = (origin if starts is None else starts[0]) + step * (k - 1)
                boundary = pos == far
                eos_mass = spike if boundary else base
                if noisy:
                    u = self._draw(segment_id, direction, pos)
                    if u < (eps_miss if boundary else eps_false):
                        eos_mass = base if boundary else spike
                target = pos + step
                if (a <= target <= b or boundary) and 1 <= target <= length:
                    key = (_HIT, eos_mass, None if nxt is None else nxt == ids[target - 1])
                else:
                    key = (_FLAT, eos_mass, None if nxt is None else False)
            yield cache.get(key) or self._new_row(key)

    def _starts(self, recording_id: str, ids: tuple[int, ...], token: int) -> list[int]:
        """The positions of ``token`` in the recording, from its index,
        which is built here on first use. The lists are shared by the
        recording's segments: _matching builds new ones."""
        positions = self._positions.get(recording_id)
        if positions is None:
            positions = {}
            for pos, token_id in enumerate(ids, 1):
                positions.setdefault(token_id, []).append(pos)
            # stored only once whole: another thread may build it too, never see it half built
            self._positions[recording_id] = positions
        return positions.get(token, [])

    def _draw(self, segment_id: str, direction: Direction, pos: int) -> float:
        key = f"{self._seed}|{segment_id}|{direction.value}|{pos}".encode("utf-8")
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0**64

    def _new_row(self, key: tuple[str, float, bool | None]) -> PosteriorRow:
        """Build the row of ``key`` and keep it in the cache.

        A concentrated row puts ``concentration`` of the non-eos mass on
        the target and spreads the rest evenly; a flat row spreads the
        non-eos mass evenly over every id, and without an eos event gives
        eos at most 0.5/(V+1), below every id's share, so it is not the
        argmax where the audio carries no evidence, whatever V."""
        kind, eos_mass, next_is_target = key
        vocab_size = self._vocab_size
        if kind == _EOS:
            top = nxt = 0.0
        elif kind == _FLAT:
            if eos_mass == self._eps_false:
                eos_mass = min(eos_mass, 0.5 / (vocab_size + 1))
            top = nxt = (1.0 - eos_mass) / vocab_size
        else:
            rest = 1.0 - eos_mass
            hit = rest * self._c
            share = (rest * (1.0 - self._c)) / (vocab_size - 1)
            top, nxt = max(hit, share), hit if next_is_target else share
        row = self._cache[key] = PosteriorRow(eos_mass, top, None if next_is_target is None else nxt)
        return row


def _matching(ids: tuple[int, ...], starts: list[int], step: int, j: int, token: int) -> list[int]:
    """The origins in ``starts`` whose j-th position along ``step`` holds ``token``."""
    offset = step * j - 1
    length = len(ids)
    return [s for s in starts if 0 <= s + offset < length and ids[s + offset] == token]
