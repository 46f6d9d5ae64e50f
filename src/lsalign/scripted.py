"""Scripted scorers: posterior rows read from a table.

A scripted-scorer file lists, per (segment, direction, prefix), a sparse
row: some token ids' masses and the eos mass, the remainder spread evenly
over the unlisted ids. ``load_scripted_scorer`` parses one into a
``ScriptedScorer``, which answers a scan by one lookup per prefix.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from .core import at_line, data_lines, tab_fields
from .scorer import (
    ROW_SUM_TOLERANCE,
    Direction,
    PosteriorRow,
    PosteriorScorer,
    ProtocolError,
    ScanRequest,
    ScorerError,
    UnknownSegment,
)


class DuplicateKey(ScorerError):
    """Scripted-scorer file defines the same request twice."""


class UnknownKey(ScorerError):
    """Strict scripted scorer got a request it has no row for."""


# A scripted row as parsed once: (eos mass, top token mass, the listed
# token masses, the mass of each unlisted token id).
SparseRow = tuple[float, float, dict[int, float], float]


def expand_sparse_row(
    listed: Mapping[str, float],
    remainder: float,
    vocab_size: int,
) -> SparseRow:
    """Parse a sparse top-K row of the scripted-scorer format.

    Keys are decimal token ids or the literal "eos". The eos entry must be
    listed explicitly; ``remainder`` spreads uniformly over unlisted
    non-eos token ids only. Masses must be non-negative and sum to 1
    within 1e-6, and remainder mass is only allowed while some id is
    unlisted; remainder mass within 1e-6 of zero counts as zero.
    """
    masses: dict[int, float] = {}
    eos_mass = None
    for key, value in listed.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ProtocolError(f"probability for {key!r} is not a number")
        if key == "eos":
            eos_mass = float(value)
            continue
        try:
            token_id = int(key)
        except ValueError:
            raise ProtocolError(f"bad token key in row: {key!r}") from None
        if not 0 <= token_id < vocab_size:
            raise ProtocolError(f"token id {token_id} outside vocabulary of size {vocab_size}")
        if token_id in masses:
            raise ProtocolError(f"token id {token_id} listed twice in row")
        masses[token_id] = float(value)
    if eos_mass is None:
        raise ProtocolError("row must cover vocab plus eos: missing explicit eos entry")
    if remainder < -ROW_SUM_TOLERANCE:
        raise ProtocolError(f"negative remainder mass: {remainder}")
    unlisted = vocab_size - len(masses)
    if remainder > ROW_SUM_TOLERANCE and not unlisted:
        raise ProtocolError("remainder mass given but every token id is listed")
    if remainder < 0.0 or not unlisted:
        remainder = 0.0
    total = 0.0
    for p in (*masses.values(), eos_mass, remainder):
        if not p >= 0.0:  # negative or NaN
            raise ProtocolError(f"negative or NaN probability in row: {p}")
        total += p
    if abs(total - 1.0) > ROW_SUM_TOLERANCE:
        raise ProtocolError(f"row sums to {total!r}, expected 1.0 within {ROW_SUM_TOLERANCE}")
    share = remainder / unlisted if unlisted else 0.0
    return eos_mass, max(max(masses.values(), default=0.0), share), masses, share


class ScriptedScorer(PosteriorScorer):
    """In-memory scorer answering a fixed table of (segment, direction,
    prefix) rows, each parsed once by ``expand_sparse_row``. A scan gets,
    for each prefix, the row's eos and top masses and the mass of the
    window token that follows the prefix.

    An unscripted request raises UnknownKey, or UnknownSegment when no
    row names its segment.
    """

    def __init__(self, rows: Mapping[tuple[str, Direction, tuple[int, ...]], SparseRow]) -> None:
        self._rows = dict(rows)

    def scan(self, req: ScanRequest) -> list[PosteriorRow]:
        following = req.tokens + (None,)  # no token follows the whole window
        return req.take(
            self._row(req.segment_id, req.direction, p, following[len(p)]) for p in req.prefixes()
        )

    def _row(
        self, segment_id: str, direction: Direction, prefix: tuple[int, ...], next_id: int | None
    ) -> PosteriorRow:
        row = self._rows.get((segment_id, direction, tuple(prefix)))
        if row is None:
            if not any(k[0] == segment_id for k in self._rows):
                raise UnknownSegment(f"no scripted rows for segment {segment_id!r}")
            raise UnknownKey(
                f"no scripted row for segment={segment_id} direction={direction.value} "
                f"prefix={list(prefix)}"
            )
        eos_mass, top_mass, masses, share = row
        return PosteriorRow(eos_mass, top_mass, None if next_id is None else masses.get(next_id, share))


def load_scripted_scorer(path: str | Path, vocab_size: int) -> ScriptedScorer:
    """Parse a scripted-scorer TSV file.

    Line format: ``segment_id<TAB>direction<TAB>space-joined-prefix-ids<TAB>
    token:prob,token:prob,...`` where token is a decimal id or "eos" (eos
    required). Blank and '#' comment lines are skipped; the prefix column
    may be empty. Unlisted token mass is the remainder, spread uniformly.
    """
    rows: dict[tuple[str, Direction, tuple[int, ...]], SparseRow] = {}
    for lineno, line in data_lines(path):
        with at_line(path, lineno, ProtocolError):
            segment_id, direction_s, prefix_s, probs_s = tab_fields(line, 4)
            direction = Direction.parse(direction_s)
            prefix = tuple(int(p) for p in prefix_s.split())
            listed: dict[str, float] = {}
            for part in probs_s.split(","):
                part = part.strip()
                if not part:
                    continue
                token, _, prob_s = part.rpartition(":")
                if not token:
                    raise ValueError(f"bad token:prob entry {part!r}")
                if token in listed:
                    raise ValueError(f"token {token!r} listed twice")
                listed[token] = float(prob_s)
            row = expand_sparse_row(listed, 1.0 - sum(listed.values()), vocab_size)
            key = (segment_id, direction, prefix)
            if key in rows:
                raise DuplicateKey(
                    f"duplicate scripted key segment={segment_id} "
                    f"direction={direction.value} prefix={list(prefix)}"
                )
        rows[key] = row
    return ScriptedScorer(rows)
