"""Scripted scorers: posterior rows read from a table.

A scripted-scorer file holds one row a line, in seven tab-separated
fields: segment id, direction, the space-separated prefix ids, the id of
the window token that follows the prefix, and the row's eos mass, top
token mass and that next token's mass. On the row for the whole window,
which no token follows, the next id and its mass are both empty.
``load_scripted_scorer`` reads one into a ``ScriptedScorer``, which
answers a scan by one lookup per prefix; ``write_scripted_rows`` writes
one, so the format is known here alone.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Mapping

from .core import at_line, data_lines, tab_fields, write_text
from .scorer import (
    Direction, PosteriorRow, PosteriorScorer, ProtocolError, ScanRequest, ScorerError, UnknownSegment,
)

# (segment id, direction, prefix, the id of the token after it or None)
Key = tuple[str, Direction, tuple[int, ...], int | None]


class DuplicateKey(ScorerError):
    """Scripted-scorer file defines the same request twice."""


class UnknownKey(ScorerError):
    """Strict scripted scorer got a request it has no row for."""


def scan_keys(req: ScanRequest) -> Iterator[Key]:
    """The keys of the rows ``req`` asks for, in order."""
    following = req.tokens + (None,)  # no token follows the whole window
    return ((req.segment_id, req.direction, p, following[len(p)]) for p in req.prefixes())


class ScriptedScorer(PosteriorScorer):
    """In-memory scorer answering a fixed table of rows, keyed by segment,
    direction, prefix and the window token that follows the prefix.

    An unscripted request raises UnknownKey, or UnknownSegment when no
    row names its segment.
    """

    def __init__(self, rows: Mapping[Key, PosteriorRow]) -> None:
        self._rows = dict(rows)
        self._segments = {key[0] for key in self._rows}

    def scan(self, req: ScanRequest) -> list[PosteriorRow]:
        return req.take(self._row(key) for key in scan_keys(req))

    def _row(self, key: Key) -> PosteriorRow:
        row = self._rows.get(key)
        if row is None:
            if key[0] not in self._segments:
                raise UnknownSegment(f"no scripted rows for segment {key[0]!r}")
            raise UnknownKey(f"no scripted row for {_describe(key)}")
        return row


def _describe(key: Key) -> str:
    segment_id, direction, prefix, next_id = key
    return f"segment={segment_id} direction={direction.value} prefix={list(prefix)} next={next_id}"


def load_scripted_scorer(path: str | Path, vocab_size: int) -> ScriptedScorer:
    """Read a scripted-scorer file, skipping blank and '#' comment lines. A bad
    line raises ProtocolError, a key given twice DuplicateKey, naming ``PATH:LINE``."""
    rows: dict[Key, PosteriorRow] = {}
    for lineno, line in data_lines(path):
        with at_line(path, lineno, ProtocolError):
            segment_id, direction, prefix, next_s, eos, top, next_mass = tab_fields(line, 7)
            if bool(next_s) != bool(next_mass):
                raise ValueError("a next id and its mass must be given together")
            next_id = int(next_s) if next_s else None
            if next_id is not None and not 0 <= next_id < vocab_size:
                raise ValueError(f"next id {next_id} outside vocabulary of size {vocab_size}")
            key = (segment_id, Direction.parse(direction), tuple(int(p) for p in prefix.split()), next_id)
            if key in rows:
                raise DuplicateKey(f"duplicate scripted key {_describe(key)}")
            rows[key] = PosteriorRow(float(eos), float(top), float(next_mass) if next_mass else None)
    return ScriptedScorer(rows)


def write_scripted_rows(path: str | Path, rows: Mapping[Key, PosteriorRow]) -> None:
    """Write ``rows`` as a scripted-scorer file, floats in ``repr``, so
    that ``load_scripted_scorer`` reads each row back equal."""

    def field(value: float | int | None) -> str:
        return "" if value is None else repr(value)

    write_text(path, "".join(
        f"{segment_id}\t{direction.value}\t{' '.join(map(str, prefix))}\t{field(next_id)}\t"
        f"{row.eos_mass!r}\t{row.top_mass!r}\t{field(row.next_mass)}\n"
        for (segment_id, direction, prefix, next_id), row in rows.items()
    ))
