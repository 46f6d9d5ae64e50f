"""Posterior-provider contract: the aligner's only view of a model.

A scorer answers "given this segment's acoustics and this teacher-forced
prefix, what is the next-token distribution over vocab plus eos". The
answer is a sparse PosteriorRow: a few listed token masses, eos, and a
remainder spread uniformly over the other ids. Forward and backward
scorers are independent instances of the same contract; backward
prefixes are transmitted in consumption order (first-consumed = highest
transcript position first).

Under teacher forcing every token a scan reads is known before it starts,
so a scan is the one request a scorer answers (ScanRequest): the rows of
successive prefixes of one window, up to the first row on which the eos
rule fires. One prefix is the one-row scan that starts at its end. The
simulator's oracle answers a scan in one pass, a remote scorer in one
round trip, and a scripted scorer by one table lookup per prefix.
"""

from __future__ import annotations

import enum
import hashlib
import json
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Protocol, Sequence

from .core import LsalignError, Record, Vocabulary, _set, at_line, data_lines, tab_fields

ROW_SUM_TOLERANCE = 1e-6
DEFAULT_TIMEOUT_SEC = 30.0  # how long a remote scorer's client waits for an answer
EOS_RULES = ("argmax", "threshold")
DEFAULT_P_EOS_MIN = 0.5  # the threshold rule's eos mass when none is given


class ScorerError(LsalignError):
    """Base class for scorer-side failures."""


class UnknownSegment(ScorerError):
    """Request addressed a segment the scorer does not know."""


class ProtocolError(ScorerError):
    """Malformed request/response or violated row invariant."""


class DuplicateKey(ScorerError):
    """Scripted-scorer file defines the same request twice."""


class UnknownKey(ScorerError):
    """Strict scripted scorer got a request it has no row for."""


class IncompatibleScorer(ScorerError):
    """Handshake failed: vocabulary digest or protocol version mismatch."""


class Direction(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"

    @classmethod
    def parse(cls, value: str) -> Direction:
        try:
            return cls(value)
        except ValueError:
            raise ProtocolError(f"unknown direction: {value!r}") from None


class PosteriorRow(Record):
    """One next-token distribution over vocab plus eos, stored sparsely.

    ``listed`` maps token ids to their mass; every unlisted id gets the
    same share, ``other_mass / (vocab_size - len(listed))``. Masses must be
    non-negative and sum to 1 within 1e-6, and remainder mass is only
    allowed while some id is unlisted; construction enforces this in O(k)
    for k listed ids, so a row in hand is always valid. Rows compare equal
    when they give every id and eos the same mass, however they are stored.
    """

    __slots__ = ("listed", "eos_mass", "other_mass", "vocab_size")

    def __init__(
        self, listed: Mapping[int, float], eos_mass: float, other_mass: float, vocab_size: int
    ) -> None:
        _set(self, "listed", listed)
        _set(self, "eos_mass", eos_mass)
        _set(self, "other_mass", other_mass)
        _set(self, "vocab_size", vocab_size)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the row invariants (a method of its own, so it can be timed)."""
        vocab_size = self.vocab_size
        if vocab_size < 1:
            raise ValueError("posterior row needs at least one token plus eos")
        total = 0.0
        for token_id, p in self.listed.items():
            if not 0 <= token_id < vocab_size:
                raise ValueError(f"token id {token_id} outside vocabulary of size {vocab_size}")
            if not p >= 0.0:  # negative or NaN
                raise ValueError(f"negative or NaN probability in row: {p}")
            total += p
        for p in (self.eos_mass, self.other_mass):
            if not p >= 0.0:
                raise ValueError(f"negative or NaN probability in row: {p}")
        if self.other_mass > 0.0 and len(self.listed) == vocab_size:
            raise ValueError("remainder mass given but every token id is listed")
        total += self.eos_mass + self.other_mass
        if abs(total - 1.0) > ROW_SUM_TOLERANCE:
            raise ValueError(f"row sums to {total!r}, expected 1.0 within {ROW_SUM_TOLERANCE}")

    def _share(self) -> float:
        """Mass of each unlisted token id (only meaningful while one exists)."""
        return self.other_mass / (self.vocab_size - len(self.listed))

    def mass(self, token_id: int) -> float:
        if not 0 <= token_id < self.vocab_size:
            raise IndexError(f"token id {token_id} outside vocabulary of size {self.vocab_size}")
        p = self.listed.get(token_id)
        return self._share() if p is None else p

    def eos_is_argmax(self) -> bool:
        """True iff eos strictly beats every token (ties do not fire)."""
        eos = self.eos_mass
        if len(self.listed) < self.vocab_size and eos <= self._share():
            return False
        return all(eos > p for p in self.listed.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PosteriorRow):
            return NotImplemented
        if self.vocab_size != other.vocab_size or self.eos_mass != other.eos_mass:
            return False
        ids = self.listed.keys() | other.listed.keys()
        if any(self.mass(i) != other.mass(i) for i in ids):
            return False
        # an id listed by neither row gets each row's share
        return len(ids) == self.vocab_size or self._share() == other._share()

    def __hash__(self) -> int:
        return hash((self.vocab_size, self.eos_mass))


class EosRule(Record):
    """When eos fires on a row: ``argmax`` when eos strictly beats every
    token, ``threshold`` when its mass is at least ``p_eos_min``.

    A plain value rather than a function, so a scan request can carry it
    to a remote scorer.
    """

    __slots__ = ("name", "p_eos_min")

    def __init__(self, name: str = "argmax", p_eos_min: float = DEFAULT_P_EOS_MIN) -> None:
        if name not in EOS_RULES:
            raise ValueError(f"unknown eos rule: {name!r}")
        if not 0.0 <= p_eos_min <= 1.0:
            raise ValueError(f"p_eos_min must be in [0, 1], got {p_eos_min}")
        _set(self, "name", name)
        _set(self, "p_eos_min", p_eos_min)

    @classmethod
    def parse(cls, spec: str) -> EosRule:
        """``argmax``, ``threshold`` (P = 0.5) or ``threshold:P`` with P in [0, 1]."""
        name, sep, p = spec.partition(":")
        try:
            if name == "argmax" and not sep:
                return cls()
            if name == "threshold":
                return cls(name, float(p)) if sep else cls(name)
        except ValueError:
            pass
        raise ValueError(
            f"bad eos rule {spec!r}: expected argmax, threshold or threshold:P with P in [0, 1]"
        )

    def __call__(self, row: PosteriorRow) -> bool:
        if self.name == "argmax":
            return row.eos_is_argmax()
        return row.eos_mass >= self.p_eos_min


class ScanRequest(Record):
    """A whole teacher-forced scan: the rows for the prefixes
    ``tokens[:first]``, ``tokens[:first + 1]``, ... in order, ending at the
    first row on which ``rule`` fires, or at ``tokens[:len(tokens)]``.
    """

    __slots__ = ("segment_id", "direction", "tokens", "first", "rule")

    def __init__(
        self, segment_id: str, direction: Direction, tokens: tuple[int, ...], first: int, rule: EosRule
    ) -> None:
        if not 0 <= first <= len(tokens):
            raise ProtocolError(f"scan starts at prefix {first} of a {len(tokens)}-token window")
        _set(self, "segment_id", segment_id)
        _set(self, "direction", direction)
        _set(self, "tokens", tokens)
        _set(self, "first", first)
        _set(self, "rule", rule)

    @property
    def max_rows(self) -> int:
        return len(self.tokens) - self.first + 1

    def prefixes(self) -> Iterator[tuple[int, ...]]:
        """The prefixes the rows answer, in order: ``tokens[:first]``, ..."""
        tokens = self.tokens
        return (tokens[:end] for end in range(self.first, len(tokens) + 1))

    def take(self, rows: Iterable[PosteriorRow]) -> list[PosteriorRow]:
        """The stop rule: ``rows`` up to and including the first on which
        ``rule`` fires, or all of them. Reads ``rows`` lazily, so a row
        past the firing one is never asked for."""
        taken = []
        rule = self.rule
        for row in rows:
            taken.append(row)
            if rule(row):
                break
        return taken


class PosteriorScorer(Protocol):
    """A model behind the aligner. ``scan`` returns at least one row, no
    row but the last fires, and the rows stop short of ``max_rows`` only
    when the last one fires."""

    def scan(self, req: ScanRequest) -> Sequence[PosteriorRow]: ...


def vocab_digest(vocab: Vocabulary) -> str:
    """Stable sha256 over the ordered token list; eos is implied by size."""
    blob = json.dumps(list(vocab.tokens), ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def expand_sparse_row(
    listed: Mapping[str, float],
    other_mass: float,
    vocab_size: int,
) -> PosteriorRow:
    """Parse a sparse top-K row (wire or scripted form) into a PosteriorRow.

    Keys are decimal token ids or the literal "eos". The eos entry must be
    listed explicitly; ``other_mass`` spreads uniformly over unlisted
    non-eos token ids only. A dense row (every id listed, no remainder)
    parses too. Remainder mass within 1e-6 of zero counts as zero.
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
    if other_mass < -ROW_SUM_TOLERANCE:
        raise ProtocolError(f"negative remainder mass: {other_mass}")
    all_listed = len(masses) == vocab_size
    if other_mass > ROW_SUM_TOLERANCE and all_listed:
        raise ProtocolError("remainder mass given but every token id is listed")
    if other_mass < 0.0 or all_listed:
        other_mass = 0.0
    try:
        return PosteriorRow(masses, eos_mass, float(other_mass), vocab_size)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


class ScriptedScorer:
    """In-memory scorer answering a fixed table of (segment, direction, prefix) rows.

    Unscripted requests raise UnknownKey in strict mode (default) or return
    the configured default row.
    """

    def __init__(
        self,
        rows: Mapping[tuple[str, Direction, tuple[int, ...]], PosteriorRow],
        vocab_size: int,
        default_row: PosteriorRow | None = None,
    ) -> None:
        self._rows = dict(rows)
        self._vocab_size = vocab_size
        self._default_row = default_row
        for row in self._rows.values():
            if row.vocab_size != vocab_size:
                raise ProtocolError(
                    f"scripted row has vocab size {row.vocab_size}, expected {vocab_size}"
                )

    @property
    def vocab_size(self) -> int:
        return self._vocab_size

    def scan(self, req: ScanRequest) -> list[PosteriorRow]:
        return req.take(self._row(req.segment_id, req.direction, p) for p in req.prefixes())

    def _row(self, segment_id: str, direction: Direction, prefix: tuple[int, ...]) -> PosteriorRow:
        row = self._rows.get((segment_id, direction, tuple(prefix)))
        if row is not None:
            return row
        if self._default_row is not None:
            return self._default_row
        if not any(k[0] == segment_id for k in self._rows):
            raise UnknownSegment(f"no scripted rows for segment {segment_id!r}")
        raise UnknownKey(
            f"no scripted row for segment={segment_id} direction={direction.value} "
            f"prefix={list(prefix)}"
        )


def load_scripted_scorer(
    path: str | Path,
    vocab_size: int,
    *,
    default_row: PosteriorRow | None = None,
) -> ScriptedScorer:
    """Parse a scripted-scorer TSV file.

    Line format: ``segment_id<TAB>direction<TAB>space-joined-prefix-ids<TAB>
    token:prob,token:prob,...`` where token is a decimal id or "eos" (eos
    required). Blank and '#' comment lines are skipped; the prefix column
    may be empty. Unlisted token mass is the remainder, spread uniformly.
    """
    rows: dict[tuple[str, Direction, tuple[int, ...]], PosteriorRow] = {}
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
    return ScriptedScorer(rows, vocab_size, default_row=default_row)


def dump_scripted_rows(
    rows: Mapping[tuple[str, Direction, tuple[int, ...]], PosteriorRow],
    path: str | Path,
) -> None:
    """Write rows in the scripted-scorer TSV format: each row's listed
    entries plus eos. The loader spreads the remainder over the unlisted
    ids again, so masses come back equal up to float rounding."""
    lines = []
    for (segment_id, direction, prefix), row in rows.items():
        prefix_s = " ".join(str(p) for p in prefix)
        entries = [f"{i}:{p!r}" for i, p in row.listed.items()]
        entries.append(f"eos:{row.eos_mass!r}")
        lines.append("\t".join([segment_id, direction.value, prefix_s, ",".join(entries)]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
