"""Posterior-provider contract: the aligner's only view of a model.

A scorer answers "given this segment's acoustics and this teacher-forced
prefix, how likely is eos next, and the next window token". The aligner
reads three numbers of each next-token distribution, so a PosteriorRow
holds only those: the eos mass, the largest token mass (eos is the argmax
when it beats it) and the mass of the window token that follows the
prefix (the backward scan's reference-token posterior). Forward and
backward scorers are independent instances of the same contract;
backward prefixes are transmitted in consumption order (first-consumed =
highest transcript position first).

Under teacher forcing every token a scan reads is known before it starts,
so a scan is the one request a scorer answers (ScanRequest): the rows of
successive prefixes of one window, up to the first row on which the eos
rule fires. The scan contract lives here alone: ``EosRule.parse`` reads
the rule's one text form, ``ScanRequest.take`` stops a scan, and
``ScanRequest.check`` checks a reply that crossed a process boundary.
"""

from __future__ import annotations

import enum
import hashlib
import json
from typing import Iterable, Iterator, Protocol, Sequence

from .core import LsalignError, Record, Vocabulary, _set

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
    """The three numbers the aligner reads of one next-token distribution.

    ``eos_mass`` is the mass of eos, ``top_mass`` the largest mass of any
    token id, and ``next_mass`` the mass of the window token that follows
    the row's prefix; it is None only on the row for the whole window,
    which no token follows. Each must be a probability, ``next_mass`` at
    most ``top_mass``, and eos and the top token together at most 1
    within 1e-6; construction enforces this, so a row in hand is valid.
    """

    __slots__ = ("eos_mass", "top_mass", "next_mass")

    def __init__(self, eos_mass: float, top_mass: float, next_mass: float | None = None) -> None:
        _set(self, "eos_mass", eos_mass)
        _set(self, "top_mass", top_mass)
        _set(self, "next_mass", next_mass)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the row invariants (a method of its own, so it can be timed)."""
        eos, top, nxt = self.eos_mass, self.top_mass, self.next_mass
        for p in (eos, top) if nxt is None else (eos, top, nxt):
            if not p >= 0.0:  # negative or NaN
                raise ValueError(f"negative or NaN probability in row: {p}")
            if p > 1.0:
                raise ValueError(f"probability above 1 in row: {p}")
        if nxt is not None and nxt > top:
            raise ValueError(f"next-token mass {nxt!r} exceeds the top token mass {top!r}")
        if eos + top > 1.0 + ROW_SUM_TOLERANCE:
            raise ValueError(f"eos and top token masses sum to {eos + top!r}, more than 1")


class EosRule(Record):
    """When eos fires on a row: ``argmax`` when eos strictly beats every
    token, ``threshold`` when its mass is at least ``p_eos_min``.

    A plain value rather than a function, so a scan request can carry it
    to a remote scorer, as its one text form: ``str(rule)`` is the spec
    that ``parse`` reads back.
    """

    __slots__ = ("name", "p_eos_min")

    def __init__(self, name: str = "argmax", p_eos_min: float = DEFAULT_P_EOS_MIN) -> None:
        if name not in EOS_RULES:
            raise ValueError(f"unknown eos rule: {name!r}")
        if not 0.0 <= p_eos_min <= 1.0:
            raise ValueError(f"p_eos_min must be in [0, 1], got {p_eos_min}")
        if name == "argmax" and p_eos_min != DEFAULT_P_EOS_MIN:
            raise ValueError("the argmax rule takes no p_eos_min")
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

    def __str__(self) -> str:
        return self.name if self.name == "argmax" else f"{self.name}:{self.p_eos_min!r}"

    def __call__(self, row: PosteriorRow) -> bool:
        if self.name == "argmax":
            return row.eos_mass > row.top_mass  # a tie does not fire
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

    def check(self, rows: Sequence[PosteriorRow]) -> None:
        """Raise ProtocolError unless ``rows`` answer this scan: one to
        ``max_rows`` rows, ``next_mass`` on every row but the whole
        window's, no row past one on which the rule fires, and no short
        reply whose last row does not fire."""
        if not rows:
            raise ProtocolError("the scorer answered a scan with no rows")
        if len(rows) > self.max_rows:
            raise ProtocolError(f"scan reply holds {len(rows)} rows, the window allows {self.max_rows}")
        # every row but the one for the whole window has a token after its prefix
        if any(row.next_mass is None for row in rows[: self.max_rows - 1]):
            raise ProtocolError("scan reply row lacks the mass of the token after its prefix")
        if len(self.take(rows)) < len(rows):
            raise ProtocolError("scan reply goes on past a row on which eos fires")
        if len(rows) < self.max_rows and not self.rule(rows[-1]):
            raise ProtocolError("scan reply ends early on a row on which eos does not fire")


class PosteriorScorer(Protocol):
    """A model behind the aligner. ``scan`` returns rows that pass
    ``req.check``; only a remote scorer's replies are checked. ``scans``
    answers several scans in request order; a scorer that subclasses this
    class answers them one ``scan`` at a time."""

    def scan(self, req: ScanRequest) -> Sequence[PosteriorRow]: ...

    def scans(self, reqs: Sequence[ScanRequest]) -> list[Sequence[PosteriorRow]]:
        return [self.scan(req) for req in reqs]


def vocab_digest(vocab: Vocabulary) -> str:
    """Stable sha256 over the ordered token list; eos is implied by size."""
    blob = json.dumps(list(vocab.tokens), ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
