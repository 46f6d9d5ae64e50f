"""Core domain types: vocabulary, token sequences, segments, spans.

All types here are immutable after construction and safe to share across
concurrent workers. Token positions are 1-based throughout the package.
"""

from __future__ import annotations

import contextlib
import math
import os
import unicodedata
from typing import Iterable, Iterator

TokenizeMode = str  # one of TOKENIZE_MODES
TOKENIZE_MODES = ("char", "whitespace")


class LsalignError(Exception):
    """Base class for all package errors."""


class ValidationError(LsalignError):
    """Malformed or inconsistent input data."""


class EmptyTranscript(ValidationError):
    """Transcript text is empty after normalization."""


_set = object.__setattr__  # how a record's __init__ stores its fields


class Record:
    """Base of the package's value types: immutable after construction.

    A subclass names its storage in ``__slots__`` and fills it in
    ``__init__`` with ``_set(self, name, value)``; afterwards assigning or
    deleting any attribute raises AttributeError. Its fields are the slots
    whose names do not start with "_", in ``__init__`` order: two records
    are equal when they are of the same class and their fields are equal,
    equal records hash alike, and the repr is ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, which is what may set fields
        return self.__class__, self._values()


class Vocabulary(Record):
    """Ordered set of distinct token strings plus a reserved end-of-sentence id.

    Token ids are 0..V-1 in list order; the eos id is V and is never a
    transcript token.
    """

    __slots__ = ("tokens", "_index")

    def __init__(self, tokens: tuple[str, ...]) -> None:
        index = dict(zip(tokens, range(len(tokens))))
        if len(index) < len(tokens) or "" in index:
            seen: set[str] = set()
            for tok in tokens:  # report the first bad token
                if not tok:
                    raise ValidationError("vocabulary token must be non-empty")
                if tok in seen:
                    raise ValidationError(f"duplicate vocabulary token: {tok!r}")
                seen.add(tok)
        _set(self, "tokens", tokens)
        _set(self, "_index", index)

    @property
    def size(self) -> int:
        return len(self.tokens)

    def ids_of(self, tokens: Iterable[str]) -> tuple[int, ...]:
        """The id of each token; one not in the vocabulary raises ValidationError."""
        index = self._index
        try:
            return tuple([index[token] for token in tokens])
        except KeyError as exc:
            raise ValidationError(f"token not in vocabulary: {exc.args[0]!r}") from None

    def token_of(self, token_id: int) -> str:
        if not 0 <= token_id < len(self.tokens):
            raise ValidationError(f"token id out of range: {token_id}")
        return self.tokens[token_id]

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def extended(self, new_tokens: Iterable[str]) -> Vocabulary:
        """Return a vocabulary with unseen tokens appended in first-seen order."""
        extra = [t for t in dict.fromkeys(new_tokens) if t not in self._index]
        if not extra:
            return self
        return Vocabulary(self.tokens + tuple(extra))


class TokenSequence(Record):
    """A transcript as vocabulary indices. Positions are 1-based."""

    __slots__ = ("ids",)

    def __init__(self, ids: tuple[int, ...]) -> None:
        if len(ids) < 1:
            raise ValidationError("token sequence must contain at least one token")
        _set(self, "ids", ids)

    def __len__(self) -> int:
        return len(self.ids)

    def token_id_at(self, position: int) -> int:
        """Token id at 1-based position."""
        if not 1 <= position <= len(self.ids):
            raise ValidationError(f"position {position} outside [1, {len(self.ids)}]")
        return self.ids[position - 1]

    def slice_ids(self, l_s: int, l_e: int) -> tuple[int, ...]:
        """Ids of the inclusive 1-based span [l_s, l_e]."""
        if not 1 <= l_s <= l_e <= len(self.ids):
            raise ValidationError(f"invalid span [{l_s}, {l_e}] for length {len(self.ids)}")
        return self.ids[l_s - 1 : l_e]

    def validate_against(self, vocab: Vocabulary) -> None:
        size = vocab.size
        if not 0 <= min(self.ids) <= max(self.ids) < size:
            bad = next(i for i in self.ids if not 0 <= i < size)
            raise ValidationError(f"token id {bad} invalid for vocabulary of size {size}")


class Span(Record):
    """Inclusive 1-based token span [l_s, l_e]."""

    __slots__ = ("l_s", "l_e")

    def __init__(self, l_s: int, l_e: int) -> None:
        if not 1 <= l_s <= l_e:
            raise ValidationError(f"invalid span [{l_s}, {l_e}]")
        _set(self, "l_s", l_s)
        _set(self, "l_e", l_e)

    def __len__(self) -> int:
        return self.l_e - self.l_s + 1


class Segment(Record):
    """One pre-split audio interval. Acoustics live behind the scorer."""

    __slots__ = ("start_sec", "end_sec", "segment_id", "recording_id")

    def __init__(self, start_sec: float, end_sec: float, segment_id: str, recording_id: str) -> None:
        if not (math.isfinite(start_sec) and math.isfinite(end_sec)):
            raise ValidationError(
                f"segment {segment_id}: times must be finite, got {start_sec} and {end_sec}"
            )
        if start_sec < 0:
            raise ValidationError(f"segment {segment_id}: negative start time")
        if end_sec <= start_sec:
            raise ValidationError(
                f"segment {segment_id}: end {end_sec} must exceed start {start_sec}"
            )
        _set(self, "start_sec", start_sec)
        _set(self, "end_sec", end_sec)
        _set(self, "segment_id", segment_id)
        _set(self, "recording_id", recording_id)

    @property
    def duration_sec(self) -> float:
        return self.end_sec - self.start_sec


def read_text(path: str | os.PathLike) -> str:
    """The UTF-8 text of an input file. A file that cannot be read raises
    ValidationError naming it, so the CLI reports it as bad input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {os.fspath(path)}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read {os.fspath(path)}: not UTF-8 ({exc.reason})") from None


@contextlib.contextmanager
def writing(path: str | os.PathLike) -> Iterator[None]:
    """Turn an OSError of the block, which writes ``path``, into
    ValidationError naming it, so the CLI reports it as bad input."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"cannot write {os.fspath(path)}: {exc.strerror or exc}") from None


def write_text(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to a file as UTF-8: the counterpart of read_text."""
    with writing(path), open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def data_lines(path: str | os.PathLike) -> Iterator[tuple[int, str]]:
    """(line number from 1, line) for each line that is neither blank nor a ``#`` comment."""
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, line


def tab_fields(line: str, n: int) -> list[str]:
    """The ``n`` tab-separated fields of a line; any other count raises ValueError."""
    fields = line.split("\t")
    if len(fields) != n:
        raise ValueError(f"expected {n} tab-separated fields, got {len(fields)}")
    return fields


@contextlib.contextmanager
def at_line(path: str | os.PathLike, lineno: int, error: type = ValidationError) -> Iterator[None]:
    """Prefix an error raised in the block with ``PATH:LINE: ``. A package
    error keeps its class; a ValueError (a bad value) becomes ``error``."""
    try:
        yield
    except LsalignError as exc:
        raise type(exc)(f"{path}:{lineno}: {exc}") from None
    except ValueError as exc:
        raise error(f"{path}:{lineno}: {exc}") from None


def tokenize(
    text: str,
    mode: TokenizeMode = "char",
    vocab: Vocabulary | None = None,
    *,
    extend: bool = True,
) -> tuple[TokenSequence, Vocabulary]:
    """Tokenize text and return the sequence plus the (possibly grown) vocabulary.

    char mode: NFC-normalize, drop all whitespace, one token per scalar value.
    whitespace mode: tokens are maximal non-whitespace runs. Punctuation is
    kept either way; stripping it is the caller's choice.

    With ``extend=False`` unseen tokens raise ValidationError instead of
    growing the vocabulary (used when a fixed vocabulary must be honored).
    """
    if mode not in TOKENIZE_MODES:
        raise ValidationError(f"unknown tokenize mode: {mode!r}")
    normalized = unicodedata.normalize("NFC", text)
    if mode == "char":
        parts = [ch for ch in normalized if not ch.isspace()]
    else:
        parts = normalized.split()
    if not parts:
        raise EmptyTranscript("transcript is empty after normalization")
    vocab = vocab if vocab is not None else Vocabulary(())
    if extend:
        vocab = vocab.extended(parts)
    return TokenSequence(vocab.ids_of(parts)), vocab


def detokenize(ids: tuple[int, ...], vocab: Vocabulary, mode: TokenizeMode = "char") -> str:
    """Inverse of tokenize up to whitespace: chars concatenate, words join on space."""
    tokens = vocab.tokens
    if ids and not 0 <= min(ids) <= max(ids) < len(tokens):
        bad = next(i for i in ids if not 0 <= i < len(tokens))
        raise ValidationError(f"token id out of range: {bad}")
    joiner = "" if mode == "char" else " "
    return joiner.join([tokens[i] for i in ids])


def validate_recording_segments(segments: Iterable[Segment]) -> list[Segment]:
    """Sort one recording's segments by start time and check the invariants."""
    segs = sorted(segments, key=lambda s: (s.start_sec, s.end_sec, s.segment_id))
    if not segs:
        raise ValidationError("recording has no segments")
    recording_id = segs[0].recording_id
    seen: set[str] = set()
    prev_end = None
    for seg in segs:
        if seg.recording_id != recording_id:
            raise ValidationError(
                f"segment {seg.segment_id}: recording {seg.recording_id} != {recording_id}"
            )
        if seg.segment_id in seen:
            raise ValidationError(f"duplicate segment id: {seg.segment_id}")
        seen.add(seg.segment_id)
        if prev_end is not None and seg.start_sec < prev_end:
            raise ValidationError(
                f"segment {seg.segment_id} overlaps previous segment (starts at "
                f"{seg.start_sec} before {prev_end})"
            )
        prev_end = seg.end_sec
    return segs
