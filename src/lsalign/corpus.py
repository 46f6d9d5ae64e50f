"""Corpus data types: a simulated corpus's configuration, its recordings
and their ground truth. The simulator generates them and dataio reads and
writes them, so loading a corpus does not need the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Segment, Span, TokenSequence, ValidationError, Vocabulary


@dataclass(frozen=True)
class SimConfig:
    n_recordings: int = 10
    tokens_per_utterance: tuple[int, int] = (3, 9)
    utterances_per_recording: tuple[int, int] = (3, 5)
    vocab_size: int = 12
    filler_segment_prob: float = 0.0
    eps_eos_miss: float = 0.0
    eps_eos_false: float = 0.0
    concentration: float = 0.95
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_recordings < 1:
            raise ValidationError("n_recordings must be >= 1")
        for name in ("tokens_per_utterance", "utterances_per_recording"):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi:
                raise ValidationError(f"{name} range invalid: ({lo}, {hi})")
        if self.vocab_size < 2:
            raise ValidationError("vocab_size must be >= 2")
        for name in ("filler_segment_prob", "eps_eos_miss", "eps_eos_false"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValidationError(f"{name} must be in [0, 1), got {v}")
        if not 0.0 < self.concentration <= 1.0:
            raise ValidationError(f"concentration must be in (0, 1], got {self.concentration}")


@dataclass(frozen=True)
class SimRecording:
    recording_id: str
    segments: tuple[Segment, ...]
    transcript: TokenSequence
    truth: tuple[Span | None, ...]  # parallel to segments; None marks a filler

    def truth_by_segment(self) -> dict[str, Span | None]:
        return {s.segment_id: t for s, t in zip(self.segments, self.truth)}


@dataclass(frozen=True)
class SimCorpus:
    config: SimConfig
    vocab: Vocabulary
    recordings: tuple[SimRecording, ...]
