"""Input data types: the `Recording`, the one in-memory form of a run's
inputs, and a simulated corpus: its configuration and its recordings. The
simulator generates a corpus and dataio reads and writes it, so loading
a corpus does not need the simulator.
"""

from __future__ import annotations

from .core import Record, Segment, Span, TokenSequence, ValidationError, Vocabulary, _set


class SimConfig(Record):
    __slots__ = (
        "n_recordings",
        "tokens_per_utterance",
        "utterances_per_recording",
        "vocab_size",
        "filler_segment_prob",
        "eps_eos_miss",
        "eps_eos_false",
        "concentration",
        "seed",
    )

    def __init__(
        self,
        n_recordings: int = 10,
        tokens_per_utterance: tuple[int, int] = (3, 9),
        utterances_per_recording: tuple[int, int] = (3, 5),
        vocab_size: int = 12,
        filler_segment_prob: float = 0.0,
        eps_eos_miss: float = 0.0,
        eps_eos_false: float = 0.0,
        concentration: float = 0.95,
        seed: int = 0,
    ) -> None:
        if n_recordings < 1:
            raise ValidationError("n_recordings must be >= 1")
        for name, (lo, hi) in (
            ("tokens_per_utterance", tokens_per_utterance),
            ("utterances_per_recording", utterances_per_recording),
        ):
            if not 1 <= lo <= hi:
                raise ValidationError(f"{name} range invalid: ({lo}, {hi})")
        if vocab_size < 2:
            raise ValidationError("vocab_size must be >= 2")
        for name, v in (
            ("filler_segment_prob", filler_segment_prob),
            ("eps_eos_miss", eps_eos_miss),
            ("eps_eos_false", eps_eos_false),
        ):
            if not 0.0 <= v < 1.0:
                raise ValidationError(f"{name} must be in [0, 1), got {v}")
        if not 0.0 < concentration <= 1.0:
            raise ValidationError(f"concentration must be in (0, 1], got {concentration}")
        _set(self, "n_recordings", n_recordings)
        _set(self, "tokens_per_utterance", tokens_per_utterance)
        _set(self, "utterances_per_recording", utterances_per_recording)
        _set(self, "vocab_size", vocab_size)
        _set(self, "filler_segment_prob", filler_segment_prob)
        _set(self, "eps_eos_miss", eps_eos_miss)
        _set(self, "eps_eos_false", eps_eos_false)
        _set(self, "concentration", concentration)
        _set(self, "seed", seed)


class Recording(Record):
    """One recording of a run: its segments in time order, its un-aligned
    transcript and, for scoring, its ground truth: the true spans parallel
    to the segments (None marks a filler), or None without ground truth."""

    __slots__ = ("recording_id", "segments", "transcript", "truth")

    def __init__(
        self,
        recording_id: str,
        segments: tuple[Segment, ...],
        transcript: TokenSequence,
        truth: tuple[Span | None, ...] | None,
    ) -> None:
        _set(self, "recording_id", recording_id)
        _set(self, "segments", segments)
        _set(self, "transcript", transcript)
        _set(self, "truth", truth)


class SimCorpus(Record):
    __slots__ = ("config", "vocab", "recordings")

    def __init__(
        self, config: SimConfig, vocab: Vocabulary, recordings: tuple[Recording, ...]
    ) -> None:
        _set(self, "config", config)
        _set(self, "vocab", vocab)
        _set(self, "recordings", recordings)
