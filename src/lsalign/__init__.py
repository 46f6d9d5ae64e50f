"""Label-synchronous speech-to-text alignment toolkit."""

from .aligner import (
    AlignedPair,
    AlignerConfig,
    AlignmentResult,
    CandidateResult,
    QueueOverflow,
    RejectedSegment,
    align_recording,
    confidence,
    estimate_final,
    estimate_initial,
)
from .core import (
    EmptyTranscript,
    LsalignError,
    Segment,
    Span,
    TokenSequence,
    ValidationError,
    Vocabulary,
    detokenize,
    tokenize,
)
from .metrics import EditCounts, EvalReport, cer, edit_distance, nrr, pooled_cer, span_accuracy
from .scorer import (
    Direction,
    PosteriorRow,
    ScorerRequest,
    ScriptedScorer,
    load_scripted_scorer,
)
from .simulator import (
    OracleScorer,
    SimConfig,
    SimCorpus,
    SimRecording,
    TooLargeForOracle,
    generate_corpus,
    reference_align,
)

__version__ = "0.1.0"

# The trellis baseline needs numpy; load it only when one of its names is
# first asked for, so the label-synchronous path never imports numpy.
_CTCSEG_EXPORTS = ("FramePosteriors", "InfeasibleAlignment", "TokenTiming", "ctc_align")


def __getattr__(name: str):
    if name in _CTCSEG_EXPORTS:
        from . import ctcseg

        return getattr(ctcseg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AlignedPair",
    "AlignerConfig",
    "AlignmentResult",
    "CandidateResult",
    "Direction",
    "EditCounts",
    "EmptyTranscript",
    "EvalReport",
    "FramePosteriors",
    "InfeasibleAlignment",
    "LsalignError",
    "OracleScorer",
    "PosteriorRow",
    "QueueOverflow",
    "RejectedSegment",
    "ScorerRequest",
    "ScriptedScorer",
    "Segment",
    "SimConfig",
    "SimCorpus",
    "SimRecording",
    "Span",
    "TokenSequence",
    "TokenTiming",
    "TooLargeForOracle",
    "ValidationError",
    "Vocabulary",
    "align_recording",
    "cer",
    "confidence",
    "ctc_align",
    "detokenize",
    "edit_distance",
    "estimate_final",
    "estimate_initial",
    "generate_corpus",
    "load_scripted_scorer",
    "nrr",
    "pooled_cer",
    "reference_align",
    "span_accuracy",
    "tokenize",
]
