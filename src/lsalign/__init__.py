"""Label-synchronous speech-to-text alignment toolkit."""

from .aligner import (
    AlignedPair,
    AlignerConfig,
    AlignmentResult,
    CandidateResult,
    RejectedSegment,
    align_recording,
    align_steps,
    backward_scan,
    confidence,
    estimate_final,
    estimate_initial,
    forward_scan,
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
from .corpus import SimConfig, SimCorpus, SimRecording
from .metrics import EditCounts, EvalReport, edit_distance, span_accuracy
from .scorer import (
    Direction,
    EosRule,
    PosteriorRow,
    ScriptedScorer,
    load_scripted_scorer,
)
__version__ = "0.1.0"

# Modules loaded only when one of their names is first asked for: the
# trellis baseline needs numpy, and aligning against a remote scorer needs
# neither the simulator nor its oracle.
_LAZY_EXPORTS = {
    "FramePosteriors": "ctcseg",
    "InfeasibleAlignment": "ctcseg",
    "TokenTiming": "ctcseg",
    "ctc_align": "ctcseg",
    "OracleScorer": "simulator",
    "TooLargeForOracle": "simulator",
    "generate_corpus": "simulator",
    "reference_align": "simulator",
}


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is not None:
        import importlib

        return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AlignedPair",
    "AlignerConfig",
    "AlignmentResult",
    "CandidateResult",
    "Direction",
    "EditCounts",
    "EmptyTranscript",
    "EosRule",
    "EvalReport",
    "FramePosteriors",
    "InfeasibleAlignment",
    "LsalignError",
    "OracleScorer",
    "PosteriorRow",
    "RejectedSegment",
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
    "align_steps",
    "backward_scan",
    "confidence",
    "ctc_align",
    "detokenize",
    "edit_distance",
    "estimate_final",
    "estimate_initial",
    "forward_scan",
    "generate_corpus",
    "load_scripted_scorer",
    "reference_align",
    "span_accuracy",
    "tokenize",
]
