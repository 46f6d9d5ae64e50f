"""Value semantics of the package's record types: immutable, equal by
field values within one class, hashable, with a ``Name(field=value, ...)``
repr, and validated on construction."""

import math
import pickle

import numpy as np
import pytest

from lsalign.aligner import (
    AlignedPair,
    AlignerConfig,
    AlignmentResult,
    CandidateResult,
    RejectedSegment,
)
from lsalign.core import Segment, Span, TokenSequence, ValidationError, Vocabulary
from lsalign.corpus import Recording, SimConfig, SimCorpus
from lsalign.ctcseg import FramePosteriors, TokenTiming
from lsalign.metrics import EditCounts, EvalReport, SegmentEval
from lsalign.scorer import (
    Direction,
    EosRule,
    PosteriorRow,
    ProtocolError,
    ScanRequest,
)

SPAN = Span(2, 4)
SEGMENT = Segment(0.5, 1.5, "s1", "r1")
TOKENS = TokenSequence((0, 1, 2, 1))
CANDIDATE = CandidateResult(1, 4, 3, False, (0.5, 0.25), 0.375)
EDITS = EditCounts(1, 0, 2)
SEGMENT_EVAL = SegmentEval("r1", "s1", "accepted", SPAN, SPAN, EDITS, 3)
RECORDING = Recording("r1", (SEGMENT,), TOKENS, (SPAN,))
MATRIX = np.array([[0.25, 0.75], [0.5, 0.5]])

# one instance of every public record class, as (class, constructor
# arguments by field name in field order)
RECORDS = [
    (Vocabulary, {"tokens": ("a", "b")}),
    (TokenSequence, {"ids": (0, 1, 1)}),
    (Span, {"l_s": 2, "l_e": 4}),
    (Segment, {"start_sec": 0.5, "end_sec": 1.5, "segment_id": "s1", "recording_id": "r1"}),
    (
        SimConfig,
        {
            "n_recordings": 2,
            "tokens_per_utterance": (3, 9),
            "utterances_per_recording": (3, 5),
            "vocab_size": 12,
            "filler_segment_prob": 0.1,
            "eps_eos_miss": 0.0,
            "eps_eos_false": 0.0,
            "concentration": 0.95,
            "seed": 7,
        },
    ),
    (Recording, {"recording_id": "r1", "segments": (SEGMENT,), "transcript": TOKENS, "truth": (SPAN,)}),
    (SimCorpus, {"config": SimConfig(), "vocab": Vocabulary(("a", "b", "c")), "recordings": (RECORDING,)}),
    (PosteriorRow, {"eos_mass": 0.25, "top_mass": 0.5, "next_mass": 0.125}),
    (EosRule, {"name": "threshold", "p_eos_min": 0.6}),
    (
        ScanRequest,
        {"segment_id": "s1", "direction": Direction.BACKWARD, "tokens": (2, 1), "first": 0, "rule": EosRule()},
    ),
    (
        AlignerConfig,
        {"theta": 0.5, "max_token_rate": 20.0, "eos_rule": EosRule(), "queue_cap": 8},
    ),
    (
        CandidateResult,
        {"l_start": 1, "l_e": 4, "l_s": 3, "capped": False, "backward_posteriors": (0.5, 0.25), "confidence": 0.375},
    ),
    (AlignedPair, {"segment_id": "s1", "span": SPAN, "confidence": 0.9, "text": "abc"}),
    (RejectedSegment, {"segment_id": "s2", "candidates": (CANDIDATE,), "reason": "below-threshold"}),
    (
        AlignmentResult,
        {
            "recording_id": "r1",
            "accepted": (AlignedPair("s1", SPAN, 0.9, "abc"),),
            "rejected": (RejectedSegment("s2", (CANDIDATE,), "below-threshold"),),
            "final_queue": (5,),
            "trace": ("segment=s1 accepted",),
            "partial": True,
        },
    ),
    (EditCounts, {"subs": 1, "ins": 0, "dels": 2}),
    (
        SegmentEval,
        {
            "recording_id": "r1",
            "segment_id": "s1",
            "status": "accepted",
            "truth_span": SPAN,
            "hyp_span": None,
            "edits": EDITS,
            "ref_len": 3,
        },
    ),
    (
        EvalReport,
        {
            "nrr": 0.5,
            "cer_non_rejected": 0.0,
            "cer_with_rejected_as_deletions": 0.5,
            "span_exact_match": None,
            "per_segment": (SEGMENT_EVAL,),
        },
    ),
    (FramePosteriors, {"matrix": MATRIX, "frame_shift_sec": 0.04}),
    (TokenTiming, {"position": 1, "start_frame": 0, "end_frame": 3, "score": 0.5}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_value_semantics(cls, fields):
    record = cls(**fields)
    twin = cls(*fields.values())

    for name, value in fields.items():
        if cls is not FramePosteriors:  # its matrix is stored as a read-only float array
            assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1

    # FramePosteriors keeps the caller's float64 array, so the twins share
    # it; an array is unhashable, as it was for the dataclass
    assert record == twin and not record != twin
    if cls is FramePosteriors:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)

    for other_cls, other_fields in RECORDS:
        if other_cls is not cls:
            assert record != other_cls(**other_fields)
    assert record != tuple(fields.values())

    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"
    assert repr(pickle.loads(pickle.dumps(record))) == repr(record)


INVALID = [
    (Vocabulary, (("a", ""),), ValidationError, "vocabulary token must be non-empty"),
    (Vocabulary, (("a", "a"),), ValidationError, "duplicate vocabulary token: 'a'"),
    (TokenSequence, ((),), ValidationError, "token sequence must contain at least one token"),
    (Span, (0, 1), ValidationError, "invalid span [0, 1]"),
    (Span, (3, 2), ValidationError, "invalid span [3, 2]"),
    (Segment, (-0.5, 1.0, "s", "r"), ValidationError, "segment s: negative start time"),
    (Segment, (2.0, 2.0, "s", "r"), ValidationError, "segment s: end 2.0 must exceed start 2.0"),
    (Segment, (0.5, math.nan, "s", "r"), ValidationError, "segment s: times must be finite, got 0.5 and nan"),
    (Segment, (0.5, math.inf, "s", "r"), ValidationError, "segment s: times must be finite, got 0.5 and inf"),
    (Segment, (math.nan, 1.0, "s", "r"), ValidationError, "segment s: times must be finite, got nan and 1.0"),
    (SimConfig, (0,), ValidationError, "n_recordings must be >= 1"),
    (SimConfig, (1, (3, 2)), ValidationError, "tokens_per_utterance range invalid: (3, 2)"),
    (SimConfig, (1, (3, 9), (0, 1)), ValidationError, "utterances_per_recording range invalid: (0, 1)"),
    (SimConfig, (1, (3, 9), (3, 5), 1), ValidationError, "vocab_size must be >= 2"),
    (SimConfig, (1, (3, 9), (3, 5), 2, 1.0), ValidationError, "filler_segment_prob must be in [0, 1), got 1.0"),
    (SimConfig, (1, (3, 9), (3, 5), 2, 0.0, -0.1), ValidationError, "eps_eos_miss must be in [0, 1), got -0.1"),
    (
        SimConfig, (1, (3, 9), (3, 5), 2, 0.0, 0.0, 1.5),
        ValidationError, "eps_eos_false must be in [0, 1), got 1.5",
    ),
    (
        SimConfig, (1, (3, 9), (3, 5), 2, 0.0, 0.0, 0.0, 0.0),
        ValidationError, "concentration must be in (0, 1], got 0.0",
    ),
    (PosteriorRow, (0.25, -0.5), ValueError, "negative or NaN probability in row: -0.5"),
    (PosteriorRow, (math.nan, 0.5), ValueError, "negative or NaN probability in row: nan"),
    (PosteriorRow, (-0.5, 0.5, 0.5), ValueError, "negative or NaN probability in row: -0.5"),
    (PosteriorRow, (0.0, 1.5), ValueError, "probability above 1 in row: 1.5"),
    (PosteriorRow, (0.25, 0.5, 0.75), ValueError, "next-token mass 0.75 exceeds the top token mass 0.5"),
    (PosteriorRow, (0.5, 0.75), ValueError, "eos and top token masses sum to 1.25, more than 1"),
    (EosRule, ("foo",), ValueError, "unknown eos rule: 'foo'"),
    (EosRule, ("threshold", 1.5), ValueError, "p_eos_min must be in [0, 1], got 1.5"),
    (EosRule, ("argmax", 0.3), ValueError, "the argmax rule takes no p_eos_min"),
    (
        ScanRequest, ("s", Direction.FORWARD, (1, 2), 3, EosRule()),
        ProtocolError, "scan starts at prefix 3 of a 2-token window",
    ),
    (AlignerConfig, (1.5,), ValidationError, "theta must be in [0, 1], got 1.5"),
    (AlignerConfig, (0.7, 0), ValidationError, "max_token_rate must be positive, got 0"),
    (AlignerConfig, (0.7, math.nan), ValidationError, "max_token_rate must be finite, got nan"),
    (AlignerConfig, (0.7, math.inf), ValidationError, "max_token_rate must be finite, got inf"),
    (AlignerConfig, (0.7, 25.0, EosRule(), 0), ValidationError, "queue_cap must be >= 1, got 0"),
    (
        CandidateResult, (5, 4, 1, False, (), 0.0),
        ValidationError, "inconsistent candidate positions l_start=5 l_s=1 l_e=4",
    ),
    (
        CandidateResult, (1, 4, 1, False, (0.5, 0.5), 0.5),
        ValidationError, "candidate has 2 posteriors for span [1, 4]",
    ),
    (
        FramePosteriors, (np.ones((2,)), 0.04),
        ValidationError, "posterior matrix must be T x (V+1), got shape (2,)",
    ),
    (FramePosteriors, (MATRIX, 0.0), ValidationError, "frame_shift_sec must be positive, got 0.0"),
    (
        FramePosteriors, (np.array([[1.5, -0.5]]), 0.04),
        ValidationError, "posterior matrix has negative entries",
    ),
    (
        FramePosteriors, (np.array([[0.5, 0.25]]), 0.04),
        ValidationError, f"posterior row 0 sums to {np.float64(0.75)!r}, expected 1",
    ),
]


@pytest.mark.parametrize(
    "cls, args, error, message", INVALID, ids=[f"{c.__name__}-{m}" for c, _, _, m in INVALID]
)
def test_record_validation_errors(cls, args, error, message):
    with pytest.raises(error) as caught:
        cls(*args)
    assert type(caught.value) is error
    assert str(caught.value) == message
