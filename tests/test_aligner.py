import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsalign.aligner import (
    REASON_QUEUE_OVERFLOW,
    REASON_TRANSCRIPT_EXHAUSTED,
    AlignerConfig,
    CandidateResult,
    align_recordings,
    align_steps,
    backward_scan,
    candidate_accepted,
    confidence,
    estimate_final,
    estimate_initial,
    forward_scan,
    scan_cap,
)
from lsalign.core import Segment, Span, TokenSequence, ValidationError, Vocabulary
from lsalign.corpus import SimConfig
from lsalign.oracle import OracleScorer
from lsalign.scorer import Direction, EosRule, PosteriorRow
from lsalign.scripted import ScriptedScorer
from lsalign.simulator import generate_corpus

from conftest import SameRowScorer

ARGMAX = EosRule()


# -- confidence ------------------------------------------------------------


def test_confidence_median_of_three():
    assert confidence([0.75, 0.39, 0.91]) == 0.75


def test_confidence_even_count_averages_center():
    assert confidence([0.4, 0.6]) == 0.5


def test_confidence_singleton_and_empty():
    assert confidence([0.3]) == 0.3
    assert confidence([]) == 0.0


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=15))
def test_confidence_bounded_and_permutation_invariant(values):
    c = confidence(values)
    assert min(values) <= c <= max(values)
    assert confidence(list(reversed(values))) == c
    assert confidence(sorted(values)) == c


def ask_final(scorer, segment, l_start, transcript, cap, eos_rule):
    """Step 1 with the scorer answering the forward scan."""
    scan = forward_scan(segment, l_start, transcript, cap, eos_rule)
    return estimate_final(scan, scorer.scan(scan), l_start)


def ask_initial(scorer, segment, l_e, floor, cap, transcript, eos_rule):
    """Step 2 with the scorer answering the backward scan."""
    scan = backward_scan(segment, l_e, floor, cap, transcript, eos_rule)
    return estimate_initial(scorer.scan(scan), l_e)


# -- step 1: final token ------------------------------------------------------


def test_estimate_final_stops_when_eos_fires():
    scorer = ScriptedScorer(
        {
            ("s", Direction.FORWARD, (0,), 1): PosteriorRow(0.1, 0.8, 0.8),
            ("s", Direction.FORWARD, (0, 1), 2): PosteriorRow(0.9, 0.05, 0.05),
        },
    )
    seg = Segment(0.0, 1.0, "s", "r")
    transcript = TokenSequence((0, 1, 2))
    l_e, capped = ask_final(scorer, seg, 1, transcript, cap=10, eos_rule=ARGMAX)
    assert (l_e, capped) == (2, False)


def test_estimate_final_cap_forces_stop():
    never_eos = PosteriorRow(0.0, 0.9, 0.9)
    scorer = SameRowScorer(never_eos)
    seg = Segment(0.0, 1.0, "s", "r")
    transcript = TokenSequence((0,) * 12)
    l_e, capped = ask_final(scorer, seg, 5, transcript, cap=3, eos_rule=ARGMAX)
    assert (l_e, capped) == (7, True)


def test_estimate_final_transcript_end_counts_as_capped():
    never_eos = PosteriorRow(0.0, 0.9, 0.9)
    scorer = SameRowScorer(never_eos)
    seg = Segment(0.0, 1.0, "s", "r")
    transcript = TokenSequence((0, 0, 0))
    l_e, capped = ask_final(scorer, seg, 2, transcript, cap=50, eos_rule=ARGMAX)
    assert (l_e, capped) == (3, True)


def test_estimate_final_validates_bounds():
    seg = Segment(0.0, 1.0, "s", "r")
    with pytest.raises(ValidationError):
        forward_scan(seg, 9, TokenSequence((0,)), cap=1, eos_rule=ARGMAX)
    with pytest.raises(ValidationError):
        forward_scan(seg, 1, TokenSequence((0,)), cap=0, eos_rule=ARGMAX)


# -- step 2: initial token --------------------------------------------------------


def test_estimate_initial_empty_span_on_first_query():
    scorer = ScriptedScorer({("s", Direction.BACKWARD, (), 0): PosteriorRow(1.0, 0.0, 0.0)})
    seg = Segment(0.0, 1.0, "s", "r")
    out = ask_initial(scorer, seg, 3, 1, 10, TokenSequence((0, 1, 0)), ARGMAX)
    assert out is None


def test_estimate_initial_records_reference_masses_in_consumption_order():
    scorer = ScriptedScorer(
        {
            ("s", Direction.BACKWARD, (), 2): PosteriorRow(0.02, 0.9, 0.9),
            ("s", Direction.BACKWARD, (2,), 1): PosteriorRow(0.05, 0.8, 0.8),
            ("s", Direction.BACKWARD, (2, 1), 0): PosteriorRow(0.95, 0.025, 0.025),
        },
    )
    seg = Segment(0.0, 1.0, "s", "r")
    transcript = TokenSequence((0, 1, 2))
    out = ask_initial(scorer, seg, 3, 1, 10, transcript, ARGMAX)
    assert out == (2, (0.9, 0.8))


def test_estimate_initial_floor_stops_scan():
    no_eos = PosteriorRow(0.01, 0.7, 0.7)
    scorer = SameRowScorer(no_eos)
    seg = Segment(0.0, 1.0, "s", "r")
    transcript = TokenSequence((0, 0, 0, 0))
    out = ask_initial(scorer, seg, 4, 2, 50, transcript, ARGMAX)
    assert out is not None
    l_s, posts = out
    assert l_s == 2
    assert len(posts) == 3  # consumed positions 4, 3, 2


def test_estimate_initial_cap_stops_scan():
    no_eos = PosteriorRow(0.01, 0.7, 0.7)
    scorer = SameRowScorer(no_eos)
    seg = Segment(0.0, 1.0, "s", "r")
    transcript = TokenSequence((0, 0, 0, 0, 0))
    out = ask_initial(scorer, seg, 5, 1, 2, transcript, ARGMAX)
    assert out is not None
    assert out[0] == 4  # at most cap=2 tokens consumed


# -- walkthrough scenario ----------------------------------------------------------


def test_walkthrough_spans_and_confidence(walkthrough):
    cfg = AlignerConfig(theta=0.7)
    rule = cfg.eos_rule
    l_e, capped = ask_final(
        walkthrough.scorer, walkthrough.segment, 1, walkthrough.transcript, 25, rule
    )
    assert (l_e, capped) == (5, False)  # "has"
    out = ask_initial(
        walkthrough.scorer, walkthrough.segment, l_e, 1, 25, walkthrough.transcript, rule
    )
    assert out is not None
    l_s, posts = out
    assert l_s == 3  # "my"
    assert posts == (0.91, 0.39, 0.75)
    assert confidence(posts) == 0.75

    steps = align_steps([walkthrough.segment], walkthrough.transcript, cfg, walkthrough.vocab, mode="whitespace")
    [result] = align_recordings([steps], walkthrough.scorer, walkthrough.scorer)
    assert len(result.accepted) == 1
    pair = result.accepted[0]
    assert pair.span == Span(3, 5)
    assert pair.text == "my cat has"
    assert pair.confidence == 0.75


def test_align_steps_is_driven_with_plain_rows(walkthrough):
    """The engine yields its scans and takes rows: a driver answering from
    plain lists, with no scorer object, gets align_recordings' result."""
    answers = {  # (eos, top, next) of the walkthrough script's rows
        Direction.FORWARD: [
            PosteriorRow(0.01, 0.9, 0.9),
            PosteriorRow(0.02, 0.85, 0.85),
            PosteriorRow(0.05, 0.8, 0.8),
            PosteriorRow(0.05, 0.9, 0.9),
            PosteriorRow(0.93, 0.014),
        ],
        Direction.BACKWARD: [
            PosteriorRow(0.02, 0.91, 0.91),
            PosteriorRow(0.05, 0.39, 0.39),
            PosteriorRow(0.03, 0.75, 0.75),
            PosteriorRow(0.97, 0.006, 0.006),
        ],
    }
    config = AlignerConfig(theta=0.7)
    args = ([walkthrough.segment], walkthrough.transcript, config, walkthrough.vocab)
    steps = align_steps(*args, mode="whitespace")
    asked = [next(steps)]
    with pytest.raises(StopIteration) as done:
        while True:
            asked.append(steps.send(answers[asked[-1].direction]))
    assert [(req.direction, req.tokens, req.first) for req in asked] == [
        (Direction.FORWARD, (0, 1, 2, 3, 4), 1),
        (Direction.BACKWARD, (4, 3, 2, 1, 0), 0),
    ]
    scorer = walkthrough.scorer
    [expected] = align_recordings([align_steps(*args, mode="whitespace")], scorer, scorer)
    assert done.value.value == expected
    assert [pair.text for pair in expected.accepted] == ["my cat has"]


class _RoundLog(OracleScorer):
    """The oracle, logging how many scans each ``scans`` call asks for."""

    def __init__(self, corpus):
        super().__init__(corpus)
        self.rounds = []

    def scans(self, reqs):
        self.rounds.append(len(reqs))
        return super().scans(reqs)


def test_align_recordings_equals_each_recording_aligned_alone():
    """Noisy recordings driven together, one of them ending partial: each
    result equals what a plain loop gets by driving that recording's
    engine alone, and round k asks one scorer call for the k-th scan of
    every recording that makes more than k scans."""
    corpus = generate_corpus(SimConfig(
        n_recordings=6, utterances_per_recording=(3, 6), vocab_size=6, filler_segment_prob=0.2,
        eps_eos_miss=0.05, eps_eos_false=0.05, seed=24,
    ))
    cfg = AlignerConfig(queue_cap=3)
    oracle = _RoundLog(corpus)
    alone, scans = [], []
    for rec in corpus.recordings:
        steps = align_steps(rec.segments, rec.transcript, cfg, corpus.vocab)
        rows, asked = None, 0
        with pytest.raises(StopIteration) as done:
            while True:
                rows = oracle.scan(steps.send(rows))
                asked += 1
        alone.append(done.value.value)
        scans.append(asked)
    together = align_recordings(
        [align_steps(rec.segments, rec.transcript, cfg, corpus.vocab) for rec in corpus.recordings],
        oracle, oracle,
    )
    assert together == alone
    assert any(r.partial for r in alone) and not all(r.partial for r in alone)
    assert oracle.rounds == [sum(n > k for n in scans) for k in range(max(scans))]


# -- one recording through align_recordings -----------------------------------------


def _mini_corpus(utt_lens, vocab_size=8, seed=3, filler_after=None, filler_duration=0.08):
    """Hand-rolled recording: utterances tiling the transcript, optional
    filler inserted after the given utterance index."""
    import random

    rng = random.Random(seed)
    total = sum(utt_lens)
    ids = tuple(rng.randrange(vocab_size) for _ in range(total))
    vocab = Vocabulary(tuple(chr(ord("a") + i) for i in range(vocab_size)))
    segments = []
    truth = []
    cursor = 0.0
    pos = 1
    for k, ulen in enumerate(utt_lens):
        end = cursor + 0.15 * ulen
        segments.append(Segment(round(cursor, 3), round(end, 3), f"u{k}", "rec"))
        truth.append(Span(pos, pos + ulen - 1))
        pos += ulen
        cursor = end + 0.05
        if filler_after == k:
            segments.append(Segment(round(cursor, 3), round(cursor + filler_duration, 3), f"f{k}", "rec"))
            truth.append(None)
            cursor += filler_duration + 0.05
    from lsalign.corpus import Recording, SimCorpus

    rec = Recording("rec", tuple(segments), TokenSequence(ids), tuple(truth))
    corpus = SimCorpus(SimConfig(vocab_size=vocab_size, seed=seed), vocab, (rec,))
    return corpus, rec


def test_align_recording_two_clean_segments():
    corpus, rec = _mini_corpus([3, 3])
    oracle = OracleScorer(corpus)
    steps = align_steps(rec.segments, rec.transcript, AlignerConfig(theta=0.7), corpus.vocab, mode="whitespace")
    [result] = align_recordings([steps], oracle, oracle)
    assert [(p.segment_id, p.span.l_s, p.span.l_e) for p in result.accepted] == [
        ("u0", 1, 3),
        ("u1", 4, 6),
    ]
    assert result.rejected == ()
    assert result.final_queue == (7,)


def test_align_recording_filler_rejected_and_spans_recovered():
    corpus, rec = _mini_corpus([3, 3], filler_after=0)
    oracle = OracleScorer(corpus)
    steps = align_steps(rec.segments, rec.transcript, AlignerConfig(theta=0.7), corpus.vocab, mode="whitespace")
    [result] = align_recordings([steps], oracle, oracle)
    assert [(p.segment_id, p.span.l_s, p.span.l_e) for p in result.accepted] == [
        ("u0", 1, 3),
        ("u1", 4, 6),
    ]
    assert [r.segment_id for r in result.rejected] == ["f0"]
    # the filler produced at least one queue append before its candidates ran out
    assert any(c.empty_span for c in result.rejected[0].candidates)


def test_align_recording_theta_above_reach_rejects_all():
    corpus, rec = _mini_corpus([3, 3, 2])
    oracle = OracleScorer(corpus)
    steps = align_steps(rec.segments, rec.transcript, AlignerConfig(theta=1.0), corpus.vocab, mode="whitespace")
    [result] = align_recordings([steps], oracle, oracle)
    assert result.accepted == ()
    assert len(result.rejected) == len(rec.segments)


def test_align_recording_transcript_exhausted():
    corpus, rec = _mini_corpus([3])
    # a second segment after the transcript is fully consumed
    extra = Segment(10.0, 11.0, "tail", "rec")
    from lsalign.corpus import Recording, SimCorpus

    rec2 = Recording("rec", rec.segments + (extra,), rec.transcript, rec.truth + (None,))
    corpus2 = SimCorpus(corpus.config, corpus.vocab, (rec2,))
    oracle = OracleScorer(corpus2)
    steps = align_steps(rec2.segments, rec2.transcript, AlignerConfig(theta=0.7), corpus2.vocab, mode="whitespace")
    [result] = align_recordings([steps], oracle, oracle)
    assert len(result.accepted) == 1
    assert result.rejected[0].segment_id == "tail"
    assert result.rejected[0].reason == REASON_TRANSCRIPT_EXHAUSTED
    assert result.final_queue == (4,)


def test_align_recording_queue_overflow_partial_result():
    vocab_size = 4
    uniform = PosteriorRow(0.01, 0.2475, 0.2475)  # never argmax-eos, low confidence
    scorer = SameRowScorer(uniform)
    segments = [Segment(0.0, 1.0, "s0", "r"), Segment(1.5, 2.5, "s1", "r")]
    transcript = TokenSequence(tuple(i % vocab_size for i in range(30)))
    vocab = Vocabulary(tuple(chr(ord("a") + i) for i in range(vocab_size)))
    cfg = AlignerConfig(theta=0.9, max_token_rate=1.0, queue_cap=3)
    [result] = align_recordings([align_steps(segments, transcript, cfg, vocab)], scorer, scorer)
    assert result.partial
    assert result.accepted == ()
    assert {r.segment_id for r in result.rejected} == {"s0", "s1"}
    assert result.rejected[0].reason == REASON_QUEUE_OVERFLOW
    assert result.rejected[1].candidates == ()


def test_align_recording_is_deterministic():
    corpus, rec = _mini_corpus([4, 3, 5], filler_after=1)
    oracle = OracleScorer(corpus)
    cfg = AlignerConfig(theta=0.7)

    def run():
        steps = align_steps(rec.segments, rec.transcript, cfg, corpus.vocab, mode="whitespace")
        return align_recordings([steps], oracle, oracle)[0]

    runs = [run(), run()]  # one after the other, not driven together
    assert runs[0] == runs[1]
    assert runs[0].trace == runs[1].trace


# -- invariants over noisy corpora ---------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_accepted_spans_strictly_increasing_under_noise(seed):
    cfg = SimConfig(
        n_recordings=2, tokens_per_utterance=(2, 7), utterances_per_recording=(2, 5),
        vocab_size=9, filler_segment_prob=0.2, eps_eos_miss=0.2, eps_eos_false=0.1,
        concentration=0.9, seed=seed,
    )
    corpus = generate_corpus(cfg)
    oracle = OracleScorer(corpus)
    align_cfg = AlignerConfig(theta=0.6)
    for rec in corpus.recordings:
        steps = align_steps(rec.segments, rec.transcript, align_cfg, corpus.vocab, mode="whitespace")
        [result] = align_recordings([steps], oracle, oracle)
        prev_end = 0
        for pair in result.accepted:
            assert pair.span.l_s > prev_end
            prev_end = pair.span.l_e
            assert align_cfg.theta <= pair.confidence <= 1.0


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=9),
)
@settings(max_examples=200)
def test_gate_monotone_in_theta_for_fixed_candidate(theta_lo, theta_hi, posts):
    theta_lo, theta_hi = sorted((theta_lo, theta_hi))
    cand = CandidateResult(1, len(posts), 1, False, tuple(posts), confidence(posts))
    if candidate_accepted(cand, theta_hi):
        assert candidate_accepted(cand, theta_lo)


def test_empty_span_candidate_never_accepted():
    cand = CandidateResult(1, 1, 1, False, (), 0.0)
    assert not candidate_accepted(cand, 0.0)


def test_candidate_result_validates_shape():
    with pytest.raises(ValidationError):
        CandidateResult(5, 4, 4, False, (0.5,), 0.5)  # l_start past l_e
    with pytest.raises(ValidationError):
        CandidateResult(1, 3, 4, False, (0.5,), 0.5)  # l_s past l_e
    with pytest.raises(ValidationError):
        CandidateResult(1, 3, 2, False, (0.5,), 0.5)  # 1 posterior for 2 tokens


def test_scan_cap_formula():
    assert scan_cap(1.0, 25.0) == 25
    assert scan_cap(0.01, 25.0) == 1
    assert scan_cap(0.5, 10.0) == 5
