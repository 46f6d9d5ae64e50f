import itertools
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsalign.aligner import AlignerConfig, align_recording
from lsalign.core import ValidationError
from lsalign.corpus import SimConfig
from lsalign.metrics import evaluate_with_truth, evaluate_without_truth
from lsalign.oracle import OracleScorer
from lsalign.scorer import (
    Direction,
    EosRule,
    PosteriorRow,
    ScanRequest,
    UnknownSegment,
)
from lsalign.simulator import (
    TooLargeForOracle,
    generate_corpus,
    reference_align,
    results_equivalent,
)
from test_scorer import EVERY_ROW, one_row, rows_one_by_one


def test_same_seed_identical_corpora():
    cfg = SimConfig(n_recordings=4, filler_segment_prob=0.3, seed=123)
    assert generate_corpus(cfg) == generate_corpus(cfg)


def test_different_seed_differs():
    a = generate_corpus(SimConfig(seed=1))
    b = generate_corpus(SimConfig(seed=2))
    assert a != b


def test_filler_prob_zero_means_no_fillers():
    corpus = generate_corpus(SimConfig(n_recordings=5, filler_segment_prob=0.0, seed=9))
    for rec in corpus.recordings:
        assert all(span is not None for span in rec.truth)


def test_segment_counts_in_configured_range():
    cfg = SimConfig(
        n_recordings=10, utterances_per_recording=(3, 5), filler_segment_prob=0.0, seed=4
    )
    corpus = generate_corpus(cfg)
    total = sum(len(r.segments) for r in corpus.recordings)
    assert 30 <= total <= 50


def test_truth_spans_tile_transcript():
    cfg = SimConfig(n_recordings=6, filler_segment_prob=0.4, seed=77)
    corpus = generate_corpus(cfg)
    for rec in corpus.recordings:
        spans = [s for s in rec.truth if s is not None]
        pos = 1
        for span in spans:
            assert span.l_s == pos
            pos = span.l_e + 1
        assert pos == len(rec.transcript) + 1


def test_segments_sorted_nonoverlapping():
    corpus = generate_corpus(SimConfig(n_recordings=4, filler_segment_prob=0.3, seed=5))
    for rec in corpus.recordings:
        prev_end = -1.0
        for seg in rec.segments:
            assert seg.start_sec >= prev_end
            prev_end = seg.end_sec


def test_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(vocab_size=1)
    with pytest.raises(ValidationError):
        SimConfig(tokens_per_utterance=(3, 2))
    with pytest.raises(ValidationError):
        SimConfig(eps_eos_miss=1.0)
    with pytest.raises(ValidationError):
        SimConfig(concentration=0.0)


# -- oracle rows ------------------------------------------------------------------


def _single_utterance_corpus(eps_false=0.0, eps_miss=0.0, c=0.9, vocab_size=5, seed=0):
    cfg = SimConfig(
        n_recordings=1,
        tokens_per_utterance=(6, 6),
        utterances_per_recording=(1, 1),
        vocab_size=vocab_size,
        eps_eos_false=eps_false,
        eps_eos_miss=eps_miss,
        concentration=c,
        seed=seed,
    )
    return generate_corpus(cfg)


def test_oracle_boundary_row_noise_free_is_pure_eos():
    corpus = _single_utterance_corpus()
    rec = corpus.recordings[0]
    oracle = OracleScorer(corpus)
    span = rec.truth[0]
    prefix = rec.transcript.slice_ids(span.l_s, span.l_e)  # ends exactly at b
    row = one_row(oracle, rec.segments[0].segment_id, Direction.FORWARD, prefix)
    assert row.eos_mass == 1.0


def test_oracle_midspan_row_arithmetic():
    # eps_eos_false=0.1, c=0.9, vocab 5 -> eos 0.1, correct 0.81, others 0.0225
    corpus = _single_utterance_corpus(eps_false=0.1, c=0.9, vocab_size=5, seed=0)
    rec = corpus.recordings[0]
    oracle = OracleScorer(corpus)
    sid = rec.segments[0].segment_id
    hit = None
    for l in range(1, len(rec.transcript)):  # mid-span: prediction target l+1 <= b
        if oracle._draw(sid, Direction.FORWARD, l) >= 0.1:  # not a false-fire event
            hit = l
            break
    assert hit is not None
    prefix = rec.transcript.slice_ids(1, hit)
    correct_id = rec.transcript.token_id_at(hit + 1)
    rows = [one_row(oracle, sid, Direction.FORWARD, prefix, i) for i in range(5)]
    row = rows[correct_id]
    assert row.eos_mass == pytest.approx(0.1)
    assert row.next_mass == row.top_mass == pytest.approx(0.81)
    others = [r.next_mass for i, r in enumerate(rows) if i != correct_id]
    assert others == pytest.approx([0.0225] * 4)
    assert all((r.eos_mass, r.top_mass) == (row.eos_mass, row.top_mass) for r in rows)
    assert abs(sum(r.next_mass for r in rows) + row.eos_mass - 1.0) <= 1e-9


def test_oracle_midspan_false_fire_event_spikes_eos():
    corpus = _single_utterance_corpus(eps_false=0.4, c=0.9, vocab_size=5, seed=3)
    rec = corpus.recordings[0]
    oracle = OracleScorer(corpus)
    sid = rec.segments[0].segment_id
    hit = None
    for l in range(1, len(rec.transcript)):
        if oracle._draw(sid, Direction.FORWARD, l) < 0.4:
            hit = l
            break
    assert hit is not None
    prefix = rec.transcript.slice_ids(1, hit)
    row = one_row(oracle, sid, Direction.FORWARD, prefix)
    assert row.eos_mass == pytest.approx(1.0)  # spike = 1 - eps_eos_miss


def test_oracle_unmatched_prefix_is_pure_eos():
    corpus = _single_utterance_corpus(vocab_size=4)
    rec = corpus.recordings[0]
    oracle = OracleScorer(corpus)
    # a prefix longer than the transcript cannot match anywhere
    prefix = tuple(rec.transcript.ids) + (0, 0, 0)
    row = one_row(oracle, rec.segments[0].segment_id, Direction.FORWARD, prefix)
    assert row.eos_mass == 1.0


def test_oracle_unknown_segment():
    corpus = _single_utterance_corpus()
    oracle = OracleScorer(corpus)
    with pytest.raises(UnknownSegment):
        one_row(oracle, "ghost", Direction.FORWARD, (0,))
    with pytest.raises(UnknownSegment):
        oracle.scan(ScanRequest("ghost", Direction.BACKWARD, (0,), 0, EosRule()))


def test_oracle_filler_fires_on_first_backward_query():
    cfg = SimConfig(n_recordings=2, filler_segment_prob=0.9, seed=8)
    corpus = generate_corpus(cfg)
    oracle = OracleScorer(corpus)
    fillers = [
        seg.segment_id
        for rec in corpus.recordings
        for seg, span in zip(rec.segments, rec.truth)
        if span is None
    ]
    assert fillers
    row = one_row(oracle, fillers[0], Direction.BACKWARD, ())
    assert row.eos_mass == 1.0
    later = one_row(oracle, fillers[0], Direction.BACKWARD, (0,))
    assert later.eos_mass == 0.0  # flat continuation row, eos at eps_eos_false


def test_oracle_backward_empty_prefix_predicts_final_token():
    corpus = _single_utterance_corpus(c=0.9, vocab_size=6)
    rec = corpus.recordings[0]
    oracle = OracleScorer(corpus)
    final_id = rec.transcript.token_id_at(rec.truth[0].l_e)
    row = one_row(oracle, rec.segments[0].segment_id, Direction.BACKWARD, (), final_id)
    assert row.next_mass == row.top_mass > row.eos_mass


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=8))
@settings(max_examples=150)
def test_oracle_rows_always_normalized(seed, prefix_len):
    cfg = SimConfig(
        n_recordings=1, vocab_size=5, eps_eos_false=0.2, eps_eos_miss=0.1,
        concentration=0.8, seed=seed % 50,
    )
    corpus = generate_corpus(cfg)
    rec = corpus.recordings[0]
    oracle = OracleScorer(corpus)
    ids = rec.transcript.ids
    prefix = ids[: min(prefix_len, len(ids))]
    for direction in (Direction.FORWARD, Direction.BACKWARD):
        # the row's next mass for each token id spells out its whole distribution
        rows = [one_row(oracle, rec.segments[0].segment_id, direction, tuple(prefix), i) for i in range(5)]
        assert len({(row.eos_mass, row.top_mass) for row in rows}) == 1
        assert abs(sum(row.next_mass for row in rows) + rows[0].eos_mass - 1.0) <= 1e-6
        assert max(row.next_mass for row in rows) == rows[0].top_mass
        assert all(row.next_mass >= 0 for row in rows)


def test_oracle_builds_rows_sparse():
    # V=3000: concentrated, flat and pure-eos rows hold three numbers (eos,
    # top, next), never a mass per token id
    corpus = _single_utterance_corpus(eps_false=0.1, eps_miss=0.1, c=0.9, vocab_size=3000)
    rec = corpus.recordings[0]
    oracle = OracleScorer(corpus)
    sid = rec.segments[0].segment_id
    ids = rec.transcript.ids
    mid = one_row(oracle, sid, Direction.FORWARD, ids[:2], ids[2])
    assert mid.top_mass == mid.next_mass == (1.0 - mid.eos_mass) * 0.9
    other = next(i for i in range(3000) if i != ids[2])
    miss = one_row(oracle, sid, Direction.FORWARD, ids[:2], other)
    assert miss.next_mass == ((1.0 - mid.eos_mass) * (1.0 - 0.9)) / 2999
    # the whole transcript consumed: the next position lies past the span
    flat = one_row(oracle, sid, Direction.FORWARD, ids, 0)
    assert 0.0 < flat.top_mass == flat.next_mass == (1.0 - flat.eos_mass) / 3000
    assert one_row(oracle, sid, Direction.FORWARD, ids).next_mass is None
    lost = one_row(oracle, sid, Direction.FORWARD, ids + ids, 0)
    assert (lost.eos_mass, lost.top_mass, lost.next_mass) == (1.0, 0.0, 0.0)


def test_oracle_shared_by_threads_answers_as_alone():
    """A served oracle answers its connections from several threads, which
    share its row cache and position index: no thread may see either half
    built. Each scan starts one token before its span, near the end of the
    transcript, so its boundary anchor fails and the first scans of every
    thread need the index up to its end."""
    corpus = generate_corpus(SimConfig(
        n_recordings=1, utterances_per_recording=(200, 200), tokens_per_utterance=(5, 15),
        eps_eos_miss=0.05, eps_eos_false=0.05, seed=5,
    ))
    rec = corpus.recordings[0]
    whole = EosRule("threshold", 1.0)  # only a pure-eos row ends a scan early
    reqs = [
        ScanRequest(seg.segment_id, Direction.FORWARD, rec.transcript.ids[span.l_s - 2 : span.l_e + 3], 1, whole)
        for seg, span in zip(rec.segments[-5:], rec.truth[-5:])  # indexed last
    ]
    expected = [OracleScorer(corpus).scan(req) for req in reqs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            shared = OracleScorer(corpus)
            answers: dict[int, list] = {}
            start = threading.Barrier(4, timeout=60)

            def work(i):
                start.wait()
                answers[i] = [shared.scan(req) for req in reqs]

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert [answers[i] == expected for i in range(4)] == [True] * 4
    finally:
        sys.setswitchinterval(interval)


def test_oracle_is_deterministic():
    corpus = _single_utterance_corpus(eps_false=0.3, eps_miss=0.2, seed=6)
    rec = corpus.recordings[0]
    a = OracleScorer(corpus)
    b = OracleScorer(corpus)
    req = ScanRequest(rec.segments[0].segment_id, Direction.FORWARD, rec.transcript.ids, 2, EosRule())
    assert a.scan(req) == b.scan(req) == a.scan(req)


@pytest.mark.parametrize(
    "fillers, eps, most",
    [(0.0, 0.0, 4), (0.1, 0.01, 10)],
    ids=["clean", "noisy"],
)
def test_oracle_builds_each_distinct_row_once(monkeypatch, fillers, eps, most):
    """Rows are shared values: an align of a V = 3000 recording builds, and
    checks, each distinct row once, a handful however long the recording,
    where it answers thousands of rows."""
    built = []
    check = PosteriorRow.__post_init__

    def counted(row):
        built.append(row)
        check(row)

    monkeypatch.setattr(PosteriorRow, "__post_init__", counted)
    for utterances in (50, 200):
        corpus = generate_corpus(SimConfig(
            n_recordings=1, utterances_per_recording=(utterances, utterances),
            tokens_per_utterance=(10, 30), vocab_size=3000, filler_segment_prob=fillers,
            eps_eos_miss=eps, eps_eos_false=eps, seed=3,
        ))
        rec = corpus.recordings[0]
        answered = []

        class Counting(OracleScorer):
            def scan(self, req):
                rows = super().scan(req)
                answered.extend(rows)
                return rows

        built.clear()
        oracle = Counting(corpus)
        align_recording(rec.segments, rec.transcript, oracle, oracle, AlignerConfig(), corpus.vocab)
        assert len(built) <= most
        assert len(answered) > 100 * most


# -- exact recovery and the reference interpreter -------------------------------------


def test_noise_free_exact_recovery_across_seeds():
    for seed in range(100):
        cfg = SimConfig(
            n_recordings=1, tokens_per_utterance=(2, 6), utterances_per_recording=(2, 4),
            vocab_size=2 + seed % 10, filler_segment_prob=(0.0, 0.25)[seed % 2],
            concentration=0.95, seed=seed,
        )
        corpus = generate_corpus(cfg)
        oracle = OracleScorer(corpus)
        rec = corpus.recordings[0]
        result = align_recording(
            rec.segments, rec.transcript, oracle, oracle, AlignerConfig(theta=0.7),
            corpus.vocab, mode="whitespace",
        )
        report = evaluate_with_truth([(result, rec)])
        assert report.span_exact_match == 1.0, f"seed {seed}"
        assert report.cer_non_rejected == 0.0, f"seed {seed}"
        assert report.nrr == 1.0, f"seed {seed}"


def test_reference_align_rejects_large_instances():
    corpus = generate_corpus(SimConfig(n_recordings=1, seed=0))
    rec = corpus.recordings[0]
    oracle = OracleScorer(corpus)
    with pytest.raises(TooLargeForOracle):
        reference_align(rec, oracle, oracle, AlignerConfig(), corpus.vocab)


def tiny_instances(n, start_seed=0):
    """Deterministic stream of instances within the reference bounds."""
    produced = 0
    eps_grid = [(0.0, 0.0), (0.0, 0.15), (0.3, 0.0), (0.4, 0.25)]
    for seed in itertools.count(start_seed):
        if produced == n:
            return
        miss, false = eps_grid[seed % len(eps_grid)]
        cfg = SimConfig(
            n_recordings=1, tokens_per_utterance=(1, 4), utterances_per_recording=(1, 2),
            vocab_size=2 + seed % 7, filler_segment_prob=0.3,
            eps_eos_miss=miss, eps_eos_false=false, concentration=0.9, seed=seed,
        )
        corpus = generate_corpus(cfg)
        rec = corpus.recordings[0]
        if len(rec.transcript) > 8 or len(rec.segments) > 3:
            continue
        produced += 1
        yield seed, corpus, rec


@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_engine_matches_reference_on_tiny_instances(theta):
    for seed, corpus, rec in tiny_instances(150):
        oracle = OracleScorer(corpus)
        cfg = AlignerConfig(theta=theta)

        fast = align_recording(
            rec.segments, rec.transcript, oracle, oracle, cfg, corpus.vocab, mode="whitespace"
        )
        reference = reference_align(rec, oracle, oracle, cfg, corpus.vocab)
        assert results_equivalent(fast, reference), f"seed {seed}"


def test_theta_zero_accepts_first_nondegenerate_candidate():
    for seed, corpus, rec in tiny_instances(40, start_seed=500):
        oracle = OracleScorer(corpus)
        result = reference_align(rec, oracle, oracle, AlignerConfig(theta=0.0), corpus.vocab)
        for rejected in result.rejected:
            # with theta 0 only degenerate (empty-span) candidates can fail
            assert all(c.empty_span for c in rejected.candidates)


class _ScanLog(OracleScorer):
    def __init__(self, corpus):
        super().__init__(corpus)
        self.asked = []  # not `scans`, the name of the method that calls scan

    def scan(self, req):
        rows = super().scan(req)
        self.asked.append((req, rows))
        return rows


@pytest.mark.parametrize("eos_rule, p_eos_min", [("argmax", 0.5), ("threshold", 0.5)])
def test_engine_asks_the_oracle_what_the_per_prefix_reference_asks(eos_rule, p_eos_min):
    """Every scan the engine makes returns the rows of the per-prefix loop,
    and those rows answer the same prefixes and next tokens, in the same
    order, as the reference's one-row scans."""
    corpus = generate_corpus(SimConfig(
        n_recordings=3, utterances_per_recording=(4, 6), tokens_per_utterance=(3, 8),
        filler_segment_prob=0.2, eps_eos_miss=0.02, eps_eos_false=0.02, seed=41,
    ))
    cfg = AlignerConfig(eos_rule=EosRule(eos_rule, p_eos_min))
    plain = OracleScorer(corpus)
    for rec in corpus.recordings:
        engine, reference = _ScanLog(corpus), _ScanLog(corpus)
        align_recording(rec.segments, rec.transcript, engine, engine, cfg, corpus.vocab)
        reference_align(rec, reference, reference, cfg, corpus.vocab,
                        max_tokens=len(rec.transcript), max_segments=len(rec.segments))
        answered = []
        for req, rows in engine.asked:
            assert rows == rows_one_by_one(plain, req)
            following = req.tokens + (None,)
            answered += [
                (req.segment_id, req.direction, req.tokens[:end], following[end])
                for end in range(req.first, req.first + len(rows))
            ]
        asked = []
        for req, rows in reference.asked:
            # one prefix, and the token after it, per request
            assert req.first >= len(req.tokens) - 1 and len(rows) == 1
            following = req.tokens + (None,)
            asked.append((req.segment_id, req.direction, req.tokens[: req.first], following[req.first]))
        assert answered and answered == asked


class _SliceAnchoredOracle(OracleScorer):
    """Anchors every prefix from scratch by slice comparison: the scan that
    starts at the span boundary if it matches, else the leftmost exact match,
    and builds each row anew from its masses. Answers one-row scans only."""

    def scan(self, req):
        assert req.rule == EVERY_ROW
        following = req.tokens + (None,)
        return [self._anchored_row(req.segment_id, req.direction, req.tokens[: req.first], following[req.first])]

    def _anchored_row(self, segment_id, direction, prefix, next_id):
        _, ids, span = self._entries[segment_id]
        forward = direction is Direction.FORWARD
        if span is None:
            first_backward = not forward and not prefix
            return self._flat_row(1.0 - self._eps_miss if first_backward else self._eps_false, next_id)
        a, b, k = span.l_s, span.l_e, len(prefix)
        text = prefix if forward else prefix[::-1]
        starts = [s for s in range(1, len(ids) - k + 2) if ids[s - 1 : s - 1 + k] == text]
        at_boundary = a if forward else b - k + 1
        if k == 0:
            if forward:
                return self._pure_eos_row(next_id)
            pos = b + 1
        elif starts:
            s = at_boundary if at_boundary in starts else starts[0]
            pos = s + k - 1 if forward else s
        else:
            return self._pure_eos_row(next_id)
        boundary = pos == (b if forward else a)
        target = pos + 1 if forward else pos - 1
        eos_mass = self._eos_mass(segment_id, direction, pos, boundary)
        if (a <= target <= b or boundary) and 1 <= target <= len(ids):
            return self._concentrated_row(ids[target - 1], eos_mass, next_id)
        return self._flat_row(eos_mass, next_id)

    def _eos_mass(self, segment_id, direction, pos, boundary):
        spike, base = 1.0 - self._eps_miss, self._eps_false
        if not self._noisy:
            return spike if boundary else base
        u = self._draw(segment_id, direction, pos)
        if boundary:
            return base if u < self._eps_miss else spike
        return spike if u < self._eps_false else base

    def _concentrated_row(self, target_id, eos_mass, next_id):
        rest = 1.0 - eos_mass
        hit = rest * self._c
        share = (rest * (1.0 - self._c)) / (self._vocab_size - 1)
        nxt = None if next_id is None else hit if next_id == target_id else share
        return PosteriorRow(eos_mass, max(hit, share), nxt)

    def _flat_row(self, eos_mass, next_id):
        if eos_mass == self._eps_false:
            eos_mass = min(eos_mass, 0.5 / (self._vocab_size + 1))
        share = (1.0 - eos_mass) / self._vocab_size
        return PosteriorRow(eos_mass, share, None if next_id is None else share)

    def _pure_eos_row(self, next_id):
        return PosteriorRow(1.0, 0.0, None if next_id is None else 0.0)


@st.composite
def _scan_windows(draw, ids, direction, vocab_size):
    """A stretch of the transcript in scan order, as it is, with one token
    replaced, or running on past the transcript's edge; or random tokens
    that may match nowhere."""
    token = st.integers(min_value=0, max_value=vocab_size - 1)
    kind = draw(st.sampled_from(["stretch", "edited", "past the edge", "random"]))
    if kind == "random":
        return tuple(draw(st.lists(token, max_size=len(ids) + 2)))
    lo = draw(st.integers(min_value=1, max_value=len(ids)))
    hi = draw(st.integers(min_value=lo, max_value=len(ids)))
    if kind == "past the edge":  # the stretch reaches the edge the scan runs towards
        lo, hi = (lo, len(ids)) if direction is Direction.FORWARD else (1, hi)
    window = ids[lo - 1 : hi] if direction is Direction.FORWARD else ids[lo - 1 : hi][::-1]
    if kind == "edited":
        i = draw(st.integers(min_value=0, max_value=len(window) - 1))
        window = window[:i] + (draw(token),) + window[i + 1 :]
    if kind == "past the edge":
        window += tuple(draw(st.lists(token, min_size=1, max_size=3)))
    return window


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    vocab_size=st.sampled_from([3, 3, 5, 12]),  # at V=3 a window matches many times
    eps=st.sampled_from([(0.0, 0.0), (0.2, 0.0), (0.0, 0.2), (0.15, 0.15)]),
    rule=st.sampled_from([EosRule(), EosRule("threshold", 0.5), EosRule("threshold", 1.0)]),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_oracle_scan_returns_the_rows_of_the_per_prefix_loop(seed, vocab_size, eps, rule, data):
    corpus = generate_corpus(SimConfig(
        n_recordings=1, utterances_per_recording=(2, 5), tokens_per_utterance=(1, 6),
        vocab_size=vocab_size, filler_segment_prob=0.3, eps_eos_miss=eps[0], eps_eos_false=eps[1],
        concentration=0.9, seed=seed,
    ))
    rec = corpus.recordings[0]
    segment = data.draw(st.sampled_from(rec.segments))
    direction = data.draw(st.sampled_from(list(Direction)))
    tokens = data.draw(_scan_windows(rec.transcript.ids, direction, vocab_size))
    first = data.draw(st.integers(min_value=0, max_value=len(tokens)))
    req = ScanRequest(segment.segment_id, direction, tokens, first, rule)
    oracle = OracleScorer(corpus)
    rows = oracle.scan(req)
    assert rows == rows_one_by_one(oracle, req)
    assert rows == rows_one_by_one(_SliceAnchoredOracle(corpus), req)


@pytest.mark.parametrize(
    "vocab_size, fillers, eps_miss, eps_false, seed, length, accepted, nrr, partial",
    [
        pytest.param(12, 0.1, 0.0, 0.0, 3, 4185, "200/221", 1.000, False, id="12-0.1-0.0-0.0"),
        pytest.param(3000, 0.1, 0.0, 0.0, 3, 4185, "200/220", 1.000, False, id="3000-0.1-0.0-0.0"),
        pytest.param(12, 0.0, 0.02, 0.0, 3, 4185, "195/200", 0.968, False, id="12-0.0-0.02-0.0"),
        pytest.param(3000, 0.0, 0.02, 0.0, 3, 4185, "195/200", 0.968, False, id="3000-0.0-0.02-0.0"),
        pytest.param(12, 0.0, 0.0, 0.02, 3, 4185, "195/200", 0.736, False, id="12-0.0-0.0-0.02"),
        pytest.param(3000, 0.0, 0.0, 0.02, 3, 4185, "198/200", 0.696, False, id="3000-0.0-0.0-0.02"),
        pytest.param(12, 0.1, 0.01, 0.01, 3, 4185, "195/221", 0.871, False, id="12-0.1-0.01-0.01"),
        pytest.param(12, 0.0, 0.0, 0.05, 5, 3934, "165/200", 0.503, True, id="12-0.0-0.0-0.05-seed5"),
    ],
)
def test_engine_matches_reference_on_a_long_noisy_recording(
    vocab_size, fillers, eps_miss, eps_false, seed, length, accepted, nrr, partial
):
    """One 200-utterance recording: engine and reference agree at real
    scale, for fillers, missed eos and false eos alike, at V = 12 and
    V = 3000. With two in-segment retries, fillers no longer walk the
    queue into its cap; heavy false-eos noise still does, so a partial
    result is checked at real scale too."""
    corpus = generate_corpus(SimConfig(
        n_recordings=1, utterances_per_recording=(200, 200), tokens_per_utterance=(10, 30),
        vocab_size=vocab_size, filler_segment_prob=fillers,
        eps_eos_miss=eps_miss, eps_eos_false=eps_false, seed=seed,
    ))
    rec = corpus.recordings[0]
    assert len(rec.transcript) == length
    oracle = OracleScorer(corpus)
    cfg = AlignerConfig()
    engine = align_recording(
        rec.segments, rec.transcript, oracle, oracle, cfg, corpus.vocab, mode="whitespace"
    )
    reference = reference_align(rec, oracle, oracle, cfg, corpus.vocab,
                                max_tokens=len(rec.transcript), max_segments=len(rec.segments))
    assert f"{len(engine.accepted)}/{len(rec.segments)}" == accepted
    assert round(evaluate_without_truth([(engine, rec.transcript)]).nrr, 3) == nrr
    assert engine.partial is partial
    assert results_equivalent(engine, reference)
