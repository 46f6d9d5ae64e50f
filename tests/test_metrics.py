from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsalign.aligner import AlignedPair, AlignmentResult, RejectedSegment
from lsalign.core import Segment, Span, TokenSequence
from lsalign.corpus import Recording
from lsalign.metrics import (
    EditCounts,
    edit_distance,
    evaluate_with_truth,
    evaluate_without_truth,
)


def lev_recursive(a, b):
    """Branch-everything Levenshtein distance; independent of the DP."""

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if a[i] == b[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j + 1), go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def test_identity_has_no_edits():
    assert edit_distance("abc", "abc") == EditCounts(0, 0, 0)


def test_single_substitution():
    assert edit_distance("axc", "abc") == EditCounts(1, 0, 0)


def test_kitten_sitting_total_three():
    counts = edit_distance("kitten", "sitting")
    assert counts.total == 3
    assert counts.total == lev_recursive("kitten", "sitting")


def test_pure_insertions_and_deletions():
    assert edit_distance("abc", "a") == EditCounts(0, 2, 0)
    assert edit_distance("a", "abc") == EditCounts(0, 0, 2)
    assert edit_distance("", "abc") == EditCounts(0, 0, 3)
    assert edit_distance("abc", "") == EditCounts(0, 3, 0)


def test_tie_prefers_substitutions():
    # "ab" -> "ba" can be 2 subs or ins+del; substitutions win
    assert edit_distance("ab", "ba") == EditCounts(2, 0, 0)


short_seq = st.lists(st.sampled_from("abc"), min_size=0, max_size=6).map(tuple)


@given(short_seq, short_seq)
@settings(max_examples=300)
def test_dp_matches_recursive_oracle(a, b):
    assert edit_distance(a, b).total == lev_recursive(a, b)


def counts_recursive(a, b):
    """Branch-everything search for the fewest edits, then the most
    substitutions; independent of the DP's packed key."""

    @lru_cache(maxsize=None)
    def go(i, j):  # (total, -subs, ins) of the best way to finish from (i, j)
        if i == len(a):
            return (len(b) - j, 0, 0)
        if j == len(b):
            return (len(a) - i, 0, len(a) - i)
        total, neg_subs, ins = go(i + 1, j + 1)
        if a[i] != b[j]:
            total, neg_subs = total + 1, neg_subs - 1
        options = [(total, neg_subs, ins)]
        total, neg_subs, ins = go(i + 1, j)  # a[i] inserted
        options.append((total + 1, neg_subs, ins + 1))
        total, neg_subs, ins = go(i, j + 1)  # b[j] deleted
        options.append((total + 1, neg_subs, ins))
        return min(options)

    total, neg_subs, ins = go(0, 0)
    return EditCounts(-neg_subs, ins, total + neg_subs - ins)


# two short sequences around a shared prefix and suffix (either may be
# empty), so the DP's prefix/suffix trim is exercised against the oracle
affixed_pair = st.tuples(short_seq, short_seq, short_seq, short_seq).map(
    lambda parts: (parts[0] + parts[1] + parts[3], parts[0] + parts[2] + parts[3])
)


@given(affixed_pair)
@settings(max_examples=300)
def test_dp_counts_match_recursive_tie_break(pair):
    a, b = pair
    assert edit_distance(a, b) == counts_recursive(a, b)


@given(affixed_pair)
@settings(max_examples=300)
def test_swap_symmetry(pair):
    a, b = pair
    ab = edit_distance(a, b)
    ba = edit_distance(b, a)
    assert (ab.subs, ab.ins, ab.dels) == (ba.subs, ba.dels, ba.ins)


@given(short_seq)
def test_self_distance_zero(a):
    assert edit_distance(a, a) == EditCounts(0, 0, 0)


@given(short_seq, short_seq, short_seq)
@settings(max_examples=200)
def test_triangle_inequality_on_totals(a, b, c):
    assert edit_distance(a, c).total <= edit_distance(a, b).total + edit_distance(b, c).total


def _result(accepted, rejected=(), rid="rec"):
    return AlignmentResult(
        recording_id=rid,
        accepted=tuple(accepted),
        rejected=tuple(rejected),
        final_queue=(),
        trace=(),
    )


def _recording(transcript, truth, rid="rec"):
    """A recording of ``transcript`` with one segment per ``truth`` entry
    (segment id -> true span or None), in that order."""
    segments = tuple(Segment(float(i), i + 1.0, sid, rid) for i, sid in enumerate(truth))
    return Recording(rid, segments, transcript, tuple(truth.values()))


def test_pooled_cer_pools_before_dividing():
    transcript = TokenSequence((0, 1, 2, 3, 4, 5))
    truth = {"s1": Span(1, 3), "s2": Span(4, 5)}
    # s1 is exact; s2 reads (5,) for (3, 4): 1 sub + 1 del
    result = _result([AlignedPair("s1", Span(1, 3), 0.9, ""), AlignedPair("s2", Span(6, 6), 0.9, "")])
    report = evaluate_with_truth([(result, _recording(transcript, truth))])
    # 2 edits over 5 pooled reference tokens, not the mean of 0/3 and 2/2
    assert report.cer_non_rejected == pytest.approx(2 / 5)
    assert report.cer_with_rejected_as_deletions == pytest.approx(2 / 5)


def _segment_cer(ids, hyp_span, truth_span):
    """CER of one accepted segment, read through the corpus evaluation."""
    result = _result([AlignedPair("s", hyp_span, 0.9, "")])
    report = evaluate_with_truth([(result, _recording(TokenSequence(ids), {"s": truth_span}))])
    return report.cer_non_rejected


def test_cer_examples():
    ids = (0, 1, 2, 0, 3, 2)  # "abc" then "axc"
    assert _segment_cer(ids, Span(1, 3), Span(1, 3)) == 0.0
    assert _segment_cer(ids, Span(4, 6), Span(1, 3)) == pytest.approx(1 / 3)
    # a filler read as two tokens has no reference tokens: its edits divide by 1
    assert _segment_cer(ids, Span(1, 2), None) == 2.0


def test_cer_can_exceed_one():
    ids = (0, 0, 0, 0, 1)  # "aaaa" read for "b"
    assert _segment_cer(ids, Span(1, 4), Span(5, 5)) == 4.0


def test_nrr_counts_accepted_span_tokens():
    transcript = TokenSequence((0, 1, 2, 3, 4, 5))

    def nrr(result):
        return evaluate_without_truth([(result, transcript)]).nrr

    full = _result([
        AlignedPair("s1", Span(1, 3), 0.9, ""),
        AlignedPair("s2", Span(4, 6), 0.9, ""),
    ])
    assert nrr(full) == 1.0
    assert nrr(_result([])) == 0.0
    partial = _result([
        AlignedPair("s1", Span(1, 3), 0.9, ""),
        AlignedPair("s2", Span(5, 6), 0.9, ""),
    ])
    assert nrr(partial) == pytest.approx(5 / 6)


def test_span_accuracy_counting():
    """Exact spans over true utterances: a rejected utterance is a miss,
    a filler does not count."""
    truth = {"s1": Span(1, 3), "s2": Span(4, 6), "f": None}

    def exact_match(accepted):
        recording = _recording(TokenSequence(tuple(range(6))), truth)
        return evaluate_with_truth([(_result(accepted), recording)]).span_exact_match

    assert exact_match([AlignedPair("s1", Span(1, 3), 0.9, ""), AlignedPair("s2", Span(4, 6), 0.9, "")]) == 1.0
    assert exact_match([AlignedPair("s1", Span(1, 3), 0.9, ""), AlignedPair("s2", Span(4, 5), 0.9, "")]) == 0.5
    assert exact_match([]) == 0.0


def test_evaluate_with_truth_cer_variants():
    transcript = TokenSequence((0, 1, 2, 3, 4, 5))
    truth = {"s1": Span(1, 3), "s2": Span(4, 6)}
    result = _result(
        [AlignedPair("s1", Span(1, 3), 0.9, "")],
        [RejectedSegment("s2", (), "below-threshold")],
    )
    report = evaluate_with_truth([(result, _recording(transcript, truth))])
    assert report.cer_non_rejected == 0.0  # the accepted segment is perfect
    assert report.cer_with_rejected_as_deletions == pytest.approx(3 / 6)
    assert report.nrr == pytest.approx(3 / 6)
    assert report.span_exact_match == pytest.approx(1 / 2)
    assert {s.segment_id: s.status for s in report.per_segment} == {
        "s1": "accepted",
        "s2": "rejected",
    }


def test_evaluate_without_truth_concat_cer():
    transcript = TokenSequence((0, 1, 2, 3))
    result = _result([AlignedPair("s1", Span(1, 2), 0.9, "")])
    report = evaluate_without_truth([(result, transcript)])
    assert report.nrr == 0.5
    assert report.cer_non_rejected is None
    assert report.cer_with_rejected_as_deletions == pytest.approx(2 / 4)
    assert report.span_exact_match is None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_evaluate_without_truth_cer_matches_edit_distance(data):
    # the closed form (only deletions) against the DP on ordered disjoint spans
    items = []
    edits = 0
    total = 0
    for rec in range(data.draw(st.integers(1, 3))):
        ids = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=12))
        cuts = sorted(data.draw(st.sets(st.integers(0, len(ids)), max_size=6)))
        pairs = [
            AlignedPair(f"s{i}", Span(a + 1, b), 0.9, "")
            for i, (a, b) in enumerate(zip(cuts[::2], cuts[1::2]))
        ]
        transcript = TokenSequence(tuple(ids))
        hyp = [t for p in pairs for t in transcript.slice_ids(p.span.l_s, p.span.l_e)]
        edits += edit_distance(hyp, transcript).total
        total += len(ids)
        items.append((_result(pairs, rid=f"rec{rec}"), transcript))
    report = evaluate_without_truth(items)
    assert report.cer_with_rejected_as_deletions == edits / total


def test_report_json_dict_is_stable():
    transcript = TokenSequence((0, 1))
    truth = {"s1": Span(1, 2)}
    result = _result([AlignedPair("s1", Span(1, 2), 0.9, "")])
    report = evaluate_with_truth([(result, _recording(transcript, truth))])
    d1 = report.to_json_dict()
    d2 = evaluate_with_truth([(result, _recording(transcript, truth))]).to_json_dict()
    assert d1 == d2
    assert d1["nrr"] == 1.0
    assert "value" in report.render_table()
