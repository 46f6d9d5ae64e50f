import math

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from lsalign.core import Vocabulary
from lsalign.scorer import (
    Direction,
    EosRule,
    PosteriorRow,
    ProtocolError,
    ScanRequest,
    UnknownSegment,
    vocab_digest,
)
from lsalign.scripted import (
    DuplicateKey,
    ScriptedScorer,
    UnknownKey,
    expand_sparse_row,
    load_scripted_scorer,
)


ARGMAX = EosRule()
EVERY_ROW = EosRule("threshold", 0.0)  # fires on every row: a scan of one row


def one_row(scorer, segment_id, direction, prefix, next_id=None):
    """A scorer's row for one prefix, given the token that follows it (if
    any): the first row of a scan that stops there."""
    prefix = tuple(prefix)
    window = prefix if next_id is None else prefix + (next_id,)
    rows = scorer.scan(ScanRequest(segment_id, direction, window, len(prefix), EVERY_ROW))
    assert len(rows) == 1
    return rows[0]


def rows_one_by_one(scorer, req):
    """The rows a scan must return, asked for one prefix at a time and
    stopped here, not by the code under test, after the first firing row."""
    rows = []
    following = req.tokens + (None,)
    for end in range(req.first, len(req.tokens) + 1):
        rows.append(one_row(scorer, req.segment_id, req.direction, req.tokens[:end], following[end]))
        if req.rule(rows[-1]):
            break
    return rows


def test_posterior_row_validates_sum():
    PosteriorRow(0.2, 0.8, 0.5)
    PosteriorRow(0.2, 0.8 + 5e-7)  # within the tolerance
    with pytest.raises(ValueError, match="sum to"):
        PosteriorRow(0.6, 0.5, 0.3)  # eos and the top token alone exceed 1
    with pytest.raises(ValueError):
        PosteriorRow(-0.2, 0.7)


def test_posterior_row_accessors():
    row = PosteriorRow(0.07, 0.81, 0.12)
    assert (row.eos_mass, row.top_mass, row.next_mass) == (0.07, 0.81, 0.12)
    assert PosteriorRow(0.07, 0.81).next_mass is None  # the whole window's row
    assert not ARGMAX(row)
    assert ARGMAX(PosteriorRow(0.6, 0.2, 0.2))


def scripted_one_row(listed, other, vocab_size, next_id=None):
    """The row a scripted scorer answers from one sparse row."""
    scorer = ScriptedScorer({("s", Direction.FORWARD, ()): expand_sparse_row(listed, other, vocab_size)})
    return one_row(scorer, "s", Direction.FORWARD, (), next_id)


def test_eos_argmax_tie_does_not_fire():
    assert not ARGMAX(PosteriorRow(0.5, 0.5, 0.0))
    # the same tie against the unlisted share
    assert not ARGMAX(scripted_one_row({"eos": 0.5}, 0.5, 1))
    assert not ARGMAX(scripted_one_row({"0": 0.1, "eos": 0.3}, 0.6, 3))


def test_posterior_row_unlisted_share_counts_in_argmax():
    # eos beats the only listed token but not the uniform remainder share
    assert not ARGMAX(scripted_one_row({"0": 0.1, "eos": 0.35}, 0.55, 2))
    assert ARGMAX(scripted_one_row({"0": 0.1, "eos": 0.35}, 0.55, 3))


@pytest.mark.parametrize(
    "make, args",
    [
        pytest.param(PosteriorRow, (-0.2, 0.5, 0.5), id="negative-eos"),
        pytest.param(PosteriorRow, (math.nan, 0.5, 0.5), id="nan-eos"),
        pytest.param(PosteriorRow, (math.inf, 0.0, None), id="infinite-eos"),
        pytest.param(PosteriorRow, (0.3, -0.1, None), id="negative-top"),
        pytest.param(PosteriorRow, (0.3, math.nan, None), id="nan-top"),
        pytest.param(PosteriorRow, (0.0, 1.5, None), id="top-above-one"),
        pytest.param(PosteriorRow, (0.3, 0.5, -0.2), id="negative-next"),
        pytest.param(PosteriorRow, (0.3, 0.5, math.nan), id="nan-next"),
        pytest.param(PosteriorRow, (0.3, 0.5, 0.6), id="next-above-top"),
        pytest.param(PosteriorRow, (0.3, 0.7 + 2e-6, None), id="sum-above-one"),
        # a row a scripted scorer would answer from a sparse row it cannot parse
        pytest.param(scripted_one_row, ({"2": 0.5, "eos": 0.5}, 0.0, 2), id="id-at-vocab-size"),
        pytest.param(scripted_one_row, ({"-1": 0.5, "eos": 0.5}, 0.0, 2), id="negative-id"),
        pytest.param(
            scripted_one_row, ({"0": 0.5, "1": 0.3, "eos": 0.1}, 0.1, 2), id="remainder-but-all-listed"
        ),
        pytest.param(scripted_one_row, ({"0": 0.5, "eos": 0.3}, 0.18, 2), id="sum-below-one"),
    ],
)
def test_posterior_row_rejects_invalid(make, args):
    # three numbers are refused with ValueError, a scripted sparse row with ProtocolError
    with pytest.raises(ValueError if make is PosteriorRow else ProtocolError):
        make(*args)


@st.composite
def sparse_rows(draw):
    """(sparse row, vocab size, the dense masses of its token ids) with eos
    often tied to the unlisted share or to a listed mass."""
    vocab_size = draw(st.integers(min_value=1, max_value=8))
    ids = draw(st.sets(st.integers(min_value=0, max_value=vocab_size - 1)))
    weights = {i: draw(st.integers(min_value=0, max_value=6)) for i in sorted(ids)}
    unlisted = vocab_size - len(ids)
    share_w = draw(st.integers(min_value=0, max_value=6)) if unlisted else 0
    tie = draw(st.sampled_from(["none", "share", "listed"]))
    if tie == "share" and unlisted:
        eos_w = share_w
    elif tie == "listed" and weights:
        eos_w = max(weights.values())
    else:
        eos_w = draw(st.integers(min_value=0, max_value=6))
    total = sum(weights.values()) + unlisted * share_w + eos_w
    assume(total > 0)
    other = unlisted * share_w / total
    # a share tie divides exactly as the parser does, so the floats tie too
    eos = other / unlisted if tie == "share" and unlisted else eos_w / total
    listed = {str(i): w / total for i, w in weights.items()}
    row = expand_sparse_row({**listed, "eos": eos}, other, vocab_size)
    dense = [listed.get(str(i), other / unlisted if unlisted else 0.0) for i in range(vocab_size)]
    return row, vocab_size, dense


@given(sparse_rows())
def test_posterior_row_matches_dense_reference(case):
    """A scripted row gives the eos mass, the largest token mass and the
    next token's mass of the distribution it spells out."""
    sparse, vocab_size, dense = case
    scorer = ScriptedScorer({("s", Direction.FORWARD, ()): sparse})
    for next_id in range(vocab_size):
        row = one_row(scorer, "s", Direction.FORWARD, (), next_id)
        assert row.top_mass == max(dense)
        assert row.next_mass == dense[next_id]
        assert ARGMAX(row) == (row.eos_mass > max(dense))
    assert abs(sum(dense) + sparse[0] - 1.0) <= 1e-6


def test_expand_sparse_row_spreads_remainder_uniformly():
    eos, top, masses, share = expand_sparse_row({"1": 0.8, "eos": 0.1}, 0.1, 5)
    assert (eos, top, masses) == (0.1, 0.8, {1: 0.8})
    assert share == pytest.approx(0.1 / 4)


def test_expand_sparse_row_requires_eos():
    with pytest.raises(ProtocolError, match="eos"):
        expand_sparse_row({"0": 0.9}, 0.1, 3)


def test_row_summing_below_one_is_protocol_error():
    # a scorer answering with total mass 0.98 violates the row contract
    with pytest.raises(ProtocolError):
        expand_sparse_row({"0": 0.88, "eos": 0.1}, 0.0, 1)


def test_expand_sparse_row_rejects_bad_keys_and_masses():
    with pytest.raises(ProtocolError):
        expand_sparse_row({"x": 0.9, "eos": 0.1}, 0.0, 3)
    with pytest.raises(ProtocolError):
        expand_sparse_row({"7": 0.9, "eos": 0.1}, 0.0, 3)
    with pytest.raises(ProtocolError):
        expand_sparse_row({"0": 0.9, "eos": 0.2}, 0.0, 3)  # sums to 1.1
    with pytest.raises(ProtocolError):
        expand_sparse_row({"0": 0.5, "eos": 0.1}, -0.4, 3)


@pytest.mark.parametrize(
    "listed, other, match",
    [
        pytest.param({"0": 0.9}, 0.1, "eos", id="missing-eos"),
        pytest.param({"x": 0.9, "eos": 0.1}, 0.0, "bad token key", id="bad-key"),
        pytest.param({"3": 0.9, "eos": 0.1}, 0.0, "outside", id="id-out-of-range"),
        pytest.param({"-1": 0.9, "eos": 0.1}, 0.0, "outside", id="negative-id"),
        pytest.param({"1": 0.4, "01": 0.4, "eos": 0.2}, 0.0, "twice", id="repeated-id"),
        pytest.param({"0": "0.9", "eos": 0.1}, 0.0, "not a number", id="string-mass"),
        pytest.param({"0": True, "eos": 0.0}, 0.0, "not a number", id="bool-mass"),
        pytest.param({"0": -0.1, "eos": 0.6}, 0.5, "negative", id="negative-listed"),
        pytest.param({"0": 0.5, "eos": 0.1}, -0.4, "negative remainder", id="negative-other"),
        pytest.param({"0": 0.5, "1": 0.2, "2": 0.1, "eos": 0.1}, 0.1, "every token", id="remainder-all-listed"),
        pytest.param({"0": 0.88, "eos": 0.1}, 0.0, "sums to", id="sum-below-one"),
        pytest.param({"0": 0.5, "eos": 0.1}, math.nan, "NaN", id="nan-other"),
    ],
)
def test_expand_sparse_row_each_check(listed, other, match):
    with pytest.raises(ProtocolError, match=match):
        expand_sparse_row(listed, other, 3)


def test_expand_sparse_row_treats_tiny_remainder_as_zero():
    *_, share = expand_sparse_row({"0": 0.5, "1": 0.5, "eos": 0.0}, 5e-7, 2)
    assert share == 0.0
    _, _, masses, share = expand_sparse_row({"0": 0.5, "eos": 0.5}, -5e-7, 2)
    assert share == 0.0
    assert masses.get(1, share) == 0.0


@given(
    st.integers(min_value=1, max_value=12),
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=6),
    st.floats(min_value=0.0, max_value=0.5),
)
def test_expand_sparse_row_always_normalized(vocab_size, weights, eos_w):
    listed = {str(i): w for i, w in enumerate(weights[:vocab_size])}
    total = sum(listed.values()) + eos_w
    listed = {k: v / total for k, v in listed.items()}
    listed["eos"] = eos_w / total
    remainder = max(0.0, 1.0 - sum(listed.values()))
    if remainder > 1e-9 and len(listed) - 1 == vocab_size:
        return  # nothing to spread onto
    eos, top, masses, share = expand_sparse_row(listed, remainder, vocab_size)
    dense = [masses.get(i, share) for i in range(vocab_size)]
    assert abs(sum(dense) + eos - 1.0) <= 1e-6
    assert top == max(dense)


def test_scripted_scorer_lookup_and_strict_mode():
    row = expand_sparse_row({"1": 0.8, "eos": 0.1}, 0.1, 3)
    scorer = ScriptedScorer({("s1", Direction.FORWARD, (0,)): row})
    assert one_row(scorer, "s1", Direction.FORWARD, (0,), 1) == PosteriorRow(0.1, 0.8, 0.8)
    assert one_row(scorer, "s1", Direction.FORWARD, (0,), 2) == PosteriorRow(0.1, 0.8, 0.05)
    assert one_row(scorer, "s1", Direction.FORWARD, (0,)) == PosteriorRow(0.1, 0.8)
    with pytest.raises(UnknownKey):
        one_row(scorer, "s1", Direction.FORWARD, (0, 1))
    with pytest.raises(UnknownSegment):
        one_row(scorer, "nope", Direction.FORWARD, (0,))


def test_scripted_scorer_is_deterministic():
    row = expand_sparse_row({"0": 0.6, "eos": 0.4}, 0.0, 2)
    scorer = ScriptedScorer({("s1", Direction.FORWARD, (1,)): row})
    req = ScanRequest("s1", Direction.FORWARD, (1,), 1, EosRule())
    assert scorer.scan(req) == scorer.scan(req) == [PosteriorRow(0.4, 0.6)]


def test_load_scripted_scorer_roundtrip(tmp_path):
    """Each line comes back as its listed masses, the remainder spread
    evenly over the unlisted ids."""
    path = tmp_path / "rows.tsv"
    path.write_text("s1\tforward\t0 1\t2:0.7,eos:0.2\ns1\tbackward\t\teos:1.0\n", encoding="utf-8")
    scorer = load_scripted_scorer(path, 4)
    share = 0.1 / 3  # ids 0, 1 and 3 are unlisted
    for next_id, mass in enumerate((share, share, 0.7, share)):
        got = one_row(scorer, "s1", Direction.FORWARD, (0, 1), next_id)
        assert (got.eos_mass, got.top_mass, got.next_mass) == pytest.approx((0.2, 0.7, mass), abs=1e-12)
        assert one_row(scorer, "s1", Direction.BACKWARD, (), next_id) == PosteriorRow(1.0, 0.0, 0.0)


def test_load_scripted_scorer_duplicate_key(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text(
        "s1\tforward\t0\t1:0.9,eos:0.1\ns1\tforward\t0\t1:0.8,eos:0.2\n", encoding="utf-8"
    )
    with pytest.raises(DuplicateKey):
        load_scripted_scorer(path, 2)


@pytest.mark.parametrize(
    "line",
    [
        "s1\tforward\t0",  # wrong field count
        "s1\tsideways\t0\t1:0.9,eos:0.1",  # bad direction
        "s1\tforward\tzero\t1:0.9,eos:0.1",  # bad prefix ids
        "s1\tforward\t0\t1:0.9",  # no eos entry
        "s1\tforward\t0\t1:high,eos:0.1",  # bad probability
        "s1\tforward\t0\t1:0.9,1:0.05,eos:0.05",  # token listed twice
    ],
)
def test_load_scripted_scorer_parse_errors_carry_line_numbers(tmp_path, line):
    path = tmp_path / "bad.tsv"
    path.write_text("# comment\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ProtocolError, match=":2"):
        load_scripted_scorer(path, 2)


def test_load_scripted_scorer_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("\n# forward rows\n  \n  # indented\ns1\tforward\t0\t1:0.9,eos:0.1\n\n", encoding="utf-8")
    scorer = load_scripted_scorer(path, 2)
    assert one_row(scorer, "s1", Direction.FORWARD, (0,)) == PosteriorRow(0.1, 0.9)
    path.write_text("\n# forward rows\n  \ns1\tforward\t0\n", encoding="utf-8")
    with pytest.raises(ProtocolError, match=r"rows.tsv:4: expected 4 tab-separated fields, got 3$"):
        load_scripted_scorer(path, 2)


def test_vocab_digest_tracks_token_list():
    a = vocab_digest(Vocabulary(("a", "b")))
    assert a == vocab_digest(Vocabulary(("a", "b")))
    assert a != vocab_digest(Vocabulary(("b", "a")))
    assert a != vocab_digest(Vocabulary(("a", "b", "c")))


@given(st.one_of(st.just(EosRule()), st.floats(0.0, 1.0).map(lambda p: EosRule("threshold", p))))
@example(EosRule("threshold", 0.0))
@example(EosRule("threshold", 1.0))
@example(EosRule("threshold", 0.5))
@example(EosRule("threshold", 0.1 + 0.2))
@example(EosRule("threshold", 5e-324))  # subnormal
@example(EosRule("threshold", 2.2250738585072e-308))  # subnormal
@example(EosRule("threshold", -0.0))
def test_eos_rule_parse_reads_back_str(rule):
    """``str(rule)`` is an --eos-rule spec that parses to the same rule,
    down to the sign and last bit of its p_eos_min."""
    parsed = EosRule.parse(str(rule))
    assert parsed == rule and repr(parsed.p_eos_min) == repr(rule.p_eos_min)
    assert str(EosRule("threshold", 0.1 + 0.2)) == "threshold:0.30000000000000004"


GO_ON = PosteriorRow(0.05, 0.9, 0.9)
FIRES = PosteriorRow(0.9, 0.05, 0.05)


def test_scan_request_prefixes_run_from_first_to_the_whole_window():
    req = ScanRequest("s", Direction.FORWARD, (4, 5, 6), 1, EosRule())
    assert list(req.prefixes()) == [(4,), (4, 5), (4, 5, 6)]
    assert list(ScanRequest("s", Direction.BACKWARD, (), 0, EosRule()).prefixes()) == [()]


def test_scan_request_take_stops_after_the_first_firing_row():
    req = ScanRequest("s", Direction.FORWARD, (0, 0, 0, 0), 0, EosRule())
    asked = []

    def rows():
        for row in (GO_ON, FIRES, GO_ON, FIRES, GO_ON):
            asked.append(row)
            yield row

    assert req.take(rows()) == [GO_ON, FIRES]
    assert len(asked) == 2  # no row past the firing one is asked for
    threshold = ScanRequest("s", Direction.FORWARD, (0, 0), 0, EosRule("threshold", 0.04))
    assert threshold.take([GO_ON, FIRES]) == [GO_ON]


def test_scan_request_take_keeps_every_row_when_none_fires():
    req = ScanRequest("s", Direction.FORWARD, (0, 0, 0), 1, EosRule())
    assert req.take([GO_ON, GO_ON, GO_ON]) == [GO_ON, GO_ON, GO_ON]
    assert req.take([]) == []


def test_strict_scripted_scan_asks_no_prefix_past_the_firing_row():
    """Only the rows up to the firing one are scripted; a strict scorer
    raises UnknownKey for any other prefix, so its scan must not ask."""
    go_on = expand_sparse_row({"0": 0.9, "eos": 0.05}, 0.05, 2)
    fires = expand_sparse_row({"0": 0.05, "eos": 0.9}, 0.05, 2)
    scorer = ScriptedScorer({("s", Direction.FORWARD, (0,)): go_on, ("s", Direction.FORWARD, (0, 1)): fires})
    req = ScanRequest("s", Direction.FORWARD, (0, 1, 1, 0), 1, EosRule())
    assert scorer.scan(req) == [PosteriorRow(0.05, 0.9, 0.05), PosteriorRow(0.9, 0.05, 0.05)]
    with pytest.raises(UnknownKey):
        scorer.scan(ScanRequest("s", Direction.FORWARD, (0, 0), 1, EosRule()))
