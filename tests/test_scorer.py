import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lsalign.core import Vocabulary
from lsalign.scorer import (
    Direction,
    DuplicateKey,
    EosRule,
    PosteriorRow,
    ProtocolError,
    ScanRequest,
    ScriptedScorer,
    UnknownKey,
    UnknownSegment,
    dump_scripted_rows,
    expand_sparse_row,
    load_scripted_scorer,
    vocab_digest,
)


def dense_masses(row):
    """Every token id's mass, then eos: the dense view tests check rows against."""
    return [row.mass(i) for i in range(row.vocab_size)] + [row.eos_mass]


def one_row(scorer, segment_id, direction, prefix):
    """A scorer's row for one prefix: the one-row scan that starts at its end."""
    prefix = tuple(prefix)
    rows = scorer.scan(ScanRequest(segment_id, direction, prefix, len(prefix), EosRule()))
    assert len(rows) == 1
    return rows[0]


def rows_one_by_one(scorer, req):
    """The rows a scan must return, asked for one prefix at a time and
    stopped here, not by the code under test, after the first firing row."""
    rows = []
    for end in range(req.first, len(req.tokens) + 1):
        rows.append(one_row(scorer, req.segment_id, req.direction, req.tokens[:end]))
        if req.rule(rows[-1]):
            break
    return rows


def test_posterior_row_validates_sum():
    PosteriorRow({0: 0.5, 1: 0.3}, 0.2, 0.0, 2)
    with pytest.raises(ValueError):
        PosteriorRow({0: 0.5, 1: 0.3}, 0.18, 0.0, 2)  # sums to 0.98
    with pytest.raises(ValueError):
        PosteriorRow({0: 0.7, 1: 0.5}, -0.2, 0.0, 2)


def test_posterior_row_accessors():
    row = PosteriorRow({0: 0.81, 1: 0.12}, 0.07, 0.0, 2)
    assert row.vocab_size == 2
    assert row.eos_mass == 0.07
    assert row.mass(0) == 0.81
    assert not row.eos_is_argmax()
    assert PosteriorRow({0: 0.2, 1: 0.2}, 0.6, 0.0, 2).eos_is_argmax()


def test_eos_argmax_tie_does_not_fire():
    assert not PosteriorRow({0: 0.5, 1: 0.0}, 0.5, 0.0, 2).eos_is_argmax()
    # the same tie against the unlisted share
    assert not PosteriorRow({}, 0.5, 0.5, 1).eos_is_argmax()
    assert not PosteriorRow({0: 0.1}, 0.3, 0.6, 3).eos_is_argmax()


def test_posterior_row_unlisted_share_counts_in_argmax():
    # eos beats the only listed token but not the uniform remainder share
    assert not PosteriorRow({0: 0.1}, 0.35, 0.55, 2).eos_is_argmax()
    assert PosteriorRow({0: 0.1}, 0.35, 0.55, 3).eos_is_argmax()


def test_posterior_row_mass_rejects_ids_outside_vocab():
    row = PosteriorRow({1: 0.5}, 0.25, 0.25, 3)
    for token_id in (-1, 3):
        with pytest.raises(IndexError):
            row.mass(token_id)


@pytest.mark.parametrize(
    "listed, eos, other, vocab_size",
    [
        pytest.param({}, 1.0, 0.0, 0, id="empty-vocab"),
        pytest.param({0: -0.1}, 0.6, 0.5, 2, id="negative-listed"),
        pytest.param({0: math.nan}, 0.5, 0.5, 2, id="nan-listed"),
        pytest.param({0: 0.7, 1: 0.5}, -0.2, 0.0, 2, id="negative-eos"),
        pytest.param({0: 0.5}, math.nan, 0.5, 2, id="nan-eos"),
        pytest.param({0: 0.7}, 0.5, -0.2, 3, id="negative-other"),
        pytest.param({0: 0.5}, 0.5, math.nan, 3, id="nan-other"),
        pytest.param({2: 0.5}, 0.5, 0.0, 2, id="id-at-vocab-size"),
        pytest.param({-1: 0.5}, 0.5, 0.0, 2, id="negative-id"),
        pytest.param({0: 0.5, 1: 0.3}, 0.1, 0.1, 2, id="remainder-but-all-listed"),
        pytest.param({0: 0.5}, 0.3, 0.18, 2, id="sum-below-one"),
        pytest.param({0: 0.5}, 0.3, 0.2 + 2e-6, 2, id="sum-above-one"),
        pytest.param({}, math.inf, 0.0, 2, id="infinite-eos"),
    ],
)
def test_posterior_row_rejects_invalid(listed, eos, other, vocab_size):
    with pytest.raises(ValueError):
        PosteriorRow(listed, eos, other, vocab_size)


@st.composite
def sparse_rows(draw):
    """Rows with eos often tied to the unlisted share or to a listed mass."""
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
    # a share tie divides exactly as the row does, so the floats tie too
    eos = other / unlisted if tie == "share" and unlisted else eos_w / total
    return PosteriorRow({i: w / total for i, w in weights.items()}, eos, other, vocab_size)


@given(sparse_rows())
def test_posterior_row_matches_dense_reference(row):
    unlisted = row.vocab_size - len(row.listed)
    reference = [
        row.listed[i] if i in row.listed else row.other_mass / unlisted
        for i in range(row.vocab_size)
    ]
    assert dense_masses(row) == reference + [row.eos_mass]
    assert row.eos_is_argmax() == (row.eos_mass > max(reference))
    assert abs(sum(reference) + row.eos_mass - 1.0) <= 1e-6


def test_posterior_rows_compare_by_mass_not_storage():
    sparse = PosteriorRow({1: 0.5}, 0.25, 0.25, 2)
    dense = PosteriorRow({0: 0.25, 1: 0.5}, 0.25, 0.0, 2)
    assert sparse == dense
    assert hash(sparse) == hash(dense)
    assert sparse != PosteriorRow({0: 0.5}, 0.25, 0.25, 2)
    assert sparse != PosteriorRow({1: 0.5}, 0.25, 0.25, 3)
    assert PosteriorRow({}, 0.25, 0.75, 3) == PosteriorRow({0: 0.25}, 0.25, 0.5, 3)
    assert PosteriorRow({}, 0.25, 0.75, 3) != PosteriorRow({0: 0.35}, 0.25, 0.4, 3)


def test_expand_sparse_row_spreads_remainder_uniformly():
    row = expand_sparse_row({"1": 0.8, "eos": 0.1}, 0.1, 5)
    assert row.mass(1) == 0.8
    assert row.eos_mass == 0.1
    for i in (0, 2, 3, 4):
        assert row.mass(i) == pytest.approx(0.1 / 4)


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
    row = expand_sparse_row({"0": 0.5, "1": 0.5, "eos": 0.0}, 5e-7, 2)
    assert row.other_mass == 0.0
    row = expand_sparse_row({"0": 0.5, "eos": 0.5}, -5e-7, 2)
    assert row.other_mass == 0.0
    assert row.mass(1) == 0.0


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
    row = expand_sparse_row(listed, remainder, vocab_size)
    assert abs(sum(dense_masses(row)) - 1.0) <= 1e-6


def test_scripted_scorer_lookup_and_strict_mode():
    row = expand_sparse_row({"1": 0.8, "eos": 0.1}, 0.1, 3)
    scorer = ScriptedScorer({("s1", Direction.FORWARD, (0,)): row}, vocab_size=3)
    got = one_row(scorer, "s1", Direction.FORWARD, (0,))
    assert got == row
    with pytest.raises(UnknownKey):
        one_row(scorer, "s1", Direction.FORWARD, (0, 1))
    with pytest.raises(UnknownSegment):
        one_row(scorer, "nope", Direction.FORWARD, (0,))


def test_scripted_scorer_default_row():
    row = expand_sparse_row({"1": 0.8, "eos": 0.1}, 0.1, 3)
    default = expand_sparse_row({"eos": 1.0}, 0.0, 3)
    scorer = ScriptedScorer({("s1", Direction.FORWARD, (0,)): row}, 3, default_row=default)
    assert one_row(scorer, "s1", Direction.BACKWARD, ()) == default


def test_scripted_scorer_is_deterministic():
    row = expand_sparse_row({"0": 0.6, "eos": 0.4}, 0.0, 2)
    scorer = ScriptedScorer({("s1", Direction.FORWARD, (1,)): row}, 2)
    req = ScanRequest("s1", Direction.FORWARD, (1,), 1, EosRule())
    assert scorer.scan(req) == scorer.scan(req) == [row]


def test_load_scripted_scorer_roundtrip(tmp_path):
    rows = {
        ("s1", Direction.FORWARD, (0, 1)): expand_sparse_row({"2": 0.7, "eos": 0.2}, 0.1, 4),
        ("s1", Direction.BACKWARD, ()): expand_sparse_row({"eos": 1.0}, 0.0, 4),
    }
    path = tmp_path / "rows.tsv"
    dump_scripted_rows(rows, path)
    scorer = load_scripted_scorer(path, 4)
    for (sid, direction, prefix), row in rows.items():
        got = one_row(scorer, sid, direction, prefix)
        assert dense_masses(got) == pytest.approx(dense_masses(row), abs=1e-12)


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
    assert one_row(scorer, "s1", Direction.FORWARD, (0,)) == expand_sparse_row({"1": 0.9, "eos": 0.1}, 0.0, 2)
    path.write_text("\n# forward rows\n  \ns1\tforward\t0\n", encoding="utf-8")
    with pytest.raises(ProtocolError, match=r"rows.tsv:4: expected 4 tab-separated fields, got 3$"):
        load_scripted_scorer(path, 2)


def test_vocab_digest_tracks_token_list():
    a = vocab_digest(Vocabulary(("a", "b")))
    assert a == vocab_digest(Vocabulary(("a", "b")))
    assert a != vocab_digest(Vocabulary(("b", "a")))
    assert a != vocab_digest(Vocabulary(("a", "b", "c")))


GO_ON = PosteriorRow({0: 0.9}, 0.05, 0.05, 2)
FIRES = PosteriorRow({0: 0.05}, 0.9, 0.05, 2)


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
    rows = {("s", Direction.FORWARD, (0,)): GO_ON, ("s", Direction.FORWARD, (0, 1)): FIRES}
    scorer = ScriptedScorer(rows, 2)
    req = ScanRequest("s", Direction.FORWARD, (0, 1, 1, 0), 1, EosRule())
    assert scorer.scan(req) == [GO_ON, FIRES]
    with pytest.raises(UnknownKey):
        scorer.scan(ScanRequest("s", Direction.FORWARD, (0, 0), 1, EosRule()))
