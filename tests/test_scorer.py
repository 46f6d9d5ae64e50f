import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
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
    load_scripted_scorer,
    write_scripted_rows,
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


def scripted_one_row(next_id, eos, top, next_mass, vocab_size):
    """The row a scripted scorer reads from one forward line of a file, for
    the empty prefix; None leaves a field empty."""
    fields = ("" if value is None else str(value) for value in (next_id, eos, top, next_mass))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "rows.tsv")
        path.write_text("s\tforward\t\t" + "\t".join(fields) + "\n", encoding="utf-8")
        scorer = load_scripted_scorer(path, vocab_size)
    return one_row(scorer, "s", Direction.FORWARD, (), next_id)


def test_eos_argmax_tie_does_not_fire():
    assert not ARGMAX(PosteriorRow(0.5, 0.5, 0.0))
    # the same ties read from a scripted file
    assert not ARGMAX(scripted_one_row(None, 0.5, 0.5, None, 1))
    assert not ARGMAX(scripted_one_row(0, 0.3, 0.3, 0.1, 3))


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
        # a line of a scripted file whose next id is outside the vocabulary of 2
        pytest.param(scripted_one_row, (2, 0.5, 0.5, 0.5, 2), id="id-at-vocab-size"),
        pytest.param(scripted_one_row, (-1, 0.5, 0.5, 0.5, 2), id="negative-id"),
    ],
)
def test_posterior_row_rejects_invalid(make, args):
    # three numbers are refused with ValueError, a scripted file's line with ProtocolError
    with pytest.raises(ValueError if make is PosteriorRow else ProtocolError):
        make(*args)


def test_scripted_scorer_lookup_and_strict_mode():
    """A row is keyed by its prefix and the token after it, or None for
    the whole window's row."""
    scorer = ScriptedScorer({
        ("s1", Direction.FORWARD, (0,), 1): PosteriorRow(0.1, 0.8, 0.8),
        ("s1", Direction.FORWARD, (0,), 2): PosteriorRow(0.1, 0.8, 0.05),
        ("s1", Direction.FORWARD, (0,), None): PosteriorRow(0.1, 0.8),
    })
    assert one_row(scorer, "s1", Direction.FORWARD, (0,), 1) == PosteriorRow(0.1, 0.8, 0.8)
    assert one_row(scorer, "s1", Direction.FORWARD, (0,), 2) == PosteriorRow(0.1, 0.8, 0.05)
    assert one_row(scorer, "s1", Direction.FORWARD, (0,)) == PosteriorRow(0.1, 0.8)
    with pytest.raises(UnknownKey, match=r"prefix=\[0\] next=0$"):
        one_row(scorer, "s1", Direction.FORWARD, (0,), 0)
    with pytest.raises(UnknownKey):
        one_row(scorer, "s1", Direction.FORWARD, (0, 1))
    with pytest.raises(UnknownSegment):
        one_row(scorer, "nope", Direction.FORWARD, (0,))


def test_scripted_scorer_is_deterministic():
    scorer = ScriptedScorer({("s1", Direction.FORWARD, (1,), None): PosteriorRow(0.4, 0.6)})
    req = ScanRequest("s1", Direction.FORWARD, (1,), 1, EosRule())
    assert scorer.scan(req) == scorer.scan(req) == [PosteriorRow(0.4, 0.6)]


def test_load_scripted_scorer_roundtrip(tmp_path):
    """Each line comes back as the row it spells out, under its segment,
    direction, prefix and next id."""
    path = tmp_path / "rows.tsv"
    path.write_text(
        "s1\tforward\t0 1\t2\t0.2\t0.7\t0.7\n"
        "s1\tforward\t0 1\t3\t0.2\t0.7\t0.1\n"
        "s1\tbackward\t\t\t1.0\t0.0\t\n",
        encoding="utf-8",
    )
    scorer = load_scripted_scorer(path, 4)
    assert one_row(scorer, "s1", Direction.FORWARD, (0, 1), 2) == PosteriorRow(0.2, 0.7, 0.7)
    assert one_row(scorer, "s1", Direction.FORWARD, (0, 1), 3) == PosteriorRow(0.2, 0.7, 0.1)
    assert one_row(scorer, "s1", Direction.BACKWARD, ()) == PosteriorRow(1.0, 0.0)
    with pytest.raises(UnknownKey):
        one_row(scorer, "s1", Direction.FORWARD, (0, 1), 0)


def test_load_scripted_scorer_duplicate_key(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text(
        "s1\tforward\t0\t1\t0.1\t0.9\t0.9\ns1\tforward\t0\t0\t0.1\t0.9\t0.0\n"
        "s1\tforward\t0\t1\t0.2\t0.8\t0.8\n",
        encoding="utf-8",
    )
    with pytest.raises(DuplicateKey, match=":3: duplicate scripted key"):
        load_scripted_scorer(path, 2)


GOOD_LINE = "s1\tforward\t0\t1\t0.1\t0.9\t0.9"


@pytest.mark.parametrize(
    "line, error, message",
    [
        pytest.param("s1\tforward\t0", ProtocolError, "expected 7 tab-separated fields, got 3", id="field-count"),
        pytest.param("s1\tsideways\t0\t0\t0.1\t0.9\t0.9", ProtocolError,
                     "unknown direction: 'sideways'", id="bad-direction"),
        pytest.param("s1\tforward\tzero\t0\t0.1\t0.9\t0.9", ProtocolError,
                     "invalid literal for int() with base 10: 'zero'", id="bad-prefix-id"),
        pytest.param("s1\tforward\t0\tone\t0.1\t0.9\t0.9", ProtocolError,
                     "invalid literal for int() with base 10: 'one'", id="bad-next-id"),
        pytest.param("s1\tforward\t0\t0\thigh\t0.9\t0.9", ProtocolError,
                     "could not convert string to float: 'high'", id="bad-probability"),
        pytest.param("s1\tforward\t0\t2\t0.1\t0.9\t0.9", ProtocolError,
                     "next id 2 outside vocabulary of size 2", id="next-id-at-vocab-size"),
        pytest.param("s1\tforward\t0\t-1\t0.1\t0.9\t0.9", ProtocolError,
                     "next id -1 outside vocabulary of size 2", id="negative-next-id"),
        pytest.param("s1\tforward\t0\t0\t0.1\t0.9\t", ProtocolError,
                     "a next id and its mass must be given together", id="id-without-mass"),
        pytest.param("s1\tforward\t0\t\t0.1\t0.9\t0.9", ProtocolError,
                     "a next id and its mass must be given together", id="mass-without-id"),
        pytest.param(GOOD_LINE, DuplicateKey,
                     "duplicate scripted key segment=s1 direction=forward prefix=[0] next=1", id="key-twice"),
        pytest.param("s1\tforward\t0\t\t0.6\t0.5\t", ProtocolError,
                     "eos and top token masses sum to 1.1, more than 1", id="eos-and-top-above-one"),
        pytest.param("s1\tforward\t0\t0\t0.1\t0.5\t0.6", ProtocolError,
                     "next-token mass 0.6 exceeds the top token mass 0.5", id="next-above-top"),
        pytest.param("s1\tforward\t0\t0\tnan\t0.5\t0.5", ProtocolError,
                     "negative or NaN probability in row: nan", id="nan-eos"),
    ],
)
def test_load_scripted_scorer_parse_errors_carry_line_numbers(tmp_path, line, error, message):
    """Each check on a scripted file names the file and the line."""
    path = tmp_path / "rows.tsv"
    path.write_text(f"# comment\n{GOOD_LINE}\n{line}\n", encoding="utf-8")
    with pytest.raises(error) as refused:
        load_scripted_scorer(path, 2)
    assert str(refused.value) == f"{path}:3: {message}"


def test_load_scripted_scorer_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("\n# forward rows\n  \n  # indented\ns1\tforward\t0\t\t0.1\t0.9\t\n\n", encoding="utf-8")
    scorer = load_scripted_scorer(path, 2)
    assert one_row(scorer, "s1", Direction.FORWARD, (0,)) == PosteriorRow(0.1, 0.9)
    path.write_text("\n# forward rows\n  \ns1\tforward\t0\n", encoding="utf-8")
    with pytest.raises(ProtocolError, match=r"rows.tsv:4: expected 7 tab-separated fields, got 3$"):
        load_scripted_scorer(path, 2)


# a segment id as a segments file could give it: no tab, line break or leading '#'
segment_ids = st.text(alphabet="ab_- 0é", min_size=1, max_size=5)
probabilities = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def scripted_tables(draw):
    """Rows under distinct keys; a key with no next id gets no next mass."""
    keys = draw(st.lists(
        st.tuples(segment_ids, st.sampled_from(Direction), st.lists(st.integers(0, 9)).map(tuple),
                  st.none() | st.integers(0, 9)),
        unique=True, max_size=6,
    ))
    rows = {}
    for key in keys:
        eos = draw(probabilities)
        top = draw(st.floats(min_value=0.0, max_value=1.0 - eos))
        rows[key] = PosteriorRow(eos, top, None if key[3] is None else draw(st.floats(0.0, top)))
    return rows


@given(scripted_tables())
@example({("s", Direction.FORWARD, (), None): PosteriorRow(5e-324, 0.1 + 0.2)})
def test_written_rows_load_back_equal(rows):
    """The writer's file loads back every row under its key, down to the
    last bit of each mass."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "rows.tsv")
        write_scripted_rows(path, rows)
        scorer = load_scripted_scorer(path, 10)
    for (segment_id, direction, prefix, next_id), row in rows.items():
        got = one_row(scorer, segment_id, direction, prefix, next_id)
        assert [repr(x) for x in (got.eos_mass, got.top_mass, got.next_mass)] == [
            repr(x) for x in (row.eos_mass, row.top_mass, row.next_mass)
        ]


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
    scorer = ScriptedScorer({
        ("s", Direction.FORWARD, (0,), 0): PosteriorRow(0.05, 0.9, 0.9),
        ("s", Direction.FORWARD, (0,), 1): PosteriorRow(0.05, 0.9, 0.05),
        ("s", Direction.FORWARD, (0, 1), 1): PosteriorRow(0.9, 0.05, 0.05),
    })
    req = ScanRequest("s", Direction.FORWARD, (0, 1, 1, 0), 1, EosRule())
    assert scorer.scan(req) == [PosteriorRow(0.05, 0.9, 0.05), PosteriorRow(0.9, 0.05, 0.05)]
    with pytest.raises(UnknownKey):
        scorer.scan(ScanRequest("s", Direction.FORWARD, (0, 0), 1, EosRule()))
