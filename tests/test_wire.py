import json
import math
import re
import socket
import threading

import pytest

from lsalign.aligner import AlignerConfig, align_recordings, align_steps
from lsalign.cli import main
from lsalign.core import Vocabulary
from lsalign.corpus import SimConfig
from lsalign.dataio import save_corpus
from lsalign.oracle import OracleScorer
from lsalign.scorer import (
    Direction,
    EosRule,
    IncompatibleScorer,
    PosteriorRow,
    ProtocolError,
    ScanRequest,
    UnknownSegment,
)
from lsalign.scripted import ScriptedScorer, UnknownKey, load_scripted_scorer
from lsalign.simulator import generate_corpus
from lsalign import wire
from lsalign.wire import PROTOCOL_VERSION, RemoteScorer, ScorerServer, row_to_wire, vocab_digest
from test_scorer import one_row, rows_one_by_one


@pytest.fixture()
def oracle_setup():
    corpus = generate_corpus(SimConfig(n_recordings=1, vocab_size=6, seed=2))
    return corpus, OracleScorer(corpus)


def test_roundtrip_matches_in_process(oracle_setup):
    corpus, oracle = oracle_setup
    rec = corpus.recordings[0]
    ids = rec.transcript.ids
    with ScorerServer(oracle, corpus.vocab) as server:
        sid = rec.segments[0].segment_id
        with RemoteScorer(server.host, server.port, Direction.FORWARD, corpus.vocab) as remote:
            for k in range(0, 4):
                want = one_row(oracle, sid, Direction.FORWARD, ids[:k], ids[k])
                assert one_row(remote, sid, Direction.FORWARD, ids[:k], ids[k]) == want


def test_digest_mismatch_raises_incompatible(oracle_setup):
    corpus, oracle = oracle_setup
    other_vocab = Vocabulary(("completely", "different"))
    with ScorerServer(oracle, corpus.vocab) as server:
        with pytest.raises(IncompatibleScorer):
            RemoteScorer(server.host, server.port, Direction.FORWARD, other_vocab)


def test_unknown_segment_over_wire(oracle_setup):
    corpus, oracle = oracle_setup
    with ScorerServer(oracle, corpus.vocab) as server:
        with RemoteScorer(server.host, server.port, Direction.FORWARD, corpus.vocab) as remote:
            with pytest.raises(UnknownSegment):
                one_row(remote, "ghost", Direction.FORWARD, ())


def test_direction_binding_enforced(oracle_setup):
    corpus, oracle = oracle_setup
    with ScorerServer(oracle, corpus.vocab) as server:
        with RemoteScorer(server.host, server.port, Direction.FORWARD, corpus.vocab) as remote:
            with pytest.raises(ProtocolError):
                one_row(remote, "x", Direction.BACKWARD, ())


def test_both_ends_disable_nagle(oracle_setup, monkeypatch):
    """Each request and each reply goes out at once instead of waiting
    for a delayed ACK."""
    corpus, oracle = oracle_setup
    server_ends = []
    setup = wire._Handler.setup

    def recording_setup(handler):
        setup(handler)
        server_ends.append(handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

    monkeypatch.setattr(wire._Handler, "setup", recording_setup)
    with ScorerServer(oracle, corpus.vocab) as server:
        with RemoteScorer(server.host, server.port, Direction.FORWARD, corpus.vocab) as remote:
            assert remote._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    assert len(server_ends) == 1 and server_ends[0]


def _raw_session(host, port, lines):
    """Send raw lines, return the reply lines: one per request, or one per
    scan of a well-formed ``scans`` line, up to an error."""
    replies = []
    with socket.create_connection((host, port), timeout=10) as sock:
        fp = sock.makefile("rwb")
        for line in lines:
            fp.write(line)
            fp.flush()
            scans = json.loads(line).get("scans")
            for _ in scans if isinstance(scans, list) and scans else [line]:
                replies.append(fp.readline())
                if json.loads(replies[-1])["op"] == "error":
                    return replies
    return replies


def test_replay_yields_byte_identical_response(oracle_setup):
    corpus, oracle = oracle_setup
    rec = corpus.recordings[0]
    sid = rec.segments[0].segment_id
    hello = (
        json.dumps(
            {
                "op": "hello",
                "version": PROTOCOL_VERSION,
                "vocab_sha256": vocab_digest(corpus.vocab),
                "direction": "forward",
            }
        )
        + "\n"
    ).encode()
    one = _scans(_scan(sid, rec.transcript.ids[:1], 1, "argmax"))  # the row of one prefix
    with ScorerServer(oracle, corpus.vocab) as server:
        replies = _raw_session(server.host, server.port, [hello, one, one])
    assert json.loads(replies[0])["op"] == "ready"
    assert replies[1] == replies[2]
    assert len(json.loads(replies[1])["rows"]) == 1


def test_version_mismatch_rejected(oracle_setup):
    corpus, oracle = oracle_setup
    bad_hello = (
        json.dumps(
            {
                "op": "hello",
                "version": 99,
                "vocab_sha256": vocab_digest(corpus.vocab),
                "direction": "forward",
            }
        )
        + "\n"
    ).encode()
    with ScorerServer(oracle, corpus.vocab) as server:
        replies = _raw_session(server.host, server.port, [bad_hello])
    err = json.loads(replies[0])
    assert err["op"] == "error" and err["code"] == "incompatible"


def test_v1_hello_is_refused_naming_version_1(oracle_setup):
    """A client of version 1, 2 or 3 is refused, and told both versions."""
    corpus, oracle = oracle_setup
    hello = json.loads(_hello(corpus.vocab, "forward"))
    with ScorerServer(oracle, corpus.vocab) as server:
        for version in (1, 2, 3):
            old_hello = (json.dumps({**hello, "version": version}) + "\n").encode()
            err = json.loads(_raw_session(server.host, server.port, [old_hello])[0])
            assert err["op"] == "error" and err["code"] == "incompatible"
            assert f"version {version};" in err["message"]
            assert f"version {PROTOCOL_VERSION}" in err["message"]


def test_malformed_response_raises_protocol_error():
    """A server whose row lacks the next-token mass violates the row contract."""

    def bad_server(sock):
        conn, _ = sock.accept()
        fp = conn.makefile("rwb")
        fp.readline()  # hello
        fp.write(b'{"op":"ready"}\n')
        fp.flush()
        fp.readline()  # scan
        fp.write(b'{"op":"rows","rows":[[0.05,0.9]]}\n')
        fp.flush()
        conn.close()

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(1)
    thread = threading.Thread(target=bad_server, args=(sock,), daemon=True)
    thread.start()
    vocab = Vocabulary(("a", "b"))
    remote = RemoteScorer(*sock.getsockname(), Direction.FORWARD, vocab)
    with pytest.raises(ProtocolError, match=re.escape("[eos, top, next]")):
        one_row(remote, "s", Direction.FORWARD, (), 1)
    remote.close()
    sock.close()
    thread.join(timeout=5)


def test_server_survives_hostile_client(oracle_setup):
    """Garbage from one client errors that connection only; fresh
    connections keep working."""
    corpus, oracle = oracle_setup
    rec = corpus.recordings[0]
    with ScorerServer(oracle, corpus.vocab) as server:
        for garbage in (b"not json at all\n", b'{"op":"post"}\n', b'{"no_op":1}\n'):
            with socket.create_connection((server.host, server.port), timeout=10) as sock:
                fp = sock.makefile("rwb")
                fp.write(garbage)
                fp.flush()
                reply = fp.readline()
                assert not reply or json.loads(reply)["op"] == "error"
        with RemoteScorer(server.host, server.port, Direction.FORWARD, corpus.vocab) as remote:
            sid, prefix = rec.segments[0].segment_id, rec.transcript.ids[:1]
            want = one_row(oracle, sid, Direction.FORWARD, prefix)
            assert one_row(remote, sid, Direction.FORWARD, prefix) == want


def test_timeout_is_configurable():
    """A server that accepts but never answers trips the client timeout."""

    def silent_server(sock):
        conn, _ = sock.accept()
        conn.recv(4096)  # swallow the hello, never reply
        import time

        time.sleep(3.0)
        conn.close()

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(1)
    thread = threading.Thread(target=silent_server, args=(sock,), daemon=True)
    thread.start()
    vocab = Vocabulary(("a", "b"))
    with pytest.raises(ProtocolError):
        RemoteScorer(*sock.getsockname(), Direction.FORWARD, vocab, timeout_sec=0.4)
    sock.close()


@pytest.mark.parametrize(
    "reply, error",
    [
        (None, ProtocolError),  # never answers: the client times out
        (b'{"op":"error","code":"incompatible","message":"vocabulary digest mismatch"}\n',
         IncompatibleScorer),
        (b'{"op":"row"}\n', ProtocolError),  # anything but ready
    ],
    ids=["timeout", "incompatible", "not-ready"],
)
def test_failed_handshake_closes_the_socket(monkeypatch, reply, error):
    opened = []
    connect = socket.create_connection

    def recording_connect(*args, **kwargs):
        opened.append(connect(*args, **kwargs))
        return opened[-1]

    def one_shot_server(sock):
        conn, _ = sock.accept()
        with conn:
            conn.recv(4096)  # the hello
            if reply is not None:
                conn.sendall(reply)
            while conn.recv(4096):  # until the client hangs up
                pass

    monkeypatch.setattr(socket, "create_connection", recording_connect)
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)
        thread = threading.Thread(target=one_shot_server, args=(sock,), daemon=True)
        thread.start()
        with pytest.raises(error):
            RemoteScorer(*sock.getsockname(), Direction.FORWARD, Vocabulary(("a", "b")), timeout_sec=0.3)
        thread.join(timeout=5)
    assert len(opened) == 1
    assert opened[0].fileno() == -1  # closed, not left to the garbage collector
    assert not thread.is_alive()


def test_row_wire_encoding_roundtrip():
    for row in (PosteriorRow(0.25, 0.5, 0.125), PosteriorRow(0.1 + 0.2, 0.7 - 0.2)):
        line = json.dumps(row_to_wire(row))
        assert line == json.dumps([row.eos_mass, row.top_mass, row.next_mass])
        assert wire._row_from_wire(json.loads(line)) == row  # floats come back exactly


def test_concurrent_connections(oracle_setup):
    corpus, oracle = oracle_setup
    rec = corpus.recordings[0]
    sid = rec.segments[0].segment_id
    with ScorerServer(oracle, corpus.vocab) as server:
        results = {}

        def worker(direction):
            with RemoteScorer(server.host, server.port, direction, corpus.vocab) as remote:
                prefix = rec.transcript.ids[:1] if direction is Direction.FORWARD else ()
                results[direction] = one_row(remote, sid, direction, prefix)

        threads = [threading.Thread(target=worker, args=(d,)) for d in Direction]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(results) == 2
        for direction, row in results.items():
            prefix = rec.transcript.ids[:1] if direction is Direction.FORWARD else ()
            assert row == one_row(oracle, sid, direction, prefix)


def test_scripted_scorer_over_wire(tmp_path):
    vocab = Vocabulary(("a", "b", "c"))
    rows = {
        ("s", Direction.BACKWARD, (), None): PosteriorRow(0.05, 0.9),
        ("s", Direction.BACKWARD, (), 0): PosteriorRow(0.05, 0.9, 0.025),
        ("s", Direction.BACKWARD, (), 2): PosteriorRow(0.05, 0.9, 0.9),
    }
    scorer = ScriptedScorer(rows)
    with ScorerServer(scorer, vocab) as server:
        with RemoteScorer(server.host, server.port, Direction.BACKWARD, vocab) as remote:
            for next_id in (None, 0, 2):
                got = one_row(remote, "s", Direction.BACKWARD, (), next_id)
                assert got == one_row(scorer, "s", Direction.BACKWARD, (), next_id)


@pytest.mark.parametrize("op", ["scan", "pipelined"])
def test_scorer_failure_reaches_client_as_error_line(op):
    vocab = Vocabulary(("a", "b", "c"))
    rows = {
        ("s", Direction.BACKWARD, (), None): PosteriorRow(0.05, 0.9),
        ("s", Direction.BACKWARD, (), 2): PosteriorRow(0.05, 0.9, 0.9),
    }
    scorer = ScriptedScorer(rows)  # strict: an unscripted prefix raises UnknownKey
    with pytest.raises(UnknownKey) as local:
        one_row(scorer, "s", Direction.BACKWARD, (2,))
    # the empty prefix is scripted and does not fire; (2,) is not
    failing = ScanRequest("s", Direction.BACKWARD, (2,), 0, ARGMAX)
    good = ScanRequest("s", Direction.BACKWARD, (), 0, ARGMAX)
    with ScorerServer(scorer, vocab) as server:
        with RemoteScorer(server.host, server.port, Direction.BACKWARD, vocab) as remote:
            with pytest.raises(ProtocolError, match=re.escape(str(local.value))):
                if op == "scan":
                    remote.scan(failing)
                else:  # behind a scan that succeeds, in one scans line
                    remote.scans([good, failing])
        if op == "pipelined":
            # the scan ahead of the failing one is answered first, then the error
            replies = _raw_session(
                server.host, server.port,
                [_hello(vocab, "backward"), _scans(_scan("s", [], 0, "argmax"), _scan("s", [2], 0, "argmax"))],
            )
            assert scorer.scan(good) == [PosteriorRow(0.05, 0.9)]
            assert [json.loads(reply) for reply in replies[1:]] == [
                {"op": "rows", "rows": [row_to_wire(PosteriorRow(0.05, 0.9))]},
                {"op": "error", "code": "protocol", "message": str(local.value)},
            ]
        # the server answered the failure and goes on serving new connections
        with RemoteScorer(server.host, server.port, Direction.BACKWARD, vocab) as remote:
            assert one_row(remote, "s", Direction.BACKWARD, ()) == PosteriorRow(0.05, 0.9)


class _BrokenScorer:
    """A served scorer that fails in a way of its own: it raises a plain
    exception, or answers with no rows."""

    def __init__(self, failure):
        self.failure = failure

    def scan(self, req):
        if self.failure == "raises":
            raise ValueError("model blew up")
        return []


@pytest.mark.parametrize(
    "failure, message",
    [("raises", "ValueError: model blew up"), ("no-rows", "the scorer answered a scan with no rows")],
)
def test_any_scorer_failure_is_answered_with_an_error_line(tmp_path, capsys, failure, message):
    corpus = generate_corpus(SimConfig(n_recordings=1, vocab_size=6, seed=2))
    corpus_dir = save_corpus(corpus, tmp_path / "corpus")
    sid = corpus.recordings[0].segments[0].segment_id
    with ScorerServer(_BrokenScorer(failure), corpus.vocab) as server:
        with RemoteScorer(server.host, server.port, Direction.FORWARD, corpus.vocab) as remote:
            with pytest.raises(ProtocolError, match=re.escape(message)):
                one_row(remote, sid, Direction.FORWARD, ())
        spec = f"remote:{server.host}:{server.port}"
        code = main([
            "align", "--corpus", str(corpus_dir), "--fwd-scorer", spec, "--bwd-scorer", spec,
            "--out", str(tmp_path / "run"),
        ])
        assert code == 3
        # each failure was answered, printed no traceback, and the server serves new connections
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err, err
        RemoteScorer(server.host, server.port, Direction.BACKWARD, corpus.vocab).close()


class _FailsOnOneSegment:
    """The oracle, except that one segment's scans raise."""

    def __init__(self, oracle, segment_id):
        self.oracle, self.segment_id = oracle, segment_id

    def scan(self, req):
        if req.segment_id == self.segment_id:
            raise ValueError(f"model blew up on {req.segment_id}")
        return self.oracle.scan(req)


def test_scorer_failure_among_pipelined_scans_exits_3(tmp_path, capsys):
    """The failing recording's scan is fourth of eight in one scans line:
    the replies before it are read, its error line ends the run with exit 3
    and the server's message, and both connections are closed (the CI
    flags turn an unclosed socket into a failure)."""
    corpus = generate_corpus(SimConfig(n_recordings=8, vocab_size=6, seed=2))
    corpus_dir = save_corpus(corpus, tmp_path / "corpus")
    sid = sorted(corpus.recordings, key=lambda r: r.recording_id)[3].segments[0].segment_id
    with ScorerServer(_FailsOnOneSegment(OracleScorer(corpus), sid), corpus.vocab) as server:
        spec = f"remote:{server.host}:{server.port}"
        code = main([
            "align", "--corpus", str(corpus_dir), "--fwd-scorer", spec, "--bwd-scorer", spec,
            "--out", str(tmp_path / "run"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert f"ValueError: model blew up on {sid}" in err and "Traceback" not in err, err
        assert not (tmp_path / "run").exists()


def _hello(vocab, direction):
    message = {
        "op": "hello",
        "version": PROTOCOL_VERSION,
        "vocab_sha256": vocab_digest(vocab),
        "direction": direction,
    }
    return (json.dumps(message) + "\n").encode()


def _scan(segment_id, tokens, first, eos):
    return {"segment": segment_id, "tokens": list(tokens), "first": first, "eos": eos}


def _scans(*scans):
    """One ``scans`` line."""
    return (json.dumps({"op": "scans", "scans": list(scans)}) + "\n").encode()


def test_wire_row_width_does_not_grow_with_vocab():
    """A V=3000 row line is at most twice the V=12 line for each row kind."""
    one_row_rule = "threshold:0.0"
    widths = {}
    for vocab_size in (12, 3000):
        corpus = generate_corpus(SimConfig(n_recordings=1, vocab_size=vocab_size, seed=5))
        rec = corpus.recordings[0]
        sid = rec.segments[0].segment_id
        ids = rec.transcript.ids
        with ScorerServer(OracleScorer(corpus), corpus.vocab) as server:
            fwd = _raw_session(
                server.host, server.port,
                [_hello(corpus.vocab, "forward"), _scans(_scan(sid, ids[:2], 1, one_row_rule)),
                 _scans(_scan(sid, ids + ids, len(ids) * 2, one_row_rule))],
            )
            bwd = _raw_session(
                server.host, server.port,
                [_hello(corpus.vocab, "backward"), _scans(_scan(sid, ids[-1:], 0, one_row_rule))],
            )
        widths[vocab_size] = [len(line) for line in fwd[1:] + bwd[1:]]
        assert all(len(json.loads(line)["rows"]) == 1 for line in fwd[1:] + bwd[1:])
    for small, large in zip(widths[12], widths[3000]):
        assert large <= 2 * small, widths


# -- scan op ------------------------------------------------------------------

SCAN_SCRIPT = """\
s\tforward\t0\t1\t0.01\t0.9\t0.9
s\tforward\t0 1\t2\t0.02\t0.85\t0.85
s\tforward\t0 1 2\t3\t0.05\t0.8\t0.8
s\tforward\t0 1 2\t\t0.05\t0.8\t
s\tforward\t0 1 2 3\t\t0.93\t0.0175\t
s\tbackward\t\t3\t0.02\t0.91\t0.91
s\tbackward\t3\t2\t0.05\t0.39\t0.39
s\tbackward\t3 2\t1\t0.03\t0.75\t0.75
s\tbackward\t3 2\t\t0.03\t0.75\t
s\tbackward\t3 2 1\t\t0.97\t0.0075\t
e\tbackward\t\t3\t0.9\t0.025\t0.025
"""
ARGMAX = EosRule("argmax")


@pytest.fixture()
def scripted(tmp_path):
    path = tmp_path / "scan.tsv"
    path.write_text(SCAN_SCRIPT, encoding="utf-8")
    vocab = Vocabulary(("a", "b", "c", "d"))
    return vocab, load_scripted_scorer(path, vocab.size)


# name -> (scan, rows it returns)
SCANS = {
    "forward-fires-on-last-row": (ScanRequest("s", Direction.FORWARD, (0, 1, 2, 3), 1, ARGMAX), 4),
    "forward-capped": (ScanRequest("s", Direction.FORWARD, (0, 1, 2), 1, ARGMAX), 3),
    "forward-threshold-fires-early": (
        ScanRequest("s", Direction.FORWARD, (0, 1, 2, 3), 1, EosRule("threshold", 0.04)), 3
    ),
    "backward-fires-on-last-row": (ScanRequest("s", Direction.BACKWARD, (3, 2, 1), 0, ARGMAX), 4),
    "backward-hits-floor": (ScanRequest("s", Direction.BACKWARD, (3, 2), 0, ARGMAX), 3),
    "backward-empty-span": (ScanRequest("e", Direction.BACKWARD, (3, 2, 1), 0, ARGMAX), 1),
}


@pytest.mark.parametrize("name", sorted(SCANS))
def test_scan_returns_the_rows_of_the_per_prefix_loop(scripted, name):
    vocab, scorer = scripted
    req, n_rows = SCANS[name]
    expected = rows_one_by_one(scorer, req)
    assert len(expected) == n_rows
    assert scorer.scan(req) == expected
    with ScorerServer(scorer, vocab) as server:
        with RemoteScorer(server.host, server.port, req.direction, vocab) as remote:
            assert remote.scan(req) == expected


class _RecordingScorer:
    """Forwards to another scorer and records each scan it is asked, with
    the rows it answered."""

    def __init__(self, inner):
        self.inner = inner
        self.scans = []

    def scan(self, req):
        rows = self.inner.scan(req)
        self.scans.append((req, rows))
        return rows


def test_scan_is_one_round_trip_asking_the_same_prefixes(scripted):
    vocab, scorer = scripted
    recording = _RecordingScorer(scorer)
    req, _ = SCANS["backward-fires-on-last-row"]
    with ScorerServer(recording, vocab) as server:
        with RemoteScorer(server.host, server.port, Direction.BACKWARD, vocab) as remote:
            remote.scan(req)
    [(asked, rows)] = recording.scans
    assert asked == req
    assert list(req.prefixes())[: len(rows)] == [(), (3,), (3, 2), (3, 2, 1)]


def test_wire_align_sends_one_scan_per_direction_per_candidate(tmp_path):
    corpus = generate_corpus(
        SimConfig(n_recordings=2, vocab_size=30, filler_segment_prob=0.3, eps_eos_false=0.05, seed=11)
    )
    config = AlignerConfig()
    for rec in corpus.recordings:
        [local] = align_recordings(
            [align_steps(rec.segments, rec.transcript, config, corpus.vocab)],
            OracleScorer(corpus), OracleScorer(corpus),
        )
        recording = _RecordingScorer(OracleScorer(corpus))
        with ScorerServer(recording, corpus.vocab) as server:
            with RemoteScorer(server.host, server.port, Direction.FORWARD, corpus.vocab) as fwd, \
                    RemoteScorer(server.host, server.port, Direction.BACKWARD, corpus.vocab) as bwd:
                [remote] = align_recordings([align_steps(rec.segments, rec.transcript, config, corpus.vocab)], fwd, bwd)
        assert remote == local
        candidates = sum(1 for line in remote.trace if " decision=" in line)
        directions = [req.direction for req, _ in recording.scans]
        assert directions.count(Direction.FORWARD) == candidates
        assert directions.count(Direction.BACKWARD) == candidates


def _fake_server(ready, answer):
    """A one-connection server: sends `ready` after the hello, then replies
    to each request line with answer(message); returns (port, ops seen)."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(1)
    ops = []

    def serve():
        conn, _ = sock.accept()
        with conn:
            fp = conn.makefile("rwb")
            fp.readline()  # hello
            fp.write((json.dumps(ready) + "\n").encode())
            fp.flush()
            while True:
                line = fp.readline()
                if not line:
                    break
                msg = json.loads(line)
                ops.append(msg["op"])
                fp.write((json.dumps(answer(msg)) + "\n").encode())
                fp.flush()
        sock.close()

    threading.Thread(target=serve, daemon=True).start()
    return sock.getsockname()[1], ops


FIRE = [0.9, 0.05, 0.05]
GO_ON = [0.05, 0.9, 0.9]


@pytest.mark.parametrize(
    "rows, message",
    [
        ([], "no rows"),
        ([FIRE, GO_ON], "past a row on which eos fires"),
        ([GO_ON, GO_ON], "ends early"),
        ([GO_ON] * 4, "window allows 3"),
    ],
    ids=["empty", "row-after-firing-row", "short-without-fire", "too-many-rows"],
)
def test_bad_scan_reply_raises_protocol_error(rows, message):
    vocab = Vocabulary(("a", "b"))
    port, _ = _fake_server({"op": "ready"}, lambda msg: {"op": "rows", "rows": rows})
    with RemoteScorer("127.0.0.1", port, Direction.FORWARD, vocab) as remote:
        with pytest.raises(ProtocolError, match=message):
            remote.scan(ScanRequest("s", Direction.FORWARD, (0, 1, 0), 1, ARGMAX))


@pytest.mark.parametrize(
    "row, message",
    [
        pytest.param([0.05, 0.9], "must be [eos, top, next]", id="two-numbers"),
        pytest.param([0.05, 0.9, 0.9, 0.0], "must be [eos, top, next]", id="four-numbers"),
        pytest.param({"eos": 0.05}, "must be [eos, top, next]", id="not-a-list"),
        pytest.param(["0.05", 0.9, 0.9], "not a number", id="string"),
        pytest.param([False, 0.9, 0.9], "not a number", id="bool"),
        pytest.param([0.05, 0.9, True], "not a number", id="bool-next"),
        pytest.param([math.nan, 0.9, 0.9], "negative or NaN", id="nan"),
        pytest.param([0.05, math.inf, 0.9], "above 1", id="inf"),
        pytest.param([-0.05, 0.9, 0.9], "negative or NaN", id="negative"),
        pytest.param([0.05, 0.9, -0.1], "negative or NaN", id="negative-next"),
        pytest.param([1.5, 0.0, 0.0], "above 1", id="above-one"),
        pytest.param([0.05, 0.5, 0.6], "exceeds the top token mass", id="next-above-top"),
        pytest.param([0.5, 0.5 + 2e-6, 0.5], "sum to", id="eos-plus-top-above-one"),
        pytest.param([0.05, 0.9, None], "lacks the mass of the token after its prefix", id="next-missing"),
    ],
)
def test_bad_wire_row_raises_protocol_error(row, message):
    """Each check of a row's three numbers, on the first row of a reply;
    only the row for the whole window may lack its next-token mass."""
    vocab = Vocabulary(("a", "b"))
    port, _ = _fake_server({"op": "ready"}, lambda msg: {"op": "rows", "rows": [row, GO_ON, FIRE]})
    with RemoteScorer("127.0.0.1", port, Direction.FORWARD, vocab) as remote:
        with pytest.raises(ProtocolError, match=re.escape(message)):
            remote.scan(ScanRequest("s", Direction.FORWARD, (0, 1, 0), 1, ARGMAX))


def test_whole_window_row_may_lack_the_next_token_mass():
    vocab = Vocabulary(("a", "b"))
    last = [0.05, 0.9, None]
    port, _ = _fake_server({"op": "ready"}, lambda msg: {"op": "rows", "rows": [GO_ON, GO_ON, last]})
    with RemoteScorer("127.0.0.1", port, Direction.FORWARD, vocab) as remote:
        rows = remote.scan(ScanRequest("s", Direction.FORWARD, (0, 1, 0), 1, ARGMAX))
    assert rows == [PosteriorRow(*GO_ON), PosteriorRow(*GO_ON), PosteriorRow(0.05, 0.9)]


def test_unknown_segment_in_scan_reaches_client(oracle_setup):
    corpus, oracle = oracle_setup
    with ScorerServer(oracle, corpus.vocab) as server:
        with RemoteScorer(server.host, server.port, Direction.BACKWARD, corpus.vocab) as remote:
            with pytest.raises(UnknownSegment):
                remote.scan(ScanRequest("ghost", Direction.BACKWARD, (0,), 0, ARGMAX))


@pytest.mark.parametrize("batched", [False, True])
def test_scan_matches_in_process_oracle(oracle_setup, batched):
    """Each scan alone, or every scan of a connection in one ``scans``
    line: the replies come in request order."""
    corpus, oracle = oracle_setup
    rec = corpus.recordings[0]
    ids = rec.transcript.ids
    with ScorerServer(oracle, corpus.vocab) as server:
        for direction, tokens, first in (
            (Direction.FORWARD, ids, 1),
            (Direction.BACKWARD, ids[::-1], 0),
        ):
            reqs = [
                ScanRequest(seg.segment_id, direction, tokens, first, rule)
                for seg in rec.segments
                for rule in (ARGMAX, EosRule("threshold", 0.5))
            ]
            with RemoteScorer(server.host, server.port, direction, corpus.vocab) as remote:
                if batched:
                    got = remote.scans(reqs)
                else:
                    got = [remote.scan(req) for req in reqs]
            assert got == [oracle.scan(req) for req in reqs]


def test_replayed_scan_yields_byte_identical_reply(oracle_setup):
    corpus, oracle = oracle_setup
    rec = corpus.recordings[0]
    line = _scans(_scan(rec.segments[0].segment_id, rec.transcript.ids, 1, "threshold:0.5"))
    with ScorerServer(oracle, corpus.vocab) as server:
        replies = _raw_session(server.host, server.port, [_hello(corpus.vocab, "forward"), line, line])
    assert json.loads(replies[0]) == {"op": "ready"}
    assert replies[1] == replies[2]
    assert json.loads(replies[1])["op"] == "rows"


def test_scans_line_gets_one_rows_line_per_scan_in_order(oracle_setup):
    """One ``scans`` line of a round, replayed: each scan gets its own rows
    line, in request order, and the replay gets byte-identical replies."""
    corpus, oracle = oracle_setup
    rec = corpus.recordings[0]
    ids = rec.transcript.ids
    reqs = [
        ScanRequest(seg.segment_id, Direction.FORWARD, ids[start:], 1, rule)
        for seg in rec.segments
        for start, rule in ((0, ARGMAX), (2, EosRule("threshold", 0.5)))
    ]
    line = _scans(*(wire.scan_to_wire(req) for req in reqs))
    with ScorerServer(oracle, corpus.vocab) as server:
        replies = _raw_session(server.host, server.port, [_hello(corpus.vocab, "forward"), line, line])
    assert len(replies) == 1 + 2 * len(reqs)
    first, replay = replies[1 : 1 + len(reqs)], replies[1 + len(reqs) :]
    assert replay == first
    assert [json.loads(reply) for reply in first] == [
        {"op": "rows", "rows": [row_to_wire(row) for row in oracle.scan(req)]} for req in reqs
    ]


@pytest.mark.parametrize(
    "bad",
    [
        [{"segment": "s", "tokens": [0, "x"], "first": 1, "eos": "argmax"}],
        [{"segment": "s", "tokens": [0], "first": 2, "eos": "argmax"}],
        [{"segment": "s", "tokens": [0], "first": True, "eos": "argmax"}],
        [{"segment": "s", "tokens": [0], "first": 1, "eos": "sometimes"}],
        [{"segment": "s", "tokens": [0], "first": 1, "eos": "threshold:2"}],
        [{"segment": "s", "tokens": [0], "first": 1}],
        {"segment": "s", "tokens": [0], "first": 1, "eos": "argmax"},  # not a list
        [],
        [{"segment": "s", "tokens": [0], "first": 1, "eos": "argmax"}, [0]],  # a non-object
        # a number too large for a float
        [{"segment": "s", "tokens": [0], "first": 1, "eos": "threshold:1e400"}],
    ],
)
def test_malformed_scan_request_gets_protocol_error(oracle_setup, bad):
    """Each payload of a ``scans`` line that is not a non-empty list of
    well-formed scans; the line is refused before any scan is answered."""
    corpus, oracle = oracle_setup
    line = (json.dumps({"op": "scans", "scans": bad}) + "\n").encode()
    with ScorerServer(oracle, corpus.vocab) as server:
        replies = _raw_session(server.host, server.port, [_hello(corpus.vocab, "forward"), line])
    assert len(replies) == 2
    err = json.loads(replies[1])
    assert err["op"] == "error" and err["code"] == "protocol"


@pytest.mark.parametrize(
    "eos",
    ["sometimes", "argmax:0.3", "threshold:2", "threshold:1e400", "threshold:nan", {"rule": "argmax"}, 0.5],
    ids=["sometimes", "argmax:0.3", "threshold:2", "threshold:1e400", "threshold:nan", "v3-object", "number"],
)
def test_refused_eos_spec_is_a_protocol_error_before_any_scan(oracle_setup, eos):
    """A scan's eos is read by EosRule.parse alone: a spec it refuses, with
    its message, or anything but a string fails the whole line, so the good
    scan ahead of it is not answered."""
    if isinstance(eos, str):
        with pytest.raises(ValueError) as refused:
            EosRule.parse(eos)
        message = str(refused.value)
    else:
        message = f"eos must be an eos rule spec string, got {eos!r}"
    corpus, oracle = oracle_setup
    rec = corpus.recordings[0]
    sid, ids = rec.segments[0].segment_id, rec.transcript.ids
    line = _scans(_scan(sid, ids, 1, "argmax"), _scan(sid, ids, 1, eos))
    with ScorerServer(oracle, corpus.vocab) as server:
        replies = _raw_session(server.host, server.port, [_hello(corpus.vocab, "forward"), line])
    assert [json.loads(reply) for reply in replies[1:]] == [
        {"op": "error", "code": "protocol", "message": message}
    ]
