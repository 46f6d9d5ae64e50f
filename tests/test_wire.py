import json
import re
import socket
import threading

import pytest

from lsalign.aligner import AlignerConfig, align_recording
from lsalign.cli import main
from lsalign.core import Vocabulary
from lsalign.dataio import save_corpus
from lsalign.scorer import (
    Direction,
    EosRule,
    IncompatibleScorer,
    ProtocolError,
    ScanRequest,
    ScriptedScorer,
    UnknownKey,
    UnknownSegment,
    expand_sparse_row,
    load_scripted_scorer,
)
from lsalign.simulator import OracleScorer, SimConfig, generate_corpus
from lsalign import wire
from lsalign.wire import PROTOCOL_VERSION, RemoteScorer, ScorerServer, row_to_wire, vocab_digest
from output_matrix import post_only_proxy  # scripts/ is on the test path (conftest.py)
from test_scorer import one_row, rows_one_by_one


def posts_only(remote):
    """Drive the connection with v1 posts, as against a server whose ready
    lacks "scan"."""
    remote.scans = False
    return remote


@pytest.fixture()
def oracle_setup():
    corpus = generate_corpus(SimConfig(n_recordings=1, vocab_size=6, seed=2))
    return corpus, OracleScorer(corpus)


def test_roundtrip_matches_in_process(oracle_setup):
    corpus, oracle = oracle_setup
    rec = corpus.recordings[0]
    with ScorerServer(oracle, corpus.vocab) as server:
        sid = rec.segments[0].segment_id
        for scans in (True, False):
            with RemoteScorer(server.host, server.port, Direction.FORWARD, corpus.vocab) as remote:
                if not scans:
                    posts_only(remote)
                for k in range(0, 4):
                    prefix = rec.transcript.ids[:k]
                    want = one_row(oracle, sid, Direction.FORWARD, prefix)
                    assert one_row(remote, sid, Direction.FORWARD, prefix) == want


def test_digest_mismatch_raises_incompatible(oracle_setup):
    corpus, oracle = oracle_setup
    other_vocab = Vocabulary(("completely", "different"))
    with ScorerServer(oracle, corpus.vocab) as server:
        with pytest.raises(IncompatibleScorer):
            RemoteScorer(server.host, server.port, Direction.FORWARD, other_vocab)


def test_unknown_segment_over_wire(oracle_setup):
    corpus, oracle = oracle_setup
    with ScorerServer(oracle, corpus.vocab) as server:
        for remote in (
            RemoteScorer(server.host, server.port, Direction.FORWARD, corpus.vocab),
            posts_only(RemoteScorer(server.host, server.port, Direction.FORWARD, corpus.vocab)),
        ):
            with pytest.raises(UnknownSegment):
                one_row(remote, "ghost", Direction.FORWARD, ())
            remote.close()


def test_direction_binding_enforced(oracle_setup):
    corpus, oracle = oracle_setup
    with ScorerServer(oracle, corpus.vocab) as server:
        with RemoteScorer(server.host, server.port, Direction.FORWARD, corpus.vocab) as remote:
            with pytest.raises(ProtocolError):
                one_row(remote, "x", Direction.BACKWARD, ())


def test_both_ends_disable_nagle(oracle_setup, monkeypatch):
    """Pipelined requests and replies go out at once instead of waiting
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
    """Send raw lines, return reply lines (one per request)."""
    replies = []
    with socket.create_connection((host, port), timeout=10) as sock:
        fp = sock.makefile("rwb")
        for line in lines:
            fp.write(line)
            fp.flush()
            replies.append(fp.readline())
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
    post = (json.dumps({"op": "post", "segment": sid, "prefix": [rec.transcript.ids[0]]}) + "\n").encode()
    with ScorerServer(oracle, corpus.vocab) as server:
        replies = _raw_session(server.host, server.port, [hello, post, post])
    assert json.loads(replies[0])["op"] == "ready"
    assert replies[1] == replies[2]
    assert json.loads(replies[1])["op"] == "row"


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


def test_malformed_response_raises_protocol_error():
    """A server that omits the eos entry violates the row contract."""

    def bad_server(sock):
        conn, _ = sock.accept()
        fp = conn.makefile("rwb")
        fp.readline()  # hello
        fp.write(b'{"op":"ready","serial":false}\n')
        fp.flush()
        fp.readline()  # post
        fp.write(b'{"op":"row","probs":{"0":0.9},"other_mass":0.1}\n')
        fp.flush()
        conn.close()

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(1)
    thread = threading.Thread(target=bad_server, args=(sock,), daemon=True)
    thread.start()
    vocab = Vocabulary(("a", "b"))
    remote = RemoteScorer(*sock.getsockname(), Direction.FORWARD, vocab)
    with pytest.raises(ProtocolError, match="eos"):
        one_row(remote, "s", Direction.FORWARD, ())
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
            assert one_row(posts_only(remote), sid, Direction.FORWARD, prefix) == want


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
    row = expand_sparse_row({"0": 0.25, "1": 0.5, "eos": 0.25}, 0.0, 2)
    wire = row_to_wire(row)
    rebuilt = expand_sparse_row(wire["probs"], wire["other_mass"], 2)
    assert rebuilt == row


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
        ("s", Direction.BACKWARD, ()): expand_sparse_row({"2": 0.9, "eos": 0.05}, 0.05, 3),
    }
    scorer = ScriptedScorer(rows, vocab.size)
    with ScorerServer(scorer, vocab) as server:
        with RemoteScorer(server.host, server.port, Direction.BACKWARD, vocab) as remote:
            got = one_row(remote, "s", Direction.BACKWARD, ())
            assert got == rows[("s", Direction.BACKWARD, ())]


@pytest.mark.parametrize("op", ["post", "scan"])
def test_scorer_failure_reaches_client_as_error_line(op):
    vocab = Vocabulary(("a", "b", "c"))
    rows = {("s", Direction.BACKWARD, ()): expand_sparse_row({"2": 0.9, "eos": 0.05}, 0.05, 3)}
    scorer = ScriptedScorer(rows, vocab.size)  # strict: an unscripted prefix raises UnknownKey
    with pytest.raises(UnknownKey) as local:
        one_row(scorer, "s", Direction.BACKWARD, (2,))
    with ScorerServer(scorer, vocab) as server:
        with RemoteScorer(server.host, server.port, Direction.BACKWARD, vocab) as remote:
            with pytest.raises(ProtocolError, match=re.escape(str(local.value))):
                if op == "post":
                    one_row(posts_only(remote), "s", Direction.BACKWARD, (2,))
                else:
                    # the empty prefix is scripted and does not fire; (2,) is not
                    remote.scan(ScanRequest("s", Direction.BACKWARD, (2,), 0, ARGMAX))
        # the server answered the failure and goes on serving new connections
        with RemoteScorer(server.host, server.port, Direction.BACKWARD, vocab) as remote:
            assert one_row(remote, "s", Direction.BACKWARD, ()) == rows[("s", Direction.BACKWARD, ())]


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
    [("raises", "ValueError: model blew up"), ("no-rows", "the scorer answered a post with no row")],
)
def test_any_scorer_failure_is_answered_with_an_error_line(tmp_path, capsys, failure, message):
    corpus = generate_corpus(SimConfig(n_recordings=1, vocab_size=6, seed=2))
    corpus_dir = save_corpus(corpus, tmp_path / "corpus")
    sid = corpus.recordings[0].segments[0].segment_id
    with ScorerServer(_BrokenScorer(failure), corpus.vocab) as server, \
            post_only_proxy(server) as (proxy_host, proxy_port, _):
        with RemoteScorer(server.host, server.port, Direction.FORWARD, corpus.vocab) as remote:
            with pytest.raises(ProtocolError, match=re.escape(message)):
                one_row(posts_only(remote), sid, Direction.FORWARD, ())
        # align asks scans of the server, and posts through the v1 proxy
        spec = f"remote:{server.host}:{server.port}" if failure == "raises" else f"remote:{proxy_host}:{proxy_port}"
        code = main([
            "align", "--corpus", str(corpus_dir), "--fwd-scorer", spec, "--bwd-scorer", spec,
            "--out", str(tmp_path / "run"),
        ])
        assert code == 3
        # the server answered each failure, printed no traceback, and serves new connections
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
    """The failing recording's scan is fourth of eight in flight: the
    replies before it are read, its error line ends the run with exit 3
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


def _post(segment_id, prefix):
    return (json.dumps({"op": "post", "segment": segment_id, "prefix": list(prefix)}) + "\n").encode()


def test_wire_row_width_does_not_grow_with_vocab():
    """A V=3000 row line is at most twice the V=12 line for each row kind."""
    widths = {}
    for vocab_size in (12, 3000):
        corpus = generate_corpus(SimConfig(n_recordings=1, vocab_size=vocab_size, seed=5))
        rec = corpus.recordings[0]
        sid = rec.segments[0].segment_id
        ids = rec.transcript.ids
        with ScorerServer(OracleScorer(corpus), corpus.vocab) as server:
            fwd = _raw_session(
                server.host, server.port,
                [_hello(corpus.vocab, "forward"), _post(sid, ids[:1]), _post(sid, ids + ids)],
            )
            bwd = _raw_session(
                server.host, server.port, [_hello(corpus.vocab, "backward"), _post(sid, ())]
            )
        widths[vocab_size] = [len(line) for line in fwd[1:] + bwd[1:]]
        assert all(json.loads(line)["op"] == "row" for line in fwd[1:] + bwd[1:])
    for small, large in zip(widths[12], widths[3000]):
        assert large <= 2 * small, widths


def test_dense_v1_row_parses_to_its_sparse_form(oracle_setup):
    """Another v1 server may list every id with no remainder; the client
    must rebuild a row equal to the sparse one the oracle produces."""
    corpus, oracle = oracle_setup
    rec = corpus.recordings[0]
    sid, prefix = rec.segments[0].segment_id, rec.transcript.ids[:1]
    sparse = one_row(oracle, sid, Direction.FORWARD, prefix)
    assert len(sparse.listed) < corpus.vocab.size
    probs = {str(i): sparse.mass(i) for i in range(corpus.vocab.size)}
    probs["eos"] = sparse.eos_mass
    dense_line = (json.dumps({"op": "row", "probs": probs, "other_mass": 0.0}) + "\n").encode()

    def dense_server(sock):
        conn, _ = sock.accept()
        fp = conn.makefile("rwb")
        fp.readline()  # hello
        fp.write(b'{"op":"ready","serial":false}\n')
        fp.flush()
        fp.readline()  # post
        fp.write(dense_line)
        fp.flush()
        conn.close()

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(1)
    thread = threading.Thread(target=dense_server, args=(sock,), daemon=True)
    thread.start()
    with RemoteScorer(*sock.getsockname(), Direction.FORWARD, corpus.vocab) as remote:
        assert not remote.scans
        got = one_row(remote, sid, Direction.FORWARD, prefix)
    sock.close()
    thread.join(timeout=5)
    assert len(got.listed) == corpus.vocab.size and got.other_mass == 0.0
    assert got == sparse
    assert got.eos_is_argmax() == sparse.eos_is_argmax()
    assert expand_sparse_row(probs, 0.0, corpus.vocab.size) == sparse


def test_sparse_row_keeps_its_remainder_on_the_wire(oracle_setup):
    corpus, oracle = oracle_setup
    rec = corpus.recordings[0]
    row = one_row(oracle, rec.segments[0].segment_id, Direction.BACKWARD, ())
    wire = row_to_wire(row)
    assert wire["probs"] == {**{str(i): p for i, p in row.listed.items()}, "eos": row.eos_mass}
    assert wire["other_mass"] == row.other_mass
    rebuilt = expand_sparse_row(wire["probs"], wire["other_mass"], corpus.vocab.size)
    assert (rebuilt.listed, rebuilt.eos_mass, rebuilt.other_mass) == (
        row.listed, row.eos_mass, row.other_mass
    )


# -- scan op ------------------------------------------------------------------

SCAN_SCRIPT = """\
s\tforward\t0\t1:0.9,eos:0.01
s\tforward\t0 1\t2:0.85,eos:0.02
s\tforward\t0 1 2\t3:0.8,eos:0.05
s\tforward\t0 1 2 3\teos:0.93
s\tbackward\t\t3:0.91,eos:0.02
s\tbackward\t3\t2:0.39,eos:0.05
s\tbackward\t3 2\t1:0.75,eos:0.03
s\tbackward\t3 2 1\teos:0.97
e\tbackward\t\teos:0.9
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
            assert remote.scans
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
        local = align_recording(
            rec.segments, rec.transcript, OracleScorer(corpus), OracleScorer(corpus), config, corpus.vocab
        )
        recording = _RecordingScorer(OracleScorer(corpus))
        with ScorerServer(recording, corpus.vocab) as server:
            with RemoteScorer(server.host, server.port, Direction.FORWARD, corpus.vocab) as fwd, \
                    RemoteScorer(server.host, server.port, Direction.BACKWARD, corpus.vocab) as bwd:
                remote = align_recording(rec.segments, rec.transcript, fwd, bwd, config, corpus.vocab)
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


def test_v1_server_without_scan_is_driven_with_posts(scripted):
    vocab, scorer = scripted

    def answer(msg):
        return {"op": "row", **row_to_wire(one_row(scorer, msg["segment"], Direction.FORWARD, msg["prefix"]))}

    port, ops = _fake_server({"op": "ready", "serial": False}, answer)
    req, _ = SCANS["forward-fires-on-last-row"]
    with RemoteScorer("127.0.0.1", port, Direction.FORWARD, vocab) as remote:
        assert not remote.scans
        assert remote.scan(req) == rows_one_by_one(scorer, req)
    assert ops == ["post"] * 4


FIRE = {"probs": {"0": 0.05, "eos": 0.9}, "other_mass": 0.05}
GO_ON = {"probs": {"0": 0.9, "eos": 0.05}, "other_mass": 0.05}


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
    port, _ = _fake_server({"op": "ready", "serial": False, "scan": True},
                           lambda msg: {"op": "rows", "rows": rows})
    with RemoteScorer("127.0.0.1", port, Direction.FORWARD, vocab) as remote:
        with pytest.raises(ProtocolError, match=message):
            remote.scan(ScanRequest("s", Direction.FORWARD, (0, 1, 0), 1, ARGMAX))


def test_unknown_segment_in_scan_reaches_client(oracle_setup):
    corpus, oracle = oracle_setup
    with ScorerServer(oracle, corpus.vocab) as server:
        with RemoteScorer(server.host, server.port, Direction.BACKWARD, corpus.vocab) as remote:
            with pytest.raises(UnknownSegment):
                remote.scan(ScanRequest("ghost", Direction.BACKWARD, (0,), 0, ARGMAX))


@pytest.mark.parametrize("pipelined", [False, True])
def test_scan_matches_in_process_oracle(oracle_setup, pipelined):
    """Each scan alone, or every scan of a connection written before the
    first reply is read: the replies come in request order."""
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
                if pipelined:
                    for req in reqs:
                        remote.send(remote.scan_line(req))
                    remote.flush()
                    got = [remote.receive(req) for req in reqs]
                else:
                    got = [remote.scan(req) for req in reqs]
            assert got == [oracle.scan(req) for req in reqs]


def test_replayed_scan_yields_byte_identical_reply(oracle_setup):
    corpus, oracle = oracle_setup
    rec = corpus.recordings[0]
    scan = {
        "op": "scan", "segment": rec.segments[0].segment_id, "tokens": list(rec.transcript.ids),
        "first": 1, "eos": {"rule": "threshold", "p_eos_min": 0.5},
    }
    line = (json.dumps(scan) + "\n").encode()
    with ScorerServer(oracle, corpus.vocab) as server:
        replies = _raw_session(server.host, server.port, [_hello(corpus.vocab, "forward"), line, line])
    assert json.loads(replies[0]) == {"op": "ready", "scan": True}
    assert replies[1] == replies[2]
    assert json.loads(replies[1])["op"] == "rows"


@pytest.mark.parametrize(
    "bad",
    [
        {"tokens": [0, "x"], "first": 1, "eos": {"rule": "argmax"}},
        {"tokens": [0], "first": 2, "eos": {"rule": "argmax"}},
        {"tokens": [0], "first": True, "eos": {"rule": "argmax"}},
        {"tokens": [0], "first": 1, "eos": {"rule": "sometimes"}},
        {"tokens": [0], "first": 1, "eos": {"rule": "threshold", "p_eos_min": 2.0}},
        {"tokens": [0], "first": 1},
    ],
)
def test_malformed_scan_request_gets_protocol_error(oracle_setup, bad):
    corpus, oracle = oracle_setup
    line = (json.dumps({"op": "scan", "segment": "s", **bad}) + "\n").encode()
    with ScorerServer(oracle, corpus.vocab) as server:
        replies = _raw_session(server.host, server.port, [_hello(corpus.vocab, "forward"), line])
    err = json.loads(replies[1])
    assert err["op"] == "error" and err["code"] == "protocol"
