import json
import socket
import threading

import pytest

from lsalign.core import Vocabulary
from lsalign.scorer import (
    Direction,
    IncompatibleScorer,
    ProtocolError,
    ScorerRequest,
    ScriptedScorer,
    UnknownSegment,
    expand_sparse_row,
)
from lsalign.simulator import OracleScorer, SimConfig, generate_corpus
from lsalign.wire import PROTOCOL_VERSION, RemoteScorer, ScorerServer, row_to_wire, vocab_digest


@pytest.fixture()
def oracle_setup():
    corpus = generate_corpus(SimConfig(n_recordings=1, vocab_size=6, seed=2))
    return corpus, OracleScorer(corpus)


def test_roundtrip_matches_in_process(oracle_setup):
    corpus, oracle = oracle_setup
    rec = corpus.recordings[0]
    with ScorerServer(oracle, corpus.vocab) as server:
        with RemoteScorer(server.host, server.port, Direction.FORWARD, corpus.vocab) as remote:
            for k in range(0, 4):
                req = ScorerRequest(rec.segments[0].segment_id, Direction.FORWARD, rec.transcript.ids[:k] if k else ())
                assert remote.next_posterior(req) == oracle.next_posterior(req)


def test_digest_mismatch_raises_incompatible(oracle_setup):
    corpus, oracle = oracle_setup
    other_vocab = Vocabulary(("completely", "different"))
    with ScorerServer(oracle, corpus.vocab) as server:
        with pytest.raises(IncompatibleScorer):
            RemoteScorer(server.host, server.port, Direction.FORWARD, other_vocab)


def test_unknown_segment_over_wire(oracle_setup):
    corpus, oracle = oracle_setup
    with ScorerServer(oracle, corpus.vocab) as server:
        remote = RemoteScorer(server.host, server.port, Direction.FORWARD, corpus.vocab)
        with pytest.raises(UnknownSegment):
            remote.next_posterior(ScorerRequest("ghost", Direction.FORWARD, ()))
        remote.close()


def test_direction_binding_enforced(oracle_setup):
    corpus, oracle = oracle_setup
    with ScorerServer(oracle, corpus.vocab) as server:
        with RemoteScorer(server.host, server.port, Direction.FORWARD, corpus.vocab) as remote:
            with pytest.raises(ProtocolError):
                remote.next_posterior(ScorerRequest("x", Direction.BACKWARD, ()))


def test_serial_mode_advertised(oracle_setup):
    corpus, oracle = oracle_setup
    with ScorerServer(oracle, corpus.vocab, serial=True) as server:
        with RemoteScorer(server.host, server.port, Direction.FORWARD, corpus.vocab) as remote:
            assert remote.serial


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
        remote.next_posterior(ScorerRequest("s", Direction.FORWARD, ()))
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
            req = ScorerRequest(rec.segments[0].segment_id, Direction.FORWARD, rec.transcript.ids[:1])
            assert remote.next_posterior(req) == oracle.next_posterior(req)


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
                req = ScorerRequest(sid, direction, ())
                if direction is Direction.FORWARD:
                    req = ScorerRequest(sid, direction, rec.transcript.ids[:1])
                results[direction] = remote.next_posterior(req)

        threads = [threading.Thread(target=worker, args=(d,)) for d in Direction]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        for direction, row in results.items():
            req = ScorerRequest(sid, direction, rec.transcript.ids[:1] if direction is Direction.FORWARD else ())
            assert row == oracle.next_posterior(req)


def test_scripted_scorer_over_wire(tmp_path):
    vocab = Vocabulary(("a", "b", "c"))
    rows = {
        ("s", Direction.BACKWARD, ()): expand_sparse_row({"2": 0.9, "eos": 0.05}, 0.05, 3),
    }
    scorer = ScriptedScorer(rows, vocab.size)
    with ScorerServer(scorer, vocab) as server:
        with RemoteScorer(server.host, server.port, Direction.BACKWARD, vocab) as remote:
            got = remote.next_posterior(ScorerRequest("s", Direction.BACKWARD, ()))
            assert got == rows[("s", Direction.BACKWARD, ())]


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
    req = ScorerRequest(rec.segments[0].segment_id, Direction.FORWARD, rec.transcript.ids[:1])
    sparse = oracle.next_posterior(req)
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
        got = remote.next_posterior(req)
    sock.close()
    thread.join(timeout=5)
    assert len(got.listed) == corpus.vocab.size and got.other_mass == 0.0
    assert got == sparse
    assert got.eos_is_argmax() == sparse.eos_is_argmax()
    assert expand_sparse_row(probs, 0.0, corpus.vocab.size) == sparse


def test_sparse_row_keeps_its_remainder_on_the_wire(oracle_setup):
    corpus, oracle = oracle_setup
    rec = corpus.recordings[0]
    row = oracle.next_posterior(
        ScorerRequest(rec.segments[0].segment_id, Direction.BACKWARD, ())
    )
    wire = row_to_wire(row)
    assert wire["probs"] == {**{str(i): p for i, p in row.listed.items()}, "eos": row.eos_mass}
    assert wire["other_mass"] == row.other_mass
    rebuilt = expand_sparse_row(wire["probs"], wire["other_mass"], corpus.vocab.size)
    assert (rebuilt.listed, rebuilt.eos_mass, rebuilt.other_mass) == (
        row.listed, row.eos_mass, row.other_mass
    )
