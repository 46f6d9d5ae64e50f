"""Line-delimited JSON wire protocol for out-of-process scorers.

One JSON object per line, UTF-8. A connection is direction-bound by its
handshake; requests are answered in order and never reordered:

    -> {"op":"hello","version":1,"vocab_sha256":"<hex>","direction":"forward"}
    <- {"op":"ready","serial":false}
    -> {"op":"post","segment":"seg0007","prefix":[12,4,9]}
    <- {"op":"row","probs":{"3":0.81,"eos":0.07},"other_mass":0.12}

Rows are sparse (explicit eos required; remainder mass spreads uniformly
over unlisted token ids); servers send only their listed entries, and
dense rows listing every id are accepted too. Errors come back as
{"op":"error","code":...,"message":...} and close the connection.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading

from .core import Vocabulary
from .scorer import (
    Direction,
    IncompatibleScorer,
    PosteriorRow,
    PosteriorScorer,
    ProtocolError,
    ScorerRequest,
    UnknownSegment,
    expand_sparse_row,
    vocab_digest,
)

PROTOCOL_VERSION = 1
DEFAULT_TIMEOUT_SEC = 30.0

ERR_INCOMPATIBLE = "incompatible"
ERR_UNKNOWN_SEGMENT = "unknown-segment"
ERR_PROTOCOL = "protocol"


def _encode(obj: dict) -> bytes:
    return (json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n").encode("utf-8")


def _decode(line: bytes) -> dict:
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad wire line: {exc}") from None
    if not isinstance(obj, dict) or "op" not in obj:
        raise ProtocolError("wire message must be a JSON object with an 'op' field")
    return obj


def row_to_wire(row: PosteriorRow) -> dict:
    """Sparse wire form: the row's listed entries, eos and its own remainder.

    Floats survive the JSON round-trip exactly, and the client spreads the
    same remainder over the same unlisted ids, so it rebuilds an equal row.
    """
    probs = {str(i): p for i, p in row.listed.items()}
    probs["eos"] = row.eos_mass
    return {"op": "row", "probs": probs, "other_mass": row.other_mass}


class RemoteScorer:
    """Client side: one direction-bound connection to a scorer server.

    next_posterior is serialized with a lock, preserving the one-request/
    one-response ordering invariant on the connection.
    """

    def __init__(
        self,
        host: str,
        port: int,
        direction: Direction,
        vocab: Vocabulary,
        timeout_sec: float = DEFAULT_TIMEOUT_SEC,
    ) -> None:
        self._direction = direction
        self._vocab_size = vocab.size
        self._lock = threading.Lock()
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout_sec)
        except OSError as exc:
            raise ProtocolError(f"cannot connect to scorer at {host}:{port}: {exc}") from None
        self._fp = self._sock.makefile("rwb")
        reply = self._roundtrip(
            {
                "op": "hello",
                "version": PROTOCOL_VERSION,
                "vocab_sha256": vocab_digest(vocab),
                "direction": direction.value,
            }
        )
        if reply.get("op") != "ready":
            raise ProtocolError(f"expected ready after hello, got {reply.get('op')!r}")
        self.serial = bool(reply.get("serial", False))

    def _roundtrip(self, message: dict) -> dict:
        with self._lock:
            try:
                self._fp.write(_encode(message))
                self._fp.flush()
                line = self._fp.readline()
            except OSError as exc:
                raise ProtocolError(f"scorer connection failed: {exc}") from None
        if not line:
            raise ProtocolError("scorer closed the connection")
        reply = _decode(line)
        if reply.get("op") == "error":
            code = reply.get("code")
            message_s = reply.get("message", "")
            if code == ERR_INCOMPATIBLE:
                raise IncompatibleScorer(message_s)
            if code == ERR_UNKNOWN_SEGMENT:
                raise UnknownSegment(message_s)
            raise ProtocolError(f"scorer error [{code}]: {message_s}")
        return reply

    def next_posterior(self, req: ScorerRequest) -> PosteriorRow:
        if req.direction is not self._direction:
            raise ProtocolError(
                f"connection is bound to {self._direction.value}, got {req.direction.value}"
            )
        reply = self._roundtrip(
            {"op": "post", "segment": req.segment_id, "prefix": list(req.prefix)}
        )
        if reply.get("op") != "row":
            raise ProtocolError(f"expected row, got {reply.get('op')!r}")
        probs = reply.get("probs")
        if not isinstance(probs, dict):
            raise ProtocolError("row message lacks a probs object")
        other = reply.get("other_mass", 0.0)
        if not isinstance(other, (int, float)) or isinstance(other, bool):
            raise ProtocolError("other_mass must be a number")
        return expand_sparse_row(probs, float(other), self._vocab_size)

    def close(self) -> None:
        try:
            self._fp.close()
        except OSError:
            pass  # a broken connection cannot flush; the socket is closed anyway
        finally:
            self._sock.close()

    def __enter__(self) -> RemoteScorer:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _Handler(socketserver.StreamRequestHandler):
    # self.server carries scorer/digest/serial/serial_lock, set by ScorerServer

    def handle(self) -> None:
        try:
            hello_line = self.rfile.readline()
            if not hello_line:
                return
            hello = _decode(hello_line)
            if hello.get("op") != "hello":
                self._error(ERR_PROTOCOL, "expected hello")
                return
            if hello.get("version") != PROTOCOL_VERSION:
                self._error(ERR_INCOMPATIBLE, f"unsupported protocol version {hello.get('version')}")
                return
            if hello.get("vocab_sha256") != self.server.digest:
                self._error(ERR_INCOMPATIBLE, "vocabulary digest mismatch")
                return
            direction = Direction.parse(str(hello.get("direction")))
            self.wfile.write(_encode({"op": "ready", "serial": self.server.serial}))
            self.wfile.flush()
            while True:
                line = self.rfile.readline()
                if not line:
                    return
                msg = _decode(line)
                if msg.get("op") != "post":
                    self._error(ERR_PROTOCOL, f"unexpected op {msg.get('op')!r}")
                    return
                prefix = msg.get("prefix", [])
                if not isinstance(prefix, list) or not all(
                    isinstance(x, int) and not isinstance(x, bool) for x in prefix
                ):
                    self._error(ERR_PROTOCOL, "prefix must be a list of token ids")
                    return
                req = ScorerRequest(str(msg.get("segment")), direction, tuple(prefix))
                try:
                    if self.server.serial:
                        with self.server.serial_lock:
                            row = self.server.scorer.next_posterior(req)
                    else:
                        row = self.server.scorer.next_posterior(req)
                except UnknownSegment as exc:
                    self._error(ERR_UNKNOWN_SEGMENT, str(exc))
                    return
                self.wfile.write(_encode(row_to_wire(row)))
                self.wfile.flush()
        except ProtocolError as exc:
            try:
                self._error(ERR_PROTOCOL, str(exc))
            except OSError:
                pass
        except OSError:
            pass

    def _error(self, code: str, message: str) -> None:
        self.wfile.write(_encode({"op": "error", "code": code, "message": message}))
        self.wfile.flush()


class ScorerServer:
    """Threaded TCP server exposing one scorer over the wire protocol.

    The scorer must answer both directions; each connection binds its
    direction in the handshake. With serial=True, posts across all
    connections are serialized and the handshake advertises it.
    """

    def __init__(
        self,
        scorer: PosteriorScorer,
        vocab: Vocabulary,
        host: str = "127.0.0.1",
        port: int = 0,
        serial: bool = False,
    ) -> None:
        self.scorer = scorer
        self.digest = vocab_digest(vocab)
        self.serial = serial
        self.serial_lock = threading.Lock()

        outer = self

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = _Server((host, port), _Handler)
        for attr in ("scorer", "digest", "serial", "serial_lock"):
            setattr(self._server, attr, getattr(outer, attr))
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self) -> None:
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> ScorerServer:
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
