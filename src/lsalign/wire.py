"""Line-delimited JSON wire protocol (version 4) for out-of-process scorers.

One JSON object per line, UTF-8. A connection is direction-bound by its
handshake. Each round of the aligner is one ``scans`` line, answered by
one ``rows`` line per scan, in request order:

    -> {"op":"hello","version":4,"vocab_sha256":"<hex>","direction":"forward"}
    <- {"op":"ready"}
    -> {"op":"scans","scans":[{"segment":"seg0007","tokens":[12,4,9],"first":1,"eos":"argmax"},
                              {"segment":"seg0031","tokens":[7,7],"first":1,"eos":"argmax"}]}
    <- {"op":"rows","rows":[[0.0,0.95,0.95],[0.02,0.93,0.0025],[0.97,0.0075,null]]}
    <- {"op":"rows","rows":[[0.01,0.9,0.9],[0.95,0.01,null]]}

A scan is a ``ScanRequest``, whose ``eos`` is its rule's ``--eos-rule``
spec, read by ``EosRule.parse``; it travels with each scan, so a
replayed line gets byte-identical replies. A row is a ``PosteriorRow``
as ``[eos, top, next]``. The client checks each reply with
``ScanRequest.check``. A ``scans`` line holds a non-empty list of scans;
the server reads the whole line before it answers, and writes each reply
as soon as it has it.

Errors come back as {"op":"error","code":...,"message":...} and close
the connection; any other exception of the served scorer comes back as
a "protocol" error. A hello of another version is refused as
"incompatible". A client ignores keys of ``ready`` it does not know. A
server sets TCP_NODELAY, or writes a round's replies with one flush;
otherwise each reply after the first can wait for the client's delayed
ACK.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from typing import Callable, Sequence

from .core import Vocabulary
from .scorer import (
    DEFAULT_TIMEOUT_SEC,
    Direction,
    EosRule,
    IncompatibleScorer,
    PosteriorRow,
    PosteriorScorer,
    ProtocolError,
    ScanRequest,
    ScorerError,
    UnknownSegment,
    vocab_digest,
)

PROTOCOL_VERSION = 4

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


def row_to_wire(row: PosteriorRow) -> list:
    """Wire form ``[eos, top, next]``; floats survive the JSON round trip exactly."""
    return [row.eos_mass, row.top_mass, row.next_mass]


def _mass(value: object) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ProtocolError(f"row entry {value!r} is not a number")
    return float(value)


def _row_from_wire(obj: object) -> PosteriorRow:
    if not isinstance(obj, list) or len(obj) != 3:
        raise ProtocolError(f"a row must be [eos, top, next], got {obj!r}")
    eos, top, nxt = obj
    try:
        return PosteriorRow(_mass(eos), _mass(top), None if nxt is None else _mass(nxt))
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def scan_to_wire(req: ScanRequest) -> dict:
    return {
        "segment": req.segment_id, "tokens": list(req.tokens), "first": req.first,
        "eos": str(req.rule),
    }


def scan_from_wire(obj: object, direction: Direction) -> ScanRequest:
    if not isinstance(obj, dict):
        raise ProtocolError(f"a scan must be a JSON object, got {obj!r}")
    first = obj.get("first")
    if not isinstance(first, int) or isinstance(first, bool):
        raise ProtocolError("first must be an integer")
    tokens = obj.get("tokens", [])
    if not isinstance(tokens, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in tokens
    ):
        raise ProtocolError("tokens must be a list of token ids")
    eos = obj.get("eos")
    if not isinstance(eos, str):
        raise ProtocolError(f"eos must be an eos rule spec string, got {eos!r}")
    try:
        rule = EosRule.parse(eos)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    return ScanRequest(str(obj.get("segment")), direction, tuple(tokens), first, rule)


class RemoteScorer(PosteriorScorer):
    """Client side: one direction-bound connection to a scorer server,
    used by one thread. ``scans`` is one round trip."""

    def __init__(
        self,
        host: str,
        port: int,
        direction: Direction,
        vocab: Vocabulary,
        timeout_sec: float = DEFAULT_TIMEOUT_SEC,
    ) -> None:
        self._direction = direction
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout_sec)
        except OSError as exc:
            raise ProtocolError(f"cannot connect to scorer at {host}:{port}: {exc}") from None
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._fp = self._sock.makefile("rwb")
        try:
            self._send({
                "op": "hello",
                "version": PROTOCOL_VERSION,
                "vocab_sha256": vocab_digest(vocab),
                "direction": direction.value,
            })
            reply = self._read()
            if reply.get("op") != "ready":
                raise ProtocolError(f"expected ready after hello, got {reply.get('op')!r}")
        except BaseException:
            self.close()  # no caller holds this scorer to close it
            raise

    def _io(self, call: Callable, *args: object) -> object:
        try:
            return call(*args)
        except OSError as exc:
            raise ProtocolError(f"scorer connection failed: {exc}") from None

    def _send(self, message: dict) -> None:
        self._io(self._fp.write, _encode(message))
        self._io(self._fp.flush)

    def _read(self) -> dict:
        line = self._io(self._fp.readline)
        if not line:
            raise ProtocolError("scorer closed the connection")
        reply = _decode(line)
        if reply.get("op") == "error":
            code = reply.get("code")
            message = reply.get("message", "")
            if code == ERR_INCOMPATIBLE:
                raise IncompatibleScorer(message)
            if code == ERR_UNKNOWN_SEGMENT:
                raise UnknownSegment(message)
            raise ProtocolError(f"scorer error [{code}]: {message}")
        return reply

    def scan(self, req: ScanRequest) -> list[PosteriorRow]:
        return self.scans([req])[0]

    def scans(self, reqs: Sequence[ScanRequest]) -> list[list[PosteriorRow]]:
        """One ``scans`` line, then the reply to each scan, in order."""
        for req in reqs:
            if req.direction is not self._direction:
                raise ProtocolError(
                    f"connection is bound to {self._direction.value}, got {req.direction.value}"
                )
        self._send({"op": "scans", "scans": [scan_to_wire(req) for req in reqs]})
        return [self._rows(req) for req in reqs]

    def _rows(self, req: ScanRequest) -> list[PosteriorRow]:
        """Read the reply to ``req``, checked by ``req.check``."""
        reply = self._read()
        if reply.get("op") != "rows":
            raise ProtocolError(f"expected rows, got {reply.get('op')!r}")
        wire_rows = reply.get("rows")
        if not isinstance(wire_rows, list):
            raise ProtocolError(f"rows must be a list of rows, got {wire_rows!r}")
        rows = [_row_from_wire(obj) for obj in wire_rows]
        req.check(rows)
        return rows

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
    # self.server is the ScorerServer, carrying scorer and digest
    disable_nagle_algorithm = True  # TCP_NODELAY: each reply goes out at once

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
                self._error(
                    ERR_INCOMPATIBLE,
                    f"unsupported protocol version {hello.get('version')}; "
                    f"this server speaks version {PROTOCOL_VERSION}",
                )
                return
            if hello.get("vocab_sha256") != self.server.digest:
                self._error(ERR_INCOMPATIBLE, "vocabulary digest mismatch")
                return
            direction = Direction.parse(str(hello.get("direction")))
            self.wfile.write(_encode({"op": "ready"}))
            self.wfile.flush()
            while True:
                line = self.rfile.readline()
                if not line:
                    return
                msg = _decode(line)
                if msg.get("op") != "scans":
                    raise ProtocolError(f"unexpected op {msg.get('op')!r}")
                scans = msg.get("scans")
                if not isinstance(scans, list) or not scans:
                    raise ProtocolError("scans must be a non-empty list of scans")
                for scan in [scan_from_wire(obj, direction) for obj in scans]:
                    try:
                        rows = self.server.scorer.scan(scan)
                        reply = _encode({"op": "rows", "rows": [row_to_wire(row) for row in rows]})
                    except UnknownSegment as exc:
                        self._error(ERR_UNKNOWN_SEGMENT, str(exc))
                        return
                    except Exception as exc:  # the scorer failing to answer
                        known = isinstance(exc, ScorerError)
                        self._error(ERR_PROTOCOL, str(exc) if known else f"{type(exc).__name__}: {exc}")
                        return
                    # flushed one by one, so the client reads a reply while later ones are computed
                    self.wfile.write(reply)
                    self.wfile.flush()
        except ScorerError as exc:  # a malformed line or handshake
            try:
                self._error(ERR_PROTOCOL, str(exc))
            except OSError:
                pass
        except OSError:
            pass

    def _error(self, code: str, message: str) -> None:
        self.wfile.write(_encode({"op": "error", "code": code, "message": message}))
        self.wfile.flush()


class ScorerServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server exposing one scorer over the wire protocol.

    The scorer must answer both directions; each connection binds its
    direction in the handshake and is served on a thread of its own.
    ``with ScorerServer(...) as server`` serves on a background thread and
    shuts down and closes on exit; ``serve_forever`` serves on the caller's.
    An address it cannot listen on raises ScorerError naming it.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        scorer: PosteriorScorer,
        vocab: Vocabulary,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        try:
            super().__init__((host, port), _Handler)  # closes its socket when it cannot listen
        except OSError as exc:
            raise ScorerError(f"cannot listen on {host}:{port}: {exc.strerror or exc}") from None
        self.scorer = scorer
        self.digest = vocab_digest(vocab)
        self.host, self.port = self.server_address

    def __enter__(self) -> ScorerServer:
        # a short poll lets shutdown return promptly
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
        self.server_close()
        self._thread.join()
