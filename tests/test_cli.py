import contextlib
import json
import math
import os
import socket
import socketserver
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import lsalign
from lsalign import dataio, wire
from lsalign.cli import main
from lsalign.corpus import SimConfig
from lsalign.ctcseg import FramePosteriors, write_frame_posteriors
from lsalign.dataio import load_corpus, save_corpus
from lsalign.oracle import OracleScorer
from lsalign.simulator import generate_corpus
from lsalign.wire import RemoteScorer, ScorerServer


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def corpus_dir(tmp_path):
    corpus = generate_corpus(
        SimConfig(n_recordings=3, utterances_per_recording=(2, 4), filler_segment_prob=0.2, seed=17)
    )
    return save_corpus(corpus, tmp_path / "corpus")


def test_simulate_align_evaluate_flow(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run_cli("simulate", "--out", corpus, "--recordings", 2, "--seed", 3) == 0
    for name in ("segments.tsv", "transcripts.tsv", "ground_truth.json", "meta.json"):
        assert (corpus / name).exists()

    run = tmp_path / "run"
    code = run_cli(
        "align", "--corpus", corpus,
        "--fwd-scorer", f"oracle:{corpus}", "--bwd-scorer", f"oracle:{corpus}",
        "--out", run,
    )
    assert code == 0
    report = json.loads((run / "report.json").read_text())
    assert report["metrics"]["span_exact_match"] == 1.0
    assert report["aligner"]["theta"] == 0.7

    assert run_cli("evaluate", "--run", run, "--corpus", corpus, "--out", tmp_path / "eval.json") == 0
    out = capsys.readouterr().out
    assert "nrr" in out
    eval_report = json.loads((tmp_path / "eval.json").read_text())
    assert eval_report["nrr"] == 1.0
    assert eval_report["cer_non_rejected"] == 0.0


def test_align_is_byte_deterministic(tmp_path, corpus_dir):
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert run_cli(
            "align", "--corpus", corpus_dir,
            "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}",
            "--out", out,
        ) == 0
        outs.append(out)
    for name in ("aligned.tsv", "rejected.tsv", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def _noisy_corpus(recordings, **overrides):
    config = dict(
        n_recordings=recordings, utterances_per_recording=(3, 6), vocab_size=6,
        filler_segment_prob=0.2, eps_eos_miss=0.05, eps_eos_false=0.05, seed=24,
    )
    return generate_corpus(SimConfig(**{**config, **overrides}))


def _align_outputs(corpus_dir, spec, out, *flags, bwd_spec=None):
    """(exit code, aligned.tsv, rejected.tsv, report.json) of one align;
    the backward scorer is ``spec`` too unless ``bwd_spec`` is given."""
    code = run_cli(
        "align", "--corpus", corpus_dir, "--fwd-scorer", spec, "--bwd-scorer", bwd_spec or spec,
        *flags, "--out", out,
    )
    return (code, *((out / name).read_bytes() for name in ("aligned.tsv", "rejected.tsv", "report.json")))


@pytest.mark.parametrize(
    "recordings, flags, code",
    [(1, [], 0), (2, [], 0), (8, ["--queue-cap", "3"], 4)],
    ids=["1", "2", "8-noisy-partial"],
)
def test_remote_align_matches_in_process(tmp_path, recordings, flags, code):
    """However many recordings share the connection pair, each gets the
    bytes and the exit code of an in-process align."""
    corpus = _noisy_corpus(recordings)
    corpus_dir = save_corpus(corpus, tmp_path / "corpus")
    reference = _align_outputs(corpus_dir, f"oracle:{corpus_dir}", tmp_path / "reference", *flags)
    assert reference[0] == code
    with ScorerServer(OracleScorer(corpus), corpus.vocab) as server:
        spec = f"remote:{server.host}:{server.port}"
        assert _align_outputs(corpus_dir, spec, tmp_path / "remote", *flags) == reference


@contextlib.contextmanager
def v1_proxy(upstream):
    """A version 1 server in front of ``upstream``: it passes the hello on,
    answers it with a v1-style ready and refuses any op but ``post``, as a
    v1 server that did not offer ``scan`` did. Yields (host, port)."""

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            with socket.create_connection((upstream.host, upstream.port), timeout=10) as up, \
                    up.makefile("rwb") as fp:
                for line in iter(self.rfile.readline, b""):
                    if json.loads(line)["op"] != "hello":
                        self.wfile.write(b'{"op":"error","code":"protocol","message":"post only"}\n')
                        return
                    fp.write(line)
                    fp.flush()
                    assert json.loads(fp.readline())["op"] == "ready"
                    self.wfile.write(b'{"op":"ready","serial":false}\n')
                    self.wfile.flush()

    proxy = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=proxy.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield proxy.server_address
    finally:
        proxy.shutdown()
        proxy.server_close()  # joins the handler threads
        thread.join(timeout=5)


def test_align_against_a_v1_server_exits_3(tmp_path, capsys):
    """A v1 server that takes the hello and then refuses the scans ends the
    run with exit 3 and its message, no traceback and no output (the CI
    flags turn an unclosed socket into a failure)."""
    corpus = _noisy_corpus(3)
    corpus_dir = save_corpus(corpus, tmp_path / "corpus")
    with ScorerServer(OracleScorer(corpus), corpus.vocab) as server, v1_proxy(server) as (host, port):
        spec = f"remote:{host}:{port}"
        code = run_cli(
            "align", "--corpus", corpus_dir, "--fwd-scorer", spec, "--bwd-scorer", spec,
            "--out", tmp_path / "run",
        )
    assert code == 3
    err = capsys.readouterr().err
    assert "post only" in err and "Traceback" not in err, err
    assert not (tmp_path / "run").exists()


def test_remote_align_opens_one_connection_per_direction(tmp_path, monkeypatch):
    corpus = generate_corpus(SimConfig(n_recordings=8, utterances_per_recording=(2, 3), seed=5))
    corpus_dir = save_corpus(corpus, tmp_path / "corpus")
    handshakes = []

    class CountedScorer(RemoteScorer):
        def __init__(self, host, port, direction, *rest):
            handshakes.append(direction.value)
            super().__init__(host, port, direction, *rest)

    monkeypatch.setattr(wire, "RemoteScorer", CountedScorer)
    with ScorerServer(OracleScorer(corpus), corpus.vocab) as server:
        spec = f"remote:{server.host}:{server.port}"
        assert run_cli(
            "align", "--corpus", corpus_dir, "--fwd-scorer", spec, "--bwd-scorer", spec,
            "--out", tmp_path / "run",
        ) == 0
    assert sorted(handshakes) == ["backward", "forward"]


@pytest.mark.parametrize("remote", ["forward", "backward"])
def test_mixed_scorer_kinds_match_the_all_oracle_run(tmp_path, remote):
    """Each scorer is opened from its own spec for its own direction, so a
    remote scorer in one direction beside an in-process oracle in the other
    gives the bytes of the all-oracle run."""
    corpus = _noisy_corpus(8)
    corpus_dir = save_corpus(corpus, tmp_path / "corpus")
    oracle = f"oracle:{corpus_dir}"
    reference = _align_outputs(corpus_dir, oracle, tmp_path / "reference", "--queue-cap", "3")
    assert reference[0] == 4
    with ScorerServer(OracleScorer(corpus), corpus.vocab) as server:
        specs = [f"remote:{server.host}:{server.port}", oracle]
        fwd, bwd = specs if remote == "forward" else specs[::-1]
        assert _align_outputs(corpus_dir, fwd, tmp_path / "mixed", "--queue-cap", "3", bwd_spec=bwd) == reference


@pytest.mark.parametrize(
    "fwd, bwd, code, message",
    [
        ("remote:{refused}", "oracle:{corpus}", 3, "scorer error: cannot connect to scorer at {refused}: "),
        ("oracle:{corpus}", "remote:{refused}", 3, "scorer error: cannot connect to scorer at {refused}: "),
        ("remote:{live}", "oracle:{missing}", 2, "error: cannot read {missing}"),
    ],
    ids=["remote-forward-refused", "remote-backward-refused", "oracle-missing-beside-remote"],
)
def test_scorer_that_fails_to_open_beside_another_kind_exits_cleanly(tmp_path, fwd, bwd, code, message):
    """A scorer that fails to open ends the run with its exit code and one
    message line, whatever kind the other scorer is: no traceback, and
    under -X dev no unclosed socket, also when the remote one had opened."""
    corpus = _noisy_corpus(2)
    corpus_dir = save_corpus(corpus, tmp_path / "corpus")
    src = Path(lsalign.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    # a bound socket that does not listen refuses every connection
    with socket.socket() as closed, ScorerServer(OracleScorer(corpus), corpus.vocab) as server:
        closed.bind(("127.0.0.1", 0))
        names = {
            "refused": "{}:{}".format(*closed.getsockname()), "live": f"{server.host}:{server.port}",
            "corpus": corpus_dir, "missing": tmp_path / "missing",
        }
        argv = [
            sys.executable, "-X", "dev", "-m", "lsalign", "align", "--corpus", corpus_dir,
            "--fwd-scorer", fwd.format(**names), "--bwd-scorer", bwd.format(**names),
            "--out", tmp_path / "run",
        ]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(message.format(**names)) and proc.stderr.count("\n") == 1, proc.stderr
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "n_recordings, tokens, vocab_size",
    [(400, (40, 60), 50), (40, (1000, 1200), 3000)],
    ids=["hundreds-of-recordings", "long-windows"],
)
def test_large_rounds_fit_small_socket_buffers(
    tmp_path, monkeypatch, n_recordings, tokens, vocab_size
):
    """A round's scans travel as one line that the server reads whole
    before it answers, so neither many short scans nor long ones (about
    5 KB a scan for 1,000-token windows at V = 3000, with more in each
    reply) leave client and server both blocked writing, which the
    timeout would end in exit 3. Socket buffers of 32 KB asked for at both
    ends make a round far larger than the buffers."""
    corpus = generate_corpus(SimConfig(
        n_recordings=n_recordings, utterances_per_recording=(1, 1), tokens_per_utterance=tokens,
        vocab_size=vocab_size, seed=9,
    ))
    corpus_dir = save_corpus(corpus, tmp_path / "corpus")
    reference = _align_outputs(corpus_dir, f"oracle:{corpus_dir}", tmp_path / "reference")
    assert reference[0] == 0

    def shrink(sock):
        for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
            sock.setsockopt(socket.SOL_SOCKET, option, 32768)
        return sock

    create_connection, setup = socket.create_connection, wire._Handler.setup
    monkeypatch.setattr(socket, "create_connection", lambda *a, **k: shrink(create_connection(*a, **k)))
    monkeypatch.setattr(wire._Handler, "setup", lambda handler: (shrink(handler.request), setup(handler)))
    with ScorerServer(OracleScorer(corpus), corpus.vocab) as server:
        spec = f"remote:{server.host}:{server.port}"
        assert _align_outputs(corpus_dir, spec, tmp_path / "remote", "--timeout", "5") == reference


def _explicit_inputs(corpus_dir):
    return [
        "--segments", corpus_dir / "segments.tsv",
        "--transcripts", corpus_dir / "transcripts.tsv",
        "--vocab", corpus_dir / "meta.json",
        "--ground-truth", corpus_dir / "ground_truth.json",
    ]


def test_align_explicit_paths_with_vocab(tmp_path, corpus_dir):
    out = tmp_path / "run"
    code = run_cli(
        "align", *_explicit_inputs(corpus_dir),
        "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}",
        "--out", out,
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"]["span_exact_match"] == 1.0


@pytest.mark.parametrize("inputs", ["--corpus", "explicit", "explicit-without-truth"])
def test_align_loads_the_oracle_corpus_once(tmp_path, corpus_dir, monkeypatch, inputs):
    """One oracle serves both directions and loads its directory once, by
    any path. It reuses the --corpus corpus; explicit flags are read by the
    explicit loader alone, even when they name the oracle's own files."""
    loads, input_loads = [], []
    load_corpus, load_inputs = dataio.load_corpus, dataio.load_inputs

    def counted(path):
        loads.append(path)
        return load_corpus(path)

    def counted_inputs(*args):
        input_loads.append(args[0])
        return load_inputs(*args)

    monkeypatch.setattr(dataio, "load_corpus", counted)
    monkeypatch.setattr(dataio, "load_inputs", counted_inputs)
    flags = ["--corpus", corpus_dir] if inputs == "--corpus" else _explicit_inputs(corpus_dir)
    if inputs == "explicit-without-truth":
        flags = flags[:-2]

    def align(flags, out):
        assert run_cli(
            "align", *flags,
            "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}/../corpus",
            "--out", out,
        ) == 0
        return [(out / name).read_bytes() for name in ("aligned.tsv", "rejected.tsv", "report.json")]

    outputs = align(flags, tmp_path / "run")
    report = json.loads(outputs[2])
    assert report["metrics"]["span_exact_match"] == (None if inputs == "explicit-without-truth" else 1.0)
    if inputs == "--corpus":
        assert len(loads) == 1 and len(input_loads) == 1
        return
    # the explicit loader reads the flags, and the oracle its directory
    assert len(loads) == 1
    assert [Path(path) for path in input_loads] == [flags[1], corpus_dir / "segments.tsv"]
    # copies of the files read by the same loader give the same bytes, a
    # report without truth among them when --ground-truth is not given
    copies = tmp_path / "copies"
    copies.mkdir()
    for name in ("segments.tsv", "transcripts.tsv", "meta.json", "ground_truth.json"):
        (copies / name).write_bytes((corpus_dir / name).read_bytes())
    assert align(_explicit_inputs(copies)[: len(flags)], tmp_path / "apart") == outputs
    assert len(loads) == 2 and len(input_loads) == 4


def test_validation_error_exits_2(tmp_path):
    bad = tmp_path / "segments.tsv"
    bad.write_text("s1\trecA\t5.0\t1.0\n", encoding="utf-8")
    transcripts = tmp_path / "transcripts.tsv"
    transcripts.write_text("recA\tabc\n", encoding="utf-8")
    code = run_cli(
        "align", "--segments", bad, "--transcripts", transcripts,
        "--fwd-scorer", "scripted:/nonexistent", "--bwd-scorer", "scripted:/nonexistent",
        "--out", tmp_path / "run",
    )
    assert code == 2


def test_scorer_error_exits_3(tmp_path, corpus_dir):
    code = run_cli(
        "align", "--corpus", corpus_dir,
        "--fwd-scorer", "remote:127.0.0.1:1", "--bwd-scorer", "remote:127.0.0.1:1",
        "--timeout", 2, "--out", tmp_path / "run",
    )
    assert code == 3


def test_oracle_refuses_a_run_whose_vocabulary_is_not_its_own(tmp_path, corpus_dir, capsys):
    """Without --vocab the transcripts grow a vocabulary of their own, which
    numbers tokens apart from the oracle's: the run exits 3 naming the spec."""
    code = run_cli(
        "align", "--segments", corpus_dir / "segments.tsv", "--transcripts", corpus_dir / "transcripts.tsv",
        "--mode", "whitespace", "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}",
        "--out", tmp_path / "run",
    )
    assert code == 3
    assert capsys.readouterr().err == (
        f"scorer error: oracle:{corpus_dir}: the run's vocabulary is not the one {corpus_dir}/meta.json fixes\n"
    )
    assert not (tmp_path / "run").exists()


def test_queue_overflow_exits_4(tmp_path, capsys):
    # a filler before the first utterance makes the head candidate fail and
    # append; queue_cap 1 forbids any append at all. The filler's scan cap
    # must land inside the transcript for an append to be attempted.
    import math

    for seed in range(300):
        corpus = generate_corpus(
            SimConfig(
                n_recordings=1, utterances_per_recording=(2, 2), tokens_per_utterance=(8, 9),
                filler_segment_prob=0.9, seed=seed,
            )
        )
        rec = corpus.recordings[0]
        if rec.truth[0] is None and len(rec.truth) >= 2:
            filler_cap = math.ceil(rec.segments[0].duration_sec * 25.0)
            if filler_cap + 1 <= len(rec.transcript):
                break
    else:
        pytest.fail("no corpus with a short leading filler found")
    corpus_dir = save_corpus(corpus, tmp_path / "corpus")
    out = tmp_path / "run"
    code = run_cli(
        "align", "--corpus", corpus_dir,
        "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}",
        "--queue-cap", 1, "--out", out,
    )
    assert code == 4
    report = json.loads((out / "report.json").read_text())
    assert report["partial"] is True
    assert capsys.readouterr().err == f"warning: recording {rec.recording_id}: queue cap 1 exceeded\n"


def test_config_file_defaults_and_flag_precedence(tmp_path, corpus_dir):
    cfg = tmp_path / "lsalign.cfg"
    cfg.write_text(
        "theta=0.25\nqueue_cap=32\n# comment\n\n   \n  # indented comment\neos_rule=threshold:0.6\n",
        encoding="utf-8",
    )
    out = tmp_path / "run"
    assert run_cli(
        "align", "--corpus", corpus_dir,
        "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}",
        "--theta", 0.9, "--config", cfg, "--out", out,
    ) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["aligner"]["theta"] == 0.9  # flag wins, wherever it stands
    # config file fills the rest, each value read by its flag's type
    assert report["aligner"]["queue_cap"] == 32
    assert report["aligner"]["eos_rule"] == "threshold"
    assert report["aligner"]["p_eos_min"] == 0.6
    assert "dedup_queue" not in report["aligner"]  # the queue always skips duplicate starts


def test_config_file_unknown_key_rejected(tmp_path, corpus_dir, capsys):
    cfg = tmp_path / "lsalign.cfg"
    for line, key in (("thets=0.25", "thets"), ("dedup_queue=true", "dedup_queue"), ("jobs=2", "jobs")):
        cfg.write_text(line + "\n", encoding="utf-8")
        assert run_cli(
            "align", "--corpus", corpus_dir,
            "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}",
            "--config", cfg, "--out", tmp_path / "run",
        ) == 2
        assert f"error: unknown config keys: {key}\n" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


JSON_FILE = object()  # stands for the path of the JSON input file a case writes


class Message(str):
    """The whole error line a case expects; ``{file}`` stands for the file
    the case writes."""


@pytest.mark.parametrize(
    "flags, value",
    [
        (["--config", "theta=abc"], "abc"),
        (["--config", "max_token_rate=maybe"], "maybe"),
        (["--eos-rule", "threshold:abc"], "threshold:abc"),
        (["--eos-rule", "thresholdfoo"], "thresholdfoo"),
        (["--fwd-scorer", "remote:127.0.0.1:notaport"], "remote:127.0.0.1:notaport"),
        (["--bwd-scorer", "remote:127.0.0.1:70000"], "remote:127.0.0.1:70000"),
        (["--timeout", "-1"], "-1"),
        (["--timeout", "0"], "0"),
        (["--timeout", "nan"], "nan"),
        (["--config", "timeout=0"], "0"),
        (["--config", "timeout=-1"], "-1"),
        (["--config", "max_token_rate=0"], "0"),
        # JSON inputs: the flag's file holds this text, and the message names the file
        (["--vocab", '{"vocab": ["a", "b"'], JSON_FILE),
        (["--vocab", '{"tokenize_mode": "whitespace"}'], JSON_FILE),
        (["--ground-truth", '{"recording": {}}'], JSON_FILE),
        (["--corpus", '{"format": "lsalign-corpus", "tokenize_mode": "whitespace", "vocab": ["a"]}'],
         JSON_FILE),
        (["--max-token-rate", "nan"], "nan"),
        (["--max-token-rate", "inf"], "inf"),
        (["--max-token-rate", "0"], "0"),
        (["--config", "max_token_rate=inf"], "inf"),
        (["--config", "theta=0.5\ntheta=0.9"], Message("error: {file}:2: key 'theta' given twice")),
    ],
)
def test_malformed_value_exits_2_naming_it(tmp_path, corpus_dir, capsys, flags, value):
    inputs, named = ["--corpus", corpus_dir], repr(value)
    if flags[0] == "--config":
        cfg = tmp_path / "lsalign.cfg"
        cfg.write_text(flags[1] + "\n", encoding="utf-8")
        flags = ["--config", cfg]
        if isinstance(value, Message):
            named = value.format(file=cfg)
    elif value is JSON_FILE:
        if flags[0] == "--corpus":  # a corpus whose meta.json lacks sim_config
            bad = corpus_dir / "meta.json"
        else:
            bad = tmp_path / "bad.json"
            inputs = _explicit_inputs(corpus_dir)
            inputs[inputs.index(flags[0]) + 1] = bad
        bad.write_text(flags[1], encoding="utf-8")
        flags, named = [], f"error: {bad}: "
    try:
        code = run_cli(
            "align", *inputs,
            "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}",
            *flags, "--out", tmp_path / "run",
        )
    except SystemExit as exc:  # a value argparse rejects ends in its usage error
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert named in err, err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "what",
    [
        "--corpus", "--segments", "--transcripts", "--vocab", "--ground-truth", "--config",
        "evaluate --run", "oracle:", "scripted:",
    ],
)
def test_missing_input_file_exits_2_naming_it(tmp_path, corpus_dir, capsys, what):
    missing = str(tmp_path / "missing")
    explicit = {
        "--segments": corpus_dir / "segments.tsv",
        "--transcripts": corpus_dir / "transcripts.tsv",
        "--vocab": corpus_dir / "meta.json",
        "--ground-truth": corpus_dir / "ground_truth.json",
    }
    if what in explicit:
        inputs = [arg for flag, path in explicit.items() for arg in (flag, missing if flag == what else path)]
    else:
        inputs = ["--corpus", missing if what == "--corpus" else corpus_dir]
    if what == "evaluate --run":
        argv = ["evaluate", "--run", missing, *inputs]
    else:
        scorer = what + missing if what.endswith(":") else f"oracle:{corpus_dir}"
        argv = ["align", *inputs, "--fwd-scorer", scorer, "--bwd-scorer", scorer, "--out", tmp_path / "run"]
        if what == "--config":
            argv += ["--config", missing]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read " + missing), err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        ("simulate --out {file} --recordings 1", 2, "error: cannot write {file}: File exists"),
        ("align --corpus {corpus} --fwd-scorer oracle:{corpus} --bwd-scorer oracle:{corpus} --out {file}",
         2, "error: cannot write {file}: File exists"),
        ("align --corpus {corpus} --fwd-scorer remote:127.0.0.1:0 --bwd-scorer remote:127.0.0.1:0 --out {file}",
         2, "error: cannot write {file}: File exists"),
        ("align --corpus {corpus} --fwd-scorer remote:127.0.0.1:0 --bwd-scorer remote:127.0.0.1:0 --out {file}/run",
         2, "error: cannot write {file}/run: Not a directory"),
        ("evaluate --run {run} --corpus {corpus} --out {run}", 2, "error: cannot write {run}: Is a directory"),
        ("evaluate --run {run} --corpus {corpus} --out {nodir}/x.json",
         2, "error: cannot write {nodir}/x.json: No such file or directory"),
        ("ctc-align --posteriors {post} --transcript {transcript} --out {nodir}/x.tsv",
         2, "error: cannot write {nodir}/x.tsv: No such file or directory"),
        ("serve-oracle --corpus {corpus} --port {port}",
         3, "scorer error: cannot listen on 127.0.0.1:{port}: Address already in use"),
        ("serve-oracle --corpus {corpus} --host unknown.invalid",
         3, "scorer error: cannot listen on unknown.invalid:0: Name or service not known"),
    ],
    ids=[
        "simulate-out-file", "align-out-file", "align-out-file-unreachable-scorer",
        "align-out-under-file-unreachable-scorer", "evaluate-out-dir", "evaluate-out-nodir", "ctc-align-out-nodir",
        "serve-port-in-use", "serve-host-unknown",
    ],
)
def test_unwritable_output_or_unbindable_address_exits_with_one_error_line(
    tmp_path, corpus_dir, capsys, monkeypatch, argv, code, message
):
    """An output path that cannot be written exits 2, before align opens a
    scorer, and a serve address that cannot be bound exits 3: one error
    line naming it, no traceback."""
    names = {"corpus": corpus_dir, "file": tmp_path / "file", "run": tmp_path / "run", "nodir": tmp_path / "nodir"}
    names["file"].write_text("taken\n", encoding="utf-8")
    if "--run" in argv:
        oracle = f"oracle:{corpus_dir}"
        assert run_cli("align", "--corpus", corpus_dir, "--fwd-scorer", oracle, "--bwd-scorer", oracle,
                       "--out", names["run"]) == 0
    names["post"], names["transcript"] = tmp_path / "post.ctcp", tmp_path / "transcript.txt"
    write_frame_posteriors(names["post"], FramePosteriors(np.full((4, 3), 1 / 3), 0.02))
    names["transcript"].write_text("ab", encoding="utf-8")
    if "unknown.invalid" in argv:  # fail the bind as a failed lookup would, without resolving a name
        def unresolved(server):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        monkeypatch.setattr(socketserver.TCPServer, "server_bind", unresolved)
    with socket.socket() as taken:  # a port some other socket listens on
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        names["port"] = taken.getsockname()[1]
        assert run_cli(*[arg.format(**names) for arg in argv.split()]) == code
    err = capsys.readouterr().err
    assert err == message.format(**names) + "\n", err


def _edit_truth(path, edit):
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload["recordings"])
    path.write_text(json.dumps(payload), encoding="utf-8")


def _drop_transcript(corpus_dir):
    path = corpus_dir / "transcripts.tsv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith("rec0001\t")), encoding="utf-8")
    return f"error: {path}: no transcript for recordings: rec0001\n"


def _drop_truth_recording(corpus_dir):
    path = corpus_dir / "ground_truth.json"
    _edit_truth(path, lambda recordings: recordings.pop("rec0001"))
    return f"error: {path}: no ground truth for recordings: rec0001\n"


def _drop_truth_segment(corpus_dir):
    path = corpus_dir / "ground_truth.json"
    dropped = []
    _edit_truth(path, lambda recordings: dropped.append(recordings["rec0001"].pop()))
    return f"error: {path}: recording rec0001: no truth for [{dropped[0]['segment_id']!r}], unknown segments []\n"


def _add_unknown_truth_segment(corpus_dir):
    path = corpus_dir / "ground_truth.json"
    _edit_truth(path, lambda recordings: recordings["rec0001"].append({"segment_id": "ghost", "kind": "filler"}))
    return f"error: {path}: recording rec0001: no truth for [], unknown segments ['ghost']\n"


def _set_truth_span(l_s=None, l_e=None):
    """Set a bound of rec0001's first utterance span in the truth file."""

    def break_inputs(corpus_dir):
        length = len(load_corpus(corpus_dir).recordings[1].transcript)
        path = corpus_dir / "ground_truth.json"
        edited = []

        def edit(recordings):
            entry = next(e for e in recordings["rec0001"] if e["kind"] == "utterance")
            entry.update({"l_s": entry["l_s"] if l_s is None else l_s, "l_e": entry["l_e"] if l_e is None else l_e})
            edited.append(entry)

        _edit_truth(path, edit)
        entry = edited[0]
        span = f"[{entry['l_s']!r}, {entry['l_e']!r}]"
        if l_e is not None:
            return f"error: {path}: segment {entry['segment_id']}: span {span} runs past the {length}-token transcript of recording rec0001\n"
        return f"error: {path}: segment {entry['segment_id']}: span bounds must be integers, got {span}\n"

    return break_inputs


def _set_transcript(text, problem):
    def break_inputs(corpus_dir):
        """Give rec0001 the transcript ``text``, which cannot be tokenized."""
        path = corpus_dir / "transcripts.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text(
            "".join(f"rec0001\t{text}\n" if line.startswith("rec0001\t") else line + "\n" for line in lines),
            encoding="utf-8",
        )
        return f"error: {path}: recording rec0001: {problem}\n"

    return break_inputs


def _set_meta(key, value, problem):
    def break_inputs(corpus_dir):
        """Set meta.json's ``key`` to ``value``, which it refuses."""
        path = corpus_dir / "meta.json"
        meta = json.loads(path.read_text(encoding="utf-8"))
        meta[key] = value
        path.write_text(json.dumps(meta), encoding="utf-8")
        return f"error: {path}: {problem}\n"

    return break_inputs


def _share_segment_id(corpus_dir):
    """Rename rec0001's first segment to rec0000's first, in the segments
    file and the truth alike."""
    path = corpus_dir / "segments.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lineno = next(n for n, line in enumerate(lines, 1) if line.startswith("rec0001_s0000\t"))
    for edited in (path, corpus_dir / "ground_truth.json"):
        edited.write_text(edited.read_text(encoding="utf-8").replace("rec0001_s0000", "rec0000_s0000"), encoding="utf-8")
    return f"error: {path}:{lineno}: segment id 'rec0000_s0000' is already used by recording 'rec0000'\n"


@pytest.mark.parametrize("inputs", ["--corpus", "explicit"])
@pytest.mark.parametrize("command", ["align", "evaluate"])
@pytest.mark.parametrize(
    "break_inputs",
    [
        _drop_transcript, _drop_truth_recording, _drop_truth_segment, _add_unknown_truth_segment,
        _set_truth_span(l_s=1.5), _set_truth_span(l_s=True), _set_truth_span(l_e=1_000_000),
        _share_segment_id,
        _set_transcript(" ", "transcript is empty after normalization"),
        _set_transcript("zzz", "token not in vocabulary: 'zzz'"),
        _set_meta("vocab", "abc", "vocab must be a list of strings"),
        _set_meta("vocab", [1, "a"], "vocab must be a list of strings"),
        _set_meta("vocab", ["a", "b", "a"], "duplicate vocabulary token: 'a'"),
        _set_meta("tokenize_mode", 5, "tokenize_mode must be 'char' or 'whitespace', got 5"),
    ],
    ids=[
        "transcript-lacks-recording", "truth-lacks-recording", "truth-lacks-segment", "truth-names-unknown-segment",
        "truth-span-not-integer", "truth-span-bool", "truth-span-past-transcript",
        "segment-id-in-two-recordings", "transcript-empty", "transcript-token-not-in-vocabulary",
        "vocab-a-string", "vocab-holds-a-number", "vocab-repeats-a-token", "unknown-tokenize-mode",
    ],
)
def test_inconsistent_inputs_exit_2_naming_the_file(tmp_path, corpus_dir, capsys, break_inputs, command, inputs):
    """A corpus directory and the same files given as flags are read by one
    loader, so both forms reject the same inconsistencies alike."""
    message = break_inputs(corpus_dir)
    flags = ["--corpus", corpus_dir] if inputs == "--corpus" else _explicit_inputs(corpus_dir)
    if command == "align":
        argv = ["align", *flags, "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}"]
    else:
        argv = ["evaluate", "--run", tmp_path / "missing-run", *flags]
    assert run_cli(*argv, "--out", tmp_path / "run") == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "run").exists()


def _edit_run_file(run, name, edit):
    """Rewrite a run file's data lines (its header stays) with ``edit``,
    which returns the problem evaluate must name: for a broken structure,
    what the recording breaks, else ``(line number, problem)``."""
    path = run / name
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    problem = edit(rows)
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    if isinstance(problem, tuple):
        return f"{path}:{problem[0]}: {problem[1]}"
    return f"{run}: recording rec0000: {problem}"


def _repeat_aligned_line(run):
    def edit(rows):
        rows.append(rows[1])
        return f"accepted spans overlap or are out of order at segment {rows[1].split()[0]}"

    return _edit_run_file(run, "aligned.tsv", edit)


def _widen_aligned_span(run):
    def edit(rows):
        first, second = rows[0].split("\t"), rows[1].split("\t")
        first[2] = second[1]  # l_e reaches the next span's first token
        rows[0] = "\t".join(first)
        return f"accepted spans overlap or are out of order at segment {second[0]}"

    return _edit_run_file(run, "aligned.tsv", edit)


def _drop_aligned_line(run):
    def edit(rows):
        return f"segment {rows.pop(0).split()[0]} is decided 0 times, not once"

    return _edit_run_file(run, "aligned.tsv", edit)


def _reject_accepted_segment(run):
    segment_id = (run / "aligned.tsv").read_text(encoding="utf-8").splitlines()[2].split()[0]

    def edit(rows):
        rows.append(segment_id + "\tbelow-threshold" + "\t" * 6)
        return f"segment {segment_id} is decided 2 times, not once"

    return _edit_run_file(run, "rejected.tsv", edit)


def _repeat_last_rejected_line(run):
    def edit(rows):
        assert rows[-1].endswith("\t" * 6)  # a segment rejected without a candidate
        rows.append(rows[-1])
        segment_id = rows[-1].split()[0]
        return len(rows) + 1, f"segment {segment_id} has a line without a candidate beside another line"

    return _edit_run_file(run, "rejected.tsv", edit)


def _repeat_rejected_candidate(run):
    def edit(rows):
        rows.insert(1, rows[0])
        segment_id, _, l_start = rows[0].split("\t")[:3]
        return 3, f"segment {segment_id} repeats its candidate from position {l_start}"

    return _edit_run_file(run, "rejected.tsv", edit)


def _interleave_rejected_segments(run):
    def edit(rows):
        fields = rows[0].split("\t")
        fields[2] = str(int(fields[2]) + 1)  # another candidate of the first segment
        rows.insert(2, "\t".join(fields))
        return 4, f"segment {fields[0]} continues after the lines of another segment"

    return _edit_run_file(run, "rejected.tsv", edit)


def _change_a_rejected_reason(run):
    def edit(rows):
        fields = rows[0].split("\t")
        fields[1], fields[2] = "queue-overflow", str(int(fields[2]) + 1)
        rows.insert(1, "\t".join(fields))
        return 3, f"segment {fields[0]} has reason 'queue-overflow' after 'below-threshold'"

    return _edit_run_file(run, "rejected.tsv", edit)


@pytest.mark.parametrize("truth", [True, False], ids=["with-truth", "without-truth"])
@pytest.mark.parametrize(
    "break_run",
    [
        _repeat_aligned_line, _widen_aligned_span, _drop_aligned_line, _reject_accepted_segment,
        _repeat_last_rejected_line, _repeat_rejected_candidate, _interleave_rejected_segments,
        _change_a_rejected_reason,
    ],
    ids=[
        "aligned-line-twice", "spans-overlap", "aligned-line-missing", "accepted-segment-also-rejected",
        "rejected-line-twice", "rejected-candidate-twice", "rejected-lines-interleaved",
        "rejected-reasons-differ",
    ],
)
def test_evaluate_refuses_a_malformed_run_naming_it(tmp_path, capsys, break_run, truth):
    """Evaluate checks a run's structure as the engine does: accepted spans
    in order and disjoint, every segment decided exactly once; and it reads
    a rejected segment's lines only when they are adjacent, share a reason
    and repeat no candidate. A run that breaks either exits 2 naming the
    run or the line, instead of scoring, for example, an NRR above 1."""
    corpus = generate_corpus(SimConfig(
        n_recordings=1, utterances_per_recording=(6, 6), tokens_per_utterance=(3, 5),
        filler_segment_prob=0.3, seed=4,
    ))
    corpus_dir = save_corpus(corpus, tmp_path / "corpus")
    run = tmp_path / "run"
    assert run_cli(
        "align", "--corpus", corpus_dir,
        "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}",
        "--out", run,
    ) == 0
    assert run_cli("evaluate", "--run", run, "--corpus", corpus_dir) == 0
    capsys.readouterr()
    problem = break_run(run)
    inputs = ["--corpus", corpus_dir] if truth else _explicit_inputs(corpus_dir)[:-2]
    assert run_cli("evaluate", "--run", run, *inputs, "--out", tmp_path / "eval.json") == 2
    assert capsys.readouterr() == ("", f"error: {problem}\n")
    assert not (tmp_path / "eval.json").exists()


def test_run_files_skip_blank_and_comment_lines(tmp_path, corpus_dir, capsys):
    run = tmp_path / "run"
    assert run_cli(
        "align", "--corpus", corpus_dir,
        "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}",
        "--out", run,
    ) == 0
    capsys.readouterr()
    assert run_cli("evaluate", "--run", run, "--corpus", corpus_dir) == 0
    table = capsys.readouterr().out
    for name in ("aligned.tsv", "rejected.tsv"):
        path = run / name
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(["# a run file", "", header, *rows, "  ", "  # end"]) + "\n", encoding="utf-8")
    assert run_cli("evaluate", "--run", run, "--corpus", corpus_dir) == 0
    assert capsys.readouterr().out == table


def test_evaluate_with_explicit_ground_truth_paths(tmp_path, corpus_dir):
    run = tmp_path / "run"
    assert run_cli(
        "align", "--corpus", corpus_dir,
        "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}",
        "--out", run,
    ) == 0
    by_corpus = tmp_path / "by-corpus.json"
    assert run_cli("evaluate", "--run", run, "--corpus", corpus_dir, "--out", by_corpus) == 0
    segments = [line.split("\t")[0] for line in (corpus_dir / "segments.tsv").read_text().splitlines()]

    def reverse(recordings):  # the same truth with each recording's entries reversed
        for entries in recordings.values():
            entries.reverse()

    reversed_truth = tmp_path / "reversed.json"
    reversed_truth.write_text((corpus_dir / "ground_truth.json").read_text(encoding="utf-8"), encoding="utf-8")
    _edit_truth(reversed_truth, reverse)
    for truth in (corpus_dir / "ground_truth.json", reversed_truth):
        out_file = tmp_path / "eval.json"
        assert run_cli(
            "evaluate", "--run", run,
            "--segments", corpus_dir / "segments.tsv",
            "--transcripts", corpus_dir / "transcripts.tsv",
            "--ground-truth", truth,
            "--mode", "whitespace",
            "--out", out_file,
        ) == 0
        report = json.loads(out_file.read_text())
        assert report["span_exact_match"] == 1.0
        # per-segment entries come in segment order, whatever the truth file's order
        assert [entry["segment_id"] for entry in report["segments"]] == segments
        assert out_file.read_bytes() == by_corpus.read_bytes()


def test_evaluate_explicit_inputs_tokenize_like_align(tmp_path):
    # V > 26 ids ("t0".."t39") only read right in the whitespace mode that
    # meta.json pins; evaluate must take it from --vocab as align does
    corpus = generate_corpus(SimConfig(n_recordings=2, vocab_size=40, seed=11))
    corpus_dir = save_corpus(corpus, tmp_path / "corpus")
    inputs = [
        "--segments", corpus_dir / "segments.tsv",
        "--transcripts", corpus_dir / "transcripts.tsv",
        "--vocab", corpus_dir / "meta.json",
        "--ground-truth", corpus_dir / "ground_truth.json",
    ]
    run = tmp_path / "run"
    assert run_cli(
        "align", *inputs,
        "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}",
        "--out", run,
    ) == 0
    metrics = json.loads((run / "report.json").read_text())["metrics"]
    out_file = tmp_path / "eval.json"
    assert run_cli("evaluate", "--run", run, *inputs, "--out", out_file) == 0
    report = json.loads(out_file.read_text())
    assert report["nrr"] == metrics["nrr"] == 1.0
    assert report["span_exact_match"] == metrics["span_exact_match"] == 1.0


def test_evaluate_run_from_other_corpus_exits_2(tmp_path, capsys):
    # the same seed makes rec0000 identical in both corpora; rec0001 is unknown
    big = save_corpus(generate_corpus(SimConfig(n_recordings=2, seed=4)), tmp_path / "big")
    small = save_corpus(generate_corpus(SimConfig(n_recordings=1, seed=4)), tmp_path / "small")
    run = tmp_path / "run"
    assert run_cli(
        "align", "--corpus", big,
        "--fwd-scorer", f"oracle:{big}", "--bwd-scorer", f"oracle:{big}",
        "--out", run,
    ) == 0
    capsys.readouterr()
    assert run_cli("evaluate", "--run", run, "--corpus", small) == 2
    assert "rec0001_s0000" in capsys.readouterr().err


def test_package_import_loads_no_submodule():
    """The package re-exports nothing: every name is imported from its own module."""
    src = Path(lsalign.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, lsalign; "
        "loaded = {name for name in sys.modules if name.startswith('lsalign.') or name == 'numpy'}; "
        "assert not loaded, loaded; "
        "assert not hasattr(lsalign, 'Segment')"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_cli_import_leaves_numpy_out():
    src = Path(lsalign.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    code = "import sys, lsalign.cli; assert 'numpy' not in sys.modules, 'numpy imported'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_cli_import_leaves_simulator_and_wire_out():
    src = Path(lsalign.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, lsalign.cli; "
        "unwanted = {'lsalign.simulator', 'lsalign.oracle', 'lsalign.scripted', 'lsalign.wire', 'socketserver'}; "
        "loaded = unwanted & set(sys.modules); "
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_oracle_align_leaves_the_other_scorer_kinds_out(tmp_path, corpus_dir):
    """An in-process oracle align loads the oracle, but neither the corpus
    generator and reference interpreter, the scripted format nor the wire."""
    src = Path(lsalign.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    argv = [
        "align", "--corpus", str(corpus_dir),
        "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}",
        "--out", str(tmp_path / "run"),
    ]
    code = (
        "import sys, lsalign.cli; "
        f"assert lsalign.cli.main({argv!r}) == 0; "
        "assert 'lsalign.oracle' in sys.modules; "
        "loaded = {'lsalign.simulator', 'lsalign.scripted', 'lsalign.wire'} & set(sys.modules); "
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60, stdout=subprocess.DEVNULL)


def test_align_imports_leave_stdlib_machinery_out():
    # none of these is needed to align, and together they cost about a
    # third of a short align's start-up
    src = Path(lsalign.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys; at_start = set(sys.modules); "
        "import lsalign.cli, lsalign.wire, lsalign.simulator, lsalign.oracle, lsalign.scripted; "
        "unwanted = {'dataclasses', 'inspect', 'logging', 'concurrent.futures', 'queue'}; "
        "loaded = (unwanted & set(sys.modules)) - at_start; "
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_no_dedup_flag_is_gone(tmp_path, corpus_dir, capsys):
    """The queue always skips duplicate start positions; there is no flag
    to turn that off."""
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "align", "--corpus", corpus_dir,
            "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}",
            "--no-dedup", "--out", tmp_path / "run",
        )
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-dedup" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "command, flag",
    [("align", ["--jobs", "2"]), ("serve-oracle", ["--serial"])],
    ids=["jobs", "serial"],
)
def test_connection_pool_flags_are_gone(tmp_path, corpus_dir, capsys, command, flag):
    """A remote align uses one connection pair: --jobs and serve-oracle
    --serial are refused."""
    argv = ["--corpus", corpus_dir, *flag]
    if command == "align":
        spec = "remote:127.0.0.1:1"
        argv += ["--fwd-scorer", spec, "--bwd-scorer", spec, "--out", tmp_path / "run"]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_log_level_flag_is_gone(tmp_path, corpus_dir, capsys):
    """A partial result's warning goes to stderr; no flag sets its level."""
    align = [
        "align", "--corpus", corpus_dir,
        "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}",
        "--out", tmp_path / "run",
    ]
    for argv in (["--log-level", "WARNING", *align], [*align, "--log-level", "WARNING"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
    assert "unrecognized arguments: --log-level WARNING" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "inputs, oracle", [("--corpus", "same"), ("--vocab", "same"), ("--vocab", "copy")],
    ids=["--corpus", "--vocab", "--vocab-other-oracle"],
)
def test_align_mode_must_match_the_pinned_mode(tmp_path, corpus_dir, capsys, inputs, oracle):
    """--mode may repeat the mode meta.json pins and then changes nothing;
    a different one exits 2 naming the flag and the file."""
    scorer_dir = corpus_dir
    if oracle == "copy":  # explicit inputs not read through the oracle's corpus
        scorer_dir = save_corpus(load_corpus(corpus_dir), tmp_path / "oracle")
    flags = ["--corpus", corpus_dir] if inputs == "--corpus" else _explicit_inputs(corpus_dir)
    scorers = ["--fwd-scorer", f"oracle:{scorer_dir}", "--bwd-scorer", f"oracle:{scorer_dir}"]
    runs = {}
    for mode in ([], ["--mode", "whitespace"]):
        runs[tuple(mode)] = out = tmp_path / f"run{len(mode)}"
        assert run_cli("align", *flags, *mode, *scorers, "--out", out) == 0
    for name in ("aligned.tsv", "rejected.tsv", "report.json"):
        assert (runs[()] / name).read_bytes() == (runs[("--mode", "whitespace")] / name).read_bytes()
    assert json.loads((runs[()] / "report.json").read_text())["tokenize_mode"] == "whitespace"
    capsys.readouterr()
    assert run_cli("align", *flags, "--mode", "char", *scorers, "--out", tmp_path / "char") == 2
    meta = corpus_dir / "meta.json"
    assert capsys.readouterr().err == (
        f"error: --mode char contradicts {meta} ({inputs}), which pins tokenize_mode 'whitespace'\n"
    )
    assert not (tmp_path / "char").exists()


@pytest.mark.parametrize("inputs", ["--corpus", "--vocab"])
def test_evaluate_mode_must_match_the_pinned_mode(tmp_path, corpus_dir, capsys, inputs):
    run = tmp_path / "run"
    assert run_cli(
        "align", "--corpus", corpus_dir,
        "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}",
        "--out", run,
    ) == 0
    flags = ["--corpus", corpus_dir] if inputs == "--corpus" else _explicit_inputs(corpus_dir)
    capsys.readouterr()
    assert run_cli("evaluate", "--run", run, *flags) == 0
    table = capsys.readouterr().out
    assert run_cli("evaluate", "--run", run, *flags, "--mode", "whitespace") == 0
    assert capsys.readouterr().out == table
    assert run_cli("evaluate", "--run", run, *flags, "--mode", "char", "--out", tmp_path / "eval.json") == 2
    meta = corpus_dir / "meta.json"
    assert capsys.readouterr().err == (
        f"error: --mode char contradicts {meta} ({inputs}), which pins tokenize_mode 'whitespace'\n"
    )
    assert not (tmp_path / "eval.json").exists()


def test_huge_token_rate_is_a_budget_past_the_transcript(tmp_path, corpus_dir):
    """A budget too large to count (duration x rate overflows) is no budget."""
    durations = [s.duration_sec for r in load_corpus(corpus_dir).recordings for s in r.segments]
    assert any(d * 1.7e308 == float("inf") for d in durations)
    reference, out = tmp_path / "reference", tmp_path / "run"
    for rate, run in (("1000000", reference), ("1.7e308", out)):
        assert run_cli(
            "align", "--corpus", corpus_dir,
            "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}",
            "--max-token-rate", rate, "--out", run,
        ) == 0
    for name in ("aligned.tsv", "rejected.tsv"):
        assert (out / name).read_bytes() == (reference / name).read_bytes()


@pytest.mark.parametrize("end", ["nan", "inf"])
def test_non_finite_segment_time_exits_2_naming_the_line(tmp_path, corpus_dir, capsys, end):
    """The last segment of a recording ends at a time that is not finite."""
    lines = (corpus_dir / "segments.tsv").read_text(encoding="utf-8").splitlines()
    last = lines[-1].split("\t")
    lines[-1] = "\t".join(last[:3] + [end])
    bad = tmp_path / "segments.tsv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    inputs = _explicit_inputs(corpus_dir)
    inputs[inputs.index("--segments") + 1] = bad
    assert run_cli(
        "align", *inputs,
        "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}",
        "--out", tmp_path / "run",
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:{len(lines)}: segment {last[0]}: times must be finite"), err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "name, line, message",
    [
        ("aligned.tsv", "{sid}\tx\t3\t0.9000\ttext", "invalid literal for int()"),
        ("aligned.tsv", "{sid}\t1\t3", "expected 5 tab-separated fields, got 3"),
        ("rejected.tsv", "{sid}\tbelow-threshold\t1\t2", "expected 8 tab-separated fields, got 4"),
        ("rejected.tsv", "{sid}\tbelow-threshold\t1\t2\t1\t0\t0.5\t0.5,y", "could not convert"),
        ("aligned.tsv", "{sid}\t16\t1000000\t0.9000\ttext", "span [16, 1000000] runs past the"),
    ],
    ids=["aligned-bad-int", "aligned-short", "rejected-short", "rejected-bad-float", "aligned-past-transcript"],
)
def test_malformed_run_file_exits_2_naming_the_line(tmp_path, corpus_dir, capsys, name, line, message):
    run = tmp_path / "run"
    assert run_cli(
        "align", "--corpus", corpus_dir,
        "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}",
        "--out", run,
    ) == 0
    sid = load_corpus(corpus_dir).recordings[0].segments[0].segment_id
    path = run / name
    header = path.read_text(encoding="utf-8").splitlines()[0]
    path.write_text(f"{header}\n{line.format(sid=sid)}\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("evaluate", "--run", run, "--corpus", corpus_dir) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: "), err
    assert message in err, err


def test_serve_oracle_port_out_of_range_exits_2(corpus_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("serve-oracle", "--corpus", corpus_dir, "--port", 70000)
    assert exc.value.code == 2
    assert "argument --port: expected a port from 0 to 65535, got '70000'" in capsys.readouterr().err


def test_eos_rule_threshold_flag(tmp_path, corpus_dir):
    out = tmp_path / "run"
    assert run_cli(
        "align", "--corpus", corpus_dir,
        "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}",
        "--eos-rule", "threshold:0.6", "--out", out,
    ) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["aligner"]["eos_rule"] == "threshold"
    assert report["aligner"]["p_eos_min"] == 0.6


def test_ctc_align_cli(tmp_path, capsys):
    rng = np.random.default_rng(3)
    matrix = rng.uniform(0.05, 1.0, size=(6, 4))
    matrix /= matrix.sum(axis=1, keepdims=True)
    post_file = tmp_path / "post.ctcp"
    write_frame_posteriors(post_file, FramePosteriors(matrix, 0.02))
    transcript = tmp_path / "transcript.txt"
    transcript.write_text("abc", encoding="utf-8")
    out_file = tmp_path / "timings.tsv"
    assert run_cli("ctc-align", "--posteriors", post_file, "--transcript", transcript, "--out", out_file) == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("position\ttoken")
    assert len(lines) == 4


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"CTCP1\x02\x00\x00", "ends inside its header after 8 bytes"),
        (b"\xff\xfe not UTF-8 and no magic", "not a posterior file (bad magic)"),
        (b"# CTCP1 T=1 V=1 frame_shift=0.01\n0.5\t0.5\n", "not a posterior file (bad magic)"),  # the old TSV form
        (b"CTCP1" + struct.pack("<IId", 2, 1, math.nan) + np.full(4, 0.5, "<f4").tobytes(),
         "frame_shift_sec must be positive, got nan"),
    ],
    ids=["short-header", "not-utf8", "tsv", "nan-frame-shift"],
)
def test_ctc_align_malformed_posteriors_exit_2(tmp_path, capsys, blob, message):
    post_file = tmp_path / "post.ctcp"
    post_file.write_bytes(blob)
    transcript = tmp_path / "transcript.txt"
    transcript.write_text("a", encoding="utf-8")
    assert run_cli("ctc-align", "--posteriors", post_file, "--transcript", transcript) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


def test_strip_chars_removes_punctuation(tmp_path):
    segments = tmp_path / "segments.tsv"
    segments.write_text("s1\trecA\t0.0\t1.0\n", encoding="utf-8")
    transcripts = tmp_path / "transcripts.tsv"
    transcripts.write_text("recA\ta,b.c\n", encoding="utf-8")
    script = tmp_path / "rows.tsv"
    # vocabulary after stripping is a,b,c -> ids 0,1,2
    script.write_text(
        "s1\tforward\t0\t1\t0.05\t0.9\t0.9\n"
        "s1\tforward\t0 1\t2\t0.05\t0.9\t0.9\n"
        "s1\tforward\t0 1 2\t\t0.9\t0.05\t\n"
        "s1\tbackward\t\t2\t0.05\t0.9\t0.9\n"
        "s1\tbackward\t2\t1\t0.05\t0.9\t0.9\n"
        "s1\tbackward\t2 1\t0\t0.05\t0.9\t0.9\n"
        "s1\tbackward\t2 1 0\t\t0.9\t0.05\t\n",
        encoding="utf-8",
    )
    out = tmp_path / "run"
    assert run_cli(
        "align", "--segments", segments, "--transcripts", transcripts,
        "--mode", "char", "--strip-chars", ",.",
        "--fwd-scorer", f"scripted:{script}", "--bwd-scorer", f"scripted:{script}",
        "--out", out,
    ) == 0
    aligned = (out / "aligned.tsv").read_text().splitlines()
    assert aligned[1] == "s1\t1\t3\t0.9000\tabc"


@pytest.mark.parametrize(
    "line, reason",
    [
        ("s1\tforward\t0\t3\t0.05\t0.9\t0.9", "next id 3 outside vocabulary of size 3"),
        ("s1\tforward\t0\t1\t0.05\t0.9\t", "a next id and its mass must be given together"),
        ("s1\tforward\t0\t1\t0.05\t0.9\t0.9", "duplicate scripted key segment=s1 direction=forward prefix=[0] next=1"),
        ("s1\tforward\t0\t2\t0.5\t0.9\t0.9", "eos and top token masses sum to 1.4, more than 1"),
    ],
    ids=["next-id-outside-vocab", "id-without-mass", "key-twice", "eos-and-top-above-one"],
)
def test_bad_scripted_file_exits_3_naming_the_line(tmp_path, capsys, line, reason):
    segments = tmp_path / "segments.tsv"
    segments.write_text("s1\trecA\t0.0\t1.0\n", encoding="utf-8")
    transcripts = tmp_path / "transcripts.tsv"
    transcripts.write_text("recA\tabc\n", encoding="utf-8")
    script = tmp_path / "rows.tsv"
    script.write_text(f"s1\tforward\t0\t1\t0.05\t0.9\t0.9\n{line}\n", encoding="utf-8")
    assert run_cli(
        "align", "--segments", segments, "--transcripts", transcripts,
        "--fwd-scorer", f"scripted:{script}", "--bwd-scorer", f"scripted:{script}",
        "--out", tmp_path / "run",
    ) == 3
    assert capsys.readouterr().err == f"scorer error: {script}:2: {reason}\n"
    assert not (tmp_path / "run").exists()
