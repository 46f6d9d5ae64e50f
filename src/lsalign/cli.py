"""Command-line entry point.

Subcommands: simulate (generate a synthetic corpus), align (run the
label-synchronous aligner), ctc-align (frame-synchronous baseline),
evaluate (score a run against ground truth or the transcript), and
serve-oracle (expose the simulator oracle over the wire protocol).

Exit codes: 0 success, 2 validation error, 3 scorer/protocol error,
4 partial result (queue overflow on some recording).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import os
import queue
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import dataio
from .aligner import AlignerConfig, AlignmentResult, QueueOverflow, align_recording
from .core import (
    LsalignError,
    Segment,
    TokenSequence,
    ValidationError,
    Vocabulary,
    tokenize,
)
from .corpus import SimConfig
from .metrics import EvalReport, evaluate_with_truth, evaluate_without_truth
from .scorer import (
    DEFAULT_TIMEOUT_SEC,
    Direction,
    PosteriorScorer,
    ScorerError,
    load_scripted_scorer,
)

# The simulator and the wire protocol are imported by the commands that use
# them, so each command loads only its own scorer side.

log = logging.getLogger("lsalign")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SCORER = 3
EXIT_PARTIAL = 4


# -- scorers ------------------------------------------------------------------


def _parse_scorer_spec(spec: str) -> tuple[str, str]:
    kind, sep, rest = spec.partition(":")
    if not sep or kind not in ("oracle", "scripted", "remote"):
        raise ValidationError(
            f"bad scorer spec {spec!r}: expected oracle:DIR, scripted:PATH or remote:HOST:PORT"
        )
    return kind, rest


def _open_scorer_pairs(
    args: argparse.Namespace, vocab: Vocabulary, recordings: int, stack: contextlib.ExitStack
) -> list[tuple[PosteriorScorer, PosteriorScorer]]:
    """The (forward, backward) scorer pairs the run uses, one per worker.

    In-process scorers give one shared pair. Remote scorers give
    min(--jobs, recordings) connection pairs, all opened here, or one pair
    when the first handshake answers serial; every connection is closed
    by `stack`, also when a later one fails to open.
    """
    fwd_kind, fwd_rest = _parse_scorer_spec(args.fwd_scorer)
    bwd_kind, bwd_rest = _parse_scorer_spec(args.bwd_scorer)
    if (fwd_kind == "remote") != (bwd_kind == "remote"):
        raise ValidationError("forward and backward scorers must both be remote or both local")
    if fwd_kind != "remote":
        def local(kind: str, rest: str) -> PosteriorScorer:
            if kind == "oracle":
                from .simulator import OracleScorer

                return OracleScorer(dataio.load_corpus(rest))
            return load_scripted_scorer(rest, vocab.size)

        return [(local(fwd_kind, fwd_rest), local(bwd_kind, bwd_rest))]

    from .wire import RemoteScorer

    def connect(rest: str, direction: Direction) -> RemoteScorer:
        host, sep, port_s = rest.rpartition(":")
        if not sep:
            raise ValidationError(f"bad remote endpoint {rest!r}: expected HOST:PORT")
        return stack.enter_context(RemoteScorer(host, int(port_s), direction, vocab, args.timeout))

    pairs: list[tuple[PosteriorScorer, PosteriorScorer]] = []
    for _ in range(max(1, min(args.jobs, recordings))):
        fwd = connect(fwd_rest, Direction.FORWARD)
        bwd = connect(bwd_rest, Direction.BACKWARD)
        pairs.append((fwd, bwd))
        if fwd.serial or bwd.serial:
            break
    return pairs


# -- input loading ------------------------------------------------------------


def _load_align_inputs(
    args: argparse.Namespace,
) -> tuple[dict[str, list[Segment]], dict[str, TokenSequence], Vocabulary, str, dict | None]:
    """Returns (segments by recording, token sequences, vocab, mode, truth)."""
    strip = set(args.strip_chars or "")

    def clean(text: str) -> str:
        return "".join(ch for ch in text if ch not in strip) if strip else text

    if args.corpus:
        clashing = [
            flag
            for flag, value in (
                ("--segments", args.segments),
                ("--transcripts", args.transcripts),
                ("--vocab", args.vocab),
                ("--ground-truth", args.ground_truth),
                ("--strip-chars", args.strip_chars),
            )
            if value
        ]
        if clashing:
            raise ValidationError(f"--corpus already provides {', '.join(clashing)}")
        corpus = dataio.load_corpus(args.corpus)
        segments = {r.recording_id: list(r.segments) for r in corpus.recordings}
        sequences = {r.recording_id: r.transcript for r in corpus.recordings}
        truth = {r.recording_id: r.truth_by_segment() for r in corpus.recordings}
        return segments, sequences, corpus.vocab, "whitespace", truth
    if not args.segments or not args.transcripts:
        raise ValidationError(f"{args.command} needs --corpus or both --segments and --transcripts")
    segments = dataio.parse_segments_file(args.segments)
    raw = dataio.parse_transcripts_file(args.transcripts)
    missing = sorted(set(segments) - set(raw))
    if missing:
        raise ValidationError(f"no transcript for recordings: {', '.join(missing)}")
    mode = args.mode
    vocab: Vocabulary | None = None
    if args.vocab:
        meta = json.loads(Path(args.vocab).read_text(encoding="utf-8"))
        vocab = Vocabulary(tuple(meta["vocab"]))
        mode = meta.get("tokenize_mode", mode)
    sequences: dict[str, TokenSequence] = {}
    current = vocab if vocab is not None else Vocabulary(())
    for rid in sorted(segments):
        seq, current = tokenize(clean(raw[rid]), mode, current, extend=vocab is None)
        sequences[rid] = seq
    truth = dataio.parse_truth_file(args.ground_truth) if args.ground_truth else None
    if truth is not None:
        uncovered = sorted(set(segments) - set(truth))
        if uncovered:
            raise ValidationError(f"ground truth missing recordings: {', '.join(uncovered)}")
    return segments, sequences, current, mode, truth


def _evaluate(
    results: dict[str, AlignmentResult], sequences: dict[str, TokenSequence], truth: dict | None
) -> EvalReport:
    if truth is not None:
        return evaluate_with_truth([(results[rid], sequences[rid], truth[rid]) for rid in sorted(results)])
    return evaluate_without_truth([(results[rid], sequences[rid]) for rid in sorted(results)])


# -- subcommands ---------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    from .simulator import generate_corpus

    config = SimConfig(
        n_recordings=args.recordings,
        tokens_per_utterance=(args.tokens[0], args.tokens[1]),
        utterances_per_recording=(args.utterances[0], args.utterances[1]),
        vocab_size=args.vocab_size,
        filler_segment_prob=args.filler_prob,
        eps_eos_miss=args.eps_eos_miss,
        eps_eos_false=args.eps_eos_false,
        concentration=args.concentration,
        seed=args.seed,
    )
    corpus = generate_corpus(config)
    out = dataio.save_corpus(corpus, args.out)
    n_segments = sum(len(r.segments) for r in corpus.recordings)
    print(f"wrote corpus: {len(corpus.recordings)} recordings, {n_segments} segments -> {out}")
    return EXIT_OK


def cmd_align(args: argparse.Namespace) -> int:
    segments, sequences, vocab, mode, truth = _load_align_inputs(args)
    config = AlignerConfig(
        theta=args.theta,
        max_token_rate=args.max_token_rate,
        eos_rule=args.eos_rule_name,
        p_eos_min=args.p_eos_min,
        dedup_queue=not args.no_dedup,
        queue_cap=args.queue_cap,
    )

    def run_one(rid: str, fwd: PosteriorScorer, bwd: PosteriorScorer) -> AlignmentResult:
        try:
            return align_recording(segments[rid], sequences[rid], fwd, bwd, config, vocab, mode=mode)
        except QueueOverflow as overflow:
            log.warning("recording %s: %s", rid, overflow)
            return overflow.result

    ordered = sorted(segments)
    with contextlib.ExitStack() as stack:
        pairs = _open_scorer_pairs(args, vocab, len(ordered), stack)
        if len(pairs) == 1:
            results = {rid: run_one(rid, *pairs[0]) for rid in ordered}
        else:
            free = queue.SimpleQueue()
            for pair in pairs:
                free.put(pair)

            def run_on_free_pair(rid: str) -> AlignmentResult:
                pair = free.get()
                try:
                    return run_one(rid, *pair)
                finally:
                    free.put(pair)

            with ThreadPoolExecutor(max_workers=len(pairs)) as pool:
                results = dict(zip(ordered, pool.map(run_on_free_pair, ordered)))

    report = _evaluate(results, sequences, truth)
    out = dataio.write_alignment_output(
        results, args.out, config, tokenize_mode=mode, report=report
    )
    accepted = sum(len(r.accepted) for r in results.values())
    total = sum(len(r.accepted) + len(r.rejected) for r in results.values())
    partial = any(r.partial for r in results.values())
    print(f"aligned {accepted}/{total} segments -> {out}" + (" (partial)" if partial else ""))
    return EXIT_PARTIAL if partial else EXIT_OK


def cmd_ctc_align(args: argparse.Namespace) -> int:
    from .ctcseg import ctc_align, read_frame_posteriors  # numpy only for this command

    post = read_frame_posteriors(args.posteriors)
    text = Path(args.transcript).read_text(encoding="utf-8")
    tokens, vocab = tokenize(text, args.mode)
    if vocab.size > post.vocab_size:
        raise ValidationError(
            f"transcript uses {vocab.size} distinct tokens but posteriors cover {post.vocab_size}"
        )
    timings = ctc_align(post, tokens)
    lines = ["position\ttoken\tstart_frame\tend_frame\tstart_sec\tend_sec\tscore"]
    for tt in timings:
        token = vocab.token_of(tokens.token_id_at(tt.position))
        lines.append(
            f"{tt.position}\t{token}\t{tt.start_frame}\t{tt.end_frame}"
            f"\t{tt.start_frame * post.frame_shift_sec:.3f}"
            f"\t{tt.end_frame * post.frame_shift_sec:.3f}\t{tt.score:.6f}"
        )
    body = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(body, encoding="utf-8")
        print(f"wrote {len(timings)} token timings -> {args.out}")
    else:
        sys.stdout.write(body)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    segments, sequences, _, _, truth = _load_align_inputs(args)
    seg_to_rec = {s.segment_id: rid for rid, segs in segments.items() for s in segs}
    accepted, rejected, _ = dataio.parse_alignment_output(args.run, seg_to_rec)
    results = {}
    for rid in sorted(segments):
        results[rid] = AlignmentResult(
            recording_id=rid,
            accepted=tuple(accepted.get(rid, [])),
            rejected=tuple(rejected.get(rid, [])),
            final_queue=(),
            trace=(),
        )
    report = _evaluate(results, sequences, truth)
    print(report.render_table())
    if args.out:
        Path(args.out).write_text(
            json.dumps(report.to_json_dict(), ensure_ascii=False, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote report -> {args.out}")
    return EXIT_OK


def cmd_serve_oracle(args: argparse.Namespace) -> int:
    from .simulator import OracleScorer
    from .wire import ScorerServer

    corpus = dataio.load_corpus(args.corpus)
    scorer = OracleScorer(corpus)
    server = ScorerServer(scorer, corpus.vocab, host=args.host, port=args.port, serial=args.serial)
    print(
        json.dumps({"op": "listening", "host": server.host, "port": server.port}),
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        with contextlib.suppress(Exception):
            server.shutdown()
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ValidationError(f"{path}:{lineno}: expected key=value")
        values[key.strip()] = value.strip()
    return values


def _apply_config_file(args: argparse.Namespace) -> None:
    """Fill align options from --config for flags the user left unset."""
    defaults = {
        f.name: f.default
        for f in dataclasses.fields(AlignerConfig)
        if f.name in ("theta", "max_token_rate", "eos_rule", "queue_cap")
    }
    defaults.update(jobs=1, timeout=DEFAULT_TIMEOUT_SEC)
    file_values = _read_config_file(args.config) if args.config else {}
    unknown = set(file_values) - set(defaults) - {"dedup_queue"}
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, default in defaults.items():
        if getattr(args, key, None) is None:
            if key in file_values:
                caster = type(default)
                setattr(args, key, caster(file_values[key]))
            else:
                setattr(args, key, default)
    if getattr(args, "no_dedup", None) is None:
        if "dedup_queue" in file_values:
            args.no_dedup = file_values["dedup_queue"].lower() in ("0", "false", "no")
        else:
            args.no_dedup = False
    rule = args.eos_rule
    if rule.startswith("threshold"):
        _, _, p = rule.partition(":")
        args.eos_rule_name = "threshold"
        args.p_eos_min = float(p) if p else AlignerConfig.p_eos_min
    elif rule == "argmax":
        args.eos_rule_name = "argmax"
        args.p_eos_min = AlignerConfig.p_eos_min
    else:
        raise ValidationError(f"bad --eos-rule {rule!r}: expected argmax or threshold[:P]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsalign",
        description="Split long recordings with un-aligned transcripts into utterance-wise "
        "speech/text pairs via label-synchronous eos scanning.",
    )
    parser.add_argument("--log-level", default=os.environ.get("LSALIGN_LOG", "WARNING"))
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic corpus with ground truth")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--recordings", type=int, default=10)
    p_sim.add_argument("--utterances", type=int, nargs=2, default=[3, 5], metavar=("MIN", "MAX"))
    p_sim.add_argument("--tokens", type=int, nargs=2, default=[3, 9], metavar=("MIN", "MAX"))
    p_sim.add_argument("--vocab-size", type=int, default=12)
    p_sim.add_argument("--filler-prob", type=float, default=0.0)
    p_sim.add_argument("--eps-eos-miss", type=float, default=0.0)
    p_sim.add_argument("--eps-eos-false", type=float, default=0.0)
    p_sim.add_argument("--concentration", type=float, default=0.95)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--corpus", help="corpus directory from `simulate`")
    inputs.add_argument("--segments", help="segments TSV (with --transcripts)")
    inputs.add_argument("--transcripts", help="transcripts TSV (recording_id<TAB>text)")
    inputs.add_argument("--vocab", help="meta.json fixing the vocabulary")
    inputs.add_argument("--mode", choices=["char", "whitespace"], default="char")
    inputs.add_argument("--ground-truth", help="ground-truth JSON for metrics")
    inputs.add_argument("--strip-chars", default="", help="characters removed from transcripts")

    p_align = sub.add_parser("align", parents=[inputs], help="run the label-synchronous aligner")
    p_align.add_argument("--fwd-scorer", required=True, metavar="SPEC")
    p_align.add_argument("--bwd-scorer", required=True, metavar="SPEC")
    p_align.add_argument("--theta", type=float, default=None)
    p_align.add_argument("--max-token-rate", type=float, default=None)
    p_align.add_argument("--eos-rule", default=None, help="argmax or threshold[:P]")
    p_align.add_argument("--queue-cap", type=int, default=None)
    p_align.add_argument("--no-dedup", action="store_true", default=None)
    p_align.add_argument("--jobs", type=int, default=None)
    p_align.add_argument("--timeout", type=float, default=None, help="remote scorer timeout (s)")
    p_align.add_argument("--config", help="key=value config file (flags win)")
    p_align.add_argument("--out", required=True)
    p_align.set_defaults(func=cmd_align, needs_align_config=True)

    p_ctc = sub.add_parser("ctc-align", help="frame-synchronous baseline alignment")
    p_ctc.add_argument("--posteriors", required=True)
    p_ctc.add_argument("--transcript", required=True, help="plain-text transcript file")
    p_ctc.add_argument("--mode", choices=["char", "whitespace"], default="char")
    p_ctc.add_argument("--out")
    p_ctc.set_defaults(func=cmd_ctc_align)

    p_eval = sub.add_parser("evaluate", parents=[inputs], help="score an align run")
    p_eval.add_argument("--run", required=True, help="output directory of `align`")
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=cmd_evaluate)

    p_serve = sub.add_parser("serve-oracle", help="serve the simulator oracle over TCP")
    p_serve.add_argument("--corpus", required=True)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0)
    p_serve.add_argument("--serial", action="store_true")
    p_serve.set_defaults(func=cmd_serve_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=getattr(logging, str(args.log_level).upper(), logging.WARNING))
    try:
        if getattr(args, "needs_align_config", False):
            _apply_config_file(args)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ScorerError as exc:
        print(f"scorer error: {exc}", file=sys.stderr)
        return EXIT_SCORER
    except LsalignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
