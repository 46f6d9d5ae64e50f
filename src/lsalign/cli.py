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
import json
import math
import sys
from pathlib import Path

from . import dataio
from .aligner import AlignerConfig, AlignmentResult, align_recordings, align_steps, structure_error
from .core import (
    LsalignError,
    Segment,
    TokenSequence,
    ValidationError,
    Vocabulary,
    at_line,
    data_lines,
    read_text,
    tokenize,
    write_text,
)
from .corpus import SimConfig, SimCorpus
from .metrics import EvalReport, evaluate_with_truth, evaluate_without_truth
from .scorer import DEFAULT_TIMEOUT_SEC, Direction, EosRule, PosteriorScorer, ScorerError

# Each scorer kind's module (oracle, scripted, wire) and the simulator are
# imported by the commands and specs that use them, so a command compiles
# only the code it runs.

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SCORER = 3
EXIT_PARTIAL = 4


# -- scorers ------------------------------------------------------------------


def _is_port(text: str) -> bool:
    return text.isdecimal() and int(text) <= 65535


def _port(text: str) -> int:
    """An argparse type: a TCP port, 0 to 65535."""
    if not _is_port(text):
        raise argparse.ArgumentTypeError(f"expected a port from 0 to 65535, got {text!r}")
    return int(text)


def _scorer_spec(spec: str) -> tuple[str, str, int]:
    """Parse ``oracle:DIR``, ``scripted:PATH`` or ``remote:HOST:PORT`` into
    (kind, path or host, port); the port is 0 for the local kinds."""
    kind, sep, rest = spec.partition(":")
    if kind in ("oracle", "scripted") and sep:
        return kind, rest, 0
    if kind == "remote":
        host, sep, port = rest.rpartition(":")
        if sep and _is_port(port):
            return kind, host, int(port)
    raise argparse.ArgumentTypeError(
        f"bad scorer spec {spec!r}: expected oracle:DIR, scripted:PATH or remote:HOST:PORT"
    )


def _open_scorers(
    args: argparse.Namespace,
    vocab: Vocabulary,
    corpora: dict[Path, SimCorpus],
    stack: contextlib.ExitStack,
) -> tuple[PosteriorScorer, PosteriorScorer]:
    """The (forward, backward) scorers of the run, each opened from its own
    spec for its own direction, so the two may be of different kinds.

    A ``remote:`` spec is a connection bound to its direction, closed by
    `stack`, also when the other scorer fails to open. The ``oracle:``
    specs share one oracle per resolved directory, which reuses the corpus
    of that directory in ``corpora``, loaded with the inputs.
    """
    oracles: dict[Path, PosteriorScorer] = {}

    def open_scorer(spec: tuple[str, str, int], direction: Direction) -> PosteriorScorer:
        kind, target, port = spec
        if kind == "remote":
            from .wire import RemoteScorer

            return stack.enter_context(RemoteScorer(target, port, direction, vocab, args.timeout))
        if kind == "scripted":
            from .scripted import load_scripted_scorer

            return load_scripted_scorer(target, vocab.size)
        key = Path(target).resolve()
        if key not in oracles:
            from .oracle import OracleScorer

            oracles[key] = OracleScorer(corpora[key] if key in corpora else dataio.load_corpus(target))
        return oracles[key]

    return open_scorer(args.fwd_scorer, Direction.FORWARD), open_scorer(args.bwd_scorer, Direction.BACKWARD)


# -- input loading ------------------------------------------------------------


def _own_corpus(args: argparse.Namespace, oracle_dirs: tuple[str, ...]) -> str | None:
    """The oracle directory whose corpus files the explicit input flags
    name, if any: loading that corpus gives the inputs as well."""
    if args.strip_chars or not args.vocab:
        return None
    named = (
        (args.segments, dataio.SEGMENTS_FILE),
        (args.transcripts, dataio.TRANSCRIPTS_FILE),
        (args.vocab, dataio.META_FILE),
        (args.ground_truth, dataio.TRUTH_FILE),
    )
    for directory in oracle_dirs:
        root = Path(directory).resolve()
        if all(not path or Path(path).resolve() == root / name for path, name in named):
            return directory
    return None


def _tokenize_mode(args: argparse.Namespace, pinned: str | None) -> str:
    """The run's tokenize mode: the one meta.json pins, which a given
    --mode must match; else --mode; else char."""
    if args.mode and pinned and args.mode != pinned:
        flag = "--corpus" if args.corpus else "--vocab"
        path = Path(args.corpus, dataio.META_FILE) if args.corpus else args.vocab
        raise ValidationError(
            f"--mode {args.mode} contradicts {path} ({flag}), which pins tokenize_mode {pinned!r}"
        )
    return pinned or args.mode or "char"


def _load_align_inputs(
    args: argparse.Namespace, oracle_dirs: tuple[str, ...] = ()
) -> tuple[
    dict[str, list[Segment]],
    dict[str, TokenSequence],
    Vocabulary,
    str,
    dict | None,
    dict[Path, SimCorpus],
]:
    """Returns (segments by recording, token sequences, vocab, mode, truth,
    the corpora loaded on the way, by resolved directory).

    With explicit flags naming the files of one of ``oracle_dirs``, that
    corpus is loaded instead, so its files are read once for the inputs
    and the oracle; its truth is used only when --ground-truth was given.
    """
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
        directory, with_truth = args.corpus, True
    elif not args.segments or not args.transcripts:
        raise ValidationError(f"{args.command} needs --corpus or both --segments and --transcripts")
    else:
        directory = _own_corpus(args, oracle_dirs)
        with_truth = bool(args.ground_truth)
    if directory is not None:
        mode = _tokenize_mode(args, "whitespace")  # load_corpus refuses any other
        corpus = dataio.load_corpus(directory)
        segments = {r.recording_id: list(r.segments) for r in corpus.recordings}
        sequences = {r.recording_id: r.transcript for r in corpus.recordings}
        truth = None
        if with_truth:
            truth = {r.recording_id: r.truth_by_segment() for r in corpus.recordings}
        corpora = {Path(directory).resolve(): corpus}
        return segments, sequences, corpus.vocab, mode, truth, corpora
    _, vocab, pinned = dataio.read_meta(args.vocab) if args.vocab else (None, None, None)
    mode = _tokenize_mode(args, pinned)
    inputs = (args.segments, args.transcripts, vocab, args.ground_truth, mode, args.strip_chars)
    return (*dataio.load_inputs(*inputs), {})


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
    oracle_dirs = tuple(
        target for kind, target, _ in (args.fwd_scorer, args.bwd_scorer) if kind == "oracle"
    )
    segments, sequences, vocab, mode, truth, corpora = _load_align_inputs(args, oracle_dirs)
    config = AlignerConfig(
        theta=args.theta,
        max_token_rate=args.max_token_rate,
        eos_rule=args.eos_rule,
        queue_cap=args.queue_cap,
    )

    ordered = sorted(segments)
    with contextlib.ExitStack() as stack:
        fwd, bwd = _open_scorers(args, vocab, corpora, stack)
        steps = [align_steps(segments[rid], sequences[rid], config, vocab, mode=mode) for rid in ordered]
        results = dict(zip(ordered, align_recordings(steps, fwd, bwd)))

    partial = [rid for rid in ordered if results[rid].partial]
    for rid in partial:
        print(f"warning: recording {rid}: queue cap {config.queue_cap} exceeded", file=sys.stderr)
    report = _evaluate(results, sequences, truth)
    out = dataio.write_alignment_output(
        results, args.out, config, tokenize_mode=mode, report=report
    )
    accepted = sum(len(r.accepted) for r in results.values())
    total = sum(len(r.accepted) + len(r.rejected) for r in results.values())
    print(f"aligned {accepted}/{total} segments -> {out}" + (" (partial)" if partial else ""))
    return EXIT_PARTIAL if partial else EXIT_OK


def cmd_ctc_align(args: argparse.Namespace) -> int:
    from .ctcseg import ctc_align, read_frame_posteriors  # numpy only for this command

    post = read_frame_posteriors(args.posteriors)
    text = read_text(args.transcript)
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
        write_text(args.out, body)
        print(f"wrote {len(timings)} token timings -> {args.out}")
    else:
        sys.stdout.write(body)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    segments, sequences, _, _, truth, _ = _load_align_inputs(args)
    seg_to_rec = {s.segment_id: rid for rid, segs in segments.items() for s in segs}
    lengths = {rid: len(seq) for rid, seq in sequences.items()}
    accepted, rejected, _ = dataio.parse_alignment_output(args.run, seg_to_rec, lengths)
    results = {}
    for rid in sorted(segments):
        results[rid] = AlignmentResult(
            recording_id=rid,
            accepted=tuple(accepted.get(rid, [])),
            rejected=tuple(rejected.get(rid, [])),
            final_queue=(),
            trace=(),
        )
        problem = structure_error(results[rid], segments[rid])
        if problem is not None:
            raise ValidationError(f"{args.run}: recording {rid}: {problem}")
    report = _evaluate(results, sequences, truth)
    print(report.render_table())
    if args.out:
        write_text(
            args.out, json.dumps(report.to_json_dict(), ensure_ascii=False, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote report -> {args.out}")
    return EXIT_OK


def cmd_serve_oracle(args: argparse.Namespace) -> int:
    from .oracle import OracleScorer
    from .wire import ScorerServer

    corpus = dataio.load_corpus(args.corpus)
    scorer = OracleScorer(corpus)
    server = ScorerServer(scorer, corpus.vocab, host=args.host, port=args.port)
    print(
        json.dumps({"op": "listening", "host": server.host, "port": server.port}),
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------


# `align --config` keys; each names the dest of the align flag it sets
CONFIG_KEYS = ("theta", "max_token_rate", "eos_rule", "queue_cap", "timeout")


def _read_config_file(path: str) -> dict[str, str]:
    """The ``key=value`` lines of a config file, as align-parser defaults.

    Values stay strings, which argparse converts with the flag's own type
    when that flag is not given.
    """
    values: dict[str, str] = {}
    for lineno, line in data_lines(path):
        with at_line(path, lineno):
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError("expected key=value")
        values[key.strip()] = value.strip()
    unknown = sorted(set(values) - set(CONFIG_KEYS))
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    return values


def _eos_rule(spec: str) -> EosRule:
    try:
        return EosRule.parse(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive(text: str) -> float:
    """An argparse type: a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _simulate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True)
    p.add_argument("--recordings", type=int, default=10)
    p.add_argument("--utterances", type=int, nargs=2, default=[3, 5], metavar=("MIN", "MAX"))
    p.add_argument("--tokens", type=int, nargs=2, default=[3, 9], metavar=("MIN", "MAX"))
    p.add_argument("--vocab-size", type=int, default=12)
    p.add_argument("--filler-prob", type=float, default=0.0)
    p.add_argument("--eps-eos-miss", type=float, default=0.0)
    p.add_argument("--eps-eos-false", type=float, default=0.0)
    p.add_argument("--concentration", type=float, default=0.95)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)


def _input_arguments(p: argparse.ArgumentParser) -> None:
    """The inputs of align and evaluate."""
    p.add_argument("--corpus", help="corpus directory from `simulate`")
    p.add_argument("--segments", help="segments TSV (with --transcripts)")
    p.add_argument("--transcripts", help="transcripts TSV (recording_id<TAB>text)")
    p.add_argument("--vocab", help="meta.json fixing the vocabulary")
    p.add_argument(
        "--mode", choices=["char", "whitespace"],
        help="tokenize mode; must match the one meta.json pins (default char)",
    )
    p.add_argument("--ground-truth", help="ground-truth JSON for metrics")
    p.add_argument("--strip-chars", default="", help="characters removed from transcripts")


def _align_arguments(p: argparse.ArgumentParser) -> None:
    _input_arguments(p)
    for flag in ("--fwd-scorer", "--bwd-scorer"):
        p.add_argument(
            flag, required=True, type=_scorer_spec, metavar="SPEC",
            help="oracle:DIR, scripted:PATH or remote:HOST:PORT",
        )
    defaults = AlignerConfig()
    p.add_argument("--theta", type=float, default=defaults.theta)
    p.add_argument("--max-token-rate", type=_positive, default=defaults.max_token_rate)
    p.add_argument(
        "--eos-rule", type=_eos_rule, default=defaults.eos_rule,
        help="argmax (default), threshold or threshold:P (P defaults to 0.5)",
    )
    p.add_argument("--queue-cap", type=int, default=defaults.queue_cap)
    p.add_argument(
        "--timeout", type=_positive, default=DEFAULT_TIMEOUT_SEC,
        help="remote scorer timeout (s)",
    )
    p.add_argument("--config", help="key=value file of align defaults (flags win)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_align, parser=p)


def _ctc_align_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--posteriors", required=True)
    p.add_argument("--transcript", required=True, help="plain-text transcript file")
    p.add_argument("--mode", choices=["char", "whitespace"], default="char")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ctc_align)


def _evaluate_arguments(p: argparse.ArgumentParser) -> None:
    _input_arguments(p)
    p.add_argument("--run", required=True, help="output directory of `align`")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)


def _serve_oracle_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=0)
    p.set_defaults(func=cmd_serve_oracle)


# subcommand -> (its help, what adds its arguments)
COMMANDS = {
    "simulate": ("generate a synthetic corpus with ground truth", _simulate_arguments),
    "align": ("run the label-synchronous aligner", _align_arguments),
    "ctc-align": ("frame-synchronous baseline alignment", _ctc_align_arguments),
    "evaluate": ("score an align run", _evaluate_arguments),
    "serve-oracle": ("serve the simulator oracle over TCP", _serve_oracle_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser. Given a subcommand's name it holds that subcommand
    alone, which is all that parsing its arguments needs and spares a short
    run building the others; else every subcommand, for help and errors."""
    parser = argparse.ArgumentParser(
        prog="lsalign",
        description="Split long recordings with un-aligned transcripts into utterance-wise "
        "speech/text pairs via label-synchronous eos scanning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the file's values become align's defaults; parsing again
            # converts them with each flag's type, and given flags still win
            args.parser.set_defaults(**_read_config_file(args.config))
            args = parser.parse_args(argv)
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
