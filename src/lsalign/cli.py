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
from .aligner import AlignerConfig, AlignmentResult, align_recordings, align_steps
from .core import (
    TOKENIZE_MODES,
    LsalignError,
    ValidationError,
    Vocabulary,
    at_line,
    data_lines,
    read_text,
    tokenize,
    write_text,
)
from .corpus import Recording, SimConfig, SimCorpus
from .metrics import EvalReport, evaluate_with_truth, evaluate_without_truth
from .scorer import DEFAULT_TIMEOUT_SEC, Direction, EosRule, IncompatibleScorer, PosteriorScorer, ScorerError

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
    corpus: SimCorpus | None,
    stack: contextlib.ExitStack,
) -> tuple[PosteriorScorer, PosteriorScorer]:
    """The (forward, backward) scorers of the run, each opened from its own
    spec for its own direction, so the two may be of different kinds.

    A ``remote:`` spec is a connection bound to its direction, closed by
    `stack`, also when the other scorer fails to open. The ``oracle:``
    specs share one oracle per resolved directory, which reuses ``corpus``
    (the --corpus input, None for explicit flags) when it is that
    directory's or else loads it, and refuses a run whose vocabulary is
    not that corpus's.
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

            given = corpus is not None and key == Path(args.corpus).resolve()
            answering = corpus if given else dataio.load_corpus(target)
            if answering.vocab != vocab:  # the oracle answers under its own token ids
                raise IncompatibleScorer(
                    f"oracle:{target}: the run's vocabulary is not the one {Path(target, dataio.META_FILE)} fixes"
                )
            oracles[key] = OracleScorer(answering)
        return oracles[key]

    return open_scorer(args.fwd_scorer, Direction.FORWARD), open_scorer(args.bwd_scorer, Direction.BACKWARD)


# -- input loading ------------------------------------------------------------


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
    args: argparse.Namespace,
) -> tuple[tuple[Recording, ...], Vocabulary, str, SimCorpus | None]:
    """Returns (recordings, vocab, mode, the --corpus corpus or None for
    explicit flags).

    --corpus is read by `dataio.load_corpus`, explicit flags by
    `dataio.load_inputs`.
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
        mode = _tokenize_mode(args, "whitespace")  # load_corpus refuses any other
        corpus = dataio.load_corpus(args.corpus)
        return corpus.recordings, corpus.vocab, mode, corpus
    if not args.segments or not args.transcripts:
        raise ValidationError(f"{args.command} needs --corpus or both --segments and --transcripts")
    _, vocab, pinned = dataio.read_meta(args.vocab) if args.vocab else (None, None, None)
    mode = _tokenize_mode(args, pinned)
    inputs = (args.segments, args.transcripts, vocab, args.ground_truth, mode, args.strip_chars)
    return (*dataio.load_inputs(*inputs), mode, None)


def _evaluate(results: list[AlignmentResult], recordings: tuple[Recording, ...]) -> EvalReport:
    """Metrics of ``results``, parallel to ``recordings``, which all have
    ground truth or none."""
    if recordings[0].truth is not None:
        return evaluate_with_truth(list(zip(results, recordings)))
    return evaluate_without_truth([(result, rec.transcript) for result, rec in zip(results, recordings)])


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
    recordings, vocab, mode, corpus = _load_align_inputs(args)
    config = AlignerConfig(
        theta=args.theta,
        max_token_rate=args.max_token_rate,
        eos_rule=args.eos_rule,
        queue_cap=args.queue_cap,
    )

    out = Path(args.out)
    # refused before any scorer is opened, as writing it would be: a file,
    # or a path under one; nothing is created yet
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ValidationError(f"cannot write {out}: {'File exists' if existing == out else 'Not a directory'}")
    with contextlib.ExitStack() as stack:
        fwd, bwd = _open_scorers(args, vocab, corpus, stack)
        steps = [align_steps(rec.segments, rec.transcript, config, vocab, mode=mode) for rec in recordings]
        results = align_recordings(steps, fwd, bwd)

    partial = [result.recording_id for result in results if result.partial]
    for rid in partial:
        print(f"warning: recording {rid}: queue cap {config.queue_cap} exceeded", file=sys.stderr)
    report = _evaluate(results, recordings)
    dataio.write_alignment_output(results, out, config, tokenize_mode=mode, report=report)
    accepted = sum(len(r.accepted) for r in results)
    total = sum(len(r.accepted) + len(r.rejected) for r in results)
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
    recordings = _load_align_inputs(args)[0]
    report = _evaluate(dataio.parse_alignment_output(args.run, recordings), recordings)
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
    when that flag is not given. Each key may be given once.
    """
    values: dict[str, str] = {}
    for lineno, line in data_lines(path):
        with at_line(path, lineno):
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError("expected key=value")
            if key in values:
                raise ValueError(f"key {key!r} given twice")
        values[key] = value.strip()
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
        "--mode", choices=TOKENIZE_MODES,
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
    p.add_argument("--mode", choices=TOKENIZE_MODES, default="char")
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
