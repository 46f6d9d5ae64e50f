"""Run one lsalign CLI command with a span recorded around each layer call.

    PYTHONPATH=src python3 bench/traced.py --out spans.json -- align --corpus c ...
    PYTHONPATH=src python3 bench/traced.py --out server.json -- serve-oracle --corpus c

The functions in TARGETS are looked up by module and name at start-up and
wrapped; `lsalign.cli.main` then runs unchanged.  When the command
returns (for serve-oracle: when SIGINT stops the server) the spans, the
process's peak resident memory and every target that could not be
wrapped, with the reason, are written to --out as JSON.  A target that
is missing, or that has become a generator function, is reported and
skipped rather than wrapped, so the run itself never depends on it.

A span is [name, start_s, end_s, parent_index, attribute]; parent_index
is -1 for a span opened outside every other span of its thread, and a
span still open when the file is written (a server thread cut off at
shutdown) is null.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import resource
import sys
import threading
import time
from typing import Any, Callable

# Attribute extractors get the values of the named parameters (in the
# order given) and the call's return value.


def _request(req: Any, _result: Any) -> list:
    return [req.direction.value, len(req.prefix)]


def _segment_id(segment: Any, _result: Any) -> str:
    return segment.segment_id


def _capped(result: Any) -> bool:
    return bool(result[1])


def _cells(hyp: Any, ref: Any, _result: Any) -> int:
    return len(hyp) * len(ref)


# (span name, module, attribute path, parameters, extractor)
TARGETS: tuple[tuple[str, str, str, tuple[str, ...], Callable | None], ...] = (
    ("simulator.oracle", "lsalign.simulator", "OracleScorer.next_posterior", ("req",), _request),
    ("scorer.row", "lsalign.scorer", "PosteriorRow.__post_init__", (), None),
    ("scorer.expand", "lsalign.scorer", "expand_sparse_row", (), None),
    ("wire.call", "lsalign.wire", "RemoteScorer.next_posterior", ("req",), _request),
    ("wire.handshake", "lsalign.wire", "RemoteScorer.__init__", (), None),
    ("wire.decode", "lsalign.wire", "_decode", (), None),
    ("wire.row_to_wire", "lsalign.wire", "row_to_wire", (), None),
    ("wire.encode", "lsalign.wire", "_encode", (), None),
    ("aligner.align_recording", "lsalign.aligner", "align_recording", (), None),
    ("aligner.candidate", "lsalign.aligner", "evaluate_candidate", ("segment",), _segment_id),
    ("aligner.fwd_scan", "lsalign.aligner", "estimate_final", (), _capped),
    ("aligner.bwd_scan", "lsalign.aligner", "estimate_initial", (), None),
    ("metrics.evaluate", "lsalign.metrics", "evaluate_with_truth", (), None),
    ("metrics.evaluate", "lsalign.metrics", "evaluate_without_truth", (), None),
    ("metrics.edit_distance", "lsalign.metrics", "edit_distance", ("hyp", "ref"), _cells),
    ("core.tokenize", "lsalign.core", "tokenize", (), None),
    ("dataio.load", "lsalign.dataio", "load_corpus", (), None),
    ("dataio.load", "lsalign.dataio", "parse_segments_file", (), None),
    ("dataio.load", "lsalign.dataio", "parse_transcripts_file", (), None),
    ("dataio.load", "lsalign.dataio", "parse_truth_file", (), None),
    ("dataio.write", "lsalign.dataio", "write_alignment_output", (), None),
)


class Recorder:
    """Spans kept in memory; each thread keeps its own stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[list | None] = []
        self.problems: dict[str, str] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def problem(self, name: str, reason: str) -> None:
        self.problems.setdefault(name, reason)

    def wrap(self, name: str, fn: Callable, params: tuple[str, ...], extract: Callable | None) -> Callable:
        getters = _arg_getters(fn, params)
        spans, lock, local, clock = self.spans, self._lock, self._local, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                index = len(spans)
                spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = [name, start, clock(), parent, None]
                raise
            finally:
                stack.pop()
            end = clock()
            attr = None
            if extract is not None:
                try:
                    attr = extract(*(get(args, kwargs) for get in getters), result)
                except Exception as exc:  # a changed signature or return shape
                    self.problem(name, f"attribute not readable: {type(exc).__name__}: {exc}")
            spans[index] = [name, start, end, parent, attr]
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that can be found; record why the others cannot."""
        for name, module_name, path, params, extract in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                self.problem(name, f"cannot import {module_name}: {exc}")
                continue
            owner: Any = module
            *outer, attr_name = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr_name)
            except AttributeError:
                self.problem(name, f"{module_name}.{path} not found")
                continue
            if inspect.isgeneratorfunction(original) or not callable(original):
                self.problem(name, f"{module_name}.{path} is not a plain function")
                continue
            missing = [p for p in params if p not in inspect.signature(original).parameters]
            if missing:
                self.problem(name, f"{module_name}.{path} has no parameter {', '.join(missing)}")
                params, extract = (), None
            wrapped = self.wrap(name, original, params, extract)
            if outer:
                setattr(owner, attr_name, wrapped)
                continue
            # rebind the function everywhere `from .x import f` copied it
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "lsalign" or mod_name.startswith("lsalign."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)


def _arg_getters(fn: Callable, params: tuple[str, ...]) -> list[Callable]:
    names = list(inspect.signature(fn).parameters)
    getters = []
    for param in params:
        position = names.index(param)

        def get(args: tuple, kwargs: dict, position: int = position, param: str = param) -> Any:
            return args[position] if position < len(args) else kwargs[param]

        getters.append(get)
    return getters


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file for spans and counters")
    parser.add_argument("--tag", default="", help="run id stored with the spans")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- then lsalign CLI arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    recorder = Recorder()
    cli = importlib.import_module("lsalign.cli")  # loads every module before rebinding
    recorder.install()

    start = time.perf_counter()
    code = 1
    try:
        code = cli.main(command)
    except KeyboardInterrupt:
        code = 0
    finally:
        doc = {
            "tag": args.tag,
            "command": command,
            "exit": code,
            "main_s": time.perf_counter() - start,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "problems": recorder.problems,
            "spans": recorder.spans,
        }
        tmp = args.out + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        os.replace(tmp, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
