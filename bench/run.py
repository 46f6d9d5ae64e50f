"""lsalign benchmark: drives the real CLI on generated workloads.

Run from the root of a checkout (it needs src/lsalign there):

    python3 bench/run.py --workload csj-inproc --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 1

One invocation, per workload:

1. Set-up, done seven times and timed (setup_s is the median): write the
   corpus with `lsalign simulate --seed SEED`; on csj-wire also start
   `lsalign serve-oracle` and wait for its listening line.
2. Measurement: run `lsalign align` as a fresh process at least three
   times, and then again as long as one more run of median length still
   ends within --seconds.  Each run's wall time covers
   start-up, loading, scorer construction and handshake, the scans, the
   in-align evaluation and output writing; its peak RSS is read from the
   kernel's accounting of the child.
3. Output check: every run's aligned.tsv, rejected.tsv and report.json
   must be byte-identical to the first run's; the first run's files must
   describe a valid alignment of the corpus (every segment decided once,
   spans in order inside the transcript, text equal to the spanned
   tokens); on csj-wire an untimed in-process align of the same corpus
   must give the same bytes; `lsalign evaluate --corpus` must accept the
   output and agree on NRR.  A run that exits with a code other than 0
   or 4 (partial result), or fails a check, counts as failed, and the
   command then exits with status 1.
4. With --trace 1, one more align (and on csj-wire one more server) runs
   under bench/traced.py, which records a span around each layer's
   public functions; the per-layer metrics come from those spans.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics (the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1).  Every value there is a number: a metric that could not
be measured (its layer does not run in the workload, such as wire.* in
process, or the function it wraps is gone) reads 0, and the table above
the line and stderr give the reason.  Workload parameters live in
bench/workloads.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from layers import PER_LAYER, RunFacts, Spans, layer_metrics  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS_FILE = BENCH_DIR / "workloads.json"
WORK_DIR = ".bench_work"

# (name, unit) of the end-to-end metrics, in the order they are reported
END_TO_END: tuple[tuple[str, str], ...] = (
    # tokens inside accepted spans / align wall time, median over the runs
    ("aligned_tokens_per_s", "tokens/s"),
    # median time to write the corpus (and on csj-wire to start the server)
    ("setup_s", "s"),
    # peak resident memory of the align process, median over the runs
    ("peak_rss_mb", "MB"),
    # the next three come from `lsalign evaluate --corpus` on the first run
    ("nrr", "ratio"),
    ("span_exact_match", "ratio"),
    # 1 - cer_with_rejected_as_deletions (a CER of 0 is not a usable bound base)
    ("token_accuracy", "ratio"),
)

SETUP_REPEATS = 7
MIN_ALIGN_RUNS = 3
PROCESS_TIMEOUT_S = 150.0
SERVER_START_TIMEOUT_S = 60.0
OUTPUT_FILES = ("aligned.tsv", "rejected.tsv", "report.json")
EXIT_OK, EXIT_PARTIAL = 0, 4


class BenchError(Exception):
    """A set-up step failed, so nothing can be measured."""


# -- processes -------------------------------------------------------------------


@dataclass
class Proc:
    code: int
    wall_s: float
    peak_rss_mb: float


class Runner:
    """Starts lsalign processes from the checkout's own source tree."""

    def __init__(self, root: Path, work: Path) -> None:
        src = root / "src"
        self.root = root
        self.work = work
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
        self.env.pop("LSALIGN_LOG", None)
        self._logs = 0

    def lsalign(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "lsalign", *args]

    def traced(self, spans: Path, tag: str, *args: str) -> list[str]:
        return [
            sys.executable, str(BENCH_DIR / "traced.py"), "--out", str(spans), "--tag", tag, "--", *args
        ]

    def _log(self) -> Path:
        self._logs += 1
        return self.work / f"proc{self._logs:03d}.log"

    def run(self, argv: list[str]) -> Proc:
        """Run to completion; wall time and peak RSS of this child alone."""
        log = self.last_log = self._log()
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.root, stdout=fh, stderr=fh)
            timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0)

    def check_run(self, argv: list[str], what: str) -> Proc:
        result = self.run(argv)
        if result.code != 0:
            tail = self.last_log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
            raise BenchError(f"{what} exited with {result.code}: {' / '.join(tail)}")
        return result

    def start_server(self, argv: list[str]) -> tuple[subprocess.Popen, int]:
        with open(self._log(), "wb") as err:
            proc = subprocess.Popen(
                argv, env=self.env, cwd=self.root, stdout=subprocess.PIPE, stderr=err
            )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], SERVER_START_TIMEOUT_S)
            line = proc.stdout.readline() if ready else b""
            port = int(json.loads(line)["port"])
        except (ValueError, KeyError, TypeError) as exc:
            stop_server(proc)
            raise BenchError(f"server did not report a listening port ({exc}): {line!r}") from None
        return proc, port


def stop_server(proc: subprocess.Popen | None) -> None:
    """SIGINT is the CLI's clean shutdown; kill if it does not take."""
    if proc is None:
        return
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


class CountingRelay:
    """TCP relay between the align client and the server that counts the
    bytes passing each way at the socket (traced runs only)."""

    def __init__(self, upstream_port: int) -> None:
        self._upstream = upstream_port
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.1)
        self.port = self._listener.getsockname()[1]
        self.bytes_up = 0
        self.bytes_down = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._sockets: list[socket.socket] = []
        self._threads = [threading.Thread(target=self._accept, daemon=True)]
        self._threads[0].start()

    def _accept(self) -> None:
        while not self._stop.is_set():
            try:
                client, _ = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            client.settimeout(None)
            try:
                upstream = socket.create_connection(("127.0.0.1", self._upstream))
            except OSError:
                client.close()
                continue
            self._sockets += [client, upstream]
            for src, dst, up in ((client, upstream, True), (upstream, client, False)):
                thread = threading.Thread(target=self._pump, args=(src, dst, up), daemon=True)
                self._threads.append(thread)
                thread.start()

    def _pump(self, src: socket.socket, dst: socket.socket, up: bool) -> None:
        try:
            while chunk := src.recv(1 << 16):
                with self._lock:
                    if up:
                        self.bytes_up += len(chunk)
                    else:
                        self.bytes_down += len(chunk)
                dst.sendall(chunk)
        except OSError:
            pass
        try:
            dst.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def close(self) -> None:
        self._stop.set()
        self._threads[0].join(timeout=5)
        self._listener.close()
        for sock in self._sockets:
            sock.close()
        for thread in self._threads[1:]:
            thread.join(timeout=5)


# -- corpus and output checks -------------------------------------------------------


@dataclass
class Corpus:
    segments: dict[str, str]  # segment id -> recording id
    tokens: dict[str, list[str]]  # recording id -> transcript tokens

    @classmethod
    def read(cls, path: Path) -> Corpus:
        segments = {}
        for line in (path / "segments.tsv").read_text(encoding="utf-8").splitlines():
            if line.strip():
                sid, rid, _, _ = line.split("\t")
                segments[sid] = rid
        tokens = {}
        for line in (path / "transcripts.tsv").read_text(encoding="utf-8").splitlines():
            if line.strip():
                rid, _, text = line.partition("\t")
                tokens[rid] = text.split()
        return cls(segments, tokens)

    @property
    def n_tokens(self) -> int:
        return sum(len(t) for t in self.tokens.values())


def output_digest(run_dir: Path) -> tuple[str | None, ...]:
    return tuple(
        hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        if (run_dir / name).is_file() else None
        for name in OUTPUT_FILES
    )


def check_outputs(run_dir: Path, corpus: Corpus) -> tuple[list[str], int]:
    """Problems found in one run's files, and the number of accepted tokens."""
    problems: list[str] = []
    try:
        aligned = (run_dir / "aligned.tsv").read_text(encoding="utf-8").splitlines()[1:]
        rejected = (run_dir / "rejected.tsv").read_text(encoding="utf-8").splitlines()[1:]
        json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], 0
    accepted_tokens = 0
    last_end: dict[str, int] = {}
    decided: list[str] = []
    for line in aligned:
        sid, l_s, l_e, conf, text = line.split("\t", 4)
        decided.append(sid)
        rid = corpus.segments.get(sid)
        if rid is None:
            problems.append(f"aligned.tsv: unknown segment {sid}")
            continue
        l_s, l_e, tokens = int(l_s), int(l_e), corpus.tokens[rid]
        if not (last_end.get(rid, 0) < l_s <= l_e <= len(tokens)):
            problems.append(f"aligned.tsv: {sid} span [{l_s},{l_e}] out of order or outside the transcript")
        elif text != " ".join(tokens[l_s - 1 : l_e]):
            problems.append(f"aligned.tsv: {sid} text does not match transcript tokens {l_s}..{l_e}")
        if not 0.0 <= float(conf) <= 1.0:
            problems.append(f"aligned.tsv: {sid} confidence {conf} outside [0, 1]")
        last_end[rid] = l_e
        accepted_tokens += l_e - l_s + 1
    rejected_ids: list[str] = []
    for line in rejected:  # one row per candidate; a segment's rows are adjacent
        sid = line.split("\t", 1)[0]
        if not rejected_ids or rejected_ids[-1] != sid:
            rejected_ids.append(sid)
    counts = Counter(decided + rejected_ids)
    twice = sorted(s for s, n in counts.items() if n > 1)
    undecided = sorted(set(corpus.segments) - set(counts))
    if twice:
        problems.append(f"segments decided more than once: {', '.join(twice[:5])}")
    if undecided:
        problems.append(f"segments never decided: {', '.join(undecided[:5])}")
    return problems, accepted_tokens


# -- one workload ---------------------------------------------------------------------


@dataclass
class Outcome:
    workload: str
    attempted: int = 0
    failed_runs: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float | None, str]] = field(default_factory=dict)
    reasons: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failed_runs)

    def fail(self, run: str, problem: str) -> None:
        """Count align run `run` as failed (once, however many checks it fails)."""
        self.failed_runs.add(run)
        self.problems.append(f"{run}: {problem}")


def load_workloads() -> dict:
    return json.loads(WORKLOADS_FILE.read_text(encoding="utf-8"))["workloads"]


def simulate_args(spec: dict, seed: int, out: Path, tiny: bool) -> list[str]:
    params = dict(spec["simulate"], **(spec["tiny"] if tiny else {}))
    return [
        "simulate", "--out", str(out), "--seed", str(seed),
        "--recordings", str(params["recordings"]),
        "--utterances", *map(str, params["utterances"]),
        "--tokens", *map(str, params["tokens"]),
        "--vocab-size", str(params["vocab_size"]),
        "--filler-prob", str(params["filler_prob"]),
        "--eps-eos-false", str(params["eps_eos_false"]),
    ]


class WorkloadRun:
    """One workload at one seed: set-up, timed align runs, checks, traced run."""

    def __init__(self, runner: Runner, name: str, spec: dict, seed: int, tiny: bool) -> None:
        self.runner, self.spec, self.seed, self.tiny = runner, spec, seed, tiny
        self.outcome = Outcome(name)
        self.corpus_dir = runner.work / "corpus"
        self.reference = runner.work / "run0"
        self.wire = spec["scorer"] == "wire"
        self.server: subprocess.Popen | None = None
        self.port: int | None = None
        self.setup_times: list[float] = []
        self.runs: list[Proc] = []
        self.ref_digest: tuple[str | None, ...] | None = None
        self.accepted_tokens = 0
        self.quality: dict = {}  # `lsalign evaluate --corpus` report
        self.evaluated: Proc | None = None

    def align(self, out: Path, port: int | None) -> list[str]:
        spec, corpus = self.spec, self.corpus_dir
        if spec["input"] == "corpus":
            inputs = ["--corpus", str(corpus)]
        else:
            inputs = [
                "--segments", str(corpus / "segments.tsv"),
                "--transcripts", str(corpus / "transcripts.tsv"),
                "--vocab", str(corpus / "meta.json"), "--mode", "whitespace",
            ]
        scorer = f"remote:127.0.0.1:{port}" if port is not None else f"oracle:{corpus}"
        return ["align", *inputs, "--fwd-scorer", scorer, "--bwd-scorer", scorer, "--out", str(out)]

    def set_up(self) -> None:
        simulate = self.runner.lsalign(*simulate_args(self.spec, self.seed, self.corpus_dir, self.tiny))
        for _ in range(SETUP_REPEATS):
            self.stop_server()
            start = time.perf_counter()
            self.runner.check_run(simulate, "simulate")
            if self.wire:
                self.server, self.port = self.runner.start_server(
                    self.runner.lsalign("serve-oracle", "--corpus", str(self.corpus_dir))
                )
            self.setup_times.append(time.perf_counter() - start)

    def measure(self, seconds: float) -> None:
        outcome = self.outcome
        start = time.perf_counter()

        def another() -> bool:
            if len(self.runs) < MIN_ALIGN_RUNS:
                return True
            typical = statistics.median(r.wall_s for r in self.runs)
            return time.perf_counter() - start + typical <= seconds

        while another():
            out = self.runner.work / f"run{len(self.runs)}"
            result = self.runner.run(self.runner.lsalign(*self.align(out, self.port)))
            outcome.attempted += 1
            self.runs.append(result)
            digest = output_digest(out)
            if result.code not in (EXIT_OK, EXIT_PARTIAL):
                outcome.fail(out.name, f"exited with {result.code}")
            elif self.ref_digest is None:
                self.ref_digest = digest
            elif digest != self.ref_digest:
                outcome.fail(out.name, "outputs differ from the first run's")
            if out != self.reference:
                shutil.rmtree(out, ignore_errors=True)
        self.stop_server()

    def check(self) -> None:
        outcome, work = self.outcome, self.runner.work
        corpus = Corpus.read(self.corpus_dir)
        problems, self.accepted_tokens = check_outputs(self.reference, corpus)
        if problems:
            outcome.fail(self.reference.name, "invalid outputs: " + "; ".join(problems[:3]))
        if self.wire:
            inproc = work / "inproc"
            result = self.runner.run(self.runner.lsalign(*self.align(inproc, None)))
            outcome.attempted += 1
            if result.code not in (EXIT_OK, EXIT_PARTIAL) or output_digest(inproc) != self.ref_digest:
                outcome.fail(inproc.name, "wire outputs differ from an in-process align of the same corpus")
        self.evaluated = self.runner.run(self.runner.lsalign(
            "evaluate", "--run", str(self.reference), "--corpus", str(self.corpus_dir),
            "--out", str(work / "eval.json"),
        ))
        if self.evaluated.code != 0:
            outcome.fail(self.reference.name, f"lsalign evaluate exited with {self.evaluated.code}")
        else:
            self.quality = json.loads((work / "eval.json").read_text(encoding="utf-8"))
            expected_nrr = round(self.accepted_tokens / max(1, corpus.n_tokens), 6)
            if self.quality.get("nrr") != expected_nrr:
                outcome.fail(
                    self.reference.name,
                    f"evaluate reports nrr {self.quality.get('nrr')}, outputs give {expected_nrr}",
                )
        walls = [r.wall_s for r in self.runs]
        outcome.notes.append(
            f"corpus: {len(corpus.segments)} segments, {corpus.n_tokens} tokens; "
            f"{len(walls)} timed align runs, wall median {statistics.median(walls):.3f} s "
            f"(min {min(walls):.3f}, max {max(walls):.3f}); "
            f"set-up {', '.join(f'{t:.3f}' for t in self.setup_times)} s"
        )

    def end_to_end(self) -> None:
        runs, quality = self.runs, self.quality
        cer, tokens = quality.get("cer_with_rejected_as_deletions"), self.accepted_tokens
        values = {
            "aligned_tokens_per_s": statistics.median(tokens / r.wall_s for r in runs),
            "setup_s": statistics.median(self.setup_times),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
            "nrr": quality.get("nrr"),
            "span_exact_match": quality.get("span_exact_match"),
            "token_accuracy": None if cer is None else 1.0 - cer,
        }
        self.outcome.metrics = {name: (values[name], unit) for name, unit in END_TO_END}

    def traced(self) -> None:
        """One more align under bench/traced.py; on csj-wire also a traced
        server, reached through a byte-counting relay (whose two local hops
        per round trip are part of trace.overhead_s)."""
        runner, outcome, work = self.runner, self.outcome, self.runner.work
        out = work / "traced"
        align_spans, server_spans = work / "spans_align.json", work / "spans_server.json"
        tag = f"{outcome.workload}/seed{self.seed}"
        relay, port = None, None
        if self.wire:
            self.server, upstream = runner.start_server(runner.traced(
                server_spans, f"{tag}/server", "serve-oracle", "--corpus", str(self.corpus_dir)
            ))
            relay = CountingRelay(upstream)
            port = relay.port
        try:
            result = runner.run(runner.traced(align_spans, f"{tag}/align", *self.align(out, port)))
        finally:
            if relay is not None:
                relay.close()
            self.stop_server()
        outcome.attempted += 1
        if result.code not in (EXIT_OK, EXIT_PARTIAL) or output_digest(out) != self.ref_digest:
            outcome.fail(out.name, "traced outputs differ from the untraced runs'")
            return
        if not align_spans.is_file() or (self.wire and not server_spans.is_file()):
            outcome.fail(out.name, "a traced process wrote no span file")
            return
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        partial = [r.get("partial") for r in report.get("recordings", {}).values()]
        facts = RunFacts(
            scorer=self.spec["scorer"],
            traced_wall_s=result.wall_s,
            untraced_wall_s=statistics.median(r.wall_s for r in self.runs),
            evaluate_s=self.evaluated.wall_s,
            accepted_segments=len((out / "aligned.tsv").read_text(encoding="utf-8").splitlines()) - 1,
            overflow_recordings=sum(1 for p in partial if p) if partial and None not in partial else None,
            output_bytes=sum((out / f).stat().st_size for f in OUTPUT_FILES),
            bytes_up=relay.bytes_up if relay else None,
            bytes_down=relay.bytes_down if relay else None,
        )
        align_doc = Spans(json.loads(align_spans.read_text(encoding="utf-8")))
        server_doc = Spans(json.loads(server_spans.read_text(encoding="utf-8"))) if self.wire else None
        units = {n: u for n, u, _ in PER_LAYER}
        for metric, (value, reason) in layer_metrics(align_doc, server_doc, facts).items():
            outcome.metrics[metric] = (value, units[metric])
            if reason:
                outcome.reasons[metric] = reason

    def stop_server(self) -> None:
        stop_server(self.server)
        self.server = None


def run_workload(
    runner: Runner, name: str, spec: dict, seed: int, seconds: float, trace: bool, tiny: bool
) -> Outcome:
    run = WorkloadRun(runner, name, spec, seed, tiny)
    try:
        run.set_up()
        run.measure(seconds)
        run.check()
        if trace:
            run.traced()
        else:
            run.end_to_end()
    finally:
        run.stop_server()
    return run.outcome


# -- entry point -----------------------------------------------------------------------


def render(outcome: Outcome) -> list[str]:
    lines = [f"== {outcome.workload}"]
    for name, (value, unit) in outcome.metrics.items():
        shown = "0" if value is None else f"{value:.6g}"
        note = f"  (not measured: {outcome.reasons[name]})" if name in outcome.reasons else ""
        lines.append(f"  {name:<36} {shown:>14} {unit}{note}")
    # printed for reading only: failed_share is 0 on a correct program and cer
    # is 0 on clean workloads, so neither can serve as a bound's base
    share = outcome.failed / max(1, outcome.attempted)
    lines.append(f"  {'failed_share':<36} {share:>14.6g} ratio  ({outcome.failed}/{outcome.attempted} runs)")
    accuracy = outcome.metrics.get("token_accuracy", (None,))[0]
    if accuracy is not None:
        lines.append(f"  {'cer':<36} {1.0 - accuracy:>14.6g} ratio  (cer_with_rejected_as_deletions)")
    lines.extend(f"  {note}" for note in outcome.notes)
    lines.extend(f"  check failed: {p}" for p in outcome.problems)
    return lines


def main(argv: list[str] | None = None) -> int:
    # SIGTERM unwinds like an exception, so servers and children are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description="lsalign benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny corpora, for the harness smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lsalign" / "cli.py").is_file():
        print(f"bench: no lsalign source under {root / 'src'}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = list(workloads) if args.workload == "all" else [args.workload]
    outcomes = []
    for name in names:
        work = root / WORK_DIR / f"{name}-{args.seed}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            runner = Runner(root, work)
            outcomes.append(run_workload(
                runner, name, workloads[name], args.seed, args.seconds, bool(args.trace), args.tiny
            ))
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):  # still in use by another invocation
                (root / WORK_DIR).rmdir()

    for outcome in outcomes:
        print("\n".join(render(outcome)))
    prefix = len(outcomes) > 1
    for o in outcomes:
        for name, reason in o.reasons.items():
            print(f"bench: {o.workload}/{name} not measured, reported as 0: {reason}", file=sys.stderr)
    metrics = {
        (f"{o.workload}/{name}" if prefix else name): {
            "value": 0 if value is None else value, "unit": unit
        }
        for o in outcomes
        for name, (value, unit) in o.metrics.items()
    }
    failed = sum(o.failed for o in outcomes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
