#!/usr/bin/env python3
"""Run a fixed matrix of aligns and evaluates through `lsalign.cli.main`
and print one sha256 per cell plus a combined digest. Two trees that
print the same combined digest give byte-identical outputs on every cell.

An align cell hashes aligned.tsv, rejected.tsv, report.json, the exit
code and stdout, with the output path masked. The align matrix is

    {two small noisy corpora of three recordings with fillers and both
     eos errors: V=6, and V=12 aligned with --queue-cap 8, which ends at
     exit 4; one real-scale recording of 200 utterances (L = 4,185) at
     V=3000 with fillers and false eos events}
    x {--eos-rule argmax, --eos-rule threshold:0.5}
    x {in process with --corpus, in process with explicit input flags,
       in process with explicit input flags but no --ground-truth (the
       report then holds the no-truth metrics alone), an in-process
       ScorerServer, which gets each round of the recordings' scans as one
       line per connection, and mixed: that server forward beside an
       in-process oracle backward}

The scorer cells of a corpus and eos rule give equal digests, except the
one without ground truth. Each corpus and eos rule also has three
evaluate cells, each hashing the exit code, stdout with the report path
masked, and the report: `evaluate --corpus` of the --corpus cell's run,
`evaluate` with explicit input flags of the explicit cell's run, and
`evaluate` with explicit input flags but no --ground-truth of the
notruth cell's run.

Usage: PYTHONPATH=src python scripts/output_matrix.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from lsalign import cli, dataio
from lsalign.oracle import OracleScorer
from lsalign.wire import ScorerServer

CORPORA = {
    "v6": (
        ["--recordings", "3", "--utterances", "3", "6", "--vocab-size", "6", "--filler-prob", "0.2",
         "--eps-eos-miss", "0.05", "--eps-eos-false", "0.05", "--seed", "24"],
        [],
    ),
    "v12": (
        ["--recordings", "3", "--utterances", "30", "40", "--tokens", "5", "15", "--vocab-size", "12",
         "--filler-prob", "0.15", "--eps-eos-miss", "0.01", "--eps-eos-false", "0.02", "--seed", "7"],
        ["--queue-cap", "8"],
    ),
    "v3000": (
        ["--recordings", "1", "--utterances", "200", "200", "--tokens", "10", "30",
         "--vocab-size", "3000", "--filler-prob", "0.1", "--eps-eos-false", "0.02", "--seed", "3"],
        [],
    ),
}
EOS_RULES = ("argmax", "threshold:0.5")
SCORERS = ("corpus", "explicit", "notruth", "scan", "mixed")
OUTPUTS = ("aligned.tsv", "rejected.tsv", "report.json")
# evaluate cell -> the align cell whose run it scores, with that cell's inputs
EVALUATES = {"evaluate": "corpus", "evaluate-explicit": "explicit", "evaluate-notruth": "notruth"}


def _cell_digest(argv: list[str], out: Path, files: list[Path]) -> str:
    """The digest of one command's exit code, stdout with ``out`` masked,
    and ``files``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    digest = hashlib.sha256(f"exit {code}\n".encode())
    shown = stdout.getvalue().replace(str(out), "OUT").encode("utf-8")
    digest.update(f"stdout {len(shown)}\n".encode() + shown)
    for path in files:
        data = path.read_bytes() if path.exists() else b"(no file)"
        digest.update(f"{path.name} {len(data)}\n".encode() + data)
    return digest.hexdigest()


def run_matrix(work: Path) -> list[tuple[str, str]]:
    """(cell name, sha256) for every cell, run in ``work``."""
    cells = []
    for name, (sim_flags, align_flags) in CORPORA.items():
        corpus_dir = work / name
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["simulate", "--out", str(corpus_dir), *sim_flags])
        corpus = dataio.load_corpus(corpus_dir)
        explicit = [
            "--segments", str(corpus_dir / "segments.tsv"),
            "--transcripts", str(corpus_dir / "transcripts.tsv"),
            "--vocab", str(corpus_dir / "meta.json"),
            "--ground-truth", str(corpus_dir / "ground_truth.json"),
        ]
        by_corpus = ["--corpus", str(corpus_dir)]
        oracle = f"oracle:{corpus_dir}"
        with ScorerServer(OracleScorer(corpus), corpus.vocab) as server:
            served = f"remote:{server.host}:{server.port}"
            runs = {  # (inputs, forward scorer, backward scorer)
                "corpus": (by_corpus, oracle, oracle),
                "explicit": (explicit, oracle, oracle),
                "notruth": (explicit[:-2], oracle, oracle),
                "scan": (by_corpus, served, served),
                "mixed": (by_corpus, served, oracle),
            }
            for rule in EOS_RULES:
                outs = {}
                for scorer_name in SCORERS:
                    inputs, fwd, bwd = runs[scorer_name]
                    cell = f"{name}/{rule}/{scorer_name}"
                    out = outs[scorer_name] = work / "runs" / cell.replace("/", "-").replace(":", "_")
                    argv = [
                        "align", *inputs, "--fwd-scorer", fwd, "--bwd-scorer", bwd,
                        "--eos-rule", rule, *align_flags, "--out", str(out),
                    ]
                    cells.append((cell, _cell_digest(argv, out, [out / output for output in OUTPUTS])))
                for cell_name, run_name in EVALUATES.items():
                    cell = f"{name}/{rule}/{cell_name}"
                    report = work / "runs" / (cell.replace("/", "-").replace(":", "_") + ".json")
                    argv = ["evaluate", "--run", str(outs[run_name]), *runs[run_name][0], "--out", str(report)]
                    cells.append((cell, _cell_digest(argv, report, [report])))
    return cells


def combined_digest(cells: list[tuple[str, str]]) -> str:
    return hashlib.sha256("".join(f"{cell} {digest}\n" for cell, digest in cells).encode()).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        cells = run_matrix(Path(tmp))
    width = max(len(cell) for cell, _ in cells)
    for cell, digest in cells:
        print(f"{cell:<{width}}  {digest}")
    print(f"{'combined':<{width}}  {combined_digest(cells)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
