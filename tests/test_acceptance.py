"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime (run with `pytest -s tests/test_acceptance.py` to see them).
"""

import itertools
import json
import subprocess
import sys
import time
from contextlib import contextmanager
from functools import lru_cache

import pytest

from lsalign.aligner import AlignerConfig, align_recording, confidence
from lsalign.corpus import SimConfig
from lsalign.ctcseg import ctc_align
from lsalign.dataio import save_corpus
from lsalign.metrics import edit_distance, evaluate_with_truth
from lsalign.oracle import OracleScorer
from lsalign.simulator import generate_corpus, reference_align, results_equivalent

from test_aligner import ask_final, ask_initial
from test_ctcseg import brute_force_best_path, path_to_intervals, random_instance


@contextmanager
def criterion(name, budget_sec=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] {name}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[PASS] {name} ({elapsed:.1f}s)")
    if budget_sec is not None:
        assert elapsed < budget_sec, f"{name}: {elapsed:.1f}s exceeds {budget_sec}s budget"


def _align_corpus(corpus, theta=0.7):
    oracle = OracleScorer(corpus)
    config = AlignerConfig(theta=theta)
    items = []
    results = []
    for rec in corpus.recordings:
        result = align_recording(
            rec.segments, rec.transcript, oracle, oracle, config,
            corpus.vocab, mode="whitespace",
        )
        results.append(result)
        items.append((result, rec))
    return results, evaluate_with_truth(items)


def test_criterion_1_confidence_worked_example():
    with criterion("1 confidence worked example"):
        assert confidence([0.75, 0.39, 0.91]) == 0.75


def test_criterion_2_walkthrough_scenario(walkthrough):
    with criterion("2 forward/backward walkthrough scenario"):
        config = AlignerConfig(theta=0.7)
        rule = config.eos_rule
        l_e, capped = ask_final(
            walkthrough.scorer, walkthrough.segment, 1, walkthrough.transcript, 25, rule
        )
        assert (l_e, capped) == (5, False)
        backward = ask_initial(
            walkthrough.scorer, walkthrough.segment, l_e, 1, 25, walkthrough.transcript, rule
        )
        assert backward is not None and backward[0] == 3
        result = align_recording(
            [walkthrough.segment], walkthrough.transcript,
            walkthrough.scorer, walkthrough.scorer, config,
            walkthrough.vocab, mode="whitespace",
        )
        spans = [(p.span.l_s, p.span.l_e, p.text) for p in result.accepted]
        assert spans == [(3, 5, "my cat has")]


def test_criterion_3_oracle_exactness_at_scale():
    with criterion("3 oracle exactness, 200 recordings", budget_sec=10.0):
        config = SimConfig(
            n_recordings=200, tokens_per_utterance=(3, 9), utterances_per_recording=(38, 42),
            vocab_size=12, filler_segment_prob=0.0, concentration=0.95, seed=42,
        )
        corpus = generate_corpus(config)
        n_segments = sum(len(r.segments) for r in corpus.recordings)
        assert n_segments >= 7000
        _, report = _align_corpus(corpus, theta=0.7)
        assert report.span_exact_match == 1.0
        assert report.cer_non_rejected == 0.0
        assert report.nrr == 1.0


def test_criterion_4_filler_robustness():
    with criterion("4 filler robustness", budget_sec=15.0):
        config = SimConfig(
            n_recordings=200, tokens_per_utterance=(3, 9), utterances_per_recording=(38, 42),
            vocab_size=12, filler_segment_prob=0.2, concentration=0.95, seed=42,
        )
        corpus = generate_corpus(config)
        results, report = _align_corpus(corpus, theta=0.7)
        assert report.span_exact_match == 1.0
        n_fillers = 0
        for rec, result in zip(corpus.recordings, results):
            accepted_ids = {p.segment_id for p in result.accepted}
            for seg, span in zip(rec.segments, rec.truth):
                if span is None:
                    n_fillers += 1
                    assert seg.segment_id not in accepted_ids, f"filler {seg.segment_id} accepted"
        assert n_fillers > 1000


def test_criterion_5_reference_equivalence_1000():
    with criterion("5 engine equals reference interpreter on 1000 tiny instances", budget_sec=30.0):
        eps_grid = [(0.0, 0.0), (0.0, 0.15), (0.3, 0.0), (0.4, 0.25), (0.2, 0.1)]
        theta_grid = [0.0, 0.7, 0.9]
        produced = 0
        for seed in itertools.count():
            if produced == 1000:
                break
            miss, false = eps_grid[seed % len(eps_grid)]
            sim = SimConfig(
                n_recordings=1, tokens_per_utterance=(1, 4), utterances_per_recording=(1, 2),
                vocab_size=2 + seed % 7, filler_segment_prob=0.3,
                eps_eos_miss=miss, eps_eos_false=false, concentration=0.9, seed=seed,
            )
            corpus = generate_corpus(sim)
            rec = corpus.recordings[0]
            if len(rec.transcript) > 8 or len(rec.segments) > 3:
                continue
            produced += 1
            oracle = OracleScorer(corpus)
            config = AlignerConfig(theta=theta_grid[seed % 3])

            fast = align_recording(
                rec.segments, rec.transcript, oracle, oracle, config,
                corpus.vocab, mode="whitespace",
            )
            reference = reference_align(rec, oracle, oracle, config, corpus.vocab)
            assert results_equivalent(fast, reference), f"instance seed {seed}"
        assert produced == 1000


def test_criterion_6_edit_distance_exhaustive():
    with criterion("6 edit distance equals exhaustive recursion (len<=6, 3 symbols)", budget_sec=60.0):
        sequences = [()]
        for k in range(1, 7):
            sequences.extend(itertools.product((0, 1, 2), repeat=k))
        assert len(sequences) == 1093

        # one memo over suffix pairs, shared by every pair: every suffix of
        # a grid sequence is itself in the grid
        @lru_cache(maxsize=None)
        def recursive_distance(a, b):
            if not a:
                return len(b)
            if not b:
                return len(a)
            if a[0] == b[0]:
                return recursive_distance(a[1:], b[1:])
            return 1 + min(
                recursive_distance(a[1:], b[1:]),
                recursive_distance(a[1:], b),
                recursive_distance(a, b[1:]),
            )

        for a in sequences:
            for b in sequences:
                counts = edit_distance(a, b)
                assert counts.total == recursive_distance(a, b), (a, b)
                assert counts.ins - counts.dels == len(a) - len(b), (a, b)


def test_criterion_7_ctc_equals_brute_force_500():
    with criterion("7 trellis aligner equals brute-force enumeration on 500 instances", budget_sec=30.0):
        import random

        produced = 0
        for seed in itertools.count():
            if produced == 500:
                break
            rng = random.Random(seed)
            instance = random_instance(rng, max_t=8, max_v=4)
            if instance is None:
                continue
            produced += 1
            post, tokens = instance
            timings = ctc_align(post, tokens)
            best, paths = brute_force_best_path(post.matrix, tokens.ids)
            covered = {}
            for tt in timings:
                for t in range(tt.start_frame, tt.end_frame):
                    covered[t] = tokens.ids[tt.position - 1]
            dp_prob = 1.0
            for t in range(post.n_frames):
                dp_prob *= post.matrix[t, covered.get(t, post.blank_id)]
            assert dp_prob == pytest.approx(best, rel=1e-9), f"instance seed {seed}"
            if len(paths) == 1:
                expected = path_to_intervals(paths[0], tokens.ids)
                got = [(tt.position, tt.start_frame, tt.end_frame) for tt in timings]
                assert got == expected, f"instance seed {seed}"
        assert produced == 500


def test_criterion_8_confidence_gating_lowers_cer():
    with criterion("8 gating trend: accepted CER lower at theta 0.7 than 0.0", budget_sec=60.0):
        strict_wins = 0
        for seed in range(20):
            sim = SimConfig(
                n_recordings=25, tokens_per_utterance=(4, 10), utterances_per_recording=(4, 6),
                vocab_size=12, eps_eos_false=0.05, concentration=0.9, seed=1000 + seed,
            )
            corpus = generate_corpus(sim)
            _, gated = _align_corpus(corpus, theta=0.7)
            _, ungated = _align_corpus(corpus, theta=0.0)
            if gated.cer_non_rejected < ungated.cer_non_rejected:
                strict_wins += 1
        assert strict_wins >= 18, f"strict improvement in only {strict_wins}/20 seeds"


def test_criterion_9_wire_protocol_conformance(tmp_path):
    with criterion("9 serve-oracle over TCP matches in-process run byte for byte", budget_sec=30.0):
        corpus = generate_corpus(
            SimConfig(n_recordings=5, utterances_per_recording=(3, 5), filler_segment_prob=0.2, seed=99)
        )
        corpus_dir = save_corpus(corpus, tmp_path / "corpus")

        def align_cmd(scorer_spec, out):
            return [
                sys.executable, "-m", "lsalign", "align",
                "--corpus", str(corpus_dir),
                "--fwd-scorer", scorer_spec, "--bwd-scorer", scorer_spec,
                "--out", str(out),
            ]

        local_out = tmp_path / "local"
        subprocess.run(align_cmd(f"oracle:{corpus_dir}", local_out), check=True, capture_output=True)

        with subprocess.Popen(  # leaving the block closes the server's pipes
            [sys.executable, "-m", "lsalign", "serve-oracle", "--corpus", str(corpus_dir), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as server:
            try:
                listening = json.loads(server.stdout.readline())
                endpoint = f"remote:{listening['host']}:{listening['port']}"
                remote_out = tmp_path / "remote"
                subprocess.run(align_cmd(endpoint, remote_out), check=True, capture_output=True, timeout=60)
            finally:
                server.terminate()
                server.wait(timeout=10)
        for name in ("aligned.tsv", "rejected.tsv", "report.json"):
            assert (local_out / name).read_bytes() == (remote_out / name).read_bytes(), name


def test_criterion_10_repeated_runs_byte_identical(tmp_path):
    with criterion("10 repeated align runs are byte-identical"):
        corpus = generate_corpus(
            SimConfig(
                n_recordings=6, utterances_per_recording=(3, 5), filler_segment_prob=0.2,
                eps_eos_false=0.05, eps_eos_miss=0.1, concentration=0.9, seed=123,
            )
        )
        corpus_dir = save_corpus(corpus, tmp_path / "corpus")
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable, "-m", "lsalign", "align",
                    "--corpus", str(corpus_dir),
                    "--fwd-scorer", f"oracle:{corpus_dir}", "--bwd-scorer", f"oracle:{corpus_dir}",
                    "--out", str(out),
                ],
                capture_output=True,
            )
            assert proc.returncode in (0, 4)
            outs.append(out)
        for name in ("aligned.tsv", "rejected.tsv", "report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
