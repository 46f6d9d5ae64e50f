#!/usr/bin/env python3
"""Sweep the confidence threshold on a noisy synthetic corpus and report how
NRR and both CER variants respond. Whether NRR is monotone in theta is an
empirical question (rejections change the queue dynamics), so this script
reports it rather than asserting it.

Usage: python scripts/threshold_sweep.py [--seeds 5] [--eps-false 0.05] ...
"""

from __future__ import annotations

import argparse

from lsalign.aligner import AlignerConfig, align_recording
from lsalign.corpus import SimConfig
from lsalign.metrics import evaluate_with_truth
from lsalign.oracle import OracleScorer
from lsalign.simulator import generate_corpus


def run_sweep(args: argparse.Namespace) -> None:
    thetas = [0.0, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
    print(f"eps_eos_miss={args.eps_miss} eps_eos_false={args.eps_false} "
          f"concentration={args.concentration} seeds={args.seeds}")
    print(f"{'theta':>6} {'nrr':>8} {'cer_acc':>9} {'cer_all':>9} {'span_acc':>9}")
    for theta in thetas:
        nrr_sum = cer_acc_sum = cer_all_sum = span_sum = 0.0
        for seed in range(args.seeds):
            sim = SimConfig(
                n_recordings=args.recordings,
                tokens_per_utterance=(4, 10),
                utterances_per_recording=(4, 6),
                vocab_size=12,
                filler_segment_prob=args.filler_prob,
                eps_eos_miss=args.eps_miss,
                eps_eos_false=args.eps_false,
                concentration=args.concentration,
                seed=args.seed_base + seed,
            )
            corpus = generate_corpus(sim)
            oracle = OracleScorer(corpus)
            config = AlignerConfig(theta=theta)
            items = []
            for rec in corpus.recordings:
                result = align_recording(
                    rec.segments, rec.transcript, oracle, oracle, config,
                    corpus.vocab, mode="whitespace",
                )
                items.append((result, rec))
            report = evaluate_with_truth(items)
            nrr_sum += report.nrr
            cer_acc_sum += report.cer_non_rejected
            cer_all_sum += report.cer_with_rejected_as_deletions
            span_sum += report.span_exact_match
        n = args.seeds
        print(f"{theta:>6.2f} {nrr_sum/n:>8.4f} {cer_acc_sum/n:>9.4f} "
              f"{cer_all_sum/n:>9.4f} {span_sum/n:>9.4f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--seed-base", type=int, default=2000)
    parser.add_argument("--recordings", type=int, default=15)
    parser.add_argument("--filler-prob", type=float, default=0.1)
    parser.add_argument("--eps-miss", type=float, default=0.02)
    parser.add_argument("--eps-false", type=float, default=0.05)
    parser.add_argument("--concentration", type=float, default=0.9)
    run_sweep(parser.parse_args())


if __name__ == "__main__":
    main()
