from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from lsalign.core import Segment, TokenSequence, Vocabulary
from lsalign.scorer import PosteriorRow, PosteriorScorer
from lsalign.scripted import ScriptedScorer, load_scripted_scorer

# the tests import the scripts, such as output_matrix
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))


class SameRowScorer(PosteriorScorer):
    """Answers every prefix with one row, whatever the segment, direction
    and next token; the whole window's row lacks the next-token mass."""

    def __init__(self, row):
        self.row = row
        self.last = PosteriorRow(row.eos_mass, row.top_mass)

    def scan(self, req):
        return req.take([self.row] * (req.max_rows - 1) + [self.last])


@dataclass(frozen=True)
class WalkthroughCase:
    """The worked example: a segment containing "my cat has" inside the
    transcript "you know my cat has", with the forward scan starting at
    "you" and the backward posteriors {my, cat, has} = {0.75, 0.39, 0.91}.
    """

    vocab: Vocabulary
    transcript: TokenSequence
    segment: Segment
    scorer: ScriptedScorer


WALKTHROUGH_SCRIPT = """\
# segment, direction, prefix, next id, eos mass, top mass, next mass
# forward: read "you know my cat has", eos fires after "has"
seg1\tforward\t0\t1\t0.01\t0.9\t0.9
seg1\tforward\t0 1\t2\t0.02\t0.85\t0.85
seg1\tforward\t0 1 2\t3\t0.05\t0.8\t0.8
seg1\tforward\t0 1 2 3\t4\t0.05\t0.9\t0.9
seg1\tforward\t0 1 2 3 4\t\t0.93\t0.014\t
# backward: read "has cat my", eos fires after "my";
# reference-token posteriors are has=0.91, cat=0.39, my=0.75
seg1\tbackward\t\t4\t0.02\t0.91\t0.91
seg1\tbackward\t4\t3\t0.05\t0.39\t0.39
seg1\tbackward\t4 3\t2\t0.03\t0.75\t0.75
seg1\tbackward\t4 3 2\t1\t0.97\t0.006\t0.006
"""


@pytest.fixture()
def walkthrough(tmp_path) -> WalkthroughCase:
    vocab = Vocabulary(("you", "know", "my", "cat", "has"))
    transcript = TokenSequence((0, 1, 2, 3, 4))
    segment = Segment(0.0, 1.0, "seg1", "recA")
    script = tmp_path / "walkthrough.tsv"
    script.write_text(WALKTHROUGH_SCRIPT, encoding="utf-8")
    scorer = load_scripted_scorer(script, vocab.size)
    return WalkthroughCase(vocab, transcript, segment, scorer)
