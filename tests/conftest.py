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
    """Answers every prefix with one sparse row (as ``expand_sparse_row``
    builds it), whatever the segment and direction."""

    def __init__(self, row):
        self.eos, self.top, self.masses, self.share = row

    def scan(self, req):
        following = req.tokens[req.first :] + (None,)
        return req.take(
            PosteriorRow(self.eos, self.top, None if nxt is None else self.masses.get(nxt, self.share))
            for nxt in following
        )


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
# forward: read "you know my cat has", eos fires after "has"
seg1\tforward\t0\t1:0.9,eos:0.01
seg1\tforward\t0 1\t2:0.85,eos:0.02
seg1\tforward\t0 1 2\t3:0.8,eos:0.05
seg1\tforward\t0 1 2 3\t4:0.9,eos:0.05
seg1\tforward\t0 1 2 3 4\teos:0.93
# backward: read "has cat my", eos fires after "my";
# reference-token posteriors are has=0.91, cat=0.39, my=0.75
seg1\tbackward\t\t4:0.91,eos:0.02
seg1\tbackward\t4\t3:0.39,eos:0.05
seg1\tbackward\t4 3\t2:0.75,eos:0.03
seg1\tbackward\t4 3 2\teos:0.97
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
