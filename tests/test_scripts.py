"""Smoke tests of the runnable experiments under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lsalign

ROOT = Path(__file__).resolve().parents[1]


def test_threshold_sweep_runs_and_reports_every_theta():
    src = Path(lsalign.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "threshold_sweep.py"), "--seeds", "2"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    lines = proc.stdout.splitlines()
    assert lines[0].endswith("seeds=2")
    assert lines[1].split() == ["theta", "nrr", "cer_acc", "cer_all", "span_acc"]
    rows = [[float(x) for x in line.split()] for line in lines[2:]]
    assert [row[0] for row in rows] == [0.0, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
    for theta, nrr, cer_acc, cer_all, span_acc in rows:
        assert 0.0 <= nrr <= 1.0 and 0.0 <= span_acc <= 1.0
        assert cer_acc >= 0.0 and cer_all >= 0.0
    assert any(row[1] > 0.0 for row in rows)  # some theta accepts segments


# The combined digest of scripts/output_matrix.py. A change meant to keep
# every output byte-identical leaves it alone; a deliberate change of what
# align writes updates it and says so.
OUTPUT_MATRIX_DIGEST = "6c6166595937599c11a3f6e5e9ca013dcafe3169d1490c596f98c05e8333b48c"


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    import output_matrix  # scripts/ is on the test path (conftest.py)

    return output_matrix, output_matrix.run_matrix(tmp_path_factory.mktemp("matrix"))


def test_output_matrix_digest_is_pinned(matrix):
    output_matrix, cells = matrix
    assert len(cells) == 54
    assert output_matrix.combined_digest(cells) == OUTPUT_MATRIX_DIGEST, "\n".join(
        f"{cell} {digest}" for cell, digest in cells
    )


def test_output_matrix_cells_agree_where_the_docstring_says(matrix):
    """Per corpus and eos rule, every scorer cell with ground truth writes
    the same bytes, the scripted replay of the served rows included, and
    evaluate scores a run alike from --corpus and from explicit flags."""
    output_matrix, cells = matrix
    digests = dict(cells)
    for corpus in output_matrix.CORPORA:
        for rule in output_matrix.EOS_RULES:
            row = f"{corpus}/{rule}"
            same = {digests[f"{row}/{name}"] for name in ("corpus", "explicit", "scan", "mixed", "scripted")}
            assert len(same) == 1, row
            assert digests[f"{row}/evaluate"] == digests[f"{row}/evaluate-explicit"], row
