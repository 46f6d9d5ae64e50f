"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import traced  # noqa: E402
from layers import PER_LAYER, RunFacts, Spans, layer_metrics  # noqa: E402
from run import END_TO_END, load_workloads  # noqa: E402


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_all_workloads_tiny(trace: int) -> None:
    proc = bench(ROOT, "--workload", "all", "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    workloads = load_workloads()
    # three timed runs per workload, plus the wire cross-check and the traced runs
    assert result["attempted"] == 3 * len(workloads) + 1 + (len(workloads) if trace else 0)
    expected = [(n, u) for n, u, _ in PER_LAYER] if trace else list(END_TO_END)
    for workload, spec in workloads.items():
        for name, unit in expected:
            metric = result["metrics"][f"{workload}/{name}"]
            assert metric["unit"] == unit
            absent = trace and (
                name.startswith("wire.") or name == "scorer.expand_us_per_row"
            ) and spec["scorer"] != "wire"
            assert isinstance(metric["value"], (int, float)), (workload, name)
            if absent:
                assert metric["value"] == 0, (workload, name)
    assert not (ROOT / ".bench_work").exists()


def test_single_workload_reports_plain_metric_names() -> None:
    proc = bench(ROOT, "--workload", "csj-inproc", "--seed", "5", "--seconds", "0",
                 "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc.stdout)
    assert list(result["metrics"]) == [name for name, _ in END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "csj-inproc", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_matches_harness() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(load_workloads())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


def _generator_target():
    yield None


def test_missing_or_generator_targets_become_null_metrics(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(traced, "TARGETS", (
        ("aligner.fwd_scan", "test_bench", "_generator_target", (), None),
        ("aligner.bwd_scan", "test_bench", "no_such_function", (), None),
    ))
    recorder = traced.Recorder()
    recorder.install()
    assert "not a plain function" in recorder.problems["aligner.fwd_scan"]
    assert "not found" in recorder.problems["aligner.bwd_scan"]

    doc = {"problems": recorder.problems, "spans": [], "peak_rss_mb": 1.0}
    facts = RunFacts("inproc", 1.0, 0.9, 0.3, 0, 0, 10)
    metrics = layer_metrics(Spans(doc), None, facts)
    assert metrics["aligner.fwd_scan_self_s"][0] is None
    assert "not a plain function" in metrics["aligner.fwd_scan_self_s"][1]
    assert metrics["aligner.bwd_scan_self_s"][0] is None
    assert set(metrics) == {name for name, _, _ in PER_LAYER}
