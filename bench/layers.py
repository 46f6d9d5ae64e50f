"""Per-layer metrics computed from the span files bench/traced.py writes.

A layer's self time is its spans' duration minus the part covered by
their child spans.  Every metric comes out as (value, reason): value is
None when the layer did not run in this workload or a span it needs
could not be recorded, and reason then says which.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass

# (name, unit, better) in the order they are reported
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("simulator.oracle_calls", "count", "lower"),
    ("simulator.oracle_us_per_call", "us", "lower"),
    ("scorer.rows_built", "count", "lower"),
    ("scorer.row_validate_us", "us", "lower"),
    ("scorer.expand_us_per_row", "us", "lower"),
    ("wire.roundtrips", "count", "lower"),
    ("wire.roundtrip_us_p50", "us", "lower"),
    ("wire.roundtrip_us_p99", "us", "lower"),
    ("wire.server_busy_us_per_call", "us", "lower"),
    ("wire.bytes_up_per_call", "bytes", "lower"),
    ("wire.bytes_down_per_call", "bytes", "lower"),
    ("wire.handshake_s", "s", "lower"),
    ("wire.server_peak_rss_mb", "MB", "lower"),
    ("aligner.align_recording_s", "s", "lower"),
    ("aligner.fwd_scan_self_s", "s", "lower"),
    ("aligner.bwd_scan_self_s", "s", "lower"),
    ("aligner.queue_self_s", "s", "lower"),
    ("aligner.scorer_calls_fwd", "count", "lower"),
    ("aligner.scorer_calls_bwd", "count", "lower"),
    ("aligner.prefix_ids_sent", "count", "lower"),
    ("aligner.candidates", "count", "lower"),
    ("aligner.candidates_per_segment_max", "count", "lower"),
    ("aligner.useful_candidate_ratio", "ratio", "higher"),
    ("aligner.capped_scans", "count", "lower"),
    ("aligner.overflow_recordings", "count", "lower"),
    ("metrics.evaluate_s", "s", "lower"),
    ("metrics.edit_distance_calls", "count", "lower"),
    ("metrics.edit_cells", "count", "lower"),
    ("core.tokenize_s", "s", "lower"),
    ("dataio.load_s", "s", "lower"),
    ("dataio.write_s", "s", "lower"),
    ("dataio.output_bytes", "bytes", "lower"),
    ("cli.align_self_s", "s", "lower"),
    ("cli.evaluate_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# server-side spans that make up the work of answering one post
SERVER_BUSY_SPANS = ("wire.decode", "simulator.oracle", "wire.row_to_wire", "wire.encode")


class Spans:
    """One process's span file, indexed by span name."""

    def __init__(self, doc: dict) -> None:
        self.doc = doc
        self.problems: dict[str, str] = doc["problems"]
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        self.by_name: dict[str, list[tuple[float, float, object, bool]]] = {}
        for index, span in enumerate(spans):
            if span is None:
                continue
            name, start, end, parent, attr = span
            duration = end - start
            self.by_name.setdefault(name, []).append(
                (duration, duration - covered[index], attr, parent < 0)
            )

    def get(self, name: str) -> list[tuple[float, float, object, bool]]:
        return self.by_name.get(name, [])

    def total(self, name: str) -> float:
        return sum(s[0] for s in self.get(name))

    def self_total(self, name: str) -> float:
        return sum(s[1] for s in self.get(name))

    def top_level_total(self, names: tuple[str, ...] | None = None) -> float:
        return sum(
            s[0]
            for name, items in self.by_name.items()
            if names is None or name in names
            for s in items
            if s[3]
        )


@dataclass
class RunFacts:
    """What the benchmark measured around the traced align run."""

    scorer: str  # "inproc" | "wire"
    traced_wall_s: float
    untraced_wall_s: float
    evaluate_s: float
    accepted_segments: int
    overflow_recordings: int | None
    output_bytes: int
    bytes_up: int | None = None
    bytes_down: int | None = None


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(
    align: Spans, server: Spans | None, facts: RunFacts
) -> dict[str, tuple[float | None, str | None]]:
    out: dict[str, tuple[float | None, str | None]] = {}
    processes = [align] + ([server] if server is not None else [])

    def missing(*names: str) -> str | None:
        for proc in processes:
            for name in names:
                if name in proc.problems:
                    return f"{name}: {proc.problems[name]}"
        return None

    def put(metric: str, needs: tuple[str, ...], compute, empty_reason: str | None = None) -> None:
        reason = missing(*needs)
        if reason is not None:
            out[metric] = (None, reason)
            return
        value = compute()
        out[metric] = (value, None) if value is not None else (None, empty_reason)

    def mean_us(items: list, field: int) -> float | None:
        return statistics.fmean(s[field] for s in items) * 1e6 if items else None

    oracle = [s for p in processes for s in p.get("simulator.oracle")]
    rows = [s for p in processes for s in p.get("scorer.row")]
    put("simulator.oracle_calls", ("simulator.oracle",), lambda: len(oracle))
    put("simulator.oracle_us_per_call", ("simulator.oracle",), lambda: mean_us(oracle, 0),
        "no oracle calls")
    put("scorer.rows_built", ("scorer.row",), lambda: len(rows))
    put("scorer.row_validate_us", ("scorer.row",), lambda: mean_us(rows, 1), "no rows built")
    put("scorer.expand_us_per_row", ("scorer.expand",),
        lambda: mean_us(align.get("scorer.expand"), 0),
        "no sparse rows expanded in the align process (in-process scorers)")

    wire_metrics = [name for name, _, _ in PER_LAYER if name.startswith("wire.")]
    if facts.scorer != "wire" or server is None:
        for name in wire_metrics:
            out[name] = (None, "workload uses in-process scorers; the wire layer does not run")
    else:
        calls = align.get("wire.call")
        durations = [s[0] * 1e6 for s in calls]
        n_posts = len(server.get("simulator.oracle"))
        put("wire.roundtrips", ("wire.call",), lambda: len(calls))
        put("wire.roundtrip_us_p50", ("wire.call",),
            lambda: _percentile(durations, 50) if durations else None, "no round trips")
        put("wire.roundtrip_us_p99", ("wire.call",),
            lambda: _percentile(durations, 99) if durations else None, "no round trips")
        put("wire.server_busy_us_per_call", SERVER_BUSY_SPANS,
            lambda: server.top_level_total(SERVER_BUSY_SPANS) / n_posts * 1e6 if n_posts else None,
            "server answered no posts")
        put("wire.bytes_up_per_call", ("wire.call",),
            lambda: facts.bytes_up / len(calls) if calls else None, "no round trips")
        put("wire.bytes_down_per_call", ("wire.call",),
            lambda: facts.bytes_down / len(calls) if calls else None, "no round trips")
        put("wire.handshake_s", ("wire.handshake",), lambda: align.total("wire.handshake"))
        out["wire.server_peak_rss_mb"] = (server.doc["peak_rss_mb"], None)

    call_span = "wire.call" if facts.scorer == "wire" else "simulator.oracle"
    requests = [s[2] for s in align.get(call_span)]
    put("aligner.align_recording_s", ("aligner.align_recording",),
        lambda: align.total("aligner.align_recording"))
    put("aligner.fwd_scan_self_s", ("aligner.fwd_scan",), lambda: align.self_total("aligner.fwd_scan"))
    put("aligner.bwd_scan_self_s", ("aligner.bwd_scan",), lambda: align.self_total("aligner.bwd_scan"))
    put("aligner.queue_self_s", ("aligner.align_recording", "aligner.candidate"),
        lambda: align.self_total("aligner.align_recording"))
    put("aligner.scorer_calls_fwd", (call_span,),
        lambda: sum(1 for r in requests if r[0] == "forward"))
    put("aligner.scorer_calls_bwd", (call_span,),
        lambda: sum(1 for r in requests if r[0] == "backward"))
    put("aligner.prefix_ids_sent", (call_span,), lambda: sum(r[1] for r in requests))
    candidates = align.get("aligner.candidate")
    put("aligner.candidates", ("aligner.candidate",), lambda: len(candidates))
    put("aligner.candidates_per_segment_max", ("aligner.candidate",),
        lambda: max(Counter(s[2] for s in candidates).values()) if candidates else 0)
    put("aligner.useful_candidate_ratio", ("aligner.candidate",),
        lambda: facts.accepted_segments / len(candidates) if candidates else None,
        "no candidates evaluated")
    put("aligner.capped_scans", ("aligner.fwd_scan",),
        lambda: sum(1 for s in align.get("aligner.fwd_scan") if s[2]))
    out["aligner.overflow_recordings"] = (
        (facts.overflow_recordings, None)
        if facts.overflow_recordings is not None
        else (None, "report.json has no per-recording partial flag")
    )

    put("metrics.evaluate_s", ("metrics.evaluate",), lambda: align.total("metrics.evaluate"))
    put("metrics.edit_distance_calls", ("metrics.edit_distance",),
        lambda: len(align.get("metrics.edit_distance")))
    put("metrics.edit_cells", ("metrics.edit_distance",),
        lambda: sum(s[2] for s in align.get("metrics.edit_distance")))
    put("core.tokenize_s", ("core.tokenize",), lambda: align.self_total("core.tokenize"))
    put("dataio.load_s", ("dataio.load",), lambda: align.self_total("dataio.load"))
    put("dataio.write_s", ("dataio.write",), lambda: align.self_total("dataio.write"))
    out["dataio.output_bytes"] = (facts.output_bytes, None)

    out["cli.align_self_s"] = (facts.traced_wall_s - align.top_level_total(), None)
    out["cli.evaluate_s"] = (facts.evaluate_s, None)
    out["trace.overhead_s"] = (facts.traced_wall_s - facts.untraced_wall_s, None)
    return out
