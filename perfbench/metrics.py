"""Metric definitions and their computation from chain results and spans.

END_TO_END and PER_LAYER are the lists recorded in BENCHMARK.json (a test
keeps the two in step).  For each per-layer metric the comment names the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

from tracer import Span, load_spans, self_times

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
    ("planted_recall", "ratio", "higher", 0.05),
]

# name, unit, better
PER_LAYER = [
    # wall_s per stage, from the untraced chain
    ("cli.ingest_s", "s", "lower"),
    ("cli.train_s", "s", "lower"),
    ("cli.report_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    # wall_s and peak_rss_mb on reports
    ("corpus.parse_s", "s", "lower"),
    ("corpus.lines_per_s", "lines/s", "higher"),
    ("corpus.aggregate_s", "s", "lower"),
    ("corpus.aggregate_calls", "count", "lower"),
    ("corpus.write_s", "s", "lower"),
    # wall_s on reports and grid240: the dense matrix is rebuilt per call
    ("corpus.count_matrix_calls", "count", "lower"),
    ("corpus.count_matrix_s", "s", "lower"),
    ("corpus.self_s", "s", "lower"),
    # iterations, ms_per_iter and the public-call timings move wall_s on
    # grid240; none of them may move it on reports, which never trains
    ("model.cell_s_p50", "s", "lower"),
    ("model.cell_s_max", "s", "lower"),
    ("model.grid_s", "s", "lower"),
    ("model.iterations", "count", "lower"),
    ("model.ms_per_iter", "ms", "lower"),
    ("model.converged_ratio", "ratio", "higher"),
    ("model.joint_marginal_ms_p50", "ms", "lower"),
    ("model.joint_marginal_ms_p99", "ms", "lower"),
    ("model.gradient_ms_p50", "ms", "lower"),
    ("model.gradient_ms_p99", "ms", "lower"),
    ("model.objective_ms_p50", "ms", "lower"),
    ("model.objective_ms_p99", "ms", "lower"),
    ("model.self_s", "s", "lower"),
    # wall_s on grid240 and reports
    ("checkpoint.save_s", "s", "lower"),
    ("checkpoint.load_s", "s", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    # wall_s on reports
    ("lexicons.load_s", "s", "lower"),
    ("evaluation.permtest_calls", "count", "lower"),
    ("evaluation.permtest_s", "s", "lower"),
    ("evaluation.mc_perms_per_s", "perms/s", "higher"),
    ("evaluation.exact_perms_per_s", "perms/s", "higher"),
    ("evaluation.correlate_s", "s", "lower"),
    ("evaluation.spearman_calls", "count", "lower"),
    ("evaluation.topk_s", "s", "lower"),
    ("evaluation.self_s", "s", "lower"),
    # wall_s on reports
    ("pmi.pmi_table_s", "s", "lower"),
    ("pmi.prop1_s", "s", "lower"),
    ("pmi.restricted_iterations", "count", "lower"),
    ("pmi.count_matrix_calls", "count", "lower"),
    ("pmi.self_s", "s", "lower"),
    # setup_s, mostly on reports
    ("synth.generate_s", "s", "lower"),
    ("synth.write_s", "s", "lower"),
    # traced wall_s minus untraced wall_s
    ("trace.overhead_s", "s", "lower"),
]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(chains, setup_times: list[float]) -> dict[str, tuple[float, str]]:
    """Medians over the run's chains; setup_s is the median over its setups."""
    recall = [c.quality["planted_recall"] for c in chains if "planted_recall" in c.quality]
    values = {
        "wall_s": statistics.median(c.wall_s for c in chains),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in chains),
        "setup_s": statistics.median(setup_times),
        "planted_recall": statistics.median(recall) if recall else 0.0,
    }
    return {name: (values[name], unit) for name, unit, _better, _bound in END_TO_END}


class SpanIndex:
    """Spans of one traced chain, grouped by name, with their self times."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.selfs = self_times(spans)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, *names: str) -> float:
        return sum(s.end - s.start for name in names for s in self.named(name))

    def self_total(self, prefix: str) -> float:
        return sum(self.selfs[(s.run_id, s.id)] for s in self.spans if s.name.startswith(prefix))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def attr_sum(self, name: str, attr: str) -> float:
        return sum(s.attrs.get(attr, 0) for s in self.named(name))


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def per_layer(chains, setup_spans: list[Span], spans_dir: Path,
              micro: Path | None) -> dict[str, tuple[float, str]]:
    untraced, traced = chains
    ix = SpanIndex([s for p in sorted(spans_dir.glob("*.json")) for s in load_spans(p)])
    cells = [s.end - s.start for s in ix.named("model.train")]
    iterations = ix.attr_sum("model.train", "iterations")
    parse = ix.named("corpus.iter_arcs") + ix.named("corpus.iter_canonical")
    parse_s = sum(s.end - s.start for s in parse)
    lines = sum(s.attrs.get("lines", s.attrs.get("items", 0)) for s in parse)
    permtests = ix.named("evaluation.permutation_test")
    mc = [s for s in permtests if not s.attrs["exact"]]
    exact = [s for s in permtests if s.attrs["exact"]]
    samples = json.loads(micro.read_text(encoding="utf-8")) if micro else {}

    def setup_median(name: str) -> float:
        durations = [s.end - s.start for s in setup_spans if s.name == name]
        return statistics.median(durations) if durations else 0.0

    values = {
        "cli.ingest_s": untraced.stage_s("ingest"),
        "cli.train_s": untraced.stage_s("train"),
        "cli.report_s": untraced.stage_s("report"),
        "cli.self_s": ix.self_total("cli."),
        "corpus.parse_s": parse_s,
        "corpus.lines_per_s": _rate(lines, parse_s),
        # self time: the canonical reader runs lazily inside aggregate_counts
        "corpus.aggregate_s": ix.self_total("corpus.aggregate_counts"),
        "corpus.aggregate_calls": ix.count("corpus.aggregate_counts"),
        "corpus.write_s": ix.total("corpus.write_canonical"),
        "corpus.count_matrix_calls": ix.count("corpus.count_matrix"),
        "corpus.count_matrix_s": ix.total("corpus.count_matrix"),
        "corpus.self_s": ix.self_total("corpus."),
        "model.cell_s_p50": statistics.median(cells) if cells else 0.0,
        "model.cell_s_max": max(cells, default=0.0),
        "model.grid_s": ix.total("model.grid_train_average"),
        "model.iterations": iterations,
        "model.ms_per_iter": 1000.0 * _rate(sum(cells), iterations),
        "model.converged_ratio": _rate(ix.attr_sum("model.train", "converged"), len(cells)),
        "model.self_s": ix.self_total("model."),
        "checkpoint.save_s": ix.total("checkpoint.save_checkpoint"),
        "checkpoint.load_s": ix.total("checkpoint.load_checkpoint"),
        "checkpoint.bytes": ix.attr_sum("checkpoint.save_checkpoint", "bytes"),
        "lexicons.load_s": ix.total("lexicons.load_sentiment_lexicon",
                                    "lexicons.load_sense_inventory"),
        "evaluation.permtest_calls": len(permtests),
        "evaluation.permtest_s": ix.total("evaluation.permutation_test"),
        "evaluation.mc_perms_per_s": _rate(sum(s.attrs["permutations"] for s in mc),
                                           sum(s.end - s.start for s in mc)),
        "evaluation.exact_perms_per_s": _rate(sum(s.attrs["permutations"] for s in exact),
                                              sum(s.end - s.start for s in exact)),
        "evaluation.correlate_s": ix.total("evaluation.correlate_judgments"),
        "evaluation.spearman_calls": ix.count("evaluation.spearman"),
        "evaluation.topk_s": ix.total("evaluation.topk"),
        "evaluation.self_s": ix.self_total("evaluation."),
        "pmi.pmi_table_s": ix.total("pmi.pmi_table"),
        "pmi.prop1_s": ix.total("pmi.prop1_check"),
        "pmi.restricted_iterations": ix.attr_sum("pmi.restricted_train", "iterations"),
        "pmi.count_matrix_calls": ix.count("pmi.count_matrix"),
        "pmi.self_s": ix.self_total("pmi."),
        "synth.generate_s": setup_median("synth.generate"),
        "synth.write_s": setup_median("synth.write_synth"),
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    }
    for call in ("joint_marginal", "gradient", "objective"):
        times = samples.get(call) or [0.0]
        values[f"model.{call}_ms_p50"] = 1000.0 * statistics.median(times)
        values[f"model.{call}_ms_p99"] = 1000.0 * percentile(times, 0.99)
        print(f"micro model.{call}: {len(samples.get(call, []))} calls")
    print_self_times(ix)
    return {name: (values[name], unit) for name, unit, _better in PER_LAYER}


def print_self_times(ix: SpanIndex) -> None:
    """One line per span name: calls, inclusive seconds and self seconds."""
    for name in sorted({s.name for s in ix.spans}):
        spans = ix.named(name)
        print(f"span {name}: calls {len(spans)}, total {ix.total(name):.4f} s, "
              f"self {sum(ix.selfs[(s.run_id, s.id)] for s in spans):.4f} s")
