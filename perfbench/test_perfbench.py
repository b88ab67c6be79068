"""Tests of the benchmark itself: `python -m pytest perfbench` from the repository root."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from genderedlang.cli import main as cli
from genderedlang.corpus import bundled_lexicon_path, load_gender_lexicon
from genderedlang.lexicons import ADJECTIVE_SENSES
from genderedlang.synth import SynthConfig, generate

import metrics
import run
import tracer as tr
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def _span(i, start, end, parent=None, run_id="r"):
    return tr.Span(id=i, name=f"s{i}", start=start, end=end, parent=parent, run_id=run_id)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),      # overlaps span 1: union 1..5
        _span(3, 9.0, 12.0, parent=0),     # runs past the parent: clipped to 9..10
        _span(4, 1.5, 2.5, parent=1),      # grandchild: only charged to span 1
        _span(0, 0.0, 4.0, run_id="other"),  # same id in another run: no relation
    ]
    selfs = tr.self_times(spans)
    assert selfs[("r", 0)] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[("r", 1)] == pytest.approx(2.0 - 1.0)
    assert selfs[("r", 2)] == pytest.approx(3.0)
    assert selfs[("r", 4)] == pytest.approx(1.0)
    assert selfs[("other", 0)] == pytest.approx(4.0)


def test_wrapped_calls_nest_and_generators_count_only_their_own_time():
    t = tr.Tracer("run")

    def leaf(x):
        return x + 1

    def gen(n):
        yield from range(n)

    traced_leaf = t.wrap(leaf, "leaf", lambda args, kwargs, result: {"out": result})
    traced_gen = t.wrap(gen, "gen")

    def outer():
        return traced_leaf(1) + sum(traced_gen(5))

    assert t.wrap(outer, "outer")() == 12
    by_name = {s.name: s for s in t.spans}
    assert by_name["leaf"].parent == by_name["outer"].id
    assert by_name["gen"].parent == by_name["outer"].id
    assert by_name["leaf"].attrs == {"out": 2}
    assert by_name["gen"].attrs == {"items": 5}
    assert all(s.run_id == "run" for s in t.spans)
    duration = {name: s.end - s.start for name, s in by_name.items()}
    assert duration["gen"] <= duration["outer"]


def test_install_rebinds_every_module_that_imported_the_function(monkeypatch):
    import genderedlang.cli as cli_module
    import genderedlang.corpus as corpus

    original = corpus.aggregate_counts
    for name, module in list(sys.modules.items()):
        if name.startswith("genderedlang") and vars(module).get("aggregate_counts") is original:
            monkeypatch.setattr(module, "aggregate_counts", original)  # restored after the test
    t = tr.Tracer("run")
    tr.install(t, "genderedlang", {"corpus.aggregate_counts":
                                   ("genderedlang.corpus", "aggregate_counts", None)})
    assert cli_module.aggregate_counts is corpus.aggregate_counts
    assert getattr(corpus.aggregate_counts, "__wrapped__", None) is not None


@pytest.fixture(scope="module")
def small_synth():
    lex = load_gender_lexicon(bundled_lexicon_path())
    return generate(SynthConfig(seed=3, vocab_size=60, n_pairs=20_000, planted_body_fem=0.15), lex)


def test_generators_are_byte_identical_for_the_same_seed(tmp_path, small_synth):
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
    counts = [wl.render_arcs(small_synth, seed, tmp_path / name / "x.arcs")
              for name, seed in (("a", 7), ("b", 7), ("c", 8))]
    assert counts[0] == counts[1]
    arcs = [(tmp_path / name / "x.arcs").read_bytes() for name in "abc"]
    assert arcs[0] == arcs[1] != arcs[2]

    for name in "ab":
        wl.write_planted_checkpoint(small_synth, tmp_path / name / "ckpt.json")
    checkpoints = [(tmp_path / name / "ckpt.json").read_bytes() for name in "ab"]
    assert checkpoints[0] == checkpoints[1]

    assert wl.permtest_groups(4) == wl.permtest_groups(4) != wl.permtest_groups(5)
    assert [len(g) for g in wl.permtest_groups(4)] == [11, 11]

    same = [wl.relabel(small_synth, 9), wl.relabel(small_synth, 9), wl.relabel(small_synth, 10)]
    assert same[0].pairs == same[1].pairs != same[2].pairs
    assert sorted(p.count for p in same[0].pairs) == sorted(p.count for p in small_synth.pairs)


def test_workload_setup_is_byte_identical_for_the_same_seed(tmp_path):
    t = tr.Tracer("setup")
    for name in ("a", "b"):
        wl.WORKLOADS["reports"].setup(5, tmp_path / name, t)
    assert wl.digests(tmp_path / "a") == wl.digests(tmp_path / "b")


def _corpus_chain(tmp_path, data):
    """The corpus commands of reports on a small rendered corpus, through the real CLI."""
    inputs_dir, out = tmp_path / "inputs", tmp_path / "out"
    inputs_dir.mkdir()
    out.mkdir()
    expected = wl.render_arcs(data, 1, inputs_dir / "corpus.arcs")
    manifest = inputs_dir / "manifest.json"
    manifest.write_text(json.dumps(data.manifest), encoding="utf-8")
    inputs = wl.Inputs({"arcs": inputs_dir / "corpus.arcs", "arcs_manifest": manifest}, {},
                       expected)
    for _stage, argv in wl.corpus_commands(inputs, out):
        assert cli(argv) == 0
    return inputs, out


def test_checks_pass_on_real_outputs_and_catch_a_corrupted_one(tmp_path, small_synth):
    inputs, out = _corpus_chain(tmp_path, small_synth)
    checks = wl.corpus_checks(inputs, out)
    assert checks and all(c.ok for c in checks), [c for c in checks if not c.ok]
    assert 0 < wl.WORKLOADS["reports"].quality(inputs, out)["planted_recall"] <= 1

    stats_path = out / "ingest" / "stats.json"
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    stats["malformed_lines"] += 1
    stats_path.write_text(json.dumps(stats), encoding="utf-8")
    failed = [c.name for c in wl.corpus_checks(inputs, out) if not c.ok]
    assert failed == ["reports.malformed_lines"]


def _fake_train_dir(path: Path, iterations: int, converged: bool, last: str) -> None:
    path.mkdir(parents=True)
    for tag in ("alpha0_beta1", "alpha0.001_beta1"):
        (path / f"checkpoint_{tag}.json").write_text(
            json.dumps({"extra": {"iterations": iterations, "converged": converged}}))
        (path / f"trace_{tag}.tsv").write_text(f"iteration\tobjective\n0\t-9.5\n1\t{last}\n")


def test_training_checks_catch_non_convergence_and_non_finite_traces(tmp_path):
    grid = wl.WORKLOADS["grid240"].checks
    _fake_train_dir(tmp_path / "ok" / "train", 500, True, "-9.25")
    assert all(c.ok for c in grid(None, tmp_path / "ok"))
    _fake_train_dir(tmp_path / "nan" / "train", 500, True, "nan")
    assert [c.name for c in grid(None, tmp_path / "nan") if not c.ok] == ["grid240.finite_traces"]
    _fake_train_dir(tmp_path / "grid" / "train", 500, False, "-9.25")
    failed = [c.name for c in grid(None, tmp_path / "grid") if not c.ok]
    assert len(failed) == 2 and all(n.startswith("grid240.converged") for n in failed)
    (tmp_path / "grid" / "train" / "checkpoint_alpha0_beta1.json").unlink()
    assert "grid240.cells" in [c.name for c in grid(None, tmp_path / "grid") if not c.ok]


def test_stats_checks_catch_an_inexact_permtest(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    rows = "".join(f"{s}\t{sense}\t0.1\t0.2\t0.001\t{str((s, sense) == ('pos', 'body')).lower()}\n"
                   for s in ("pos", "neg", "neu", "all") for sense in ADJECTIVE_SENSES)
    header = "sentiment\tsense\tfreq_masc\tfreq_fem\tp\tsignificant\n"
    (out / "senses.tsv").write_text(header + rows)
    (out / "correlate.tsv").write_text("rho\tp\tagreement\tn\n0.97\t0.0001\t1.0\t80\n")
    header = "statistic\tp_value\tcorrected_alpha\tsignificant\tpermutations_used\texact\n"
    (out / "permtest.tsv").write_text(header + "1.2\t0.01\t0.05\ttrue\t705432\ttrue\n")
    checks = wl.stats_checks
    assert all(c.ok for c in checks(None, out))
    (out / "permtest.tsv").write_text(header + "1.2\t0.01\t0.05\ttrue\t100000\tfalse\n")
    assert [c.name for c in checks(None, out) if not c.ok] == ["reports.permtest_exact"]


def test_benchmark_json_lists_the_metrics_and_workloads_the_code_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == \
        metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == metrics.PER_LAYER
    assert {w["name"]: w["why"] for w in doc["workloads"]} == \
        {w.name: w.why for w in wl.WORKLOADS.values()}


def test_run_refuses_a_directory_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "grid240", "--seed", "1",
                                      "--seconds", "1", "--trace", "0"])
    assert run.main() == 2
    assert capsys.readouterr().out == ""
