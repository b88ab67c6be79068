"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single pass line (visible with -s / -rA); pytest's own
verdict is the fail line.  Runtime-capped criteria assert their budget.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from genderedlang.cli import main
from genderedlang.corpus import Gender, Relation, aggregate_counts, iter_canonical
from genderedlang.evaluation import permutation_test, spearman, topk
from genderedlang.model import TrainConfig, gradient, init_params, objective, train
from genderedlang.pmi import GenderCollapsedTable, prop1_check
from genderedlang.synth import SynthConfig, generate

from conftest import DATA, assert_all_normalized, make_table, mean_posterior_kl


def passed(n, message):
    print(f"[acceptance] criterion {n}: PASS - {message}")


def random_collapsed_table(seed, neighbors=50, max_count=1000, min_rel_gap=1e-3):
    """Random table with counts in [1, max_count], rejecting ratio near-ties.

    Rank equality between the fitted scores and exp(PMI) is only well-posed
    when the empirical ratios are separated; degenerate near-ties are a
    measure artifact, so tables are resampled until every same-gender pair
    of ratios differs by at least min_rel_gap relatively.
    """
    rng = np.random.default_rng(seed)
    for _ in range(200):
        counts = rng.integers(1, max_count + 1, size=(neighbors, 2))
        ratios = (counts / counts.sum(axis=0, keepdims=True)) / (
            counts.sum(axis=1, keepdims=True) / counts.sum())
        ok = True
        for j in range(2):
            srt = np.sort(ratios[:, j])
            if np.min(srt[1:] / srt[:-1]) < 1.0 + min_rel_gap:
                ok = False
                break
        if ok:
            return GenderCollapsedTable(matrix=counts.astype(float),
                                        vocab=tuple(f"w{i:02d}" for i in range(neighbors)))
    raise AssertionError("could not sample a tie-free table")


def test_criterion_1_prop1_oracle():
    start = time.monotonic()
    for seed in range(20):
        gtable = random_collapsed_table(seed)
        report = prop1_check(gtable, max_iterations=50000, saturation_tol=1e-9)
        for g in (Gender.MASC, Gender.FEM):
            assert report.rank_correlation[g] == 1.0, f"seed {seed}, {g}"
            assert report.max_deviation[g] <= 1e-3, f"seed {seed}, {g}"
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    passed(1, f"20 tables, Spearman 1.0, max deviation <= 1e-3, {elapsed:.1f}s")


def test_criterion_2_gradient_correctness(tiny_lexicon, tiny_space):
    from genderedlang.lexicons import SentimentPrior

    start = time.monotonic()
    rng = np.random.default_rng(202)
    vocab = [f"w{i:02d}" for i in range(20)]
    counts = {(w, f): int(rng.integers(1, 60)) for w in vocab
              for f in ("alpha_f", "alpha_m", "beta_f", "beta_m")}
    table = make_table(counts, lex=tiny_lexicon)
    assert len(table.vocab) == 20 and len(table.forms) == 4 and tiny_space.dim == 6
    prior = SentimentPrior(probs={
        w: tuple(rng.dirichlet(np.ones(3))) for w in vocab if rng.random() < 0.7})
    config = TrainConfig(alpha=1e-3, beta=0.1)
    step = 1e-5

    for point in range(10):
        params = init_params(table, tiny_space)
        params.eta = rng.uniform(0.2, 1.8, params.eta.shape)  # interior: all eta > 0
        params.omega = rng.normal(0, 0.8, params.omega.shape)
        params.xi = rng.normal(0, 0.8, params.xi.shape)
        analytic = gradient(params, tiny_space, table, prior, config)
        for got, array in zip(analytic, (params.eta, params.omega, params.xi)):
            fd = np.zeros(array.shape)
            for idx in np.ndindex(*array.shape):
                orig = array[idx]
                array[idx] = orig + step
                up = objective(params, tiny_space, table, prior, config)
                array[idx] = orig - step
                down = objective(params, tiny_space, table, prior, config)
                array[idx] = orig
                fd[idx] = (up - down) / (2 * step)
            assert np.allclose(got, fd, rtol=1e-4, atol=1e-8), f"point {point}"
    elapsed = time.monotonic() - start
    assert elapsed <= 30.0
    passed(2, f"10 interior points match central differences (rtol 1e-4), {elapsed:.1f}s")


def test_criterion_3_normalization_suite(lexicon, space, toy_table, toy_prior):
    params = init_params(toy_table, space)
    assert_all_normalized(params, space, tol=1e-10)
    result = train(toy_table, space, toy_prior,
                   TrainConfig(alpha=1e-3, beta=0.5, max_iterations=100))
    assert result.iterations == 100
    assert_all_normalized(result.params, space, tol=1e-10)
    passed(3, "all five distributions sum to 1 within 1e-10 at init and after 100 steps")


def test_criterion_4_regularizer_behavior(lexicon, space):
    data = generate(SynthConfig(seed=17, vocab_size=120, n_pairs=100_000), lexicon)
    table = aggregate_counts(data.pairs, Relation.AMOD, lexicon)
    from genderedlang.lexicons import SentimentPrior

    prior = SentimentPrior(probs={
        w: (a / (a + b + c), b / (a + b + c), c / (a + b + c))
        for w, a, b, c in data.sentiment_rows})
    base = dict(max_iterations=4000)

    strong = train(table, space, prior, TrainConfig(beta=100.0, **base))
    free = train(table, space, prior, TrainConfig(beta=0.0, **base))
    kl_strong = mean_posterior_kl(strong.params, space, prior)
    kl_free = mean_posterior_kl(free.params, space, prior)
    assert kl_strong < kl_free
    assert kl_strong <= 0.05

    sparse = train(table, space, prior, TrainConfig(alpha=0.01, **base))
    dense = train(table, space, prior, TrainConfig(alpha=0.0, **base))
    frac_sparse = float((np.abs(sparse.params.eta) < 1e-6).mean())
    frac_dense = float((np.abs(dense.params.eta) < 1e-6).mean())
    assert frac_sparse > frac_dense
    passed(4, f"mean KL {kl_strong:.4f} (beta=100) < {kl_free:.4f} (beta=0); "
              f"sparsity {frac_sparse:.3f} (alpha=0.01) > {frac_dense:.3f} (alpha=0)")


def test_criterion_5_permutation_validity():
    result = permutation_test([0, 0], [1, 1])
    assert result.exact and result.p_value == 1 / 3

    rng = np.random.default_rng(55)
    p_values = []
    for _ in range(200):
        a = rng.normal(0, 1, 200)
        b = rng.normal(0, 1, 200)
        r = permutation_test(a, b, permutations=10_000, seed=int(rng.integers(2 ** 31)))
        assert not r.exact
        assert r.p_value > 0.0
        p_values.append(r.p_value)
    frac = float(np.mean(np.asarray(p_values) < 0.05))
    assert 0.02 <= frac <= 0.09
    assert min(p_values) >= 1 / 10_001
    passed(5, f"exact p=1/3; null rejection rate {frac:.3f} in [0.02, 0.09]; no zero p-values")


def test_criterion_6_spearman_correctness():
    assert spearman([1, 2, 3, 4, 5], [10, 20, 30, 40, 50]) == 1.0
    assert spearman([1, 2, 3, 4, 5], [50, 40, 30, 20, 10]) == -1.0
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8

    rng = np.random.default_rng(66)
    checked = 0
    while checked < 100:
        n = int(rng.integers(4, 40))
        x = rng.integers(0, 8, n).astype(float)
        y = rng.integers(0, 8, n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        rx = scipy.stats.rankdata(x, method="average")
        ry = scipy.stats.rankdata(y, method="average")
        dx, dy = rx - rx.mean(), ry - ry.mean()
        oracle = float(dx @ dy) / math.sqrt(float(dx @ dx) * float(dy @ dy))
        assert abs(spearman(x, y) - oracle) <= 1e-12
        checked += 1
    passed(6, "hand values exact; 100 tied inputs match rank-then-Pearson oracle to 1e-12")


def _planted_run(tmp_path, seed, effect):
    """cmd_synth -> cmd_ingest -> cmd_train (2x2 grid) -> senses report."""
    base = tmp_path / f"run_{seed}_{effect:g}"
    synth_dir, ingest_dir, train_dir = base / "synth", base / "ingest", base / "train"
    assert main(["synth", "--seed", str(seed), "--planted-body-fem", str(effect),
                 "--out", str(synth_dir)]) == 0
    assert main(["ingest", "--input", str(synth_dir / "corpus.tsv"),
                 "--format", "canonical", "--out", str(ingest_dir)]) == 0
    assert main(["train", "--corpus", str(ingest_dir / "amod.tsv"), "--relation", "amod",
                 "--sentiment-lexicon", str(synth_dir / "sentiment_lexicon.tsv"),
                 "--alpha-grid", "0,0.001", "--beta-grid", "0.1,1",
                 "--max-iterations", "1000", "--out", str(train_dir)]) == 0
    senses_out = base / "senses.tsv"
    assert main(["report", "senses", "--checkpoint", str(train_dir / "checkpoint_averaged.json"),
                 "--inventory", str(synth_dir / "senses_adj.tsv"), "--kind", "adj",
                 "--k", "40", "--permutations", "4000", "--seed", str(seed),
                 "--out", str(senses_out)]) == 0
    lines = senses_out.read_text().splitlines()
    header = lines[0].split("\t")
    for line in lines[1:]:
        row = dict(zip(header, line.split("\t")))
        if row["sentiment"] == "pos" and row["sense"] == "body":
            return row["significant"] == "true", float(row["freq_fem"]) - float(row["freq_masc"])
    raise AssertionError("body/pos row missing from senses report")


@pytest.mark.slow
def test_criterion_7_planted_truth_recovery(tmp_path):
    start = time.monotonic()
    detected = sum(_planted_run(tmp_path, seed, 0.15)[0] for seed in range(20))
    false_alarms = sum(_planted_run(tmp_path, seed, 0.0)[0] for seed in range(100, 120))
    elapsed = time.monotonic() - start
    cells = [json.loads(p.read_text())["extra"]
             for p in sorted(tmp_path.glob("run_*/train/checkpoint_alpha*.json"))]
    cap_stops = sum(extra["stop_reason"] == "max_iterations" for extra in cells)
    assert detected >= 18, f"planted effect detected in only {detected}/20 seeds"
    assert false_alarms <= 2, f"null corpus flagged in {false_alarms}/20 seeds"
    assert elapsed <= 600.0
    passed(7, f"planted detected {detected}/20, null flagged {false_alarms}/20, "
              f"{cap_stops}/{len(cells)} cells stopped at the 1,000-iteration cap, "
              f"{elapsed / 60:.1f} min")


def test_criterion_8_determinism(tmp_path):
    outs = []
    for name in ("d1", "d2"):
        out = tmp_path / name
        assert main(["train", "--corpus", str(DATA / "toy_corpus.tsv"), "--relation", "amod",
                     "--sentiment-lexicon", str(DATA / "toy_sentiment.tsv"),
                     "--alpha-grid", "0,0.001", "--beta-grid", "0.5",
                     "--max-iterations", "2000", "--out", str(out)]) == 0
        outs.append(out)
    names = [p.name for p in sorted(outs[0].glob("*.json"))]
    assert "checkpoint_averaged.json" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    for trace_file in sorted(outs[0].glob("trace_*.tsv")):
        values = [float(line.split("\t")[1])
                  for line in trace_file.read_text().splitlines()[1:]]
        tail = values[-max(2, len(values) // 10):]
        assert all(b >= a - 1e-6 for a, b in zip(tail, tail[1:])), trace_file.name
    passed(8, "byte-identical checkpoints across reruns; trace tails non-decreasing (1e-6)")


def test_criterion_9_output_schemas(tmp_path, lexicon):
    train_dir = tmp_path / "toy_train"
    assert main(["train", "--corpus", str(DATA / "toy_corpus.tsv"), "--relation", "amod",
                 "--sentiment-lexicon", str(DATA / "toy_sentiment.tsv"),
                 "--alpha-grid", "0.001", "--beta-grid", "0.5",
                 "--max-iterations", "500", "--out", str(train_dir)]) == 0
    collapsed_dir = tmp_path / "toy_collapsed"
    assert main(["train", "--corpus", str(DATA / "toy_corpus.tsv"), "--relation", "amod",
                 "--alpha-grid", "0.001", "--max-iterations", "500",
                 "--out", str(collapsed_dir)]) == 0
    ckpt = str(train_dir / "checkpoint_averaged.json")

    def rows_of(path):
        lines = Path(path).read_text().splitlines()
        header = lines[0].split("\t")
        return header, [dict(zip(header, ln.split("\t"))) for ln in lines[1:]]

    k = 7
    out = tmp_path / "topk.tsv"
    assert main(["report", "topk", "--checkpoint", ckpt, "--k", str(k),
                 "--out", str(out)]) == 0
    header, rows = rows_of(out)
    assert header == ["gender", "sentiment", "rank", "neighbor", "score"]
    for gender in ("masc", "fem"):
        for sentiment in ("pos", "neg", "neu"):
            assert sum(r["gender"] == gender and r["sentiment"] == sentiment
                       for r in rows) == k

    out = tmp_path / "pmi.tsv"
    assert main(["report", "pmi", "--corpus", str(DATA / "toy_corpus.tsv"),
                 "--relation", "amod", "--out", str(out)]) == 0
    header, rows = rows_of(out)
    assert header == ["gender", "neighbor", "pmi"]
    table = aggregate_counts(iter_canonical(DATA / "toy_corpus.tsv", lexicon),
                             Relation.AMOD, lexicon)
    assert len(rows) <= 2 * len(table.vocab)

    out = tmp_path / "senses.tsv"
    assert main(["report", "senses", "--checkpoint", ckpt,
                 "--inventory", str(DATA / "toy_senses_adj.tsv"), "--kind", "adj",
                 "--k", "10", "--permutations", "400", "--out", str(out)]) == 0
    header, rows = rows_of(out)
    assert header == ["sentiment", "sense", "freq_masc", "freq_fem", "p", "significant"]
    assert len(rows) == 4 * 13

    out = tmp_path / "sentiment.tsv"
    assert main(["report", "sentiment",
                 "--checkpoint", str(collapsed_dir / "checkpoint_averaged.json"),
                 "--sentiment-lexicon", str(DATA / "toy_sentiment.tsv"),
                 "--k", "10", "--permutations", "400", "--out", str(out)]) == 0
    header, rows = rows_of(out)
    assert header == ["relation", "gender", "pos", "neg", "neu",
                      "sig_pos", "sig_neg", "sig_neu"]
    assert [r["gender"] for r in rows] == ["masc", "fem"]

    judgments = tmp_path / "j.tsv"
    judgments.write_text("pretty\t2.0\nbeautiful\t1.5\ngentle\t1.0\nbrave\t-1.0\n"
                         "strong\t-1.5\nviolent\t-0.5\n")
    out = tmp_path / "correlate.tsv"
    assert main(["report", "correlate", "--checkpoint", ckpt, "--judgments", str(judgments),
                 "--permutations", "400", "--out", str(out)]) == 0
    header, rows = rows_of(out)
    assert header == ["rho", "p", "agreement", "n"]
    assert len(rows) == 1

    ga, gb = tmp_path / "ga.txt", tmp_path / "gb.txt"
    ga.write_text("0\n0\n")
    gb.write_text("1\n1\n")
    out = tmp_path / "permtest.tsv"
    assert main(["report", "permtest", "--group-a", str(ga), "--group-b", str(gb),
                 "--out", str(out)]) == 0
    header, rows = rows_of(out)
    assert header == ["statistic", "p_value", "corrected_alpha", "significant",
                      "permutations_used", "exact"]

    out = tmp_path / "prop1.tsv"
    assert main(["report", "prop1", "--corpus", str(DATA / "toy_corpus.tsv"),
                 "--relation", "amod", "--out", str(out)]) == 0
    header, rows = rows_of(out)
    assert header == ["gender", "max_normalized_deviation", "spearman", "iterations"]
    assert [r["gender"] for r in rows] == ["masc", "fem"]
    passed(9, "all seven report TSVs conform to their declared schemas and row counts")
