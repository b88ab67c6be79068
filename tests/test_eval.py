import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from genderedlang import evaluation
from genderedlang.corpus import Gender
from genderedlang.errors import DataError
from genderedlang.evaluation import (_midranks, correlate_judgments, gender_posterior,
                                     permutation_test, sense_difference_suite,
                                     sentiment_frequency, spearman, topk)
from genderedlang.lexicons import SENTIMENTS, SenseInventory, SenseKind, SentimentPrior
from genderedlang.model import init_params

from conftest import make_table

POS, NEG, NEU = SENTIMENTS


def params_with_scores(lexicon, space, fem_scores=None, masc_scores=None, vocab=None,
                       n_sentiments=3, sentiment=0):
    """Params over (woman, man) forms with hand-set gender deviations."""
    vocab = vocab or sorted(set(fem_scores or {}) | set(masc_scores or {}))
    table = make_table({(w, f): 1 for w in vocab for f in ("woman", "man")}, lex=lexicon)
    params = init_params(table, space, n_sentiments=n_sentiments)
    for word, value in (fem_scores or {}).items():
        params.eta[params.vocab.index(word), sentiment, space.fem_index] = value
    for word, value in (masc_scores or {}).items():
        params.eta[params.vocab.index(word), sentiment, space.masc_index] = value
    return params


class TestTopk:
    def test_maximal_deviation_ranks_first(self, lexicon, space):
        params = params_with_scores(lexicon, space,
                                    fem_scores={"pretty": 3.3, "plain": 1.0, "dull": 0.2})
        ranked = topk(params, space, Gender.FEM, POS, 1)
        assert ranked == (("pretty", 3.3),)

    def test_zero_eta_lexicographic_ties(self, lexicon, space):
        params = params_with_scores(lexicon, space, vocab=["delta", "alpha", "echo", "bravo"])
        ranked = topk(params, space, Gender.MASC, NEU, 3)
        assert [w for w, _ in ranked] == ["alpha", "bravo", "delta"]
        assert all(s == 0.0 for _, s in ranked)

    def test_k_larger_than_vocabulary_clamps(self, lexicon, space):
        params = params_with_scores(lexicon, space, vocab=["a", "b", "c"])
        ranked = topk(params, space, Gender.FEM, NEG, 50)
        assert len(ranked) == 3

    def test_k_must_be_positive(self, lexicon, space):
        params = params_with_scores(lexicon, space, vocab=["a", "b", "c"])
        with pytest.raises(DataError, match="positive"):
            topk(params, space, Gender.FEM, POS, 0)

    def test_stable_across_reruns(self, lexicon, space):
        rng = np.random.default_rng(0)
        params = params_with_scores(lexicon, space, vocab=[f"w{i}" for i in range(20)])
        params.eta = rng.uniform(0, 2, params.eta.shape)
        first = topk(params, space, Gender.FEM, POS, 10)
        again = topk(params, space, Gender.FEM, POS, 10)
        assert first == again


    def test_hand_set_deviation_is_reported(self, lexicon, space):
        table = make_table({("pretty", "woman"): 5, ("stern", "man"): 5}, lex=lexicon)
        params = init_params(table, space)
        params.eta[params.vocab.index("pretty"), 0, space.fem_index] = 3.3
        entries = dict(topk(params, space, Gender.FEM, POS, len(params.vocab)))
        assert entries["pretty"] == 3.3

    def test_zero_eta_all_scores_zero(self, lexicon, space):
        table = make_table({("pretty", "woman"): 5, ("stern", "man"): 5}, lex=lexicon)
        params = init_params(table, space)
        for g in (Gender.MASC, Gender.FEM):
            for s in SENTIMENTS:
                ranked = topk(params, space, g, s, len(params.vocab))
                assert sorted(w for w, _ in ranked) == sorted(params.vocab)
                assert all(value == 0.0 for _, value in ranked)

    @pytest.mark.parametrize("n_sentiments, sentiment", [(3, None), (1, POS)],
                             ids=["full-none", "collapsed-pos"])
    def test_sentiment_must_be_an_axis_of_the_model(self, lexicon, space, n_sentiments,
                                                    sentiment):
        params = params_with_scores(lexicon, space, vocab=["a", "b", "c"],
                                    n_sentiments=n_sentiments)
        with pytest.raises(DataError, match="not a sentiment axis"):
            topk(params, space, Gender.FEM, sentiment, 2)

class TestSenseProfile:
    """Per-sense means of a top-k list, as sense_difference_suite reports them."""

    def fem_means(self, lexicon, space, words, weights):
        # the vocabulary is exactly `words`, so the FEM/POS top-k list holds every one of them
        params = params_with_scores(lexicon, space, fem_scores={w: 1.0 for w in words})
        inventory = SenseInventory(kind=SenseKind.ADJ, weights=weights)
        rows = sense_difference_suite(params, space, inventory, k=len(words), permutations=10)
        return {r.sense: r.result.mean_b for r in rows if r.sentiment == "pos"}

    def test_two_entry_mean(self, lexicon, space):
        means = self.fem_means(lexicon, space, ["a", "b"],
                               {"a": {"body": 1.0}, "b": {"behavior": 1.0}})
        assert means["body"] == 0.5
        assert means["behavior"] == 0.5

    def test_single_entry_identity(self, lexicon, space):
        means = self.fem_means(lexicon, space, ["a"], {"a": {"body": 0.7, "mind": 0.3}})
        assert means["body"] == pytest.approx(0.7)
        assert means["mind"] == pytest.approx(0.3)

    def test_three_entry_hand_mean(self, lexicon, space):
        means = self.fem_means(lexicon, space, ["a", "b", "c"], {
            "a": {"body": 0.5, "mind": 0.5},
            "b": {"body": 1.0},
            "c": {"behavior": 0.6, "body": 0.4},
        })
        assert means["body"] == pytest.approx((0.5 + 1.0 + 0.4) / 3, abs=1e-12)
        assert means["mind"] == pytest.approx(0.5 / 3, abs=1e-12)
        assert means["behavior"] == pytest.approx(0.2, abs=1e-12)

    def test_uncovered_entries_are_ignored(self, lexicon, space):
        means = self.fem_means(lexicon, space, ["a", "zzz"], {"a": {"body": 1.0}})
        assert means["body"] == 1.0

    def test_zero_coverage_rejected(self, lexicon, space):
        with pytest.raises(DataError, match="no masc top-2 word is in the lexicon"):
            self.fem_means(lexicon, space, ["x", "y"], {"a": {"body": 1.0}})

    def test_frequencies_sum_to_one_over_covered(self, lexicon, space, toy_inventory):
        words = list(toy_inventory.weights)[:5]
        means = self.fem_means(lexicon, space, words, toy_inventory.weights)
        assert abs(sum(means.values()) - 1.0) < 1e-9


class TestPermutationTest:
    def test_exact_two_two(self):
        result = permutation_test([0, 0], [1, 1])
        assert result.exact
        assert result.p_value == pytest.approx(1 / 3, abs=1e-15)
        assert result.permutations_used == 6

    def test_identical_groups_give_p_one(self):
        result = permutation_test([1.5, 2.5, 3.5], [2.5, 3.5, 1.5])
        assert result.exact and result.p_value == 1.0

    def test_monte_carlo_never_zero(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 1, 30)
        b = rng.normal(5, 1, 30)  # extreme separation
        result = permutation_test(a, b, permutations=2000, seed=1)
        assert not result.exact
        assert result.p_value == pytest.approx(1 / 2001, abs=1e-15)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(0, 1, 25), rng.normal(0.2, 1, 25)
        r1 = permutation_test(a, b, permutations=3000, seed=42)
        r2 = permutation_test(a, b, permutations=3000, seed=42)
        assert r1 == r2

    def test_empty_group_rejected(self):
        with pytest.raises(DataError, match="non-empty"):
            permutation_test([], [1.0])

    def test_significance_is_strict_threshold(self):
        result = permutation_test([0, 0], [1, 1], alpha=1 / 3)
        assert result.p_value == pytest.approx(1 / 3)
        assert not result.significant  # p < alpha must be strict

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(DataError, match="finite"):
            permutation_test([bad, 1.0, 2.0], [3.0, 4.0, 5.0])
        with pytest.raises(DataError, match="finite"):
            permutation_test([1.0, 2.0], [3.0, bad], permutations=10)

    def test_overflowing_sum_rejected(self):
        # finite values whose group mean overflows used to give statistic inf and p 0.0
        with pytest.raises(DataError, match="no sum overflows"):
            permutation_test([1e308, 1e308, 1.0], [0.0, 0.0, -1e308])
        # every raw sum is finite, but the values centred on 4e307 sum to -2.4e308
        with pytest.raises(DataError, match="no sum overflows"):
            permutation_test([4e307, -4e307], [-4e307, -4e307])

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=6),
           st.lists(st.floats(-10, 10), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_p_value_in_unit_interval(self, a, b):
        result = permutation_test(a, b, permutations=200, seed=0)
        assert 0.0 < result.p_value <= 1.0

    def test_exact_hits_match_brute_force(self, monkeypatch):
        """Every split of the pooled values into |A| and |B|, scored one at a time,
        for 1-, 2- and 3-column families, whole and in subset-sum blocks of 7 values."""
        rng = np.random.default_rng(8)
        for trial in range(90):
            monkeypatch.setattr(evaluation, "_BLOCK_VALUES", 7 if trial % 2 else 1 << 16)
            n = int(rng.integers(2, 13))
            n_a = int(rng.integers(1, n))
            columns = trial % 3 + 1
            pooled = rng.integers(0, 4, (n, columns)).astype(float)  # heavy ties
            if rng.random() < 0.3:
                pooled = rng.normal(0, 1, (n, columns))
            results = evaluation._permutation_tests(pooled[:n_a], pooled[n_a:], 100, 0, 0.05)
            for c, result in enumerate(results):
                values = pooled[:, c]
                observed = abs(values[:n_a].mean() - values[n_a:].mean())
                hits = 0
                for combo in itertools.combinations(range(n), n_a):
                    in_a = np.isin(np.arange(n), combo)
                    stat = abs(values[in_a].mean() - values[~in_a].mean())
                    hits += stat >= observed - 1e-12 * max(1.0, observed)
                assert result.exact and result.permutations_used == math.comb(n, n_a)
                assert result.p_value == hits / math.comb(n, n_a)
            if columns == 1:
                assert permutation_test(pooled[:n_a, 0], pooled[n_a:, 0]) == results[0]

    def test_exact_p_matches_rational_enumeration_at_any_offset(self):
        """Tie-heavy groups with a common offset of 1 to 1e9, each offset one column
        of a family, against every relabeling scored in exact rationals.  Columns whose
        statistics come within 1e-6 of the observed one without equalling it are
        skipped: the slack may count those as ties."""
        rng = np.random.default_rng(5)
        offsets = [1.0, 1e3, 1e6, 1e9]
        checked = 0
        for step in (0.1, 0.3, 1 / 3, 0.7):
            for _ in range(20):
                n = int(rng.integers(4, 11))
                n_a = int(rng.integers(1, n))
                pooled = np.add.outer(step * rng.integers(0, 4, n), offsets)
                results = evaluation._permutation_tests(pooled[:n_a], pooled[n_a:], 100, 0, 0.05)
                for c, result in enumerate(results):
                    values = [Fraction(v) for v in pooled[:, c]]
                    total = sum(values)

                    def stat(subset):
                        in_a = sum(values[i] for i in subset)
                        return abs(in_a / n_a - (total - in_a) / (n - n_a))

                    observed = stat(range(n_a))
                    stats = [stat(combo) for combo in itertools.combinations(range(n), n_a)]
                    if any(0 < abs(s - observed) < 1e-6 for s in stats):
                        continue
                    checked += 1
                    assert result.exact
                    assert result.p_value == sum(s >= observed for s in stats) / len(stats)
        assert checked >= 200

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_monte_carlo_hits_match_per_permutation_loop(self, monkeypatch, seed):
        """Each draw is the next rng.permutation of the pooled rows, whatever the block;
        both columns of a 2-column family are scored on that same draw."""
        monkeypatch.setattr(evaluation, "_BLOCK_VALUES", 100)  # 2 rows of 47 per block
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 5, (22, 2)).astype(float)
        b = rng.integers(1, 6, (25, 2)).astype(float)
        results = evaluation._permutation_tests(a, b, 301, seed, 0.05)
        pooled = np.concatenate([a, b])
        observed = abs(a.mean(axis=0) - b.mean(axis=0))
        threshold = observed - 1e-12 * np.maximum(1.0, observed)
        draws = np.random.default_rng(seed)
        hits = np.zeros(2, dtype=int)
        for _ in range(301):
            shuffled = draws.permutation(pooled)
            sums = shuffled[:22].sum(axis=0)
            hits += abs(sums / 22 - (pooled.sum(axis=0) - sums) / 25) >= threshold
        assert not any(r.exact for r in results)
        assert [r.p_value for r in results] == list((hits + 1) / 302)
        assert permutation_test(a[:, 0], b[:, 0], permutations=301, seed=seed) == results[0]

    def test_lopsided_exact_test_enumerates_the_smaller_group(self):
        big = np.arange(2000.0)
        tracemalloc.start()
        try:
            result = permutation_test(big, [0.5])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exact and result.permutations_used == 2001
        assert peak < 4_000_000  # 2,001 subsets of one value, not of 2,000
        assert result.p_value == permutation_test([0.5], big).p_value

    def test_exact_family_memory_is_bounded_by_the_block(self):
        """All 705,432 relabelings of 11 vs 11 values, for 13 columns at once, held
        a block of at most _BLOCK_VALUES sums at a time."""
        rng = np.random.default_rng(4)
        a, b = rng.dirichlet(np.ones(13), 11), rng.dirichlet(np.ones(13), 11)
        tracemalloc.start()
        try:
            results = evaluation._permutation_tests(a, b, 100, 0, 0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(r.exact and r.permutations_used == math.comb(22, 11) for r in results)
        assert peak < 4_000_000  # all sums at once would take 73 MB
        assert results[3] == permutation_test(a[:, 3], b[:, 3])


class TestSpearman:
    def test_midranks_match_scipy_rankdata(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            x = rng.integers(-3, 4, n) * rng.choice([0.5, 1.0])
            x[rng.random(n) < 0.2] = rng.choice([0.0, -0.0])
            assert np.array_equal(_midranks(x), scipy.stats.rankdata(x, method="average"))
        signed_zeros = np.array([0.0, -0.0, 1.0, -0.0, -1.0, 0.0])
        assert np.array_equal(_midranks(signed_zeros), [3.5, 3.5, 6.0, 3.5, 1.0, 3.5])

    def test_identical_orderings(self):
        assert spearman([1, 2, 3, 4, 5], [10, 20, 30, 40, 50]) == 1.0

    def test_reversed_orderings(self):
        assert spearman([1, 2, 3, 4, 5], [50, 40, 30, 20, 10]) == -1.0

    def test_hand_value(self):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8

    def test_constant_input_rejected(self):
        with pytest.raises(DataError, match="constant input"):
            spearman([1, 1, 1], [1, 2, 3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="equal length"):
            spearman([1, 2], [1, 2, 3])

    def test_too_short_rejected(self):
        with pytest.raises(DataError, match="at least 3"):
            spearman([1, 2], [2, 1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(DataError, match="finite"):
            spearman([1.0, bad, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DataError, match="finite"):
            spearman([1.0, 2.0, 3.0, 4.0], [bad, 2.0, 3.0, 4.0])

    def test_matches_rank_then_pearson_oracle_on_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(4, 30))
            x = rng.integers(0, 6, n).astype(float)  # heavy ties
            y = rng.integers(0, 6, n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            rx = scipy.stats.rankdata(x, method="average")
            ry = scipy.stats.rankdata(y, method="average")
            dx, dy = rx - rx.mean(), ry - ry.mean()
            oracle = float(np.sum(dx * dy)) / math.sqrt(float(np.sum(dx * dx)) *
                                                        float(np.sum(dy * dy)))
            assert spearman(x, y) == pytest.approx(oracle, abs=1e-12)

    def test_tie_free_equals_pearson_on_ranks(self):
        rng = np.random.default_rng(4)
        x = rng.permutation(20).astype(float)
        y = rng.permutation(20).astype(float)
        assert spearman(x, y) == pytest.approx(
            scipy.stats.pearsonr(scipy.stats.rankdata(x), scipy.stats.rankdata(y))[0],
            abs=1e-12)


class TestSenseSuite:
    def build(self, lexicon, space):
        fem_words = [f"fem{i:02d}" for i in range(10)]
        masc_words = [f"masc{i:02d}" for i in range(10)]
        filler = [f"fill{i:02d}" for i in range(10)]
        rng = np.random.default_rng(5)
        params = params_with_scores(
            lexicon, space,
            fem_scores={w: 2.0 + i * 0.1 for i, w in enumerate(fem_words)},
            masc_scores={w: 2.0 + i * 0.1 for i, w in enumerate(masc_words)},
            vocab=fem_words + masc_words + filler)
        weights = {}
        for w in fem_words:
            body = rng.uniform(0.75, 0.85)
            weights[w] = {"body": body, "behavior": 1 - body}
        for w in masc_words + filler:
            body = rng.uniform(0.05, 0.15)
            weights[w] = {"body": body, "behavior": 1 - body}
        return params, SenseInventory(kind=SenseKind.ADJ, weights=weights)

    def test_planted_body_effect_detected(self, lexicon, space):
        params, inv = self.build(lexicon, space)
        rows = sense_difference_suite(params, space, inv, k=10, permutations=2000, seed=0)
        row = next(r for r in rows if r.sentiment == "pos" and r.sense == "body")
        assert row.result.mean_b > row.result.mean_a
        assert row.result.significant
        assert all(r.result.significant == (r.result.p_value < 0.05 / 13) for r in rows)

    def test_k_beyond_vocab_makes_groups_identical(self, lexicon, space):
        params, inv = self.build(lexicon, space)
        rows = sense_difference_suite(params, space, inv, k=500, permutations=500, seed=0)
        assert all(r.result.p_value == 1.0 for r in rows)

    def test_pooled_variant_emitted(self, lexicon, space):
        params, inv = self.build(lexicon, space)
        rows = sense_difference_suite(params, space, inv, k=10, permutations=500, seed=0)
        labels = {r.sentiment for r in rows}
        assert labels == {"pos", "neg", "neu", "all"}
        assert len(rows) == 4 * 13


    @pytest.mark.parametrize("k", [4, 20])
    def test_rows_match_permutation_test_on_their_columns(self, lexicon, space, monkeypatch, k):
        """A grouping's sense tests share one stream: each row is permutation_test on
        its own column pair with the suite's seed (k=4 exact, k=20 Monte Carlo)."""
        monkeypatch.setattr(evaluation, "_BLOCK_VALUES", 100)  # blocks split in both regimes
        params, inv = self.build(lexicon, space)
        rows = sense_difference_suite(params, space, inv, k=k, permutations=301, seed=7)
        groupings = {"pos": [POS], "neg": [NEG], "neu": [NEU], "all": SENTIMENTS}

        def column(gender, sentiments, sense):
            words = dict.fromkeys(w for s in sentiments
                                  for w, _ in topk(params, space, gender, s, k))
            return [d.get(sense, 0.0) for d in map(inv.get, words) if d is not None]

        assert len(rows) == 4 * 13
        for row in rows:
            sentiments = groupings[row.sentiment]
            want = permutation_test(column(Gender.MASC, sentiments, row.sense),
                                    column(Gender.FEM, sentiments, row.sense),
                                    permutations=301, seed=7, alpha=0.05 / 13)
            assert row.result == want  # every field, floats bit for bit
        assert {r.result.exact for r in rows} == {k == 4}

    @pytest.mark.parametrize("drop", [False, True], ids=["pos_neg_neu_share", "every_shape_once"])
    @pytest.mark.parametrize("k", [4, 20])
    def test_equal_shapes_share_one_call(self, lexicon, space, monkeypatch, k, drop):
        """The suite's rows are the per-family _permutation_tests results, and each
        distinct (n_masc, n_fem) draws one stream (k=4 exact, k=20 Monte Carlo);
        without masc09 in the inventory the pos family's masc group is short."""
        params, inv = self.build(lexicon, space)
        if drop:
            inv = SenseInventory(kind=inv.kind, weights={w: d for w, d in inv.weights.items()
                                                         if w != "masc09"})
        senses = inv.kind.senses

        def weights(word):
            dist = inv.get(word)
            return None if dist is None else [dist.get(sense, 0.0) for sense in senses]

        want, shapes = [], []
        for label, sentiments in [("pos", [POS]), ("neg", [NEG]), ("neu", [NEU]),
                                  ("all", SENTIMENTS)]:
            masc, fem = (evaluation._topk_rows(params, space, g, sentiments, k, weights)
                         for g in (Gender.MASC, Gender.FEM))
            shapes.append((len(masc), len(fem)))
            results = evaluation._permutation_tests(masc, fem, 301, 7, 0.05 / len(senses))
            want.extend((label, sense, result) for sense, result in zip(senses, results))
        distinct = list(dict.fromkeys(shapes))
        assert len(distinct) == (3 if drop else 2)

        calls, streams = [], []
        tests, shuffles = evaluation._permutation_tests, evaluation._shuffles
        monkeypatch.setattr(evaluation, "_permutation_tests",
                            lambda a, b, *rest: calls.append((len(a), len(b))) or tests(a, b, *rest))
        monkeypatch.setattr(evaluation, "_shuffles",
                            lambda *args: streams.append(args) or shuffles(*args))
        rows = sense_difference_suite(params, space, inv, k=k, permutations=301, seed=7)
        assert [(r.sentiment, r.sense, r.result) for r in rows] == want
        assert calls == distinct
        assert len(streams) == (0 if k == 4 else len(distinct))
        assert {r.result.exact for r in rows} == {k == 4}


class TestSentimentFrequency:
    def test_degenerate_prior(self, lexicon, space):
        vocab = [f"w{i}" for i in range(8)]
        params = params_with_scores(lexicon, space, vocab=vocab, n_sentiments=1)
        prior = SentimentPrior(probs={w: (1.0, 0.0, 0.0) for w in vocab})
        tests = sentiment_frequency(params, space, prior, k=8, permutations=200, seed=0)
        for side in ("mean_a", "mean_b"):  # masc, fem
            assert tuple(getattr(tests[s], side) for s in SENTIMENTS) == (1.0, 0.0, 0.0)
        assert not any(t.significant for t in tests.values())

    def test_planted_positive_skew_detected(self, lexicon, space):
        fem_words = [f"fem{i:02d}" for i in range(12)]
        masc_words = [f"masc{i:02d}" for i in range(12)]
        params = params_with_scores(lexicon, space,
                                    fem_scores={w: 2.0 for w in fem_words},
                                    masc_scores={w: 2.0 for w in masc_words},
                                    vocab=fem_words + masc_words, n_sentiments=1,
                                    sentiment=0)
        rng = np.random.default_rng(6)
        probs = {}
        for w in fem_words:
            p = rng.uniform(0.85, 0.95)
            probs[w] = (p, (1 - p) / 2, (1 - p) / 2)
        for w in masc_words:
            p = rng.uniform(0.25, 0.35)
            probs[w] = (p, (1 - p) / 2, (1 - p) / 2)
        tests = sentiment_frequency(params, space, SentimentPrior(probs=probs), k=12,
                                    permutations=5000, seed=0)
        assert tests[POS].significant
        assert tests[POS].mean_b > tests[POS].mean_a  # fem > masc

    @pytest.mark.parametrize("k", [5, 12])
    def test_tests_match_permutation_test_on_their_columns(self, lexicon, space, monkeypatch, k):
        """The three sentiment tests share one stream: each is permutation_test on its
        own column pair with the suite's seed (k=5 exact, k=12 Monte Carlo)."""
        monkeypatch.setattr(evaluation, "_BLOCK_VALUES", 100)  # blocks split in both regimes
        words = [f"w{i:02d}" for i in range(24)]
        rng = np.random.default_rng(12)
        params = params_with_scores(lexicon, space, vocab=words, n_sentiments=1,
                                    fem_scores={w: rng.uniform(0, 2) for w in words},
                                    masc_scores={w: rng.uniform(0, 2) for w in words})
        prior = SentimentPrior(probs={w: tuple(rng.dirichlet([1.0, 1.0, 1.0]))
                                      for w in words[1:]})
        tests = sentiment_frequency(params, space, prior, k=k, permutations=301, seed=7)
        groups = {g: [prior.get(w) for w, _ in topk(params, space, g, None, k)
                      if prior.get(w) is not None] for g in (Gender.MASC, Gender.FEM)}
        for j, sentiment in enumerate(SENTIMENTS):
            want = permutation_test([t[j] for t in groups[Gender.MASC]],
                                    [t[j] for t in groups[Gender.FEM]],
                                    permutations=301, seed=7, alpha=0.05 / 3)
            assert tests[sentiment] == want  # every field, floats bit for bit
            assert want.exact == (k == 5)

    def test_requires_collapsed_model(self, lexicon, space):
        params = params_with_scores(lexicon, space, vocab=["a", "b", "c"], n_sentiments=3)
        prior = SentimentPrior(probs={"a": (1 / 3,) * 3})
        with pytest.raises(DataError, match="collapsed"):
            sentiment_frequency(params, space, prior)


def reference_correlate_p(annotations, femaleness, permutations, seed):
    """The null as a loop: one spearman call on each rng.permutation of the annotations."""
    rho = spearman(annotations, femaleness)
    rng = np.random.default_rng(seed)
    hits = sum(abs(spearman(rng.permutation(annotations), femaleness)) >= abs(rho) - 1e-12
               for _ in range(permutations))
    return (hits + 1) / (permutations + 1)


class TestCorrelateJudgments:
    def test_case_variants_count_once_and_the_last_wins(self, lexicon, space):
        words = [f"w{i}" for i in range(4)]
        params = params_with_scores(lexicon, space,
                                    fem_scores={w: float(i) for i, w in enumerate(words)})
        judgments = {w: float(i) for i, w in enumerate(words)}
        assert correlate_judgments(params, space, judgments, permutations=10).rho == 1.0
        mixed = correlate_judgments(params, space, judgments | {"W0": 9.0}, permutations=10)
        lowered = correlate_judgments(params, space, judgments | {"w0": 9.0}, permutations=10)
        assert mixed.n == 4
        assert (mixed.rho, mixed.p_value) == (lowered.rho, lowered.p_value)


    @pytest.mark.parametrize("seed", [0, 1, 5, 42])
    def test_p_matches_per_permutation_spearman_loop(self, lexicon, space, monkeypatch, seed):
        monkeypatch.setattr(evaluation, "_BLOCK_VALUES", 90)  # blocks of 6 rows of 15
        rng = np.random.default_rng(seed)
        words = [f"w{i:02d}" for i in range(15)]
        # tied femaleness scores and tied annotations
        params = params_with_scores(lexicon, space,
                                    fem_scores={w: float(rng.integers(0, 4)) for w in words})
        judgments = {w: float(rng.integers(-2, 3)) for w in words}
        report = correlate_judgments(params, space, judgments, permutations=997, seed=seed)
        femaleness = gender_posterior(params, space)[[params.vocab.index(w) for w in words]]
        annotations = np.array([judgments[w] for w in words])
        assert report.p_value == reference_correlate_p(annotations, femaleness, 997, seed)

    def test_perfect_encoding_gives_rho_one(self, lexicon, space):
        words = [f"w{i}" for i in range(8)]
        grades = {w: 0.5 + i for i, w in enumerate(words)}
        params = params_with_scores(lexicon, space, fem_scores=grades)
        report = correlate_judgments(params, space, grades, permutations=500, seed=0)
        assert report.rho == 1.0
        assert report.p_value < 0.05
        assert report.n == 8

    def test_gender_blind_model_surfaces_constant_input(self, lexicon, space):
        words = [f"w{i}" for i in range(6)]
        params = params_with_scores(lexicon, space, vocab=words)
        rng = np.random.default_rng(7)
        shared = rng.uniform(0, 1, (len(words), 3, 1))
        params.eta[:, :, space.fem_index] = shared[:, :, 0]
        params.eta[:, :, space.masc_index] = shared[:, :, 0]
        judgments = {w: float(i) for i, w in enumerate(words)}
        with pytest.raises(DataError, match="constant input"):
            correlate_judgments(params, space, judgments, permutations=50, seed=0)

    def test_insufficient_overlap_lists_missing(self, lexicon, space):
        params = params_with_scores(lexicon, space, vocab=["a", "b", "c"])
        judgments = {"a": 1.0, "nope": 2.0, "nada": 3.0}
        with pytest.raises(DataError, match="nada, nope"):
            correlate_judgments(params, space, judgments)

    def test_planted_graded_skew_recovered(self, lexicon, space):
        from genderedlang.corpus import Relation, aggregate_counts
        from genderedlang.model import TrainConfig, train
        from genderedlang.synth import SynthConfig, generate

        data = generate(SynthConfig(seed=0, vocab_size=120, n_pairs=100_000), lexicon)
        table = aggregate_counts(data.pairs, Relation.AMOD, lexicon)
        prior = SentimentPrior(probs={
            w: (a / (a + b + c), b / (a + b + c), c / (a + b + c))
            for w, a, b, c in data.sentiment_rows})
        result = train(table, space, prior, TrainConfig(beta=0.5, max_iterations=800))
        report = correlate_judgments(result.params, space, data.judgments,
                                     data.binary_judgments, permutations=500, seed=0)
        assert report.rho > 0.9
        assert report.p_value < 0.05
        assert report.n == 40

    def test_binary_agreement(self, lexicon, space):
        words = [f"w{i}" for i in range(6)]
        grades = {w: float(i + 1) for i, w in enumerate(words[:3])}
        masc = {w: float(i + 1) for i, w in enumerate(words[3:])}
        params = params_with_scores(lexicon, space, fem_scores=grades, masc_scores=masc)
        judgments = {**grades, **{w: -v for w, v in masc.items()}}
        binary = {w: "f" for w in grades} | {w: "m" for w in masc}
        report = correlate_judgments(params, space, judgments, binary,
                                     permutations=200, seed=0)
        assert report.agreement == 1.0

    def test_every_binary_label_is_checked(self, lexicon, space):
        words = [f"w{i}" for i in range(4)]
        params = params_with_scores(lexicon, space,
                                    fem_scores={w: float(i) for i, w in enumerate(words)})
        judgments = {w: float(i) for i, w in enumerate(words)}
        for binary in ({"zzznotaword": "banana"}, {"w0": "F", "w1": "x"}):
            with pytest.raises(DataError, match="unknown binary gender label"):
                correlate_judgments(params, space, judgments, binary, permutations=10)
        report = correlate_judgments(params, space, judgments, {"W3": "Female", "w0": "masc"},
                                     permutations=10)
        assert report.agreement == 1.0
