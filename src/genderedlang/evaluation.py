"""Ranked-list extraction and the statistical analyses built on top of it.

Covers top-k deviation lists per gender and sentiment, supersense frequency
profiles with unpaired permutation tests (Bonferroni-corrected across
senses), sentiment frequencies under the collapsed model, Spearman rank
correlation with midrank ties, and correlation against human gender
judgments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .corpus import Gender
from .errors import DataError, NumericalError
from .lexicons import SENTIMENTS, SenseInventory, Sentiment, SentimentPrior
from .model import FeatureSpace, ModelParams, _forward, sentiment_index


@dataclass(frozen=True)
class RankedList:
    """Top-k neighbors by gender-projected deviation, score-descending."""

    gender: Gender
    sentiment: Sentiment | None
    entries: tuple[tuple[str, float], ...]
    k: int


def topk(params: ModelParams, space: FeatureSpace, gender: Gender,
         sentiment: Sentiment | None, k: int) -> RankedList:
    """Largest-deviation neighbors; ties broken lexicographically."""
    if k <= 0:
        raise DataError("k must be positive")
    s = sentiment_index(params, sentiment)
    scores = params.eta[:, s, space.gender_index(gender)]
    order = sorted(range(len(params.vocab)), key=lambda i: (-scores[i], params.vocab[i]))
    take = order[: min(k, len(order))]
    entries = tuple((params.vocab[i], float(scores[i])) for i in take)
    return RankedList(gender=gender, sentiment=sentiment, entries=entries, k=k)


# ---------------------------------------------------------------------------
# Permutation testing


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    corrected_alpha: float
    significant: bool
    permutations_used: int
    exact: bool
    mean_a: float
    mean_b: float


# A resampling block holds at most this many values (512 KiB), so it stays in
# cache at any group size; the draws do not depend on it.
_BLOCK_VALUES = 1 << 16


def _shuffles(values: np.ndarray, permutations: int, seed: int):
    """Row blocks of shuffled `values`, `permutations` rows in all: row i is
    the i-th successive ``default_rng(seed).permutation(values)``."""
    rng = np.random.default_rng(seed)
    rows = max(1, _BLOCK_VALUES // values.size)
    for start in range(0, permutations, rows):
        block = np.tile(values, (min(rows, permutations - start), 1))
        rng.permuted(block, axis=1, out=block)
        yield block


def _relabelings(pooled: np.ndarray, k: int):
    """Row blocks of `pooled` at each k-subset of its indices, in
    ``itertools.combinations`` order."""
    combos = itertools.combinations(range(pooled.size), k)
    rows = max(1, _BLOCK_VALUES // k)
    for _ in range(0, math.comb(pooled.size, k), rows):
        idx = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, rows)),
                          dtype=np.intp)
        yield pooled[idx.reshape(-1, k)]


def permutation_test(group_a, group_b, permutations: int = 100_000, seed: int = 0,
                     alpha: float = 0.05) -> TestResult:
    """Unpaired permutation test of |mean(A) - mean(B)|.

    All C(|A|+|B|, |A|) relabelings are enumerated when that count is at
    most one million; otherwise Monte Carlo resampling is used with the
    add-one estimator p = (b + 1) / (m + 1), which can never return zero.
    Deterministic given the seed.
    """
    a = np.asarray(list(group_a), dtype=float)
    b = np.asarray(list(group_b), dtype=float)
    if a.size == 0 or b.size == 0:
        raise DataError("both groups must be non-empty")
    pooled = np.concatenate([a, b])
    # max |x| * n bounds every subset sum, so no mean or statistic below can overflow
    if not float(np.abs(pooled).max()) * pooled.size < math.inf:  # NaN fails too
        raise DataError("group values must be finite and small enough that no sum overflows")
    observed = abs(float(a.mean()) - float(b.mean()))
    n = pooled.size
    sum_all = float(pooled.sum())
    # Tiny slack absorbs last-ulp differences between the observed statistic
    # and the identical relabeling reached through a different summation order.
    threshold = observed - 1e-12 * max(1.0, observed)

    # The statistic is symmetric in the groups, so the exact test enumerates
    # the subsets of the smaller one: C(n, k) rows of k values each.
    k = min(a.size, b.size)
    total = math.comb(n, k)
    exact = total <= 1_000_000
    if exact:
        blocks, used, add_one = _relabelings(pooled, k), total, 0
    elif permutations <= 0:
        raise DataError("permutations must be positive for Monte Carlo testing")
    else:
        k = a.size  # the first |A| values of each shuffle are relabeled A
        blocks, used, add_one = _shuffles(pooled, permutations, seed), permutations, 1
    hits = 0
    for block in blocks:
        sums = block[:, :k].sum(axis=1)
        hits += int((np.abs(sums / k - (sum_all - sums) / (n - k)) >= threshold).sum())
    p = (hits + add_one) / (used + add_one)
    return TestResult(statistic=observed, p_value=p, corrected_alpha=alpha,
                      significant=p < alpha, permutations_used=used, exact=exact,
                      mean_a=float(a.mean()), mean_b=float(b.mean()))


# ---------------------------------------------------------------------------
# Sense and sentiment suites


def _test_seeds(seed: int, n_tests: int) -> list[int]:
    """One permutation seed per test of a suite, spawned from the suite's seed."""
    return [int(ss.generate_state(1)[0]) for ss in np.random.SeedSequence(seed).spawn(n_tests)]


@dataclass(frozen=True)
class SenseTestRow:
    sentiment: str
    sense: str
    freq_masc: float
    freq_fem: float
    result: TestResult


def _sense_groups(params: ModelParams, space: FeatureSpace, inventory: SenseInventory,
                  gender: Gender, sentiments, k: int) -> dict[str, list[float]]:
    """Per-sense weight lists for the covered words of pooled top-k lists."""
    words: list[str] = []
    seen: set[str] = set()
    for sentiment in sentiments:
        ranked = topk(params, space, gender, sentiment, k)
        if not any(word in inventory for word, _score in ranked.entries):
            raise DataError("no entries in inventory")
        for word, _score in ranked.entries:
            if word not in seen:
                seen.add(word)
                words.append(word)
    covered = [w for w in words if w in inventory]
    return {
        sense: [inventory.get(w).get(sense, 0.0) for w in covered]
        for sense in inventory.kind.senses
    }


def sense_difference_suite(params: ModelParams, space: FeatureSpace,
                           inventory: SenseInventory, k: int = 200,
                           permutations: int = 100_000, seed: int = 0,
                           alpha: float = 0.05) -> list[SenseTestRow]:
    """Male-vs-female permutation tests of mean sense weight, per sentiment.

    Each sentiment's tests are Bonferroni-corrected across the sense set;
    when the full model is used a pooled variant over all sentiments is
    appended with label "all".
    """
    if params.n_sentiments == 3:
        groupings: list[tuple[str, tuple]] = [(s.value, (s,)) for s in SENTIMENTS]
        groupings.append(("all", tuple(SENTIMENTS)))
    else:
        groupings = [("none", (None,))]
    corrected = alpha / len(inventory.kind.senses)
    n_tests = len(groupings) * len(inventory.kind.senses)
    seeds = _test_seeds(seed, n_tests)

    rows: list[SenseTestRow] = []
    i = 0
    for label, sentiments in groupings:
        masc = _sense_groups(params, space, inventory, Gender.MASC, sentiments, k)
        fem = _sense_groups(params, space, inventory, Gender.FEM, sentiments, k)
        for sense in inventory.kind.senses:
            result = permutation_test(masc[sense], fem[sense], permutations=permutations,
                                      seed=seeds[i], alpha=corrected)
            rows.append(SenseTestRow(sentiment=label, sense=sense,
                                     freq_masc=result.mean_a, freq_fem=result.mean_b,
                                     result=result))
            i += 1
    return rows


@dataclass(frozen=True)
class SentimentFrequencyReport:
    frequencies: dict[Gender, tuple[float, float, float]]
    tests: dict[Sentiment, TestResult]


def sentiment_frequency(params: ModelParams, space: FeatureSpace, prior: SentimentPrior,
                        k: int = 200, permutations: int = 100_000, seed: int = 0,
                        alpha: float = 0.05) -> SentimentFrequencyReport:
    """Sentiment-frequency analysis of the collapsed (sentiment-free) model.

    For each gender, the top-k deviation list is scored by the external
    prior: frequency of sentiment s is the mean q(s | word) over covered
    words, tested male-vs-female per sentiment at alpha / 3.
    """
    if params.n_sentiments != 1:
        raise DataError("sentiment-frequency analysis requires the sentiment-collapsed model")
    groups: dict[Gender, list[tuple[float, float, float]]] = {}
    frequencies: dict[Gender, tuple[float, float, float]] = {}
    for gender in (Gender.MASC, Gender.FEM):
        ranked = topk(params, space, gender, None, k)
        triples = [prior.get(word) for word, _score in ranked.entries]
        triples = [t for t in triples if t is not None]
        if not triples:
            raise DataError(f"no {gender.value} top-k entries in the sentiment lexicon")
        groups[gender] = triples
        arr = np.asarray(triples)
        frequencies[gender] = tuple(float(x) for x in arr.mean(axis=0))
    corrected = alpha / 3.0
    seeds = _test_seeds(seed, 3)
    tests = {}
    for j, sentiment in enumerate(SENTIMENTS):
        tests[sentiment] = permutation_test(
            [t[j] for t in groups[Gender.MASC]],
            [t[j] for t in groups[Gender.FEM]],
            permutations=permutations, seed=seeds[j], alpha=corrected)
    return SentimentFrequencyReport(frequencies=frequencies, tests=tests)


# ---------------------------------------------------------------------------
# Rank correlation and human judgments


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def _centred_ranks(values: np.ndarray) -> np.ndarray:
    ranks = _midranks(values)
    return ranks - ranks.mean()


def spearman(x, y) -> float:
    """Spearman's rho: Pearson correlation of midranks."""
    xa = np.asarray(list(x), dtype=float)
    ya = np.asarray(list(y), dtype=float)
    if xa.size != ya.size:
        raise DataError("inputs must have equal length")
    if xa.size < 3:
        raise DataError("need at least 3 observations")
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise DataError("inputs must be finite")
    dx = _centred_ranks(xa)
    dy = _centred_ranks(ya)
    vx = float(dx @ dx)
    vy = float(dy @ dy)
    if vx == 0.0 or vy == 0.0:
        raise DataError("constant input")
    return float(dx @ dy) / math.sqrt(vx * vy)


def gender_posterior(params: ModelParams, space: FeatureSpace) -> np.ndarray:
    """p(FEM | v) for every vocabulary word, by summing the joint over forms."""
    fw = _forward(params, space.feature_matrix(params.forms))
    fem_cols = np.array([space.gender_of(form) is Gender.FEM for form in params.forms])
    fem_mass = fw.M[:, :, fem_cols].sum(axis=(1, 2))
    if not np.all((fw.rho > 0) & (fw.rho < np.inf)):  # else fem_mass / rho is not finite
        raise NumericalError("gender posterior is not finite: a word's joint mass is 0 or inf")
    return fem_mass / fw.rho


_GENDER_LABELS = {"f": "f", "fem": "f", "female": "f", "m": "m", "masc": "m", "male": "m"}


@dataclass(frozen=True)
class JudgmentReport:
    rho: float
    p_value: float
    agreement: float
    n: int
    rho_raw_score: float | None


def correlate_judgments(params: ModelParams, space: FeatureSpace,
                        judgments: dict[str, float],
                        binary_judgments: dict[str, str] | None = None,
                        permutations: int = 10_000, seed: int = 0) -> JudgmentReport:
    """Correlate model femaleness p(FEM | v) against human annotations.

    rho is Spearman between the continuous annotations and the posterior
    gender probabilities; its p-value comes from permuting annotations.
    Agreement binarizes the posterior at 0.5 against m/f labels, every one of
    which must be f, fem, female, m, masc or male (any case); it is NaN when
    no labelled word is in the vocabulary.  The raw
    deviation difference (fem - masc, averaged over sentiments) is also
    correlated for audit; None when that score is constant.
    """
    v_idx = {v: i for i, v in enumerate(params.vocab)}
    overlap = sorted(w.lower() for w in judgments if w.lower() in v_idx)
    if len(overlap) < 3:
        missing = sorted(w.lower() for w in judgments if w.lower() not in v_idx)
        raise DataError(f"need at least 3 overlapping words, got {len(overlap)}; "
                        f"missing from vocabulary: {', '.join(missing) or 'none'}")
    lowered = {w.lower(): v for w, v in judgments.items()}
    annotations = np.array([lowered[w] for w in overlap])
    posterior = gender_posterior(params, space)
    femaleness = np.array([posterior[v_idx[w]] for w in overlap])

    rho = spearman(annotations, femaleness)
    # Permuting the annotations permutes their centred midranks, so each null
    # rho is a row of a block times the centred femaleness ranks, over the same
    # scale.  Midranks are half-integers summing to n(n+1)/2, so their mean,
    # deviations and dot products are exact in float64: every null rho equals
    # what spearman returns for that permutation, in any summation order.
    dx, dy = _centred_ranks(annotations), _centred_ranks(femaleness)
    scale = math.sqrt(float(dx @ dx) * float(dy @ dy))
    hits = sum(int((np.abs(block @ dy / scale) >= abs(rho) - 1e-12).sum())
               for block in _shuffles(dx, permutations, seed))
    p_value = (hits + 1) / (permutations + 1)

    agreement = math.nan
    if binary_judgments is not None:
        labels = {}
        for word, label in binary_judgments.items():
            gender = _GENDER_LABELS.get(label.strip().lower())
            if gender is None:
                raise DataError(f"unknown binary gender label {label!r} for {word!r}; "
                                f"expected one of {', '.join(_GENDER_LABELS)}")
            labels[word.lower()] = gender
        labelled = [w for w in labels if w in v_idx]
        if labelled:
            agree = sum(("f" if posterior[v_idx[w]] > 0.5 else "m") == labels[w] for w in labelled)
            agreement = agree / len(labelled)

    raw = params.eta[:, :, space.fem_index].mean(axis=1) - params.eta[:, :, space.masc_index].mean(axis=1)
    raw_scores = np.array([raw[v_idx[w]] for w in overlap])
    try:
        rho_raw = spearman(annotations, raw_scores)
    except DataError:
        rho_raw = None
    return JudgmentReport(rho=rho, p_value=p_value, agreement=agreement,
                         n=len(overlap), rho_raw_score=rho_raw)
