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

from .corpus import GENDERS, Gender
from .errors import DataError, NumericalError
from .lexicons import SENTIMENTS, SenseInventory, Sentiment, SentimentPrior
from .model import FeatureSpace, ModelParams, joint_marginal


def ranked(pairs) -> tuple[tuple[str, float], ...]:
    """(word, score) pairs, score-descending; ties broken lexicographically."""
    return tuple(sorted(pairs, key=lambda pair: (-pair[1], pair[0])))


def sentiment_label(sentiment: Sentiment | None) -> str:
    """A sentiment axis's name in reports, where the collapsed model's one axis is `none`."""
    return "none" if sentiment is None else sentiment.value


def topk(params: ModelParams, space: FeatureSpace, gender: Gender,
         sentiment: Sentiment | None, k: int) -> tuple[tuple[str, float], ...]:
    """The k largest-deviation (neighbor, score) pairs, in `ranked` order."""
    if k <= 0:
        raise DataError("k must be positive")
    if sentiment not in params.sentiments:
        raise DataError(f"{sentiment} is not a sentiment axis of this model")
    scores = params.eta[:, params.sentiments.index(sentiment), space.gender_index(gender)]
    return ranked(zip(params.vocab, scores.tolist()))[:k]


# ---------------------------------------------------------------------------
# Permutation testing


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    significant: bool
    permutations_used: int
    exact: bool
    mean_a: float
    mean_b: float


# A resampling block holds at most this many indices, and a block of sums about
# this many values (512 KiB each), so both stay in cache at any group size; the
# draws and the hit counts do not depend on it.
_BLOCK_VALUES = 1 << 16


def _shuffles(n: int, permutations: int, seed: int):
    """Row blocks of shuffled indices ``range(n)``, `permutations` rows in all:
    row i is the i-th successive ``default_rng(seed).permutation(n)``."""
    rng = np.random.default_rng(seed)
    rows = max(1, _BLOCK_VALUES // n)
    for start in range(0, permutations, rows):
        block = np.tile(np.arange(n), (min(rows, permutations - start), 1))
        rng.permuted(block, axis=1, out=block)
        yield block


def _subset_sums(values: np.ndarray, t: int, rows: int):
    """Blocks of at most `rows` sums of the t-subsets of each row of (C, m)
    `values`, in ``itertools.combinations`` order: blocks of shape (C, <= rows)."""
    if t == 0:
        yield np.zeros((len(values), 1))
        return
    combos = itertools.combinations(range(values.shape[1]), t)
    for _ in range(0, math.comb(values.shape[1], t), rows):
        idx = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, rows)),
                          dtype=np.intp)
        yield values[:, idx.reshape(-1, t)].sum(axis=2)


def _exact_sums(pooled: np.ndarray, k: int):
    """Blocks of (C, m) sums, every k-subset of the columns of (C, n) `pooled`
    summed once over all blocks, each block at most about _BLOCK_VALUES values.

    Meet in the middle: a k-subset is j values of the first half and k - j of
    the second.  For each j the half with fewer such subsets is summed whole
    (at most sqrt(C(n, k)) sums), and the other half's sums are streamed
    against it by broadcasting.
    """
    n = pooled.shape[1]
    halves = (pooled[:, :n // 2], pooled[:, n // 2:])
    per_column = max(1, _BLOCK_VALUES // len(pooled))
    for j in range(max(0, k - halves[1].shape[1]), min(k, halves[0].shape[1]) + 1):
        (whole, s), (streamed, t) = sorted(zip(halves, (j, k - j)),
                                           key=lambda half: math.comb(half[0].shape[1], half[1]))
        fixed = np.concatenate(list(_subset_sums(whole, s, per_column)), axis=1)
        rows = max(1, per_column // max(t, fixed.shape[1]))
        for sums in _subset_sums(streamed, t, rows):
            yield (sums[:, :, None] + fixed[:, None, :]).reshape(len(pooled), -1)


def _shuffled_sums(pooled: np.ndarray, k: int, permutations: int, seed: int):
    """Blocks of (C, m) sums of the first k values of each `_shuffles` draw, per
    column of (C, n) `pooled`: each block's 0/1 mask of those indices times the
    pooled values."""
    n = pooled.shape[1]
    for block in _shuffles(n, permutations, seed):
        mask = np.zeros(block.shape)
        np.put_along_axis(mask, block[:, :k], 1.0, axis=1)
        yield pooled @ mask.T


def _permutation_tests(a: np.ndarray, b: np.ndarray, permutations: int, seed: int,
                       alpha: float) -> list[TestResult]:
    """One unpaired permutation test of |mean(A) - mean(B)| per column of the
    (n_a, C) and (n_b, C) groups, every column scored on the same draws.

    Each column's result is what `permutation_test` gives for that column pair.
    """
    if len(a) == 0 or len(b) == 0:
        raise DataError("both groups must be non-empty")
    n_a, n = len(a), len(a) + len(b)
    # (C, n): each column's pooled values on one contiguous row, so its means
    # and total sum in the same order as on a 1-D group
    pooled = np.ascontiguousarray(np.concatenate([a, b]).T)
    # 2 max |x| * n bounds every subset sum of the raw and the centred values below
    if not float(np.abs(pooled).max()) * 2 * n < math.inf:  # NaN fails too
        raise DataError("group values must be finite and small enough that no sum overflows")
    mean_a, mean_b = pooled[:, :n_a].mean(axis=1), pooled[:, n_a:].mean(axis=1)
    # Relabelings are scored on values centred on each column's first one: no statistic
    # moves and equal values stay equal, but a large common offset no longer rounds the sums.
    centred = pooled - pooled[:, :1]
    observed = np.abs(centred[:, :n_a].mean(axis=1) - centred[:, n_a:].mean(axis=1))
    sum_all = centred.sum(axis=1)
    # Tiny slack absorbs last-ulp differences between the observed statistic
    # and the identical relabeling reached through a different summation order,
    # so the hit counts do not depend on how a block sums its subsets.
    threshold = (observed - 1e-12 * np.maximum(1.0, observed))[:, None]

    # The statistic is symmetric in the groups, so the exact test enumerates
    # the C(n, k) subsets of the smaller one.
    k = min(n_a, n - n_a)
    total = math.comb(n, k)
    exact = total <= 1_000_000
    if exact:
        blocks, used, add_one = _exact_sums(centred, k), total, 0
    elif permutations <= 0:
        raise DataError("permutations must be positive for Monte Carlo testing")
    else:
        k = n_a  # the first |A| indices of each shuffle are relabeled A
        blocks, used, add_one = _shuffled_sums(centred, k, permutations, seed), permutations, 1
    hits = np.zeros(len(pooled), dtype=np.int64)
    for sums in blocks:
        stat = np.abs(sums / k - (sum_all[:, None] - sums) / (n - k))
        hits += np.count_nonzero(stat >= threshold, axis=1)
    p = (hits + add_one) / (used + add_one)
    return [TestResult(statistic=float(abs(mean_a[c] - mean_b[c])), p_value=float(p[c]),
                       significant=bool(p[c] < alpha), permutations_used=used, exact=exact,
                       mean_a=float(mean_a[c]), mean_b=float(mean_b[c]))
            for c in range(len(pooled))]


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
    return _permutation_tests(a[:, None], b[:, None], permutations, seed, alpha)[0]


# ---------------------------------------------------------------------------
# Sense and sentiment suites


@dataclass(frozen=True)
class SenseTestRow:
    sentiment: str
    sense: str
    result: TestResult  # mean_a and mean_b are the masc and fem sense frequencies


def _topk_rows(params: ModelParams, space: FeatureSpace, gender: Gender, sentiments,
               k: int, lookup) -> np.ndarray:
    """The `lookup(word)` rows of the distinct words of the pooled top-k lists, in
    first-seen order; a word `lookup` maps to None is skipped."""
    words = dict.fromkeys(word for sentiment in sentiments
                          for word, _score in topk(params, space, gender, sentiment, k))
    rows = [row for row in map(lookup, words) if row is not None]
    if not rows:
        raise DataError(f"no {gender.value} top-{k} word is in the lexicon")
    return np.asarray(rows, dtype=float)


def sense_difference_suite(params: ModelParams, space: FeatureSpace,
                           inventory: SenseInventory, k: int = 200,
                           permutations: int = 100_000, seed: int = 0,
                           alpha: float = 0.05) -> list[SenseTestRow]:
    """Male-vs-female permutation tests of mean sense weight, per sentiment.

    Each sentiment's tests are Bonferroni-corrected across the sense set;
    when the full model is used a pooled variant over all sentiments is
    appended with label "all".  A family's tests share one permutation
    stream drawn from `seed`; Bonferroni is unchanged.  Families with equal
    group sizes draw the same stream, so their columns are tested together
    in one call.
    """
    families = [(sentiment_label(s), (s,)) for s in params.sentiments]
    if len(params.sentiments) > 1:
        families.append(("all", params.sentiments))
    senses = inventory.kind.senses

    def weights(word: str) -> list[float] | None:
        dist = inventory.get(word)
        return None if dist is None else [dist.get(sense, 0.0) for sense in senses]

    groups = [[_topk_rows(params, space, g, sentiments, k, weights) for g in GENDERS]
              for _label, sentiments in families]
    results: dict[int, list[TestResult]] = {}
    for shape in dict.fromkeys((len(masc), len(fem)) for masc, fem in groups):
        members = [i for i, (masc, fem) in enumerate(groups) if (len(masc), len(fem)) == shape]
        masc, fem = (np.concatenate([groups[i][g] for i in members], axis=1) for g in (0, 1))
        tested = _permutation_tests(masc, fem, permutations, seed, alpha / len(senses))
        for j, i in enumerate(members):
            results[i] = tested[j * len(senses):(j + 1) * len(senses)]
    return [SenseTestRow(sentiment=label, sense=sense, result=result)
            for i, (label, _sentiments) in enumerate(families)
            for sense, result in zip(senses, results[i])]


def sentiment_frequency(params: ModelParams, space: FeatureSpace, prior: SentimentPrior,
                        k: int = 200, permutations: int = 100_000, seed: int = 0,
                        alpha: float = 0.05) -> dict[Sentiment, TestResult]:
    """Sentiment-frequency analysis of the collapsed (sentiment-free) model.

    For each gender, the top-k deviation list is scored by the external
    prior: frequency of sentiment s is the mean q(s | word) over covered
    words, tested male-vs-female per sentiment at alpha / 3.  A family's
    tests share one permutation stream drawn from `seed`; Bonferroni is
    unchanged.  Each result's mean_a and mean_b are the masc and fem
    frequencies.
    """
    if params.sentiments != (None,):
        raise DataError("sentiment-frequency analysis requires the sentiment-collapsed model")
    masc, fem = (_topk_rows(params, space, g, params.sentiments, k, prior.get) for g in GENDERS)
    results = _permutation_tests(masc, fem, permutations, seed, alpha / len(SENTIMENTS))
    return dict(zip(SENTIMENTS, results))


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
    joint = joint_marginal(params, space)
    fem_cols = [space.entries[form].gender is Gender.FEM for form in params.forms]
    total = joint.sum(axis=1)
    if not np.all((total > 0) & (total < np.inf)):  # else the ratio is not finite
        raise NumericalError("gender posterior is not finite: a word's joint mass is 0 or inf")
    return joint[:, fem_cols].sum(axis=1) / total


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
    lowered = {w.lower(): v for w, v in judgments.items()}  # case variants: the last wins
    overlap = sorted(w for w in lowered if w in v_idx)
    if len(overlap) < 3:
        missing = sorted(w for w in lowered if w not in v_idx)
        raise DataError(f"need at least 3 overlapping words, got {len(overlap)}; "
                        f"missing from vocabulary: {', '.join(missing) or 'none'}")
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
    hits = sum(int((np.abs(dx[block] @ dy / scale) >= abs(rho) - 1e-12).sum())
               for block in _shuffles(dx.size, permutations, seed))
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
