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


def _combination_chunks(n: int, k: int):
    buf: list[tuple[int, ...]] = []
    for combo in itertools.combinations(range(n), k):
        buf.append(combo)
        if len(buf) == 131072:
            yield np.asarray(buf, dtype=np.intp)
            buf = []
    if buf:
        yield np.asarray(buf, dtype=np.intp)


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
    n, n_a, n_b = pooled.size, a.size, b.size
    sum_all = float(pooled.sum())
    # Tiny slack absorbs last-ulp differences between the observed statistic
    # and the identical relabeling reached through a different summation order.
    threshold = observed - 1e-12 * max(1.0, observed)

    total = math.comb(n, n_a)
    if total <= 1_000_000:
        hits = 0
        for idx in _combination_chunks(n, n_a):
            sums = pooled[idx].sum(axis=1)
            stats = np.abs(sums / n_a - (sum_all - sums) / n_b)
            hits += int((stats >= threshold).sum())
        p = hits / total
        used, exact = total, True
    else:
        if permutations <= 0:
            raise DataError("permutations must be positive for Monte Carlo testing")
        rng = np.random.default_rng(seed)
        hits = 0
        remaining = permutations
        while remaining > 0:
            block = min(remaining, 4096)
            mat = np.tile(pooled, (block, 1))
            rng.permuted(mat, axis=1, out=mat)
            sums = mat[:, :n_a].sum(axis=1)
            stats = np.abs(sums / n_a - (sum_all - sums) / n_b)
            hits += int((stats >= threshold).sum())
            remaining -= block
        p = (hits + 1) / (permutations + 1)
        used, exact = permutations, False
    return TestResult(statistic=observed, p_value=p, corrected_alpha=alpha,
                      significant=p < alpha, permutations_used=used, exact=exact,
                      mean_a=float(a.mean()), mean_b=float(b.mean()))


# ---------------------------------------------------------------------------
# Sense and sentiment suites


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
    seeds = [int(ss.generate_state(1)[0]) for ss in np.random.SeedSequence(seed).spawn(n_tests)]

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
    coverage: dict[Gender, float]
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
    coverage: dict[Gender, float] = {}
    for gender in (Gender.MASC, Gender.FEM):
        ranked = topk(params, space, gender, None, k)
        triples = [prior.get(word) for word, _score in ranked.entries]
        triples = [t for t in triples if t is not None]
        if not triples:
            raise DataError(f"no {gender.value} top-k entries in the sentiment lexicon")
        groups[gender] = triples
        arr = np.asarray(triples)
        frequencies[gender] = tuple(float(x) for x in arr.mean(axis=0))
        coverage[gender] = len(triples) / len(ranked.entries)
    corrected = alpha / 3.0
    seeds = [int(ss.generate_state(1)[0]) for ss in np.random.SeedSequence(seed).spawn(3)]
    tests = {}
    for j, sentiment in enumerate(SENTIMENTS):
        tests[sentiment] = permutation_test(
            [t[j] for t in groups[Gender.MASC]],
            [t[j] for t in groups[Gender.FEM]],
            permutations=permutations, seed=seeds[j], alpha=corrected)
    return SentimentFrequencyReport(frequencies=frequencies, coverage=coverage, tests=tests)


# ---------------------------------------------------------------------------
# Rank correlation and human judgments


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i: j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


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
    rx = _midranks(xa)
    ry = _midranks(ya)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
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
    Agreement binarizes the posterior at 0.5 against m/f labels.  The raw
    deviation difference (fem - masc, averaged over sentiments) is also
    correlated for audit; None when that score is constant.
    """
    vocab_set = set(params.vocab)
    overlap = sorted(w.lower() for w in judgments if w.lower() in vocab_set)
    if len(overlap) < 3:
        missing = sorted(w.lower() for w in judgments if w.lower() not in vocab_set)
        raise DataError(f"need at least 3 overlapping words, got {len(overlap)}; "
                        f"missing from vocabulary: {', '.join(missing) or 'none'}")
    lowered = {w.lower(): v for w, v in judgments.items()}
    annotations = np.array([lowered[w] for w in overlap])
    posterior = gender_posterior(params, space)
    v_idx = {v: i for i, v in enumerate(params.vocab)}
    femaleness = np.array([posterior[v_idx[w]] for w in overlap])

    rho = spearman(annotations, femaleness)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(permutations):
        # a permutation of non-constant annotations is never constant, so this cannot raise
        r = spearman(rng.permutation(annotations), femaleness)
        if abs(r) >= abs(rho) - 1e-12:
            hits += 1
    p_value = (hits + 1) / (permutations + 1)

    agreement = math.nan
    if binary_judgments:
        labels = {w.lower(): lab.lower() for w, lab in binary_judgments.items()}
        overlap_set = set(overlap)
        pairs = [(labels[w], femaleness[i]) for i, w in enumerate(overlap) if w in labels]
        for w in labels:
            if w in vocab_set and w not in overlap_set:
                pairs.append((labels[w], posterior[v_idx[w]]))
        if pairs:
            agree = 0
            for label, fem in pairs:
                predicted = "f" if fem > 0.5 else "m"
                if label in ("f", "fem", "female"):
                    label = "f"
                elif label in ("m", "masc", "male"):
                    label = "m"
                else:
                    raise DataError(f"unknown binary gender label {label!r}")
                agree += predicted == label
            agreement = agree / len(pairs)

    raw = params.eta[:, :, space.fem_index].mean(axis=1) - params.eta[:, :, space.masc_index].mean(axis=1)
    raw_scores = np.array([raw[v_idx[w]] for w in overlap])
    try:
        rho_raw = spearman(annotations, raw_scores)
    except DataError:
        rho_raw = None
    return JudgmentReport(rho=rho, p_value=p_value, agreement=agreement,
                         n=len(overlap), rho_raw_score=rho_raw)
