"""PMI baseline over gender-collapsed counts, plus its model-equivalence check.

Collapsing every noun form to its gender gives a (neighbor, gender) table.
The restricted model p(v | g) ~ exp(m_v + eta*(v, g)) fit to saturation has
normalized exp(gender deviation) equal to normalized exp(PMI(v, g)), so the
two rankings must coincide; prop1_check verifies that numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import GENDERS, CountTable, Gender, GenderLexicon, gender_onehot
from .errors import DataError, NumericalError
from .evaluation import _midranks, spearman
from .model import _lbfgs

# Default cap and saturation target of the restricted fit (see restricted_train).
PROP1_MAX_ITERATIONS = 50000
SATURATION_TOL = 1e-8


@dataclass(frozen=True)
class GenderCollapsedTable:
    """Counts #(neighbor, gender), shape (|V|, 2) in GENDERS column order, neighbors sorted."""

    matrix: np.ndarray
    vocab: tuple[str, ...]

    @property
    def total(self) -> int:
        return int(self.matrix.sum())

    def count_matrix(self) -> np.ndarray:
        """Dense counts, shape (|V|, 2) in GENDERS column order."""
        return self.matrix


def collapse_by_gender(table: CountTable, lex: GenderLexicon) -> GenderCollapsedTable:
    """Sum the per-form count columns by noun gender."""
    return GenderCollapsedTable(table.count_matrix() @ gender_onehot(table.forms, lex), table.vocab)


def _pmi_ratio(counts: np.ndarray, total: int) -> np.ndarray:
    """exp(PMI) = p(v, g) / (p(v) p(g)) of every cell of (|V|, 2) counts summing to total."""
    p_v = counts.sum(axis=1) / total
    p_g = counts.sum(axis=0) / total
    with np.errstate(invalid="ignore"):  # 0/0 where a marginal is zero; callers skip those cells
        return (counts / total) / (p_v[:, None] * p_g[None, :])


def pmi_table(gtable: GenderCollapsedTable) -> dict[tuple[str, Gender], float]:
    """PMI for every pair with a positive count; zero-count pairs are absent."""
    counts = gtable.count_matrix()
    ratio = _pmi_ratio(counts, gtable.total)
    return {(gtable.vocab[i], GENDERS[j]): math.log(ratio[i, j])
            for i, j in zip(*np.nonzero(counts > 0))}


@dataclass
class RestrictedResult:
    """Unconstrained MLE deviations eta*, shape (|V|, 2) in GENDERS column order."""

    eta: np.ndarray
    iterations: int


def restricted_train(gtable: GenderCollapsedTable, max_iterations: int = PROP1_MAX_ITERATIONS,
                     saturation_tol: float = SATURATION_TOL) -> RestrictedResult:
    """Fit the sentiment-free, gender-only model to saturation by L-BFGS.

    The fit maximizes sum_g sum_v p_hat(v|g) log p(v|g) with no bounds and
    no regularizers, so its optimum reproduces the empirical conditional
    exactly.  The gradient is p_hat(v|g) - p(v|g), so the optimizer's KKT
    residual is the saturation deviation max |p(v|g) - p_hat(v|g)|; a fit
    that does not bring it to `saturation_tol` within `max_iterations`
    steps is a numerical failure.
    """
    counts = gtable.count_matrix()
    if counts.sum(axis=0).min() <= 0:
        raise DataError("both genders required in the collapsed table")
    if counts.sum(axis=1).min() <= 0:
        raise DataError("every neighbor needs a positive count in the collapsed table")
    p_cond = counts / counts.sum(axis=0, keepdims=True)   # p_hat(v | g)
    m = np.log(counts.sum(axis=1) / counts.sum())[:, None]

    def negated(x: np.ndarray, out: np.ndarray) -> float:
        z = m + x.reshape(p_cond.shape)
        z = z - z.max(axis=0)
        log_p = z - np.log(np.exp(z).sum(axis=0))
        np.subtract(np.exp(log_p), p_cond, out=out.reshape(p_cond.shape))
        return -float((p_cond * log_p).sum())

    # h0 = 1 keeps the scalar initial scaling s.y / y.y
    x, values, reason, dev, _ = _lbfgs(negated, np.zeros(p_cond.size), np.ones(p_cond.size), 0,
                                       saturation_tol, max_iterations)
    if reason != "tolerance":
        raise NumericalError(
            f"restricted MLE did not reach saturation tol {saturation_tol:g} "
            f"in {len(values) - 1} iterations (stop: {reason}, max deviation {dev:.3g})")
    return RestrictedResult(eta=x.reshape(p_cond.shape), iterations=len(values) - 1)


@dataclass
class Prop1Report:
    """Per-gender agreement between normalized exp(deviation) and exp(PMI)."""

    max_deviation: dict[Gender, float]
    rank_correlation: dict[Gender, float]
    restricted: RestrictedResult


def _rank_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho, with identical rankings short-circuited to exactly 1."""
    if np.array_equal(_midranks(x), _midranks(y)):
        return 1.0
    if x.size < 3:
        return -1.0
    return spearman(x, y)


def prop1_check(gtable: GenderCollapsedTable, max_iterations: int = PROP1_MAX_ITERATIONS,
                saturation_tol: float = SATURATION_TOL) -> Prop1Report:
    """Compare the restricted model's normalized scores to normalized exp(PMI)."""
    result = restricted_train(gtable, max_iterations, saturation_tol)
    ratio = _pmi_ratio(gtable.count_matrix(), gtable.total)

    max_dev: dict[Gender, float] = {}
    rank_corr: dict[Gender, float] = {}
    for j, gender in enumerate(GENDERS):
        tau = np.exp(result.eta[:, j] - result.eta[:, j].max())
        tau /= tau.sum()
        epmi = ratio[:, j] / ratio[:, j].sum()
        max_dev[gender] = float(np.abs(tau - epmi).max())
        rank_corr[gender] = _rank_correlation(tau, epmi)
    return Prop1Report(max_deviation=max_dev, rank_correlation=rank_corr, restricted=result)
