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
from .model import _Adam, _softmax


@dataclass(frozen=True)
class GenderCollapsedTable:
    """Counts #(neighbor, gender), shape (|V|, 2) in (MASC, FEM) column order, neighbors sorted."""

    matrix: np.ndarray
    vocab: tuple[str, ...]

    @property
    def total(self) -> int:
        return int(self.matrix.sum())

    def count_matrix(self) -> np.ndarray:
        """Dense counts, shape (|V|, 2) in (MASC, FEM) column order."""
        return self.matrix


def collapse_by_gender(table: CountTable, lex: GenderLexicon) -> GenderCollapsedTable:
    """Sum the per-form count columns by noun gender."""
    return GenderCollapsedTable(table.count_matrix() @ gender_onehot(table.forms, lex), table.vocab)


def pmi_table(gtable: GenderCollapsedTable) -> dict[tuple[str, Gender], float]:
    """PMI for every pair with a positive count; zero-count pairs are absent."""
    counts = gtable.count_matrix()
    total = gtable.total
    p_v = counts.sum(axis=1) / total
    p_g = counts.sum(axis=0) / total
    return {(gtable.vocab[i], GENDERS[j]): math.log((counts[i, j] / total) / (p_v[i] * p_g[j]))
            for i, j in zip(*np.nonzero(counts > 0))}


@dataclass
class RestrictedResult:
    """Unconstrained MLE deviations eta*, shape (|V|, 2) in (MASC, FEM) order."""

    eta: np.ndarray
    iterations: int
    max_deviation: float
    converged: bool


def restricted_train(gtable: GenderCollapsedTable, learning_rate: float = 0.2,
                     max_iterations: int = 50000, saturation_tol: float = 1e-8
                     ) -> RestrictedResult:
    """Fit the sentiment-free, gender-only model to saturation by Adam.

    The MLE must be unconstrained (no non-negativity projection, no
    regularizers) for the saturated fit to reach the empirical conditional
    exactly; convergence is declared when max |p(v|g) - p_hat(v|g)| falls
    below `saturation_tol` within `max_iterations` Adam steps.
    """
    counts = gtable.count_matrix()
    if counts.sum(axis=0).min() <= 0:
        raise DataError("both genders required in the collapsed table")
    p_cond = counts / counts.sum(axis=0, keepdims=True)   # p_hat(v | g)
    p_joint = counts / counts.sum()                        # p_hat(v, g)
    p_g = counts.sum(axis=0) / counts.sum()
    m = np.log(counts.sum(axis=1) / counts.sum())

    eta = np.zeros_like(p_cond)
    adam = _Adam(eta.shape)
    lr = learning_rate
    check_every = 50
    best = np.inf
    iterations = 0
    for t in range(1, max_iterations + 1):
        iterations = t
        A = _softmax(m[:, None] + eta, axis=0)
        grad = p_joint - p_g[None, :] * A
        eta = adam.step(eta, grad, lr)
        if t % check_every == 0:
            dev = float(np.abs(_softmax(m[:, None] + eta, axis=0) - p_cond).max())
            if not math.isfinite(dev):
                raise NumericalError("restricted MLE diverged")
            if dev <= saturation_tol:
                return RestrictedResult(eta=eta, iterations=t, max_deviation=dev, converged=True)
            if dev > 0.995 * best:
                lr *= 0.5
            best = min(best, dev)
    dev = float(np.abs(_softmax(m[:, None] + eta, axis=0) - p_cond).max())
    if dev <= saturation_tol:
        return RestrictedResult(eta=eta, iterations=iterations, max_deviation=dev, converged=True)
    raise NumericalError(
        f"restricted MLE did not reach saturation tol {saturation_tol:g} "
        f"in {max_iterations} iterations (max deviation {dev:.3g})")


@dataclass
class Prop1Report:
    """Per-gender agreement between normalized exp(deviation) and exp(PMI)."""

    max_deviation: dict[Gender, float]
    rank_correlation: dict[Gender, float]
    restricted: RestrictedResult


def _rank_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho, with identical rankings short-circuited to exactly 1."""
    from .evaluation import _midranks, spearman

    if np.array_equal(_midranks(x), _midranks(y)):
        return 1.0
    if x.size < 3:
        return -1.0
    return spearman(x, y)


def prop1_check(gtable: GenderCollapsedTable, learning_rate: float = 0.2,
                max_iterations: int = 50000, saturation_tol: float = 1e-8) -> Prop1Report:
    """Compare the restricted model's normalized scores to normalized exp(PMI)."""
    result = restricted_train(gtable, learning_rate, max_iterations, saturation_tol)
    counts = gtable.count_matrix()
    total = counts.sum()
    p_v = counts.sum(axis=1) / total
    p_g = counts.sum(axis=0) / total

    max_dev: dict[Gender, float] = {}
    rank_corr: dict[Gender, float] = {}
    for j, gender in enumerate(GENDERS):
        tau = np.exp(result.eta[:, j] - result.eta[:, j].max())
        tau /= tau.sum()
        epmi = (counts[:, j] / total) / (p_v * p_g[j])
        epmi /= epmi.sum()
        max_dev[gender] = float(np.abs(tau - epmi).max())
        rank_corr[gender] = _rank_correlation(tau, epmi)
    return Prop1Report(max_deviation=max_dev, rank_correlation=rank_corr, restricted=result)
