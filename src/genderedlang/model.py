"""Latent-sentiment log-linear model of neighbor choice given noun features.

The generative story factorizes p(neighbor, noun, sentiment) as
p(neighbor | sentiment, noun) * p(sentiment | noun) * p(noun), where the
neighbor factor is a log-linear deviation from a fixed background
log-distribution: p(v | s, n) ~ exp(m_v + f_n . eta(v, s)).  Sentiment is
latent, so training maximizes the expected log of the sentiment-marginalized
joint under the empirical distribution, minus an L1 penalty on the
non-negative deviations and a KL posterior regularizer pulling the model's
p(sentiment | neighbor) toward an external sentiment prior.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .corpus import GENDERS, CountTable, Gender, GenderLexicon, LexiconEntry, Number
from .errors import DataError, NumericalError
from .lexicons import SENTIMENTS, Sentiment, SentimentPrior


@dataclass(frozen=True)
class FeatureSpace:
    """Ordered lexical feature basis: lemmas, then the GENDERS, then SG/PL."""

    lemmas: tuple[str, ...]
    entries: dict[str, LexiconEntry]            # form -> (lemma, gender, number)
    form_bits: dict[str, tuple[int, int, int]]  # form -> feature positions

    @classmethod
    def from_lexicon(cls, lex: GenderLexicon) -> "FeatureSpace":
        lemmas = tuple(sorted({entry.lemma for entry in lex.entries.values()}))
        lemma_pos = {lemma: i for i, lemma in enumerate(lemmas)}
        size = len(lemmas)
        bits = {}
        for form, entry in lex.entries.items():
            gender_pos = size + GENDERS.index(entry.gender)
            number_pos = size + 2 + (0 if entry.number is Number.SG else 1)
            bits[form] = (lemma_pos[entry.lemma], gender_pos, number_pos)
        return cls(lemmas=lemmas, entries=lex.entries, form_bits=bits)

    @property
    def dim(self) -> int:
        return len(self.lemmas) + 4

    @property
    def masc_index(self) -> int:
        return self.gender_index(Gender.MASC)

    @property
    def fem_index(self) -> int:
        return self.gender_index(Gender.FEM)

    def gender_index(self, gender: Gender) -> int:
        return len(self.lemmas) + GENDERS.index(gender)

    def _bits(self, form: str) -> tuple[int, int, int]:
        try:
            return self.form_bits[form]
        except KeyError:
            raise DataError(f"unknown noun form {form!r}") from None

    def feature_matrix(self, forms: Sequence[str]) -> np.ndarray:
        """(G, T) one-hot matrix: row g sets the lemma, gender and number bits of forms[g]."""
        idx = np.array([self._bits(form) for form in forms], dtype=np.intp).reshape(len(forms), 3)
        F = np.zeros((len(forms), self.dim))
        np.put_along_axis(F, idx, 1.0, axis=1)
        return F


@dataclass
class ModelParams:
    """Model state: fixed background m plus learned eta/omega/xi.

    vocab and forms pin the axis order of every array; eta has shape
    (|V|, S, T) with S = 3 for the full model and 1 for the
    sentiment-collapsed variant.
    """

    vocab: tuple[str, ...]
    forms: tuple[str, ...]
    m: np.ndarray
    eta: np.ndarray
    omega: np.ndarray
    xi: np.ndarray

    @property
    def sentiments(self) -> tuple[Sentiment | None, ...]:
        """The sentiment of each eta slot; (None,) for the collapsed model."""
        return SENTIMENTS if self.eta.shape[1] == 3 else (None,)

    def vocab_index(self, neighbor: str) -> int:
        try:
            return self.vocab.index(neighbor)
        except ValueError:
            raise DataError(f"neighbor {neighbor!r} not in model vocabulary") from None


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run.

    alpha weighs the L1 penalty on eta, beta the posterior regularizer.
    Training is deterministic given (data, config).
    """

    alpha: float = 0.0
    beta: float = 0.0
    max_iterations: int = 20000
    tolerance: float = 1e-4
    n_sentiments: int = 3

    def __post_init__(self) -> None:
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):  # NaN fails too
            raise ValueError("alpha and beta must be non-negative and finite")
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.n_sentiments not in (1, 3):
            raise ValueError("n_sentiments must be 1 or 3")
        if self.n_sentiments == 1 and self.beta != 0:
            raise ValueError("posterior regularizer requires the 3-sentiment model")


# ---------------------------------------------------------------------------
# Softmax primitives


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


@dataclass
class _Forward:
    """All distributions of one forward pass, in (V, S, G) layout."""

    F: np.ndarray     # (G, T) one-hot features of params.forms
    A: np.ndarray     # p(v | s, n), softmax over axis 0
    B: np.ndarray     # p(s | n), shape (S, G)
    c: np.ndarray     # p(n), shape (G,)
    M: np.ndarray     # joint p(v, s, n)
    J: np.ndarray     # p(v, n) = sum_s M
    N: np.ndarray     # p(v, s) = sum_n M
    rho: np.ndarray   # p(v) = sum_{s,n} M


def _forward(params: ModelParams, F: np.ndarray) -> _Forward:
    U = params.m[:, None, None] + params.eta @ F.T
    A = _softmax(U, axis=0)
    B = _softmax(params.omega, axis=-1).T
    c = _softmax(params.xi, axis=-1)
    M = A * B[None, :, :] * c[None, None, :]
    J = M.sum(axis=1)
    N = M.sum(axis=2)
    rho = N.sum(axis=1)
    return _Forward(F=F, A=A, B=B, c=c, M=M, J=J, N=N, rho=rho)


def _regularizer(prior: SentimentPrior | None, vocab: Sequence[str], beta: float
                 ) -> tuple[np.ndarray, np.ndarray] | None:
    """q(s | v) rows and the mask of vocabulary words in the prior when beta > 0, else None.

    With no word covered (no prior, an empty one or no overlap) the term
    would vanish, so beta > 0 is then a DataError.
    """
    if beta == 0:
        return None
    q = np.zeros((len(vocab), len(SENTIMENTS)))
    mask = np.zeros(len(vocab), dtype=bool)
    if prior is not None:
        for i, word in enumerate(vocab):
            triple = prior.get(word)
            if triple is not None:
                q[i], mask[i] = triple, True
    if not mask.any():
        raise DataError(f"posterior regularization (beta={beta:g}) requires a sentiment "
                        "lexicon that covers at least one vocabulary word")
    return q, mask


# ---------------------------------------------------------------------------
# Model distributions (public surface)


def init_params(table: CountTable, space: FeatureSpace, n_sentiments: int = 3) -> ModelParams:
    """Independence-baseline initialization: zeros plus empirical log-marginals."""
    p_hat = table.p_hat()
    p_v = p_hat.sum(axis=1)
    p_n = p_hat.sum(axis=0)
    return ModelParams(
        vocab=table.vocab,
        forms=table.forms,
        m=np.log(p_v),
        eta=np.zeros((len(table.vocab), n_sentiments, space.dim)),
        omega=np.zeros((len(table.forms), n_sentiments)),
        xi=np.log(p_n),
    )


def joint_marginal(params: ModelParams, space: FeatureSpace) -> np.ndarray:
    """Sentiment-marginalized joint p(v, n), shape (|V|, |G|); sums to 1."""
    return _forward(params, space.feature_matrix(params.forms)).J


# ---------------------------------------------------------------------------
# Objective and gradient


def _kl_rows(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Row-wise KL(q || p) with the 0 log 0 = 0 convention."""
    ratio = np.zeros_like(q)
    pos = q > 0
    ratio[pos] = q[pos] * (np.log(q[pos]) - np.log(p[pos]))
    return ratio.sum(axis=-1)


def _objective_from(fw: _Forward, p_hat: np.ndarray, eta: np.ndarray,
                    reg: tuple[np.ndarray, np.ndarray] | None, alpha: float, beta: float) -> float:
    ll = float(np.sum(p_hat * np.log(np.maximum(fw.J, 1e-300))))
    value = ll - alpha * float(np.abs(eta).sum())
    if reg is not None:
        q, mask = reg
        posterior = fw.N / fw.rho[:, None]
        value -= beta * float(_kl_rows(q[mask], posterior[mask]).sum())
    return value


def _gradient_from(fw: _Forward, p_hat: np.ndarray, reg: tuple[np.ndarray, np.ndarray] | None,
                   alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # dO/dM for the likelihood and (when active) the regularizer; everything
    # else is the softmax chain rule applied once to the shared joint M.
    C = (p_hat / fw.J)[:, None, :]
    if reg is not None:
        q, mask = reg
        dkl = beta * mask[:, None] * (q / np.maximum(fw.N, 1e-300) - 1.0 / fw.rho[:, None])
        C = C + dkl[:, :, None]
    E = (C * fw.A).sum(axis=0)                      # (S, G)
    Gu = fw.M * (C - E[None, :, :])
    g_eta = Gu @ fw.F - alpha
    BE = (fw.B * E).sum(axis=0)                     # (G,)
    g_omega = (fw.c[None, :] * fw.B * (E - BE[None, :])).T
    K = (C * fw.A * fw.B[None, :, :]).sum(axis=(0, 1))
    g_xi = fw.c * (K - float((fw.c * K).sum()))
    return g_eta, g_omega, g_xi


def objective(params: ModelParams, space: FeatureSpace, table: CountTable,
              prior: SentimentPrior | None, config: TrainConfig) -> float:
    """Maximized objective: likelihood - alpha*||eta||_1 - beta*sum KL(q || p(s|v)).

    The KL sum runs over vocabulary words present in the sentiment prior;
    its constant entropy part is included via the exact KL, which is zero
    iff the posterior matches the prior.
    """
    reg = _regularizer(prior, params.vocab, config.beta)
    fw = _forward(params, space.feature_matrix(params.forms))
    return _objective_from(fw, table.p_hat(), params.eta, reg, config.alpha, config.beta)


def gradient(params: ModelParams, space: FeatureSpace, table: CountTable,
             prior: SentimentPrior | None, config: TrainConfig
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradient of the objective w.r.t. (eta, omega, xi).

    The L1 term contributes -alpha to every eta coordinate; on the
    non-negative feasible set this is the correct subgradient at eta = 0 as
    well as the exact derivative in the interior.
    """
    reg = _regularizer(prior, params.vocab, config.beta)
    fw = _forward(params, space.feature_matrix(params.forms))
    return _gradient_from(fw, table.p_hat(), reg, config.alpha, config.beta)


# ---------------------------------------------------------------------------
# Training


@dataclass
class TrainResult:
    params: ModelParams
    trace: list[float]
    iterations: int
    converged: bool
    config: TrainConfig
    stop_reason: str          # "tolerance" | "max_iterations" | "line_search"
    kkt_residual: float       # inf-norm of the projected gradient at params


# Projected L-BFGS: stored (s, y) pairs, the Armijo sufficient-decrease
# constant, the backtracking factor and the halvings tried per direction.
MEMORY = 5
ARMIJO = 1e-4
BACKTRACK = 0.5
MAX_HALVINGS = 40


def _two_loop(g: np.ndarray, pairs: list[tuple[np.ndarray, np.ndarray, float]]) -> np.ndarray:
    """H g for the L-BFGS inverse-Hessian estimate H of the stored (s, y, 1/s.y) pairs."""
    q, coefs = g.copy(), []
    for s, y, rho in reversed(pairs):
        coefs.append(rho * float(s @ q))
        q -= coefs[-1] * y
    if pairs:
        s, y, _ = pairs[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(pairs, reversed(coefs)):
        q += (a - rho * float(y @ q)) * s
    return q


def _lbfgs(fun, x: np.ndarray, n_bounded: int, tol: float, max_iterations: int
           ) -> tuple[np.ndarray, list[float], str, float]:
    """Minimize fun over {x : x[:n_bounded] >= 0} by projected L-BFGS.

    fun(x) returns (value, gradient).  Each step takes the L-BFGS direction
    of the projected gradient, holds the coordinates at zero that the
    gradient or the direction points below zero, and backtracks along the
    projected path max(x + t d, 0) until the Armijo condition holds.  The
    run stops when the projected gradient's inf-norm (the KKT residual) is
    at most tol ("tolerance"), after max_iterations steps
    ("max_iterations"), or when MAX_HALVINGS halvings find no sufficient
    decrease ("line_search").  Returns the last iterate, fun's value at
    every iterate, the stop reason and the residual.  A non-finite value
    raises NumericalError.
    """
    lower = np.where(np.arange(x.size) < n_bounded, 0.0, -np.inf)
    f, g = fun(x)
    values, pairs = [f], []
    while np.isfinite(f):
        pinned = x <= lower
        pg = np.where(pinned & (g > 0), 0.0, g)
        residual = float(np.abs(pg).max())
        if residual <= tol:
            return x, values, "tolerance", residual
        if len(values) > max_iterations:
            return x, values, "max_iterations", residual
        d = -_two_loop(pg, pairs)
        d[pinned & ((g > 0) | (d < 0))] = 0.0
        if float(d @ pg) >= 0:  # not a descent direction: restart from steepest descent
            pairs, d = [], -pg
        t = 1.0
        for _ in range(MAX_HALVINGS):
            x_new = np.maximum(x + t * d, lower)
            s = x_new - x
            f_new, g_new = fun(x_new)
            if f_new <= f + ARMIJO * float(g @ s) or not np.isfinite(f_new):
                break
            t *= BACKTRACK
        else:
            return x, values, "line_search", residual
        y = g_new - g
        if float(s @ y) > 0:
            pairs = [*pairs, (s, y, 1.0 / float(s @ y))][-MEMORY:]
        x, f, g = x_new, f_new, g_new
        values.append(f)
    raise NumericalError(f"objective not finite at iterate {len(values) - 1}")


def train(table: CountTable, space: FeatureSpace, prior: SentimentPrior | None,
          config: TrainConfig) -> TrainResult:
    """Maximize the objective over (eta >= 0, omega, xi) by projected L-BFGS.

    The run starts from init_params and stops once the KKT residual, the
    inf-norm of the projected gradient, is at most the tolerance; only that
    stop sets `converged`.  The trace holds the objective at every iterate.
    Identical inputs give bitwise-identical parameters.
    """
    reg = _regularizer(prior, table.vocab, config.beta)
    params = init_params(table, space, config.n_sentiments)
    p_hat = table.p_hat()
    F = space.feature_matrix(params.forms)
    n_eta, n_omega = params.eta.size, params.omega.size

    def unpack(x: np.ndarray) -> ModelParams:
        return ModelParams(params.vocab, params.forms, params.m,
                           x[:n_eta].reshape(params.eta.shape),
                           x[n_eta:n_eta + n_omega].reshape(params.omega.shape),
                           x[n_eta + n_omega:])

    def negated(x: np.ndarray) -> tuple[float, np.ndarray]:
        candidate = unpack(x)
        fw = _forward(candidate, F)
        value = _objective_from(fw, p_hat, candidate.eta, reg, config.alpha, config.beta)
        grads = _gradient_from(fw, p_hat, reg, config.alpha, config.beta)
        return -value, -np.concatenate([g.ravel() for g in grads])

    x0 = np.concatenate([params.eta.ravel(), params.omega.ravel(), params.xi.ravel()])
    x, values, reason, residual = _lbfgs(negated, x0, n_eta, config.tolerance,
                                         config.max_iterations)
    return TrainResult(params=unpack(x), trace=[-v for v in values], iterations=len(values) - 1,
                       converged=reason == "tolerance", config=config, stop_reason=reason,
                       kkt_residual=residual)


@dataclass
class GridResult:
    params: ModelParams
    runs: dict[tuple[float, float], TrainResult] = field(default_factory=dict)


def grid_train_average(table: CountTable, space: FeatureSpace, prior: SentimentPrior | None,
                       alphas: Iterable[float], betas: Iterable[float],
                       base_config: TrainConfig, jobs: int = 1) -> GridResult:
    """Train one model per (alpha, beta) cell and average eta/omega/xi.

    The background m is shared by construction.  Cells run independently
    (optionally in a thread pool); the average is taken in fixed grid order,
    so the result is deterministic regardless of scheduling.  A cell listed
    twice, and a beta > 0 cell without a prior covering the vocabulary, are
    DataErrors raised before any cell trains.
    """
    cells = [(a, b) for a in alphas for b in betas]
    if not cells:
        raise DataError("hyperparameter grid is empty")
    repeated = sorted({cell for cell in cells if cells.count(cell) > 1})
    if repeated:  # `runs` keeps one result per cell, so the average must too
        raise DataError(f"repeated grid cell(s) (alpha, beta): {repeated}")
    _regularizer(prior, table.vocab, max(b for _, b in cells))

    def run_cell(cell: tuple[float, float]) -> TrainResult:
        a, b = cell
        try:
            return train(table, space, prior, replace(base_config, alpha=a, beta=b))
        except NumericalError as err:
            raise NumericalError(f"grid cell (alpha={a}, beta={b}) failed: {err}") from err

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_cell, cells))
    else:
        results = [run_cell(cell) for cell in cells]

    runs = dict(zip(cells, results))
    first = results[0].params
    avg = ModelParams(
        vocab=first.vocab,
        forms=first.forms,
        m=first.m.copy(),
        eta=np.mean([r.params.eta for r in results], axis=0),
        omega=np.mean([r.params.omega for r in results], axis=0),
        xi=np.mean([r.params.xi for r in results], axis=0),
    )
    return GridResult(params=avg, runs=runs)
