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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .corpus import CountTable, Gender, GenderLexicon, Number
from .errors import DataError, NumericalError
from .lexicons import SENTIMENTS, Sentiment, SentimentPrior


@dataclass(frozen=True)
class FeatureSpace:
    """Ordered lexical feature basis: lemmas, then MASC/FEM, then SG/PL."""

    lemmas: tuple[str, ...]
    form_bits: dict[str, tuple[int, int, int]]  # form -> feature positions

    @classmethod
    def from_lexicon(cls, lex: GenderLexicon) -> "FeatureSpace":
        lemmas = tuple(sorted(lex.lemmas))
        lemma_pos = {lemma: i for i, lemma in enumerate(lemmas)}
        size = len(lemmas)
        bits = {}
        for form, entry in lex.entries.items():
            gender_pos = size + (0 if entry.gender is Gender.MASC else 1)
            number_pos = size + 2 + (0 if entry.number is Number.SG else 1)
            bits[form] = (lemma_pos[entry.lemma], gender_pos, number_pos)
        return cls(lemmas=lemmas, form_bits=bits)

    @property
    def dim(self) -> int:
        return len(self.lemmas) + 4

    @property
    def masc_index(self) -> int:
        return len(self.lemmas)

    @property
    def fem_index(self) -> int:
        return len(self.lemmas) + 1

    def gender_index(self, gender: Gender) -> int:
        return self.masc_index if gender is Gender.MASC else self.fem_index

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

    def gender_of(self, form: str) -> Gender:
        return Gender.MASC if self._bits(form)[1] == self.masc_index else Gender.FEM


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
    def n_sentiments(self) -> int:
        return self.eta.shape[1]

    def vocab_index(self, neighbor: str) -> int:
        try:
            return self.vocab.index(neighbor)
        except ValueError:
            raise DataError(f"neighbor {neighbor!r} not in model vocabulary") from None

    def form_index(self, form: str) -> int:
        try:
            return self.forms.index(form)
        except ValueError:
            raise DataError(f"noun form {form!r} not in model") from None

    def copy(self) -> "ModelParams":
        return ModelParams(self.vocab, self.forms, self.m.copy(), self.eta.copy(),
                           self.omega.copy(), self.xi.copy())


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run.

    alpha weighs the L1 penalty on eta, beta the posterior regularizer.
    Training is deterministic given (data, config): the seed is recorded for
    provenance and fanned out to downstream resampling, not used by the
    optimizer itself.
    """

    alpha: float = 0.0
    beta: float = 0.0
    learning_rate: float = 0.1
    max_iterations: int = 20000
    tolerance: float = 1e-7
    seed: int = 0
    n_sentiments: int = 3

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.n_sentiments not in (1, 3):
            raise ValueError("n_sentiments must be 1 or 3")
        if self.n_sentiments == 1 and self.beta != 0:
            raise ValueError("posterior regularizer requires the 3-sentiment model")


def sentiment_index(params: ModelParams, sentiment: Sentiment | None) -> int:
    if params.n_sentiments == 1:
        if sentiment is not None:
            raise DataError("sentiment-collapsed model has no sentiment axes")
        return 0
    if sentiment is None:
        raise DataError("full model requires a sentiment")
    return SENTIMENTS.index(sentiment)


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


def prior_arrays(prior: SentimentPrior | None, vocab: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """q(s | v) rows and a mask of vocabulary words present in the prior."""
    q = np.zeros((len(vocab), 3))
    mask = np.zeros(len(vocab), dtype=bool)
    if prior is not None:
        for i, word in enumerate(vocab):
            triple = prior.get(word)
            if triple is not None:
                q[i] = triple
                mask[i] = True
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


def cond_neighbor(params: ModelParams, space: FeatureSpace, form: str,
                  sentiment: Sentiment | None = None) -> np.ndarray:
    """p(v | s, n) = softmax over V of m_v + f_n . eta(v, s).

    f_n has exactly three active bits, so the dot product is the sum of the
    three eta columns the form's lemma, gender and number select.
    """
    s = sentiment_index(params, sentiment)
    scores = params.m + params.eta[:, s, list(space._bits(form))].sum(axis=1)
    return _softmax(scores, axis=-1)


def sent_given_noun(params: ModelParams, form: str) -> np.ndarray:
    """p(s | n) = softmax of the noun form's omega row."""
    return _softmax(params.omega[params.form_index(form)], axis=-1)


def noun_prior(params: ModelParams) -> np.ndarray:
    """p(n) = softmax(xi)."""
    return _softmax(params.xi, axis=-1)


def joint_marginal(params: ModelParams, space: FeatureSpace) -> np.ndarray:
    """Sentiment-marginalized joint p(v, n), shape (|V|, |G|); sums to 1."""
    return _forward(params, space.feature_matrix(params.forms)).J


def sentiment_posterior(params: ModelParams, space: FeatureSpace, neighbor: str) -> np.ndarray:
    """p(s | v): the model's sentiment posterior for one neighbor."""
    fw = _forward(params, space.feature_matrix(params.forms))
    v = params.vocab_index(neighbor)
    return fw.N[v] / fw.rho[v]


# ---------------------------------------------------------------------------
# Objective and gradient


def _kl_rows(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Row-wise KL(q || p) with the 0 log 0 = 0 convention."""
    ratio = np.zeros_like(q)
    pos = q > 0
    ratio[pos] = q[pos] * (np.log(q[pos]) - np.log(p[pos]))
    return ratio.sum(axis=-1)


def _objective_from(fw: _Forward, p_hat: np.ndarray, eta: np.ndarray,
                    q: np.ndarray, mask: np.ndarray, alpha: float, beta: float) -> float:
    ll = float(np.sum(p_hat * np.log(np.maximum(fw.J, 1e-300))))
    value = ll - alpha * float(np.abs(eta).sum())
    if beta > 0 and mask.any():
        posterior = fw.N / fw.rho[:, None]
        value -= beta * float(_kl_rows(q[mask], posterior[mask]).sum())
    return value


def _gradient_from(fw: _Forward, p_hat: np.ndarray, q: np.ndarray, mask: np.ndarray,
                   alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # dO/dM for the likelihood and (when active) the regularizer; everything
    # else is the softmax chain rule applied once to the shared joint M.
    C = (p_hat / fw.J)[:, None, :]
    if beta > 0 and mask.any():
        reg = beta * mask[:, None] * (q / np.maximum(fw.N, 1e-300) - 1.0 / fw.rho[:, None])
        C = C + reg[:, :, None]
    E = (C * fw.A).sum(axis=0)                      # (S, G)
    Gu = fw.M * (C - E[None, :, :])
    g_eta = Gu @ fw.F - alpha
    BE = (fw.B * E).sum(axis=0)                     # (G,)
    g_omega = (fw.c[None, :] * fw.B * (E - BE[None, :])).T
    K = (C * fw.A * fw.B[None, :, :]).sum(axis=(0, 1))
    g_xi = fw.c * (K - float((fw.c * K).sum()))
    return g_eta, g_omega, g_xi


def _check_regularizer_inputs(prior: SentimentPrior | None, config: TrainConfig) -> None:
    if config.beta > 0 and (prior is None or len(prior) == 0):
        raise DataError("posterior regularization (beta > 0) requires a sentiment lexicon")


def objective(params: ModelParams, space: FeatureSpace, table: CountTable,
              prior: SentimentPrior | None, config: TrainConfig) -> float:
    """Maximized objective: likelihood - alpha*||eta||_1 - beta*sum KL(q || p(s|v)).

    The KL sum runs over vocabulary words present in the sentiment prior;
    its constant entropy part is included via the exact KL, which is zero
    iff the posterior matches the prior.
    """
    _check_regularizer_inputs(prior, config)
    fw = _forward(params, space.feature_matrix(params.forms))
    q, mask = prior_arrays(prior if config.beta > 0 else None, params.vocab)
    return _objective_from(fw, table.p_hat(), params.eta, q, mask, config.alpha, config.beta)


def gradient(params: ModelParams, space: FeatureSpace, table: CountTable,
             prior: SentimentPrior | None, config: TrainConfig
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradient of the objective w.r.t. (eta, omega, xi).

    The L1 term contributes -alpha to every eta coordinate; on the
    non-negative feasible set this is the correct subgradient at eta = 0 as
    well as the exact derivative in the interior.
    """
    _check_regularizer_inputs(prior, config)
    fw = _forward(params, space.feature_matrix(params.forms))
    q, mask = prior_arrays(prior if config.beta > 0 else None, params.vocab)
    return _gradient_from(fw, table.p_hat(), q, mask, config.alpha, config.beta)


def mean_posterior_kl(params: ModelParams, space: FeatureSpace, prior: SentimentPrior) -> float:
    """Mean KL(q || p(s|v)) over vocabulary words covered by the prior."""
    fw = _forward(params, space.feature_matrix(params.forms))
    q, mask = prior_arrays(prior, params.vocab)
    if not mask.any():
        raise DataError("no vocabulary word is covered by the sentiment prior")
    posterior = fw.N / fw.rho[:, None]
    return float(_kl_rows(q[mask], posterior[mask]).mean())


# ---------------------------------------------------------------------------
# Training


@dataclass
class TrainResult:
    params: ModelParams
    trace: list[float]
    iterations: int
    converged: bool
    config: TrainConfig


# Adam's published defaults (Kingma & Ba, 2015) and the number of accepted
# steps the convergence test looks back over.  Checkpoints record all four.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
WINDOW = 50


class _Adam:
    """Adam ascent state for one parameter array.

    step() rebinds (never mutates) the moment arrays, so a pre-step snapshot
    of the state tuple is enough to roll a rejected step back.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.mom = np.zeros(shape)
        self.vel = np.zeros(shape)
        self.t = 0

    def step(self, x: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        self.t += 1
        self.mom = ADAM_BETA1 * self.mom + (1.0 - ADAM_BETA1) * grad
        self.vel = ADAM_BETA2 * self.vel + (1.0 - ADAM_BETA2) * grad * grad
        mhat = self.mom / (1.0 - ADAM_BETA1 ** self.t)
        vhat = self.vel / (1.0 - ADAM_BETA2 ** self.t)
        return x + lr * mhat / (np.sqrt(vhat) + ADAM_EPSILON)

    def snapshot(self) -> tuple:
        return (self.mom, self.vel, self.t)

    def restore(self, state: tuple) -> None:
        self.mom, self.vel, self.t = state


def train(table: CountTable, space: FeatureSpace, prior: SentimentPrior | None,
          config: TrainConfig) -> TrainResult:
    """Adam ascent on the objective with eta projected to [0, inf) each step.

    Steps that measurably decrease the objective are rejected (Adam state
    rolled back) and the learning rate is halved, so the trace of accepted
    objective values has a monotone tail; the rate is also halved when a
    full window passes without relative progress.  The run stops once the
    windowed relative change falls below the tolerance, the rate anneals
    away, or the iteration cap is reached; only the first of these sets
    `converged`.  Identical inputs give bitwise-identical parameters.
    """
    _check_regularizer_inputs(prior, config)
    params = init_params(table, space, config.n_sentiments)
    p_hat = table.p_hat()
    q, mask = prior_arrays(prior if config.beta > 0 else None, params.vocab)

    adam_eta = _Adam(params.eta.shape)
    adam_omega = _Adam(params.omega.shape)
    adam_xi = _Adam(params.xi.shape)

    fw = _forward(params, space.feature_matrix(params.forms))
    value = _objective_from(fw, p_hat, params.eta, q, mask, config.alpha, config.beta)
    if not np.isfinite(value):
        raise NumericalError(f"objective not finite at initialization: {value!r}")
    trace: list[float] = [value]
    lr = config.learning_rate
    converged = False
    plateau_rel = 200.0 * config.tolerance
    last_halve = 0
    accepted = 0

    while accepted < config.max_iterations:
        snapshots = (adam_eta.snapshot(), adam_omega.snapshot(), adam_xi.snapshot())
        g_eta, g_omega, g_xi = _gradient_from(fw, p_hat, q, mask, config.alpha, config.beta)
        eta_new = np.maximum(adam_eta.step(params.eta, g_eta, lr), 0.0)
        omega_new = adam_omega.step(params.omega, g_omega, lr)
        xi_new = adam_xi.step(params.xi, g_xi, lr)
        candidate = ModelParams(params.vocab, params.forms, params.m, eta_new, omega_new, xi_new)
        fw_new = _forward(candidate, fw.F)
        value_new = _objective_from(fw_new, p_hat, eta_new, q, mask, config.alpha, config.beta)
        if not np.isfinite(value_new):
            raise NumericalError(f"objective diverged to {value_new!r} after {accepted} iterations")

        reject_slack = min(config.tolerance * (1.0 + abs(value)), 2.5e-7)
        if value_new < value - reject_slack:
            adam_eta.restore(snapshots[0])
            adam_omega.restore(snapshots[1])
            adam_xi.restore(snapshots[2])
            lr *= 0.5
            if lr < 1e-12:
                break
            continue

        params, fw, value = candidate, fw_new, value_new
        accepted += 1
        trace.append(value)
        if accepted > WINDOW:
            prev = trace[accepted - WINDOW]
            delta = value - prev
            scale = 1.0 + abs(prev)
            if abs(delta) < config.tolerance * scale:
                converged = True
                break
            if delta < plateau_rel * scale and accepted - last_halve >= WINDOW:
                lr *= 0.5
                last_halve = accepted
                if lr < 1e-12:
                    break

    return TrainResult(params=params, trace=trace, iterations=accepted,
                       converged=converged, config=config)


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
    so the result is deterministic regardless of scheduling.
    """
    cells = [(a, b) for a in alphas for b in betas]
    if not cells:
        raise DataError("hyperparameter grid is empty")

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
