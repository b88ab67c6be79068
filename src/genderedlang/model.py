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
import numbers
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
    sentiment-collapsed variant, which train fits at beta = 0.
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

    def __post_init__(self) -> None:
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):  # NaN fails too
            raise ValueError("alpha and beta must be non-negative and finite")
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        value = self.max_iterations  # bool is an int but no count
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError("max_iterations must be an integer")
        if value < 1:
            raise ValueError("max_iterations must be positive")


# ---------------------------------------------------------------------------
# The evaluation kernel


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Softmax of x along axis, computed in x itself."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def _kl_rows(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Row-wise KL(q || p) with the 0 log 0 = 0 convention."""
    ratio = np.zeros_like(q)
    pos = q > 0
    ratio[pos] = q[pos] * (np.log(q[pos]) - np.log(p[pos]))
    return ratio.sum(axis=-1)


class _Kernel:
    """The model's one evaluation path: its distributions, objective and gradient.

    A kernel is built for one parameter layout and feature space and, for the
    objective and gradient, one (p_hat, regularizer, alpha, beta).  It owns
    its (V, S, G) work arrays, so repeated evaluations (a training run)
    allocate none; a kernel serves one thread.  forward() fills
    A = p(v | s, n), B = p(s | n) of shape (S, G), c = p(n), the joint
    M = p(v, s, n) and its marginals J = p(v, n), N = p(v, s) and rho = p(v).
    Each product and sum keeps its operands and order, because training
    outputs are reproducible bit for bit (ROADMAP.md lists the rules).
    """

    def __init__(self, params: ModelParams, space: FeatureSpace, p_hat: np.ndarray | None = None,
                 reg: tuple[np.ndarray, np.ndarray] | None = None, alpha: float = 0.0,
                 beta: float = 0.0):
        n_vocab, n_sent, _ = params.eta.shape
        shape = (n_vocab, n_sent, len(params.forms))
        self.eta_shape, self.omega_shape = params.eta.shape, params.omega.shape
        self.m = params.m[:, None, None]
        self.F = space.feature_matrix(params.forms)
        self.p_hat, self.reg, self.alpha, self.beta = p_hat, reg, alpha, beta
        self.A, self.M = np.empty(shape), np.empty(shape)
        self.J, self.N, self.rho = np.empty(shape[::2]), np.empty(shape[:2]), np.empty(n_vocab)
        self._work = np.empty(shape[::2])                  # log J, then p_hat / J
        if reg is not None:
            self._q, self._mask = reg
            self._covered, self._beta_mask = self._q[self._mask], beta * self._mask[:, None]
            self._C = np.empty(shape)

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of a flat x = (eta, omega, xi) in the kernel's layout."""
        n_eta = math.prod(self.eta_shape)
        n_head = n_eta + math.prod(self.omega_shape)
        return (x[:n_eta].reshape(self.eta_shape), x[n_eta:n_head].reshape(self.omega_shape),
                x[n_head:])

    def forward(self, eta: np.ndarray, omega: np.ndarray, xi: np.ndarray) -> None:
        """Fill the model's distributions at (eta, omega, xi)."""
        n_vocab, n_sent, n_feat = self.eta_shape
        np.matmul(eta.reshape(n_vocab * n_sent, n_feat), self.F.T,  # one gemm for U
                  out=self.A.reshape(n_vocab * n_sent, self.A.shape[2]))
        self.A += self.m
        _softmax(self.A, axis=0)
        self.B = _softmax(np.array(omega), axis=-1).T
        self.c = _softmax(np.array(xi), axis=-1)
        np.multiply(self.A, self.B, out=self.M)
        self.M *= self.c
        np.copyto(self.J, self.M[:, 0])
        for s in range(1, n_sent):
            self.J += self.M[:, s]
        self.M.sum(axis=2, out=self.N)
        self.N.sum(axis=1, out=self.rho)

    def objective(self, eta: np.ndarray, work: np.ndarray | None = None) -> float:
        """The objective after forward(); work, if given, is eta-shaped scratch."""
        log_j = np.log(np.maximum(self.J, 1e-300, out=self._work), out=self._work)
        value = float(np.multiply(log_j, self.p_hat, out=log_j).sum())
        if self.alpha:
            value -= self.alpha * float(np.abs(eta, out=work).sum())
        if self.reg is not None:
            posterior = self.N / self.rho[:, None]
            value -= self.beta * float(_kl_rows(self._covered, posterior[self._mask]).sum())
        return value

    def negated_gradient(self, out: np.ndarray) -> None:
        """Write the objective's negated gradient at the last forward() into the flat out.

        dO/dM for the likelihood and (when active) the regularizer is C;
        everything else is the softmax chain rule applied once to the
        shared joint M.  A serves as work space, so forward() must run again
        before the next call.
        """
        C = np.divide(self.p_hat, self.J, out=self._work)[:, None, :]
        if self.reg is not None:
            dkl = self._beta_mask * (self._q / np.maximum(self.N, 1e-300)
                                     - 1.0 / self.rho[:, None])
            C = np.add(C, dkl[:, :, None], out=self._C)
        CA = self.A
        CA *= C
        E = CA.sum(axis=0)                                # (S, G)
        CA *= self.B
        K = CA.sum(axis=(0, 1))                           # (G,)
        Gu = np.subtract(C, E, out=self.A)
        Gu *= self.M
        g_eta, g_omega, g_xi = self.unpack(out)
        np.matmul(Gu, self.F, out=g_eta)
        g_eta -= self.alpha
        np.negative(g_eta, out=g_eta)
        BE = (self.B * E).sum(axis=0)                     # (G,)
        np.negative((self.c[None, :] * self.B * (E - BE[None, :])).T, out=g_omega)
        np.negative(self.c * (K - float((self.c * K).sum())), out=g_xi)

    def negated(self, x: np.ndarray, out: np.ndarray) -> float:
        """The objective's negation at the flat x; its gradient goes to out."""
        eta, omega, xi = self.unpack(x)
        self.forward(eta, omega, xi)
        value = self.objective(eta, work=self.unpack(out)[0])  # out is free until the gradient
        self.negated_gradient(out)
        return -value


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
    kernel = _Kernel(params, space)
    kernel.forward(params.eta, params.omega, params.xi)
    return kernel.J


# ---------------------------------------------------------------------------
# Objective and gradient


def _kernel_at(params: ModelParams, space: FeatureSpace, table: CountTable,
               prior: SentimentPrior | None, config: TrainConfig) -> _Kernel:
    reg = _regularizer(prior, params.vocab, config.beta)
    kernel = _Kernel(params, space, table.p_hat(), reg, config.alpha, config.beta)
    kernel.forward(params.eta, params.omega, params.xi)
    return kernel


def objective(params: ModelParams, space: FeatureSpace, table: CountTable,
              prior: SentimentPrior | None, config: TrainConfig) -> float:
    """Maximized objective: likelihood - alpha*||eta||_1 - beta*sum KL(q || p(s|v)).

    The KL sum runs over vocabulary words present in the sentiment prior;
    its constant entropy part is included via the exact KL, which is zero
    iff the posterior matches the prior.
    """
    return _kernel_at(params, space, table, prior, config).objective(params.eta)


def gradient(params: ModelParams, space: FeatureSpace, table: CountTable,
             prior: SentimentPrior | None, config: TrainConfig
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradient of the objective w.r.t. (eta, omega, xi).

    The L1 term contributes -alpha to every eta coordinate; on the
    non-negative feasible set this is the correct subgradient at eta = 0 as
    well as the exact derivative in the interior.
    """
    kernel = _kernel_at(params, space, table, prior, config)
    out = np.empty(params.eta.size + params.omega.size + params.xi.size)
    kernel.negated_gradient(out)
    return kernel.unpack(np.negative(out, out=out))


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


def _two_loop(q: np.ndarray, pairs: list[tuple[np.ndarray, np.ndarray, float, float]],
              work: np.ndarray) -> None:
    """Overwrite q with H q for the L-BFGS inverse-Hessian estimate H of the stored pairs.

    Each pair is (s, y, 1/s.y, s.y/y.y); work is scratch of q's size.
    """
    coefs = []
    for s, y, rho, _ in reversed(pairs):
        coefs.append(rho * float(s @ q))
        q -= np.multiply(y, coefs[-1], out=work)
    if pairs:
        q *= pairs[-1][3]
    for (s, y, rho, _), a in zip(pairs, reversed(coefs)):
        q += np.multiply(s, a - rho * float(y @ q), out=work)


def _lbfgs(fun, x: np.ndarray, n_bounded: int, tol: float, max_iterations: int
           ) -> tuple[np.ndarray, list[float], str, float]:
    """Minimize fun over {x : x[:n_bounded] >= 0} by projected L-BFGS.

    fun(x, out) returns the value at x and writes the gradient into out.
    Each step takes the L-BFGS direction of the projected gradient, holds
    the coordinates at zero that the gradient or the direction points below
    zero, and backtracks along the projected path max(x + t d, 0) until the
    Armijo condition holds.  The run stops when the projected gradient's
    inf-norm (the KKT residual) is at most tol ("tolerance"), after
    max_iterations steps ("max_iterations"), or when MAX_HALVINGS halvings
    find no sufficient decrease ("line_search").  Returns the last iterate,
    fun's value at every iterate, the stop reason and the residual.  A
    non-finite value raises NumericalError.

    The loop allocates no vector per step: the start x and one more buffer
    take turns as the iterate, two buffers as its gradient, and the step
    being tried (s, y) swaps places with the slot of the pair it displaces.
    """
    n = x.size
    x_new, g, g_new, pg, d, s, y = (np.empty(n) for _ in range(7))
    slots = [(np.empty(n), np.empty(n)) for _ in range(MEMORY)]   # free (s, y) slots
    pinned, rising, hold = (np.empty(n_bounded, dtype=bool) for _ in range(3))
    f = fun(x, g)
    values, pairs = [f], []
    while np.isfinite(f):
        np.less_equal(x[:n_bounded], 0.0, out=pinned)
        np.greater(g[:n_bounded], 0.0, out=rising)
        np.copyto(pg, g)
        np.copyto(pg[:n_bounded], 0.0, where=np.logical_and(pinned, rising, out=hold))
        residual = float(np.abs(pg, out=s).max())
        if residual <= tol:
            return x, values, "tolerance", residual
        if len(values) > max_iterations:
            return x, values, "max_iterations", residual
        np.copyto(d, pg)
        _two_loop(d, pairs, s)
        np.negative(d, out=d)
        np.logical_or(rising, np.less(d[:n_bounded], 0.0, out=hold), out=hold)
        np.copyto(d[:n_bounded], 0.0, where=np.logical_and(pinned, hold, out=hold))
        if float(d @ pg) >= 0:  # not a descent direction: restart from steepest descent
            slots += [pair[:2] for pair in pairs]
            pairs = []
            np.negative(pg, out=d)
        t = 1.0
        for _ in range(MAX_HALVINGS):
            np.add(np.multiply(d, t, out=x_new), x, out=x_new)
            np.maximum(x_new[:n_bounded], 0.0, out=x_new[:n_bounded])
            np.subtract(x_new, x, out=s)
            f_new = fun(x_new, g_new)
            if f_new <= f + ARMIJO * float(g @ s) or not np.isfinite(f_new):
                break
            t *= BACKTRACK
        else:
            return x, values, "line_search", residual
        np.subtract(g_new, g, out=y)
        sy = float(s @ y)
        if sy > 0:
            pairs.append((s, y, 1.0 / sy, sy / float(y @ y)))
            s, y = slots.pop() if slots else pairs.pop(0)[:2]
        x, x_new, g, g_new, f = x_new, x, g_new, g, f_new
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
    # only the regularizer tells sentiment slices apart, so beta = 0 fits one
    params = init_params(table, space, 3 if config.beta > 0 else 1)
    kernel = _Kernel(params, space, table.p_hat(), reg, config.alpha, config.beta)
    x0 = np.concatenate([params.eta.ravel(), params.omega.ravel(), params.xi.ravel()])
    x, values, reason, residual = _lbfgs(kernel.negated, x0, params.eta.size, config.tolerance,
                                         config.max_iterations)
    return TrainResult(params=ModelParams(params.vocab, params.forms, params.m, *kernel.unpack(x)),
                       trace=[-v for v in values], iterations=len(values) - 1,
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
    so the result is deterministic regardless of scheduling.  Beside beta > 0
    cells, a beta = 0 cell's one sentiment slice counts as all three: its
    omega is 0, the uniform p(s | n) of three identical slices.  A cell listed
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
        from concurrent.futures import ThreadPoolExecutor  # imported only where it runs

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
        eta=np.mean(np.broadcast_arrays(*(r.params.eta for r in results)), axis=0),
        omega=np.mean(np.broadcast_arrays(*(r.params.omega for r in results)), axis=0),
        xi=np.mean([r.params.xi for r in results], axis=0),
    )
    return GridResult(params=avg, runs=runs)
