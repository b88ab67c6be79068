import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genderedlang import model
from genderedlang.corpus import Gender
from genderedlang.errors import DataError, NumericalError
from genderedlang.lexicons import SENTIMENTS, SentimentPrior
from genderedlang.model import (TrainConfig, gradient, grid_train_average, init_params,
                                joint_marginal, objective, train)

from conftest import (assert_all_normalized, forward, make_table, mean_posterior_kl,
                      sentiment_posterior)

POS, NEG, NEU = SENTIMENTS


def tiny_table(tiny_lexicon, counts=None):
    counts = counts or {
        ("good", "alpha_f"): 30, ("good", "alpha_m"): 10,
        ("good", "beta_f"): 5, ("good", "beta_m"): 15,
        ("vile", "alpha_f"): 4, ("vile", "alpha_m"): 16,
        ("vile", "beta_f"): 12, ("vile", "beta_m"): 8,
    }
    return make_table(counts, lex=tiny_lexicon)


def tiny_prior():
    return SentimentPrior(probs={"good": (0.7, 0.1, 0.2), "vile": (0.1, 0.8, 0.1)})


def softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def cond_neighbor_oracle(params, space, form, s):
    """p(v | s, n): softmax over V of m plus the form's three eta columns (its form_bits)."""
    return softmax(params.m + params.eta[:, s, list(space.form_bits[form])].sum(axis=1))


class TestInit:
    def test_uniform_counts_give_uniform_background(self, tiny_lexicon, tiny_space):
        table = make_table({(w, f): 10 for w in ("a", "b", "c", "d")
                            for f in ("alpha_f", "alpha_m")}, lex=tiny_lexicon)
        params = init_params(table, tiny_space)
        assert np.allclose(params.m, -math.log(4))

    def test_zero_deviation_recovers_background(self, tiny_lexicon, tiny_space):
        table = tiny_table(tiny_lexicon)
        params = init_params(table, tiny_space)
        p_v = table.p_hat().sum(axis=1)
        A = forward(params, tiny_space).A  # p(v | s, n), shape (V, S, G)
        assert A.shape == (len(p_v), len(SENTIMENTS), len(table.forms))
        assert np.allclose(A, p_v[:, None, None], atol=1e-12)

    def test_deterministic(self, tiny_lexicon, tiny_space):
        table = tiny_table(tiny_lexicon)
        a = init_params(table, tiny_space)
        b = init_params(table, tiny_space)
        assert np.array_equal(a.m, b.m) and np.array_equal(a.eta, b.eta)
        assert np.array_equal(a.omega, b.omega) and np.array_equal(a.xi, b.xi)

    def test_independence_baseline(self, tiny_lexicon, tiny_space):
        table = tiny_table(tiny_lexicon)
        params = init_params(table, tiny_space)
        p_hat = table.p_hat()
        expected = np.outer(p_hat.sum(axis=1), p_hat.sum(axis=0))
        assert np.allclose(joint_marginal(params, tiny_space), expected, atol=1e-12)


class TestConditionals:
    def test_two_neighbor_hand_softmax(self, tiny_lexicon, tiny_space):
        # scores ln(.7) + 1 and ln(.3): p = (.7e, .3) normalized
        table = make_table({("hi", "alpha_f"): 7, ("lo", "alpha_f"): 3}, lex=tiny_lexicon)
        params = init_params(table, tiny_space)
        params.eta[params.vocab.index("hi"), 0, tiny_space.fem_index] = 1.0
        A = forward(params, tiny_space).A
        dist = A[:, SENTIMENTS.index(POS), params.forms.index("alpha_f")]
        assert dist[params.vocab.index("hi")] == pytest.approx(0.8638095285778119, abs=1e-12)
        assert dist[params.vocab.index("lo")] == pytest.approx(0.1361904714221882, abs=1e-12)

    def test_softmax_shift_invariance(self, tiny_lexicon, tiny_space):
        table = tiny_table(tiny_lexicon)
        params = init_params(table, tiny_space)
        params.eta = np.random.default_rng(0).uniform(0, 1, params.eta.shape)
        base = forward(params, tiny_space).A
        for g, form in enumerate(params.forms):
            for s in range(len(SENTIMENTS)):
                assert np.allclose(base[:, s, g], cond_neighbor_oracle(params, tiny_space, form, s),
                                   atol=1e-12)
        shifted = replace(params, m=params.m + 2.5)
        assert np.allclose(forward(shifted, tiny_space).A, base, atol=1e-12)

    def test_sent_given_noun_uniform(self, tiny_lexicon, tiny_space):
        params = init_params(tiny_table(tiny_lexicon), tiny_space)
        assert np.allclose(forward(params, tiny_space).B, 1 / 3, atol=1e-15)  # p(s | n)

    def test_sent_given_noun_hand_softmax(self, tiny_lexicon, tiny_space):
        params = init_params(tiny_table(tiny_lexicon), tiny_space)
        idx = params.forms.index("alpha_m")
        params.omega[idx] = [1.0, 0.0, 0.0]
        dist = forward(params, tiny_space).B[:, idx]
        assert dist == pytest.approx([0.5761168847658291, 0.21194155761708547,
                                      0.21194155761708547], abs=1e-12)

    def test_sent_given_noun_shift_invariance(self, tiny_lexicon, tiny_space):
        params = init_params(tiny_table(tiny_lexicon), tiny_space)
        idx = params.forms.index("beta_f")
        params.omega[idx] = [0.4, -0.2, 1.1]
        before = forward(params, tiny_space).B[:, idx]
        params.omega[idx] += 7.0
        assert np.allclose(forward(params, tiny_space).B[:, idx], before, atol=1e-12)

    def test_noun_prior_recovers_empirical(self, tiny_lexicon, tiny_space):
        table = tiny_table(tiny_lexicon)
        params = init_params(table, tiny_space)
        assert np.allclose(forward(params, tiny_space).c, table.p_hat().sum(axis=0), atol=1e-12)

    def test_noun_prior_uniform_and_hand_values(self, tiny_lexicon, tiny_space):
        table = make_table({("a", f): 1 for f in ("alpha_f", "alpha_m", "beta_f")},
                           lex=tiny_lexicon)
        params = init_params(table, tiny_space)
        params.xi = np.zeros(3)
        assert np.allclose(forward(params, tiny_space).c, [1 / 3] * 3, atol=1e-15)
        params.xi = np.array([0.5, -0.25, 1.0])
        assert forward(params, tiny_space).c == pytest.approx(
            [0.32040110902661306, 0.1513467673652992, 0.5282521236080877], abs=1e-12)


def brute_force_mass(params, space):
    """Loop oracle for the joint p(v, s, n), shape (V, S, G)."""
    V, S, G = len(params.vocab), params.eta.shape[1], len(params.forms)
    bits = [space.form_bits[f] for f in params.forms]
    out = np.zeros((V, S, G))
    z_xi = sum(math.exp(x) for x in params.xi)
    for n in range(G):
        p_n = math.exp(params.xi[n]) / z_xi
        z_om = sum(math.exp(o) for o in params.omega[n])
        for s in range(S):
            p_s = math.exp(params.omega[n, s]) / z_om
            scores = [params.m[v] + sum(params.eta[v, s, t] for t in bits[n]) for v in range(V)]
            z = sum(math.exp(u) for u in scores)
            for v in range(V):
                out[v, s, n] = (math.exp(scores[v]) / z) * p_s * p_n
    return out


def brute_force_joint(params, space):
    """Loop oracle for the sentiment-marginalized joint (explicit 3-term sum)."""
    return brute_force_mass(params, space).sum(axis=1)


def brute_force_posterior(params, space, v):
    """p(s | v) by explicit enumeration over (s, n)."""
    mass = brute_force_mass(params, space)[v].sum(axis=1)
    return mass / mass.sum()


class TestJoint:
    def test_sums_to_one(self, tiny_lexicon, tiny_space):
        params = init_params(tiny_table(tiny_lexicon), tiny_space)
        rng = np.random.default_rng(1)
        params.eta = rng.uniform(0, 2, params.eta.shape)
        params.omega = rng.normal(0, 1, params.omega.shape)
        params.xi = rng.normal(0, 1, params.xi.shape)
        assert abs(joint_marginal(params, tiny_space).sum() - 1.0) < 1e-10

    def test_matches_brute_force(self, tiny_lexicon, tiny_space):
        params = init_params(tiny_table(tiny_lexicon), tiny_space)
        rng = np.random.default_rng(2)
        params.eta = rng.uniform(0, 1.5, params.eta.shape)
        params.omega = rng.normal(0, 0.7, params.omega.shape)
        params.xi = rng.normal(0, 0.7, params.xi.shape)
        assert np.allclose(joint_marginal(params, tiny_space),
                           brute_force_joint(params, tiny_space), atol=1e-12)


# A V=2000, S=3 model's joint, then the same joint with U as the batched
# (V, S, T) @ (T, G) product and J as a sum over axis 1.
_JOINT_SCRIPT = """
import sys
import numpy as np
from genderedlang.corpus import bundled_lexicon_path, load_gender_lexicon
from genderedlang.model import FeatureSpace, ModelParams, _Kernel, joint_marginal
space = FeatureSpace.from_lexicon(load_gender_lexicon(bundled_lexicon_path()))
forms = tuple(sorted(space.form_bits))
rng = np.random.default_rng(5)
n_vocab, n_sent = 2000, 3
params = ModelParams(vocab=tuple(f"w{i}" for i in range(n_vocab)), forms=forms,
                     m=rng.normal(0, 1, n_vocab),
                     eta=rng.uniform(0, 2, (n_vocab, n_sent, space.dim)),
                     omega=rng.normal(0, 1, (len(forms), n_sent)), xi=rng.normal(0, 1, len(forms)))
kernel = _Kernel(params, space)
A = np.matmul(params.eta, kernel.F.T) + kernel.m
A = np.exp(A - A.max(axis=0, keepdims=True))
A /= A.sum(axis=0, keepdims=True)
B = np.exp(params.omega - params.omega.max(axis=-1, keepdims=True))
B = (B / B.sum(axis=-1, keepdims=True)).T
c = np.exp(params.xi - params.xi.max())
c /= c.sum()
M = A * B
M *= c
sys.stdout.buffer.write(joint_marginal(params, space).tobytes() + M.sum(axis=1).tobytes())
"""


def test_joint_bytes_do_not_depend_on_the_blas_thread_count(space):
    """U is one (V*S, T) @ (T, G) gemm; at S=3 it gives the batched product's
    bits, and on 1 and 2 OpenBLAS threads the same J."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(model.__file__)))
    written = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        out = subprocess.run([sys.executable, "-c", _JOINT_SCRIPT], env=env, check=True,
                             capture_output=True).stdout
        assert len(out) == 2 * 8 * 2000 * len(space.form_bits)  # two (V, G) float64 arrays
        written[threads] = out[:len(out) // 2], out[len(out) // 2:]
    assert written["1"][0] == written["1"][1]
    assert written["1"] == written["2"]


class TestSentimentPosterior:
    def test_single_noun_universe(self, tiny_lexicon, tiny_space):
        table = make_table({("good", "alpha_f"): 3, ("vile", "alpha_f"): 7}, lex=tiny_lexicon)
        params = init_params(table, tiny_space)
        rng = np.random.default_rng(3)
        params.eta = rng.uniform(0, 1, params.eta.shape)
        params.omega = rng.normal(0, 1, params.omega.shape)
        p_s = softmax(params.omega[0])
        posterior = sentiment_posterior(params, tiny_space)
        for v in range(len(params.vocab)):
            expected = np.array([cond_neighbor_oracle(params, tiny_space, "alpha_f", s)[v] * p_s[s]
                                 for s in range(len(SENTIMENTS))])
            expected /= expected.sum()
            assert np.allclose(posterior[v], expected, atol=1e-12)

    def test_symmetric_model_gives_uniform(self, tiny_lexicon, tiny_space):
        params = init_params(tiny_table(tiny_lexicon), tiny_space)
        rng = np.random.default_rng(4)
        shared = rng.uniform(0, 1, (len(params.vocab), 1, tiny_space.dim))
        params.eta = np.repeat(shared, 3, axis=1)  # deviations independent of s
        assert np.allclose(sentiment_posterior(params, tiny_space), 1 / 3, atol=1e-12)

    def test_two_noun_brute_force(self, tiny_lexicon, tiny_space):
        table = make_table({("good", "alpha_f"): 3, ("good", "beta_m"): 5,
                            ("vile", "alpha_f"): 7, ("vile", "beta_m"): 2}, lex=tiny_lexicon)
        params = init_params(table, tiny_space)
        rng = np.random.default_rng(5)
        params.eta = rng.uniform(0, 1.2, params.eta.shape)
        params.omega = rng.normal(0, 0.8, params.omega.shape)
        params.xi = rng.normal(0, 0.8, params.xi.shape)
        posterior = sentiment_posterior(params, tiny_space)
        for v in range(len(params.vocab)):
            assert np.allclose(posterior[v], brute_force_posterior(params, tiny_space, v),
                               atol=1e-12)


def brute_force_objective(params, space, table, prior, config):
    """Pure-loop oracle for the full objective, independent of the numpy path."""
    p_hat = table.p_hat()
    joint = brute_force_joint(params, space)
    ll = 0.0
    for v in range(len(params.vocab)):
        for n in range(len(params.forms)):
            if p_hat[v, n] > 0:
                ll += p_hat[v, n] * math.log(joint[v, n])
    value = ll - config.alpha * float(np.abs(params.eta).sum())
    if config.beta > 0:
        # p(s | v) by explicit enumeration over (s, n)
        for v, word in enumerate(params.vocab):
            q = prior.get(word)
            if q is None:
                continue
            p_sv = brute_force_posterior(params, space, v)
            kl = sum(q[j] * math.log(q[j] / p_sv[j]) for j in range(3) if q[j] > 0)
            value -= config.beta * kl
    return value


class TestObjective:
    def test_saturated_fit_equals_negative_entropy(self, tiny_lexicon, tiny_space):
        # one noun form: at init the model fits p_hat exactly
        table = make_table({("good", "alpha_f"): 3, ("vile", "alpha_f"): 7,
                            ("dull", "alpha_f"): 10}, lex=tiny_lexicon)
        params = init_params(table, tiny_space)
        config = TrainConfig(alpha=0.0, beta=0.0)
        p = table.p_hat().sum(axis=1)
        entropy = -sum(x * math.log(x) for x in p)
        assert objective(params, tiny_space, table, None, config) == pytest.approx(
            -entropy, abs=1e-12)

    def test_kl_term_zero_when_prior_matches_posterior(self, tiny_lexicon, tiny_space):
        table = tiny_table(tiny_lexicon)
        params = init_params(table, tiny_space)
        # at init p(s|v) is uniform for every v
        uniform = SentimentPrior(probs={w: (1 / 3, 1 / 3, 1 / 3) for w in table.vocab})
        with_reg = objective(params, tiny_space, table, uniform, TrainConfig(beta=5.0))
        without = objective(params, tiny_space, table, None, TrainConfig(beta=0.0))
        assert with_reg == pytest.approx(without, abs=1e-12)

    def test_matches_brute_force_oracle(self, tiny_lexicon, tiny_space):
        table = tiny_table(tiny_lexicon)
        params = init_params(table, tiny_space)
        rng = np.random.default_rng(6)
        params.eta = rng.uniform(0, 1.5, params.eta.shape)
        params.omega = rng.normal(0, 0.6, params.omega.shape)
        params.xi = rng.normal(0, 0.6, params.xi.shape)
        config = TrainConfig(alpha=1e-3, beta=0.4)
        got = objective(params, tiny_space, table, tiny_prior(), config)
        want = brute_force_objective(params, tiny_space, table, tiny_prior(), config)
        assert got == pytest.approx(want, abs=1e-12)

    def test_gibbs_inequality_at_saturation(self, tiny_lexicon, tiny_space):
        # any deviation from the saturated single-form fit lowers the likelihood
        table = make_table({("good", "alpha_f"): 3, ("vile", "alpha_f"): 7}, lex=tiny_lexicon)
        config = TrainConfig()
        best = objective(init_params(table, tiny_space), tiny_space, table, None, config)
        rng = np.random.default_rng(7)
        for _ in range(5):
            params = init_params(table, tiny_space)
            params.eta = rng.uniform(0, 1, params.eta.shape)
            assert objective(params, tiny_space, table, None, config) <= best + 1e-12


class TestGradient:
    def finite_difference(self, params, space, table, prior, config, array, step=1e-5):
        out = np.zeros(array.shape)
        for idx in np.ndindex(*array.shape):
            orig = array[idx]
            array[idx] = orig + step
            fp = objective(params, space, table, prior, config)
            array[idx] = orig - step
            fm = objective(params, space, table, prior, config)
            array[idx] = orig
            out[idx] = (fp - fm) / (2 * step)
        return out

    @pytest.mark.parametrize("alpha, beta, n_sentiments", [
        (0.0, 0.0, 3), (1e-3, 0.0, 3), (0.0, 0.1, 3), (1e-3, 0.1, 3), (0.0, 0.0, 1), (1e-3, 0.0, 1),
    ], ids=["full_a0_b0", "full_a1e-3_b0", "full_a0_b0.1", "full_a1e-3_b0.1", "collapsed_a0",
            "collapsed_a1e-3"])
    def test_matches_central_differences(self, tiny_lexicon, tiny_space, alpha, beta,
                                         n_sentiments):
        table = tiny_table(tiny_lexicon)
        params = init_params(table, tiny_space, n_sentiments)
        rng = np.random.default_rng(8)
        params.eta = rng.uniform(0.5, 1.5, params.eta.shape)  # interior point
        params.omega = rng.normal(0, 0.5, params.omega.shape)
        params.xi = rng.normal(0, 0.5, params.xi.shape)
        config = TrainConfig(alpha=alpha, beta=beta)
        g_eta, g_omega, g_xi = gradient(params, tiny_space, table, tiny_prior(), config)
        for got, array in ((g_eta, params.eta), (g_omega, params.omega), (g_xi, params.xi)):
            want = self.finite_difference(params, tiny_space, table, tiny_prior(), config, array)
            assert np.allclose(got, want, rtol=1e-4, atol=1e-7)

    def test_stationary_at_saturated_mle(self, tiny_lexicon, tiny_space):
        table = make_table({("good", "alpha_f"): 3, ("vile", "alpha_f"): 7}, lex=tiny_lexicon)
        params = init_params(table, tiny_space)
        g_eta, g_omega, g_xi = gradient(params, tiny_space, table, None, TrainConfig())
        assert np.abs(g_eta).max() <= 1e-6
        assert np.abs(g_omega).max() <= 1e-6
        assert np.abs(g_xi).max() <= 1e-6

    def test_xi_gradient_zero_at_factorized_init(self, tiny_lexicon, tiny_space):
        table = tiny_table(tiny_lexicon)
        params = init_params(table, tiny_space)
        _, _, g_xi = gradient(params, tiny_space, table, None, TrainConfig())
        assert np.abs(g_xi).max() <= 1e-12

    def test_l1_subgradient_at_zero_boundary(self, tiny_lexicon, tiny_space):
        table = make_table({("good", "alpha_f"): 3, ("vile", "alpha_f"): 7}, lex=tiny_lexicon)
        params = init_params(table, tiny_space)  # saturated: smooth gradient is zero
        alpha = 0.25
        g_eta, _, _ = gradient(params, tiny_space, table, None, TrainConfig(alpha=alpha))
        assert np.allclose(g_eta, -alpha, atol=1e-9)

    def test_projected_step_never_decreases_objective_at_boundary(self, tiny_lexicon,
                                                                  tiny_space):
        table = tiny_table(tiny_lexicon)
        params = init_params(table, tiny_space)
        rng = np.random.default_rng(9)
        params.eta = rng.uniform(0, 1, params.eta.shape)
        params.eta[params.eta < 0.5] = 0.0  # boundary point
        config = TrainConfig(alpha=0.01, beta=0.2)
        before = objective(params, tiny_space, table, tiny_prior(), config)
        g_eta, g_omega, g_xi = gradient(params, tiny_space, table, tiny_prior(), config)
        step = 1e-5
        params.eta = np.maximum(params.eta + step * g_eta, 0.0)
        params.omega = params.omega + step * g_omega
        params.xi = params.xi + step * g_xi
        after = objective(params, tiny_space, table, tiny_prior(), config)
        assert after >= before - 1e-12


@pytest.mark.parametrize("field", ["alpha", "beta", "tolerance"])
def test_train_config_rejects_nan(field):
    for value in (math.nan, math.inf):  # inf too: it passes the sign checks
        with pytest.raises(ValueError):
            TrainConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("max_iterations", 0), ("max_iterations", -5), ("max_iterations", 2.5),
    ("max_iterations", True),
])
def test_train_config_rejects_non_count(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


class TestTrain:
    def test_l1_increases_sparsity(self, toy_table, space, toy_prior):
        sparse = train(toy_table, space, toy_prior, TrainConfig(alpha=0.01, max_iterations=3000))
        dense = train(toy_table, space, toy_prior, TrainConfig(alpha=0.0, max_iterations=3000))
        frac = lambda p: float((np.abs(p.eta) < 1e-6).mean())
        assert frac(sparse.params) > frac(dense.params)

    def test_regularizer_decreases_kl(self, toy_table, space, toy_prior):
        strong = train(toy_table, space, toy_prior, TrainConfig(beta=100.0, max_iterations=6000))
        free = train(toy_table, space, toy_prior, TrainConfig(beta=0.0, max_iterations=6000))
        kl_strong = mean_posterior_kl(strong.params, space, toy_prior)
        kl_free = mean_posterior_kl(free.params, space, toy_prior)
        assert kl_strong < kl_free
        assert kl_strong <= 0.05

    @pytest.mark.parametrize("beta, n_sent", [(0.0, 1), (0.5, 3)])
    def test_beta_decides_the_sentiment_axes(self, toy_table, space, toy_prior, beta, n_sent):
        result = train(toy_table, space, toy_prior, TrainConfig(beta=beta, max_iterations=5))
        assert result.params.eta.shape[1] == result.params.omega.shape[1] == n_sent

    def test_eta_stays_non_negative(self, toy_table, space, toy_prior):
        result = train(toy_table, space, toy_prior,
                       TrainConfig(alpha=1e-3, beta=1.0, max_iterations=500))
        assert result.params.eta.min() >= 0.0

    def test_deterministic(self, toy_table, space, toy_prior):
        config = TrainConfig(alpha=1e-4, beta=0.5, max_iterations=400)
        a = train(toy_table, space, toy_prior, config)
        b = train(toy_table, space, toy_prior, config)
        assert np.array_equal(a.params.eta, b.params.eta)
        assert np.array_equal(a.params.omega, b.params.omega)
        assert np.array_equal(a.params.xi, b.params.xi)
        assert a.trace == b.trace

    def test_tail_is_monotone_within_slack(self, toy_table, space, toy_prior):
        result = train(toy_table, space, toy_prior, TrainConfig(beta=1.0))
        tail = result.trace[-max(2, len(result.trace) // 10):]
        assert all(b >= a - 1e-6 for a, b in zip(tail, tail[1:]))

    def test_divergence_aborts(self, toy_table, space, monkeypatch):
        # The start is finite; the first trial point's objective is not.
        values = iter([0.0])
        monkeypatch.setattr(model._Kernel, "objective",
                            lambda *args, **kwargs: next(values, float("nan")))
        with pytest.raises(NumericalError, match="not finite at iterate 1"):
            train(toy_table, space, None, TrainConfig(max_iterations=10))

    def test_line_search_failure_is_not_convergence(self, toy_table, space, monkeypatch):
        # Every trial point scores below the start, so backtracking finds no
        # sufficient increase along the first direction.
        values = iter([0.0])
        monkeypatch.setattr(model._Kernel, "objective",
                            lambda *args, **kwargs: next(values, -1.0))
        result = train(toy_table, space, None, TrainConfig())
        assert result.iterations == 0
        assert result.trace == [0.0]
        assert not result.converged
        assert result.stop_reason == "line_search"

    def test_iteration_cap_is_not_convergence(self, toy_table, space, toy_prior):
        result = train(toy_table, space, toy_prior, TrainConfig(beta=0.5, max_iterations=3))
        assert result.iterations == 3 and len(result.trace) == 4
        assert result.stop_reason == "max_iterations" and not result.converged
        assert result.kkt_residual > result.config.tolerance

    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (1e-3, 0.5), (0.01, 0.1)])
    def test_converged_means_kkt_residual_within_tolerance(self, toy_table, space, toy_prior,
                                                           alpha, beta):
        config = TrainConfig(alpha=alpha, beta=beta)
        result = train(toy_table, space, toy_prior, config)
        assert result.converged and result.stop_reason == "tolerance"
        g_eta, g_omega, g_xi = gradient(result.params, space, toy_table, toy_prior, config)
        # At eta = 0 only an increase is feasible, so a negative slope there is no violation.
        g_eta = np.where((result.params.eta <= 0) & (g_eta < 0), 0.0, g_eta)
        residual = max(float(np.abs(g).max()) for g in (g_eta, g_omega, g_xi))
        assert residual <= config.tolerance
        assert residual == result.kkt_residual

    def test_beta_without_prior_rejected(self, toy_table, space):
        with pytest.raises(DataError, match="sentiment lexicon"):
            train(toy_table, space, None, TrainConfig(beta=1.0))

    def test_beta_with_prior_covering_no_word_rejected(self, toy_table, space):
        # the regularizer would be empty, so the run would train as beta = 0
        prior = SentimentPrior(probs={"not-a-neighbor": (0.2, 0.3, 0.5)})
        config = TrainConfig(beta=1.0)
        params = init_params(toy_table, space)
        for call in (lambda: train(toy_table, space, prior, config),
                     lambda: objective(params, space, toy_table, prior, config),
                     lambda: gradient(params, space, toy_table, prior, config)):
            with pytest.raises(DataError, match="sentiment lexicon"):
                call()

    def test_distributions_normalized_after_training(self, toy_table, space, toy_prior):
        result = train(toy_table, space, toy_prior,
                       TrainConfig(alpha=1e-4, beta=0.5, max_iterations=100))
        assert_all_normalized(result.params, space)

    @pytest.mark.parametrize("beta, n_sent", [(0.0, 1), (0.5, 3)])
    def test_mass_scale_is_finite_and_positive(self, lexicon, space, monkeypatch, beta, n_sent):
        # "good" never occurs with a feminine form: its fem mass is 0, so the
        # floor KAPPA / V alone sets that coordinate's scale.
        masc = [form for form, entry in lexicon.entries.items() if entry.gender is Gender.MASC]
        counts = {("good", form): 3 for form in masc}
        counts.update({("vile", form): 2 for form in lexicon.entries})
        table = make_table(counts, lex=lexicon)
        prior = SentimentPrior(probs={"good": (0.6, 0.1, 0.3)})
        seen = []
        lbfgs = model._lbfgs
        monkeypatch.setattr(model, "_lbfgs", lambda fun, x, h0, *rest:
                            seen.append((x.size, h0.copy())) or lbfgs(fun, x, h0, *rest))
        result = train(table, space, prior, TrainConfig(beta=beta, max_iterations=5))
        (size, h0), = seen
        n_forms = len(table.forms)
        assert result.params.eta.shape == (2, n_sent, space.dim)
        assert h0.shape == (size,) and size == 2 * n_sent * space.dim + n_sent * n_forms + n_forms
        assert np.isfinite(h0).all() and (h0 > 0).all()
        eta_scale = h0[:result.params.eta.size].reshape(result.params.eta.shape)
        good = table.vocab.index("good")
        assert eta_scale[good, :, space.fem_index] == pytest.approx(2 / model.KAPPA, rel=1e-12)
        assert (eta_scale[good, :, space.masc_index] < 2 / model.KAPPA).all()

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_evaluation_allocates_no_work_array(self, lexicon, space, beta):
        # A training run evaluates in the kernel's own buffers: once warm, no
        # evaluation allocates even one array of the kernel's (V, S, G) size.
        rng = np.random.default_rng(4)
        words = [f"w{i}" for i in range(100)]
        table = make_table({(w, form): int(rng.integers(1, 9))
                            for w in words for form in lexicon.entries}, lex=lexicon)
        prior = SentimentPrior(probs={w: (0.2, 0.3, 0.5) for w in words[::2]})
        params = init_params(table, space)
        kernel = model._Kernel(params, space, table.p_hat(),
                               model._regularizer(prior, params.vocab, beta), 1e-3, beta)
        x = np.concatenate([params.eta.ravel(), params.omega.ravel(), params.xi.ravel()])
        out = np.empty_like(x)
        kernel.negated(x, out)
        tracemalloc.start()
        try:
            kernel.negated(x, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < kernel.A.nbytes


def test_mass_scaled_h0_solves_an_ill_conditioned_quadratic():
    """On a separable quadratic whose curvatures span 1e-4 to 1, h0 = 1/curvature
    makes the first stored pair's initial matrix the exact inverse Hessian; the
    scalar scaling (h0 = 1) needs hundreds of steps."""
    curvature, target = np.logspace(-4, 0, 40), np.linspace(1.0, 2.0, 40)

    def fun(x, out):
        np.multiply(curvature, x - target, out=out)
        return 0.5 * float((curvature * (x - target) ** 2).sum())

    def steps(h0):
        x, values, reason, residual, evaluations = model._lbfgs(fun, np.zeros(40), h0, 0,
                                                                1e-8, 2000)
        assert reason == "tolerance" and residual <= 1e-8 and evaluations >= len(values)
        return len(values) - 1

    assert steps(1.0 / curvature) <= 3
    assert steps(np.ones(40)) > 100


class TestGrid:
    def test_singleton_grid_equals_single_run(self, toy_table, space, toy_prior):
        base = TrainConfig(max_iterations=300)
        grid = grid_train_average(toy_table, space, toy_prior, [1e-3], [0.5], base)
        single = train(toy_table, space, toy_prior,
                       TrainConfig(alpha=1e-3, beta=0.5, max_iterations=300))
        assert np.array_equal(grid.params.eta, single.params.eta)
        assert np.array_equal(grid.params.omega, single.params.omega)
        assert np.array_equal(grid.params.xi, single.params.xi)

    def test_repeated_cell_rejected(self, toy_table, space, toy_prior):
        # `runs` keeps one result per cell, so a repeat would be weighted twice in the average
        with pytest.raises(DataError, match=r"repeated grid cell.*\(0\.0, 0\.5\)"):
            grid_train_average(toy_table, space, toy_prior, [0.0, 0.0, 1e-3], [0.5],
                               TrainConfig())

    def test_mean_matches_manual_recompute(self, toy_table, space, toy_prior):
        base = TrainConfig(max_iterations=200)
        alphas, betas = [0.0, 1e-3], [0.1, 1.0]
        grid = grid_train_average(toy_table, space, toy_prior, alphas, betas, base)
        manual = np.mean([grid.runs[(a, b)].params.eta for a in alphas for b in betas], axis=0)
        assert np.array_equal(grid.params.eta, manual)

    @pytest.mark.parametrize("probs", [{}, {"not-a-neighbor": (0.2, 0.3, 0.5)}],
                             ids=["empty", "no_overlap"])
    def test_uncovered_prior_rejected_before_any_cell_trains(self, toy_table, space,
                                                             monkeypatch, probs):
        fits = []
        lbfgs = model._lbfgs
        monkeypatch.setattr(model, "_lbfgs", lambda *args: fits.append(1) or lbfgs(*args))
        with pytest.raises(DataError, match="sentiment lexicon"):
            grid_train_average(toy_table, space, SentimentPrior(probs=probs), [0.0], [0.0, 1.0],
                               TrainConfig(max_iterations=5))
        assert fits == []

    def test_failing_cell_names_pair(self, toy_table, space, toy_prior, monkeypatch):
        monkeypatch.setattr(model._Kernel, "objective", lambda *args, **kwargs: float("nan"))
        base = TrainConfig(max_iterations=5)
        with pytest.raises(NumericalError, match=r"alpha=0.001, beta=0.5"):
            grid_train_average(toy_table, space, toy_prior, [1e-3], [0.5], base)

    def test_jobs_do_not_change_result(self, toy_table, space, toy_prior):
        base = TrainConfig(max_iterations=150)
        serial = grid_train_average(toy_table, space, toy_prior, [0.0, 1e-3], [0.1], base, jobs=1)
        threaded = grid_train_average(toy_table, space, toy_prior, [0.0, 1e-3], [0.1], base, jobs=2)
        assert np.array_equal(serial.params.eta, threaded.params.eta)


class TestPosteriorKl:
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_kl_nonnegative_and_zero_iff_equal(self, tiny_lexicon, tiny_space, seed):
        table = tiny_table(tiny_lexicon)
        params = init_params(table, tiny_space)
        rng = np.random.default_rng(seed)
        params.eta = rng.uniform(0, 2, params.eta.shape)
        params.omega = rng.normal(0, 1, params.omega.shape)
        prior = SentimentPrior(probs={
            w: tuple(rng.dirichlet(np.ones(3))) for w in params.vocab})
        assert mean_posterior_kl(params, tiny_space, prior) >= 0.0
        matched = SentimentPrior(probs=dict(zip(
            params.vocab, map(tuple, sentiment_posterior(params, tiny_space)))))
        assert mean_posterior_kl(params, tiny_space, matched) == pytest.approx(0.0, abs=1e-12)


class TestNormalizationProperty:
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_params_all_distributions_normalized(self, tiny_lexicon, tiny_space, seed):
        table = tiny_table(tiny_lexicon)
        params = init_params(table, tiny_space)
        rng = np.random.default_rng(seed)
        params.eta = rng.uniform(0, 4, params.eta.shape)
        params.omega = rng.normal(0, 2, params.omega.shape)
        params.xi = rng.normal(0, 2, params.xi.shape)
        assert_all_normalized(params, tiny_space)
