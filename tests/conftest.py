import json
import math
from pathlib import Path

import numpy as np
import pytest

from genderedlang.checkpoint import load_checkpoint
from genderedlang.corpus import (Gender, GenderLexicon, LexiconEntry, Number, Pair,
                                 Relation, aggregate_counts, bundled_lexicon_path,
                                 load_gender_lexicon)
from genderedlang.lexicons import SenseKind, load_sense_inventory, load_sentiment_lexicon
from genderedlang.model import FeatureSpace, _Kernel, _regularizer

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def lexicon():
    return load_gender_lexicon(bundled_lexicon_path())


@pytest.fixture(scope="session")
def space(lexicon):
    return FeatureSpace.from_lexicon(lexicon)


@pytest.fixture(scope="session")
def tiny_lexicon():
    """Two lemmas, singular-only forms: 4 forms, feature dimension 6."""
    entries = {
        "alpha_m": LexiconEntry("alpha", Gender.MASC, Number.SG),
        "alpha_f": LexiconEntry("alpha", Gender.FEM, Number.SG),
        "beta_m": LexiconEntry("beta", Gender.MASC, Number.SG),
        "beta_f": LexiconEntry("beta", Gender.FEM, Number.SG),
    }
    return GenderLexicon(entries=entries)


@pytest.fixture(scope="session")
def tiny_space(tiny_lexicon):
    return FeatureSpace.from_lexicon(tiny_lexicon)


def v1_document(path) -> dict:
    """The v1 form of the checkpoint at path, as the former writer laid it out.

    m, omega and xi are JSON numbers, and eta is one [v, s, t, value] list per
    nonzero entry in C order; every other key is the file's own.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    params = load_checkpoint(path).params
    nonzero = np.nonzero(params.eta)
    triplets = [list(row) for row in zip(*(axis.tolist() for axis in nonzero),
                                         params.eta[nonzero].tolist())]
    doc.update(format="genderedlang-checkpoint-v1", m=params.m.tolist(), eta=triplets,
               omega=params.omega.tolist(), xi=params.xi.tolist())
    return doc


def write_document(path, doc: dict) -> None:
    """A checkpoint document in the writer's byte layout (sorted keys, fixed separators)."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
                          encoding="utf-8")


def forward(params, space):
    """Every factor and marginal of the model in one pass: A, B, c, J, N, rho."""
    kernel = _Kernel(params, space)
    kernel.forward(params.eta, params.omega, params.xi)
    return kernel


def sentiment_posterior(params, space):
    """p(s | v) = N / rho, one row per vocabulary word."""
    fw = forward(params, space)
    return fw.N / fw.rho[:, None]


def mean_posterior_kl(params, space, prior):
    """Mean of KL(q(s | v) || p(s | v)) over the words the prior covers, one word at a time.

    The collapsed model (one sentiment axis) reads as a uniform p(s | v), the
    posterior of the three identical slices a full model trains at beta = 0.
    """
    q, mask = _regularizer(prior, params.vocab, beta=1.0)
    posterior = sentiment_posterior(params, space)
    if posterior.shape[1] == 1:
        posterior = np.full(q.shape, 1 / q.shape[1])
    kls = [sum(q_s * math.log(q_s / p_s) for q_s, p_s in zip(q[v], posterior[v], strict=True)
               if q_s > 0)
           for v in np.flatnonzero(mask)]
    assert kls, "no vocabulary word is covered by the prior"
    return float(np.mean(kls))


def assert_all_normalized(params, space, tol=1e-10):
    """Each of the model's five distributions sums to 1 within tol, for every condition."""
    fw = forward(params, space)
    assert abs(fw.c.sum() - 1.0) < tol                                         # p(n)
    assert abs(fw.J.sum() - 1.0) < tol                                         # p(v, n)
    assert np.all(np.abs(fw.B.sum(axis=0) - 1.0) < tol)                        # p(s | n)
    assert np.all(np.abs(fw.A.sum(axis=0) - 1.0) < tol)                        # p(v | s, n)
    assert np.all(np.abs(sentiment_posterior(params, space).sum(axis=1) - 1.0) < tol)  # p(s | v)


def make_table(counts: dict, relation: Relation = Relation.AMOD, lex: GenderLexicon | None = None):
    """Build a CountTable from {(neighbor, form): count} via the aggregator."""
    pairs = [Pair(form, neighbor, relation, count) for (neighbor, form), count in counts.items()]
    if lex is None:
        forms = {form for _, form in counts}
        entries = {}
        for form in forms:
            entries[form] = LexiconEntry(form, Gender.MASC, Number.SG)
        lex = GenderLexicon(entries=entries)
    return aggregate_counts(pairs, relation, lex)


@pytest.fixture(scope="session")
def toy_table(lexicon):
    from genderedlang.corpus import iter_canonical

    return aggregate_counts(iter_canonical(DATA / "toy_corpus.tsv", lexicon),
                            Relation.AMOD, lexicon)


@pytest.fixture(scope="session")
def toy_prior():
    return load_sentiment_lexicon(DATA / "toy_sentiment.tsv")


@pytest.fixture(scope="session")
def toy_inventory():
    return load_sense_inventory(DATA / "toy_senses_adj.tsv", SenseKind.ADJ)
