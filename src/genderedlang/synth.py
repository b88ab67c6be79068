"""Synthetic collocation corpora with known, planted gender effects.

A ground-truth model (background, graded gender deviations, sentiment
priors, sense assignments) is sampled from a seed; counts are drawn from
its joint distribution.  The generator writes everything a downstream run
needs (canonical corpus, sentiment lexicon, sense inventory, judgment
files) plus a manifest of the planted truth, so recovery can be verified.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import (Gender, GenderLexicon, Pair, Relation, aggregate_counts, write_canonical,
                     write_rows)
from .lexicons import SENTIMENTS, SenseKind
from .model import FeatureSpace, ModelParams, joint_marginal

# Base body-sense weights are drawn below 0.18, so a planted shift up to this
# keeps every body weight, and so every remaining sense weight, in [0, 1].
MAX_PLANTED_BODY_FEM = 0.82


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    vocab_size: int = 240
    n_pairs: int = 200_000
    planted_body_fem: float = 0.0
    relation: Relation = Relation.AMOD
    kind: SenseKind = SenseKind.ADJ


@dataclass
class SynthData:
    config: SynthConfig
    pairs: list[Pair]
    sentiment_rows: list[tuple[str, float, float, float]]
    sense_rows: list[tuple[str, dict[str, float]]]
    judgments: dict[str, float]
    binary_judgments: dict[str, str]
    manifest: dict


def generate(config: SynthConfig, lex: GenderLexicon) -> SynthData:
    """Sample a planted-truth corpus; deterministic given config.seed."""
    rng = np.random.default_rng(config.seed)
    space = FeatureSpace.from_lexicon(lex)
    masc_pool = [f for f in lex.forms() if lex.entries[f].gender is Gender.MASC]
    fem_pool = [f for f in lex.forms() if lex.entries[f].gender is Gender.FEM]
    # 36 noun forms carry probability mass, half of each gender.
    per_gender = max(1, min(18, len(masc_pool), len(fem_pool)))
    forms = tuple(sorted(
        list(rng.choice(masc_pool, size=per_gender, replace=False))
        + list(rng.choice(fem_pool, size=per_gender, replace=False))))
    vocab = tuple(f"adj{i:03d}" for i in range(config.vocab_size))

    per_side = config.vocab_size // 6
    order = rng.permutation(config.vocab_size)
    fem_ids = np.sort(order[:per_side])
    masc_ids = np.sort(order[per_side: 2 * per_side])
    fem_set, masc_set = set(fem_ids), set(masc_ids)
    gendered = fem_set | masc_set

    # Graded gender deviations on the POS component; fillers stay at zero.
    grades = np.linspace(1.0, 3.0, per_side)
    eta = np.zeros((config.vocab_size, 3, space.dim))
    for grade, v in zip(grades, fem_ids):
        eta[v, 0, space.fem_index] = grade
    for grade, v in zip(grades, masc_ids):
        eta[v, 0, space.masc_index] = grade

    # Sentiment priors: gendered words lean positive so the planted effect
    # lands in the FEM-POS / MASC-POS lists; fillers rotate across sentiments.
    dominant: dict[int, int] = {}
    sentiment_rows = []
    for v in range(config.vocab_size):
        s = 0 if v in gendered else v % 3
        dominant[v] = s
        alphas = [1.5, 1.5, 1.5]
        alphas[s] = 7.0
        sentiment_rows.append((vocab[v], alphas[0], alphas[1], alphas[2]))

    # Sense distributions: planted body-weight shift for the FEM group only.
    other = [s for s in config.kind.senses if s != "body"]
    sense_rows = []
    true_body = np.zeros(config.vocab_size)
    for v in range(config.vocab_size):
        body = rng.uniform(0.02, 0.18)
        if v in fem_set:
            body += config.planted_body_fem
        rest = rng.dirichlet(np.ones(len(other))) * (1.0 - body)
        dist = {"body": float(body)}
        dist.update({name: float(w) for name, w in zip(other, rest)})
        true_body[v] = body
        sense_rows.append((vocab[v], dist))

    m = np.log(rng.dirichlet(np.full(config.vocab_size, 5.0)))
    xi = np.log(rng.dirichlet(np.full(len(forms), 1.0)))
    truth = ModelParams(vocab=vocab, forms=forms, m=m, eta=eta,
                        omega=np.zeros((len(forms), 3)), xi=xi)
    joint = joint_marginal(truth, space)
    draws = rng.multinomial(config.n_pairs, joint.ravel() / joint.sum()).reshape(joint.shape)

    pairs = []
    for i, word in enumerate(vocab):
        for j, form in enumerate(forms):
            if draws[i, j] > 0:
                pairs.append(Pair(form, word, config.relation, int(draws[i, j])))

    judgments = {}
    binary = {}
    for grade, v in zip(grades, fem_ids):
        judgments[vocab[v]] = float(grade)
        binary[vocab[v]] = "f"
    for grade, v in zip(grades, masc_ids):
        judgments[vocab[v]] = float(-grade)
        binary[vocab[v]] = "m"

    manifest = {
        "seed": config.seed,
        "vocab_size": config.vocab_size,
        "n_pairs": config.n_pairs,
        "relation": config.relation.value,
        "kind": config.kind.value,
        "planted_body_fem": config.planted_body_fem,
        "fem_words": [vocab[v] for v in fem_ids],
        "masc_words": [vocab[v] for v in masc_ids],
        "dominant_sentiment": {vocab[v]: SENTIMENTS[s].value for v, s in dominant.items()},
        "true_mean_body_fem": float(np.mean([true_body[v] for v in fem_ids])),
        "true_mean_body_masc": float(np.mean([true_body[v] for v in masc_ids])),
        "true_mean_body_filler": float(np.mean([true_body[v] for v in range(config.vocab_size)
                                                if v not in gendered])),
        "true_gender_scores": {w: s for w, s in sorted(judgments.items())},
    }
    return SynthData(config=config, pairs=pairs, sentiment_rows=sentiment_rows,
                     sense_rows=sense_rows, judgments=judgments,
                     binary_judgments=binary, manifest=manifest)


def write_lexicons(out_dir: str | Path, data: SynthData) -> dict[str, Path]:
    """Write the sentiment lexicon and the sense inventory; byte-identical for identical configs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"sentiment": out / "sentiment_lexicon.tsv",
             "senses": out / f"senses_{data.config.kind.value}.tsv"}
    write_rows(paths["sentiment"], data.sentiment_rows)
    write_rows(paths["senses"], [(word, ",".join(f"{name}:{w!r}" for name, w in dist.items()))
                                 for word, dist in data.sense_rows])
    return paths


def write_synth(out_dir: str | Path, data: SynthData, lex: GenderLexicon) -> dict[str, Path]:
    """Write all generated files; byte-identical for identical configs."""
    out = Path(out_dir)
    paths = write_lexicons(out, data)
    paths.update(corpus=out / "corpus.tsv", judgments=out / "judgments.tsv",
                 binary_judgments=out / "judgments_binary.tsv", manifest=out / "manifest.json")
    write_canonical(paths["corpus"], aggregate_counts(data.pairs, data.config.relation, lex))
    write_rows(paths["judgments"], sorted(data.judgments.items()))
    write_rows(paths["binary_judgments"], sorted(data.binary_judgments.items()))
    paths["manifest"].write_text(json.dumps(data.manifest, sort_keys=True, indent=2) + "\n",
                                 encoding="utf-8")
    return paths
