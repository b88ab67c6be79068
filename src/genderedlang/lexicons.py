"""External lexical resources: sentiment prior and supersense inventories.

The sentiment lexicon stores per-word Dirichlet concentrations over
(positive, negative, neutral); we keep only the Dirichlet mean, which is
what the posterior regularizer consumes.  Sense inventories map adjectives
to 13 coarse senses and verbs to 15, each word carrying a distribution over
senses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .corpus import Relation, read_rows
from .errors import DataError


class Sentiment(str, Enum):
    POS = "pos"
    NEG = "neg"
    NEU = "neu"


SENTIMENTS: tuple[Sentiment, ...] = (Sentiment.POS, Sentiment.NEG, Sentiment.NEU)

ADJECTIVE_SENSES: tuple[str, ...] = (
    "behavior",
    "body",
    "feeling",
    "mind",
    "miscellaneous",
    "motion",
    "perception",
    "quantity",
    "social",
    "spatial",
    "substance",
    "temporal",
    "weather",
)

VERB_SENSES: tuple[str, ...] = (
    "body",
    "change",
    "cognition",
    "communication",
    "competition",
    "consumption",
    "contact",
    "creation",
    "emotion",
    "motion",
    "perception",
    "possession",
    "social",
    "stative",
    "weather",
)


class SenseKind(str, Enum):
    ADJ = "adj"
    VERB = "verb"

    @property
    def senses(self) -> tuple[str, ...]:
        return ADJECTIVE_SENSES if self is SenseKind.ADJ else VERB_SENSES

    @classmethod
    def of(cls, relation: Relation) -> SenseKind:
        """Adjectives modify a noun (amod); verbs take it as subject or object."""
        return cls.ADJ if relation == Relation.AMOD else cls.VERB


@dataclass(frozen=True)
class SentimentPrior:
    """q(s | word): per-word (pos, neg, neu) probability triples."""

    probs: dict[str, tuple[float, float, float]]

    def get(self, word: str) -> tuple[float, float, float] | None:
        """Case-folded lookup; None means the word carries no regularization term."""
        return self.probs.get(word.lower())


def load_sentiment_lexicon(path: str | Path) -> SentimentPrior:
    """Load ``word<TAB>alpha_pos<TAB>alpha_neg<TAB>alpha_neu`` concentrations.

    q(s | word) is the Dirichlet mean alpha_s / sum(alpha).  Concentrations
    must be positive and finite.  Duplicate words: last row wins.
    """
    probs: dict[str, tuple[float, float, float]] = {}
    for lineno, fields in read_rows(path, 4):
        word = fields[0].strip().lower()
        try:
            alphas = [float(f) for f in fields[1:]]
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric concentration for {word!r}") from None
        total = sum(alphas)
        if not (min(alphas) > 0 and total < math.inf):  # NaN fails too
            raise DataError(f"{path}:{lineno}: concentrations for {word!r} must be positive and finite")
        probs[word] = (alphas[0] / total, alphas[1] / total, alphas[2] / total)
    return SentimentPrior(probs=probs)


@dataclass(frozen=True)
class SenseInventory:
    """Per-word distributions over the fixed sense set of one kind."""

    kind: SenseKind
    weights: dict[str, dict[str, float]]

    def get(self, word: str) -> dict[str, float] | None:
        return self.weights.get(word.lower())


def load_sense_inventory(path: str | Path, kind: SenseKind) -> SenseInventory:
    """Load ``word<TAB>sense:weight,sense:weight,...`` rows, normalizing weights.

    Sense names must belong to the inventory of `kind`; weights must be
    finite and non-negative with a positive, finite sum.  Duplicate words:
    last row wins.
    """
    valid = set(kind.senses)
    weights: dict[str, dict[str, float]] = {}
    for lineno, fields in read_rows(path, 2):
        word = fields[0].strip().lower()
        items = [item for item in fields[1].split(",") if item.strip()]
        if not items:
            raise DataError(f"{path}:{lineno}: empty sense list for {word!r}")
        dist: dict[str, float] = {}
        for item in items:
            name, sep, weight_token = item.partition(":")
            name = name.strip().lower()
            if not sep:
                raise DataError(f"{path}:{lineno}: malformed sense item {item!r}")
            if name not in valid:
                raise DataError(f"{path}:{lineno}: unknown {kind.value} sense {name!r}")
            try:
                weight = float(weight_token)
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric weight in {item!r}") from None
            if not 0 <= weight < math.inf:  # NaN fails too
                raise DataError(f"{path}:{lineno}: weight in {item!r} must be non-negative and finite")
            dist[name] = dist.get(name, 0.0) + weight
        total = sum(dist.values())
        if not 0 < total < math.inf:
            raise DataError(f"{path}:{lineno}: sense weights for {word!r} sum to zero or overflow")
        weights[word] = {name: w / total for name, w in dist.items()}
    return SenseInventory(kind=kind, weights=weights)
