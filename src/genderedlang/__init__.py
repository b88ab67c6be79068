"""Quantifying gendered language in dependency-parsed corpora."""

from .corpus import (CountTable, Gender, GenderLexicon, Number, Pair, Relation,
                     aggregate_by_relation, aggregate_counts, bundled_lexicon_path,
                     gender_marginals, load_gender_lexicon, parse_arcs_line)
from .errors import DataError, MalformedLineError, NumericalError, UsageError
from .evaluation import (JudgmentReport, TestResult, correlate_judgments, permutation_test,
                         sense_difference_suite, sentiment_frequency, spearman, topk)
from .lexicons import (ADJECTIVE_SENSES, SENTIMENTS, VERB_SENSES, SenseInventory,
                       SenseKind, Sentiment, SentimentPrior, load_sense_inventory,
                       load_sentiment_lexicon)
from .model import (FeatureSpace, ModelParams, TrainConfig, TrainResult, gradient,
                    grid_train_average, init_params, joint_marginal, objective, train)
from .pmi import (GenderCollapsedTable, collapse_by_gender, pmi_table, prop1_check,
                  restricted_train)

__version__ = "0.1.0"
