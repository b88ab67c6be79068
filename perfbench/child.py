"""Child processes of the traced run.

    python perfbench/child.py cli --spans FILE --run-id ID -- <genderedlang arguments>
        runs one CLI command with the package's public functions wrapped in
        spans, then writes the spans to FILE and exits with the command's code.

    python perfbench/child.py micro --corpus TSV [--checkpoint JSON]
                                    [--sentiment-lexicon TSV] --out FILE
        times repeated calls to the model's public joint_marginal, gradient and
        objective on one table and writes the samples (seconds) to FILE.

Both expect the package on the import path (PYTHONPATH=src).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from tracer import Tracer, install


def _attrs_train(args, kwargs, result) -> dict:
    return {"iterations": result.iterations, "converged": result.converged}


def _attrs_iter(args, kwargs, result) -> dict:
    stats = args[2] if len(args) > 2 else kwargs.get("stats")
    return {"lines": stats.lines} if stats is not None else {}


def _attrs_save(args, kwargs, result) -> dict:
    return {"bytes": Path(args[0]).stat().st_size}


def _attrs_permtest(args, kwargs, result) -> dict:
    return {"permutations": result.permutations_used, "exact": result.exact}


def _attrs_restricted(args, kwargs, result) -> dict:
    return {"iterations": result.iterations}


# span name -> (module, attribute, annotate): the public calls the traced run times.
TARGETS = {
    "corpus.load_gender_lexicon": ("genderedlang.corpus", "load_gender_lexicon", None),
    "corpus.iter_arcs": ("genderedlang.corpus", "iter_arcs", _attrs_iter),
    "corpus.iter_canonical": ("genderedlang.corpus", "iter_canonical", _attrs_iter),
    "corpus.aggregate_counts": ("genderedlang.corpus", "aggregate_counts", None),
    "corpus.write_canonical": ("genderedlang.corpus", "write_canonical", None),
    "corpus.gender_marginals": ("genderedlang.corpus", "gender_marginals", None),
    "corpus.count_matrix": ("genderedlang.corpus", "CountTable.count_matrix", None),
    "model.grid_train_average": ("genderedlang.model", "grid_train_average", None),
    "model.train": ("genderedlang.model", "train", _attrs_train),
    "checkpoint.save_checkpoint": ("genderedlang.checkpoint", "save_checkpoint", _attrs_save),
    "checkpoint.load_checkpoint": ("genderedlang.checkpoint", "load_checkpoint", None),
    "lexicons.load_sentiment_lexicon": ("genderedlang.lexicons", "load_sentiment_lexicon", None),
    "lexicons.load_sense_inventory": ("genderedlang.lexicons", "load_sense_inventory", None),
    "evaluation.topk": ("genderedlang.evaluation", "topk", None),
    "evaluation.sense_difference_suite": ("genderedlang.evaluation", "sense_difference_suite",
                                          None),
    "evaluation.permutation_test": ("genderedlang.evaluation", "permutation_test",
                                    _attrs_permtest),
    "evaluation.correlate_judgments": ("genderedlang.evaluation", "correlate_judgments", None),
    "evaluation.spearman": ("genderedlang.evaluation", "spearman", None),
    "pmi.collapse_by_gender": ("genderedlang.pmi", "collapse_by_gender", None),
    "pmi.count_matrix": ("genderedlang.pmi", "GenderCollapsedTable.count_matrix", None),
    "pmi.pmi_table": ("genderedlang.pmi", "pmi_table", None),
    "pmi.prop1_check": ("genderedlang.pmi", "prop1_check", None),
    "pmi.restricted_train": ("genderedlang.pmi", "restricted_train", _attrs_restricted),
}


def run_cli(spans: Path, run_id: str, argv: list[str]) -> int:
    from genderedlang import cli

    tracer = Tracer(run_id)
    install(tracer, "genderedlang", TARGETS)
    with tracer.span(f"cli.{argv[0]}"):
        code = cli.main(argv)
    tracer.dump(spans)
    return code


MICRO_BUDGET_S = 1.0
MICRO_MIN_CALLS = 5
MICRO_MAX_CALLS = 200


def run_micro(corpus: Path, checkpoint: Path | None, sentiment: Path | None, out: Path) -> int:
    from genderedlang.checkpoint import load_checkpoint
    from genderedlang.corpus import (Relation, aggregate_counts, bundled_lexicon_path,
                                     iter_canonical, load_gender_lexicon)
    from genderedlang.lexicons import load_sentiment_lexicon
    from genderedlang.model import (FeatureSpace, TrainConfig, gradient, init_params,
                                    joint_marginal, objective)

    lex = load_gender_lexicon(bundled_lexicon_path())
    table = aggregate_counts(iter_canonical(corpus, lex), Relation.AMOD, lex)
    space = FeatureSpace.from_lexicon(lex)
    params = load_checkpoint(checkpoint).params if checkpoint else init_params(table, space)
    prior = load_sentiment_lexicon(sentiment) if sentiment else None
    config = TrainConfig(alpha=1e-3, beta=1.0 if prior else 0.0)
    calls = {
        "joint_marginal": lambda: joint_marginal(params, space),
        "gradient": lambda: gradient(params, space, table, prior, config),
        "objective": lambda: objective(params, space, table, prior, config),
    }
    samples: dict[str, list[float]] = {}
    for name, call in calls.items():
        times: list[float] = []
        start = time.perf_counter()
        while len(times) < MICRO_MAX_CALLS and (
                len(times) < MICRO_MIN_CALLS or time.perf_counter() - start < MICRO_BUDGET_S):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        samples[name] = times
    out.write_text(json.dumps(samples) + "\n", encoding="utf-8")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--spans", type=Path, required=True)
    p.add_argument("--run-id", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("micro")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--sentiment-lexicon", type=Path, default=None)
    p.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.mode == "cli":
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return run_cli(args.spans, args.run_id, argv)
    return run_micro(args.corpus, args.checkpoint, args.sentiment_lexicon, args.out)


if __name__ == "__main__":
    sys.exit(main())
