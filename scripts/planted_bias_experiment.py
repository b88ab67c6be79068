#!/usr/bin/env python3
"""Detection-power sweep for the planted body-sense effect.

For each effect size, runs synth -> train -> sense tests over several seeds
and reports how often the body/pos difference is flagged at the
Bonferroni-corrected level.  Each draw's sentiment lexicon and sense
inventory are written to a temporary directory and read back with the
package loaders, so they follow the same rules as the CLI's; training and
testing run in-process, so it is the fastest way to explore generator and
grid settings.
"""

import argparse
import tempfile
import time

from genderedlang.corpus import aggregate_counts, bundled_lexicon_path, load_gender_lexicon
from genderedlang.evaluation import sense_difference_suite
from genderedlang.lexicons import SenseKind, load_sense_inventory, load_sentiment_lexicon
from genderedlang.model import FeatureSpace, TrainConfig, grid_train_average
from genderedlang.synth import SynthConfig, generate, write_lexicons


def detect(lex, space, seed, effect, args):
    data = generate(SynthConfig(seed=seed, vocab_size=args.vocab_size,
                                n_pairs=args.n_pairs, planted_body_fem=effect), lex)
    table = aggregate_counts(data.pairs, data.config.relation, lex)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_lexicons(tmp, data)
        prior = load_sentiment_lexicon(paths["sentiment"])
        inventory = load_sense_inventory(paths["senses"], SenseKind.of(data.config.relation))
    grid = grid_train_average(table, space, prior, [0.0, 1e-3], [0.1, 1.0],
                              TrainConfig(max_iterations=args.max_iterations))
    rows = sense_difference_suite(grid.params, space, inventory, k=args.k,
                                  permutations=args.permutations, seed=seed)
    row = next(r for r in rows if r.sentiment == "pos" and r.sense == "body")
    return row.result.significant, row.result.p_value


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--effects", default="0,0.05,0.1,0.15")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--vocab-size", type=int, default=240)
    parser.add_argument("--n-pairs", type=int, default=200000)
    parser.add_argument("--max-iterations", type=int, default=1000)
    parser.add_argument("--k", type=int, default=40)
    parser.add_argument("--permutations", type=int, default=4000)
    args = parser.parse_args()

    lex = load_gender_lexicon(bundled_lexicon_path())
    space = FeatureSpace.from_lexicon(lex)
    print(f"{'effect':>8} {'detected':>10} {'median p':>10} {'sec/run':>8}")
    for token in args.effects.split(","):
        effect = float(token)
        hits, p_values, start = 0, [], time.monotonic()
        for seed in range(args.seeds):
            significant, p = detect(lex, space, seed, effect, args)
            hits += significant
            p_values.append(p)
        per_run = (time.monotonic() - start) / args.seeds
        p_values.sort()
        median_p = p_values[len(p_values) // 2]
        print(f"{effect:>8.3f} {hits:>6}/{args.seeds:<3} {median_p:>10.5f} {per_run:>8.1f}")


if __name__ == "__main__":
    main()
