#!/usr/bin/env python3
"""End-to-end demo on a generated corpus: synth -> ingest -> train -> reports.

Writes everything under runs/demo/ (override with --out).  Useful as a
template for wiring the CLI stages together on real canonical TSVs.
"""

import argparse
import sys
from pathlib import Path

from genderedlang.cli import main as cli


def run(argv):
    print("+ genderedlang " + " ".join(argv), file=sys.stderr)
    code = cli(argv)
    if code != 0:
        raise SystemExit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/demo")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--planted-body-fem", type=float, default=0.15)
    args = parser.parse_args()

    out = Path(args.out)
    synth, ingest, train = out / "synth", out / "ingest", out / "train"
    reports = out / "reports"
    reports.mkdir(parents=True, exist_ok=True)

    run(["synth", "--seed", str(args.seed),
         "--planted-body-fem", str(args.planted_body_fem), "--out", str(synth)])
    run(["ingest", "--input", str(synth / "corpus.tsv"), "--format", "canonical",
         "--out", str(ingest)])
    run(["train", "--corpus", str(ingest / "amod.tsv"), "--relation", "amod",
         "--sentiment-lexicon", str(synth / "sentiment_lexicon.tsv"),
         "--alpha-grid", "0,0.001", "--beta-grid", "0.1,1",
         "--max-iterations", "1000", "--out", str(train)])

    ckpt = str(train / "checkpoint_averaged.json")
    run(["report", "topk", "--checkpoint", ckpt, "--k", "25",
         "--out", str(reports / "topk.tsv")])
    run(["report", "senses", "--checkpoint", ckpt,
         "--inventory", str(synth / "senses_adj.tsv"), "--kind", "adj",
         "--k", "40", "--permutations", "10000", "--seed", str(args.seed),
         "--out", str(reports / "senses.tsv")])
    run(["report", "pmi", "--corpus", str(ingest / "amod.tsv"), "--relation", "amod",
         "--out", str(reports / "pmi.tsv")])
    run(["report", "prop1", "--corpus", str(ingest / "amod.tsv"), "--relation", "amod",
         "--out", str(reports / "prop1.tsv")])
    run(["report", "correlate", "--checkpoint", ckpt,
         "--judgments", str(synth / "judgments.tsv"),
         "--binary-judgments", str(synth / "judgments_binary.tsv"),
         "--out", str(reports / "correlate.tsv")])
    print(f"\nreports written under {reports}")


if __name__ == "__main__":
    main()
