"""Command-line front end: ingest, train, report, synth.

Every command is a pure function of (input files, flags, seed); reruns
write byte-identical outputs.  Exit codes: 0 success, 1 usage error,
2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import checkpoint as ckpt
from . import evaluation as ev
# aggregate_counts is not called here: perfbench/test_perfbench.py checks that
# tracing rebinds this module's name for it
from .corpus import (GENDERS, Gender, IngestStats, Relation, aggregate_counts,
                     bundled_lexicon_path, gender_marginals, load_canonical_table,
                     load_gender_lexicon, load_tables, read_lines, read_rows, write_canonical,
                     write_rows)
from .pmi import PROP1_MAX_ITERATIONS, SATURATION_TOL, collapse_by_gender, pmi_table, prop1_check
from .errors import DataError, NumericalError, UsageError
from .lexicons import (SENTIMENTS, SenseKind, load_sense_inventory, load_sentiment_lexicon)
from .model import FeatureSpace, TrainConfig, grid_train_average
from .synth import MAX_PLANTED_BODY_FEM, SynthConfig, generate, write_synth


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # a long flag is spelled in full, as _expand_config matches it
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _checked(kind, accepts, what: str):
    """An argparse ``type=``: the token as `kind`, a usage error unless `accepts(value)`."""
    def parse(token: str):
        value = kind(token)
        if not accepts(value):  # NaN fails every comparison
            raise argparse.ArgumentTypeError(f"must be {what}, got {token!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value: 'x'"
    return parse


_POSITIVE_INT = _checked(int, lambda v: v > 0, "positive")
_POSITIVE_FLOAT = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")
_SEED = _checked(int, lambda v: v >= 0, "non-negative")


def _parse_grid(token: str) -> list[float]:
    try:
        values = [float(v) for v in token.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad grid {token!r}: expected comma-separated floats") from None
    if not values:
        raise argparse.ArgumentTypeError("grids must be non-empty")
    if not all(0 <= v < math.inf for v in values):  # NaN fails too
        raise argparse.ArgumentTypeError("grid values must be non-negative and finite")
    tags = [f"{v:g}" for v in values]  # cell files are named by these tags
    if len(set(tags)) < len(tags):
        raise argparse.ArgumentTypeError(
            f"bad grid {token!r}: values must differ within 6 significant digits")
    return values


def _load_lexicon(args) -> "GenderLexicon":
    path = args.gender_lexicon or bundled_lexicon_path()
    return load_gender_lexicon(path)


# ---------------------------------------------------------------------------
# ingest


def cmd_ingest(args) -> int:
    lex = _load_lexicon(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stats = IngestStats()
    tables = load_tables(args.input, lex, stats, arcs=args.format == "arcs")
    if not tables:
        raise DataError("no usable records in any input file")

    report = {"malformed_lines": stats.malformed, "input_lines": stats.lines,
              "unknown_forms": stats.unknown_forms, "relations": {}}
    for relation, table in tables.items():
        write_canonical(out / f"{relation.value}.tsv", table)
        marg = gender_marginals(table, lex)
        report["relations"][relation.value] = {
            "total_count": table.total,
            "distinct_pairs": int((table.matrix > 0).sum()),
            "neighbors": len(table.vocab),
            "noun_forms": len(table.forms),
            "masc_count": marg[Gender.MASC],
            "fem_count": marg[Gender.FEM],
        }
    (out / "stats.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n",
                                    encoding="utf-8")
    print(f"wrote {len(report['relations'])} relation file(s) to {out}")
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    lex = _load_lexicon(args)
    relation = Relation(args.relation)
    table = load_canonical_table(args.corpus, relation, lex)
    space = FeatureSpace.from_lexicon(lex)

    alphas, betas = args.alpha_grid, args.beta_grid
    # only the regularizer tells sentiment slices apart, so an all-zero grid fits one
    n_sentiments = 3 if any(b > 0 for b in betas) else 1

    prior = load_sentiment_lexicon(args.sentiment_lexicon) if args.sentiment_lexicon else None
    base = TrainConfig(max_iterations=args.max_iterations, tolerance=args.tolerance,
                       n_sentiments=n_sentiments)
    grid = grid_train_average(table, space, prior, alphas, betas, base, jobs=args.jobs)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fingerprint = table.fingerprint()
    for (a, b), run in grid.runs.items():
        tag = f"alpha{a:g}_beta{b:g}"
        ckpt.save_checkpoint(out / f"checkpoint_{tag}.json", run.params, space, run.config,
                             fingerprint, relation.value,
                             extra={"iterations": run.iterations, "converged": run.converged,
                                    "stop_reason": run.stop_reason,
                                    "kkt_residual": run.kkt_residual})
        write_rows(out / f"trace_{tag}.tsv", [["iteration", "objective"], *enumerate(run.trace)])
        print(f"cell alpha={a:g} beta={b:g}: {run.iterations} iterations, "
              f"objective {run.trace[-1]:.6f}, converged={run.converged} "
              f"(stop {run.stop_reason}, KKT residual {run.kkt_residual:.3g})", file=sys.stderr)
    ckpt.save_checkpoint(out / "checkpoint_averaged.json", grid.params, space, base,
                         fingerprint, relation.value,
                         extra={"grid_alphas": alphas, "grid_betas": betas})
    print(f"wrote {len(grid.runs)} cell checkpoint(s) and the average to {out}")
    return 0


# ---------------------------------------------------------------------------
# report subcommands


def cmd_report_topk(args) -> int:
    loaded = ckpt.load_checkpoint(args.checkpoint)
    rows = [["gender", "sentiment", "rank", "neighbor", "score"]]
    for gender in GENDERS:
        for sentiment in loaded.params.sentiments:
            ranked = ev.topk(loaded.params, loaded.space, gender, sentiment, args.k)
            for rank, (word, value) in enumerate(ranked, start=1):
                rows.append([gender.value, ev.sentiment_label(sentiment), rank, word, value])
    write_rows(args.out, rows)
    return 0


def cmd_report_pmi(args) -> int:
    lex = _load_lexicon(args)
    table = load_canonical_table(args.corpus, Relation(args.relation), lex)
    gtable = collapse_by_gender(table, lex)
    values = pmi_table(gtable)
    rows = [["gender", "neighbor", "pmi"]]
    for gender in GENDERS:
        pairs = ev.ranked((word, v) for (word, g), v in values.items() if g is gender)
        rows.extend([gender.value, word, v] for word, v in pairs)
    write_rows(args.out, rows)
    return 0


def cmd_report_senses(args) -> int:
    loaded = ckpt.load_checkpoint(args.checkpoint)
    inventory = load_sense_inventory(args.inventory, SenseKind(args.kind))
    suite = ev.sense_difference_suite(loaded.params, loaded.space, inventory, k=args.k,
                                      permutations=args.permutations, seed=args.seed)
    rows = [["sentiment", "sense", "freq_masc", "freq_fem", "p", "significant"]]
    rows.extend([row.sentiment, row.sense, row.result.mean_a, row.result.mean_b,
                 row.result.p_value, str(row.result.significant).lower()] for row in suite)
    write_rows(args.out, rows)
    return 0


def cmd_report_sentiment(args) -> int:
    loaded = ckpt.load_checkpoint(args.checkpoint)
    prior = load_sentiment_lexicon(args.sentiment_lexicon)
    results = ev.sentiment_frequency(loaded.params, loaded.space, prior, k=args.k,
                                     permutations=args.permutations, seed=args.seed)
    tests = [results[s] for s in SENTIMENTS]
    sig = [str(t.significant).lower() for t in tests]
    means = [[t.mean_a for t in tests], [t.mean_b for t in tests]]
    header = ["relation", "gender", *(s.value for s in SENTIMENTS),
              *(f"sig_{s.value}" for s in SENTIMENTS)]
    write_rows(args.out, [header, *([loaded.relation, g.value, *freqs, *sig]
                                    for g, freqs in zip(GENDERS, means))])
    return 0


def _read_judgments(path: str, convert) -> dict:
    """``word<TAB>value`` rows as {lower-cased word: convert(value)}."""
    out = {}
    for lineno, (word, value) in read_rows(path, 2):
        try:
            out[word.strip().lower()] = convert(value)
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric judgment {value!r}") from None
    if not out:
        raise DataError(f"{path}: empty judgments file")
    return out


def cmd_report_correlate(args) -> int:
    loaded = ckpt.load_checkpoint(args.checkpoint)
    judgments = _read_judgments(args.judgments, float)
    binary = _read_judgments(args.binary_judgments, str) if args.binary_judgments else None
    report = ev.correlate_judgments(loaded.params, loaded.space, judgments, binary,
                                    permutations=args.permutations, seed=args.seed)
    write_rows(args.out, [["rho", "p", "agreement", "n"],
                          [report.rho, report.p_value, report.agreement, report.n]])
    audit = Path(args.out).with_name(Path(args.out).stem + "_audit.tsv")
    write_rows(audit, [["rho_posterior", "rho_raw_score", "p", "agreement", "n"],
                       [report.rho,
                        report.rho_raw_score if report.rho_raw_score is not None else "nan",
                        report.p_value, report.agreement, report.n]])
    return 0


def _read_values(path: str) -> list[float]:
    values = []
    for lineno, (token,) in read_rows(path, 1):
        try:
            values.append(float(token))
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric value {token!r}") from None
    if not values:
        raise DataError(f"{path}: no values")
    return values


def cmd_report_permtest(args) -> int:
    alpha = args.alpha / args.tests
    result = ev.permutation_test(_read_values(args.group_a), _read_values(args.group_b),
                                 permutations=args.permutations, seed=args.seed, alpha=alpha)
    write_rows(args.out, [["statistic", "p_value", "corrected_alpha", "significant",
                           "permutations_used", "exact"],
                          [result.statistic, result.p_value, alpha,
                           str(result.significant).lower(), result.permutations_used,
                           str(result.exact).lower()]])
    return 0


def cmd_report_prop1(args) -> int:
    lex = _load_lexicon(args)
    table = load_canonical_table(args.corpus, Relation(args.relation), lex)
    gtable = collapse_by_gender(table, lex)
    report = prop1_check(gtable, args.max_iterations, args.saturation_tol)
    write_rows(args.out, [["gender", "max_normalized_deviation", "spearman", "iterations"],
                          *([g.value, report.max_deviation[g], report.rank_correlation[g],
                             report.restricted.iterations] for g in GENDERS)])
    return 0


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    lex = _load_lexicon(args)
    config = SynthConfig(seed=args.seed, vocab_size=args.vocab_size, n_pairs=args.n_pairs,
                         planted_body_fem=args.planted_body_fem, kind=SenseKind(args.kind),
                         relation=Relation(args.relation))
    data = generate(config, lex)
    paths = write_synth(args.out, data, lex)
    print(f"wrote synthetic corpus ({len(data.pairs)} pairs) to {args.out}")
    for name in sorted(paths):
        print(f"  {name}: {paths[name]}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _expand_config(argv: list[str]) -> list[str]:
    """Splice config-file key=value pairs in as flags; a key whose flag is given too is dropped."""
    if "--config" not in argv and not any(a.startswith("--config=") for a in argv):
        return argv
    out, config_path = [], None
    i = 0
    while i < len(argv):
        if argv[i] != "--config" and not argv[i].startswith("--config="):
            out.append(argv[i])
            i += 1
            continue
        if config_path is not None:  # keeping only one would drop the other's keys silently
            raise UsageError("--config may be given only once")
        if argv[i] == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config requires a path")
            config_path = argv[i + 1]
            i += 2
        else:
            config_path = argv[i].split("=", 1)[1]
            i += 1
    given = {a.split("=", 1)[0] for a in out if a.startswith("--")}
    tokens = []
    for lineno, line in read_lines(config_path):
        if "=" not in line:
            raise DataError(f"{config_path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("_", "-")
        if key == "config":  # would reach argparse as the help-only --config and be dropped
            raise DataError(f"{config_path}:{lineno}: a config file cannot name another")
        if f"--{key}" not in given:
            tokens.extend([f"--{key}", value])
    # Insert after the subcommand token(s) so explicit flags take precedence.
    n_sub = 0
    while n_sub < len(out) and not out[n_sub].startswith("-"):
        n_sub += 1
    return out[:n_sub] + tokens + out[n_sub:]


def _add_common(p, lexicon: bool = True) -> None:
    # --config is consumed by _expand_config before parsing; declared here so
    # it appears in --help.
    p.add_argument("--config", metavar="FILE",
                   help="key=value defaults for this command; explicit flags win")
    if lexicon:
        p.add_argument("--gender-lexicon", default=None,
                       help="gendered-noun lexicon TSV (default: bundled list)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="genderedlang",
                     description="Quantify gendered neighbor choice in parsed corpora")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse raw collocations into canonical per-relation TSVs")
    p.add_argument("--input", action="append", required=True, help="input file (repeatable)")
    p.add_argument("--format", choices=["arcs", "canonical"], default="arcs")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train the model over a hyperparameter grid")
    p.add_argument("--corpus", required=True, help="canonical collocation TSV")
    p.add_argument("--relation", choices=[r.value for r in Relation], required=True)
    p.add_argument("--sentiment-lexicon", default=None)
    p.add_argument("--alpha-grid", type=_parse_grid, default="0",
                   help="comma-separated L1 weights")
    p.add_argument("--beta-grid", type=_parse_grid, default="0",
                   help="comma-separated regularizer weights; any > 0 fits sentiment axes")
    p.add_argument("--max-iterations", type=_POSITIVE_INT, default=TrainConfig.max_iterations)
    p.add_argument("--tolerance", type=_POSITIVE_FLOAT, default=TrainConfig.tolerance,
                   help="stop once the KKT residual (projected-gradient inf-norm) is this small")
    p.add_argument("--jobs", type=_POSITIVE_INT, default=1)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    report = sub.add_parser("report", help="write analysis TSVs from checkpoints/corpora")
    rsub = report.add_subparsers(dest="report_command", required=True)

    p = rsub.add_parser("topk")
    _add_common(p, lexicon=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--k", type=_POSITIVE_INT, default=25)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report_topk)

    p = rsub.add_parser("pmi")
    p.add_argument("--corpus", required=True)
    p.add_argument("--relation", choices=[r.value for r in Relation], required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_report_pmi)

    p = rsub.add_parser("senses")
    _add_common(p, lexicon=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--inventory", required=True)
    p.add_argument("--kind", choices=[k.value for k in SenseKind], default="adj")
    p.add_argument("--k", type=_POSITIVE_INT, default=200)
    p.add_argument("--permutations", type=_POSITIVE_INT, default=100000)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report_senses)

    p = rsub.add_parser("sentiment")
    _add_common(p, lexicon=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sentiment-lexicon", required=True)
    p.add_argument("--k", type=_POSITIVE_INT, default=200)
    p.add_argument("--permutations", type=_POSITIVE_INT, default=100000)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report_sentiment)

    p = rsub.add_parser("correlate")
    _add_common(p, lexicon=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--judgments", required=True, help="word<TAB>score TSV")
    p.add_argument("--binary-judgments", default=None, help="word<TAB>m|f TSV")
    p.add_argument("--permutations", type=_POSITIVE_INT, default=10000)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report_correlate)

    p = rsub.add_parser("permtest")
    _add_common(p, lexicon=False)
    p.add_argument("--group-a", required=True, help="one value per line")
    p.add_argument("--group-b", required=True)
    p.add_argument("--permutations", type=_POSITIVE_INT, default=100000)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--alpha", type=_checked(float, lambda v: 0 < v < 1, "in (0, 1)"),
                   default=0.05)
    p.add_argument("--tests", type=_POSITIVE_INT, default=1, help="Bonferroni divisor")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report_permtest)

    p = rsub.add_parser("prop1")
    p.add_argument("--corpus", required=True)
    p.add_argument("--relation", choices=[r.value for r in Relation], required=True)
    p.add_argument("--max-iterations", type=_POSITIVE_INT, default=PROP1_MAX_ITERATIONS)
    p.add_argument("--saturation-tol", type=_POSITIVE_FLOAT, default=SATURATION_TOL)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_report_prop1)

    p = sub.add_parser("synth", help="generate a planted-truth synthetic corpus")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--vocab-size", type=_checked(int, lambda v: v >= 12, "at least 12"),
                   default=240)
    p.add_argument("--n-pairs", type=_POSITIVE_INT, default=300000)
    p.add_argument("--planted-body-fem", default=0.0,
                   type=_checked(float, lambda v: 0 <= v <= MAX_PLANTED_BODY_FEM,
                                 f"in [0, {MAX_PLANTED_BODY_FEM}]"),
                   help="mean body-sense weight added to the FEM group")
    p.add_argument("--kind", choices=[k.value for k in SenseKind], default="adj")
    p.add_argument("--relation", choices=[r.value for r in Relation], default="amod")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _expand_config(argv)
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (DataError, OSError, UnicodeDecodeError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
