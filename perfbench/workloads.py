"""The benchmark's workloads: input generators, CLI chains and output checks.

Every input is generated here from the workload seed; the program under test
only sees the files.  Each workload is a closed loop with one client: the
commands of its chain run one after another, each in a fresh process.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from genderedlang.checkpoint import save_checkpoint
from genderedlang.corpus import (Relation, aggregate_counts, bundled_lexicon_path,
                                 load_gender_lexicon)
from genderedlang.model import FeatureSpace, TrainConfig, init_params
from genderedlang.synth import SynthConfig, SynthData, generate, write_synth

from tracer import Tracer

# grid240 and the arcs file of reports relabel one fixed synth corpus per seed
# (see relabel), so every seed poses the same problem in different bytes:
# iterations to convergence, line counts and memory swing between synth seeds
# (criterion 7's full 2x2 grid takes 22 s on synth seed 0 and 57 s on seed 1,
# where one cell stops at the 20,000-iteration cap unconverged).  grid240 is
# defined by synth seed 0: 1,111 + 453 iterations in its two cells.
#
# A chain takes 5 to 11 s, so a run repeats it several times and reports the
# median; on a shared host the speed of identical work drifts by tens of
# percent over seconds to minutes.
BASE_SYNTH_SEED = 0


@dataclass
class Inputs:
    """What setup wrote, plus the facts the output checks compare against."""

    files: dict[str, Path]
    shape: dict[str, int]                     # G, T, V
    expected: dict = field(default_factory=dict)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, Path, Tracer], Inputs]
    commands: Callable[[Inputs, Path], list[tuple[str, list[str]]]]
    checks: Callable[[Inputs, Path], list[Check]]
    quality: Callable[[Inputs, Path], dict[str, float]]
    micro_corpus: Callable[[Inputs, Path], Path]
    micro_checkpoint: Callable[[Inputs, Path], Path | None]


def _lexicon():
    return load_gender_lexicon(bundled_lexicon_path())


def _shape(data: SynthData) -> dict[str, int]:
    lex = _lexicon()
    return {"G": len({p.form for p in data.pairs}),
            "T": FeatureSpace.from_lexicon(lex).dim,
            "V": len({p.neighbor for p in data.pairs})}


def _synth(seed: int, vocab_size: int, n_pairs: int, tracer: Tracer) -> SynthData:
    config = SynthConfig(seed=seed, vocab_size=vocab_size, n_pairs=n_pairs,
                         planted_body_fem=0.15)
    with tracer.span("synth.generate"):
        return generate(config, _lexicon())


def _write(data: SynthData, out: Path, tracer: Tracer) -> dict[str, Path]:
    with tracer.span("synth.write_synth"):
        return write_synth(out, data, _lexicon())


# ---------------------------------------------------------------------------
# generators


def _fresh_words(rng: np.random.Generator, n: int, length: int = 7) -> list[str]:
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n:
        word = "".join(rng.choice(letters, length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def relabel(data: SynthData, seed: int) -> SynthData:
    """Rename every neighbor word to a seeded random token; the counts stay the same.

    The renamed corpus poses the same estimation problem with its rows in
    another order, so training does the same work to within rounding, while
    each seed still yields different input and output bytes.
    """
    vocab = sorted({p.neighbor for p in data.pairs} | {w for w, *_ in data.sentiment_rows})
    new = dict(zip(vocab, _fresh_words(np.random.default_rng(seed), len(vocab))))
    manifest = dict(data.manifest)
    manifest["relabel_seed"] = seed
    manifest["fem_words"] = [new[w] for w in data.manifest["fem_words"]]
    manifest["masc_words"] = [new[w] for w in data.manifest["masc_words"]]
    for key in ("dominant_sentiment", "true_gender_scores"):
        manifest[key] = {new[w]: v for w, v in sorted(data.manifest[key].items())}
    return replace(
        data,
        pairs=[p._replace(neighbor=new[p.neighbor]) for p in data.pairs],
        sentiment_rows=[(new[w], *rest) for w, *rest in data.sentiment_rows],
        sense_rows=[(new[w], dist) for w, dist in data.sense_rows],
        judgments={new[w]: v for w, v in data.judgments.items()},
        binary_judgments={new[w]: v for w, v in data.binary_judgments.items()},
        manifest=manifest,
    )


# Lines injected into the arcs corpus, one per kind, per 1,000 amod lines.
# Every malformed kind raises MalformedLineError in the parser.
MALFORMED_KINDS = ("too_few_fields", "bad_total", "negative_total", "bad_token",
                   "bad_head_index", "head_out_of_range")
NSUBJ_PER_MILLE = 20
UNKNOWN_HEAD_PER_MILLE = 15
MALFORMED_PER_MILLE = 2
BLANK_PER_MILLE = 1


def _years(rng: np.random.Generator, counts: np.ndarray) -> list[str]:
    """Per-year breakdown field for each count: one year, or two when the count allows."""
    first = rng.integers(1950, 2010, counts.size)
    split = rng.integers(1, np.maximum(counts, 2))
    return [f"{y},{c}" if c < 2 else f"{y},{s} {y + 1},{c - s}"
            for y, s, c in zip(first.tolist(), split.tolist(), counts.tolist())]


def _malformed_line(kind: str, form: str, word: str) -> str:
    return {
        "too_few_fields": f"{form}\t{word}/JJ/amod/2 {form}/NN/ROOT/0",
        "bad_total": f"{form}\t{word}/JJ/amod/2 {form}/NN/ROOT/0\tmany\t2000,1",
        "negative_total": f"{form}\t{word}/JJ/amod/2 {form}/NN/ROOT/0\t-3\t2000,-3",
        "bad_token": f"{form}\t{word}/JJ/amod/2 {form}/NN\t4\t2000,4",
        "bad_head_index": f"{form}\t{word}/JJ/amod/x {form}/NN/ROOT/0\t4\t2000,4",
        "head_out_of_range": f"{form}\t{word}/JJ/amod/7 {form}/NN/ROOT/0\t4\t2000,4",
    }[kind]


def render_arcs(data: SynthData, seed: int, path: Path) -> dict:
    """Write `data` as an arcs file with known counts of every kind of line.

    Each synth pair becomes one amod line (the head noun capitalized on some
    lines, to exercise case folding).  Added at fixed rates: nsubj lines on
    lexicon nouns, amod lines whose head noun is not in the lexicon,
    malformed lines of every kind and blank lines.  Lines are shuffled.
    Returns the counts ingest must report.
    """
    rng = np.random.default_rng([seed, 20_000])
    counts = np.array([p.count for p in data.pairs])
    capital = (rng.random(counts.size) < 0.1).tolist()
    lines: list[str] = []
    for (form, word, _rel, count), cap, years in zip(data.pairs, capital,
                                                     _years(rng, counts)):
        head = form.capitalize() if cap else form
        lines.append(f"{head}\t{word}/JJ/amod/2 {head}/NN/ROOT/0\t{count}\t{years}")
    amod_lines, amod_total = len(lines), int(counts.sum())
    forms = sorted({p.form for p in data.pairs})
    words = sorted({p.neighbor for p in data.pairs})
    verbs = [f"verb{i:03d}" for i in range(200)]

    n_nsubj = amod_lines * NSUBJ_PER_MILLE // 1000
    nsubj_counts = rng.integers(1, 40, n_nsubj)
    nsubj_total = int(nsubj_counts.sum())
    for form_i, verb_i, count, years in zip(rng.integers(len(forms), size=n_nsubj).tolist(),
                                            rng.integers(len(verbs), size=n_nsubj).tolist(),
                                            nsubj_counts.tolist(), _years(rng, nsubj_counts)):
        form, verb = forms[form_i], verbs[verb_i]
        lines.append(f"{verb}\t{form}/NN/nsubj/2 {verb}/VBD/ROOT/0\t{count}\t{years}")
    n_unknown = amod_lines * UNKNOWN_HEAD_PER_MILLE // 1000
    unknown_counts = rng.integers(1, 40, n_unknown)
    unknown_words = rng.integers(len(words), size=n_unknown).tolist()
    for i, (word_i, count, years) in enumerate(zip(unknown_words, unknown_counts.tolist(),
                                                   _years(rng, unknown_counts))):
        noun, word = f"thing{i % 500:03d}", words[word_i]
        lines.append(f"{noun}\t{word}/JJ/amod/2 {noun}/NN/ROOT/0\t{count}\t{years}")
    n_malformed_each = amod_lines * MALFORMED_PER_MILLE // 1000
    for kind in MALFORMED_KINDS:
        for _ in range(n_malformed_each):
            lines.append(_malformed_line(kind, forms[rng.integers(len(forms))],
                                         words[rng.integers(len(words))]))
    n_blank = amod_lines * BLANK_PER_MILLE // 1000
    lines.extend([""] * n_blank)

    order = rng.permutation(len(lines))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[i] for i in order) + "\n")
    return {
        "input_lines": len(lines) - n_blank,
        "malformed_lines": n_malformed_each * len(MALFORMED_KINDS),
        "amod_lines": amod_lines,
        "amod_total": amod_total,
        "nsubj_total": nsubj_total,
        "unknown_head_lines": n_unknown,
    }


def write_planted_checkpoint(data: SynthData, path: Path) -> None:
    """Checkpoint of synth's planted truth: the graded POS deviations on the gender bits.

    Background and noun prior are the empirical marginals of the generated
    corpus (the model's own initialization), sentiment preferences are flat.
    """
    lex = _lexicon()
    space = FeatureSpace.from_lexicon(lex)
    table = aggregate_counts(data.pairs, data.config.relation, lex)
    params = init_params(table, space)
    for word, grade in data.manifest["true_gender_scores"].items():
        column = space.fem_index if grade > 0 else space.masc_index
        params.eta[params.vocab_index(word), 0, column] = abs(grade)
    save_checkpoint(path, params, space, TrainConfig(), table.fingerprint(),
                    data.config.relation.value, extra={"planted_truth": True})


def permtest_groups(seed: int) -> tuple[list[float], list[float]]:
    """Two groups of 11 values, the second shifted by 1.5 standard deviations."""
    rng = np.random.default_rng([seed, 11])
    a = [round(float(x), 6) for x in rng.normal(0.0, 1.0, 11)]
    b = [round(float(x), 6) for x in rng.normal(1.5, 1.0, 11)]
    return a, b


def _write_values(path: Path, values: list[float]) -> None:
    path.write_text("".join(f"{v!r}\n" for v in values), encoding="utf-8")


# ---------------------------------------------------------------------------
# output readers


def read_tsv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def digests(out: Path) -> dict[str, str]:
    """sha256 of every file under `out`, by relative path."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _recall(ranked: dict[str, list[str]], manifest: dict) -> float:
    planted = {"fem": manifest["fem_words"], "masc": manifest["masc_words"]}
    found = sum(len(set(planted[g]) & set(ranked[g][:len(planted[g])])) for g in planted)
    return found / sum(len(words) for words in planted.values())


def topk_recall(topk_tsv: Path, manifest: dict) -> float:
    """Share of planted fem/masc words in the FEM-POS/MASC-POS lists of a topk report."""
    ranked: dict[str, list[str]] = {"fem": [], "masc": []}
    for row in read_tsv(topk_tsv):
        if row["sentiment"] == "pos":
            ranked[row["gender"]].append(row["neighbor"])
    return _recall(ranked, manifest)


def pmi_recall(pmi_tsv: Path, manifest: dict) -> float:
    """Share of planted fem/masc words ranked in the top of their gender's PMI list."""
    ranked: dict[str, list[str]] = {"fem": [], "masc": []}
    for row in read_tsv(pmi_tsv):
        ranked[row["gender"]].append(row["neighbor"])
    return _recall(ranked, manifest)


def objective_mean(train_dir: Path) -> float:
    finals = [float(read_tsv(p)[-1]["objective"]) for p in sorted(train_dir.glob("trace_*.tsv"))]
    return sum(finals) / len(finals)


def _cell_extras(train_dir: Path) -> dict[str, dict]:
    return {p.name: json.loads(p.read_text(encoding="utf-8"))["extra"]
            for p in sorted(train_dir.glob("checkpoint_alpha*.json"))}


def _traces_finite(train_dir: Path) -> bool:
    return all(math.isfinite(float(row["objective"]))
               for p in sorted(train_dir.glob("trace_*.tsv")) for row in read_tsv(p))


def _manifest(inputs: Inputs) -> dict:
    return json.loads(inputs.files["manifest"].read_text(encoding="utf-8"))


def _check_count(name: str, got, want) -> Check:
    return Check(name, got == want, f"got {got}, expected {want}")


# ---------------------------------------------------------------------------
# grid240


def _grid240_setup(seed: int, out: Path, tracer: Tracer) -> Inputs:
    data = relabel(_synth(BASE_SYNTH_SEED, 240, 300_000, tracer), seed)
    files = _write(data, out, tracer)
    return Inputs(files, _shape(data))


def _train_commands(inputs: Inputs, out: Path, alphas: str, betas: str,
                    k: int) -> list[tuple[str, list[str]]]:
    ingest, train = out / "ingest", out / "train"
    return [
        ("ingest", ["ingest", "--input", str(inputs.files["corpus"]), "--format", "canonical",
                    "--out", str(ingest)]),
        ("train", ["train", "--corpus", str(ingest / "amod.tsv"), "--relation", "amod",
                   "--sentiment-lexicon", str(inputs.files["sentiment"]),
                   "--alpha-grid", alphas, "--beta-grid", betas, "--jobs", "1",
                   "--out", str(train)]),
        ("report", ["report", "topk", "--checkpoint", str(train / "checkpoint_averaged.json"),
                    "--k", str(k), "--out", str(out / "topk.tsv")]),
    ]


def _grid240_commands(inputs: Inputs, out: Path):
    return _train_commands(inputs, out, "0,0.001", "0.1", 40)


def _grid240_checks(inputs: Inputs, out: Path) -> list[Check]:
    extras = _cell_extras(out / "train")
    checks = [Check("grid240.cells", len(extras) == 2, f"{len(extras)} cell checkpoints"),
              Check("grid240.finite_traces", _traces_finite(out / "train"),
                    "every objective trace value is finite")]
    return checks + [
        Check(f"grid240.converged[{name}]", extra.get("converged") is True,
              f"converged={extra.get('converged')} after {extra.get('iterations')} iterations")
        for name, extra in extras.items()]


def _train_quality(inputs: Inputs, out: Path) -> dict[str, float]:
    return {"planted_recall": topk_recall(out / "topk.tsv", _manifest(inputs)),
            "objective_mean": objective_mean(out / "train")}


# ---------------------------------------------------------------------------
# reports: the corpus reports on a V=5000 arcs file, then the statistical
# reports on a V=240 planted-truth checkpoint.  No command trains.


def _reports_setup(seed: int, out: Path, tracer: Tracer) -> Inputs:
    stats = _synth(seed, 240, 300_000, tracer)
    files = _write(stats, out, tracer)
    files["checkpoint"] = out / "planted_checkpoint.json"
    write_planted_checkpoint(stats, files["checkpoint"])
    a, b = permtest_groups(seed)
    files["group_a"], files["group_b"] = out / "group_a.txt", out / "group_b.txt"
    _write_values(files["group_a"], a)
    _write_values(files["group_b"], b)

    corpus = relabel(_synth(BASE_SYNTH_SEED, 5_000, 500_000, tracer), seed)
    files["arcs"] = out / "corpus.arcs"
    with tracer.span("perfbench.render_arcs"):
        expected = render_arcs(corpus, seed, files["arcs"])
    files["arcs_manifest"] = out / "arcs_manifest.json"
    files["arcs_manifest"].write_text(json.dumps(corpus.manifest, sort_keys=True) + "\n",
                                      encoding="utf-8")
    return Inputs(files, {f"{k}_arcs": v for k, v in _shape(corpus).items()} | _shape(stats),
                  expected)


def corpus_commands(inputs: Inputs, out: Path) -> list[tuple[str, list[str]]]:
    ingest = out / "ingest"
    corpus = str(ingest / "amod.tsv")
    return [
        ("ingest", ["ingest", "--input", str(inputs.files["arcs"]), "--format", "arcs",
                    "--out", str(ingest)]),
        ("report", ["report", "pmi", "--corpus", corpus, "--relation", "amod",
                    "--out", str(out / "pmi.tsv")]),
        ("report", ["report", "prop1", "--corpus", corpus, "--relation", "amod",
                    "--out", str(out / "prop1.tsv")]),
    ]


def stats_commands(inputs: Inputs, out: Path) -> list[tuple[str, list[str]]]:
    ckpt, seed = str(inputs.files["checkpoint"]), "0"
    return [
        ("report", ["report", "senses", "--checkpoint", ckpt,
                    "--inventory", str(inputs.files["senses"]), "--kind", "adj", "--k", "40",
                    "--permutations", "20000", "--seed", seed, "--out", str(out / "senses.tsv")]),
        ("report", ["report", "correlate", "--checkpoint", ckpt,
                    "--judgments", str(inputs.files["judgments"]),
                    "--binary-judgments", str(inputs.files["binary_judgments"]),
                    "--permutations", "2000", "--seed", seed,
                    "--out", str(out / "correlate.tsv")]),
        ("report", ["report", "permtest", "--group-a", str(inputs.files["group_a"]),
                    "--group-b", str(inputs.files["group_b"]), "--seed", seed,
                    "--out", str(out / "permtest.tsv")]),
    ]


def corpus_checks(inputs: Inputs, out: Path) -> list[Check]:
    stats = json.loads((out / "ingest" / "stats.json").read_text(encoding="utf-8"))
    want = inputs.expected
    prop1 = read_tsv(out / "prop1.tsv")
    return [
        _check_count("reports.input_lines", stats["input_lines"], want["input_lines"]),
        _check_count("reports.malformed_lines", stats["malformed_lines"],
                     want["malformed_lines"]),
        _check_count("reports.amod_total", stats["relations"]["amod"]["total_count"],
                     want["amod_total"]),
        _check_count("reports.nsubj_total", stats["relations"]["nsubj"]["total_count"],
                     want["nsubj_total"]),
        Check("reports.prop1_saturated",
              len(prop1) == 2 and all(float(r["max_normalized_deviation"]) <= 1e-6
                                      and float(r["spearman"]) >= 0.999 for r in prop1),
              "; ".join(f"{r['gender']}: dev={r['max_normalized_deviation']} "
                        f"rho={r['spearman']}" for r in prop1)),
    ]


def stats_checks(inputs: Inputs, out: Path) -> list[Check]:
    senses = read_tsv(out / "senses.tsv")
    body = [r for r in senses if (r["sentiment"], r["sense"]) == ("pos", "body")]
    corr = read_tsv(out / "correlate.tsv")[0]
    perm = read_tsv(out / "permtest.tsv")[0]
    return [
        Check("reports.senses_tests", len(senses) == 52,
              "52 sense tests (4 sentiment groupings x 13 senses)"),
        Check("reports.pos_body_significant", len(body) == 1 and body[0]["significant"] == "true",
              f"pos/body row {body}"),
        Check("reports.correlate_rho", float(corr["rho"]) >= 0.9 and int(corr["n"]) == 80,
              f"rho={corr['rho']} n={corr['n']}"),
        Check("reports.permtest_exact",
              perm["exact"] == "true" and int(perm["permutations_used"]) == math.comb(22, 11),
              f"exact={perm['exact']} relabelings={perm['permutations_used']}"),
    ]


def _reports_commands(inputs: Inputs, out: Path):
    return corpus_commands(inputs, out) + stats_commands(inputs, out)


def _reports_checks(inputs: Inputs, out: Path) -> list[Check]:
    return corpus_checks(inputs, out) + stats_checks(inputs, out)


def _reports_quality(inputs: Inputs, out: Path) -> dict[str, float]:
    manifest = json.loads(inputs.files["arcs_manifest"].read_text(encoding="utf-8"))
    return {"planted_recall": pmi_recall(out / "pmi.tsv", manifest)}


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "grid240",
        ("V=240 grid alpha in {0,1e-3}, beta=0.1 trained to convergence (synth seed 0 "
         "relabeled per seed): iteration count dominates, so cutting iterations shows here"),
        _grid240_setup, _grid240_commands, _grid240_checks, _train_quality,
        lambda i, out: out / "ingest" / "amod.tsv",
        lambda i, out: out / "train" / "checkpoint_averaged.json"),
    Workload(
        "reports",
        ("no training: arcs ingest of a V=5000 file with nsubj, unknown-head and malformed "
         "lines, PMI and prop1, then permutation tests and Spearman on a planted checkpoint"),
        _reports_setup, _reports_commands, _reports_checks, _reports_quality,
        lambda i, out: i.files["corpus"],
        lambda i, out: i.files["checkpoint"]),
)}
