import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from genderedlang import cli, model
from genderedlang.checkpoint import load_checkpoint, save_checkpoint
from genderedlang.cli import main
from genderedlang.corpus import (aggregate_counts, bundled_lexicon_path, load_gender_lexicon,
                                 write_rows)
from genderedlang.lexicons import SenseKind, load_sense_inventory, load_sentiment_lexicon
from genderedlang.synth import SynthConfig, generate, write_synth

from conftest import DATA, v1_document, write_document


def read_tsv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split("\t")
    return header, [dict(zip(header, line.split("\t"))) for line in lines[1:]]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One toy training run shared by the report tests."""
    out = tmp_path_factory.mktemp("trained")
    code = main(["train", "--corpus", str(DATA / "toy_corpus.tsv"), "--relation", "amod",
                 "--sentiment-lexicon", str(DATA / "toy_sentiment.tsv"),
                 "--alpha-grid", "0.001", "--beta-grid", "0.5",
                 "--max-iterations", "400", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_collapsed(tmp_path_factory):
    out = tmp_path_factory.mktemp("collapsed")
    code = main(["train", "--corpus", str(DATA / "toy_corpus.tsv"), "--relation", "amod",
                 "--alpha-grid", "0.001", "--max-iterations", "400", "--out", str(out)])
    assert code == 0
    return out


class TestIngest:
    def test_arcs_fixture(self, tmp_path):
        out = tmp_path / "ingested"
        assert main(["ingest", "--input", str(DATA / "toy.arcs"), "--out", str(out)]) == 0
        for rel in ("amod", "nsubj", "dobj"):
            assert (out / f"{rel}.tsv").exists()
        stats = json.loads((out / "stats.json").read_text())
        assert stats["malformed_lines"] == 3
        amod = (out / "amod.tsv").read_text()
        assert "amod\twoman\tpretty\t50" in amod  # 42 + 8 aggregated
        assert "amod\tqueen\tgracious\t7" in amod  # case-folded
        assert "table" not in amod
        nsubj = (out / "nsubj.tsv").read_text()
        assert "nsubj\tking\tfought\t9" in nsubj

    def test_idempotent_rerun(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["ingest", "--input", str(DATA / "toy.arcs"), "--out", str(out1)])
        main(["ingest", "--input", str(DATA / "toy.arcs"), "--out", str(out2)])
        for name in ("amod.tsv", "nsubj.tsv", "dobj.tsv", "stats.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_two_inputs_equal_their_concatenation(self, tmp_path):
        lines = (DATA / "toy.arcs").read_text().splitlines(keepends=True)
        half = len(lines) // 2
        for name, part in (("first", lines[:half]), ("second", lines[half:]), ("both", lines)):
            (tmp_path / f"{name}.arcs").write_text("".join(part))
        split, whole = tmp_path / "split", tmp_path / "whole"
        assert main(["ingest", "--input", str(tmp_path / "first.arcs"),
                     "--input", str(tmp_path / "second.arcs"), "--out", str(split)]) == 0
        assert main(["ingest", "--input", str(tmp_path / "both.arcs"), "--out", str(whole)]) == 0
        names = sorted(p.name for p in whole.iterdir())
        assert names == ["amod.tsv", "dobj.tsv", "nsubj.tsv", "stats.json"]
        for name in names:
            assert (split / name).read_bytes() == (whole / name).read_bytes()

    def test_empty_input_is_a_data_error(self, tmp_path):
        empty = tmp_path / "empty.arcs"
        empty.write_text("")
        assert main(["ingest", "--input", str(empty), "--out", str(tmp_path / "o")]) == 2

    def test_missing_input_is_a_data_error(self, tmp_path):
        assert main(["ingest", "--input", str(tmp_path / "nope.arcs"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_canonical_passthrough(self, tmp_path):
        out = tmp_path / "canon"
        assert main(["ingest", "--input", str(DATA / "toy_corpus.tsv"),
                     "--format", "canonical", "--out", str(out)]) == 0
        assert (out / "amod.tsv").exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "non_utf8"])
@pytest.mark.parametrize("argv", [
    ["ingest", "--input", "{bad}", "--out", "{out}"],
    ["train", "--corpus", "{bad}", "--relation", "amod", "--out", "{out}"],
    ["report", "topk", "--checkpoint", "{bad}", "--out", "{out}"],
    ["train", "--config", "{bad}", "--corpus", str(DATA / "toy_corpus.tsv"),
     "--relation", "amod", "--out", "{out}"],
    ["ingest", "--input", str(DATA / "toy.arcs"), "--gender-lexicon", "{bad}", "--out", "{out}"],
    ["report", "correlate", "--checkpoint", "{full}", "--judgments", "{bad}", "--out", "{out}"],
    ["report", "permtest", "--group-a", "{bad}", "--group-b", "{bad}", "--out", "{out}"],
    ["report", "senses", "--checkpoint", "{full}", "--inventory", "{bad}", "--out", "{out}"],
], ids=["ingest", "train", "topk", "config", "lexicon", "correlate", "permtest", "senses"])
def test_unreadable_input_is_a_data_error(trained, tmp_path, capsys, argv, kind):
    bad = tmp_path / "input"
    if kind == "directory":
        bad.mkdir()
    elif kind == "non_utf8":
        bad.write_bytes(b"caf\xe9\tjolie\t1\n")
    args = [a.format(bad=bad, out=tmp_path / "out", full=trained / "checkpoint_averaged.json")
            for a in argv]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(bad) in err


def _ingest(fmt: str):
    """A reader that ingests a file and returns every output's bytes, stats.json included."""
    def read(path):
        out = path.with_name(f"{path.name}.out")
        assert main(["ingest", "--format", fmt, "--input", str(path), "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}
    return read


READERS = {
    "gender_lexicon": (load_gender_lexicon, bundled_lexicon_path().read_text()),
    "sentiment_lexicon": (load_sentiment_lexicon, (DATA / "toy_sentiment.tsv").read_text()),
    "sense_inventory": (lambda path: load_sense_inventory(path, SenseKind.ADJ),
                        (DATA / "toy_senses_adj.tsv").read_text()),
    "judgments": (lambda path: cli._read_judgments(path, float),
                  "pretty\t2.5\nbeautiful\t2.0\ngentle\t1.0\n"),
    "values": (cli._read_values, "1.5\n2.0\n2.5\n"),
    "canonical": (_ingest("canonical"), (DATA / "toy_corpus.tsv").read_text()),
    "arcs": (_ingest("arcs"), (DATA / "toy.arcs").read_text()),
}


@pytest.mark.parametrize("reader", list(READERS))
def test_comment_and_whitespace_lines_are_skipped_by_every_reader(tmp_path, reader):
    read, text = READERS[reader]
    first, rest = text.split("\n", 1)
    (tmp_path / "clean").write_text(text)
    (tmp_path / "noisy").write_text(f"# a comment\n{first}\n \t \n# another\t1\n{rest}")
    assert read(tmp_path / "noisy") == read(tmp_path / "clean")


COMMANDS = {
    "train": ["train", "--corpus", str(DATA / "toy_corpus.tsv"), "--relation", "amod",
              "--max-iterations", "5"],
    "prop1": ["report", "prop1", "--corpus", str(DATA / "toy_corpus.tsv"), "--relation", "amod"],
    "synth": ["synth", "--vocab-size", "12", "--n-pairs", "100"],
    "permtest": ["report", "permtest", "--group-a", "{tmp}/a.txt", "--group-b", "{tmp}/b.txt"],
    # Flags are checked before any file is opened, so these name files that do not exist.
    "topk": ["report", "topk", "--checkpoint", "{tmp}/missing.json"],
    "senses": ["report", "senses", "--checkpoint", "{tmp}/missing.json",
               "--inventory", "{tmp}/missing.tsv"],
    "sentiment": ["report", "sentiment", "--checkpoint", "{tmp}/missing.json",
                  "--sentiment-lexicon", "{tmp}/missing.tsv"],
    "correlate": ["report", "correlate", "--checkpoint", "{tmp}/missing.json",
                  "--judgments", "{tmp}/missing.tsv"],
}
REALS, INTS = ["0", "-1", "nan", "inf"], ["0", "-1"]
BAD_FLAGS = [(command, flag, value) for command, flag, values in [
    ("train", "--tolerance", REALS),
    ("train", "--max-iterations", INTS), ("train", "--jobs", INTS),
    ("train", "--alpha-grid", ["nan", "inf", "0,1e400", "0,0,0.001", "1e-7,1.0000001e-7"]),
    ("train", "--beta-grid", ["nan", "inf", "0.1,0.1000000001"]),
    ("prop1", "--max-iterations", INTS),
    ("prop1", "--saturation-tol", REALS),
    ("synth", "--n-pairs", ["0", "-5"]), ("synth", "--planted-body-fem", ["nan", "-0.1", "0.95"]),
    ("synth", "--vocab-size", ["11"]), ("synth", "--seed", ["-1"]),
    ("permtest", "--alpha", ["0", "-1", "nan", "1", "5"]),
    ("permtest", "--permutations", INTS), ("permtest", "--tests", INTS),
    ("permtest", "--seed", ["-1"]),
    ("topk", "--k", INTS),
    ("senses", "--k", INTS), ("senses", "--permutations", INTS), ("senses", "--seed", ["-1"]),
    ("sentiment", "--k", INTS), ("sentiment", "--permutations", INTS),
    ("sentiment", "--seed", ["-1"]),
    ("correlate", "--permutations", INTS), ("correlate", "--seed", ["-1"]),
] for value in values]


@pytest.mark.parametrize("command, flag, value", BAD_FLAGS,
                         ids=[f"{c}{f}={v}" for c, f, v in BAD_FLAGS])
def test_non_positive_or_nan_flag_is_a_usage_error(tmp_path, capsys, command, flag, value):
    (tmp_path / "a.txt").write_text("1\n2\n3\n")
    (tmp_path / "b.txt").write_text("4\n5\n6\n")
    argv = [a.format(tmp=tmp_path) for a in COMMANDS[command]]
    assert main([*argv, flag, value, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")


def _resave(source: Path, path: Path, edit) -> Path:
    """The checkpoint at source saved again to path after edit(params)."""
    doc = json.loads(source.read_text())
    loaded = load_checkpoint(source)
    edit(loaded.params)
    save_checkpoint(path, loaded.params, loaded.space, model.TrainConfig(**doc["config"]),
                    doc["fingerprint"], loaded.relation, extra=doc["extra"])
    return path


def test_malformed_checkpoint_is_a_data_error(trained, tmp_path, capsys):
    doc = v1_document(trained / "checkpoint_averaged.json")
    doc["eta"][0][0] = len(doc["vocab"])
    bad = tmp_path / "bad.json"
    write_document(bad, doc)
    assert main(["report", "topk", "--checkpoint", str(bad), "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err.startswith("data error: ")


def test_malformed_v2_checkpoint_is_a_data_error(trained, tmp_path, capsys):
    def extra_eta_row(params):
        params.eta = np.concatenate([params.eta, params.eta[:1]])

    bad = _resave(trained / "checkpoint_averaged.json", tmp_path / "bad.json", extra_eta_row)
    assert main(["report", "topk", "--checkpoint", str(bad), "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err.startswith("data error: ")


def test_topk_bytes_are_the_same_from_a_v1_checkpoint(trained, tmp_path):
    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    write_document(v1, v1_document(trained / "checkpoint_averaged.json"))
    _resave(v1, v2, lambda params: None)
    assert v2.read_bytes() == (trained / "checkpoint_averaged.json").read_bytes()
    for path in (v1, v2):
        assert main(["report", "topk", "--checkpoint", str(path), "--k", "10",
                     "--out", str(tmp_path / f"{path.stem}.tsv")]) == 0
    assert (tmp_path / "v1.tsv").read_bytes() == (tmp_path / "v2.tsv").read_bytes()


JUDGMENTS = "pretty\t2.5\nbeautiful\t2.0\ngentle\t1.0\nbrave\t-1.5\nstrong\t-2.0\nviolent\t-1.0\n"


def _with_bad_value(path: Path, old: str, new: str) -> str:
    """The fixture's text with its first `old` replaced by `new`."""
    text = path.read_text()
    assert old in text
    return text.replace(old, new, 1)


PERMTEST = ["report", "permtest", "--group-a", "{bad}", "--group-b", "{tmp}/b.txt"]
SENSES = ["report", "senses", "--checkpoint", "{full}", "--inventory", "{bad}",
          "--k", "10", "--permutations", "50"]
SENTIMENT = ["report", "sentiment", "--checkpoint", "{collapsed}", "--sentiment-lexicon", "{bad}",
             "--k", "10", "--permutations", "50"]
TRAIN = ["train", "--corpus", str(DATA / "toy_corpus.tsv"), "--relation", "amod",
         "--sentiment-lexicon", "{bad}", "--beta-grid", "1", "--max-iterations", "5"]
CORRELATE = ["report", "correlate", "--checkpoint", "{full}", "--judgments", "{bad}",
             "--permutations", "50"]
NON_FINITE = {
    "permtest_nan": ("nan\n1\n2\n", PERMTEST),
    "permtest_inf": ("inf\n1\n2\n", PERMTEST),
    "senses_nan": (_with_bad_value(DATA / "toy_senses_adj.tsv", "body:0.8", "body:nan"), SENSES),
    "senses_inf": (_with_bad_value(DATA / "toy_senses_adj.tsv", "body:0.8", "body:inf"), SENSES),
    "sentiment_nan": (_with_bad_value(DATA / "toy_sentiment.tsv", "\t8\t", "\tnan\t"), SENTIMENT),
    "train_sentiment_nan": (_with_bad_value(DATA / "toy_sentiment.tsv", "\t8\t", "\tnan\t"), TRAIN),
    "train_sentiment_inf": (_with_bad_value(DATA / "toy_sentiment.tsv", "\t8\t", "\tinf\t"), TRAIN),
    "correlate_nan": (JUDGMENTS.replace("2.0", "nan"), CORRELATE),
}


@pytest.mark.parametrize("case", list(NON_FINITE))
def test_non_finite_input_is_a_data_error(trained, trained_collapsed, tmp_path, capsys, case):
    text, argv = NON_FINITE[case]
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    (tmp_path / "b.txt").write_text("3\n4\n5\n")
    args = [a.format(bad=bad, tmp=tmp_path, full=trained / "checkpoint_averaged.json",
                     collapsed=trained_collapsed / "checkpoint_averaged.json") for a in argv]
    assert main([*args, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("data error: ")


@pytest.mark.parametrize("binary", ["", "zzznotaword\tbanana\n"], ids=["empty", "unknown_label"])
def test_bad_binary_judgments_are_a_data_error(trained, tmp_path, capsys, binary):
    (tmp_path / "j.tsv").write_text(JUDGMENTS)
    (tmp_path / "jb.tsv").write_text(binary)
    assert main(["report", "correlate", "--checkpoint", str(trained / "checkpoint_averaged.json"),
                 "--judgments", str(tmp_path / "j.tsv"), "--binary-judgments",
                 str(tmp_path / "jb.tsv"), "--permutations", "50",
                 "--out", str(tmp_path / "c.tsv")]) == 2
    assert capsys.readouterr().err.startswith("data error: ")


@pytest.mark.parametrize("m0", [800.0, 1e308])
def test_underflowing_posterior_is_a_numerical_failure(trained, tmp_path, capsys, m0):
    def set_m0(params):
        params.m[0] = m0

    bad = _resave(trained / "checkpoint_averaged.json", tmp_path / "bad.json", set_m0)
    (tmp_path / "j.tsv").write_text(JUDGMENTS)
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["report", "correlate", "--checkpoint", str(bad), "--judgments",
                     str(tmp_path / "j.tsv"), "--permutations", "50",
                     "--out", str(tmp_path / "c.tsv")])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")


class TestTrain:
    def test_outputs(self, trained):
        assert (trained / "checkpoint_alpha0.001_beta0.5.json").exists()
        assert (trained / "checkpoint_averaged.json").exists()
        assert (trained / "trace_alpha0.001_beta0.5.tsv").exists()
        extra = json.loads((trained / "checkpoint_alpha0.001_beta0.5.json").read_text())["extra"]
        assert extra["converged"] is True and extra["stop_reason"] == "tolerance"
        assert 0 < extra["kkt_residual"] <= 1e-4
        assert extra["evaluations"] > extra["iterations"] > 0  # the start counts as one

    def test_iteration_cap_is_recorded(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["train", "--corpus", str(DATA / "toy_corpus.tsv"), "--relation", "amod",
                     "--alpha-grid", "0.001", "--max-iterations", "3", "--out", str(out)]) == 0
        extra = json.loads((out / "checkpoint_alpha0.001_beta0.json").read_text())["extra"]
        assert extra["iterations"] == 3 and extra["converged"] is False
        assert extra["stop_reason"] == "max_iterations" and extra["kkt_residual"] > 1e-4
        err = capsys.readouterr().err
        assert "converged=False (stop max_iterations, KKT residual " in err
        assert f"3 iterations, {extra['evaluations']} evaluations, objective " in err

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("t1", "t2"):
            out = tmp_path / name
            code = main(["train", "--corpus", str(DATA / "toy_corpus.tsv"),
                         "--relation", "amod",
                         "--sentiment-lexicon", str(DATA / "toy_sentiment.tsv"),
                         "--alpha-grid", "0", "--beta-grid", "1",
                         "--max-iterations", "300", "--out", str(out)])
            assert code == 0
            outs.append(out)
        a = (outs[0] / "checkpoint_averaged.json").read_bytes()
        b = (outs[1] / "checkpoint_averaged.json").read_bytes()
        assert a == b

    def test_missing_sentiment_lexicon_with_beta(self, tmp_path):
        code = main(["train", "--corpus", str(DATA / "toy_corpus.tsv"), "--relation", "amod",
                     "--beta-grid", "1", "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("lexicon", ["# no rows\n", "not-a-neighbor\t1\t2\t3\n"],
                             ids=["empty", "no_overlap"])
    def test_sentiment_lexicon_covering_no_word_with_beta(self, tmp_path, monkeypatch, lexicon):
        fits = []
        lbfgs = model._lbfgs
        monkeypatch.setattr(model, "_lbfgs", lambda *args: fits.append(1) or lbfgs(*args))
        (tmp_path / "sentiment.tsv").write_text(lexicon, encoding="utf-8")
        code = main(["train", "--corpus", str(DATA / "toy_corpus.tsv"), "--relation", "amod",
                     "--sentiment-lexicon", str(tmp_path / "sentiment.tsv"),
                     "--beta-grid", "0,1", "--max-iterations", "5", "--out", str(tmp_path / "o")])
        assert code == 2
        assert fits == []  # rejected before the beta = 0 cell trains

    def test_mixed_beta_grid_averages_the_broadcast_collapsed_cell(self, tmp_path):
        out = tmp_path / "o"
        assert main(["train", "--corpus", str(DATA / "toy_corpus.tsv"), "--relation", "amod",
                     "--sentiment-lexicon", str(DATA / "toy_sentiment.tsv"),
                     "--alpha-grid", "0.001", "--beta-grid", "0,0.1",
                     "--max-iterations", "60", "--out", str(out)]) == 0
        names = ("alpha0.001_beta0", "alpha0.001_beta0.1", "averaged")
        loaded = [load_checkpoint(out / f"checkpoint_{n}.json") for n in names]
        free, regularized, averaged = (checkpoint.params for checkpoint in loaded)
        assert [params.eta.shape[1] for params in (free, regularized, averaged)] == [1, 3, 3]
        space = loaded[0].space
        broadcast = model.ModelParams(free.vocab, free.forms, free.m,
                                      np.broadcast_to(free.eta, regularized.eta.shape),
                                      np.broadcast_to(free.omega, regularized.omega.shape),
                                      free.xi)
        # the collapsed cell as three slices is the same distribution p(v, n)
        assert np.allclose(model.joint_marginal(broadcast, space),
                           model.joint_marginal(free, space), rtol=0, atol=1e-15)
        for name in ("eta", "omega", "xi"):
            cells = [getattr(broadcast, name), getattr(regularized, name)]
            assert np.array_equal(getattr(averaged, name), np.mean(cells, axis=0))

    def test_every_train_config_field_is_a_flag_or_a_grid_axis(self):
        # a value the code can derive (as beta decides the sentiment axes) is no setting
        flags = vars(cli._build_parser().parse_args(["train", "--corpus", "c", "--relation",
                                                     "amod", "--out", "o"])).keys()
        unreachable = {f.name for f in fields(model.TrainConfig)} - flags - {"alpha", "beta"}
        assert not unreachable, f"TrainConfig fields with no train flag: {sorted(unreachable)}"

    def test_config_no_sentiment_key_is_usage_error(self, tmp_path):
        # the beta grid decides the sentiment axes; the old key names no flag
        config = tmp_path / "run.conf"
        config.write_text("no_sentiment = true\n", encoding="utf-8")
        code = main(["train", "--config", str(config), "--corpus", str(DATA / "toy_corpus.tsv"),
                     "--relation", "amod", "--out", str(tmp_path / "o")])
        assert code == 1
        assert not (tmp_path / "o").exists()

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["train", "--corpus", "x", "--relation", "amod",
                     "--out", str(tmp_path), "--bogus"]) == 1

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(model._Kernel, "objective", lambda *args, **kwargs: float("nan"))
        code = main(["train", "--corpus", str(DATA / "toy_corpus.tsv"),
                     "--relation", "amod", "--max-iterations", "5", "--alpha-grid", "0.01",
                     "--out", str(tmp_path / "o")])
        assert code == 3

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            "corpus = {}\nrelation = amod\nalpha_grid = 0.001\n"
            "max_iterations = 50\n".format(DATA / "toy_corpus.tsv"))
        out = tmp_path / "fromconf"
        code = main(["train", "--config", str(config), "--max-iterations", "60",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "checkpoint_alpha0.001_beta0.json").read_text())
        assert doc["config"]["max_iterations"] == 60  # flag wins over config
        assert doc["eta_shape"][1] == 1  # beta = 0: the collapsed model

    def test_config_repeatable_flag_given_on_command_line(self, tmp_path):
        # the command line's --input replaces the config's, so the file is read once
        config = tmp_path / "run.conf"
        config.write_text(f"input = {DATA / 'toy.arcs'}\n", encoding="utf-8")
        assert main(["ingest", "--input", str(DATA / "toy.arcs"),
                     "--out", str(tmp_path / "plain")]) == 0
        assert main(["ingest", "--config", str(config), "--input", str(DATA / "toy.arcs"),
                     "--out", str(tmp_path / "conf")]) == 0
        for name in ("stats.json", "amod.tsv"):
            assert (tmp_path / "conf" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_abbreviated_flag_is_usage_error(self, tmp_path):
        # an explicit flag drops its config key only when spelled in full, so an
        # abbreviation accepted here would read the config's input a second time
        config = tmp_path / "run.conf"
        config.write_text(f"input = {DATA / 'toy.arcs'}\n", encoding="utf-8")
        out = tmp_path / "conf"
        assert main(["ingest", "--config", str(config), "--inp", str(DATA / "toy.arcs"),
                     "--out", str(out)]) == 1
        assert not out.exists()

    def test_config_naming_a_config_is_a_data_error(self, tmp_path, capsys):
        # argparse would take a spliced-in --config PATH as the help-only option
        (tmp_path / "a.txt").write_text("1\n2\n3\n")
        (tmp_path / "b.txt").write_text("4\n5\n6\n")
        config = tmp_path / "run.conf"
        config.write_text(f"config = {tmp_path}/nonexistent.cfg\n")
        out = tmp_path / "perm.tsv"
        assert main(["report", "permtest", "--config", str(config),
                     "--group-a", str(tmp_path / "a.txt"), "--group-b", str(tmp_path / "b.txt"),
                     "--out", str(out)]) == 2
        assert f"{config}:1:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("joined", [False, True], ids=["spaced", "joined"])
    def test_repeated_config_is_usage_error(self, tmp_path, capsys, joined):
        # keeping only the last file would silently drop the first file's keys
        (tmp_path / "a.txt").write_text("1\n2\n3\n")
        (tmp_path / "b.txt").write_text("4\n5\n6\n")
        (tmp_path / "one.conf").write_text(f"group_a = {tmp_path}/a.txt\n")
        two = tmp_path / "two.conf"
        two.write_text(f"group_b = {tmp_path}/b.txt\n")
        second = [f"--config={two}"] if joined else ["--config", str(two)]
        out = tmp_path / "perm.tsv"
        assert main(["report", "permtest", "--config", str(tmp_path / "one.conf"), *second,
                     "--out", str(out)]) == 1
        assert "--config may be given only once" in capsys.readouterr().err
        assert not out.exists()

    def test_config_value_keeps_its_hash(self, tmp_path):
        # Only a line that starts with # is a comment; a # inside a value is part of it.
        (tmp_path / "a.txt").write_text("1\n2\n3\n")
        (tmp_path / "b.txt").write_text("4\n5\n6\n")
        config = tmp_path / "run.conf"
        config.write_text(f"# permtest inputs\ngroup_a = {tmp_path}/a.txt\n"
                          f"group_b = {tmp_path}/b.txt\nout = {tmp_path}/runs#1\n")
        assert main(["report", "permtest", "--config", str(config)]) == 0
        assert (tmp_path / "runs#1").is_file()
        assert not (tmp_path / "runs").exists()


class TestReports:
    def test_topk_schema_and_row_counts(self, trained, tmp_path):
        out = tmp_path / "topk.tsv"
        assert main(["report", "topk", "--checkpoint",
                     str(trained / "checkpoint_averaged.json"), "--k", "5",
                     "--out", str(out)]) == 0
        header, rows = read_tsv(out)
        assert header == ["gender", "sentiment", "rank", "neighbor", "score"]
        assert len(rows) == 2 * 3 * 5
        for gender in ("masc", "fem"):
            for sentiment in ("pos", "neg", "neu"):
                block = [r for r in rows if r["gender"] == gender and r["sentiment"] == sentiment]
                assert [r["rank"] for r in block] == ["1", "2", "3", "4", "5"]

    def test_topk_collapsed_model_uses_none_label(self, trained_collapsed, tmp_path):
        out = tmp_path / "topk1.tsv"
        assert main(["report", "topk", "--checkpoint",
                     str(trained_collapsed / "checkpoint_averaged.json"), "--k", "4",
                     "--out", str(out)]) == 0
        _, rows = read_tsv(out)
        assert {r["sentiment"] for r in rows} == {"none"}
        assert len(rows) == 2 * 4

    def test_pmi_schema_and_sorting(self, tmp_path):
        out = tmp_path / "pmi.tsv"
        assert main(["report", "pmi", "--corpus", str(DATA / "toy_corpus.tsv"),
                     "--relation", "amod", "--out", str(out)]) == 0
        header, rows = read_tsv(out)
        assert header == ["gender", "neighbor", "pmi"]
        for gender in ("masc", "fem"):
            values = [float(r["pmi"]) for r in rows if r["gender"] == gender]
            assert values == sorted(values, reverse=True)

    def test_senses_schema(self, trained, tmp_path):
        out = tmp_path / "senses.tsv"
        assert main(["report", "senses", "--checkpoint",
                     str(trained / "checkpoint_averaged.json"),
                     "--inventory", str(DATA / "toy_senses_adj.tsv"),
                     "--k", "10", "--permutations", "300", "--out", str(out)]) == 0
        header, rows = read_tsv(out)
        assert header == ["sentiment", "sense", "freq_masc", "freq_fem", "p", "significant"]
        assert len(rows) == 4 * 13  # pos/neg/neu/all x adjective senses
        assert all(0 < float(r["p"]) <= 1 for r in rows)

    def test_senses_kind_must_match_the_checkpoint_relation(self, trained, tmp_path, capsys):
        assert main(["report", "senses", "--checkpoint",
                     str(trained / "checkpoint_averaged.json"),
                     "--inventory", str(DATA / "toy_senses_adj.tsv"), "--kind", "verb",
                     "--out", str(tmp_path / "senses.tsv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "--kind verb" in err and "amod" in err
        assert not (tmp_path / "senses.tsv").exists()

    def test_senses_collapsed_model_uses_topk_label(self, trained_collapsed, tmp_path):
        senses, topk = tmp_path / "senses1.tsv", tmp_path / "topk1.tsv"
        checkpoint = str(trained_collapsed / "checkpoint_averaged.json")
        assert main(["report", "senses", "--checkpoint", checkpoint,
                     "--inventory", str(DATA / "toy_senses_adj.tsv"),
                     "--k", "10", "--permutations", "300", "--out", str(senses)]) == 0
        assert main(["report", "topk", "--checkpoint", checkpoint, "--k", "4",
                     "--out", str(topk)]) == 0
        _, rows = read_tsv(senses)
        assert len(rows) == 13  # one family: the collapsed axis, no pooled "all"
        assert ({r["sentiment"] for r in rows} == {r["sentiment"] for r in read_tsv(topk)[1]}
                == {"none"})

    def test_sentiment_schema(self, trained_collapsed, tmp_path):
        out = tmp_path / "sentiment.tsv"
        assert main(["report", "sentiment", "--checkpoint",
                     str(trained_collapsed / "checkpoint_averaged.json"),
                     "--sentiment-lexicon", str(DATA / "toy_sentiment.tsv"),
                     "--k", "10", "--permutations", "300", "--out", str(out)]) == 0
        header, rows = read_tsv(out)
        assert header == ["relation", "gender", "pos", "neg", "neu",
                          "sig_pos", "sig_neg", "sig_neu"]
        assert [r["gender"] for r in rows] == ["masc", "fem"]
        assert all(r["relation"] == "amod" for r in rows)

    def test_sentiment_rejects_full_model(self, trained, tmp_path):
        code = main(["report", "sentiment", "--checkpoint",
                     str(trained / "checkpoint_averaged.json"),
                     "--sentiment-lexicon", str(DATA / "toy_sentiment.tsv"),
                     "--out", str(tmp_path / "x.tsv")])
        assert code == 2

    def test_correlate_schema(self, trained, tmp_path):
        judgments = tmp_path / "j.tsv"
        judgments.write_text(JUDGMENTS)
        binary = tmp_path / "jb.tsv"
        binary.write_text("pretty\tf\nbeautiful\tf\nbrave\tm\nstrong\tm\n")
        out = tmp_path / "corr.tsv"
        assert main(["report", "correlate", "--checkpoint",
                     str(trained / "checkpoint_averaged.json"),
                     "--judgments", str(judgments), "--binary-judgments", str(binary),
                     "--permutations", "500", "--out", str(out)]) == 0
        header, rows = read_tsv(out)
        assert header == ["rho", "p", "agreement", "n"]
        assert len(rows) == 1
        assert -1.0 <= float(rows[0]["rho"]) <= 1.0
        assert rows[0]["n"] == "6"
        assert (tmp_path / "corr_audit.tsv").exists()

    def test_permtest_exact_third(self, tmp_path):
        ga, gb = tmp_path / "a.txt", tmp_path / "b.txt"
        ga.write_text("0\n0\n")
        gb.write_text("1\n1\n")
        out = tmp_path / "perm.tsv"
        assert main(["report", "permtest", "--group-a", str(ga), "--group-b", str(gb),
                     "--out", str(out)]) == 0
        header, rows = read_tsv(out)
        assert float(rows[0]["p_value"]) == pytest.approx(1 / 3)
        assert rows[0]["exact"] == "true"

    def test_prop1_rank_correlation_row(self, tmp_path):
        corpus = tmp_path / "synthetic.tsv"
        rng = np.random.default_rng(13)
        with open(corpus, "w") as fh:
            for i in range(30):
                fh.write(f"amod\tman\tw{i:02d}\t{rng.integers(1, 500)}\n")
                fh.write(f"amod\twoman\tw{i:02d}\t{rng.integers(1, 500)}\n")
        out = tmp_path / "prop1.tsv"
        assert main(["report", "prop1", "--corpus", str(corpus), "--relation", "amod",
                     "--out", str(out)]) == 0
        header, rows = read_tsv(out)
        assert header == ["gender", "max_normalized_deviation", "spearman", "iterations"]
        assert [r["gender"] for r in rows] == ["masc", "fem"]
        for r in rows:
            assert float(r["spearman"]) == 1.0
            assert float(r["max_normalized_deviation"]) <= 1e-3


class TestSynthCommand:
    def test_byte_identical_reruns(self, tmp_path):
        for name in ("s1", "s2"):
            assert main(["synth", "--seed", "5", "--vocab-size", "60",
                         "--n-pairs", "20000", "--planted-body-fem", "0.15",
                         "--out", str(tmp_path / name)]) == 0
        for fname in ("corpus.tsv", "sentiment_lexicon.tsv", "senses_adj.tsv",
                      "manifest.json", "judgments.tsv", "judgments_binary.tsv"):
            assert ((tmp_path / "s1" / fname).read_bytes()
                    == (tmp_path / "s2" / fname).read_bytes()), fname

    def test_vocab_size_floor_is_usage_error(self, tmp_path):
        assert main(["synth", "--vocab-size", "3", "--out", str(tmp_path / "x")]) == 1

    def test_kind_flag_is_a_usage_error(self, tmp_path, capsys):
        # the relation decides the sense kind
        assert main(["synth", "--kind", "adj", "--out", str(tmp_path / "x")]) == 1
        assert "--kind" in capsys.readouterr().err

    @pytest.mark.parametrize("relation, kind", [("amod", SenseKind.ADJ), ("nsubj", SenseKind.VERB),
                                                ("dobj", SenseKind.VERB)])
    def test_relation_decides_the_sense_kind(self, tmp_path, relation, kind):
        assert main(["synth", "--seed", "3", "--vocab-size", "60", "--n-pairs", "20000",
                     "--relation", relation, "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.glob("senses_*.tsv")) == [f"senses_{kind.value}.tsv"]
        inventory = load_sense_inventory(tmp_path / f"senses_{kind.value}.tsv", kind)
        assert len(inventory.weights) == 60
        assert set().union(*inventory.weights.values()) == set(kind.senses)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert (manifest["relation"], manifest["kind"]) == (relation, kind.value)
        corpus = (tmp_path / "corpus.tsv").read_text().splitlines()
        assert {line.split("\t")[0] for line in corpus} == {relation}

    def test_verb_chain_runs(self, tmp_path):
        synth, ingest, train = tmp_path / "synth", tmp_path / "ingest", tmp_path / "train"
        assert main(["synth", "--seed", "4", "--vocab-size", "60", "--n-pairs", "20000",
                     "--relation", "nsubj", "--out", str(synth)]) == 0
        assert main(["ingest", "--input", str(synth / "corpus.tsv"), "--format", "canonical",
                     "--out", str(ingest)]) == 0
        assert main(["train", "--corpus", str(ingest / "nsubj.tsv"), "--relation", "nsubj",
                     "--alpha-grid", "0.001", "--max-iterations", "50", "--out", str(train)]) == 0
        out = tmp_path / "senses.tsv"
        assert main(["report", "senses", "--checkpoint", str(train / "checkpoint_averaged.json"),
                     "--inventory", str(synth / "senses_verb.tsv"), "--kind", "verb",
                     "--k", "10", "--permutations", "200", "--out", str(out)]) == 0
        _, rows = read_tsv(out)
        assert [r["sense"] for r in rows] == list(SenseKind.VERB.senses)  # the collapsed axis


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """A synth corpus's files, checkpoints of its planted gender scores on every
    sentiment axis (`full`, S=3, and `collapsed`, S=1), and a `prior` sentiment
    lexicon of seeded random concentrations (synth's own gives every planted
    word the same prior, so its sentiment tests are all p = 1)."""
    out = tmp_path_factory.mktemp("planted")
    lex = load_gender_lexicon(bundled_lexicon_path())
    data = generate(SynthConfig(seed=13, vocab_size=240, n_pairs=60_000, planted_body_fem=0.15),
                    lex)
    files = write_synth(out, data, lex)
    space = model.FeatureSpace.from_lexicon(lex)
    table = aggregate_counts(data.pairs, data.config.relation, lex)
    for name, n_sentiments in (("full", 3), ("collapsed", 1)):
        params = model.init_params(table, space, n_sentiments=n_sentiments)
        for word, grade in data.manifest["true_gender_scores"].items():
            column = space.fem_index if grade > 0 else space.masc_index
            params.eta[params.vocab_index(word), :, column] = abs(grade)
        files[name] = out / f"{name}.json"
        save_checkpoint(files[name], params, space, model.TrainConfig(),
                        table.fingerprint(), data.config.relation.value)
    files["prior"] = out / "prior.tsv"
    rng = np.random.default_rng(13)
    write_rows(files["prior"], [(word, *rng.gamma(2.0, 1.0, 3).tolist()) for word in table.vocab])
    return files


def test_train_bytes_do_not_depend_on_the_blas_thread_count(planted, tmp_path):
    """The optimizer's dots are numpy's own sums and the kernel's products keep
    their bits across OpenBLAS threads, so on 1 and 2 threads a V=240 grid (x of
    19,584 entries, long enough for BLAS to split a dot) writes the same bytes."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        subprocess.run([sys.executable, "-m", "genderedlang.cli", "train",
                        "--corpus", str(planted["corpus"]), "--relation", "amod",
                        "--sentiment-lexicon", str(planted["sentiment"]),
                        "--alpha-grid", "0,0.001", "--beta-grid", "0.1", "--out", str(out)],
                       env=env, check=True, capture_output=True)
        written[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(written["1"]) == 5  # two cell checkpoints, their traces and the average
    assert written["1"] == written["2"]


def test_report_bytes_do_not_depend_on_the_blas_thread_count(planted, tmp_path):
    """The Monte Carlo sums of `report senses` and `report sentiment` are a gemm
    of 0/1 masks; on 1 and 2 OpenBLAS threads they write the same bytes."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        for argv in (["senses", "--checkpoint", str(planted["full"]),
                      "--inventory", str(planted["senses"]), "--k", "40"],
                     ["sentiment", "--checkpoint", str(planted["collapsed"]),
                      "--sentiment-lexicon", str(planted["prior"]), "--k", "40"]):
            subprocess.run([sys.executable, "-m", "genderedlang.cli", "report", *argv,
                            "--permutations", "20000", "--out", str(out / f"{argv[0]}.tsv")],
                           env=env, check=True)
        written[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(written["1"]) == ["senses.tsv", "sentiment.tsv"]
    assert written["1"] == written["2"]
