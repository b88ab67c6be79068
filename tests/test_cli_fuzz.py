"""Every CLI command given arbitrary bytes in one input file exits in {0, 1, 2, 3}.

Each case swaps one file input of a command for generated bytes and keeps
the others valid: either bytes from nothing, or a valid input with a slice
overwritten, which reaches the parsers past their first check.  A command
that raises instead of returning an exit code fails the test.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genderedlang.cli import main
from genderedlang.corpus import bundled_lexicon_path

from conftest import DATA

LEXICON = bundled_lexicon_path()
CORPUS = DATA / "toy_corpus.tsv"
SENTIMENT = DATA / "toy_sentiment.tsv"

# name -> (argv, the valid file the generated input starts from).  "{fuzz}" is the
# generated file and "{out}" the output path; the other placeholders name the valid
# files the `inputs` fixture writes.
CASES = {
    "ingest-arcs": (["ingest", "--input", "{fuzz}", "--out", "{out}"], DATA / "toy.arcs"),
    "ingest-canonical": (["ingest", "--format", "canonical", "--input", "{fuzz}",
                          "--out", "{out}"], CORPUS),
    "ingest-lexicon": (["ingest", "--input", str(DATA / "toy.arcs"),
                        "--gender-lexicon", "{fuzz}", "--out", "{out}"], LEXICON),
    "train-corpus": (["train", "--corpus", "{fuzz}", "--relation", "amod",
                      "--sentiment-lexicon", str(SENTIMENT), "--alpha-grid", "0.001",
                      "--beta-grid", "0.5", "--max-iterations", "20", "--out", "{out}"], CORPUS),
    "train-sentiment": (["train", "--corpus", str(CORPUS), "--relation", "amod",
                         "--sentiment-lexicon", "{fuzz}", "--alpha-grid", "0.001",
                         "--beta-grid", "0.5", "--max-iterations", "20", "--out", "{out}"],
                        SENTIMENT),
    "train-lexicon": (["train", "--corpus", str(CORPUS), "--relation", "amod",
                       "--gender-lexicon", "{fuzz}", "--max-iterations", "20",
                       "--out", "{out}"], LEXICON),
    "topk-checkpoint": (["report", "topk", "--checkpoint", "{fuzz}", "--out", "{out}"],
                        "{checkpoint}"),
    "pmi-corpus": (["report", "pmi", "--corpus", "{fuzz}", "--relation", "amod",
                    "--out", "{out}"], CORPUS),
    "pmi-lexicon": (["report", "pmi", "--corpus", str(CORPUS), "--relation", "amod",
                     "--gender-lexicon", "{fuzz}", "--out", "{out}"], LEXICON),
    "prop1-corpus": (["report", "prop1", "--corpus", "{fuzz}", "--relation", "amod",
                      "--max-iterations", "1000", "--out", "{out}"], CORPUS),
    "prop1-lexicon": (["report", "prop1", "--corpus", str(CORPUS), "--relation", "amod",
                       "--gender-lexicon", "{fuzz}", "--max-iterations", "1000",
                       "--out", "{out}"], LEXICON),
    "correlate-checkpoint": (["report", "correlate", "--checkpoint", "{fuzz}",
                              "--judgments", "{judgments}", "--permutations", "50",
                              "--out", "{out}"], "{checkpoint}"),
    "correlate-judgments": (["report", "correlate", "--checkpoint", "{checkpoint}",
                             "--judgments", "{fuzz}", "--binary-judgments", "{binary}",
                             "--permutations", "50", "--out", "{out}"], "{judgments}"),
    "correlate-binary": (["report", "correlate", "--checkpoint", "{checkpoint}",
                          "--judgments", "{judgments}", "--binary-judgments", "{fuzz}",
                          "--permutations", "50", "--out", "{out}"], "{binary}"),
    "senses-inventory": (["report", "senses", "--checkpoint", "{checkpoint}", "--inventory",
                          "{fuzz}", "--k", "10", "--permutations", "50", "--out", "{out}"],
                         DATA / "toy_senses_adj.tsv"),
    "sentiment-lexicon": (["report", "sentiment", "--checkpoint", "{checkpoint}",
                           "--sentiment-lexicon", "{fuzz}", "--k", "10", "--permutations", "50",
                           "--out", "{out}"], SENTIMENT),
    "permtest-a": (["report", "permtest", "--group-a", "{fuzz}", "--group-b", "{b}",
                    "--permutations", "100", "--out", "{out}"], "{a}"),
    "permtest-b": (["report", "permtest", "--group-a", "{a}", "--group-b", "{fuzz}",
                    "--permutations", "100", "--out", "{out}"], "{b}"),
    # Every flag of `report pmi` is given explicitly, so the config can only add to them.
    "config": (["report", "pmi", "--config", "{fuzz}", "--corpus", str(CORPUS),
                "--relation", "amod", "--gender-lexicon", str(LEXICON), "--out", "{out}"],
               "{config}"),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid files for the inputs no case takes from the repository."""
    root = tmp_path_factory.mktemp("fuzz_inputs")
    train = root / "train"
    assert main(["train", "--corpus", str(CORPUS), "--relation", "amod",
                 "--max-iterations", "50", "--out", str(train)]) == 0
    checkpoint = train / "checkpoint_averaged.json"
    vocab = json.loads(checkpoint.read_text())["vocab"]
    files = {"checkpoint": checkpoint, "judgments": root / "judgments.tsv",
             "binary": root / "binary.tsv", "a": root / "a.txt", "b": root / "b.txt",
             "config": root / "config.ini"}
    files["judgments"].write_text("".join(f"{w}\t{i % 5 - 2}\n" for i, w in enumerate(vocab[:8])))
    files["binary"].write_text("".join(f"{w}\t{'mf'[i % 2]}\n" for i, w in enumerate(vocab[:8])))
    files["a"].write_text("1.5\n2.0\n2.5\n3.0\n")
    files["b"].write_text("0.5\n1.0\n1.25\n")
    files["config"].write_text("# defaults\nrelation = amod\n")
    return {name: str(path) for name, path in files.items()}


def _exit_code(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exit_:  # argparse's --help, reachable through a config key
        return exit_.code


def _spliced(base: bytes):
    """`base` with a slice overwritten by arbitrary bytes."""
    return st.tuples(st.integers(0, len(base)), st.integers(0, 64), st.binary(max_size=64)).map(
        lambda cut: base[:cut[0]] + cut[2] + base[cut[0] + cut[1]:])


@pytest.mark.parametrize("case", CASES)
def test_arbitrary_bytes_exit_with_a_contract_code(case, inputs, tmp_path_factory):
    argv, base = CASES[case]
    work = tmp_path_factory.mktemp(case)
    fields = {**inputs, "fuzz": str(work / "input"), "out": str(work / "out")}
    argv = [a.format(**fields) for a in argv]
    with open(str(base).format(**fields), "rb") as fh:
        base_bytes = fh.read()

    @given(st.one_of(st.binary(max_size=512), _spliced(base_bytes)))
    @settings(max_examples=80, deadline=None, database=None)
    def run(data):
        (work / "input").write_bytes(data)
        assert _exit_code(argv) in (0, 1, 2, 3)

    run()
