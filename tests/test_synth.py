import hashlib
import json

import pytest

from genderedlang.corpus import Gender, Relation, aggregate_counts
from genderedlang.synth import SynthConfig, generate, write_synth


class TestGenerate:
    def test_deterministic(self, lexicon):
        a = generate(SynthConfig(seed=9, vocab_size=60, n_pairs=20000), lexicon)
        b = generate(SynthConfig(seed=9, vocab_size=60, n_pairs=20000), lexicon)
        assert a.pairs == b.pairs
        assert a.manifest == b.manifest
        assert a.sense_rows == b.sense_rows

    def test_different_seeds_differ(self, lexicon):
        a = generate(SynthConfig(seed=1, vocab_size=60, n_pairs=20000), lexicon)
        b = generate(SynthConfig(seed=2, vocab_size=60, n_pairs=20000), lexicon)
        assert a.pairs != b.pairs

    def test_planted_effect_lands_in_the_fem_group(self, lexicon):
        data = generate(SynthConfig(seed=3, vocab_size=120, planted_body_fem=0.15), lexicon)
        diff = data.manifest["true_mean_body_fem"] - data.manifest["true_mean_body_masc"]
        assert diff == pytest.approx(0.15, abs=0.04)
        null = generate(SynthConfig(seed=3, vocab_size=120, planted_body_fem=0.0), lexicon)
        diff0 = null.manifest["true_mean_body_fem"] - null.manifest["true_mean_body_masc"]
        assert abs(diff0) < 0.04

    def test_groups_are_disjoint_and_sized(self, lexicon):
        data = generate(SynthConfig(seed=4, vocab_size=120), lexicon)
        fem, masc = set(data.manifest["fem_words"]), set(data.manifest["masc_words"])
        assert len(fem) == len(masc) == 20
        assert not fem & masc

    def test_active_forms_are_gender_balanced(self, lexicon):
        data = generate(SynthConfig(seed=5, vocab_size=60), lexicon)
        forms = {form for form, *_ in data.pairs}
        genders = [lexicon.entries[f].gender for f in forms]
        assert genders.count(Gender.MASC) > 0 and genders.count(Gender.FEM) > 0
        assert len(forms) <= 36

    def test_corpus_aggregates_cleanly(self, lexicon):
        data = generate(SynthConfig(seed=6, vocab_size=60, n_pairs=30000), lexicon)
        table = aggregate_counts(data.pairs, Relation.AMOD, lexicon)
        assert table.total == sum(p.count for p in data.pairs)
        assert abs(table.p_hat().sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("config, n, digest", [
        (SynthConfig(seed=0, vocab_size=240, n_pairs=300_000, planted_body_fem=0.15), 8435,
         "cee32dbc45108dd5291e9201c5d9ac6812dffff663560d16e0e1460906df25bf"),
        (SynthConfig(seed=5, vocab_size=60, n_pairs=20_000, relation=Relation.NSUBJ), 1951,
         "8937d597e13ffbc7bccd022b9411a8eff98585d5baba9b603d67496cea87b5f3"),
    ], ids=["amod", "nsubj"])
    def test_pairs_match_their_recorded_digest(self, lexicon, config, n, digest):
        # recorded from the former per-cell loop; the nsubj corpus was drawn with verb senses
        pairs = generate(config, lexicon).pairs
        text = "".join(f"{p.form}\t{p.neighbor}\t{p.relation.value}\t{p.count}\n" for p in pairs)
        assert len(pairs) == n and all(type(p.count) is int for p in pairs)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_judgments_cover_gendered_words_with_signs(self, lexicon):
        data = generate(SynthConfig(seed=7, vocab_size=60), lexicon)
        for w in data.manifest["fem_words"]:
            assert data.judgments[w] > 0 and data.binary_judgments[w] == "f"
        for w in data.manifest["masc_words"]:
            assert data.judgments[w] < 0 and data.binary_judgments[w] == "m"


class TestWriteSynth:
    def test_byte_identical_reruns(self, lexicon, tmp_path):
        config = SynthConfig(seed=11, vocab_size=60, n_pairs=20000, planted_body_fem=0.1)
        p1 = write_synth(tmp_path / "a", generate(config, lexicon), lexicon)
        p2 = write_synth(tmp_path / "b", generate(config, lexicon), lexicon)
        for name in p1:
            assert p1[name].read_bytes() == p2[name].read_bytes(), name

    def test_outputs_reload_through_the_loaders(self, lexicon, tmp_path):
        from genderedlang.corpus import iter_canonical
        from genderedlang.lexicons import SenseKind, load_sense_inventory, load_sentiment_lexicon

        config = SynthConfig(seed=12, vocab_size=60, n_pairs=20000)
        paths = write_synth(tmp_path, generate(config, lexicon), lexicon)
        table = aggregate_counts(iter_canonical(paths["corpus"], lexicon),
                                 Relation.AMOD, lexicon)
        assert table.total > 0
        prior = load_sentiment_lexicon(paths["sentiment"])
        assert len(prior.probs) == 60
        inv = load_sense_inventory(paths["senses"], SenseKind.ADJ)
        assert len(inv.weights) == 60
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["seed"] == 12
