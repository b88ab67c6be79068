import pytest

from genderedlang.errors import DataError
from genderedlang.lexicons import (ADJECTIVE_SENSES, VERB_SENSES, SenseKind,
                                   load_sense_inventory, load_sentiment_lexicon)


class TestSentimentLexicon:
    def test_dirichlet_mean(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("pretty\t6\t1\t1\n")
        prior = load_sentiment_lexicon(path)
        assert prior.get("pretty") == (0.75, 0.125, 0.125)

    def test_uniform(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("stone\t1\t1\t1\n")
        triple = load_sentiment_lexicon(path).get("stone")
        assert triple == (1 / 3, 1 / 3, 1 / 3)

    def test_three_word_file(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("a\t2\t1\t1\nb\t1\t3\t1\nc\t0.5\t0.5\t9\n")
        prior = load_sentiment_lexicon(path)
        assert len(prior.probs) == 3
        for word in ("a", "b", "c"):
            assert abs(sum(prior.get(word)) - 1.0) < 1e-9
            assert min(prior.get(word)) >= 0

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_bytes("stone\t1\t1\t2\n".encode("utf-8-sig"))
        assert load_sentiment_lexicon(path).probs == {"stone": (0.25, 0.25, 0.5)}

    def test_non_positive_concentration_names_word(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("weird\t1\t0\t1\n")
        with pytest.raises(DataError, match="'weird'"):
            load_sentiment_lexicon(path)

    @pytest.mark.parametrize("row", ["nan\t1\t1", "1\tinf\t1", "1\t1\t-inf",
                                     "1e308\t1e308\t1"])
    def test_non_finite_concentration_rejected(self, tmp_path, row):
        path = tmp_path / "s.tsv"
        path.write_text(f"weird\t{row}\n")
        with pytest.raises(DataError, match="'weird'.*finite"):
            load_sentiment_lexicon(path)

    def test_duplicate_word_last_row_wins(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("x\t1\t1\t1\nx\t8\t1\t1\n")
        prior = load_sentiment_lexicon(path)
        assert prior.get("x") == (0.8, 0.1, 0.1)

    def test_case_folded_lookup(self, toy_prior):
        assert toy_prior.get("Pretty") == toy_prior.get("pretty")
        assert toy_prior.get("pretty") is not None

    def test_absent_word(self, toy_prior):
        assert toy_prior.get("xylophone") is None


class TestSenseInventory:
    def test_table5_sense_sets(self):
        assert len(ADJECTIVE_SENSES) == 13
        assert len(VERB_SENSES) == 15
        assert "body" in ADJECTIVE_SENSES and "behavior" in ADJECTIVE_SENSES
        assert "stative" in VERB_SENSES and "motion" in VERB_SENSES

    def test_already_normalized(self, tmp_path):
        path = tmp_path / "inv.tsv"
        path.write_text("beautiful\tbody:0.9,miscellaneous:0.1\n")
        inv = load_sense_inventory(path, SenseKind.ADJ)
        assert inv.get("beautiful") == {"body": 0.9, "miscellaneous": 0.1}

    def test_single_sense_normalization(self, tmp_path):
        path = tmp_path / "inv.tsv"
        path.write_text("brave\tbehavior:2\n")
        inv = load_sense_inventory(path, SenseKind.ADJ)
        assert inv.get("brave") == {"behavior": 1.0}

    def test_verb_symmetry(self, tmp_path):
        path = tmp_path / "inv.tsv"
        path.write_text("run\tmotion:1,body:1\n")
        inv = load_sense_inventory(path, SenseKind.VERB)
        assert inv.get("run") == {"motion": 0.5, "body": 0.5}

    def test_unknown_sense_rejected(self, tmp_path):
        path = tmp_path / "inv.tsv"
        # 'stative' is a verb sense, not an adjective sense
        path.write_text("odd\tstative:1\n")
        with pytest.raises(DataError, match="stative"):
            load_sense_inventory(path, SenseKind.ADJ)

    def test_empty_weight_list_rejected(self, tmp_path):
        path = tmp_path / "inv.tsv"
        path.write_text("odd\t\n")
        with pytest.raises(DataError, match="empty sense list"):
            load_sense_inventory(path, SenseKind.ADJ)

    def test_zero_total_rejected(self, tmp_path):
        path = tmp_path / "inv.tsv"
        path.write_text("odd\tbody:0\n")
        with pytest.raises(DataError, match="sum to zero"):
            load_sense_inventory(path, SenseKind.ADJ)

    @pytest.mark.parametrize("items, message", [
        ("body:nan", "finite"), ("body:inf,mind:1", "finite"),
        ("body:1e308,mind:1e308", "overflow")])
    def test_non_finite_weight_rejected(self, tmp_path, items, message):
        path = tmp_path / "inv.tsv"
        path.write_text(f"odd\t{items}\n")
        with pytest.raises(DataError, match=message):
            load_sense_inventory(path, SenseKind.ADJ)

    def test_all_loaded_rows_are_distributions(self, toy_inventory):
        for word in toy_inventory.weights:
            dist = toy_inventory.get(word)
            assert abs(sum(dist.values()) - 1.0) < 1e-9
            assert min(dist.values()) >= 0
            assert set(dist) <= set(ADJECTIVE_SENSES)

    def test_duplicate_word_last_row_wins(self, tmp_path):
        path = tmp_path / "inv.tsv"
        path.write_text("x\tbody:1\nx\tmind:1\n")
        inv = load_sense_inventory(path, SenseKind.ADJ)
        assert inv.get("x") == {"mind": 1.0}
