import hashlib
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genderedlang import corpus
from genderedlang.corpus import (GENDERS, Gender, IngestStats, Number, Pair, Relation,
                                 aggregate_counts, gender_marginals, gender_onehot, iter_arcs,
                                 iter_canonical, load_canonical_table, load_gender_lexicon,
                                 load_tables, parse_arcs_line, read_lines, write_canonical,
                                 write_rows)
from genderedlang.errors import DataError, MalformedLineError
from genderedlang.pmi import collapse_by_gender

from conftest import DATA, make_table


class TestGenderLexicon:
    def test_bundled_size(self, lexicon):
        # 22 noun rows x 4 inflected forms, plus singular-only he/she
        assert len(lexicon.entries) == 90
        assert len({entry.lemma for entry in lexicon.entries.values()}) == 23

    def test_row_example(self, lexicon):
        entry = lexicon.entries["stewardesses"]
        assert entry.lemma == "steward"
        assert entry.gender is Gender.FEM
        assert entry.number is Number.PL

    def test_pronoun_row_is_singular_only(self, lexicon):
        pronouns = [f for f, e in lexicon.entries.items() if e.lemma == "he"]
        assert sorted(pronouns) == ["he", "she"]
        assert all(lexicon.entries[f].number is Number.SG for f in pronouns)

    def test_each_lemma_at_most_four_forms(self, lexicon):
        from collections import Counter

        per_lemma = Counter(e.lemma for e in lexicon.entries.values())
        assert max(per_lemma.values()) <= 4

    def test_duplicate_form_rejected(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("man\tman\tmasc\tsg\nman\tman\tmasc\tsg\n")
        with pytest.raises(DataError, match="'man'"):
            load_gender_lexicon(path)

    def test_unknown_gender_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("man\tman\tneuter\tsg\n")
        with pytest.raises(DataError, match="gender"):
            load_gender_lexicon(path)

    def test_unknown_number_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("man\tman\tmasc\tdual\n")
        with pytest.raises(DataError, match="number"):
            load_gender_lexicon(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(DataError, match="empty lexicon"):
            load_gender_lexicon(path)


class TestFeaturize:
    def test_stewardesses(self, space):
        (f,) = space.feature_matrix(["stewardesses"])
        pl_index = len(space.lemmas) + 3
        assert set(np.nonzero(f)[0]) == {space.lemmas.index("steward"), space.fem_index, pl_index}
        assert f.sum() == 3

    def test_pronoun(self, space):
        (f,) = space.feature_matrix(["he"])
        on = set(np.nonzero(f)[0])
        assert space.lemmas.index("he") in on
        assert space.masc_index in on
        assert len(space.lemmas) + 2 in on  # SG bit

    def test_number_bit_distinguishes_sg_pl(self, space):
        sg, pl = space.feature_matrix(["stewardess", "stewardesses"])
        diff = np.nonzero(sg != pl)[0]
        assert set(diff) == {len(space.lemmas) + 2, len(space.lemmas) + 3}
        # lemma and gender bits agree
        assert sg[space.lemmas.index("steward")] == pl[space.lemmas.index("steward")] == 1
        assert sg[space.fem_index] == pl[space.fem_index] == 1

    def test_unknown_form(self, space):
        with pytest.raises(DataError, match="'table'"):
            space.feature_matrix(["he", "table"])

    def test_every_form_has_exactly_three_bits(self, lexicon, space):
        F = space.feature_matrix(lexicon.forms())
        assert F.shape == (len(lexicon.entries), space.dim)
        assert set(np.unique(F)) == {0.0, 1.0}
        assert (F.sum(axis=1) == 3).all()

    def test_gender_columns_match_gender_onehot(self, lexicon, space):
        # the feature space and the gender-collapsed counts share one gender order
        forms = lexicon.forms()
        F = space.feature_matrix(forms)
        assert np.array_equal(F[:, [space.gender_index(g) for g in GENDERS]],
                              gender_onehot(forms, lexicon))

    def test_injective_up_to_row_structure(self, lexicon, space):
        rows = space.feature_matrix(lexicon.forms())
        vectors = {form: tuple(row) for form, row in zip(lexicon.forms(), rows)}
        for a in lexicon.forms():
            for b in lexicon.forms():
                ea, eb = lexicon.entries[a], lexicon.entries[b]
                same_features = (ea.lemma, ea.gender, ea.number) == (eb.lemma, eb.gender, eb.number)
                assert (vectors[a] == vectors[b]) == same_features


class TestParseArcs:
    def test_amod_example(self, lexicon):
        line = "woman\tpretty/JJ/amod/2 woman/NN/ROOT/0\t42\t1999,2 2000,40"
        assert parse_arcs_line(line) == [Pair("woman", "pretty", Relation.AMOD, 42)]

    def test_nsubj_orientation(self, lexicon):
        line = "laughed\twoman/NN/nsubj/2 laughed/VBD/ROOT/0\t17\t1990,17"
        assert parse_arcs_line(line) == [Pair("woman", "laughed", Relation.NSUBJ, 17)]

    def test_dobj_orientation(self, lexicon):
        line = "praised\tqueen/NN/dobj/2 praised/VBD/ROOT/0\t8\t1992,8"
        assert parse_arcs_line(line) == [Pair("queen", "praised", Relation.DOBJ, 8)]

    def test_filtered_relation(self, lexicon):
        line = "woman\tof/IN/prep/2 woman/NN/ROOT/0\t50\t1994,50"
        assert parse_arcs_line(line) == []

    def test_non_lexicon_noun_filtered(self, lexicon, tmp_path):
        line = "table\told/JJ/amod/2 table/NN/ROOT/0\t99\t1993,99"
        assert parse_arcs_line(line) == [Pair("table", "old", Relation.AMOD, 99)]
        path = tmp_path / "table.arcs"
        path.write_text(line + "\n", encoding="utf-8")
        stats = IngestStats()
        assert list(iter_arcs(path, lexicon, stats)) == []
        assert stats == IngestStats(lines=1, malformed=0, unknown_forms=1)

    def test_case_folding(self, lexicon):
        line = "Queen\tGracious/JJ/amod/2 Queen/NN/ROOT/0\t7\t2001,7"
        assert parse_arcs_line(line) == [Pair("queen", "gracious", Relation.AMOD, 7)]

    def test_multiple_arcs_in_one_ngram(self, lexicon):
        line = "loved\twoman/NN/nsubj/3 pretty/JJ/amod/1 loved/VBD/ROOT/0\t6\t1997,6"
        pairs = parse_arcs_line(line)
        assert Pair("woman", "loved", Relation.NSUBJ, 6) in pairs
        assert Pair("woman", "pretty", Relation.AMOD, 6) in pairs
        assert len(pairs) == 2

    def test_truncated_line_malformed(self, lexicon):
        with pytest.raises(MalformedLineError):
            parse_arcs_line("woman\t")

    def test_bad_token_arity_malformed(self, lexicon):
        with pytest.raises(MalformedLineError):
            parse_arcs_line("man\tpretty/JJ/amod\t13\t1995,13")

    def test_bad_count_malformed(self, lexicon):
        with pytest.raises(MalformedLineError):
            parse_arcs_line("girl\tyoung/JJ/amod/2 girl/NN/ROOT/0\toops\t1996,1")

    @pytest.mark.parametrize("line", [
        "woman\t/JJ/amod/2 woman/NN/ROOT/0\t5\t2000,5",
        "laughed\twoman/NN/nsubj/2 /VBD/ROOT/0\t5\t2000,5",
        "table\tpretty/JJ/amod/2 table/NN/ROOT/0 /JJ/amod/2\t5\t2000,5",
    ], ids=["amod_modifier", "nsubj_verb", "beside_a_good_arc"])
    def test_empty_neighbor_word_malformed(self, lexicon, line):
        with pytest.raises(MalformedLineError, match="empty neighbor"):
            parse_arcs_line(line)

    def test_empty_noun_is_an_unknown_form(self, lexicon, tmp_path):
        line = "laughed\t/NN/nsubj/2 laughed/VBD/ROOT/0\t5\t2000,5"
        assert parse_arcs_line(line) == [Pair("", "laughed", Relation.NSUBJ, 5)]
        path = tmp_path / "empty_noun.arcs"
        path.write_text(line + "\n", encoding="utf-8")
        stats = IngestStats()
        assert list(iter_arcs(path, lexicon, stats)) == []
        assert stats == IngestStats(lines=1, malformed=0, unknown_forms=1)
        assert load_tables([path], lexicon, stats, arcs=True) == {}
        assert stats == IngestStats(lines=2, malformed=0, unknown_forms=2)

    def test_every_injected_malformed_kind_raises(self, lexicon, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        assert len(workloads.MALFORMED_KINDS) == 6
        for kind in workloads.MALFORMED_KINDS:
            line = workloads._malformed_line(kind, "woman", "pretty")
            with pytest.raises(MalformedLineError):
                parse_arcs_line(line)

    def test_bulk_reader_counts_malformed(self, lexicon):
        stats = IngestStats()
        pairs = list(iter_arcs(DATA / "toy.arcs", lexicon, stats))
        assert stats.malformed == 3
        assert stats.unknown_forms == 1  # the `table old/JJ/amod` line
        # year-aggregated duplicates are left for the aggregator
        amod_pairs = [p for p in pairs if p.relation is Relation.AMOD]
        assert Pair("woman", "pretty", Relation.AMOD, 42) in amod_pairs
        assert Pair("woman", "pretty", Relation.AMOD, 8) in amod_pairs


def _reference_canonical(path, lex):
    """The canonical reader with the relation token looked up by the Relation constructor."""
    stats, pairs = IngestStats(), []
    for _, line in read_lines(path):
        stats.lines += 1
        fields = line.split("\t")
        if len(fields) != 4:
            stats.malformed += 1
            continue
        rel_token, form, neighbor, count_token = fields
        try:
            relation = Relation(rel_token.strip().lower())
            count = int(count_token)
        except ValueError:
            stats.malformed += 1
            continue
        neighbor = neighbor.strip().lower()
        if count < 0 or not neighbor:
            stats.malformed += 1
            continue
        form = form.strip().lower()
        if form not in lex.entries:
            stats.unknown_forms += 1
            continue
        pairs.append(Pair(form, neighbor, relation, count))
    return pairs, stats


_CANONICAL_ROW = st.tuples(
    st.sampled_from(["amod", "nsubj", "dobj", "AMOD", " Nsubj", "dObj  ", "prep", "", "amod2"]),
    st.sampled_from(["woman", "Man", " queen ", "KINGS\u00a0", "he", "table", "", "wo man"]),
    st.text(alphabet="aBz \u00c9_", max_size=4),
    st.one_of(st.sampled_from(["7", " 7", "1_000", "+4", "007", "-0", "0", "-3", "2.5", "x", ""]),
              st.integers(min_value=-5, max_value=10 ** 6).map(str)),
    st.sampled_from([4, 4, 4, 3, 5]),
).map(lambda row: "\t".join([*row[:4], "extra"][:row[4]]))
_CANONICAL_LINE = st.one_of(_CANONICAL_ROW,
                            st.sampled_from(["", "   ", "\t", "# amod\twoman\ttall\t3", " # x"]))
# counts whose sum over a few rows reaches 2**63, and zero counts
_LARGE_COUNT_ROW = st.tuples(
    st.sampled_from(["amod", "dobj"]), st.sampled_from(["woman", "Man"]), st.sampled_from(["a", "B"]),
    st.sampled_from([str(2 ** 62), str(2 ** 63), str(2 ** 64), "0"]),
).map("\t".join)


class TestCanonicalReader:
    def test_stats_count_each_kind_of_line(self, lexicon, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("# comment\n\namod\tWoman\tTall\t3\nprep\twoman\tof\t2\n"
                        "amod\twoman\ttall\t-1\namod\twoman\ttall\nnsubj\ttable\tstood\t4\n",
                        encoding="utf-8")
        stats = IngestStats()
        assert list(iter_canonical(path, lexicon, stats)) == [Pair("woman", "tall", Relation.AMOD, 3)]
        assert stats == IngestStats(lines=5, malformed=3, unknown_forms=1)

    def test_empty_neighbor_is_malformed(self, lexicon, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("amod\twoman\t \t5\namod\twoman\t\t5\namod\ttable\t\u3000\t5\n"
                        "amod\twoman\ttall\t5\n", encoding="utf-8")
        stats = IngestStats()
        assert list(iter_canonical(path, lexicon, stats)) == [Pair("woman", "tall", Relation.AMOD, 5)]
        assert stats == IngestStats(lines=4, malformed=3, unknown_forms=0)
        assert load_canonical_table(path, Relation.AMOD, lexicon).vocab == ("tall",)

    def test_leading_byte_order_mark_is_dropped(self, lexicon, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_bytes("amod\twoman\ttall\t3\namod\tman\tbrave\t2\n".encode("utf-8-sig"))
        stats = IngestStats()
        assert list(iter_canonical(path, lexicon, stats)) == [
            Pair("woman", "tall", Relation.AMOD, 3), Pair("man", "brave", Relation.AMOD, 2)]
        assert stats == IngestStats(lines=2, malformed=0, unknown_forms=0)

    @given(st.lists(_CANONICAL_LINE, max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_reader(self, lexicon, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("canonical") / "lines.tsv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        stats = IngestStats()
        pairs = list(iter_canonical(path, lexicon, stats))
        want_pairs, want_stats = _reference_canonical(path, lexicon)
        assert pairs == want_pairs
        assert all(type(p.relation) is Relation for p in pairs)
        assert stats == want_stats

    @given(st.lists(st.one_of(_CANONICAL_LINE, _LARGE_COUNT_ROW), min_size=4, max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_blocks_of_three_lines_match_the_reference(self, lexicon, tmp_path_factory, lines):
        """Split into blocks of 3 lines, the reader still gives the reference's pairs
        and stats, and the CLI's column loader gives the table (or the error) that
        aggregating those pairs gives, for every relation."""
        path = tmp_path_factory.mktemp("canonical") / "lines.tsv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        want_pairs, want_stats = _reference_canonical(path, lexicon)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(corpus, "_BLOCK_LINES", 3)
            stats = IngestStats()
            assert list(iter_canonical(path, lexicon, stats)) == want_pairs
            assert stats == want_stats
            for relation in Relation:
                _assert_same_table(path, relation, lexicon)

    def test_zero_count_relation_and_int64_total(self, lexicon, tmp_path, monkeypatch):
        monkeypatch.setattr(corpus, "_BLOCK_LINES", 3)
        path = tmp_path / "c.tsv"
        path.write_text("nsubj\twoman\tstood\t0\namod\tWoman\tTall\t3\n# x\n\nnsubj\tman\tsat\t 0\n"
                        f"dobj\tman\tsaw\t{2 ** 62}\ndobj\tqueen\tsaw\t{2 ** 62}\n"
                        "amod\tman\ttall\t2\namod\tman\tbrave\t0\n", encoding="utf-8")
        for relation in Relation:
            _assert_same_table(path, relation, lexicon)
        with pytest.raises(DataError, match="empty table: no usable records for relation 'nsubj'"):
            load_canonical_table(path, Relation.NSUBJ, lexicon)
        with pytest.raises(DataError, match="exceeds the int64 range"):
            load_canonical_table(path, Relation.DOBJ, lexicon)
        table = load_canonical_table(path, Relation.AMOD, lexicon)
        assert (table.vocab, table.forms, table.matrix.tolist()) == (
            ("tall",), ("man", "woman"), [[2, 3]])


def _assert_same_table(path, relation, lexicon):
    """load_canonical_table equals aggregate_counts(iter_canonical(...)), or both
    raise the same DataError."""
    try:
        want = aggregate_counts(iter_canonical(path, lexicon), relation, lexicon)
    except DataError as err:
        with pytest.raises(DataError) as got:
            load_canonical_table(path, relation, lexicon)
        assert str(got.value) == str(err)
        return
    _assert_tables_equal(load_canonical_table(path, relation, lexicon), want)


def _assert_tables_equal(table, want):
    assert (table.relation, table.vocab, table.forms) == (want.relation, want.vocab, want.forms)
    assert table.matrix.dtype == np.int64 and np.array_equal(table.matrix, want.matrix)
    assert table.fingerprint() == want.fingerprint()


_WELL_FORMED_TOKEN = st.builds(
    "{}/{}/{}/{}".format,
    st.sampled_from(["woman", "Woman", "QUEEN", "kings", "table", "pretty", "Tall", "ran", "a/b",
                     "", ""]),
    st.sampled_from(["NN", "JJ", "VBD"]),
    st.sampled_from(["amod", "nsubj", "dobj", "Dobj", "ROOT", "prep"]),
    st.sampled_from(["1", "2", "1", "2", "3", "0", "+2", "02", "-1", "x", "\u0662", "9" * 20]))
# one token in ten does not split into word/POS/deplabel/head-index
_ARC_TOKEN = st.sampled_from([False] * 9 + [True]).flatmap(
    lambda bad: st.sampled_from(["pretty/JJ/amod", "x", "/"]) if bad else _WELL_FORMED_TOKEN)
_NGRAM = st.tuples(st.lists(_ARC_TOKEN, min_size=1, max_size=4),
                   st.sampled_from([" ", " ", " ", " ", "  ", "\xa0", "\u3000", "\x1c"]),
                   st.sampled_from(["", "", "", " "]), st.sampled_from(["", "", "", " "]),
                   ).map(lambda g: g[2] + g[1].join(g[0]) + g[3])
_ARCS_ROW = st.tuples(
    st.sampled_from(["woman", "Queen", "ran", ""]), _NGRAM,
    st.one_of(st.sampled_from(["5", "0", "+4", "1_000", "-3", "x", "", " 7", str(2 ** 62),
                               str(2 ** 63), str(2 ** 64)]),
              st.integers(min_value=0, max_value=50).map(str)),
    st.sampled_from([4, 4, 4, 4, 3, 5, 2]),
).map(lambda row: "\t".join([*row[:3], "1999,5", "extra"][:row[3]]))
_ARCS_LINE = st.one_of(
    _ARCS_ROW,
    st.sampled_from(["woman\tpretty/JJ/amod/2 woman/NN/ROOT/0\t42\t1999,2 2000,40",
                     "laughed\tWoman/NN/nsubj/2 laughed/VBD/ROOT/0\t17\t1990,17",
                     "praised\tqueen/NN/dobj/2 Praised/VBD/ROOT/0\t8\t1992,8",
                     "loved\twoman/NN/nsubj/3 pretty/JJ/amod/1 loved/VBD/ROOT/0\t6\t1997,6",
                     "Kings\tbrave/JJ/amod/2 Kings/NNS/ROOT/0\t3\t1990,3",
                     "table\told/JJ/amod/2 table/NN/ROOT/0\t99\t1993,99",
                     "", "   ", "\t", "# woman\tpretty/JJ/amod/2 woman/NN/ROOT/0\t3\t1999,3", " # x"]),
    st.integers(min_value=0, max_value=5))  # an index into perfbench's MALFORMED_KINDS


class TestArcsBlocks:
    @given(st.lists(st.tuples(_ARCS_LINE, st.booleans()), min_size=4, max_size=25),
           st.integers(min_value=0, max_value=25))
    @settings(max_examples=200, deadline=None)
    def test_blocks_of_three_lines_match_the_reference(self, lexicon, tmp_path_factory, lines,
                                                       split):
        """Split into blocks of 3 lines, the arcs tables of two files loaded in one
        call are iter_arcs then aggregate_counts per relation (or the same
        DataError), and the stats are the same."""
        with pytest.MonkeyPatch.context() as patch:
            patch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
            import workloads

            texts = [(workloads._malformed_line(workloads.MALFORMED_KINDS[line], "woman", "pretty")
                      if isinstance(line, int) else line) + ("\r\n" if crlf else "\n")
                     for line, crlf in lines]
            directory = tmp_path_factory.mktemp("arcs")
            paths = [directory / "a.arcs", directory / "b.arcs"]
            for path, part in zip(paths, (texts[:split], texts[split:])):
                path.write_text("".join(part), encoding="utf-8", newline="")
            want_stats = IngestStats()
            pairs = [pair for path in paths for pair in iter_arcs(path, lexicon, want_stats)]
            want: dict = {}
            for relation in Relation:
                try:
                    want[relation] = aggregate_counts(pairs, relation, lexicon)
                except DataError as err:
                    want[relation] = str(err)

            patch.setattr(corpus, "_BLOCK_LINES", 3)
            for relation in Relation:
                stats = IngestStats()
                if isinstance(want[relation], str):
                    if "empty table" in want[relation]:
                        assert load_tables(paths, lexicon, stats, True, [relation]) == {}
                    else:
                        with pytest.raises(DataError) as got:
                            load_tables(paths, lexicon, stats, True, [relation])
                        assert str(got.value) == want[relation]
                else:
                    (table,) = load_tables(paths, lexicon, stats, True, [relation]).values()
                    _assert_tables_equal(table, want[relation])
                assert stats == want_stats
            stats = IngestStats()
            overflows = [w for w in want.values() if isinstance(w, str) and "empty" not in w]
            if overflows:
                with pytest.raises(DataError, match=overflows[0]):
                    load_tables(paths, lexicon, stats, arcs=True)
            else:
                tables = load_tables(paths, lexicon, stats, arcs=True)
                assert list(tables) == [r for r in Relation if not isinstance(want[r], str)]
                assert stats == want_stats


class TestAggregate:
    def test_additivity(self):
        pairs = [Pair("woman", "pretty", Relation.AMOD, 42),
                 Pair("woman", "pretty", Relation.AMOD, 8)]
        t = aggregate_counts_helper(pairs)
        assert (t.vocab, t.forms) == (("pretty",), ("woman",))
        assert t.count_matrix().tolist() == [[50]]

    def test_order_invariance(self):
        rng = random.Random(5)
        pairs = [Pair("woman", f"a{i%7}", Relation.AMOD, rng.randint(1, 20)) for i in range(40)]
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        a, b = aggregate_counts_helper(pairs), aggregate_counts_helper(shuffled)
        assert (a.vocab, a.forms) == (b.vocab, b.forms)
        assert np.array_equal(a.count_matrix(), b.count_matrix())

    def test_empty_rejected(self, lexicon):
        with pytest.raises(DataError, match="empty table"):
            aggregate_counts([], Relation.AMOD, lexicon)

    def test_zero_count_records_ignored(self, lexicon):
        pairs = [Pair("woman", "pretty", Relation.AMOD, 0)]
        with pytest.raises(DataError, match="empty table"):
            aggregate_counts(pairs, Relation.AMOD, lexicon)

    @given(st.lists(st.tuples(st.sampled_from(list(Relation)),
                              st.sampled_from(["woman", "man", "girl", "boy"]),
                              st.sampled_from(["a", "b", "c"]),
                              st.integers(min_value=0, max_value=50)),
                    max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_one_pass_equals_per_relation_aggregation(self, lexicon, tmp_path_factory, records):
        """The records written as canonical lines load, in one pass, as the table
        aggregate_counts gives for each relation."""
        pairs = [Pair(f, n, r, c) for r, f, n, c in records]
        path = tmp_path_factory.mktemp("canonical") / "records.tsv"
        path.write_text("".join(f"{r.value}\t{f}\t{n}\t{c}\n" for f, n, r, c in pairs),
                        encoding="utf-8")
        stats = IngestStats()
        tables = load_tables([path], lexicon, stats)
        assert stats == IngestStats(lines=len(pairs), malformed=0, unknown_forms=0)
        assert list(tables) == [r for r in Relation if r in tables]
        for relation in Relation:
            expected = Counter()
            for p in pairs:
                if p.relation is relation and p.count:
                    expected[(p.neighbor, p.form)] += p.count
            if relation in tables:
                table, alone = tables[relation], aggregate_counts(pairs, relation, lexicon)
                assert (table.relation, table.vocab, table.forms) == (alone.relation, alone.vocab,
                                                                      alone.forms)
                assert np.array_equal(table.count_matrix(), alone.count_matrix())
                assert {(n, f): c for n, f, c in table.entries()} == dict(expected)
                assert table.total == sum(expected.values())
            else:
                with pytest.raises(DataError, match="empty table"):
                    aggregate_counts(pairs, relation, lexicon)

    @given(st.dictionaries(
        st.tuples(st.sampled_from(["a", "b", "c", "d"]),
                  st.sampled_from(["woman", "man", "queens", "boys"])),
        st.integers(min_value=1, max_value=1000), min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_p_hat_sums_to_one(self, lexicon, counts):
        table = make_table(counts, lex=lexicon)
        assert abs(table.p_hat().sum() - 1.0) < 1e-12

    @given(st.lists(st.tuples(st.text(alphabet="abB_\u00e9", min_size=1, max_size=3),
                              st.sampled_from(["woman", "man", "queens", "boys", "he"]),
                              st.integers(min_value=0, max_value=10 ** 12)),
                    min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_matrix_fingerprint_and_file_match_a_sorted_counter(self, lexicon, tmp_path_factory,
                                                               records):
        expected = Counter()
        for neighbor, form, count in records:
            if count:
                expected[(neighbor, form)] += count
        assume(expected)
        table = aggregate_counts([Pair(f, n, Relation.DOBJ, c) for n, f, c in records],
                                 Relation.DOBJ, lexicon)
        vocab = sorted({n for n, _ in expected})
        forms = sorted({f for _, f in expected})
        dense = [[expected[(n, f)] for f in forms] for n in vocab]
        assert (list(table.vocab), list(table.forms)) == (vocab, forms)
        assert table.count_matrix().dtype == np.int64
        assert table.count_matrix().tolist() == dense
        assert isinstance(table.total, int) and table.total == sum(expected.values())

        h = hashlib.sha256(b"dobj")
        for neighbor, form in sorted(expected):
            h.update(f"\n{neighbor}\t{form}\t{expected[(neighbor, form)]}".encode())
        assert table.fingerprint() == h.hexdigest()

        path = tmp_path_factory.mktemp("canonical") / "dobj.tsv"
        write_canonical(path, table)
        assert path.read_text(encoding="utf-8") == "".join(
            f"dobj\t{form}\t{neighbor}\t{expected[(neighbor, form)]}\n"
            for neighbor, form in sorted(expected))

    @pytest.mark.parametrize("records, match", [
        ([("man", "tall", 5), ("woman", "tall", -3)], "negative count"),
        ([("man", "tall", 5), ("man", "tall", -5), ("woman", "short", 2)], "negative count"),
        ([("woman", "tall", -1)], "negative count"),
        ([("man", "tall", 2.5)], "non-integer count"),
        ([("man", "tall", 2), ("woman", "tall", 2.5)], "non-integer count"),
        ([("man", "tall", 3), ("man", "tall", 0.5)], "non-integer count"),
    ], ids=["negative_cell", "cancelling_cell", "only_negative",
            "float_cell", "float_beside_int", "float_added_to_int"])
    def test_bad_count_rejected(self, lexicon, records, match):
        pairs = [Pair(f, n, Relation.AMOD, c) for f, n, c in records]
        with pytest.raises(DataError, match=match):
            aggregate_counts(pairs, Relation.AMOD, lexicon)

    def test_unknown_relation_rejected(self, lexicon):
        pairs = [Pair("man", "tall", Relation.AMOD, 2), Pair("man", "of", "prep", 3)]
        with pytest.raises(DataError, match="unknown relation 'prep'"):
            aggregate_counts(pairs, Relation.AMOD, lexicon)

    def test_total_beyond_int64_rejected(self, lexicon):
        pairs = [Pair("woman", "a", Relation.AMOD, 2 ** 62), Pair("man", "b", Relation.AMOD, 2 ** 62)]
        with pytest.raises(DataError, match="exceeds"):
            aggregate_counts(pairs, Relation.AMOD, lexicon)


def aggregate_counts_helper(pairs):
    from genderedlang.corpus import GenderLexicon, LexiconEntry

    forms = {p.form for p in pairs}
    entries = {f: LexiconEntry(f, Gender.FEM if f in ("woman", "girl") else Gender.MASC,
                               Number.SG) for f in forms}
    lex = GenderLexicon(entries=entries)
    return aggregate_counts(pairs, Relation.AMOD, lex)


class TestGenderMarginals:
    def test_toy_split(self, lexicon):
        table = make_table({("a", "woman"): 30, ("a", "man"): 10}, lex=lexicon)
        assert gender_marginals(table, lexicon) == {Gender.MASC: 10, Gender.FEM: 30}

    def test_corpus_scale_totals(self, lexicon):
        # Fixture carries the per-noun corpus totals (in raw counts); the
        # published per-noun figures are rounded to 0.1M, so the reassembled
        # totals land within 0.2M of 30.2M / 62.7M.
        table = aggregate_counts(iter_canonical(DATA / "table1_totals.tsv", lexicon),
                                 Relation.AMOD, lexicon)
        marg = gender_marginals(table, lexicon)
        assert abs(marg[Gender.FEM] - 30_200_000) <= 200_000
        assert abs(marg[Gender.MASC] - 62_700_000) <= 200_000

    def test_single_gender_table(self, lexicon):
        table = make_table({("a", "man"): 5, ("b", "kings"): 2}, lex=lexicon)
        assert gender_marginals(table, lexicon) == {Gender.MASC: 7, Gender.FEM: 0}

    def test_ints_equal_collapsed_column_sums(self, lexicon):
        table = aggregate_counts(iter_canonical(DATA / "table1_totals.tsv", lexicon),
                                 Relation.AMOD, lexicon)
        marg = gender_marginals(table, lexicon)
        assert all(type(count) is int for count in marg.values())
        columns = collapse_by_gender(table, lexicon).count_matrix().sum(axis=0)
        assert [marg[Gender.MASC], marg[Gender.FEM]] == columns.tolist()


class TestWriteRows:
    def test_cells(self, tmp_path):
        path = tmp_path / "rows.tsv"
        write_rows(path, [["word", "score", "n", "ok"], ("a", 0.1, 3, "true"),
                          ["b", np.float64(1 / 3), np.int64(2), 1e-300]])
        assert path.read_bytes() == (b"word\tscore\tn\tok\na\t0.1\t3\ttrue\n"
                                     b"b\t0.3333333333333333\t2\t1e-300\n")
