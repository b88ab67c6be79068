import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genderedlang.corpus import Gender
from genderedlang.errors import DataError, NumericalError
from genderedlang.pmi import (GENDERS, GenderCollapsedTable, collapse_by_gender, pmi_table,
                              prop1_check, restricted_train)

from conftest import make_table


def gtable(counts: dict) -> GenderCollapsedTable:
    vocab = tuple(sorted({w for w, _ in counts}))
    matrix = np.zeros((len(vocab), 2))
    for (w, g), count in counts.items():
        matrix[vocab.index(w), GENDERS.index(g)] = count
    return GenderCollapsedTable(matrix=matrix, vocab=vocab)


def saturation(counts: np.ndarray, eta: np.ndarray) -> float:
    """max |p(v|g) - p_hat(v|g)| of the restricted model with deviations eta."""
    z = np.log(counts.sum(axis=1) / counts.sum())[:, None] + eta
    p = np.exp(z - z.max(axis=0))
    return float(np.abs(p / p.sum(axis=0) - counts / counts.sum(axis=0)).max())


SYMMETRIC = {("a", Gender.MASC): 30, ("a", Gender.FEM): 10,
             ("b", Gender.MASC): 10, ("b", Gender.FEM): 30}


class TestPmi:
    def test_hand_value(self):
        # p(a,M)=0.375, p(a)=p(M)=0.5 -> ln 1.5
        values = pmi_table(gtable(SYMMETRIC))
        assert values[("a", Gender.MASC)] == pytest.approx(math.log(1.5), abs=1e-12)

    def test_perfectly_balanced_counts_give_zero(self):
        t = gtable({("a", Gender.MASC): 20, ("a", Gender.FEM): 20,
                    ("b", Gender.MASC): 5, ("b", Gender.FEM): 5})
        values = pmi_table(t)
        assert len(values) == 4
        for w in ("a", "b"):
            for g in (Gender.MASC, Gender.FEM):
                assert values[(w, g)] == pytest.approx(0.0, abs=1e-12)

    def test_symmetry_of_the_two_by_two_table(self):
        # swapping both the word and the gender leaves the table invariant,
        # so PMI(a,M)=PMI(b,F) and PMI(a,F)=PMI(b,M)=ln(0.5)
        pmi = pmi_table(gtable(SYMMETRIC))
        assert pmi[("a", Gender.MASC)] == pytest.approx(pmi[("b", Gender.FEM)], abs=1e-12)
        assert pmi[("a", Gender.FEM)] == pytest.approx(pmi[("b", Gender.MASC)], abs=1e-12)
        assert pmi[("b", Gender.MASC)] == pytest.approx(math.log(0.5), abs=1e-12)

    def test_zero_joint_count_excluded(self):
        t = gtable({("a", Gender.MASC): 30, ("b", Gender.MASC): 10,
                    ("b", Gender.FEM): 30})
        table = pmi_table(t)
        assert set(table) == {("a", Gender.MASC), ("b", Gender.MASC), ("b", Gender.FEM)}
        assert not any(math.isinf(v) for v in table.values())

    def test_collapse_preserves_total(self, lexicon):
        table = make_table({("x", "woman"): 4, ("x", "women"): 6, ("x", "man"): 5,
                            ("y", "he"): 2, ("y", "she"): 3}, lex=lexicon)
        collapsed = collapse_by_gender(table, lexicon)
        assert collapsed.total == table.total
        counts = collapsed.count_matrix()
        assert counts[collapsed.vocab.index("x"), GENDERS.index(Gender.FEM)] == 10
        assert counts[collapsed.vocab.index("y"), GENDERS.index(Gender.MASC)] == 2

    @given(st.lists(st.tuples(st.integers(1, 500), st.integers(1, 500)),
                    min_size=2, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_expected_pmi_is_nonnegative_per_gender(self, rows):
        # sum_v p(v,g) PMI(v,g) is KL(p(v|g) || p(v)) >= 0
        counts = {}
        for i, (cm, cf) in enumerate(rows):
            counts[(f"w{i}", Gender.MASC)] = cm
            counts[(f"w{i}", Gender.FEM)] = cf
        t = gtable(counts)
        values = pmi_table(t)
        total = t.total
        for g in (Gender.MASC, Gender.FEM):
            expected = sum((counts[(w, g)] / total) * values[(w, g)]
                           for w in {w for w, _ in counts})
            assert expected >= -1e-12


class TestRestrictedTrain:
    def test_saturated_fit(self):
        rng = np.random.default_rng(1)
        counts = {}
        for i in range(20):
            counts[(f"w{i:02d}", Gender.MASC)] = int(rng.integers(1, 400))
            counts[(f"w{i:02d}", Gender.FEM)] = int(rng.integers(1, 400))
        t = gtable(counts)
        result = restricted_train(t, saturation_tol=1e-7)
        assert saturation(t.matrix, result.eta) <= 1e-7

    def test_zero_cells_saturate(self):
        # 20 of 400 cells are zero: a neighbor seen with one gender only.  The
        # fit drives those cells' p(v|g) toward 0, so eta there heads to -inf.
        rng = np.random.default_rng(1)
        counts = rng.integers(1, 200, size=(200, 2))
        rows = rng.choice(200, size=20, replace=False)
        counts[rows, rows % 2] = 0
        t = GenderCollapsedTable(matrix=counts, vocab=tuple(f"w{i:03d}" for i in range(200)))
        result = restricted_train(t, saturation_tol=1e-8)
        assert saturation(counts, result.eta) <= 1e-8

    def test_iteration_cap_is_a_numerical_failure(self):
        with pytest.raises(NumericalError, match="in 3 iterations .stop: max_iterations"):
            restricted_train(gtable(SYMMETRIC), max_iterations=3, saturation_tol=1e-12)

    def test_single_gender_rejected(self):
        t = gtable({("a", Gender.MASC): 5, ("b", Gender.MASC): 3})
        with pytest.raises(DataError, match="both genders required"):
            restricted_train(t)

    def test_neighbor_without_counts_rejected(self):
        t = gtable({("a", Gender.MASC): 5, ("a", Gender.FEM): 3, ("b", Gender.MASC): 0,
                    ("b", Gender.FEM): 0})
        with pytest.raises(DataError, match="positive count"):
            restricted_train(t)


class TestProp1:
    def test_two_by_two_hand_values(self):
        report = prop1_check(gtable(SYMMETRIC), saturation_tol=1e-10)
        # normalized tau_M = (0.75, 0.25) = normalized exp(PMI) = (1.5, 0.5)/2
        counts = gtable(SYMMETRIC).count_matrix()
        eta = report.restricted.eta
        tau_m = np.exp(eta[:, 0]) / np.exp(eta[:, 0]).sum()
        assert tau_m == pytest.approx([0.75, 0.25], abs=1e-6)
        assert report.max_deviation[Gender.MASC] <= 1e-6
        assert report.rank_correlation[Gender.MASC] == 1.0
        assert report.rank_correlation[Gender.FEM] == 1.0

    def test_random_fifty_neighbor_table(self):
        rng = np.random.default_rng(3)
        counts = {}
        for i in range(50):
            counts[(f"w{i:02d}", Gender.MASC)] = int(rng.integers(1, 1001))
            counts[(f"w{i:02d}", Gender.FEM)] = int(rng.integers(1, 1001))
        report = prop1_check(gtable(counts), saturation_tol=1e-9)
        for g in (Gender.MASC, Gender.FEM):
            assert report.max_deviation[g] <= 1e-3
            assert report.rank_correlation[g] == 1.0
