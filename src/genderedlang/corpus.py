"""Corpus ingestion: gendered-noun lexicon, arcs parsing, count aggregation.

Raw collocation data arrives either in the dependency-arcs export format
(``head_word<TAB>token-ngram<TAB>total_count<TAB>per-year...`` with tokens
``word/POS/deplabel/head-index``) or as canonical TSV
(``relation<TAB>noun_form<TAB>neighbor_lemma<TAB>count``).  Only amod, nsubj
and dobj arcs whose noun side is a known gendered, animate noun survive
ingestion; counts are aggregated across years into a count matrix per
relation.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import DataError, MalformedLineError


class Relation(str, Enum):
    AMOD = "amod"
    NSUBJ = "nsubj"
    DOBJ = "dobj"


class Gender(str, Enum):
    MASC = "masc"
    FEM = "fem"


class Number(str, Enum):
    SG = "sg"
    PL = "pl"


class LexiconEntry(NamedTuple):
    lemma: str
    gender: Gender
    number: Number


class Pair(NamedTuple):
    """One observed (noun form, neighbor) collocation with its count."""

    form: str
    neighbor: str
    relation: Relation
    count: int


@dataclass(frozen=True)
class GenderLexicon:
    """Surface noun form -> (genderless lemma, gender, number)."""

    entries: dict[str, LexiconEntry]

    def forms(self) -> tuple[str, ...]:
        return tuple(sorted(self.entries))


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line without its break) of each line of a UTF-8 text file.

    A leading byte-order mark is dropped.  Blank and whitespace-only lines,
    and ``#`` comments at column 0, are skipped.  Bytes that are not UTF-8 are
    a DataError naming the file but no line: decoding runs ahead of the lines,
    so a line number would be a guess.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line[0] != "#" and not line.isspace():  # a line read from a file is never ""
                    yield lineno, line.rstrip("\n")
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None


def read_rows(path: str | Path, columns: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each data line of a tab-separated file of `columns` columns."""
    for lineno, line in read_lines(path):
        fields = line.split("\t")
        if len(fields) != columns:
            raise DataError(f"{path}:{lineno}: expected {columns} tab-separated columns, "
                            f"got {len(fields)}")
        yield lineno, fields


def write_rows(path: str | Path, rows: Iterable[Iterable]) -> None:
    """Write each row as one tab-separated line: a float cell as its shortest
    round-trip repr, any other cell as str."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("\t".join(repr(float(v)) if isinstance(v, float) else str(v)
                               for v in row) + "\n")


def bundled_lexicon_path() -> Path:
    """Path of the packaged gendered, animate noun list (90 forms)."""
    return Path(str(resources.files("genderedlang").joinpath("data/gendered_nouns.tsv")))


def load_gender_lexicon(path: str | Path) -> GenderLexicon:
    """Load a ``lemma<TAB>form<TAB>gender<TAB>number`` lexicon file.

    Each form must appear exactly once; genders are masc/fem and numbers
    sg/pl.  The lemma set loaded here fixes the feature-space dimension for
    every downstream model.
    """
    entries: dict[str, LexiconEntry] = {}
    per_lemma: Counter[str] = Counter()
    for lineno, fields in read_rows(path, 4):
        lemma, form, gender, number = (f.strip().lower() for f in fields)
        try:
            g = Gender(gender)
        except ValueError:
            raise DataError(f"{path}:{lineno}: unknown gender token {gender!r} for form {form!r}") from None
        try:
            n = Number(number)
        except ValueError:
            raise DataError(f"{path}:{lineno}: unknown number token {number!r} for form {form!r}") from None
        if form in entries:
            raise DataError(f"{path}:{lineno}: duplicate form {form!r}")
        per_lemma[lemma] += 1
        if per_lemma[lemma] > 4:
            raise DataError(f"{path}:{lineno}: lemma {lemma!r} has more than 4 inflected forms")
        entries[form] = LexiconEntry(lemma, g, n)
    if not entries:
        raise DataError(f"{path}: empty lexicon")
    return GenderLexicon(entries=entries)


# ---------------------------------------------------------------------------
# Arcs-format adapter


@dataclass
class IngestStats:
    lines: int = 0
    malformed: int = 0
    unknown_forms: int = 0


_ACCEPTED_LABELS = {r.value: r for r in Relation}


def _parse_token(token: str) -> tuple[str, str, str, int]:
    parts = token.rsplit("/", 3)
    if len(parts) != 4:
        raise MalformedLineError(f"token {token!r} does not split into word/POS/deplabel/head-index")
    word, pos, dep, head = parts
    try:
        head_idx = int(head)
    except ValueError:
        raise MalformedLineError(f"token {token!r} has non-integer head index") from None
    return word, pos, dep, head_idx


def parse_arcs_line(line: str) -> list[Pair]:
    """Extract (noun form, neighbor) pairs from one arcs line, without its break.

    amod arcs attach the labeled modifier to its head noun; nsubj/dobj arcs
    attach the labeled noun to its head verb.  Arcs with other labels are
    dropped silently; nouns are not checked against any lexicon.
    Structural problems raise MalformedLineError so bulk readers can skip
    the line and keep a counter.
    """
    fields = line.split("\t")
    if len(fields) < 3:
        raise MalformedLineError("fewer than 3 tab-separated fields")
    try:
        total = int(fields[2])
    except ValueError:
        raise MalformedLineError(f"non-integer total count {fields[2]!r}") from None
    if total < 0:
        raise MalformedLineError(f"negative count {total}")
    tokens = [_parse_token(t) for t in fields[1].split()]
    out: list[Pair] = []
    for word, _pos, dep, head_idx in tokens:
        relation = _ACCEPTED_LABELS.get(dep.lower())
        if relation is None:
            continue
        if not 1 <= head_idx <= len(tokens):
            raise MalformedLineError(f"head index {head_idx} outside ngram of {len(tokens)} tokens")
        head_word = tokens[head_idx - 1][0]
        if relation is Relation.AMOD:
            form, neighbor = head_word, word
        else:
            form, neighbor = word, head_word
        out.append(Pair(form.lower(), neighbor.lower(), relation, total))
    return out


def iter_arcs(path: str | Path, lex: GenderLexicon, stats: IngestStats | None = None) -> Iterator[Pair]:
    """Stream pairs from an arcs file, skipping malformed lines and unknown nouns."""
    if stats is None:
        stats = IngestStats()
    entries = lex.entries
    for _, line in read_lines(path):
        stats.lines += 1
        try:
            pairs = parse_arcs_line(line)
        except MalformedLineError:
            stats.malformed += 1
            continue
        for pair in pairs:
            if pair.form in entries:
                yield pair
            else:
                stats.unknown_forms += 1


def iter_canonical(path: str | Path, lex: GenderLexicon, stats: IngestStats | None = None) -> Iterator[Pair]:
    """Stream pairs from canonical ``relation form neighbor count`` TSV."""
    if stats is None:
        stats = IngestStats()
    entries = lex.entries
    for _, line in read_lines(path):
        stats.lines += 1
        fields = line.split("\t")
        if len(fields) != 4:
            stats.malformed += 1
            continue
        rel_token, form, neighbor, count_token = fields
        try:
            count = int(count_token)
        except ValueError:
            stats.malformed += 1
            continue
        relation = _ACCEPTED_LABELS.get(rel_token.strip().lower())
        if relation is None or count < 0:
            stats.malformed += 1
            continue
        form = form.strip().lower()
        if form not in entries:
            stats.unknown_forms += 1
            continue
        yield Pair(form, neighbor.strip().lower(), relation, count)


# ---------------------------------------------------------------------------
# Count tables


@dataclass(frozen=True)
class CountTable:
    """Aggregated #(neighbor, noun form) counts for one dependency relation."""

    relation: Relation
    matrix: np.ndarray  # int64, (|V|, |G|): rows in sorted vocab order, columns in sorted form order
    vocab: tuple[str, ...]
    forms: tuple[str, ...]

    @property
    def total(self) -> int:
        return int(self.matrix.sum())

    def count_matrix(self) -> np.ndarray:
        """Counts, shape (|V|, |G|) in vocab x forms order."""
        return self.matrix

    def p_hat(self) -> np.ndarray:
        """Empirical joint probability of (neighbor, noun form)."""
        return self.matrix / self.total

    def entries(self) -> Iterator[tuple[str, str, int]]:
        """(neighbor, form, count) of every nonzero cell, in sorted (neighbor, form) order."""
        rows, cols = np.nonzero(self.matrix)
        return zip([self.vocab[i] for i in rows.tolist()], [self.forms[j] for j in cols.tolist()],
                   self.matrix[rows, cols].tolist())

    def fingerprint(self) -> str:
        """Order-independent sha256 of (relation, sorted count triples)."""
        h = hashlib.sha256()
        h.update(self.relation.value.encode())
        for neighbor, form, count in self.entries():
            h.update(f"\n{neighbor}\t{form}\t{count}".encode())
        return h.hexdigest()


def _build_table(relation: Relation, cells: dict[tuple[str, str], int]) -> CountTable:
    if sum(cells.values()) >= 2 ** 63:
        raise DataError(f"total count for relation {relation.value!r} exceeds the int64 range")
    values = np.array(list(cells.values()))
    if values.dtype.kind not in "iu":
        raise DataError(f"non-integer count for relation {relation.value!r}")
    vocab = tuple(sorted({neighbor for neighbor, _ in cells}))
    forms = tuple(sorted({form for _, form in cells}))
    v_idx = {v: i for i, v in enumerate(vocab)}
    f_idx = {f: j for j, f in enumerate(forms)}
    matrix = np.zeros((len(vocab), len(forms)), dtype=np.int64)
    matrix[[v_idx[n] for n, _ in cells], [f_idx[f] for _, f in cells]] = values
    return CountTable(relation=relation, matrix=matrix, vocab=vocab, forms=forms)


def _sum_cells(records: Iterable[Pair], lex: GenderLexicon,
               only: Relation | None = None) -> dict[Relation, dict[tuple[str, str], int]]:
    """Per relation, (neighbor, form) -> summed count of the records (of relation `only`, if given)."""
    entries = lex.entries
    cells: dict[Relation, dict[tuple[str, str], int]] = {rel: {} for rel in Relation}
    for form, neighbor, rel, count in records:
        if only is not None and rel is not only:
            continue
        if count <= 0:
            if count < 0:
                raise DataError(f"negative count {count} for noun form {form!r}")
            continue
        if form not in entries:
            raise DataError(f"noun form {form!r} not in gender lexicon")
        try:
            sums = cells[rel]
        except KeyError:
            raise DataError(f"unknown relation {rel!r}") from None
        key = (neighbor, form)
        sums[key] = sums.get(key, 0) + count
    return cells


def aggregate_by_relation(records: Iterable[Pair],
                          lex: GenderLexicon) -> dict[Relation, CountTable]:
    """Sum a record stream into one CountTable per relation, in a single pass.

    Result is independent of record order; zero-count records are ignored,
    a negative or non-integer count is a DataError, and a relation with no
    usable record is absent.  Tables come in Relation order.
    """
    return {rel: _build_table(rel, cells)
            for rel, cells in _sum_cells(records, lex).items() if cells}


def aggregate_counts(records: Iterable[Pair], relation: Relation, lex: GenderLexicon) -> CountTable:
    """Sum records for one relation into a CountTable.

    Result is independent of record order; zero-count records are ignored,
    and a negative or non-integer count is a DataError.  Raises DataError
    when no usable record survives.
    """
    cells = _sum_cells(records, lex, relation)[relation]
    if not cells:
        raise DataError(f"empty table: no usable records for relation {relation.value!r}")
    return _build_table(relation, cells)


def write_canonical(path: str | Path, table: CountTable) -> None:
    """Write a table as sorted canonical TSV (deterministic bytes)."""
    rel = table.relation.value
    Path(path).write_text("".join(f"{rel}\t{form}\t{neighbor}\t{count}\n"
                                  for neighbor, form, count in table.entries()), encoding="utf-8")


GENDERS = (Gender.MASC, Gender.FEM)  # order of every gender axis: features and collapsed counts


def gender_onehot(forms: Iterable[str], lex: GenderLexicon) -> np.ndarray:
    """(|forms|, 2) int64 indicator of each form's gender, columns in GENDERS order."""
    return np.array([[lex.entries[f].gender is g for g in GENDERS] for f in forms], dtype=np.int64)


def gender_marginals(table: CountTable, lex: GenderLexicon) -> dict[Gender, int]:
    """Total count per noun gender (reporting and PMI input)."""
    return dict(zip(GENDERS, (table.matrix.sum(axis=0) @ gender_onehot(table.forms, lex)).tolist()))
