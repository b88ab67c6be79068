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
import itertools
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

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


# Lines of an input file parsed as one block, which bounds the text and cells held at once.
_BLOCK_LINES = 1 << 14


@contextmanager
def _text(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text file, open for reading, whose leading byte-order mark is dropped.

    Bytes that are not UTF-8 are a DataError naming the file but no line:
    decoding runs ahead of the lines, so a line number would be a guess.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None


def _is_data(lines: list[str]) -> np.ndarray:
    """Whether each line is data: neither blank or whitespace-only nor a ``#``
    comment at column 0."""
    n = len(lines)
    blank = np.fromiter(map(str.isspace, lines), dtype=bool, count=n)
    if "#" not in "".join(lines):  # one scan of the block spares the per-line test
        return ~blank
    return ~(blank | np.fromiter(map(str.startswith, lines, itertools.repeat("#")), dtype=bool,
                                 count=n))


def _blocks(path: str | Path) -> Iterator[tuple[int, list[str], list[str], list[str]]]:
    """Per block of `_BLOCK_LINES` lines of a UTF-8 text file (see `_text`): the
    number of data lines (see `_is_data`), the data lines of 4 tab-separated
    fields, the other data lines, and the cells of the 4-field rows, 4 per row."""
    with _text(path) as fh:
        while lines := list(itertools.islice(fh, _BLOCK_LINES)):
            data = _is_data(lines)
            four = data & (np.fromiter(map(str.count, lines, itertools.repeat("\t")),
                                       dtype=np.intp, count=len(lines)) == 3)
            rows = list(itertools.compress(lines, four.tolist()))
            others = list(itertools.compress(lines, (data & ~four).tolist()))
            # each row ends in its break but perhaps the file's last, so it gives 4 cells
            yield (int(np.count_nonzero(data)), rows, others,
                   "".join(rows).replace("\n", "\t").split("\t"))


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line without its break) of each data line (see `_is_data`)
    of a UTF-8 text file (see `_text`)."""
    with _text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            # `_is_data`'s rule per line (a line read from a file is never "")
            if line[0] != "#" and not line.isspace():
                yield lineno, line.rstrip("\n")


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
    return Path(__file__).with_name("data") / "gendered_nouns.tsv"


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
    Structural problems, and an accepted arc with an empty neighbor word,
    raise MalformedLineError so bulk readers can skip the line and keep a
    counter.
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
        if not neighbor:
            raise MalformedLineError(f"{relation.value} arc with an empty neighbor word")
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


class _Column:
    """The distinct raw tokens of one column, numbered in first-seen order,
    each normalized once; a token normalized to None is unusable."""

    def __init__(self, normalize: Callable[[str], object]):
        self.normalize = normalize
        self.codes: dict[str, int] = {}
        self.values: list = []

    def encode(self, tokens: list[str]) -> np.ndarray:
        """The code of each token, numbering the new ones."""
        codes, values = self.codes, self.values
        new = [token for token in dict.fromkeys(tokens) if token not in codes]
        codes.update(zip(new, range(len(values), len(values) + len(new))))
        values.extend(map(self.normalize, new))
        return np.fromiter(map(codes.__getitem__, tokens), dtype=np.intp, count=len(tokens))

    def usable(self) -> np.ndarray:
        """Per code: whether its token normalized to a value."""
        return np.array([value is not None for value in self.values], dtype=bool)

    def decode(self, codes: np.ndarray) -> Iterator:
        return map(self.values.__getitem__, codes.tolist())


def _count(token: str) -> int | None:
    try:
        count = int(token)
    except ValueError:
        return None
    return count if count >= 0 else None


def _canonical_columns(lex: GenderLexicon) -> tuple[_Column, _Column, _Column, _Column]:
    """Empty relation, form, neighbor and count columns: a relation is one of
    Relation, a form is in `lex`, a neighbor is not empty, a count is a
    non-negative int."""
    entries = lex.entries

    def form(token: str) -> str | None:
        token = token.strip().lower()
        return token if token in entries else None

    return (_Column(lambda token: _ACCEPTED_LABELS.get(token.strip().lower())), _Column(form),
            _Column(lambda token: token.strip().lower() or None), _Column(_count))


def _canonical_blocks(path: str | Path, columns: tuple[_Column, ...],
                      stats: IngestStats) -> Iterator[tuple[np.ndarray, ...]]:
    """Per block of lines of canonical TSV: the relation, form, neighbor and
    count codes in `columns` of its usable records, in file order.

    Each block is split once into its cells; `stats` counts every data line,
    each line without 4 fields or with an unusable relation, neighbor or
    count as malformed, and each other line whose form is not in the lexicon.
    """
    for n_data, rows, _others, cells in _blocks(path):
        codes = [column.encode(cells[i:4 * len(rows):4]) for i, column in enumerate(columns)]
        relation, form, neighbor, count = codes
        well_formed = (columns[0].usable()[relation] & columns[2].usable()[neighbor]
                       & columns[3].usable()[count])
        known = well_formed & columns[1].usable()[form]
        n_well_formed = int(np.count_nonzero(well_formed))
        stats.lines += n_data
        stats.malformed += n_data - n_well_formed
        stats.unknown_forms += n_well_formed - int(np.count_nonzero(known))
        yield tuple(c[known] for c in codes)


# Kinds of a token of an n-gram split on single spaces (see `_arc_token`)
_TOKEN_OK, _TOKEN_MALFORMED, _TOKEN_IRREGULAR = 0, 1, 2
_RELATIONS = tuple(Relation)


def _arc_token(token: str) -> tuple[str, int, int, int]:
    """(word, kind, relation index in Relation order or -1, head index) of one
    token of an n-gram split on single spaces.  The token is irregular when it
    is empty or holds whitespace, where str.split would cut the n-gram
    elsewhere, and malformed when `_parse_token` rejects it; the head index
    is 0 when it is below 1 or too large to name any token."""
    if token.split() != [token]:
        return "", _TOKEN_IRREGULAR, -1, 0
    try:
        word, _pos, dep, head = _parse_token(token)
    except MalformedLineError:
        return "", _TOKEN_MALFORMED, -1, 0
    relation = _ACCEPTED_LABELS.get(dep.lower())
    return (word, _TOKEN_OK, -1 if relation is None else _RELATIONS.index(relation),
            head if 0 < head < 1 << 62 else 0)


def _arcs_blocks(path: str | Path, columns: tuple[_Column, ...],
                 stats: IngestStats) -> Iterator[tuple[np.ndarray, ...]]:
    """Per block of lines of an arcs file: the relation, form, neighbor and
    count codes in `columns` (see `_canonical_columns`) of the amod, nsubj and
    dobj arcs whose form is in the lexicon, on the lines `parse_arcs_line`
    accepts.

    A line of 4 fields whose n-gram splits on single spaces into non-empty,
    whitespace-free tokens is read from the block's cells: each distinct
    token is parsed once and each head is found by indexing.  Every other
    data line goes through `parse_arcs_line`.  `stats` counts every data
    line, each line `parse_arcs_line` rejects as malformed, and each arc of
    the other lines whose form is not in the lexicon.
    """
    rel_col, form_col, neighbor_col, count_col = columns
    relation_codes = rel_col.encode([relation.value for relation in Relation])
    tokens = _Column(_arc_token)
    # per token code: kind, relation index, head index, and the form and neighbor codes of its word
    table = np.empty((0, 5), dtype=np.intp)
    for n_data, rows, others, cells in _blocks(path):
        n = len(rows)
        ngrams, count = cells[1:4 * n:4], count_col.encode(cells[2:4 * n:4])
        length = np.fromiter(map(str.count, ngrams, itertools.repeat(" ")), dtype=np.intp,
                             count=n) + 1
        tok = tokens.encode(" ".join(ngrams).split(" ") if n else [])
        if len(tokens.values) > len(table):
            new = tokens.values[len(table):]
            words = [word for word, *_ in new]
            table = np.concatenate([table, np.column_stack([
                np.array([parsed for _, *parsed in new], dtype=np.intp),
                form_col.encode(words), neighbor_col.encode(words)])])
        kind, relation, head, form_of, neighbor_of = table[tok].T
        row = np.repeat(np.arange(n), length)
        irregular = np.bincount(row[kind == _TOKEN_IRREGULAR], minlength=n) > 0

        arc = np.flatnonzero(relation >= 0)  # tokens of an accepted label
        arc_row, arc_head = row[arc], head[arc]
        in_range = (arc_head > 0) & (arc_head <= length[arc_row])
        at = np.where(in_range, (np.cumsum(length) - length)[arc_row] + arc_head - 1, arc)
        amod = relation[arc] == _RELATIONS.index(Relation.AMOD)
        form = form_of[np.where(amod, at, arc)]
        neighbor = neighbor_of[np.where(amod, arc, at)]
        bad_arc = ~in_range | ~neighbor_col.usable()[neighbor]
        malformed = ~count_col.usable()[count] | (np.bincount(
            np.concatenate([row[kind == _TOKEN_MALFORMED], arc_row[bad_arc]]), minlength=n) > 0)
        well_formed = (~irregular & ~malformed)[arc_row]
        known = well_formed & form_col.usable()[form]
        stats.lines += n_data
        stats.malformed += int(np.count_nonzero(~irregular & malformed))
        stats.unknown_forms += int(np.count_nonzero(well_formed) - np.count_nonzero(known))
        parts = [(relation_codes[relation[arc[known]]], form[known], neighbor[known],
                  count[arc_row[known]])]

        pairs: list[Pair] = []
        for line in itertools.chain(others, itertools.compress(rows, irregular.tolist())):
            try:
                pairs.extend(parse_arcs_line(line.rstrip("\n")))
            except MalformedLineError:
                stats.malformed += 1
        if pairs:
            forms, neighbors, relations, counts = map(list, zip(*pairs))
            form = form_col.encode(forms)
            known = form_col.usable()[form]
            stats.unknown_forms += len(pairs) - int(np.count_nonzero(known))
            parts.append((rel_col.encode([r.value for r in relations])[known], form[known],
                          neighbor_col.encode(neighbors)[known],
                          count_col.encode(list(map(str, counts)))[known]))
        yield tuple(map(np.concatenate, zip(*parts)))


def iter_canonical(path: str | Path, lex: GenderLexicon, stats: IngestStats | None = None) -> Iterator[Pair]:
    """Stream pairs from canonical ``relation form neighbor count`` TSV.

    Lines are parsed in blocks; `stats` is updated once per block, before
    its pairs are yielded.
    """
    if stats is None:
        stats = IngestStats()
    columns = _canonical_columns(lex)
    rel_col, form_col, neighbor_col, count_col = columns
    for relation, form, neighbor, count in _canonical_blocks(path, columns, stats):
        yield from map(Pair, form_col.decode(form), neighbor_col.decode(neighbor),
                       rel_col.decode(relation), count_col.decode(count))


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


def _build_table(relation: Relation, vocab: tuple[str, ...], rows, forms: tuple[str, ...], cols,
                 counts, total) -> CountTable:
    """The table of each record's count summed at (vocab[row], forms[col]); the
    sorted `vocab` and `forms` name every table row and column, and `total` is
    the exact sum of the counts."""
    if total >= 2 ** 63:
        raise DataError(f"total count for relation {relation.value!r} exceeds the int64 range")
    counts = np.asarray(counts)
    if counts.dtype.kind not in "iu":
        raise DataError(f"non-integer count for relation {relation.value!r}")
    matrix = np.zeros((len(vocab), len(forms)), dtype=np.int64)
    np.add.at(matrix, (rows, cols), counts.astype(np.int64, copy=False))
    return CountTable(relation=relation, matrix=matrix, vocab=vocab, forms=forms)


def aggregate_counts(records: Iterable[Pair], relation: Relation, lex: GenderLexicon) -> CountTable:
    """Sum records for one relation into a CountTable.

    Result is independent of record order; zero-count records are ignored,
    and a negative or non-integer count, a form missing from the lexicon and
    a relation that is not a Relation are each a DataError.  Raises DataError
    when no usable record survives.
    """
    entries = lex.entries
    cells: dict[tuple[str, str], int] = {}
    for form, neighbor, rel, count in records:
        if rel is not relation:
            if not isinstance(rel, Relation):
                raise DataError(f"unknown relation {rel!r}")
            continue
        if count <= 0:
            if count < 0:
                raise DataError(f"negative count {count} for noun form {form!r}")
            continue
        if form not in entries:
            raise DataError(f"noun form {form!r} not in gender lexicon")
        key = (neighbor, form)
        cells[key] = cells.get(key, 0) + count
    if not cells:
        raise DataError(f"empty table: no usable records for relation {relation.value!r}")
    vocab = tuple(sorted({neighbor for neighbor, _ in cells}))
    forms = tuple(sorted({form for _, form in cells}))
    v_idx = {v: i for i, v in enumerate(vocab)}
    f_idx = {f: j for j, f in enumerate(forms)}
    return _build_table(relation, vocab, [v_idx[n] for n, _ in cells], forms,
                        [f_idx[f] for _, f in cells], list(cells.values()), sum(cells.values()))


def load_tables(paths: Iterable[str | Path], lex: GenderLexicon, stats: IngestStats,
                arcs: bool = False,
                relations: Iterable[Relation] = _RELATIONS) -> dict[Relation, CountTable]:
    """The CountTable of each of `relations` with a usable record in canonical
    TSV files (arcs files, if `arcs`), in Relation order, summed from the code
    columns of the records: no Pair is built.

    Each table is ``aggregate_counts`` of the records `iter_canonical` (or
    `iter_arcs`) yields, and a relation whose records all count 0 is absent.
    `stats` counts the lines of every file as those readers do.
    """
    columns = _canonical_columns(lex)
    rel_col, form_col, neighbor_col, count_col = columns
    relations = set(relations)
    blocks = _arcs_blocks if arcs else _canonical_blocks
    picked = [(np.empty(0, dtype=np.intp),) * 4]
    for block in itertools.chain.from_iterable(blocks(path, columns, stats) for path in paths):
        ours = np.array([value in relations for value in rel_col.values], dtype=bool)[block[0]]
        picked.append(tuple(codes[ours] for codes in block))
    rel, form, neighbor, count = map(np.concatenate, zip(*picked))
    values = count_col.values
    # every count that fits, so each positive one reads positive; the totals are exact
    clipped = np.array([min(value or 0, 2 ** 63 - 1) for value in values], dtype=np.int64)
    keep = clipped[count] > 0
    tables: dict[Relation, CountTable] = {}
    for relation in (r for r in _RELATIONS if r in relations):
        ours = keep & np.array([value is relation for value in rel_col.values], dtype=bool)[rel]
        if not ours.any():
            continue
        uses = np.bincount(count[ours], minlength=len(values)).tolist()
        total = sum(value * n for value, n in zip(values, uses) if n)
        vocab, rows = _sorted_names(neighbor[ours], neighbor_col.values)
        forms, cols = _sorted_names(form[ours], form_col.values)
        tables[relation] = _build_table(relation, vocab, rows, forms, cols, clipped[count[ours]],
                                        total)
    return tables


def load_canonical_table(path: str | Path, relation: Relation, lex: GenderLexicon) -> CountTable:
    """``aggregate_counts(iter_canonical(path, lex), relation, lex)``: the one
    table of `load_tables`."""
    table = load_tables([path], lex, IngestStats(), relations=[relation]).get(relation)
    if table is None:
        raise DataError(f"empty table: no usable records for relation {relation.value!r}")
    return table


def _sorted_names(codes: np.ndarray, names: list) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted distinct strings ``names[c]`` of the `codes`, and the position
    of each code's string among them (distinct codes may name one string)."""
    used = np.bincount(codes, minlength=len(names)).astype(bool).tolist()
    order = tuple(sorted(set(itertools.compress(names, used))))
    position = dict(zip(order, range(len(order))))
    lookup = np.fromiter(map(position.get, names, itertools.repeat(0)), dtype=np.intp,
                         count=len(names))
    return order, lookup[codes]


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
