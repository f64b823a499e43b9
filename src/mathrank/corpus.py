"""On-disk corpus format: line-delimited JSON records, one entity per line.

Four files make up a corpus:

* papers:            {"paper_id", "msc_primary", "author_ids", "first_version_date"}
* theorems:          {"paper_id", "theorem_id"}
* theorem citations: {"src_paper", "src_theorem", "dst_paper", "dst_theorem"}
* paper citations:   {"src_paper", "dst_paper"}

Files are UTF-8 and lines end in LF (a CR before it is stripped); only
JSON whitespace (space, tab, CR, LF) may stand around a line's object.
Field names are fixed; unknown extra fields are ignored. Dates are ASCII
``YYYY-MM``. Malformed lines, including lines that are not valid UTF-8,
lines nested too deeply to parse and lines whose strings hold a lone
surrogate escape (which UTF-8 cannot encode), are skipped and reported
with their line numbers. Each file is read into columns (see
GraphRecords), with no record object per line, and each distinct id is
kept as one string.

Each file is read in blocks of whole lines (a fixed-size read completed to
the end of its last line). Each block is decoded once and cut by
``Pattern.split`` with one regular expression per table, which matches
only lines in their canonical form: the table's keys in order with
``json.dumps``' separators, strings free of quotes, backslashes, control
characters and undecodable bytes, a papers line's ``author_ids`` a list of
such strings and its date ASCII ``YYYY-MM``. ``json.loads`` would return
exactly the values the expression captures, and they go straight into the
columns. Every other line is left between the matches and parsed on its
own by ``json.loads``.
"""

from __future__ import annotations

import json
import re
from itertools import compress
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .records import (
    PAPER_ID_COLUMNS,
    TABLES,
    THEOREM_ID_COLUMNS,
    YEAR_MONTH_PATTERN,
    GraphRecords,
    YearMonth,
    _repeats,
    intern_codes,
)


class MalformedLine(NamedTuple):
    path: str
    line_number: int
    reason: str


# A JSON string that json.loads returns as written: no quote, no backslash
# escape, no control character, and none of the U+DC80-U+DCFF that the
# "surrogateescape" decoding gives the bytes of a line that is not UTF-8.
_PLAIN = r'[^"\\\x00-\x1f\udc80-\udcff]*'


def _authors(text: str) -> tuple[str, ...]:
    """The author ids of a canonical list's captured text, quotes included."""
    return tuple(text[1:-1].split('", "')) if text else ()


# The kinds of field: a string, a list of strings and an ASCII ``YYYY-MM``
# date. Per kind, the pattern of its canonical value, with one group per
# column it fills, and per column the conversion of the captured text (None:
# the text as is).
_KINDS = {
    "string": (f'"({_PLAIN})"', (None,)),
    "list": (rf'\[((?:"{_PLAIN}"(?:, "{_PLAIN}")*)?)\]', (_authors,)),
    "date": (f'"{YEAR_MONTH_PATTERN}"', (int, int)),
}


class _Table(NamedTuple):
    """How one corpus file is read: the columns it fills, its fields in file
    order as (JSON key, kind), the pattern of its canonical lines (compiled
    when first read) and per column the conversion of the captured text."""

    names: tuple[str, ...]
    fields: tuple[tuple[str, str], ...]
    pattern: str
    convert: tuple


def _table(names: tuple[str, ...], *fields: tuple[str, str]) -> _Table:
    """The table of ``fields`` in columns ``names``. Its pattern matches a
    canonical line with its LF (or the end of the text), as one group per
    column; ``split`` by it leaves every other line, whole, in the text
    between matches."""
    body = ", ".join(f'"{key}": {_KINDS[kind][0]}' for key, kind in fields)
    return _Table(names, fields, rf"(?m)^\{{{body}\}}\r?(?:\n|\Z)",
                  tuple(c for _, kind in fields for c in _KINDS[kind][1]))


_PAPERS = _table(TABLES[0], ("paper_id", "string"), ("msc_primary", "string"),
                 ("author_ids", "list"), ("first_version_date", "date"))
_THEOREMS = _table(TABLES[1], ("paper_id", "string"), ("theorem_id", "string"))
_THEOREM_CITATIONS = _table(TABLES[2], ("src_paper", "string"), ("src_theorem", "string"),
                            ("dst_paper", "string"), ("dst_theorem", "string"))
_PAPER_CITATIONS = _table(TABLES[3], ("src_paper", "string"), ("dst_paper", "string"))


def _field(obj: dict, key: str, kind: str) -> tuple:
    """The column values of a record's field ``key`` of ``kind``.

    A missing field raises KeyError, and a value not of its kind or holding
    a lone surrogate (a JSON escape such as ``\\ud800``, which UTF-8 cannot
    encode and so no output file can hold) ValueError.
    """
    value = obj[key]
    items = value if kind == "list" else [value]
    if not isinstance(items, list) or not all(isinstance(item, str) for item in items):
        raise ValueError(f"field {key!r} must be a "
                         f"{'list of strings' if kind == 'list' else 'string'}")
    try:
        "".join(items).encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"field {key!r} holds a lone surrogate") from None
    if kind == "date":
        return YearMonth.parse(value)
    return (tuple(items) if kind == "list" else value,)


def _read_line(raw: bytes, table: _Table, path: str | Path, lineno: int,
               errors: list[MalformedLine]) -> tuple | None:
    """The column values of the record on one line, or None for a blank line
    or for a malformed one, which is reported in ``errors``.

    Files are read as bytes and split at LF only, so that a CR, U+2028 or
    U+0085 inside a line does not split it. The line is decoded here, so
    that a line that is not UTF-8 is reported like any other malformed line.
    Only JSON whitespace (space, tab, CR, LF) may stand around the object.
    A list field is checked before the others, which are checked in file
    order: of a line's defects, the first so checked is reported.
    """
    try:
        line = raw.decode("utf-8").strip(" \t\r\n")
        if not line:
            return None
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ValueError("record must be a JSON object")
        values = {key: _field(obj, key, kind)
                  for key, kind in sorted(table.fields, key=lambda field: field[1] != "list")}
        return tuple(value for key, _ in table.fields for value in values[key])
    except RecursionError:
        reason = "JSON nested too deeply"
    except (ValueError, KeyError) as exc:
        reason = str(exc)
    errors.append(MalformedLine(str(path), lineno, reason))
    return None


_CHUNK_BYTES = 1 << 18
_NO_CODES = np.empty(0, dtype=np.int64)


def _blocks(fh) -> Iterator[bytes]:
    """The file's bytes in blocks of whole lines: ``_CHUNK_BYTES`` at a time
    and the rest of the line the read ends in, so that only the last block
    can end without an LF."""
    while block := fh.read(_CHUNK_BYTES):
        yield block if block.endswith(b"\n") else block + fh.readline()


def _read_table(path: str | Path, table: _Table, errors: list[MalformedLine],
                vocabularies: dict[str, dict[str, int]]) -> dict[str, list | np.ndarray]:
    """A corpus file as ``table``'s columns.

    Each block of whole lines is split by the table's pattern: ``split``
    gives, per canonical line, the text before it and then its values. That
    text is empty between two canonical lines; otherwise it holds whole
    other lines, each read by ``_read_line``, in its place. A column named
    in ``vocabularies`` holds ids: each block's ids are interned into its
    vocabulary at once (see ``intern_codes``), and the column comes back as
    an array of their codes. So a block's strings die with the block, but
    for the first occurrence of each id, which the vocabulary keeps.
    """
    pattern, n = re.compile(table.pattern), len(table.names)
    columns = [[_NO_CODES] if name in vocabularies else [] for name in table.names]
    vocabs = [vocabularies.get(name) for name in table.names]
    first = 1
    with open(path, "rb") as fh:
        for block in _blocks(fh):
            parts = pattern.split(block.decode("utf-8", "surrogateescape"))
            between, groups = parts[::n + 1], [parts[i + 1::n + 1] for i in range(n)]
            # The block's values go to the columns, its ids to a list per column.
            targets = [column if vocab is None else [] for column, vocab in zip(columns, vocabs)]
            start = others = 0
            for stop in compress(range(len(between)), between):
                # The canonical lines up to the text between, then its lines.
                for target, values, convert in zip(targets, groups, table.convert):
                    values = values[start:stop]
                    target.extend(values if convert is None else map(convert, values))
                # Each line with its LF: a UTF-8 sequence cut short by the LF is
                # reported as the file's bytes give it.
                for line in re.findall(r"[^\n]*\n|[^\n]+", between[stop]):
                    row = _read_line(line.encode("utf-8", "surrogateescape"), table, path,
                                     first + stop + others, errors)
                    others += 1
                    if row is not None:
                        for target, value in zip(targets, row):
                            target.append(value)
                start = stop
            for target, values, convert in zip(targets, groups, table.convert):
                values = values[start:] if start else values
                target.extend(values if convert is None else map(convert, values))
            for column, ids, vocab in zip(columns, targets, vocabs):
                if vocab is not None:
                    column.append(intern_codes(vocab, ids))
            first += len(between) - 1 + others
    return {name: np.concatenate(column) if vocab is not None else column
            for name, column, vocab in zip(table.names, columns, vocabs)}


def parse_corpus(
    papers_path: str | Path,
    theorems_path: str | Path,
    theorem_citations_path: str | Path,
    paper_citations_path: str | Path,
) -> tuple[GraphRecords, list[MalformedLine]]:
    """Parse the four corpus files into columns.

    Returns the parsed records plus a list of malformed lines that were
    skipped. Unreadable files raise OSError.

    Ids are numbered as they are first read (see GraphRecords): file by
    file in the order of the arguments, within a file block by block, and
    within a block column by column, in line order. So the papers file's
    ids hold the codes below ``n_known_papers``.
    """
    errors: list[MalformedLine] = []
    paper_ids: dict[str, int] = {}
    theorem_ids: dict[str, int] = {}
    vocabularies = {**dict.fromkeys(PAPER_ID_COLUMNS, paper_ids),
                    **dict.fromkeys(THEOREM_ID_COLUMNS, theorem_ids)}
    columns = _read_table(papers_path, _PAPERS, errors, vocabularies)
    for path, table in ((theorems_path, _THEOREMS),
                        (theorem_citations_path, _THEOREM_CITATIONS),
                        (paper_citations_path, _PAPER_CITATIONS)):
        columns.update(_read_table(path, table, errors, vocabularies))
    return GraphRecords(paper_ids, theorem_ids, **columns), errors


def _renumber(ids: tuple[str, ...], columns: dict, names: tuple[str, ...]) -> tuple[str, ...]:
    """The ids whose codes the columns ``names`` of ``columns`` hold,
    numbered in order of first appearance column by column; those columns
    are replaced by their codes in this numbering."""
    codes = np.concatenate([columns[name] for name in names])
    old = codes[~_repeats(codes, len(ids))]
    new = np.empty(len(ids), dtype=np.int64)
    new[old] = np.arange(old.size)
    columns.update((name, new[columns[name]]) for name in names)
    return tuple(map(ids.__getitem__, old.tolist()))


def snapshot_filter(records: GraphRecords, year: int) -> GraphRecords:
    """Restrict the corpus to papers first versioned by December of ``year``.

    Theorems and citations are kept only when every paper (or theorem) they
    reference survives, so a snapshot never contains dangling edges.

    This is the reference definition of a yearly snapshot: ``field_series``
    does not call it, but ``build.restrict_graph`` of the whole corpus's
    graph to the same papers reproduces ``build_graph`` of its result. The
    result, of the records' own type, holds the kept rows of each column.
    Its ids are numbered afresh over the kept codes, in order of first
    appearance column by column in the order of ``PAPER_ID_COLUMNS`` and
    ``THEOREM_ID_COLUMNS``, so the papers table's ids come first. No id
    string is built.
    """
    # (year, month) <= (year, 12) as tuples
    keep_papers = (records.year < year) | ((records.year == year) & (records.month <= 12))
    kept_paper = np.zeros(len(records.paper_ids), dtype=bool)
    kept_paper[records.paper_id[keep_papers]] = True
    keep_theorems = kept_paper[records.theorem_paper]
    keys = records.theorem_keys
    kept_theorem = np.zeros(keys.count, dtype=bool)
    kept_theorem[keys.theorem[keep_theorems]] = True
    masks = (keep_papers, keep_theorems,
             kept_theorem[keys.tc_src] & kept_theorem[keys.tc_dst],
             kept_paper[records.pc_src] & kept_paper[records.pc_dst])
    columns = {name: column[keep] if isinstance(column, np.ndarray)
               else tuple(compress(column, keep.tolist()))
               for table, keep in zip(TABLES, masks)
               for name, column in zip(table, map(records.__getattribute__, table))}
    paper_ids = _renumber(records.paper_ids, columns, PAPER_ID_COLUMNS)
    theorem_ids = _renumber(records.theorem_ids, columns, THEOREM_ID_COLUMNS)
    return type(records)(paper_ids, theorem_ids, **columns)
