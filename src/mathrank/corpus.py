"""On-disk corpus format: line-delimited JSON records, one entity per line.

Four files make up a corpus:

* papers:            {"paper_id", "msc_primary", "author_ids", "first_version_date"}
* theorems:          {"paper_id", "theorem_id"}
* theorem citations: {"src_paper", "src_theorem", "dst_paper", "dst_theorem"}
* paper citations:   {"src_paper", "dst_paper"}

Files are UTF-8 and lines end in LF (a CR before it is stripped). Field
names are fixed; unknown extra fields are ignored. Dates are ASCII
``YYYY-MM``. Malformed lines, including lines that are not valid UTF-8 and
lines nested too deeply to parse, are skipped and reported with their line
numbers. Each file is read into columns (see GraphRecords), with no record
object per line.

The three tables of string fields are read in chunks of whole lines, with
one regular expression per table. A line in their canonical form, the
table's keys in order with ``json.dumps``' separators and values free of
quotes, backslashes, control characters and undecodable bytes, goes
straight into the columns: ``json.loads`` would return exactly the strings
the expression captures. Every other line, and each line of the papers
file, is parsed on its own with the JSON scanner.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .records import GraphRecords, YearMonth


@dataclass(frozen=True)
class MalformedLine:
    path: str
    line_number: int
    reason: str


_scan = json.JSONDecoder().scan_once


def _json_object(line: str) -> dict:
    """The JSON object on one stripped, non-empty line.

    The line is parsed once, by the scanner json.loads uses. Only a line
    that fails is handed to json.loads itself, so that the reason reported
    is json.loads' own message.
    """
    try:
        obj, end = _scan(line, 0)
    except StopIteration:
        end = -1
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if end != len(line):
        obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    return obj


def _string_fields(*keys: str) -> Callable[[dict], tuple[str, ...]]:
    """A reader of a record's string fields ``keys``, in that order.

    A missing field raises KeyError and a value that is not a string
    ValueError, for the first offending field in key order.
    """
    get = itemgetter(*keys)

    def read(obj: dict) -> tuple[str, ...]:
        try:
            values = get(obj)
        except KeyError:
            pass
        else:
            for value in values:
                if not isinstance(value, str):
                    break
            else:
                return values
        # Some field is missing or not a string: name the first, in key order.
        for key in keys:
            if not isinstance(obj[key], str):
                raise ValueError(f"field {key!r} must be a string")

    return read


_paper_strings = _string_fields("paper_id", "msc_primary", "first_version_date")


def _paper_fields(obj: dict) -> tuple:
    authors = obj["author_ids"]
    if not isinstance(authors, list) or not all(isinstance(a, str) for a in authors):
        raise ValueError("field 'author_ids' must be a list of strings")
    paper_id, msc_primary, date = _paper_strings(obj)
    year, month = YearMonth.parse(date)
    return paper_id, msc_primary, tuple(authors), year, month


def _read_line(raw: bytes, fields: Callable[[dict], tuple], path: str | Path, lineno: int,
               errors: list[MalformedLine]) -> tuple | None:
    """``fields`` of the record on one line, or None for a blank line or for
    a malformed one, which is reported in ``errors``.

    Files are read as bytes and split at LF only, so that a CR, U+2028 or
    U+0085 inside a line does not split it. The line is decoded here, so
    that a line that is not UTF-8 is reported like any other malformed line.
    """
    try:
        line = raw.decode("utf-8").strip()
        if line:
            return fields(_json_object(line))
    except (ValueError, KeyError) as exc:
        errors.append(MalformedLine(str(path), lineno, str(exc)))
    return None


def _read_papers(path: str | Path, errors: list[MalformedLine]) -> dict[str, tuple]:
    """The papers file's records as columns, one line at a time."""
    with open(path, "rb") as fh:
        rows = [row for lineno, raw in enumerate(fh, start=1)
                if (row := _read_line(raw, _paper_fields, path, lineno, errors)) is not None]
    names = ("paper_id", "msc_primary", "author_ids", "year", "month")
    return dict(zip(names, zip(*rows))) if rows else dict.fromkeys(names, ())


# A JSON string that json.loads returns as written: no quote, no backslash
# escape, no control character, and none of the U+DC80-U+DCFF that the
# "surrogateescape" decoding gives the bytes of a line that is not UTF-8.
_PLAIN_STRING = r'"([^"\\\x00-\x1f\udc80-\udcff]*)"'


def _line_pattern(keys: tuple[str, ...]) -> re.Pattern:
    """Matches each line of a chunk once: a canonical line of a table of
    string fields ``keys`` as one group per value and "}", anything else as
    a last group holding the whole line."""
    body = ", ".join(f'"{key}": {_PLAIN_STRING}' for key in keys)
    return re.compile(rf"^(?:\{{{body}(\}})\r?|(.*))$", re.M)


_CHUNK_BYTES = 1 << 18


def _read_strings(path: str | Path, keys: tuple[str, ...], names: tuple[str, ...],
                  errors: list[MalformedLine]) -> dict[str, list]:
    """A file of records of string fields ``keys`` as columns ``names``.

    Each chunk of whole lines is matched by one pattern. Each run of
    canonical lines extends the columns at once, and each line between runs
    is read by ``_read_line``, in its place.
    """
    pattern, fields, closer = _line_pattern(keys), _string_fields(*keys), len(keys)
    columns = [[] for _ in keys]
    first = 1
    with open(path, "rb") as fh:
        while chunk := fh.readlines(_CHUNK_BYTES):
            # One match per line, and after a final LF an empty one, never read.
            matches = pattern.findall(b"".join(chunk).decode("utf-8", "surrogateescape"))
            groups = list(zip(*matches))
            closers, start = groups[closer], 0
            while start < len(chunk):
                # The canonical lines up to the next line that is not, then that line.
                try:
                    stop = closers.index("", start)
                except ValueError:
                    stop = len(chunk)
                for column, values in zip(columns, groups):
                    column.extend(values[start:stop])
                if stop < len(chunk):
                    row = _read_line(chunk[stop], fields, path, first + stop, errors)
                    if row is not None:
                        for column, value in zip(columns, row):
                            column.append(value)
                start = stop + 1
            first += len(chunk)
    return dict(zip(names, columns))


def parse_corpus(
    papers_path: str | Path,
    theorems_path: str | Path,
    theorem_citations_path: str | Path,
    paper_citations_path: str | Path,
) -> tuple[GraphRecords, list[MalformedLine]]:
    """Parse the four corpus files into columns.

    Returns the parsed records plus a list of malformed lines that were
    skipped. Unreadable files raise OSError.
    """
    errors: list[MalformedLine] = []
    records = GraphRecords.from_columns(
        **_read_papers(papers_path, errors),
        **_read_strings(theorems_path, ("paper_id", "theorem_id"),
                        ("theorem_paper", "theorem_id"), errors),
        **_read_strings(theorem_citations_path,
                        ("src_paper", "src_theorem", "dst_paper", "dst_theorem"),
                        ("tc_src_paper", "tc_src_theorem", "tc_dst_paper", "tc_dst_theorem"),
                        errors),
        **_read_strings(paper_citations_path, ("src_paper", "dst_paper"),
                        ("pc_src", "pc_dst"), errors),
    )
    return records, errors


def _write_lines(path: str | Path, objs: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, ensure_ascii=False))
            fh.write("\n")


def write_corpus(
    records: GraphRecords,
    papers_path: str | Path,
    theorems_path: str | Path,
    theorem_citations_path: str | Path,
    paper_citations_path: str | Path,
) -> None:
    """Write records back out in the line-delimited format (parse round-trips)."""
    _write_lines(papers_path, (
        {
            "paper_id": pid,
            "msc_primary": msc,
            "author_ids": sorted(set(authors)),
            "first_version_date": str(YearMonth(year, month)),
        }
        for pid, msc, authors, year, month in zip(
            records.paper_id, records.msc_primary, records.author_ids,
            records.year.tolist(), records.month.tolist())
    ))
    _write_lines(theorems_path, (
        {"paper_id": pid, "theorem_id": tid}
        for pid, tid in zip(records.theorem_paper, records.theorem_id)
    ))
    _write_lines(theorem_citations_path, (
        {"src_paper": sp, "src_theorem": st, "dst_paper": dp, "dst_theorem": dt}
        for sp, st, dp, dt in zip(records.tc_src_paper, records.tc_src_theorem,
                                  records.tc_dst_paper, records.tc_dst_theorem)
    ))
    _write_lines(paper_citations_path, (
        {"src_paper": src, "dst_paper": dst}
        for src, dst in zip(records.pc_src, records.pc_dst)
    ))


def snapshot_filter(records: GraphRecords, year: int) -> GraphRecords:
    """Restrict the corpus to papers first versioned by December of ``year``.

    Theorems and citations are kept only when every paper (or theorem) they
    reference survives, so a snapshot never contains dangling edges.

    This is the reference definition of a yearly snapshot: ``field_series``
    does not call it, but ``build.restrict_graph`` of the whole corpus's
    graph to the same papers reproduces ``build_graph`` of its result.
    """
    codes = records.codes
    # (year, month) <= (year, 12) as tuples
    keep_papers = (records.year < year) | ((records.year == year) & (records.month <= 12))
    kept_paper = np.zeros(len(codes.paper_ids), dtype=bool)
    kept_paper[codes.paper[keep_papers]] = True
    keep_theorems = kept_paper[codes.theorem_paper]
    kept_theorem = np.zeros(codes.n_theorem_keys, dtype=bool)
    kept_theorem[codes.theorem[keep_theorems]] = True
    return records.select(
        keep_papers, keep_theorems,
        kept_theorem[codes.tc_src] & kept_theorem[codes.tc_dst],
        kept_paper[codes.pc_src] & kept_paper[codes.pc_dst])
