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
numbers. Each file is read into columns (see GraphRecords), one JSON parse
per line and no record object per line.
"""

from __future__ import annotations

import json
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


def _read_columns(path: str | Path, fields: Callable[[dict], tuple], names: tuple[str, ...],
                  errors: list[MalformedLine]) -> dict[str, tuple]:
    """One file's records as columns ``names``, from ``fields`` of each line."""
    rows = []
    # Lines are read as bytes and split at LF only, so that a line that is
    # not UTF-8 is reported like any other malformed line, and a CR, U+2028
    # or U+0085 inside a line does not split it.
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    rows.append(fields(_json_object(line)))
            except (ValueError, KeyError) as exc:
                errors.append(MalformedLine(str(path), lineno, str(exc)))
    return dict(zip(names, zip(*rows))) if rows else dict.fromkeys(names, ())


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
        **_read_columns(papers_path, _paper_fields,
                        ("paper_id", "msc_primary", "author_ids", "year", "month"), errors),
        **_read_columns(theorems_path, _string_fields("paper_id", "theorem_id"),
                        ("theorem_paper", "theorem_id"), errors),
        **_read_columns(theorem_citations_path, _string_fields(
                            "src_paper", "src_theorem", "dst_paper", "dst_theorem"),
                        ("tc_src_paper", "tc_src_theorem", "tc_dst_paper", "tc_dst_theorem"),
                        errors),
        **_read_columns(paper_citations_path, _string_fields("src_paper", "dst_paper"),
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
