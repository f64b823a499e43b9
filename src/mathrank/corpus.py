"""On-disk corpus format: line-delimited JSON records, one entity per line.

Four files make up a corpus:

* papers:            {"paper_id", "msc_primary", "author_ids", "first_version_date"}
* theorems:          {"paper_id", "theorem_id"}
* theorem citations: {"src_paper", "src_theorem", "dst_paper", "dst_theorem"}
* paper citations:   {"src_paper", "dst_paper"}

Files are UTF-8 and lines end in LF (a CR before it is stripped). Field
names are fixed; unknown extra fields are ignored. Malformed lines, including
lines that are not valid UTF-8, are skipped and reported with their line
numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from .records import (
    GraphRecords,
    PaperCitation,
    PaperRecord,
    TheoremCitation,
    TheoremRecord,
    YearMonth,
)


@dataclass(frozen=True)
class MalformedLine:
    path: str
    line_number: int
    reason: str


def _require_str(obj: dict, key: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise ValueError(f"field {key!r} must be a string")
    return value


def _parse_paper(obj: dict) -> PaperRecord:
    authors = obj["author_ids"]
    if not isinstance(authors, list) or not all(isinstance(a, str) for a in authors):
        raise ValueError("field 'author_ids' must be a list of strings")
    return PaperRecord(
        paper_id=_require_str(obj, "paper_id"),
        msc_primary=_require_str(obj, "msc_primary"),
        author_ids=frozenset(authors),
        first_version_date=YearMonth.parse(_require_str(obj, "first_version_date")),
    )


def _parse_theorem(obj: dict) -> TheoremRecord:
    return TheoremRecord(
        paper_id=_require_str(obj, "paper_id"),
        theorem_id=_require_str(obj, "theorem_id"),
    )


def _parse_theorem_citation(obj: dict) -> TheoremCitation:
    return TheoremCitation(
        src_paper=_require_str(obj, "src_paper"),
        src_theorem=_require_str(obj, "src_theorem"),
        dst_paper=_require_str(obj, "dst_paper"),
        dst_theorem=_require_str(obj, "dst_theorem"),
    )


def _parse_paper_citation(obj: dict) -> PaperCitation:
    return PaperCitation(
        src=_require_str(obj, "src_paper"),
        dst=_require_str(obj, "dst_paper"),
    )


def _parse_file(path: str | Path, parse_one: Callable[[dict], object],
                errors: list[MalformedLine]) -> list:
    out = []
    # Lines are read as bytes so that a line that is not UTF-8 is reported
    # like any other malformed line.
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("record must be a JSON object")
                out.append(parse_one(obj))
            except (ValueError, KeyError) as exc:
                errors.append(MalformedLine(str(path), lineno, str(exc)))
    return out


def parse_corpus(
    papers_path: str | Path,
    theorems_path: str | Path,
    theorem_citations_path: str | Path,
    paper_citations_path: str | Path,
) -> tuple[GraphRecords, list[MalformedLine]]:
    """Parse the four corpus files.

    Returns the parsed records plus a list of malformed lines that were
    skipped. Unreadable files raise OSError.
    """
    errors: list[MalformedLine] = []
    records = GraphRecords(
        papers=_parse_file(papers_path, _parse_paper, errors),
        theorems=_parse_file(theorems_path, _parse_theorem, errors),
        theorem_citations=_parse_file(theorem_citations_path, _parse_theorem_citation, errors),
        paper_citations=_parse_file(paper_citations_path, _parse_paper_citation, errors),
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
            "paper_id": p.paper_id,
            "msc_primary": p.msc_primary,
            "author_ids": sorted(p.author_ids),
            "first_version_date": str(p.first_version_date),
        }
        for p in records.papers
    ))
    _write_lines(theorems_path, (
        {"paper_id": t.paper_id, "theorem_id": t.theorem_id}
        for t in records.theorems
    ))
    _write_lines(theorem_citations_path, (
        {
            "src_paper": c.src_paper,
            "src_theorem": c.src_theorem,
            "dst_paper": c.dst_paper,
            "dst_theorem": c.dst_theorem,
        }
        for c in records.theorem_citations
    ))
    _write_lines(paper_citations_path, (
        {"src_paper": c.src, "dst_paper": c.dst}
        for c in records.paper_citations
    ))


def snapshot_filter(records: GraphRecords, year: int) -> GraphRecords:
    """Restrict the corpus to papers first versioned by December of ``year``.

    Theorems and citations are kept only when every paper (or theorem) they
    reference survives, so a snapshot never contains dangling edges.

    This is the reference definition of a yearly snapshot: ``field_series``
    does not call it, but ``build.restrict_graph`` of the whole corpus's
    graph to the same papers reproduces ``build_graph`` of its result.
    """
    cutoff = YearMonth(year, 12)
    papers = tuple(p for p in records.papers if p.first_version_date <= cutoff)
    paper_ids = {p.paper_id for p in papers}
    theorems = tuple(t for t in records.theorems if t.paper_id in paper_ids)
    theorem_keys = {t.key for t in theorems}
    theorem_citations = tuple(
        c for c in records.theorem_citations
        if c.src_key in theorem_keys and c.dst_key in theorem_keys
    )
    paper_citations = tuple(
        c for c in records.paper_citations
        if c.src in paper_ids and c.dst in paper_ids
    )
    return GraphRecords(papers, theorems, theorem_citations, paper_citations)
