"""Raw corpus records, held as columns, and pre-assembly validation."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, NamedTuple

import numpy as np

from .fields import is_subject_code

# ASCII digits only, the whole string: ``\d`` would also take other scripts'
# digits, and ``$`` a trailing newline.
_YEAR_MONTH_RE = re.compile(r"([0-9]{4})-([0-9]{2})")


class YearMonth(NamedTuple):
    """Calendar year-month; compares chronologically as a tuple."""

    year: int
    month: int

    @classmethod
    def parse(cls, text: str) -> "YearMonth":
        m = _YEAR_MONTH_RE.fullmatch(text)
        if m is None:
            raise ValueError(f"expected YYYY-MM, got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"

    @property
    def is_valid(self) -> bool:
        return self.year >= 1 and 1 <= self.month <= 12


@dataclass(frozen=True)
class PaperRecord:
    paper_id: str
    msc_primary: str
    author_ids: frozenset[str]
    first_version_date: YearMonth

    def __post_init__(self) -> None:
        object.__setattr__(self, "author_ids", frozenset(self.author_ids))


@dataclass(frozen=True)
class TheoremRecord:
    paper_id: str
    theorem_id: str

    @property
    def key(self) -> tuple[str, str]:
        return (self.paper_id, self.theorem_id)


@dataclass(frozen=True)
class TheoremCitation:
    """The proof of (src_paper, src_theorem) cites (dst_paper, dst_theorem)."""

    src_paper: str
    src_theorem: str
    dst_paper: str
    dst_theorem: str

    @property
    def src_key(self) -> tuple[str, str]:
        return (self.src_paper, self.src_theorem)

    @property
    def dst_key(self) -> tuple[str, str]:
        return (self.dst_paper, self.dst_theorem)


@dataclass(frozen=True)
class PaperCitation:
    """Paper ``src`` cites paper ``dst``."""

    src: str
    dst: str


def intern_codes(vocab: dict[str, int], strings: tuple[str, ...]) -> np.ndarray:
    """The code of each string in ``vocab``; unseen strings are numbered on,
    in order of first appearance."""
    for s in dict.fromkeys(strings):
        if s not in vocab:
            vocab[s] = len(vocab)
    return np.fromiter(map(vocab.__getitem__, strings), dtype=np.int64, count=len(strings))


@dataclass(frozen=True)
class IdCodes:
    """The id columns of a corpus as integers, numbered once per corpus.

    Equal codes mean equal ids. Paper ids are numbered in order of first
    appearance, the papers table first, so the ``n_known_papers`` ids of the
    papers table hold the codes below ``n_known_papers``. Theorem ids are
    numbered in order of first appearance too. Theorem keys, the (paper id,
    theorem id) pairs of the theorems table and of both ends of each theorem
    citation, are numbered 0 to ``n_theorem_keys - 1``.
    """

    paper_ids: tuple[str, ...]    # by code
    theorem_ids: tuple[str, ...]  # by code
    n_known_papers: int
    n_theorem_keys: int

    paper: np.ndarray          # paper records: paper code
    theorem_paper: np.ndarray  # theorem records: paper code,
    theorem_id: np.ndarray     #   theorem id code
    theorem: np.ndarray        #   and theorem key code
    tc_src: np.ndarray         # theorem citations: theorem key codes
    tc_dst: np.ndarray
    pc_src: np.ndarray         # paper citations: paper codes
    pc_dst: np.ndarray

    @classmethod
    def of(cls, records: "GraphRecords") -> "IdCodes":
        pids: dict[str, int] = {}
        paper = intern_codes(pids, records.paper_id)
        n_known = len(pids)
        theorem_paper, src_paper, dst_paper, pc_src, pc_dst = (intern_codes(pids, col) for col in (
            records.theorem_paper, records.tc_src_paper, records.tc_dst_paper,
            records.pc_src, records.pc_dst))
        tids: dict[str, int] = {}
        theorem_id, src_id, dst_id = (intern_codes(tids, col) for col in (
            records.theorem_id, records.tc_src_theorem, records.tc_dst_theorem))
        radix = max(len(tids), 1)
        distinct, key = np.unique(np.concatenate([
            theorem_paper * radix + theorem_id, src_paper * radix + src_id,
            dst_paper * radix + dst_id]), return_inverse=True)
        theorem, tc_src, tc_dst = np.split(key, np.cumsum([theorem_id.size, src_id.size]))
        return cls(
            paper_ids=tuple(pids), theorem_ids=tuple(tids), n_known_papers=n_known,
            n_theorem_keys=distinct.size, paper=paper, theorem_paper=theorem_paper,
            theorem_id=theorem_id, theorem=theorem, tc_src=tc_src, tc_dst=tc_dst,
            pc_src=pc_src, pc_dst=pc_dst)

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


# Each table's columns, in the order of the record fields they hold.
_TABLES = (
    ("paper_id", "msc_primary", "author_ids", "year", "month"),
    ("theorem_paper", "theorem_id"),
    ("tc_src_paper", "tc_src_theorem", "tc_dst_paper", "tc_dst_theorem"),
    ("pc_src", "pc_dst"),
)
_COLUMNS = frozenset(name for table in _TABLES for name in table)
_ARRAY_COLUMNS = ("year", "month")


class GraphRecords:
    """Everything read from a corpus, before graph assembly.

    The records are held as columns, one tuple per record field and row
    order as given (file order, for a parsed corpus):

    * papers: ``paper_id``, ``msc_primary``, ``author_ids`` (a tuple of
      strings per paper) and the first version's ``year`` and ``month``
      (read-only int64 arrays);
    * theorems: ``theorem_paper`` and ``theorem_id``;
    * theorem citations: ``tc_src_paper``, ``tc_src_theorem``,
      ``tc_dst_paper`` and ``tc_dst_theorem``;
    * paper citations: ``pc_src`` (citing) and ``pc_dst`` (cited).

    ``GraphRecords(papers, theorems, theorem_citations, paper_citations)``
    takes record objects; ``from_columns`` takes columns. The record-object
    views ``papers``, ``theorems``, ``theorem_citations`` and
    ``paper_citations`` are built when first asked for. A GraphRecords is
    immutable, so its ``codes`` and its validation report are computed once.
    """

    def __init__(
        self,
        papers: Iterable[PaperRecord] = (),
        theorems: Iterable[TheoremRecord] = (),
        theorem_citations: Iterable[TheoremCitation] = (),
        paper_citations: Iterable[PaperCitation] = (),
    ) -> None:
        papers, theorems = tuple(papers), tuple(theorems)
        tcs, pcs = tuple(theorem_citations), tuple(paper_citations)
        self._set_columns(
            paper_id=[p.paper_id for p in papers],
            msc_primary=[p.msc_primary for p in papers],
            author_ids=[tuple(sorted(p.author_ids)) for p in papers],
            year=[p.first_version_date.year for p in papers],
            month=[p.first_version_date.month for p in papers],
            theorem_paper=[t.paper_id for t in theorems],
            theorem_id=[t.theorem_id for t in theorems],
            tc_src_paper=[c.src_paper for c in tcs],
            tc_src_theorem=[c.src_theorem for c in tcs],
            tc_dst_paper=[c.dst_paper for c in tcs],
            tc_dst_theorem=[c.dst_theorem for c in tcs],
            pc_src=[c.src for c in pcs],
            pc_dst=[c.dst for c in pcs],
        )

    @classmethod
    def from_columns(cls, **columns) -> "GraphRecords":
        """Records from their columns, passed by name (see the class docstring)."""
        records = cls.__new__(cls)
        records._set_columns(**columns)
        return records

    def _set_columns(self, **columns) -> None:
        if set(columns) != _COLUMNS:
            raise TypeError(f"GraphRecords columns are {', '.join(sum(_TABLES, ()))}")
        for name, values in columns.items():
            if name in _ARRAY_COLUMNS:
                values = np.array(values, dtype=np.int64)
                values.setflags(write=False)
            else:
                values = tuple(values)
            object.__setattr__(self, name, values)
        for table in _TABLES:
            if len({len(getattr(self, name)) for name in table}) > 1:
                raise ValueError(f"columns {', '.join(table)} differ in length")

    def __setattr__(self, name, value):
        raise AttributeError("GraphRecords is immutable")

    def select(self, papers, theorems, theorem_citations, paper_citations) -> "GraphRecords":
        """The records at the rows where each table's boolean mask is true."""
        columns = {}
        for table, mask in zip(_TABLES, (papers, theorems, theorem_citations, paper_citations)):
            mask = np.asarray(mask, dtype=bool)
            for name in table:
                column = getattr(self, name)
                columns[name] = (column[mask] if name in _ARRAY_COLUMNS
                                 else compress(column, mask.tolist()))
        return GraphRecords.from_columns(**columns)

    @property
    def is_empty(self) -> bool:
        return not (self.paper_id or self.theorem_id or self.tc_src_paper or self.pc_src)

    @cached_property
    def papers(self) -> tuple[PaperRecord, ...]:
        return tuple(
            PaperRecord(pid, msc, frozenset(authors), YearMonth(y, m))
            for pid, msc, authors, y, m in zip(
                self.paper_id, self.msc_primary, self.author_ids,
                self.year.tolist(), self.month.tolist()))

    @cached_property
    def theorems(self) -> tuple[TheoremRecord, ...]:
        return tuple(map(TheoremRecord, self.theorem_paper, self.theorem_id))

    @cached_property
    def theorem_citations(self) -> tuple[TheoremCitation, ...]:
        return tuple(map(TheoremCitation, self.tc_src_paper, self.tc_src_theorem,
                         self.tc_dst_paper, self.tc_dst_theorem))

    @cached_property
    def paper_citations(self) -> tuple[PaperCitation, ...]:
        return tuple(map(PaperCitation, self.pc_src, self.pc_dst))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphRecords):
            return NotImplemented
        return (self.papers == other.papers and self.theorems == other.theorems
                and self.theorem_citations == other.theorem_citations
                and self.paper_citations == other.paper_citations)

    def __repr__(self) -> str:
        return (f"GraphRecords({len(self.paper_id)} papers, {len(self.theorem_id)} theorems, "
                f"{len(self.tc_src_paper)} theorem citations, "
                f"{len(self.pc_src)} paper citations)")

    @cached_property
    def codes(self) -> IdCodes:
        """The id columns as integer codes (see IdCodes)."""
        return IdCodes.of(self)

    @cached_property
    def _report(self) -> "ValidationReport":
        return _find_issues(self)


# Issue kinds that only invalidate single citation edges; the builder drops
# those edges instead of refusing to assemble the graph.
EDGE_ISSUE_KINDS = frozenset(
    {"dangling_theorem_citation", "dangling_paper_citation", "self_citation"}
)


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "issues", tuple(self.issues))

    @property
    def is_clean(self) -> bool:
        return not self.issues

    @property
    def fatal_issues(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.kind not in EDGE_ISSUE_KINDS)

    @property
    def edge_issues(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.kind in EDGE_ISSUE_KINDS)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for issue in self.issues:
            out[issue.kind] = out.get(issue.kind, 0) + 1
        return out


def validate_records(records: GraphRecords) -> ValidationReport:
    """Check records for duplicates, malformed fields, and dangling references.

    Always returns a report; an empty corpus is clean. Graph assembly requires
    a report with no fatal issues (edge-level issues are dropped with a
    warning during the build). The checks run once per GraphRecords; later
    calls, such as the one inside ``build_graph``, return the same report.
    """
    return records._report


def _repeats(keys: np.ndarray) -> np.ndarray:
    """True where a key already occurred at an earlier position."""
    repeat = np.ones(keys.size, dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    return repeat


def _find_issues(records: GraphRecords) -> ValidationReport:
    """The checks behind validate_records, over whole columns.

    Each table's rows are flagged with array operations; only flagged rows
    are visited to word their issues, in row order and, within a row, in the
    order the checks are listed.
    """
    c = records.codes
    issues: list[ValidationIssue] = []

    def add(kind, detail):
        issues.append(ValidationIssue(kind, detail))

    pid, msc = records.paper_id, records.msc_primary
    dup_paper = _repeats(c.paper)
    code_vocab: dict[str, int] = {}
    msc_code = intern_codes(code_vocab, msc)
    bad_code = ~np.array([is_subject_code(k) for k in code_vocab], dtype=bool)[msc_code]
    year, month = records.year, records.month
    bad_date = ~((year >= 1) & (month >= 1) & (month <= 12))  # YearMonth.is_valid
    for i in np.flatnonzero(dup_paper | bad_code | bad_date).tolist():
        if dup_paper[i]:
            add("duplicate_paper", pid[i])
        if bad_code[i]:
            add("malformed_paper", f"{pid[i]}: bad subject code {msc[i]!r}")
        if bad_date[i]:
            add("malformed_paper",
                f"{pid[i]}: bad date {YearMonth(int(year[i]), int(month[i]))}")

    tp, tid = records.theorem_paper, records.theorem_id
    dup_theorem = _repeats(c.theorem)
    unknown_paper = c.theorem_paper >= c.n_known_papers
    for i in np.flatnonzero(dup_theorem | unknown_paper).tolist():
        if dup_theorem[i]:
            add("duplicate_theorem", f"{tp[i]}:{tid[i]}")
        if unknown_paper[i]:
            add("dangling_theorem", f"{tp[i]}:{tid[i]} references unknown paper")

    known = np.zeros(c.n_theorem_keys, dtype=bool)
    known[c.theorem] = True
    self_tc = c.tc_src == c.tc_dst
    src_unknown, dst_unknown = ~known[c.tc_src], ~known[c.tc_dst]
    for i in np.flatnonzero(self_tc | src_unknown | dst_unknown).tolist():
        src = f"{records.tc_src_paper[i]}:{records.tc_src_theorem[i]}"
        if self_tc[i]:
            add("self_citation", f"theorem {src} cites itself")
            continue
        if src_unknown[i]:
            add("dangling_theorem_citation", f"src theorem {src} unknown")
        if dst_unknown[i]:
            add("dangling_theorem_citation",
                f"dst theorem {records.tc_dst_paper[i]}:{records.tc_dst_theorem[i]} unknown")

    self_pc = c.pc_src == c.pc_dst
    src_unknown = c.pc_src >= c.n_known_papers
    dst_unknown = c.pc_dst >= c.n_known_papers
    for i in np.flatnonzero(self_pc | src_unknown | dst_unknown).tolist():
        if self_pc[i]:
            add("self_citation", f"paper {records.pc_src[i]} cites itself")
            continue
        if src_unknown[i]:
            add("dangling_paper_citation", f"src paper {records.pc_src[i]} unknown")
        if dst_unknown[i]:
            add("dangling_paper_citation", f"dst paper {records.pc_dst[i]} unknown")

    return ValidationReport(tuple(issues))
