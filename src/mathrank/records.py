"""Raw corpus records, held as columns, and pre-assembly validation."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import count, repeat
from typing import NamedTuple, Sequence

import numpy as np

from .fields import field_index

# ASCII digits only, the whole string: ``\d`` would also take other scripts'
# digits, and ``$`` a trailing newline. The corpus reader matches dates with
# the same fragment.
YEAR_MONTH_PATTERN = r"([0-9]{4})-([0-9]{2})"
_YEAR_MONTH_RE = re.compile(YEAR_MONTH_PATTERN)


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


def intern_codes(vocab: dict[str, int], strings: Sequence[str]) -> np.ndarray:
    """The code of each string in ``vocab``; unseen strings are numbered on,
    in order of first appearance.

    Each string is looked up in ``vocab`` once, and only the misses are then
    numbered, in a dict of their own.
    """
    codes = np.fromiter(map(vocab.get, strings, repeat(-1)), dtype=np.int64,
                        count=len(strings))
    miss = np.flatnonzero(codes < 0)
    if not miss.size:
        return codes
    misses = list(map(strings.__getitem__, miss.tolist()))
    new = dict.fromkeys(misses)
    new.update(zip(new, count(len(vocab))))
    vocab.update(new)
    codes[miss] = np.fromiter(map(new.__getitem__, misses), dtype=np.int64, count=len(misses))
    return codes


# The id columns, by the vocabulary their codes index.
PAPER_ID_COLUMNS = ("paper_id", "theorem_paper", "tc_src_paper", "tc_dst_paper",
                    "pc_src", "pc_dst")
THEOREM_ID_COLUMNS = ("theorem_id", "tc_src_theorem", "tc_dst_theorem")
_ID_COLUMNS = PAPER_ID_COLUMNS + THEOREM_ID_COLUMNS


class TheoremKeys(NamedTuple):
    """Theorem keys, the (paper id, theorem id) pairs of the theorems table
    and of both ends of each theorem citation, numbered 0 to ``count - 1``."""

    count: int
    theorem: np.ndarray  # theorem records' keys
    tc_src: np.ndarray   # theorem citations' keys
    tc_dst: np.ndarray


# Each table's columns, in the order of its corpus file's fields.
TABLES = (
    ("paper_id", "msc_primary", "author_ids", "year", "month"),
    ("theorem_paper", "theorem_id"),
    ("tc_src_paper", "tc_src_theorem", "tc_dst_paper", "tc_dst_theorem"),
    ("pc_src", "pc_dst"),
)


@dataclass(frozen=True, eq=False)
class GraphRecords:
    """Everything read from a corpus, before graph assembly.

    The records are held as columns, row order as given (file order, for a
    parsed corpus):

    * papers: ``paper_id``, ``msc_primary``, ``author_ids`` (a tuple of
      strings per paper) and the first version's ``year`` and ``month``;
    * theorems: ``theorem_paper`` and ``theorem_id``;
    * theorem citations: ``tc_src_paper``, ``tc_src_theorem``,
      ``tc_dst_paper`` and ``tc_dst_theorem``;
    * paper citations: ``pc_src`` (citing) and ``pc_dst`` (cited).

    Each id column is held as codes, a read-only int64 array that indexes
    ``paper_ids`` or ``theorem_ids``, which hold each distinct id once:
    equal codes mean equal ids. The papers table's ids are numbered first:
    its codes are exactly 0 to ``n_known_papers - 1``, and any higher paper
    code is an id that only theorems or citations name. ``year`` and
    ``month`` are read-only int64 arrays as well.

    The constructor takes the vocabularies and the code columns, as
    ``parse_corpus`` reads them. It raises ValueError if a vocabulary
    repeats an id, an id column holds a code outside its vocabulary, the
    papers table's codes skip one below their maximum, or a table's columns
    differ in length. A GraphRecords is immutable, so its validation report
    is computed once.
    """

    paper_ids: tuple[str, ...]    # by code
    theorem_ids: tuple[str, ...]  # by code

    paper_id: np.ndarray        # papers: paper code
    theorem_paper: np.ndarray   # theorems: paper code
    theorem_id: np.ndarray      #   and theorem id code
    tc_src_paper: np.ndarray    # theorem citations: paper and theorem id
    tc_src_theorem: np.ndarray  #   codes of the citing theorem
    tc_dst_paper: np.ndarray    #   and of the cited one
    tc_dst_theorem: np.ndarray
    pc_src: np.ndarray          # paper citations: paper codes
    pc_dst: np.ndarray

    msc_primary: tuple[str, ...]
    author_ids: tuple[tuple[str, ...], ...]
    year: np.ndarray
    month: np.ndarray

    def __post_init__(self) -> None:
        for name in ("paper_ids", "theorem_ids", "msc_primary", "author_ids"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in _ID_COLUMNS + ("year", "month"):
            # Code arrays are frozen as given; year and month are copied.
            as_array = np.array if name in ("year", "month") else np.asarray
            array = as_array(getattr(self, name), dtype=np.int64)
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        for table in TABLES:
            if len({len(getattr(self, name)) for name in table}) > 1:
                raise ValueError(f"columns {', '.join(table)} differ in length")
        for vocabulary in ("paper_ids", "theorem_ids"):
            ids = getattr(self, vocabulary)
            if len(set(ids)) < len(ids):
                raise ValueError(f"{vocabulary} repeats an id")
        for name in _ID_COLUMNS:
            codes = getattr(self, name)
            bound = len(self.paper_ids if name in PAPER_ID_COLUMNS else self.theorem_ids)
            if codes.size and not 0 <= codes.min() <= codes.max() < bound:
                raise ValueError(f"{name} holds a code outside [0, {bound})")
        known = np.zeros(self.n_known_papers, dtype=bool)
        known[self.paper_id] = True
        if not known.all():
            raise ValueError("paper_id codes skip a code below their maximum")

    @cached_property
    def n_known_papers(self) -> int:
        """The number of distinct papers in the papers table, whose codes
        are 0 to ``n_known_papers - 1``."""
        return int(self.paper_id.max(initial=-1)) + 1

    @property
    def sizes(self) -> tuple[int, int, int, int]:
        """The number of papers, theorems, theorem citations and paper citations."""
        return self.paper_id.size, self.theorem_id.size, self.tc_src_paper.size, self.pc_src.size

    @cached_property
    def theorem_keys(self) -> TheoremKeys:
        """The theorem keys of the theorems and both ends of each theorem
        citation (see TheoremKeys)."""
        radix = max(len(self.theorem_ids), 1)
        pairs = np.concatenate([self.theorem_paper * radix + self.theorem_id,
                                self.tc_src_paper * radix + self.tc_src_theorem,
                                self.tc_dst_paper * radix + self.tc_dst_theorem])
        # Numbered in ascending order by a sort, a neighbour compare and a
        # running count: on numpy 2.4.6, 6.54 ms where numpy's unique took
        # 7.15 ms on a 5k corpus. Equal pairs get one number whatever their
        # order, so the sort need not be stable.
        order = pairs.argsort()
        ascending = pairs[order]
        new = np.ones(pairs.size, dtype=bool)
        np.not_equal(ascending[1:], ascending[:-1], out=new[1:])
        key = np.empty_like(order)
        key[order] = np.cumsum(new) - 1
        key.setflags(write=False)
        theorem, tc_src, tc_dst = np.split(
            key, np.cumsum([self.theorem_id.size, self.tc_src_theorem.size]))
        return TheoremKeys(int(np.count_nonzero(new)), theorem, tc_src, tc_dst)

    @cached_property
    def canonical_field(self) -> np.ndarray:
        """Each paper's canonical field index (``fields.field_index`` of its
        subject code, -1 where the code is malformed), read-only int64.
        Each distinct code is classified once."""
        index_of = {code: field_index(code) for code in set(self.msc_primary)}
        field = np.fromiter(map(index_of.__getitem__, self.msc_primary), dtype=np.int64,
                            count=len(self.msc_primary))
        field.setflags(write=False)
        return field

    def __repr__(self) -> str:
        return ("GraphRecords({} papers, {} theorems, {} theorem citations, "
                "{} paper citations)".format(*self.sizes))

    @cached_property
    def _report(self) -> "ValidationReport":
        return _find_issues(self)


# Issue kinds that only invalidate single citation edges; the builder drops
# those edges instead of refusing to assemble the graph.
EDGE_ISSUE_KINDS = frozenset(
    {"dangling_theorem_citation", "dangling_paper_citation", "self_citation"}
)


class ValidationIssue(NamedTuple):
    kind: str
    detail: str


class ValidationReport(NamedTuple):
    issues: tuple[ValidationIssue, ...]

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


def _repeats(keys: np.ndarray, bound: int) -> np.ndarray:
    """True where a key, a code below ``bound``, already occurred at an
    earlier position."""
    # Each key's first position, by a minimum rather than a fancy assignment:
    # numpy does not fix which of several writes to one index lands.
    position = np.arange(keys.size)
    first = np.full(bound, keys.size)
    np.minimum.at(first, keys, position)
    return first[keys] != position


def _find_issues(records: GraphRecords) -> ValidationReport:
    """The checks behind validate_records, over whole columns.

    Each table's rows are flagged with array operations; only flagged rows
    are visited to word their issues, in row order and, within a row, in the
    order the checks are listed.
    """
    pids, tids = records.paper_ids, records.theorem_ids
    issues: list[ValidationIssue] = []

    def add(kind, detail):
        issues.append(ValidationIssue(kind, detail))

    def theorem(paper, theorem_id, i):
        return f"{pids[paper[i]]}:{tids[theorem_id[i]]}"

    msc = records.msc_primary
    dup_paper = _repeats(records.paper_id, len(pids))
    bad_code = records.canonical_field < 0
    year, month = records.year, records.month
    bad_date = ~((year >= 1) & (month >= 1) & (month <= 12))
    for i in np.flatnonzero(dup_paper | bad_code | bad_date).tolist():
        pid = pids[records.paper_id[i]]
        if dup_paper[i]:
            add("duplicate_paper", pid)
        if bad_code[i]:
            add("malformed_paper", f"{pid}: bad subject code {msc[i]!r}")
        if bad_date[i]:
            add("malformed_paper",
                f"{pid}: bad date {YearMonth(int(year[i]), int(month[i]))}")

    keys = records.theorem_keys
    dup_theorem = _repeats(keys.theorem, keys.count)
    unknown_paper = records.theorem_paper >= records.n_known_papers
    for i in np.flatnonzero(dup_theorem | unknown_paper).tolist():
        key = theorem(records.theorem_paper, records.theorem_id, i)
        if dup_theorem[i]:
            add("duplicate_theorem", key)
        if unknown_paper[i]:
            add("dangling_theorem", f"{key} references unknown paper")

    known = np.zeros(keys.count, dtype=bool)
    known[keys.theorem] = True
    self_tc = keys.tc_src == keys.tc_dst
    src_unknown, dst_unknown = ~known[keys.tc_src], ~known[keys.tc_dst]
    for i in np.flatnonzero(self_tc | src_unknown | dst_unknown).tolist():
        src = theorem(records.tc_src_paper, records.tc_src_theorem, i)
        if self_tc[i]:
            add("self_citation", f"theorem {src} cites itself")
            continue
        if src_unknown[i]:
            add("dangling_theorem_citation", f"src theorem {src} unknown")
        if dst_unknown[i]:
            dst = theorem(records.tc_dst_paper, records.tc_dst_theorem, i)
            add("dangling_theorem_citation", f"dst theorem {dst} unknown")

    self_pc = records.pc_src == records.pc_dst
    src_unknown = records.pc_src >= records.n_known_papers
    dst_unknown = records.pc_dst >= records.n_known_papers
    for i in np.flatnonzero(self_pc | src_unknown | dst_unknown).tolist():
        if self_pc[i]:
            add("self_citation", f"paper {pids[records.pc_src[i]]} cites itself")
            continue
        if src_unknown[i]:
            add("dangling_paper_citation", f"src paper {pids[records.pc_src[i]]} unknown")
        if dst_unknown[i]:
            add("dangling_paper_citation", f"dst paper {pids[records.pc_dst[i]]} unknown")

    return ValidationReport(tuple(issues))
