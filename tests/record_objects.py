"""Corpus records as objects, one per corpus line, for tests written row by
row: the four record classes and ``ObjectRecords``, a GraphRecords that is
built from them, or from its columns with ids as strings, and views its
rows as them."""

from dataclasses import astuple, dataclass, fields
from functools import cached_property

import numpy as np

from mathrank.records import (
    PAPER_ID_COLUMNS,
    TABLES,
    THEOREM_ID_COLUMNS,
    GraphRecords,
    YearMonth,
    intern_codes,
)

_ID_COLUMNS = PAPER_ID_COLUMNS + THEOREM_ID_COLUMNS
_COLUMNS = frozenset(name for table in TABLES for name in table)


@dataclass(frozen=True)
class PaperRecord:
    paper_id: str
    msc_primary: str
    author_ids: frozenset[str]
    first_version_date: YearMonth


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


class ObjectRecords(GraphRecords):
    """GraphRecords with its columns by name, ids as strings, and its rows
    as record objects, built when first asked for. ``snapshot_filter`` of
    one returns one.

    An ObjectRecords equals any GraphRecords whose columns, ids as strings,
    are equal: equality compares ids, not their codes.
    """

    @classmethod
    def from_columns(cls, **columns) -> "ObjectRecords":
        """Records from their columns, passed by name, ids as strings (see
        GraphRecords). Ids are numbered column by column, in the order of
        ``PAPER_ID_COLUMNS`` and ``THEOREM_ID_COLUMNS``."""
        if set(columns) != _COLUMNS:
            raise TypeError(f"GraphRecords columns are {', '.join(sum(TABLES, ()))}")
        pids: dict[str, int] = {}
        tids: dict[str, int] = {}
        codes = {name: intern_codes(tids if name in THEOREM_ID_COLUMNS else pids,
                                    tuple(columns[name])) for name in _ID_COLUMNS}
        return cls(pids, tids, **codes,
                   **{name: columns[name] for name in TABLES[0][1:]})

    @classmethod
    def of(cls, papers=(), theorems=(), theorem_citations=(),
           paper_citations=()) -> "ObjectRecords":
        """The records of these objects, in the order given; each paper's
        author ids are sorted."""
        tables = [[(p.paper_id, p.msc_primary, tuple(sorted(p.author_ids)),
                    *p.first_version_date) for p in papers],
                  *([astuple(r) for r in rows]
                    for rows in (theorems, theorem_citations, paper_citations))]
        return cls.from_columns(**{name: [row[k] for row in rows]
                                   for names, rows in zip(TABLES, tables)
                                   for k, name in enumerate(names)})

    @classmethod
    def wrap(cls, records: GraphRecords) -> "ObjectRecords":
        """The same records, sharing their codes: no id is interned again.
        Records of this class are returned as they are, with what they
        have cached."""
        if isinstance(records, cls):
            return records
        return cls(**{f.name: getattr(records, f.name) for f in fields(GraphRecords)})

    def column(self, name: str):
        """Column ``name`` in the form ``from_columns`` takes it: an id
        column as a tuple of its ids, built when first asked for, and any
        other column as held."""
        if name not in _COLUMNS:
            raise KeyError(name)
        if name not in _ID_COLUMNS:
            return getattr(self, name)
        if name not in self._id_strings:
            ids = self.paper_ids if name in PAPER_ID_COLUMNS else self.theorem_ids
            self._id_strings[name] = tuple(map(ids.__getitem__, getattr(self, name).tolist()))
        return self._id_strings[name]

    @cached_property
    def _id_strings(self) -> dict[str, tuple[str, ...]]:
        """The id columns built so far, by name."""
        return {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphRecords):
            return NotImplemented
        other = ObjectRecords.wrap(other)
        return all(np.array_equal(self.column(name), other.column(name))
                   if name in ("year", "month") else self.column(name) == other.column(name)
                   for table in TABLES for name in table)

    @cached_property
    def papers(self) -> tuple[PaperRecord, ...]:
        return tuple(
            PaperRecord(pid, msc, frozenset(authors), YearMonth(y, m))
            for pid, msc, authors, y, m in zip(
                self.column("paper_id"), self.msc_primary, self.author_ids,
                self.year.tolist(), self.month.tolist()))

    @cached_property
    def theorems(self) -> tuple[TheoremRecord, ...]:
        return tuple(map(TheoremRecord, *map(self.column, TABLES[1])))

    @cached_property
    def theorem_citations(self) -> tuple[TheoremCitation, ...]:
        return tuple(map(TheoremCitation, *map(self.column, TABLES[2])))

    @cached_property
    def paper_citations(self) -> tuple[PaperCitation, ...]:
        return tuple(map(PaperCitation, *map(self.column, TABLES[3])))
