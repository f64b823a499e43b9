"""Corpus records as objects, one per corpus line, for tests written row by
row: the four record classes and ``ObjectRecords``, a GraphRecords that is
built from them and views its rows as them."""

from dataclasses import astuple, dataclass, fields
from functools import cached_property

from mathrank.records import TABLES, GraphRecords, YearMonth


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
    """GraphRecords with its rows as record objects, built when first asked
    for. ``snapshot_filter`` of one returns one."""

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
        """The same records, sharing their codes: no id is interned again."""
        return cls(**{f.name: getattr(records, f.name) for f in fields(GraphRecords)})

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
