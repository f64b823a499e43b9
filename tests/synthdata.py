"""Random corpus generation for tests and the benchmark scaffolding, and
``write_corpus``, which writes records out in the corpus format."""

from __future__ import annotations

import json

import numpy as np

from mathrank.records import TABLES, GraphRecords, YearMonth
from mathrank.solver import ScoreState

from record_objects import (
    ObjectRecords,
    PaperCitation,
    PaperRecord,
    TheoremCitation,
    TheoremRecord,
)

# A spread of subject codes hitting every field plus unlisted ones (Others).
CODE_POOL = [
    "06", "15", "20",        # Algebra
    "11", "14",              # AlgGeom
    "53", "58",              # DiffGeom
    "55", "57",              # Topology
    "42", "46",              # Analysis
    "35", "49",              # PDE
    "37",                    # DynSys
    "81", "82",              # Physics
    "60",                    # Probability
    "90",                    # Optimization
    "65",                    # NumericalAnalysis
    "62",                    # Statistics
    "00", "05", "99",        # Others
]


def _write_lines(path, objs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, ensure_ascii=False))
            fh.write("\n")


def write_corpus(records: GraphRecords, papers_path, theorems_path, theorem_citations_path,
                 paper_citations_path) -> None:
    """Write records out in the line-delimited format (``parse_corpus``
    round-trips)."""
    records = ObjectRecords.wrap(records)
    _write_lines(papers_path, (
        {
            "paper_id": pid,
            "msc_primary": msc,
            "author_ids": list(authors),
            "first_version_date": str(YearMonth(year, month)),
        }
        for pid, msc, authors, year, month in zip(
            records.column("paper_id"), records.msc_primary, records.author_ids,
            records.year.tolist(), records.month.tolist())
    ))
    _write_lines(theorems_path, (
        {"paper_id": pid, "theorem_id": tid}
        for pid, tid in zip(*map(records.column, TABLES[1]))
    ))
    _write_lines(theorem_citations_path, (
        {"src_paper": sp, "src_theorem": st, "dst_paper": dp, "dst_theorem": dt}
        for sp, st, dp, dt in zip(*map(records.column, TABLES[2]))
    ))
    _write_lines(paper_citations_path, (
        {"src_paper": src, "dst_paper": dst}
        for src, dst in zip(*map(records.column, TABLES[3]))
    ))


def make_random_records(
    rng: np.random.Generator,
    n_papers: int = 10,
    n_theorems: int = 30,
    n_paper_citations: int | None = None,
    n_theorem_citations: int | None = None,
    code_pool: list[str] | None = None,
    author_pool_size: int | None = None,
    year_range: tuple[int, int] = (1991, 2023),
) -> GraphRecords:
    """A random but internally consistent corpus (no dangling references).

    Small author pools force shared-author citations; intra-paper theorem
    citations are sampled explicitly so the same-paper weight tier appears.
    """
    codes = code_pool or CODE_POOL
    n_authors = author_pool_size or max(3, n_papers)
    authors = [f"a{i:03d}" for i in range(n_authors)]

    papers = []
    for i in range(n_papers):
        k = int(rng.integers(1, 4))
        papers.append(PaperRecord(
            paper_id=f"p{i:04d}",
            msc_primary=str(rng.choice(codes)),
            author_ids=frozenset(rng.choice(authors, size=k, replace=False)),
            first_version_date=YearMonth(
                int(rng.integers(year_range[0], year_range[1] + 1)),
                int(rng.integers(1, 13))),
        ))

    theorems = []
    owner = rng.integers(0, n_papers, size=n_theorems)
    per_paper_counter = [0] * n_papers
    for t in range(n_theorems):
        p = int(owner[t])
        per_paper_counter[p] += 1
        theorems.append(TheoremRecord(
            paper_id=papers[p].paper_id,
            theorem_id=f"lemma {per_paper_counter[p]}",
        ))

    if n_theorem_citations is None:
        n_theorem_citations = int(rng.integers(0, 2 * n_theorems + 1))
    theorem_citations = []
    if n_theorems >= 2:
        for _ in range(n_theorem_citations):
            i, j = rng.choice(n_theorems, size=2, replace=False)
            src, dst = theorems[int(i)], theorems[int(j)]
            theorem_citations.append(TheoremCitation(
                src.paper_id, src.theorem_id, dst.paper_id, dst.theorem_id))
        # Guarantee some intra-paper citations where a paper holds >= 2 theorems.
        by_paper: dict[str, list[TheoremRecord]] = {}
        for t in theorems:
            by_paper.setdefault(t.paper_id, []).append(t)
        for group in by_paper.values():
            if len(group) >= 2 and rng.random() < 0.8:
                theorem_citations.append(TheoremCitation(
                    group[0].paper_id, group[0].theorem_id,
                    group[1].paper_id, group[1].theorem_id))

    # At least one paper citation by default: a multi-field corpus with no
    # paper citations at all has a structurally zero field update under the
    # uniform start, which the solver treats as degenerate.
    if n_paper_citations is None:
        n_paper_citations = int(rng.integers(1, 3 * n_papers + 1))
    paper_citations = []
    if n_papers >= 2:
        for _ in range(n_paper_citations):
            i, j = rng.choice(n_papers, size=2, replace=False)
            paper_citations.append(PaperCitation(
                papers[int(i)].paper_id, papers[int(j)].paper_id))

    return ObjectRecords.of(papers, theorems, theorem_citations, paper_citations)


def planted_ties_state(rng: np.random.Generator, graph, n_values: int) -> ScoreState:
    """Scores drawn from ``n_values`` distinct values, so equal scores abound."""
    pool = rng.random(n_values)
    return ScoreState(*(rng.choice(pool, size=n) for n in
                        (graph.n_theorems, graph.n_papers, graph.n_fields)))


def shuffled(records: GraphRecords, rng: np.random.Generator) -> GraphRecords:
    """Same corpus, record lists in a different order."""
    def mix(seq):
        seq = list(seq)
        rng.shuffle(seq)
        return tuple(seq)

    return ObjectRecords.of(
        papers=mix(records.papers),
        theorems=mix(records.theorems),
        theorem_citations=mix(records.theorem_citations),
        paper_citations=mix(records.paper_citations),
    )


def with_late_field(records: GraphRecords, code: str, year: int) -> GraphRecords:
    """Add a paper in a new field, dated ``year``, that cites and is cited
    by the first paper and theorem of ``records`` at both levels."""
    late = PaperRecord("q_late", code, frozenset({"late author"}), YearMonth(year, 5))
    old_paper = records.papers[0].paper_id
    old = records.theorems[0]
    return ObjectRecords.of(
        papers=records.papers + (late,),
        theorems=records.theorems + (
            TheoremRecord("q_late", "thm 1"), TheoremRecord("q_late", "thm 2")),
        theorem_citations=records.theorem_citations + (
            TheoremCitation("q_late", "thm 1", old.paper_id, old.theorem_id),
            TheoremCitation(old.paper_id, old.theorem_id, "q_late", "thm 2"),
            TheoremCitation("q_late", "thm 2", "q_late", "thm 1")),
        paper_citations=records.paper_citations + (
            PaperCitation("q_late", old_paper), PaperCitation(old_paper, "q_late")))
