import numpy as np
import pytest

from mathrank.records import (
    GraphRecords,
    PaperCitation,
    PaperRecord,
    TheoremCitation,
    TheoremRecord,
    YearMonth,
)


def entries(m):
    """(row, col, value) triples in storage order."""
    return list(zip(m.rowidx.tolist(), m.colidx.tolist(), m.values.tolist()))


def paper(pid, msc="53", authors=("a1",), date=(2000, 6)):
    return PaperRecord(pid, msc, frozenset(authors), YearMonth(*date))


def theorem(pid, tid):
    return TheoremRecord(pid, tid)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def tiny_records():
    """Two papers (same field), one citation, two theorems, one thm citation."""
    return GraphRecords(
        papers=[
            paper("p1", msc="53", authors=("a1", "a2"), date=(1995, 3)),
            paper("p2", msc="53", authors=("b1",), date=(1999, 11)),
        ],
        theorems=[theorem("p1", "thm 1"), theorem("p2", "thm 1")],
        theorem_citations=[TheoremCitation("p2", "thm 1", "p1", "thm 1")],
        paper_citations=[PaperCitation("p2", "p1")],
    )


@pytest.fixture
def singleton_records():
    """One paper, one theorem, no citations."""
    return GraphRecords(
        papers=[paper("p1", msc="60")],
        theorems=[theorem("p1", "thm 1")],
    )
