import numpy as np
import pytest

from mathrank.records import YearMonth
from mathrank.sparsemat import SparseWeightMatrix

from record_objects import (
    ObjectRecords,
    PaperCitation,
    PaperRecord,
    TheoremCitation,
    TheoremRecord,
)


def entries(m):
    """(row, col, value) triples in storage order."""
    return list(zip(m.rowidx.tolist(), m.colidx.tolist(), m.values.tolist()))


def stored(shape, rows=(), cols=(), vals=()):
    """The SparseWeightMatrix of entries given in any order, lexsorted into
    its stored form: column-major, rows ascending within a column."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    order = np.lexsort((rows, cols))
    return SparseWeightMatrix(tuple(shape), rows[order], cols[order],
                              np.asarray(vals, dtype=np.float64)[order])


def dense(m):
    """A SparseWeightMatrix as a dense array."""
    out = np.zeros(m.shape, dtype=np.float64)
    out[m.rowidx, m.colidx] = m.values
    return out


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
    return ObjectRecords.of(
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
    return ObjectRecords.of(
        papers=[paper("p1", msc="60")],
        theorems=[theorem("p1", "thm 1")],
    )
