"""Column-compressed sparse weight matrices with a deterministic layout.

Entry (i, j) holds the weight of entity j citing entity i, so column j
collects the outgoing citations of entity j. Entries are stored
column-major, rows ascending within each column; absent entries are zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _sum_by(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """out[i] = sum of weights[k] with index[k] == i, added in storage order."""
    # bincount returns int64 when there are no entries, whatever the weights.
    return np.bincount(index, weights=weights, minlength=n).astype(np.float64, copy=False)


@dataclass(frozen=True)
class SparseWeightMatrix:
    shape: tuple[int, int]
    indptr: np.ndarray  # int64, one slot per column plus one
    rowidx: np.ndarray  # int64, ascending within each column
    values: np.ndarray  # float64, strictly positive

    @classmethod
    def from_arrays(
        cls, shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
    ) -> "SparseWeightMatrix":
        n_rows, n_cols = shape
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of bounds")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of bounds")
            if not np.all(vals > 0):
                raise ValueError("stored weights must be strictly positive")
        order = np.lexsort((rows, cols))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size > 1:
            same = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            if same.any():
                k = int(np.flatnonzero(same)[0])
                raise ValueError(f"duplicate entry at ({rows[k]}, {cols[k]})")
        counts = np.bincount(cols, minlength=n_cols) if cols.size else np.zeros(n_cols, dtype=np.int64)
        indptr = np.zeros(n_cols + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(shape, _frozen(indptr), _frozen(rows), _frozen(vals.copy()))

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def with_values(self, values: np.ndarray) -> "SparseWeightMatrix":
        """Same sparsity pattern, new values."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.values.shape:
            raise ValueError("value array does not match the sparsity pattern")
        return SparseWeightMatrix(self.shape, self.indptr, self.rowidx, _frozen(values.copy()))

    @cached_property
    def colidx(self) -> np.ndarray:
        """Column index of each stored entry, aligned with rowidx/values."""
        return _frozen(np.repeat(
            np.arange(self.shape[1], dtype=np.int64), np.diff(self.indptr)))

    @cached_property
    def column_normalized(self) -> "SparseWeightMatrix":
        """Every nonzero column divided by its sum; zero columns stay zero.

        Stored weights must be strictly positive, so every column holding an
        entry has a positive sum and normalizes to exactly unit mass.
        """
        if self.nnz == 0:
            return self
        if not np.all(self.values > 0):
            raise ValueError("stored weights must be strictly positive")
        per_entry = np.repeat(self.column_sums(), np.diff(self.indptr))
        return self.with_values(self.values / per_entry)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The product M @ x; each row sums its entries in ascending column order."""
        return _sum_by(self.rowidx, self.values * x[self.colidx], self.shape[0])

    def column_sums(self) -> np.ndarray:
        return _sum_by(self.colidx, self.values, self.shape[1])

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        dense[self.rowidx, self.colidx] = self.values
        return dense
