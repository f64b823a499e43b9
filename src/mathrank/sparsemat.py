"""Sparse weight matrices stored as coordinate arrays in a deterministic order.

Entry (i, j) holds the weight of entity j citing entity i, so column j
collects the outgoing citations of entity j. The stored entries are three
aligned arrays (row index, column index, value) in column-major order, rows
ascending within each column; absent entries are zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SparseWeightMatrix:
    shape: tuple[int, int]
    rowidx: np.ndarray  # int64, ascending within each column
    colidx: np.ndarray  # int64, ascending
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
        return cls(shape, _frozen(rows), _frozen(cols), _frozen(vals))

    @cached_property
    def column_normalized(self) -> "SparseWeightMatrix":
        """Every nonzero column divided by its sum; zero columns stay zero.

        Stored weights must be strictly positive, so every column holding an
        entry has a positive sum and normalizes to exactly unit mass. The
        result shares this matrix's index arrays.
        """
        if not np.all(self.values > 0):
            raise ValueError("stored weights must be strictly positive")
        values = self.values / self.column_sums()[self.colidx]
        return SparseWeightMatrix(self.shape, self.rowidx, self.colidx, _frozen(values))

    def principal_submatrix(self, keep: np.ndarray) -> "SparseWeightMatrix":
        """The rows and columns of a square matrix where ``keep`` is true.

        Kept indices are renumbered in ascending order. A mask keeps the
        stored order, and an increasing renumbering keeps it column-major
        and free of duplicates, so nothing is sorted or checked again.
        """
        new_index = np.cumsum(keep) - 1
        both = keep[self.rowidx] & keep[self.colidx]
        n = int(np.count_nonzero(keep))
        return SparseWeightMatrix((n, n), _frozen(new_index[self.rowidx[both]]),
                                  _frozen(new_index[self.colidx[both]]),
                                  _frozen(self.values[both]))

    def column_sums(self) -> np.ndarray:
        """Each column's sum, its entries added in storage order."""
        # bincount returns int64 when there are no entries, whatever the weights.
        return np.bincount(self.colidx, weights=self.values,
                           minlength=self.shape[1]).astype(np.float64, copy=False)
