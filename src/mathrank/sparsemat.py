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


@dataclass(frozen=True)
class SparseWeightMatrix:
    shape: tuple[int, int]
    rowidx: np.ndarray  # int64, ascending within each column
    colidx: np.ndarray  # int64, ascending
    values: np.ndarray  # float64, strictly positive

    def __post_init__(self) -> None:
        for arr in (self.rowidx, self.colidx, self.values):
            arr.setflags(write=False)

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
        return SparseWeightMatrix(self.shape, self.rowidx, self.colidx, values)

    def principal_submatrix(self, keep: np.ndarray) -> "SparseWeightMatrix":
        """The rows and columns of a square matrix where ``keep`` is true.

        Kept indices are renumbered in ascending order. A mask keeps the
        stored order, and an increasing renumbering keeps it column-major
        and free of duplicates, so nothing is sorted or checked again.
        """
        new_index = np.cumsum(keep) - 1
        both = keep[self.rowidx] & keep[self.colidx]
        n = int(np.count_nonzero(keep))
        return SparseWeightMatrix((n, n), new_index[self.rowidx[both]],
                                  new_index[self.colidx[both]], self.values[both])

    def column_sums(self) -> np.ndarray:
        """Each column's sum, its entries added in storage order."""
        # bincount returns int64 when there are no entries, whatever the weights.
        return np.bincount(self.colidx, weights=self.values,
                           minlength=self.shape[1]).astype(np.float64, copy=False)
