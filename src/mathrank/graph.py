"""The assembled three-level citation graph.

Levels are theorems (bottom), papers (middle), fields (top). Intra-level
weight matrices follow the (cited, citer) convention of SparseWeightMatrix;
cross-level containment is carried by index mappings, not matrices.

Entities are indexed deterministically: theorems by (paper_id, theorem_id),
papers by paper_id, fields by their canonical position in FIELD_NAMES. Only
populated fields (those with at least one paper) are part of the graph.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .fields import FIELD_NAMES
from .sparsemat import SparseWeightMatrix


class ThreeLevelGraph(NamedTuple):
    paper_vocab: tuple[str, ...]    # the records' paper ids, by code
    theorem_vocab: tuple[str, ...]  # the records' theorem ids, by code
    paper_code: np.ndarray          # paper index -> paper id code
    theorem_code: np.ndarray        # theorem index -> theorem id code
    field_indices: np.ndarray  # canonical indices of populated fields, ascending

    t_matrix: SparseWeightMatrix  # theorem x theorem
    p_matrix: SparseWeightMatrix  # paper x paper
    f_matrix: SparseWeightMatrix  # field x field, integer-valued weights

    theorem_paper: np.ndarray  # theorem index -> paper index
    paper_field: np.ndarray    # paper index -> local field index

    @property
    def n_theorems(self) -> int:
        return self.theorem_code.size

    @property
    def n_papers(self) -> int:
        return self.paper_code.size

    @property
    def n_fields(self) -> int:
        return int(self.field_indices.size)

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(FIELD_NAMES[i] for i in self.field_indices)

    @property
    def paper_ids(self) -> tuple[str, ...]:
        return tuple(self.paper_labels(slice(None)))

    def paper_labels(self, papers: np.ndarray) -> list[str]:
        """The ids of the papers at the given indices."""
        return list(map(self.paper_vocab.__getitem__, self.paper_code[papers].tolist()))

    def theorem_labels(self, theorems: np.ndarray) -> list[str]:
        """The ``paper_id:theorem_id`` labels of the theorems at the given indices."""
        paper_ids = self.paper_labels(self.theorem_paper[theorems])
        theorem_ids = map(self.theorem_vocab.__getitem__, self.theorem_code[theorems].tolist())
        return list(map("{}:{}".format, paper_ids, theorem_ids))

    def theorem_label(self, i: int) -> str:
        paper = self.paper_code[self.theorem_paper[i]]
        return f"{self.paper_vocab[paper]}:{self.theorem_vocab[self.theorem_code[i]]}"
