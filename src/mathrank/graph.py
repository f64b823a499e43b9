"""The assembled three-level citation graph.

Levels are theorems (bottom), papers (middle), fields (top). Intra-level
weight matrices follow the (cited, citer) convention of SparseWeightMatrix;
cross-level containment is carried by index mappings, not matrices.

Entities are indexed deterministically: theorems by (paper_id, theorem_id),
papers by paper_id, fields by their canonical position in FIELD_NAMES. Only
populated fields (those with at least one paper) are part of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FIELD_NAMES
from .sparsemat import SparseWeightMatrix


@dataclass(frozen=True)
class ThreeLevelGraph:
    theorem_keys: tuple[tuple[str, str], ...]
    paper_ids: tuple[str, ...]
    field_indices: np.ndarray  # canonical indices of populated fields, ascending

    t_matrix: SparseWeightMatrix  # theorem x theorem
    p_matrix: SparseWeightMatrix  # paper x paper
    f_matrix: SparseWeightMatrix  # field x field, integer-valued weights

    theorem_paper: np.ndarray  # theorem index -> paper index
    paper_field: np.ndarray    # paper index -> local field index

    @property
    def n_theorems(self) -> int:
        return len(self.theorem_keys)

    @property
    def n_papers(self) -> int:
        return len(self.paper_ids)

    @property
    def n_fields(self) -> int:
        return int(self.field_indices.size)

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(FIELD_NAMES[i] for i in self.field_indices)

    def theorem_label(self, i: int) -> str:
        paper_id, theorem_id = self.theorem_keys[i]
        return f"{paper_id}:{theorem_id}"
