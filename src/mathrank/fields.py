"""The 13 canonical fields and the two-digit subject-code classification."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

FIELD_NAMES: tuple[str, ...] = (
    "Algebra",
    "AlgGeom",
    "DiffGeom",
    "Topology",
    "Analysis",
    "PDE",
    "DynSys",
    "Physics",
    "Probability",
    "Optimization",
    "NumericalAnalysis",
    "Statistics",
    "Others",
)

N_FIELDS = len(FIELD_NAMES)

# Two-digit subject codes grouped by field; any code outside these groups
# classifies as Others.
CODE_GROUPS: dict[str, tuple[str, ...]] = {
    "Algebra": ("06", "08", "15", "16", "17", "18", "20"),
    "AlgGeom": ("11", "12", "13", "14"),
    "DiffGeom": ("32", "51", "52", "53", "58"),
    "Topology": ("19", "22", "54", "55", "57"),
    "Analysis": ("26", "28", "30", "33", "34", "39", "40", "41", "42", "43", "46", "47"),
    "PDE": ("31", "35", "44", "45", "49"),
    "DynSys": ("37",),
    "Physics": ("70", "74", "76", "78", "80", "81", "82", "83", "85", "86"),
    "Probability": ("60",),
    "Optimization": ("90",),
    "NumericalAnalysis": ("65",),
    "Statistics": ("62",),
}


@dataclass(frozen=True)
class FieldId:
    """One of the 13 fields; ``index`` is its position in FIELD_NAMES."""

    index: int
    name: str


FIELDS: tuple[FieldId, ...] = tuple(
    FieldId(i, name) for i, name in enumerate(FIELD_NAMES)
)

OTHERS = FIELDS[FIELD_NAMES.index("Others")]

_CODE_TO_FIELD: dict[str, FieldId] = {}
for _name, _codes in CODE_GROUPS.items():
    _field = FIELDS[FIELD_NAMES.index(_name)]
    for _code in _codes:
        if _code in _CODE_TO_FIELD:
            raise AssertionError(f"code {_code!r} assigned to two fields")
        _CODE_TO_FIELD[_code] = _field


def is_subject_code(code: object) -> bool:
    """True for a string of exactly two ASCII letters or digits."""
    return isinstance(code, str) and len(code) == 2 and code.isascii() and code.isalnum()


def msc_to_field(code: str) -> FieldId:
    """Classify a two-character subject code into one of the 13 fields.

    Codes are matched as exact two-character strings (leading zeros matter).
    Codes not in any group map to Others. Raises ValueError for anything
    ``is_subject_code`` rejects.
    """
    if not is_subject_code(code):
        raise ValueError(f"subject code must be two ASCII letters or digits, got {code!r}")
    return _CODE_TO_FIELD.get(code, OTHERS)


def field_index_column(codes: Sequence[str]) -> np.ndarray:
    """``msc_to_field(code).index`` for each code, as int64.

    Each distinct code is classified once, in order of first appearance, so
    the first invalid code raises as msc_to_field would.
    """
    index_of = {code: msc_to_field(code).index for code in dict.fromkeys(codes)}
    return np.array([index_of[code] for code in codes], dtype=np.int64)
