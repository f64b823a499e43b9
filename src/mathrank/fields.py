"""The 13 canonical fields and the two-digit subject-code classification."""

from __future__ import annotations

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


# Field index of each grouped code.
_FIELD_INDEX: dict[str, int] = {
    code: FIELD_NAMES.index(name) for name, codes in CODE_GROUPS.items() for code in codes}


def field_index(code: object) -> int:
    """The canonical index of the field of a two-character subject code.

    Codes are matched as exact two-character strings (leading zeros matter).
    Codes not in any group map to Others. Anything that is not a string of
    exactly two ASCII letters or digits gives -1.
    """
    if not (isinstance(code, str) and len(code) == 2 and code.isascii() and code.isalnum()):
        return -1
    return _FIELD_INDEX.get(code, N_FIELDS - 1)  # Others, the last field
