import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mathrank.fields import CODE_GROUPS, FIELD_NAMES, field_index

# The full classification, spelled out code by code.
EXPECTED = {
    "06": "Algebra", "08": "Algebra", "15": "Algebra", "16": "Algebra",
    "17": "Algebra", "18": "Algebra", "20": "Algebra",
    "11": "AlgGeom", "12": "AlgGeom", "13": "AlgGeom", "14": "AlgGeom",
    "32": "DiffGeom", "51": "DiffGeom", "52": "DiffGeom", "53": "DiffGeom",
    "58": "DiffGeom",
    "19": "Topology", "22": "Topology", "54": "Topology", "55": "Topology",
    "57": "Topology",
    "26": "Analysis", "28": "Analysis", "30": "Analysis", "33": "Analysis",
    "34": "Analysis", "39": "Analysis", "40": "Analysis", "41": "Analysis",
    "42": "Analysis", "43": "Analysis", "46": "Analysis", "47": "Analysis",
    "31": "PDE", "35": "PDE", "44": "PDE", "45": "PDE", "49": "PDE",
    "37": "DynSys",
    "70": "Physics", "74": "Physics", "76": "Physics", "78": "Physics",
    "80": "Physics", "81": "Physics", "82": "Physics", "83": "Physics",
    "85": "Physics", "86": "Physics",
    "60": "Probability",
    "90": "Optimization",
    "65": "NumericalAnalysis",
    "62": "Statistics",
}

_ALNUM = string.ascii_letters + string.digits


def test_thirteen_fields_in_canonical_order():
    assert len(FIELD_NAMES) == 13
    assert FIELD_NAMES[0] == "Algebra"
    assert FIELD_NAMES[-1] == "Others"


@pytest.mark.parametrize("code,expected", sorted(EXPECTED.items()))
def test_every_listed_code(code, expected):
    assert field_index(code) == FIELD_NAMES.index(expected)


@pytest.mark.parametrize("code", ["99", "00", "05", "07", "50", "3a", "ab"])
def test_unlisted_codes_map_to_others(code):
    assert field_index(code) == FIELD_NAMES.index("Others")


def test_representative_codes():
    assert field_index("62") == FIELD_NAMES.index("Statistics")
    assert field_index("37") == FIELD_NAMES.index("DynSys")
    assert field_index("90") == FIELD_NAMES.index("Optimization")
    assert field_index("99") == FIELD_NAMES.index("Others")


def test_leading_zero_codes_are_distinct_strings():
    assert field_index("06") == FIELD_NAMES.index("Algebra")
    # "6 " or "60" are different codes entirely; "06" must not alias them.
    assert field_index("60") == FIELD_NAMES.index("Probability")


def test_total_over_all_two_digit_codes():
    seen = set()
    for a in string.digits:
        for b in string.digits:
            seen.add(field_index(a + b))
    assert seen == set(range(len(FIELD_NAMES)))  # surjective onto the 13 fields


def test_code_groups_are_disjoint():
    all_codes = [c for codes in CODE_GROUPS.values() for c in codes]
    assert len(all_codes) == len(set(all_codes))
    assert set(all_codes) == set(EXPECTED)


@pytest.mark.parametrize("bad", ["6", "123", "", "6!", "-1", "6 ", "  ", "６２"])
def test_malformed_codes_rejected(bad):
    assert field_index(bad) == -1


@given(st.text(alphabet=_ALNUM, min_size=2, max_size=2))
def test_any_alphanumeric_pair_classifies(code):
    assert 0 <= field_index(code) < len(FIELD_NAMES)


@given(st.text(max_size=5))
def test_non_pairs_raise_or_classify(code):
    if len(code) == 2 and code.isascii() and code.isalnum():
        assert 0 <= field_index(code) < len(FIELD_NAMES)
    else:
        assert field_index(code) == -1
