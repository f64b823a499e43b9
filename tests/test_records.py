import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mathrank.fields import field_index
from mathrank.records import (
    PAPER_ID_COLUMNS,
    GraphRecords,
    ValidationIssue,
    YearMonth,
    intern_codes,
    validate_records,
)

from conftest import paper, theorem
from loop_reference import intern_codes_two_pass
from record_objects import ObjectRecords, PaperCitation, TheoremCitation


# Few short ids, so that columns repeat them and share them.
IDS = st.text(alphabet="ab\x00é\U0001d538", max_size=2)


@given(st.lists(IDS, unique=True), st.lists(st.lists(IDS, max_size=12), max_size=4))
def test_intern_codes_matches_two_pass(known, columns):
    # Columns interned one after another into one vocabulary, as from_columns
    # does: a later column sees some ids first and repeats others.
    vocab = {s: code for code, s in enumerate(known)}
    reference = dict(vocab)
    for column in map(tuple, columns):
        codes = intern_codes(vocab, column)
        expected = intern_codes_two_pass(reference, column)
        assert codes.dtype == expected.dtype
        assert codes.tolist() == expected.tolist()
        assert list(vocab.items()) == list(reference.items())


class TestYearMonth:
    def test_parse_and_format(self):
        ym = YearMonth.parse("1998-07")
        assert ym == YearMonth(1998, 7)
        assert str(ym) == "1998-07"

    @pytest.mark.parametrize("bad", ["1998/07", "1998-7", "98-07", "199807", "",
                                     "2020-06\n", "２０２０-０６", "٢٠٢٠-٠٦"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            YearMonth.parse(bad)

    def test_chronological_ordering(self):
        assert YearMonth(2000, 12) < YearMonth(2001, 1)
        assert YearMonth(2000, 1) < YearMonth(2000, 2)

    def test_validity(self):
        # Validation's date rule: a year from 1, a month from 1 to 12.
        for date, valid in (((1998, 12), True), ((1998, 13), False), ((1998, 0), False),
                            ((0, 6), False), ((1, 1), True)):
            report = validate_records(ObjectRecords.of(papers=[paper("p1", date=date)]))
            assert report.is_clean == valid, date


class TestValidation:
    def test_empty_corpus_is_clean(self):
        report = validate_records(ObjectRecords.of())
        assert report.is_clean

    def test_clean_corpus(self, tiny_records):
        assert validate_records(tiny_records).is_clean

    def test_duplicate_paper_ids(self):
        records = ObjectRecords.of(papers=[paper("p1"), paper("p1")])
        report = validate_records(records)
        assert report.counts() == {"duplicate_paper": 1}
        assert not report.is_clean
        assert report.fatal_issues

    def test_duplicate_theorem_keys(self):
        records = ObjectRecords.of(
            papers=[paper("p1")],
            theorems=[theorem("p1", "thm 1"), theorem("p1", "thm 1")])
        assert validate_records(records).counts() == {"duplicate_theorem": 1}

    def test_theorem_of_unknown_paper(self):
        records = ObjectRecords.of(theorems=[theorem("ghost", "thm 1")])
        report = validate_records(records)
        assert report.counts() == {"dangling_theorem": 1}
        assert report.fatal_issues

    def test_dangling_theorem_citation(self):
        records = ObjectRecords.of(
            papers=[paper("p1")],
            theorems=[theorem("p1", "thm 1")],
            theorem_citations=[TheoremCitation("p1", "thm 1", "p1", "thm 9")])
        report = validate_records(records)
        assert report.counts() == {"dangling_theorem_citation": 1}
        # Edge-level issues do not block assembly, they drop the edge.
        assert not report.fatal_issues
        assert len(report.edge_issues) == 1

    def test_dangling_paper_citation(self):
        records = ObjectRecords.of(
            papers=[paper("p1")],
            paper_citations=[PaperCitation("p1", "missing")])
        assert validate_records(records).counts() == {"dangling_paper_citation": 1}

    def test_self_citations_flagged(self):
        records = ObjectRecords.of(
            papers=[paper("p1")],
            theorems=[theorem("p1", "thm 1")],
            theorem_citations=[TheoremCitation("p1", "thm 1", "p1", "thm 1")],
            paper_citations=[PaperCitation("p1", "p1")])
        assert validate_records(records).counts() == {"self_citation": 2}

    def test_malformed_subject_code(self):
        records = ObjectRecords.of(papers=[paper("p1", msc="5")])
        report = validate_records(records)
        assert report.counts() == {"malformed_paper": 1}

    @pytest.mark.parametrize("code", [60, None, b"60", "٦٠"])
    def test_codes_field_index_rejects_are_issues(self, code):
        # field_index rejects the same codes, so the two rules agree.
        assert field_index(code) == -1
        (issue,) = validate_records(ObjectRecords.of(papers=[paper("p1", msc=code)])).issues
        assert issue == ValidationIssue("malformed_paper", f"p1: bad subject code {code!r}")

    def test_malformed_date(self):
        records = ObjectRecords.of(papers=[paper("p1", date=(1998, 13))])
        assert validate_records(records).counts() == {"malformed_paper": 1}

    def test_issue_details_name_offenders(self):
        records = ObjectRecords.of(
            papers=[paper("p1")],
            paper_citations=[PaperCitation("p1", "missing")])
        (issue,) = validate_records(records).issues
        assert "missing" in issue.detail


class TestCanonicalField:
    CODES = ["53", "06", "99", "ab", "5", "", "123", 60, None, b"60", "٦٠", "53"]

    def test_field_index_or_minus_one_per_paper(self):
        records = ObjectRecords.of(
            papers=[paper(f"p{i}", msc=c) for i, c in enumerate(self.CODES)])
        field = records.canonical_field
        assert field.dtype == np.int64
        assert field.tolist() == [2, 0, 12, 12, -1, -1, -1, -1, -1, -1, -1, 2]
        assert field.tolist() == [field_index(code) for code in self.CODES]

    def test_read_only_and_computed_once(self):
        records = ObjectRecords.of(papers=[paper("p1", msc="60"), paper("p2", msc="6")])
        field = records.canonical_field
        with pytest.raises(ValueError):
            field[0] = 0
        assert records.canonical_field is field

    def test_no_papers(self):
        field = ObjectRecords.of().canonical_field
        assert field.dtype == np.int64 and field.shape == (0,)


class TestColumns:
    COLUMNS = ("paper_id", "msc_primary", "author_ids", "year", "month",
               "theorem_paper", "theorem_id", "tc_src_paper", "tc_src_theorem",
               "tc_dst_paper", "tc_dst_theorem", "pc_src", "pc_dst")

    def test_columns_hold_the_records(self, tiny_records):
        assert tiny_records.column("paper_id") == ("p1", "p2")
        assert tiny_records.year.tolist() == [1995, 1999]
        assert tiny_records.column("tc_dst_theorem") == ("thm 1",)
        again = ObjectRecords.from_columns(
            **{name: tiny_records.column(name) for name in self.COLUMNS})
        assert again == tiny_records
        assert ObjectRecords.wrap(again).papers == tiny_records.papers

    def test_columns_of_a_table_must_align(self, tiny_records):
        columns = {name: tiny_records.column(name) for name in self.COLUMNS}
        with pytest.raises(ValueError, match="differ in length"):
            ObjectRecords.from_columns(**{**columns, "month": [1]})
        with pytest.raises(TypeError):
            ObjectRecords.from_columns(**{**columns, "extra": ()})

    def test_immutable(self, tiny_records):
        with pytest.raises(AttributeError):
            tiny_records.paper_id = ()
        with pytest.raises(ValueError):
            tiny_records.year[0] = 2000
        with pytest.raises(ValueError):
            tiny_records.paper_id[0] = 1

    def test_column_names_the_columns(self, tiny_records):
        assert tiny_records.column("msc_primary") is tiny_records.msc_primary
        with pytest.raises(KeyError):
            tiny_records.column("paper_ids")

    def test_equality_compares_ids_not_codes(self, tiny_records):
        # The same rows with p1 and p2 numbered the other way round.
        fields = {f.name: getattr(tiny_records, f.name)
                  for f in dataclasses.fields(GraphRecords)}
        swap = np.array([1, 0])
        renumbered = GraphRecords(**{
            **fields, "paper_ids": tiny_records.paper_ids[::-1],
            **{name: swap[fields[name]] for name in PAPER_ID_COLUMNS}})
        assert renumbered.paper_id.tolist() != tiny_records.paper_id.tolist()
        assert renumbered == tiny_records

    def test_equality_compares_columns(self, tiny_records):
        columns = {name: tiny_records.column(name) for name in self.COLUMNS}

        def with_authors(first):
            return ObjectRecords.from_columns(**{**columns, "author_ids": (first, ("b1",))})

        repeated, once = with_authors(("b", "a", "a")), with_authors(("a", "b"))
        # The record objects hold sets.
        assert ObjectRecords.wrap(repeated).papers == ObjectRecords.wrap(once).papers
        assert repeated != once
        assert repeated == with_authors(("b", "a", "a"))
        assert with_authors(("a", "b")) != with_authors(("b", "a"))

    @pytest.mark.parametrize("name", COLUMNS)
    def test_equality_sees_every_column(self, name):
        # Two papers, theorems, theorem citations and paper citations, so
        # that swapping a column's two rows changes it.
        records = ObjectRecords.of(
            papers=[paper("p1", msc="53", authors=("a1",), date=(1995, 3)),
                    paper("p2", msc="60", authors=("b1",), date=(1999, 11))],
            theorems=[theorem("p1", "thm 1"), theorem("p2", "thm 2")],
            theorem_citations=[TheoremCitation("p2", "thm 2", "p1", "thm 1"),
                               TheoremCitation("p1", "thm 1", "p2", "thm 2")],
            paper_citations=[PaperCitation("p2", "p1"), PaperCitation("p1", "p2")])
        columns = {n: records.column(n) for n in self.COLUMNS}
        column = columns[name]
        swapped = column[::-1] if isinstance(column, np.ndarray) else tuple(reversed(column))
        assert ObjectRecords.from_columns(**{**columns, name: swapped}) != records
        assert ObjectRecords.from_columns(**columns) == records
