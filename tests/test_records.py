import pytest

from mathrank.fields import msc_to_field
from mathrank.records import (
    GraphRecords,
    PaperCitation,
    TheoremCitation,
    ValidationIssue,
    YearMonth,
    validate_records,
)

from conftest import paper, theorem


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
        assert YearMonth(1998, 12).is_valid
        assert not YearMonth(1998, 13).is_valid
        assert not YearMonth(1998, 0).is_valid


class TestValidation:
    def test_empty_corpus_is_clean(self):
        report = validate_records(GraphRecords())
        assert report.is_clean

    def test_clean_corpus(self, tiny_records):
        assert validate_records(tiny_records).is_clean

    def test_duplicate_paper_ids(self):
        records = GraphRecords(papers=[paper("p1"), paper("p1")])
        report = validate_records(records)
        assert report.counts() == {"duplicate_paper": 1}
        assert not report.is_clean
        assert report.fatal_issues

    def test_duplicate_theorem_keys(self):
        records = GraphRecords(
            papers=[paper("p1")],
            theorems=[theorem("p1", "thm 1"), theorem("p1", "thm 1")])
        assert validate_records(records).counts() == {"duplicate_theorem": 1}

    def test_theorem_of_unknown_paper(self):
        records = GraphRecords(theorems=[theorem("ghost", "thm 1")])
        report = validate_records(records)
        assert report.counts() == {"dangling_theorem": 1}
        assert report.fatal_issues

    def test_dangling_theorem_citation(self):
        records = GraphRecords(
            papers=[paper("p1")],
            theorems=[theorem("p1", "thm 1")],
            theorem_citations=[TheoremCitation("p1", "thm 1", "p1", "thm 9")])
        report = validate_records(records)
        assert report.counts() == {"dangling_theorem_citation": 1}
        # Edge-level issues do not block assembly, they drop the edge.
        assert not report.fatal_issues
        assert len(report.edge_issues) == 1

    def test_dangling_paper_citation(self):
        records = GraphRecords(
            papers=[paper("p1")],
            paper_citations=[PaperCitation("p1", "missing")])
        assert validate_records(records).counts() == {"dangling_paper_citation": 1}

    def test_self_citations_flagged(self):
        records = GraphRecords(
            papers=[paper("p1")],
            theorems=[theorem("p1", "thm 1")],
            theorem_citations=[TheoremCitation("p1", "thm 1", "p1", "thm 1")],
            paper_citations=[PaperCitation("p1", "p1")])
        assert validate_records(records).counts() == {"self_citation": 2}

    def test_malformed_subject_code(self):
        records = GraphRecords(papers=[paper("p1", msc="5")])
        report = validate_records(records)
        assert report.counts() == {"malformed_paper": 1}

    @pytest.mark.parametrize("code", [60, None, b"60", "٦٠"])
    def test_codes_msc_to_field_rejects_are_issues(self, code):
        # msc_to_field rejects the same codes, so the two rules agree.
        with pytest.raises(ValueError):
            msc_to_field(code)
        (issue,) = validate_records(GraphRecords(papers=[paper("p1", msc=code)])).issues
        assert issue == ValidationIssue("malformed_paper", f"p1: bad subject code {code!r}")

    def test_malformed_date(self):
        records = GraphRecords(papers=[paper("p1", date=(1998, 13))])
        assert validate_records(records).counts() == {"malformed_paper": 1}

    def test_issue_details_name_offenders(self):
        records = GraphRecords(
            papers=[paper("p1")],
            paper_citations=[PaperCitation("p1", "missing")])
        (issue,) = validate_records(records).issues
        assert "missing" in issue.detail


class TestColumns:
    COLUMNS = ("paper_id", "msc_primary", "author_ids", "year", "month",
               "theorem_paper", "theorem_id", "tc_src_paper", "tc_src_theorem",
               "tc_dst_paper", "tc_dst_theorem", "pc_src", "pc_dst")

    def test_columns_hold_the_records(self, tiny_records):
        assert tiny_records.paper_id == ("p1", "p2")
        assert tiny_records.year.tolist() == [1995, 1999]
        assert tiny_records.tc_dst_theorem == ("thm 1",)
        again = GraphRecords.from_columns(
            **{name: getattr(tiny_records, name) for name in self.COLUMNS})
        assert again == tiny_records
        assert again.papers == tiny_records.papers

    def test_columns_of_a_table_must_align(self, tiny_records):
        columns = {name: getattr(tiny_records, name) for name in self.COLUMNS}
        with pytest.raises(ValueError, match="differ in length"):
            GraphRecords.from_columns(**{**columns, "month": [1]})
        with pytest.raises(TypeError):
            GraphRecords.from_columns(**{**columns, "extra": ()})

    def test_immutable(self, tiny_records):
        with pytest.raises(AttributeError):
            tiny_records.paper_id = ()
        with pytest.raises(ValueError):
            tiny_records.year[0] = 2000
