import json

import pytest

from mathrank.corpus import parse_corpus, snapshot_filter, write_corpus
from mathrank.records import GraphRecords, PaperCitation, YearMonth, validate_records

from conftest import paper, theorem
from synthdata import make_random_records


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def corpus_paths(tmp_path):
    return (tmp_path / "papers.jsonl", tmp_path / "theorems.jsonl",
            tmp_path / "thm_cites.jsonl", tmp_path / "paper_cites.jsonl")


def write_empty(paths):
    for p in paths:
        p.write_text("", encoding="utf-8")


class TestParse:
    def test_single_paper_line(self, tmp_path):
        paths = corpus_paths(tmp_path)
        write_empty(paths)
        write_lines(paths[0], [json.dumps({
            "paper_id": "math/9807071", "msc_primary": "20",
            "author_ids": ["a1"], "first_version_date": "1998-07"})])
        records, errors = parse_corpus(*paths)
        assert not errors
        (p,) = records.papers
        assert p.paper_id == "math/9807071"
        assert p.msc_primary == "20"
        assert p.author_ids == frozenset({"a1"})
        assert p.first_version_date == YearMonth(1998, 7)

    def test_theorem_citation_tuple(self, tmp_path):
        paths = corpus_paths(tmp_path)
        write_empty(paths)
        write_lines(paths[2], [json.dumps({
            "src_paper": "math/0001", "src_theorem": "lemma 3.3",
            "dst_paper": "math/0002", "dst_theorem": "theorem 1"})])
        records, errors = parse_corpus(*paths)
        assert not errors
        (c,) = records.theorem_citations
        assert c.src_key == ("math/0001", "lemma 3.3")
        assert c.dst_key == ("math/0002", "theorem 1")

    def test_empty_files(self, tmp_path):
        paths = corpus_paths(tmp_path)
        write_empty(paths)
        records, errors = parse_corpus(*paths)
        assert records.is_empty
        assert not errors

    def test_malformed_lines_skipped_and_reported(self, tmp_path):
        paths = corpus_paths(tmp_path)
        write_empty(paths)
        write_lines(paths[0], [
            "not json at all",
            json.dumps({"paper_id": "ok", "msc_primary": "20",
                        "author_ids": ["a"], "first_version_date": "2001-02"}),
            json.dumps({"paper_id": "bad-date", "msc_primary": "20",
                        "author_ids": ["a"], "first_version_date": "01/2001"}),
            json.dumps({"paper_id": "no-msc", "author_ids": [],
                        "first_version_date": "2001-02"}),
            json.dumps(["a", "list"]),
        ])
        records, errors = parse_corpus(*paths)
        assert [p.paper_id for p in records.papers] == ["ok"]
        assert [e.line_number for e in errors] == [1, 3, 4, 5]
        assert all(e.path.endswith("papers.jsonl") for e in errors)

    def test_non_utf8_line_reported_with_its_number(self, tmp_path):
        paths = corpus_paths(tmp_path)
        write_empty(paths)
        good = json.dumps({"paper_id": "p1", "theorem_id": "thm 1"}).encode()
        bad = b'{"paper_id": "p1", "theorem_id": "thm \xff"}'
        paths[1].write_bytes(good + b"\n" + bad + b"\n")
        records, errors = parse_corpus(*paths)
        assert [t.key for t in records.theorems] == [("p1", "thm 1")]
        assert [(e.line_number, e.path.endswith("theorems.jsonl")) for e in errors] \
            == [(2, True)]
        assert "utf-8" in errors[0].reason

    def test_unknown_extra_fields_ignored(self, tmp_path):
        paths = corpus_paths(tmp_path)
        write_empty(paths)
        write_lines(paths[1], [json.dumps({
            "paper_id": "p1", "theorem_id": "thm 2", "extra": {"x": 1}})])
        records, errors = parse_corpus(*paths)
        assert not errors
        assert records.theorems[0].key == ("p1", "thm 2")

    def test_unreadable_file_raises(self, tmp_path):
        paths = corpus_paths(tmp_path)
        with pytest.raises(OSError):
            parse_corpus(*paths)

    def test_blank_lines_skipped(self, tmp_path):
        paths = corpus_paths(tmp_path)
        write_empty(paths)
        write_lines(paths[3], [
            "", json.dumps({"src_paper": "a", "dst_paper": "b"}), ""])
        records, errors = parse_corpus(*paths)
        assert not errors
        assert records.paper_citations == (PaperCitation("a", "b"),)


class TestRoundTrip:
    def test_write_then_parse_is_identity(self, tmp_path, rng):
        records = make_random_records(rng, n_papers=12, n_theorems=30)
        paths = corpus_paths(tmp_path)
        write_corpus(records, *paths)
        reparsed, errors = parse_corpus(*paths)
        assert not errors
        assert reparsed == records

    def test_round_trip_preserves_unicode(self, tmp_path):
        records = GraphRecords(
            papers=[paper("p/é1", authors=("auteur-é",))],
            theorems=[theorem("p/é1", "théorème 1")])
        paths = corpus_paths(tmp_path)
        write_corpus(records, *paths)
        reparsed, errors = parse_corpus(*paths)
        assert not errors
        assert reparsed == records


class TestSnapshot:
    def test_year_2000_keeps_the_nineties(self):
        papers = [paper(f"p{y}", date=(y, m)) for y, m in
                  [(1991, 1), (1995, 6), (2000, 12)]]
        records = GraphRecords(papers=papers)
        kept = snapshot_filter(records, 2000)
        assert len(kept.papers) == 3

    def test_january_next_year_excluded(self):
        records = GraphRecords(papers=[paper("p1", date=(2001, 1))])
        assert snapshot_filter(records, 2000).is_empty

    def test_year_before_everything_is_empty(self, tiny_records):
        assert snapshot_filter(tiny_records, 1980).is_empty

    def test_referencing_records_follow_their_papers(self, tiny_records):
        # p1 is from 1995, p2 from 1999; at 1996 only p1 and its theorem remain.
        kept = snapshot_filter(tiny_records, 1996)
        assert [p.paper_id for p in kept.papers] == ["p1"]
        assert [t.paper_id for t in kept.theorems] == ["p1"]
        assert kept.theorem_citations == ()
        assert kept.paper_citations == ()

    def test_monotone_in_year(self, rng):
        records = make_random_records(rng, n_papers=25, n_theorems=60)
        for year in range(1991, 2023):
            a = snapshot_filter(records, year)
            b = snapshot_filter(records, year + 1)
            assert set(p.paper_id for p in a.papers) <= set(p.paper_id for p in b.papers)
            assert set(t.key for t in a.theorems) <= set(t.key for t in b.theorems)
            assert set(a.theorem_citations) <= set(b.theorem_citations)
            assert set(a.paper_citations) <= set(b.paper_citations)

    def test_never_dangling(self, rng):
        records = make_random_records(rng, n_papers=20, n_theorems=50)
        for year in (1995, 2000, 2005, 2010, 2020):
            report = validate_records(snapshot_filter(records, year))
            assert report.is_clean
