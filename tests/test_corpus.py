import dataclasses
import gc
import io
import itertools
import json
import tracemalloc

import pytest

import mathrank.corpus
from mathrank.corpus import (
    _CHUNK_BYTES,
    MalformedLine,
    _blocks,
    parse_corpus,
    snapshot_filter,
)
from mathrank.records import (
    PAPER_ID_COLUMNS,
    THEOREM_ID_COLUMNS,
    GraphRecords,
    YearMonth,
    validate_records,
)

from conftest import paper, theorem
from loop_reference import parse_corpus_loop
from record_objects import ObjectRecords, PaperCitation
from synthdata import make_random_records, write_corpus


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
        (p,) = ObjectRecords.wrap(records).papers
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
        (c,) = ObjectRecords.wrap(records).theorem_citations
        assert c.src_key == ("math/0001", "lemma 3.3")
        assert c.dst_key == ("math/0002", "theorem 1")

    def test_empty_files(self, tmp_path):
        paths = corpus_paths(tmp_path)
        write_empty(paths)
        records, errors = parse_corpus(*paths)
        assert not any(records.sizes)
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
        assert [p.paper_id for p in ObjectRecords.wrap(records).papers] == ["ok"]
        assert [e.line_number for e in errors] == [1, 3, 4, 5]
        assert all(e.path.endswith("papers.jsonl") for e in errors)

    def test_non_utf8_line_reported_with_its_number(self, tmp_path):
        paths = corpus_paths(tmp_path)
        write_empty(paths)
        good = json.dumps({"paper_id": "p1", "theorem_id": "thm 1"}).encode()
        bad = b'{"paper_id": "p1", "theorem_id": "thm \xff"}'
        paths[1].write_bytes(good + b"\n" + bad + b"\n")
        records, errors = parse_corpus(*paths)
        assert [t.key for t in ObjectRecords.wrap(records).theorems] == [("p1", "thm 1")]
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
        assert ObjectRecords.wrap(records).theorems[0].key == ("p1", "thm 2")

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
        assert ObjectRecords.wrap(records).paper_citations == (PaperCitation("a", "b"),)


def theorem_line(tid):
    return json.dumps({"paper_id": "p1", "theorem_id": tid}, ensure_ascii=False).encode()


A, B = theorem_line("a"), theorem_line("b")

# The tables of string fields: the file's index in corpus_paths, its keys and
# the column of its last key.
STRING_TABLES = {
    "theorems": (1, ("paper_id", "theorem_id"), "theorem_id"),
    "theorem_citations": (2, ("src_paper", "src_theorem", "dst_paper", "dst_theorem"),
                          "tc_dst_theorem"),
    "paper_citations": (3, ("src_paper", "dst_paper"), "pc_dst"),
}


def for_table(data, keys):
    """Theorem-file bytes as lines of the table of ``keys``. Its last key
    stands where "theorem_id" is and the key before it where "paper_id" is,
    with the same values; any keys before those come first, with "p1"."""
    head = "".join(f'"{key}": "p1", ' for key in keys[:-2]) + f'"{keys[-2]}": "'
    return data.replace(b'"paper_id": "', head.encode()).replace(
        b'"theorem_id"', f'"{keys[-1]}"'.encode())


# Theorem files, the theorem ids parsed from them and the numbers of their
# malformed lines.
EDGE_CASES = [
    pytest.param(A + b"\r\n" + B + b"\r\n", ["a", "b"], [], id="crlf"),
    pytest.param(b'{"paper_id": "p1",\r"theorem_id": "a"}\n' + B + b"\n",
                 ["a", "b"], [], id="bare_cr_between_tokens"),
    pytest.param(b'{"paper_id": "p1", "theorem_id": "a\rb"}\n' + B + b"\n", ["b"], [1],
                 id="bare_cr_inside_string"),
    pytest.param(b"\n   \n\t\n" + A + b"\n \r\n", ["a"], [], id="blank_lines"),
    pytest.param(theorem_line("a\u2028b") + b"\n" + theorem_line("c\x85d") + b"\n{\n",
                 ["a\u2028b", "c\x85d"], [3], id="u2028_u0085_inside_string"),
    pytest.param(A + b" " + B + b"\n", [], [1], id="two_objects_space"),
    pytest.param(A + b"," + B + b"\n", [], [1], id="two_objects_comma"),
    pytest.param(b"\xef\xbb\xbf" + A + b"\n" + B + b"\n", ["b"], [1], id="utf8_bom"),
    pytest.param(A + b"\n" + b'{"paper_id": "p\xff"}' + b"\n" + B + b"\n", ["a", "b"], [2],
                 id="non_utf8_line"),
    pytest.param(A + b"\n" + B, ["a", "b"], [], id="no_final_newline"),
    # Lines next to the canonical form: each parses only as JSON, or not at all.
    pytest.param(b'{"paper_id": "p1", "theorem_id": "\\u0041"}\n' + B + b"\n", ["A", "b"], [],
                 id="unicode_escape"),
    pytest.param(b'{"paper_id": "p1", "theorem_id": "a\\"\\\\"}\n', ['a"\\'], [],
                 id="quote_and_backslash_escapes"),
    pytest.param(b'{"theorem_id": "a", "paper_id": "p1"}\n' + B + b"\n", ["a", "b"], [],
                 id="reordered_keys"),
    pytest.param(b'{"paper_id": "p1", "theorem_id": "x", "theorem_id": "a"}\n', ["a"], [],
                 id="duplicate_key"),
    pytest.param(b'{"paper_id": "p1", "theorem_id": "a", "extra": "z"}\n', ["a"], [],
                 id="extra_key"),
    pytest.param(b'{"paper_id": "p1","theorem_id": "a"}\n{"paper_id": "p1", "theorem_id":"b"}\n',
                 ["a", "b"], [], id="compact_separators"),
    pytest.param(b"  " + A + b"\n\t" + B + b" \n", ["a", "b"], [],
                 id="leading_and_trailing_spaces"),
    pytest.param(A + b"\n\n \n{\n" + B + b"\n" + A + b"\n", ["a", "b", "a"], [4],
                 id="blank_lines_then_malformed"),
    # Only JSON whitespace (space, tab, CR, LF) may stand around an object;
    # other whitespace makes its line malformed, and a line of it is not blank.
    pytest.param(A + "\u2028".encode() + b"\n" + B + b"\n", ["b"], [1],
                 id="u2028_after_object"),
    pytest.param(b"\x1c" + A + b"\x0c\n" + B + b"\n", ["b"], [1],
                 id="file_separator_and_form_feed_around_object"),
    pytest.param("\u00a0".encode() + A + b"\n" + B + b"\x0b\n", [], [1, 2],
                 id="nbsp_before_and_vertical_tab_after_object"),
    pytest.param(b"\x0c\n" + "\x85\u3000".encode() + b"\n" + A + b"\n", ["a"], [1, 2],
                 id="lines_of_other_whitespace"),
    pytest.param(A + b"\r\r\n" + B + b"\r", ["a", "b"], [], id="two_crs_and_final_cr"),
    pytest.param(b'{"paper_id": "p1", "theorem_id": "a\tb"}\n'
                 b'{"paper_id": "p1", "theorem_id": "c\x01"}\n' + B + b"\n",
                 ["b"], [1, 2], id="raw_tab_and_u0001_inside_string"),
    pytest.param(b'{"paper_id": "p1", "theorem_id": "a\x1f"}\n'
                 b'{"paper_id": "p1", "theorem_id": "\x7f"}\n',
                 ["\x7f"], [1], id="raw_u001f_and_u007f_inside_string"),
    pytest.param(A + b"\n" + b'{"paper_id": "p1", "theorem_id": "a\xff"}\n' + B + b"\n",
                 ["a", "b"], [2], id="invalid_utf8_in_canonical_line"),
    pytest.param(b'{"paper_id": "p1", "theorem_id": "\xed\xa0\x80"}\n' + B + b"\n", ["b"], [1],
                 id="encoded_surrogate_in_canonical_line"),
    pytest.param(b'{"paper_id": "p1", "theorem_id": "a\xe2"}\n' + B + b"\n", ["b"], [1],
                 id="truncated_utf8_in_canonical_line"),
    pytest.param(b'{"paper_id": "p1", "theorem_id": "a\xe2\n' + B + b"\n", ["b"], [1],
                 id="truncated_utf8_at_line_end"),
    pytest.param(B + b'\n{"paper_id": "p1", "theorem_id": "\xe2', ["b"], [2],
                 id="truncated_utf8_at_file_end"),
    pytest.param(b'{"paper_id": "p1", "theorem_id": "\\udcff"}\n', [], [1],
                 id="escaped_lone_surrogate"),
    pytest.param(b'{"paper_id": "", "theorem_id": ""}\n' + A + b"\n", ["", "a"], [],
                 id="empty_values"),
    pytest.param(b'{"paper_id": "p1", "theorem_id": 7}\n' + A + b"\n", ["a"], [1],
                 id="non_string_value"),
    pytest.param(b'{"paper_id": "p1", "theorem_id": ["a"]}\n' + A + b"\n", ["a"], [1],
                 id="list_value"),
    pytest.param(b'{"paper_id": "p1"}\n{"paper_id": "p1", "theorem_id": "a"\n', [], [1, 2],
                 id="missing_key_and_unclosed_object"),
    pytest.param(theorem_line("é\U0001d538\uffff") + b"\n", ["é\U0001d538\uffff"], [],
                 id="non_ascii_values"),
]


# Read sizes (``_CHUNK_BYTES``) that end reads anywhere in a line, that are
# shorter than most lines, and that end just before, on and just after a
# 128-byte line's end.
BLOCK_BYTES = [1, 7, 64, 127, 128, 129]


def block_lines(data):
    """The number of lines in each block ``_blocks`` reads from ``data``."""
    return [len(block.split(b"\n")) - block.endswith(b"\n")
            for block in _blocks(io.BytesIO(data))]


def assert_block_lines(path, counts):
    with open(path, "rb") as fh:
        assert block_lines(fh.read()) == counts


def assert_matches_loop_reference(tmp_path, table, data, values, bad_lines):
    index, keys, column = STRING_TABLES[table]
    paths = corpus_paths(tmp_path)
    write_empty(paths)
    paths[index].write_bytes(for_table(data, keys))
    records, errors = parse_corpus(*paths)
    assert list(ObjectRecords.wrap(records).column(column)) == values
    assert [e.line_number for e in errors] == bad_lines
    assert (records, errors) == parse_corpus_loop(*paths)


def sized_line(tid, size, canonical=True):
    """A theorems line of ``size`` bytes, its theorem id ``tid`` padded with
    zeros, with its keys in order or, when not ``canonical``, reversed."""
    obj = {"paper_id": "p1", "theorem_id": tid}
    obj["theorem_id"] += "0" * (size - len(json.dumps(obj)))
    return json.dumps(obj if canonical else dict(reversed(obj.items()))).encode()


def padded(tid, size):
    """The theorem id of ``sized_line(tid, size)``."""
    return tid + "0" * (size - len(theorem_line(tid)))


def cr_ends_a_read(n):
    """Two CRLF lines, the first CR the last byte of a read of ``n`` bytes."""
    data = sized_line("a", n - 1) + b"\r\n" + sized_line("b", n - 2) + b"\r\n"
    assert data[n - 1:n + 1] == b"\r\n"
    return data


# Canonical (c), non-canonical (r, keys reversed) and malformed (m) lines of
# 64 bytes: blocks of 128 bytes hold two each, the first and last of a block
# not canonical but in the second block. Blocks of 129 bytes also take in the
# line each read ends in: three lines, three and two.
FIRST_AND_LAST = b"".join(
    (sized_line(tid, 63, kind != "r")[:-1] + (b"]" if kind == "m" else b"}")) + b"\n"
    for tid, kind in zip("abcdefgh", "rrcrrccm"))

A64 = sized_line("a", 63) + b"\n"

# Theorems files with a block edge where the id says, at a block size: the
# lines in each block, the theorem ids parsed and the malformed line numbers.
# A read that ends inside a line takes the rest of that line into its block.
BLOCK_EDGE_CASES = [
    pytest.param(64, cr_ends_a_read(64), [1, 1], [padded("a", 63), padded("b", 62)], [],
                 id="cr_ends_a_read_64"),
    pytest.param(128, cr_ends_a_read(128), [1, 1], [padded("a", 127), padded("b", 126)],
                 [], id="cr_ends_a_read_128"),
    pytest.param(64, A + b"\n" + sized_line("c", 300) + b"\n" + B + b"\n", [2, 1],
                 ["a", padded("c", 300), "b"], [], id="line_longer_than_block_64"),
    pytest.param(128, A + b"\n" + sized_line("c", 300) + b"\n" + B + b"\n", [2, 1],
                 ["a", padded("c", 300), "b"], [], id="line_longer_than_block_128"),
    pytest.param(128, FIRST_AND_LAST, [2, 2, 2, 2],
                 [padded(t, 63) for t in "abcdefg"], [8], id="not_canonical_first_and_last"),
    pytest.param(129, FIRST_AND_LAST, [3, 3, 2],
                 [padded(t, 63) for t in "abcdefg"], [8], id="not_canonical_after_a_cut"),
    pytest.param(64, A64 + sized_line("b", 70), [1, 1], [padded("a", 63), padded("b", 70)], [],
                 id="last_line_canonical_without_lf"),
    pytest.param(64, A64 + sized_line("b", 70, canonical=False), [1, 1],
                 [padded("a", 63), padded("b", 70)], [], id="last_line_not_canonical_without_lf"),
    pytest.param(64, A64 + sized_line("b", 70)[:-1], [1, 1], [padded("a", 63)], [2],
                 id="last_line_malformed_without_lf"),
]


class TestBlockEdges:
    @pytest.mark.parametrize("block_bytes, data, counts, values, bad_lines", BLOCK_EDGE_CASES)
    def test_matches_loop_reference(self, tmp_path, monkeypatch, block_bytes, data, counts,
                                    values, bad_lines):
        monkeypatch.setattr(mathrank.corpus, "_CHUNK_BYTES", block_bytes)
        assert block_lines(data) == counts
        assert_matches_loop_reference(tmp_path, "theorems", data, values, bad_lines)


class TestParseEdgeCases:
    """Files of given bytes: the last key's values and malformed line numbers
    parsed, and records and reasons equal to the loop reference's."""

    @pytest.mark.parametrize("data, values, bad_lines", EDGE_CASES)
    def test_matches_loop_reference(self, tmp_path, data, values, bad_lines):
        assert_matches_loop_reference(tmp_path, "theorems", data, values, bad_lines)

    @pytest.mark.parametrize("table", ["theorem_citations", "paper_citations"])
    @pytest.mark.parametrize("data, values, bad_lines", EDGE_CASES)
    def test_citation_files_match_loop_reference(self, tmp_path, table, data, values,
                                                 bad_lines):
        assert_matches_loop_reference(tmp_path, table, data, values, bad_lines)

    @pytest.mark.parametrize("table", list(STRING_TABLES))
    @pytest.mark.parametrize("data, values, bad_lines", EDGE_CASES)
    def test_every_block_size_matches_loop_reference(self, tmp_path, monkeypatch, table, data,
                                                     values, bad_lines):
        for block_bytes in BLOCK_BYTES:
            monkeypatch.setattr(mathrank.corpus, "_CHUNK_BYTES", block_bytes)
            assert_matches_loop_reference(tmp_path, table, data, values, bad_lines)

    @pytest.mark.parametrize("table", list(STRING_TABLES))
    def test_line_numbers_across_chunks(self, tmp_path, table):
        # Lines of 128 bytes: a block holds the lines that end in its read,
        # per_chunk of them. Malformed lines (a "]" for the closing "}") are
        # the first and last of the first two blocks.
        index, keys, column = STRING_TABLES[table]
        per_chunk = _CHUNK_BYTES // 128
        n = 2 * per_chunk + 500
        stub = json.dumps({**dict.fromkeys(keys[:-1], "p1"), keys[-1]: ""})
        lines = [json.dumps({**dict.fromkeys(keys[:-1], "p1"),
                             keys[-1]: f"{i:0{127 - len(stub)}d}"}) for i in range(1, n + 1)]
        bad = [1, per_chunk, per_chunk + 1, 2 * per_chunk]
        for lineno in bad:
            lines[lineno - 1] = lines[lineno - 1][:-1] + "]"
        assert {len(line) for line in lines} == {127}
        paths = corpus_paths(tmp_path)
        write_empty(paths)
        write_lines(paths[index], lines)
        assert_block_lines(paths[index], [per_chunk, per_chunk, 500])
        records, errors = parse_corpus(*paths)
        assert [e.line_number for e in errors] == bad
        assert len(ObjectRecords.wrap(records).column(column)) == n - len(bad)
        assert (records, errors) == parse_corpus_loop(*paths)

    def test_deeply_nested_line_is_malformed(self, tmp_path):
        paths = corpus_paths(tmp_path)
        write_empty(paths)
        paths[1].write_bytes(A + b"\n" + b"[" * 200_000 + b"\n" + B + b"\n")
        records, errors = parse_corpus(*paths)
        assert list(ObjectRecords.wrap(records).column("theorem_id")) == ["a", "b"]
        assert errors == [MalformedLine(str(paths[1]), 2, "JSON nested too deeply")]
        # The per-line json.loads of the loop reference cannot parse it at all.
        with pytest.raises(RecursionError):
            parse_corpus_loop(*paths)

    @pytest.mark.parametrize("date", ["2020-06\n", "２０２０-０６", "٢٠٢٠-٠٦"])
    def test_date_must_be_ascii_year_month(self, tmp_path, date):
        paths = corpus_paths(tmp_path)
        write_empty(paths)
        write_lines(paths[0], [json.dumps({
            "paper_id": "p1", "msc_primary": "20", "author_ids": [],
            "first_version_date": date})])
        records, errors = parse_corpus(*paths)
        assert not ObjectRecords.wrap(records).column("paper_id")
        assert [e.reason for e in errors] == [f"expected YYYY-MM, got {date!r}"]


def paper_line(pid="p1", authors=("a",), date="2020-06", ensure_ascii=False):
    """A papers line as json.dumps writes it, the keys in order."""
    return json.dumps({"paper_id": pid, "msc_primary": "53", "author_ids": list(authors),
                       "first_version_date": date}, ensure_ascii=ensure_ascii).encode()


P = paper_line()
KEYS = b'"paper_id": "p1", "msc_primary": "53", '

# Papers files, the (paper id, author ids, year, month) rows parsed from them
# and the numbers of their malformed lines.
PAPER_EDGE_CASES = [
    pytest.param(paper_line(authors=()) + b"\n" + paper_line("p2", ("b",)) + b"\n"
                 + paper_line("p3", ("c", "a", "b")) + b"\n",
                 [("p1", (), 2020, 6), ("p2", ("b",), 2020, 6), ("p3", ("c", "a", "b"), 2020, 6)],
                 [], id="no_one_and_three_authors"),
    pytest.param(paper_line(authors=("",)) + b"\n" + paper_line("p2", ("", "")) + b"\n",
                 [("p1", ("",), 2020, 6), ("p2", ("", ""), 2020, 6)], [], id="empty_author_ids"),
    pytest.param(paper_line(authors=("a, b", "c")) + b"\n", [("p1", ("a, b", "c"), 2020, 6)], [],
                 id="author_holding_comma_space"),
    pytest.param(paper_line(authors=('a"b', 'c", "d')) + b"\n" + paper_line("p2", ("a\\b",))
                 + b"\n", [("p1", ('a"b', 'c", "d'), 2020, 6), ("p2", ("a\\b",), 2020, 6)], [],
                 id="quote_and_backslash_escapes"),
    pytest.param(b"{" + KEYS + b'"author_ids": ["\\u0041", "b"], '
                 b'"first_version_date": "2020-06"}\n',
                 [("p1", ("A", "b"), 2020, 6)], [], id="unicode_escape"),
    pytest.param(paper_line(authors=("\u00e9", "\U0001d538")) + b"\n"
                 + paper_line("p2", ("\u00e9", "\U0001d538"), ensure_ascii=True) + b"\n",
                 [("p1", ("\u00e9", "\U0001d538"), 2020, 6),
                  ("p2", ("\u00e9", "\U0001d538"), 2020, 6)], [], id="non_ascii_and_non_bmp"),
    pytest.param(b'{"author_ids": ["a"], "paper_id": "p1", "msc_primary": "53", '
                 b'"first_version_date": "2020-06"}\n' + paper_line("p2") + b"\n",
                 [("p1", ("a",), 2020, 6), ("p2", ("a",), 2020, 6)], [], id="reordered_keys"),
    pytest.param(P[:-1] + b', "extra": [1, {"x": 2}]}\n', [("p1", ("a",), 2020, 6)], [],
                 id="extra_key"),
    pytest.param(b"{" + KEYS + b'"author_ids": "a", "first_version_date": "2020-06"}\n'
                 + b"{" + KEYS + b'"author_ids": [1], "first_version_date": "2020-06"}\n'
                 + paper_line("p2") + b"\n", [("p2", ("a",), 2020, 6)], [1, 2],
                 id="author_ids_string_and_int_list"),
    pytest.param(b"{" + KEYS + b'"author_ids": ["a","b"], "first_version_date": "2020-06"}\n'
                 + b"{" + KEYS + b'"author_ids": [ "a" ], "first_version_date": "2020-06"}\n',
                 [("p1", ("a", "b"), 2020, 6), ("p1", ("a",), 2020, 6)], [],
                 id="list_spacing_not_canonical"),
    pytest.param(b"\n".join(paper_line(date=date) for date in (
                     "2020-1", "２０２０-０６", "2020-06-01", "2020-13", "0000-00")) + b"\n",
                 [("p1", ("a",), 2020, 13), ("p1", ("a",), 0, 0)], [1, 2, 3], id="dates"),
    pytest.param(P + b"\r\n" + paper_line("p2") + b"\r\n",
                 [("p1", ("a",), 2020, 6), ("p2", ("a",), 2020, 6)], [], id="crlf"),
    pytest.param(paper_line(authors=("a\rb",)).replace(b"\\r", b"\r") + b"\n"
                 + b"{" + KEYS + b'"author_ids": ["a"],\r"first_version_date": "2020-06"}\n',
                 [("p1", ("a",), 2020, 6)], [1], id="bare_cr_inside_value_and_between_tokens"),
    pytest.param(paper_line("p\u20281", ("a\u2028b",)) + b"\n",
                 [("p\u20281", ("a\u2028b",), 2020, 6)], [], id="u2028_inside_value"),
    pytest.param(P + b"\n" + paper_line(authors=("a",)).replace(b'"a"', b'"a\xff"') + b"\n"
                 + b"\xff" + P + b"\n", [("p1", ("a",), 2020, 6)], [2, 3], id="non_utf8_line"),
    pytest.param(P + b"\n" + P[:-12] + b"\n" + paper_line("p2")[:60],
                 [("p1", ("a",), 2020, 6)], [2, 3], id="truncated_lines"),
    pytest.param(b"\n \n" + P + b"\n\n", [("p1", ("a",), 2020, 6)], [], id="blank_lines"),
    pytest.param(b" \t" + P + b"\r\r\n" + "\u2028".encode() + P + b"\n",
                 [("p1", ("a",), 2020, 6)], [2], id="json_and_other_whitespace_around"),
    pytest.param(P[:-1] + b', "author_ids": ["z"]}\n', [("p1", ("z",), 2020, 6)], [],
                 id="duplicate_key"),
    pytest.param(P + b"\n" + paper_line(authors=("a", "b\ud800"), ensure_ascii=True) + b"\n"
                 + paper_line("p\udcff", ensure_ascii=True) + b"\n",
                 [("p1", ("a",), 2020, 6)], [2, 3], id="escaped_lone_surrogates"),
]


def paper_rows(records):
    return list(zip(ObjectRecords.wrap(records).column("paper_id"), records.author_ids,
                    records.year.tolist(), records.month.tolist()))


class TestParsePapers:
    """Papers files of given bytes: the rows and malformed line numbers
    parsed, and records and reasons equal to the loop reference's."""

    @pytest.mark.parametrize("data, rows, bad_lines", PAPER_EDGE_CASES)
    def test_matches_loop_reference(self, tmp_path, data, rows, bad_lines):
        paths = corpus_paths(tmp_path)
        write_empty(paths)
        paths[0].write_bytes(data)
        records, errors = parse_corpus(*paths)
        assert paper_rows(records) == rows
        assert [e.line_number for e in errors] == bad_lines
        assert (records, errors) == parse_corpus_loop(*paths)

    @pytest.mark.parametrize("data, rows, bad_lines", PAPER_EDGE_CASES)
    def test_every_block_size_matches_loop_reference(self, tmp_path, monkeypatch, data, rows,
                                                     bad_lines):
        for block_bytes in BLOCK_BYTES:
            monkeypatch.setattr(mathrank.corpus, "_CHUNK_BYTES", block_bytes)
            self.test_matches_loop_reference(tmp_path, data, rows, bad_lines)

    def test_line_numbers_across_chunks(self, tmp_path):
        # As for the tables of string fields: lines of 128 bytes, and the
        # first and last lines of the first two blocks malformed.
        per_chunk = _CHUNK_BYTES // 128
        n = 2 * per_chunk + 500
        # Author lists that json.dumps writes in 12 characters each.
        authors = [("a1", "a2"), ("abcdefgh",), ("", "", "")]
        stub = paper_line("", authors[0])
        lines = [paper_line(f"{i:0{127 - len(stub)}d}", authors[i % 3]).decode()
                 for i in range(1, n + 1)]
        bad = [1, per_chunk, per_chunk + 1, 2 * per_chunk]
        for lineno in bad:
            lines[lineno - 1] = lines[lineno - 1][:-1] + "]"
        assert {len(line) for line in lines} == {127}
        paths = corpus_paths(tmp_path)
        write_empty(paths)
        write_lines(paths[0], lines)
        assert_block_lines(paths[0], [per_chunk, per_chunk, 500])
        records, errors = parse_corpus(*paths)
        assert [e.line_number for e in errors] == bad
        assert len(ObjectRecords.wrap(records).column("paper_id")) == n - len(bad)
        assert (records, errors) == parse_corpus_loop(*paths)


# Per table: the file's index in corpus_paths and, per key, a valid value
# and one of the wrong type.
MIXED_FIELD_TABLES = {
    "papers": (0, {"paper_id": ("p1", 7), "msc_primary": ("53", None),
                   "author_ids": (["a"], ["a", 1]),
                   "first_version_date": ("2020-06", ["2020-06"])}),
    **{table: (index, dict(zip(keys, [("p1", 7), ("t1", None), ("p2", ["p2"]), ("t2", 1.5)])))
       for table, (index, keys, _) in STRING_TABLES.items()},
}


class TestFieldErrorOrder:
    @pytest.mark.parametrize("table", list(MIXED_FIELD_TABLES))
    def test_every_mix_of_missing_wrong_and_valid_matches_loop_reference(self, tmp_path, table):
        # One line per mix of, for each key, the key missing, its value of the
        # wrong type and its valid value. Compact separators keep every line
        # out of the canonical form, so each is read on its own.
        index, fields = MIXED_FIELD_TABLES[table]
        choices = [[{}, {key: wrong}, {key: valid}] for key, (valid, wrong) in fields.items()]
        lines = [json.dumps({k: v for item in mix for k, v in item.items()}, separators=(",", ":"))
                 for mix in itertools.product(*choices)]
        paths = corpus_paths(tmp_path)
        write_empty(paths)
        write_lines(paths[index], lines)
        records, errors = parse_corpus(*paths)
        assert len(errors) == len(lines) - 1 == 3 ** len(fields) - 1
        assert {e.reason.startswith("'") for e in errors} == {True, False}
        assert (records, errors) == parse_corpus_loop(*paths)


class TestRoundTrip:
    def test_write_then_parse_is_identity(self, tmp_path, rng):
        records = make_random_records(rng, n_papers=12, n_theorems=30)
        paths = corpus_paths(tmp_path)
        write_corpus(records, *paths)
        reparsed, errors = parse_corpus(*paths)
        assert not errors
        assert reparsed == records

    def test_round_trip_preserves_unicode(self, tmp_path):
        records = ObjectRecords.of(
            papers=[paper("p/é1", authors=("auteur-é",))],
            theorems=[theorem("p/é1", "théorème 1")])
        paths = corpus_paths(tmp_path)
        write_corpus(records, *paths)
        reparsed, errors = parse_corpus(*paths)
        assert not errors
        assert reparsed == records


class TestMemory:
    def test_parse_holds_each_id_once(self, tmp_path, rng):
        # Ids repeat: 1,000 paper ids and 5,000 theorem keys over ~23k rows.
        records = make_random_records(rng, n_papers=1_000, n_theorems=5_000,
                                      n_paper_citations=4_000, n_theorem_citations=12_500)
        paths = corpus_paths(tmp_path)
        write_corpus(records, *paths)
        parse_corpus(*paths)  # compiles the patterns, which then stay cached
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            parsed, errors = parse_corpus(*paths)
            gc.collect()  # empties the interpreter's free lists of tuples
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert not errors and parsed == records
        rows = sum(parsed.sizes)
        assert rows > 20_000
        # A string per id and row took about 200 bytes a row; the code arrays
        # take 8 to 32.
        assert held < 64 * rows
        strings = ObjectRecords.wrap(parsed)
        for names, ids in ((PAPER_ID_COLUMNS, parsed.paper_ids),
                           (THEOREM_ID_COLUMNS, parsed.theorem_ids)):
            assert len(set(ids)) == len(ids)
            for name in names:
                assert all(s is ids[k] for s, k in zip(strings.column(name),
                                                        getattr(parsed, name).tolist()))


class TestSnapshot:
    def test_year_2000_keeps_the_nineties(self):
        papers = [paper(f"p{y}", date=(y, m)) for y, m in
                  [(1991, 1), (1995, 6), (2000, 12)]]
        records = ObjectRecords.of(papers=papers)
        kept = snapshot_filter(records, 2000)
        assert len(kept.papers) == 3

    def test_january_next_year_excluded(self):
        records = ObjectRecords.of(papers=[paper("p1", date=(2001, 1))])
        assert not any(snapshot_filter(records, 2000).sizes)

    def test_year_before_everything_is_empty(self, tiny_records):
        assert not any(snapshot_filter(tiny_records, 1980).sizes)

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

    def test_keeps_the_records_type(self, rng):
        # The result is of the records' own type.
        records = make_random_records(rng, n_papers=20, n_theorems=50)
        plain = GraphRecords(**{f.name: getattr(records, f.name)
                                for f in dataclasses.fields(GraphRecords)})
        for year in (1995, 2005, 2030):
            kept, kept_plain = snapshot_filter(records, year), snapshot_filter(plain, year)
            assert type(kept) is ObjectRecords and type(kept_plain) is GraphRecords
            assert kept == kept_plain
            assert kept.paper_ids == kept_plain.paper_ids
            assert kept.theorem_ids == kept_plain.theorem_ids
            assert ([p.paper_id for p in kept.papers]
                    == list(ObjectRecords.wrap(kept_plain).column("paper_id")))

    def test_caches_only_the_theorem_keys(self, rng):
        # The snapshot reads the codes; only the theorem keys are cached.
        records = make_random_records(rng, n_papers=20, n_theorems=50)
        before = set(vars(records))
        snapshot_filter(records, 2005)
        assert set(vars(records)) - before == {"theorem_keys"}

    def test_never_dangling(self, rng):
        records = make_random_records(rng, n_papers=20, n_theorems=50)
        for year in (1995, 2000, 2005, 2010, 2020):
            report = validate_records(snapshot_filter(records, year))
            assert report.is_clean
