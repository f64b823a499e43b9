"""The columnar parse, validation and build against their loop-form reference
(``loop_reference.py``), on random corpora with defects of every kind."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import mathrank.corpus
import mathrank.records
from mathrank.build import BuildError, build_graph
from mathrank.cli import main
from mathrank.corpus import parse_corpus, snapshot_filter
from mathrank.records import (
    PAPER_ID_COLUMNS,
    THEOREM_ID_COLUMNS,
    GraphRecords,
    validate_records,
)

from conftest import dense
from loop_reference import (
    build_graph_loop,
    parse_corpus_loop,
    snapshot_filter_loop,
    theorem_keys,
    validate_records_loop,
)
from synthdata import CODE_POOL, make_random_records
from test_build import assert_same_graph
from test_cli import corpus_args

# Ids whose order differs between Python strings and numpy "U" arrays (which
# drop trailing NULs), or between code points and UTF-16 (non-BMP).
TRICKY_IDS = ["a", "a\x00", "a\x00b", "a-b", "a:b", "\uffff", "\U00010000", "\U0001d538", "é"]
THEOREM_IDS = ["thm 1", "thm 2", "thm 10", "t\x00", "\U0001d538", "lemma"]
BAD_CODES = ["5", "4-", "123", "é1", ""]
BAD_DATES = ["2020-13", "0000-06", "2011-00"]
MALFORMED = [
    "not json", "[1, 2]", "{}", '{"a": 1} {"b": 2}', '{"a": 1},{"b": 2}',
    '{"paper_id": 7, "theorem_id": "x"}', '{"paper_id": 7}', '"str"',
]


def dirty_corpus(rng, fatal: bool) -> dict[str, list[str]]:
    """Lines of the four files. Without ``fatal`` the records' only defects
    are dangling and self citations (which the build drops); with it, any
    defect can appear, and malformed lines too."""

    def one(options):
        # By index: numpy would turn the strings into "U" and drop trailing NULs.
        return options[int(rng.integers(len(options)))]

    def some(options, size, replace=True):
        return [options[i] for i in rng.choice(len(options), size=size, replace=replace)]

    def pick(options, p_bad, bad):
        return one(bad) if fatal and rng.random() < p_bad else one(options)

    n = int(rng.integers(1, 20))
    pool = [f"p{i}" for i in range(n)] + TRICKY_IDS
    paper_ids = some(pool, n, replace=fatal)
    authors = [f"x{i}" for i in range(4)]
    dates = [f"{y}-{m:02d}" for y in (1995, 2000, 2020) for m in (1, 6, 12)]
    papers = [{
        "paper_id": pid,
        "msc_primary": pick(CODE_POOL, 0.2, BAD_CODES),
        "author_ids": some(authors, int(rng.integers(0, 4))),
        "first_version_date": pick(dates, 0.2, BAD_DATES),
    } for pid in paper_ids]
    theorem_papers = pool + ["ghost"] if fatal else paper_ids
    keys = sorted({(one(theorem_papers), one(THEOREM_IDS))
                   for _ in range(int(rng.integers(0, 30)))})
    theorems = [{"paper_id": p, "theorem_id": t} for p, t in keys]
    if fatal and keys:
        theorems += some(theorems, 2)
    rng.shuffle(theorems)

    def theorem_end():
        if keys and rng.random() < 0.85:
            return one(keys)
        return one(pool + ["ghost"]), one(THEOREM_IDS)

    tcs = []
    for _ in range(int(rng.integers(0, 60))):
        src = theorem_end()
        dst = src if rng.random() < 0.1 else theorem_end()
        tcs.append({"src_paper": src[0], "src_theorem": src[1],
                    "dst_paper": dst[0], "dst_theorem": dst[1]})
    ends = paper_ids + ["ghost", "a\x00\x00"]
    pcs = []
    for _ in range(int(rng.integers(0, 40))):
        src = one(ends)
        dst = src if rng.random() < 0.1 else one(ends)
        pcs.append({"src_paper": src, "dst_paper": dst})

    lines = {name: [json.dumps(r, ensure_ascii=bool(rng.integers(2))) for r in rows]
             for name, rows in (("papers", papers), ("theorems", theorems),
                                ("thm_cites", tcs), ("paper_cites", pcs))}
    if fatal:
        for rows in lines.values():
            for _ in range(int(rng.integers(0, 3))):
                rows.insert(int(rng.integers(len(rows) + 1)), one(MALFORMED))
    return lines


def write_files(tmp_path, lines):
    paths = [tmp_path / f"{name}.jsonl" for name in ("papers", "theorems", "thm_cites",
                                                     "paper_cites")]
    for path, name in zip(paths, ("papers", "theorems", "thm_cites", "paper_cites")):
        path.write_text("".join(line + "\n" for line in lines[name]), encoding="utf-8")
    return paths


@pytest.mark.parametrize("seed", range(40))
def test_random_dirty_corpus_matches_loop_reference(tmp_path, seed):
    rng = np.random.default_rng(seed)
    fatal = seed % 2 == 1
    paths = write_files(tmp_path, dirty_corpus(rng, fatal))
    records, errors = parse_corpus(*paths)
    ref_records, ref_errors = parse_corpus_loop(*paths)
    assert errors == ref_errors
    assert records == ref_records

    report = validate_records(records)
    assert report.issues == validate_records_loop(ref_records).issues
    if report.fatal_issues:
        with pytest.raises(BuildError) as got:
            build_graph(records)
        with pytest.raises(BuildError) as want:
            build_graph_loop(ref_records)
        assert str(got.value) == str(want.value)
    else:
        assert_same_graph(build_graph(records), build_graph_loop(ref_records))


@pytest.mark.parametrize("seed", range(40))
def test_snapshot_filter_matches_loop_reference_on_dirty_corpora(tmp_path, seed):
    # Dangling theorems and citations, self citations, duplicate papers and
    # theorems (odd seeds) and papers dated in year 0 or in month 0 or 13.
    records, _ = parse_corpus(*write_files(tmp_path, dirty_corpus(
        np.random.default_rng(seed), fatal=seed % 2 == 1)))
    for year in range(1990, 2025):
        snap, want = snapshot_filter(records, year), snapshot_filter_loop(records, year)
        assert snap == want
        # Numbered as from_columns numbers the kept columns.
        for name in ("paper_ids", "theorem_ids", "n_known_papers"):
            assert getattr(snap.codes, name) == getattr(want.codes, name)
        for name in PAPER_ID_COLUMNS + THEOREM_ID_COLUMNS:
            assert getattr(snap.codes, name).tolist() == getattr(want.codes, name).tolist()


@pytest.mark.parametrize("chunk_bytes", [None, 1, 7, 64, 127, 128, 129],
                         ids=["one_chunk", "block_1", "block_7", "a_chunk_a_line", "block_127",
                              "block_128", "block_129"])
@pytest.mark.parametrize("seed", range(40))
def test_parsed_ids_numbered_in_order_of_first_appearance(tmp_path, monkeypatch, seed,
                                                          chunk_bytes):
    if chunk_bytes:
        monkeypatch.setattr(mathrank.corpus, "_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(seed)
    paths = write_files(tmp_path, dirty_corpus(rng, seed % 2 == 1))
    records, errors = parse_corpus(*paths)
    assert (records, errors) == parse_corpus_loop(*paths)
    codes = records.codes
    for names, ids in ((PAPER_ID_COLUMNS, codes.paper_ids),
                       (THEOREM_ID_COLUMNS, codes.theorem_ids)):
        # The first table's ids first, as they first appear; each id once,
        # and only the ids some row holds.
        first = tuple(dict.fromkeys(getattr(records, names[0])))
        assert ids[:len(first)] == first
        assert len(set(ids)) == len(ids)
        assert set(ids) == set().union(*(getattr(records, name) for name in names))
        for name in names:
            assert tuple(ids[k] for k in getattr(codes, name).tolist()) == getattr(records, name)
    assert codes.n_known_papers == len(dict.fromkeys(records.paper_id))


@pytest.fixture(scope="module")
def perfbench_gen():
    """The benchmark's corpus generator, ``perfbench/gen.py``."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import gen
    return gen


def test_benchmark_corpora_match_loop_reference(tmp_path, perfbench_gen):
    # The rank workload's seed-3 corpus, clean and with defects of every kind.
    seed = 3
    corpus = perfbench_gen.make_corpus(seed, "rank")
    for dirty in (False, True):
        out = tmp_path / ("dirty" if dirty else "clean")
        perfbench_gen.write_corpus(out, corpus, seed, dirty)
        paths = [out / f"{name}.jsonl" for name in perfbench_gen.FILES]
        records, errors = parse_corpus(*paths)
        assert bool(errors) == dirty
        assert (records, errors) == parse_corpus_loop(*paths)


def test_clean_corpora_match_loop_reference(rng):
    for _ in range(10):
        records = make_random_records(rng, n_papers=int(rng.integers(1, 40)),
                                      n_theorems=int(rng.integers(0, 90)),
                                      author_pool_size=4)
        assert validate_records(records).is_clean
        assert_same_graph(build_graph(records), build_graph_loop(records))


def columns(**overrides):
    base = dict(paper_id=(), msc_primary=(), author_ids=(), year=(), month=(),
                theorem_paper=(), theorem_id=(), tc_src_paper=(), tc_src_theorem=(),
                tc_dst_paper=(), tc_dst_theorem=(), pc_src=(), pc_dst=())
    return GraphRecords.from_columns(**{**base, **overrides})


def two_papers(**overrides):
    return columns(paper_id=("p1", "p2"), msc_primary=("53", "60"),
                   author_ids=(("a",), ("b",)), year=(2000, 2001), month=(1, 2),
                   **overrides)


class TestValidationEdgeCases:
    def test_self_citation_of_unknown_theorem_is_only_a_self_citation(self):
        records = two_papers(tc_src_paper=("ghost",), tc_src_theorem=("t",),
                             tc_dst_paper=("ghost",), tc_dst_theorem=("t",))
        report = validate_records(records)
        assert [(i.kind, i.detail) for i in report.issues] == [
            ("self_citation", "theorem ghost:t cites itself")]
        assert report.issues == validate_records_loop(records).issues

    def test_duplicate_paper_with_bad_code_reports_both_in_order(self):
        records = columns(paper_id=("p1", "p1"), msc_primary=("53", "5"),
                          author_ids=((), ()), year=(2000, 2000), month=(1, 13))
        assert [(i.kind, i.detail) for i in validate_records(records).issues] == [
            ("duplicate_paper", "p1"),
            ("malformed_paper", "p1: bad subject code '5'"),
            ("malformed_paper", "p1: bad date 2000-13"),
        ]
        assert validate_records(records).issues == validate_records_loop(records).issues

    @pytest.mark.parametrize("code", [
        pytest.param(60, id="int"), pytest.param(None, id="none"),
        pytest.param(b"60", id="bytes"), pytest.param("6", id="one_character"),
        pytest.param("٦٠", id="arabic_indic_digits"), pytest.param("6\n", id="newline")])
    def test_subject_codes_that_are_not_two_ascii_characters(self, code):
        records = columns(paper_id=("p1",), msc_primary=(code,), author_ids=((),),
                          year=(2000,), month=(1,))
        assert [i.kind for i in validate_records(records).issues] == ["malformed_paper"]
        assert validate_records(records).issues == validate_records_loop(records).issues

    def test_duplicate_and_empty_author_lists(self):
        # p1 lists its one author twice and p3 lists none; p3 and p1 share
        # no author, p2 and p1 do.
        records = columns(
            paper_id=("p1", "p2", "p3"), msc_primary=("53", "53", "53"),
            author_ids=(("a", "a"), ("b", "a"), ()), year=(2000,) * 3, month=(1,) * 3,
            theorem_paper=("p1", "p2", "p3"), theorem_id=("t",) * 3,
            tc_src_paper=("p2", "p3"), tc_src_theorem=("t", "t"),
            tc_dst_paper=("p1", "p1"), tc_dst_theorem=("t", "t"),
            pc_src=("p2", "p3"), pc_dst=("p1", "p1"))
        graph = build_graph(records)
        assert_same_graph(graph, build_graph_loop(records))
        np.testing.assert_array_equal(dense(graph.p_matrix)[0], [0.0, 0.1, 1.0])

    def test_ids_sort_as_python_strings(self):
        ids = ("\U00010000", "a\x00", "\uffff", "a", "a\x00b")
        records = columns(
            paper_id=ids, msc_primary=("53",) * 5, author_ids=((),) * 5,
            year=(2000,) * 5, month=(1,) * 5,
            theorem_paper=ids + ("a",), theorem_id=("t\x00",) * 5 + ("t",),
            pc_src=ids[:4], pc_dst=ids[1:])
        assert validate_records(records).is_clean
        graph = build_graph(records)
        assert graph.paper_ids == tuple(sorted(ids))
        assert theorem_keys(graph) == sorted(zip(records.theorem_paper, records.theorem_id))
        assert_same_graph(graph, build_graph_loop(records))


@pytest.mark.parametrize("command", [
    ["rank"], ["impact"], ["series", "--from-year", "1995", "--to-year", "2023"]])
def test_validation_runs_once_per_command(tmp_path, rng, monkeypatch, command):
    records = make_random_records(rng, n_papers=12, n_theorems=30)
    calls = []
    find_issues = mathrank.records._find_issues

    def counted(records):
        calls.append(records)
        return find_issues(records)

    monkeypatch.setattr(mathrank.records, "_find_issues", counted)
    result = CliRunner().invoke(main, [*command, *corpus_args(tmp_path, records),
                                       "--out-dir", str(tmp_path / "out")])
    assert result.exit_code in (0, 1), result.output
    assert len(calls) == 1
