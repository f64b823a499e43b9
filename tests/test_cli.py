import csv
import errno
import gc
import io
import os
import string
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import mathrank.cli
from mathrank.build import build_graph
from mathrank.cli import main
from mathrank.corpus import parse_corpus
from mathrank.fields import FIELD_NAMES, field_index
from mathrank.solver import Hyperparameters, compute_scores, normalize_matrices
from mathrank.sparsemat import SparseWeightMatrix
from mathrank.analysis import field_impact

from conftest import paper, theorem
from loop_reference import csv_table_bytes, rank_entities_loop
from record_objects import ObjectRecords, PaperCitation, TheoremCitation
from synthdata import make_random_records, planted_ties_state, write_corpus


@pytest.fixture
def runner():
    return CliRunner()


def corpus_args(tmp_path, records, sub="corpus"):
    d = tmp_path / sub
    d.mkdir(exist_ok=True)
    paths = (d / "papers.jsonl", d / "theorems.jsonl",
             d / "thm_cites.jsonl", d / "paper_cites.jsonl")
    write_corpus(records, *paths)
    return ["--papers", str(paths[0]), "--theorems", str(paths[1]),
            "--thm-cites", str(paths[2]), "--paper-cites", str(paths[3])]


def break_first_theorem_line(args):
    """Put a byte that is not UTF-8 into line 1 of the theorems file."""
    theorems = Path(args[args.index("--theorems") + 1])
    theorems.write_bytes(theorems.read_bytes().replace(b"thm 1", b"thm \xff", 1))
    return theorems


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return list(csv.reader(rows))


def read_comments(path):
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if line.startswith("#")]


@pytest.fixture
def solvable_records(rng):
    return make_random_records(rng, n_papers=12, n_theorems=30,
                               n_paper_citations=25, n_theorem_citations=40)


class TestBuild:
    def test_valid_corpus(self, tmp_path, runner, tiny_records):
        out = tmp_path / "out"
        result = runner.invoke(main, ["build", *corpus_args(tmp_path, tiny_records),
                                      "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        summary = dict(read_csv(out / "summary.csv")[1:])
        assert summary["papers"] == "2"
        assert summary["theorems"] == "2"
        assert summary["paper_citations"] == "1"
        assert summary["papers_in.DiffGeom"] == "2"
        assert summary["papers_in.Algebra"] == "0"
        assert read_csv(out / "validation.csv") == [["kind", "detail"]]

    def test_dangling_edge_fails_and_names_edge(self, tmp_path, runner):
        records = ObjectRecords.of(
            papers=[paper("p1")],
            theorems=[theorem("p1", "thm 1")],
            paper_citations=[PaperCitation("p1", "nowhere")])
        out = tmp_path / "out"
        result = runner.invoke(main, ["build", *corpus_args(tmp_path, records),
                                      "--out-dir", str(out)])
        assert result.exit_code != 0
        rows = read_csv(out / "validation.csv")
        assert any(r[0] == "dangling_paper_citation" and "nowhere" in r[1]
                   for r in rows[1:])

    def test_non_utf8_line_exits_two_and_names_line(self, tmp_path, runner, tiny_records):
        args = corpus_args(tmp_path, tiny_records)
        theorems = break_first_theorem_line(args)
        out = tmp_path / "out"
        result = runner.invoke(main, ["build", *args, "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        rows = read_csv(out / "validation.csv")
        assert rows[1][0] == "malformed_line"
        assert rows[1][1].startswith(f"{theorems}:1: ")

    def test_empty_corpus_reports_empty_level(self, tmp_path, runner):
        out = tmp_path / "out"
        result = runner.invoke(main, ["build", *corpus_args(tmp_path, ObjectRecords.of()),
                                      "--out-dir", str(out)])
        assert result.exit_code != 0
        assert "empty level" in result.output

    def test_malformed_line_reported(self, tmp_path, runner, tiny_records):
        args = corpus_args(tmp_path, tiny_records)
        papers_path = args[1]
        with open(papers_path, "a", encoding="utf-8") as fh:
            fh.write("{broken json\n")
        out = tmp_path / "out"
        result = runner.invoke(main, ["build", *args, "--out-dir", str(out)])
        assert result.exit_code != 0
        rows = read_csv(out / "validation.csv")
        assert any(r[0] == "malformed_line" for r in rows[1:])

    def test_nul_in_issue_detail(self, tmp_path, runner):
        records = ObjectRecords.of(papers=[paper("p\x00"), paper("p\x00")],
                                   theorems=[theorem("p\x00", "x")])
        out = tmp_path / "out"
        result = runner.invoke(main, ["build", *corpus_args(tmp_path, records),
                                      "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        expected = io.StringIO()
        try:
            csv.writer(expected, lineterminator="\n").writerows(
                [["kind", "detail"], ["duplicate_paper", "p\x00"]])
        except csv.Error as exc:
            # Python 3.10's csv.writer refuses a NUL: one error line, before
            # the file is opened.
            assert result.output == f"error: cannot write a row to validation.csv: {exc}\n"
            assert not out.exists()
            return
        assert (out / "validation.csv").read_text(encoding="utf-8") == expected.getvalue()

    def test_csv_cannot_write_exits_two(self, tmp_path, runner, monkeypatch):
        # The duplicated id "p,1" is the validation detail, a cell to quote.
        records = ObjectRecords.of(papers=[paper("p,1"), paper("p,1")],
                                   theorems=[theorem("p,1", "x")])

        class Refusing:
            def __init__(self, fh, **kwargs):
                pass

            def writerow(self, row):
                raise csv.Error("need to escape, but no escapechar set")

            writerows = writerow

        monkeypatch.setattr(mathrank.cli.csv, "writer", Refusing)
        out = tmp_path / "out"
        result = runner.invoke(main, ["build", *corpus_args(tmp_path, records),
                                      "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output == ("error: cannot write a row to validation.csv: "
                                 "need to escape, but no escapechar set\n")
        assert not out.exists()


class TestRank:
    def test_singleton_corpus_scores_one(self, tmp_path, runner, singleton_records):
        out = tmp_path / "out"
        result = runner.invoke(main, ["rank", *corpus_args(tmp_path, singleton_records),
                                      "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        for level, entity in (("theorem", "p1:thm 1"), ("paper", "p1"),
                              ("field", "Probability")):
            rows = read_csv(out / f"rankings_{level}.csv")
            assert rows[0] == ["rank", "id", "field", "score"]
            assert rows[1] == ["1", entity, "Probability", "1"]

    def test_scores_match_library_defaults(self, tmp_path, runner, solvable_records):
        out = tmp_path / "out"
        result = runner.invoke(main, ["rank", *corpus_args(tmp_path, solvable_records),
                                      "--out-dir", str(out), "--top-k", "5"])
        assert result.exit_code == 0, result.output
        graph = build_graph(solvable_records)
        state, _ = compute_scores(graph, Hyperparameters())
        rows = read_csv(out / "rankings_paper.csv")[1:]
        assert len(rows) == 5
        by_id = dict(zip(graph.paper_ids, state.u_p))
        for _, pid, _, score in rows:
            assert float(score) == pytest.approx(by_id[pid], rel=1e-11)

    def test_group_by_field_rows(self, tmp_path, runner, solvable_records):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "rank", *corpus_args(tmp_path, solvable_records),
            "--out-dir", str(out), "--top-k", "2", "--group-by-field",
            "--level", "paper"])
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "rankings_paper.csv")[1:]
        per_field = {}
        for _, _, field, _ in rows:
            per_field[field] = per_field.get(field, 0) + 1
        assert all(count <= 2 for count in per_field.values())
        assert not (out / "rankings_theorem.csv").exists()

    def test_non_convergence_flags_and_exit_one(self, tmp_path, runner, solvable_records):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "rank", *corpus_args(tmp_path, solvable_records),
            "--out-dir", str(out), "--max-iter", "1"])
        assert result.exit_code == 1
        comments = read_comments(out / "rankings_paper.csv")
        assert comments and "not_converged" in comments[0]

    def test_invalid_hyperparameters_rejected_before_running(
            self, tmp_path, runner, solvable_records):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "rank", *corpus_args(tmp_path, solvable_records),
            "--out-dir", str(out), "--alpha-p", "0.95", "--beta-p", "0.05"])
        assert result.exit_code == 2
        assert not (out / "rankings_paper.csv").exists()

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tolerance_rejected(self, tmp_path, runner, solvable_records, tol):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "rank", *corpus_args(tmp_path, solvable_records),
            "--out-dir", str(out), "--tol", tol])
        assert result.exit_code == 2, result.output
        assert "tolerance must be positive and finite" in result.output
        assert not out.exists()

    def test_alternative_hyperparameters_accepted(self, tmp_path, runner,
                                                  solvable_records):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "rank", *corpus_args(tmp_path, solvable_records),
            "--out-dir", str(out), "--alpha-t", "0.85"])
        assert result.exit_code == 0, result.output

    def test_invalid_corpus_exits_two(self, tmp_path, runner):
        records = ObjectRecords.of(papers=[paper("p1"), paper("p1")],
                                   theorems=[theorem("p1", "thm 1")])
        result = runner.invoke(main, ["rank", *corpus_args(tmp_path, records),
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2

    def test_non_utf8_line_exits_two(self, tmp_path, runner, tiny_records):
        args = corpus_args(tmp_path, tiny_records)
        theorems = break_first_theorem_line(args)
        result = runner.invoke(main, ["rank", *args, "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"malformed line {theorems}:1: " in result.output

    def test_round_trip_precision(self, tmp_path, runner, solvable_records):
        out = tmp_path / "out"
        runner.invoke(main, ["rank", *corpus_args(tmp_path, solvable_records),
                             "--out-dir", str(out), "--top-k", "1000"])
        graph = build_graph(solvable_records)
        state, _ = compute_scores(graph, Hyperparameters())
        rows = read_csv(out / "rankings_theorem.csv")[1:]
        assert len(rows) == graph.n_theorems
        labels = {graph.theorem_label(i): state.u_t[i]
                  for i in range(graph.n_theorems)}
        for _, tid, _, score in rows:
            assert abs(float(score) - labels[tid]) <= 1e-11 * max(labels[tid], 1e-300)


RANK_LEVELS = ("theorem", "paper", "field")


def loop_rankings_bytes(graph, state, level, top_k, group_by_field):
    """A rankings file's header and rows as csv.writer writes the loop reference's table."""
    table = rank_entities_loop(graph, state, level, top_k, group_by_field)
    return csv_table_bytes(["rank", "id", "field", "score"],
                           [(r.rank, r.entity_id, r.field, format(r.score, ".12g"))
                            for r in table.rows])


@pytest.fixture
def planted_scores(request, monkeypatch):
    """Make ``rank`` write planted-tie scores in place of the solved ones,
    drawn from ``request.param`` distinct values (3 by default).

    The solver still runs, so its report (and the exit code) is real. Returns
    the list of (graph, state) pairs the command ranked.
    """
    n_values = getattr(request, "param", 3)
    solved = []
    real_compute_scores = mathrank.cli.compute_scores

    def compute_scores_with_ties(graph, hp):
        _, report = real_compute_scores(graph, hp)
        state = planted_ties_state(np.random.default_rng(len(solved)), graph, n_values)
        solved.append((graph, state))
        return state, report

    monkeypatch.setattr(mathrank.cli, "compute_scores", compute_scores_with_ties)
    return solved


class TestRankTablesMatchLoop:
    """Every rankings file byte for byte against the loop reference written by csv."""

    @pytest.mark.parametrize("level", [None, "paper"], ids=["all_levels", "paper"])
    @pytest.mark.parametrize("group_by_field", [False, True], ids=["flat", "grouped"])
    def test_planted_ties(self, tmp_path, runner, rng, planted_scores, level, group_by_field):
        records = make_random_records(rng, n_papers=30, n_theorems=70,
                                      n_paper_citations=60, n_theorem_citations=90)
        args = corpus_args(tmp_path, records)
        built = build_graph(records)
        flags = ["--group-by-field"] * group_by_field + ["--level", level] * bool(level)
        for top_k in (1, 3, built.n_fields, built.n_papers, built.n_theorems,
                      built.n_theorems + 5):
            out = tmp_path / f"out{top_k}"
            result = runner.invoke(main, ["rank", *args, "--out-dir", str(out),
                                          "--top-k", str(top_k), *flags])
            assert result.exit_code == 0, result.output
            graph, state = planted_scores[-1]
            for lvl in (level,) if level else RANK_LEVELS:
                assert (out / f"rankings_{lvl}.csv").read_bytes() == \
                    loop_rankings_bytes(graph, state, lvl, top_k, group_by_field)
            assert len(list(out.iterdir())) == (1 if level else 3)

    @pytest.mark.parametrize("group_by_field", [False, True], ids=["flat", "grouped"])
    def test_iteration_cap_comment_precedes_header(self, tmp_path, runner, rng,
                                                   planted_scores, group_by_field):
        records = make_random_records(rng, n_papers=30, n_theorems=70,
                                      n_paper_citations=60, n_theorem_citations=90)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "rank", *corpus_args(tmp_path, records), "--out-dir", str(out),
            "--top-k", "3", "--max-iter", "1", *["--group-by-field"] * group_by_field])
        assert result.exit_code == 1, result.output
        graph, state = planted_scores[-1]
        for level in RANK_LEVELS:
            comment, rest = (out / f"rankings_{level}.csv").read_bytes().split(b"\n", 1)
            assert comment.startswith(b"# not_converged after 1 iterations; residual ")
            assert rest == loop_rankings_bytes(graph, state, level, 3, group_by_field)


# Ids csv.writer must quote (a lone CR only on Python 3.13 and later), a
# non-BMP character, and "a"/"a-b", whose theorem labels order as "a-b:x" < "a:x".
QUOTING_IDS = ("p,1", 'p"2', "p\n3", "p\r4", "p\r\n5", "p\U0001F600", "a", "a-b")


class TestRankIdQuoting:
    # With a single score value every row ties, so the order is the ids' alone.
    @pytest.mark.parametrize("planted_scores", [1, 3], indirect=True,
                             ids=["one_value", "three_values"])
    @pytest.mark.parametrize("ids", [QUOTING_IDS, ("p\x00", "a")], ids=["quoting", "nul"])
    def test_ids_as_csv_writer_writes_them(self, tmp_path, runner, planted_scores, ids):
        codes = ("53", "11", "60")
        records = ObjectRecords.of(
            papers=[paper(pid, msc=codes[k % 3]) for k, pid in enumerate(ids)],
            theorems=[theorem(pid, tid) for pid in ids for tid in ("x", "t,1", 'y"')],
            theorem_citations=[TheoremCitation(src, "x", dst, "t,1")
                               for src, dst in zip(ids, ids[1:])],
            paper_citations=[PaperCitation(src, dst) for src, dst in zip(ids, ids[1:])])
        out = tmp_path / "out"
        result = runner.invoke(main, ["rank", *corpus_args(tmp_path, records),
                                      "--out-dir", str(out), "--top-k", "100"])
        graph, state = planted_scores[-1]
        try:
            expected = {level: loop_rankings_bytes(graph, state, level, 100, False)
                        for level in RANK_LEVELS}
        except csv.Error as exc:
            # Python 3.10's csv.writer refuses a NUL: the command exits 2 with
            # one error line, before it opens the file.
            assert result.exit_code == 2, result.output
            assert result.output == f"error: cannot write a row to rankings_theorem.csv: {exc}\n"
            assert not out.exists()
            return
        assert result.exit_code == 0, result.output
        for level in RANK_LEVELS:
            assert (out / f"rankings_{level}.csv").read_bytes() == expected[level]

    def test_id_csv_cannot_write_exits_two(self, tmp_path, runner, monkeypatch):
        # The theorem id "p,1:x" is the first cell to quote.
        def refuse(text):
            raise csv.Error("need to escape, but no escapechar set")

        monkeypatch.setattr(mathrank.cli, "_csv_cell", refuse)
        records = ObjectRecords.of(papers=[paper("p,1"), paper("p2")],
                                   theorems=[theorem("p,1", "x"), theorem("p2", "x")],
                                   paper_citations=[PaperCitation("p2", "p,1")])
        out = tmp_path / "out"
        result = runner.invoke(main, ["rank", *corpus_args(tmp_path, records),
                                      "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output == ("error: cannot write a row to rankings_theorem.csv: "
                                 "need to escape, but no escapechar set\n")
        assert not out.exists()


def quoting_corpus_records():
    """Papers with ids csv.writer must quote, over three fields and 2000-2002,
    with theorems, citations and a blank asymmetry ratio between them."""
    codes = ("53", "11", "60")
    return ObjectRecords.of(
        papers=[paper(pid, msc=codes[k % 3], date=(2000 + k % 3, 6))
                for k, pid in enumerate(QUOTING_IDS)],
        theorems=[theorem(pid, tid) for pid in QUOTING_IDS for tid in ("x", "t,1", 'y"')],
        theorem_citations=[TheoremCitation(src, "x", dst, "t,1")
                           for src, dst in zip(QUOTING_IDS, QUOTING_IDS[1:])],
        paper_citations=[PaperCitation(src, dst)
                         for src, dst in zip(QUOTING_IDS, QUOTING_IDS[1:])])


# Lines whose reasons hold a comma, double quotes and single quotes.
MALFORMED_PAPER_LINES = (
    '{"paper_id": "q1", "msc_primary": "53", "author_ids": ["a"], '
    '"first_version_date": "2000,\\"06"}\n'
    '{"paper_id": "q2" "msc_primary": "53"}\n')


class TestTablesMatchCsvWriter:
    """Every file of every command byte for byte as csv.writer writes its
    cells one row at a time, the cells formatted as the command's row format
    says."""

    def test_every_table(self, tmp_path, runner, monkeypatch):
        written = []
        write_tables = mathrank.cli._write_tables

        def recording(out_dir, tables, comments=(), warning=None):
            tables = list(tables)
            for name, header, row_format, columns in tables:
                assert len({len(column) for column in columns}) == 1
                specs = [spec for _, field, spec, _ in string.Formatter().parse(row_format)
                         if field is not None]
                rows = [[format(cell, spec) for cell, spec in zip(row, specs)]
                        for row in zip(*columns)]
                written.append((Path(out_dir) / name, csv_table_bytes(header, rows, comments)))
            write_tables(out_dir, tables, comments, warning)

        monkeypatch.setattr(mathrank.cli, "_write_tables", recording)
        records = quoting_corpus_records()
        clean = corpus_args(tmp_path, records, sub="clean,corpus")
        dirty = corpus_args(tmp_path, ObjectRecords.of(
            papers=[*records.papers, paper("p,1")],
            theorems=records.theorems,
            paper_citations=[*records.paper_citations, PaperCitation("p,1", 'q"9')]),
            sub="dirty,corpus")
        with open(dirty[1], "a", encoding="utf-8") as fh:
            fh.write(MALFORMED_PAPER_LINES)
        runs = [
            (["build", *dirty], 2),
            (["rank", *clean, "--top-k", "100"], 0),
            (["rank", *clean, "--top-k", "2", "--group-by-field", "--max-iter", "1"], 1),
            (["series", *clean, "--from-year", "1999", "--to-year", "2002"], 0),
            (["impact", *clean], 0),
            (["impact", *clean, "--max-iter", "1"], 1),
        ]
        for k, (args, code) in enumerate(runs):
            out = tmp_path / f"out{k}"
            written.clear()
            result = runner.invoke(main, [*args, "--out-dir", str(out)])
            assert result.exit_code == code, result.output
            assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p, _ in written)
            for path, expected in written:
                assert path.read_bytes() == expected, path.name
        validation = (tmp_path / "out0" / "validation.csv").read_text(encoding="utf-8")
        assert validation.count("malformed_line,") == 2
        assert "Expecting ',' delimiter" in validation
        assert "got '2000,\"\"06'" in validation


class TestUnusableOutDir:
    def test_out_dir_below_a_file_exits_two(self, tmp_path, runner, tiny_records):
        afile = tmp_path / "afile"
        afile.write_text("kept", encoding="utf-8")
        sub = afile / "sub"
        result = runner.invoke(main, ["build", *corpus_args(tmp_path, tiny_records),
                                      "--out-dir", str(sub)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        reason = NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(sub))
        assert result.output == f"error: cannot make the output directory: {reason}\n"
        assert afile.read_text(encoding="utf-8") == "kept"

    def test_output_file_that_is_a_directory_exits_two(self, tmp_path, runner,
                                                       solvable_records):
        out = tmp_path / "out"
        blocked = out / "rankings_paper.csv"
        blocked.mkdir(parents=True)
        result = runner.invoke(main, ["rank", *corpus_args(tmp_path, solvable_records),
                                      "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        reason = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(blocked))
        assert result.output == f"error: cannot write rankings_paper.csv: {reason}\n"
        assert not list(blocked.iterdir())
        assert [p.name for p in out.iterdir()] == ["rankings_paper.csv"]


class TestSeries:
    def test_row_count_and_sums(self, tmp_path, runner, solvable_records):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "series", *corpus_args(tmp_path, solvable_records),
            "--out-dir", str(out), "--max-iter", "1500",
            "--from-year", "1995", "--to-year", "2023"])
        # Sparse snapshot years can cycle instead of converging; that is
        # flagged per row and through the exit code, never dropped.
        assert result.exit_code in (0, 1), result.output
        rows = read_csv(out / "field_scores.csv")
        assert rows[0] == ["year", "status", *FIELD_NAMES]
        assert len(rows) - 1 == 29
        assert [row[0] for row in rows[1:]] == [str(y) for y in range(1995, 2024)]
        for row in rows[1:]:
            if row[1] in ("ok", "not_converged"):
                total = sum(float(c) for c in row[2:])
                assert abs(total - 1.0) < 1e-11
            else:
                assert all(c == "" for c in row[2:])
        if result.exit_code == 1:
            assert any(row[1] == "not_converged" for row in rows[1:])

    def test_single_year_matches_rank_field_scores(self, tmp_path, runner,
                                                   solvable_records):
        out1 = tmp_path / "series_out"
        out2 = tmp_path / "rank_out"
        args = corpus_args(tmp_path, solvable_records)
        r1 = runner.invoke(main, ["series", *args, "--out-dir", str(out1),
                                  "--from-year", "2023", "--to-year", "2023"])
        r2 = runner.invoke(main, ["rank", *args, "--out-dir", str(out2),
                                  "--level", "field", "--top-k", "13"])
        assert r1.exit_code == 0 and r2.exit_code == 0
        series_row = read_csv(out1 / "field_scores.csv")[1]
        scores_by_field = dict(zip(FIELD_NAMES, series_row[2:]))
        for _, fid, _, score in read_csv(out2 / "rankings_field.csv")[1:]:
            assert float(scores_by_field[fid]) == pytest.approx(float(score), rel=1e-11)

    def test_ratio_table(self, tmp_path, runner, solvable_records):
        out = tmp_path / "out"
        runner.invoke(main, ["series", *corpus_args(tmp_path, solvable_records),
                             "--out-dir", str(out), "--max-iter", "1500",
                             "--from-year", "1990", "--to-year", "2023"])
        rows = read_csv(out / "category_ratios.csv")
        assert rows[0] == ["year", "status", *FIELD_NAMES]
        # 1990 predates the corpus: marked, not dropped.
        assert rows[1][0] == "1990"
        assert rows[1][1] == "empty"
        for row in rows[1:]:
            if row[1] == "ok":
                assert abs(sum(float(c) for c in row[2:]) - 1.0) < 1e-11

    def test_bad_year_range(self, tmp_path, runner, solvable_records):
        result = runner.invoke(main, [
            "series", *corpus_args(tmp_path, solvable_records),
            "--out-dir", str(tmp_path / "o"),
            "--from-year", "2020", "--to-year", "2019"])
        assert result.exit_code == 2


class TestImpact:
    def test_citation_free_corpus_zero_matrix(self, tmp_path, runner):
        records = ObjectRecords.of(
            papers=[paper("p1", msc="53")],
            theorems=[theorem("p1", "thm 1")])
        out = tmp_path / "out"
        result = runner.invoke(main, ["impact", *corpus_args(tmp_path, records),
                                      "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "impact_matrix.csv")
        assert rows[0] == ["field", *FIELD_NAMES]
        assert len(rows) == 14
        for row in rows[1:]:
            assert all(float(v) == 0.0 for v in row[1:])

    def test_single_citation_entry(self, tmp_path, runner):
        records = ObjectRecords.of(
            papers=[paper("pa", msc="53", authors=("a1",)),
                    paper("pb", msc="60", authors=("b1",))],
            theorems=[theorem("pa", "thm 1"), theorem("pb", "thm 1")],
            paper_citations=[PaperCitation("pb", "pa")])
        out = tmp_path / "out"
        result = runner.invoke(main, ["impact", *corpus_args(tmp_path, records),
                                      "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        graph = build_graph(records)
        state, _ = compute_scores(graph, Hyperparameters())
        expected = field_impact(graph, normalize_matrices(graph), state.u_p)
        rows = read_csv(out / "impact_matrix.csv")
        matrix = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        np.testing.assert_allclose(matrix, expected.expand_canonical(), atol=1e-12)
        i = FIELD_NAMES.index("DiffGeom")
        j = FIELD_NAMES.index("Probability")
        assert matrix[i, j] == pytest.approx(float(state.u_p[1]), rel=1e-11)
        assert matrix.sum() == pytest.approx(matrix[i, j])

    def test_column_mass_identity_on_reread(self, tmp_path, runner, solvable_records):
        out = tmp_path / "out"
        result = runner.invoke(main, ["impact", *corpus_args(tmp_path, solvable_records),
                                      "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        graph = build_graph(solvable_records)
        state, _ = compute_scores(graph, Hyperparameters())
        rows = read_csv(out / "impact_matrix.csv")
        matrix = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        cites_something = graph.p_matrix.column_sums() > 0
        for local_f in range(graph.n_fields):
            canonical = graph.field_indices[local_f]
            papers_in_f = np.flatnonzero(graph.paper_field == local_f)
            expected = state.u_p[papers_in_f][cites_something[papers_in_f]].sum()
            # printed precision is 12 significant digits
            assert abs(matrix[:, canonical].sum() - expected) < 1e-11

    def test_asymmetry_file(self, tmp_path, runner, solvable_records):
        out = tmp_path / "out"
        runner.invoke(main, ["impact", *corpus_args(tmp_path, solvable_records),
                             "--out-dir", str(out)])
        rows = read_csv(out / "impact_asymmetry.csv")
        assert rows[0] == ["source", "target", "ratio"]
        for src, dst, ratio in rows[1:]:
            assert src != dst
            if ratio != "":
                assert float(ratio) >= 0.0

    def test_each_matrix_normalized_once(self, tmp_path, runner, solvable_records,
                                         monkeypatch):
        normalized = []
        column_sums = SparseWeightMatrix.column_sums

        def counted(matrix):
            normalized.append(id(matrix))
            return column_sums(matrix)

        monkeypatch.setattr(SparseWeightMatrix, "column_sums", counted)
        result = runner.invoke(main, ["impact", *corpus_args(tmp_path, solvable_records),
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert len(normalized) == 3 and len(set(normalized)) == 3


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path, runner, solvable_records):
        args = corpus_args(tmp_path, solvable_records)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            result = runner.invoke(main, ["rank", *args, "--out-dir", str(out)])
            assert result.exit_code == 0
        for name in ("rankings_theorem.csv", "rankings_paper.csv",
                     "rankings_field.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_series_and_impact_byte_identical(self, tmp_path, runner,
                                              solvable_records):
        args = corpus_args(tmp_path, solvable_records)
        outs = []
        for sub in ("s1", "s2"):
            out = tmp_path / sub
            r = runner.invoke(main, ["series", *args, "--out-dir", str(out),
                                     "--max-iter", "1500",
                                     "--from-year", "2000", "--to-year", "2010"])
            assert r.exit_code in (0, 1), r.output
            r = runner.invoke(main, ["impact", *args, "--out-dir", str(out)])
            assert r.exit_code == 0, r.output
            outs.append(out)
        for name in ("field_scores.csv", "category_ratios.csv",
                     "impact_matrix.csv", "impact_asymmetry.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def append_line(args, flag, line):
    with open(args[args.index(flag) + 1], "ab") as fh:
        fh.write(line + b"\n")


EXIT_PATHS = {
    "ok": (0, None),
    "iteration_cap": (1, None),
    "malformed_line": (2, lambda args: append_line(args, "--papers", b"{broken json")),
    "deeply_nested_line": (2, lambda args: append_line(args, "--thm-cites", b"[" * 200_000)),
    "non_utf8_line": (2, lambda args: append_line(
        args, "--theorems", b'{"paper_id": "p0001", "theorem_id": "thm \xff"}')),
    "fatal_record_issue": (2, lambda args: append_line(
        args, "--theorems", b'{"paper_id": "ghost", "theorem_id": "thm 1"}')),
    "dangling_citation": (2, lambda args: append_line(
        args, "--paper-cites", b'{"src_paper": "p0001", "dst_paper": "nowhere"}')),
}


# Two uncited papers in different fields: the field level's update is all zero.
DEGENERATE = ObjectRecords.of(
    papers=[paper("p1", msc="05"), paper("p2", msc="35")],
    theorems=[theorem("p1", "thm 1"), theorem("p2", "thm 1")])


class TestExitCodes:
    """0 on success, 1 only at the iteration cap, 2 for every kind of bad input."""

    @pytest.mark.parametrize("path", EXIT_PATHS)
    @pytest.mark.parametrize("command", [
        ["rank"], ["impact"], ["series", "--from-year", "2023", "--to-year", "2023"]],
        ids=["rank", "impact", "series"])
    def test_exit_code(self, tmp_path, runner, solvable_records, command, path):
        code, spoil = EXIT_PATHS[path]
        args = corpus_args(tmp_path, solvable_records)
        if spoil:
            spoil(args)
        if path == "iteration_cap":
            args += ["--max-iter", "1"]
        result = runner.invoke(main, [*command, *args, "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == code, result.output

    @pytest.mark.parametrize("command", ["rank", "impact"])
    def test_degenerate_level_exits_two(self, tmp_path, runner, command):
        result = runner.invoke(main, [command, *corpus_args(tmp_path, DEGENERATE),
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error: field level produced an all-zero update" in result.output

    def test_degenerate_year_marked_in_series(self, tmp_path, runner):
        out = tmp_path / "out"
        result = runner.invoke(main, ["series", *corpus_args(tmp_path, DEGENERATE),
                                      "--from-year", "2023", "--to-year", "2023",
                                      "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        assert read_csv(out / "field_scores.csv")[1][:2] == ["2023", "degenerate"]

    def test_build_reports_deeply_nested_line(self, tmp_path, runner, tiny_records):
        args = corpus_args(tmp_path, tiny_records)
        append_line(args, "--thm-cites", b"[" * 200_000)
        out = tmp_path / "out"
        result = runner.invoke(main, ["build", *args, "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        thm_cites = args[args.index("--thm-cites") + 1]
        assert read_csv(out / "validation.csv")[1:] == [
            ["malformed_line", f"{thm_cites}:2: JSON nested too deeply"]]


class TestLoneSurrogate:
    """A paper id holding a lone surrogate escape, which UTF-8 cannot encode,
    makes its line malformed, so no command writes it."""

    LINE = (b'{"paper_id": "p\\ud800", "msc_primary": "53", "author_ids": ["a1"], '
            b'"first_version_date": "2000-06"}')

    def spoiled_args(self, tmp_path, records):
        args = corpus_args(tmp_path, records)
        append_line(args, "--papers", self.LINE)
        papers = args[args.index("--papers") + 1]
        return args, f"{papers}:{len(records.papers) + 1}: field 'paper_id' holds a lone surrogate"

    @pytest.mark.parametrize("command", [
        ["rank"], ["impact"], ["series", "--from-year", "2000", "--to-year", "2001"]],
        ids=["rank", "impact", "series"])
    def test_command_exits_two_writing_nothing(self, tmp_path, runner, solvable_records,
                                               command):
        args, where = self.spoiled_args(tmp_path, solvable_records)
        out = tmp_path / "out"
        result = runner.invoke(main, [*command, *args, "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"malformed line {where}\n" in result.output
        assert not out.exists()

    def test_build_reports_malformed_line(self, tmp_path, runner, solvable_records):
        args, where = self.spoiled_args(tmp_path, solvable_records)
        out = tmp_path / "out"
        result = runner.invoke(main, ["build", *args, "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert read_csv(out / "validation.csv")[1:] == [["malformed_line", where]]


COMMANDS = {
    "rank": ["rank", "--top-k", "1000"],
    "build": ["build"],
    "series": ["series", "--from-year", "1990", "--to-year", "2024"],
    "impact": ["impact"],
}


class TestCollector:
    """A command leaves the cyclic collector as it found it and makes no
    reference cycles."""

    @pytest.fixture
    def large_args(self, tmp_path, rng):
        """A corpus large enough that its commands make many objects."""
        records = make_random_records(rng, n_papers=1200, n_theorems=3600,
                                      n_paper_citations=3600, n_theorem_citations=7200)
        return corpus_args(tmp_path, records)

    @pytest.mark.parametrize("path", ["ok", "iteration_cap", "malformed_line", "usage_error"])
    @pytest.mark.parametrize("caller", ["enabled", "disabled", "frozen"])
    def test_collector_left_as_found(self, tmp_path, runner, solvable_records, caller, path):
        args = corpus_args(tmp_path, solvable_records)
        code, spoil = EXIT_PATHS.get(path, (2, None))
        if spoil:
            spoil(args)
        if path == "iteration_cap":
            args += ["--max-iter", "1"]
        if path == "usage_error":
            args += ["--top-k", "0"]
        was_enabled = gc.isenabled()
        try:
            if caller == "disabled":
                gc.disable()
            if caller == "frozen":
                gc.freeze()
            before = gc.isenabled(), gc.get_freeze_count()
            assert before[1] > 0 if caller == "frozen" else before[1] == 0
            result = runner.invoke(main, ["rank", *args, "--out-dir", str(tmp_path / "out")])
            assert result.exit_code == code, result.output
            assert (gc.isenabled(), gc.get_freeze_count()) == before
        finally:
            gc.unfreeze()
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("spoiled", [False, True], ids=["valid", "malformed_line"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_makes_no_cycles(self, tmp_path, large_args, command, spoiled):
        if spoiled:
            append_line(large_args, "--papers", b"{broken json")
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            try:
                main.main([*COMMANDS[command], *large_args, "--out-dir", str(tmp_path / "out")],
                          prog_name="mathrank", standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code
            assert code == (2 if spoiled else 0)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


@pytest.mark.parametrize("command", ["rank", "series", "impact"])
def test_iteration_cap_above_maxsize_rejected(tmp_path, runner, solvable_records, command):
    out = tmp_path / "out"
    result = runner.invoke(main, [*COMMANDS[command], *corpus_args(tmp_path, solvable_records),
                                  "--out-dir", str(out), "--max-iter", str(sys.maxsize + 1)])
    assert result.exit_code == 2, result.output
    assert "max_iterations must be an integer" in result.output
    assert not out.exists()


class TestCommandsClassifyOnce:
    """Each command classifies each distinct subject code once: validation,
    the build, the summary and the ratios read one per-paper column."""

    @pytest.mark.parametrize("bad_code", [False, True], ids=["clean", "bad_code"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_field_index_once_per_code(self, tmp_path, runner, monkeypatch, solvable_records,
                                       command, bad_code):
        records = solvable_records
        if bad_code:
            records = ObjectRecords.of(records.papers + (paper("zz", msc="5"),), records.theorems,
                                       records.theorem_citations, records.paper_citations)
        args = corpus_args(tmp_path, records)
        calls = Counter()

        def counted(code):
            calls[code] += 1
            return field_index(code)

        for name, module in list(sys.modules.items()):
            if name.startswith("mathrank") and getattr(module, "field_index", None) is field_index:
                monkeypatch.setattr(module, "field_index", counted)
        result = runner.invoke(main, [*COMMANDS[command], *args, "--out-dir", str(tmp_path / "out")])
        assert (result.exit_code == 2) == bad_code, result.output
        assert calls == dict.fromkeys(records.msc_primary, 1)


class TestCommandsReadCodes:
    """The commands read ids as codes: none builds a string id column of
    its records. GraphRecords has no string form (``test_api.py`` pins
    that), so each command is handed its parsed records as ObjectRecords,
    which have one, and must not use it."""

    @pytest.mark.parametrize("issues", [False, True], ids=["clean", "issues"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_string_column_built(self, tmp_path, runner, monkeypatch, solvable_records,
                                    command, issues):
        records = solvable_records
        if issues:
            # Every kind of issue whose detail names ids.
            first, tc = records.papers[0], records.theorem_citations[0]
            records = ObjectRecords.of(
                papers=records.papers + (first,),
                theorems=records.theorems + (records.theorems[0], theorem("ghost", "thm 1")),
                theorem_citations=records.theorem_citations + (
                    TheoremCitation(tc.src_paper, tc.src_theorem, "ghost", "thm 9"),
                    TheoremCitation(tc.src_paper, tc.src_theorem, tc.src_paper, tc.src_theorem)),
                paper_citations=records.paper_citations + (
                    PaperCitation("ghost", first.paper_id),
                    PaperCitation(first.paper_id, first.paper_id)))
        args = corpus_args(tmp_path, records)
        free = runner.invoke(main, [*COMMANDS[command], *args, "--out-dir", str(tmp_path / "free")])

        def refuse(self, name):
            raise AssertionError("a command built a string column of its records")

        def parse_as_objects(*paths):
            records, malformed = parse_corpus(*paths)
            return ObjectRecords.wrap(records), malformed

        monkeypatch.setattr(mathrank.cli, "parse_corpus", parse_as_objects)
        monkeypatch.setattr(ObjectRecords, "column", refuse)
        result = runner.invoke(main, [*COMMANDS[command], *args,
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == free.exit_code, result.output
        assert (result.exit_code == 2) == issues
        free_dir = tmp_path / "free"
        assert (tmp_path / "out").exists() == free_dir.exists()
        for path in free_dir.iterdir() if free_dir.exists() else ():
            assert (tmp_path / "out" / path.name).read_bytes() == path.read_bytes()
        if command == "build" and issues:
            kinds = {row[0] for row in read_csv(tmp_path / "out" / "validation.csv")[1:]}
            assert kinds == {"duplicate_paper", "duplicate_theorem", "dangling_theorem",
                             "dangling_theorem_citation", "self_citation",
                             "dangling_paper_citation"}
