import csv
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mathrank.build import build_graph
from mathrank.cli import main
from mathrank.corpus import write_corpus
from mathrank.fields import FIELD_NAMES
from mathrank.records import GraphRecords, PaperCitation
from mathrank.solver import Hyperparameters, compute_scores, normalize_matrices
from mathrank.sparsemat import SparseWeightMatrix
from mathrank.analysis import field_impact

from conftest import paper, theorem
from synthdata import make_random_records


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
        records = GraphRecords(
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
        result = runner.invoke(main, ["build", *corpus_args(tmp_path, GraphRecords()),
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
        by_id = {graph.paper_ids[i]: state.u_p[i] for i in range(graph.n_papers)}
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

    def test_alternative_hyperparameters_accepted(self, tmp_path, runner,
                                                  solvable_records):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "rank", *corpus_args(tmp_path, solvable_records),
            "--out-dir", str(out), "--alpha-t", "0.85"])
        assert result.exit_code == 0, result.output

    def test_invalid_corpus_exits_two(self, tmp_path, runner):
        records = GraphRecords(papers=[paper("p1"), paper("p1")],
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
        records = GraphRecords(
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
        records = GraphRecords(
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
        cites_something = np.diff(graph.p_matrix.indptr) > 0
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

    def test_build_reports_deeply_nested_line(self, tmp_path, runner, tiny_records):
        args = corpus_args(tmp_path, tiny_records)
        append_line(args, "--thm-cites", b"[" * 200_000)
        out = tmp_path / "out"
        result = runner.invoke(main, ["build", *args, "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        thm_cites = args[args.index("--thm-cites") + 1]
        assert read_csv(out / "validation.csv")[1:] == [
            ["malformed_line", f"{thm_cites}:2: JSON nested too deeply"]]
