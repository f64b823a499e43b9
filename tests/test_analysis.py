import logging

import numpy as np
import pytest

import mathrank.analysis
from mathrank.analysis import (
    YEAR_DEGENERATE,
    YEAR_EMPTY,
    YEAR_NOT_CONVERGED,
    YEAR_OK,
    category_ratios,
    field_impact,
    field_series,
    impact_asymmetry,
    rank_entities,
)
from mathrank.build import BuildError, build_graph
from mathrank.corpus import snapshot_filter
from mathrank.fields import FIELD_NAMES
from mathrank.solver import (
    DegenerateLevelError,
    EmptyLevelError,
    Hyperparameters,
    ScoreState,
    compute_scores,
    normalize_matrices,
)

from conftest import paper, theorem
from loop_reference import rank_entities_loop, theorem_keys
from oracle import DenseSolver, build_dense, impact_double_sum
from record_objects import ObjectRecords, PaperCitation, TheoremCitation
from synthdata import (CODE_POOL, make_random_records, planted_ties_state, shuffled,
                       with_late_field)

HP = Hyperparameters()


def three_paper_graph():
    """Three same-field papers, no citations; score vectors set by hand."""
    records = ObjectRecords.of(
        papers=[paper("pa", msc="53"), paper("pb", msc="53"), paper("pc", msc="53")],
        theorems=[theorem("pa", "thm 1"), theorem("pb", "thm 1"),
                  theorem("pc", "thm 1")])
    return build_graph(records)


class TestRankEntities:
    def test_top_two_by_score(self):
        graph = three_paper_graph()
        state = ScoreState(np.array([0.2, 0.3, 0.5]), np.array([0.5, 0.3, 0.2]),
                           np.array([1.0]))
        table = rank_entities(graph, state, "paper", top_k=2)
        assert [(r.rank, r.entity_id) for r in table.rows] == [(1, "pa"), (2, "pb")]
        assert [r.score for r in table.rows] == [0.5, 0.3]

    def test_ties_break_lexicographically(self):
        graph = three_paper_graph()
        state = ScoreState(np.full(3, 1 / 3), np.full(3, 1 / 3), np.array([1.0]))
        table = rank_entities(graph, state, "paper", top_k=3)
        assert [r.entity_id for r in table.rows] == ["pa", "pb", "pc"]

    def test_theorem_rows_carry_owning_field(self):
        graph = three_paper_graph()
        state = ScoreState(np.array([0.6, 0.3, 0.1]), np.full(3, 1 / 3),
                           np.array([1.0]))
        table = rank_entities(graph, state, "theorem", top_k=1)
        (row,) = table.rows
        assert row.entity_id == "pa:thm 1"
        assert row.field == "DiffGeom"

    def test_grouped_by_field(self, rng):
        records = make_random_records(rng, n_papers=30, n_theorems=60)
        graph = build_graph(records)
        state, _ = compute_scores(graph, HP)
        table = rank_entities(graph, state, "paper", top_k=3, group_by_field=True)
        assert table.grouped
        per_field = {}
        for row in table.rows:
            per_field.setdefault(row.field, []).append(row)
        for name, rows in per_field.items():
            assert len(rows) <= 3
            assert [r.rank for r in rows] == list(range(1, len(rows) + 1))
            scores = [r.score for r in rows]
            assert scores == sorted(scores, reverse=True)
        # groups appear in canonical field order
        order = [name for name in graph.field_names
                 if any(r.field == name for r in table.rows)]
        seen = []
        for row in table.rows:
            if row.field not in seen:
                seen.append(row.field)
        assert seen == order

    def test_field_level_ranks_fields(self):
        graph = three_paper_graph()
        state = ScoreState(np.full(3, 1 / 3), np.full(3, 1 / 3), np.array([1.0]))
        table = rank_entities(graph, state, "field", top_k=5)
        assert [(r.entity_id, r.field) for r in table.rows] == [("DiffGeom", "DiffGeom")]

    def test_bad_top_k(self):
        graph = three_paper_graph()
        state = ScoreState(np.full(3, 1 / 3), np.full(3, 1 / 3), np.array([1.0]))
        with pytest.raises(ValueError):
            rank_entities(graph, state, "paper", top_k=0)

    def test_deterministic(self, rng):
        records = make_random_records(rng, n_papers=20, n_theorems=40)
        graph = build_graph(records)
        state, _ = compute_scores(graph, HP)
        t1 = rank_entities(graph, state, "theorem", top_k=10, group_by_field=True)
        t2 = rank_entities(graph, state, "theorem", top_k=10, group_by_field=True)
        assert t1 == t2


def tie_splitting_k(scores):
    """A top_k whose cut falls between two equal scores (None if none does)."""
    ordered = np.sort(scores)[::-1]
    splits = np.flatnonzero(ordered[1:] == ordered[:-1]) + 1
    return int(splits[0]) if splits.size else None


class TestRankEntitiesMatchesLoop:
    """The array ranking against the sort-everything loop it replaced."""

    @pytest.mark.parametrize("level", ["theorem", "paper", "field"])
    @pytest.mark.parametrize("group_by_field", [False, True])
    def test_random_graphs_with_planted_ties(self, rng, level, group_by_field):
        split_seen = False
        for n_values in (2, 3, 5, 1000):
            records = make_random_records(rng, n_papers=40, n_theorems=90)
            graph = build_graph(records)
            state = planted_ties_state(rng, graph, n_values)
            scores = {"theorem": state.u_t, "paper": state.u_p, "field": state.u_f}[level]
            n = scores.size
            split = tie_splitting_k(scores)
            split_seen |= split is not None
            for top_k in {1, n, n + 5, split or 1}:
                assert rank_entities(graph, state, level, top_k, group_by_field) == \
                    rank_entities_loop(graph, state, level, top_k, group_by_field)
        assert split_seen

    @pytest.mark.parametrize("group_by_field", [False, True])
    def test_label_order_differs_from_key_order(self, group_by_field):
        # ("a", "x") < ("a-b", "x") as keys, but "a-b:x" < "a:x" as labels.
        records = ObjectRecords.of(papers=[paper("a"), paper("a-b")],
                                   theorems=[theorem("a", "x"), theorem("a-b", "x")])
        graph = build_graph(records)
        assert theorem_keys(graph) == [("a", "x"), ("a-b", "x")]
        state = ScoreState(np.full(2, 0.5), np.full(2, 0.5), np.array([1.0]))
        for top_k in (1, 2, 3):
            table = rank_entities(graph, state, "theorem", top_k, group_by_field)
            assert [r.entity_id for r in table.rows] == ["a-b:x", "a:x"][:top_k]
            assert table == rank_entities_loop(graph, state, "theorem", top_k, group_by_field)

    def test_fields_tie_break_on_names(self):
        # Canonical order puts Algebra before AlgGeom; their names sort the other way.
        records = ObjectRecords.of(papers=[paper("pa", msc="06"), paper("pb", msc="11")],
                                   theorems=[theorem("pa", "x"), theorem("pb", "x")])
        graph = build_graph(records)
        assert graph.field_names == ("Algebra", "AlgGeom")
        state = ScoreState(np.full(2, 0.5), np.full(2, 0.5), np.full(2, 0.5))
        table = rank_entities(graph, state, "field", top_k=1)
        assert [r.entity_id for r in table.rows] == ["AlgGeom"]
        assert table == rank_entities_loop(graph, state, "field", top_k=1)

    def test_unknown_level(self):
        graph = three_paper_graph()
        state = ScoreState(np.full(3, 1 / 3), np.full(3, 1 / 3), np.array([1.0]))
        with pytest.raises(ValueError, match="unknown level"):
            rank_entities(graph, state, "author")


class TestFieldImpact:
    def test_no_citations_zero_matrix(self):
        graph = three_paper_graph()
        norm = normalize_matrices(graph)
        impact = field_impact(graph, norm, np.full(3, 1 / 3))
        np.testing.assert_array_equal(impact.values, np.zeros((1, 1)))

    def test_single_citation_puts_citer_score_on_pair(self):
        # pb (Probability) cites pa (DiffGeom); pb's only citation, so the
        # normalized weight is 1 and the impact entry is u_p(pb) = 0.4.
        records = ObjectRecords.of(
            papers=[paper("pa", msc="53", authors=("a1",)),
                    paper("pb", msc="60", authors=("b1",))],
            theorems=[theorem("pa", "thm 1")],
            paper_citations=[PaperCitation("pb", "pa")])
        graph = build_graph(records)
        norm = normalize_matrices(graph)
        impact = field_impact(graph, norm, np.array([0.6, 0.4]))
        assert graph.field_names == ("DiffGeom", "Probability")
        np.testing.assert_allclose(impact.values, [[0.0, 0.4], [0.0, 0.0]])

    def test_matches_double_sum_on_random_graphs(self, rng):
        for _ in range(15):
            records = make_random_records(
                rng, n_papers=int(rng.integers(2, 21)), n_theorems=10)
            graph = build_graph(records)
            norm = normalize_matrices(graph)
            u_p = rng.random(graph.n_papers)
            u_p /= u_p.sum()
            impact = field_impact(graph, norm, u_p)
            ref = build_dense(records)
            solver = DenseSolver(ref, *(0.5, 0.5, 0.1, 0.5))
            expected = impact_double_sum(solver.Pn, list(u_p), ref.phi_PF,
                                         len(ref.field_names))
            np.testing.assert_allclose(impact.values, expected, atol=1e-12)

    def test_column_mass_identity(self, rng):
        for _ in range(10):
            records = make_random_records(rng, n_papers=15, n_theorems=10)
            graph = build_graph(records)
            norm = normalize_matrices(graph)
            state, _ = compute_scores(graph, HP)
            impact = field_impact(graph, norm, state.u_p)
            # Mass received per citing field equals the summed scores of its
            # papers that cite anything.
            cites_something = graph.p_matrix.column_sums() > 0
            for f in range(graph.n_fields):
                papers_in_f = np.flatnonzero(graph.paper_field == f)
                expected = state.u_p[papers_in_f][cites_something[papers_in_f]].sum()
                assert abs(impact.values[:, f].sum() - expected) < 1e-12

    def test_expand_canonical_embeds_populated_fields(self):
        records = ObjectRecords.of(
            papers=[paper("pa", msc="53", authors=("a1",)),
                    paper("pb", msc="60", authors=("b1",))],
            theorems=[theorem("pa", "thm 1")],
            paper_citations=[PaperCitation("pb", "pa")])
        graph = build_graph(records)
        impact = field_impact(graph, normalize_matrices(graph), np.array([0.6, 0.4]))
        full = impact.expand_canonical()
        assert full.shape == (13, 13)
        i = FIELD_NAMES.index("DiffGeom")
        j = FIELD_NAMES.index("Probability")
        assert full[i, j] == pytest.approx(0.4)
        assert full.sum() == pytest.approx(0.4)


class TestImpactAsymmetry:
    def test_ratios_and_undefined(self):
        records = ObjectRecords.of(
            papers=[paper("pa", msc="53", authors=("a1",)),
                    paper("pb", msc="60", authors=("b1",))],
            theorems=[theorem("pa", "thm 1")],
            paper_citations=[PaperCitation("pb", "pa")])
        graph = build_graph(records)
        impact = field_impact(graph, normalize_matrices(graph), np.array([0.6, 0.4]))
        pairs = dict(((s, t), r) for s, t, r in impact_asymmetry(impact))
        # DiffGeom receives 0.4 from Probability; the reverse impact is zero,
        # so one direction is undefined and the other is 0/0.4 = 0.
        assert pairs[("DiffGeom", "Probability")] is None
        assert pairs[("Probability", "DiffGeom")] == 0.0

    def test_symmetric_matrix_gives_unit_ratios(self, rng):
        records = make_random_records(rng, n_papers=12, n_theorems=8)
        graph = build_graph(records)
        impact = field_impact(
            graph, normalize_matrices(graph), np.full(graph.n_papers, 1 / graph.n_papers))
        sym = impact.__class__(impact.field_indices,
                               impact.values + impact.values.T + 1.0)
        for _, _, ratio in impact_asymmetry(sym):
            assert ratio == pytest.approx(1.0)


class TestFieldSeries:
    def test_single_year_equals_direct_run(self, rng):
        records = make_random_records(rng, n_papers=12, n_theorems=25)
        fs = field_series(records, [2023], HP)
        graph = build_graph(snapshot_filter(records, 2023))
        state, _ = compute_scores(graph, HP)
        expected = np.zeros(13)
        expected[graph.field_indices] = state.u_f
        np.testing.assert_allclose(fs.scores[0], expected, atol=1e-15)
        assert fs.status == (YEAR_OK,)

    def test_scores_sum_to_one_per_populated_year(self, rng):
        records = make_random_records(rng, n_papers=25, n_theorems=50)
        fs = field_series(records, range(1995, 2024), HP)
        for scores, status in zip(fs.scores, fs.status):
            if status == YEAR_OK:
                assert abs(scores.sum() - 1.0) < 1e-12

    def test_empty_years_marked_absent(self):
        records = ObjectRecords.of(
            papers=[paper("p1", date=(2005, 3))],
            theorems=[theorem("p1", "thm 1")])
        fs = field_series(records, range(2003, 2007), HP)
        assert fs.status == (YEAR_EMPTY, YEAR_EMPTY, YEAR_OK, YEAR_OK)
        assert fs.scores[0] is None and fs.scores[2] is not None

    def test_field_appearing_late_scores_zero_before(self):
        # Probability enters the corpus in 2011 with p3, which is cited by
        # p2; before 2011 the field is entirely absent from the snapshot.
        records = ObjectRecords.of(
            papers=[paper("p1", msc="53", date=(2000, 1), authors=("a1",)),
                    paper("p2", msc="53", date=(2000, 6), authors=("a2",)),
                    paper("p3", msc="60", date=(2011, 1), authors=("a3",))],
            theorems=[theorem("p1", "thm 1"), theorem("p2", "thm 1"),
                      theorem("p3", "thm 1")],
            paper_citations=[PaperCitation("p2", "p1"), PaperCitation("p2", "p3")])
        fs = field_series(records, [2010, 2011], HP)
        prob = FIELD_NAMES.index("Probability")
        assert fs.scores[0][prob] == 0.0
        assert fs.scores[1][prob] > 0.0

    def test_non_converged_years_flagged_not_dropped(self, rng):
        records = make_random_records(rng, n_papers=20, n_theorems=40,
                                      n_paper_citations=50)
        hp = Hyperparameters(max_iterations=1)
        fs = field_series(records, [2023], hp)
        assert fs.status == (YEAR_NOT_CONVERGED,)
        assert fs.scores[0] is not None

    def test_empty_year_range_rejected(self, rng):
        records = make_random_records(rng)
        with pytest.raises(ValueError):
            field_series(records, [], HP)


def reference_series(records, years, hp):
    """(scores, status) per year from a snapshot, build and solve of its own."""
    out = []
    for year in years:
        try:
            graph = build_graph(snapshot_filter(records, year))
            state, report = compute_scores(graph, hp)
        except EmptyLevelError:
            out.append((None, YEAR_EMPTY))
            continue
        except DegenerateLevelError:
            out.append((None, YEAR_DEGENERATE))
            continue
        full = np.zeros(len(FIELD_NAMES))
        full[graph.field_indices] = state.u_f
        out.append((full, YEAR_OK if report.converged else YEAR_NOT_CONVERGED))
    return out


def record_calls(monkeypatch, name):
    """Replace ``mathrank.analysis.<name>`` by a wrapper that records its calls."""
    calls = []
    real = getattr(mathrank.analysis, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mathrank.analysis, name, recording)
    return calls


def assert_bitwise_reference(fs, records, hp):
    expected = reference_series(records, fs.years, hp)
    assert fs.status == tuple(status for _, status in expected)
    for year, got, (want, _) in zip(fs.years, fs.scores, expected):
        if want is None:
            assert got is None, year
        else:
            assert got.tobytes() == want.tobytes(), year


class TestFieldSeriesMatchesSnapshots:
    """field_series restricts one global build; the per-year loop in
    reference_series is the definition it must reproduce bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_corpora_bitwise(self, seed):
        # Some small early snapshots converge slowly; a lower cap keeps the
        # test fast and turns them into not_converged years.
        hp = Hyperparameters(max_iterations=500)
        rng = np.random.default_rng(seed)
        records = make_random_records(rng, n_papers=30, n_theorems=45)
        fs = field_series(records, range(1990, 2025), hp)
        assert fs.status[0] == YEAR_EMPTY and YEAR_OK in fs.status
        assert_bitwise_reference(fs, records, hp)

    def test_papers_out_of_id_order_bitwise(self, rng):
        # Each year's papers are taken by their rows in the papers table.
        records = shuffled(make_random_records(rng, n_papers=30, n_theorems=45), rng)
        paper_ids = records.column("paper_id")
        assert list(paper_ids) != sorted(paper_ids)
        hp = Hyperparameters(max_iterations=500)
        assert_bitwise_reference(field_series(records, range(1990, 2025), hp), records, hp)

    def test_not_converged_years_bitwise(self, rng):
        records = make_random_records(rng, n_papers=30, n_theorems=45)
        hp = Hyperparameters(max_iterations=1)
        fs = field_series(records, range(1990, 2025), hp)
        assert YEAR_NOT_CONVERGED in fs.status and YEAR_EMPTY in fs.status
        assert_bitwise_reference(fs, records, hp)

    def test_late_field_bitwise(self, rng):
        records = with_late_field(
            make_random_records(rng, n_papers=20, n_theorems=30,
                                code_pool=[c for c in CODE_POOL if c != "60"]),
            "60", 2019)
        fs = field_series(records, range(2010, 2025), HP)
        prob = FIELD_NAMES.index("Probability")
        ok = [(year, scores[prob]) for year, scores, status
              in zip(fs.years, fs.scores, fs.status) if status == YEAR_OK]
        before = [score for year, score in ok if year < 2019]
        after = [score for year, score in ok if year >= 2019]
        assert before and after and max(before) == 0.0 and min(after) > 0.0
        assert_bitwise_reference(fs, records, HP)

    def test_one_build_for_the_whole_series(self, rng, monkeypatch):
        calls = record_calls(monkeypatch, "build_graph")
        records = make_random_records(rng, n_papers=25, n_theorems=40)
        fs = field_series(records, range(1995, 2024), HP)
        assert len(fs.years) == 29
        assert len(calls) == 1


class TestFieldSeriesInputContract:
    """A fatal issue anywhere in the records fails the whole series, before
    any year is solved, whatever years are requested."""

    def test_duplicate_paper_after_last_year_raises(self, monkeypatch):
        records = ObjectRecords.of(
            papers=[paper("p1", date=(2000, 1)), paper("p2", date=(2001, 1)),
                    paper("p2", date=(2015, 1))],
            theorems=[theorem("p1", "thm 1"), theorem("p2", "thm 1")],
            paper_citations=[PaperCitation("p2", "p1")])
        solves = record_calls(monkeypatch, "compute_scores")
        with pytest.raises(BuildError, match="duplicate_paper.*p2"):
            field_series(records, range(1995, 2006), HP)
        assert solves == []

    def test_theorem_of_unknown_paper_raises(self, monkeypatch):
        records = ObjectRecords.of(
            papers=[paper("p1", date=(2000, 1)), paper("p2", date=(2001, 1))],
            theorems=[theorem("p1", "thm 1"), theorem("ghost", "thm 1")],
            paper_citations=[PaperCitation("p2", "p1")])
        solves = record_calls(monkeypatch, "compute_scores")
        with pytest.raises(BuildError, match="dangling_theorem.*ghost"):
            field_series(records, range(1995, 2006), HP)
        assert solves == []

    def test_dangling_and_self_citations_dropped_once(self, rng, caplog):
        base = make_random_records(rng, n_papers=20, n_theorems=30)
        p0, t0 = base.papers[0].paper_id, base.theorems[0]
        records = ObjectRecords.of(
            papers=base.papers,
            theorems=base.theorems,
            theorem_citations=base.theorem_citations + (
                TheoremCitation(t0.paper_id, t0.theorem_id, "nowhere", "thm 1"),
                TheoremCitation(t0.paper_id, t0.theorem_id, t0.paper_id, t0.theorem_id)),
            paper_citations=base.paper_citations + (
                PaperCitation(p0, "nowhere"), PaperCitation(p0, p0)))
        with caplog.at_level(logging.WARNING):
            fs = field_series(records, range(1990, 2025), HP)
        drops = [r for r in caplog.records if "invalid citation edges" in r.getMessage()]
        assert [r.getMessage() for r in drops] == ["dropping 4 invalid citation edges"]
        assert_bitwise_reference(fs, records, HP)


class TestCategoryRatios:
    def test_one_paper_per_field(self):
        codes = ["06", "11", "32", "19", "26", "31", "37",
                 "70", "60", "90", "65", "62", "99"]
        records = ObjectRecords.of(
            papers=[paper(f"p{i:02d}", msc=c, date=(1991, 1))
                    for i, c in enumerate(codes)])
        rs = category_ratios(records, range(1991, 1994))
        for ratios in rs.ratios:
            np.testing.assert_allclose(ratios, np.full(13, 1 / 13))

    def test_malformed_code_named(self):
        records = ObjectRecords.of(papers=[paper("p1", msc="53"), paper("p2", msc="5"),
                                            paper("p3", msc=None)])
        with pytest.raises(ValueError, match="bad subject code '5'"):
            category_ratios(records, [2000])

    def test_three_quarters(self):
        records = ObjectRecords.of(papers=[
            paper("p1", msc="53", date=(1995, 1)),
            paper("p2", msc="53", date=(1996, 1)),
            paper("p3", msc="53", date=(1999, 12)),
            paper("p4", msc="60", date=(2000, 12)),
        ])
        rs = category_ratios(records, [2000])
        diffgeom = FIELD_NAMES.index("DiffGeom")
        assert rs.ratios[0][diffgeom] == pytest.approx(0.75)

    def test_ratios_sum_to_one(self, rng):
        records = make_random_records(rng, n_papers=30, n_theorems=5)
        rs = category_ratios(records, range(1995, 2024))
        for ratios in rs.ratios:
            if ratios is not None:
                assert abs(ratios.sum() - 1.0) < 1e-12

    def test_years_without_papers_absent(self):
        records = ObjectRecords.of(papers=[paper("p1", date=(2000, 5))])
        rs = category_ratios(records, [1999, 2000])
        assert rs.ratios[0] is None
        assert rs.ratios[1] is not None

    def test_cumulative_numerators_non_decreasing(self, rng):
        records = make_random_records(rng, n_papers=40, n_theorems=5)
        rs = category_ratios(records, range(1991, 2024))
        totals = []
        for year, ratios in zip(rs.years, rs.ratios):
            count = sum(1 for p in records.papers
                        if p.first_version_date.year <= year)
            totals.append(count)
            if ratios is not None:
                numerators = ratios * count
                assert np.all(numerators >= -1e-9)
        assert totals == sorted(totals)
