import logging

import numpy as np
import pytest

from mathrank.build import BuildError, build_field_matrix, build_graph, restrict_graph
from mathrank.corpus import parse_corpus, snapshot_filter
from mathrank.sparsemat import SparseWeightMatrix
from mathrank.records import (
    GraphRecords,
    PaperCitation,
    TheoremCitation,
)

import oracle
from conftest import dense, entries, paper, theorem
from loop_reference import paper_edge_weight, theorem_edge_weight, theorem_keys
from synthdata import CODE_POOL, make_random_records, shuffled, with_late_field, write_corpus

P_SHARED = paper("x1", authors=("a1", "a2"))
P_SHARED2 = paper("x2", authors=("a2", "a3"))
P_DISJOINT = paper("x3", authors=("z9",))
T1 = theorem("x1", "thm 1")
T2 = theorem("x1", "thm 2")
T3 = theorem("x3", "thm 1")


class TestWeightTiers:
    """Exhaustive cases of the piecewise weight definitions."""

    def test_theorem_no_citation(self):
        # x3's theorem cites x1's, not the other way round: that pair weighs 0.
        g = build_graph(GraphRecords(
            papers=[P_SHARED, P_DISJOINT], theorems=[T1, T3],
            theorem_citations=[TheoremCitation(*T3.key, *T1.key)]))
        np.testing.assert_array_equal(dense(g.t_matrix), [[0.0, 1.0], [0.0, 0.0]])

    def test_theorem_same_paper(self):
        assert theorem_edge_weight(T1, T2, P_SHARED, P_SHARED) == 0.05

    def test_theorem_cross_paper_shared_author(self):
        t_other = theorem("x2", "thm 1")
        assert theorem_edge_weight(T1, t_other, P_SHARED, P_SHARED2) == 0.1

    def test_theorem_cross_paper_disjoint_authors(self):
        assert theorem_edge_weight(T1, T3, P_SHARED, P_DISJOINT) == 1.0

    def test_paper_no_citation(self):
        g = build_graph(GraphRecords(
            papers=[P_SHARED, P_DISJOINT], theorems=[T1],
            paper_citations=[PaperCitation("x3", "x1")]))
        np.testing.assert_array_equal(dense(g.p_matrix), [[0.0, 1.0], [0.0, 0.0]])

    def test_paper_shared_author(self):
        assert paper_edge_weight(P_SHARED, P_SHARED2) == 0.1

    def test_paper_disjoint_authors(self):
        assert paper_edge_weight(P_SHARED, P_DISJOINT) == 1.0


class TestBuildSmall:
    def test_single_paper_no_citations(self, singleton_records):
        g = build_graph(singleton_records)
        assert g.n_theorems == 1 and g.n_papers == 1 and g.n_fields == 1
        assert all(m.values.size == 0 for m in (g.t_matrix, g.p_matrix, g.f_matrix))
        assert list(g.theorem_paper) == [0]
        assert list(g.paper_field) == [0]
        assert g.field_names == ("Probability",)

    def test_two_papers_one_citation_disjoint_authors(self):
        # p2 cites p1, same field, no shared authors: the matrix holds the
        # weight at (cited, citer) and the field matrix a single diagonal 1.
        records = GraphRecords(
            papers=[paper("p1", msc="53", authors=("a1",)),
                    paper("p2", msc="53", authors=("b1",))],
            theorems=[theorem("p1", "thm 1"), theorem("p2", "thm 1")],
            paper_citations=[PaperCitation("p2", "p1")])
        g = build_graph(records)
        assert entries(g.p_matrix) == [(0, 1, 1.0)]
        assert entries(g.f_matrix) == [(0, 0, 1.0)]

    def test_matrix_direction_theorem_level(self, tiny_records):
        # (p2, thm 1) cites (p1, thm 1): theorems sort as p1:thm1=0, p2:thm1=1,
        # so the entry sits at row 0 (cited), column 1 (citer).
        g = build_graph(tiny_records)
        assert entries(g.t_matrix) == [(0, 1, 1.0)]

    def test_shared_author_weights_in_matrices(self):
        records = GraphRecords(
            papers=[paper("p1", authors=("a1", "a2")), paper("p2", authors=("a2",))],
            theorems=[theorem("p1", "thm 1"), theorem("p2", "thm 1")],
            theorem_citations=[TheoremCitation("p2", "thm 1", "p1", "thm 1")],
            paper_citations=[PaperCitation("p2", "p1")])
        g = build_graph(records)
        assert entries(g.t_matrix) == [(0, 1, 0.1)]
        assert entries(g.p_matrix) == [(0, 1, 0.1)]

    def test_same_paper_theorem_citation_weight(self):
        records = GraphRecords(
            papers=[paper("p1")],
            theorems=[theorem("p1", "thm 1"), theorem("p1", "thm 2")],
            theorem_citations=[TheoremCitation("p1", "thm 1", "p1", "thm 2")])
        g = build_graph(records)
        assert entries(g.t_matrix) == [(1, 0, 0.05)]

    def test_duplicate_citations_collapse(self):
        records = GraphRecords(
            papers=[paper("p1", authors=("a1",)), paper("p2", authors=("b1",))],
            theorems=[theorem("p1", "thm 1")],
            paper_citations=[PaperCitation("p2", "p1"), PaperCitation("p2", "p1")])
        g = build_graph(records)
        assert g.p_matrix.values.size == 1

    def test_mappings_mutually_consistent(self, rng):
        records = make_random_records(rng, n_papers=15, n_theorems=40)
        g = build_graph(records)
        # Each paper's theorems are contiguous and its own; every field
        # holds a paper.
        owned = [np.flatnonzero(g.theorem_paper == p) for p in range(g.n_papers)]
        assert np.concatenate(owned).tolist() == list(range(g.n_theorems))
        keys, paper_ids = theorem_keys(g), g.paper_ids
        for p, theorems in enumerate(owned):
            assert all(keys[t][0] == paper_ids[p] for t in theorems)
        for f in range(g.n_fields):
            assert np.flatnonzero(g.paper_field == f).size > 0


class TestBuildErrors:
    def test_duplicate_paper_raises(self):
        records = GraphRecords(papers=[paper("p1"), paper("p1")])
        with pytest.raises(BuildError, match="duplicate_paper.*p1"):
            build_graph(records)

    def test_theorem_of_unknown_paper_raises(self):
        records = GraphRecords(theorems=[theorem("ghost", "thm 1")])
        with pytest.raises(BuildError, match="ghost"):
            build_graph(records)

    def test_dangling_edges_dropped_with_warning(self, caplog):
        records = GraphRecords(
            papers=[paper("p1"), paper("p2", authors=("b1",))],
            theorems=[theorem("p1", "thm 1")],
            paper_citations=[PaperCitation("p2", "p1"), PaperCitation("p2", "nowhere")])
        with caplog.at_level(logging.WARNING):
            g = build_graph(records)
        assert g.p_matrix.values.size == 1
        assert "dropping 1 invalid citation edges" in caplog.text

    def test_paper_code_is_papers_table_row(self, tmp_path, rng):
        # Papers out of id order, and dangling citations whose ids get codes
        # after the papers table's.
        records = make_random_records(rng, n_papers=12, n_theorems=30)
        first, second = records.papers[0].paper_id, records.papers[1].paper_id
        t = records.theorems[0]
        records = GraphRecords(
            papers=records.papers[::-1], theorems=records.theorems,
            theorem_citations=records.theorem_citations + (
                TheoremCitation("ghost", "thm 1", t.paper_id, t.theorem_id),),
            paper_citations=records.paper_citations + (
                PaperCitation("nowhere", first), PaperCitation(second, "elsewhere")))
        paths = [tmp_path / name for name in ("p", "t", "tc", "pc")]
        write_corpus(records, *paths)
        parsed, malformed = parse_corpus(*paths)
        assert not malformed
        for recs in (records, parsed):
            codes = recs.codes
            assert len(codes.paper_ids) == codes.n_known_papers + 3
            graph = build_graph(recs)
            assert graph.paper_ids == tuple(sorted(recs.paper_id))
            row = {pid: r for r, pid in enumerate(recs.paper_id)}
            assert graph.paper_code.tolist() == [row[pid] for pid in graph.paper_ids]

    def test_self_citation_dropped(self):
        records = GraphRecords(
            papers=[paper("p1")],
            theorems=[theorem("p1", "thm 1")],
            paper_citations=[PaperCitation("p1", "p1")])
        assert build_graph(records).p_matrix.values.size == 0


class TestFieldMatrix:
    def test_no_citations_zero_matrix(self, singleton_records):
        g = build_graph(singleton_records)
        assert g.f_matrix.values.size == 0

    def test_three_pairs_same_field_pair(self):
        # Three papers in field Analysis (42) each cited by a distinct paper
        # in field PDE (35): the (Analysis, PDE) count is 3 by enumeration.
        papers = (
            [paper(f"a{i}", msc="42", authors=(f"x{i}",)) for i in range(3)]
            + [paper(f"b{i}", msc="35", authors=(f"y{i}",)) for i in range(3)]
        )
        records = GraphRecords(
            papers=papers,
            theorems=[theorem("a0", "thm 1")],
            paper_citations=[PaperCitation(f"b{i}", f"a{i}") for i in range(3)])
        g = build_graph(records)
        local_analysis = list(g.field_names).index("Analysis")
        local_pde = list(g.field_names).index("PDE")
        assert dense(g.f_matrix)[local_analysis, local_pde] == 3.0
        expected = oracle.field_matrix_enumeration(
            dense(g.p_matrix).tolist(),
            list(g.paper_field), g.n_fields)
        np.testing.assert_array_equal(dense(g.f_matrix), expected)

    def test_matches_enumeration_on_random_graphs(self, rng):
        for _ in range(20):
            records = make_random_records(
                rng, n_papers=int(rng.integers(2, 25)),
                n_theorems=int(rng.integers(1, 40)))
            g = build_graph(records)
            expected = oracle.field_matrix_enumeration(
                dense(g.p_matrix).tolist(), list(g.paper_field), g.n_fields)
            np.testing.assert_array_equal(dense(g.f_matrix), expected)
            recomputed = build_field_matrix(g.paper_field, g.n_fields, g.p_matrix)
            np.testing.assert_array_equal(dense(recomputed), dense(g.f_matrix))

    def test_total_equals_collapsed_citation_pairs(self, rng):
        records = make_random_records(rng, n_papers=20, n_theorems=10)
        g = build_graph(records)
        assert dense(g.f_matrix).sum() == g.p_matrix.values.size


class TestDeterminism:
    def test_permutation_invariance(self, rng):
        records = make_random_records(rng, n_papers=18, n_theorems=45)
        g1 = build_graph(records)
        g2 = build_graph(shuffled(records, rng))
        assert theorem_keys(g1) == theorem_keys(g2)
        assert g1.paper_ids == g2.paper_ids
        np.testing.assert_array_equal(g1.field_indices, g2.field_indices)
        for a, b in ((g1.t_matrix, g2.t_matrix), (g1.p_matrix, g2.p_matrix),
                     (g1.f_matrix, g2.f_matrix)):
            assert a.values.tobytes() == b.values.tobytes()
            assert a.rowidx.tobytes() == b.rowidx.tobytes()
            assert a.colidx.tobytes() == b.colidx.tobytes()
        np.testing.assert_array_equal(g1.theorem_paper, g2.theorem_paper)
        np.testing.assert_array_equal(g1.paper_field, g2.paper_field)


class TestAgainstDenseOracle:
    def test_matrices_match_independent_build(self, rng):
        for _ in range(15):
            records = make_random_records(
                rng, n_papers=int(rng.integers(2, 30)),
                n_theorems=int(rng.integers(1, 80)))
            g = build_graph(records)
            ref = oracle.build_dense(records)
            assert theorem_keys(g) == ref.theorem_keys
            assert list(g.paper_ids) == ref.paper_ids
            assert list(g.field_names) == ref.field_names
            np.testing.assert_array_equal(dense(g.t_matrix), ref.T)
            np.testing.assert_array_equal(dense(g.p_matrix), ref.P)
            np.testing.assert_array_equal(dense(g.f_matrix), ref.F)
            assert list(g.theorem_paper) == ref.phi_TP
            assert list(g.paper_field) == ref.phi_PF

    def test_stored_weights_in_allowed_tiers(self, rng):
        seen_t, seen_p = set(), set()
        for _ in range(10):
            records = make_random_records(rng, n_papers=12, n_theorems=40)
            g = build_graph(records)
            seen_t.update(np.unique(g.t_matrix.values).tolist())
            seen_p.update(np.unique(g.p_matrix.values).tolist())
            assert np.all(g.f_matrix.values == np.round(g.f_matrix.values))
            assert np.all(g.f_matrix.values >= 1)
        assert seen_t <= {0.05, 0.1, 1.0}
        assert seen_p <= {0.1, 1.0}
        assert seen_t == {0.05, 0.1, 1.0}, "generator should exercise all tiers"
        assert seen_p == {0.1, 1.0}


def restriction_corpus(seed: int) -> GraphRecords:
    """Seed 0 has no theorems, seed 1 a field that first appears in 2019;
    the rest are random, with theoremless papers. Papers date from
    1991 to 2023, so 1990 and 2024 bracket them."""
    rng = np.random.default_rng(seed)
    if seed == 0:
        return make_random_records(rng, n_papers=12, n_theorems=0)
    if seed == 1:
        records = make_random_records(
            rng, n_papers=15, n_theorems=20, code_pool=[c for c in CODE_POOL if c != "60"])
        return with_late_field(records, "60", 2019)
    n_papers = int(rng.integers(2, 30))
    return make_random_records(
        rng, n_papers=n_papers, n_theorems=int(rng.integers(1, 2 * n_papers)))


def assert_same_graph(a, b):
    """Equal ids and labels in index order, and every array bitwise but the
    codes, which index each graph's own vocabularies; the codes too where
    both graphs hold the same vocabularies."""
    assert a.paper_ids == b.paper_ids
    keys = theorem_keys(a)
    assert keys == theorem_keys(b)
    everything = np.arange(a.n_theorems)
    assert a.theorem_labels(everything) == b.theorem_labels(everything) == [
        f"{paper_id}:{theorem_id}" for paper_id, theorem_id in keys]
    names = ["field_indices", "theorem_paper", "paper_field"]
    if (a.paper_vocab, a.theorem_vocab) == (b.paper_vocab, b.theorem_vocab):
        names += ["paper_code", "theorem_code"]
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    for name in ("t_matrix", "p_matrix", "f_matrix"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape, name
        for part in ("rowidx", "colidx", "values"):
            u, v = getattr(x, part), getattr(y, part)
            assert u.dtype == v.dtype and np.array_equal(u, v), (name, part)


class TestRestrictGraph:
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_build_of_snapshot_every_year(self, seed):
        records = restriction_corpus(seed)
        full = build_graph(records)
        year_of = {p.paper_id: p.first_version_date.year for p in records.papers}
        paper_year = np.array([year_of[pid] for pid in full.paper_ids])
        for year in range(1990, 2025):
            assert_same_graph(restrict_graph(full, paper_year <= year),
                              build_graph(snapshot_filter(records, year)))

    def test_late_field_absent_then_present(self):
        records = restriction_corpus(1)
        full = build_graph(records)
        late = np.array([pid == "q_late" for pid in full.paper_ids])
        before = restrict_graph(full, ~late)
        assert "Probability" not in before.field_names
        assert "Probability" in full.field_names
        assert before.n_fields == full.n_fields - 1

    def test_mask_length_must_match_papers(self, rng):
        full = build_graph(make_random_records(rng, n_papers=5, n_theorems=5))
        for mask in (np.ones(6, dtype=bool), np.arange(5), np.array([1.0, 0.5, 0, 0, 0])):
            with pytest.raises(ValueError, match="mask"):
                restrict_graph(full, mask)

    @pytest.mark.parametrize("seed", range(4))
    def test_shares_the_records_vocabularies(self, seed):
        records = restriction_corpus(seed)
        full = build_graph(records)
        keep = np.arange(full.n_papers) % 2 == 0
        for g in (full, restrict_graph(full, keep), restrict_graph(full, ~keep)):
            assert g.paper_vocab is records.codes.paper_ids
            assert g.theorem_vocab is records.codes.theorem_ids

    @pytest.mark.parametrize("seed", range(4))
    def test_graph_arrays_are_read_only(self, seed):
        full = build_graph(restriction_corpus(seed))
        keep = np.arange(full.n_papers) % 2 == 0
        for g in (full, restrict_graph(full, keep)):
            arrays = [g.paper_code, g.theorem_code, g.field_indices, g.theorem_paper,
                      g.paper_field]
            for m in (g.t_matrix, g.p_matrix, g.f_matrix):
                arrays += [m.rowidx, m.colidx, m.values]
            assert not any(a.flags.writeable for a in arrays)

    @pytest.mark.parametrize("seed", range(2, 8))
    def test_matrices_equal_from_arrays_of_their_entries(self, seed):
        full = build_graph(restriction_corpus(seed))
        rng = np.random.default_rng(seed)
        n = full.n_papers
        single = np.zeros(n, dtype=bool)
        single[rng.integers(n)] = True
        masks = [np.ones(n, dtype=bool), np.zeros(n, dtype=bool), single,
                 *(rng.random(n) < q for q in (0.2, 0.5, 0.8, 0.95))]
        for keep in masks:
            g = restrict_graph(full, keep)
            for m in (g.t_matrix, g.p_matrix):
                # from_arrays sorts, and rejects out-of-range and duplicate entries.
                ref = SparseWeightMatrix.from_arrays(m.shape, m.rowidx, m.colidx, m.values)
                assert ref.shape == m.shape
                for part in ("rowidx", "colidx", "values"):
                    u, v = getattr(m, part), getattr(ref, part)
                    assert u.dtype == v.dtype and np.array_equal(u, v), part
                    assert not u.flags.writeable
                # Column-major, rows ascending within a column, no duplicates.
                key = m.colidx * m.shape[0] + m.rowidx
                assert np.all(np.diff(key) > 0)
