import math
import re
import sys

import numpy as np
import pytest

from mathrank.build import build_graph
from mathrank.sparsemat import SparseWeightMatrix
from mathrank.solver import (
    ConvergenceReport,
    DegenerateLevelError,
    EmptyLevelError,
    Hyperparameters,
    ScoreState,
    compute_scores,
    init_state,
    iterate_once,
    normalize_matrices,
)

from conftest import dense, paper, stored, theorem
from loop_reference import compute_scores_loop, iterate_once_reduceat, residual
from oracle import DenseSolver, build_dense
from record_objects import ObjectRecords, PaperCitation, TheoremCitation
from synthdata import make_random_records

HP = Hyperparameters()


def states_side_by_side(records, hp, n_steps):
    """Step the engine and the dense reference in lockstep."""
    graph = build_graph(records)
    norm = normalize_matrices(graph)
    ref = DenseSolver(build_dense(records), hp.alpha_t, hp.alpha_p, hp.beta_p, hp.alpha_f)
    state = init_state(graph)
    ref_state = ref.init()
    pairs = [(state, ref_state)]
    for _ in range(n_steps):
        state = iterate_once(state, graph, norm, hp)
        ref_state = ref.step(ref_state)
        pairs.append((state, ref_state))
    return pairs


class TestHyperparameters:
    def test_defaults(self):
        assert (HP.alpha_t, HP.alpha_p, HP.beta_p, HP.alpha_f) == (0.6, 0.6, 0.05, 0.85)
        assert HP.tolerance == 1e-9
        assert HP.max_iterations == 10_000

    @pytest.mark.parametrize("kwargs", [
        {"alpha_t": 0.0}, {"alpha_t": 1.0}, {"alpha_t": -0.1}, {"alpha_t": 1.5},
        {"alpha_p": 0.0}, {"alpha_p": 1.0},
        {"beta_p": 0.0}, {"beta_p": 1.0},
        {"alpha_f": 0.0}, {"alpha_f": 1.0},
        {"alpha_p": 0.95, "beta_p": 0.05},   # sum exactly 1
        {"alpha_p": 0.9, "beta_p": 0.2},     # sum above 1
        {"tolerance": 0.0}, {"tolerance": -1e-9},
        {"tolerance": math.inf}, {"tolerance": math.nan},
        {"max_iterations": 0}, {"max_iterations": -1},
        {"max_iterations": 2.5}, {"max_iterations": 10.0}, {"max_iterations": "10"},
        {"max_iterations": True}, {"max_iterations": False}, {"max_iterations": None},
        {"max_iterations": sys.maxsize + 1},  # more than islice can count
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Hyperparameters(**kwargs)

    def test_largest_cap_accepted(self, rng):
        hp = Hyperparameters(max_iterations=sys.maxsize)
        _, report = compute_scores(build_graph(make_random_records(rng, n_papers=9, n_theorems=21)), hp)
        assert report.converged

    def test_integer_cap_of_any_integer_type(self, rng):
        """A numpy integer is a count; the solve runs to it."""
        hp = Hyperparameters(max_iterations=np.int64(3), tolerance=1e-300)
        _, report = compute_scores(build_graph(make_random_records(rng, n_papers=9, n_theorems=21)), hp)
        assert report.iterations == 3 and not report.converged

    def test_alternative_configuration_accepted(self):
        hp = Hyperparameters(alpha_t=0.85, alpha_p=0.6, beta_p=0.05, alpha_f=0.85)
        assert hp.alpha_t == 0.85


class TestColumnNormalize:
    def test_uniform_column(self):
        m = stored((2, 1), [0, 1], [0, 0], [1.0, 1.0])
        np.testing.assert_allclose(m.column_normalized.values, [0.5, 0.5])

    def test_tiered_column(self):
        m = stored((3, 1), [0, 1, 2], [0, 0, 0], [0.05, 0.1, 1.0])
        normalized = m.column_normalized.values
        np.testing.assert_allclose(
            normalized, np.array([0.05, 0.1, 1.0]) / 1.15, atol=1e-15)
        np.testing.assert_allclose(
            normalized, [0.04348, 0.08696, 0.86957], atol=5e-6)

    def test_zero_column_stays_zero(self):
        m = stored((2, 3), [0, 1], [0, 2], [2.0, 4.0])
        normalized = m.column_normalized
        matrix = dense(normalized)
        np.testing.assert_array_equal(matrix[:, 1], [0.0, 0.0])
        np.testing.assert_allclose(matrix.sum(axis=0), [1.0, 0.0, 1.0], atol=1e-12)

    def test_computed_once_per_matrix(self, rng):
        graph = build_graph(make_random_records(rng, n_papers=15, n_theorems=40))
        first, second = normalize_matrices(graph), normalize_matrices(graph)
        for matrix, a, b in zip((graph.t_matrix, graph.p_matrix, graph.f_matrix),
                                (first.t_norm, first.p_norm, first.f_norm),
                                (second.t_norm, second.p_norm, second.f_norm)):
            assert a is b is matrix.column_normalized

    def test_non_positive_weight_rejected_every_time(self):
        m = SparseWeightMatrix((1, 1), np.array([0]), np.array([0]), np.array([0.0]))
        for _ in range(2):
            with pytest.raises(ValueError, match="strictly positive"):
                m.column_normalized

    def test_nonzero_columns_sum_to_one(self, rng):
        for _ in range(10):
            records = make_random_records(rng, n_papers=15, n_theorems=40)
            norm = normalize_matrices(build_graph(records))
            for m in (norm.t_norm, norm.p_norm, norm.f_norm):
                sums = m.column_sums()
                stored = np.bincount(m.colidx, minlength=m.shape[1]) > 0
                np.testing.assert_allclose(sums[stored], 1.0, atol=1e-12)
                np.testing.assert_array_equal(sums[~stored], 0.0)


class TestInitState:
    def test_uniform_vectors(self):
        records = ObjectRecords.of(
            papers=[paper("p1", msc="53"), paper("p2", msc="53")],
            theorems=[theorem("p1", f"thm {i}") for i in range(1, 5)])
        state = init_state(build_graph(records))
        np.testing.assert_array_equal(state.u_t, [0.25] * 4)
        np.testing.assert_array_equal(state.u_p, [0.5] * 2)
        np.testing.assert_array_equal(state.u_f, [1.0])
        assert state.iteration == 0

    def test_thirteen_fields(self, rng):
        codes = ["06", "11", "32", "19", "26", "31", "37",
                 "70", "60", "90", "65", "62", "99"]
        records = ObjectRecords.of(
            papers=[paper(f"p{i}", msc=c) for i, c in enumerate(codes)],
            theorems=[theorem("p0", "thm 1")])
        state = init_state(build_graph(records))
        np.testing.assert_allclose(state.u_f, np.full(13, 1 / 13))

    def test_sums_to_one(self, rng):
        records = make_random_records(rng, n_papers=9, n_theorems=21)
        state = init_state(build_graph(records))
        for level in state.levels():
            assert abs(level.sum() - 1.0) < 1e-12

    def test_empty_theorem_level_rejected(self):
        records = ObjectRecords.of(papers=[paper("p1")])
        with pytest.raises(EmptyLevelError, match="theorem"):
            init_state(build_graph(records))

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyLevelError):
            init_state(build_graph(ObjectRecords.of()))


LEVELS = ("theorem", "paper", "field")
# Ways to spoil one level of a valid state: one entry set to NaN, +inf or a
# negative number, or the whole level negated.
BAD_SCORES = [
    pytest.param(lambda u: np.where(np.arange(u.size) == 0, np.nan, u), id="nan"),
    pytest.param(lambda u: np.where(np.arange(u.size) == u.size - 1, np.inf, u), id="inf"),
    pytest.param(lambda u: np.where(np.arange(u.size) == 0, -1e-300, u), id="negative"),
    pytest.param(lambda u: -u, id="negated"),
]


def state_with_bad_score(rng, level, bad):
    """A random graph and its uniform state with level ``level`` spoiled."""
    graph = build_graph(make_random_records(rng, n_papers=15, n_theorems=40))
    levels = list(init_state(graph).levels())
    levels[level] = bad(levels[level])
    return graph, ScoreState(*levels)


class TestIterateOnce:
    def test_singleton_stays_at_one(self, singleton_records):
        graph = build_graph(singleton_records)
        norm = normalize_matrices(graph)
        state = iterate_once(init_state(graph), graph, norm, HP)
        np.testing.assert_array_equal(state.u_t, [1.0])
        np.testing.assert_array_equal(state.u_p, [1.0])
        np.testing.assert_array_equal(state.u_f, [1.0])
        assert state.iteration == 1

    def test_mutual_citation_symmetry(self):
        records = ObjectRecords.of(
            papers=[paper("p1")],
            theorems=[theorem("p1", "thm 1"), theorem("p1", "thm 2")],
            theorem_citations=[
                TheoremCitation("p1", "thm 1", "p1", "thm 2"),
                TheoremCitation("p1", "thm 2", "p1", "thm 1"),
            ])
        graph = build_graph(records)
        assert sorted(graph.t_matrix.values.tolist()) == [0.05, 0.05]
        norm = normalize_matrices(graph)
        state = init_state(graph)
        for _ in range(5):
            state = iterate_once(state, graph, norm, HP)
            np.testing.assert_allclose(state.u_t, [0.5, 0.5], atol=1e-15)

    def test_matches_dense_reference_per_entry(self):
        # 2 fields, 3 papers, 4 theorems, one cross-paper theorem citation
        # and one paper citation.
        records = ObjectRecords.of(
            papers=[paper("p1", msc="53", authors=("a1",)),
                    paper("p2", msc="53", authors=("a2",)),
                    paper("p3", msc="60", authors=("a3",))],
            theorems=[theorem("p1", "thm 1"), theorem("p1", "thm 2"),
                      theorem("p2", "thm 1"), theorem("p3", "thm 1")],
            theorem_citations=[TheoremCitation("p2", "thm 1", "p1", "thm 1")],
            paper_citations=[PaperCitation("p3", "p2")])
        for state, ref_state in states_side_by_side(records, HP, n_steps=6):
            np.testing.assert_allclose(state.u_t, ref_state[0], atol=1e-12)
            np.testing.assert_allclose(state.u_p, ref_state[1], atol=1e-12)
            np.testing.assert_allclose(state.u_f, ref_state[2], atol=1e-12)

    def test_paper_with_no_theorems_contributes_zero_max(self):
        records = ObjectRecords.of(
            papers=[paper("p1", authors=("a1",)), paper("p2", authors=("a2",))],
            theorems=[theorem("p1", "thm 1")],
            paper_citations=[PaperCitation("p1", "p2")])
        for state, ref_state in states_side_by_side(records, HP, n_steps=4):
            np.testing.assert_allclose(state.u_p, ref_state[1], atol=1e-14)

    @pytest.mark.parametrize("theoremless", [("p2",), ("p5",), ("p2", "p4", "p5")],
                             ids=["middle", "last", "middle_and_last"])
    def test_theoremless_papers_in_middle_and_last_match_oracle(self, theoremless):
        # Papers without theorems sit between papers with theorems, after
        # them (trailing empty groups), or both; their strongest-theorem term
        # is zero and every other paper's maximum must stay its own.
        ids = ["p1", "p2", "p3", "p4", "p5"]
        owners = [pid for pid in ids if pid not in theoremless]
        records = ObjectRecords.of(
            papers=[paper(pid, msc=msc, authors=(f"a{pid}",))
                    for pid, msc in zip(ids, ["53", "60", "53", "60", "11"])],
            theorems=[theorem(pid, f"thm {k}") for pid in owners for k in (1, 2)],
            theorem_citations=[
                TheoremCitation(owners[-1], "thm 2", owners[0], "thm 1"),
                TheoremCitation(owners[0], "thm 1", owners[-1], "thm 1")],
            paper_citations=[PaperCitation("p5", "p1"), PaperCitation("p3", "p2"),
                             PaperCitation("p4", "p5")])
        for state, ref_state in states_side_by_side(records, HP, n_steps=6):
            for level, ref_level in zip(state.levels(), ref_state):
                np.testing.assert_allclose(level, ref_level, atol=1e-14)

    def test_random_theoremless_papers_match_oracle(self, rng):
        for _ in range(10):
            records = make_random_records(rng, n_papers=12, n_theorems=30)
            ids = sorted(p.paper_id for p in records.papers)
            # Always strip the last paper by id, plus a random few others.
            dropped = {ids[-1], *rng.choice(ids[:-1], size=3, replace=False)}
            theorems = [t for t in records.theorems if t.paper_id not in dropped]
            if not theorems:
                continue
            kept = {t.key for t in theorems}
            records = ObjectRecords.of(
                papers=records.papers, theorems=theorems,
                theorem_citations=[c for c in records.theorem_citations
                                   if c.src_key in kept and c.dst_key in kept],
                paper_citations=records.paper_citations)
            for state, ref_state in states_side_by_side(records, HP, n_steps=5):
                for level, ref_level in zip(state.levels(), ref_state):
                    np.testing.assert_allclose(level, ref_level, atol=1e-13)

    @pytest.mark.parametrize("theoremless", [(0,), (5, 6), (-1,), (0, 5, -1), ()],
                             ids=["first", "middle", "last", "first_middle_last", "none"])
    def test_bitwise_equal_to_reduceat_step(self, rng, theoremless):
        for _ in range(5):
            records = make_random_records(rng, n_papers=12, n_theorems=40)
            ids = sorted(p.paper_id for p in records.papers)
            dropped = {ids[k] for k in theoremless}
            theorems = [t for t in records.theorems if t.paper_id not in dropped]
            # Every paper outside ``dropped`` owns a theorem.
            owners = {t.paper_id for t in theorems}
            theorems += [theorem(pid, "extra") for pid in ids
                         if pid not in owners and pid not in dropped]
            kept = {t.key for t in theorems}
            records = ObjectRecords.of(
                papers=records.papers, theorems=theorems,
                theorem_citations=[c for c in records.theorem_citations
                                   if c.src_key in kept and c.dst_key in kept],
                paper_citations=records.paper_citations)
            graph = build_graph(records)
            owns = np.bincount(graph.theorem_paper, minlength=graph.n_papers) > 0
            assert [pid for pid, o in zip(graph.paper_ids, owns) if not o] == sorted(dropped)
            norm = normalize_matrices(graph)
            raw = [rng.random(n) for n in (graph.n_theorems, graph.n_papers, graph.n_fields)]
            for state in (init_state(graph), ScoreState(*[v / v.sum() for v in raw])):
                for _ in range(6):
                    new = iterate_once(state, graph, norm, HP)
                    ref = iterate_once_reduceat(state, graph, norm, HP)
                    assert new.iteration == ref.iteration
                    for level, ref_level in zip(new.levels(), ref.levels()):
                        assert level.tobytes() == ref_level.tobytes()
                    state = new

    def test_normalized_and_nonnegative_after_every_step(self, rng):
        for _ in range(5):
            records = make_random_records(rng, n_papers=12, n_theorems=30)
            graph = build_graph(records)
            norm = normalize_matrices(graph)
            state = init_state(graph)
            for _ in range(25):
                state = iterate_once(state, graph, norm, HP)
                for level in state.levels():
                    assert abs(level.sum() - 1.0) < 1e-12
                    assert np.all(level >= 0)

    def test_uniform_papers_give_pure_intra_level_field_update(self):
        # With every paper exactly at the uniform share, the excess term
        # vanishes and the field update reduces to its citation part.
        records = ObjectRecords.of(
            papers=[paper("p1", msc="53", authors=("a1",)),
                    paper("p2", msc="60", authors=("a2",)),
                    paper("p3", msc="60", authors=("a3",))],
            theorems=[theorem("p1", "thm 1"), theorem("p2", "thm 1"),
                      theorem("p3", "thm 1")],
            paper_citations=[PaperCitation("p2", "p1"), PaperCitation("p1", "p3"),
                             PaperCitation("p3", "p2")])
        graph = build_graph(records)
        norm = normalize_matrices(graph)
        u_f = np.array([0.7, 0.3])
        state = ScoreState(np.full(3, 1 / 3), np.full(3, 1 / 3), u_f)
        new = iterate_once(state, graph, norm, HP)
        citation_part = dense(norm.f_norm) @ u_f
        np.testing.assert_allclose(
            new.u_f, citation_part / citation_part.sum(), atol=1e-15)

    def test_degenerate_field_level_raises(self):
        # Two isolated papers in different fields, perfectly uniform scores:
        # no field receives citation or excess mass, which is degenerate.
        records = ObjectRecords.of(
            papers=[paper("p1", msc="53"), paper("p2", msc="60")],
            theorems=[theorem("p1", "thm 1"), theorem("p2", "thm 1")])
        graph = build_graph(records)
        norm = normalize_matrices(graph)
        with pytest.raises(DegenerateLevelError, match="field"):
            iterate_once(init_state(graph), graph, norm, HP)

    @pytest.mark.parametrize("level", range(3), ids=["theorem", "paper", "field"])
    @pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
    def test_mismatched_state_rejected(self, rng, level, delta):
        graph = build_graph(make_random_records(rng, n_papers=15, n_theorems=40))
        sizes = [graph.n_theorems, graph.n_papers, graph.n_fields]
        given = list(sizes)
        given[level] += delta
        state = ScoreState(*[np.full(n, 1.0 / n) for n in given])
        expected = (f"state has (theorem, paper, field) level shapes "
                    f"{tuple((n,) for n in given)}; the graph has {tuple(sizes)} entities")
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            iterate_once(state, graph, normalize_matrices(graph), HP)

    def test_empty_theorem_level_rejected(self):
        graph = build_graph(ObjectRecords.of(papers=[paper("p1")]))
        state = ScoreState(np.empty(0), np.array([1.0]), np.array([1.0]))
        with pytest.raises(EmptyLevelError, match="^theorem level is empty$"):
            iterate_once(state, graph, normalize_matrices(graph), HP)

    @pytest.mark.parametrize("level", range(3), ids=["theorem", "paper", "field"])
    @pytest.mark.parametrize("bad", BAD_SCORES)
    def test_non_finite_or_negative_state_rejected(self, rng, level, bad):
        graph, state = state_with_bad_score(rng, level, bad)
        expected = f"state has a non-finite or negative {LEVELS[level]} score"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            iterate_once(state, graph, normalize_matrices(graph), HP)


class TestConvergence:
    def test_identical_states_converge(self):
        s = ScoreState(np.array([0.5, 0.5]), np.array([1.0]), np.array([1.0]))
        assert residual(s, s) < HP.tolerance

    def test_two_nano_difference_is_not_converged(self):
        prev = ScoreState(np.array([0.5, 0.5]), np.array([1.0]), np.array([1.0]))
        new = ScoreState(np.array([0.5 + 1e-9, 0.5 - 1e-9]),
                         np.array([1.0]), np.array([1.0]))
        assert residual(prev, new) == pytest.approx(2e-9)
        assert not residual(prev, new) < HP.tolerance

    def test_max_of_small_differences_converges(self):
        prev = ScoreState(np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                          np.array([0.5, 0.5]))
        new = ScoreState(np.array([0.5 + 5e-11, 0.5 - 5e-11]),
                         np.array([0.5 + 2.5e-10, 0.5 - 2.5e-10]),
                         np.array([0.5 + 1e-10, 0.5 - 1e-10]))
        assert residual(prev, new) < HP.tolerance

    def test_dimension_mismatch_raises(self):
        a = ScoreState(np.array([1.0]), np.array([1.0]), np.array([1.0]))
        b = ScoreState(np.array([0.5, 0.5]), np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="mismatch"):
            residual(a, b)


class TestComputeScores:
    def test_singleton_converges_immediately(self, singleton_records):
        graph = build_graph(singleton_records)
        state, report = compute_scores(graph, HP)
        assert report.converged
        assert report.iterations <= 2
        np.testing.assert_array_equal(state.u_t, [1.0])
        np.testing.assert_array_equal(state.u_p, [1.0])
        np.testing.assert_array_equal(state.u_f, [1.0])

    def test_matches_dense_oracle_fixed_point(self, rng):
        codes = ["06", "11", "53", "60", "35"]  # five fields
        records = make_random_records(
            rng, n_papers=20, n_theorems=50, code_pool=codes,
            n_paper_citations=40, n_theorem_citations=70)
        graph = build_graph(records)
        state, report = compute_scores(graph, HP)
        assert report.converged
        ref = DenseSolver(build_dense(records), HP.alpha_t, HP.alpha_p,
                          HP.beta_p, HP.alpha_f)
        trajectory, ref_iters = ref.run(HP.tolerance, HP.max_iterations)
        assert ref_iters == report.iterations
        for engine_level, ref_level in zip(state.levels(), trajectory[-1]):
            np.testing.assert_allclose(engine_level, ref_level, atol=1e-8)

    def test_initialization_independence(self, rng):
        records = make_random_records(rng, n_papers=15, n_theorems=35)
        graph = build_graph(records)
        uniform_state, _ = compute_scores(graph, HP)
        raw = [rng.random(n) + 0.05 for n in
               (graph.n_theorems, graph.n_papers, graph.n_fields)]
        random_init = ScoreState(*[v / v.sum() for v in raw])
        random_state, report = compute_scores(graph, HP, initial_state=random_init)
        assert report.converged
        for a, b in zip(uniform_state.levels(), random_state.levels()):
            np.testing.assert_allclose(a, b, atol=1e-6)

    def test_non_convergence_flagged_not_raised(self, rng):
        records = make_random_records(rng, n_papers=15, n_theorems=35,
                                      n_paper_citations=30)
        graph = build_graph(records)
        hp = Hyperparameters(max_iterations=1)
        state, report = compute_scores(graph, hp)
        assert not report.converged
        assert report.iterations == 1
        assert isinstance(report, ConvergenceReport)
        assert report.residual >= hp.tolerance

    def test_residual_history_matches_final_residual(self, rng):
        records = make_random_records(rng, n_papers=10, n_theorems=20)
        _, report = compute_scores(build_graph(records), HP)
        assert report.residual == report.residual_history[-1]
        assert report.residual < HP.tolerance

    def test_residual_tail_roughly_monotone(self, rng):
        # Empirical sanity property, flagged rather than asserted: over the
        # last ten iterations before convergence the residual should be
        # non-increasing within a 10% band.
        import warnings

        for _ in range(10):
            records = make_random_records(rng, n_papers=14, n_theorems=35)
            _, report = compute_scores(build_graph(records), HP)
            if not report.converged or len(report.residual_history) < 11:
                continue
            tail = report.residual_history[-10:]
            violations = [
                (a, b) for a, b in zip(tail, tail[1:]) if b > 1.1 * a
            ]
            if violations:
                warnings.warn(
                    f"residual tail not monotone within 10%: {violations}")

    def test_permutation_equivariance(self, rng):
        records = make_random_records(rng, n_papers=12, n_theorems=30)
        state, _ = compute_scores(build_graph(records), HP)

        # Relabel papers in a way that reverses their sort order.
        n = len(records.papers)
        rename = {p.paper_id: f"q{n - 1 - i:04d}" for i, p in
                  enumerate(sorted(records.papers, key=lambda p: p.paper_id))}
        relabeled = ObjectRecords.of(
            papers=[paper_record.__class__(
                rename[paper_record.paper_id], paper_record.msc_primary,
                paper_record.author_ids, paper_record.first_version_date)
                for paper_record in records.papers],
            theorems=[t.__class__(rename[t.paper_id], t.theorem_id)
                      for t in records.theorems],
            theorem_citations=[
                c.__class__(rename[c.src_paper], c.src_theorem,
                            rename[c.dst_paper], c.dst_theorem)
                for c in records.theorem_citations],
            paper_citations=[c.__class__(rename[c.src], rename[c.dst])
                             for c in records.paper_citations],
        )
        relabeled_state, _ = compute_scores(build_graph(relabeled), HP)
        # Paper k sorts to position n-1-k after renaming.
        np.testing.assert_allclose(
            relabeled_state.u_p, state.u_p[::-1], atol=1e-8)


def assert_same_solve(graph, hp, initial_state=None):
    """compute_scores returns bitwise what the loop of steps returns, or
    raises the same DegenerateLevelError (report None)."""
    try:
        ref_state, ref_report = compute_scores_loop(graph, hp, initial_state)
    except DegenerateLevelError as exc:
        with pytest.raises(DegenerateLevelError) as got:
            compute_scores(graph, hp, initial_state=initial_state)
        assert str(got.value) == str(exc)
        return None
    state, report = compute_scores(graph, hp, initial_state=initial_state)
    assert state.iteration == ref_state.iteration == report.iterations
    for level, ref_level in zip(state.levels(), ref_state.levels()):
        assert level.dtype == ref_level.dtype and level.tobytes() == ref_level.tobytes()
        assert not level.flags.writeable
    assert report == ref_report
    return report


class TestPreparedLoop:
    # Caps of a few hundred steps keep the graphs that cycle cheap.
    @pytest.mark.parametrize("hp", [
        Hyperparameters(max_iterations=300),
        Hyperparameters(alpha_t=0.9, alpha_p=0.9, beta_p=0.05, tolerance=1e-12,
                        max_iterations=300),
        Hyperparameters(alpha_t=0.3, alpha_p=0.2, beta_p=0.7, alpha_f=0.5, tolerance=1e-12,
                        max_iterations=300),
        Hyperparameters(alpha_t=0.85, alpha_f=0.1, max_iterations=40),
    ], ids=["defaults", "slow", "low_alpha", "capped"])
    def test_random_graphs(self, rng, hp):
        outcomes = set()
        for _ in range(12):
            n_papers = int(rng.integers(2, 40))
            records = make_random_records(
                rng, n_papers=n_papers, n_theorems=int(rng.integers(1, 4 * n_papers)),
                n_paper_citations=int(rng.integers(0, 3 * n_papers)))
            report = assert_same_solve(build_graph(records), hp)
            outcomes.add(None if report is None else report.converged)
        # Some solves converge; under the 40-step cap, some stop at it.
        assert (hp.max_iterations > 40) in outcomes

    def test_cycling_graph_hits_small_cap(self):
        # Two papers in two fields citing each other: from a skewed start the
        # field scores swap back and forth.
        graph = build_graph(ObjectRecords.of(
            papers=[paper("p1", msc="53", authors=("a1",)),
                    paper("p2", msc="60", authors=("a2",))],
            theorems=[theorem("p1", "thm 1"), theorem("p2", "thm 1")],
            paper_citations=[PaperCitation("p1", "p2"), PaperCitation("p2", "p1")]))
        start = ScoreState(np.array([0.5, 0.5]), np.array([0.5, 0.5]), np.array([0.9, 0.1]))
        report = assert_same_solve(graph, Hyperparameters(max_iterations=60), start)
        assert not report.converged and report.iterations == 60
        assert len(report.residual_history) == 60 and report.residual > 1.9

    def test_no_citations_at_any_level(self, rng):
        # The stacked operator has no entries, so its bincount is int64.
        records = ObjectRecords.of(
            papers=[paper("p1", msc="53"), paper("p2", msc="60"), paper("p3", msc="60")],
            theorems=[theorem("p1", "thm 1"), theorem("p3", "thm 1"), theorem("p3", "thm 2")])
        graph = build_graph(records)
        assert sum(m.values.size for m in (graph.t_matrix, graph.p_matrix, graph.f_matrix)) == 0
        raw = [rng.random(n) for n in (3, 3, 2)]
        assert_same_solve(graph, Hyperparameters(max_iterations=300),
                          ScoreState(*[v / v.sum() for v in raw]))
        one_field = build_graph(ObjectRecords.of(papers=records.papers[:1],
                                                 theorems=records.theorems[:1]))
        assert assert_same_solve(one_field, HP).converged

    def test_one_field_and_one_paper(self, rng):
        one_field = make_random_records(rng, n_papers=12, n_theorems=30, code_pool=["53"])
        graph = build_graph(one_field)
        assert graph.n_fields == 1
        assert_same_solve(graph, HP)
        one_paper = ObjectRecords.of(
            papers=[paper("p1", msc="60")],
            theorems=[theorem("p1", f"thm {k}") for k in range(4)],
            theorem_citations=[TheoremCitation("p1", "thm 0", "p1", "thm 1"),
                               TheoremCitation("p1", "thm 2", "p1", "thm 1")])
        graph = build_graph(one_paper)
        assert (graph.n_papers, graph.n_fields) == (1, 1)
        assert_same_solve(graph, HP)

    def test_degenerate_level_same_error(self):
        records = ObjectRecords.of(
            papers=[paper("p1", msc="53"), paper("p2", msc="60")],
            theorems=[theorem("p1", "thm 1"), theorem("p2", "thm 1")])
        assert assert_same_solve(build_graph(records), HP) is None
        with pytest.raises(DegenerateLevelError, match="^field level produced an all-zero"):
            compute_scores(build_graph(records), HP)

    def test_warm_start_counts_from_its_iteration(self, rng):
        graph = build_graph(make_random_records(rng, n_papers=15, n_theorems=40))
        raw = [rng.random(n) for n in (graph.n_theorems, graph.n_papers, graph.n_fields)]
        warm = ScoreState(*[v / v.sum() for v in raw], iteration=7)
        report = assert_same_solve(graph, HP, warm)
        assert report.iterations == 7 + len(report.residual_history)
        capped = assert_same_solve(graph, Hyperparameters(max_iterations=3), warm)
        assert capped.iterations == 10 and not capped.converged

    @pytest.mark.parametrize("level", range(3), ids=["theorem", "paper", "field"])
    @pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
    def test_mismatched_initial_state_rejected(self, rng, level, delta):
        graph = build_graph(make_random_records(rng, n_papers=15, n_theorems=40))
        sizes = [graph.n_theorems, graph.n_papers, graph.n_fields]
        given = list(sizes)
        given[level] += delta
        state = ScoreState(*[np.full(n, 1.0 / n) for n in given])
        expected = f"shapes {tuple((n,) for n in given)}; the graph has {tuple(sizes)}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            compute_scores(graph, HP, initial_state=state)

    def test_empty_level_rejected_with_initial_state(self):
        graph = build_graph(ObjectRecords.of(papers=[paper("p1")]))
        state = ScoreState(np.empty(0), np.array([1.0]), np.array([1.0]))
        with pytest.raises(EmptyLevelError, match="theorem level is empty"):
            compute_scores(graph, HP, initial_state=state)

    @pytest.mark.parametrize("level", range(3), ids=["theorem", "paper", "field"])
    @pytest.mark.parametrize("bad", BAD_SCORES)
    def test_non_finite_or_negative_initial_state_rejected(self, rng, level, bad):
        graph, state = state_with_bad_score(rng, level, bad)
        expected = f"initial_state has a non-finite or negative {LEVELS[level]} score"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            compute_scores(graph, HP, initial_state=state)
