"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import string
import time

import numpy as np
import pytest
from click.testing import CliRunner

from mathrank.build import build_graph
from mathrank.cli import main as cli_main
from mathrank.corpus import snapshot_filter, write_corpus
from mathrank.fields import FIELD_NAMES, msc_to_field
from mathrank.records import (
    GraphRecords,
    PaperCitation,
    PaperRecord,
    TheoremCitation,
    YearMonth,
    validate_records,
)
from mathrank.solver import (
    Hyperparameters,
    ScoreState,
    compute_scores,
    init_state,
    iterate_once,
    normalize_matrices,
    residual,
)
from mathrank.analysis import field_impact

import oracle
from conftest import paper, theorem
from loop_reference import paper_edge_weight, theorem_edge_weight
from synthdata import make_random_records

DEFAULT_HP = Hyperparameters()


def random_graph_records(rng, max_theorems=200, max_papers=50):
    n_papers = int(rng.integers(2, max_papers + 1))
    n_theorems = int(rng.integers(1, max_theorems + 1))
    return make_random_records(
        rng,
        n_papers=n_papers,
        n_theorems=n_theorems,
        n_paper_citations=int(rng.integers(1, 3 * n_papers + 1)),
        n_theorem_citations=int(rng.integers(0, 2 * n_theorems + 1)),
    )


def run_both_side_by_side(records, hp, atol):
    """Run engine and dense reference in lockstep until both stop.

    Returns (iterations_engine, iterations_reference); None means the cap
    was hit. Raises AssertionError if any iteration disagrees beyond atol.
    """
    graph = build_graph(records)
    norm = normalize_matrices(graph)
    ref = oracle.DenseSolver(
        oracle.build_dense(records), hp.alpha_t, hp.alpha_p, hp.beta_p, hp.alpha_f)
    state = init_state(graph)
    ref_state = ref.init()
    for level, ref_level in zip(state.levels(), ref_state):
        np.testing.assert_allclose(level, ref_level, atol=atol)

    engine_done = ref_done = None
    for k in range(1, hp.max_iterations + 1):
        new = iterate_once(state, graph, norm, hp)
        ref_new = ref.step(ref_state)
        for level, ref_level in zip(new.levels(), ref_new):
            np.testing.assert_allclose(
                level, ref_level, atol=atol,
                err_msg=f"iteration {k} diverged from the dense reference")
        if engine_done is None and residual(state, new) < hp.tolerance:
            engine_done = k
        if ref_done is None and ref.residual(ref_state, ref_new) < hp.tolerance:
            ref_done = k
        state, ref_state = new, ref_new
        if engine_done is not None or ref_done is not None:
            break
    return engine_done, ref_done


def test_criterion_1_oracle_equivalence(rng):
    """Sparse engine tracks the dense loop-literal reference exactly.

    Trajectories are compared at every iteration on 100 convergent graphs.
    Graphs whose citation structure is exactly periodic never converge (the
    update has no teleportation term); for those, engine and reference must
    both exhaust the iteration cap, but per-step trajectories are not
    comparable across implementations because nothing contracts the
    accumulated last-bit rounding differences.
    """
    start = time.perf_counter()
    hp = Hyperparameters(max_iterations=400)
    needed = 100
    compared = cycling = sampled = 0
    tiers_t, tiers_p = set(), set()
    while compared < needed and sampled < 3 * needed:
        sampled += 1
        records = random_graph_records(rng)
        graph = build_graph(records)
        tiers_t.update(np.unique(graph.t_matrix.values).tolist())
        tiers_p.update(np.unique(graph.p_matrix.values).tolist())
        _, engine_report = compute_scores(graph, hp)
        if engine_report.converged:
            engine_done, ref_done = run_both_side_by_side(records, hp, atol=1e-8)
            assert engine_done == engine_report.iterations
            assert engine_done == ref_done, (
                f"engine converged at {engine_done}, reference at {ref_done}")
            compared += 1
        else:
            ref = oracle.DenseSolver(
                oracle.build_dense(records),
                hp.alpha_t, hp.alpha_p, hp.beta_p, hp.alpha_f)
            _, ref_done = ref.run(hp.tolerance, hp.max_iterations)
            assert ref_done is None, (
                "engine hit the cap but the reference converged at "
                f"{ref_done}")
            cycling += 1
    assert compared >= needed, f"only {compared} convergent graphs in {sampled}"
    assert tiers_t == {0.05, 0.1, 1.0}, "theorem weight tiers not all exercised"
    assert tiers_p == {0.1, 1.0}, "paper weight tiers not all exercised"
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s (budget 60s)"
    print(f"\nACCEPTANCE 1 PASS - per-iteration oracle equivalence on "
          f"{compared} convergent graphs; {cycling} periodic graphs hit the "
          f"cap on both sides; {elapsed:.1f}s")


def test_criterion_2_normalization_invariant(rng):
    """Every level sums to 1 (within 1e-12) and stays nonnegative, always."""
    checked = 0
    for _ in range(30):
        records = random_graph_records(rng, max_theorems=120, max_papers=30)
        graph = build_graph(records)
        norm = normalize_matrices(graph)
        state = init_state(graph)
        for _ in range(60):
            state = iterate_once(state, graph, norm, DEFAULT_HP)
            for level in state.levels():
                assert abs(level.sum() - 1.0) < 1e-12
                assert np.all(level >= 0.0)
            checked += 1
    print(f"\nACCEPTANCE 2 PASS - l1 normalization and nonnegativity held "
          f"across {checked} iterations on 30 graphs")


def test_criterion_3_stopping_criterion(singleton_records):
    """Tolerance semantics: quick fixed points and stability under tightening."""
    # Singleton graph: all levels pinned at 1 after a single step.
    graph = build_graph(singleton_records)
    state, report = compute_scores(graph, DEFAULT_HP)
    assert report.converged and report.iterations <= 2
    for level in state.levels():
        np.testing.assert_array_equal(level, [1.0])

    # Hand-built five-paper citation cycle, one theorem per paper.
    cycle_records = GraphRecords(
        papers=[paper(f"p{i}", msc="53", authors=(f"a{i}",)) for i in range(5)],
        theorems=[theorem(f"p{i}", "thm 1") for i in range(5)],
        paper_citations=[PaperCitation(f"p{i}", f"p{(i + 1) % 5}")
                         for i in range(5)])
    cycle_graph = build_graph(cycle_records)
    state_cycle, report_cycle = compute_scores(cycle_graph, DEFAULT_HP)
    assert report_cycle.converged, "five-paper cycle must converge"
    np.testing.assert_allclose(state_cycle.u_p, np.full(5, 0.2), atol=1e-8)
    # Also from an asymmetric start, where convergence is not immediate.
    skew = ScoreState(
        u_t=np.arange(1.0, 6.0) / np.arange(1.0, 6.0).sum(),
        u_p=np.arange(5.0, 0.0, -1.0) / 15.0,
        u_f=np.array([1.0]))
    state_skew, report_skew = compute_scores(cycle_graph, DEFAULT_HP,
                                             initial_state=skew)
    assert report_skew.converged and report_skew.iterations > 1
    np.testing.assert_allclose(state_skew.u_p, np.full(5, 0.2), atol=1e-8)

    # Halving the tolerance must not move any fixed point by more than 1e-8.
    rng = np.random.default_rng(77)
    moved = 0.0
    for graph_records in (cycle_records,
                          make_random_records(rng, n_papers=15, n_theorems=40),
                          make_random_records(rng, n_papers=8, n_theorems=60)):
        g = build_graph(graph_records)
        coarse, r1 = compute_scores(g, Hyperparameters(tolerance=1e-9))
        fine, r2 = compute_scores(g, Hyperparameters(tolerance=5e-10))
        assert r1.converged and r2.converged
        for a, b in zip(coarse.levels(), fine.levels()):
            moved = max(moved, float(np.max(np.abs(a - b))))
    assert moved <= 1e-8
    print(f"\nACCEPTANCE 3 PASS - stopping criterion: singleton in "
          f"{report.iterations} iters, cycle in {report_cycle.iterations} "
          f"(uniform) / {report_skew.iterations} (skewed start), tolerance "
          f"halving moved fixed points by {moved:.2e} (<= 1e-8)")


def test_criterion_4_weight_scheme_exactness():
    """Exact classification table and exact piecewise citation weights."""
    # Every listed code, via the independently transcribed table.
    for code, expected in sorted(oracle.FIELD_OF_CODE.items()):
        assert msc_to_field(code).name == expected, code
    assert {msc_to_field(c).name for c in oracle.FIELD_OF_CODE} == set(FIELD_NAMES) - {"Others"}
    # All unlisted two-digit codes fall through to Others.
    unlisted = [a + b for a in string.digits for b in string.digits
                if a + b not in oracle.FIELD_OF_CODE]
    assert unlisted, "sanity: some codes must be unlisted"
    for code in unlisted:
        assert msc_to_field(code).name == "Others", code

    p_a = paper("pa", authors=("a1", "a2"))
    p_b = paper("pb", authors=("a2", "a3"))
    p_c = paper("pc", authors=("z1",))
    t_a1, t_a2 = theorem("pa", "thm 1"), theorem("pa", "thm 2")
    t_b, t_c = theorem("pb", "thm 1"), theorem("pc", "thm 1")

    assert theorem_edge_weight(t_a1, t_a2, p_a, p_a) == 0.05
    assert theorem_edge_weight(t_a1, t_b, p_a, p_b) == 0.1
    assert theorem_edge_weight(t_a1, t_c, p_a, p_c) == 1.0

    assert paper_edge_weight(p_a, p_b) == 0.1
    assert paper_edge_weight(p_a, p_c) == 1.0

    # The built matrices hold the same tiers at (cited, citer), and 0 for
    # every pair without a citation.
    graph = build_graph(GraphRecords(
        papers=[p_a, p_b, p_c], theorems=[t_a1, t_a2, t_b, t_c],
        theorem_citations=[TheoremCitation(*t_a1.key, *t.key) for t in (t_a2, t_b, t_c)],
        paper_citations=[PaperCitation("pa", "pb"), PaperCitation("pa", "pc")]))
    want_t = np.zeros((4, 4))
    want_t[1:, 0] = [0.05, 0.1, 1.0]
    np.testing.assert_array_equal(graph.t_matrix.to_dense(), want_t)
    want_p = np.zeros((3, 3))
    want_p[1:, 0] = [0.1, 1.0]
    np.testing.assert_array_equal(graph.p_matrix.to_dense(), want_p)
    print("\nACCEPTANCE 4 PASS - exact field table "
          f"({len(oracle.FIELD_OF_CODE)} listed codes + {len(unlisted)} "
          "unlisted) and exact weight tiers {0, 0.05, 0.1, 1} / {0, 0.1, 1}")


def test_criterion_5_impact_identity(rng):
    """Column-mass identity and brute-force double-sum agreement at 1e-12."""
    hp = Hyperparameters(max_iterations=300)
    n_graphs = 100
    for _ in range(n_graphs):
        records = random_graph_records(rng, max_theorems=40, max_papers=30)
        graph = build_graph(records)
        norm = normalize_matrices(graph)
        state, _ = compute_scores(graph, hp)  # identity holds converged or not
        impact = field_impact(graph, norm, state.u_p)

        cites_something = np.diff(graph.p_matrix.indptr) > 0
        for f in range(graph.n_fields):
            papers_in_f = np.flatnonzero(graph.paper_field == f)
            expected = state.u_p[papers_in_f][cites_something[papers_in_f]].sum()
            assert abs(impact.values[:, f].sum() - expected) < 1e-12

        ref = oracle.build_dense(records)
        pn = oracle.normalize_columns_dense(ref.P)
        brute = oracle.impact_double_sum(pn, state.u_p.tolist(), ref.phi_PF,
                                         len(ref.field_names))
        np.testing.assert_allclose(impact.values, brute, atol=1e-12)
    print(f"\nACCEPTANCE 5 PASS - impact column-mass identity and brute-force "
          f"double sum agree to 1e-12 on {n_graphs} graphs")


def test_criterion_6_snapshot_monotonicity_and_closure(rng):
    """Snapshots nest by year, never dangle, and cut exactly at December."""
    for _ in range(20):
        records = make_random_records(rng, n_papers=int(rng.integers(2, 40)),
                                      n_theorems=int(rng.integers(1, 80)))
        previous = None
        for year in range(1991, 2024):
            snap = snapshot_filter(records, year)
            assert validate_records(snap).is_clean  # no dangling edges
            ids = (frozenset(p.paper_id for p in snap.papers),
                   frozenset(t.key for t in snap.theorems),
                   frozenset(snap.theorem_citations),
                   frozenset(snap.paper_citations))
            if previous is not None:
                for small, large in zip(previous, ids):
                    assert small <= large
            previous = ids

    # Boundary example: everything from 1991-01 through 2000-12 stays, the
    # first 2001 paper goes.
    dated = [PaperRecord(f"p{i}", "53", frozenset({"a"}), YearMonth(y, m))
             for i, (y, m) in enumerate(
                 [(1991, 1), (1994, 7), (1999, 12), (2000, 1), (2000, 12), (2001, 1)])]
    snap = snapshot_filter(GraphRecords(papers=dated), 2000)
    assert [p.paper_id for p in snap.papers] == ["p0", "p1", "p2", "p3", "p4"]
    print("\nACCEPTANCE 6 PASS - snapshot monotonicity/closure on 20 corpora "
          "x 33 years; 1991..Dec-2000 boundary exact")


def test_criterion_7_determinism(rng, tmp_path):
    """Byte-identical CLI reruns."""
    records = make_random_records(rng, n_papers=25, n_theorems=70,
                                  n_paper_citations=60, n_theorem_citations=120)
    d = tmp_path / "corpus"
    d.mkdir()
    paths = (d / "papers.jsonl", d / "theorems.jsonl",
             d / "thm_cites.jsonl", d / "paper_cites.jsonl")
    write_corpus(records, *paths)
    args = ["--papers", str(paths[0]), "--theorems", str(paths[1]),
            "--thm-cites", str(paths[2]), "--paper-cites", str(paths[3])]
    runner = CliRunner()

    outputs = {}
    for tag in ("a", "b"):
        out = tmp_path / f"run_{tag}"
        for cmd in (["rank", "--top-k", "1000"], ["impact"],
                    ["series", "--from-year", "2015", "--to-year", "2023",
                     "--max-iter", "2000"]):
            result = runner.invoke(cli_main, [cmd[0], *args, *cmd[1:],
                                              "--out-dir", str(out)])
            assert result.exit_code in (0, 1), result.output
        outputs[tag] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert outputs["a"] == outputs["b"], "identical reruns must match byte-for-byte"
    print("\nACCEPTANCE 7 PASS - CLI reruns "
          f"byte-identical across {len(outputs['a'])} output files")


def test_criterion_8_hyperparameter_validity(tmp_path):
    """Invalid mixing weights are rejected before any computation starts."""
    rejected = 0
    for kwargs in (
        {"alpha_t": 0.0}, {"alpha_t": 1.0}, {"alpha_t": -0.2}, {"alpha_t": 2.0},
        {"alpha_p": 0.0}, {"alpha_p": 1.0},
        {"beta_p": 0.0}, {"beta_p": 1.0},
        {"alpha_f": 0.0}, {"alpha_f": 1.0},
        {"alpha_p": 0.95, "beta_p": 0.05},
        {"alpha_p": 0.7, "beta_p": 0.4},
        {"tolerance": 0.0}, {"tolerance": -1.0},
        {"max_iterations": 0},
    ):
        with pytest.raises(ValueError):
            Hyperparameters(**kwargs)
        rejected += 1

    # The CLI refuses them too, before reading any corpus file.
    runner = CliRunner()
    missing = str(tmp_path / "never_read.jsonl")
    result = runner.invoke(cli_main, [
        "rank", "--papers", missing, "--theorems", missing,
        "--thm-cites", missing, "--paper-cites", missing,
        "--alpha-p", "0.95", "--beta-p", "0.05"])
    assert result.exit_code == 2
    print(f"\nACCEPTANCE 8 PASS - {rejected} invalid hyperparameter "
          "configurations rejected at construction; CLI exits 2 up front")


def test_criterion_9_initialization_independence(rng):
    """Uniform and random-positive starts land on the same fixed point.

    Uniqueness is empirical, not proven. On pathological synthetic graphs a
    generic start can fall into a limit cycle even when the uniform start
    converges; such runs are surfaced as findings (printed), and the
    agreement assertion covers the graphs where both starts reached a fixed
    point.
    """
    findings = []
    disagreements = []
    compared = 0
    attempts = 0
    while compared < 20 and attempts < 100:
        attempts += 1
        records = random_graph_records(rng, max_theorems=80, max_papers=25)
        graph = build_graph(records)
        uniform_state, report = compute_scores(graph, DEFAULT_HP)
        if not report.converged:
            findings.append(f"graph #{attempts}: uniform start cycles")
            continue
        random_state = None
        for _ in range(3):
            raw = [rng.random(n) + 0.01 for n in
                   (graph.n_theorems, graph.n_papers, graph.n_fields)]
            candidate = ScoreState(*[v / v.sum() for v in raw])
            state, random_report = compute_scores(
                graph, DEFAULT_HP, initial_state=candidate)
            if random_report.converged:
                random_state = state
                break
        if random_state is None:
            findings.append(
                f"graph #{attempts}: random starts cycle (uniform start converged)")
            continue
        compared += 1
        gap = max(float(np.max(np.abs(a - b)))
                  for a, b in zip(uniform_state.levels(), random_state.levels()))
        if gap > 1e-6:
            disagreements.append(f"graph #{attempts}: fixed points differ by {gap:.2e}")
    for finding in findings:
        print(f"\nACCEPTANCE 9 FINDING - {finding}")
    assert compared >= 20, f"only {compared} comparable graphs in {attempts} attempts"
    assert not disagreements, (
        "initialization-dependent fixed points: " + "; ".join(disagreements))
    print(f"\nACCEPTANCE 9 PASS - fixed points agree within 1e-6 from uniform "
          f"and random starts on {compared} graphs "
          f"({len(findings)} non-convergent runs reported as findings)")
