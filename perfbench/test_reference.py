"""The benchmark's reference against the loop-literal oracle of the test suite.

    python -m pytest perfbench/test_reference.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "tests"), str(HERE.parent / "src")]

import oracle  # noqa: E402
import reference  # noqa: E402
from gen import Corpus  # noqa: E402
from mathrank import snapshot_filter  # noqa: E402
from synthdata import make_random_records  # noqa: E402


def corpus_of(records):
    """The generator's column form of consistent mathrank records."""
    paper_pos = {p.paper_id: i for i, p in enumerate(records.papers)}
    thm_pos = {t.key: i for i, t in enumerate(records.theorems)}
    return Corpus(
        paper_ids=[p.paper_id for p in records.papers],
        msc=[p.msc_primary for p in records.papers],
        authors=[tuple(sorted(p.author_ids)) for p in records.papers],
        year=np.array([p.first_version_date.year for p in records.papers]),
        month=np.array([p.first_version_date.month for p in records.papers]),
        thm_paper=np.array([paper_pos[t.paper_id] for t in records.theorems], dtype=np.int64),
        thm_ids=[t.theorem_id for t in records.theorems],
        tc=np.array([(thm_pos[c.src_key], thm_pos[c.dst_key])
                     for c in records.theorem_citations], dtype=np.int64).reshape(-1, 2),
        pc=np.array([(paper_pos[c.src], paper_pos[c.dst])
                     for c in records.paper_citations], dtype=np.int64).reshape(-1, 2),
    )


def random_hp(rng):
    alpha_p = float(rng.uniform(0.05, 0.9))
    return dict(alpha_t=float(rng.uniform(0.05, 0.95)), alpha_p=alpha_p,
                beta_p=float(rng.uniform(0.01, 0.95 - alpha_p)),
                alpha_f=float(rng.uniform(0.05, 0.95)),
                tolerance=1e-10, max_iterations=500)


def assert_close(got, want):
    np.testing.assert_allclose(np.asarray(got, dtype=float), want, rtol=1e-9, atol=1e-15)


def check_against_oracle(records, hp):
    dense = oracle.build_dense(records)
    solver = oracle.DenseSolver(dense, hp["alpha_t"], hp["alpha_p"], hp["beta_p"], hp["alpha_f"])
    c = corpus_of(records)
    ref = reference.Reference(c)
    assert ref.fields == dense.field_names

    # Weights, deduplication and normalization, entry by entry.
    paper_pos = [dense.paper_ids.index(pid) for pid in c.paper_ids]
    thm_pos = [dense.theorem_keys.index((c.paper_ids[p], t))
               for p, t in zip(c.thm_paper, c.thm_ids)]
    for matrix, want, pos in ((ref.T, solver.Tn, thm_pos), (ref.P, solver.Pn, paper_pos),
                              (ref.F, solver.Fn, range(len(dense.field_names)))):
        got = np.zeros((len(want), len(want)))
        pos = np.asarray(pos, dtype=np.int64)
        got[pos[matrix.cited], pos[matrix.citer]] = matrix.values.astype(float)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    try:
        trajectory, stop = solver.run(hp["tolerance"], hp["max_iterations"])
    except ZeroDivisionError:  # a level is empty or its update sums to zero
        with pytest.raises((ArithmeticError, ValueError)):
            ref.solve(hp)
        return
    sol = ref.solve(hp)
    assert sol.iterations == stop
    u_t, u_p, u_f = trajectory[-1]
    assert_close(sol.u_t, np.asarray(u_t)[thm_pos])
    assert_close(sol.u_p, np.asarray(u_p)[paper_pos])
    assert_close(sol.u_f, u_f)
    want = oracle.impact_double_sum(solver.Pn, u_p, dense.phi_PF, len(dense.field_names))
    assert_close(ref.impact(sol.u_p), want)


@pytest.mark.parametrize("seed", range(25))
def test_reference_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    records = make_random_records(rng, n_papers=int(rng.integers(2, 25)),
                                  n_theorems=int(rng.integers(1, 70)))
    check_against_oracle(records, random_hp(rng))


@pytest.mark.parametrize("seed", range(10))
def test_reference_snapshot_matches_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    records = make_random_records(rng, n_papers=30, n_theorems=90, year_range=(1991, 2001))
    year = int(rng.integers(1993, 2001))
    snap_records = snapshot_filter(records, year)
    snap = reference.snapshot(corpus_of(records), year)
    assert sorted(snap.paper_ids) == sorted(p.paper_id for p in snap_records.papers)
    assert len(snap.tc) == len(snap_records.theorem_citations)
    assert len(snap.pc) == len(snap_records.paper_citations)
    check_against_oracle(snap_records, random_hp(rng))
