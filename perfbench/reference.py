"""Extended-precision reference for the benchmark's output checks.

Everything is recomputed from a generator ``Corpus`` (integer columns), not
from mathrank's parser or graph: field classification, citation
deduplication and weights, column normalization, the three-level update
with its stopping rule, yearly snapshots and the field impact matrix. Sums
are taken in ``np.longdouble`` (64-bit mantissa on x86-64), so the
reference carries about 19 significant digits against the program's 16.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LD = np.longdouble

FIELD_ORDER = (
    "Algebra", "AlgGeom", "DiffGeom", "Topology", "Analysis", "PDE",
    "DynSys", "Physics", "Probability", "Optimization",
    "NumericalAnalysis", "Statistics", "Others",
)
_FIELD_CODES = {
    "Algebra": "06 08 15 16 17 18 20",
    "AlgGeom": "11 12 13 14",
    "DiffGeom": "32 51 52 53 58",
    "Topology": "19 22 54 55 57",
    "Analysis": "26 28 30 33 34 39 40 41 42 43 46 47",
    "PDE": "31 35 44 45 49",
    "DynSys": "37",
    "Physics": "70 74 76 78 80 81 82 83 85 86",
    "Probability": "60",
    "Optimization": "90",
    "NumericalAnalysis": "65",
    "Statistics": "62",
}
FIELD_OF_CODE = {code: f for f, codes in _FIELD_CODES.items() for code in codes.split()}

SAME_PAPER, SHARED_AUTHOR, INDEPENDENT = LD("0.05"), LD("0.1"), LD(1)


def field_of_code(code: str) -> str:
    return FIELD_OF_CODE.get(code, "Others")


def seg_sum(keys: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """out[k] = sum of values with that key, summed in extended precision."""
    out = np.zeros(n, dtype=LD)
    if len(keys):
        order = np.argsort(keys, kind="stable")
        uniq, starts = np.unique(keys[order], return_index=True)
        out[uniq] = np.add.reduceat(np.asarray(values, dtype=LD)[order], starts)
    return out


class Matrix:
    """Column-normalized (cited, citer) weights with extended-precision products."""

    def __init__(self, cited, citer, weight, n):
        self.cited, self.citer, self.n = cited, citer, n
        self.values = np.asarray(weight, dtype=LD) / seg_sum(citer, weight, n)[citer]
        order = np.argsort(cited, kind="stable")
        self._order = order
        self._rows, self._starts = np.unique(cited[order], return_index=True)

    def matvec(self, x):
        out = np.zeros(self.n, dtype=LD)
        if len(self.cited):
            prod = (self.values * x[self.citer])[self._order]
            out[self._rows] = np.add.reduceat(prod, self._starts)
        return out


def _unique_edges(pairs):
    """Distinct (citer, cited) pairs without self-citations, sorted."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return np.unique(pairs, axis=0)


def _shared_author(authors, a, b):
    return np.array([bool(set(authors[i]) & set(authors[j])) for i, j in zip(a, b)],
                    dtype=bool)


def theorem_edges(c):
    """(citer, cited, weight) of the distinct theorem citations."""
    e = _unique_edges(c.tc)
    src_p, dst_p = c.thm_paper[e[:, 0]], c.thm_paper[e[:, 1]]
    w = np.where(src_p == dst_p, SAME_PAPER,
                 np.where(_shared_author(c.authors, src_p, dst_p), SHARED_AUTHOR, INDEPENDENT))
    return e[:, 0], e[:, 1], w.astype(LD)


def paper_edges(c):
    """(citer, cited, weight) of the distinct paper citations."""
    e = _unique_edges(c.pc)
    w = np.where(_shared_author(c.authors, e[:, 0], e[:, 1]), SHARED_AUTHOR, INDEPENDENT)
    return e[:, 0], e[:, 1], w.astype(LD)


def tier_counts(c) -> dict:
    """Distinct citation edges per weight tier, per level."""
    names = {SAME_PAPER: "same_paper", SHARED_AUTHOR: "shared_author", INDEPENDENT: "independent"}
    out = {}
    for level, (_, _, w) in (("theorem", theorem_edges(c)), ("paper", paper_edges(c))):
        out[level] = {names[k]: int(np.count_nonzero(w == k)) for k in names}
    return out


@dataclass
class Solution:
    u_t: np.ndarray
    u_p: np.ndarray
    u_f: np.ndarray
    iterations: int | None  # where the stopping rule fired; None if it never did

    def levels(self):
        return self.u_t, self.u_p, self.u_f


class Reference:
    """The scoring model on one corpus, in the corpus's own entity numbering."""

    def __init__(self, c):
        self.c = c
        self.n_t, self.n_p = c.n_theorems, c.n_papers
        canonical = np.array([FIELD_ORDER.index(field_of_code(m)) for m in c.msc], dtype=np.int64)
        self.field_canonical = np.unique(canonical)
        self.fields = [FIELD_ORDER[i] for i in self.field_canonical]
        self.n_f = len(self.fields)
        self.paper_field = np.searchsorted(self.field_canonical, canonical)

        src, dst, w = theorem_edges(c)
        self.T = Matrix(dst, src, w, self.n_t)
        src, dst, w = paper_edges(c)
        self.P = Matrix(dst, src, w, self.n_p)
        f_dst, f_src = self.paper_field[dst], self.paper_field[src]
        pairs, counts = np.unique(np.stack([f_dst, f_src], axis=1), axis=0, return_counts=True)
        pairs = pairs.reshape(-1, 2)
        self.F = Matrix(pairs[:, 0], pairs[:, 1], counts.astype(LD), self.n_f)

        order = np.argsort(c.thm_paper, kind="stable")
        self._thm_order = order
        self._thm_papers, self._thm_starts = np.unique(c.thm_paper[order], return_index=True)

    def _best_theorem(self, u_t):
        out = np.zeros(self.n_p, dtype=LD)
        if self.n_t:
            out[self._thm_papers] = np.maximum.reduceat(u_t[self._thm_order], self._thm_starts)
        return out

    @staticmethod
    def _normalize(hat):
        total = np.sum(hat)
        if total <= 0:
            if hat.size == 1:
                return np.ones(1, dtype=LD)
            raise ArithmeticError("level update summed to zero")
        return hat / total

    def step(self, state, hp):
        u_t, u_p, u_f = state
        a_t, a_p, b_p, a_f = (LD(hp[k]) for k in ("alpha_t", "alpha_p", "beta_p", "alpha_f"))
        n_t, n_p, n_f = LD(self.n_t), LD(self.n_p), LD(self.n_f)
        hat_t = a_t * self.T.matvec(u_t) + (1 - a_t) * u_p[self.c.thm_paper] / (n_t / n_p)
        hat_p = (a_p * self.P.matvec(u_p)
                 + b_p * u_f[self.paper_field] / (n_p / n_f)
                 + (1 - a_p - b_p) * self._best_theorem(u_t))
        excess = seg_sum(self.paper_field, np.maximum(u_p - 1 / n_p, 0), self.n_f)
        hat_f = a_f * self.F.matvec(u_f) + (1 - a_f) * excess
        return tuple(self._normalize(h) for h in (hat_t, hat_p, hat_f))

    def solve(self, hp: dict, steps: int | None = None) -> Solution:
        """Iterate from uniform scores until the largest per-level l1 change
        drops below hp["tolerance"] (at most hp["max_iterations"] steps), or
        for exactly ``steps`` steps when given."""
        if not (self.n_t and self.n_p and self.n_f):
            raise ValueError("a level is empty")
        state = tuple(np.full(n, 1 / LD(n), dtype=LD) for n in (self.n_t, self.n_p, self.n_f))
        limit = hp["max_iterations"] if steps is None else steps
        stop, k = None, 0
        while k < limit and (stop is None or steps is not None):
            new = self.step(state, hp)
            k += 1
            if stop is None and max(np.sum(np.abs(b - a)) for a, b in zip(state, new)) < hp["tolerance"]:
                stop = k
            state = new
        return Solution(*state, stop)

    def advance(self, sol: Solution, hp: dict) -> Solution:
        """The scores one step after sol."""
        return Solution(*self.step(sol.levels(), hp), sol.iterations)

    def impact(self, u_p) -> np.ndarray:
        """(cited field, citing field) sums of normalized weight times citer score."""
        P = self.P
        key = self.paper_field[P.cited] * self.n_f + self.paper_field[P.citer]
        flat = seg_sum(key, P.values * u_p[P.citer], self.n_f * self.n_f)
        return flat.reshape(self.n_f, self.n_f)

    def theorem_labels(self):
        return [f"{self.c.paper_ids[p]}:{t}" for p, t in zip(self.c.thm_paper, self.c.thm_ids)]


def snapshot(c, year: int):
    """Papers dated by December of ``year``, their theorems, and citations
    whose endpoints both survive; entities renumbered in order."""
    keep_p = np.flatnonzero(np.asarray(c.year) <= year)
    new_p = np.full(c.n_papers, -1, dtype=np.int64)
    new_p[keep_p] = np.arange(len(keep_p))
    keep_t = np.flatnonzero(new_p[c.thm_paper] >= 0)
    new_t = np.full(c.n_theorems, -1, dtype=np.int64)
    new_t[keep_t] = np.arange(len(keep_t))
    tc = new_t[np.asarray(c.tc, dtype=np.int64).reshape(-1, 2)]
    pc = new_p[np.asarray(c.pc, dtype=np.int64).reshape(-1, 2)]
    return type(c)(
        paper_ids=[c.paper_ids[p] for p in keep_p],
        msc=[c.msc[p] for p in keep_p],
        authors=[c.authors[p] for p in keep_p],
        year=np.asarray(c.year)[keep_p],
        month=np.asarray(c.month)[keep_p],
        thm_paper=new_p[c.thm_paper[keep_t]],
        thm_ids=[c.thm_ids[t] for t in keep_t],
        tc=tc[(tc >= 0).all(axis=1)],
        pc=pc[(pc >= 0).all(axis=1)],
    )
