"""Coupled three-level score iteration.

Each iteration propagates influence within a level through the
column-normalized citation matrix and across levels through containment:
theorems inherit from their paper, papers inherit from their field and from
their strongest theorem, and fields collect the above-average excess of
their papers. All three vectors are renormalized to unit l1 norm after
every step (synchronous update: new values read only old ones).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import ThreeLevelGraph
from .sparsemat import SparseWeightMatrix

_LEVEL_NAMES = ("theorem", "paper", "field")


class EmptyLevelError(ValueError):
    """A level of the graph has no entities; scores are undefined."""


class DegenerateLevelError(ArithmeticError):
    """An unnormalized level summed to zero and cannot be renormalized."""


@dataclass(frozen=True)
class Hyperparameters:
    """Mixing weights, each in (0, 1), with alpha_p + beta_p < 1 strictly."""

    alpha_t: float = 0.6
    alpha_p: float = 0.6
    beta_p: float = 0.05
    alpha_f: float = 0.85
    tolerance: float = 1e-9
    max_iterations: int = 10_000

    def __post_init__(self) -> None:
        for name in ("alpha_t", "alpha_p", "beta_p", "alpha_f"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {v}")
        if not self.alpha_p + self.beta_p < 1.0:
            raise ValueError(
                f"alpha_p + beta_p must be < 1, got {self.alpha_p + self.beta_p}")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class ScoreState:
    u_t: np.ndarray
    u_p: np.ndarray
    u_f: np.ndarray
    iteration: int = 0

    def __post_init__(self) -> None:
        for name in ("u_t", "u_p", "u_f"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def levels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.u_t, self.u_p, self.u_f


@dataclass(frozen=True)
class NormalizedMatrices:
    t_norm: SparseWeightMatrix
    p_norm: SparseWeightMatrix
    f_norm: SparseWeightMatrix


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    iterations: int
    residual: float
    residual_history: tuple[float, ...]


def column_normalize(matrix: SparseWeightMatrix) -> SparseWeightMatrix:
    """Divide every nonzero column by its sum; zero columns stay zero.

    The result is ``matrix.column_normalized``, computed once per matrix.
    """
    return matrix.column_normalized


def normalize_matrices(graph: ThreeLevelGraph) -> NormalizedMatrices:
    return NormalizedMatrices(
        t_norm=column_normalize(graph.t_matrix),
        p_norm=column_normalize(graph.p_matrix),
        f_norm=column_normalize(graph.f_matrix),
    )


def init_state(graph: ThreeLevelGraph) -> ScoreState:
    """Uniform scores at every level."""
    sizes = (graph.n_theorems, graph.n_papers, graph.n_fields)
    for name, n in zip(_LEVEL_NAMES, sizes):
        if n == 0:
            raise EmptyLevelError(f"{name} level is empty")
    return ScoreState(
        u_t=np.full(graph.n_theorems, 1.0 / graph.n_theorems),
        u_p=np.full(graph.n_papers, 1.0 / graph.n_papers),
        u_f=np.full(graph.n_fields, 1.0 / graph.n_fields),
        iteration=0,
    )


def _l1_normalize(hat: np.ndarray, level: str) -> np.ndarray:
    total = float(np.sum(hat))
    if total <= 0.0:
        # A single-entity level carries the whole unit mass by definition;
        # anything larger with zero total mass is a genuine degeneracy.
        if hat.size == 1:
            return np.array([1.0])
        raise DegenerateLevelError(
            f"{level} level produced an all-zero update; cannot renormalize")
    return hat / total


def iterate_once(
    state: ScoreState,
    graph: ThreeLevelGraph,
    norm: NormalizedMatrices,
    hp: Hyperparameters,
) -> ScoreState:
    """One synchronous update of all three levels, then l1 renormalization."""
    n_t, n_p, n_f = graph.n_theorems, graph.n_papers, graph.n_fields

    # Theorem level: citations plus the owning paper's score, scaled by the
    # paper-to-theorem population ratio.
    hat_t = norm.t_norm.matvec(state.u_t)
    hat_t *= hp.alpha_t
    hat_t += (1.0 - hp.alpha_t) * (state.u_p[graph.theorem_paper] / (n_t / n_p))

    # Paper level: citations, the owning field's score, and the strongest
    # contained theorem (papers without theorems contribute zero there).
    hat_p = norm.p_norm.matvec(state.u_p)
    hat_p *= hp.alpha_p
    hat_p += hp.beta_p * (state.u_f[graph.paper_field] / (n_p / n_f))
    # Scores are nonnegative, so a maximum started from zero is each owning
    # paper's own maximum and zero for a paper without theorems.
    best_theorem = np.zeros(n_p)
    np.maximum.at(best_theorem, graph.theorem_paper, state.u_t)
    hat_p += (1.0 - hp.alpha_p - hp.beta_p) * best_theorem

    # Field level: citations plus the excess of papers scoring above the
    # uniform paper share.
    hat_f = norm.f_norm.matvec(state.u_f)
    hat_f *= hp.alpha_f
    above_share = np.maximum(state.u_p - 1.0 / n_p, 0.0)
    excess = np.bincount(graph.paper_field, weights=above_share, minlength=n_f)
    hat_f += (1.0 - hp.alpha_f) * excess

    return ScoreState(
        u_t=_l1_normalize(hat_t, "theorem"),
        u_p=_l1_normalize(hat_p, "paper"),
        u_f=_l1_normalize(hat_f, "field"),
        iteration=state.iteration + 1,
    )


def residual(prev: ScoreState, new: ScoreState) -> float:
    """Largest per-level l1 distance between two states."""
    diffs = []
    for a, b in zip(prev.levels(), new.levels()):
        if a.shape != b.shape:
            raise ValueError("score states have mismatched dimensions")
        diffs.append(float(np.sum(np.abs(b - a))))
    return max(diffs)


def has_converged(prev: ScoreState, new: ScoreState, hp: Hyperparameters) -> bool:
    return residual(prev, new) < hp.tolerance


def compute_scores(
    graph: ThreeLevelGraph,
    hp: Hyperparameters | None = None,
    *,
    initial_state: ScoreState | None = None,
) -> tuple[ScoreState, ConvergenceReport]:
    """Iterate from a uniform (or given) state until convergence or the cap.

    Hitting the iteration cap is not an error: the last state is returned
    with ``converged=False`` in the report.
    """
    if hp is None:
        hp = Hyperparameters()
    norm = normalize_matrices(graph)
    state = initial_state if initial_state is not None else init_state(graph)
    history: list[float] = []
    converged = False
    for _ in range(hp.max_iterations):
        new = iterate_once(state, graph, norm, hp)
        history.append(residual(state, new))
        state = new
        if history[-1] < hp.tolerance:
            converged = True
            break
    return state, ConvergenceReport(
        converged=converged,
        iterations=state.iteration,
        residual=history[-1] if history else 0.0,
        residual_history=tuple(history),
    )
