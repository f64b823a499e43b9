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
from typing import Callable

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
        if not 0.0 < self.tolerance < np.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
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


def normalize_matrices(graph: ThreeLevelGraph) -> NormalizedMatrices:
    """The graph's column-normalized matrices, computed once per matrix."""
    return NormalizedMatrices(
        t_norm=graph.t_matrix.column_normalized,
        p_norm=graph.p_matrix.column_normalized,
        f_norm=graph.f_matrix.column_normalized,
    )


def _level_sizes(graph: ThreeLevelGraph) -> tuple[int, int, int]:
    """The (theorem, paper, field) counts; EmptyLevelError if one is zero."""
    sizes = (graph.n_theorems, graph.n_papers, graph.n_fields)
    for name, n in zip(_LEVEL_NAMES, sizes):
        if n == 0:
            raise EmptyLevelError(f"{name} level is empty")
    return sizes


def init_state(graph: ThreeLevelGraph) -> ScoreState:
    """Uniform scores at every level."""
    return ScoreState(*(np.full(n, 1.0 / n) for n in _level_sizes(graph)), iteration=0)


def _l1_normalize(hat: np.ndarray, level: str) -> np.ndarray:
    """``hat`` divided by its sum, in place."""
    total = float(np.add.reduce(hat))
    if total <= 0.0:
        # A single-entity level carries the whole unit mass by definition;
        # anything larger with zero total mass is a genuine degeneracy.
        if hat.size == 1:
            hat[0] = 1.0
            return hat
        raise DegenerateLevelError(
            f"{level} level produced an all-zero update; cannot renormalize")
    hat /= total
    return hat


def _level_slices(state: ScoreState, graph: ThreeLevelGraph, name: str) -> tuple[slice, ...]:
    """Each level's slice of the stacked ``[u_t, u_p, u_f]``, after checking
    that ``state`` (called ``name``) has the graph's level sizes and only
    finite, non-negative scores."""
    sizes = _level_sizes(graph)
    given = tuple(level.shape for level in state.levels())
    if given != tuple((n,) for n in sizes):
        raise ValueError(f"{name} has (theorem, paper, field) level shapes {given}; "
                         f"the graph has {sizes} entities")
    for level_name, level in zip(_LEVEL_NAMES, state.levels()):
        if not (np.isfinite(level) & (level >= 0.0)).all():
            raise ValueError(f"{name} has a non-finite or negative {level_name} score")
    n_t, n_p, _ = sizes
    return slice(0, n_t), slice(n_t, n_t + n_p), slice(n_t + n_p, None)


def _prepare_step(
    graph: ThreeLevelGraph, norm: NormalizedMatrices, hp: Hyperparameters
) -> Callable[[np.ndarray, np.ndarray], None]:
    """``step(u, new)``, which writes into ``new`` the l1-normalized update of
    the stacked levels ``u = [u_t, u_p, u_f]``; the two must not overlap.

    Theorems get citations plus their paper's score, scaled by the
    paper-to-theorem population ratio. Papers get citations, their field's
    score and their strongest theorem (zero without theorems). Fields get
    citations plus the excess of papers scoring above the uniform paper
    share. The normalized matrices are set up as one block-diagonal
    operator whose rows keep their entries in stored order, so its row sums
    add the same terms in the same order as each matrix's own product.
    """
    sizes = n_t, n_p, n_f = graph.n_theorems, graph.n_papers, graph.n_fields
    t, p, f = slice(0, n_t), slice(n_t, n_t + n_p), slice(n_t + n_p, None)
    blocks, offsets = (norm.t_norm, norm.p_norm, norm.f_norm), (0, n_t, n_t + n_p)
    rows = np.concatenate([m.rowidx + k for m, k in zip(blocks, offsets)])
    cols = np.concatenate([m.colidx + k for m, k in zip(blocks, offsets)])
    vals = np.concatenate([m.values for m in blocks])
    alpha = np.repeat([hp.alpha_t, hp.alpha_p, hp.alpha_f], sizes)
    # upper = [u_p's share for its theorems, u_f's share for its papers];
    # parent[i] is the slot of entity i's container there.
    parent = np.concatenate([graph.theorem_paper, n_p + graph.paper_field])
    r_t, r_p = n_t / n_p, n_p / n_f
    c_t, c_best, c_f = 1.0 - hp.alpha_t, 1.0 - hp.alpha_p - hp.beta_p, 1.0 - hp.alpha_f
    gathered = np.empty(cols.size)
    upper, inherited = np.empty(n_p + n_f), np.empty(n_t + n_p)
    best, above = np.empty(n_p), np.empty(n_p)

    def step(u: np.ndarray, new: np.ndarray) -> None:
        u_t, u_p, u_f = u[t], u[p], u[f]
        # Citations within each level. The default mode="raise" would buffer
        # the output of take; every index is in range.
        np.take(u, cols, out=gathered, mode="clip")
        np.multiply(gathered, vals, out=gathered)
        # bincount returns int64 when there are no entries; the multiply casts.
        np.multiply(np.bincount(rows, gathered, minlength=u.size), alpha, out=new)
        # Containment from above: c * (u[parent] / r) == (c * (u / r))[parent].
        np.divide(u_p, r_t, out=upper[:n_p])
        upper[:n_p] *= c_t
        np.divide(u_f, r_p, out=upper[n_p:])
        upper[n_p:] *= hp.beta_p
        np.take(upper, parent, out=inherited, mode="clip")
        new[:n_t + n_p] += inherited
        # Each paper's strongest theorem: scores are nonnegative, so a maximum
        # started from zero is the paper's own, and zero without theorems.
        best.fill(0.0)
        np.maximum.at(best, graph.theorem_paper, u_t)
        np.multiply(best, c_best, out=best)
        new[p] += best
        # Each field's excess of papers above the uniform share.
        np.subtract(u_p, 1.0 / n_p, out=above)
        np.maximum(above, 0.0, out=above)
        new[f] += c_f * np.bincount(graph.paper_field, above, minlength=n_f)
        # Per-level sums over slices: np.add.reduceat does not add in the
        # order np.sum does, so its totals can differ in the last bit.
        for name, s in zip(_LEVEL_NAMES, (t, p, f)):
            _l1_normalize(new[s], name)

    return step


def iterate_once(
    state: ScoreState,
    graph: ThreeLevelGraph,
    norm: NormalizedMatrices,
    hp: Hyperparameters,
) -> ScoreState:
    """One synchronous update of all three levels, then l1 renormalization:
    one step of ``compute_scores``' update, set up for this call. Raises as
    ``compute_scores`` does for an empty level or a state that does not fit.
    """
    t, p, f = _level_slices(state, graph, "state")
    u = np.concatenate(state.levels())
    new = np.empty_like(u)
    _prepare_step(graph, norm, hp)(u, new)
    return ScoreState(new[t], new[p], new[f], iteration=state.iteration + 1)


def compute_scores(
    graph: ThreeLevelGraph,
    hp: Hyperparameters | None = None,
    *,
    initial_state: ScoreState | None = None,
) -> tuple[ScoreState, ConvergenceReport]:
    """Iterate from a uniform (or given) state until convergence or the cap.

    Hitting the iteration cap is not an error: the last state is returned
    with ``converged=False`` in the report. A graph with an empty level
    raises EmptyLevelError, and an ``initial_state`` whose level sizes are
    not the graph's, or that holds a non-finite or negative score, raises
    ValueError.

    The update is set up once per solve and steps the levels stacked as one
    vector ``[u_t, u_p, u_f]`` in reused buffers. States are bitwise equal to
    those of a loop of ``iterate_once``, and the residual of a step is the
    largest per-level l1 distance from the state before it.
    """
    if hp is None:
        hp = Hyperparameters()
    state = initial_state if initial_state is not None else init_state(graph)
    t, p, f = _level_slices(state, graph, "initial_state")
    step = _prepare_step(graph, normalize_matrices(graph), hp)
    u = np.concatenate(state.levels())
    new, diff = np.empty_like(u), np.empty_like(u)
    history: list[float] = []
    converged = False
    for _ in range(hp.max_iterations):
        step(u, new)
        np.subtract(new, u, out=diff)
        np.abs(diff, out=diff)
        history.append(max([float(np.add.reduce(diff[s])) for s in (t, p, f)]))
        u, new = new, u
        if history[-1] < hp.tolerance:
            converged = True
            break
    iterations = state.iteration + len(history)
    return ScoreState(u[t], u[p], u[f], iteration=iterations), ConvergenceReport(
        converged=converged,
        iterations=iterations,
        residual=history[-1] if history else 0.0,
        residual_history=tuple(history),
    )
