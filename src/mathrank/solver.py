"""Coupled three-level score iteration.

Each iteration propagates influence within a level through the
column-normalized citation matrix and across levels through containment:
theorems inherit from their paper, papers inherit from their field and from
their strongest theorem, and fields collect the above-average excess of
their papers. All three vectors are renormalized to unit l1 norm after
every step (synchronous update: new values read only old ones).
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, NamedTuple

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
        # operator.index takes any integer type and no float; it takes a bool
        # too, which is never a meant count. The solve counts steps with
        # islice, which takes no count above sys.maxsize.
        try:
            count = operator.index(self.max_iterations)
        except TypeError:
            count = 0
        if isinstance(self.max_iterations, bool) or not 1 <= count <= sys.maxsize:
            raise ValueError(f"max_iterations must be an integer from 1 to {sys.maxsize}, "
                             f"got {self.max_iterations!r}")


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


class NormalizedMatrices(NamedTuple):
    t_norm: SparseWeightMatrix
    p_norm: SparseWeightMatrix
    f_norm: SparseWeightMatrix


class ConvergenceReport(NamedTuple):
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


def _stacked(state: ScoreState, graph: ThreeLevelGraph, name: str) -> np.ndarray:
    """``[u_t, u_p, u_f]`` of ``state`` (called ``name``) in a new array, after
    checking that it has the graph's level sizes and only finite,
    non-negative scores."""
    sizes = _level_sizes(graph)
    given = tuple(level.shape for level in state.levels())
    if given != tuple((n,) for n in sizes):
        raise ValueError(f"{name} has (theorem, paper, field) level shapes {given}; "
                         f"the graph has {sizes} entities")
    for level_name, level in zip(_LEVEL_NAMES, state.levels()):
        if not (np.isfinite(level) & (level >= 0.0)).all():
            raise ValueError(f"{name} has a non-finite or negative {level_name} score")
    return np.concatenate(state.levels())


def _steps(
    graph: ThreeLevelGraph, norm: NormalizedMatrices, hp: Hyperparameters, u: np.ndarray
) -> Iterator[tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """The solve from the stacked levels ``u = [u_t, u_p, u_f]``, which it
    takes over: each step writes the l1-normalized update into the other of
    two buffers and yields the residual and the new levels, views that the
    step after next overwrites.

    Theorems get citations plus their paper's score, scaled by the
    paper-to-theorem population ratio. Papers get citations, their field's
    score and their strongest theorem (zero without theorems). Fields get
    citations plus the excess of papers scoring above the uniform paper
    share. The normalized matrices are set up as one block-diagonal
    operator whose rows keep their entries in stored order, so its row sums
    add the same terms in the same order as each matrix's own product. The
    residual is the largest per-level l1 distance from the state before.
    """
    sizes = n_t, n_p, n_f = graph.n_theorems, graph.n_papers, graph.n_fields
    blocks, offsets = (norm.t_norm, norm.p_norm, norm.f_norm), (0, n_t, n_t + n_p)
    rows = np.concatenate([m.rowidx + k for m, k in zip(blocks, offsets)])
    cols = np.concatenate([m.colidx + k for m, k in zip(blocks, offsets)])
    vals = np.concatenate([m.values for m in blocks])
    alpha = np.repeat([hp.alpha_t, hp.alpha_p, hp.alpha_f], sizes)
    # Containment from above, over the tail [u_p, u_f]: each tail entity's
    # share c * (u / r) for what it contains, and parent[i] the tail slot of
    # entity i's container. c * (u[parent] / r) == (c * (u / r))[parent].
    ratio = np.repeat([n_t / n_p, n_p / n_f], (n_p, n_f))
    coef = np.repeat([1.0 - hp.alpha_t, hp.beta_p], (n_p, n_f))
    parent = np.concatenate([graph.theorem_paper, n_p + graph.paper_field])
    c_best, c_f, share = 1.0 - hp.alpha_p - hp.beta_p, 1.0 - hp.alpha_f, 1.0 / n_p
    gathered = np.empty(cols.size)
    upper, inherited = np.empty(n_p + n_f), np.empty(n_t + n_p)
    best, above = np.empty(n_p), np.empty(n_p)

    def views(buf: np.ndarray) -> tuple[np.ndarray, ...]:
        """buf, its three levels, its [u_t, u_p] head and [u_p, u_f] tail."""
        return (buf, buf[:n_t], buf[n_t:n_t + n_p], buf[n_t + n_p:],
                buf[:n_t + n_p], buf[n_t:])

    diff, d_t, d_p, d_f, _, _ = views(np.empty_like(u))
    cur, nxt = views(u), views(np.empty_like(u))
    add = np.add.reduce
    while True:
        u, u_t, u_p, _, _, tail = cur
        new, new_t, new_p, new_f, head, _ = nxt
        # Citations within each level. The default mode="raise" would buffer
        # the output of take; every index is in range.
        u.take(cols, out=gathered, mode="clip")
        np.multiply(gathered, vals, out=gathered)
        # bincount returns int64 when there are no entries; the multiply casts.
        np.multiply(np.bincount(rows, gathered, minlength=u.size), alpha, out=new)
        np.divide(tail, ratio, out=upper)
        upper *= coef
        upper.take(parent, out=inherited, mode="clip")
        head += inherited
        # Each paper's strongest theorem: scores are nonnegative, so a maximum
        # started from zero is the paper's own, and zero without theorems.
        best.fill(0.0)
        np.maximum.at(best, graph.theorem_paper, u_t)
        best *= c_best
        new_p += best
        # Each field's excess of papers above the uniform share.
        np.subtract(u_p, share, out=above)
        np.maximum(above, 0.0, out=above)
        new_f += c_f * np.bincount(graph.paper_field, above, minlength=n_f)
        # Per-level sums over views: np.add.reduceat does not add in the
        # order np.add.reduce does, so its totals can differ in the last bit.
        for name, level in zip(_LEVEL_NAMES, (new_t, new_p, new_f)):
            total = float(add(level))
            if total <= 0.0:
                # A single-entity level carries the whole unit mass by
                # definition; anything larger with zero total mass is a
                # genuine degeneracy.
                if level.size != 1:
                    raise DegenerateLevelError(
                        f"{name} level produced an all-zero update; cannot renormalize")
                level[0] = 1.0
            else:
                level /= total
        np.subtract(new, u, out=diff)
        np.abs(diff, out=diff)
        yield (max(float(add(d_t)), float(add(d_p)), float(add(d_f))),
               (new_t, new_p, new_f))
        cur, nxt = nxt, cur


def iterate_once(
    state: ScoreState,
    graph: ThreeLevelGraph,
    norm: NormalizedMatrices,
    hp: Hyperparameters,
) -> ScoreState:
    """One synchronous update of all three levels, then l1 renormalization:
    the first step of ``compute_scores``' solve from ``state``. Raises as
    ``compute_scores`` does for an empty level or a state that does not fit.
    """
    _, levels = next(_steps(graph, norm, hp, _stacked(state, graph, "state")))
    return ScoreState(*levels, iteration=state.iteration + 1)


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

    Once a state repeats exactly, the run cycles up to the cap, so the solve
    stops at the repeat and returns what running to the cap returns; a cap
    whose residual history cannot be held raises MemoryError.
    """
    if hp is None:
        hp = Hyperparameters()
    if initial_state is None:
        initial_state = init_state(graph)
        u = np.concatenate(initial_state.levels())
    else:
        u = _stacked(initial_state, graph, "initial_state")
    history: list[float] = []
    converged = False
    steps = _steps(graph, normalize_matrices(graph), hp, u)
    # Brent's cycle finding: a copy of the state at each power-of-two step
    # from step 64 (most solves that converge stop before it), compared with
    # later states only where a residual repeats exactly.
    saved, saved_residual, save_at = (), np.nan, 64
    for residual, levels in islice(steps, hp.max_iterations):
        history.append(residual)
        if residual < hp.tolerance:
            converged = True
            break
        if residual == saved_residual and all(map(np.array_equal, levels, saved)):
            # Each step is a function of the state alone, so the run repeats
            # with this period to the cap: step to the cap's place in it.
            period = len(history) - save_at // 2
            for residual, levels in islice(steps, (hp.max_iterations - len(history)) % period):
                history.append(residual)
            history += history[-period:] * ((hp.max_iterations - len(history)) // period)
            break
        if len(history) == save_at:
            saved, saved_residual, save_at = tuple(map(np.copy, levels)), residual, 2 * save_at
    iterations = initial_state.iteration + len(history)
    return ScoreState(*levels, iteration=iterations), ConvergenceReport(
        converged=converged,
        iterations=iterations,
        residual=history[-1],
        residual_history=tuple(history),
    )
