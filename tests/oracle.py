"""Loop-literal dense reference for cross-checking the engine.

Everything here is recomputed from first principles with plain Python loops
over dense lists: citation weights straight from the records, column
normalization by explicit sums, the three-level update as written-out
neighbor sums, and the impact matrix as a full double loop over paper pairs.
No code is shared with the package's sparse/compiled path.
"""

from __future__ import annotations

from dataclasses import dataclass

from record_objects import ObjectRecords

# Independent copy of the code-to-field table (canonical field order).
FIELD_ORDER = [
    "Algebra", "AlgGeom", "DiffGeom", "Topology", "Analysis", "PDE",
    "DynSys", "Physics", "Probability", "Optimization",
    "NumericalAnalysis", "Statistics", "Others",
]

FIELD_OF_CODE = {}
for _field, _codes in [
    ("Algebra", ["06", "08", "15", "16", "17", "18", "20"]),
    ("AlgGeom", ["11", "12", "13", "14"]),
    ("DiffGeom", ["32", "51", "52", "53", "58"]),
    ("Topology", ["19", "22", "54", "55", "57"]),
    ("Analysis", ["26", "28", "30", "33", "34", "39", "40", "41", "42", "43", "46", "47"]),
    ("PDE", ["31", "35", "44", "45", "49"]),
    ("DynSys", ["37"]),
    ("Physics", ["70", "74", "76", "78", "80", "81", "82", "83", "85", "86"]),
    ("Probability", ["60"]),
    ("Optimization", ["90"]),
    ("NumericalAnalysis", ["65"]),
    ("Statistics", ["62"]),
]:
    for _code in _codes:
        FIELD_OF_CODE[_code] = _field


def field_of_paper(msc_code):
    return FIELD_OF_CODE.get(msc_code, "Others")


@dataclass
class DenseGraph:
    theorem_keys: list      # sorted (paper_id, theorem_id)
    paper_ids: list         # sorted
    field_names: list       # populated fields in canonical order
    T: list                 # dense lists of lists, (cited, citer)
    P: list
    F: list
    phi_TP: list            # theorem -> paper index
    phi_PF: list            # paper -> field index
    theorems_of_paper: list
    papers_of_field: list


def build_dense(records):
    """Assemble dense weight matrices and containment maps from records."""
    records = ObjectRecords.wrap(records)
    papers = sorted(records.papers, key=lambda p: p.paper_id)
    paper_ids = [p.paper_id for p in papers]
    paper_pos = {pid: i for i, pid in enumerate(paper_ids)}
    authors = {p.paper_id: set(p.author_ids) for p in papers}

    theorem_keys = sorted(t.key for t in records.theorems)
    theorem_pos = {key: i for i, key in enumerate(theorem_keys)}

    n_p = len(paper_ids)
    n_t = len(theorem_keys)

    field_names = sorted(
        {field_of_paper(p.msc_primary) for p in papers},
        key=FIELD_ORDER.index)
    field_pos = {name: i for i, name in enumerate(field_names)}
    phi_PF = [field_pos[field_of_paper(p.msc_primary)] for p in papers]
    n_f = len(field_names)

    T = [[0.0] * n_t for _ in range(n_t)]
    seen = set()
    for c in records.theorem_citations:
        src = theorem_pos.get(c.src_key)
        dst = theorem_pos.get(c.dst_key)
        if src is None or dst is None or src == dst or (src, dst) in seen:
            continue
        seen.add((src, dst))
        if c.src_paper == c.dst_paper:
            w = 0.05
        elif authors[c.src_paper] & authors[c.dst_paper]:
            w = 0.1
        else:
            w = 1.0
        T[dst][src] = w

    P = [[0.0] * n_p for _ in range(n_p)]
    seen = set()
    for c in records.paper_citations:
        src = paper_pos.get(c.src)
        dst = paper_pos.get(c.dst)
        if src is None or dst is None or src == dst or (src, dst) in seen:
            continue
        seen.add((src, dst))
        P[dst][src] = 0.1 if authors[c.src] & authors[c.dst] else 1.0

    F = [[0.0] * n_f for _ in range(n_f)]
    for p1 in range(n_p):
        for p2 in range(n_p):
            if P[p1][p2] > 0:
                F[phi_PF[p1]][phi_PF[p2]] += 1.0

    phi_TP = [paper_pos[key[0]] for key in theorem_keys]
    theorems_of_paper = [[] for _ in range(n_p)]
    for t, p in enumerate(phi_TP):
        theorems_of_paper[p].append(t)
    papers_of_field = [[] for _ in range(n_f)]
    for p, f in enumerate(phi_PF):
        papers_of_field[f].append(p)

    return DenseGraph(theorem_keys, paper_ids, field_names, T, P, F,
                      phi_TP, phi_PF, theorems_of_paper, papers_of_field)


def normalize_columns_dense(M):
    """Each nonzero column divided by its explicit sum; zero columns kept."""
    n_rows = len(M)
    n_cols = len(M[0]) if M else 0
    out = [[0.0] * n_cols for _ in range(n_rows)]
    for j in range(n_cols):
        s = 0.0
        for i in range(n_rows):
            s += M[i][j]
        if s > 0.0:
            for i in range(n_rows):
                out[i][j] = M[i][j] / s
    return out


def _neighbor_lists(M):
    """For each row i, the columns j with M[i][j] != 0 (the citers of i)."""
    return [[j for j, w in enumerate(row) if w != 0.0] for row in M]


def _normalize_level(hat):
    s = 0.0
    for h in hat:
        s += h
    if s <= 0.0:
        if len(hat) == 1:
            return [1.0]
        raise ZeroDivisionError("level vector summed to zero")
    return [h / s for h in hat]


class DenseSolver:
    """Reference iteration over a DenseGraph, explicit loops throughout."""

    def __init__(self, g: DenseGraph, alpha_t, alpha_p, beta_p, alpha_f):
        self.g = g
        self.alpha_t = alpha_t
        self.alpha_p = alpha_p
        self.beta_p = beta_p
        self.alpha_f = alpha_f
        self.Tn = normalize_columns_dense(g.T)
        self.Pn = normalize_columns_dense(g.P)
        self.Fn = normalize_columns_dense(g.F)
        self.nbr_T = _neighbor_lists(g.T)
        self.nbr_P = _neighbor_lists(g.P)
        self.nbr_F = _neighbor_lists(g.F)

    def init(self):
        g = self.g
        n_t, n_p, n_f = len(g.theorem_keys), len(g.paper_ids), len(g.field_names)
        return ([1.0 / n_t] * n_t, [1.0 / n_p] * n_p, [1.0 / n_f] * n_f)

    def step(self, state):
        u_t, u_p, u_f = state
        g = self.g
        n_t, n_p, n_f = len(u_t), len(u_p), len(u_f)

        hat_t = []
        for t in range(n_t):
            acc = 0.0
            for tp in self.nbr_T[t]:
                acc += self.Tn[t][tp] * u_t[tp]
            hat_t.append(self.alpha_t * acc
                         + (1.0 - self.alpha_t) * u_p[g.phi_TP[t]] / (n_t / n_p))

        hat_p = []
        for p in range(n_p):
            acc = 0.0
            for pp in self.nbr_P[p]:
                acc += self.Pn[p][pp] * u_p[pp]
            best = 0.0
            if g.theorems_of_paper[p]:
                best = max(u_t[t] for t in g.theorems_of_paper[p])
            hat_p.append(self.alpha_p * acc
                         + self.beta_p * u_f[g.phi_PF[p]] / (n_p / n_f)
                         + (1.0 - self.alpha_p - self.beta_p) * best)

        hat_f = []
        for f in range(n_f):
            acc = 0.0
            for fp in self.nbr_F[f]:
                acc += self.Fn[f][fp] * u_f[fp]
            excess = 0.0
            for p in g.papers_of_field[f]:
                d = u_p[p] - 1.0 / n_p
                if d > 0.0:
                    excess += d
            hat_f.append(self.alpha_f * acc + (1.0 - self.alpha_f) * excess)

        return (_normalize_level(hat_t), _normalize_level(hat_p),
                _normalize_level(hat_f))

    @staticmethod
    def residual(prev, new):
        worst = 0.0
        for a, b in zip(prev, new):
            d = 0.0
            for x, y in zip(a, b):
                d += abs(y - x)
            if d > worst:
                worst = d
        return worst

    def run(self, tolerance, max_iterations, initial=None):
        """Returns (trajectory including the initial state, converged_at).

        converged_at is the 1-based iteration where the stopping rule first
        fired, or None if the cap was reached first.
        """
        state = initial if initial is not None else self.init()
        trajectory = [state]
        for k in range(1, max_iterations + 1):
            new = self.step(state)
            trajectory.append(new)
            if self.residual(state, new) < tolerance:
                return trajectory, k
            state = new
        return trajectory, None


def impact_double_sum(Pn, u_p, phi_PF, n_fields):
    """Impact matrix as the literal double sum over all paper pairs."""
    out = [[0.0] * n_fields for _ in range(n_fields)]
    n_p = len(u_p)
    for p1 in range(n_p):
        for p2 in range(n_p):
            if Pn[p1][p2] != 0.0:
                out[phi_PF[p1]][phi_PF[p2]] += Pn[p1][p2] * u_p[p2]
    return out


def field_matrix_enumeration(P, phi_PF, n_fields):
    """Field matrix by brute-force enumeration of ordered paper pairs."""
    out = [[0] * n_fields for _ in range(n_fields)]
    n_p = len(P)
    for p1 in range(n_p):
        for p2 in range(n_p):
            if P[p1][p2] > 0:
                out[phi_PF[p1]][phi_PF[p2]] += 1
    return out
