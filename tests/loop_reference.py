"""Loop-form references for the array code.

``parse_corpus_loop``, ``validate_records_loop``, ``build_graph_loop`` and
``snapshot_filter_loop`` are ``parse_corpus``, ``validate_records``,
``build_graph`` and ``snapshot_filter`` written one record at a time:
``json.loads`` and a tuple of fields per line, gathered into columns in
file order (a paper's authors as listed); record objects (the views of
``record_objects.ObjectRecords``), sets of tuples, one weight call per edge
and one set lookup per row.
``test_columnar.py`` requires the columnar versions to give equal records
(column for column, and code for code for snapshots), malformed-line
reasons and reports, and graphs equal label for label and array for
array (``build_graph_loop`` codes each id by a dict over the records'
vocabulary and classifies each paper with ``oracle.field_of_paper``).
``validate_records_loop`` states the date rule itself. ``theorem_keys``
reads each theorem's (paper id, theorem id) from a graph's codes, one
theorem at a time.
``theorem_edge_weight`` and ``paper_edge_weight`` are the weight tiers as
scalar definitions, one edge at a time.

``intern_codes_two_pass`` numbers a column's unseen ids over its distinct
ids first and then looks every id up; ``test_records.py`` requires
``intern_codes`` to give equal codes and an equal vocabulary.

``rank_entities_loop`` builds an (id, field, score) triple for every entity,
labelling theorems through ``theorem_keys``, and sorts them all;
``iterate_once_reduceat`` takes each paper's strongest theorem with
``np.maximum.reduceat`` over the papers that own theorems.
``compute_scores_loop`` is the solve as a loop of ``iterate_once_reduceat``
and ``residual``, one ``ScoreState`` per step.
``test_analysis.py`` and ``test_solver.py`` require ``rank_entities`` to
give equal tables, and ``iterate_once`` and ``compute_scores``
bitwise-equal states and residuals, and
``test_cli.py`` requires ``rank`` to write ``rank_entities_loop``'s tables
byte for byte as ``csv.writer`` writes them.

``l1_normalized`` divides a level by its sum, as a separate call per level.

``csv_table_bytes`` writes a table row by row through ``csv.writer``;
``test_cli.py`` requires every file of every command to be what it writes
for the same cells. ``matvec`` is a matrix's product with a vector, each
row's entries added in stored order, and ``residual`` the largest
per-level l1 distance between two states; ``compute_scores_loop`` stops
on it.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from mathrank.analysis import RankingRow, RankingTable
from mathrank.corpus import MalformedLine
from mathrank.build import (
    INDEPENDENT_WEIGHT,
    SAME_PAPER_WEIGHT,
    SHARED_AUTHOR_WEIGHT,
    BuildError,
    build_field_matrix,
)
from mathrank.graph import ThreeLevelGraph
from mathrank.records import (
    TABLES,
    GraphRecords,
    ValidationIssue,
    ValidationReport,
    YearMonth,
)
from mathrank.solver import (
    ConvergenceReport,
    DegenerateLevelError,
    ScoreState,
    init_state,
    normalize_matrices,
)
from mathrank.sparsemat import SparseWeightMatrix

import oracle
from record_objects import ObjectRecords, PaperRecord, TheoremRecord


def _require_str(obj: dict, key: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise ValueError(f"field {key!r} must be a string")
    if any("\ud800" <= c <= "\udfff" for c in value):
        raise ValueError(f"field {key!r} holds a lone surrogate")
    return value


def _parse_paper(obj: dict) -> tuple:
    authors = obj["author_ids"]
    if not isinstance(authors, list) or not all(isinstance(a, str) for a in authors):
        raise ValueError("field 'author_ids' must be a list of strings")
    if any("\ud800" <= c <= "\udfff" for a in authors for c in a):
        raise ValueError("field 'author_ids' holds a lone surrogate")
    paper_id = _require_str(obj, "paper_id")
    msc_primary = _require_str(obj, "msc_primary")
    date = YearMonth.parse(_require_str(obj, "first_version_date"))
    return paper_id, msc_primary, tuple(authors), date.year, date.month


def _parse_theorem(obj: dict) -> tuple:
    return _require_str(obj, "paper_id"), _require_str(obj, "theorem_id")


def _parse_theorem_citation(obj: dict) -> tuple:
    return (_require_str(obj, "src_paper"), _require_str(obj, "src_theorem"),
            _require_str(obj, "dst_paper"), _require_str(obj, "dst_theorem"))


def _parse_paper_citation(obj: dict) -> tuple:
    return _require_str(obj, "src_paper"), _require_str(obj, "dst_paper")


def _parse_file(path, parse_one, errors: list[MalformedLine]) -> list:
    out = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip(" \t\r\n")
                if not line:
                    continue
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("record must be a JSON object")
                out.append(parse_one(obj))
            except (ValueError, KeyError) as exc:
                errors.append(MalformedLine(str(path), lineno, str(exc)))
    return out


def _from_rows(tables: list[list[tuple]]) -> GraphRecords:
    """Records from each table's rows, as tuples of its columns' values."""
    columns = {}
    for names, rows in zip(TABLES, tables):
        columns.update(zip(names, zip(*rows)) if rows else dict.fromkeys(names, ()))
    return ObjectRecords.from_columns(**columns)


def parse_corpus_loop(papers_path, theorems_path, theorem_citations_path,
                      paper_citations_path) -> tuple[GraphRecords, list[MalformedLine]]:
    """The records as columns in file order, each line's fields as
    ``json.loads`` reads them (authors in their listed order)."""
    errors: list[MalformedLine] = []
    tables = [_parse_file(path, parse_one, errors) for path, parse_one in zip(
        (papers_path, theorems_path, theorem_citations_path, paper_citations_path),
        (_parse_paper, _parse_theorem, _parse_theorem_citation, _parse_paper_citation))]
    return _from_rows(tables), errors


def snapshot_filter_loop(records: GraphRecords, year: int) -> GraphRecords:
    """The rows of the papers first versioned by December of ``year``, then
    of the theorems whose paper id is a kept paper's, then of the citations
    whose ends are all kept, one row at a time and in row order."""
    records = ObjectRecords.wrap(records)
    papers = [row for row in zip(records.column("paper_id"), records.msc_primary,
                                 records.author_ids, records.year.tolist(),
                                 records.month.tolist())
              if (row[3], row[4]) <= (year, 12)]
    kept_papers = {row[0] for row in papers}
    theorems = [row for row in zip(*map(records.column, TABLES[1]))
                if row[0] in kept_papers]
    kept_theorems = set(theorems)
    theorem_citations = [
        row for row in zip(*map(records.column, TABLES[2]))
        if row[:2] in kept_theorems and row[2:] in kept_theorems]
    paper_citations = [row for row in zip(*map(records.column, TABLES[3]))
                       if row[0] in kept_papers and row[1] in kept_papers]
    return _from_rows([papers, theorems, theorem_citations, paper_citations])


def validate_records_loop(records: GraphRecords) -> ValidationReport:
    records = ObjectRecords.wrap(records)
    issues: list[ValidationIssue] = []

    seen_papers: set[str] = set()
    for p in records.papers:
        if p.paper_id in seen_papers:
            issues.append(ValidationIssue("duplicate_paper", p.paper_id))
        seen_papers.add(p.paper_id)
        code = p.msc_primary
        if not (isinstance(code, str) and len(code) == 2 and code.isascii() and code.isalnum()):
            issues.append(ValidationIssue(
                "malformed_paper", f"{p.paper_id}: bad subject code {p.msc_primary!r}"))
        date = p.first_version_date
        if not (date.year >= 1 and 1 <= date.month <= 12):
            issues.append(ValidationIssue(
                "malformed_paper", f"{p.paper_id}: bad date {p.first_version_date}"))

    seen_theorems: set[tuple[str, str]] = set()
    for t in records.theorems:
        if t.key in seen_theorems:
            issues.append(ValidationIssue("duplicate_theorem", f"{t.paper_id}:{t.theorem_id}"))
        seen_theorems.add(t.key)
        if t.paper_id not in seen_papers:
            issues.append(ValidationIssue(
                "dangling_theorem", f"{t.paper_id}:{t.theorem_id} references unknown paper"))

    for tc in records.theorem_citations:
        if tc.src_key == tc.dst_key:
            issues.append(ValidationIssue(
                "self_citation", f"theorem {tc.src_paper}:{tc.src_theorem} cites itself"))
            continue
        for key, role in ((tc.src_key, "src"), (tc.dst_key, "dst")):
            if key not in seen_theorems:
                issues.append(ValidationIssue(
                    "dangling_theorem_citation",
                    f"{role} theorem {key[0]}:{key[1]} unknown"))

    for pc in records.paper_citations:
        if pc.src == pc.dst:
            issues.append(ValidationIssue("self_citation", f"paper {pc.src} cites itself"))
            continue
        for pid, role in ((pc.src, "src"), (pc.dst, "dst")):
            if pid not in seen_papers:
                issues.append(ValidationIssue(
                    "dangling_paper_citation", f"{role} paper {pid} unknown"))

    return ValidationReport(tuple(issues))


def theorem_edge_weight(
    src: TheoremRecord,
    dst: TheoremRecord,
    src_paper: PaperRecord,
    dst_paper: PaperRecord,
) -> float:
    """Weight of the theorem-level edge src -> dst (src's proof cites dst)."""
    if src.paper_id == dst.paper_id:
        return SAME_PAPER_WEIGHT
    if src_paper.author_ids & dst_paper.author_ids:
        return SHARED_AUTHOR_WEIGHT
    return INDEPENDENT_WEIGHT


def paper_edge_weight(src: PaperRecord, dst: PaperRecord) -> float:
    """Weight of the paper-level edge src -> dst (src cites dst)."""
    if src.author_ids & dst.author_ids:
        return SHARED_AUTHOR_WEIGHT
    return INDEPENDENT_WEIGHT


def _matrix(n: int, entries: list[tuple[int, int, float]]) -> SparseWeightMatrix:
    """The n x n matrix of distinct (row, col, value) entries, stored by
    column, then row."""
    entries = sorted(entries, key=lambda e: (e[1], e[0]))
    rows, cols, vals = (np.array([e[k] for e in entries], dtype=dtype)
                        for k, dtype in ((0, np.int64), (1, np.int64), (2, np.float64)))
    return SparseWeightMatrix((n, n), rows, cols, vals)


def build_graph_loop(records: GraphRecords) -> ThreeLevelGraph:
    records = ObjectRecords.wrap(records)
    report = validate_records_loop(records)
    fatal = report.fatal_issues
    if fatal:
        raise BuildError(f"{fatal[0].kind}: {fatal[0].detail}"
                         + (f" (+{len(fatal) - 1} more)" if len(fatal) > 1 else ""))

    papers = sorted(records.papers, key=lambda p: p.paper_id)
    paper_ids = tuple(p.paper_id for p in papers)
    paper_index = {pid: i for i, pid in enumerate(paper_ids)}
    paper_by_id = {p.paper_id: p for p in papers}

    theorems = sorted(records.theorems, key=lambda t: t.key)
    theorem_index = {t.key: i for i, t in enumerate(theorems)}

    # Ids as codes into the records' vocabularies.
    vocabs = records.paper_ids, records.theorem_ids
    paper_code, theorem_code = ({name: code for code, name in enumerate(v)} for v in vocabs)

    n_papers = len(papers)
    n_theorems = len(theorems)

    canonical_field = np.array(
        [oracle.FIELD_ORDER.index(oracle.field_of_paper(p.msc_primary)) for p in papers],
        dtype=np.int64)
    field_indices = np.unique(canonical_field)
    local_of_canonical = {int(c): i for i, c in enumerate(field_indices)}
    paper_field = np.array(
        [local_of_canonical[int(c)] for c in canonical_field], dtype=np.int64)
    n_fields = int(field_indices.size)

    t_edges: set[tuple[int, int]] = set()
    for tc in records.theorem_citations:
        src = theorem_index.get(tc.src_key)
        dst = theorem_index.get(tc.dst_key)
        if src is None or dst is None or src == dst:
            continue
        t_edges.add((dst, src))
    t_entries = []
    for dst_i, src_i in sorted(t_edges):
        src_t, dst_t = theorems[src_i], theorems[dst_i]
        w = theorem_edge_weight(
            src_t, dst_t, paper_by_id[src_t.paper_id], paper_by_id[dst_t.paper_id])
        t_entries.append((dst_i, src_i, w))
    t_matrix = _matrix(n_theorems, t_entries)

    p_edges: set[tuple[int, int]] = set()
    for pc in records.paper_citations:
        src = paper_index.get(pc.src)
        dst = paper_index.get(pc.dst)
        if src is None or dst is None or src == dst:
            continue
        p_edges.add((dst, src))
    p_entries = [
        (dst_i, src_i, paper_edge_weight(papers[src_i], papers[dst_i]))
        for dst_i, src_i in sorted(p_edges)
    ]
    p_matrix = _matrix(n_papers, p_entries)

    f_matrix = build_field_matrix(paper_field, n_fields, p_matrix)

    theorem_paper = np.array(
        [paper_index[t.paper_id] for t in theorems], dtype=np.int64)

    return ThreeLevelGraph(
        paper_vocab=vocabs[0],
        theorem_vocab=vocabs[1],
        paper_code=np.array([paper_code[pid] for pid in paper_ids], dtype=np.int64),
        theorem_code=np.array([theorem_code[t.theorem_id] for t in theorems], dtype=np.int64),
        field_indices=field_indices,
        t_matrix=t_matrix,
        p_matrix=p_matrix,
        f_matrix=f_matrix,
        theorem_paper=theorem_paper,
        paper_field=paper_field,
    )


def theorem_keys(graph: ThreeLevelGraph) -> list[tuple[str, str]]:
    """Each theorem's (paper id, theorem id), in index order, one theorem at
    a time."""
    paper_ids = graph.paper_ids
    return [(paper_ids[p], graph.theorem_vocab[t])
            for p, t in zip(graph.theorem_paper.tolist(), graph.theorem_code.tolist())]


def _level_entities(graph: ThreeLevelGraph, state: ScoreState, level: str):
    """(entity_id, owning field name, score) triples for one level."""
    names = graph.field_names
    if level == "theorem":
        fields = graph.paper_field[graph.theorem_paper]
        return [
            (f"{paper_id}:{theorem_id}", names[fields[i]], float(state.u_t[i]))
            for i, (paper_id, theorem_id) in enumerate(theorem_keys(graph))
        ]
    if level == "paper":
        return [
            (paper_id, names[graph.paper_field[i]], float(state.u_p[i]))
            for i, paper_id in enumerate(graph.paper_ids)
        ]
    if level == "field":
        return [(names[i], names[i], float(state.u_f[i])) for i in range(graph.n_fields)]
    raise ValueError(f"unknown level {level!r}")


def rank_entities_loop(graph: ThreeLevelGraph, state: ScoreState, level: str,
                       top_k: int = 10, group_by_field: bool = False) -> RankingTable:
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    entities = _level_entities(graph, state, level)
    entities.sort(key=lambda e: (-e[2], e[0]))
    rows: list[RankingRow] = []
    if group_by_field:
        for field_name in graph.field_names:
            in_field = [e for e in entities if e[1] == field_name][:top_k]
            rows.extend(
                RankingRow(r, eid, fname, score)
                for r, (eid, fname, score) in enumerate(in_field, start=1)
            )
    else:
        rows = [
            RankingRow(r, eid, fname, score)
            for r, (eid, fname, score) in enumerate(entities[:top_k], start=1)
        ]
    return RankingTable(level=level, grouped=group_by_field, rows=tuple(rows))


def csv_table_bytes(header, rows, comments=()) -> bytes:
    """``# `` comment lines, then the header and rows as ``csv.writer`` writes
    them one row at a time, UTF-8 encoded."""
    buf = io.StringIO()
    buf.writelines(f"# {comment}\n" for comment in comments)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def matvec(m: SparseWeightMatrix, x: np.ndarray) -> np.ndarray:
    """The product m @ x; each row sums its entries in ascending column order."""
    # bincount returns int64 when there are no entries, whatever the weights.
    return np.bincount(m.rowidx, weights=m.values * x[m.colidx],
                       minlength=m.shape[0]).astype(np.float64, copy=False)


def residual(prev: ScoreState, new: ScoreState) -> float:
    """Largest per-level l1 distance between two states."""
    diffs = []
    for a, b in zip(prev.levels(), new.levels()):
        if a.shape != b.shape:
            raise ValueError("score states have mismatched dimensions")
        diffs.append(float(np.sum(np.abs(b - a))))
    return max(diffs)


def l1_normalized(hat: np.ndarray, level: str) -> np.ndarray:
    """``hat`` over its sum; a one-entity level that sums to zero is [1.0],
    and a larger one raises DegenerateLevelError naming ``level``."""
    total = float(np.sum(hat))
    if total > 0.0:
        return hat / total
    if hat.size == 1:
        return np.ones(1)
    raise DegenerateLevelError(f"{level} level produced an all-zero update; cannot renormalize")


def iterate_once_reduceat(state, graph, norm, hp) -> ScoreState:
    n_t, n_p, n_f = graph.n_theorems, graph.n_papers, graph.n_fields

    hat_t = matvec(norm.t_norm, state.u_t)
    hat_t *= hp.alpha_t
    hat_t += (1.0 - hp.alpha_t) * (state.u_p[graph.theorem_paper] / (n_t / n_p))

    hat_p = matvec(norm.p_norm, state.u_p)
    hat_p *= hp.alpha_p
    hat_p += hp.beta_p * (state.u_f[graph.paper_field] / (n_p / n_f))
    # Theorems are grouped by paper, so reducing between the start offsets of
    # the papers that own theorems gives each such paper its own maximum.
    count = np.bincount(graph.theorem_paper, minlength=n_p)
    starts = np.cumsum(count) - count
    owns = count > 0
    best_theorem = np.zeros(n_p)
    best_theorem[owns] = np.maximum.reduceat(state.u_t, starts[owns])
    hat_p += (1.0 - hp.alpha_p - hp.beta_p) * best_theorem

    hat_f = matvec(norm.f_norm, state.u_f)
    hat_f *= hp.alpha_f
    above_share = np.maximum(state.u_p - 1.0 / n_p, 0.0)
    excess = np.bincount(graph.paper_field, weights=above_share, minlength=n_f)
    hat_f += (1.0 - hp.alpha_f) * excess

    return ScoreState(
        u_t=l1_normalized(hat_t, "theorem"),
        u_p=l1_normalized(hat_p, "paper"),
        u_f=l1_normalized(hat_f, "field"),
        iteration=state.iteration + 1,
    )


def compute_scores_loop(graph, hp, initial_state=None):
    norm = normalize_matrices(graph)
    state = initial_state if initial_state is not None else init_state(graph)
    history: list[float] = []
    converged = False
    for _ in range(hp.max_iterations):
        new = iterate_once_reduceat(state, graph, norm, hp)
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


def intern_codes_two_pass(vocab: dict[str, int], strings: tuple[str, ...]) -> np.ndarray:
    for s in dict.fromkeys(strings):
        if s not in vocab:
            vocab[s] = len(vocab)
    return np.fromiter(map(vocab.__getitem__, strings), dtype=np.int64, count=len(strings))
