"""Command-line front end: build, rank, series, impact.

All outputs are UTF-8, LF-terminated, comma-delimited files with one header
line; scores carry 12 significant digits. Commands are deterministic:
identical inputs and flags produce byte-identical files.

Exit codes: 0 success, 1 solver did not converge (outputs still written),
2 input or validation failure, or an output directory or file that cannot
be written.
"""

from __future__ import annotations

import csv
import gc
import io
import sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from .analysis import (
    YEAR_EMPTY,
    YEAR_NOT_CONVERGED,
    YEAR_OK,
    category_ratios,
    field_impact,
    field_series,
    impact_asymmetry,
    ranking_columns,
)
from .build import build_graph
from .corpus import parse_corpus
from .fields import FIELD_NAMES, field_index_column, is_subject_code
from .records import validate_records
from .solver import DegenerateLevelError, Hyperparameters, compute_scores, normalize_matrices

_RANK_LEVELS = ("theorem", "paper", "field")
_SERIES_HEADER = ("year", "status", *FIELD_NAMES)
_SERIES_ROW = ",".join(["{}"] * len(_SERIES_HEADER))


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _field_columns(rows) -> list[list[str]]:
    """One column of 12-digit cells per field from rows of per-field values,
    one row per year; a year whose row is None gets blank cells."""
    return [["" if row is None else _fmt(row[f]) for row in rows]
            for f in range(len(FIELD_NAMES))]


def _fail(message: str):
    """Print one error line and exit 2, the code for bad input."""
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _may_need_quoting(text: str) -> bool:
    """Whether text holds a character that csv.writer may not write bare.

    Python 3.13 quotes a lone CR, which 3.10-3.12 write bare; 3.10 refuses
    a NUL, which later versions write bare.
    """
    return any(c in text for c in ',"\r\n\0')


def _csv_cell(text: str) -> str:
    """The text as this Python's csv.writer writes it in a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def _write_table(path: Path, header, row_format: str, columns, comments=None):
    """Write ``# `` comment lines, the header and one ``row_format`` line per row.

    The header's names need no quoting. ``columns`` holds one sequence per
    field of ``row_format``, each all text or all numbers. A text cell that
    may need quoting is written as this Python's csv.writer writes it, so
    the file is what csv.writer writes for these cells. A cell csv.writer
    refuses (a NUL on 3.10) exits 2 before the file is opened; a file that
    cannot be opened or written exits 2 as well.
    """
    try:
        columns = [
            [_csv_cell(c) if _may_need_quoting(c) else c for c in column]
            if column and isinstance(column[0], str) and _may_need_quoting("".join(column))
            else column
            for column in columns]
    except csv.Error as exc:
        _fail(f"cannot write a row to {path.name}: {exc}")
    lines = [f"# {comment}\n" for comment in comments or ()]
    lines.append(",".join(header) + "\n")
    lines.append("".join(map((row_format + "\n").format, *columns)))
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
    except OSError as exc:
        _fail(f"cannot write {path.name}: {exc}")


def corpus_options(f):
    for name in ("paper-cites", "thm-cites", "theorems", "papers"):
        opt = name.replace("-", "_") + "_path"
        f = click.option(
            f"--{name}", opt, required=True,
            type=click.Path(exists=True, dir_okay=False),
            help=f"Path to the {name.replace('-', ' ')} file.")(f)
    return f


def hyperparameter_options(f):
    hp = Hyperparameters()
    f = click.option("--max-iter", default=hp.max_iterations, show_default=True,
                     help="Iteration cap.")(f)
    f = click.option("--tol", default=hp.tolerance, show_default=True,
                     help="l1 convergence tolerance.")(f)
    f = click.option("--alpha-f", default=hp.alpha_f, show_default=True)(f)
    f = click.option("--beta-p", default=hp.beta_p, show_default=True)(f)
    f = click.option("--alpha-p", default=hp.alpha_p, show_default=True)(f)
    f = click.option("--alpha-t", default=hp.alpha_t, show_default=True)(f)
    return f


def out_dir_option(f):
    return click.option("--out-dir", default=".", show_default=True,
                        type=click.Path(file_okay=False), help="Output directory.")(f)


def _make_hp(alpha_t, alpha_p, beta_p, alpha_f, tol, max_iter) -> Hyperparameters:
    try:
        return Hyperparameters(
            alpha_t=alpha_t, alpha_p=alpha_p, beta_p=beta_p, alpha_f=alpha_f,
            tolerance=tol, max_iterations=max_iter)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _ensure_out_dir(out_dir: str) -> Path:
    path = Path(out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(f"cannot make the output directory: {exc}")
    return path


def _load_valid_corpus(papers_path, theorems_path, thm_cites_path, paper_cites_path):
    """Parse and validate, exiting with code 2 on any corpus defect."""
    records, malformed = parse_corpus(
        papers_path, theorems_path, thm_cites_path, paper_cites_path)
    if malformed:
        for m in malformed[:10]:
            click.echo(f"malformed line {m.path}:{m.line_number}: {m.reason}", err=True)
        _fail(f"{len(malformed)} malformed corpus lines")
    report = validate_records(records)
    if not report.is_clean:
        for issue in report.issues[:10]:
            click.echo(f"{issue.kind}: {issue.detail}", err=True)
        _fail(f"corpus failed validation ({len(report.issues)} issues)")
    return records


@contextmanager
def _solved(graph, hp: Hyperparameters):
    """Solve, yielding the state and the comment lines for the output files.

    A graph the solver rejects exits 2. Once the body has written its files,
    a run that hit the iteration cap warns and exits 1.
    """
    try:
        state, report = compute_scores(graph, hp)
    except (ValueError, DegenerateLevelError) as exc:
        _fail(str(exc))
    comments = None
    if not report.converged:
        comments = [f"not_converged after {report.iterations} iterations; "
                    f"residual {report.residual:.6g}"]
    yield state, comments
    if not report.converged:
        click.echo(f"warning: solver did not converge within {hp.max_iterations} "
                   f"iterations (residual {report.residual:.6g})", err=True)
        sys.exit(1)


@contextmanager
def _collector_paused():
    """Run the body with the cyclic garbage collector off.

    A command makes no reference cycles, so the collector's passes over the
    many small objects of a corpus free nothing. On leaving, the collector
    is left enabled or not, and its freeze count, as found. Where nothing
    was frozen, a freeze and unfreeze first move the body's survivors into
    the oldest generation, so that enabling it starts no pass over them.
    """
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if not frozen:
                gc.freeze()
                gc.unfreeze()
            gc.enable()


@click.group()
@click.pass_context
def main(ctx):
    """Build citation graphs, compute influence scores, export analyses."""
    ctx.with_resource(_collector_paused())


@main.command()
@corpus_options
@out_dir_option
def build(papers_path, theorems_path, thm_cites_path, paper_cites_path, out_dir):
    """Validate a corpus and write a graph summary plus a validation report."""
    out = _ensure_out_dir(out_dir)
    records, malformed = parse_corpus(
        papers_path, theorems_path, thm_cites_path, paper_cites_path)
    report = validate_records(records)

    kinds = ["malformed_line"] * len(malformed) + [i.kind for i in report.issues]
    details = [f"{m.path}:{m.line_number}: {m.reason}" for m in malformed]
    details += [i.detail for i in report.issues]
    _write_table(out / "validation.csv", ("kind", "detail"), "{},{}", [kinds, details])

    # A paper whose subject code is malformed counts in no field.
    field = field_index_column(list(filter(is_subject_code, records.msc_primary)))
    metrics = ["papers", "theorems", "theorem_citations", "paper_citations"]
    metrics += [f"papers_in.{name}" for name in FIELD_NAMES]
    values = [*records.sizes, *np.bincount(field, minlength=len(FIELD_NAMES)).tolist()]
    _write_table(out / "summary.csv", ("metric", "value"), "{},{}", [metrics, values])

    n_papers, n_theorems, *_ = records.sizes
    failed = False
    if kinds:
        click.echo(f"validation failed: {len(kinds)} issues "
                   f"(see {out / 'validation.csv'})", err=True)
        failed = True
    for level, count in (("paper", n_papers), ("theorem", n_theorems)):
        if count == 0:
            click.echo(f"empty level: no {level}s in the corpus", err=True)
            failed = True
    if failed:
        sys.exit(2)
    click.echo(f"corpus valid: {n_papers} papers, {n_theorems} theorems")


@main.command()
@corpus_options
@hyperparameter_options
@out_dir_option
@click.option("--top-k", default=10, show_default=True, help="Rows per table (or per field).")
@click.option("--group-by-field", is_flag=True, help="Rank within each field.")
@click.option("--level", "level_choice", type=click.Choice(_RANK_LEVELS),
              default=None, help="Restrict output to one level (default: all).")
def rank(papers_path, theorems_path, thm_cites_path, paper_cites_path,
         alpha_t, alpha_p, beta_p, alpha_f, tol, max_iter,
         out_dir, top_k, group_by_field, level_choice):
    """Run the full pipeline and write per-level ranking tables."""
    hp = _make_hp(alpha_t, alpha_p, beta_p, alpha_f, tol, max_iter)
    if top_k < 1:
        raise click.UsageError(f"--top-k must be >= 1, got {top_k}")
    out = _ensure_out_dir(out_dir)
    records = _load_valid_corpus(
        papers_path, theorems_path, thm_cites_path, paper_cites_path)
    graph = build_graph(records)
    with _solved(graph, hp) as (state, comments):
        for level in (level_choice,) if level_choice else _RANK_LEVELS:
            columns = ranking_columns(graph, state, level, top_k, group_by_field)
            _write_table(out / f"rankings_{level}.csv", ("rank", "id", "field", "score"),
                         "{},{},{},{:.12g}", columns, comments)


@main.command()
@corpus_options
@hyperparameter_options
@out_dir_option
@click.option("--from-year", required=True, type=int, help="First snapshot year.")
@click.option("--to-year", required=True, type=int, help="Last snapshot year (inclusive).")
def series(papers_path, theorems_path, thm_cites_path, paper_cites_path,
           alpha_t, alpha_p, beta_p, alpha_f, tol, max_iter,
           out_dir, from_year, to_year):
    """Write yearly field-score and cumulative category-ratio tables."""
    hp = _make_hp(alpha_t, alpha_p, beta_p, alpha_f, tol, max_iter)
    if to_year < from_year:
        raise click.UsageError("--to-year must be >= --from-year")
    out = _ensure_out_dir(out_dir)
    records = _load_valid_corpus(
        papers_path, theorems_path, thm_cites_path, paper_cites_path)
    years = range(from_year, to_year + 1)

    fs = field_series(records, years, hp)
    _write_table(out / "field_scores.csv", _SERIES_HEADER, _SERIES_ROW,
                 [fs.years, fs.status, *_field_columns(fs.scores)])

    rs = category_ratios(records, years)
    status = [YEAR_EMPTY if ratios is None else YEAR_OK for ratios in rs.ratios]
    _write_table(out / "category_ratios.csv", _SERIES_HEADER, _SERIES_ROW,
                 [rs.years, status, *_field_columns(rs.ratios)])

    bad_years = [y for y, s in zip(fs.years, fs.status) if s == YEAR_NOT_CONVERGED]
    if bad_years:
        click.echo(f"warning: solver did not converge for years {bad_years}", err=True)
        sys.exit(1)


@main.command()
@corpus_options
@hyperparameter_options
@out_dir_option
def impact(papers_path, theorems_path, thm_cites_path, paper_cites_path,
           alpha_t, alpha_p, beta_p, alpha_f, tol, max_iter, out_dir):
    """Write the field-to-field impact matrix and pairwise asymmetry ratios."""
    hp = _make_hp(alpha_t, alpha_p, beta_p, alpha_f, tol, max_iter)
    out = _ensure_out_dir(out_dir)
    records = _load_valid_corpus(
        papers_path, theorems_path, thm_cites_path, paper_cites_path)
    graph = build_graph(records)
    norm = normalize_matrices(graph)
    with _solved(graph, hp) as (state, comments):
        matrix = field_impact(graph, norm, state.u_p)
        _write_table(out / "impact_matrix.csv", ("field", *FIELD_NAMES),
                     "{}" + ",{:.12g}" * len(FIELD_NAMES),
                     [FIELD_NAMES, *matrix.expand_canonical().T.tolist()], comments)
        pairs = impact_asymmetry(matrix)
        _write_table(out / "impact_asymmetry.csv", ("source", "target", "ratio"), "{},{},{}",
                     [[src for src, _, _ in pairs], [dst for _, dst, _ in pairs],
                      ["" if ratio is None else _fmt(ratio) for _, _, ratio in pairs]],
                     comments)


if __name__ == "__main__":
    main()
