"""Command-line front end: build, rank, series, impact.

All outputs are UTF-8, LF-terminated, comma-delimited files with one header
line; scores carry 12 significant digits. Commands are deterministic:
identical inputs and flags produce byte-identical files.

Exit codes: 0 success, 1 solver did not converge (outputs still written),
2 input or validation failure.
"""

from __future__ import annotations

import csv
import gc
import io
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import click

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
from .fields import FIELD_NAMES, msc_to_field
from .records import validate_records
from .solver import DegenerateLevelError, Hyperparameters, compute_scores, normalize_matrices

_RANK_LEVELS = ("theorem", "paper", "field")


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _write_csv(path: Path, header: list[str], rows, comments: list[str] | None = None):
    """A table as csv.writer writes it. A row this Python's csv.writer cannot
    write (a NUL on 3.10) exits 2, before the file is opened."""
    buf = io.StringIO()
    for comment in comments or []:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    try:
        writer.writerow(header)
        writer.writerows(rows)
    except csv.Error as exc:
        click.echo(f"error: cannot write a row to {path.name}: {exc}", err=True)
        sys.exit(2)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def _may_need_quoting(text: str) -> bool:
    """Whether text holds a character that csv.writer may not write bare.

    Python 3.13 quotes a lone CR, which 3.10-3.12 write bare; 3.10 refuses
    a NUL, which later versions write bare.
    """
    return any(c in text for c in ',"\r\n\0')


def _id_cell(entity_id: str) -> str:
    """The id as this Python's csv.writer writes it in a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([entity_id])
    return buf.getvalue()[:-1]


def _write_rankings(path: Path, ranks, ids, fields, scores, comments: list[str] | None):
    """A rankings table, byte for byte what _write_csv writes for these rows.

    An id this Python's csv.writer cannot write (a NUL on 3.10) exits 2.
    """
    if _may_need_quoting("".join(ids)):
        try:
            ids = [_id_cell(i) if _may_need_quoting(i) else i for i in ids]
        except csv.Error as exc:
            click.echo(f"error: cannot write an id to {path.name}: {exc}", err=True)
            sys.exit(2)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for comment in comments or []:
            fh.write(f"# {comment}\n")
        fh.write("rank,id,field,score\n")
        fh.write("".join(map("{},{},{},{:.12g}\n".format, ranks, ids, fields, scores)))


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
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_valid_corpus(papers_path, theorems_path, thm_cites_path, paper_cites_path):
    """Parse and validate, exiting with code 2 on any corpus defect."""
    records, malformed = parse_corpus(
        papers_path, theorems_path, thm_cites_path, paper_cites_path)
    if malformed:
        for m in malformed[:10]:
            click.echo(f"malformed line {m.path}:{m.line_number}: {m.reason}", err=True)
        click.echo(f"error: {len(malformed)} malformed corpus lines", err=True)
        sys.exit(2)
    report = validate_records(records)
    if not report.is_clean:
        for issue in report.issues[:10]:
            click.echo(f"{issue.kind}: {issue.detail}", err=True)
        click.echo(f"error: corpus failed validation ({len(report.issues)} issues)", err=True)
        sys.exit(2)
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
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
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

    issue_rows = [("malformed_line", f"{m.path}:{m.line_number}: {m.reason}")
                  for m in malformed]
    issue_rows += [(i.kind, i.detail) for i in report.issues]
    _write_csv(out / "validation.csv", ["kind", "detail"], issue_rows)

    field_counts = {name: 0 for name in FIELD_NAMES}
    for code, count in Counter(records.msc_primary).items():
        try:
            field_counts[msc_to_field(code).name] += count
        except ValueError:
            pass
    n_papers, n_theorems, n_theorem_citations, n_paper_citations = records.sizes
    summary_rows = [
        ("papers", n_papers),
        ("theorems", n_theorems),
        ("theorem_citations", n_theorem_citations),
        ("paper_citations", n_paper_citations),
    ]
    summary_rows += [(f"papers_in.{name}", field_counts[name]) for name in FIELD_NAMES]
    _write_csv(out / "summary.csv", ["metric", "value"], summary_rows)

    failed = False
    if issue_rows:
        click.echo(f"validation failed: {len(issue_rows)} issues "
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
            _write_rankings(out / f"rankings_{level}.csv", *columns, comments)


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
    score_rows = []
    for year, scores, status in zip(fs.years, fs.scores, fs.status):
        cells = [_fmt(s) for s in scores] if scores is not None else [""] * len(FIELD_NAMES)
        score_rows.append([year, status, *cells])
    _write_csv(out / "field_scores.csv",
               ["year", "status", *FIELD_NAMES], score_rows)

    rs = category_ratios(records, years)
    ratio_rows = []
    for year, ratios in zip(rs.years, rs.ratios):
        if ratios is None:
            ratio_rows.append([year, YEAR_EMPTY, *[""] * len(FIELD_NAMES)])
        else:
            ratio_rows.append([year, YEAR_OK, *[_fmt(r) for r in ratios]])
    _write_csv(out / "category_ratios.csv",
               ["year", "status", *FIELD_NAMES], ratio_rows)

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
        full = matrix.expand_canonical()
        _write_csv(
            out / "impact_matrix.csv",
            ["field", *FIELD_NAMES],
            [[FIELD_NAMES[i], *(_fmt(v) for v in full[i])] for i in range(len(FIELD_NAMES))],
            comments=comments,
        )
        _write_csv(
            out / "impact_asymmetry.csv",
            ["source", "target", "ratio"],
            [(src, dst, "" if ratio is None else _fmt(ratio))
             for src, dst, ratio in impact_asymmetry(matrix)],
            comments=comments,
        )


if __name__ == "__main__":
    main()
