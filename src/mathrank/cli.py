"""Command-line front end: build, rank, series, impact.

All outputs are UTF-8, LF-terminated, comma-delimited files with one header
line; scores carry 12 significant digits. Commands are deterministic:
identical inputs and flags produce byte-identical files.

Exit codes: 0 success, 1 solver did not converge (outputs still written),
2 input or validation failure, or an output directory or file that cannot
be written. An exit 2 leaves no file that the command wrote, except that
``build`` writes both of its files for a corpus it rejects; one before the
write step makes no directory either.
"""

from __future__ import annotations

import csv
import io
import sys
from dataclasses import fields
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
from .fields import FIELD_NAMES
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


def _write_tables(out_dir: str, tables, comments=(), warning=None):
    """Write each ``(name, header, row_format, columns)`` table to ``out_dir / name``.

    A file holds one ``# `` line per comment, the header and one
    ``row_format`` line per row. The header's names need no quoting.
    ``columns`` holds one sequence per field of ``row_format``, each all
    text or all numbers. A text cell that may need quoting is written as
    this Python's csv.writer writes it, so the file is what csv.writer
    writes for these cells.

    Every table is formatted before the directory is made or any file is
    opened, so a cell csv.writer refuses (a NUL on 3.10) exits 2 with no
    file written. A directory that cannot be made exits 2, and so does a
    file that cannot be opened or written, after the files this call wrote
    are removed. Once every file is written, a ``warning`` is printed and
    the command exits 1.
    """
    out = Path(out_dir)
    texts = []
    for name, header, row_format, columns in tables:
        try:
            columns = [
                [_csv_cell(c) if _may_need_quoting(c) else c for c in column]
                if column and isinstance(column[0], str) and _may_need_quoting("".join(column))
                else column
                for column in columns]
        except csv.Error as exc:
            _fail(f"cannot write a row to {name}: {exc}")
        texts.append((out / name, [*(f"# {comment}\n" for comment in comments),
                                   ",".join(header) + "\n",
                                   "".join(map((row_format + "\n").format, *columns))]))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(f"cannot make the output directory: {exc}")
    written = []
    for path, lines in texts:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                written.append(path)
                fh.writelines(lines)
        except OSError as exc:
            for done in written:
                try:
                    done.unlink()
                except OSError:
                    pass
            _fail(f"cannot write {path.name}: {exc}")
    if warning:
        click.echo(f"warning: {warning}", err=True)
        sys.exit(1)


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
    f = click.option("--max-iter", "max_iterations", default=hp.max_iterations,
                     show_default=True, help="Iteration cap.")(f)
    f = click.option("--tol", "tolerance", default=hp.tolerance, show_default=True,
                     help="l1 convergence tolerance.")(f)
    f = click.option("--alpha-f", default=hp.alpha_f, show_default=True)(f)
    f = click.option("--beta-p", default=hp.beta_p, show_default=True)(f)
    f = click.option("--alpha-p", default=hp.alpha_p, show_default=True)(f)
    f = click.option("--alpha-t", default=hp.alpha_t, show_default=True)(f)
    return f


def out_dir_option(f):
    return click.option("--out-dir", default=".", show_default=True,
                        type=click.Path(file_okay=False), help="Output directory.")(f)


def _make_hp(options) -> Hyperparameters:
    """The Hyperparameters of a command's options, named as its fields."""
    try:
        return Hyperparameters(**{f.name: options[f.name] for f in fields(Hyperparameters)})
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _read_corpus(options):
    """parse_corpus of a command's four corpus paths, exiting with code 2
    on a file that cannot be read."""
    try:
        return parse_corpus(options["papers_path"], options["theorems_path"],
                            options["thm_cites_path"], options["paper_cites_path"])
    except OSError as exc:
        _fail(f"cannot read the corpus: {exc}")


def _load_valid_corpus(options):
    """Parse and validate, exiting with code 2 on any corpus defect."""
    records, malformed = _read_corpus(options)
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


def _solve(graph, hp: Hyperparameters):
    """Solve, returning the state, the comment lines for the output files
    and the warning to print once they are written.

    A graph the solver rejects exits 2. A run that hit the iteration cap
    gets a comment line and a warning; one that converged gets neither.
    """
    try:
        state, report = compute_scores(graph, hp)
    except (ValueError, DegenerateLevelError) as exc:
        _fail(str(exc))
    if report.converged:
        return state, (), None
    return (state,
            [f"not_converged after {report.iterations} iterations; "
             f"residual {report.residual:.6g}"],
            f"solver did not converge within {hp.max_iterations} iterations "
            f"(residual {report.residual:.6g})")


@click.group()
def main():
    """Build citation graphs, compute influence scores, export analyses."""


@main.command()
@corpus_options
@out_dir_option
def build(**options):
    """Validate a corpus and write a graph summary plus a validation report."""
    out_dir = options["out_dir"]
    records, malformed = _read_corpus(options)
    report = validate_records(records)

    kinds = ["malformed_line"] * len(malformed) + [i.kind for i in report.issues]
    details = [f"{m.path}:{m.line_number}: {m.reason}" for m in malformed]
    details += [i.detail for i in report.issues]
    # A paper whose subject code is malformed counts in no field.
    field = records.canonical_field
    metrics = ["papers", "theorems", "theorem_citations", "paper_citations"]
    metrics += [f"papers_in.{name}" for name in FIELD_NAMES]
    values = [*records.sizes, *np.bincount(field[field >= 0], minlength=len(FIELD_NAMES)).tolist()]
    _write_tables(out_dir, [("validation.csv", ("kind", "detail"), "{},{}", [kinds, details]),
                            ("summary.csv", ("metric", "value"), "{},{}", [metrics, values])])

    n_papers, n_theorems, *_ = records.sizes
    failed = False
    if kinds:
        click.echo(f"validation failed: {len(kinds)} issues "
                   f"(see {Path(out_dir) / 'validation.csv'})", err=True)
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
def rank(**options):
    """Run the full pipeline and write per-level ranking tables."""
    hp = _make_hp(options)
    top_k, level_choice = options["top_k"], options["level_choice"]
    if top_k < 1:
        raise click.UsageError(f"--top-k must be >= 1, got {top_k}")
    graph = build_graph(_load_valid_corpus(options))
    state, comments, warning = _solve(graph, hp)
    # A generator, so that each level's columns are formatted before the
    # next level's are made.
    _write_tables(options["out_dir"],
                  ((f"rankings_{level}.csv", ("rank", "id", "field", "score"), "{},{},{},{:.12g}",
                    ranking_columns(graph, state, level, top_k, options["group_by_field"]))
                   for level in ((level_choice,) if level_choice else _RANK_LEVELS)),
                  comments, warning)


@main.command()
@corpus_options
@hyperparameter_options
@out_dir_option
@click.option("--from-year", required=True, type=int, help="First snapshot year.")
@click.option("--to-year", required=True, type=int, help="Last snapshot year (inclusive).")
def series(**options):
    """Write yearly field-score and cumulative category-ratio tables."""
    hp = _make_hp(options)
    if options["to_year"] < options["from_year"]:
        raise click.UsageError("--to-year must be >= --from-year")
    records = _load_valid_corpus(options)
    years = range(options["from_year"], options["to_year"] + 1)

    fs = field_series(records, years, hp)
    rs = category_ratios(records, years)
    status = [YEAR_EMPTY if ratios is None else YEAR_OK for ratios in rs.ratios]
    bad_years = [y for y, s in zip(fs.years, fs.status) if s == YEAR_NOT_CONVERGED]
    _write_tables(options["out_dir"],
                  [("field_scores.csv", _SERIES_HEADER, _SERIES_ROW,
                    [fs.years, fs.status, *_field_columns(fs.scores)]),
                   ("category_ratios.csv", _SERIES_HEADER, _SERIES_ROW,
                    [rs.years, status, *_field_columns(rs.ratios)])],
                  warning=f"solver did not converge for years {bad_years}" if bad_years else None)


@main.command()
@corpus_options
@hyperparameter_options
@out_dir_option
def impact(**options):
    """Write the field-to-field impact matrix and pairwise asymmetry ratios."""
    hp = _make_hp(options)
    graph = build_graph(_load_valid_corpus(options))
    norm = normalize_matrices(graph)
    state, comments, warning = _solve(graph, hp)
    matrix = field_impact(graph, norm, state.u_p)
    pairs = impact_asymmetry(matrix)
    _write_tables(options["out_dir"],
                  [("impact_matrix.csv", ("field", *FIELD_NAMES),
                    "{}" + ",{:.12g}" * len(FIELD_NAMES),
                    [FIELD_NAMES, *matrix.expand_canonical().T.tolist()]),
                   ("impact_asymmetry.csv", ("source", "target", "ratio"), "{},{},{}",
                    [[src for src, _, _ in pairs], [dst for _, dst, _ in pairs],
                     ["" if ratio is None else _fmt(ratio) for _, _, ratio in pairs]])],
                  comments, warning)


if __name__ == "__main__":
    main()
