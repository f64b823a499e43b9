"""Output checks for each benchmark workload.

Each check returns a list of problems (empty when the output is right) and a
dict of notes that are reported but never fail a run: how many scores differ
at 12 significant digits from the reference, and how many iterations the
solver ran past the point where the exact residual fell below the tolerance.

A float64 solver's residual carries rounding noise, so where the exact
residual lands within that noise of the tolerance the program may stop one
step later than the reference. Scores are therefore compared with the
reference at the program's stopping step when that is known (sweep), and
otherwise with the reference at its stopping step or the step after.
"""

from __future__ import annotations

import csv
import json
from collections import Counter

import numpy as np

from reference import FIELD_ORDER, field_of_code

# Scores are unit-mass vectors: below ATOL a value is rounding noise of the
# whole vector and cannot be compared relatively.
RTOL, ATOL = 1e-9, 1e-14
SUM_TOL = 1e-10


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    return rows[0], rows[1:]


def _mismatch(got, want):
    """Indices where got and want differ by more than the tolerance."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.flatnonzero(np.abs(got - want) > RTOL * np.abs(want) + ATOL)


def _digits_off(printed, want):
    return sum(p != format(float(w), ".12g") for p, w in zip(printed, want))


def _ordered(ref_scores):
    """True when scores in printed order never rise beyond the tolerance."""
    s = np.asarray(ref_scores, dtype=float)
    return bool(np.all(s[1:] <= s[:-1] + RTOL * s[:-1] + ATOL))


def _check_rankings(out, expected):
    problems, off = [], 0
    for level, want in expected.items():
        header, rows = read_csv(f"{out}/rankings_{level}.csv")
        if header != ["rank", "id", "field", "score"]:
            problems.append(f"{level}: header {header}")
            continue
        ids = [r[1] for r in rows]
        if sorted(ids) != sorted(want) or len(ids) != len(want):
            problems.append(f"{level}: {len(ids)} rows, ids differ from the {len(want)} entities")
            continue
        if [r[0] for r in rows] != [str(k) for k in range(1, len(rows) + 1)]:
            problems.append(f"{level}: ranks are not 1..{len(rows)}")
        if any(r[2] != want[r[1]][0] for r in rows):
            problems.append(f"{level}: wrong field names")
        ref = [want[i][1] for i in ids]
        printed = [r[3] for r in rows]
        bad = _mismatch([float(p) for p in printed], ref)
        if len(bad):
            k = bad[0]
            problems.append(f"{level}: {len(bad)} scores off the reference, "
                            f"first {ids[k]} {printed[k]} vs {float(ref[k])!r}")
        if not _ordered(ref):
            problems.append(f"{level}: order disagrees with the reference scores")
        if level == "field" and abs(sum(float(p) for p in printed) - 1) > SUM_TOL:
            problems.append("field scores do not sum to 1")
        off += _digits_off(printed, ref)
    return problems, off


def check_rankings(out, candidates):
    """candidates: the reference at its stopping step, then one step later;
    each maps level -> {id: (field name, score)}."""
    first = None
    for extra, expected in enumerate(candidates):
        problems, off = _check_rankings(out, expected)
        if not problems:
            return [], {"digits_off_12": off, "extra_iterations": extra}
        first = first or problems
    return first, {}


def check_build(out, manifest, exit_code):
    problems = []
    if exit_code != 2:
        problems.append(f"build exited {exit_code}, expected 2")
    header, rows = read_csv(f"{out}/validation.csv")
    kinds = Counter(r[0] for r in rows)
    if header != ["kind", "detail"] or kinds != Counter(manifest["issues"]):
        problems.append(f"validation.csv kinds {dict(kinds)} != {manifest['issues']}")
    reported = sorted(tuple(r[1].split(": ", 1)[0].rsplit(":", 1)) for r in rows
                      if r[0] == "malformed_line")
    by_path = {manifest["files"][name]: lines
               for name, lines in manifest["malformed_lines"].items()}
    injected = sorted((path, str(n)) for path, lines in by_path.items() for n in lines)
    if reported != injected:
        problems.append("malformed lines reported at other places than injected")
    header, rows = read_csv(f"{out}/summary.csv")
    summary = {r[0]: int(r[1]) for r in rows}
    if summary != manifest["summary"]:
        problems.append(f"summary.csv {summary} != {manifest['summary']}")
    return problems, {}


def check_series(out, corpus, years, field_refs):
    """field_refs: year -> candidate reference field scores, 13 in canonical
    order, at the reference's stopping step and one step later."""
    problems, off, extra = [], 0, 0
    header, rows = read_csv(f"{out}/category_ratios.csv")
    fields = np.array([FIELD_ORDER.index(field_of_code(m)) for m in corpus.msc])
    year_of = np.asarray(corpus.year)
    if len(rows) != len(years):
        problems.append(f"category_ratios.csv has {len(rows)} years, expected {len(years)}")
    for y, row in zip(years, rows):
        counts = np.bincount(fields[year_of <= y], minlength=len(FIELD_ORDER))
        total = int(counts.sum())
        want = [str(y), "ok", *(format(int(c) / total, ".12g") for c in counts)]
        if row != want:
            problems.append(f"category_ratios.csv {y}: {row} != {want}")
            break

    header, rows = read_csv(f"{out}/field_scores.csv")
    if header != ["year", "status", *FIELD_ORDER] or len(rows) != len(years):
        return problems + [f"field_scores.csv has {len(rows)} rows, header {header}"], {}
    for y, row in zip(years, rows):
        if row[:2] != [str(y), "ok"]:
            problems.append(f"field_scores.csv {y}: status {row[:2]}")
            continue
        printed = row[2:]
        got = [float(p) for p in printed]
        if abs(sum(got) - 1) > SUM_TOL:
            problems.append(f"field_scores.csv {y}: scores sum to {sum(got)!r}")
        match = [k for k, ref in enumerate(field_refs[y]) if not len(_mismatch(got, ref))]
        if not match:
            problems.append(f"field_scores.csv {y}: {printed} vs reference {field_refs[y][0]}")
            continue
        extra += match[0]
        off += _digits_off(printed, field_refs[y][match[0]])
    return problems, {"digits_off_12": off, "extra_iterations": extra}


def check_sweep(out, ref, grid, ids, top_k):
    """Every grid point against the reference at the program's stopping step.

    ids: level -> entity ids in the reference's numbering.
    """
    problems, off, extra = [], 0, 0
    with open(f"{out}/sweep.json", encoding="utf-8") as fh:
        got = json.load(fh)
    arrays = np.load(f"{out}/sweep.npz")
    if len(got["points"]) != len(grid):
        return [f"{len(got['points'])} points, expected {len(grid)}"], {}
    if got["fields"] != ref.fields:
        return [f"fields {got['fields']} != {ref.fields}"], {}
    order = {level: [pos[label] for label in got[level + "s"]]
             for level, pos in ((lv, {x: i for i, x in enumerate(ids[lv])}) for lv in ids)}
    for k, (point, hp) in enumerate(zip(got["points"], grid)):
        name = f"point {k}"
        sol = ref.solve(hp, steps=point["iterations"])
        if not point["converged"] or sol.iterations is None:
            problems.append(f"{name}: converged={point['converged']} after "
                            f"{point['iterations']} iterations; the exact residual "
                            f"{'is' if sol.iterations else 'is not'} below the tolerance")
            continue
        extra += point["iterations"] - sol.iterations
        for level, key, want in zip(("theorem", "paper", "field"), ("u_t", "u_p", "u_f"),
                                    sol.levels()):
            u = arrays[f"{key}{k}"]
            if abs(np.sum(u) - 1) > SUM_TOL:
                problems.append(f"{name}: {level} scores sum to {np.sum(u)!r}")
            ref_u = want[order[level]]
            if len(_mismatch(u, ref_u)):
                problems.append(f"{name}: {len(_mismatch(u, ref_u))} {level} scores off the reference")
            off += _digits_off([format(x, ".12g") for x in u], ref_u)
            table = point["tables"][level]
            ref_of = dict(zip(got[level + "s"], ref_u))
            top = [ref_of[eid] for eid, _ in table]
            shown = {eid for eid, _ in table}
            rest = max((s for eid, s in ref_of.items() if eid not in shown), default=None)
            if len(table) != min(top_k, len(ref_u)) or not _ordered(top) or (
                    rest is not None and not _ordered([top[-1], rest])):
                problems.append(f"{name}: top {level} table disagrees with the reference")
        ref_impact = ref.impact(sol.u_p)
        if len(_mismatch(arrays[f"impact{k}"].ravel(), ref_impact.ravel())):
            problems.append(f"{name}: impact matrix off the reference")
        for src, dst, ratio in point["asymmetry"]:
            i, j = ref.fields.index(src), ref.fields.index(dst)
            back = ref_impact[j, i]
            want = None if back == 0 else ref_impact[i, j] / back
            if (ratio is None) != (want is None) or (
                    want is not None and len(_mismatch([ratio], [want]))):
                problems.append(f"{name}: asymmetry {src}/{dst} {ratio} vs {want}")
                break
    return problems, {"digits_off_12": off, "extra_iterations": extra}
