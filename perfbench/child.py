#!/usr/bin/env python3
"""The benchmark's side of the program's process.

run.py starts this script in a fresh interpreter for every measured
operation, so the program's time, CPU and peak memory are its own and never
the generator's or the harness's. Each mode writes one JSON report. Only
small standard modules load before mathrank, so that the import the cli
mode times is the program's.

    child.py cli REPORT ARGS...   time `import mathrank.cli`, then run the CLI
    child.py sweep SPEC REPORT    set up (parse + build), then hyperparameter passes
    child.py trace SPEC REPORT    time each layer's public functions
"""

import gc
import json
import resource
import sys
import time
from contextlib import contextmanager, nullcontext


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _run_cli(main, args):
    """Run the CLI as its console script does; return the exit code."""
    try:
        main(args, prog_name="mathrank")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return 0


def cli(report, args):
    import mathrank.cli

    imported = time.monotonic()
    cpu0 = _cpu()
    code = _run_cli(mathrank.cli.main, args)
    _write(report, {"imported": imported, "done": time.monotonic(),
                    "cpu_s": _cpu() - cpu0, "exit": code})
    sys.exit(code)


LEVELS = ("theorem", "paper", "field")
# Library functions the commands call directly; tracing times them inside
# the command, and the rest of the command's time is its own.
CLI_LAYER_CALLS = ("parse_corpus", "validate_records", "build_graph", "compute_scores",
                   "normalize_matrices", "rank_entities", "field_series",
                   "category_ratios", "field_impact", "impact_asymmetry")


def sweep_pass(graph, grid, top_k, span):
    """compute_scores, rank_entities and field_impact at every grid point."""
    from mathrank import (compute_scores, field_impact, impact_asymmetry,
                          normalize_matrices, rank_entities)

    out = []
    for hp in grid:
        with span("solver.normalize_s"):
            norm = normalize_matrices(graph)
        with span("solver.solve_s"):
            state, report = compute_scores(graph, hp)
        with span("analysis.rank_s"):
            tables = [rank_entities(graph, state, level, top_k=top_k) for level in LEVELS]
        with span("analysis.impact_s"):
            impact = field_impact(graph, norm, state.u_p)
            asymmetry = impact_asymmetry(impact)
        out.append((state, report, tables, impact, asymmetry))
    return out


def _digest(result):
    import hashlib

    state, report, tables, impact, asymmetry = result
    h = hashlib.sha256()
    for arr in (*state.levels(), impact.values):
        h.update(arr.tobytes())
    h.update(repr((report.iterations, report.converged,
                   [t.rows for t in tables], asymmetry)).encode())
    return h.hexdigest()


def _save_first_pass(out, graph, results):
    import numpy as np

    arrays = {}
    points = []
    for k, (state, report, tables, impact, asymmetry) in enumerate(results):
        arrays.update({f"u_t{k}": state.u_t, f"u_p{k}": state.u_p, f"u_f{k}": state.u_f,
                       f"impact{k}": impact.values})
        points.append({
            "iterations": report.iterations, "converged": report.converged,
            "tables": {t.level: [(r.entity_id, r.score) for r in t.rows] for t in tables},
            "asymmetry": asymmetry,
        })
    np.savez(f"{out}/sweep.npz", **arrays)
    _write(f"{out}/sweep.json", {
        "theorems": [graph.theorem_label(i) for i in range(graph.n_theorems)],
        "papers": list(graph.paper_ids),
        "fields": list(graph.field_names),
        "points": points,
    })


def _hyperparameters(grid):
    from mathrank import Hyperparameters

    return [Hyperparameters(**hp) for hp in grid]


def sweep(spec, report):
    from mathrank import build_graph, parse_corpus

    from calibrate import FIRST_S, SHARE, calibrate

    grid = _hyperparameters(spec["grid"])
    setups, calibrations = [], calibrate(FIRST_S)
    for _ in range(spec["setup_repeats"]):
        graph = None  # free the previous set-up's graph before building the next
        t0 = time.perf_counter()
        records, _malformed = parse_corpus(*spec["files"])
        graph = build_graph(records)
        setups.append(time.perf_counter() - t0)
        del records
        calibrations += calibrate(SHARE * setups[-1])

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < spec["seconds"]:
        cpu0, t0 = _cpu(), time.perf_counter()
        results = sweep_pass(graph, grid, spec["top_k"], lambda name: nullcontext())
        passes.append({"wall_s": time.perf_counter() - t0, "cpu_s": _cpu() - cpu0,
                       "digests": [_digest(r) for r in results]})
        calibrations += calibrate(SHARE * passes[-1]["wall_s"])
        if len(passes) == 1:
            _save_first_pass(spec["out"], graph, results)
    _write(report, {"setup_s": setups, "calibration_s": calibrations, "passes": passes})


class Spans:
    """Durations of named calls, a list per name for the current round."""

    def __init__(self):
        self.round = {}
        self.iterations = []

    @contextmanager
    def __call__(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.round.setdefault(name, []).append(time.perf_counter() - t0)


def _held_mb(fn):
    """Memory still held by what fn allocated, once it has returned."""
    import tracemalloc

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return result, held / 2**20


def trace(spec, report):
    """Time each layer on the workload's inputs, round after round."""
    t0 = time.monotonic()
    import mathrank.cli
    import_s = time.monotonic() - t0

    import statistics

    from mathrank import (EmptyLevelError, DegenerateLevelError, Hyperparameters,
                          build_graph, category_ratios, compute_scores, field_series,
                          iterate_once, normalize_matrices, parse_corpus,
                          snapshot_filter, validate_records)

    grid = _hyperparameters(spec["grid"])
    years = range(spec["years"][0], spec["years"][1] + 1)
    default = Hyperparameters()

    records, records_mb = _held_mb(lambda: parse_corpus(*spec["parse_files"]))
    del records
    clean, _ = parse_corpus(*spec["graph_files"])
    _graph, graph_mb = _held_mb(lambda: build_graph(clean))
    del _graph, clean

    def pipeline(span):
        """parse, validate, build and grid passes, as the commands call them."""
        with span("corpus.parse_s"):
            records, _ = parse_corpus(*spec["parse_files"])
        with span("records.validate_s"):
            validate_records(records)
        if spec["graph_files"] != spec["parse_files"]:
            records, _ = parse_corpus(*spec["graph_files"])
        with span("build.graph_s"):
            graph = build_graph(records)
        # As in the sweep's passes, the records are gone: the collector's
        # full passes would otherwise walk their objects too.
        del records
        with span("sweep_pass_s"):
            results = sweep_pass(graph, grid, spec["top_k"], span)
        span.iterations = [r[1].iterations for r in results]
        norm = normalize_matrices(graph)
        state = results[0][0]
        for _ in range(9):
            with span("solver.iterate_ms"):
                iterate_once(state, graph, norm, default)

    def snapshots(span):
        """One graph per yearly snapshot, as field_series builds them."""
        records, _ = parse_corpus(*spec["graph_files"])
        for year in years:
            with span("corpus.snapshot_s"):
                snap = snapshot_filter(records, year)
            try:
                with span("build.snapshot_graph_s"):
                    snap_graph = build_graph(snap)
                with span("solver.snapshot_solve_s"):
                    compute_scores(snap_graph, default)
            except (EmptyLevelError, DegenerateLevelError):
                pass
        with span("analysis.field_series_s"):
            field_series(records, years, default)
        with span("analysis.category_ratios_s"):
            category_ratios(records, years)

    def command(span):
        """The workload's command in-process, its direct layer calls timed."""
        originals = {name: getattr(mathrank.cli, name) for name in CLI_LAYER_CALLS
                     if hasattr(mathrank.cli, name)}

        def timed(fn):
            def call(*args, **kwargs):
                with span("cli.layer_calls"):
                    return fn(*args, **kwargs)
            return call

        for name, fn in originals.items():
            setattr(mathrank.cli, name, timed(fn))
        try:
            with span("cli_s"):
                code = _run_cli(mathrank.cli.main, spec["cli_args"])
        finally:
            for name, fn in originals.items():
                setattr(mathrank.cli, name, fn)
        if code != spec["cli_exit"]:
            raise SystemExit(f"mathrank {spec['cli_args'][0]} exited {code}, "
                             f"expected {spec['cli_exit']}")

    from calibrate import FIRST_S, SHARE, calibrate

    calibrations = calibrate(FIRST_S)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < spec["seconds"]:
        span = Spans()
        # Each section starts from the same heap and is followed by its share
        # of calibration.
        for section in (pipeline, snapshots, command):
            gc.collect()
            t0 = time.perf_counter()
            section(span)
            calibrations += calibrate(SHARE * (time.perf_counter() - t0))

        values = {name: sum(times) for name, times in span.round.items()}
        values["solver.iterate_ms"] = 1e3 * statistics.median(span.round["solver.iterate_ms"])
        values["cli.self_s"] = values["cli_s"] - values.get("cli.layer_calls", 0.0)
        values["solver.iterations"] = sum(span.iterations)
        rounds.append(values)

    _write(report, {"rounds": rounds, "calibration_s": calibrations, "cli.import_s": import_s,
                    "corpus.records_mb": records_mb, "build.graph_mb": graph_mb})


def main():
    mode = sys.argv[1]
    if mode == "cli":
        cli(sys.argv[2], sys.argv[3:])
    with open(sys.argv[2], encoding="utf-8") as fh:
        spec = json.load(fh)
    {"sweep": sweep, "trace": trace}[mode](spec, sys.argv[3])


if __name__ == "__main__":
    main()
