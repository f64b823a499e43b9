#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for mathrank.

Run from the root of a source tree (it needs ``src/mathrank``):

    python3 perfbench/run.py --workload rank --seed 1 --seconds 20 --trace 0

Workloads: rank, build-dirty, series, sweep (see README.md). Each run makes
its corpus from ``--seed``, computes the extended-precision reference,
repeats whole operations for ``--seconds`` seconds with the program in
child processes, checks every output, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
shorter untraced measurement is followed by a traced run whose per-layer
medians are reported, with the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
from calibrate import FIRST_S, REFERENCE_S, SHARE, calibrate  # noqa: E402
from reference import FIELD_ORDER, Reference, snapshot  # noqa: E402

CHILD = HERE / "child.py"
YEARS = (1995, 2023)
DEFAULT_HP = dict(alpha_t=0.6, alpha_p=0.6, beta_p=0.05, alpha_f=0.85,
                  tolerance=1e-9, max_iterations=10_000)
# The sweep grid starts at the defaults (47-50 iterations on the rank
# corpus, seeds 1-5). The slow point alpha_t = alpha_p = 0.9 at tolerance
# 1e-12 takes 56-62; the others take 47-79.
SWEEP_GRID = [
    DEFAULT_HP,
    dict(DEFAULT_HP, alpha_t=0.9, alpha_p=0.9, tolerance=1e-12),
    dict(DEFAULT_HP, alpha_t=0.8, alpha_p=0.6, beta_p=0.1, alpha_f=0.95, tolerance=1e-12),
    dict(DEFAULT_HP, alpha_t=0.7, alpha_p=0.7, beta_p=0.1, alpha_f=0.9, tolerance=1e-12),
    dict(DEFAULT_HP, alpha_t=0.3, alpha_p=0.3, tolerance=1e-12),
]
SWEEP_TOP_K = 10
SWEEP_SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "items_per_s": "1/s"}
PER_LAYER = {
    "corpus.parse_s": "s", "corpus.records_mb": "MB", "corpus.snapshot_s": "s",
    "records.validate_s": "s",
    "build.graph_s": "s", "build.graph_mb": "MB", "build.snapshot_graph_s": "s",
    "solver.normalize_s": "s", "solver.solve_s": "s", "solver.iterate_ms": "ms",
    "solver.iterations": "count", "solver.snapshot_solve_s": "s",
    "analysis.rank_s": "s", "analysis.impact_s": "s",
    "analysis.field_series_s": "s", "analysis.category_ratios_s": "s",
    "cli.self_s": "s", "cli.import_s": "s", "trace.overhead_pct": "%",
}


class Run:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float, work: Path):
        self.root, self.workload, self.seed, self.work = root, workload, seed, work
        # The sweep and trace children measure for up to the whole run in one
        # process, set-up and an overrunning last round on top.
        self.child_timeout_s = int(2 * seconds) + 120
        # mathrank makes no BLAS call. A BLAS thread pool only spins during
        # `import numpy` and competes with the main thread for the cores: on
        # a 2-core machine, set-up took 0.21 to 0.31 s with it, following the
        # load on the other core, and 0.19 to 0.24 s with one thread.
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
        self.problems: list[str] = []
        self.notes = {}
        self.calibrations: list[float] = []
        self.attempted = self.failed = 0

    # -- children ------------------------------------------------------------

    def child(self, *args):
        """Run child.py in a fresh interpreter; return (exit code, rusage, spawn time)."""
        with open(self.work / "child.log", "ab") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(CHILD), *map(str, args)],
                                    cwd=self.root, env=self.env, stdout=log, stderr=log)
        signal.alarm(self.child_timeout_s)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage, spawned

    def log_tail(self):
        """The last line a child wrote, for error messages."""
        text = (self.work / "child.log").read_text(encoding="utf-8", errors="replace")
        return (text.strip().splitlines() or [""])[-1]

    # -- set-up: inputs and reference ------------------------------------------

    def setup(self, traced: bool):
        w = self.workload
        size = "series" if w == "series" else "rank"
        self.corpus = gen.make_corpus(self.seed, size)
        self.manifest = gen.write_corpus(self.work / "corpus", self.corpus, self.seed,
                                         dirty=(w == "build-dirty"))
        self.files = [self.manifest["files"][name] for name in gen.FILES]
        self.graph_files = self.files
        if w == "build-dirty" and traced:
            clean = gen.write_corpus(self.work / "clean", self.corpus, self.seed)
            self.graph_files = [clean["files"][name] for name in gen.FILES]
        self.lines = sum(self.manifest["lines"].values())
        if w == "rank":
            ref = Reference(self.corpus)
            sol = ref.solve(DEFAULT_HP)
            self.expected = [self._rankings(ref, s) for s in (sol, ref.advance(sol, DEFAULT_HP))]
        elif w == "series":
            self.field_refs = {y: self._series_reference(y) for y in range(YEARS[0], YEARS[1] + 1)}
        elif w == "sweep":
            self.ref = Reference(self.corpus)

    def _rankings(self, ref, sol):
        field_of_paper = [ref.fields[f] for f in ref.paper_field]
        return {
            "theorem": {label: (field_of_paper[p], s) for label, p, s in
                        zip(ref.theorem_labels(), self.corpus.thm_paper, sol.u_t)},
            "paper": {pid: (field_of_paper[p], s) for p, (pid, s) in
                      enumerate(zip(self.corpus.paper_ids, sol.u_p))},
            "field": {f: (f, s) for f, s in zip(ref.fields, sol.u_f)},
        }

    def _series_reference(self, year):
        ref = Reference(snapshot(self.corpus, year))
        sol = ref.solve(DEFAULT_HP)
        out = []
        for s in (sol, ref.advance(sol, DEFAULT_HP)):
            full = [0.0] * len(FIELD_ORDER)
            for name, score in zip(ref.fields, s.u_f):
                full[FIELD_ORDER.index(name)] = score
            out.append(full)
        return out

    # -- the workloads' operations ------------------------------------------

    def cli_args(self, out):
        corpus = ["--papers", self.files[0], "--theorems", self.files[1],
                  "--thm-cites", self.files[2], "--paper-cites", self.files[3],
                  "--out-dir", str(out)]
        if self.workload == "rank":
            return ["rank", *corpus, "--top-k", str(self.corpus.n_theorems)]
        if self.workload == "build-dirty":
            return ["build", *corpus]
        if self.workload == "series":
            return ["series", *corpus, "--from-year", str(YEARS[0]), "--to-year", str(YEARS[1])]
        return ["impact", *corpus]

    @property
    def items(self):
        """Work per operation: corpus lines, snapshot years or grid points."""
        if self.workload == "series":
            return YEARS[1] - YEARS[0] + 1
        if self.workload == "sweep":
            return len(SWEEP_GRID)
        return self.lines

    def check_cli_output(self, out, code):
        w = self.workload
        if w == "rank":
            return checks.check_rankings(out, self.expected)
        if w == "build-dirty":
            return checks.check_build(out, self.manifest, code)
        return checks.check_series(out, self.corpus, range(YEARS[0], YEARS[1] + 1),
                                   self.field_refs)

    def measure_cli(self, seconds):
        """Whole CLI operations for ``seconds``; per-operation samples."""
        expected_exit = 2 if self.workload == "build-dirty" else 0
        samples, first_digest = [], None
        start = time.monotonic()
        k = 0
        self.calibrations += calibrate(FIRST_S)
        while not samples or time.monotonic() - start < seconds:
            out, report = self.work / f"out{k}", self.work / f"op{k}.json"
            code, usage, spawned = self.child("cli", report, *self.cli_args(out))
            self.calibrations += calibrate(SHARE * (time.monotonic() - spawned))
            self.attempted += 1
            k += 1
            if code != expected_exit or not report.exists():
                self.failed += 1
                self.problems.append(f"operation exited {code}: {self.log_tail()}")
                if len(self.problems) > 3:
                    break
                continue
            r = json.loads(report.read_text())
            digest = _tree_digest(out)
            if first_digest is None:
                first_digest = digest
                problems, self.notes = self.check_cli_output(out, code)
                self.problems += problems
            elif digest != first_digest:
                self.problems.append("outputs differ between identical operations")
            shutil.rmtree(out)
            samples.append({
                "setup_s": r["imported"] - spawned,
                "wall_s": r["done"] - r["imported"],
                "cpu_s": r["cpu_s"],
                "peak_rss_mb": usage.ru_maxrss / 1024,
            })
        return samples

    def measure_sweep(self, seconds, setup_repeats):
        out = self.work / "sweep"
        out.mkdir(exist_ok=True)
        spec, report = self.work / "sweep_spec.json", self.work / "sweep_report.json"
        spec.write_text(json.dumps({
            "files": self.files, "grid": SWEEP_GRID, "top_k": SWEEP_TOP_K,
            "setup_repeats": setup_repeats, "seconds": seconds, "out": str(out)}))
        code, usage, _ = self.child("sweep", spec, report)
        if code != 0 or not report.exists():
            self.attempted += len(SWEEP_GRID)
            self.failed += len(SWEEP_GRID)
            self.problems.append(f"sweep exited {code}: {self.log_tail()}")
            return [], []
        r = json.loads(report.read_text())
        self.attempted += len(SWEEP_GRID) * len(r["passes"])
        ids = {"theorem": self.ref.theorem_labels(), "paper": self.corpus.paper_ids,
               "field": self.ref.fields}
        problems, self.notes = checks.check_sweep(out, self.ref, SWEEP_GRID, ids, SWEEP_TOP_K)
        self.problems += problems
        if any(p["digests"] != r["passes"][0]["digests"] for p in r["passes"]):
            self.problems.append("results differ between identical sweep passes")
        rss = usage.ru_maxrss / 1024
        self.calibrations += r["calibration_s"]
        samples = [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"], "peak_rss_mb": rss}
                   for p in r["passes"]]
        return samples, [{"setup_s": t} for t in r["setup_s"]]

    def measure(self, seconds, setup_repeats=SWEEP_SETUP_REPEATS):
        """Untraced samples and set-up times."""
        if self.workload == "sweep":
            return self.measure_sweep(seconds, setup_repeats)
        samples = self.measure_cli(seconds)
        return samples, samples

    def end_to_end(self, samples, setups):
        """Medians over operations, in seconds at the calibration's reference speed."""
        speed = statistics.fmean(self.calibrations) / REFERENCE_S

        def scaled(rows, name):
            return statistics.median(x[name] for x in rows) / speed

        wall = scaled(samples, "wall_s")
        return {
            "setup_s": scaled(setups, "setup_s"),
            "wall_s": wall,
            "cpu_s": scaled(samples, "cpu_s"),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
            "items_per_s": self.items / wall,
        }

    # -- tracing ---------------------------------------------------------------

    def trace(self, seconds, untraced_wall_s):
        """Per-layer medians over the traced rounds, scaled like the end-to-end times.

        ``untraced_wall_s`` is the scaled ``wall_s`` of the same run's untraced
        operations, the baseline of the tracing overhead.
        """
        w = self.workload
        out = self.work / "trace_out"
        spec, report = self.work / "trace_spec.json", self.work / "trace_report.json"
        spec.write_text(json.dumps({
            "parse_files": self.files,
            "graph_files": self.graph_files,
            "years": YEARS if w == "series" else (YEARS[1], YEARS[1]),
            "grid": SWEEP_GRID if w == "sweep" else [DEFAULT_HP],
            "top_k": self.corpus.n_theorems if w == "rank" else SWEEP_TOP_K,
            "cli_args": self.cli_args(out),
            "cli_exit": 2 if w == "build-dirty" else 0,
            "seconds": seconds,
        }))
        code, _, _ = self.child("trace", spec, report)
        if code != 0 or not report.exists():
            self.problems.append(f"traced run exited {code}: {self.log_tail()}")
            return {}
        r = json.loads(report.read_text())
        speed = statistics.fmean(r["calibration_s"]) / REFERENCE_S
        rounds = r["rounds"]
        metrics = {}
        for name, unit in PER_LAYER.items():
            value = r[name] if name in r else statistics.median(x.get(name, 0.0) for x in rounds)
            metrics[name] = value / speed if unit in ("s", "ms") else value
        traced = statistics.median(x["sweep_pass_s" if w == "sweep" else "cli_s"]
                                   for x in rounds) / speed
        metrics["trace.overhead_pct"] = 100 * (traced - untraced_wall_s) / untraced_wall_s
        return metrics


def _tree_digest(path: Path):
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["rank", "build-dirty", "series", "sweep"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    def timeout(signum, frame):
        raise TimeoutError
    signal.signal(signal.SIGALRM, timeout)

    root = Path.cwd()
    if not (root / "src" / "mathrank" / "cli.py").is_file():
        sys.exit(f"error: run from the root of a mathrank source tree "
                 f"({root / 'src' / 'mathrank'} not found)")
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(root, args.workload, args.seed, args.seconds, work)
        t0 = time.monotonic()
        run.setup(traced=bool(args.trace))
        # Compile the package once so that no operation pays for it.
        subprocess.run([sys.executable, "-c", "import mathrank.cli"], cwd=root,
                       env=run.env, check=True)
        prepare_s = time.monotonic() - t0
        if args.trace:
            samples, setups = run.measure(args.seconds / 3, setup_repeats=1)
            metrics, units = {}, PER_LAYER
            if samples and not run.problems:
                untraced = run.end_to_end(samples, setups)["wall_s"]
                metrics = run.trace(args.seconds * 2 / 3, untraced)
        else:
            samples, setups = run.measure(args.seconds)
            metrics, units = (run.end_to_end(samples, setups) if samples else {}), END_TO_END
        raw = {name: round(statistics.median(x[name] for x in rows), 4)
               for name, rows in (("setup_s", setups), ("wall_s", samples), ("cpu_s", samples))
               if rows}
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "prepare_s": round(prepare_s, 3), "operations": len(samples),
                          "unscaled": raw,
                          "calibration_s": [round(min(run.calibrations), 4),
                                            round(statistics.fmean(run.calibrations), 4),
                                            round(max(run.calibrations), 4)]
                          if run.calibrations else [],
                          **run.notes, "problems": run.problems[:5]}))
        missing = [name for name in units if name not in metrics]
        if missing:
            run.problems.append(f"metrics not measured: {missing}")
        result = {
            "correct": not run.problems,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items() if name in metrics},
        }
        print(json.dumps(result))
        for p in run.problems:
            print(f"problem: {p}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
