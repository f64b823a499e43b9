#!/usr/bin/env python3
"""Run the same mathrank commands on two source trees and compare their outputs.

    python tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository, each with its package in
``src/``. The corpora are written once, by this repository's
``perfbench/gen.py``, into a temporary directory. Each command then runs in a
fresh ``python -m mathrank.cli`` process per tree, with that tree's ``src``
first on ``PYTHONPATH``, and writes into an output directory of its own.

The exit code, stdout, stderr and every file written must be equal byte for
byte. In stdout and stderr, the temporary directory and the run's output
directory are replaced by fixed tokens first, since messages name the corpus
files. Each difference is printed; the exit status is 1 if there is any.

``tests/test_digests.py`` checks the outputs of small corpora against fixed
digests; this compares two trees on the benchmark's corpora.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
FILES = ("papers", "theorems", "thm_cites", "paper_cites")
OPTIONS = ("--papers", "--theorems", "--thm-cites", "--paper-cites")

# gen.py's (seed, size, dirty) of each corpus.
CORPORA = {
    "rank-3": (3, "rank", False),
    "rank-3-dirty": (3, "rank", True),
    "series-3": (3, "series", False),
    "series-3-dirty": (3, "series", True),
    "series-2": (2, "series", False),
    "series-5": (5, "series", False),
    "series-7": (7, "series", False),
    "series-9": (9, "series", False),
}
SERIES = ["series", "--from-year", "1990", "--to-year", "2024"]
# Each case's corpus and command; the exit code each gives at the time of
# writing is noted.
CASES = {
    "rank-all": ("rank-3", ["rank", "--top-k", "100000000"]),        # 0
    "rank-grouped": ("rank-3", ["rank", "--top-k", "5", "--group-by-field"]),  # 0
    "rank-capped": ("rank-3", ["rank", "--max-iter", "3"]),           # 1
    "rank-dirty": ("rank-3-dirty", ["rank"]),                         # 2
    "build": ("rank-3", ["build"]),                                   # 0
    "build-dirty": ("rank-3-dirty", ["build"]),                       # 2
    "impact": ("rank-3", ["impact"]),                                 # 0
    "series-3": ("series-3", SERIES),                                 # 0
    # 1, each with the not_converged row of a year that cycles (1992 for
    # seed 5, 1991 for the others).
    "series-2": ("series-2", SERIES),
    "series-5": ("series-5", SERIES),
    "series-7": ("series-7", SERIES),
    "series-9": ("series-9", SERIES),
    "series-dirty": ("series-3-dirty", SERIES),                       # 2
}


def _make_corpora(root: Path) -> dict[str, list[str]]:
    """Write every corpus under ``root``; the command-line options naming
    each one's files."""
    args = {}
    for name, (seed, size, dirty) in CORPORA.items():
        out = root / name
        subprocess.run([sys.executable, str(GEN), "--seed", str(seed), "--size", size,
                        "--out", str(out), *(["--dirty"] if dirty else [])],
                       check=True, stdout=subprocess.DEVNULL)
        args[name] = [arg for option, file in zip(OPTIONS, FILES)
                      for arg in (option, str(out / f"{file}.jsonl"))]
    return args


def _run(tree: Path, command: list[str], out: Path, tmp: Path) -> dict[str, bytes | int]:
    """The exit code, stdout, stderr and each written file of one command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-m", "mathrank.cli", *command,
                           "--out-dir", str(out)], env=env, capture_output=True)

    def tokens(data: bytes) -> bytes:
        return data.replace(str(out).encode(), b"<out>").replace(str(tmp).encode(), b"<tmp>")

    result: dict[str, bytes | int] = {"exit code": proc.returncode,
                                      "stdout": tokens(proc.stdout),
                                      "stderr": tokens(proc.stderr)}
    if out.exists():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            result[f"file {path.relative_to(out)}"] = path.read_bytes()
    return result


def _differences(parent: dict, change: dict) -> list[str]:
    out = []
    for key in sorted(parent.keys() | change.keys()):
        if key not in change:
            out.append(f"{key}: written by PARENT only")
        elif key not in parent:
            out.append(f"{key}: written by CHANGE only")
        elif parent[key] != change[key]:
            if key == "exit code":
                out.append(f"exit code: {parent[key]} at PARENT, {change[key]} at CHANGE")
            else:
                out.append(f"{key}: {len(parent[key])} bytes at PARENT, "
                           f"{len(change[key])} at CHANGE, first difference at byte "
                           f"{_first_difference(parent[key], change[key])}")
    return out


def _first_difference(a: bytes, b: bytes) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="the parent tree's root")
    ap.add_argument("change", type=Path, help="the changed tree's root")
    ns = ap.parse_args()
    trees = {"PARENT": ns.parent.resolve(), "CHANGE": ns.change.resolve()}
    for label, tree in trees.items():
        if not (tree / "src" / "mathrank").is_dir():
            ap.error(f"{label} {tree} has no src/mathrank")
    n_different = 0
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        corpus_args = _make_corpora(tmp / "corpora")
        for case, (corpus, command) in CASES.items():
            results = [_run(tree, [*command, *corpus_args[corpus]],
                            tmp / label / case / "out", tmp)
                       for label, tree in trees.items()]
            differences = _differences(*results)
            exits = "/".join(str(r["exit code"]) for r in results)
            files = "/".join(str(sum(key.startswith("file ") for key in r)) for r in results)
            print(f"{'differs' if differences else 'same':8}{case} "
                  f"(exit {exits}, files {files})")
            for line in differences:
                print(f"    {line}")
            n_different += bool(differences)
    print(f"{n_different} of {len(CASES)} cases differ")
    return 1 if n_different else 0


if __name__ == "__main__":
    sys.exit(main())
