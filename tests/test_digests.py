"""Every command's output bytes, checked against committed SHA-256 digests.

Each case writes a small corpus, runs one command in process and hashes
every file it writes, its stdout, its stderr and its exit code. The
temporary directory is replaced by a fixed token first, since stderr and
``validation.csv`` name the corpus files. The corpora are drawn from
``random.Random(seed).random()`` alone, the one stream Python keeps the
same across versions, so they do not depend on numpy's.

``tests/output_digests.json`` holds the digests. A change that alters
outputs on purpose rewrites it with

    PYTHONPATH=src python tests/test_digests.py

and says which outputs changed and why.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from mathrank.cli import main

DIGESTS = Path(__file__).with_name("output_digests.json")
TOKEN = "<tmp>"

CODES = ("06", "11", "14", "53", "55", "42", "35", "37", "81", "60", "90", "65", "62", "00")


def _draw(r: random.Random, n: int) -> int:
    return int(r.random() * n)


def _corpus(seed: int, paper_ids, n_theorems: int, theorem_ids, n_tc: int, n_pc: int):
    """The four tables of a clean random corpus as lists of JSON objects."""
    r = random.Random(seed)
    n = len(paper_ids)
    authors = [f"au{i}" for i in range(max(3, n // 2))]
    papers = [{"paper_id": pid, "msc_primary": CODES[_draw(r, len(CODES))],
               "author_ids": sorted({authors[_draw(r, len(authors))]
                                     for _ in range(1 + _draw(r, 3))}),
               "first_version_date": f"{1990 + _draw(r, 12)}-{1 + _draw(r, 12):02d}"}
              for pid in paper_ids]
    keys = sorted({(paper_ids[_draw(r, n)], theorem_ids[_draw(r, len(theorem_ids))])
                   for _ in range(n_theorems)})
    keys.sort(key=lambda _: r.random())  # file order is not key order
    theorems = [{"paper_id": p, "theorem_id": t} for p, t in keys]
    tcs, pcs = [], []
    while len(tcs) < n_tc:
        (sp, st), (dp, dt) = keys[_draw(r, len(keys))], keys[_draw(r, len(keys))]
        if (sp, st) != (dp, dt):
            tcs.append({"src_paper": sp, "src_theorem": st, "dst_paper": dp, "dst_theorem": dt})
    while len(pcs) < n_pc:
        src, dst = paper_ids[_draw(r, n)], paper_ids[_draw(r, n)]
        if src != dst:
            pcs.append({"src_paper": src, "dst_paper": dst})
    return [papers, theorems, tcs, pcs]


def _ties_corpus():
    """Papers ``a`` and ``a-b`` and their kin, each holding theorems ``x``
    and ``y``, cited in a ring so that scores tie. Label order is not key
    order here: ``a-b:x`` sorts before ``a:x``, while paper ``a`` sorts
    before ``a-b``."""
    ids = ["a", "a-b", "a.b", "a:b", "ab"]
    papers = [{"paper_id": pid, "msc_primary": "53", "author_ids": [f"au {pid}"],
               "first_version_date": "2001-01"} for pid in ids]
    theorems = [{"paper_id": pid, "theorem_id": tid} for pid in ids for tid in ("x", "y")]
    ring = list(zip(ids, ids[1:] + ids[:1]))
    tcs = [{"src_paper": s, "src_theorem": "x", "dst_paper": d, "dst_theorem": "x"}
           for s, d in ring]
    pcs = [{"src_paper": s, "dst_paper": d} for s, d in ring]
    return [papers, theorems, tcs, pcs]


def _dirty_lines(tables):
    """Lines of a corpus with defects of every kind the reader and the
    validation report: malformed lines, bytes that are not UTF-8, a
    duplicate paper and theorem, a bad subject code and date, dangling
    theorems and citations, and self citations."""
    papers, theorems, tcs, pcs = tables
    first, second = papers[0]["paper_id"], papers[1]["paper_id"]
    papers = papers + [papers[0], {**papers[2], "paper_id": "bad code", "msc_primary": "5"},
                       {**papers[2], "paper_id": "bad date", "first_version_date": "1999-13"}]
    theorems = theorems + [theorems[0], {"paper_id": "nowhere", "theorem_id": "t"}]
    tcs = tcs + [{"src_paper": first, "src_theorem": theorems[0]["theorem_id"],
                  "dst_paper": "nowhere", "dst_theorem": "t 9"},
                 {**tcs[0], "dst_paper": tcs[0]["src_paper"],
                  "dst_theorem": tcs[0]["src_theorem"]}]
    pcs = pcs + [{"src_paper": first, "dst_paper": "missing,one"},
                 {"src_paper": second, "dst_paper": second}]
    lines = [[json.dumps(obj).encode() for obj in table]
             for table in (papers, theorems, tcs, pcs)]
    lines[0].insert(3, b'{"paper_id": "broken"')
    lines[1].insert(2, b'{"paper_id": "p\xff", "theorem_id": "t"}')
    lines[3].append(b"[1, 2]")
    return lines


def _plain(seed, n_papers, n_theorems, n_tc, n_pc):
    return _corpus(seed, [f"p{i:03d}" for i in range(n_papers)], n_theorems,
                   [f"thm {i}" for i in range(8)], n_tc, n_pc)


# Ids that csv.writer quotes: a comma, a double quote, a newline.
QUOTED_PAPERS = ["p,1", 'q"2', "r\n3", "s 4", "t5", "a", "a-b", "u,6\"", "v7", "w8",
                 "x9", "y10"]
QUOTED_THEOREMS = ["lemma,1", 'thm "2"', "thm 3", "cor\n4", "x", "x-1"]

CORPORA = {
    "plain-1": lambda: _plain(1, 40, 120, 160, 100),
    "plain-2": lambda: _plain(2, 60, 150, 200, 160),
    "quoted": lambda: _corpus(3, QUOTED_PAPERS, 40, QUOTED_THEOREMS, 60, 30),
    "ties": _ties_corpus,
}

RANK_ALL = ["rank", "--top-k", "100000000"]
SERIES = ["series", "--from-year", "1989", "--to-year", "2002", "--max-iter", "60"]
COMMANDS = {
    "rank-all": RANK_ALL,
    "rank-grouped": ["rank", "--top-k", "3", "--group-by-field"],
    "rank-capped": [*RANK_ALL, "--max-iter", "5"],
    "build": ["build"],
    "impact": ["impact"],
    "series": SERIES,
}
CASES = [(corpus, command) for corpus in CORPORA for command in COMMANDS]
CASES += [("dirty", "build"), ("dirty", "rank-all"), ("dirty", "series")]

FILES = ("papers.jsonl", "theorems.jsonl", "thm_cites.jsonl", "paper_cites.jsonl")


def _write(corpus: str, directory: Path) -> list[str]:
    """Write the corpus and return the command-line options naming its files."""
    if corpus == "dirty":
        lines = _dirty_lines(_plain(4, 30, 90, 120, 80))
    else:
        lines = [[json.dumps(obj).encode() for obj in table] for table in CORPORA[corpus]()]
    directory.mkdir()
    args = []
    for option, name, table in zip(("--papers", "--theorems", "--thm-cites", "--paper-cites"),
                                   FILES, lines):
        (directory / name).write_bytes(b"".join(line + b"\n" for line in table))
        args += [option, str(directory / name)]
    return args


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(tmp_path: Path, corpus: str, command: str) -> dict:
    """The exit code and the digests of stdout, stderr and every file written."""
    try:
        runner = CliRunner(mix_stderr=False)  # click < 8.2
    except TypeError:
        runner = CliRunner()
    args = _write(corpus, tmp_path / "corpus")
    out = tmp_path / "out"
    result = runner.invoke(main, [*COMMANDS[command], *args, "--out-dir", str(out)])
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception

    def digest(data: bytes) -> str:
        return _sha(data.replace(str(tmp_path).encode(), TOKEN.encode()))

    return {"exit": result.exit_code,
            "stdout": digest(result.stdout_bytes),
            "stderr": digest(result.stderr_bytes),
            "files": {p.name: digest(p.read_bytes()) for p in sorted(out.iterdir())}}


def _case_id(corpus: str, command: str) -> str:
    return f"{corpus}/{command}"


@pytest.mark.parametrize("corpus, command", CASES, ids=[_case_id(*c) for c in CASES])
def test_output_digests(tmp_path, corpus, command):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[_case_id(corpus, command)]
    assert _run(tmp_path, corpus, command) == expected


def test_every_case_has_digests():
    assert sorted(json.loads(DIGESTS.read_text(encoding="utf-8"))) == sorted(
        _case_id(*c) for c in CASES)


if __name__ == "__main__":
    import tempfile

    digests = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            digests[_case_id(*case)] = _run(Path(tmp), *case)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(digests)} cases to {DIGESTS}\n")
