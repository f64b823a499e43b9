"""The exit-code contract under corrupted input.

A small valid corpus is mutated byte by byte and line by line, and every
command must then exit 0, 1 or 2 without any other exception. A command
that exits 2 writes nothing and makes no directory, except that ``build``
writes both its validation report and summary or neither; a command that
exits 0 or 1 writes files that decode as UTF-8 and read back through
``csv``.
"""

from __future__ import annotations

import csv
import errno
import io
import os
import tempfile
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mathrank.cli
from mathrank.cli import main

from synthdata import make_random_records, write_corpus

OPTIONS = ("--papers", "--theorems", "--thm-cites", "--paper-cites")
# Each command with its exit code on the unmutated corpus: series stops at
# the iteration cap, so that exit 1 is exercised too.
COMMANDS = {
    "rank": (["rank", "--top-k", "1000"], 0),
    "build": (["build"], 0),
    "series": (["series", "--from-year", "2000", "--to-year", "2010", "--max-iter", "5"], 1),
    "impact": (["impact"], 0),
}
BUILD_ON_EXIT_2 = {"validation.csv", "summary.csv"}
# The second file each command writes.
SECOND_FILE = {"rank": "rankings_paper.csv", "build": "summary.csv",
               "series": "category_ratios.csv", "impact": "impact_asymmetry.csv"}

# JSON escapes of a NUL and of a lone surrogate, raw bytes that are not
# valid JSON or not UTF-8, JSON punctuation, a CR and U+2028.
TOKENS = (b"\\u0000", b"\\ud800", b"\x00", b"\xff", b"{", b"}", b'"', b"\r",
          "\u2028".encode())


@cache
def corpus() -> tuple[bytes, ...]:
    """The first 40 lines of each file of a small valid corpus."""
    records = make_random_records(np.random.default_rng(5), n_papers=20, n_theorems=40,
                                  n_paper_citations=40, n_theorem_citations=30)
    with tempfile.TemporaryDirectory() as d:
        paths = [Path(d, f"{i}.jsonl") for i in range(len(OPTIONS))]
        write_corpus(records, *paths)
        return tuple(b"".join(p.read_bytes().splitlines(keepends=True)[:40]) for p in paths)


def mutate(data: bytes, kind: str, where: int, token: bytes) -> bytes:
    """``data`` with one byte replaced by ``token``, ``token`` inserted, the
    rest cut off, or one line written twice, at ``where`` wrapped round."""
    if kind == "duplicate":
        lines = data.splitlines(keepends=True)
        if not lines:
            return data
        i = where % len(lines)
        return b"".join(lines[:i + 1] + lines[i:])
    i = where % (len(data) + 1)
    if kind == "replace":
        return data[:i] + token + data[i + 1:]
    if kind == "insert":
        return data[:i] + token + data[i:]
    return data[:i]


MUTATIONS = st.lists(
    st.tuples(st.integers(0, len(OPTIONS) - 1),
              st.sampled_from(["replace", "insert", "truncate", "duplicate"]),
              st.integers(0, 1 << 16), st.sampled_from(TOKENS)),
    min_size=1, max_size=3)


def write_files(directory: str, files) -> list[str]:
    """Write the corpus files and return the options naming them."""
    args = []
    for i, (option, data) in enumerate(zip(OPTIONS, files)):
        Path(directory, f"{i}.jsonl").write_bytes(data)
        args += [option, str(Path(directory, f"{i}.jsonl"))]
    return args


def read_back(path: Path) -> list[list[str]]:
    text = path.read_bytes().decode("utf-8")
    return list(csv.reader(io.StringIO(text, newline=""), strict=True))


def each_token_in_each_file(test):
    """``test`` with an example per token inserted into each file, so that
    every token meets every parser whatever the search draws."""
    for which in range(len(OPTIONS)):
        for token in TOKENS:
            test = example([(which, "insert", 60, token)])(test)
    return test


@settings(max_examples=40, deadline=None)
@given(MUTATIONS)
@each_token_in_each_file
def test_mutated_corpus_keeps_exit_contract(mutations):
    files = list(corpus())
    for which, kind, where, token in mutations:
        files[which] = mutate(files[which], kind, where, token)
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as d:
        args = write_files(d, files)
        for name, (command, _) in COMMANDS.items():
            out = Path(d, name)
            result = runner.invoke(main, [*command, *args, "--out-dir", str(out)])
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                name, result.exception)
            assert result.exit_code in (0, 1, 2), (name, result.exit_code, result.output)
            written = {p.name for p in out.iterdir()} if out.exists() else set()
            if result.exit_code == 2:
                assert written in ((set(), BUILD_ON_EXIT_2) if name == "build" else (set(),)), name
                # An exit 2 that writes no file makes no directory.
                assert out.exists() == bool(written), name
            for file in written:
                assert read_back(out / file), (name, file)


def test_unmutated_corpus_runs():
    with tempfile.TemporaryDirectory() as d:
        args = write_files(d, corpus())
        for name, (command, code) in COMMANDS.items():
            result = CliRunner().invoke(main, [*command, *args, "--out-dir", str(Path(d, name))])
            assert result.exit_code == code, (name, result.output)


@pytest.mark.parametrize("name", COMMANDS)
def test_unwritable_second_file_leaves_no_file(tmp_path, name):
    """A directory with the name of the second file: the command exits 2
    and removes the first file, which it had written."""
    args = write_files(str(tmp_path), corpus())
    out = tmp_path / "out"
    (out / SECOND_FILE[name]).mkdir(parents=True)
    result = CliRunner().invoke(main, [*COMMANDS[name][0], *args, "--out-dir", str(out)])
    assert result.exit_code == 2, result.output
    reason = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                               str(out / SECOND_FILE[name]))
    assert result.output == f"error: cannot write {SECOND_FILE[name]}: {reason}\n"
    assert [p.name for p in out.iterdir()] == [SECOND_FILE[name]]


def test_refused_cell_in_a_later_table_writes_no_file(tmp_path, monkeypatch):
    """A cell of rankings_paper.csv that csv.writer refuses, as Python 3.10
    refuses a NUL: rank exits 2 before it writes rankings_theorem.csv. The
    paper "q,2" has no theorems, so only the paper table holds its id."""
    csv_cell = mathrank.cli._csv_cell

    def refuse(text):
        if text == "q,2":
            raise csv.Error("need to escape, but no escapechar set")
        return csv_cell(text)

    monkeypatch.setattr(mathrank.cli, "_csv_cell", refuse)
    files = list(corpus())
    files[0] += (b'{"paper_id": "q,2", "msc_primary": "53", "author_ids": ["a"], '
                 b'"first_version_date": "2000-06"}\n')
    args = write_files(str(tmp_path), files)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [*COMMANDS["rank"][0], *args, "--out-dir", str(out)])
    assert result.exit_code == 2, result.output
    assert result.output == ("error: cannot write a row to rankings_paper.csv: "
                             "need to escape, but no escapechar set\n")
    assert not out.exists()


@pytest.mark.parametrize("name", COMMANDS)
def test_unreadable_corpus_exits_two(tmp_path, monkeypatch, name):
    reason = PermissionError(errno.EACCES, os.strerror(errno.EACCES), "papers.jsonl")

    def unreadable(*paths):
        raise reason

    monkeypatch.setattr(mathrank.cli, "parse_corpus", unreadable)
    args = write_files(str(tmp_path), corpus())
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [*COMMANDS[name][0], *args, "--out-dir", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"error: cannot read the corpus: {reason}\n"
    assert not out.exists()


@pytest.mark.skipif(not os.path.exists("/proc/self/mem"), reason="no /proc/self/mem")
def test_corpus_file_that_fails_to_read_exits_two(tmp_path):
    # The file exists, but reading it from offset 0 fails with EIO.
    args = write_files(str(tmp_path), corpus())
    args[1] = "/proc/self/mem"
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["build", *args, "--out-dir", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: cannot read the corpus: ")
    assert result.output.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("name", COMMANDS)
def test_malformed_line_makes_no_directory(tmp_path, name):
    """A malformed corpus line with a fresh, nested ``--out-dir``: rank,
    series and impact exit 2 before their write step and make neither
    directory; build still makes them and writes both of its files."""
    files = list(corpus())
    files[0] += b"not json\n"
    args = write_files(str(tmp_path), files)
    fresh = tmp_path / "fresh"
    result = CliRunner().invoke(main, [*COMMANDS[name][0], *args,
                                       "--out-dir", str(fresh / "out")])
    assert result.exit_code == 2, result.output
    if name == "build":
        assert {p.name for p in (fresh / "out").iterdir()} == BUILD_ON_EXIT_2
    else:
        assert result.output.endswith("error: 1 malformed corpus lines\n")
        assert not fresh.exists()
