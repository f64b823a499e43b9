"""The README's library example runs as written."""

import re
from pathlib import Path

from mathrank.analysis import RankingTable

from synthdata import make_random_records, write_corpus

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippet() -> str:
    """The first python code block under the README's ``## Library`` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_snippet_runs(tmp_path, monkeypatch, rng, capsys):
    records = make_random_records(rng, n_papers=12, n_theorems=30)
    write_corpus(records, *(tmp_path / name for name in (
        "papers.jsonl", "theorems.jsonl", "thm_cites.jsonl", "paper_cites.jsonl")))
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_snippet(), str(README), "exec"), namespace)
    assert isinstance(namespace["table"], RankingTable)
    assert namespace["table"].rows
    assert capsys.readouterr().out.startswith(f"{records.sizes}\n")
