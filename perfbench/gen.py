#!/usr/bin/env python3
"""Seeded corpus generator for the mathrank benchmark.

Writes the four line-delimited JSON corpus files plus ``manifest.json`` with
the counts it produced. The same seed and size always give the same files.

    python perfbench/gen.py --seed 7 --size rank --out corpus/
    python perfbench/gen.py --seed 7 --size rank --dirty --out dirty/

A clean corpus has no validation issues; it does contain duplicate citation
records (which collapse to one edge), theorem-less papers, every field and
all three citation weight tiers. The dirty variant is the clean corpus of
the same seed with defects of every kind that parsing and validation
report, inserted at seeded positions. It never writes a byte that is not
UTF-8.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from reference import FIELD_ORDER, field_of_code, tier_counts  # noqa: E402

# The make-up follows synthesize() in benchmarks/bench_solver.py, the graph
# the ROADMAP's solver figures were measured on, except where README.md
# ("Corpora and seeds") gives a reason to differ. The repository holds no
# measured corpus; these are assumptions until one is added.

# Corpus sizes: papers, theorems, paper citations, theorem citations. The
# rank size is a quarter of bench_solver's default, with its ratios.
SIZES = {
    "rank": (5_000, 25_000, 20_000, 62_500),
    "series": (1_000, 5_000, 4_000, 12_500),
}

# bench_solver's years (month 6 throughout) and its subject codes, one per field.
FIRST_YEAR, LAST_YEAR = 1991, 2023
MONTH = 6
CODES = ["06", "11", "53", "55", "42", "35", "37", "81", "60", "90", "65", "62", "99"]
# 1 to MAX_AUTHORS draws, with replacement, from a pool of half as many authors
# as papers.
MAX_AUTHORS = 3

FILES = ("papers", "theorems", "thm_cites", "paper_cites")


def per_kind(n_papers: int) -> int:
    """Records of each planted kind: 20 on the rank corpus, 4 on the series one.

    Used for the citations planted in each weight tier and the duplicate
    records of a clean corpus, and for each defect kind of a dirty one.
    """
    return max(3, n_papers // 250)


@dataclass
class Corpus:
    """A corpus held as columns; entity numbers index these lists."""

    paper_ids: list
    msc: list
    authors: list          # tuple of author ids per paper
    year: np.ndarray
    month: np.ndarray
    thm_paper: np.ndarray  # theorem -> paper number
    thm_ids: list
    tc: np.ndarray         # (k, 2) citing theorem, cited theorem
    pc: np.ndarray         # (k, 2) citing paper, cited paper

    @property
    def n_papers(self):
        return len(self.paper_ids)

    @property
    def n_theorems(self):
        return len(self.thm_ids)


def _groups(keys):
    """Members of each group with at least two members."""
    out = {}
    for i, k in enumerate(keys):
        out.setdefault(k, []).append(i)
    return [g for g in out.values() if len(g) >= 2]


def _pairs_within(rng, groups, n):
    """n pairs of distinct members of one group, larger groups drawn more often."""
    members = np.concatenate([np.asarray(g, dtype=np.int64) for g in groups])
    sizes = np.array([len(g) for g in groups])
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    group = np.repeat(np.arange(len(groups)), sizes)
    i = rng.integers(0, len(members), size=n)
    g = group[i]
    j = starts[g] + (i - starts[g] + rng.integers(1, sizes[g])) % sizes[g]
    return np.stack([members[i], members[j]], axis=1)


def _citations(rng, order_key, n, tier_groups, planted):
    """n citation records: ``planted`` pairs within each tier's groups and
    ``planted`` repeats of earlier records, the rest between uniform pairs.
    Each cites the older of its pair."""
    n_entities = len(order_key)
    parts = [_pairs_within(rng, groups, planted) for groups in tier_groups]
    rest = rng.integers(0, n_entities, size=(n - planted * (len(parts) + 1), 2))
    rest[rest[:, 0] == rest[:, 1], 1] += 1
    rest %= n_entities
    pairs = np.concatenate(parts + [rest])
    newer = order_key[pairs[:, 0]] > order_key[pairs[:, 1]]
    pairs = np.where(newer[:, None], pairs, pairs[:, ::-1])
    pairs = np.concatenate([pairs, pairs[rng.integers(0, len(pairs), size=planted)]])
    return pairs[rng.permutation(len(pairs))]


def make_corpus(seed: int, size: str) -> Corpus:
    """The clean corpus for ``seed`` at one of the named SIZES."""
    n_papers, n_theorems, n_pc, n_tc = SIZES[size]
    rng = np.random.default_rng(seed)

    # Papers per year and per subject code are the same for every seed (the
    # counts bench_solver's uniform draws give on average), so that snapshot
    # sizes and field populations do not vary between seeds.
    years = np.arange(FIRST_YEAR, LAST_YEAR + 1)
    year = rng.permutation(years[np.arange(n_papers) % len(years)])
    month = np.full(n_papers, MONTH)
    msc = [CODES[i] for i in rng.permutation(np.arange(n_papers) % len(CODES))]
    pool = [f"a{i}" for i in range(max(4, n_papers // 2))]
    picks = rng.integers(0, len(pool), size=(n_papers, MAX_AUTHORS))
    authors = [tuple(sorted({pool[a] for a in picks[p, :k]}))
               for p, k in enumerate(rng.integers(1, MAX_AUTHORS + 1, size=n_papers).tolist())]
    paper_ids = [f"p{i:07d}" for i in range(n_papers)]

    thm_paper = np.sort(rng.integers(0, n_papers, size=n_theorems))
    counter = Counter()
    thm_ids = []
    for p in thm_paper.tolist():
        counter[p] += 1
        thm_ids.append(f"thm {counter[p]}")

    # Citing papers are newer (ties broken by number), so citations never
    # point forward in time and a yearly snapshot keeps every citation its
    # papers make.
    paper_key = np.empty(n_papers, dtype=np.int64)
    paper_key[np.lexsort((np.arange(n_papers), year))] = np.arange(n_papers)
    thm_key = paper_key[thm_paper] * n_theorems + np.arange(n_theorems)

    by_author = {}
    for p, names in enumerate(authors):
        for a in names:
            by_author.setdefault(a, []).append(p)
    author_groups = [g for g in by_author.values() if len(g) >= 2]
    # One random theorem of each paper stands for it in author groups.
    first_theorem = np.searchsorted(thm_paper, np.arange(n_papers))
    thm_count = np.bincount(thm_paper, minlength=n_papers)
    stand_in = first_theorem + rng.integers(0, np.maximum(thm_count, 1))
    thm_author_groups = [[int(stand_in[p]) for p in g if thm_count[p]] for g in author_groups]

    # Uniform pairs rarely share a paper or an author, or repeat, so a few
    # of each are planted: every seed then has every weight tier and
    # duplicate records at both levels.
    planted = per_kind(n_papers)
    tc = _citations(rng, thm_key, n_tc, [
        _groups(thm_paper.tolist()),
        [g for g in thm_author_groups if len(g) >= 2],
    ], planted)
    pc = _citations(rng, paper_key, n_pc, [author_groups], planted)
    return Corpus(paper_ids, msc, authors, year, month, thm_paper, thm_ids, tc, pc)


def _paper_obj(c, p):
    return {
        "paper_id": c.paper_ids[p],
        "msc_primary": c.msc[p],
        "author_ids": list(c.authors[p]),
        "first_version_date": f"{c.year[p]:04d}-{c.month[p]:02d}",
    }


def _theorem_obj(c, t):
    return {"paper_id": c.paper_ids[c.thm_paper[t]], "theorem_id": c.thm_ids[t]}


def _tc_obj(c, src, dst):
    return {
        "src_paper": c.paper_ids[c.thm_paper[src]], "src_theorem": c.thm_ids[src],
        "dst_paper": c.paper_ids[c.thm_paper[dst]], "dst_theorem": c.thm_ids[dst],
    }


def _pc_obj(c, src, dst):
    return {"src_paper": c.paper_ids[src], "dst_paper": c.paper_ids[dst]}


def clean_lines(c: Corpus, rng) -> dict:
    """The records of each file as JSON lines, in a seeded shuffled order."""
    def shuffled(objs):
        objs = list(objs)
        return [json.dumps(objs[i], ensure_ascii=False) for i in rng.permutation(len(objs))]

    return {
        "papers": shuffled(_paper_obj(c, p) for p in range(c.n_papers)),
        "theorems": shuffled(_theorem_obj(c, t) for t in range(c.n_theorems)),
        "thm_cites": shuffled(_tc_obj(c, s, d) for s, d in c.tc.tolist()),
        "paper_cites": shuffled(_pc_obj(c, s, d) for s, d in c.pc.tolist()),
    }


def _defect_lines(c: Corpus, rng, count: int):
    """Injected lines as (file, defect kind, reported kind or None, line, parsed record).

    Each defect is reported exactly once: as a malformed line by the parser
    (reported kind None), or as one validation issue of the reported kind.
    ``parsed`` names the file whose record count the line adds to, if any.
    """
    def paper(p, **override):
        return dict(_paper_obj(c, p), **override)

    def theorem(t, **override):
        return dict(_theorem_obj(c, t), **override)

    def some(n):
        return rng.integers(0, n, size=count).tolist()

    dumps = lambda o: json.dumps(o, ensure_ascii=False)  # noqa: E731
    out = []
    records = {
        "papers": lambda i: paper(i),
        "theorems": lambda i: theorem(i),
        "thm_cites": lambda i: _tc_obj(c, *c.tc[i].tolist()),
        "paper_cites": lambda i: _pc_obj(c, *c.pc[i].tolist()),
    }
    sizes = {"papers": c.n_papers, "theorems": c.n_theorems,
             "thm_cites": len(c.tc), "paper_cites": len(c.pc)}
    for name in FILES:
        for k, i in enumerate(some(sizes[name])):
            obj = records[name](i)
            text = dumps(obj)
            first_key = next(iter(obj))
            out.append((name, "truncated_json", None, text[: len(text) // 2], None))
            out.append((name, "not_an_object", None, dumps([k, text[:8]]), None))
            out.append((name, "missing_field", None,
                        dumps({key: v for key, v in obj.items() if key != first_key}), None))
            out.append((name, "non_string_field", None, dumps(dict(obj, **{first_key: k})), None))
    for k, p in enumerate(some(c.n_papers)):
        out.append(("papers", "authors_not_list", None,
                    dumps(paper(p, author_ids=f"a{k}")), None))
        out.append(("papers", "date_not_year_month", None,
                    dumps(paper(p, first_version_date=f"{c.year[p]}/{c.month[p]:02d}")), None))
        out.append(("papers", "duplicate_paper", "duplicate_paper", dumps(paper(p)), "papers"))
        out.append(("papers", "bad_subject_code", "malformed_paper",
                    dumps(paper(p, paper_id=f"xcode{k:04d}", msc_primary=["7", "4-", "123"][k % 3])),
                    "papers"))
        out.append(("papers", "bad_date", "malformed_paper",
                    dumps(paper(p, paper_id=f"xdate{k:04d}",
                                first_version_date=["2020-13", "0000-06", "2011-00"][k % 3])),
                    "papers"))
    for k, t in enumerate(some(c.n_theorems)):
        out.append(("theorems", "duplicate_theorem", "duplicate_theorem", dumps(theorem(t)), "theorems"))
        out.append(("theorems", "theorem_of_unknown_paper", "dangling_theorem",
                    dumps(theorem(t, paper_id=f"xmissing{k:04d}")), "theorems"))
        out.append(("thm_cites", "theorem_self_citation", "self_citation",
                    dumps(_tc_obj(c, t, t)), "thm_cites"))
        cite = _tc_obj(c, t, (t + 1) % c.n_theorems)
        cite["dst_theorem"] = f"missing {k}"
        out.append(("thm_cites", "citation_of_unknown_theorem", "dangling_theorem_citation",
                    dumps(cite), "thm_cites"))
    for k, p in enumerate(some(c.n_papers)):
        out.append(("paper_cites", "paper_self_citation", "self_citation",
                    dumps(_pc_obj(c, p, p)), "paper_cites"))
        out.append(("paper_cites", "citation_of_unknown_paper", "dangling_paper_citation",
                    dumps({"src_paper": c.paper_ids[p], "dst_paper": f"xmissing{k:04d}"}),
                    "paper_cites"))
    return out


def _parsed_field(obj):
    """Field counted in the build summary for a parsed paper, or None."""
    code = obj["msc_primary"]
    if len(code) != 2 or not (code.isascii() and code.isalnum()):
        return None
    return field_of_code(code)


def write_corpus(out_dir, c: Corpus, seed: int, dirty: bool = False) -> dict:
    """Write corpus c (made from seed) and manifest.json into out_dir.

    Returns the manifest.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    lines = clean_lines(c, rng)
    parsed = {name: len(lines[name]) for name in FILES}
    papers_in = Counter(field_of_code(code) for code in c.msc)
    defects = Counter()
    issues = Counter()
    malformed = {name: [] for name in FILES}

    if dirty:
        count = per_kind(c.n_papers)
        injected = _defect_lines(c, rng, count)
        for name in FILES:
            mine = [d for d in injected if d[0] == name]
            # Blank lines are skipped silently but still count as line numbers.
            mine += [(name, "blank_line", "blank", "", None)] * count
            slots = rng.integers(0, len(lines[name]) + 1, size=len(mine))
            merged = [(slot, 1, k) for k, slot in enumerate(slots)]
            merged += [(i, 0, i) for i in range(len(lines[name]))]
            merged.sort()
            file_lines = []
            for _slot, is_defect, k in merged:
                if not is_defect:
                    file_lines.append(lines[name][k])
                    continue
                _, kind, reported, text, parsed_into = mine[k]
                file_lines.append(text)
                if reported == "blank":
                    continue
                defects[kind] += 1
                if reported is None:
                    malformed[name].append(len(file_lines))
                    issues["malformed_line"] += 1
                else:
                    issues[reported] += 1
                    parsed[parsed_into] += 1
                    if parsed_into == "papers":
                        field = _parsed_field(json.loads(text))
                        if field is not None:
                            papers_in[field] += 1
            lines[name] = file_lines

    paths = {}
    for name in FILES:
        path = out_dir / f"{name}.jsonl"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines[name]:
                fh.write(line)
                fh.write("\n")
        paths[name] = str(path)

    manifest = {
        "seed": seed,
        "dirty": dirty,
        "files": paths,
        "lines": {name: len(lines[name]) for name in FILES},
        "records": {
            "papers": c.n_papers, "theorems": c.n_theorems,
            "thm_cites": len(c.tc), "paper_cites": len(c.pc),
        },
        "summary": {
            "papers": parsed["papers"],
            "theorems": parsed["theorems"],
            "theorem_citations": parsed["thm_cites"],
            "paper_citations": parsed["paper_cites"],
            **{f"papers_in.{f}": papers_in.get(f, 0) for f in FIELD_ORDER},
        },
        "edge_tiers": tier_counts(c),
        "defects": dict(sorted(defects.items())),
        "issues": dict(sorted(issues.items())),
        "malformed_lines": malformed,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, ensure_ascii=False)
    return manifest


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="rank")
    ap.add_argument("--dirty", action="store_true", help="inject defects of every kind")
    ap.add_argument("--out", required=True, help="output directory")
    args = ap.parse_args()
    m = write_corpus(args.out, make_corpus(args.seed, args.size), args.seed, args.dirty)
    print(json.dumps({k: m[k] for k in ("lines", "defects", "issues")}))


if __name__ == "__main__":
    main()
