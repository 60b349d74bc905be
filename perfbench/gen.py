"""Seeded synthetic corpora for the benchmark, written straight to TSV.

Nothing here imports ``poprank``: the program under test never builds its
own input. A corpus is a bibliography-like typed object graph (papers and
authors, three relationship types) plus a page hyperlink graph and a
page-object map, made dirty the way harvested web data is:

* duplicate object records whose non-key attributes disagree (merge conflicts);
* links whose source or target key names no object (dropped links);
* repeated link lines (link duplicates) and repeated hyperlinks.

Every amount of dirt is counted here, from the generator's own arrays, so
the oracle can check the program's ``diag`` lines against it. The clean
arrays are saved next to the TSV files (``truth.npz``) for the oracle;
``manifest.json`` records every parameter, the planted counts and a sha256
of every file. ``ensure_corpus`` builds each (shape, seed) once and reuses
it; nothing it does is timed by the benchmark.

Run standalone to write one corpus:

    python3 perfbench/gen.py --shape 20k --seed 1 --out /tmp/corpus
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import oracle

GEN_VERSION = 1
RELATIONS = (("cites", "paper", "paper"), ("written_by", "paper", "author"),
             ("authored", "author", "paper"))
PLANTED_GAMMA = {"cites": 0.7, "written_by": 0.3, "authored": 0.5}
# Far-apart swaps in the expert order keep ``learn`` above zero violations,
# so its search spends the whole grid and refine budget.
EXPERT_SWAPS = ((0, 59), (10, 49), (20, 39))
EXPERT_SIZE = 60
EXPERT_POOL = 600
CORPUS_FILES = ("schemas.tsv", "objects.tsv", "links.tsv", "pages.tsv",
                "page_object_map.tsv", "ppf.tsv", "expert.tsv")
KEEP_PER_SHAPE = 3


@dataclass(frozen=True)
class Shape:
    papers: int
    authors: int
    pages: int
    map_entries: int
    cites_per_paper: float = 4.5
    max_authors_per_paper: int = 3
    out_links: int = 5
    dup_record_frac: float = 0.15
    unresolved_link_frac: float = 0.015
    dup_link_frac: float = 0.02
    dup_hyperlink_frac: float = 0.01
    weighted_map_frac: float = 0.5
    venues: int = 400
    affiliations: int = 300

    @property
    def objects(self) -> int:
        return self.papers + self.authors


SHAPES = {
    "200k": Shape(papers=150_000, authors=50_000, pages=200_000, map_entries=150_000),
    "20k": Shape(papers=15_000, authors=5_000, pages=20_000, map_entries=15_000),
    "smoke": Shape(papers=900, authors=300, pages=1_200, map_entries=900),
}


def _zipf(rng: np.random.Generator, n: int, size: int, a: float = 0.8) -> np.ndarray:
    """Draw ``size`` ids in [0, n) with power-law popularity over a random order."""
    weights = 1.0 / np.arange(1, n + 1) ** a
    weights = weights[rng.permutation(n)]
    return rng.choice(n, size=size, p=weights / weights.sum())


def _unique_pairs(src: np.ndarray, tgt: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    packed = np.unique(src.astype(np.int64) * n + tgt)
    return packed // n, packed % n


def _keys(shape: Shape) -> list[str]:
    return [f"p{i}" for i in range(shape.papers)] + [f"a{i}" for i in range(shape.authors)]


def _types(shape: Shape) -> np.ndarray:
    return np.array(["paper"] * shape.papers + ["author"] * shape.authors, dtype=object)


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def _records(rng, shape: Shape, out: Path) -> dict:
    """objects.tsv: one record per object in a random first-appearance order,
    duplicates scattered after their original, each disagreeing on one or two
    non-key attributes."""
    n, papers = shape.objects, shape.papers
    year = rng.integers(1990, 2011, n)
    venue = rng.integers(0, shape.venues, n)
    affiliation = rng.integers(0, shape.affiliations, n)
    dup_of = rng.choice(n, size=int(round(shape.dup_record_frac * n)), replace=False)
    # a duplicate always changes venue/affiliation; a paper duplicate also
    # changes its year with probability 0.3
    dup_year_differs = (dup_of < papers) & (rng.random(dup_of.size) < 0.3)
    dup_shift = rng.integers(1, 50, dup_of.size)

    position = rng.permutation(n).astype(np.float64)
    dup_position = position[dup_of] + 0.5 + rng.random(dup_of.size) * (n - position[dup_of])
    order = np.argsort(np.concatenate([position, dup_position]), kind="stable")
    source_page = rng.integers(0, shape.pages, n + dup_of.size)
    has_source = rng.random(n + dup_of.size) < 0.5

    lines = []
    for k, slot in enumerate(order.tolist()):
        dup = slot >= n
        obj = int(dup_of[slot - n]) if dup else slot
        if obj < papers:
            y, v = int(year[obj]), int(venue[obj])
            if dup:
                v = (v + int(dup_shift[slot - n])) % shape.venues
                if dup_year_differs[slot - n]:
                    y += 1
            attrs = f"paper\ttitle=p{obj};year={y};venue=v{v}"
        else:
            a = int(affiliation[obj])
            if dup:
                a = (a + int(dup_shift[slot - n])) % shape.affiliations
            attrs = f"author\tname=a{obj - papers};affiliation=u{a}"
        tail = f"\tw{int(source_page[k])}" if has_source[k] else ""
        lines.append(f"r{k}\t{attrs}{tail}\n")
    _write_lines(out / "objects.tsv", lines)
    return {
        "records": n + int(dup_of.size),
        "objects": n,
        "conflicts": int(dup_of.size + dup_year_differs.sum()),
    }


def _links(rng, shape: Shape, out: Path) -> tuple[dict, dict]:
    """links.tsv: clean typed links plus duplicated and unresolvable lines, shuffled."""
    papers, authors = shape.papers, shape.authors
    src = rng.integers(0, papers, int(shape.cites_per_paper * papers))
    tgt = _zipf(rng, papers, src.size)
    keep = src != tgt
    cites = _unique_pairs(src[keep], tgt[keep], papers)
    per_paper = rng.integers(1, shape.max_authors_per_paper + 1, papers)
    paper_ids = np.repeat(np.arange(papers), per_paper)
    wrote = _unique_pairs(paper_ids, _zipf(rng, authors, paper_ids.size), authors)
    # global object ids: papers first, then authors
    clean = {
        "cites": cites,
        "written_by": (wrote[0], wrote[1] + papers),
        "authored": (wrote[1] + papers, wrote[0]),
    }
    keys = _keys(shape)
    type_of = {name: (s, t) for name, s, t in RELATIONS}

    lines = []
    for name, (s, t) in clean.items():
        st, tt = type_of[name]
        lines += [f"{st}\t{keys[a]}\t{name}\t{tt}\t{keys[b]}\n" for a, b in zip(s.tolist(), t.tolist())]
    total_clean = len(lines)
    dups = rng.integers(0, total_clean, int(round(shape.dup_link_frac * total_clean)))
    lines += [lines[i] for i in dups.tolist()]
    unresolved = rng.integers(0, total_clean, int(round(shape.unresolved_link_frac * total_clean)))
    broken_source = rng.random(unresolved.size) < 0.5
    missing = rng.integers(0, papers, unresolved.size) + papers  # p{papers..} is never an object
    for i, use_source, m in zip(unresolved.tolist(), broken_source.tolist(), missing.tolist()):
        st, sk, name, tt, tk = lines[i].rstrip("\n").split("\t")
        # the missing key names a paper, so the broken end must be a paper end
        if use_source and st != "paper" or not use_source and tt != "paper":
            use_source = not use_source
        if use_source:
            sk = f"p{m}"
        else:
            tk = f"p{m}"
        lines.append(f"{st}\t{sk}\t{name}\t{tt}\t{tk}\n")
    lines = [lines[i] for i in rng.permutation(len(lines)).tolist()]
    _write_lines(out / "links.tsv", lines)
    planted = {
        "links_clean": total_clean,
        "link_lines": len(lines),
        "link_duplicates": int(dups.size),
        "links_dropped": int(unresolved.size),
    }
    return clean, planted


def _pages(rng, shape: Shape, out: Path) -> tuple[tuple[np.ndarray, np.ndarray], dict]:
    """pages.tsv: every page lists ``out_links`` targets; some repeat one."""
    pages, k = shape.pages, shape.out_links
    targets = _zipf(rng, pages, pages * k).reshape(pages, k)
    repeat = rng.random(pages) < shape.dup_hyperlink_frac
    lines = []
    for i, row in enumerate(targets.tolist()):
        if repeat[i]:
            row.append(row[0])
        lines.append(f"w{i}\t{','.join(f'w{t}' for t in row)}\n")
    _write_lines(out / "pages.tsv", lines)
    src = np.concatenate([np.repeat(np.arange(pages), k), np.flatnonzero(repeat)])
    tgt = np.concatenate([targets.ravel(), targets[repeat, 0]])
    edges = _unique_pairs(src, tgt, pages)
    return edges, {"hyperlinks": int(src.size), "hyperlink_duplicates": int(src.size - edges[0].size)}


def _page_map(rng, shape: Shape, out: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """page_object_map.tsv: distinct objects placed on random pages, half of
    the entries with an explicit block weight (NaN in the arrays = no weight)."""
    objs = rng.choice(shape.objects, size=shape.map_entries, replace=False)
    pages = rng.integers(0, shape.pages, shape.map_entries)
    weights = np.round(rng.uniform(0.05, 2.0, shape.map_entries), 6)
    weights[rng.random(shape.map_entries) >= shape.weighted_map_frac] = np.nan
    keys, types = _keys(shape), _types(shape)
    lines = []
    for p, o, w in zip(pages.tolist(), objs.tolist(), weights.tolist()):
        weight = "" if w != w else f"\t{w!r}"
        lines.append(f"w{p}\t{types[o]}\t{keys[o]}{weight}\n")
    _write_lines(out / "page_object_map.tsv", lines)
    return pages, objs, weights


def _expert(rng, shape: Shape, scores: np.ndarray, out: Path) -> np.ndarray:
    """expert.tsv: EXPERT_SIZE objects from the top of the planted order, best
    first, with EXPERT_SWAPS applied."""
    pool = np.argsort(-scores, kind="stable")[:EXPERT_POOL]
    chosen = rng.choice(pool, size=EXPERT_SIZE, replace=False)
    ranked = chosen[np.argsort(-scores[chosen], kind="stable")]
    for i, j in EXPERT_SWAPS:
        ranked[[i, j]] = ranked[[j, i]]
    keys, types = _keys(shape), _types(shape)
    _write_lines(out / "expert.tsv", [f"{types[o]}:{keys[o]}\n" for o in ranked.tolist()])
    return ranked


def generate(shape_name: str, seed: int, out: Path) -> dict:
    """Write one corpus into ``out`` and return its manifest."""
    shape = SHAPES[shape_name]
    rng = np.random.default_rng([GEN_VERSION, seed, sorted(SHAPES).index(shape_name)])
    out.mkdir(parents=True, exist_ok=True)
    _write_lines(out / "schemas.tsv", ["paper\ttitle,year,venue\ttitle\n",
                                       "author\tname,affiliation\tname\n"])
    _write_lines(out / "ppf.tsv", [f"{name}\t{g!r}\n" for name, g in PLANTED_GAMMA.items()])
    planted = _records(rng, shape, out)
    links, link_counts = _links(rng, shape, out)
    edges, page_counts = _pages(rng, shape, out)
    map_pages, map_objs, map_weights = _page_map(rng, shape, out)
    planted.update(link_counts)
    planted.update(page_counts)
    planted["map_entries"] = shape.map_entries

    truth = {
        "num_objects": np.int64(shape.objects),
        "num_papers": np.int64(shape.papers),
        "num_pages": np.int64(shape.pages),
        "page_src": edges[0], "page_tgt": edges[1],
        "map_pages": map_pages, "map_objs": map_objs, "map_weights": map_weights,
    }
    for name, (s, t) in links.items():
        truth[f"src_{name}"], truth[f"tgt_{name}"] = s, t
    solver = oracle.Truth(truth)
    scores = solver.fixed_point(PLANTED_GAMMA)
    truth["expert"] = _expert(rng, shape, scores, out)
    np.savez(out / "truth.npz", **truth)
    np.savez(out / oracle.CACHE_FILE, prior=solver.prior(), planted=scores)

    manifest = {
        "generator_version": GEN_VERSION,
        "shape": shape_name,
        "seed": seed,
        "params": asdict(shape),
        "relations": [list(r) for r in RELATIONS],
        "planted_gamma": PLANTED_GAMMA,
        "expert_swaps": [list(s) for s in EXPERT_SWAPS],
        "planted": planted,
        "sha256": {name: _sha256(out / name) for name in CORPUS_FILES + ("truth.npz",)},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def ensure_corpus(cache: Path, shape_name: str, seed: int) -> tuple[Path, dict]:
    """Return (directory, manifest) of the cached corpus, generating it once.

    A corpus is written to a temporary directory and renamed into place, so
    an interrupted run never leaves a half-written corpus behind. Only the
    KEEP_PER_SHAPE most recently used corpora of a shape are kept.
    """
    target = cache / f"{shape_name}-seed{seed}"
    manifest_path = target / "manifest.json"
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("generator_version") == GEN_VERSION:
            os.utime(target)
            return target, manifest
        shutil.rmtree(target)
    tmp = cache / f".tmp-{shape_name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    manifest = generate(shape_name, seed, tmp)
    tmp.rename(target)
    siblings = sorted(cache.glob(f"{shape_name}-seed*"), key=lambda p: p.stat().st_mtime)
    for old in siblings[:-KEEP_PER_SHAPE]:
        shutil.rmtree(old, ignore_errors=True)
    return target, manifest


def main() -> int:
    parser = argparse.ArgumentParser(description="Write one seeded benchmark corpus.")
    parser.add_argument("--shape", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    manifest = generate(args.shape, args.seed, args.out)
    print(json.dumps(manifest["planted"], sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
