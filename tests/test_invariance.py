"""Properties of ``rank`` end to end, on small clean corpora written with
``write_corpus``: its scores depend neither on how the object keys are
spelled nor on the order of the records and of a type's link lines."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import paper_registry, record_table
from poprank import ObjectGraph, RelationshipType, merge_records
from poprank.cli import main
from poprank.corpus import write_corpus
from poprank.formats import read_report

RELS = ("cites", "extends")
# key texts of one to four bytes a letter, none a separator of the corpus files
KEYS = st.text(alphabet="abxyz09é€𝄞", min_size=1, max_size=4)


@st.composite
def corpora(draw):
    """(keys, links by type, page count, hyperlinks, map entries): object i
    has key keys[i], a map entry is (page, object, block weight)."""
    n = draw(st.integers(1, 7))
    keys = draw(st.lists(KEYS, min_size=n, max_size=n, unique=True))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    links = {rel: draw(st.lists(pairs, max_size=12, unique=True)) for rel in RELS}
    pages = draw(st.integers(1, 4))
    page = st.integers(0, pages - 1)
    hyperlinks = draw(st.lists(st.tuples(page, page), max_size=8))
    entries = draw(st.lists(st.tuples(page, st.integers(0, n - 1), st.sampled_from([0.5, 1.0, 3.0])),
                            min_size=1, max_size=8))
    return keys, links, pages, hyperlinks, entries


def rank_rows(directory: Path, keys, links, pages, hyperlinks, entries) -> list[list[str]]:
    """The report rows of ``rank`` on the corpus of these parts."""
    objects = merge_records(record_table((f"r{i}", "paper", {"title": key})
                                         for i, key in enumerate(keys)), paper_registry())
    graph = ObjectGraph(objects, [RelationshipType(rel, "paper", "paper") for rel in RELS],
                        {rel: np.array(pairs, np.int64).reshape(-1, 2) for rel, pairs in links.items()})
    page_rows = [(f"p{p}", [f"p{t}" for s, t in hyperlinks if s == p]) for p in range(pages)]
    page_map = ("".join(f"p{p}\n" for p, _, _ in entries).encode(),
                "".join(f"paper\t{keys[obj]}\n" for _, obj, _ in entries).encode(),
                np.array([weight for _, _, weight in entries]))
    write_corpus(directory, paper_registry(), graph, page_rows, page_map)
    (directory / "gamma.tsv").write_text("cites\t0.7\nextends\t0.2\n")
    out = directory / "report.tsv"
    assert main(["rank", str(directory), "--ppf", str(directory / "gamma.tsv"),
                 "--out", str(out)]) == 0
    return read_report(out)[1]


@settings(max_examples=40, deadline=None)
@given(corpus=corpora(), data=st.data())
def test_renaming_the_keys_leaves_the_scores_byte_identical(corpus, data):
    keys, *rest = corpus
    renamed = data.draw(st.lists(KEYS, min_size=len(keys), max_size=len(keys), unique=True))
    with tempfile.TemporaryDirectory() as tmp:
        before = rank_rows(Path(tmp) / "before", keys, *rest)
        after = rank_rows(Path(tmp) / "after", renamed, *rest)
    assert [row[3] for row in after] == [row[3] for row in before]


@settings(max_examples=40, deadline=None)
@given(corpus=corpora(), data=st.data())
def test_reordering_records_and_link_lines_moves_no_score(corpus, data):
    keys, links, pages, hyperlinks, entries = corpus
    order = data.draw(st.permutations(range(len(keys))))  # row i of the new corpus is object order[i]
    row = {obj: i for i, obj in enumerate(order)}
    moved = {rel: [(row[s], row[t]) for s, t in pairs[:1] + data.draw(st.permutations(pairs[1:]))]
             for rel, pairs in links.items()}  # each type's first line stays first
    with tempfile.TemporaryDirectory() as tmp:
        before = rank_rows(Path(tmp) / "before", keys, links, pages, hyperlinks, entries)
        after = rank_rows(Path(tmp) / "after", [keys[obj] for obj in order], moved, pages,
                          hyperlinks, [(p, row[obj], w) for p, obj, w in entries])
    # by reference: tied scores are listed by row
    before, after = ({key: float(score) for _, _, key, score in rows} for rows in (before, after))
    assert after.keys() == before.keys()
    for key, score in before.items():
        assert abs(after[key] - score) <= 1e-12, key
