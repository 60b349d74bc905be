"""Corpus file formats: parsing, diagnostics, round-trips."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from poprank import FormatError, GraphError, PartialRanking
from poprank import formats
from poprank.corpus import (
    CorpusPaths,
    load_corpus,
    resolve_expert,
    write_corpus,
)


def write_minimal_corpus(d, objects=None, links=None, pages=None, page_map=None, schemas=None):
    (d / "schemas.tsv").write_text(schemas if schemas is not None else "paper\ttitle,year\ttitle\n")
    (d / "objects.tsv").write_text(
        objects
        if objects is not None
        else "r1\tpaper\ttitle=A;year=2004\tp1\nr2\tpaper\ttitle=B\tp1\n"
    )
    (d / "links.tsv").write_text(
        links if links is not None else "paper\tA\tcites\tpaper\tB\n"
    )
    (d / "pages.tsv").write_text(pages if pages is not None else "p1\n")
    (d / "page_object_map.tsv").write_text(
        page_map if page_map is not None else "p1\tpaper\tA\t1.0\n"
    )
    return CorpusPaths.in_dir(d)


class TestLoadCorpus:
    def test_minimal_corpus_loads(self, tmp_path):
        bundle = load_corpus(write_minimal_corpus(tmp_path))
        assert bundle.graph.num_objects == 2
        assert bundle.graph.num_links == 1
        assert bundle.page_graph.num_pages == 1
        assert any("conflicts=0" in d for d in bundle.diagnostics)

    def test_malformed_links_line_names_file_and_line(self, tmp_path):
        paths = write_minimal_corpus(tmp_path, links="paper\tA\n")
        with pytest.raises(FormatError, match=r"links\.tsv:1"):
            load_corpus(paths)

    def test_missing_file_reported(self, tmp_path):
        paths = write_minimal_corpus(tmp_path)
        paths.pages.unlink()
        with pytest.raises(FormatError, match="missing corpus file"):
            load_corpus(paths)

    def test_collapsing_records_counted(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = []
        for i in range(100):
            title = f"t{i}" if i < 40 else f"t{int(rng.integers(0, 40))}"
            lines.append(f"r{i}\tpaper\ttitle={title};year={2000 + i % 3}")
        paths = write_minimal_corpus(
            tmp_path,
            objects="\n".join(lines) + "\n",
            links="",
            page_map="",
        )
        bundle = load_corpus(paths)
        assert bundle.graph.num_objects == 40
        assert sum(bundle.graph.objects.merged_record_counts) == 100

    def test_unresolved_link_lenient_then_strict(self, tmp_path):
        paths = write_minimal_corpus(
            tmp_path, links="paper\tA\tcites\tpaper\tMissing\n"
        )
        bundle = load_corpus(paths)
        assert bundle.graph.num_links == 0
        assert any(d.startswith("link-dropped") for d in bundle.diagnostics)
        with pytest.raises(GraphError):
            load_corpus(paths, strict=True)

    def test_rel_type_inferred_from_first_line(self, tmp_path):
        schemas = "paper\ttitle\ttitle\nauthor\tname\tname\n"
        objects = "r1\tpaper\ttitle=A\nr2\tauthor\tname=N\n"
        links = "paper\tA\tby\tauthor\tN\nauthor\tN\tby\tauthor\tN\n"
        paths = write_minimal_corpus(tmp_path, schemas=schemas, objects=objects, links=links)
        # second line contradicts the inferred by: paper -> author typing
        with pytest.raises(GraphError, match="do not match"):
            load_corpus(paths)

    def test_unregistered_type_in_link_rejected(self, tmp_path):
        paths = write_minimal_corpus(tmp_path, links="movie\tA\tcites\tpaper\tB\n")
        with pytest.raises(GraphError, match="unregistered"):
            load_corpus(paths)

    def test_unregistered_type_reported_before_mismatch(self, tmp_path):
        schemas = "paper\ttitle\ttitle\nauthor\tname\tname\n"
        objects = "r1\tpaper\ttitle=A\nr2\tauthor\tname=N\n"
        links = ("paper\tA\tby\tauthor\tN\n"
                 "author\tN\tby\tauthor\tN\n"  # mismatch on an earlier line
                 "paper\tA\tcites\tmovie\tM\n")
        paths = write_minimal_corpus(tmp_path, schemas=schemas, objects=objects, links=links)
        with pytest.raises(GraphError, match="'cites' names unregistered object type 'movie'"):
            load_corpus(paths)

    def test_first_unregistered_line_wins(self, tmp_path):
        links = ("paper\tA\tcites\tpaper\tB\n"
                 "book\tA\tcites\tmovie\tB\n"
                 "paper\tA\tcites\tmovie\tB\n"
                 "film\tA\tcites\tpaper\tB\n")
        paths = write_minimal_corpus(tmp_path, links=links)
        with pytest.raises(GraphError, match="unregistered object type 'book'"):
            load_corpus(paths)

    def test_first_mismatching_line_wins(self, tmp_path):
        schemas = "paper\ttitle\ttitle\nauthor\tname\tname\n"
        objects = "r1\tpaper\ttitle=A\nr2\tauthor\tname=N\n"
        links = ("paper\tA\tby\tauthor\tN\n"
                 "paper\tA\tby\tpaper\tA\n"
                 "author\tN\tby\tauthor\tN\n"
                 "paper\tA\tby\tpaper\tA\n")
        paths = write_minimal_corpus(tmp_path, schemas=schemas, objects=objects, links=links)
        for strict in (False, True):
            with pytest.raises(GraphError, match="link types 'paper'->'paper' do not match 'by'"):
                load_corpus(paths, strict=strict)

    @pytest.mark.parametrize("links, strict_error", [
        ("paper\tA\tcites\tpaper\tZ\npaper\tA\tcites\tauthor\tN\n", "unresolved target 'Z'"),
        ("paper\tZ\tcites\tpaper\tA\npaper\tA\tcites\tauthor\tN\n", "unresolved source 'Z'"),
        ("paper\tA\tcites\tauthor\tN\npaper\tA\tcites\tpaper\tZ\n", "do not match"),
        ("paper\tA\tcites\tauthor\tZ\n", "do not match"),  # one line, both faults
    ], ids=["unresolved-target-first", "unresolved-source-first", "mismatch-first", "same-line"])
    def test_strict_mode_names_the_first_bad_line(self, tmp_path, links, strict_error):
        schemas = "paper\ttitle\ttitle\nauthor\tname\tname\n"
        objects = "r1\tpaper\ttitle=A\nr2\tauthor\tname=N\n"
        paths = write_minimal_corpus(tmp_path, schemas=schemas, objects=objects,
                                     links="paper\tA\tcites\tpaper\tA\n" + links)
        with pytest.raises(GraphError, match="do not match"):
            load_corpus(paths)
        with pytest.raises(GraphError, match=strict_error):
            load_corpus(paths, strict=True)

    def test_map_unknown_object_lenient_then_strict(self, tmp_path):
        paths = write_minimal_corpus(tmp_path, page_map="p1\tpaper\tNope\t1.0\n")
        bundle = load_corpus(paths)
        assert not bundle.page_map.entries
        assert any(d.startswith("map-dropped") for d in bundle.diagnostics)
        with pytest.raises(GraphError):
            load_corpus(paths, strict=True)

    def test_pages_only_as_targets_are_registered(self, tmp_path):
        paths = write_minimal_corpus(tmp_path, pages="p1\tp2,p3\n")
        bundle = load_corpus(paths)
        assert bundle.page_graph.num_pages == 3
        assert bundle.page_index == {"p1": 0, "p2": 1, "p3": 2}

    def test_duplicate_hyperlinks_diagnosed(self, tmp_path):
        paths = write_minimal_corpus(tmp_path, pages="p1\tp2,p2\np2\tp1,p1,p1\n")
        bundle = load_corpus(paths)
        assert bundle.page_graph.num_edges == 2
        assert "hyperlink-duplicates\tcount=3" in bundle.diagnostics


class TestRoundTrip:
    def test_graph_write_reload_identity(self, tmp_path):
        paths = write_minimal_corpus(
            tmp_path,
            schemas="paper\ttitle,year\ttitle\nauthor\tname\tname\n",
            objects=(
                "r1\tpaper\ttitle=A;year=2004\n"
                "r2\tpaper\ttitle=B;year=2005\n"
                "r3\tauthor\tname=N\n"
            ),
            links=(
                "paper\tA\tcites\tpaper\tB\n"
                "paper\tB\tcites\tpaper\tA\n"
                "paper\tA\tby\tauthor\tN\n"
            ),
            pages="p1\tp2\np2\tp1\n",
            page_map="p1\tpaper\tA\t0.75\np1\tpaper\tB\t0.25\np2\tauthor\tN\n",
        )
        bundle = load_corpus(paths)

        out = tmp_path / "rewritten"
        page_ids, refs = list(bundle.page_index), list(bundle.graph.key_index)
        map_entries = [(page_ids[p], refs[o], w) for p, o, w in bundle.page_map.entries]
        page_rows = []
        adjacency: dict[int, list[int]] = {}
        for s, t in bundle.page_graph.edges:
            adjacency.setdefault(int(s), []).append(int(t))
        for idx, page_id in enumerate(page_ids):
            page_rows.append((page_id, [page_ids[t] for t in adjacency.get(idx, [])]))
        write_corpus(out, bundle.registry, bundle.graph, page_rows, map_entries)

        reloaded = load_corpus(CorpusPaths.in_dir(out))
        objects, again = bundle.graph.objects, reloaded.graph.objects
        assert (again.type_names, again.attribute_values) == (
            objects.type_names, objects.attribute_values)
        assert {k: v.tolist() for k, v in reloaded.graph.links.items()} == {
            k: v.tolist() for k, v in bundle.graph.links.items()
        }
        assert [rt.rel_name for rt in reloaded.graph.relationship_types] == [
            rt.rel_name for rt in bundle.graph.relationship_types
        ]
        assert reloaded.page_graph.edges.tolist() == bundle.page_graph.edges.tolist()
        assert reloaded.page_map.entries == bundle.page_map.entries

    def test_ppf_roundtrip(self, tmp_path):
        path = tmp_path / "gamma.tsv"
        factors = {"cites": 0.8123456789012345, "by": 0.05}
        formats.write_ppf(path, factors, meta=[("violations", "0")])
        assert formats.read_ppf(path) == factors

    def test_report_roundtrip(self, tmp_path):
        path = tmp_path / "report.tsv"
        meta = [("command", "rank"), ("epsilon", repr(0.15))]
        rows = [("1", "paper", "A", repr(0.6000000000000001)), ("2", "paper", "B", repr(0.4))]
        formats.write_report(path, meta, rows)
        got_meta, got_rows = formats.read_report(path)
        assert got_meta == dict(meta)
        assert [tuple(r) for r in got_rows] == rows
        assert float(got_rows[0][3]) == 0.6000000000000001


class TestFormatValidation:
    def test_objects_bad_segment(self, tmp_path):
        paths = write_minimal_corpus(tmp_path, objects="r1\tpaper\ttitleA\n")
        with pytest.raises(FormatError, match=r"objects\.tsv:1"):
            load_corpus(paths)

    def test_ppf_range_checked(self, tmp_path):
        path = tmp_path / "gamma.tsv"
        path.write_text("cites\t1.5\n")
        with pytest.raises(FormatError, match="0, 1"):
            formats.read_ppf(path)

    def test_ppf_duplicate_checked(self, tmp_path):
        path = tmp_path / "gamma.tsv"
        path.write_text("cites\t0.5\ncites\t0.7\n")
        with pytest.raises(FormatError, match="twice"):
            formats.read_ppf(path)

    def test_pages_duplicate_page_rejected(self, tmp_path):
        paths = write_minimal_corpus(tmp_path, pages="p1\np1\n")
        with pytest.raises(FormatError, match="listed twice"):
            load_corpus(paths)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        paths = write_minimal_corpus(
            tmp_path, links="# a comment\n\npaper\tA\tcites\tpaper\tB\n"
        )
        bundle = load_corpus(paths)
        assert bundle.graph.num_links == 1

    def test_object_ref_parse(self):
        assert formats.parse_object_ref("paper:A|2004") == "paper\tA|2004"
        with pytest.raises(FormatError):
            formats.parse_object_ref("no-colon")


class TestExpertFiles:
    def test_order_form(self, tmp_path):
        paths = write_minimal_corpus(tmp_path)
        bundle = load_corpus(paths)
        expert_file = tmp_path / "expert.tsv"
        expert_file.write_text("paper:B\npaper:A\n")
        ranking = resolve_expert(bundle, expert_file)
        assert ranking.pairs == ((1, 0),)

    def test_pairs_form(self, tmp_path):
        paths = write_minimal_corpus(tmp_path)
        bundle = load_corpus(paths)
        expert_file = tmp_path / "expert.tsv"
        expert_file.write_text("paper:A\t>\tpaper:B\n")
        ranking = resolve_expert(bundle, expert_file)
        assert ranking.pairs == ((0, 1),)

    def test_mixed_forms_rejected(self, tmp_path):
        paths = write_minimal_corpus(tmp_path)
        bundle = load_corpus(paths)
        expert_file = tmp_path / "expert.tsv"
        expert_file.write_text("paper:A\npaper:A\t>\tpaper:B\n")
        with pytest.raises(FormatError, match="mix"):
            resolve_expert(bundle, expert_file)

    def test_unknown_reference_rejected(self, tmp_path):
        paths = write_minimal_corpus(tmp_path)
        bundle = load_corpus(paths)
        expert_file = tmp_path / "expert.tsv"
        expert_file.write_text("paper:Zzz\npaper:A\n")
        with pytest.raises(GraphError, match="unknown object"):
            resolve_expert(bundle, expert_file)

    def test_bad_separator_rejected(self, tmp_path):
        paths = write_minimal_corpus(tmp_path)
        bundle = load_corpus(paths)
        expert_file = tmp_path / "expert.tsv"
        expert_file.write_text("paper:A\t<\tpaper:B\n")
        with pytest.raises(FormatError, match="'>'"):
            resolve_expert(bundle, expert_file)

    def test_empty_expert_file_yields_empty_ranking(self, tmp_path):
        paths = write_minimal_corpus(tmp_path)
        bundle = load_corpus(paths)
        expert_file = tmp_path / "expert.tsv"
        expert_file.write_text("")
        assert resolve_expert(bundle, expert_file) == PartialRanking(())


# ---- properties of the readers and the loader ---------------------------------

_ALPHABET = "ab|;=,:>#. \t\r0-9"
_READERS = ["read_schemas", "read_objects", "read_links", "read_pages", "read_page_map",
            "read_ppf", "read_expert"]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(reader=st.sampled_from(_READERS),
       lines=st.lists(st.text(alphabet=_ALPHABET, max_size=24), min_size=1, max_size=4))
def test_readers_parse_or_raise_format_error(tmp_path, reader, lines):
    path = tmp_path / "fuzz.tsv"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        getattr(formats, reader)(path)
    except FormatError:
        pass


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.text(alphabet="ab#\t \r\n", max_size=40), size=st.integers(1, 9))
def test_line_blocks_match_line_iteration(tmp_path, text, size):
    path = tmp_path / "lines.tsv"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        expected = [(lineno, raw.rstrip("\n")) for lineno, raw in enumerate(fh, start=1)]
    got = [(first + i, line) for first, lines in formats._line_blocks(path, size)
           for i, line in enumerate(lines)]
    assert got == expected


def _reference_links(objects_lines, link_lines):
    """Plain-Python loader for links: a dict over (type, key tuple) in order
    of first appearance, then a first-appearance set of (rel, src, tgt)."""
    index: dict[tuple[str, tuple[str, ...]], int] = {}
    for type_name, key in objects_lines:
        index.setdefault((type_name, key), len(index))
    links: dict[str, list[list[int]]] = {}
    dropped, seen, duplicates = [], set(), 0
    for st_, sk, rel, tt, tk in link_lines:
        links.setdefault(rel, [])
        src, tgt = index.get((st_, tuple(sk.split("|")))), index.get((tt, tuple(tk.split("|"))))
        if src is None or tgt is None:
            side, key = ("source", sk) if src is None else ("target", tk)
            dropped.append(f"link-dropped\t{rel}: unresolved {side} {key!r}")
        elif (rel, src, tgt) in seen:
            duplicates += 1
        else:
            seen.add((rel, src, tgt))
            links[rel].append([src, tgt])
    return links, dropped, duplicates


_RELS = {"cites": ("paper", "paper"), "at": ("paper", "event"), "next": ("event", "event")}
_PAPER_KEYS = ["a", "b", "c", "a ", "z"]
_EVENT_KEYS = ["k|1", "k|2", "w|1", "k", "k|1|x", "q|9"]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_load_corpus_matches_plain_python_reference(tmp_path, data):
    papers = data.draw(st.lists(st.sampled_from(_PAPER_KEYS[:3]), max_size=6))
    events = data.draw(st.lists(st.sampled_from(_EVENT_KEYS[:3]), max_size=6))
    records = [("paper", (k,)) for k in papers] + [("event", tuple(k.split("|"))) for k in events]
    records = data.draw(st.permutations(records))
    keys = {"paper": _PAPER_KEYS, "event": _EVENT_KEYS}
    link_lines = []
    for _ in range(data.draw(st.integers(0, 30))):
        rel = data.draw(st.sampled_from(sorted(_RELS)))
        st_, tt = _RELS[rel]
        link_lines.append((st_, data.draw(st.sampled_from(keys[st_])), rel, tt,
                           data.draw(st.sampled_from(keys[tt]))))
    filler = data.draw(st.lists(st.sampled_from(["", "  ", "\t", "# note", "  # note"]),
                                min_size=len(link_lines) + 1, max_size=len(link_lines) + 1))

    object_text = "".join(
        f"r{i}\tpaper\ttitle={key[0]}\n" if type_name == "paper"
        else f"r{i}\tevent\tname={key[0]};year={key[1]}\n"
        for i, (type_name, key) in enumerate(records))
    link_text = filler[0] + "\n" + "".join(
        "\t".join(line) + "\n" + extra + "\n" for line, extra in zip(link_lines, filler[1:]))
    paths = write_minimal_corpus(
        tmp_path, schemas="paper\ttitle\ttitle\nevent\tname,year\tname,year\n",
        objects=object_text, links=link_text, pages="", page_map="")
    bundle = load_corpus(paths)

    links, dropped, duplicates = _reference_links(records, link_lines)
    assert [(rel, edges.tolist()) for rel, edges in bundle.graph.links.items()] == list(links.items())
    assert [d for d in bundle.diagnostics if d.startswith("link-dropped")] == dropped
    counted = [d for d in bundle.diagnostics if d.startswith("link-duplicates")]
    assert counted == ([f"link-duplicates\tcount={duplicates}"] if duplicates else [])
