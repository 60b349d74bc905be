"""Corpus file formats: parsing, diagnostics, round-trips."""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import map_columns
from test_digests import write_dirty_corpus, write_edge_corpus

from poprank import FormatError, GraphError, PartialRanking, RecordError
from poprank import corpus, formats
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

    def test_lookups_add_no_reference_to_the_objects(self, tmp_path):
        """Dropped links and map entries, and unknown expert references,
        leave the objects' interner holding one reference per object."""
        links = "paper\tA\tcites\tpaper\tMissing\npaper\tGone\tcites\tpaper\tB\n"
        page_map = "p1\tpaper\tNope\t1.0\np2\tpaper\tA\t1.0\np1\tpaper\tB\t1.0\n"
        bundle = load_corpus(write_minimal_corpus(tmp_path, links=links, page_map=page_map))
        assert [d.partition("\t")[0] for d in bundle.diagnostics] == [
            "merge", "link-dropped", "link-dropped", "map-dropped", "map-dropped"]
        with pytest.raises(GraphError, match="unknown object 'paper:Z'"):
            bundle.resolve_refs(["paper\tA", "paper\tZ"])
        objects = bundle.graph.objects
        assert len(objects.refs) == len(objects) == 2
        assert objects.refs.values() == ["paper\tA", "paper\tB"]

    def test_map_unknown_object_lenient_then_strict(self, tmp_path):
        paths = write_minimal_corpus(tmp_path, page_map="p1\tpaper\tNope\t1.0\n")
        bundle = load_corpus(paths)
        assert map_columns(bundle.page_map) == ([], [], [])
        assert any(d.startswith("map-dropped") for d in bundle.diagnostics)
        with pytest.raises(GraphError):
            load_corpus(paths, strict=True)

    def test_pages_only_as_targets_are_registered(self, tmp_path):
        paths = write_minimal_corpus(tmp_path, pages="p1\tp2,p3\n")
        bundle = load_corpus(paths)
        assert bundle.page_graph.num_pages == 3
        assert _page_ids(paths.pages) == ["p1", "p2", "p3"]

    def test_duplicate_hyperlinks_diagnosed(self, tmp_path):
        paths = write_minimal_corpus(tmp_path, pages="p1\tp2,p2\np2\tp1,p1,p1\n")
        bundle = load_corpus(paths)
        assert bundle.page_graph.num_edges == 2
        assert "hyperlink-duplicates\tcount=3" in bundle.diagnostics


def _page_ids(path) -> list[str]:
    """The page ids of a pages file, in the order of their page numbers."""
    pages, number, _, _ = formats.read_pages(path)
    ids = pages.values()
    return [ids[i] for i in np.argsort(number).tolist()]


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
        page_ids, refs = _page_ids(paths.pages), bundle.graph.objects.references
        page_map = bundle.page_map
        map_entries = ("".join(f"{page_ids[p]}\n" for p in page_map.pages.tolist()).encode(),
                       "".join(f"{refs[o]}\n" for o in page_map.objects.tolist()).encode(),
                       page_map.weights)
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
        assert map_columns(reloaded.page_map) == map_columns(bundle.page_map)

    def test_ppf_roundtrip(self, tmp_path):
        path = tmp_path / "gamma.tsv"
        factors = {"cites": 0.8123456789012345, "by": 0.05}
        formats.write_ppf(path, factors, meta=[("violations", "0")])
        assert formats.read_ppf(path) == factors

    def test_report_roundtrip(self, tmp_path):
        path = tmp_path / "report.tsv"
        meta = [("command", "rank"), ("epsilon", repr(0.15))]
        rows = [("1", "paper", "A", repr(0.6000000000000001)), ("2", "paper", "B", repr(0.4))]
        formats.write_report(path, meta, ["\t".join(row) for row in rows])
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

    def test_page_map_empty_page_id_rejected(self, tmp_path):
        paths = write_minimal_corpus(tmp_path, page_map="p1\tpaper\tA\n\tpaper\tA\n")
        with pytest.raises(FormatError, match=r"page_object_map\.tsv:2: empty page id$"):
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

    @pytest.mark.parametrize("ref", ["paper\tA\npaper\tB", "paper\tA\n", "\n", "paper\tA\udc80"],
                             ids=["two-known-refs", "trailing-newline", "newline", "surrogate"])
    def test_a_ref_no_object_can_have_is_unknown(self, tmp_path, ref):
        """A ref with a newline, even one that joins two known refs, or with
        a lone surrogate, is unknown, and the interner resolves and decodes
        as before."""
        bundle = load_corpus(write_minimal_corpus(tmp_path))
        objects = bundle.graph.objects
        with pytest.raises(GraphError, match=r"^unknown object "):
            bundle.resolve_refs([ref])
        assert objects.references == ["paper\tA", "paper\tB"]
        assert bundle.resolve_refs(["paper\tB", "paper\tA"]) == [1, 0]
        assert len(objects.refs.values()) == len(objects.refs)  # every held value decodes

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

# '~' is written as the byte 0xff, which is not UTF-8
_ALPHABET = "ab|;=,:>#. \t\r0-9\xa0\u3000\x85~"
_READERS = ["read_schemas", "read_objects", "read_links", "read_pages", "read_page_map",
            "read_ppf", "read_expert"]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(reader=st.sampled_from(_READERS),
       lines=st.lists(st.text(alphabet=_ALPHABET, max_size=24), min_size=1, max_size=4))
def test_readers_parse_or_raise_format_error(tmp_path, reader, lines):
    path = tmp_path / "fuzz.tsv"
    path.write_bytes("\n".join(lines).encode("utf-8").replace(b"~", b"\xff"))
    try:
        getattr(formats, reader)(path)
    except FormatError:
        pass


def _is_data(line: str) -> bool:
    return bool(line.strip()) and not line.lstrip().startswith("#")


def _data_lines_in_blocks(path, size):
    raw_blocks = formats._raw_blocks
    with mock.patch.object(formats, "_raw_blocks", lambda p, _: raw_blocks(p, size)):
        yield from formats._data_lines(path)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.text(alphabet="ab#\t \r\n\xa0\u3000\x1c\x85\ufeff\xe9", max_size=40),
       size=st.integers(1, 9))
def test_data_lines_match_line_iteration(tmp_path, text, size):
    """Blank lines, comments after ASCII or Unicode whitespace, and lines
    that start with a byte that is not ASCII, in blocks of 1-9 bytes."""
    path = tmp_path / "lines.tsv"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        expected = [(lineno, raw.rstrip("\n")) for lineno, raw in enumerate(fh, start=1)]
    assert list(_data_lines_in_blocks(path, size)) == [(n, line) for n, line in expected
                                                        if _is_data(line)]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pieces=st.lists(st.sampled_from([b"a", b"\n", b"\r", b"\r\n"]), max_size=60),
       size=st.integers(1, 9))
def test_raw_blocks_cut_at_every_kind_of_line_end(tmp_path, pieces, size):
    """The blocks rejoin to the file, ending with a line end; each ends
    with a LF or a CR that no LF follows in the file, so a CRLF is never
    split and a CR-only file is cut as often as a LF one."""
    data = b"".join(pieces)
    path = tmp_path / "lines.tsv"
    path.write_bytes(data)
    blocks = list(formats._raw_blocks(path, size))
    joined = b"".join(blocks)
    assert joined in (data, data + b"\n") and (not data or joined.endswith((b"\n", b"\r")))
    end = 0
    for block in blocks:
        end += len(block)
        assert block.endswith(b"\n") or data[end:end + 1] != b"\n"
    longest = max((len(line) for line in data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                   .split(b"\n")), default=0)
    assert all(len(block) <= size + longest + 2 for block in blocks)


def test_a_cr_only_objects_file_is_read_in_bounded_blocks(tmp_path):
    lines = [f"r{i}\tpaper\ttitle=p{i};year={i % 5}" for i in range(400)]
    cr, lf = tmp_path / "cr.tsv", tmp_path / "lf.tsv"
    cr.write_bytes("".join(line + "\r" for line in lines).encode("utf-8"))
    lf.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
    assert len(list(formats._raw_blocks(cr, 1024))) > 1
    raw_blocks = formats._raw_blocks
    with mock.patch.object(formats, "_raw_blocks", lambda path, size: raw_blocks(path, 1024)):
        assert list(formats.read_objects(cr).rows()) == list(formats.read_objects(lf).rows())


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pieces=st.lists(st.sampled_from([b"a", b"#", b"\t", b"\n", b"\r", b"\xc3", b"\xa9", b"\xff"]),
                       max_size=40),
       size=st.integers(1, 9))
def test_data_lines_stop_at_the_first_line_that_is_not_utf8(tmp_path, pieces, size):
    """The data lines before the first invalid byte are yielded, then
    FormatError names that byte's line, counting CRLF and CR as line ends."""
    data = b"".join(pieces)
    path = tmp_path / "lines.tsv"
    path.write_bytes(data)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:
        before = data[:err.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    else:
        return  # test_data_lines_match_line_iteration covers valid text
    got = []
    with pytest.raises(FormatError, match=rf"lines\.tsv:{len(before)}: not valid UTF-8$"):
        got.extend(_data_lines_in_blocks(path, size))
    assert got == [(n, line) for n, line in enumerate(before[:-1], 1) if _is_data(line)]


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


_MAP_PAGES = {"w1": 0, "w2": 1, "w3": 2}  # w3 only as a link target of w1
_MAP_FIELDS = {"page": ["w1", "w2", "w3", "w9"], "type": ["paper", "event"],
               "key": ["a", "b", "c", "z"], "weight": [None, "", "0", "0.5", "2.25", "1e-3"]}


def _reference_page_map(path, key_index, strict):
    """The page map resolved by the loop the loader once ran: each data
    line in file order, kept as (page, object, weight) or dropped with a
    diagnostic, or in strict mode the first bad line's message."""
    pages, objects, weights, dropped = [], [], [], []
    for _, line in _reference_lines(path):
        page_id, type_name, key, *weight = line.split("\t")
        page, obj = _MAP_PAGES.get(page_id), key_index.get(f"{type_name}\t{key}")
        if page is None or obj is None:
            what = f"page {page_id!r}" if page is None else f"object {type_name + ':' + key!r}"
            if strict:
                return f"map entry references unknown {what}"
            dropped.append(f"map-dropped\tmap entry references unknown {what}")
            continue
        pages.append(page)
        objects.append(obj)
        weights.append(float(weight[0]) if weight and weight[0] else 1.0)
    return (pages, objects, weights), dropped


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_page_map_matches_plain_python_reference(tmp_path, data):
    """Unknown pages and objects, weights given, empty or absent: the map's
    columns, its map-dropped lines and the strict error are the loop's."""
    papers = data.draw(st.lists(st.sampled_from(_MAP_FIELDS["key"][:3]), max_size=4))
    rows = data.draw(st.lists(st.fixed_dictionaries(
        {name: st.sampled_from(values) for name, values in _MAP_FIELDS.items()}), max_size=12))
    filler = data.draw(st.lists(st.sampled_from(["", "# note"]), min_size=len(rows),
                                max_size=len(rows)))
    map_text = "".join(
        "\t".join([row["page"], row["type"], row["key"]]
                  + ([] if row["weight"] is None else [row["weight"]])) + "\n" + extra
        for row, extra in zip(rows, filler))
    paths = write_minimal_corpus(
        tmp_path, objects="".join(f"r{i}\tpaper\ttitle={k}\n" for i, k in enumerate(papers)),
        links="", pages="w1\tw3\nw2\n", page_map=map_text)
    key_index = {f"paper\t{k}": i for i, k in enumerate(dict.fromkeys(papers))}

    bundle = load_corpus(paths)
    assert _page_ids(paths.pages) == list(_MAP_PAGES)
    columns, dropped = _reference_page_map(paths.page_map, key_index, strict=False)
    assert map_columns(bundle.page_map) == columns
    assert [d for d in bundle.diagnostics if d.startswith("map-dropped")] == dropped
    expected = _reference_page_map(paths.page_map, key_index, strict=True)
    if isinstance(expected, str):
        with pytest.raises(GraphError) as err:
            load_corpus(paths, strict=True)
        assert str(err.value) == expected
    else:
        assert map_columns(load_corpus(paths, strict=True).page_map) == columns


# ---- the interning readers against plain-Python references ---------------------

def _reference_lines(path):
    """(line number, line) of each data line, read one line at a time."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line.strip() and not line.lstrip().startswith("#"):
                yield lineno, line


def _reference_link_table(path):
    """(triples, (code, source ref, target ref) per line, refs) with dicts."""
    triples: dict[tuple[str, str, str], int] = {}
    refs: dict[str, int] = {}
    lines = []
    for lineno, line in _reference_lines(path):
        fields = line.split("\t")
        if len(fields) != 5:
            raise FormatError(f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
        src, tgt = f"{fields[0]}\t{fields[1]}", f"{fields[3]}\t{fields[4]}"
        refs.setdefault(src, len(refs))
        refs.setdefault(tgt, len(refs))
        lines.append((triples.setdefault((fields[2], fields[0], fields[3]), len(triples)), src, tgt))
    return list(triples), lines, list(refs)


def _reference_page_columns(path):
    """(page ids, sources, targets): rows in line order, then targets."""
    index: dict[str, int] = {}
    rows = []
    for lineno, line in _reference_lines(path):
        fields = line.split("\t")
        if len(fields) not in (1, 2):
            raise FormatError(f"{path}:{lineno}: expected 1 or 2 fields, got {len(fields)}")
        if not fields[0]:
            raise FormatError(f"{path}:{lineno}: empty page id")
        if fields[0] in index:
            raise FormatError(f"{path}:{lineno}: page {fields[0]!r} listed twice")
        index[fields[0]] = len(index)
        targets = fields[1].split(",") if len(fields) == 2 else []
        rows.append([t.strip() for t in targets if t.strip()])
    pairs = [(row, index.setdefault(t, len(index))) for row, targets in enumerate(rows)
             for t in targets]
    return list(index), [s for s, _ in pairs], [t for _, t in pairs]


def _outcome(read, path):
    try:
        return read(path)
    except FormatError as err:
        return str(err)


# separators of other formats, and blanks that str.strip removes, ASCII and
# not; a file mixes ASCII-only fields with others
_FIELD = st.one_of(st.text("ab |#;,", max_size=5), st.text("a\x0b\x1c", max_size=3),
                   st.text("a\x00\xa0\u2000é", max_size=3))
_ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


def _fuzzed_file(data, path, line):
    """Lines drawn from ``line``, mixed with blank and comment lines and,
    in half the files, junk lines."""
    kinds = [line, line, line, st.sampled_from(["", "  ", "# note", " \t# x"])]
    if data.draw(st.booleans()):
        kinds.append(st.text("ab\t ,#", max_size=8))
    lines = data.draw(st.lists(st.one_of(*kinds), max_size=25))
    text = "".join(text_line + data.draw(_ENDINGS) for text_line in lines)
    path.write_bytes(text.encode("utf-8"))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), block=st.integers(1, 64))
def test_read_links_matches_plain_python_reference(tmp_path, data, block):
    path = tmp_path / "links.tsv"
    # few distinct fields, so references and triples repeat across blocks
    field = st.one_of(st.sampled_from(["p", "a", "", "x y"]), _FIELD)
    link_line = st.lists(field, min_size=5, max_size=5).map("\t".join)
    _fuzzed_file(data, path, link_line)
    expected = _outcome(_reference_link_table, path)
    raw_blocks = formats._raw_blocks
    with mock.patch.object(formats, "_raw_blocks", lambda p, size: raw_blocks(p, block)):
        got = _outcome(formats.read_links, path)
    if isinstance(expected, str):
        assert got == expected
        return
    triples, lines, refs = expected
    assert got.triples == triples
    got_refs = got.refs.decode("utf-8").split("\n")[:-1]
    assert list(zip(got.codes.tolist(), [got_refs[i] for i in got.src.tolist()],
                    [got_refs[i] for i in got.tgt.tolist()])) == lines
    assert got_refs == refs  # source before target, in line order


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), block=st.integers(1, 64))
def test_read_pages_matches_plain_python_reference(tmp_path, data, block):
    path = tmp_path / "pages.tsv"
    page_id = st.sampled_from(["w1", "w2", "w3", "w 4", "a,b", "é", "w1 "])
    page_line = st.tuples(page_id, st.lists(st.one_of(page_id, _FIELD), max_size=4)).map(
        lambda row: row[0] + ("\t" + ",".join(row[1]) if row[1] else ""))
    _fuzzed_file(data, path, page_line)
    expected = _outcome(_reference_page_columns, path)
    raw_blocks = formats._raw_blocks
    with mock.patch.object(formats, "_raw_blocks", lambda p, size: raw_blocks(p, block)):
        got = _outcome(formats.read_pages, path)
    if isinstance(expected, str):
        assert got == expected
        return
    pages, number, src, tgt = got
    ids = pages.values()
    page_ids = [ids[i] for i in np.argsort(number).tolist()]
    assert (page_ids, src.tolist(), tgt.tolist()) == expected
    assert src.dtype == tgt.dtype == np.int64


# the weights a page map line may give that are numbers, with their values
_WEIGHTS = {"0": 0.0, "1e-3": 0.001, "-1": -1.0, "nan": float("nan"), "inf": float("inf"),
            "1e400": float("inf")}


def _reference_page_map_columns(path):
    """(page ids, refs, weights) of the page map, read one line at a time."""
    page_ids, refs, weights = [], [], []
    for lineno, line in _reference_lines(path):
        fields = line.split("\t")
        error = None
        if len(fields) not in (3, 4):
            error = f"expected 3 or 4 fields, got {len(fields)}"
        elif not fields[0]:
            error = "empty page id"
        elif len(fields) == 4 and fields[3] and fields[3] not in _WEIGHTS:
            error = f"bad block weight {fields[3]!r}"
        elif len(fields) == 4 and fields[3] and not 0.0 <= _WEIGHTS[fields[3]] < np.inf:
            error = f"block weight must be finite and non-negative, got {_WEIGHTS[fields[3]]}"
        elif not fields[1] or not fields[2]:
            error = "empty object type or key"
        if error:
            raise FormatError(f"{path}:{lineno}: {error}")
        page_ids.append(fields[0])
        refs.append(f"{fields[1]}\t{fields[2]}")
        weights.append(_WEIGHTS[fields[3]] if len(fields) == 4 and fields[3] else 1.0)
    return page_ids, refs, weights


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), block=st.integers(1, 64))
def test_read_page_map_matches_plain_python_reference(tmp_path, data, block):
    """2-5 fields; empty page ids, types and keys; weights absent, empty,
    out of range or not a number: the columns, or the first error."""
    path = tmp_path / "page_object_map.tsv"
    field = st.sampled_from(["w1", "", "paper", "a|b", "é"])
    weight = st.sampled_from(["", *_WEIGHTS, "x"])
    map_line = st.integers(2, 5).flatmap(
        lambda n: st.tuples(*[field] * min(n, 3), *[weight] * (n - 3))).map("\t".join)
    _fuzzed_file(data, path, map_line)
    expected = _outcome(_reference_page_map_columns, path)
    raw_blocks = formats._raw_blocks
    with mock.patch.object(formats, "_raw_blocks", lambda p, size: raw_blocks(p, block)):
        got = _outcome(formats.read_page_map, path)
    if isinstance(expected, str):
        assert got == expected
        return
    page_ids, refs, weights = got
    assert page_ids.decode("utf-8").split("\n")[:-1] == expected[0]
    assert refs.decode("utf-8").split("\n")[:-1] == expected[1]
    assert weights.dtype == np.float64 and weights.tolist() == expected[2]


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.text("ab\t", max_size=8), max_size=8), most=st.integers(1, 4),
       uniform=st.booleans())
def test_field_cuts_give_each_lines_first_tabs_and_newline(lines, most, uniform):
    """Lines with any number of TABs, or all with ``most`` (the reshaped table)."""
    if uniform:
        lines = ["\t".join([line.replace("\t", "")] * (most + 1)) for line in lines]
    data = "".join(line + "\n" for line in lines).encode()
    counts, cuts = formats._field_cuts(data, most)
    expected, start = [], 0
    for line in lines:
        tabs = [start + i for i, c in enumerate(line) if c == "\t"]
        newline = start + len(line)
        expected.append((tabs + [newline] * most)[:most] + [newline])
        start = newline + 1
    assert counts.tolist() == [line.count("\t") for line in lines]
    assert cuts.dtype == np.int64 and cuts.reshape(-1, most + 1).tolist() == expected


def _reference_records(path):
    """(record_id, type_name, {attribute: value}) per data line, read with
    str methods one line at a time, as read_objects once read them."""
    text = path.read_bytes().decode("utf-8", "surrogateescape")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    rows = []
    for lineno, line in enumerate(lines, start=1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise FormatError(f"{path}:{lineno}: not valid UTF-8") from None
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in (3, 4):
            raise FormatError(f"{path}:{lineno}: expected 3 or 4 fields, got {len(fields)}")
        values: dict[str, str] = {}
        if fields[2]:
            for segment in fields[2].split(";"):
                attr, sep, value = segment.partition("=")
                if not sep or not attr:
                    raise FormatError(f"{path}:{lineno}: bad attribute segment {segment!r}")
                if attr in values:
                    raise FormatError(f"{path}:{lineno}: attribute {attr!r} given twice")
                values[attr] = value
        rows.append((fields[0], fields[1], values))
    return rows


def _reference_merge(rows, registry):
    """(index, type names, attribute dicts, record counts, conflict counts)
    by a dict per object, as merge_records once merged them."""
    schemas = {s.type_name: (frozenset(s.attributes), s.key_attributes) for s in registry}
    index, types, stored_values, merged, conflicts = {}, [], [], [], []
    for record_id, type_name, values in rows:
        if type_name not in schemas:
            raise RecordError(f"record {record_id!r}: unregistered type {type_name!r}")
        attributes, key_attributes = schemas[type_name]
        unknown = [a for a in values if a not in attributes]
        if unknown:
            raise RecordError(f"record {record_id!r}: attributes {unknown} not in schema "
                              f"{type_name!r}")
        key = [values.get(a, "") for a in key_attributes]
        for attr, value in zip(key_attributes, key):
            if value == "":
                raise RecordError(f"record {record_id!r}: key attribute {attr!r} is missing or "
                                  "empty")
            for sep, name in (("|", "'|'"), ("\t", "TAB")):
                if sep in value:
                    raise RecordError(f"record {record_id!r}: key attribute {attr!r} value "
                                      f"{value!r} contains {name}")
        ref = f"{type_name}\t{'|'.join(key)}"
        row = index.setdefault(ref, len(index))
        if row == len(types):
            types.append(type_name)
            stored_values.append({a: v for a, v in values.items() if v != ""})
            merged.append(1)
            conflicts.append(0)
            continue
        merged[row] += 1
        for attr, value in values.items():
            if value == "":
                continue
            seen = stored_values[row].setdefault(attr, value)
            conflicts[row] += seen != value
    return index, types, stored_values, merged, conflicts


# event shares attribute names with paper and author, and its key order is not
# its attribute order, so a segment's key place depends on its type
_OBJECT_SCHEMAS = ("paper\ttitle,year,venue\ttitle\nauthor\tname,k1,k2\tk1,k2\n"
                   "event\ttitle,name,year,k2\tk2,title\n")
# each type's key attributes, its other attributes, and a segment it does not declare
_OBJECT_TYPES = {"paper": (["title"], ["year", "venue"], "name=N"),
                 "author": (["k1", "k2"], ["name"], "venue=V"),
                 "event": (["k2", "title"], ["name", "year"], "k1=K")}
# keys and values that repeat, so records merge and disagree: '=' inside
# values, empty values, non-ASCII text, and blanks that str.strip removes
_OBJECT_KEYS = st.sampled_from(["A", "B", "é", "x=y", " A"])
_OBJECT_VALUES = st.sampled_from(["1", "2", "", "a|b", "x=y", "ü", "\x0b"])
# one fault of a line: field count, segment form, repeated, unknown or
# missing attributes, unregistered type, empty key, '|' in a key
_OBJECT_FAULTS = ["fields", "segment", "twice", "unknown", "type", "missing", "empty", "pipe"]


def _object_line(data, fault):
    """An objects line of a registered type with its key, or with ``fault``;
    ';' and '=' in record ids and ';' in the optional fourth field."""
    type_name = data.draw(st.sampled_from(list(_OBJECT_TYPES)))
    keys, optional, undeclared = _OBJECT_TYPES[type_name]
    attrs = {name: data.draw(_OBJECT_KEYS) for name in keys}
    for name in data.draw(st.lists(st.sampled_from(optional), unique=True)):
        attrs[name] = data.draw(_OBJECT_VALUES)
    segments = data.draw(st.permutations([f"{a}={v}" for a, v in attrs.items()]))
    key = data.draw(st.sampled_from(keys))
    if fault == "segment":
        segments.insert(data.draw(st.integers(0, len(segments))),
                        data.draw(st.sampled_from(["title", "=A", "", "k2A"])))
    elif fault == "twice":
        segments.append(data.draw(st.sampled_from(segments)))
    elif fault == "unknown":
        segments.append(data.draw(st.sampled_from(["zz=1", undeclared])))
    elif fault == "type":
        type_name = data.draw(st.sampled_from(["book", "", "Paper"]))
    elif fault in ("missing", "empty", "pipe"):
        segments = [seg for seg in segments if not seg.startswith(f"{key}=")]
        if fault != "missing":
            segments.append(f"{key}=" + ("" if fault == "empty" else "k|1"))
    fields = [data.draw(st.sampled_from(["r1", "r;2", "r=3", "é4", ""])), type_name,
              ";".join(segments)]
    fields += data.draw(st.sampled_from([[], [], ["w1"], ["w;1"], [""]]))
    if fault == "fields":
        fields = data.draw(st.sampled_from([fields[:2], fields + ["x", "y"][:5 - len(fields)]]))
    return "\t".join(fields)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), block=st.integers(1, 64))
def test_objects_read_and_merged_as_by_plain_python(tmp_path, data, block):
    """read_objects and merge_records, through load_corpus, against the
    line-by-line reader and dict-per-object merge they replace: the same
    table and ``diag merge`` line, or the same first error."""
    faults = data.draw(st.sampled_from([0.0, 0.0, 0.05, 0.3]))  # the share of faulty lines
    lines = []
    for _ in range(data.draw(st.integers(0, 24))):
        kind = data.draw(st.sampled_from(["line"] * 4 + ["blank"]))
        if kind == "blank":
            lines.append(data.draw(st.sampled_from(["", "  ", "# note", " \t# x"])))
            continue
        fault = (data.draw(st.sampled_from(_OBJECT_FAULTS))
                 if data.draw(st.floats(0.0, 1.0)) < faults else None)
        line = _object_line(data, fault)
        lines.append(data.draw(st.sampled_from(["", "", "", " "])) + line)  # some indented
    text = b"".join(line.encode("utf-8") + data.draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
                    for line in lines)
    if text and data.draw(st.integers(0, 9)) == 0:  # a byte that is not UTF-8
        at = data.draw(st.integers(0, len(text) - 1))
        text = text[:at] + b"\xff" + text[at:]
    paths = write_minimal_corpus(tmp_path, schemas=_OBJECT_SCHEMAS, objects="", links="",
                                 pages="", page_map="")
    paths.objects.write_bytes(text)
    registry = corpus.SchemaRegistry(formats.read_schemas(paths.schemas))
    try:
        rows = _reference_records(paths.objects)
        expected = _reference_merge(rows, registry)
    except (FormatError, RecordError) as err:
        expected = str(err)
    raw_blocks = formats._raw_blocks
    with mock.patch.object(formats, "_raw_blocks", lambda path, size: raw_blocks(path, block)):
        try:
            bundle = load_corpus(paths)
        except (FormatError, RecordError) as err:
            assert str(err) == expected
            return
    assert not isinstance(expected, str), expected
    objects = bundle.graph.objects
    index, *columns = expected  # the index holds each reference with its row, in row order
    assert (objects.references, objects.type_names, objects.attribute_values,
            objects.merged_record_counts, objects.conflict_counts) == (list(index), *columns)
    assert bundle.diagnostics[0] == (f"merge\trecords={len(rows)}\tobjects={len(expected[0])}"
                                     f"\tconflicts={sum(expected[4])}")


# ---- where the links task runs -------------------------------------------------

def _bundle_state(bundle):
    objects, graph = bundle.graph.objects, bundle.graph
    return (objects.references, objects.type_names, objects.attribute_values,
            objects.merged_record_counts, objects.conflict_counts, graph.relationship_types,
            {rel: edges.tolist() for rel, edges in graph.links.items()},
            bundle.page_graph.num_pages, bundle.page_graph.edges.tolist(),
            map_columns(bundle.page_map), bundle.diagnostics)


def _bundle_dtypes(bundle):
    page_map = bundle.page_map
    return ({rel: edges.dtype for rel, edges in bundle.graph.links.items()},
            bundle.page_graph.edges.dtype,
            [page_map.pages.dtype, page_map.objects.dtype, page_map.weights.dtype])


def _link_dtypes(links):
    return links.codes.dtype, links.src.dtype, links.tgt.dtype


def write_many_triples_corpus(d, count=300):
    """A corpus directory whose links file holds ``count`` distinct triples, one line each."""
    d.mkdir()
    write_minimal_corpus(
        d, schemas="paper\ttitle\ttitle\n",
        objects="r1\tpaper\ttitle=A\t\nr2\tpaper\ttitle=B\t\n",
        links="".join(f"paper\tA\trel{k}\tpaper\t{'AB'[k % 2]}\n" for k in range(count)),
        page_map="p1\tpaper\tA\t1.0\np1\tpaper\tC\t1.0\n")
    return d


@pytest.mark.parametrize("write", [write_dirty_corpus, write_edge_corpus, write_many_triples_corpus],
                         ids=["dirty", "edge", "many-triples"])
def test_both_executors_load_the_same_bundle(tmp_path, monkeypatch, write):
    """The same objects, links, pages, map and diagnostics, in the same
    dtypes, and the graph built from int64 link columns either way."""
    d = write(tmp_path / "corpus")
    read_links, build_graph, pids = formats.read_links, corpus.build_graph, tmp_path / "pids"
    built_from = []

    def recorded(path):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return read_links(path)

    def recorded_build(objects, rel_types, links, **kwargs):
        built_from.append(_link_dtypes(links))
        return build_graph(objects, rel_types, links, **kwargs)

    monkeypatch.setattr(formats, "read_links", recorded)
    monkeypatch.setattr(corpus, "build_graph", recorded_build)
    states = []
    for forked in (True, False):
        monkeypatch.setattr(corpus, "_fork_links", lambda path: forked)
        bundle = load_corpus(CorpusPaths.in_dir(d))
        states.append((_bundle_state(bundle), _bundle_dtypes(bundle)))
    assert states[0] == states[1]
    assert built_from == [(np.dtype(np.int64),) * 3] * 2
    worker, parent = map(int, pids.read_text().split())
    assert worker != parent == os.getpid()


@pytest.mark.parametrize("write, codes", [(write_dirty_corpus, np.uint8),
                                          (write_many_triples_corpus, np.uint16)],
                         ids=["few-triples", "many-triples"])
def test_the_links_worker_sends_narrow_columns_that_are_widened_on_receipt(tmp_path, write, codes):
    path = CorpusPaths.in_dir(write(tmp_path / "corpus")).links
    sent = corpus._narrowed_links(path)
    assert _link_dtypes(sent) == (np.dtype(codes), np.dtype(np.int32), np.dtype(np.int32))
    expected = formats.read_links(path)
    received = corpus._widened_links(sent)
    assert _link_dtypes(received) == _link_dtypes(expected) == (np.dtype(np.int64),) * 3
    assert (received.triples, received.refs) == (expected.triples, expected.refs)
    for column in ("codes", "src", "tgt"):
        assert getattr(received, column).tolist() == getattr(expected, column).tolist()


def test_a_links_worker_that_exits_without_a_result_is_an_os_error(tmp_path, monkeypatch):
    """A worker that dies before it sends anything (killed, say) is an
    OSError for the caller, not a wait for a result that never comes."""
    monkeypatch.setattr(formats, "read_links", lambda path: os._exit(3))
    monkeypatch.setattr(corpus, "_fork_links", lambda path: True)
    with pytest.raises(OSError, match="^the links worker exited without a result$"):
        load_corpus(CorpusPaths.in_dir(write_dirty_corpus(tmp_path / "corpus")))


def test_links_run_in_process_on_one_cpu_or_for_a_small_file(tmp_path, monkeypatch):
    path = tmp_path / "links.tsv"
    path.write_bytes(b"x" * 100)
    for cpus, min_bytes, forked in [({0, 1}, 100, True), ({0}, 100, False), ({0, 1}, 101, False)]:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        monkeypatch.setattr(corpus, "FORK_MIN_LINKS_BYTES", min_bytes)
        assert corpus._fork_links(path) is forked
