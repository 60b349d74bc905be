"""Schema registry, record merging, and object-graph construction."""

from __future__ import annotations

import dataclasses
import gc
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import link_table, paper_registry, random_links, record_table, simple_graph
from poprank import (
    GraphError,
    ObjectGraph,
    ObjectTable,
    ObjectTypeSchema,
    PageGraph,
    RecordError,
    RelationshipType,
    SchemaError,
    SchemaRegistry,
    build_graph,
    formats,
    merge_records,
)
from poprank import _kernels
from poprank._kernels import SpanInterner


class TestSchemaRegistry:
    def test_register_well_formed(self):
        registry = SchemaRegistry()
        registry.register(ObjectTypeSchema("paper", ("title", "year", "venue"), ("title",)))
        assert "paper" in registry
        assert registry.get("paper").key_attributes == ("title",)

    def test_empty_key_set_rejected(self):
        with pytest.raises(SchemaError):
            ObjectTypeSchema("paper", ("title", "year"), ())

    def test_duplicate_type_rejected(self):
        registry = SchemaRegistry()
        registry.register(ObjectTypeSchema("paper", ("title",), ("title",)))
        with pytest.raises(SchemaError):
            registry.register(ObjectTypeSchema("paper", ("title",), ("title",)))

    def test_key_must_be_subset(self):
        with pytest.raises(SchemaError):
            ObjectTypeSchema("paper", ("title",), ("title", "year"))

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            ObjectTypeSchema("paper", ("title", "title"), ("title",))

    def test_tab_in_type_name_rejected(self):
        # a reference is type<TAB>key, so a TAB in the type would make two refs collide,
        # and the merge reads type names newline-separated
        for name, shown in [("pa\tper", "TAB"), ("pa\nper", "a newline")]:
            with pytest.raises(SchemaError, match=f"type name {re.escape(repr(name))} "
                                                  f"contains {shown}"):
                ObjectTypeSchema(name, ("title",), ("title",))

    @pytest.mark.parametrize("name, shown", [("ti=tle", "'='"), ("title;x", "';'"),
                                             ("ti\ttle", "TAB"), ("ti\ntle", "a newline")])
    def test_separator_of_objects_lines_in_attribute_name_rejected(self, name, shown):
        # objects.tsv reads "name=value;name=value", so such a name could never be given
        with pytest.raises(SchemaError, match=f"attribute name {re.escape(repr(name))} "
                                              f"contains {shown}, a separator of objects.tsv"):
            ObjectTypeSchema("paper", ("title", name), ("title",))

    def test_unknown_type_lookup(self):
        with pytest.raises(SchemaError):
            SchemaRegistry().get("paper")


class TestMergeRecords:
    def test_conflicting_year_first_seen_wins(self):
        registry = paper_registry()
        records = record_table([
            ("a", "paper", {"title": "X", "year": "2004"}),
            ("b", "paper", {"title": "X", "year": "2005"}),
        ])
        objects = merge_records(records, registry)
        assert len(objects) == 1
        assert objects.merged_record_counts == [2]
        assert objects.conflict_counts == [1]
        assert objects.attribute_values[0]["year"] == "2004"

    def test_distinct_titles_stay_apart(self):
        registry = paper_registry()
        records = record_table(
            (f"r{i}", "paper", {"title": t}) for i, t in enumerate("ABC")
        )
        objects = merge_records(records, registry)
        assert len(objects) == 3
        assert objects.references == ["paper\tA", "paper\tB", "paper\tC"]

    def test_later_record_fills_missing_attribute(self):
        registry = paper_registry()
        records = record_table([
            ("a", "paper", {"title": "X"}),
            ("b", "paper", {"title": "X", "venue": "WWW"}),
        ])
        objects = merge_records(records, registry)
        assert len(objects) == 1
        assert objects.attribute_values[0]["venue"] == "WWW"
        assert objects.conflict_counts == [0]

    def test_pipe_in_key_value_rejected(self):
        registry = SchemaRegistry([ObjectTypeSchema("event", ("name", "year", "city"),
                                                    ("name", "year"))])
        merge_records(record_table([("ok", "event", {"name": "K", "year": "1", "city": "a|b"})]),
                      registry)  # '|' is allowed outside the key
        with pytest.raises(RecordError, match=r"record 'e2': key attribute 'year' value '2\|3' "
                                              r"contains '\|'"):
            merge_records(record_table([("e1", "event", {"name": "K", "year": "1"}),
                                        ("e2", "event", {"name": "K", "year": "2|3"})]), registry)

    def test_tab_in_key_value_rejected(self):
        # without this check ("a\tb", "c") and ("a", "b\tc") would share one reference
        registry = SchemaRegistry([ObjectTypeSchema("event", ("name", "year", "city"),
                                                    ("name", "year"))])
        merge_records(record_table([("ok", "event", {"name": "K", "year": "1", "city": "a\tb"})]),
                      registry)  # TAB is allowed outside the key
        with pytest.raises(RecordError, match=r"record 'e2': key attribute 'name' value 'K\\tL' "
                                              r"contains TAB"):
            merge_records(record_table([("e1", "event", {"name": "K", "year": "1"}),
                                        ("e2", "event", {"name": "K\tL", "year": "2"})]), registry)

    def test_random_collapse_matches_grouping_oracle(self):
        rng = np.random.default_rng(42)
        registry = paper_registry()
        keys = [f"title-{i}" for i in range(40)]
        records = []
        for i in range(100):
            # first 40 records cover every key so exactly 40 tuples appear
            title = keys[i] if i < 40 else keys[int(rng.integers(0, 40))]
            records.append(
                (f"r{i}", "paper", {"title": title, "year": str(rng.integers(2000, 2006))})
            )
        expected = Counter(values["title"] for _, _, values in records)

        objects = merge_records(record_table(records), registry)
        assert len(objects) == 40
        assert sum(objects.merged_record_counts) == 100
        got = {values["title"]: merged for values, merged
               in zip(objects.attribute_values, objects.merged_record_counts)}
        assert got == dict(expected)

    def test_unregistered_type_rejected(self):
        with pytest.raises(RecordError):
            merge_records(record_table([("a", "movie", {"title": "X"})]), paper_registry())

    def test_missing_key_rejected(self):
        with pytest.raises(RecordError):
            merge_records(record_table([("a", "paper", {"year": "2004"})]), paper_registry())

    def test_key_attribute_given_twice_rejected(self):
        # neither reader makes such a table, but a hand-built one can; its
        # record's key segments would not fill one reference place each
        records = dataclasses.replace(record_table([("a", "paper", {"title": "X"})]),
                                      values=b"X\nY\n",
                                      segments=np.array([[0, 0, 0], [0, 0, 1]]))
        with pytest.raises(RecordError, match="record 'a': a key attribute is given twice"):
            merge_records(records, paper_registry())

    def test_unknown_attribute_rejected(self):
        with pytest.raises(RecordError):
            merge_records(record_table([("a", "paper", {"title": "X", "isbn": "1"})]),
                          paper_registry())

    def test_newline_in_a_row_rejected(self):
        # a RecordTable keeps record ids, type names and values newline-separated
        for row in [("a\nb", "paper", {"title": "X"}), ("a", "paper", {"title": "X\nY"}),
                    ("a", "pa\nper", {"title": "X"})]:
            with pytest.raises(RecordError, match="contains a newline"):
                record_table([row])

    def test_rows_read_back(self):
        rows = [("a", "paper", {"title": "X", "year": ""}), ("b", "book", {}),
                ("c", "paper", {"year": "2004", "title": "é"})]
        assert list(record_table(rows).rows()) == rows


def generated_objects(path, n: int) -> None:
    """An objects file of n papers in n * 8 // 7 records: some repeat."""
    rng = np.random.default_rng(5)
    ids = np.concatenate((np.arange(n), rng.integers(0, n, n // 7)))
    path.write_text("".join(f"r{i}\tpaper\ttitle=p{k};year={1950 + k % 60};venue=v{k % 300}\n"
                            for i, k in enumerate(ids.tolist())))


def test_object_table_retains_few_bytes_per_object(tmp_path):
    """The merged table of a generated corpus, read from its file, holds
    its values as interned columns, not a dict per object: at most 300
    bytes per object, against about 470 with one dict per object."""
    n = 20_000
    path = tmp_path / "objects.tsv"
    generated_objects(path, n)
    gc.collect()
    tracemalloc.start()
    try:
        records = formats.read_objects(path)
        objects = merge_records(records, paper_registry())
        del records
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(objects) == n
    assert retained / n < 300


def test_merge_peak_per_record_is_bounded(tmp_path):
    """merge_records' live peak above the memory live before it, on the
    corpus above: about 650 bytes per record, against about 800 when the
    records were grouped by their key value ids and each object's
    reference was composed after the (object, attribute) cell sort."""
    path = tmp_path / "objects.tsv"
    generated_objects(path, 20_000)
    gc.collect()
    tracemalloc.start()
    try:
        records = formats.read_objects(path)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        merge_records(records, paper_registry())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / len(records) < 720


@pytest.mark.parametrize("shape", ["400-types", "2000-types", "wide-key"])
def test_merge_memory_follows_the_input_not_the_schema(tmp_path, shape):
    """10k records of 400 or 2,000 types of 5 attributes each, none shared,
    or of one such type beside an unused type whose key has 200 attributes:
    merge_records keeps at most 8 bytes and peaks at most 20 bytes above
    the records table per byte of schemas.tsv and objects.tsv (it keeps
    about 3 and peaks at about 13.5, 13 and 10 on the three shapes). Dense
    (type, attribute) tables and a records x widest-key matrix made the
    peak follow the schema: 29.5, 330 and 400."""
    types = {"400-types": 400, "2000-types": 2_000, "wide-key": 1}[shape]
    schemas = [ObjectTypeSchema(f"t{t}", tuple(f"t{t}a{a}" for a in range(5)), (f"t{t}a0",))
               for t in range(types)]
    if shape == "wide-key":
        wide = tuple(f"w{a}" for a in range(200))
        schemas.append(ObjectTypeSchema("wide", wide, wide))
    formats.write_schemas(tmp_path / "schemas.tsv", schemas)
    rng = np.random.default_rng(7)
    type_ids = rng.integers(0, types, 10_000).tolist()
    keys = rng.integers(0, 6_000, 10_000).tolist()
    (tmp_path / "objects.tsv").write_text("".join(
        f"r{i}\tt{t}\tt{t}a0=k{k};t{t}a{1 + i % 4}=v{k % 97};t{t}a{1 + (i + 1) % 4}=w{i % 13}\n"
        for i, (t, k) in enumerate(zip(type_ids, keys))))
    size = sum((tmp_path / name).stat().st_size for name in ("schemas.tsv", "objects.tsv"))
    registry = SchemaRegistry(formats.read_schemas(tmp_path / "schemas.tsv"))
    gc.collect()
    tracemalloc.start()
    try:
        records = formats.read_objects(tmp_path / "objects.tsv")
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        objects = merge_records(records, registry)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(objects.attributes) == sum(len(s.attributes) for s in schemas)
    assert (kept - before) / size < 8
    assert (peak - before) / size < 20


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_each_record_merges_into_the_row_its_reference_interns_to(data):
    """Shuffled records with repeats, of a one-key and a two-key type: the
    rows are the references in order of first appearance, and the table's
    interner maps each row's reference back to the row."""
    registry = SchemaRegistry([ObjectTypeSchema("paper", ("title", "year"), ("title",)),
                               ObjectTypeSchema("book", ("title", "year"), ("title", "year"))])
    row = st.tuples(st.sampled_from(["paper", "book"]), st.sampled_from(["a", "b", "c"]),
                    st.sampled_from(["1", "2"]))
    rows = data.draw(st.lists(row, max_size=20))
    rows = data.draw(st.permutations(rows + rows[:len(rows) // 2]))
    objects = merge_records(record_table(
        [(str(i), t, {"title": title, "year": year}) for i, (t, title, year) in enumerate(rows)]),
        registry)
    refs = [f"{t}\t{title}" + (f"|{year}" if t == "book" else "") for t, title, year in rows]
    assert objects.references == list(dict.fromkeys(refs))
    assert objects.merged_record_counts == [refs.count(ref) for ref in objects.references]
    n = len(objects)
    assert objects.refs.resolve(objects.refs.data()).tolist() == list(range(n))


records_strategy = st.lists(
    st.builds(
        lambda rid, title, year: (str(rid), "paper", {"title": title, "year": year}),
        st.integers(0, 10_000),
        st.sampled_from(["a", "b", "c", "d", "e"]),
        st.sampled_from(["2003", "2004", "2005", ""]),
    ),
    max_size=30,
)


@settings(max_examples=100)
@given(records=records_strategy)
def test_merge_is_idempotent(records):
    registry = paper_registry()
    objects = merge_records(record_table(records), registry)
    rows = list(zip(objects.type_names, objects.attribute_values))
    again = merge_records(record_table((f"x{i}", *row) for i, row in enumerate(rows)), registry)
    assert list(zip(again.type_names, again.attribute_values)) == rows


@settings(max_examples=100)
@given(records=records_strategy, seed=st.integers(0, 2**32 - 1))
def test_merge_permutation_invariance(records, seed):
    registry = paper_registry()
    baseline = merge_records(record_table(records), registry)
    shuffled = list(records)
    np.random.default_rng(seed).shuffle(shuffled)
    permuted = merge_records(record_table(shuffled), registry)

    def key_counts(objects):
        return {(type_name, values["title"]): merged for type_name, values, merged in zip(
            objects.type_names, objects.attribute_values, objects.merged_record_counts)}

    assert key_counts(baseline) == key_counts(permuted)


class TestBuildGraph:
    def test_single_link(self):
        graph = simple_graph(2, {"cites": [(0, 1)]})
        assert graph.links["cites"].tolist() == [[0, 1]]
        assert graph.num_links == 1

    def test_type_mismatch_always_fails(self):
        registry = SchemaRegistry(
            [
                ObjectTypeSchema("paper", ("title",), ("title",)),
                ObjectTypeSchema("author", ("name",), ("name",)),
            ]
        )
        objects = merge_records(
            record_table([
                ("a", "paper", {"title": "X"}),
                ("b", "author", {"name": "Knuth"}),
            ]),
            registry,
        )
        rels = [RelationshipType("cites", "paper", "paper")]
        bad = link_table([("author", "Knuth", "cites", "paper", "X")])
        with pytest.raises(GraphError, match="do not match"):
            build_graph(objects, rels, bad)

    def test_duplicates_dropped_and_counted(self):
        registry = paper_registry()
        objects = merge_records(
            record_table((f"r{i}", "paper", {"title": f"t{i}"}) for i in range(5)), registry
        )
        rels = [RelationshipType("cites", "paper", "paper")]
        pairs = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (2, 4)]
        rows = [("paper", f"t{s}", "cites", "paper", f"t{t}") for s, t in pairs]
        rows.insert(3, rows[0])  # duplicate of (0, 1)
        rows.append(rows[5])  # duplicate of another link
        assert len(rows) == 10

        graph, report = build_graph(objects, rels, link_table(rows))
        assert report.duplicate_count == 2
        assert len(graph.links["cites"]) == 8
        assert set(map(tuple, graph.links["cites"].tolist())) == set(pairs)  # set-dedup oracle

    def test_unresolved_endpoint_lenient_vs_strict(self):
        registry = paper_registry()
        objects = merge_records(record_table([("a", "paper", {"title": "X"})]), registry)
        rels = [RelationshipType("cites", "paper", "paper")]
        links = link_table([("paper", "X", "cites", "paper", "missing")])
        graph, report = build_graph(objects, rels, links)
        assert graph.num_links == 0
        assert len(report.dropped) == 1
        with pytest.raises(GraphError, match="unresolved"):
            build_graph(objects, rels, links, strict=True)

    def test_graph_resolves_through_the_merge_refs(self):
        objects = merge_records(record_table([("a", "paper", {"title": "X"})]), paper_registry())
        graph, _ = build_graph(objects, [], link_table([]))
        assert graph.objects is objects
        ids = graph.objects.refs.resolve(b"paper\tX\npaper\tY\n")
        assert ids.tolist() == [0, -1]

    def test_undeclared_relationship_rejected(self):
        registry = paper_registry()
        objects = merge_records(record_table([("a", "paper", {"title": "X"})]), registry)
        links = link_table([("paper", "X", "cites", "paper", "X")])
        with pytest.raises(GraphError, match="undeclared"):
            build_graph(objects, [], links)

    def test_a_relationship_type_declared_twice_is_rejected(self):
        rt = RelationshipType("cites", "paper", "paper")
        with pytest.raises(GraphError, match="duplicate relationship type 'cites'"):
            build_graph(simple_graph(1, {}).objects, [rt, rt], link_table([]))

    def test_build_output_passes_one_pass_check(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            graph = simple_graph(
                n,
                {
                    "cites": random_links(rng, n, int(rng.integers(1, 2 * n))),
                    "extends": random_links(rng, n, int(rng.integers(1, n))),
                },
            )
            again = ObjectGraph(graph.objects, graph.relationship_types, graph.links)
            assert {rel: edges.tolist() for rel, edges in again.links.items()} == {
                rel: edges.tolist() for rel, edges in graph.links.items()}


def _typed_objects() -> ObjectTable:
    """Objects 0 and 1 are papers, 2 is an author."""
    registry = SchemaRegistry(
        [
            ObjectTypeSchema("paper", ("title",), ("title",)),
            ObjectTypeSchema("author", ("name",), ("name",)),
        ]
    )
    return merge_records(
        record_table([
            ("a", "paper", {"title": "X"}),
            ("b", "paper", {"title": "Y"}),
            ("c", "author", {"name": "Z"}),
        ]),
        registry,
    )


def _typed_graph(links: dict[str, list[tuple[int, int]]],
                 objects: ObjectTable | None = None) -> ObjectGraph:
    """The graph of _typed_objects (or ``objects``) whose 'by' runs paper -> author."""
    edges = {name: np.array(pairs, np.int64).reshape(-1, 2) for name, pairs in links.items()}
    objects = _typed_objects() if objects is None else objects
    return ObjectGraph(objects, [RelationshipType("by", "paper", "author")], edges)


def _interned(data: bytes) -> SpanInterner:
    """An interner holding the newline-ended values of ``data``."""
    refs = SpanInterner()
    refs.intern(data, *_kernels.line_spans(np.frombuffer(data, np.uint8)))
    return refs


class TestGraphCheck:
    def test_valid_graph_passes(self):
        graph = _typed_graph({"by": [(0, 2), (1, 2)]})
        assert graph.links["by"].tolist() == [[0, 2], [1, 2]]

    def test_non_dense_ids_rejected(self):
        # references for rows 0 and 1 only: no id is left for row 2
        with pytest.raises(GraphError, match=r"object keys do not map to rows 0\.\.2 in row order"):
            dataclasses.replace(_typed_objects(), refs=_interned(b"paper\tX\npaper\tY\n"))

    def test_declared_type_without_links_array_rejected(self):
        objects = simple_graph(2, {}).objects
        with pytest.raises(GraphError, match="cites: declared relationship type has no links array"):
            ObjectGraph(objects, [RelationshipType("cites", "paper", "paper")], {})

    def test_shared_key_rejected(self):
        # an interner holds a reference once, so two rows sharing one leave a row without one
        refs = _interned(b"paper\tX\npaper\tX\nauthor\tZ\n")
        with pytest.raises(GraphError, match=r"object keys do not map to rows 0\.\.2 in row order"):
            dataclasses.replace(_typed_objects(), refs=refs)

    def test_more_references_than_rows_rejected(self):
        refs = _interned(b"paper\tX\npaper\tY\nauthor\tZ\npaper\tW\n")
        with pytest.raises(GraphError, match=r"object keys do not map to rows 0\.\.2 in row order"):
            dataclasses.replace(_typed_objects(), refs=refs)

    @pytest.mark.parametrize(
        "links, message",
        [
            ({"cites": [(0, 1)]}, "unknown relationship type 'cites'"),
            ({"by": [(0, 2), (1, 3)]}, r"link \(1, 3\) points outside the graph"),
            ({"by": [(-1, 2)]}, r"link \(-1, 2\) points outside the graph"),
            ({"by": [(0, 2), (2, 2)]}, "source object 2 has type 'author', expected 'paper'"),
            ({"by": [(0, 2), (1, 0)]}, "target object 0 has type 'paper', expected 'author'"),
        ],
        ids=["unknown-relationship", "out-of-range", "negative", "source-type", "target-type"],
    )
    def test_bad_links_rejected(self, links, message):
        with pytest.raises(GraphError, match=message):
            _typed_graph(links)

    def test_repeated_links_are_dropped_in_first_appearance_order(self):
        graph = _typed_graph({"by": [(1, 2), (0, 2), (1, 2), (0, 2)]})
        assert graph.links["by"].tolist() == [[1, 2], [0, 2]]
        assert graph.num_links == 2

    def test_links_are_read_only(self):
        graph = _typed_graph({"by": [(0, 2)]})
        with pytest.raises(TypeError):
            graph.links["by"] = np.array([[1, 2]])
        with pytest.raises(ValueError, match="read-only"):
            graph.links["by"][0, 0] = 1
        with pytest.raises(AttributeError):
            graph.links = {}

    def test_the_object_table_is_frozen(self):
        graph = _typed_graph({"by": [(0, 2)]})
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph.objects.refs = SpanInterner()

    def test_the_object_columns_are_read_only(self):
        graph = _typed_graph({"by": [(0, 2)]})
        for column in ("type_ids", "cells", "merged", "conflicts"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(graph.objects, column)[0] = 1

    def test_the_given_columns_are_not_frozen(self):
        objects = _typed_objects()
        type_ids = np.array(objects.type_ids)
        assert dataclasses.replace(objects, type_ids=type_ids).type_ids.tolist() == [0, 0, 1]
        type_ids[0] = 1
        assert type_ids.flags.writeable

    def test_the_given_edges_are_not_frozen(self):
        edges = np.array([[0, 2]])
        ObjectGraph(_typed_objects(), [RelationshipType("by", "paper", "author")], {"by": edges})
        edges[0, 0] = 1
        assert edges.flags.writeable


@settings(max_examples=100)
@given(data=st.data())
def test_dedup_keeps_first_appearances_in_order(data):
    n = data.draw(st.integers(1, 6))
    ends = st.integers(0, n - 1)
    triples = data.draw(st.lists(st.tuples(st.sampled_from(["cites", "extends"]), ends, ends),
                                 max_size=40))
    registry = paper_registry()
    objects = merge_records(
        record_table((f"r{i}", "paper", {"title": f"t{i}"}) for i in range(n)), registry
    )
    rels = [RelationshipType(name, "paper", "paper") for name in ("cites", "extends")]
    links = link_table(("paper", f"t{s}", rel, "paper", f"t{t}") for rel, s, t in triples)
    graph, report = build_graph(objects, rels, links)
    assert report.duplicate_count == len(triples) - len(set(triples))
    for rel in ("cites", "extends"):
        pairs = [(s, t) for name, s, t in triples if name == rel]
        expected = [list(pair) for pair in dict.fromkeys(pairs)]
        assert graph.links[rel].tolist() == expected
        hand_built = {name: pairs if name == rel else [] for name in ("cites", "extends")}
        assert ObjectGraph(objects, rels, hand_built).links[rel].tolist() == expected
        assert PageGraph.build(n, pairs).edges.tolist() == expected
        assert PageGraph(n, pairs).edges.tolist() == expected
