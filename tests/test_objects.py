"""Schema registry, record merging, and object-graph construction."""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import paper_registry, random_links, simple_graph
from poprank import (
    GraphError,
    ObjectGraph,
    ObjectRecord,
    ObjectTypeSchema,
    PageGraph,
    RawLink,
    RecordError,
    RelationshipType,
    SchemaError,
    SchemaRegistry,
    build_graph,
    merge_records,
)


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

    def test_unknown_type_lookup(self):
        with pytest.raises(SchemaError):
            SchemaRegistry().get("paper")


class TestMergeRecords:
    def test_conflicting_year_first_seen_wins(self):
        registry = paper_registry()
        records = [
            ObjectRecord("a", "paper", {"title": "X", "year": "2004"}),
            ObjectRecord("b", "paper", {"title": "X", "year": "2005"}),
        ]
        (obj,) = merge_records(records, registry)
        assert obj.merged_record_count == 2
        assert obj.conflict_count == 1
        assert obj.attribute_values["year"] == "2004"

    def test_distinct_titles_stay_apart(self):
        registry = paper_registry()
        records = [
            ObjectRecord(f"r{i}", "paper", {"title": t}) for i, t in enumerate("ABC")
        ]
        objects = merge_records(records, registry)
        assert len(objects) == 3
        assert [o.object_id for o in objects] == [0, 1, 2]

    def test_later_record_fills_missing_attribute(self):
        registry = paper_registry()
        records = [
            ObjectRecord("a", "paper", {"title": "X"}),
            ObjectRecord("b", "paper", {"title": "X", "venue": "WWW"}),
        ]
        (obj,) = merge_records(records, registry)
        assert obj.attribute_values["venue"] == "WWW"
        assert obj.conflict_count == 0

    def test_pipe_in_key_value_rejected(self):
        registry = SchemaRegistry([ObjectTypeSchema("event", ("name", "year", "city"),
                                                    ("name", "year"))])
        merge_records([ObjectRecord("ok", "event", {"name": "K", "year": "1", "city": "a|b"})],
                      registry)  # '|' is allowed outside the key
        with pytest.raises(RecordError, match=r"record 'e2': key attribute 'year' value '2\|3' "
                                              r"contains '\|'"):
            merge_records([ObjectRecord("e1", "event", {"name": "K", "year": "1"}),
                           ObjectRecord("e2", "event", {"name": "K", "year": "2|3"})], registry)

    def test_random_collapse_matches_grouping_oracle(self):
        rng = np.random.default_rng(42)
        registry = paper_registry()
        keys = [f"title-{i}" for i in range(40)]
        records = []
        for i in range(100):
            # first 40 records cover every key so exactly 40 tuples appear
            title = keys[i] if i < 40 else keys[int(rng.integers(0, 40))]
            records.append(
                ObjectRecord(f"r{i}", "paper", {"title": title, "year": str(rng.integers(2000, 2006))})
            )
        expected = Counter(r.attribute_values["title"] for r in records)

        objects = merge_records(records, registry)
        assert len(objects) == 40
        assert sum(o.merged_record_count for o in objects) == 100
        got = {o.attribute_values["title"]: o.merged_record_count for o in objects}
        assert got == dict(expected)

    def test_unregistered_type_rejected(self):
        with pytest.raises(RecordError):
            merge_records([ObjectRecord("a", "movie", {"title": "X"})], paper_registry())

    def test_missing_key_rejected(self):
        with pytest.raises(RecordError):
            merge_records([ObjectRecord("a", "paper", {"year": "2004"})], paper_registry())

    def test_unknown_attribute_rejected(self):
        with pytest.raises(RecordError):
            merge_records([ObjectRecord("a", "paper", {"title": "X", "isbn": "1"})], paper_registry())


records_strategy = st.lists(
    st.builds(
        lambda rid, title, year: ObjectRecord(str(rid), "paper", {"title": title, "year": year}),
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
    objects = merge_records(records, registry)
    again = merge_records(
        [ObjectRecord(f"x{o.object_id}", o.type_name, dict(o.attribute_values)) for o in objects],
        registry,
    )
    assert [(o.type_name, o.attribute_values) for o in objects] == [
        (o.type_name, o.attribute_values) for o in again
    ]


@settings(max_examples=100)
@given(records=records_strategy, seed=st.integers(0, 2**32 - 1))
def test_merge_permutation_invariance(records, seed):
    registry = paper_registry()
    baseline = merge_records(records, registry)
    shuffled = list(records)
    np.random.default_rng(seed).shuffle(shuffled)
    permuted = merge_records(shuffled, registry)

    def key_counts(objects):
        return {(o.type_name, o.attribute_values["title"]): o.merged_record_count for o in objects}

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
            [
                ObjectRecord("a", "paper", {"title": "X"}),
                ObjectRecord("b", "author", {"name": "Knuth"}),
            ],
            registry,
        )
        rels = [RelationshipType("cites", "paper", "paper")]
        bad = [RawLink("author", ("Knuth",), "cites", "paper", ("X",))]
        with pytest.raises(GraphError, match="do not match"):
            build_graph(objects, rels, bad, registry)

    def test_duplicates_dropped_and_counted(self):
        registry = paper_registry()
        objects = merge_records(
            [ObjectRecord(f"r{i}", "paper", {"title": f"t{i}"}) for i in range(5)], registry
        )
        rels = [RelationshipType("cites", "paper", "paper")]
        pairs = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (2, 4)]
        raw = [
            RawLink("paper", (f"t{s}",), "cites", "paper", (f"t{t}",)) for s, t in pairs
        ]
        raw.insert(3, raw[0])  # duplicate of (0, 1)
        raw.append(raw[5])  # duplicate of another link
        assert len(raw) == 10

        graph, report = build_graph(objects, rels, raw, registry)
        assert report.duplicate_count == 2
        assert len(graph.links["cites"]) == 8
        assert set(map(tuple, graph.links["cites"].tolist())) == set(pairs)  # set-dedup oracle

    def test_unresolved_endpoint_lenient_vs_strict(self):
        registry = paper_registry()
        objects = merge_records([ObjectRecord("a", "paper", {"title": "X"})], registry)
        rels = [RelationshipType("cites", "paper", "paper")]
        raw = [RawLink("paper", ("X",), "cites", "paper", ("missing",))]
        graph, report = build_graph(objects, rels, raw, registry)
        assert graph.num_links == 0
        assert len(report.dropped) == 1
        with pytest.raises(GraphError, match="unresolved"):
            build_graph(objects, rels, raw, registry, strict=True)

    @pytest.mark.parametrize("link", [
        RawLink("paper", ("X|Y",), "cites", "paper", ("X",)),
        RawLink("paper", ("X",), "cites", "pa\tper", ("X",)),
        RawLink("paper", ("X",), "cites", "paper", ("X\t",)),
    ], ids=["pipe-in-key", "tab-in-type", "tab-in-key"])
    def test_raw_link_outside_the_file_format_rejected(self, link):
        registry = paper_registry()
        objects = merge_records([ObjectRecord("a", "paper", {"title": "X"})], registry)
        with pytest.raises(GraphError, match=re.escape("contains TAB, or a key value '|'")):
            build_graph(objects, [RelationshipType("cites", "paper", "paper")], [link], registry)

    def test_undeclared_relationship_rejected(self):
        registry = paper_registry()
        objects = merge_records([ObjectRecord("a", "paper", {"title": "X"})], registry)
        raw = [RawLink("paper", ("X",), "cites", "paper", ("X",))]
        with pytest.raises(GraphError, match="undeclared"):
            build_graph(objects, [], raw, registry)

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
            graph.check(paper_registry())


def _typed_graph(links: dict[str, list[tuple[int, int]]]) -> ObjectGraph:
    """Objects 0 and 1 are papers, 2 is an author; 'by' runs paper -> author."""
    registry = SchemaRegistry(
        [
            ObjectTypeSchema("paper", ("title",), ("title",)),
            ObjectTypeSchema("author", ("name",), ("name",)),
        ]
    )
    objects = merge_records(
        [
            ObjectRecord("a", "paper", {"title": "X"}),
            ObjectRecord("b", "paper", {"title": "Y"}),
            ObjectRecord("c", "author", {"name": "Z"}),
        ],
        registry,
    )
    edges = {name: np.array(pairs, np.int64).reshape(-1, 2) for name, pairs in links.items()}
    return ObjectGraph(objects, [RelationshipType("by", "paper", "author")], edges)


class TestGraphCheck:
    def test_valid_graph_passes(self):
        _typed_graph({"by": [(0, 2), (1, 2)]}).check()

    def test_non_dense_ids_rejected(self):
        graph = _typed_graph({"by": []})
        graph.objects[1].object_id = 5
        with pytest.raises(GraphError, match="not dense: position 1 holds id 5"):
            graph.check()

    @pytest.mark.parametrize(
        "links, message",
        [
            ({"cites": [(0, 1)]}, "unknown relationship type 'cites'"),
            ({"by": [(0, 2), (1, 3)]}, r"link \(1, 3\) points outside the graph"),
            ({"by": [(-1, 2)]}, r"link \(-1, 2\) points outside the graph"),
            ({"by": [(0, 2), (2, 2)]}, "source object 2 has type 'author', expected 'paper'"),
            ({"by": [(0, 2), (1, 0)]}, "target object 0 has type 'paper', expected 'author'"),
            ({"by": [(0, 2), (1, 2), (0, 2)]}, r"by: 1 duplicate link"),
        ],
        ids=["unknown-relationship", "out-of-range", "negative", "source-type", "target-type",
             "duplicate"],
    )
    def test_bad_links_rejected(self, links, message):
        with pytest.raises(GraphError, match=message):
            _typed_graph(links).check()


@settings(max_examples=100)
@given(data=st.data())
def test_dedup_keeps_first_appearances_in_order(data):
    n = data.draw(st.integers(1, 6))
    ends = st.integers(0, n - 1)
    triples = data.draw(st.lists(st.tuples(st.sampled_from(["cites", "extends"]), ends, ends),
                                 max_size=40))
    registry = paper_registry()
    objects = merge_records(
        [ObjectRecord(f"r{i}", "paper", {"title": f"t{i}"}) for i in range(n)], registry
    )
    rels = [RelationshipType(name, "paper", "paper") for name in ("cites", "extends")]
    raw = [RawLink("paper", (f"t{s}",), rel, "paper", (f"t{t}",)) for rel, s, t in triples]
    graph, report = build_graph(objects, rels, raw, registry)
    assert report.duplicate_count == len(triples) - len(set(triples))
    for rel in ("cites", "extends"):
        pairs = [(s, t) for name, s, t in triples if name == rel]
        expected = [list(pair) for pair in dict.fromkeys(pairs)]
        assert graph.links[rel].tolist() == expected
        assert PageGraph.build(n, pairs).edges.tolist() == expected
