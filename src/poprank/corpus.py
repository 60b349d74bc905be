"""Corpus loading: the five-file bundle parsed into ranking-ready structures.

Aggregated object data lands in a warehouse of five TSV files (schemas,
objects, links, pages, page-object map; see formats). Loading merges
records into deduplicated objects, resolves links and containment
entries against the key index, and collects structured diagnostics for
everything lenient mode drops. Records and links are read as columns
(RecordTable, LinkTable), so no object is built per line. Relationship
types are declared by their first appearance in the links file; a later
line disagreeing on endpoint types is an error, as is a link naming an
unregistered object type (reported first).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import formats
from .errors import FormatError, GraphError
from .learning import PartialRanking
from .objects import (
    KeyTuple,
    LinkTable,
    ObjectGraph,
    ObjectRecord,
    RawLink,
    RelationshipType,
    SchemaRegistry,
    build_graph,
    merge_records,
)
from .webpop import PageGraph, PageObjectMap

SCHEMAS_FILE = "schemas.tsv"
OBJECTS_FILE = "objects.tsv"
LINKS_FILE = "links.tsv"
PAGES_FILE = "pages.tsv"
PAGE_MAP_FILE = "page_object_map.tsv"


@dataclass(frozen=True)
class CorpusPaths:
    schemas: Path
    objects: Path
    links: Path
    pages: Path
    page_map: Path

    @classmethod
    def in_dir(cls, directory: Path | str) -> "CorpusPaths":
        d = Path(directory)
        return cls(
            schemas=d / SCHEMAS_FILE,
            objects=d / OBJECTS_FILE,
            links=d / LINKS_FILE,
            pages=d / PAGES_FILE,
            page_map=d / PAGE_MAP_FILE,
        )


@dataclass
class CorpusBundle:
    paths: CorpusPaths
    registry: SchemaRegistry
    graph: ObjectGraph
    page_graph: PageGraph
    page_ids: list[str]
    page_index: dict[str, int]
    page_map: PageObjectMap
    diagnostics: list[str] = field(default_factory=list)

    def object_ref(self, object_id: int) -> str:
        obj = self.graph.objects[object_id]
        schema = self.registry.get(obj.type_name)
        return formats.format_object_ref(obj.type_name, obj.key_tuple(schema))

    def resolve_ref(self, ref: formats.ObjectRef) -> int:
        object_id = self.graph.key_index.get(ref)
        if object_id is None:
            raise GraphError(f"unknown object {formats.format_object_ref(*ref)!r}")
        return object_id


def _infer_relationship_types(links: LinkTable, registry: SchemaRegistry) -> list[RelationshipType]:
    """One relationship type per rel_name, from its first line. Triples are
    in order of first appearance, so the first offending line is named."""
    rels: dict[str, RelationshipType] = {}
    for rel_name, source_type, target_type in links.triples:
        for type_name in (source_type, target_type):
            if type_name not in registry:
                raise GraphError(
                    f"link of type {rel_name!r} names unregistered object type {type_name!r}"
                )
        rels.setdefault(rel_name, RelationshipType(rel_name, source_type, target_type))
    return list(rels.values())


def load_corpus(paths: CorpusPaths, strict: bool = False) -> CorpusBundle:
    """Parse and cross-resolve the five corpus files.

    Unresolvable links and map entries are dropped with a diagnostic in
    lenient mode and raised in strict mode; malformed lines and type
    mismatches are always errors.
    """
    for p in (paths.schemas, paths.objects, paths.links, paths.pages, paths.page_map):
        if not Path(p).is_file():
            raise FormatError(f"missing corpus file: {p}")

    diagnostics: list[str] = []
    registry = SchemaRegistry(formats.read_schemas(paths.schemas))

    records = formats.read_objects(paths.objects)
    objects = merge_records(records, registry)
    conflicts = sum(o.conflict_count for o in objects)
    diagnostics.append(
        f"merge\trecords={len(records)}\tobjects={len(objects)}\tconflicts={conflicts}"
    )

    links = formats.read_links(paths.links)
    rel_types = _infer_relationship_types(links, registry)
    graph, report = build_graph(objects, rel_types, links, registry, strict=strict)
    for message in report.dropped:
        diagnostics.append(f"link-dropped\t{message}")
    if report.duplicate_count:
        diagnostics.append(f"link-duplicates\tcount={report.duplicate_count}")

    page_rows = formats.read_pages(paths.pages)
    page_index = {page_id: row for row, (page_id, _) in enumerate(page_rows)}
    # read_pages rejects repeated rows, so row i is page i; pages known only
    # as link targets are numbered after the listed ones
    tgt = np.fromiter(
        (page_index.setdefault(t, len(page_index)) for _, targets in page_rows for t in targets),
        np.int64,
    )
    src = np.repeat(np.arange(len(page_rows)), [len(targets) for _, targets in page_rows])
    page_graph = PageGraph.build(len(page_index), np.column_stack((src, tgt)))
    deduped = len(tgt) - page_graph.num_edges
    if deduped:
        diagnostics.append(f"hyperlink-duplicates\tcount={deduped}")

    entries: list[tuple[int, int, float | None]] = []
    for page_id, ref, weight in formats.read_page_map(paths.page_map):
        page = page_index.get(page_id)
        obj = graph.key_index.get(ref)
        if page is None or obj is None:
            what = f"page {page_id!r}" if page is None else f"object {formats.format_object_ref(*ref)!r}"
            message = f"map entry references unknown {what}"
            if strict:
                raise GraphError(message)
            diagnostics.append(f"map-dropped\t{message}")
            continue
        entries.append((page, obj, weight))
    page_map = PageObjectMap(entries)

    return CorpusBundle(
        paths=paths,
        registry=registry,
        graph=graph,
        page_graph=page_graph,
        page_ids=list(page_index),
        page_index=page_index,
        page_map=page_map,
        diagnostics=diagnostics,
    )


def objects_to_records(graph: ObjectGraph) -> list[ObjectRecord]:
    """One synthetic record per object, for serializing a graph back to disk."""
    return [
        ObjectRecord(f"r{obj.object_id}", obj.type_name, dict(obj.attribute_values))
        for obj in graph.objects
    ]


def graph_to_raw_links(graph: ObjectGraph, registry: SchemaRegistry) -> list[RawLink]:
    keys: list[KeyTuple] = [
        obj.key_tuple(registry.get(obj.type_name)) for obj in graph.objects
    ]
    raw: list[RawLink] = []
    for rt in graph.relationship_types:
        for src, tgt in graph.links[rt.rel_name].tolist():
            raw.append(RawLink(rt.source_type, keys[src], rt.rel_name, rt.target_type, keys[tgt]))
    return raw


def write_corpus(
    directory: Path | str,
    registry: SchemaRegistry,
    graph: ObjectGraph,
    page_rows: list[tuple[str, list[str]]] | None = None,
    map_entries: list[tuple[str, formats.ObjectRef, float | None]] | None = None,
) -> CorpusPaths:
    """Serialize a graph (plus optional page data) as a corpus directory."""
    paths = CorpusPaths.in_dir(directory)
    Path(directory).mkdir(parents=True, exist_ok=True)
    formats.write_schemas(paths.schemas, list(registry))
    formats.write_objects(paths.objects, objects_to_records(graph))
    formats.write_links(paths.links, graph_to_raw_links(graph, registry))
    formats.write_pages(paths.pages, page_rows or [])
    formats.write_page_map(paths.page_map, map_entries or [])
    return paths


def resolve_expert(bundle: CorpusBundle, path: Path) -> PartialRanking:
    """Read an expert ranking file and resolve references to object ids."""
    mode, payload = formats.read_expert(path)
    if mode == "order":
        return PartialRanking.from_order([bundle.resolve_ref(ref) for ref in payload])
    pairs = [(bundle.resolve_ref(high), bundle.resolve_ref(low)) for high, low in payload]
    return PartialRanking(tuple(pairs))
