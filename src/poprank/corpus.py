"""Corpus loading: the five-file bundle parsed into ranking-ready structures.

Aggregated object data lands in a warehouse of five TSV files (schemas,
objects, links, pages, page-object map; see formats). Loading merges
records into deduplicated objects, resolves links, containment entries
and expert rankings against the one key index (object reference ->
object id), and collects structured diagnostics for everything lenient
mode drops. Records, objects and links are columns (RecordTable,
ObjectTable, LinkTable), and a graph is written back from the same
tables. Relationship types are declared by their first appearance in
the links file; a later line disagreeing on endpoint types is an error,
as is a link naming an unregistered object type (reported first).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import formats
from .errors import FormatError, GraphError
from .learning import PartialRanking
from .objects import (
    LinkTable,
    ObjectGraph,
    RecordTable,
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
    page_index: dict[str, int]
    page_map: PageObjectMap
    diagnostics: list[str] = field(default_factory=list)

    def resolve_ref(self, ref: str) -> int:
        object_id = self.graph.key_index.get(ref)
        if object_id is None:
            raise GraphError(f"unknown object {formats.format_object_ref(ref)!r}")
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
    diagnostics.append(f"merge\trecords={len(records)}\tobjects={len(objects)}"
                       f"\tconflicts={sum(objects.conflict_counts)}")

    links = formats.read_links(paths.links)
    rel_types = _infer_relationship_types(links, registry)
    graph, report = build_graph(objects, rel_types, links, strict=strict)
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
            what = f"page {page_id!r}" if page is None else f"object {formats.format_object_ref(ref)!r}"
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
        page_index=page_index,
        page_map=page_map,
        diagnostics=diagnostics,
    )


def write_corpus(
    directory: Path | str,
    registry: SchemaRegistry,
    graph: ObjectGraph,
    page_rows: list[tuple[str, list[str]]] | None = None,
    map_entries: list[tuple[str, str, float | None]] | None = None,
) -> CorpusPaths:
    """Serialize a graph (plus optional page data and (page_id, object ref,
    weight) map entries) as a corpus directory; object i is record ``r<i>``."""
    paths = CorpusPaths.in_dir(directory)
    Path(directory).mkdir(parents=True, exist_ok=True)
    objects, rels = graph.objects, graph.relationship_types
    edges = [graph.links[rt.rel_name] for rt in rels]
    pairs = np.concatenate([np.empty((0, 2), np.int64), *edges])
    formats.write_schemas(paths.schemas, list(registry))
    formats.write_objects(paths.objects, RecordTable(
        [f"r{i}" for i in range(len(objects))], objects.type_names, objects.attribute_values))
    formats.write_links(paths.links, LinkTable(
        [(rt.rel_name, rt.source_type, rt.target_type) for rt in rels],
        np.repeat(np.arange(len(rels)), [len(e) for e in edges]),
        list(objects.index), pairs[:, 0], pairs[:, 1]))
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
