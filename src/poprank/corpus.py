"""Corpus loading: the five-file bundle parsed into ranking-ready structures.

Aggregated object data lands in a warehouse of five TSV files (schemas,
objects, links, pages, page-object map; see formats). Loading merges
records into deduplicated objects, resolves links, containment entries
and expert rankings against the one key index (object reference ->
object id), and collects structured diagnostics for everything lenient
mode drops. Records, objects, links and the page map are columns
(RecordTable, ObjectTable, LinkTable, PageObjectMap): objects.tsv is read
into interned columns and merged on them, with no object per record;
link endpoints and map entries are resolved by one helper
(objects.lookup); and a graph is written back from the same tables.
Relationship types are declared by their first appearance in the links file; a later line
disagreeing on endpoint types is an error, as is a link naming an
unregistered object type (reported first).

The links file, the largest, is parsed by one forked worker process
while this process parses the others (see load_corpus); only its
LinkTable, int64 arrays and the list of references, comes back through
a pipe. The links task looks ``formats.read_links`` up when it runs: a
reader replaced there before the call, which may be a closure that
cannot be pickled, is inherited by the worker and used.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import formats
from .errors import FormatError, GraphError
from .learning import PartialRanking
from .objects import (
    LinkTable,
    ObjectGraph,
    ObjectTable,
    RecordTable,
    RelationshipType,
    SchemaRegistry,
    build_graph,
    lookup,
    merge_records,
)
from .webpop import PageGraph, PageObjectMap

SCHEMAS_FILE = "schemas.tsv"
OBJECTS_FILE = "objects.tsv"
LINKS_FILE = "links.tsv"
PAGES_FILE = "pages.tsv"
PAGE_MAP_FILE = "page_object_map.tsv"

# links.tsv files smaller than this are parsed in-process: forking a worker
# costs more than parsing such a file beside the others saves
FORK_MIN_LINKS_BYTES = 1 << 20


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


def _merged_objects(path: Path, registry: SchemaRegistry) -> tuple[int, ObjectTable]:
    """The record count of the objects file and its merged table; the
    records themselves are not kept."""
    records = formats.read_objects(path)
    return len(records), merge_records(records, registry)


def _link_table(path: Path) -> LinkTable:
    """The links task: the links file as a LinkTable."""
    return formats.read_links(path)


def _page_data(pages_path: Path, map_path: Path) -> tuple[dict[str, int], np.ndarray, tuple]:
    """The page index, the (m, 2) hyperlink array before deduplication,
    and the page map's columns."""
    page_ids, src, tgt = formats.read_pages(pages_path)
    page_index = dict(zip(page_ids, range(len(page_ids))))
    return page_index, np.column_stack((src, tgt)), formats.read_page_map(map_path)


def _fork_links(path: Path) -> bool:
    """Whether the links task runs in a forked worker: only with a second
    CPU to run it on, and a links file large enough to repay the fork."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) > 1 and path.stat().st_size >= FORK_MIN_LINKS_BYTES


@contextmanager
def _links_job(path: Path) -> Iterator[Callable[[], LinkTable]]:
    """A call that returns the links task's result: from one forked
    worker started here, which leaving the block stops, or (see
    _fork_links) by running the task when called."""
    if not _fork_links(path):
        yield partial(_link_table, path)
        return
    # imported here: at module level it would slow every command's start-up
    import multiprocessing

    # fork, not spawn: the worker starts with numpy and the package already imported
    with multiprocessing.get_context("fork").Pool(1) as pool:
        yield pool.apply_async(_link_table, (path,)).get


def load_corpus(paths: CorpusPaths, strict: bool = False) -> CorpusBundle:
    """Parse and cross-resolve the five corpus files.

    Unresolvable links and map entries are dropped with a diagnostic in
    lenient mode and raised in strict mode; malformed lines and type
    mismatches are always errors.

    The links file is parsed by one forked worker while this process
    parses the others (see _fork_links for when it runs here instead).
    Results are taken in file order (objects, links, pages and map), so
    the first error and the diagnostics are those of a load that reads
    one file after the other. An error stops the worker without waiting
    for it; none outlives the call.
    """
    for p in (paths.schemas, paths.objects, paths.links, paths.pages, paths.page_map):
        if not Path(p).is_file():
            raise FormatError(f"missing corpus file: {p}")

    diagnostics: list[str] = []
    registry = SchemaRegistry(formats.read_schemas(paths.schemas))

    with _links_job(paths.links) as links_result:
        num_records, objects = _merged_objects(paths.objects, registry)
        diagnostics.append(f"merge\trecords={num_records}\tobjects={len(objects)}"
                           f"\tconflicts={objects.conflicts.sum()}")
        # parsed while the links are, but an error is raised after theirs
        try:
            page_data = _page_data(paths.pages, paths.page_map)
        except (FormatError, OSError) as err:
            page_data = err
        links = links_result()

    rel_types = _infer_relationship_types(links, registry)
    graph, report = build_graph(objects, rel_types, links, strict=strict)
    diagnostics += [f"link-dropped\t{message}" for message in report.dropped]
    if report.duplicate_count:
        diagnostics.append(f"link-duplicates\tcount={report.duplicate_count}")

    if isinstance(page_data, Exception):
        raise page_data
    page_index, hyperlinks, map_columns = page_data
    page_graph = PageGraph.build(len(page_index), hyperlinks)
    deduped = len(hyperlinks) - page_graph.num_edges
    if deduped:
        diagnostics.append(f"hyperlink-duplicates\tcount={deduped}")

    page_ids, refs, weights = map_columns
    pages, objs = lookup(page_index, page_ids), lookup(graph.key_index, refs)
    unresolved = (pages < 0) | (objs < 0)
    for row in np.flatnonzero(unresolved).tolist():
        what = (f"page {page_ids[row]!r}" if pages[row] < 0
                else f"object {formats.format_object_ref(refs[row])!r}")
        message = f"map entry references unknown {what}"
        if strict:
            raise GraphError(message)
        diagnostics.append(f"map-dropped\t{message}")
    kept = ~unresolved
    page_map = PageObjectMap(pages[kept], objs[kept], weights[kept])

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
    page_map: tuple[list[str], list[str], np.ndarray] | None = None,
) -> CorpusPaths:
    """Serialize a graph (plus optional page rows and page map columns as
    read_page_map returns them) as a corpus directory; object i is record ``r<i>``."""
    paths = CorpusPaths.in_dir(directory)
    Path(directory).mkdir(parents=True, exist_ok=True)
    objects, rels = graph.objects, graph.relationship_types
    edges = [graph.links[rt.rel_name] for rt in rels]
    pairs = np.concatenate([np.empty((0, 2), np.int64), *edges])
    formats.write_schemas(paths.schemas, list(registry))
    formats.write_objects(paths.objects, RecordTable.from_rows(
        (f"r{i}", type_name, values) for i, (type_name, values)
        in enumerate(zip(objects.type_names, objects.attribute_values))))
    formats.write_links(paths.links, LinkTable(
        [(rt.rel_name, rt.source_type, rt.target_type) for rt in rels],
        np.repeat(np.arange(len(rels)), [len(e) for e in edges]),
        list(objects.index), pairs[:, 0], pairs[:, 1]))
    formats.write_pages(paths.pages, page_rows or [])
    formats.write_page_map(paths.page_map, page_map or ([], [], []))
    return paths


def resolve_expert(bundle: CorpusBundle, path: Path) -> PartialRanking:
    """Read an expert ranking file and resolve references to object ids."""
    mode, payload = formats.read_expert(path)
    if mode == "order":
        return PartialRanking.from_order([bundle.resolve_ref(ref) for ref in payload])
    pairs = [(bundle.resolve_ref(high), bundle.resolve_ref(low)) for high, low in payload]
    return PartialRanking(tuple(pairs))
