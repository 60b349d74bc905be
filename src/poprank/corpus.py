"""Corpus loading: the five-file bundle parsed into ranking-ready structures.

Aggregated object data lands in a warehouse of five TSV files (schemas,
objects, links, pages, page-object map; see formats). Loading merges
records into deduplicated objects, resolves links, containment entries
and expert rankings, and collects structured diagnostics for everything
lenient mode drops. Records, objects, links and the page map are columns
(RecordTable, ObjectTable, LinkTable, PageObjectMap), and a reference
stays newline-ended UTF-8 bytes: link, map and expert references are
resolved by one lookup in the objects' interner (``SpanInterner.resolve``,
which stores nothing), map page ids in the pages', and only a printed
reference is decoded. Relationship types are declared by their first
appearance in the links file; a later line disagreeing on endpoint types
is an error, as is a link naming an unregistered object type (reported
first).

The links file, the largest, is parsed by one forked worker process
(``_kernels.forked``, which the walk also runs its second half on)
while this process parses the others and resolves the page side (see
load_corpus); only its LinkTable comes back through a pipe, the
references as bytes and the columns narrowed (int32 ids, codes in the
smallest unsigned dtype), and is widened to int64 columns on receipt.
The links task looks ``formats.read_links`` up when it runs: a
reader replaced there before the call, which may be a closure that
cannot be pickled, is inherited by the worker and used.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import _kernels, formats
from .errors import FormatError, GraphError
from .learning import PartialRanking
from .objects import (LinkTable, ObjectGraph, ObjectTable, RecordTable, RelationshipType,
                      SchemaRegistry, build_graph, merge_records)
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
        return cls(schemas=d / SCHEMAS_FILE, objects=d / OBJECTS_FILE, links=d / LINKS_FILE,
                   pages=d / PAGES_FILE, page_map=d / PAGE_MAP_FILE)


@dataclass
class CorpusBundle:
    paths: CorpusPaths
    registry: SchemaRegistry
    graph: ObjectGraph
    page_graph: PageGraph
    page_map: PageObjectMap
    diagnostics: list[str] = field(default_factory=list)

    def resolve_refs(self, refs: Sequence[str]) -> list[int]:
        """The object id of each reference; GraphError names the first unknown one."""
        ids = self.graph.objects.refs.resolve(b"".join(map(_ref_line, refs)))
        unknown = np.flatnonzero(ids < 0)
        if unknown.size:
            raise GraphError(f"unknown object {formats.format_object_ref(refs[unknown[0]])!r}")
        return ids.tolist()


def _ref_line(ref: str) -> bytes:
    """The reference as UTF-8 and a newline, or an empty line (no object's) if it has a
    newline; a lone surrogate is kept as bytes that are not UTF-8, so no object's either."""
    return b"\n" if "\n" in ref else ref.encode("utf-8", "surrogatepass") + b"\n"


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


def _page_side(paths: CorpusPaths, objects: ObjectTable,
               strict: bool) -> tuple[PageGraph, PageObjectMap, list[str]]:
    """The page graph and the page map resolved against the pages and the
    objects, with their diagnostic lines; a map entry that does not
    resolve is a GraphError in strict mode. Needs no link."""
    pages, number, src, tgt = formats.read_pages(paths.pages)
    map_pages, map_refs, weights = formats.read_page_map(paths.page_map)
    diagnostics: list[str] = []
    page_graph = PageGraph.build(len(number), np.column_stack((src, tgt)))
    deduped = len(src) - page_graph.num_edges
    if deduped:
        diagnostics.append(f"hyperlink-duplicates\tcount={deduped}")

    page_rows = np.append(number, -1)[pages.resolve(map_pages)]
    objs = objects.refs.resolve(map_refs)
    kept = (page_rows >= 0) & (objs >= 0)
    unresolved = np.flatnonzero(~kept)
    for row, page_id, ref in zip(unresolved.tolist(), _kernels.lines_at(map_pages, unresolved),
                                 _kernels.lines_at(map_refs, unresolved)):
        what = (f"page {page_id!r}" if page_rows[row] < 0
                else f"object {formats.format_object_ref(ref)!r}")
        message = f"map entry references unknown {what}"
        if strict:
            raise GraphError(message)
        diagnostics.append(f"map-dropped\t{message}")
    return page_graph, PageObjectMap(page_rows[kept], objs[kept], weights[kept]), diagnostics


def _fork_links(path: Path) -> bool:
    """Whether the links task runs in a forked worker: only with a second
    CPU to run it on, and a links file large enough to repay the fork."""
    return _kernels.spare_cpu() and path.stat().st_size >= FORK_MIN_LINKS_BYTES


@contextmanager
def _links_job(path: Path) -> Iterator[Callable[[], LinkTable]]:
    """A call that returns the links task's result: from one worker
    forked here by ``_kernels.forked``, which leaving the block stops, or
    (see _fork_links) by running the task when called."""
    if not _fork_links(path):
        yield lambda: formats.read_links(path)
        return
    with _kernels.forked(partial(_narrowed_links, path), "links") as received:
        yield lambda: _widened_links(received())


def _narrowed_links(path: Path) -> LinkTable:
    """The links task in the worker: the LinkTable narrowed for the pipe,
    with int32 references where they fit and the codes in the smallest
    unsigned dtype that holds the triple count (less than half the bytes
    of int64 columns)."""
    links = formats.read_links(path)
    ids = np.int32 if links.refs.count(b"\n") <= np.iinfo(np.int32).max else np.int64
    return _recast(links, ids, np.min_scalar_type(len(links.triples)))


def _widened_links(links: LinkTable) -> LinkTable:
    """The worker's LinkTable with its columns widened to int64."""
    return _recast(links, np.int64, np.int64)


def _recast(links: LinkTable, ids, codes) -> LinkTable:
    """The table with ``src`` and ``tgt`` as dtype ``ids`` and ``codes`` as ``codes``."""
    return LinkTable(links.triples, links.codes.astype(codes, copy=False), links.refs,
                     links.src.astype(ids, copy=False), links.tgt.astype(ids, copy=False))


def load_corpus(paths: CorpusPaths, strict: bool = False) -> CorpusBundle:
    """Parse and cross-resolve the five corpus files.

    Unresolvable links and map entries are dropped with a diagnostic in
    lenient mode and raised in strict mode; malformed lines and type
    mismatches are always errors.

    The links file is parsed by one worker, forked by the package's one
    fork helper (``_kernels.forked``), while this process parses the
    others (see _fork_links for when it runs here instead).
    The page side, which needs no link, is built and resolved before the
    links are taken; its error and diagnostics are kept until the links
    are resolved, so the first error and the diagnostics are those of a
    load that reads one file after the other (objects, links, pages and
    map). An error raised in the worker is raised again here, and an
    error here stops the worker without waiting for it; none outlives the
    call.
    """
    for p in (paths.schemas, paths.objects, paths.links, paths.pages, paths.page_map):
        if not Path(p).is_file():
            raise FormatError(f"missing corpus file: {p}")

    diagnostics: list[str] = []
    registry = SchemaRegistry(formats.read_schemas(paths.schemas))

    with _links_job(paths.links) as links_result:
        records = formats.read_objects(paths.objects)
        objects = merge_records(records, registry)
        diagnostics.append(f"merge\trecords={len(records)}\tobjects={len(objects)}"
                           f"\tconflicts={objects.conflicts.sum()}")
        del records  # the merged table keeps what it needs of them
        # resolved while the links are parsed, but its error and lines come after theirs
        try:
            page_side = _page_side(paths, objects, strict)
        except (FormatError, GraphError, OSError) as err:
            page_side = err
        links = links_result()

    rel_types = _infer_relationship_types(links, registry)
    graph, report = build_graph(objects, rel_types, links, strict=strict)
    diagnostics += [f"link-dropped\t{message}" for message in report.dropped]
    if report.duplicate_count:
        diagnostics.append(f"link-duplicates\tcount={report.duplicate_count}")

    if isinstance(page_side, Exception):
        raise page_side
    page_graph, page_map, page_diagnostics = page_side
    diagnostics += page_diagnostics

    return CorpusBundle(paths=paths, registry=registry, graph=graph, page_graph=page_graph,
                        page_map=page_map, diagnostics=diagnostics)


def write_corpus(directory: Path | str, registry: SchemaRegistry, graph: ObjectGraph,
                 page_rows: list[tuple[str, list[str]]] | None = None,
                 page_map: tuple[bytes, bytes, np.ndarray] | None = None) -> CorpusPaths:
    """Serialize a graph (plus optional page rows and page map columns as
    read_page_map returns them) as a corpus directory; object i is record ``r<i>``."""
    paths = CorpusPaths.in_dir(directory)
    Path(directory).mkdir(parents=True, exist_ok=True)
    objects, rels = graph.objects, graph.relationship_types
    edges = [graph.links[rt.rel_name] for rt in rels]
    pairs = np.concatenate([np.empty((0, 2), np.int64), *edges])
    formats.write_schemas(paths.schemas, list(registry))
    formats.write_objects(paths.objects, RecordTable(
        "".join(f"r{i}\n" for i in range(len(objects))).encode(), objects.types,
        objects.type_ids, objects.attributes, objects.values, objects.cells))
    formats.write_links(paths.links, LinkTable(
        [(rt.rel_name, rt.source_type, rt.target_type) for rt in rels],
        np.repeat(np.arange(len(rels)), [len(e) for e in edges]),
        objects.refs.data(), pairs[:, 0], pairs[:, 1]))
    formats.write_pages(paths.pages, page_rows or [])
    formats.write_page_map(paths.page_map, page_map or (b"", b"", []))
    return paths


def resolve_expert(bundle: CorpusBundle, path: Path) -> PartialRanking:
    """Read an expert ranking file and resolve references to object ids."""
    mode, payload = formats.read_expert(path)
    if mode == "order":
        return PartialRanking.from_order(bundle.resolve_refs(payload))
    ids = bundle.resolve_refs([ref for pair in payload for ref in pair])
    return PartialRanking(tuple(zip(ids[0::2], ids[1::2])))
