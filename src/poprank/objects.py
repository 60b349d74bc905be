"""Typed web objects, attribute schemas, and the heterogeneous object graph.

Records harvested from different pages routinely describe the same
real-world entity, and copies may disagree. A record's reference
``type_name<TAB>key text`` (key values joined by ``|``), the form
links.tsv and page_object_map.tsv carry, is its object's one identity:
records collapse into one object per reference. The first record to
mention a contested attribute wins, and every later disagreement is
counted so the merge stays auditable. Object ids are dense integers so
the numeric modules can index score vectors directly.

Tables are columns, not an object per line: merge_records turns a
RecordTable of records (interned type, attribute and value ids, the values
kept as bytes) into an ObjectTable whose row i is object i, with the (row,
attribute, value) cells it kept, shaped as the records' segments and
decoded as they are, only when read. A reference stays UTF-8 bytes: the
merge composes each record's from its own key segments and interns it, and
a record's id in that interner (ObjectTable.refs, holding nothing else) is
its object's row. build_graph looks a LinkTable's references up in it, as
the loader does map and expert references (see corpus), and hands each
relationship type's rows to ObjectGraph, which checks them when it is made
(errors.checked_edges, as PageGraph does) and keeps each row once.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import _kernels
from .errors import GraphError, RecordError, SchemaError, checked_edges


@dataclass(frozen=True)
class ObjectTypeSchema:
    """Relational schema for one object type.

    Key attributes are the subset whose values uniquely identify an
    object of this type; they drive record deduplication.
    """

    type_name: str
    attributes: tuple[str, ...]
    key_attributes: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "key_attributes", tuple(self.key_attributes))
        if not self.type_name:
            raise SchemaError("schema requires a non-empty type_name")
        for sep, shown in (("\t", "TAB"), ("\n", "a newline")):
            if sep in self.type_name:
                raise SchemaError(f"type name {self.type_name!r} contains {shown}")
        for name in self.attributes:
            for sep, shown in (("=", "'='"), (";", "';'"), ("\t", "TAB"), ("\n", "a newline")):
                if sep in name:
                    raise SchemaError(f"{self.type_name}: attribute name {name!r} contains "
                                      f"{shown}, a separator of objects.tsv")
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError(f"{self.type_name}: duplicate attribute names")
        if not self.key_attributes:
            raise SchemaError(f"{self.type_name}: key_attributes must not be empty")
        if len(set(self.key_attributes)) != len(self.key_attributes):
            raise SchemaError(f"{self.type_name}: duplicate key attributes")
        missing = [a for a in self.key_attributes if a not in self.attributes]
        if missing:
            raise SchemaError(f"{self.type_name}: key attributes {missing} are not attributes")


class SchemaRegistry:
    """Registered object-type schemas, unique per type name."""

    def __init__(self, schemas: Iterable[ObjectTypeSchema] = ()):
        self._schemas: dict[str, ObjectTypeSchema] = {}
        for schema in schemas:
            self.register(schema)

    def register(self, schema: ObjectTypeSchema) -> None:
        if schema.type_name in self._schemas:
            raise SchemaError(f"object type {schema.type_name!r} is already registered")
        self._schemas[schema.type_name] = schema

    def get(self, type_name: str) -> ObjectTypeSchema:
        try:
            return self._schemas[type_name]
        except KeyError:
            raise SchemaError(f"unknown object type {type_name!r}") from None

    def __contains__(self, type_name: str) -> bool:
        return type_name in self._schemas

    def __iter__(self):
        return iter(self._schemas.values())

    def __len__(self) -> int:
        return len(self._schemas)


def _lines(data: bytes) -> list[str]:
    """The newline-ended UTF-8 strings of ``data``, decoded."""
    return data.decode("utf-8").split("\n")[:-1]


def _joined(strings: Iterable[str]) -> bytes:
    return "".join(f"{text}\n" for text in strings).encode("utf-8")


def _decoded(cells: np.ndarray, rows: range, attributes: list[str],
             values: bytes) -> list[dict[str, str]]:
    """The {attribute: value} dict of each of ``rows``, from (row, attribute
    id, value id) int64 cells sorted by row and the newline-ended ``values``."""
    bounds = np.searchsorted(cells[:, 0], np.arange(rows.start, rows.stop + 1)).tolist()
    pairs, values = cells[:, 1:].tolist(), _lines(values)
    return [{attributes[attr]: values[value] for attr, value in pairs[lo:hi]}
            for lo, hi in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class RecordTable:
    """Records as interned columns, one row per record.

    record_ids holds each record's id as UTF-8 bytes followed by a
    newline. type_ids[i] indexes types, the distinct type names.
    segments holds one int64 row (record, attribute id, value id) per
    ``attr=value`` segment, in record order, a record naming an attribute
    at most once: the attribute id indexes attributes, the distinct
    attribute names, and the value id the distinct values, each stored as
    UTF-8 bytes followed by a newline in values (the empty value included).
    """

    record_ids: bytes
    types: list[str]
    type_ids: np.ndarray
    attributes: list[str]
    values: bytes
    segments: np.ndarray

    def __len__(self) -> int:
        return len(self.type_ids)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, str, dict[str, str]]]) -> "RecordTable":
        """The table of (record_id, type_name, {attribute: value}) rows.
        Raises RecordError for a record id, type name or value with a newline."""
        ids: list[str] = []
        types: dict[str, int] = {}
        attributes: dict[str, int] = {}
        values: dict[str, int] = {}
        type_ids, segments = [], []
        for record, (record_id, type_name, row) in enumerate(rows):
            for text in (record_id, type_name, *row.values()):
                if "\n" in text:
                    raise RecordError(f"record {record_id!r}: {text!r} contains a newline")
            ids.append(record_id)
            type_ids.append(types.setdefault(type_name, len(types)))
            segments += [(record, attributes.setdefault(attr, len(attributes)),
                          values.setdefault(value, len(values))) for attr, value in row.items()]
        return cls(_joined(ids), list(types), np.array(type_ids, np.int64), list(attributes),
                   _joined(values), np.array(segments, np.int64).reshape(-1, 3))

    def rows(self) -> Iterator[tuple[str, str, dict[str, str]]]:
        """The (record_id, type_name, {attribute: value}) rows, decoded."""
        return zip(_lines(self.record_ids), [self.types[i] for i in self.type_ids.tolist()],
                   _decoded(self.segments, range(len(self)), self.attributes, self.values))


@dataclass(frozen=True, eq=False)
class ObjectTable:
    """Merged objects as columns, read-only; row i is object i.

    refs interns each object's reference ``type_name<TAB>key text``, id i
    being row i, and no other value (else GraphError); ``refs.resolve(data)``
    looks references up. type_ids[i] indexes types. cells holds the int64
    (row, attribute id, value id) of each kept value by row and attribute,
    with values, as RecordTable.segments does. merged and conflicts count
    each row's records and disagreements. The list properties decode these
    columns when read; the table holds read-only views of the given columns.
    """

    refs: _kernels.SpanInterner
    types: list[str]
    type_ids: np.ndarray
    attributes: list[str]
    cells: np.ndarray
    values: bytes
    merged: np.ndarray
    conflicts: np.ndarray

    def __post_init__(self):
        for name in ("type_ids", "cells", "merged", "conflicts"):
            column = np.asarray(getattr(self, name)).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if len(self.refs) != len(self):
            raise GraphError(f"object keys do not map to rows 0..{len(self) - 1} in row order")

    def __len__(self) -> int:
        return len(self.type_ids)

    @property
    def references(self) -> list[str]:
        """Each row's reference, decoded."""
        return self.refs.values()

    @property
    def type_names(self) -> list[str]:
        return [self.types[i] for i in self.type_ids.tolist()]

    @property
    def attribute_values(self) -> list[dict[str, str]]:
        """Each row's non-empty values, as attribute -> value."""
        return _decoded(self.cells, range(len(self)), self.attributes, self.values)

    @property
    def merged_record_counts(self) -> list[int]:
        return self.merged.tolist()

    @property
    def conflict_counts(self) -> list[int]:
        return self.conflicts.tolist()


def _reject_record(records: RecordTable, registry: SchemaRegistry, record: int) -> None:
    """Raise the RecordError of one record that merge_records rejects: its
    type, attributes and key values are checked, then a repeated key attribute."""
    record_id = _lines(records.record_ids)[record]
    type_name = records.types[records.type_ids[record]]
    if type_name not in registry:
        raise RecordError(f"record {record_id!r}: unregistered type {type_name!r}")
    schema = registry.get(type_name)
    row, = _decoded(records.segments, range(record, record + 1), records.attributes, records.values)
    unknown = [a for a in row if a not in schema.attributes]
    if unknown:
        raise RecordError(f"record {record_id!r}: attributes {unknown} not in schema {type_name!r}")
    for attr in schema.key_attributes:
        value = row.get(attr, "")
        if value == "":
            raise RecordError(f"record {record_id!r}: key attribute {attr!r} is missing or empty")
        for sep, name in (("|", "'|'"), ("\t", "TAB")):
            if sep in value:
                raise RecordError(f"record {record_id!r}: key attribute {attr!r} value {value!r} "
                                  f"contains {name}")
    raise RecordError(f"record {record_id!r}: a key attribute is given twice")


def merge_records(records: RecordTable, registry: SchemaRegistry) -> ObjectTable:
    """Collapse records that share a reference into one ObjectTable row each.

    The first record with a reference fixes the object's row (dense, in
    first appearance order) and any contested attribute values. Later records
    fill in attributes the object does not have yet; when they disagree
    with a stored value, the stored value stays and the row's conflict
    count grows by one per disagreeing attribute. Empty-string values are
    treated as absent.

    Raises RecordError for an unregistered type, an attribute not in the
    type's schema, or a key attribute that is missing, given twice, empty
    or contains ``|`` or TAB (the separators of references); the first
    such record is named.

    The merge works on the table's columns: each record's reference is
    composed as bytes from the record's own key segments and interned, and
    its id in the interner is its object's row. Each (object, attribute)'s
    first non-empty value and its disagreements are then found with one
    sort. No value is decoded, and memory follows the input, not the schema.
    """
    schemas = list(registry)
    attributes = list(dict.fromkeys(a for s in schemas for a in s.attributes))
    column = {a: i for i, a in enumerate(attributes)}
    position = {s.type_name: i for i, s in enumerate(schemas)}
    # each declared (schema, attribute) pair's sorted key schema * stride + attribute, and
    # its key place or -1; attribute len(attributes) is no schema's, and the last key none
    stride = len(attributes) + 1
    declared = {i * stride + column[a]: -1 for i, s in enumerate(schemas) for a in s.attributes}
    declared.update((i * stride + column[a], p) for i, s in enumerate(schemas)
                    for p, a in enumerate(s.key_attributes))
    pairs, places = np.array(sorted(declared.items()) + [(np.iinfo(np.int64).max, -1)], np.int64).T
    key_sizes = np.array([len(s.key_attributes) for s in schemas] + [-1])  # -1: unregistered

    schema = np.array([position.get(t, -1) for t in records.types], np.int64)[records.type_ids]
    record, attribute, value = records.segments.T
    col = np.array([column.get(a, stride - 1) for a in records.attributes], np.int64)[attribute]
    pair = schema[record] * stride + col  # negative for an unregistered type
    at = np.searchsorted(pairs, pair)
    unknown, place = pairs[at] != pair, places[at]
    del pair, at
    in_key = place >= 0  # also some unknown pairs, whose records fail
    buf = np.frombuffer(records.values, np.uint8)
    spans = _kernels.line_spans(buf)
    empty = spans[0] == spans[1]
    bad = empty.copy()  # per value id: not a key value, being empty or holding '|' or TAB
    bad[np.searchsorted(spans[1], np.flatnonzero((buf == ord("|")) | (buf == ord("\t"))))] = True
    failed = np.bincount(record[in_key], minlength=len(records)) != key_sizes[schema]
    failed[record[unknown | in_key & bad[value]]] = True
    if failed.any():
        _reject_record(records, registry, int(np.argmax(failed)))

    # a record's reference id is its object's row, in first appearance order
    place = place[in_key]  # the key segments' places; the others' are freed
    refs, obj = _references(records, records.segments[in_key], place, spans)
    first = _kernels.first_appearances(obj, 0)  # each row's first record

    # the non-empty values by (row, attribute) cell, in record order within
    # a cell (a stable sort, fast as rows mostly grow with records): a
    # cell's first value is kept, and each later one that differs is a conflict
    filled = ~empty[value]
    cell = obj[record[filled]] * stride + col[filled]
    order = np.argsort(cell, kind="stable")
    cell, value = cell[order], value[filled][order]
    new_cell = np.ones(len(cell), bool)
    np.not_equal(cell[1:], cell[:-1], out=new_cell[1:])
    kept = value[new_cell]
    cells = np.column_stack((*np.divmod(cell[new_cell], stride), kept))
    conflicted = value != kept[np.cumsum(new_cell) - 1]
    conflicts = np.bincount(cell[conflicted] // stride, minlength=len(first))
    return ObjectTable(refs, records.types, records.type_ids[first], attributes, cells,
                       records.values, np.bincount(obj, minlength=len(first)), conflicts)


def _references(records: RecordTable, keys: np.ndarray, place: np.ndarray,
                spans: tuple[np.ndarray, np.ndarray]) -> tuple[_kernels.SpanInterner, np.ndarray]:
    """The interner of the records' references ``type_name<TAB>key1|key2...``
    and each record's id in it, by first appearance, composed as bytes from
    its type and its key segments: the ``keys`` rows of records.segments,
    one per ``place`` of its key."""
    type_data = _joined(records.types)
    type_starts, type_ends = _kernels.line_spans(np.frombuffer(type_data, np.uint8))
    at_values, at_separators = len(type_data), len(type_data) + len(records.values)
    data = np.frombuffer(type_data + records.values + b"\t|\n", np.uint8)
    # a record's pieces, from its first on: its type name, a separator and a
    # value per key place, and a newline
    counts = 2 * np.bincount(keys[:, 0], minlength=len(records)) + 2
    first = np.cumsum(counts) - counts
    starts = np.empty(int(counts.sum()), np.int64)
    lengths = np.ones(len(starts), np.int64)
    type_ids = records.type_ids
    starts[first], lengths[first] = type_starts[type_ids], (type_ends - type_starts)[type_ids]
    record, _, value = keys.T
    at = first[record] + 2 * place + 1  # a key segment's separator, then its value
    starts[at] = at_separators + (place > 0)
    starts[at + 1], lengths[at + 1] = at_values + spans[0][value], (spans[1] - spans[0])[value]
    starts[first + counts - 1] = at_separators + 2
    data = _kernels.gather_spans(data, starts, lengths).tobytes()
    del starts, lengths  # freed before the interner's arrays are made
    refs = _kernels.SpanInterner()
    return refs, refs.intern(data, *_kernels.line_spans(np.frombuffer(data, np.uint8)))


@dataclass(frozen=True)
class RelationshipType:
    """A named, typed class of directed links (e.g. cites: paper -> paper)."""

    rel_name: str
    source_type: str
    target_type: str


@dataclass(frozen=True)
class LinkTable:
    """Link lines as interned int64 columns, one row per line.

    triples holds each distinct (rel_name, source_type, target_type) in
    order of first appearance, and codes[i] is the index of line i's
    triple. refs holds distinct endpoint references (type<TAB>key text),
    each as UTF-8 bytes followed by a newline, in order of first
    appearance when read from a file (a line's source before its target);
    src[i] and tgt[i] index them.
    """

    triples: list[tuple[str, str, str]]
    codes: np.ndarray
    refs: bytes
    src: np.ndarray
    tgt: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)


@dataclass
class GraphBuildReport:
    """Per-link diagnostics collected while building a graph."""

    dropped: list[str] = field(default_factory=list)
    duplicate_count: int = 0


@dataclass(frozen=True, eq=False)
class ObjectGraph:
    """Graph of typed objects and typed links, checked when made and read-only.

    links maps each declared rel_name to a read-only (m, 2) int64 array of
    (source object_id, target object_id) rows, each row once, in order of
    first appearance (errors.checked_edges); a relationship without links
    has an empty array. Raises GraphError for links that do not match the
    declared relationship types.
    """

    objects: ObjectTable
    relationship_types: tuple[RelationshipType, ...]
    links: Mapping[str, np.ndarray]

    def __post_init__(self):
        n = len(self.objects)
        rels = {}
        for rt in self.relationship_types:
            if rt.rel_name in rels:
                raise GraphError(f"duplicate relationship type {rt.rel_name!r}")
            rels[rt.rel_name] = rt
        for rel_name in self.links:
            if rel_name not in rels:
                raise GraphError(f"links declared for unknown relationship type {rel_name!r}")
        types, type_ids = self.objects.types, self.objects.type_ids
        links = {}
        for rel_name, rt in rels.items():
            if rel_name not in self.links:
                raise GraphError(f"{rel_name}: declared relationship type has no links array")
            links[rel_name] = edges = checked_edges(self.links[rel_name], n, f"{rel_name}: link")
            for column, side, expected in ((0, "source", rt.source_type),
                                           (1, "target", rt.target_type)):
                expected_id = types.index(expected) if expected in types else -1
                wrong = np.flatnonzero(type_ids[edges[:, column]] != expected_id)
                if wrong.size:
                    obj = int(edges[wrong[0], column])
                    raise GraphError(f"{rel_name}: {side} object {obj} has type "
                                     f"{types[type_ids[obj]]!r}, expected {expected!r}")
        object.__setattr__(self, "relationship_types", tuple(rels.values()))
        object.__setattr__(self, "links", MappingProxyType(links))

    @property
    def num_objects(self) -> int:
        return len(self.objects)

    @property
    def num_links(self) -> int:
        return sum(len(edges) for edges in self.links.values())


def build_graph(objects: ObjectTable, rel_types: Sequence[RelationshipType], links: LinkTable,
                *, strict: bool = False) -> tuple[ObjectGraph, GraphBuildReport]:
    """Resolve link lines against the objects' references and assemble the graph.

    A link whose declared endpoint types do not match its relationship
    type is always an error. Links whose endpoints do not resolve are
    dropped with a diagnostic (web data is dirty), or raised in strict
    mode. The graph drops exact duplicate (source, target, rel) triples,
    and the report counts them. The first offending line decides which
    error is raised.
    Each distinct triple is checked once and each distinct reference is
    looked up once.
    """
    rels = {rt.rel_name: rt for rt in rel_types}  # declared twice: ObjectGraph raises
    position = {rt.rel_name: i for i, rt in enumerate(rel_types)}
    problems: list[str | None] = []
    for rel_name, source_type, target_type in links.triples:
        rel = rels.get(rel_name)
        if rel is None:
            problems.append(f"link uses undeclared relationship type {rel_name!r}")
        elif source_type != rel.source_type or target_type != rel.target_type:
            problems.append(f"link types {source_type!r}->{target_type!r} do not match "
                            f"{rel.rel_name!r} ({rel.source_type!r}->{rel.target_type!r})")
        else:
            problems.append(None)
    ref_ids = objects.refs.resolve(links.refs)
    src, tgt = ref_ids[links.src], ref_ids[links.tgt]
    unresolved = (src < 0) | (tgt < 0)
    bad = np.flatnonzero(np.array([p is not None for p in problems], bool)[links.codes])
    # a line's endpoint types are checked before its endpoints are resolved
    if bad.size and not (strict and unresolved[:bad[0]].any()):
        raise GraphError(problems[links.codes[bad[0]]])

    report = GraphBuildReport()
    lines = np.flatnonzero(unresolved)
    sources = src[lines] < 0
    refs = _kernels.lines_at(links.refs, np.where(sources, links.src[lines], links.tgt[lines]))
    for line, source, ref in zip(lines.tolist(), sources.tolist(), refs):
        side, key = "source" if source else "target", ref.partition("\t")[2]
        msg = f"{links.triples[links.codes[line]][0]}: unresolved {side} {key!r}"
        if strict:
            raise GraphError(msg)
        report.dropped.append(msg)

    line_rel = np.array([position.get(rel_name, -1) for rel_name, _, _ in links.triples],
                        np.int64)[links.codes]
    line_rel[unresolved] = -1
    edges_by_rel = {}
    for i, rt in enumerate(rel_types):
        keep = line_rel == i
        edges_by_rel[rt.rel_name] = np.column_stack((src[keep], tgt[keep]))
    # freed before the graph copies each type's rows, so that fewer arrays are alive at once
    del ref_ids, src, tgt, line_rel, unresolved
    graph = ObjectGraph(objects, rel_types, edges_by_rel)
    report.duplicate_count = sum(map(len, edges_by_rel.values())) - graph.num_links
    return graph, report
