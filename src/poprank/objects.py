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
RecordTable of records (interned type, attribute and value ids, the
values kept as bytes) into an ObjectTable whose row i is object i, with
one value-id column per attribute; values are decoded only when read.
A reference stays UTF-8 bytes: the merge interns every record's
reference, and a record's id in that interner (ObjectTable.refs) is its
object's row. build_graph looks a LinkTable's references up in it, as
the loader does map and expert references (see corpus), and hands each
relationship type's rows to ObjectGraph, which checks them when it is
made (errors.checked_edges, as PageGraph does) and keeps each row once.
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
        if "\t" in self.type_name:
            raise SchemaError(f"type name {self.type_name!r} contains TAB")
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


@dataclass(frozen=True)
class RecordTable:
    """Records as interned columns, one row per record.

    record_ids holds each record's id as UTF-8 bytes followed by a
    newline. type_ids[i] indexes types, the distinct type names.
    segments holds one int64 row (record, attribute id, value id) per
    ``attr=value`` segment, in record order: the attribute id indexes
    attributes, the distinct attribute names, and the value id the
    distinct values, each stored as UTF-8 bytes followed by a newline in
    values (the empty value included).
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
        Raises RecordError for a record id or value with a newline."""
        ids: list[str] = []
        types: dict[str, int] = {}
        attributes: dict[str, int] = {}
        values: dict[str, int] = {}
        type_ids, segments = [], []
        for record, (record_id, type_name, row) in enumerate(rows):
            for text in (record_id, *row.values()):
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
        values = _lines(self.values)
        bounds = np.searchsorted(self.segments[:, 0], np.arange(len(self) + 1)).tolist()
        segments = self.segments[:, 1:].tolist()
        for record, (record_id, type_id) in enumerate(zip(_lines(self.record_ids),
                                                          self.type_ids.tolist())):
            yield record_id, self.types[type_id], {
                self.attributes[attr]: values[value]
                for attr, value in segments[bounds[record]:bounds[record + 1]]}


@dataclass(frozen=True, eq=False)
class ObjectTable:
    """Merged objects as columns, read-only; row i is object i.

    refs interns each object's reference ``type_name<TAB>key text``, id i
    being row i; ``refs.resolve(data, len(table))`` looks references up.
    type_ids[i] indexes types. value_ids holds one column per attribute
    of attributes, a value id per row (-1 for none), and values the
    distinct values, each as UTF-8 bytes followed by a newline. merged
    and conflicts count each row's records and disagreements. The list
    properties decode these columns when read. The table holds read-only
    views of the given columns, which stay writable.
    """

    refs: _kernels.SpanInterner
    types: list[str]
    type_ids: np.ndarray
    attributes: list[str]
    value_ids: np.ndarray
    values: bytes
    merged: np.ndarray
    conflicts: np.ndarray

    def __post_init__(self):
        for name in ("type_ids", "value_ids", "merged", "conflicts"):
            column = np.asarray(getattr(self, name)).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.type_ids)

    @property
    def references(self) -> list[str]:
        """Each row's reference, decoded."""
        return self.refs.values()[:len(self)]

    @property
    def type_names(self) -> list[str]:
        return [self.types[i] for i in self.type_ids.tolist()]

    @property
    def attribute_values(self) -> list[dict[str, str]]:
        """Each row's non-empty values, as attribute -> value."""
        values = _lines(self.values)
        return [{attr: values[value] for attr, value in zip(self.attributes, row) if value >= 0}
                for row in self.value_ids.tolist()]

    @property
    def merged_record_counts(self) -> list[int]:
        return self.merged.tolist()

    @property
    def conflict_counts(self) -> list[int]:
        return self.conflicts.tolist()


def _reject_record(records: RecordTable, registry: SchemaRegistry, record: int) -> None:
    """Raise the RecordError of one record that merge_records rejects:
    its type, then its attributes, then its key are checked."""
    record_id = _lines(records.record_ids)[record]
    type_name = records.types[records.type_ids[record]]
    if type_name not in registry:
        raise RecordError(f"record {record_id!r}: unregistered type {type_name!r}")
    schema = registry.get(type_name)
    values = _lines(records.values)
    row = records.segments[records.segments[:, 0] == record, 1:].tolist()
    row = {records.attributes[attr]: values[value] for attr, value in row}
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


def merge_records(records: RecordTable, registry: SchemaRegistry) -> ObjectTable:
    """Collapse records that share a reference into one ObjectTable row each.

    The first record with a reference fixes the object's row (dense, in
    first appearance order) and any contested attribute values. Later records
    fill in attributes the object does not have yet; when they disagree
    with a stored value, the stored value stays and the row's conflict
    count grows by one per disagreeing attribute. Empty-string values are
    treated as absent.

    Raises RecordError for an unregistered type, an attribute not in the
    type's schema, or a key attribute that is missing, empty or contains
    ``|`` or TAB (the separators of references); the first such record
    is named.

    The merge works on the table's columns: each record's reference is
    composed and interned as bytes, and its id in the interner is its
    object's row. Each (object, attribute)'s first non-empty value and
    its disagreements are then found with one sort. No value is decoded.
    """
    schemas = list(registry)
    attributes = list(dict.fromkeys(a for s in schemas for a in s.attributes))
    column = {a: i for i, a in enumerate(attributes)}
    position = {s.type_name: i for i, s in enumerate(schemas)}
    # allowed[s, c]: whether schema s has attribute c; key_at[s, c]: the
    # place of c in s's key, or -1. The last row and column stand for an
    # unregistered type and an attribute no schema has.
    allowed = np.zeros((len(schemas) + 1, len(attributes) + 1), bool)
    key_at = np.full((len(schemas) + 1, len(attributes) + 1), -1)
    for i, s in enumerate(schemas):
        allowed[i, [column[a] for a in s.attributes]] = True
        key_at[i, [column[a] for a in s.key_attributes]] = np.arange(len(s.key_attributes))
    key_sizes = np.array([len(s.key_attributes) for s in schemas] + [0])
    width = int(key_sizes.max())

    schema = np.array([position.get(t, -1) for t in records.types], np.int64)[records.type_ids]
    record, attribute, value = records.segments.T
    col = np.array([column.get(a, -1) for a in records.attributes], np.int64)[attribute]
    unknown = ~allowed[schema[record], col]
    place = key_at[schema[record], col]
    keys = np.full((len(records), width), -1)  # each record's key value ids
    in_key = place >= 0
    keys[record[in_key], place[in_key]] = value[in_key]
    del place, in_key
    # per value id, and last for no value (-1): empty, or holds '|' or TAB
    buf = np.frombuffer(records.values, np.uint8)
    spans = _kernels.line_spans(buf)
    empty = np.append(spans[0] == spans[1], True)
    separated = np.zeros(len(empty), bool)
    separators = np.flatnonzero((buf == ord("|")) | (buf == ord("\t")))
    separated[np.searchsorted(spans[1], separators)] = True
    needed = np.arange(width) < key_sizes[schema][:, None]
    failed = (schema < 0) | (needed & (empty[keys] | separated[keys])).any(axis=1)
    failed[record[unknown]] = True
    if failed.any():
        _reject_record(records, registry, int(np.argmax(failed)))

    # a record's reference id is its object's row, in first appearance order
    refs, obj = _references(records, keys, needed, spans)
    first = _kernels.first_appearances(obj, 0)  # each row's first record

    # the non-empty values by (row, attribute) cell, in record order within
    # a cell (a stable sort, fast as rows mostly grow with records): a
    # cell's first value is kept, and each later one that differs is a conflict
    filled = ~empty[value]
    cell = obj[record[filled]] * len(attributes) + col[filled]
    order = np.argsort(cell, kind="stable")
    cell, value = cell[order], value[filled][order]
    new_cell = np.ones(len(cell), bool)
    np.not_equal(cell[1:], cell[:-1], out=new_cell[1:])
    kept = value[new_cell]
    value_ids = np.full((len(first), len(attributes)), -1)
    value_ids.ravel()[cell[new_cell]] = kept
    conflicted = value != kept[np.cumsum(new_cell) - 1]
    conflicts = np.bincount(cell[conflicted] // max(len(attributes), 1), minlength=len(first))
    return ObjectTable(refs, records.types, records.type_ids[first], attributes, value_ids,
                       records.values, np.bincount(obj, minlength=len(first)), conflicts)


def _references(records: RecordTable, keys: np.ndarray, in_key: np.ndarray,
                spans: tuple[np.ndarray, np.ndarray]) -> tuple[_kernels.SpanInterner, np.ndarray]:
    """The interner of the records' references ``type_name<TAB>key1|key2...``
    and each record's id in it. A record's reference is composed as bytes
    from its type id, the key value ids its row of ``in_key`` marks and the
    ``spans`` of records.values; ids follow first appearance."""
    type_data = _joined(records.types)
    type_starts, type_ends = _kernels.line_spans(np.frombuffer(type_data, np.uint8))
    at_values, at_separators = len(type_data), len(type_data) + len(records.values)
    data = np.frombuffer(type_data + records.values + b"\t|\n", np.uint8)
    value_starts, value_ends = (np.append(side, 0) for side in spans)  # -1: none
    # pieces of a record's reference: its type name, a separator and a value
    # per key place (empty past the record's key), and a newline
    n, width = keys.shape
    starts = np.empty((n, 2 * width + 2), np.int64)
    lengths = np.zeros((n, 2 * width + 2), np.int64)
    type_ids = records.type_ids
    starts[:, 0], lengths[:, 0] = type_starts[type_ids], (type_ends - type_starts)[type_ids]
    starts[:, 1:-1:2], lengths[:, 1:-1:2] = at_separators + (np.arange(width) > 0), in_key
    starts[:, 2:-1:2] = at_values + value_starts[keys]
    lengths[:, 2:-1:2] = np.where(in_key, (value_ends - value_starts)[keys], 0)
    starts[:, -1], lengths[:, -1] = at_separators + 2, 1
    data = _kernels.gather_spans(data, starts.ravel(), lengths.ravel())
    refs = _kernels.SpanInterner()
    return refs, refs.intern(data.tobytes(), *_kernels.line_spans(data))


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
    has an empty array. Raises GraphError for references that do not number
    the rows, or links that do not match the declared relationship types.
    """

    objects: ObjectTable
    relationship_types: tuple[RelationshipType, ...]
    links: Mapping[str, np.ndarray]

    def __post_init__(self):
        n = len(self.objects)
        if len(self.objects.refs) < n:
            raise GraphError(f"object keys do not map to rows 0..{n - 1} in row order")
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
    ref_ids = objects.refs.resolve(links.refs, len(objects))
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
