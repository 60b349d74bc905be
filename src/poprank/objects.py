"""Typed web objects, attribute schemas, and the heterogeneous object graph.

Records harvested from different pages routinely describe the same
real-world entity, and copies may disagree. Records collapse into one
object per exact (type, key-attribute tuple); the first record to mention
a contested attribute wins, and every later disagreement is counted so
the merge stays auditable. Object ids are dense integers so the numeric
modules can index score vectors directly.

The loader hands over columns, not an object per line: a RecordTable of
records for merge_records and a LinkTable of interned link lines for
build_graph. ObjectRecord and RawLink lists are converted to those
tables, so there is one merge and one resolution path.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from . import _kernels
from .errors import GraphError, RecordError, SchemaError

KeyTuple = tuple[str, ...]


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


@dataclass(frozen=True)
class ObjectRecord:
    """One source-local description of an object, as extracted from a page."""

    record_id: str
    type_name: str
    attribute_values: Mapping[str, str]
    source_page: str | None = None


@dataclass
class RecordTable:
    """Records as columns, one row per record: record ids, type names and
    attribute values (attribute -> value, empty values included)."""

    record_ids: list[str] = field(default_factory=list)
    type_names: list[str] = field(default_factory=list)
    attribute_values: list[dict[str, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.record_ids)

    @classmethod
    def from_records(cls, records: Iterable[ObjectRecord]) -> "RecordTable":
        records = list(records)
        return cls([r.record_id for r in records], [r.type_name for r in records],
                   [dict(r.attribute_values) for r in records])


@dataclass
class WebObject:
    """A deduplicated object: all records for one (type, key tuple) merged."""

    object_id: int
    type_name: str
    attribute_values: dict[str, str]
    merged_record_count: int = 1
    conflict_count: int = 0

    def key_tuple(self, schema: ObjectTypeSchema) -> KeyTuple:
        return tuple(self.attribute_values[a] for a in schema.key_attributes)


def _reject_key(record_id: str, key_attributes: Sequence[str], key: Sequence[str]) -> None:
    for attr, value in zip(key_attributes, key):
        if value == "":
            raise RecordError(f"record {record_id!r}: key attribute {attr!r} is missing or empty")
        if "|" in value:
            raise RecordError(f"record {record_id!r}: key attribute {attr!r} value {value!r} "
                              "contains '|'")


def merge_records(
    records: RecordTable | Iterable[ObjectRecord], registry: SchemaRegistry
) -> list[WebObject]:
    """Collapse records that share a (type, key tuple) into one WebObject each.

    The first record for a key fixes the object's id (dense, in first
    appearance order) and any contested attribute values. Later records
    fill in attributes the object does not have yet; when they disagree
    with a stored value, the stored value stays and conflict_count grows
    by one per disagreeing attribute. Empty-string values are treated as
    absent. ObjectRecords are converted to a RecordTable first.

    Raises RecordError for an unregistered type, an attribute not in the
    type's schema, or a key attribute that is missing, empty or contains
    ``|`` (the separator of key texts in references).
    """
    if not isinstance(records, RecordTable):
        records = RecordTable.from_records(records)
    schemas = {s.type_name: (frozenset(s.attributes), s.key_attributes) for s in registry}
    objects: list[WebObject] = []
    index: dict[tuple[str, KeyTuple], int] = {}
    for record_id, type_name, values in zip(
        records.record_ids, records.type_names, records.attribute_values
    ):
        if type_name not in schemas:
            raise RecordError(f"record {record_id!r}: unregistered type {type_name!r}")
        attributes, key_attributes = schemas[type_name]
        if not attributes.issuperset(values):
            unknown = [a for a in values if a not in attributes]
            raise RecordError(
                f"record {record_id!r}: attributes {unknown} not in schema {type_name!r}"
            )
        key = tuple([values.get(a, "") for a in key_attributes])
        if "" in key or "|" in "".join(key):
            _reject_key(record_id, key_attributes, key)
        slot = index.get((type_name, key))
        if slot is None:
            index[(type_name, key)] = len(objects)
            objects.append(WebObject(len(objects), type_name,
                                     {a: v for a, v in values.items() if v != ""}))
        else:
            obj = objects[slot]
            obj.merged_record_count += 1
            for attr, value in values.items():
                if value == "":
                    continue
                seen = obj.attribute_values.get(attr)
                if seen is None:
                    obj.attribute_values[attr] = value
                elif seen != value:
                    obj.conflict_count += 1
    return objects


@dataclass(frozen=True)
class RelationshipType:
    """A named, typed class of directed links (e.g. cites: paper -> paper)."""

    rel_name: str
    source_type: str
    target_type: str


@dataclass(frozen=True)
class RawLink:
    """An unresolved link as it appears in source data: endpoint key tuples
    plus the endpoint types the source claims."""

    source_type: str
    source_key: KeyTuple
    rel_name: str
    target_type: str
    target_key: KeyTuple


@dataclass(frozen=True)
class LinkTable:
    """Link lines as interned int64 columns, one row per line.

    triples holds each distinct (rel_name, source_type, target_type) in
    order of first appearance, and codes[i] is the index of line i's
    triple. refs holds each distinct endpoint reference as
    ``type_name<TAB>key text`` (key values joined by ``|``), in order of
    first appearance; src[i] and tgt[i] index refs.
    """

    triples: list[tuple[str, str, str]]
    codes: np.ndarray
    refs: list[str]
    src: np.ndarray
    tgt: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)

    @classmethod
    def from_columns(cls, chunks: Iterable[tuple[Sequence[str], ...]]) -> "LinkTable":
        """Intern chunks of equal-length (source_types, source_keys,
        rel_names, target_types, target_keys) string columns, with one dict
        for the triples and one for the refs."""
        # a key seen for the first time gets the next id, so ids follow first appearance
        triples: defaultdict[tuple[str, str, str], int] = defaultdict(count().__next__)
        refs: defaultdict[str, int] = defaultdict(count().__next__)
        codes, src, tgt = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for source_types, source_keys, rel_names, target_types, target_keys in chunks:
            n = len(rel_names)
            codes.append(np.fromiter(
                map(triples.__getitem__, zip(rel_names, source_types, target_types)), np.int64, n))
            src.append(np.fromiter(
                map(refs.__getitem__, map("\t".join, zip(source_types, source_keys))), np.int64, n))
            tgt.append(np.fromiter(
                map(refs.__getitem__, map("\t".join, zip(target_types, target_keys))), np.int64, n))
        return cls(list(triples), np.concatenate(codes), list(refs),
                   np.concatenate(src), np.concatenate(tgt))

    @classmethod
    def from_raw_links(cls, raw_links: Iterable[RawLink]) -> "LinkTable":
        """The table of RawLinks, whose types and key values obey the links
        file format: no TAB anywhere, no ``|`` in a key value."""
        rows = []
        for link in raw_links:
            keys = "".join(link.source_key + link.target_key)
            if "\t" in link.source_type + link.target_type + keys or "|" in keys:
                raise GraphError(f"{link!r}: a type or key value contains TAB, or a key value '|'")
            rows.append((link.source_type, "|".join(link.source_key), link.rel_name,
                         link.target_type, "|".join(link.target_key)))
        return cls.from_columns([tuple(zip(*rows))] if rows else [])


@dataclass
class GraphBuildReport:
    """Per-link diagnostics collected while building a graph."""

    dropped: list[str] = field(default_factory=list)
    duplicate_count: int = 0


@dataclass
class ObjectGraph:
    """Graph of typed objects and typed links, not modified after build.

    links maps each declared rel_name to an (m, 2) int64 array of
    (source object_id, target object_id) rows, deduplicated and in order
    of first appearance; a relationship without links has an empty array.
    key_index maps (type_name, key tuple) to object_id.
    """

    objects: list[WebObject]
    relationship_types: list[RelationshipType]
    links: dict[str, np.ndarray]
    key_index: dict[tuple[str, KeyTuple], int] = field(default_factory=dict)

    @property
    def num_objects(self) -> int:
        return len(self.objects)

    @property
    def num_links(self) -> int:
        return sum(len(edges) for edges in self.links.values())

    def check(self, registry: SchemaRegistry | None = None) -> None:
        """Well-formedness check; raises GraphError on violation."""
        n = len(self.objects)
        for i, obj in enumerate(self.objects):
            if obj.object_id != i:
                raise GraphError(f"object ids are not dense: position {i} holds id {obj.object_id}")
        rels = {}
        for rt in self.relationship_types:
            if rt.rel_name in rels:
                raise GraphError(f"duplicate relationship type {rt.rel_name!r}")
            rels[rt.rel_name] = rt
        types = np.array([obj.type_name for obj in self.objects], dtype=str)
        for rel_name, edges in self.links.items():
            rt = rels.get(rel_name)
            if rt is None:
                raise GraphError(f"links declared for unknown relationship type {rel_name!r}")
            outside = np.flatnonzero(((edges < 0) | (edges >= n)).any(axis=1))
            if outside.size:
                src, tgt = edges[outside[0]].tolist()
                raise GraphError(f"{rel_name}: link ({src}, {tgt}) points outside the graph")
            for column, side, expected in ((0, "source", rt.source_type),
                                           (1, "target", rt.target_type)):
                wrong = np.flatnonzero(types[edges[:, column]] != expected)
                if wrong.size:
                    obj = int(edges[wrong[0], column])
                    raise GraphError(f"{rel_name}: {side} object {obj} has type "
                                     f"{self.objects[obj].type_name!r}, expected {expected!r}")
            _, dropped = _kernels.unique_edges(edges, n)
            if dropped:
                raise GraphError(f"{rel_name}: {dropped} duplicate link(s)")
        if registry is not None:
            keys: set[tuple[str, KeyTuple]] = set()
            for obj in self.objects:
                k = (obj.type_name, obj.key_tuple(registry.get(obj.type_name)))
                if k in keys:
                    raise GraphError(f"two objects of type {k[0]!r} share key {k[1]!r}")
                keys.add(k)


def _ref_key(ref: str) -> tuple[str, KeyTuple]:
    type_name, _, key = ref.partition("\t")
    return type_name, tuple(key.split("|"))


def build_graph(
    objects: Sequence[WebObject],
    rel_types: Sequence[RelationshipType],
    links: LinkTable | Iterable[RawLink],
    registry: SchemaRegistry,
    *,
    strict: bool = False,
) -> tuple[ObjectGraph, GraphBuildReport]:
    """Resolve link lines against the object key index and assemble the graph.

    A link whose declared endpoint types do not match its relationship
    type is always an error. Links whose endpoints do not resolve are
    dropped with a diagnostic (web data is dirty), or raised in strict
    mode. Exact duplicate (source, target, rel) triples are dropped and
    counted. The first offending line decides which error is raised.
    RawLinks are converted to a LinkTable first; each distinct triple is
    checked once and each distinct reference is looked up once.
    """
    if not isinstance(links, LinkTable):
        links = LinkTable.from_raw_links(links)
    rels: dict[str, RelationshipType] = {}
    for rt in rel_types:
        if rt.rel_name in rels:
            raise SchemaError(f"duplicate relationship type {rt.rel_name!r}")
        rels[rt.rel_name] = rt

    index: dict[tuple[str, KeyTuple], int] = {}
    for pos, obj in enumerate(objects):
        if obj.object_id != pos:
            raise GraphError(f"object ids are not dense: position {pos} holds id {obj.object_id}")
        k = (obj.type_name, obj.key_tuple(registry.get(obj.type_name)))
        if k in index:
            raise GraphError(f"objects {index[k]} and {obj.object_id} share key {k}")
        index[k] = obj.object_id

    position = {rt.rel_name: i for i, rt in enumerate(rel_types)}
    problems: list[str | None] = []
    for rel_name, source_type, target_type in links.triples:
        rel = rels.get(rel_name)
        if rel is None:
            problems.append(f"link uses undeclared relationship type {rel_name!r}")
        elif source_type != rel.source_type or target_type != rel.target_type:
            problems.append(
                f"link types {source_type!r}->{target_type!r} do not match "
                f"{rel.rel_name!r} ({rel.source_type!r}->{rel.target_type!r})"
            )
        else:
            problems.append(None)
    ref_ids = np.fromiter((index.get(_ref_key(ref), -1) for ref in links.refs), np.int64,
                          len(links.refs))
    src, tgt = ref_ids[links.src], ref_ids[links.tgt]
    unresolved = (src < 0) | (tgt < 0)
    bad = np.flatnonzero(np.array([p is not None for p in problems], bool)[links.codes])
    # a line's endpoint types are checked before its endpoints are resolved
    if bad.size and not (strict and unresolved[:bad[0]].any()):
        raise GraphError(problems[links.codes[bad[0]]])

    report = GraphBuildReport()
    for line in np.flatnonzero(unresolved).tolist():
        side, ref = ("source", links.src[line]) if src[line] < 0 else ("target", links.tgt[line])
        key = links.refs[ref].partition("\t")[2]
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
        edges = np.column_stack((src[keep], tgt[keep]))
        edges_by_rel[rt.rel_name], dropped = _kernels.unique_edges(edges, len(objects))
        report.duplicate_count += dropped
    return ObjectGraph(list(objects), list(rel_types), edges_by_rel, index), report
