"""Typed web objects, attribute schemas, and the heterogeneous object graph.

Records harvested from different pages routinely describe the same
real-world entity, and copies may disagree. Records collapse into one
object per exact (type, key-attribute tuple); the first record to mention
a contested attribute wins, and every later disagreement is counted so
the merge stays auditable. Object ids are dense integers so the numeric
modules can index score vectors directly.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

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
class WebObject:
    """A deduplicated object: all records for one (type, key tuple) merged."""

    object_id: int
    type_name: str
    attribute_values: dict[str, str]
    merged_record_count: int = 1
    conflict_count: int = 0

    def key_tuple(self, schema: ObjectTypeSchema) -> KeyTuple:
        return tuple(self.attribute_values[a] for a in schema.key_attributes)


def _record_key(record: ObjectRecord, schema: ObjectTypeSchema) -> KeyTuple:
    key = []
    for attr in schema.key_attributes:
        value = record.attribute_values.get(attr, "")
        if value == "":
            raise RecordError(
                f"record {record.record_id!r}: key attribute {attr!r} is missing or empty"
            )
        key.append(value)
    return tuple(key)


def merge_records(records: Iterable[ObjectRecord], registry: SchemaRegistry) -> list[WebObject]:
    """Collapse records that share a (type, key tuple) into one WebObject each.

    The first record for a key fixes the object's id (dense, in first
    appearance order) and any contested attribute values. Later records
    fill in attributes the object does not have yet; when they disagree
    with a stored value, the stored value stays and conflict_count grows
    by one per disagreeing attribute. Empty-string values are treated as
    absent.

    Raises RecordError for an unregistered type, an attribute not in the
    type's schema, or a missing/empty key attribute.
    """
    objects: list[WebObject] = []
    index: dict[tuple[str, KeyTuple], int] = {}
    for record in records:
        if record.type_name not in registry:
            raise RecordError(f"record {record.record_id!r}: unregistered type {record.type_name!r}")
        schema = registry.get(record.type_name)
        unknown = [a for a in record.attribute_values if a not in schema.attributes]
        if unknown:
            raise RecordError(
                f"record {record.record_id!r}: attributes {unknown} not in schema {schema.type_name!r}"
            )
        key = _record_key(record, schema)
        slot = index.get((record.type_name, key))
        if slot is None:
            values = {a: v for a, v in record.attribute_values.items() if v != ""}
            index[(record.type_name, key)] = len(objects)
            objects.append(WebObject(len(objects), record.type_name, values))
        else:
            obj = objects[slot]
            obj.merged_record_count += 1
            for attr, value in record.attribute_values.items():
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


def build_graph(
    objects: Sequence[WebObject],
    rel_types: Sequence[RelationshipType],
    raw_links: Iterable[RawLink],
    registry: SchemaRegistry,
    *,
    strict: bool = False,
) -> tuple[ObjectGraph, GraphBuildReport]:
    """Resolve raw links against the object key index and assemble the graph.

    A link whose declared endpoint types do not match its relationship
    type is always an error. Links whose endpoints do not resolve are
    dropped with a diagnostic (web data is dirty), or raised in strict
    mode. Exact duplicate (source, target, rel) triples are dropped and
    counted.
    """
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

    ids: dict[str, list[int]] = {rt.rel_name: [] for rt in rel_types}
    report = GraphBuildReport()
    for link in raw_links:
        rel = rels.get(link.rel_name)
        if rel is None:
            raise GraphError(f"link uses undeclared relationship type {link.rel_name!r}")
        if link.source_type != rel.source_type or link.target_type != rel.target_type:
            raise GraphError(
                f"link types {link.source_type!r}->{link.target_type!r} do not match "
                f"{rel.rel_name!r} ({rel.source_type!r}->{rel.target_type!r})"
            )
        src = index.get((link.source_type, link.source_key))
        tgt = index.get((link.target_type, link.target_key))
        if src is None or tgt is None:
            side = "source" if src is None else "target"
            key = link.source_key if src is None else link.target_key
            msg = f"{link.rel_name}: unresolved {side} {'|'.join(key)!r}"
            if strict:
                raise GraphError(msg)
            report.dropped.append(msg)
            continue
        ids[link.rel_name] += (src, tgt)

    links = {}
    for rel_name, flat in ids.items():
        edges = np.array(flat, np.int64).reshape(-1, 2)
        links[rel_name], dropped = _kernels.unique_edges(edges, len(objects))
        report.duplicate_count += dropped
    return ObjectGraph(list(objects), list(rel_types), links, index), report
