"""Typed web objects, attribute schemas, and the heterogeneous object graph.

Records harvested from different pages routinely describe the same
real-world entity, and copies may disagree. Records collapse into one
object per reference ``type_name<TAB>key text`` (key values joined by
``|``), the form links.tsv and page_object_map.tsv carry; the first
record to mention a contested attribute wins, and every later
disagreement is counted so the merge stays auditable. Object ids are
dense integers so the numeric modules can index score vectors directly.

Tables are columns, not an object per line: merge_records turns a
RecordTable of records into an ObjectTable whose row i is object i, and
build_graph resolves a LinkTable of interned link lines against that
table's index, the one key index (ObjectGraph.key_index), with lookup,
the helper that resolves the page map's columns too (see corpus).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import _kernels
from .errors import GraphError, RecordError, SchemaError


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


@dataclass
class RecordTable:
    """Records as columns, one row per record: record ids, type names and
    attribute values (attribute -> value, empty values included)."""

    record_ids: list[str] = field(default_factory=list)
    type_names: list[str] = field(default_factory=list)
    attribute_values: list[dict[str, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.record_ids)


@dataclass
class ObjectTable:
    """Merged objects as columns; row i is object i. index maps each
    object's reference ``type_name<TAB>key text`` to its row, keys in row
    order; the other columns hold one entry per row (attribute_values
    without empty values)."""

    index: dict[str, int] = field(default_factory=dict)
    type_names: list[str] = field(default_factory=list)
    attribute_values: list[dict[str, str]] = field(default_factory=list)
    merged_record_counts: list[int] = field(default_factory=list)
    conflict_counts: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.type_names)


def _reject_key(record_id: str, key_attributes: Sequence[str], key: Sequence[str]) -> None:
    for attr, value in zip(key_attributes, key):
        if value == "":
            raise RecordError(f"record {record_id!r}: key attribute {attr!r} is missing or empty")
        for sep, name in (("|", "'|'"), ("\t", "TAB")):
            if sep in value:
                raise RecordError(f"record {record_id!r}: key attribute {attr!r} value {value!r} "
                                  f"contains {name}")


def merge_records(records: RecordTable, registry: SchemaRegistry) -> ObjectTable:
    """Collapse records that share a reference into one ObjectTable row each.

    The first record for a key fixes the object's row (dense, in first
    appearance order) and any contested attribute values. Later records
    fill in attributes the object does not have yet; when they disagree
    with a stored value, the stored value stays and the row's conflict
    count grows by one per disagreeing attribute. Empty-string values are
    treated as absent.

    Raises RecordError for an unregistered type, an attribute not in the
    type's schema, or a key attribute that is missing, empty or contains
    ``|`` or TAB (the separators of references).
    """
    schemas = {s.type_name: (frozenset(s.attributes), s.key_attributes) for s in registry}
    table = ObjectTable()
    index, stored_values = table.index, table.attribute_values
    merged, conflicts = table.merged_record_counts, table.conflict_counts
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
        key = [values.get(a, "") for a in key_attributes]
        text = "|".join(key)
        if "" in key or text.count("|") >= len(key) or "\t" in text:
            _reject_key(record_id, key_attributes, key)
        ref = f"{type_name}\t{text}"
        row = index.get(ref)
        if row is None:
            index[ref] = len(stored_values)
            table.type_names.append(type_name)
            stored_values.append({a: v for a, v in values.items() if v != ""})
            merged.append(1)
            conflicts.append(0)
        else:
            merged[row] += 1
            stored = stored_values[row]
            for attr, value in values.items():
                if value == "":
                    continue
                seen = stored.get(attr)
                if seen is None:
                    stored[attr] = value
                elif seen != value:
                    conflicts[row] += 1
    return table


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
    triple. refs holds distinct endpoint references (type<TAB>key text), in
    order of first appearance when read from a file (a line's source
    before its target); src[i] and tgt[i] index refs.
    """

    triples: list[tuple[str, str, str]]
    codes: np.ndarray
    refs: list[str]
    src: np.ndarray
    tgt: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)


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
    """

    objects: ObjectTable
    relationship_types: list[RelationshipType]
    links: dict[str, np.ndarray]

    @property
    def key_index(self) -> dict[str, int]:
        """Each object's reference -> its object_id (the table's own index)."""
        return self.objects.index

    @property
    def num_objects(self) -> int:
        return len(self.objects)

    @property
    def num_links(self) -> int:
        return sum(len(edges) for edges in self.links.values())

    def check(self) -> None:
        """Well-formedness check; raises GraphError on violation."""
        n = len(self.objects)
        if list(self.objects.index.values()) != list(range(n)):
            raise GraphError(f"object keys do not map to rows 0..{n - 1} in row order")
        rels = {}
        for rt in self.relationship_types:
            if rt.rel_name in rels:
                raise GraphError(f"duplicate relationship type {rt.rel_name!r}")
            rels[rt.rel_name] = rt
        types = np.array(self.objects.type_names, dtype=str)
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
                                     f"{self.objects.type_names[obj]!r}, expected {expected!r}")
            _, dropped = _kernels.unique_edges(edges, n)
            if dropped:
                raise GraphError(f"{rel_name}: {dropped} duplicate link(s)")


def lookup(index: dict[str, int], keys: Sequence[str]) -> np.ndarray:
    """``index[key]`` for each key as int64, or -1 for a key not in index."""
    return np.fromiter(map(index.get, keys, repeat(-1)), np.int64, len(keys))


def build_graph(
    objects: ObjectTable,
    rel_types: Sequence[RelationshipType],
    links: LinkTable,
    *,
    strict: bool = False,
) -> tuple[ObjectGraph, GraphBuildReport]:
    """Resolve link lines against the object key index and assemble the graph.

    A link whose declared endpoint types do not match its relationship
    type is always an error. Links whose endpoints do not resolve are
    dropped with a diagnostic (web data is dirty), or raised in strict
    mode. Exact duplicate (source, target, rel) triples are dropped and
    counted. The first offending line decides which error is raised.
    Each distinct triple is checked once and each distinct reference is
    looked up once.
    """
    rels: dict[str, RelationshipType] = {}
    for rt in rel_types:
        if rt.rel_name in rels:
            raise SchemaError(f"duplicate relationship type {rt.rel_name!r}")
        rels[rt.rel_name] = rt

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
    ref_ids = lookup(objects.index, links.refs)
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
    return ObjectGraph(objects, list(rel_types), edges_by_rel), report
