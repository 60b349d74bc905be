"""TSV file formats for corpora, factors, expert rankings, and reports.

All files are UTF-8 with LF line endings (CRLF and CR read as LF).
Whitespace-only lines and lines whose first non-blank character is ``#``
are skipped on input. Fields are TAB-separated; values must not contain
TAB. Key tuples join their values with ``|``, so key values must not
contain ``|`` either (``merge_records`` rejects them). In memory an
object reference is the pair of columns links.tsv and the page map carry,
``type_name<TAB>key1|key2|...`` (see objects); expert files and messages
write it ``type_name:key1|key2|...``. Escaping is out of scope.

schemas    type_name <TAB> attr1,attr2,... <TAB> key1,key2,...
objects    record_id <TAB> type_name <TAB> attr=value;attr=value;... [<TAB> source_page]
           (values must not contain ``;``; escaping is out of scope)
links      source_type <TAB> source_keytuple <TAB> rel_name <TAB> target_type <TAB> target_keytuple
pages      page_id [<TAB> comma-separated out-link page_ids]
page map   page_id <TAB> object_type <TAB> object_keytuple [<TAB> block_weight]
ppf        rel_name <TAB> gamma
expert     either one object reference per line (full order, best first),
           or pair lines: object_ref <TAB> > <TAB> object_ref

The two large files are read as columns, with no object per line:
``read_objects`` returns a RecordTable and ``read_links`` a LinkTable of
interned int64 ids (see objects). The other readers return lists. The
writers take what the readers return.

Reports are TSV rows preceded by a ``#``-prefixed metadata block of
``# key <TAB> value`` lines; scores are written with full round-trip
precision so reports parse back losslessly.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from operator import itemgetter
from pathlib import Path

from .errors import FormatError, PopRankError
from .objects import LinkTable, ObjectTypeSchema, RecordTable


def _line_blocks(path: Path, size: int = 1 << 20) -> Iterator[tuple[int, list[str]]]:
    """(number of the first line, lines without their newline) for
    consecutive blocks of about ``size`` characters; CRLF and CR line
    endings read as LF."""
    with open(path, encoding="utf-8") as fh:
        lineno, partial = 1, []  # pieces of a line that spans blocks
        while block := fh.read(size):
            lines = block.split("\n")
            if len(lines) == 1:
                partial.append(block)
                continue
            lines[0] = "".join(partial) + lines[0]
            partial = [lines.pop()]
            yield lineno, lines
            lineno += len(lines)
        if tail := "".join(partial):
            yield lineno, [tail]


def _is_data(line: str) -> bool:
    return bool(line.strip()) and not line.lstrip().startswith("#")


def _all_data(lines: list[str]) -> bool:
    """True when no line is blank or starts with whitespace or ``#``, so
    every line is data without a check per line."""
    return all(lines) and not any(c.isspace() or c == "#" for c in set(map(itemgetter(0), lines)))


def _data_lines(path: Path) -> Iterator[tuple[int, str]]:
    for first, lines in _line_blocks(path):
        numbered = enumerate(lines, first)
        yield from numbered if _all_data(lines) else (
            (lineno, line) for lineno, line in numbered if _is_data(line))


def _fail(path: Path, lineno: int, message: str):
    raise FormatError(f"{path}:{lineno}: {message}")


def _split_csv(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def parse_object_ref(text: str) -> str:
    """Parse ``type_name:key1|key2`` into the reference ``type_name<TAB>key1|key2``."""
    type_name, sep, keys = text.partition(":")
    if not sep or not type_name or not keys:
        raise FormatError(f"bad object reference {text!r}, expected type:key1|key2")
    return f"{type_name}\t{keys}"


def format_object_ref(ref: str) -> str:
    """The reference ``type_name<TAB>key text`` written ``type_name:key text``."""
    return ref.replace("\t", ":", 1)


def read_schemas(path: Path) -> list[ObjectTypeSchema]:
    schemas = []
    for lineno, line in _data_lines(path):
        fields = line.split("\t")
        if len(fields) != 3:
            _fail(path, lineno, f"expected 3 fields, got {len(fields)}")
        try:
            schemas.append(ObjectTypeSchema(fields[0], _split_csv(fields[1]), _split_csv(fields[2])))
        except PopRankError as err:
            _fail(path, lineno, str(err))
    return schemas


def write_schemas(path: Path, schemas: Iterable[ObjectTypeSchema]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s in schemas:
            fh.write(f"{s.type_name}\t{','.join(s.attributes)}\t{','.join(s.key_attributes)}\n")


def read_objects(path: Path) -> RecordTable:
    """One RecordTable row per data line; the optional source page field
    is checked for the field count but not kept."""
    table = RecordTable()
    for lineno, line in _data_lines(path):
        fields = line.split("\t")
        if len(fields) not in (3, 4):
            _fail(path, lineno, f"expected 3 or 4 fields, got {len(fields)}")
        values: dict[str, str] = {}
        if fields[2]:
            for segment in fields[2].split(";"):
                attr, sep, value = segment.partition("=")
                if not sep or not attr:
                    _fail(path, lineno, f"bad attribute segment {segment!r}")
                if attr in values:
                    _fail(path, lineno, f"attribute {attr!r} given twice")
                values[attr] = value
        table.record_ids.append(fields[0])
        table.type_names.append(fields[1])
        table.attribute_values.append(values)
    return table


def write_objects(path: Path, records: RecordTable) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record_id, type_name, values in zip(
            records.record_ids, records.type_names, records.attribute_values
        ):
            for attr, value in values.items():
                if "\t" in value or ";" in value:
                    raise FormatError(
                        f"record {record_id!r}: value for {attr!r} contains TAB or ';'"
                    )
            attrs = ";".join(f"{a}={v}" for a, v in values.items())
            fh.write(f"{record_id}\t{type_name}\t{attrs}\n")


def _link_columns(path: Path) -> Iterator[tuple[list[str], ...]]:
    """The five columns of each block of data lines of a links file."""
    for first, lines in _line_blocks(path):
        data = lines if _all_data(lines) else list(filter(_is_data, lines))
        if not data:
            continue
        if set(map(str.count, data, repeat("\t"))) != {4}:
            for lineno, line in enumerate(lines, first):
                found = len(line.split("\t"))
                if _is_data(line) and found != 5:
                    _fail(path, lineno, f"expected 5 fields, got {found}")
        fields = "\t".join(data).split("\t")
        yield fields[0::5], fields[1::5], fields[2::5], fields[3::5], fields[4::5]


def read_links(path: Path) -> LinkTable:
    """The links file as a LinkTable, streamed block by block; no object
    is built per line."""
    return LinkTable.from_columns(_link_columns(path))


def write_links(path: Path, links: LinkTable) -> None:
    """One line ``refs[src] TAB rel_name TAB refs[tgt]`` per row; a ref is
    already the type and key columns."""
    refs, rel_names = links.refs, [rel_name for rel_name, _, _ in links.triples]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for code, src, tgt in zip(links.codes.tolist(), links.src.tolist(), links.tgt.tolist()):
            fh.write(f"{refs[src]}\t{rel_names[code]}\t{refs[tgt]}\n")


def read_pages(path: Path) -> list[tuple[str, list[str]]]:
    """Adjacency rows: (page_id, out-link page ids). Duplicate rows for a
    page are an error; a missing or empty second field means no out-links."""
    rows: list[tuple[str, list[str]]] = []
    seen: set[str] = set()
    for lineno, line in _data_lines(path):
        fields = line.split("\t")
        if len(fields) not in (1, 2):
            _fail(path, lineno, f"expected 1 or 2 fields, got {len(fields)}")
        page_id = fields[0]
        if not page_id:
            _fail(path, lineno, "empty page id")
        if page_id in seen:
            _fail(path, lineno, f"page {page_id!r} listed twice")
        seen.add(page_id)
        targets = list(_split_csv(fields[1])) if len(fields) == 2 else []
        rows.append((page_id, targets))
    return rows


def write_pages(path: Path, rows: Iterable[tuple[str, Sequence[str]]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for page_id, targets in rows:
            if targets:
                fh.write(f"{page_id}\t{','.join(targets)}\n")
            else:
                fh.write(f"{page_id}\n")


def read_page_map(path: Path) -> list[tuple[str, str, float | None]]:
    """(page_id, object ref, block weight or None) per data line."""
    entries = []
    for lineno, line in _data_lines(path):
        fields = line.split("\t")
        if len(fields) not in (3, 4):
            _fail(path, lineno, f"expected 3 or 4 fields, got {len(fields)}")
        weight: float | None = None
        if len(fields) == 4 and fields[3] != "":
            try:
                weight = float(fields[3])
            except ValueError:
                _fail(path, lineno, f"bad block weight {fields[3]!r}")
            if not 0.0 <= weight < math.inf:
                _fail(path, lineno, f"block weight must be finite and non-negative, got {weight}")
        if not fields[1] or not fields[2]:
            _fail(path, lineno, "empty object type or key")
        entries.append((fields[0], f"{fields[1]}\t{fields[2]}", weight))
    return entries


def write_page_map(path: Path, entries: Iterable[tuple[str, str, float | None]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for page_id, ref, weight in entries:
            line = f"{page_id}\t{ref}"
            if weight is not None:
                line += f"\t{weight!r}"
            fh.write(line + "\n")


def read_ppf(path: Path) -> dict[str, float]:
    factors: dict[str, float] = {}
    for lineno, line in _data_lines(path):
        fields = line.split("\t")
        if len(fields) != 2:
            _fail(path, lineno, f"expected 2 fields, got {len(fields)}")
        name = fields[0]
        if name in factors:
            _fail(path, lineno, f"relationship type {name!r} listed twice")
        try:
            gamma = float(fields[1])
        except ValueError:
            _fail(path, lineno, f"bad factor {fields[1]!r}")
        if not 0.0 <= gamma <= 1.0:
            _fail(path, lineno, f"factor must lie in [0, 1], got {gamma}")
        factors[name] = gamma
    return factors


def write_ppf(path: Path, factors: dict[str, float], meta: Sequence[tuple[str, str]] = ()) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in meta:
            fh.write(f"# {key}\t{value}\n")
        for name, gamma in factors.items():
            fh.write(f"{name}\t{gamma!r}\n")


def read_expert(path: Path) -> tuple[str, list]:
    """Read an expert ranking file.

    Returns ("order", [ref, ...]) for the one-reference-per-line form or
    ("pairs", [(ref, ref), ...]) for the explicit pair form; the two
    forms cannot be mixed in one file.
    """
    mode: str | None = None
    order: list[str] = []
    pairs: list[tuple[str, str]] = []
    for lineno, line in _data_lines(path):
        fields = line.split("\t")
        if len(fields) == 1:
            kind = "order"
        elif len(fields) == 3:
            kind = "pairs"
            if fields[1] != ">":
                _fail(path, lineno, f"expected literal '>' separator, got {fields[1]!r}")
        else:
            _fail(path, lineno, f"expected 1 or 3 fields, got {len(fields)}")
        if mode is None:
            mode = kind
        elif mode != kind:
            _fail(path, lineno, "cannot mix full-order lines and pair lines")
        try:
            if kind == "order":
                order.append(parse_object_ref(fields[0]))
            else:
                pairs.append((parse_object_ref(fields[0]), parse_object_ref(fields[2])))
        except FormatError as err:
            _fail(path, lineno, str(err))
    if mode is None:
        return "order", []
    return mode, order if mode == "order" else pairs


def write_report(
    path_or_stream,
    meta: Sequence[tuple[str, str]],
    rows: Iterable[Sequence[str]],
) -> None:
    """Write a ``#``-headed metadata block followed by TSV data rows."""

    def _emit(fh):
        for key, value in meta:
            fh.write(f"# {key}\t{value}\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")

    if hasattr(path_or_stream, "write"):
        _emit(path_or_stream)
    else:
        with open(path_or_stream, "w", encoding="utf-8", newline="\n") as fh:
            _emit(fh)


def read_report(path: Path) -> tuple[dict[str, str], list[list[str]]]:
    """Parse a report back into its metadata dict and raw TSV rows."""
    meta: dict[str, str] = {}
    rows: list[list[str]] = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("\t")
                meta[key] = value
                continue
            rows.append(line.split("\t"))
    return meta, rows
