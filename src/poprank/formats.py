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
           (attribute names must not contain ``=`` or ``;``)
objects    record_id <TAB> type_name <TAB> attr=value;attr=value;... [<TAB> source_page]
           (values must not contain ``;``; escaping is out of scope)
links      source_type <TAB> source_keytuple <TAB> rel_name <TAB> target_type <TAB> target_keytuple
pages      page_id [<TAB> comma-separated out-link page_ids]
page map   page_id <TAB> object_type <TAB> object_keytuple [<TAB> block_weight]
ppf        rel_name <TAB> gamma
expert     either one object reference per line (full order, best first),
           or pair lines: object_ref <TAB> > <TAB> object_ref

Every reader reads its file as bytes, in blocks of about BLOCK_BYTES
(four times that for links) cut after a line end (``_byte_blocks``). A
block that holds a CR has its CRLF and CR turned into LF; a block that is
not pure ASCII is checked with one strict UTF-8 decode. A line is decoded
and checked for being data only when its first byte is whitespace, ``#``
or not ASCII; every other line is data as read.

The four corpus data files are read as columns, no field decoded:
``read_objects`` returns a RecordTable, ``read_links`` a LinkTable (see
objects), ``read_pages`` the interned page ids, each id's page number and
the out-links' page numbers, and ``read_page_map`` page ids and refs as
newline-ended bytes with block weights. ``_field_cuts`` finds each line's
TABs and newline; each reader flags its bad lines with one mask over the
block and raises the error of the first flagged line, the error a
line-by-line reader raises first. ``_kernels.SpanInterner`` interns fields
as bytes; the other readers decode their lines (``_data_lines``). The
writers take what the readers return, but ``write_pages`` takes (page id,
out-link ids) rows.

Reports are TSV rows preceded by a ``#``-prefixed metadata block of
``# key <TAB> value`` lines; scores are written with full round-trip
precision so reports parse back losslessly.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator, Sequence
from itertools import islice
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import FormatError, PopRankError
from .objects import LinkTable, ObjectTypeSchema, RecordTable

# bytes per block of the block readers; a block's arrays are a few times
# its size, so this bounds the parse's memory
BLOCK_BYTES = 1 << 18
REPORT_CHUNK_ROWS = 1 << 10  # report rows built and written at a time (more raised peak RSS)

_TAB, _NEWLINE, _COMMA, _SEMICOLON, _EQUALS = (ord(c) for c in "\t\n,;=")


def _raw_blocks(path: Path, size: int) -> Iterator[bytes]:
    """Consecutive blocks of about ``size`` bytes of the file, each cut
    after a line end: a LF, or a CR not followed by one; a last line
    without one gets a LF, and a line longer than ``size`` is joined once.
    A CR that ends a chunk is read with the byte after it, so a CRLF stays
    whole."""
    with open(path, "rb") as fh:
        pieces = []  # pieces of a line that spans blocks
        while chunk := fh.read(size):
            if chunk.endswith(b"\r"):
                chunk += fh.read(1)
            cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, len(chunk) - 1)) + 1
            if not cut:
                pieces.append(chunk)
                continue
            yield b"".join((*pieces, chunk[:cut]))
            pieces = [chunk[cut:]]
        if tail := b"".join(pieces):
            yield tail + b"\n"


def _is_data(line: str) -> bool:
    return bool(line.strip()) and not line.lstrip().startswith("#")


# the first bytes of a line that is decoded and checked with _is_data:
# ASCII whitespace (blank, empty or indented lines), '#' and every byte
# that is not ASCII (Unicode whitespace, say); a line starting with any
# other byte is data
_CHECKED_START = np.zeros(256, bool)
_CHECKED_START[[i for i in range(128) if chr(i).isspace() or chr(i) == "#"]] = True
_CHECKED_START[128:] = True


def _byte_blocks(path: Path, size: int = BLOCK_BYTES) -> Iterator[tuple[Sequence[int], bytes]]:
    """(line numbers, data lines) for consecutive blocks of about ``size``
    bytes of the file: the data lines as UTF-8 bytes, each followed by a
    newline, with CRLF and CR read as LF. A line that is not UTF-8 raises
    FormatError after the data lines before it have been yielded."""
    lineno = 1
    for block in _raw_blocks(path, size):
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        bad = None
        if not block.isascii():
            try:
                block.decode("utf-8")
            except UnicodeDecodeError as err:  # keep the lines before the bad one
                block = block[:block.rfind(b"\n", 0, err.start) + 1]
                bad = lineno + block.count(b"\n")
        buf = np.frombuffer(block, np.uint8)
        starts, ends = _kernels.line_spans(buf)
        keep = np.ones(len(starts), bool)
        checked = np.flatnonzero(_CHECKED_START[buf[starts]])
        keep[checked] = [_is_data(block[a:b].decode("utf-8"))
                         for a, b in zip(starts[checked].tolist(), ends[checked].tolist())]
        if keep.all():
            yield range(lineno, lineno + len(starts)), block
        else:
            yield (np.flatnonzero(keep) + lineno,
                   _kernels.join_spans(buf, starts[keep], ends[keep]).tobytes())
        if bad is not None:
            _fail(path, bad, "not valid UTF-8")
        lineno += len(starts)


def _data_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, line) for each data line of the file, decoded."""
    for numbers, data in _byte_blocks(path):
        # the data ends with a newline, so the split's last item is dropped
        yield from zip(numbers, data.decode("utf-8").split("\n"))


def _fail(path: Path, lineno: int, message: str):
    raise FormatError(f"{path}:{lineno}: {message}")


def _field_cuts(data: bytes, most: int) -> tuple[np.ndarray, np.ndarray]:
    """Each newline-ended line's TAB count, and the ``(lines, most + 1)``
    int64 table of its first ``most`` TAB offsets and then its newline's;
    a TAB the line lacks reads as its newline. When every line has
    ``most`` TABs, the table is the separators' offsets, reshaped."""
    buf = np.frombuffer(data, np.uint8)
    cuts = np.flatnonzero((buf == _TAB) | (buf == _NEWLINE))
    ends = np.flatnonzero(buf[cuts] == _NEWLINE)  # each line's newline, among the cuts
    counts = np.diff(ends, prepend=-1) - 1
    if np.all(counts == most):
        return counts, cuts.reshape(-1, most + 1)
    columns = np.minimum((ends - counts)[:, None] + np.arange(most + 1), ends[:, None])
    columns[:, most] = ends
    return counts, cuts[columns]


def _line_starts(cuts: np.ndarray) -> np.ndarray:
    """The offset of each line of a ``_field_cuts`` table: one past the newline before it."""
    return np.append(0, cuts[:-1, -1] + 1)[:len(cuts)]


def _check(path: Path, numbers: Sequence[int], bad: np.ndarray, error) -> None:
    """Raise ``error(i)`` for the first line i of a block that ``bad`` flags."""
    if bad.any():
        i = int(np.argmax(bad))
        _fail(path, numbers[i], error(i))


def _pieces(buf: np.ndarray, sep: int, starts: np.ndarray, ends: np.ndarray):
    """The pieces, cut at each byte ``sep``, of the fields ``[starts[i],
    ends[i])`` of a uint8 array, one field per line, in line order (an
    empty field has none): each piece's start, end and line."""
    cuts = np.flatnonzero(buf == sep)
    # a cut is inside a field when it is not before the start of the first field ending after it
    cuts = cuts[cuts >= np.append(starts, len(buf))[np.searchsorted(ends, cuts)]]
    filled = ends > starts
    # each is two sorted runs, which a stable sort merges
    piece_starts = np.sort(np.concatenate((starts[filled], cuts + 1)), kind="stable")
    piece_ends = np.sort(np.concatenate((ends[filled], cuts)), kind="stable")
    return piece_starts, piece_ends, np.searchsorted(ends, piece_starts)


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
    """The objects file as a RecordTable, streamed block by block; no
    object is built per line. The optional source page field is checked
    for the field count but not kept.

    In each block, numpy finds every line's fields, the ``;``-separated
    segments of its third field and the first ``=`` of each segment; then
    type names, attribute names and values are interned as bytes
    (``_kernels.SpanInterner``) and record ids are kept as bytes.
    """
    types, attributes, values = (_kernels.SpanInterner() for _ in range(3))
    record_ids, type_ids, segments = [], [np.empty(0, np.int64)], [np.empty((0, 3), np.int64)]
    num_records = 0
    for numbers, data in _byte_blocks(path):
        buf = np.frombuffer(data, np.uint8)
        line_starts, (type_starts, type_ends), (starts, equals, ends, lines, attribute_ids) = \
            _object_spans(path, numbers, data, attributes)
        record_ids.append(_kernels.join_spans(buf, line_starts, type_starts - 1))
        type_ids.append(types.intern(data, type_starts, type_ends))
        segments.append(np.column_stack(
            (num_records + lines, attribute_ids, values.intern(data, equals + 1, ends))))
        num_records += len(line_starts)
    return RecordTable(np.concatenate([np.empty(0, np.uint8), *record_ids]).tobytes(),
                       types.values(), np.concatenate(type_ids), attributes.values(),
                       values.data(), np.concatenate(segments))


def _object_spans(path: Path, numbers: Sequence[int], data: bytes,
                  attributes: _kernels.SpanInterner):
    """The spans of a block of objects data lines, after checking them: each
    line's start, its type's ``(start, end)``, and each attribute
    segment's ``(start, '=' offset, end, line, attribute id)``, the ids
    interned by ``attributes``."""
    buf = np.frombuffer(data, np.uint8)
    counts, cuts = _field_cuts(data, 3)
    type_starts, type_ends = cuts[:, 0] + 1, cuts[:, 1]
    # the segments of a third field that is not empty: it is cut at each ';'
    starts, ends, lines = _pieces(buf, _SEMICOLON, type_ends + 1, cuts[:, 2])
    # the first '=' of each segment, which must follow a non-empty name
    equals = np.append(np.flatnonzero(buf == _EQUALS), len(buf))
    equals = equals[np.searchsorted(equals, starts)]
    malformed = (equals == starts) | (equals >= ends)
    well = np.flatnonzero(~malformed)
    ids = np.full(len(starts), -1)
    ids[well] = attributes.intern(data, starts[well], equals[well])
    # a name given twice on a line: a repeat in line order (a stable sort,
    # fast here, as the keys are sorted by line)
    key = lines[well] * len(attributes) + ids[well]
    order = np.argsort(key, kind="stable")
    twice = np.zeros(len(starts), bool)
    twice[well[order[1:][key[order[1:]] == key[order[:-1]]]]] = True
    errors = malformed | twice
    miscounted = (counts < 2) | (counts > 3)

    def error(line: int) -> str:
        if miscounted[line]:
            return f"expected 3 or 4 fields, got {counts[line] + 1}"
        i = int(np.argmax(errors))  # the lines before have no bad segment
        segment = data[starts[i]:ends[i]].decode("utf-8")
        return (f"bad attribute segment {segment!r}" if malformed[i]
                else f"attribute {segment.partition('=')[0]!r} given twice")

    bad = miscounted | (np.bincount(lines[errors], minlength=len(counts)) > 0)
    _check(path, numbers, bad, error)
    return _line_starts(cuts), (type_starts, type_ends), (starts, equals, ends, lines, ids)


def write_objects(path: Path, records: RecordTable) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record_id, type_name, values in records.rows():
            for attr, value in values.items():
                if "\t" in value or ";" in value:
                    raise FormatError(
                        f"record {record_id!r}: value for {attr!r} contains TAB or ';'"
                    )
            attrs = ";".join(f"{a}={v}" for a, v in values.items())
            fh.write(f"{record_id}\t{type_name}\t{attrs}\n")


def read_links(path: Path) -> LinkTable:
    """The links file as a LinkTable, streamed block by block; no object
    is built per line.

    Each block's lines are checked for their 5 fields, then interned as
    bytes (``_kernels.SpanInterner``): the ``type<TAB>key`` references, source
    before target in line order, and the relationship names. A line's
    triple is its relationship with the types of its two references.
    """
    refs, rels, types = (_kernels.SpanInterner() for _ in range(3))
    ref_types = np.empty(1 << 10, np.int64)  # per ref, the id of its type (room to grow)
    triples: dict[tuple[int, int, int], int] = {}
    codes, src, tgt = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    # larger blocks: a links line holds fewer spans per byte than an objects
    # or pages line, and the links are parsed in the worker, whose memory
    # stays below the calling process's (at 200k, 1.85 s against 2.3 s with
    # BLOCK_BYTES, the per-block work being the difference)
    for numbers, text in _byte_blocks(path, 4 * BLOCK_BYTES):
        counts, cuts = _field_cuts(text, 4)
        _check(path, numbers, counts != 4, lambda i: f"expected 5 fields, got {counts[i] + 1}")
        line_starts = _line_starts(cuts)
        # the source and target references, interleaved
        starts = np.column_stack((line_starts, cuts[:, 2] + 1)).ravel()
        known = len(refs)
        ids = refs.intern(text, starts, np.column_stack((cuts[:, 1], cuts[:, 4])).ravel())
        first = _kernels.first_appearances(ids, known)  # where each new ref first appears
        type_ends = np.column_stack((cuts[:, 0], cuts[:, 3])).ravel()
        ref_types = _kernels.room(ref_types, len(refs), known)
        ref_types[known:len(refs)] = types.intern(text, starts[first], type_ends[first])
        rel = rels.intern(text, cuts[:, 1] + 1, cuts[:, 2])
        source_type, target_type = ref_types[ids[0::2]], ref_types[ids[1::2]]
        # the distinct (rel, source type, target type) of the block, by first line
        _, _, type_pair = _kernels.unique_first(source_type * len(types) + target_type)
        _, first_line, line_key = _kernels.unique_first(rel * len(cuts) + type_pair)
        order = np.argsort(first_line)
        lines = first_line[order]
        keys = zip(rel[lines].tolist(), source_type[lines].tolist(), target_type[lines].tolist())
        code_of_key = np.empty(len(order), np.int64)
        code_of_key[order] = [triples.setdefault(key, len(triples)) for key in keys]
        codes.append(code_of_key[line_key])
        src.append(ids[0::2])
        tgt.append(ids[1::2])
    rel_names, type_names = rels.values(), types.values()
    return LinkTable([(rel_names[r], type_names[s], type_names[t]) for r, s, t in triples],
                     np.concatenate(codes), refs.data(), np.concatenate(src), np.concatenate(tgt))


def write_links(path: Path, links: LinkTable) -> None:
    """One line ``refs[src] TAB rel_name TAB refs[tgt]`` per row; a ref is
    already the type and key columns."""
    refs = links.refs.decode("utf-8").split("\n")
    rel_names = [rel_name for rel_name, _, _ in links.triples]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for code, src, tgt in zip(links.codes.tolist(), links.src.tolist(), links.tgt.tolist()):
            fh.write(f"{refs[src]}\t{rel_names[code]}\t{refs[tgt]}\n")


# the bytes of an out-link that str.strip may remove: ASCII blanks but TAB
# and newline, and every byte that is not ASCII (Unicode whitespace, say)
_STRIPPED = np.zeros(256, bool)
_STRIPPED[[i for i in range(128) if chr(i).isspace() and chr(i) not in "\t\n"]] = True
_STRIPPED[128:] = True


def _out_links(data: bytes, starts: np.ndarray, ends: np.ndarray):
    """``data`` and the ``(start, end, line)`` of each out-link in the
    target fields ``[starts[i], ends[i])`` of its pages lines, as
    ``_split_csv`` reads them: cut at each comma, stripped, and without
    the empty ones. An out-link that holds a byte of ``_STRIPPED`` is
    stripped as text, and its bytes are appended to ``data``."""
    buf = np.frombuffer(data, np.uint8)
    starts, ends, lines = _pieces(buf, _COMMA, starts, ends)
    odd = _STRIPPED[buf]
    if odd.any():
        before = np.concatenate(([0], np.cumsum(odd)))
        odd = np.flatnonzero(before[ends] > before[starts])
        texts = [data[a:b].decode("utf-8").strip().encode("utf-8")
                 for a, b in zip(starts[odd].tolist(), ends[odd].tolist())]
        sizes = np.array([len(text) for text in texts], np.int64)
        starts[odd] = len(data) + np.cumsum(sizes) - sizes
        ends[odd] = starts[odd] + sizes
        data += b"".join(texts)
    kept = ends > starts
    return data, (starts[kept], ends[kept], lines[kept])


def read_pages(path: Path) -> tuple[_kernels.SpanInterner, np.ndarray, np.ndarray, np.ndarray]:
    """The interned page ids and the int64 page number of each id, then the
    int64 (source, target) page numbers of each out-link, in file order.
    Listed pages are numbered in line order, and pages known only as link
    targets after them, in order of first appearance. Duplicate rows for a
    page are an error; a missing or empty second field means no out-links.

    Each block's lines are checked for their fields, then interned as
    bytes (``_kernels.SpanInterner``): the block's listed page ids, then its
    out-links; the numbering above is applied once the file is read.
    """
    pages = _kernels.SpanInterner()
    listed = np.zeros(0, bool)  # per id, whether the page has a line
    rows, src, tgt = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    num_rows = 0
    for numbers, data in _byte_blocks(path):
        counts, cuts = _field_cuts(data, 1)
        line_starts, id_ends = _line_starts(cuts), cuts[:, 0]
        data, (starts, ends, lines) = _out_links(data, id_ends + 1, cuts[:, 1])
        ids = pages.intern(data, np.concatenate((line_starts, starts)),
                           np.concatenate((id_ends, ends)))
        row_ids = ids[:len(line_starts)]
        listed = np.concatenate((listed, np.zeros(len(pages) - len(listed), bool)))
        repeated = np.ones(len(row_ids), bool)  # but for a page's first line in the block
        repeated[_kernels.unique_first(row_ids)[1]] = False
        repeated |= listed[row_ids]
        empty = id_ends == line_starts

        def error(i: int) -> str:
            if counts[i] > 1:
                return f"expected 1 or 2 fields, got {counts[i] + 1}"
            page_id = data[line_starts[i]:id_ends[i]].decode("utf-8")
            return "empty page id" if empty[i] else f"page {page_id!r} listed twice"

        _check(path, numbers, (counts > 1) | empty | repeated, error)
        listed[row_ids] = True
        src.append(num_rows + lines)
        rows.append(row_ids)
        num_rows += len(row_ids)
        tgt.append(ids[len(row_ids):])
    rows = np.concatenate(rows)
    others = np.flatnonzero(~listed)
    number = np.empty(len(pages), np.int64)
    number[rows] = np.arange(len(rows))
    number[others] = np.arange(len(rows), len(pages))
    return pages, number, np.concatenate(src), number[np.concatenate(tgt)]


def write_pages(path: Path, rows: Iterable[tuple[str, Sequence[str]]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for page_id, targets in rows:
            if targets:
                fh.write(f"{page_id}\t{','.join(targets)}\n")
            else:
                fh.write(f"{page_id}\n")


def read_page_map(path: Path) -> tuple[bytes, bytes, np.ndarray]:
    """The page ids and object refs of the data lines, each as UTF-8 bytes
    and a newline, and their float64 block weights (1.0 when absent or
    empty)."""
    page_ids, refs, weights = [], [], [np.empty(0)]
    for numbers, data in _byte_blocks(path):
        buf = np.frombuffer(data, np.uint8)
        counts, cuts = _field_cuts(data, 3)
        starts = _line_starts(cuts)
        texts = _kernels.join_spans(buf, np.minimum(cuts[:, 2] + 1, cuts[:, 3]), cuts[:, 3])
        block = np.array([_weight(w) for w in texts.tobytes().decode("utf-8").split("\n")[:-1]])
        empty = ((cuts[:, 0] == starts) | (cuts[:, 1] == cuts[:, 0] + 1)
                 | (cuts[:, 2] == cuts[:, 1] + 1))  # page id, type or key
        bad = (counts < 2) | (counts > 3) | empty | ~((block >= 0.0) & (block < np.inf))
        _check(path, numbers, bad,
               lambda i: _page_map_error(data[starts[i]:cuts[i, 3]].decode("utf-8")))
        page_ids.append(_kernels.join_spans(buf, starts, cuts[:, 0]).tobytes())
        refs.append(_kernels.join_spans(buf, cuts[:, 0] + 1, cuts[:, 2]).tobytes())
        weights.append(block)
    return b"".join(page_ids), b"".join(refs), np.concatenate(weights)


def _weight(text: str) -> float:
    """The block weight a page map line gives: 1.0 when empty, NaN when not a number."""
    try:
        return float(text or 1)
    except ValueError:
        return np.nan


def _page_map_error(line: str) -> str | None:
    """The error of a page map line, or None for a well-formed one."""
    fields = line.split("\t")
    if len(fields) not in (3, 4):
        return f"expected 3 or 4 fields, got {len(fields)}"
    if not fields[0]:
        return "empty page id"
    if len(fields) == 4 and fields[3] != "":
        try:
            weight = float(fields[3])
        except ValueError:
            return f"bad block weight {fields[3]!r}"
        if not 0.0 <= weight < np.inf:
            return f"block weight must be finite and non-negative, got {weight}"
    return None if fields[1] and fields[2] else "empty object type or key"


def write_page_map(path: Path, columns: tuple[bytes, bytes, np.ndarray]) -> None:
    """One line ``page_id TAB ref TAB weight`` per row of read_page_map's columns."""
    page_ids, refs = (column.decode("utf-8").split("\n") for column in columns[:2])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{page_id}\t{ref}\t{weight!r}\n" for page_id, ref, weight
                      in zip(page_ids, refs, np.asarray(columns[2]).tolist()))


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
    lines: Collection[str],
) -> None:
    """Write a ``#``-headed metadata block followed by TSV data rows, each
    given as one line of TAB-separated fields without its newline; the
    rows are taken and written REPORT_CHUNK_ROWS at a time."""

    def _emit(fh):
        fh.write("".join(f"# {key}\t{value}\n" for key, value in meta))
        rows = iter(lines)
        while chunk := list(islice(rows, REPORT_CHUNK_ROWS)):
            fh.write("\n".join(chunk) + "\n")

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
