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

The four corpus data files are read as columns, with no object per
line: ``read_objects`` returns a RecordTable of interned ids, ``read_links``
a LinkTable of interned int64 ids (see objects), ``read_pages`` the page
ids with int64 source and target page numbers, and ``read_page_map`` the
page ids, object refs and float64 block weights. For objects, links and
pages numpy finds the separators of each block's data lines and
``_kernels.SpanInterner`` interns their fields as bytes; the other
readers decode the data lines (``_data_lines``). The writers take what
the readers return, except ``write_pages``, which takes (page id,
out-link ids) rows.

Reports are TSV rows preceded by a ``#``-prefixed metadata block of
``# key <TAB> value`` lines; scores are written with full round-trip
precision so reports parse back losslessly.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import FormatError, PopRankError
from .objects import LinkTable, ObjectTypeSchema, RecordTable

# bytes per block of the block readers; a block's arrays are a few times
# its size, so this bounds the parse's memory
BLOCK_BYTES = 1 << 18

_TAB, _NEWLINE, _COMMA, _SEMICOLON, _EQUALS = (ord(c) for c in "\t\n,;=")
_LINK_CUTS = np.array([_TAB] * 4 + [_NEWLINE], np.uint8)  # the separators of a links line


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
    """The spans of a block of objects data lines, after checking them in
    line order: each line's start, its type's ``(start, end)``, and each
    attribute segment's ``(start, '=' offset, end, line, attribute id)``,
    the ids interned by ``attributes``."""
    buf = np.frombuffer(data, np.uint8)
    line_starts, line_ends = _kernels.line_spans(buf)
    tabs = np.flatnonzero(buf == _TAB)
    counts = np.bincount(np.searchsorted(line_ends, tabs), minlength=len(line_ends))
    miscounted = (counts < 2) | (counts > 3)
    # the lines before the first with a wrong field count
    good = int(np.argmax(miscounted)) if miscounted.any() else len(line_ends)
    first = (np.cumsum(counts) - counts)[:good]  # each line's first TAB
    type_starts, type_ends = tabs[first] + 1, tabs[first + 1]
    field_ends = np.where(counts[:good] == 3, tabs[np.minimum(first + 2, len(tabs) - 1)],
                          line_ends[:good])
    # the segments of a third field that is not empty: it is cut at each ';'
    cuts = np.flatnonzero(buf == _SEMICOLON)
    cut_lines = np.searchsorted(line_ends, cuts)
    inside = cut_lines < good
    inside[inside] = ((cuts[inside] > type_ends[cut_lines[inside]])
                      & (cuts[inside] < field_ends[cut_lines[inside]]))
    cuts = cuts[inside]
    filled = field_ends > type_ends + 1
    # each is two sorted runs, which a stable sort merges
    starts = np.sort(np.concatenate((type_ends[filled] + 1, cuts + 1)), kind="stable")
    ends = np.sort(np.concatenate((field_ends[filled], cuts)), kind="stable")
    lines = np.searchsorted(line_ends, starts)
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
    if errors.any():
        i = int(np.argmax(errors))
        segment = data[starts[i]:ends[i]].decode("utf-8")
        _fail(path, numbers[lines[i]], f"bad attribute segment {segment!r}" if malformed[i]
              else f"attribute {segment.partition('=')[0]!r} given twice")
    if good < len(line_ends):
        _fail(path, numbers[good], f"expected 3 or 4 fields, got {counts[good] + 1}")
    return line_starts, (type_starts, type_ends), (starts, equals, ends, lines, ids)


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


def _link_blocks(path: Path) -> Iterator[tuple[bytes, np.ndarray]]:
    """Each block of data lines of a links file as UTF-8 bytes, with the
    ``(lines, 5)`` byte offsets of each line's four TABs and its newline,
    after checking that every line has 5 fields."""
    # larger blocks: a links line holds fewer spans per byte than an objects
    # or pages line, and the links are parsed in the worker, whose memory
    # stays below the calling process's (at 200k, 1.85 s against 2.3 s with
    # BLOCK_BYTES, the per-block work being the difference)
    for numbers, data in _byte_blocks(path, 4 * BLOCK_BYTES):
        buf = np.frombuffer(data, np.uint8)
        cuts = np.flatnonzero((buf == _TAB) | (buf == _NEWLINE))
        if len(cuts) != 5 * len(numbers) or not np.all(buf[cuts].reshape(-1, 5) == _LINK_CUTS):
            line_ends = np.flatnonzero(buf == _NEWLINE)
            tabs = np.bincount(np.searchsorted(line_ends, np.flatnonzero(buf == _TAB)),
                               minlength=len(line_ends))
            i = int(np.argmax(tabs != 4))
            _fail(path, numbers[i], f"expected 5 fields, got {tabs[i] + 1}")
        if len(numbers):
            yield data, cuts.reshape(-1, 5)


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
    for text, cuts in _link_blocks(path):
        line_starts = np.concatenate(([0], cuts[:-1, 4] + 1))
        # the source and target references, interleaved
        starts = np.column_stack((line_starts, cuts[:, 2] + 1)).ravel()
        known = len(refs)
        ids = refs.intern(text, starts, np.column_stack((cuts[:, 1], cuts[:, 4])).ravel())
        # ids are numbered by first appearance, so a new ref first appears
        # where the running maximum grows
        running = np.maximum.accumulate(np.maximum(ids, known - 1))
        first = np.flatnonzero(np.diff(running, prepend=known - 1))
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
                     np.concatenate(codes), refs.values(), np.concatenate(src), np.concatenate(tgt))


def write_links(path: Path, links: LinkTable) -> None:
    """One line ``refs[src] TAB rel_name TAB refs[tgt]`` per row; a ref is
    already the type and key columns."""
    refs, rel_names = links.refs, [rel_name for rel_name, _, _ in links.triples]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for code, src, tgt in zip(links.codes.tolist(), links.src.tolist(), links.tgt.tolist()):
            fh.write(f"{refs[src]}\t{rel_names[code]}\t{refs[tgt]}\n")


def _page_line_error(line: str) -> str:
    """The error of a pages line with an empty page id or more than 2 fields."""
    fields = line.split("\t")
    if len(fields) > 2:
        return f"expected 1 or 2 fields, got {len(fields)}"
    return "empty page id"


def _clean_page_line(line: str) -> str:
    """A pages line with its out-links written as ``_split_csv`` reads them."""
    page_id, _, targets = line.partition("\t")
    targets = ",".join(_split_csv(targets))
    return f"{page_id}\t{targets}" if targets else page_id


# the ASCII bytes that _split_csv strips from an out-link (TAB and newline
# separate fields and lines)
_BLANK = np.zeros(256, bool)
_BLANK[[ord(c) for c in map(chr, range(128)) if c.isspace() and c not in "\t\n"]] = True


def _page_spans(raw: bytes):
    """The index of the first of the pages lines ``raw`` (UTF-8, each
    followed by a newline) with an empty page id or more than 2 fields,
    or None; when there is none, also each line's page id span and each
    out-link's span and line:
    ``(ids_start, ids_end), (targets_start, targets_end, targets_line)``."""
    buf = np.frombuffer(raw, np.uint8)
    line_starts, line_ends = _kernels.line_spans(buf)
    tabs = np.flatnonzero(buf == _TAB)
    tab_lines = np.searchsorted(line_ends, tabs)
    bad = np.concatenate((tab_lines[1:][tab_lines[1:] == tab_lines[:-1]],
                          tab_lines[tabs == line_starts[tab_lines]]))
    if bad.size:
        return int(bad.min()), None
    id_ends = line_ends.copy()
    id_ends[tab_lines] = tabs
    # a line's TAB and the commas after it start its out-links
    cuts = np.flatnonzero((buf == _TAB) | (buf == _COMMA))
    cut_lines = np.searchsorted(line_ends, cuts)
    in_targets = cuts >= id_ends[cut_lines]
    cuts, cut_lines = cuts[in_targets], cut_lines[in_targets]
    ends = line_ends[cut_lines]
    same_line = cut_lines[1:] == cut_lines[:-1]
    ends[:-1][same_line] = cuts[1:][same_line]
    return None, ((line_starts, id_ends), (cuts + 1, ends, cut_lines))


def _page_block(raw: bytes):
    """The lines of a block of pages data lines (UTF-8, each followed by a
    newline) before the first one with an empty page id or more than 2
    fields, with their out-links as ``_split_csv`` reads them; that line's
    index and error, or None; and the lines' spans (see _page_spans)."""
    bad, spans = _page_spans(raw)
    if bad is not None:
        line_starts, line_ends = _kernels.line_spans(np.frombuffer(raw, np.uint8))
        start = int(line_starts[bad])
        bad = bad, _page_line_error(raw[start:line_ends[bad]].decode("utf-8"))
        raw = raw[:start]
        _, spans = _page_spans(raw)
    _, (starts, ends, _) = spans
    if not raw.isascii() or _BLANK[np.frombuffer(raw, np.uint8)].any() or (ends == starts).any():
        lines = raw.decode("utf-8").split("\n")[:-1]
        raw = "".join(_clean_page_line(line) + "\n" for line in lines).encode("utf-8")
        _, spans = _page_spans(raw)
    return raw, bad, spans


def read_pages(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Every page id, then the int64 (source, target) page numbers of each
    out-link, in file order. Listed pages are numbered in line order, and
    pages known only as link targets after them, in order of first
    appearance. Duplicate rows for a page are an error; a missing or
    empty second field means no out-links.

    Each block's lines are checked for their fields, then interned as
    bytes (``_kernels.SpanInterner``): the block's listed page ids, then its
    out-links; the numbering above is applied once the file is read.
    """
    pages = _kernels.SpanInterner()
    listed = np.zeros(0, bool)  # per id, whether the page has a line
    rows, src, tgt = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    num_rows = 0
    for numbers, data in _byte_blocks(path):
        raw, bad, ((id_starts, id_ends), (starts, ends, lines)) = _page_block(data)
        ids = pages.intern(raw, np.concatenate((id_starts, starts)), np.concatenate((id_ends, ends)))
        row_ids = ids[:len(id_starts)]
        listed = np.concatenate((listed, np.zeros(len(pages) - len(listed), bool)))
        repeated = np.ones(len(row_ids), bool)  # but for a page's first line in the block
        repeated[_kernels.unique_first(row_ids)[1]] = False
        repeated |= listed[row_ids]
        if repeated.any():
            i = int(np.argmax(repeated))
            page_id = raw[id_starts[i]:id_ends[i]].decode("utf-8")
            _fail(path, numbers[i], f"page {page_id!r} listed twice")
        if bad is not None:
            _fail(path, numbers[bad[0]], bad[1])
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
    values = pages.values()
    page_ids = [values[i] for i in np.concatenate((rows, others)).tolist()]
    return page_ids, np.concatenate(src), number[np.concatenate(tgt)]


def write_pages(path: Path, rows: Iterable[tuple[str, Sequence[str]]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for page_id, targets in rows:
            if targets:
                fh.write(f"{page_id}\t{','.join(targets)}\n")
            else:
                fh.write(f"{page_id}\n")


def read_page_map(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """The page ids, object refs and float64 block weights of the data
    lines, as three columns; an absent or empty weight reads as 1.0."""
    page_ids, refs, weights = [], [], []
    for lineno, line in _data_lines(path):
        fields = line.split("\t")
        if len(fields) not in (3, 4):
            _fail(path, lineno, f"expected 3 or 4 fields, got {len(fields)}")
        weight = 1.0
        if len(fields) == 4 and fields[3] != "":
            try:
                weight = float(fields[3])
            except ValueError:
                _fail(path, lineno, f"bad block weight {fields[3]!r}")
            if not 0.0 <= weight < np.inf:
                _fail(path, lineno, f"block weight must be finite and non-negative, got {weight}")
        if not fields[1] or not fields[2]:
            _fail(path, lineno, "empty object type or key")
        page_ids.append(fields[0])
        refs.append(f"{fields[1]}\t{fields[2]}")
        weights.append(weight)
    return page_ids, refs, np.array(weights, np.float64)


def write_page_map(path: Path, columns: tuple[Sequence[str], Sequence[str], np.ndarray]) -> None:
    """One line ``page_id TAB ref TAB weight`` per row of read_page_map's columns."""
    page_ids, refs, weights = columns
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{page_id}\t{ref}\t{weight!r}\n"
                      for page_id, ref, weight in zip(page_ids, refs, np.asarray(weights).tolist()))


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
    lines: Sequence[str],
) -> None:
    """Write a ``#``-headed metadata block followed by TSV data rows, each
    given as one line of TAB-separated fields without its newline; the
    rows are written with one call."""

    def _emit(fh):
        fh.write("".join(f"# {key}\t{value}\n" for key, value in meta))
        if lines:
            fh.write("\n".join(lines) + "\n")

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
