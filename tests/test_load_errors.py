"""Load errors: which of several faults is reported, and how errors from
the parse workers reach the caller."""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from poprank import FormatError, formats
from poprank.cli import main
from poprank.corpus import CorpusPaths, load_corpus

BASE = {
    "schemas": "paper\ttitle\ttitle\n",
    "objects": "r1\tpaper\ttitle=A\nr2\tpaper\ttitle=B\n",
    "links": "paper\tA\tcites\tpaper\tB\n",
    "pages": "p1\tp2\np2\tp1\n",
    "page_object_map": "p1\tpaper\tA\t1.0\np2\tpaper\tB\n",
}


def corpus_dir(d: Path, **faults: str) -> Path:
    """A small valid corpus in d, with the given files' texts replaced."""
    d.mkdir(parents=True, exist_ok=True)
    for name, text in {**BASE, **faults}.items():
        (d / f"{name}.tsv").write_text(text)
    return d


def ingest_error(capsys, d: Path, *flags: str) -> str:
    """The stderr of a failing ``ingest``, which must exit 2 and print nothing else."""
    assert main(["ingest", str(d), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize("faults, flags, expected", [
    ({"objects": "r1\tpaper\n", "links": "paper\tA\n"}, (),
     "{d}/objects.tsv:1: expected 3 or 4 fields, got 2"),
    ({"objects": "r1\tpaper\ttitle=A\nr2\tbook\ttitle=B\n", "links": "paper\tA\n"}, (),
     "record 'r2': unregistered type 'book'"),
    ({"links": "paper\tA\tcites\n", "pages": "p1\tp2\tp3\n"}, (),
     "{d}/links.tsv:1: expected 5 fields, got 3"),
    ({"links": "paper\tA\tcites\tpaper\tZ\n", "page_object_map": "p1\tpaper\n"}, ("--strict",),
     "cites: unresolved target 'Z'"),
    ({"pages": "p1\np1\n", "page_object_map": "p1\tpaper\tA\tx\n"}, (),
     "{d}/pages.tsv:2: page 'p1' listed twice"),
], ids=["objects-then-links", "merge-then-links", "links-then-pages",
        "strict-link-then-map", "pages-then-map"])
def test_first_fault_in_load_order_is_reported(tmp_path, capsys, faults, flags, expected):
    """With two faulty files, the error is the one a load that reads the
    files one after the other meets first."""
    d = corpus_dir(tmp_path / "c", **faults)
    assert ingest_error(capsys, d, *flags) == f"error: {expected.format(d=d)}\n"


@pytest.mark.parametrize("name", list(BASE))
def test_non_utf8_byte_exits_2_naming_file_and_line(tmp_path, capsys, name):
    d = corpus_dir(tmp_path / "c")
    path = d / f"{name}.tsv"
    text = path.read_bytes()
    first_line_end = text.index(b"\n") + 1
    path.write_bytes(text[:first_line_end] + b"\xff" + text[first_line_end:])
    assert ingest_error(capsys, d) == f"error: {path}:2: not valid UTF-8\n"


def test_errors_raised_in_a_worker_keep_type_and_message(tmp_path, monkeypatch, capsys):
    d = corpus_dir(tmp_path / "c")

    def unreadable(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(formats, "read_links", unreadable)
    with pytest.raises(PermissionError) as raised:
        load_corpus(CorpusPaths.in_dir(d))
    assert type(raised.value) is PermissionError
    assert str(raised.value) == f"[Errno 13] Permission denied: '{d / 'links.tsv'}'"
    assert ingest_error(capsys, d) == f"error: [Errno 13] Permission denied: '{d / 'links.tsv'}'\n"

    def malformed(path):
        raise FormatError(f"{path}:7: expected 5 fields, got 1")

    monkeypatch.setattr(formats, "read_links", malformed)
    with pytest.raises(FormatError) as raised:
        load_corpus(CorpusPaths.in_dir(d))
    assert type(raised.value) is FormatError
    assert str(raised.value) == f"{d / 'links.tsv'}:7: expected 5 fields, got 1"
    assert ingest_error(capsys, d) == f"error: {d / 'links.tsv'}:7: expected 5 fields, got 1\n"


def test_bad_objects_does_not_wait_for_the_links_parse(tmp_path, monkeypatch):
    """The links parse still running when objects.tsv fails is stopped,
    not waited for (the autouse fixture checks no worker is left)."""
    real = formats.read_links

    def slow(path):
        time.sleep(60)
        return real(path)

    monkeypatch.setattr(formats, "read_links", slow)
    d = corpus_dir(tmp_path / "c", objects="r1\tpaper\n")
    start = time.monotonic()
    with pytest.raises(FormatError, match=r"objects\.tsv:1: expected 3 or 4 fields"):
        load_corpus(CorpusPaths.in_dir(d))
    assert time.monotonic() - start < 10
