"""Whole-CLI mutation fuzz: all five commands on seeded mutations of two
small corpora (test_digests' dirty and edge-case corpora).

A mutation changes one of the five corpus files: a flipped bit, a dropped
or repeated line, a field replaced by NUL, ``nan``, ``1e309`` or a byte
that is not UTF-8, or a truncation of one line or of the file. On every mutated corpus each command
must exit 0, 2 or 3; exit 2 means exactly one ``error:`` line and no
traceback or report; an exit-0 report's scores are finite and sum to 1.
Each command runs with the links file parsed in this process; on each
corpus one command, taken in turn, runs again with the links file parsed
in a forked worker, and must print the same bytes and exit with the same
code (a fork costs more than the rest of a run on these corpora).
"""

from __future__ import annotations

import math
import random
import shutil
from pathlib import Path

from poprank import corpus
from poprank.cli import main
from test_digests import write_dirty_corpus, write_edge_corpus

SEED = 2005
MUTATIONS = 60
FILES = ["schemas.tsv", "objects.tsv", "links.tsv", "pages.tsv", "page_object_map.tsv"]
FIELD_VALUES = [b"\x00", b"nan", b"1e309", b"\xff"]
COMMANDS = {
    "ingest": [],
    "rank": ["--ppf", "gamma.tsv"],
    "compare": ["--ppf", "gamma.tsv"],
    "simulate": ["--ppf", "gamma.tsv", "--steps", "2000", "--seed", "3"],
    "learn": ["--expert", "expert.tsv", "--grid-resolution", "2", "--refine-iters", "3"],
}
# report columns that hold a distribution over the objects, per command
DISTRIBUTIONS = {"rank": [3], "compare": [2, 4], "simulate": [3, 4]}


def mutate(data: bytes, rng: random.Random, kind: str) -> bytes:
    """``data`` with one mutation of the given kind."""
    if not data:
        return data
    lines = data.split(b"\n")
    line = rng.randrange(len(lines))
    if kind == "flip":
        at = rng.randrange(len(data))
        return data[:at] + bytes([data[at] ^ (1 << rng.randrange(8))]) + data[at + 1:]
    if kind == "drop":
        del lines[line]
    elif kind == "repeat":
        lines.insert(line, lines[line])
    elif kind == "field":
        fields = lines[line].split(b"\t")
        fields[rng.randrange(len(fields))] = rng.choice(FIELD_VALUES)
        lines[line] = b"\t".join(fields)
    elif kind == "cut":
        lines[line] = lines[line][:rng.randrange(len(lines[line]) + 1)]
    else:
        return data[:rng.randrange(len(data))]
    return b"\n".join(lines)


def mutated_corpora(tmp_path: Path):
    """(label, directory) of each base corpus, then of MUTATIONS mutated
    copies; every kind of mutation meets every file of both corpora."""
    bases = [write_dirty_corpus(tmp_path / "dirty"), write_edge_corpus(tmp_path / "edge")]
    yield from ((base.name, base) for base in bases)
    rng = random.Random(SEED)
    kinds = ["flip", "drop", "repeat", "field", "cut", "truncate"]
    for i in range(MUTATIONS):
        kind, name = kinds[i % len(kinds)], FILES[i // len(kinds) % len(FILES)]
        base = bases[i // len(kinds) % len(bases)]
        d = shutil.copytree(base, tmp_path / f"m{i}")
        (d / name).write_bytes(mutate((d / name).read_bytes(), rng, kind))
        yield f"{base.name}:{kind}:{name}", d


def run(capsys, monkeypatch, d: Path, command: str, forked: bool) -> tuple[int, str, str]:
    monkeypatch.setattr(corpus, "_fork_links", lambda path: forked)
    args = [str(d / a) if a.endswith(".tsv") else a for a in COMMANDS[command]]
    code = main([command, str(d), *args])
    out, err = capsys.readouterr()
    return code, out, err


def check(label: str, command: str, code: int, out: str, err: str) -> None:
    where = f"{label} {command}"
    assert code in (0, 2, 3), where
    assert "Traceback" not in err, where
    if code == 2:
        assert out == "", where
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            err.splitlines()[-1]], where
    if code == 0:
        rows = [line.split("\t") for line in out.splitlines() if not line.startswith("#")]
        for column in DISTRIBUTIONS.get(command, []):
            scores = [float(row[column]) for row in rows]
            assert all(math.isfinite(s) and s >= 0.0 for s in scores), where
            assert abs(sum(scores) - 1.0) < 1e-9, where


def test_every_command_on_mutated_corpora(tmp_path, capsys, monkeypatch):
    exits = {}
    for i, (label, d) in enumerate(mutated_corpora(tmp_path)):
        for j, command in enumerate(COMMANDS):
            here = run(capsys, monkeypatch, d, command, forked=False)
            check(label, command, *here)
            if j == i % len(COMMANDS):
                assert run(capsys, monkeypatch, d, command, forked=True) == here, (label, command)
            exits[label, command] = here[0]
    # the bases are valid, so every check of a report above was made
    assert all(exits[base, command] == 0 for base in ("dirty", "edge") for command in COMMANDS)
    # mutations reach the readers' errors and also leave some corpora loadable
    assert {0, 2} <= set(exits.values())
