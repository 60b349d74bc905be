"""CLI output pinned by sha256 digests on a seeded, dirty, multi-type corpus.

The corpus has duplicate records with conflicting attributes, duplicate
and unresolvable links, duplicate hyperlinks, pages known only as link
targets and map entries naming unknown pages and objects. It is written
from a fixed linear congruential generator, so it does not depend on any
library's random streams. The digests were recorded before the edge sets
became int64 arrays; any change to a report byte or to a ``diag`` line
shows up here.
"""

from __future__ import annotations

import hashlib

import pytest

from poprank.cli import main


def _lcg(seed: int):
    state = seed
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        yield state >> 33


def _shuffled(items: list, draw) -> list:
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = next(draw) % (i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def write_dirty_corpus(d):
    """40 papers, 20 authors, 3 relationship types, 30 listed pages."""
    draw = _lcg(2024)
    d.mkdir()
    (d / "schemas.tsv").write_text("paper\ttitle,year,venue\ttitle\nauthor\tname,affiliation\tname\n")

    records = [f"p{i}\tpaper\ttitle=P{i};year={1990 + i % 25};venue=V{i % 4}" for i in range(40)]
    records += [f"a{i}\tauthor\tname=A{i};affiliation=U{i % 3}" for i in range(20)]
    for j in range(8):  # duplicates: half conflict on venue, half fill in nothing new
        k = next(draw) % 40
        venue = f"V{k % 4}" if j % 2 else f"W{j}"
        records.append(f"dp{j}\tpaper\ttitle=P{k};venue={venue}")
    for j in range(4):
        k = next(draw) % 20
        records.append(f"da{j}\tauthor\tname=A{k};affiliation=X{j}")
    (d / "objects.tsv").write_text("".join(r + "\n" for r in _shuffled(records, draw)))

    links = [f"paper\tP{next(draw) % 40}\tcites\tpaper\tP{next(draw) % 40}" for _ in range(120)]
    links += [f"paper\tP{next(draw) % 40}\tby\tauthor\tA{next(draw) % 20}" for _ in range(60)]
    links += [f"author\tA{next(draw) % 20}\tcoauthor\tauthor\tA{next(draw) % 20}" for _ in range(30)]
    links += [links[next(draw) % len(links)] for _ in range(15)]
    links += ["paper\tP99\tcites\tpaper\tP1", "paper\tP2\tcites\tpaper\tP77",
              "paper\tP3\tby\tauthor\tA50", "author\tA60\tcoauthor\tauthor\tA1"]
    (d / "links.tsv").write_text("".join(line + "\n" for line in _shuffled(links, draw)))

    pages = []
    for i in range(30):
        targets = [f"pg{next(draw) % 35}" for _ in range(next(draw) % 5)]
        if i % 7 == 0 and targets:
            targets.append(targets[0])
        pages.append(f"pg{i}\t{','.join(targets)}" if targets else f"pg{i}")
    (d / "pages.tsv").write_text("".join(p + "\n" for p in pages))

    entries = []
    for i in range(30):
        for _ in range(1 + next(draw) % 3):
            if next(draw) % 2:
                ref = f"paper\tP{next(draw) % 40}"
            else:
                ref = f"author\tA{next(draw) % 20}"
            weight = next(draw) % 4
            entries.append(f"pg{i}\t{ref}\t{weight / 2}" if weight else f"pg{i}\t{ref}")
    entries += ["pg3\tpaper\tP404\t1.0", "pg99\tpaper\tP1\t1.0", "pg5\tauthor\tA404"]
    (d / "page_object_map.tsv").write_text("".join(e + "\n" for e in entries))

    (d / "gamma.tsv").write_text("cites\t0.8\nby\t0.3\ncoauthor\t0.5\n")
    (d / "expert.tsv").write_text("".join(f"paper:P{k}\n" for k in (7, 3, 21, 0, 33, 12, 5, 18)))
    return d


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


CASES = {
    "ingest": ["ingest"],
    "rank": ["rank", "--ppf", "gamma.tsv"],
    "rank-strict": ["rank", "--ppf", "gamma.tsv", "--strict"],
    "simulate": ["simulate", "--ppf", "gamma.tsv", "--steps", "3000", "--seed", "5"],
    "learn": ["learn", "--expert", "expert.tsv"],
    "compare": ["compare", "--ppf", "gamma.tsv"],
}

# label -> (exit code, sha256 of stdout, sha256 of the diag and error lines on stderr)
DIGESTS = {
    "compare": (0, "532105b742748e305ee74770d45edd9ed0665fbe74c87025ace3dae8ad33c958",
                "aa442109661a4b07086be5779f462e490fc96cdd78c5d827187dc02045078838"),
    "ingest": (0, "676c2bd3f9e7817f3dc7c90f4078dc549532599a71fe8167de4e0ee3bb9d65f9",
               "aa442109661a4b07086be5779f462e490fc96cdd78c5d827187dc02045078838"),
    "learn": (0, "9ea9736275fb50cafe6d5a6c4eb332271b4fb00a37167d7f2e82ef76799613ef",
              "aa442109661a4b07086be5779f462e490fc96cdd78c5d827187dc02045078838"),
    "rank": (0, "fc9c0fff2e7f6a4be90dd30201bbc8bdb479a36406d7642cf8cd6f37ab5c400e",
             "aa442109661a4b07086be5779f462e490fc96cdd78c5d827187dc02045078838"),
    "rank-strict": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                    "477c1c5a5cde0ff741dce00ca9a166bc2b5cd506add25c6bd5dbda0e04b6f7f2"),
    "simulate": (0, "af806beff5414b28266ca3f94ecc84c36f465e212d8492d44fd5fb531a3d7835",
                 "aa442109661a4b07086be5779f462e490fc96cdd78c5d827187dc02045078838"),
}


def run_case(label: str, d, capsys) -> tuple[int, str, str]:
    command, *rest = CASES[label]
    code = main([command, str(d)] + [str(d / a) if a.endswith(".tsv") else a for a in rest])
    captured = capsys.readouterr()
    diag = "".join(
        line + "\n" for line in captured.err.splitlines() if line.startswith(("diag\t", "error: "))
    )
    return code, _sha(captured.out), _sha(diag)


@pytest.mark.parametrize("label", sorted(CASES))
def test_cli_output_digest(label, tmp_path, capsys):
    d = write_dirty_corpus(tmp_path / "dirty")
    assert run_case(label, d, capsys) == DIGESTS[label]
