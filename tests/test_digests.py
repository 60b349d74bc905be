"""CLI output pinned by sha256 digests on a seeded, dirty, multi-type corpus.

The corpus has duplicate records with conflicting attributes, duplicate
and unresolvable links, duplicate hyperlinks, pages known only as link
targets and map entries naming unknown pages and objects. It is written
from a fixed linear congruential generator, so it does not depend on any
library's random streams. The digests were recorded before the edge sets
became int64 arrays; any change to a report byte or to a ``diag`` line
shows up here. A second, hand-written corpus pins the readers' edge cases
(``write_edge_corpus``); its digests were recorded before the loader
became columnar.
"""

from __future__ import annotations

import hashlib

import pytest

from poprank import objects
from poprank.cli import main
from poprank.corpus import CorpusPaths, load_corpus


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


def write_edge_corpus(d):
    """Reader edge cases: a type keyed by two attributes (``k1|k2`` refs),
    ``#`` and indented comment lines, blank, whitespace-only and tab-only
    lines, CRLF line endings, a last line without a newline, keys with a
    trailing or leading space, and unresolved sources and targets."""
    d.mkdir()
    (d / "schemas.tsv").write_bytes(
        b"# type\tattributes\tkey\r\n"
        b"paper\ttitle,year\ttitle\r\n"
        b"\r\n"
        b"event\tname,year,city\tname,year\r\n"
        b"  # indented comment\r\n"
    )
    (d / "objects.tsv").write_text(
        "# records\n"
        "r1\tpaper\ttitle=a;year=2001\tpg1\n"
        "   \n"
        "r2\tpaper\ttitle=b\n"
        "\t\n"
        "r3\tpaper\ttitle=c;year=2003\tpg2\n"
        "\t# tab-indented comment\n"
        "e1\tevent\tname=KDD;year=2003;city=DC\tpg2\n"
        "e2\tevent\tname=KDD;year=2004;city=Seattle\n"
        "e3\tevent\tname=WWW;year=2003\n"
        "e4\tevent\tname=KDD;year=2003;city=Boston\n"
        "r4\tpaper\ttitle=b;year=2002\n"
    )
    (d / "links.tsv").write_bytes(
        b"# source_type\tkey\trel\ttarget_type\tkey\r\n"
        b"paper\ta\tcites\tpaper\tb\r\n"
        b"paper\ta\tpresented\tevent\tKDD|2003\r\n"
        b"paper\tb\tcites\tpaper\tmissing\r\n"
        b"\t\t\r\n"
        b"paper\tc \tcites\tpaper\ta\r\n"
        b"  # indented\r\n"
        b"paper\tb\tpresented\tevent\tKDD|2004\n"
        b"paper\tc\tpresented\tevent\tKDD\n"
        b"paper\tc\tpresented\tevent\tWWW|2003|x\n"
        b"event\tKDD|2003\tfollows\tevent\tKDD|2004\n"
        b"event\tICML|2003\tfollows\tevent\tWWW|2003\n"
        b" \n"
        b"paper\ta\tcites\tpaper\tb\n"
        b"paper\t a\tcites\tpaper\tc\n"
        b"paper\tc\tcites\tpaper\tb "
    )
    (d / "pages.tsv").write_bytes(b"pg1\tpg2,pg3\r\n# comment\r\npg2\tpg1\r\n\r\npg3")
    (d / "page_object_map.tsv").write_text(
        "pg1\tpaper\ta\t1.0\n"
        "  # comment\n"
        "pg2\tevent\tKDD|2003\t0.5\n"
        "pg2\tpaper\tc\n"
        "pg3\tevent\tWWW|2003\t2.0\n"
        "pg3\tevent\tWWW\t1.0\n"
    )
    (d / "gamma.tsv").write_bytes(b"# factors\r\ncites\t0.7\r\npresented\t0.4\r\nfollows\t0.2")
    (d / "expert.tsv").write_text("paper:a\nevent:KDD|2003\n\npaper:b\n")
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


# the same commands on write_edge_corpus; recorded before the columnar loader
EDGE_DIGESTS = {
    "compare": (0, "8307d97346f6245164a8d9b5d1cbb08ff467690a038d6b53488daec82cb6de1a",
                "e8abb2be758b0b67a485a2d1ea8d2cb3b4a8c3a775ad10b0a6b8d68567924456"),
    "ingest": (0, "8a51c894034d05a3b7888ed59baa15b7881130a353823bcce5d3618dbca188fc",
               "e8abb2be758b0b67a485a2d1ea8d2cb3b4a8c3a775ad10b0a6b8d68567924456"),
    "learn": (0, "21ea70bc57de026a25cb1beded35548e8bb2516df558e8417f1eac73a599f64f",
              "e8abb2be758b0b67a485a2d1ea8d2cb3b4a8c3a775ad10b0a6b8d68567924456"),
    "rank": (0, "3fcf58821b0122fac36cd89b2fbb2828fb3b7561260c34e6b50d17813e66dcc3",
             "e8abb2be758b0b67a485a2d1ea8d2cb3b4a8c3a775ad10b0a6b8d68567924456"),
    "rank-strict": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                    "f67c15c3b3401397ea150e7055a8d3424cf21e7538e2bd1d070caf3dbb51adf5"),
    "simulate": (0, "ee82b406b42f6e47c7b57bd11248e1e336e593ce558733ceb6994ae0713ca47b",
                 "e8abb2be758b0b67a485a2d1ea8d2cb3b4a8c3a775ad10b0a6b8d68567924456"),
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


@pytest.mark.parametrize("label", sorted(CASES))
def test_edge_corpus_digest(label, tmp_path, capsys):
    d = write_edge_corpus(tmp_path / "edge")
    assert run_case(label, d, capsys) == EDGE_DIGESTS[label]


def test_load_corpus_builds_no_raw_link_or_object_record(tmp_path, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built on the load path")

    monkeypatch.setattr(objects.RawLink, "__init__", refuse)
    monkeypatch.setattr(objects.ObjectRecord, "__init__", refuse)
    bundle = load_corpus(CorpusPaths.in_dir(write_dirty_corpus(tmp_path / "dirty")))
    assert bundle.graph.num_links > 0
